"""Spans and counters around the kirchflow layers, patched in from outside.

Nothing in ``src/`` knows about this module.  ``Probe`` rebinds every
name through which ``stepper.run`` is looked up (``cli.march``,
``harness.run``, ...) and records the first call and the accepted
steps and Newton iterations of each march; it is installed in every
child process.  ``Tracer`` additionally wraps the public functions of
every loaded layer, the table channels and ``Field.__init__``, keeping
one span (name, parent, start, end) per call in memory.  Self time is a
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = (
    "constitutive",
    "grid",
    "stepper",
    "diagnostics",
    "harness",
    "recovery",
    "config",
    "cli",
)

CHANNELS = (
    "b_of_u",
    "b_prime",
    "conductivity_of_u",
    "dconductivity_du",
    "legendre_B",
    "kirchhoff_inverse",
)

# Module-level functions traced, by the layer that defines them (for
# ``stepper.solve_banded`` the layer that looks it up).  Names missing
# from a layer are skipped, so the tracer survives refactors.
FUNCTIONS = {
    "constitutive": ("build_table",),
    "grid": (
        "laplacian_clamped",
        "biharmonic_clamped",
        "face_conductivities",
        "gravity_divergence",
        "gravity_divergence_jacobian_banded",
        "laplacian_banded",
        "biharmonic_banded",
        "integrate",
        "l2_norm",
        "h1_seminorm",
    ),
    "stepper": (
        "residual",
        "jacobian",
        "_newton",
        "run",
        "step",
        "project_initial",
        "solve_banded",
    ),
    "diagnostics": (
        "energy_report",
        "regularity_monitor",
        "max_principle_check",
        "initial_condition_check",
        "time_quotient_check",
        "uniqueness_probe",
    ),
    "harness": ("convergence_study", "fitted_order", "_mms_error"),
    "recovery": (
        "pressure_field",
        "saturation_field",
        "darcy_velocity",
        "gradient_consistency",
        "face_velocity",
        "mass_balance_residual",
    ),
    "config": ("parse_config", "load_config"),
    "cli": ("main", "_write_csv"),
}

GRID_OPERATORS = FUNCTIONS["grid"]


def loaded_layers():
    """The kirchflow layer modules imported so far, by layer name."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"kirchflow.{layer}")
        if mod is not None:
            out[layer] = mod
    return out


def rebind(orig, replacement, modules) -> None:
    """Point every module-level name bound to ``orig`` at ``replacement``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, replacement)


class Probe:
    """First call into ``stepper.run`` plus per-march solver counts."""

    def __init__(self) -> None:
        self.t_first_run = None
        self.steps = 0
        self.newton_iters = 0
        self.iter0_steps = 0
        self.knots = 0

    def install(self) -> None:
        layers = loaded_layers()
        stepper = layers["stepper"]
        orig = stepper.run

        @functools.wraps(orig)
        def run(u0, cfg, table, *args, **kwargs):
            if self.t_first_run is None:
                self.t_first_run = time.monotonic()
                # knots of the unsaturated branch; the table adds 4 above p = 0
                samples = getattr(table, "p_samples", None)
                self.knots = 0 if samples is None else int((samples <= 0.0).sum())
            traj = orig(u0, cfg, table, *args, **kwargs)
            iters = getattr(traj, "newton_iters", ())
            self.steps += traj.n_steps
            self.newton_iters += int(sum(iters))
            self.iter0_steps += sum(1 for n in iters if n == 0)
            return traj

        rebind(orig, run, layers.values())

    def counters(self) -> dict:
        return {
            "steps": self.steps,
            "newton_iters": self.newton_iters,
            "iter0_steps": self.iter0_steps,
            "knots": self.knots,
        }


class Tracer:
    """In-memory spans at the layer boundaries of one process."""

    def __init__(self) -> None:
        self.names = []
        self._ids = {}
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = []

    def wrap(self, name, fn):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        layers = loaded_layers()
        modules = list(layers.values())
        for layer, names in FUNCTIONS.items():
            mod = layers.get(layer)
            if mod is None:
                continue
            for name in names:
                orig = getattr(mod, name, None)
                if callable(orig):
                    rebind(orig, self.wrap(f"{layer}.{name}", orig), modules)
        table_cls = getattr(layers["constitutive"], "KirchhoffTable", None)
        for channel in CHANNELS:
            orig = getattr(table_cls, channel, None)
            if orig is not None:
                setattr(table_cls, channel, self.wrap(f"constitutive.{channel}", orig))
        field_cls = getattr(layers["grid"], "Field", None)
        if field_cls is not None:
            field_cls.__init__ = self.wrap("grid.Field", field_cls.__init__)
        harness = layers.get("harness")
        manufactured = getattr(harness, "ManufacturedSolution", None)
        if manufactured is not None:
            make_source = manufactured.source_callable

            @functools.wraps(make_source)
            def source_callable(ms, *args, **kwargs):
                return self.wrap("harness.source", make_source(ms, *args, **kwargs))

            manufactured.source_callable = source_callable

    def summary(self) -> dict:
        """Calls, self and inclusive seconds per span name and per layer.

        Inclusive time counts only spans whose parent has another name
        (another layer, for the layer totals), so nesting is not counted
        twice.
        """
        import numpy as np

        n_names = len(self.names)
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - covered

        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        parent_nid = np.where(nested, nid[np.maximum(parent, 0)], -1)
        top_of_name = parent_nid != nid
        span_layer = layer_of[nid] if nid.size else nid
        parent_layer = np.where(nested, layer_of[np.maximum(parent_nid, 0)], -1)
        top_of_layer = parent_layer != span_layer

        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=self_t, minlength=n_names)
        incl_s = np.bincount(nid, weights=np.where(top_of_name, dur, 0.0), minlength=n_names)
        spans = {
            name: [int(calls[i]), float(self_s[i]), float(incl_s[i])]
            for i, name in enumerate(self.names)
        }
        n_layers = len(LAYERS)
        layer_self = np.bincount(span_layer, weights=self_t, minlength=n_layers)
        layer_incl = np.bincount(
            span_layer, weights=np.where(top_of_layer, dur, 0.0), minlength=n_layers
        )
        layers = {
            layer: [float(layer_self[i]), float(layer_incl[i])]
            for i, layer in enumerate(LAYERS)
        }
        return {"spans": spans, "layers": layers}

    def save(self, path) -> None:
        """Write the raw spans (names table plus one row per call)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
