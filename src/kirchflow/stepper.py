"""Implicit backward-difference stepping of the transformed equation.

Each step solves the nodal system

    (b(u_new) - b(u_old))/h + div(K(u_new) g e3) - lap(u_new)
        + gamma * bih(u_new) = source

by Newton iteration on the banded Jacobian

    diag(b'(u_new)/h) + d(gravity flux)/du - lap + gamma * bih,

with pentadiagonal bandwidth and one LAPACK ``dgbsv`` factor-and-solve per
iterate.  Every iterate takes the full Newton step, clamped from below at the lowest knot
of the transform table, so a step that would leave the domain is projected
back onto it.  Acceptance is deliberately non-monotone:
the sup-norm of the new residual may exceed the best norm seen by up to a
fixed growth cap, because crossing a joint of the piecewise constitutive
curves often bumps the residual up for one iterate before quadratic
collapse, and a strict-decrease rule stalls there.  A residual that is not
finite or exceeds the cap ends the step as divergent.

The step size is guarded at construction by ``h <= 1/beta`` with the
growth constant ``beta`` of the constitutive package; the energy
estimates are unconditional only under that restriction, so a config
violating it is refused rather than warned about.

The storage and gravity terms are linearized exactly (the slope ``b'`` of
the solved ``b`` and the tabulated ``K'``), giving quadratic local
convergence.  The iteration cap and the growth cap are module constants:
they choose how the root is found, not which root, so they are not settings.

Newton runs on plain arrays, and each iterate is evaluated once: one table
lookup for ``b``, ``K``, ``b'`` and ``K'`` and one call of each stencil make
an evaluated record, from which the residual and the Newton matrix are
both read.  The Newton matrix starts from a per-run template of the
constant ``-lap + gamma * bih`` bands in the band storage of ``dgbsv``, the
routine ``scipy.linalg.solve_banded`` calls, on the same input; an iterate
writes only its diagonal and adds the gravity bands times ``K'``.  All of
these bands are read off the residual's own stencils once per run
(``grid.banded``), so every linear term of the Newton matrix is the exact
derivative of the residual's.  The one step loop is the private generator
``_march``: it evaluates the projected initial state, which gives ``b(u^0)``,
and starts each step from the iterate the step before accepted, with its ``b``
as ``b(u_old)``, or from what a ``guess`` hook makes of it (the uniqueness
probe perturbs it).  ``run`` reads it, owns the fixed-point tail and stacks
the accepted values once, in a ``Trajectory`` that keeps every input of the march;
residual and Newton matrix live on one march's private ``_System``, no ``Field``.

``dgbsv`` is bound from scipy's compiled LAPACK module, loaded by file
through ``load_scipy_module``, the one function in kirchflow that reads
scipy (the CLI asks it for scipy's ``version`` module): nothing imports
``scipy`` or ``scipy.linalg``, whose array-API layer would also load
``numpy.f2py``, ``numpy.testing`` and ``numpy.random``, about 0.3 s of
every fresh process, for the same routine object.

A sourceless step is a pure function of its input values and ``b``: once one
returns its input byte for byte, so would every later step, so ``run`` stops
there and ``Trajectory.rows`` maps every later step to the last stored row.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .constitutive import BETA, KirchhoffTable
from .grid import (
    Column, Field, GridError, banded, biharmonic_array, gravity_divergence_array,
    laplacian_array,
)

__all__ = [
    "StepConfigError",
    "NonconvergenceError",
    "StepConfig",
    "Trajectory",
    "project_initial",
    "run",
]


def load_scipy_module(name: str):
    """scipy's module ``scipy.<name>`` (``linalg._flapack``, ``version``),
    loaded from its file under the directory of scipy's import spec; only a
    failed search imports ``scipy``."""
    full = f"scipy.{name}"
    found = importlib.util.find_spec("scipy")
    spec = found and importlib.machinery.PathFinder.find_spec(full, [os.path.join(
        found.submodule_search_locations[0], *name.split(".")[:-1])])
    if spec is None:
        import scipy  # raises here if scipy itself is missing
        raise ImportError(f"{full} not found in scipy {scipy.__version__}", name=full)
    known = full in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:
        # an extension (not a source module) files itself under its name; left
        # there, it keeps a later ``import scipy.linalg`` from setting ``_flapack``
        sys.modules.pop(full, None)
    return module


dgbsv = load_scipy_module("linalg._flapack").dgbsv

_MAX_ITER = 30
# residual growth over the best iterate's allowed before Newton calls the
# step divergent; joint crossings measure ~10x, blowups grow without
# bound, so three decades separates them cleanly
_GROWTH_CAP = 1.0e3


class StepConfigError(ValueError):
    """Invalid stepping parameters (including the h <= 1/beta guard)."""


class NonconvergenceError(RuntimeError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, step_index: Optional[int], residual_norm: float):
        super().__init__(message)
        self.step_index = step_index
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class StepConfig:
    """Step, fourth-order weight, horizon and Newton tolerance of a march.

    The defaults are the reference problem's and the one definition of the
    run configuration's ``stepping`` block.  ``newton_tol = 1e-7`` sits above
    the round-off floor of the reference residual (about 3e-8 at 200 cells).
    ``beta`` is the growth constant ``constitutive.BETA`` of every model
    (``KirchhoffTable.beta_bound()``), not a config key; construction
    refuses ``h > 1/beta``, and more than 2**53 steps ``t_end/h``, the ceiling
    ``Column`` puts on ``n_cells``.  This is the one place these constraints
    are checked; a violation is reported as ``"<field>: <constraint> (got
    <value>)"``.
    """

    h: float = 0.01
    gamma: float = 0.1
    t_end: float = 1.0
    newton_tol: float = 1.0e-7
    beta: float = BETA

    def __post_init__(self) -> None:
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise StepConfigError(f"h: must be positive (got {self.h!r})")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise StepConfigError(f"beta: must be positive (got {self.beta!r})")
        if not self.h <= 1.0 / self.beta:
            raise StepConfigError(
                f"h: violates h <= 1/beta (beta = {self.beta}) (got {self.h!r})"
            )
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise StepConfigError(f"gamma: must be >= 0 (got {self.gamma!r})")
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise StepConfigError(f"t_end: must be positive (got {self.t_end!r})")
        if not self.t_end / self.h <= 2**53:  # also refuses an infinite quotient
            raise StepConfigError(
                f"t_end: needs at most 2**53 steps of h = {self.h!r} (got {self.t_end!r})"
            )
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise StepConfigError(
                f"newton_tol: must be positive (got {self.newton_tol!r})"
            )

    @property
    def n_steps(self) -> int:
        """``t_end/h`` rounded up, unless it exceeds an integer by no more than
        rounding (1e-12, or 4 ulp where larger); at least one step."""
        q = self.t_end / self.h
        return max(1, math.floor(q) + (q % 1.0 > max(1.0e-12, 4.0 * math.ulp(q))))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted states u^0..u^N, with every input of the march that made them.

    ``initial`` is the ``Field`` given to ``run``, not projected, ``column`` its
    column; ``stepping``, ``table`` and ``source`` (or ``None``) are the rest.
    N is ``stepping.n_steps``; the read-only ``times`` is ``h * arange(N + 1)``.
    ``values`` holds each distinct state once, one read-only row each, as a view
    of the array passed in.  A march that stops at a fixed point (see ``run``)
    has ``m + 1 <= N + 1`` rows; state ``n`` is row ``rows[n] = min(n, m)``.
    ``newton_iters`` and ``residual_norms`` have one entry per step, the tail's
    included.  Trajectories compare and hash by identity.
    """

    stepping: StepConfig
    table: KirchhoffTable
    values: np.ndarray
    initial: Field
    source: Optional[Callable[[float], np.ndarray]]
    newton_iters: Tuple[int, ...]
    residual_norms: Tuple[float, ...]
    column: Column = field(init=False)
    times: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        t = self.stepping.h * np.arange(self.n_steps + 1)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "column", self.initial.column)
        vals = np.asarray(self.values, dtype=float).view()
        n = self.column.n_cells
        if vals.ndim != 2 or vals.shape[1] != n or not 1 <= len(vals) <= t.size:
            raise GridError(f"trajectory needs 1 to {t.size} rows of {n} nodal "
                            f"values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("trajectory values must be finite")
        for name in ("newton_iters", "residual_norms"):
            if len(getattr(self, name)) != self.n_steps:
                raise GridError(f"{name}: needs {self.n_steps} entries, one per step "
                                f"(got {len(getattr(self, name))})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_steps(self) -> int:
        return self.stepping.n_steps

    @property
    def rows(self) -> np.ndarray:
        """The row of ``values`` that holds each state u^0..u^N."""
        return np.minimum(np.arange(self.n_steps + 1), len(self.values) - 1)


def project_initial(u0: Field) -> Field:
    """Initial state as the scheme sees it.

    Nodal values with the two boundary-adjacent entries zeroed — the
    finite-difference stand-in for projecting onto the clamped space.
    The difference from the raw samples is O(dz^2) for data compatible
    with the wall conditions.
    """
    vals = u0.values.copy()
    vals[0] = 0.0
    vals[-1] = 0.0
    return Field(vals, u0.column)


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------


class _Iterate(NamedTuple):
    """One evaluated Newton iterate: everything a residual at ``v`` and the
    Newton matrix at ``v`` read."""

    v: np.ndarray
    channels: np.ndarray  # (b, K_f, b', K_f') at v, from one table lookup
    grav: np.ndarray  # gravity_divergence_array(K_f)
    lap: np.ndarray  # laplacian_array(v)
    bih: np.ndarray  # gamma * biharmonic_array(v)


class _System:
    """One march's Newton system on plain arrays, with its run constants."""

    def __init__(self, col: Column, cfg: StepConfig, table: KirchhoffTable):
        self.cfg, self.table, self.dz, self.sign = cfg, table, col.dz, col.gravity_sign
        self.floor = table.u_samples[0]  # the table's one boundary
        # the constant bands of the Newton matrix, read off the stencils, in
        # dgbsv's Fortran (7, n) band storage, added term by term into zeros as
        # (0 - lap) + gamma * bih; summing -lap + gamma * bih ahead of time
        # would round differently.  Gravity is linear in K, so its Newton bands
        # are grav_ab times K' at the iterate.  Bands that overflow are refused.
        n, dz, sign = col.n_cells, col.dz, col.gravity_sign
        with np.errstate(all="ignore"):
            lap_ab = banded(lambda v: laplacian_array(v, dz), n, 1)
            bih_ab = cfg.gamma * banded(lambda v: biharmonic_array(v, dz), n, 2)
            self.template = np.zeros((n, 7)).T
            self.template[3:6] -= lap_ab
            self.template[2:] += bih_ab
        if not np.isfinite(self.template).all():
            raise NonconvergenceError(f"Newton matrix not finite at gamma = "
                                      f"{cfg.gamma!r}, dz = {dz!r}", None, math.nan)
        self.grav_ab = banded(lambda k: gravity_divergence_array(k, dz, sign), n, 1)
        self.lap_d, self.bih_d = lap_ab[1], bih_ab[2]

    def start(self, guess: np.ndarray) -> _Iterate:
        """A Newton guess clamped onto the table from below, evaluated."""
        return self.evaluate(np.maximum(guess, self.floor))

    def evaluate(self, v: np.ndarray) -> _Iterate:
        """One table lookup and one call of each stencil at ``v``."""
        channels = self.table.all_channels(v)
        return _Iterate(v, channels,
                        gravity_divergence_array(channels[1], self.dz, self.sign),
                        laplacian_array(v, self.dz),
                        self.cfg.gamma * biharmonic_array(v, self.dz))

    def residual(self, it: _Iterate, b_old: np.ndarray,
                 source: Optional[np.ndarray]) -> np.ndarray:
        """Residual at the evaluated iterate ``it`` for a step from ``b_old``."""
        out = (it.channels[0] - b_old) / self.cfg.h + it.grav - it.lap + it.bih
        return out if source is None else out - source

    def jacobian(self, it: _Iterate) -> np.ndarray:
        """Newton matrix at ``it`` in ``dgbsv``'s Fortran ``(7, n)`` band
        storage: rows ``2:`` in ``solve_banded`` layout, rows ``:2`` left for
        the factorization's fill-in.

        The diagonal is written as ``(b'/h - lap) + gamma * bih``: adding the
        three terms into a zero diagonal in turn gives the same bits, because
        ``0.0 + b'/h == b'/h`` for ``b' >= 0`` (``0.0 + 0.0`` is ``0.0``).
        """
        lu = self.template.copy(order="F")
        lu[4] = it.channels[2] / self.cfg.h - self.lap_d + self.bih_d
        lu[3:6] += self.grav_ab * it.channels[3]
        return lu


# ---------------------------------------------------------------------------
# Newton solve
# ---------------------------------------------------------------------------


def _newton(system: _System, b_old: np.ndarray, guess: _Iterate,
            source: Optional[np.ndarray], step_index: Optional[int]
            ) -> Tuple[_Iterate, int, float]:
    """The accepted iterate, the iteration count and the residual norm.

    ``guess`` is evaluated already, at values on or above the floor: a fresh
    guess goes through ``_System.start``, and the iterate returned here (the
    guess or a clamped Newton step) can start the next step as it is.
    """
    cfg = system.cfg
    where = "" if step_index is None else f" (step {step_index})"
    it = guess
    r = system.residual(it, b_old, source)
    rnorm = float(np.abs(r).max())
    if not math.isfinite(rnorm):
        raise NonconvergenceError(f"residual not finite{where}", step_index, rnorm)
    best = rnorm
    for n_it in range(_MAX_ITER):
        if rnorm <= cfg.newton_tol:
            return it, n_it, rnorm
        _, _, delta, info = dgbsv(2, 2, system.jacobian(it), -r,
                                  overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise NonconvergenceError(f"banded factorization failed (LAPACK info "
                                      f"{info}){where}", step_index, rnorm)
        it = system.evaluate(np.maximum(it.v + delta, system.floor))
        r = system.residual(it, b_old, source)
        rnorm = float(np.abs(r).max())
        cap = max(_GROWTH_CAP * best, cfg.newton_tol)
        if not (math.isfinite(rnorm) and rnorm <= cap):
            raise NonconvergenceError(
                f"Newton diverged: residual {rnorm:.3e} > {_GROWTH_CAP:g} x best "
                f"{best:.3e}{where}", step_index, rnorm)
        best = min(best, rnorm)
    if rnorm <= cfg.newton_tol:
        return it, _MAX_ITER, rnorm
    raise NonconvergenceError(
        f"no convergence in {_MAX_ITER} Newton iterations: "
        f"residual {rnorm:.3e} > tol {cfg.newton_tol:.3e}{where}",
        step_index,
        rnorm,
    )


def _march(u0: Field, cfg: StepConfig, table: KirchhoffTable,
           source: Optional[Callable[[float], np.ndarray]] = None,
           guess: Optional[Callable[[_System, _Iterate], _Iterate]] = None):
    """The evaluated projected initial state, then ``(iterate, iterations,
    norm)`` of each accepted step; ``guess(system, it)`` turns the iterate the
    step before accepted into Newton's start, which is that iterate itself
    when no ``guess`` is given.  ``source`` is read at ``h * k`` for step k."""
    system = _System(u0.column, cfg, table)
    # refuses a state below the table; a state whose stencils overflow
    # evaluates to inf or NaN, which _newton refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        it = system.evaluate(project_initial(u0).values)
    yield it
    for k in range(1, cfg.n_steps + 1):
        src = None if source is None else np.asarray(source(cfg.h * np.float64(k)), float)
        start = it if guess is None else guess(system, it)
        it, n_it, rnorm = _newton(system, it.channels[0], start, src, k)
        yield it, n_it, rnorm


def run(
    u0: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    source: Optional[Callable[[float], np.ndarray]] = None,
) -> Trajectory:
    """March N = ``cfg.n_steps`` steps from the projected initial state.

    ``source(t)`` — when given — returns the right side at time ``t`` on the
    nodes of ``u0.column``; it is evaluated at each step's target time (fully
    implicit right side, used by the manufactured-solution studies).  Solver
    failures carry the failing step index.  A sourceless step that returns
    its input values byte for byte is a fixed point (``b`` is read off those
    same values): the march stops storing states there, and later steps
    repeat its iteration count and norm.
    """
    steps = _march(u0, cfg, table, source)
    values, iters, norms = [next(steps).v], [], []
    for it, n_it, rnorm in steps:
        if source is None and it.v.tobytes() == values[-1].tobytes():
            iters += [n_it] * (cfg.n_steps + 1 - len(values))
            norms += [rnorm] * (cfg.n_steps + 1 - len(values))
            break
        values.append(it.v)
        iters.append(n_it)
        norms.append(rnorm)
    return Trajectory(stepping=cfg, table=table, values=np.stack(values), initial=u0,
                      source=source, newton_iters=tuple(iters), residual_norms=tuple(norms))
