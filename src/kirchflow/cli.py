"""Command-line front end: configured runs and CSV artifacts.

Each subcommand is declared once, in ``_build_parser``; ``main`` loads
the configuration and makes the output directory before calling it.
Exit code 0 means every check passed, 1 means a check failed, 2 means
the solver or the configuration failed; diagnostics go to standard
error.  Artifacts are CSV files with `#`-prefixed metadata (config hash,
library versions — never wall-clock, so identical inputs give
bitwise-identical files).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, RunConfig, gaussian_lens, load_config
from .constitutive import ConstitutiveError
from .diagnostics import (
    energy_report,
    initial_condition_check,
    max_principle_check,
    uniqueness_probe,
)
from .grid import Column, Field
from .harness import HarnessError, convergence_study, fitted_order
from .recovery import darcy_velocity, pressure_field, saturation_field
from .stepper import NonconvergenceError, StepConfig, Trajectory, run as march

__all__ = ["main"]

_MAX_PRINCIPLE_TOL = 1.0e-8

# Fixed fourth-order-overshoot demonstration: a narrow wetting lens,
# stepped finely enough that the fast gamma-driven transient is visible
# before backward differencing damps it flat.
_OVERSHOOT = {
    "n_cells": 200,
    "center": 0.5,
    "width": 0.1,
    "depth": 0.2,
    "h": 5.0e-5,
    "t_end": 0.02,
    "newton_tol": 1.0e-7,
    "gamma": 0.1,
}


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(
    cfg: RunConfig,
    out: str,
    name: str,
    schema: Sequence[str],
    rows: Iterable[Sequence[Any]],
    **meta: Any,
) -> str:
    """Write ``out/name`` with the metadata header; return its path."""
    lines: List[str] = []
    lines.append(f"# kirchflow_version: {__version__}")
    lines.append(f"# numpy_version: {np.__version__}")
    lines.append(f"# scipy_version: {scipy.__version__}")
    lines.append(f"# config_sha256: {cfg.config_hash()}")
    for key, value in meta.items():
        lines.append(f"# {key}: {_fmt(value)}")
    lines.append("# schema: " + ",".join(schema))
    lines.append(",".join(schema))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _stride(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.stride is None:
        return int(cfg.output["stride"])
    if args.stride < 1:
        raise ConfigError(f"--stride: must be >= 1 (got {args.stride})")
    return args.stride


def _snapshot_rows(
    traj: Trajectory,
    column: Column,
    stride: int,
    *extra: Callable[[Field], Field],
) -> List[Tuple[Any, ...]]:
    """Rows ``(t, z, u, *extra)`` of every ``stride``-th state and the last.

    Each of ``extra`` maps a state to one more nodal column.
    """
    last = len(traj.states) - 1
    snapshots = list(range(0, last + 1, stride))
    if snapshots[-1] != last:
        snapshots.append(last)  # the final state is always an artifact
    z = column.nodes().tolist()
    rows: List[Tuple[Any, ...]] = []
    for k in snapshots:
        state = traj.states[k]
        columns = [f(state).values.tolist() for f in extra]
        t = [float(traj.times[k])] * column.n_cells
        rows += zip(t, z, state.values.tolist(), *columns)
    return rows


def _problem(cfg: RunConfig):
    table, column = cfg.transform_table(), cfg.build_column()
    stepping = cfg.build_stepping(beta=table.beta_bound())
    return table, column, stepping, cfg.initial_state(column)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    stride = _stride(cfg, args)
    table, column, stepping, u0 = _problem(cfg)
    traj = march(u0, stepping, table)
    rows = _snapshot_rows(traj, column, stride)
    path = _write_csv(cfg, out, "states.csv", ("t", "z", "u"), rows, stride=stride)
    print(f"wrote {path}: {len(rows) // column.n_cells} snapshots "
          f"of {column.n_cells} nodes")
    return 0


def _cmd_diagnose(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table, column, stepping, u0 = _problem(cfg)
    traj = march(u0, stepping, table)
    report = energy_report(traj, stepping, table)
    bound = np.full(report.times.shape, report.gronwall_bound)
    ledger = (report.times, report.b_integral, report.grad_sq, report.lap_sq,
              report.cum_dissipation, bound)
    path = _write_csv(
        cfg, out, "energy.csv",
        ("t", "B_int", "grad_sq", "lap_sq", "cum_dissipation", "gronwall_bound"),
        zip(*(series.tolist() for series in ledger)),
    )
    print(f"wrote {path}")

    ok = True
    ineq = report.energy_inequality_ok()
    print(f"energy-inequality: {'PASS' if ineq else 'FAIL'}")
    gron = report.gronwall_ok()
    print(
        f"gronwall-bound: {'PASS' if gron else 'FAIL'} "
        f"(max B_int {np.max(report.b_integral):.6e} <= "
        f"{report.gronwall_bound:.6e})"
    )
    ok = ok and ineq and gron
    ic_gap = initial_condition_check(traj, u0, table)
    ic_ok = ic_gap <= 1.0e-12
    print(f"initial-condition: {'PASS' if ic_ok else 'FAIL'} (defect {ic_gap:.3e})")
    ok = ok and ic_ok
    if stepping.gamma == 0.0:
        violation = max_principle_check(traj)
        mp_ok = violation <= _MAX_PRINCIPLE_TOL
        print(
            f"max-principle: {'PASS' if mp_ok else 'FAIL'} "
            f"(violation {violation:.3e} <= {_MAX_PRINCIPLE_TOL:.0e})"
        )
        ok = ok and mp_ok
    return 0 if ok else 1


def _cmd_recover(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    stride = _stride(cfg, args)
    table, column, stepping, u0 = _problem(cfg)
    traj = march(u0, stepping, table)
    rows = _snapshot_rows(
        traj, column, stride,
        lambda state: pressure_field(state, table),
        lambda state: saturation_field(state, table),
        lambda state: darcy_velocity(state, stepping.gamma, table),
    )
    path = _write_csv(
        cfg, out, "fields.csv",
        ("t", "z", "u", "pressure", "saturation", "velocity"), rows, stride=stride,
    )
    print(f"wrote {path}")
    return 0


def _study_rows(rows) -> List[Tuple[Any, ...]]:
    return [
        (r.level, float(r.dz), float(r.h), float(r.l2_error),
         "" if r.observed_order is None else float(r.observed_order))
        for r in rows
    ]


def _cmd_mms(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table = cfg.transform_table()
    gamma = cfg.stepping["gamma"]
    schema = ("level", "dz", "h", "l2_error", "observed_order")
    ok = True
    for mode, threshold in (("spatial", 1.9), ("temporal", 0.9)):
        study = convergence_study(mode, table, gamma=gamma)
        fitted = fitted_order(study)
        rows = _study_rows(study)
        _write_csv(cfg, out, f"mms_{mode}.csv", schema, rows, mode=mode,
                   gamma=float(gamma), fitted_order=float(fitted))
        passed = fitted >= threshold
        ok = ok and passed
        print(f"# mode: {mode}  fitted_order: {fitted:.4f} "
              f"(threshold {threshold}): {'PASS' if passed else 'FAIL'}")
        print(",".join(schema))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0 if ok else 1


def _cmd_probe_uniqueness(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table, _, stepping, u0 = _problem(cfg)
    gap = uniqueness_probe(u0, stepping, table, seed=args.seed)
    bound = 10.0 * stepping.newton_tol
    passed = gap <= bound
    _write_csv(cfg, out, "uniqueness.csv", ("seed", "max_discrepancy", "bound"),
               [(args.seed, float(gap), float(bound))])
    print(f"max discrepancy {gap:.6e} <= {bound:.6e}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_demo_overshoot(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table = cfg.transform_table()
    column = Column(length=1.0, n_cells=_OVERSHOOT["n_cells"], gravity_sign=-1.0)
    lens = gaussian_lens(column.nodes(), _OVERSHOOT["center"],
                         _OVERSHOOT["width"], _OVERSHOOT["depth"])
    u0 = Field(lens, column)
    amplitudes = {}
    for gamma in (_OVERSHOOT["gamma"], 0.0):
        stepping = StepConfig(
            h=_OVERSHOOT["h"], gamma=gamma, t_end=_OVERSHOOT["t_end"],
            newton_tol=_OVERSHOOT["newton_tol"], beta=table.beta_bound(),
        )
        traj = march(u0, stepping, table)
        amplitudes[gamma] = max_principle_check(traj)
    amp_fourth = amplitudes[_OVERSHOOT["gamma"]]
    amp_classic = amplitudes[0.0]
    _write_csv(
        cfg, out, "overshoot.csv", ("gamma", "overshoot_amplitude"),
        [(float(_OVERSHOOT["gamma"]), float(amp_fourth)), (0.0, float(amp_classic))],
        **_OVERSHOOT,
    )
    fourth_ok = amp_fourth > 0.0
    classic_ok = amp_classic <= _MAX_PRINCIPLE_TOL
    print(
        f"gamma={_OVERSHOOT['gamma']}: overshoot amplitude {amp_fourth:.6e} "
        f"(strictly positive: {'PASS' if fourth_ok else 'FAIL'})"
    )
    print(
        f"gamma=0.0: overshoot amplitude {amp_classic:.6e} "
        f"(<= {_MAX_PRINCIPLE_TOL:.0e}: {'PASS' if classic_ok else 'FAIL'})"
    )
    return 0 if fourth_ok and classic_ok else 1


def _cmd_dump_constitutive(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table = cfg.transform_table()
    model = table.model
    p = np.linspace(-50.0, 10.0, 601)
    psi = table.kirchhoff(p)
    u = np.linspace(float(psi[0]), float(psi[-1]), 601)
    pressure = (p, model.saturation(p), model.conductivity_vs_pressure(p), psi)
    transformed = (u, table.b_of_u(u), table.b_prime(u), table.legendre_B(u),
                   table.conductivity_of_u(u))
    path_p = _write_csv(cfg, out, "constitutive_pressure.csv",
                        ("p", "saturation", "conductivity", "kirchhoff"),
                        zip(*(series.tolist() for series in pressure)))
    path_u = _write_csv(cfg, out, "constitutive_transformed.csv",
                        ("u", "b", "b_prime", "legendre_B", "conductivity"),
                        zip(*(series.tolist() for series in transformed)))
    print(f"wrote {path_p}")
    print(f"wrote {path_u}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirchflow",
        description="Implicit solver for fourth-order unsaturated flow "
        "in transformed variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable[..., int], helptext: str,
            stride: bool = False, seed: bool = False) -> None:
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="JSON run configuration (default: built-in)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: from config)")
        if stride:
            sp.add_argument("--stride", type=int, default=None, metavar="N",
                            help="snapshot stride (default: from config)")
        if seed:
            sp.add_argument("--seed", type=int, default=0, metavar="N",
                            help="perturbation seed (default: 0)")

    add("run", _cmd_run, "march the configured problem and write states.csv",
        stride=True)
    add("diagnose", _cmd_diagnose, "run and check the energy estimates (energy.csv)")
    add("recover", _cmd_recover, "run and write physical fields (fields.csv)",
        stride=True)
    add("mms", _cmd_mms, "manufactured-solution convergence studies")
    add("probe-uniqueness", _cmd_probe_uniqueness,
        "perturbed-restart uniqueness check", seed=True)
    add("demo-overshoot", _cmd_demo_overshoot,
        "paired runs showing the fourth-order overshoot")
    add("dump-constitutive", _cmd_dump_constitutive,
        "tabulate constitutive curves and transforms")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out if args.out is not None else cfg.output["directory"]
        os.makedirs(out, exist_ok=True)
        return args.handler(cfg, out, args)
    except (ConfigError, NonconvergenceError, ConstitutiveError, HarnessError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
