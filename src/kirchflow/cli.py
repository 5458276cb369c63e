"""Command-line front end: configured runs and CSV artifacts.

Subcommands: run, diagnose, recover, mms, probe-uniqueness,
demo-overshoot, dump-constitutive.  Exit code 0 means every check
passed, 1 means a check failed, 2 means the solver or the configuration
failed; diagnostics go to standard error.  Artifacts are CSV files with
`#`-prefixed metadata (config hash, library versions — never wall-clock,
so identical inputs give bitwise-identical files).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .constitutive import OutOfRangeError
from .diagnostics import (
    energy_report,
    initial_condition_check,
    max_principle_check,
    uniqueness_probe,
)
from .grid import Column, Field
from .harness import HarnessError, convergence_study, fitted_order
from .recovery import darcy_velocity, pressure_field, saturation_field
from .stepper import NonconvergenceError, StepConfig, run as march

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
    path: str,
    schema: Sequence[str],
    rows: Iterable[Sequence[Any]],
    meta: Dict[str, Any],
) -> None:
    lines: List[str] = []
    lines.append(f"# kirchflow_version: {__version__}")
    lines.append(f"# numpy_version: {np.__version__}")
    lines.append(f"# scipy_version: {scipy.__version__}")
    for key, value in meta.items():
        lines.append(f"# {key}: {_fmt(value)}")
    lines.append("# schema: " + ",".join(schema))
    lines.append(",".join(schema))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(cfg: RunConfig, args: argparse.Namespace) -> str:
    directory = args.out if args.out is not None else cfg.output["directory"]
    os.makedirs(directory, exist_ok=True)
    return directory


def _stride(cfg: RunConfig, args: argparse.Namespace) -> int:
    stride = getattr(args, "stride", None)
    if stride is None:
        return int(cfg.output["stride"])
    if stride < 1:
        raise ConfigError(f"--stride: must be >= 1 (got {stride})")
    return stride


def _snapshot_indices(n_states: int, stride: int) -> List[int]:
    idx = list(range(0, n_states, stride))
    if idx[-1] != n_states - 1:
        idx.append(n_states - 1)  # the final state is always an artifact
    return idx


def _problem(cfg: RunConfig):
    table, column = cfg.transform_table(), cfg.build_column()
    stepping = cfg.build_stepping(beta=table.beta_bound())
    return table, column, stepping, cfg.initial_state(column)


def _simulate(cfg: RunConfig):
    table, column, stepping, u0 = _problem(cfg)
    return table, column, stepping, u0, march(u0, stepping, table, source=None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    stride = _stride(cfg, args)
    table, column, stepping, u0, traj = _simulate(cfg)
    z = column.nodes().tolist()
    snapshots = _snapshot_indices(len(traj.states), stride)
    rows = [
        (float(traj.times[k]), zi, ui)
        for k in snapshots
        for zi, ui in zip(z, traj.states[k].values.tolist())
    ]
    path = os.path.join(out, "states.csv")
    meta = {"config_sha256": cfg.config_hash(), "stride": stride}
    _write_csv(path, ("t", "z", "u"), rows, meta)
    print(f"wrote {path}: {len(snapshots)} snapshots of {column.n_cells} nodes")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    table, column, stepping, u0, traj = _simulate(cfg)
    report = energy_report(traj, stepping, table)
    bound = np.full(report.times.shape, report.gronwall_bound)
    ledger = (report.times, report.b_integral, report.grad_sq, report.lap_sq,
              report.cum_dissipation, bound)
    path = os.path.join(out, "energy.csv")
    _write_csv(
        path,
        ("t", "B_int", "grad_sq", "lap_sq", "cum_dissipation", "gronwall_bound"),
        zip(*(series.tolist() for series in ledger)),
        {"config_sha256": cfg.config_hash()},
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


def _cmd_recover(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    stride = _stride(cfg, args)
    table, column, stepping, u0, traj = _simulate(cfg)
    z = column.nodes().tolist()
    rows = []
    for k in _snapshot_indices(len(traj.states), stride):
        state = traj.states[k]
        p = pressure_field(state, table).values
        s = saturation_field(state, table).values
        v = darcy_velocity(state, stepping.gamma, table).values
        t = [float(traj.times[k])] * column.n_cells
        rows += zip(t, z, state.values.tolist(), p.tolist(), s.tolist(), v.tolist())
    path = os.path.join(out, "fields.csv")
    _write_csv(
        path,
        ("t", "z", "u", "pressure", "saturation", "velocity"),
        rows,
        {"config_sha256": cfg.config_hash(), "stride": stride},
    )
    print(f"wrote {path}")
    return 0


def _study_rows(rows) -> List[Tuple[Any, ...]]:
    return [
        (r.level, float(r.dz), float(r.h), float(r.l2_error),
         "" if r.observed_order is None else float(r.observed_order))
        for r in rows
    ]


def _cmd_mms(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    table = cfg.transform_table()
    gamma = cfg.stepping["gamma"]
    schema = ("level", "dz", "h", "l2_error", "observed_order")
    ok = True
    for mode, threshold in (("spatial", 1.9), ("temporal", 0.9)):
        rows = convergence_study(mode, table, gamma=gamma)
        fitted = fitted_order(rows)
        path = os.path.join(out, f"mms_{mode}.csv")
        meta = {"config_sha256": cfg.config_hash(), "mode": mode,
                "gamma": float(gamma), "fitted_order": float(fitted)}
        _write_csv(path, schema, _study_rows(rows), meta)
        passed = fitted >= threshold
        ok = ok and passed
        print(f"# mode: {mode}  fitted_order: {fitted:.4f} "
              f"(threshold {threshold}): {'PASS' if passed else 'FAIL'}")
        print(",".join(schema))
        for row in _study_rows(rows):
            print(",".join(_fmt(v) for v in row))
    return 0 if ok else 1


def _cmd_probe_uniqueness(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    table, _, stepping, u0 = _problem(cfg)
    gap = uniqueness_probe(u0, stepping, table, seed=args.seed)
    bound = 10.0 * stepping.newton_tol
    passed = gap <= bound
    path = os.path.join(out, "uniqueness.csv")
    _write_csv(
        path,
        ("seed", "max_discrepancy", "bound"),
        [(args.seed, float(gap), float(bound))],
        {"config_sha256": cfg.config_hash()},
    )
    print(f"max discrepancy {gap:.6e} <= {bound:.6e}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_demo_overshoot(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    table = cfg.transform_table()
    column = Column(length=1.0, n_cells=_OVERSHOOT["n_cells"], gravity_sign=-1.0)
    z = column.nodes()
    lens = -_OVERSHOOT["depth"] * np.exp(
        -(((z - _OVERSHOOT["center"]) / _OVERSHOOT["width"]) ** 2)
    )
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
    path = os.path.join(out, "overshoot.csv")
    _write_csv(
        path,
        ("gamma", "overshoot_amplitude"),
        [(float(_OVERSHOOT["gamma"]), float(amp_fourth)), (0.0, float(amp_classic))],
        {"config_sha256": cfg.config_hash(), **_OVERSHOOT},
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


def _cmd_dump_constitutive(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args)
    model = cfg.build_model()
    table = cfg.transform_table()
    meta = {"config_sha256": cfg.config_hash()}

    p = np.linspace(-50.0, 10.0, 601)
    psi = table.kirchhoff(p)
    path_p = os.path.join(out, "constitutive_pressure.csv")
    _write_csv(
        path_p,
        ("p", "saturation", "conductivity", "kirchhoff"),
        [
            (float(pi), float(model.saturation(pi)),
             float(model.conductivity_vs_pressure(pi)), float(ui))
            for pi, ui in zip(p, psi)
        ],
        meta,
    )

    u = np.linspace(float(psi[0]), float(psi[-1]), 601)
    path_u = os.path.join(out, "constitutive_transformed.csv")
    _write_csv(
        path_u,
        ("u", "b", "b_prime", "legendre_B", "conductivity"),
        [
            (float(ui), float(table.b_of_u(ui)), float(table.b_prime(ui)),
             float(table.legendre_B(ui)), float(table.conductivity_of_u(ui)))
            for ui in u
        ],
        meta,
    )
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

    def add(name: str, helptext: str, stride: bool = False, seed: bool = False):
        sp = sub.add_parser(name, help=helptext)
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
        return sp

    add("run", "march the configured problem and write states.csv",
        stride=True)
    add("diagnose", "run and check the energy estimates (energy.csv)")
    add("recover", "run and write physical fields (fields.csv)", stride=True)
    add("mms", "manufactured-solution convergence studies")
    add("probe-uniqueness", "perturbed-restart uniqueness check", seed=True)
    add("demo-overshoot", "paired runs showing the fourth-order overshoot")
    add("dump-constitutive", "tabulate constitutive curves and transforms")
    return parser


_HANDLERS = {
    "run": _cmd_run,
    "diagnose": _cmd_diagnose,
    "recover": _cmd_recover,
    "mms": _cmd_mms,
    "probe-uniqueness": _cmd_probe_uniqueness,
    "demo-overshoot": _cmd_demo_overshoot,
    "dump-constitutive": _cmd_dump_constitutive,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, NonconvergenceError, OutOfRangeError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
