"""Command-line front end: configured runs and CSV artifacts.

Each subcommand is declared once, in ``_build_parser``; ``main`` checks
``--out`` and loads the configuration before calling it.  The output
directory is made at the first artifact, so a refused run leaves none.
Exit code 0 means every check passed, 1 means a check failed, 2 means
the solver, the configuration or a diagnostic (such as a growth bound that
overflows) failed; diagnostics go to standard error.  Artifacts are CSV
files with `#`-prefixed metadata (config hash, library versions — never
wall-clock, so identical inputs give bitwise-identical files).
"""

from __future__ import annotations

import argparse
import os
import sys
from math import inf
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, gaussian_lens, load_config
from .constitutive import ConstitutiveError
from .diagnostics import (
    MAX_PRINCIPLE_TOL, Check, DiagnosticsError, certify, energy_report,
    max_principle_check, uniqueness_probe,
)
from .grid import Column, Field
from .harness import MMS_ORDER_MIN, HarnessError, convergence_study, fitted_order
from .recovery import darcy_velocity, pressure_field, saturation_field
from .stepper import (
    NonconvergenceError, StepConfig, Trajectory, load_scipy_module, run as march,
)

__all__ = ["main"]

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


def _csv_lines(rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    """One comma-joined line of ``str`` values per row: every value is a
    Python float, int or string, whose ``str`` is its ``repr``."""
    return (",".join(map(str, row)) for row in rows)


def _write_csv(
    cfg: RunConfig,
    out: str,
    name: str,
    schema: Sequence[str],
    lines: Iterable[str],
    **meta: Any,
) -> str:
    """Stream the metadata header and the data ``lines`` to ``out/name``,
    making ``out`` if needed; return its path."""
    header = {"kirchflow_version": __version__, "numpy_version": np.__version__,
              "scipy_version": load_scipy_module("version").version,
              "config_sha256": cfg.config_hash(), **meta, "schema": ",".join(schema)}
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in header.items())
        fh.write(",".join(schema) + "\n")
        fh.writelines(line + "\n" for line in lines)
    return path


def _stride(args: argparse.Namespace) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride: must be >= 1 (got {args.stride})")
    return args.stride


def _check_out(out: str) -> None:
    """Refuse an ``--out`` whose nearest existing component is no directory."""
    path = out and os.path.abspath(out)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out: must name a directory (got {out!r})")


def _snapshots(traj: Trajectory, stride: int) -> List[int]:
    """Every ``stride``-th step, and the last (always an artifact)."""
    return sorted({*range(0, traj.n_steps + 1, stride), traj.n_steps})


def _snapshot_lines(
    traj: Trajectory,
    snapshots: Sequence[int],
    *extra: Callable[[Field], Field],
) -> Iterator[str]:
    """Lines ``t,z,u,*extra`` of the states at ``snapshots``.

    Each of ``extra`` maps a state to one more nodal column.  Steps past a
    fixed point share a row of ``traj.values``, so each row is mapped and
    formatted once, before any file is opened: a map that raises leaves no
    partial artifact.  The returned lines prefix that text with each
    snapshot's time.
    """
    z = traj.column.nodes().tolist()
    rows = traj.rows[snapshots].tolist()
    text = {}  # the "z,u,*extra" lines of each row
    for r in dict.fromkeys(rows):
        state = Field(traj.values[r], traj.column)
        columns = [f(state).values.tolist() for f in extra]
        text[r] = list(_csv_lines(zip(z, state.values.tolist(), *columns)))
    blocks = [(float(traj.times[k]), text[r]) for k, r in zip(snapshots, rows)]
    return (f"{t},{line}" for t, lines in blocks for line in lines)


def _print_checks(checks: Sequence[Check]) -> int:
    """Print each check as ``name: PASS (value V <= bound B, headroom Rx)``, with
    ``FAIL`` and ``>`` if it fails and the headroom B/V only where both are
    positive and B/V is finite; return 0 if every check passed, else 1."""
    for c in checks:
        line = (f"{c.name}: {'PASS' if c.passed else 'FAIL'} (value {c.value:.6e} "
                f"{'<=' if c.passed else '>'} bound {c.bound:.6e}")
        positive = c.value > 0.0 and c.bound > 0.0
        ratio = float(c.bound) / float(c.value) if positive else inf
        print(f"{line}, headroom {ratio:.3g}x)" if ratio < inf else f"{line})")
    return 0 if all(c.passed for c in checks) else 1


def _trajectory(cfg: RunConfig) -> Trajectory:
    """The configured problem, marched through the module-level name ``march``."""
    table, column = cfg.transform_table(), cfg.build_column()
    return march(cfg.initial_state(column), cfg.build_stepping(), table)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    stride = _stride(args)
    traj = _trajectory(cfg)
    snapshots = _snapshots(traj, stride)
    path = _write_csv(cfg, out, "states.csv", ("t", "z", "u"),
                      _snapshot_lines(traj, snapshots), stride=stride)
    print(f"wrote {path}: {len(snapshots)} snapshots of {traj.column.n_cells} nodes")
    return 0


def _cmd_diagnose(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    traj = _trajectory(cfg)
    report = energy_report(traj, traj.stepping, traj.table)
    bound = np.full(report.times.shape, report.gronwall_bound)
    ledger = (report.times, report.b_integral, report.grad_sq, report.lap_sq,
              report.cum_dissipation, bound)
    path = _write_csv(
        cfg, out, "energy.csv",
        ("t", "B_int", "grad_sq", "lap_sq", "cum_dissipation", "gronwall_bound"),
        _csv_lines(zip(*(series.tolist() for series in ledger))),
    )
    print(f"wrote {path}")
    return _print_checks(certify(traj))


def _cmd_recover(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    stride = _stride(args)
    traj = _trajectory(cfg)
    lines = _snapshot_lines(
        traj, _snapshots(traj, stride),
        lambda state: pressure_field(state, traj.table),
        lambda state: saturation_field(state, traj.table),
        lambda state: darcy_velocity(state, traj.stepping.gamma, traj.table),
    )
    path = _write_csv(
        cfg, out, "fields.csv",
        ("t", "z", "u", "pressure", "saturation", "velocity"), lines, stride=stride,
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
    for mode, threshold in MMS_ORDER_MIN.items():
        study = convergence_study(mode, table, gamma=gamma)
        fitted = fitted_order(study)
        lines = list(_csv_lines(_study_rows(study)))
        _write_csv(cfg, out, f"mms_{mode}.csv", schema, lines, mode=mode,
                   gamma=float(gamma), fitted_order=float(fitted))
        passed = fitted >= threshold
        ok = ok and passed
        print(f"# mode: {mode}  fitted_order: {fitted:.4f} "
              f"(threshold {threshold}): {'PASS' if passed else 'FAIL'}")
        print(",".join(schema))
        for line in lines:
            print(line)
    return 0 if ok else 1


def _cmd_probe_uniqueness(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0 (got {args.seed})")
    check = uniqueness_probe(_trajectory(cfg), seed=args.seed)
    _write_csv(cfg, out, "uniqueness.csv", ("seed", "max_discrepancy", "bound"),
               _csv_lines([(args.seed, float(check.value), float(check.bound))]))
    return _print_checks([check])


def _cmd_demo_overshoot(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table = cfg.transform_table()
    column = Column(length=1.0, n_cells=_OVERSHOOT["n_cells"], gravity_sign=-1.0)
    lens = gaussian_lens(column.nodes(), _OVERSHOOT["center"],
                         _OVERSHOOT["width"], _OVERSHOOT["depth"])
    u0 = Field(lens, column)
    amplitudes = {}
    for gamma in (_OVERSHOOT["gamma"], 0.0):
        stepping = StepConfig(h=_OVERSHOOT["h"], gamma=gamma, t_end=_OVERSHOOT["t_end"],
                              newton_tol=_OVERSHOOT["newton_tol"])
        traj = march(u0, stepping, table)
        amplitudes[gamma] = max_principle_check(traj)
    amp_fourth = amplitudes[_OVERSHOOT["gamma"]]
    amp_classic = amplitudes[0.0]
    _write_csv(
        cfg, out, "overshoot.csv", ("gamma", "overshoot_amplitude"),
        _csv_lines([(float(_OVERSHOOT["gamma"]), float(amp_fourth)),
                    (0.0, float(amp_classic))]),
        **_OVERSHOOT,
    )
    fourth_ok = amp_fourth > 0.0
    classic_ok = amp_classic <= MAX_PRINCIPLE_TOL
    print(
        f"gamma={_OVERSHOOT['gamma']}: overshoot amplitude {amp_fourth:.6e} "
        f"(strictly positive: {'PASS' if fourth_ok else 'FAIL'})"
    )
    print(
        f"gamma=0.0: overshoot amplitude {amp_classic:.6e} "
        f"(<= {MAX_PRINCIPLE_TOL:.0e}: {'PASS' if classic_ok else 'FAIL'})"
    )
    return 0 if fourth_ok and classic_ok else 1


def _cmd_dump_constitutive(cfg: RunConfig, out: str, args: argparse.Namespace) -> int:
    table = cfg.transform_table()
    model = table.model
    p = np.linspace(-50.0, 10.0, 601)
    psi = table.kirchhoff(p)
    u = np.linspace(float(psi[0]), float(psi[-1]), 601)
    pressure = (p, model.saturation(p), model.conductivity_vs_pressure(p), psi)
    b, k, db = table.all_channels(u)[:3]
    transformed = (u, b, db, table.legendre_B(u), k)
    path_p = _write_csv(cfg, out, "constitutive_pressure.csv",
                        ("p", "saturation", "conductivity", "kirchhoff"),
                        _csv_lines(zip(*(series.tolist() for series in pressure))))
    path_u = _write_csv(cfg, out, "constitutive_transformed.csv",
                        ("u", "b", "b_prime", "legendre_B", "conductivity"),
                        _csv_lines(zip(*(series.tolist() for series in transformed))))
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
        sp.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: out)")
        if stride:
            sp.add_argument("--stride", type=int, default=10, metavar="N",
                            help="snapshot stride (default: 10)")
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
        _check_out(args.out)
        return args.handler(load_config(args.config), args.out, args)
    except (ConfigError, NonconvergenceError, ConstitutiveError, DiagnosticsError,
            HarnessError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
