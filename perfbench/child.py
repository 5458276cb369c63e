"""One workload unit in a fresh interpreter; started by ``run.py``.

    python3 perfbench/child.py fine-diagnose --work DIR --trace 0|1 --problem CONFIG
    python3 perfbench/child.py newton-sourced --work DIR --trace 0|1
    python3 perfbench/child.py cli --work DIR --trace 0|1 -- <kirchflow arguments>

The unit imports kirchflow, marches, checks its results and writes
``DIR/result.json``: the monotonic times of the first call into
``stepper.run`` and of the checked result, peak RSS, one verdict per
operation, the solver counts and, when traced, the span summary (the raw
spans go to ``DIR/spans.npz``, or ``DIR/spans_<command>.npz`` for ``cli``).  ``cli`` runs the kirchflow command line
in this process and exits with its code; the caller checks its output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback

from tracing import Probe, Tracer

# criterion 10 of the acceptance gate: the reference lens marched to
# t = 1 at three step sizes, each level certified
FINE_H = (2.5e-4, 1.25e-4, 6.25e-5)
# the regularity-ratio bound of criterion 10
REGULARITY_RATIO_MAX = 1.2
# thresholds of `kirchflow mms` and of the maximum-principle check
MMS_ORDER_MIN = {"spatial": 1.9, "temporal": 0.9}
MMS_LEVELS = 4
MAX_PRINCIPLE_TOL = 1.0e-8
# the problem of `kirchflow demo-overshoot`
OVERSHOOT = {
    "n_cells": 200,
    "center": 0.5,
    "width": 0.1,
    "depth": 0.2,
    "h": 5.0e-5,
    "t_end": 0.02,
    "newton_tol": 1.0e-7,
}
OVERSHOOT_GAMMAS = (0.1, 0.0)
IMPORTS = {
    "fine-diagnose": ("kirchflow.config", "kirchflow.diagnostics"),
    "newton-sourced": ("kirchflow.config", "kirchflow.diagnostics", "kirchflow.harness"),
    "cli": ("kirchflow.cli",),
}


def _failure(exc: BaseException) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def fine_diagnose(problem: str) -> dict:
    import dataclasses

    from kirchflow import config, diagnostics, stepper

    cfg = config.load_config(problem)
    table = cfg.transform_table()
    column = cfg.build_column()
    base = cfg.build_stepping(beta=table.beta_bound())
    u0 = cfg.initial_state(column)
    ops = []
    totals = []
    for h in FINE_H:
        name = f"march h={h!r}"
        try:
            stepping = dataclasses.replace(base, h=h)
            traj = stepper.run(u0, stepping, table)
            report = diagnostics.energy_report(traj, stepping, table)
            total = diagnostics.regularity_monitor(traj)
        except Exception as exc:  # one failed operation, the unit goes on
            ops.append([name, False, _failure(exc)])
            totals.append(None)
            continue
        ineq, gron = report.energy_inequality_ok(), report.gronwall_ok()
        detail = f"energy_inequality_ok={ineq} gronwall_ok={gron} regularity={total!r}"
        ok = ineq and gron
        if totals:
            prev = totals[-1]
            ratio = None if prev is None else total / prev
            ok = ok and ratio is not None and ratio <= REGULARITY_RATIO_MAX
            detail += f" ratio={ratio!r}"
        totals.append(total)
        ops.append([name, bool(ok), detail])
    return {"ops": ops}


def newton_sourced() -> dict:
    import numpy as np

    from kirchflow import config, diagnostics, grid, harness, stepper

    cfg = config.load_config(None)
    table = cfg.transform_table()
    ops = []
    orders = {}
    for mode, threshold in MMS_ORDER_MIN.items():
        try:
            rows = harness.convergence_study(mode, table, levels=MMS_LEVELS, gamma=0.1)
            order = harness.fitted_order(rows)
        except Exception as exc:
            detail = _failure(exc)
            ops += [[f"mms {mode} level {k}", False, detail] for k in range(MMS_LEVELS)]
            continue
        orders[mode] = order
        ok = order >= threshold
        detail = f"fitted order {order!r} (threshold {threshold})"
        ops += [[f"mms {mode} level {r.level}", bool(ok), detail] for r in rows]
    column = grid.Column(length=1.0, n_cells=OVERSHOOT["n_cells"], gravity_sign=-1.0)
    z = column.nodes()
    lens = -OVERSHOOT["depth"] * np.exp(
        -(((z - OVERSHOOT["center"]) / OVERSHOOT["width"]) ** 2)
    )
    for gamma in OVERSHOOT_GAMMAS:
        name = f"overshoot gamma={gamma!r}"
        try:
            stepping = stepper.StepConfig(
                h=OVERSHOOT["h"],
                gamma=gamma,
                t_end=OVERSHOOT["t_end"],
                newton_tol=OVERSHOOT["newton_tol"],
                beta=table.beta_bound(),
            )
            traj = stepper.run(grid.Field(lens, column), stepping, table)
            amp = diagnostics.max_principle_check(traj)
        except Exception as exc:
            ops.append([name, False, _failure(exc)])
            continue
        ok = amp > 0.0 if gamma else amp <= MAX_PRINCIPLE_TOL
        ops.append([name, bool(ok), f"overshoot amplitude {amp!r}"])
    return {"ops": ops, "orders": orders}


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("unit", choices=("fine-diagnose", "newton-sourced", "cli"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--problem", default=None)
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    # every layer the unit uses is imported before the patches go in
    t_import = time.perf_counter()
    for module in IMPORTS[args.unit]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    probe = Probe()
    probe.install()

    exit_code = 0
    if args.unit == "cli":
        exit_code = sys.modules["kirchflow.cli"].main(cli_args)
        out = {"ops": []}
    elif args.unit == "fine-diagnose":
        out = fine_diagnose(args.problem)
    else:
        out = newton_sourced()
    t_checked = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out.update(
        t_first_run=probe.t_first_run,
        t_checked=t_checked,
        maxrss_kb=usage.ru_maxrss,
        cpu_s=usage.ru_utime + usage.ru_stime,
        import_s=import_s,
        counters=probe.counters(),
        versions=_versions(),
        trace=None,
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        spans = f"spans_{cli_args[0]}.npz" if args.unit == "cli" else "spans.npz"
        tracer.save(os.path.join(args.work, spans))
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
