#!/usr/bin/env python3
"""kirchflow benchmark: certified fine-h march, Newton-bound sourced runs, CLI cold start.

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, traced: per-layer metrics
    python3 perfbench/run.py --workload fine-diagnose --seed 3 --seconds 30 --trace 0

Each workload unit runs in a fresh interpreter (``child.py``), one at a
time, with BLAS threads pinned to 1, until ``--seconds`` have passed.
Every unit checks its results; the metrics are medians over the units
of the run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go
to ``.bench_work/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"

from tracing import CHANNELS, GRID_OPERATORS, LAYERS

WORKLOADS = ("fine-diagnose", "newton-sourced", "cli-cold")
# operations per unit: h-levels; study levels and overshoot runs; CLI invocations
OPS_PER_UNIT = {"fine-diagnose": 3, "newton-sourced": 10, "cli-cold": 3}
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# fixed string hashing, so dict and set layout repeat from process to process
CHILD_ENV = {**BLAS_PINS, "PYTHONHASHSEED": "0"}
# no unit starts unless the run can still end inside this many seconds
RUN_LIMIT_S = 170.0

REFERENCE_LENS = {"center": 0.5, "width": 0.15, "depth": 0.2}
# `kirchflow <args>`, its artifact, data rows of the artifact on the
# default grid and step, and the lines its stdout must carry
CLI_COMMANDS = (
    (("run", "--stride", "1"), "states.csv", 101 * 200, ()),
    (
        ("diagnose",),
        "energy.csv",
        101,
        ("energy-inequality: PASS", "gronwall-bound: PASS", "initial-condition: PASS"),
    ),
    (("recover",), "fields.csv", 11 * 200, ()),
)

END_TO_END = (
    ("wall_s", "s"),
    ("wall_rel", "ratio"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("calib_s", "s"),
)
# The host's speed drifts by up to 25% over minutes, which the ten-run
# spread of wall_s and steps_per_s showed; wall_rel divides wall_s by the
# calibration loop timed between the units of the same run and is gated
# instead.  The others are printed only.
GATED = (("wall_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("constitutive.build_table_s", "s"),
    ("constitutive.table_knots", "count"),
    *(
        item
        for ch in CHANNELS
        for item in ((f"constitutive.{ch}.calls", "count"), (f"constitutive.{ch}.self_s", "s"))
    ),
    ("constitutive.self_s", "s"),
    ("grid.field_constructions", "count"),
    ("grid.field_s", "s"),
    ("grid.operator_calls", "count"),
    ("grid.operator_s", "s"),
    ("grid.self_s", "s"),
    ("stepper.steps", "count"),
    ("stepper.newton_iters", "count"),
    ("stepper.residual_calls", "count"),
    ("stepper.jacobian_calls", "count"),
    ("stepper.solve_banded_calls", "count"),
    ("stepper.iter0_frac", "ratio"),
    ("stepper.backtracks", "count"),
    ("stepper.residual_s", "s"),
    ("stepper.jacobian_s", "s"),
    ("stepper.solve_banded_s", "s"),
    ("stepper.newton_s", "s"),
    ("stepper.self_s", "s"),
    ("diagnostics.energy_report_s", "s"),
    ("diagnostics.regularity_monitor_s", "s"),
    ("diagnostics.self_s", "s"),
    ("harness.source_calls", "count"),
    ("harness.source_s", "s"),
    ("harness.mms_order_spatial", "order"),
    ("harness.mms_order_temporal", "order"),
    ("harness.self_s", "s"),
    ("recovery.calls", "count"),
    ("recovery.s", "s"),
    ("recovery.self_s", "s"),
    ("config.load_s", "s"),
    ("config.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.other_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# inputs and metadata
# ---------------------------------------------------------------------------


def lens_for_seed(seed: int) -> dict:
    """The reference lens at seed 0; otherwise center, width and depth
    drawn within 2% of it."""
    if seed == 0:
        return dict(REFERENCE_LENS)
    rng = random.Random(seed)
    return {k: v * rng.uniform(0.98, 1.02) for k, v in REFERENCE_LENS.items()}


def write_problem(workload: str, seed: int, work: Path):
    """The config document a unit gets, or None for a fixed workload."""
    if workload == "newton-sourced":
        return None  # fixed by its manufactured solution
    doc = {"ic": {"profile": "gaussian_lens", **lens_for_seed(seed)}}
    path = work / "problem.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kirchflow").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, seed, seconds, trace, versions) -> dict:
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **{f"{k}_version": v for k, v in versions.items()},
        **CHILD_ENV,
    }
    if workload != "newton-sourced":
        meta["lens"] = json.dumps(lens_for_seed(seed), sort_keys=True)
    return meta


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.update(CHILD_ENV)
    return env


def run_child(unit, work, traced, deadline, extra=()):
    """Start one child, wait for it; (spawn time, process or None, result or None)."""
    result = work / "result.json"
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(CHILD), unit, "--work", str(work),
           "--trace", "1" if traced else "0", *extra]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return t_spawn, None, None
    data = json.loads(result.read_text()) if result.exists() else None
    if data is not None and data.get("t_first_run") is None:
        data = None  # never reached the march: nothing to time
    return t_spawn, proc, data


def _new_unit(traced: bool) -> dict:
    return {
        "traced": traced, "ops": [], "timed": False, "wall_s": 0.0, "setup_s": 0.0,
        "rss_mb": 0.0, "cpu_s": 0.0, "import_s": 0.0, "bytes": 0, "orders": {},
        "counters": {}, "trace": None, "versions": {},
    }


def _absorb(unit: dict, data: dict) -> None:
    """Add one child's report to its unit (the CLI unit has three)."""
    unit["rss_mb"] = max(unit["rss_mb"], data["maxrss_kb"] / 1024.0)
    unit["cpu_s"] += data["cpu_s"]
    unit["versions"] = data["versions"]
    unit["orders"].update(data.get("orders", {}))
    counters = unit["counters"]
    for key, value in data["counters"].items():
        counters[key] = max(counters.get(key, 0), value) if key == "knots" else (
            counters.get(key, 0) + value)
    trace = data["trace"]
    if trace is None:
        return
    if unit["trace"] is None:
        unit["trace"] = {"spans": {}, "layers": {}}
    spans, layers = unit["trace"]["spans"], unit["trace"]["layers"]
    for name, vals in trace["spans"].items():
        spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), vals)]
    for name, vals in trace["layers"].items():
        layers[name] = [a + b for a, b in zip(layers.get(name, [0.0, 0.0]), vals)]


def _child_failure(proc) -> str:
    if proc is None:
        return "timed out"
    tail = (proc.stderr or "").strip().splitlines()[-1:] or ["no result written"]
    return f"exit code {proc.returncode}: {tail[0]}"


def solver_unit(workload, work, traced, deadline, problem, reference) -> dict:
    """fine-diagnose / newton-sourced: one child runs and checks everything."""
    unit = _new_unit(traced)
    extra = ["--problem", str(problem)] if problem is not None else []
    t_spawn, proc, data = run_child(workload, work, traced, deadline, extra)
    if data is None or proc.returncode != 0:
        detail = _child_failure(proc)
        unit["ops"] = [[f"{workload} op {k}", False, detail]
                       for k in range(OPS_PER_UNIT[workload])]
        return unit
    _absorb(unit, data)
    unit["ops"] = data["ops"]
    unit["timed"] = True
    unit["wall_s"] = data["t_checked"] - t_spawn
    unit["setup_s"] = data["t_first_run"] - t_spawn
    return unit


def _check_cli(proc, path: Path, rows: int, pass_lines, reference: dict):
    """Problems with one CLI invocation (empty when it passed) and its artifact bytes."""
    if proc is None:
        return ["timed out"], b""
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    problems += [f"missing '{want}'" for want in pass_lines
                 if not any(line.startswith(want) for line in lines)]
    problems += [f"'{line}'" for line in lines if "FAIL" in line]
    if not any(line.startswith("wrote ") for line in lines):
        problems.append("no 'wrote' line")
    if not path.is_file():
        return problems + [f"{path.name} not written"], b""
    blob = path.read_bytes()
    data_rows = sum(1 for line in blob.splitlines() if not line.startswith(b"#")) - 1
    if data_rows != rows:
        problems.append(f"{path.name} has {data_rows} rows, expected {rows}")
    digest = hashlib.sha256(blob).hexdigest()
    if reference.setdefault(path.name, digest) != digest:
        problems.append(f"{path.name} sha256 {digest} differs from the first unit's")
    return problems, blob


def cli_unit(workload, work, traced, deadline, problem, reference) -> dict:
    """cli-cold: `kirchflow run --stride 1`, `diagnose`, `recover`, three processes."""
    unit = _new_unit(traced)
    out_dir = work / "out"
    t_first = None
    timed = True
    for args, artifact, rows, pass_lines in CLI_COMMANDS:
        path = out_dir / artifact
        if path.exists():
            path.unlink()
        cli_args = ["--", *args, "--config", str(problem), "--out", str(out_dir)]
        t_spawn, proc, data = run_child("cli", work, traced, deadline, cli_args)
        t_first = t_spawn if t_first is None else t_first
        problems, blob = _check_cli(proc, path, rows, pass_lines, reference)
        if data is None:
            timed = False
            problems = problems or [_child_failure(proc)]
        else:
            _absorb(unit, data)
            unit["setup_s"] += data["t_first_run"] - t_spawn
            unit["import_s"] += data["import_s"]
        unit["bytes"] += len(blob)
        detail = "; ".join(problems) or f"{artifact} sha256 {reference.get(artifact)}"
        unit["ops"].append(["kirchflow " + " ".join(args), not problems, detail])
    unit["wall_s"] = time.monotonic() - t_first
    unit["timed"] = timed
    return unit


UNITS = {"fine-diagnose": solver_unit, "newton-sourced": solver_unit, "cli-cold": cli_unit}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(unit: dict) -> dict:
    steps = unit["counters"]["steps"]
    return {
        "wall_s": unit["wall_s"],
        "setup_s": unit["setup_s"],
        "steps_per_s": steps / (unit["wall_s"] - unit["setup_s"]),
        "peak_rss_mb": unit["rss_mb"],
    }


def per_layer(unit: dict, workload: str) -> dict:
    spans, layers = unit["trace"]["spans"], unit["trace"]["layers"]
    counters = unit["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def layer_self(layer):
        return layers.get(layer, [0.0, 0.0])[0]

    steps, iters = counters["steps"], counters["newton_iters"]
    m = {
        "constitutive.build_table_s": incl_s("constitutive.build_table"),
        "constitutive.table_knots": counters["knots"],
    }
    for ch in CHANNELS:
        m[f"constitutive.{ch}.calls"] = calls(f"constitutive.{ch}")
        m[f"constitutive.{ch}.self_s"] = self_s(f"constitutive.{ch}")
    m.update({
        "grid.field_constructions": calls("grid.Field"),
        "grid.field_s": self_s("grid.Field"),
        "grid.operator_calls": sum(calls(f"grid.{op}") for op in GRID_OPERATORS),
        "grid.operator_s": sum(self_s(f"grid.{op}") for op in GRID_OPERATORS),
        "stepper.steps": steps,
        "stepper.newton_iters": iters,
        "stepper.residual_calls": calls("stepper.residual"),
        "stepper.jacobian_calls": calls("stepper.jacobian"),
        "stepper.solve_banded_calls": calls("stepper.solve_banded"),
        "stepper.iter0_frac": counters["iter0_steps"] / steps if steps else 0.0,
        "stepper.backtracks": calls("stepper.residual") - steps - iters,
        "stepper.residual_s": incl_s("stepper.residual"),
        "stepper.jacobian_s": incl_s("stepper.jacobian"),
        "stepper.solve_banded_s": self_s("stepper.solve_banded"),
        "stepper.newton_s": incl_s("stepper._newton"),
        "diagnostics.energy_report_s": incl_s("diagnostics.energy_report"),
        "diagnostics.regularity_monitor_s": incl_s("diagnostics.regularity_monitor"),
        "harness.source_calls": calls("harness.source"),
        "harness.source_s": incl_s("harness.source"),
        "harness.mms_order_spatial": unit["orders"].get("spatial", 0.0),
        "harness.mms_order_temporal": unit["orders"].get("temporal", 0.0),
        "recovery.calls": sum(n for name, (n, _, _) in spans.items()
                              if name.startswith("recovery.")),
        "recovery.s": layers.get("recovery", [0.0, 0.0])[1],
        "config.load_s": layers.get("config", [0.0, 0.0])[1],
        "cli.import_s": unit["import_s"] if workload == "cli-cold" else 0.0,
        "cli.bytes_written": unit["bytes"],
        "trace.wall_s": unit["wall_s"],
        "trace.other_s": unit["wall_s"] - sum(layer_self(layer) for layer in LAYERS),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


class Calibration:
    """A fixed Python/numpy loop, timed between units as a probe of host speed.

    Table lookups on small arrays, like the kirchflow channels, but no
    kirchflow code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._table = np.sort(rng.uniform(-1.0, 0.0, 500_000))
        self._queries = rng.uniform(-1.0, 0.0, (4000, 200))

    def seconds(self) -> float:
        np, table = self._np, self._table
        t0 = time.perf_counter()
        for q in self._queries:
            idx = np.searchsorted(table, q, side="right") - 1
            np.max(np.abs(np.maximum(table[idx] * 1.0001, -0.5)))
        return time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run units of one workload for `seconds`; medians over the units."""
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    problem = write_problem(workload, seed, work)
    reference = {}
    calibration = Calibration()
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    calib = [calibration.seconds()]
    units = []
    longest = 0.0
    while True:
        traced = bool(trace) and len(units) % 2 == 1
        t_unit = time.monotonic()
        units.append(UNITS[workload](workload, work, traced, deadline, problem, reference))
        calib.append(calibration.seconds())
        now = time.monotonic()
        longest = max(longest, now - t_unit)
        enough = now - t_start >= seconds and (not trace or len(units) >= 2)
        if enough or now + longest > deadline:
            break

    plain = [u for u in units if u["timed"] and not u["traced"]]
    traced_units = [u for u in units if u["timed"] and u["traced"]]
    if not plain or (trace and not traced_units):
        raise BenchError(
            f"{workload}: no unit produced timings; first failure: "
            + next((op[2] for u in units for op in u["ops"] if not op[1]), "none")
        )
    e2e = {name: _median([end_to_end(u)[name] for u in plain])
           for name in ("wall_s", "setup_s", "steps_per_s", "peak_rss_mb")}
    e2e["calib_s"] = _median(calib)
    e2e["wall_rel"] = e2e["wall_s"] / e2e["calib_s"]
    result = {
        "workload": workload,
        "units": units,
        "attempted": sum(len(u["ops"]) for u in units),
        "failed": sum(1 for u in units for op in u["ops"] if not op[1]),
        "end_to_end": e2e,
        "meta": metadata(workload, seed, seconds, trace, plain[0]["versions"]),
    }
    result["meta"].update({f"{name}_sha256": digest for name, digest in reference.items()})
    if trace:
        layer_rows = [per_layer(u, workload) for u in traced_units]
        layer = {name: _median([row[name] for row in layer_rows]) for name, _ in PER_LAYER
                 if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - e2e["wall_s"]
        result["per_layer"] = layer
    return result


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def contrasts(workload: str, e2e: dict, layer: dict):
    """The workload contrasts the benchmark was designed around, as
    (statement, share, holds); reported, never gated."""
    wall = layer["trace.wall_s"]
    if workload == "fine-diagnose":
        diag = layer["diagnostics.energy_report_s"] + layer["diagnostics.regularity_monitor_s"]
        share = layer["stepper.solve_banded_s"] / wall
        yield "solve_banded under 5% of traced wall", share, share < 0.05
        yield "diagnostics over 25% of traced wall", diag / wall, diag / wall > 0.25
    elif workload == "newton-sourced":
        share = (layer["stepper.jacobian_s"] + layer["stepper.solve_banded_s"]) / wall
        yield "jacobian + solve_banded at least 15% of traced wall", share, share >= 0.15
    else:
        share = e2e["setup_s"] / e2e["wall_s"]
        yield "setup_s over half of wall_s", share, share > 0.5


def report(result: dict, trace: int) -> dict:
    """Print one workload's result; return its metrics in the JSON form."""
    workload = result["workload"]
    for key, value in result["meta"].items():
        print(f"# {key}: {value}")
    for k, u in enumerate(result["units"], 1):
        c = u["counters"]
        ok = sum(1 for op in u["ops"] if op[1])
        print(
            f"# unit {k}{' (traced)' if u['traced'] else ''}: wall_s={u['wall_s']:.4f} "
            f"setup_s={u['setup_s']:.4f} cpu_s={u['cpu_s']:.4f} steps={c.get('steps')} "
            f"newton_iters={c.get('newton_iters')} knots={c.get('knots')} "
            f"ops_ok={ok}/{len(u['ops'])}"
        )
        for name, passed, detail in u["ops"]:
            if not passed:
                print(f"# FAILED {name}: {detail}")
    attempted, failed = result["attempted"], result["failed"]
    rows = [(name, result["end_to_end"][name], unit) for name, unit in END_TO_END]
    rows.append(("fail_frac", failed / attempted, f"ratio ({failed}/{attempted} operations)"))
    if trace:
        layer = result["per_layer"]
        rows += [(name, layer[name], unit) for name, unit in PER_LAYER]
        for statement, share, holds in contrasts(workload, result["end_to_end"], layer):
            print(f"# contrast {workload}: {statement}: {share:.3f} "
                  f"({'holds' if holds else 'CONTRADICTED'})")
    for name, value, unit in rows:
        print(f"{workload:15s} {name:36s} {value!r:>24} {unit}")
    chosen = PER_LAYER if trace else GATED
    source = result["per_layer"] if trace else result["end_to_end"]
    return {name: {"value": source[name], "unit": unit} for name, unit in chosen}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kirchflow" / "__init__.py").is_file():
        print(f"error: no kirchflow sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, args.trace) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        shown = report(result, args.trace)
        if len(results) == 1:
            metrics = shown
        else:
            metrics.update({f"{result['workload']}/{k}": v for k, v in shown.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
