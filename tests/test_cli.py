"""End-to-end CLI contract: artifacts, pass/fail wiring, determinism."""

import json
import os
import re
import subprocess
import sys
from math import inf
from pathlib import Path

import numpy as np
import pytest

import kirchflow
from kirchflow import cli, diagnostics
from kirchflow.cli import main
from kirchflow.config import load_config
from kirchflow.constitutive import OutOfRangeError
from kirchflow.diagnostics import MAX_PRINCIPLE_TOL, certify
from kirchflow.harness import MMS_ORDER_MIN
from kirchflow.recovery import pressure_field
from kirchflow.stepper import run as march

# small, fast problem reused by most invocations
SMALL = {
    "grid": {"n_cells": 60},
    "stepping": {"h": 0.01, "t_end": 0.1, "newton_tol": 1.0e-8},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def _read_csv(path):
    """(meta dict, column names, float matrix) from one artifact."""
    meta = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) if v else np.nan for v in line.split(",")])
    return meta, header, np.array(rows)


def test_run_writes_strided_states(tmp_path, small_config):
    out = tmp_path / "artifacts"
    assert main(["run", "--config", small_config, "--out", str(out),
                 "--stride", "3"]) == 0
    meta, header, data = _read_csv(out / "states.csv")
    assert header == ["t", "z", "u"]
    assert meta["schema"] == "t,z,u"
    assert "config_sha256" in meta and len(meta["config_sha256"]) == 64
    times = np.unique(data[:, 0])
    # 11 states at stride 3 -> indices 0,3,6,9 plus the final state
    np.testing.assert_allclose(times, [0.0, 0.03, 0.06, 0.09, 0.1])
    assert data.shape == (5 * 60, 3)
    first = data[data[:, 0] == 0.0]
    assert first[0, 2] == 0.0  # projected wall-adjacent node
    assert first[:, 2].min() == pytest.approx(-0.2, rel=1e-2)


def test_output_block_is_refused_and_stride_defaults_to_10(tmp_path, capsys):
    # where and how often to write are flags, not config: the former output
    # block is an unknown block, refused before any directory is made
    config = tmp_path / "output.json"
    config.write_text('{"output": {}}')
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: output: unknown block (got 'output')\n"
    assert not out.exists()
    # without --stride, run writes every 10th of the default run's 101 states
    assert main(["run", "--out", str(out)]) == 0
    meta, _, data = _read_csv(out / "states.csv")
    assert meta["stride"] == "10"
    np.testing.assert_array_equal(np.unique(data[:, 0]), 0.01 * np.arange(0, 101, 10))


def test_run_is_bitwise_deterministic(tmp_path, small_config):
    artifacts = {
        ("run", "--stride", "3"): ("states.csv",),
        ("diagnose",): ("energy.csv",),
        ("recover", "--stride", "3"): ("fields.csv",),
        ("dump-constitutive",): ("constitutive_pressure.csv",
                                 "constitutive_transformed.csv"),
    }
    for command, names in artifacts.items():
        out_a = tmp_path / command[0] / "a"
        out_b = tmp_path / command[0] / "b"
        for out in (out_a, out_b):
            assert main([*command, "--config", small_config, "--out", str(out)]) == 0
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_recover_snapshots_match_run(tmp_path, small_config):
    # same config and stride: the t,z,u columns of fields.csv are the rows
    # of states.csv, character for character
    def rows(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    for stride in ("3", "4"):
        out = tmp_path / stride
        for command in ("run", "recover"):
            assert main([command, "--config", small_config, "--out", str(out),
                         "--stride", stride]) == 0
        fields = [",".join(line.split(",")[:3]) for line in rows(out / "fields.csv")]
        assert fields == rows(out / "states.csv")


@pytest.fixture(scope="module")
def reference_march():
    """The default problem's column and trajectory, marched here."""
    cfg = load_config(None)
    table, column = cfg.transform_table(), cfg.build_column()
    traj = march(cfg.initial_state(column), cfg.build_stepping(), table)
    return column, traj


def test_run_rows_equal_the_trajectory_formatted_here(tmp_path, reference_march):
    # every state at stride 1, the fixed-point tail's repeats included,
    # formatted value by value with repr
    column, traj = reference_march
    assert len(traj.values) < len(traj.times)
    expected = [",".join(repr(v) for v in (float(t), z, u))
                for t, state in zip(traj.times, traj.values[traj.rows])
                for z, u in zip(column.nodes().tolist(), state.tolist())]
    out = tmp_path / "artifacts"
    assert main(["run", "--stride", "1", "--out", str(out)]) == 0
    lines = [line for line in (out / "states.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "t,z,u"
    assert lines[1:] == expected


def test_csv_values_are_written_as_their_repr(tmp_path):
    # every value reaches the CSV as a Python float, int or string, whose
    # str is its repr: shortest round-trip digits, exponents and signed zero
    values = (0.1, 1e-05, 1e+16, -0.0)
    path = cli._write_csv(load_config(None), str(tmp_path), "values.csv",
                          ("a", "b", "c", "d"), cli._csv_lines([values]), level=-0.0)
    lines = Path(path).read_text().splitlines()
    assert "# level: -0.0" in lines
    assert lines[-1].split(",") == [repr(v) for v in values]


def test_recover_maps_each_distinct_state_once(tmp_path, monkeypatch, reference_march):
    traj = reference_march[1]
    seen = []

    def counting(state, table):
        seen.append(state)
        return pressure_field(state, table)

    monkeypatch.setattr(cli, "pressure_field", counting)
    out = tmp_path / "artifacts"
    assert main(["recover", "--stride", "1", "--out", str(out)]) == 0
    assert [state.values.tobytes() for state in seen] == [
        row.tobytes() for row in traj.values]


def test_recover_failure_leaves_no_partial_artifact(tmp_path, monkeypatch, capsys):
    # the rows stream to the file, but every state is mapped before it opens
    def failing(state, table):
        raise OutOfRangeError("u below the table")

    monkeypatch.setattr(cli, "pressure_field", failing)
    out = tmp_path / "artifacts"
    assert main(["recover", "--out", str(out)]) == 2
    assert "u below the table" in capsys.readouterr().err
    assert not (out / "fields.csv").exists()


_VERDICT = re.compile(r"([a-z-]+): (PASS|FAIL) \(value (\S+) (<=|>) bound (\S+)"
                      r"(, headroom \S+x)?\)")


def _verdicts(stdout):
    """{name: (verdict, value text, bound text)} of the printed checks: every
    line but a ``wrote`` one is a check, whose relation matches its verdict
    and whose headroom is shown iff value and bound are both positive and
    their quotient is finite."""
    found = {}
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            continue
        match = _VERDICT.fullmatch(line)
        assert match, line
        name, verdict, value, relation, bound, headroom = match.groups()
        passed = float(value) <= float(bound)
        assert (verdict == "PASS") == (relation == "<=") == passed, line
        shown = float(value) > 0.0 < float(bound) and float(bound) / float(value) < inf
        assert (headroom is not None) == shown, line
        found[name] = (verdict, value, bound)
    return found


def test_diagnose_benchmark_passes(tmp_path, capsys, reference_march):
    out = tmp_path / "artifacts"
    assert main(["diagnose", "--out", str(out)]) == 0
    meta, header, data = _read_csv(out / "energy.csv")
    assert header == ["t", "B_int", "grad_sq", "lap_sq",
                      "cum_dissipation", "gronwall_bound"]
    assert data.shape[0] == 101
    assert np.all(data[:, 1] <= data[:, 5])  # every row below the bound
    captured = capsys.readouterr().out
    assert "energy-inequality: PASS" in captured
    assert "gronwall-bound: PASS" in captured
    assert "initial-condition: PASS" in captured
    assert "max-principle" not in captured  # fourth-order term is on
    assert "FAIL" not in captured
    # the checks of the march, as certify builds them, each printed once
    checks = _verdicts(captured)
    assert list(checks) == ["energy-inequality", "gronwall-bound", "initial-condition",
                            "water-balance"]
    assert checks == {c.name: ("PASS", f"{c.value:.6e}", f"{c.bound:.6e}")
                      for c in certify(reference_march[1])}


def test_diagnose_reports_max_principle_when_classical(tmp_path, capsys):
    config = tmp_path / "classical.json"
    doc = dict(SMALL)
    doc["stepping"] = dict(SMALL["stepping"], gamma=0.0, newton_tol=1.0e-11)
    config.write_text(json.dumps(doc))
    out = tmp_path / "artifacts"
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "max-principle: PASS" in captured
    checks = _verdicts(captured)
    assert list(checks) == ["energy-inequality", "gronwall-bound", "initial-condition",
                            "water-balance", "max-principle"]
    assert all(verdict == "PASS" for verdict, _, _ in checks.values())
    assert checks["max-principle"][2] == f"{MAX_PRINCIPLE_TOL:.6e}"


def test_a_failing_check_prints_fail_with_its_numbers_and_exits_1(
        tmp_path, small_config, monkeypatch, capsys):
    monkeypatch.setattr(diagnostics, "initial_condition_check", lambda *args: 1.0)
    out = tmp_path / "artifacts"
    assert main(["diagnose", "--config", small_config, "--out", str(out)]) == 1
    captured = capsys.readouterr().out
    checks = _verdicts(captured)
    assert [verdict for verdict, _, _ in checks.values()] == ["PASS", "PASS", "FAIL",
                                                              "PASS"]
    bound = checks["initial-condition"][2]
    assert (f"initial-condition: FAIL (value 1.000000e+00 > bound {bound}, "
            f"headroom {float(bound):.3g}x)\n" in captured)


def test_recover_emits_physical_fields(tmp_path, small_config):
    out = tmp_path / "artifacts"
    assert main(["recover", "--config", small_config, "--out", str(out),
                 "--stride", "3"]) == 0
    _, header, data = _read_csv(out / "fields.csv")
    assert header == ["t", "z", "u", "pressure", "saturation", "velocity"]
    saturation = data[:, 4]
    assert np.all((saturation >= 0.05 - 1e-12) & (saturation <= 1.0 + 1e-12))
    # saturated rows sit on the identity branch of the inverse, up to
    # interpolation roundoff for u just below zero
    saturated = saturation == 1.0
    assert saturated.any()
    np.testing.assert_allclose(data[saturated, 3], data[saturated, 2],
                               rtol=0.0, atol=1e-12)
    assert np.all(np.isfinite(data))


def test_mms_passes_and_writes_tables(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["mms", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "mode: spatial" in captured and "PASS" in captured
    for mode in ("spatial", "temporal"):
        meta, header, data = _read_csv(out / f"mms_{mode}.csv")
        assert header == ["level", "dz", "h", "l2_error", "observed_order"]
        assert data.shape[0] == 4
        errs = data[:, 3]
        assert np.all(np.diff(errs) < 0)  # monotone decreasing
        assert float(meta["fitted_order"]) >= MMS_ORDER_MIN[mode]


def test_probe_uniqueness_small(tmp_path, small_config, capsys):
    out = tmp_path / "artifacts"
    assert main(
        ["probe-uniqueness", "--config", small_config, "--out", str(out),
         "--seed", "7"]
    ) == 0
    checks = _verdicts(capsys.readouterr().out)
    _, header, data = _read_csv(out / "uniqueness.csv")
    assert header == ["seed", "max_discrepancy", "bound"]
    assert data[0, 0] == 7.0
    assert data[0, 1] <= data[0, 2]
    assert checks == {"uniqueness": ("PASS", f"{data[0, 1]:.6e}", f"{data[0, 2]:.6e}")}


def test_demo_overshoot_contrast(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["demo-overshoot", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "strictly positive: PASS" in captured
    _, header, data = _read_csv(out / "overshoot.csv")
    assert header == ["gamma", "overshoot_amplitude"]
    fourth = data[data[:, 0] == 0.1][0, 1]
    classic = data[data[:, 0] == 0.0][0, 1]
    assert fourth > 0.0
    assert classic == 0.0


def test_dump_constitutive_tables(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["dump-constitutive", "--out", str(out)]) == 0
    _, header_p, data_p = _read_csv(out / "constitutive_pressure.csv")
    assert header_p == ["p", "saturation", "conductivity", "kirchhoff"]
    assert data_p.shape[0] == 601
    saturated = data_p[:, 0] >= 0.0
    assert np.all(data_p[saturated, 1] == 1.0)
    assert np.all(np.diff(data_p[:, 3]) > 0)  # transform strictly increasing
    _, header_u, data_u = _read_csv(out / "constitutive_transformed.csv")
    assert header_u == ["u", "b", "b_prime", "legendre_B", "conductivity"]
    assert np.all(data_u[:, 2] >= 0.0)  # the exact capacity, no floor
    assert np.all(data_u[data_u[:, 0] >= 0.0, 2] == 0.0)  # flat plateau


def test_dump_constitutive_matches_pointwise_evaluation(tmp_path):
    # the tables evaluate whole grids at once; each value must be the one a
    # scalar call returns, to the last digit
    out = tmp_path / "artifacts"
    assert main(["dump-constitutive", "--out", str(out)]) == 0
    table = load_config(None).transform_table()
    model = table.model
    def row(i):
        return lambda u: table.all_channels(u)[i]

    pointwise = {
        "constitutive_pressure.csv": (
            model.saturation, model.conductivity_vs_pressure, table.kirchhoff),
        "constitutive_transformed.csv": (row(0), row(2), table.legendre_B, row(1)),
    }
    for name, functions in pointwise.items():
        lines = [line for line in (out / name).read_text().splitlines()
                 if not line.startswith("#")][1:]
        assert len(lines) == 601
        for line in lines:
            x, *values = line.split(",")
            assert values == [repr(float(f(float(x)))) for f in functions], line


def test_config_error_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"stepping": {"h": 2.0}}')
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "h <= 1/beta" in capsys.readouterr().err


def test_unreadable_config_document_exits_2(tmp_path, capsys):
    # nested past the recursion limit, or not UTF-8: one error line, no
    # traceback and no artifact
    config = tmp_path / "bad.json"
    out = tmp_path / "artifacts"
    for depth in (1_000, 100_000):
        config.write_text("[" * depth + "]" * depth)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err  # the decoder's wording varies by Python
        assert err.startswith("error: parse error: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and not out.exists()
    for data, where in ((b"\xff", 0), (b'{"grid": {"n_cells": 20}}\xff', 25)):
        config.write_bytes(data)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {str(config)!r}: 'utf-8' codec can't decode "
            f"byte 0xff in position {where}: invalid start byte\n")
        assert not out.exists()


def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    config = tmp_path / "huge.json"
    out = tmp_path / "artifacts"
    for doc, message in (
        ('{"stepping": {"h": 1%s}}', "error: stepping.h: must be finite (got 1000"),
        ('{"grid": {"n_cells": 1%s}}', "error: grid.n_cells: needs an integer from 5"),
    ):
        config.write_text(doc % ("0" * 400))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and not out.exists()


@pytest.mark.filterwarnings("error")
def test_newton_matrix_that_overflows_exits_2(tmp_path, capsys):
    # accepted by the validator, but gamma * bih or the corner 7/dz**4 of
    # bih is no finite float; refused without a floating-point warning,
    # at gamma = 0 too, where 0 * inf is NaN
    config = tmp_path / "overflow.json"
    out = tmp_path / "artifacts"
    zero = '"ic": {"profile": "zero"}'
    for doc, where in (
        ('{"stepping": {"gamma": 1e300}}', "gamma = 1e+300, dz = 0.004975"),
        ('{"stepping": {"gamma": 1e300}, %s}' % zero, "gamma = 1e+300, dz = 0.004975"),
        ('{"grid": {"length": 1e-75}, %s}' % zero, "gamma = 0.1, dz = 4.975"),
        ('{"grid": {"length": 1e-75}, "stepping": {"gamma": 0.0}, %s}' % zero,
         "gamma = 0.0, dz = 4.975"),
    ):
        config.write_text(doc)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: Newton matrix not finite at {where}"), err
        assert err.count("\n") == 1 and not out.exists()
    # just inside: a finite corner entry, on which the zero state marches
    config.write_text('{"grid": {"length": 1e-70}, %s}' % zero)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.filterwarnings("error")
def test_diagnose_refuses_a_gronwall_bound_that_overflows(tmp_path, capsys):
    # exp(t) * (B_0 + t) passes the largest float between t = 703 and 704: an
    # infinite bound certifies nothing, so it is refused before energy.csv is
    # written; at 703 it is finite, and B/V too large to print is left out
    config = tmp_path / "long.json"
    out = tmp_path / "artifacts"
    for h in (1.0, 0.01):
        config.write_text(json.dumps({"stepping": {"h": h, "t_end": 704.0}}))
        assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: gronwall bound overflows at t = 704.0, beta = 1.0\n")
        assert not out.exists()
    config.write_text(json.dumps({"stepping": {"h": 1.0, "t_end": 703.0}}))
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "inf" not in captured and "inf" not in (out / "energy.csv").read_text()
    assert _verdicts(captured)["gronwall-bound"] == (
        "PASS", "7.630885e-03", "1.432125e+308")


def test_more_than_2_53_steps_exit_2_before_marching(tmp_path, monkeypatch, capsys):
    # the quotient t_end/h is the step count: past 2**53 it is refused with
    # its key path before any array of times is made
    def no_march(*args, **kwargs):
        raise AssertionError("marched before refusing the step count")

    monkeypatch.setattr(cli, "march", no_march)
    config = tmp_path / "long.json"
    config.write_text('{"stepping": {"t_end": 1e20, "h": 1.0}}')
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: stepping.t_end: needs at most 2**53 steps of h = 1.0 (got 1e+20)\n")
    assert not out.exists()


def test_memory_error_exits_2(tmp_path, small_config, monkeypatch, capsys):
    # an accepted config whose arrays cannot be allocated is an error, not a
    # failed check; the march here raises as numpy does, allocating nothing
    message = ("Unable to allocate 7.28 TiB for an array with shape "
               "(1000000000001,) and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "march", out_of_memory)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", small_config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unhashable_ic_profile_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"ic": {"profile": ["zero"]}}')
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "error: ic.profile" in capsys.readouterr().err
    assert not out.exists()


def test_table_build_failure_exits_2(tmp_path, capsys):
    # accepted by the validator, but the map fit refuses the grid
    config = tmp_path / "steep.json"
    config.write_text('{"constitutive": {"n_vg": 1.01}}')
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solver_failure_exits_2(tmp_path, capsys):
    config = tmp_path / "stall.json"
    config.write_text(
        '{"stepping": {"newton_tol": 1e-14, "t_end": 0.01}}'
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "convergence" in capsys.readouterr().err


def test_initial_state_whose_stencils_overflow_exits_2(tmp_path, capsys):
    # an accepted custom state whose biharmonic overflows at 200 cells: refused
    # as a non-finite residual, with no RuntimeWarning (the suite makes one an
    # error)
    config = tmp_path / "huge.json"
    config.write_text('{"ic": {"profile": "custom", "z": [0, 1], "u": [0, 1e308]}}')
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: residual not finite (step 1)\n"


def test_bad_stride_flag_exits_2(tmp_path, small_config, capsys):
    out = tmp_path / "artifacts"
    assert main(
        ["run", "--config", small_config, "--out", str(out), "--stride", "0"]
    ) == 2
    assert "--stride" in capsys.readouterr().err
    assert not out.exists()  # a refused run makes no output directory


def test_negative_seed_exits_2_before_marching(tmp_path, small_config, monkeypatch,
                                               capsys):
    def no_march(*args, **kwargs):
        raise AssertionError("marched before refusing the seed")

    monkeypatch.setattr(cli, "march", no_march)
    monkeypatch.setattr(cli, "uniqueness_probe", no_march)
    out = tmp_path / "artifacts"
    assert main(["probe-uniqueness", "--config", small_config, "--out", str(out),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0 (got -1)\n"
    assert not out.exists()


def test_unusable_out_exits_2_before_marching(tmp_path, small_config, monkeypatch,
                                              capsys):
    # an empty value, an existing file and a path under a file can never be
    # the output directory: refused before the march, and nothing is made
    def no_march(*args, **kwargs):
        raise AssertionError("marched before refusing --out")

    monkeypatch.setattr(cli, "march", no_march)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("kept")
    for out in ("", "file.txt", os.path.join("file.txt", "sub")):
        assert main(["run", "--config", small_config, "--out", out]) == 2
        assert (capsys.readouterr().err
                == f"error: --out: must name a directory (got {out!r})\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt", "small.json"]
    assert (tmp_path / "file.txt").read_text() == "kept"


def test_out_may_name_nested_new_directories(tmp_path, small_config):
    out = tmp_path / "new" / "deeper"
    assert main(["run", "--config", small_config, "--out", str(out)]) == 0
    assert (out / "states.csv").is_file()


def _python(*args, **env):
    """Run a fresh interpreter that imports kirchflow from this checkout,
    with ``env`` added to the environment."""
    src = str(Path(kirchflow.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "kirchflow", "--help")
    assert done.returncode == 0
    assert "probe-uniqueness" in done.stdout


def test_solver_imports_no_unused_scipy_subpackage():
    # the table kernels are numpy, the quadrature oracle lives with the tests
    # and dgbsv is bound from scipy's LAPACK extension module by file: the
    # scipy.linalg package would bring in numpy.f2py, numpy.testing and more
    # through its array-API layer, and np.unique would bring in numpy.ma.  A
    # later scipy.linalg import still gets its _flapack, with the same dgbsv.
    # libcrypto (_hashlib) is loaded by config_hash alone, not by the import
    code = (
        "import sys\n"
        "import kirchflow.cli, kirchflow.harness\n"
        "from kirchflow import stepper\n"
        "from kirchflow.config import load_config\n"
        "cfg = load_config(None)\n"
        "table = cfg.transform_table()\n"
        "calls, lapack = [], stepper.dgbsv\n"
        "stepper.dgbsv = lambda *a, **k: calls.append(1) or lapack(*a, **k)\n"
        "stepper.run(cfg.initial_state(cfg.build_column()), cfg.build_stepping(),\n"
        "            table)\n"
        "assert calls, 'the march made no LAPACK call'\n"
        "print(*sorted(name for name in ('scipy.interpolate', 'scipy.integrate',\n"
        "    'scipy.special', 'scipy.optimize', 'scipy.linalg', 'numpy.f2py',\n"
        "    'numpy.testing', 'numpy.ma', 'numpy.polynomial', '_hashlib')\n"
        "    if name in sys.modules))\n"
        "cfg.config_hash()\n"
        "assert '_hashlib' in sys.modules, 'config_hash loaded no libcrypto'\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack.dgbsv is lapack, 'a second dgbsv'\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def test_solver_imports_no_scipy_package(tmp_path):
    # the stepper finds scipy's LAPACK module through scipy's import spec
    # without importing scipy, and the command line reads scipy's version
    # module for the CSV header by file the same way
    code = (
        "import sys\n"
        "import kirchflow.config, kirchflow.diagnostics, kirchflow.harness\n"
        "from kirchflow import stepper\n"
        "cfg = kirchflow.config.load_config(None)\n"
        "table = cfg.transform_table()\n"
        "stepper.run(cfg.initial_state(cfg.build_column()), cfg.build_stepping(),\n"
        "            table)\n"
        "scipy = lambda: sorted(name for name in sys.modules\n"
        "                       if name.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "from kirchflow.cli import main\n"
        "assert not scipy(), scipy()\n"
        "for command in ('run', 'diagnose', 'recover'):\n"
        "    assert main([command, '--out', sys.argv[1]]) == 0, command\n"
        "print('scipy:', *scipy())\n"
        # numpy.ma, which np.unique imports on its first call, stays unloaded
        # through the CLI and through a table build that refines its grid
        "assert 'numpy.ma' not in sys.modules\n"
        "from kirchflow.constitutive import ConstitutiveModel, build_table\n"
        "build_table(ConstitutiveModel(n_vg=1.6, a_min=1e-2))\n"
        "print('numpy.ma:', 'numpy.ma' in sys.modules)\n"
    )
    done = _python("-c", code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["scipy:", "numpy.ma: False"]


def test_scipy_version_header_equals_the_imported_package(tmp_path):
    # where scipy is imported, the version read by file is the package's
    code = (
        "import sys\n"
        "import scipy\n"
        "from kirchflow.cli import main\n"
        "assert main(['dump-constitutive', '--out', sys.argv[1]]) == 0\n"
        "print(scipy.__version__)\n"
    )
    out = tmp_path / "imported"
    done = _python("-c", code, str(out))
    assert done.returncode == 0, done.stderr
    version = done.stdout.splitlines()[-1]
    for name in ("constitutive_pressure.csv", "constitutive_transformed.csv"):
        meta = _read_csv(out / name)[0]
        assert meta["scipy_version"] == version


def test_table_and_artifacts_do_not_depend_on_blas_threads(tmp_path, small_config):
    # the quadrature sums node by node instead of through BLAS, whose
    # rounding follows the thread count: one and two threads give the same
    # table bits and the same fields.csv bytes
    code = (
        "import dataclasses, hashlib\n"
        "import numpy as np\n"
        "from kirchflow.constitutive import ConstitutiveModel, build_table\n"
        "table = build_table(ConstitutiveModel())\n"
        "for f in dataclasses.fields(table):\n"
        "    value = getattr(table, f.name)\n"
        "    if isinstance(value, np.ndarray):\n"
        "        value = hashlib.sha256(value.tobytes()).hexdigest()\n"
        "    print(f.name, value)\n"
    )
    tables, fields = [], []
    for threads in ("1", "2"):
        done = _python("-c", code, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        tables.append(done.stdout)
        out = tmp_path / threads
        done = _python("-m", "kirchflow", "recover", "--config", small_config,
                       "--out", str(out), "--stride", "3",
                       OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        fields.append((out / "fields.csv").read_bytes())
    assert "u_samples" in tables[0] and tables[0] == tables[1]
    assert fields[0] == fields[1]


def test_missing_lapack_extension_is_an_import_error():
    # a scipy whose LAPACK module is not at scipy/linalg/_flapack* fails the
    # stepper import with a message naming the module and the scipy version
    code = (
        "import importlib.machinery as machinery\n"
        "import scipy\n"
        "find = machinery.PathFinder.find_spec\n"
        "machinery.PathFinder.find_spec = classmethod(\n"
        "    lambda cls, name, path=None, target=None:\n"
        "    None if name == 'scipy.linalg._flapack' else find(name, path, target))\n"
        "try:\n"
        "    import kirchflow.stepper\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, scipy.__version__, exc, sep='\\n')\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    kind, version, message = done.stdout.splitlines()
    assert kind == "ImportError"
    assert "scipy.linalg._flapack" in message and version in message


def _load_scipy_version_hiding(hidden, preamble=""):
    """Whether scipy has an import spec, and the type and text of the
    ImportError that ``load_scipy_module("version")`` raises, in a fresh
    interpreter whose path finder finds no module ``hidden``; ``preamble``
    runs first."""
    code = (
        f"{preamble}\n"
        "import importlib.machinery as machinery, importlib.util\n"
        "find = machinery.PathFinder.find_spec\n"
        "machinery.PathFinder.find_spec = classmethod(\n"
        "    lambda cls, name, path=None, target=None:\n"
        f"    None if name == {hidden!r} else find(name, path, target))\n"
        "print(importlib.util.find_spec('scipy') is not None)\n"
        "try:\n"
        "    from kirchflow.stepper import load_scipy_module\n"
        "    load_scipy_module('version')\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__, exc, sep='\\n')\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_no_importable_scipy_is_an_import_error():
    # scipy has no import spec: the stepper import fails on the import of
    # scipy itself, naming it
    found, kind, message = _load_scipy_version_hiding("scipy")
    assert found == "False"
    assert kind == "ModuleNotFoundError" and "'scipy'" in message


@pytest.mark.parametrize("preamble", ["", "import scipy"])
def test_missing_scipy_version_file_is_an_import_error(preamble):
    # a scipy directory without version.py: loading it fails, as importing
    # such a scipy does, with an ImportError naming scipy.version
    found, kind, message = _load_scipy_version_hiding("scipy.version", preamble)
    assert found == "True"
    assert kind in ("ImportError", "ModuleNotFoundError")
    assert "scipy.version" in message
