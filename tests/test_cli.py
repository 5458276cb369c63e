"""End-to-end CLI contract: artifacts, pass/fail wiring, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kirchflow
from kirchflow import cli
from kirchflow.cli import main
from kirchflow.config import load_config
from kirchflow.constitutive import OutOfRangeError
from kirchflow.recovery import pressure_field
from kirchflow.stepper import run as march

# small, fast problem reused by most invocations
SMALL = {
    "grid": {"n_cells": 60},
    "stepping": {"h": 0.01, "t_end": 0.1, "newton_tol": 1.0e-8},
    "output": {"stride": 3},
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
    assert main(["run", "--config", small_config, "--out", str(out)]) == 0
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


def test_run_stride_flag_overrides_config(tmp_path, small_config):
    out = tmp_path / "artifacts"
    assert main(
        ["run", "--config", small_config, "--out", str(out), "--stride", "1000"]
    ) == 0
    _, _, data = _read_csv(out / "states.csv")
    np.testing.assert_allclose(np.unique(data[:, 0]), [0.0, 0.1])


def test_run_is_bitwise_deterministic(tmp_path, small_config):
    artifacts = {
        "run": ("states.csv",),
        "diagnose": ("energy.csv",),
        "recover": ("fields.csv",),
        "dump-constitutive": ("constitutive_pressure.csv",
                              "constitutive_transformed.csv"),
    }
    for command, names in artifacts.items():
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        for out in (out_a, out_b):
            assert main([command, "--config", small_config, "--out", str(out)]) == 0
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
    traj = march(cfg.initial_state(column), cfg.build_stepping(table.beta_bound()),
                 table)
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


def test_diagnose_benchmark_passes(tmp_path, capsys):
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


def test_diagnose_reports_max_principle_when_classical(tmp_path, capsys):
    config = tmp_path / "classical.json"
    doc = dict(SMALL)
    doc["stepping"] = dict(SMALL["stepping"], gamma=0.0, newton_tol=1.0e-11)
    config.write_text(json.dumps(doc))
    out = tmp_path / "artifacts"
    assert main(["diagnose", "--config", str(config), "--out", str(out)]) == 0
    assert "max-principle: PASS" in capsys.readouterr().out


def test_recover_emits_physical_fields(tmp_path, small_config):
    out = tmp_path / "artifacts"
    assert main(["recover", "--config", small_config, "--out", str(out)]) == 0
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
        assert float(meta["fitted_order"]) >= (1.9 if mode == "spatial" else 0.9)


def test_probe_uniqueness_small(tmp_path, small_config, capsys):
    out = tmp_path / "artifacts"
    assert main(
        ["probe-uniqueness", "--config", small_config, "--out", str(out),
         "--seed", "7"]
    ) == 0
    assert "PASS" in capsys.readouterr().out
    _, header, data = _read_csv(out / "uniqueness.csv")
    assert header == ["seed", "max_discrepancy", "bound"]
    assert data[0, 0] == 7.0
    assert data[0, 1] <= data[0, 2]


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
    assert np.all(data_u[:, 2] >= 1.0e-3)  # capacity floor visible


def test_dump_constitutive_matches_pointwise_evaluation(tmp_path):
    # the tables evaluate whole grids at once; each value must be the one a
    # scalar call returns, to the last digit
    out = tmp_path / "artifacts"
    assert main(["dump-constitutive", "--out", str(out)]) == 0
    table = load_config(None).transform_table()
    model = table.model
    pointwise = {
        "constitutive_pressure.csv": (
            model.saturation, model.conductivity_vs_pressure, table.kirchhoff),
        "constitutive_transformed.csv": (
            table.b_of_u, table.b_prime, table.legendre_B, table.conductivity_of_u),
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

    monkeypatch.setattr(cli, "uniqueness_probe", no_march)
    out = tmp_path / "artifacts"
    assert main(["probe-uniqueness", "--config", small_config, "--out", str(out),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0 (got -1)\n"
    assert not out.exists()


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
    # later scipy.linalg import still gets its _flapack, with the same dgbsv
    code = (
        "import sys\n"
        "import kirchflow.cli, kirchflow.harness\n"
        "from kirchflow import stepper\n"
        "from kirchflow.config import load_config\n"
        "cfg = load_config(None)\n"
        "table = cfg.transform_table()\n"
        "calls, lapack = [], stepper.dgbsv\n"
        "stepper.dgbsv = lambda *a, **k: calls.append(1) or lapack(*a, **k)\n"
        "stepper.step(cfg.initial_state(), cfg.build_stepping(table.beta_bound()), table)\n"
        "assert calls, 'the step made no LAPACK call'\n"
        "print(*sorted(name for name in ('scipy.interpolate', 'scipy.integrate',\n"
        "    'scipy.special', 'scipy.optimize', 'scipy.linalg', 'numpy.f2py',\n"
        "    'numpy.testing', 'numpy.ma', 'numpy.polynomial') if name in sys.modules))\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack.dgbsv is lapack, 'a second dgbsv'\n"
    )
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


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
                       "--out", str(out), OPENBLAS_NUM_THREADS=threads)
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
