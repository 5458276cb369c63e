"""Backward-difference stepper: residual, Jacobian, Newton, trajectories."""

import dataclasses
import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv as scipy_dgbsv

from kirchflow import cli, harness, stepper
from kirchflow.config import gaussian_lens, load_config, parse_config
from kirchflow.constitutive import KirchhoffTable, OutOfRangeError
from kirchflow.diagnostics import uniqueness_probe
from kirchflow.grid import Column, Field, GridError
from kirchflow.harness import ManufacturedSolution
from kirchflow.stepper import (
    NonconvergenceError,
    StepConfig,
    StepConfigError,
    Trajectory,
    project_initial,
    run,
)
from oracles.banded import (
    banded_step, dense_from_banded, newton_system, term_by_term_jacobian,
    term_by_term_residual,
)


def _wet_lens(col, depth=0.2, center=0.5, width=0.15):
    return Field(gaussian_lens(col.nodes(), center, width, depth), col)


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": 0.0},
        {"h": -0.1},
        {"h": 0.01, "gamma": -1.0},
        {"h": 0.01, "t_end": 0.0},
        {"h": 0.01, "newton_tol": 0.0},
        {"h": float("nan")},
        {"h": 0.01, "gamma": float("inf")},
        {"h": 0.01, "t_end": float("nan")},
        {"h": 0.01, "beta": 0.0},
        # more than 2**53 steps t_end/h, an infinite quotient included
        {"h": 1.0, "t_end": float(np.nextafter(2.0**53, np.inf))},
        {"h": 1.0, "t_end": 1e20},
        {"h": 1e-300, "t_end": 1e300},
    ],
)
def test_step_config_validation(kwargs):
    with pytest.raises(StepConfigError):
        StepConfig(**kwargs)


def test_step_config_rejects_unstable_h():
    with pytest.raises(StepConfigError, match="h <= 1/beta"):
        StepConfig(h=2.0, beta=1.0)
    # tightening beta tightens the bound
    with pytest.raises(StepConfigError):
        StepConfig(h=0.6, beta=2.0)
    StepConfig(h=1.0, beta=1.0)  # inclusive boundary constructs


def test_n_steps_count():
    assert StepConfig(h=0.1, t_end=0.25).n_steps == 3
    assert StepConfig(h=0.01, t_end=1.0).n_steps == 100
    assert StepConfig(h=0.01, t_end=0.07).n_steps == 7
    assert StepConfig(h=0.1, t_end=0.3).n_steps == 3  # 2.9999999999999996
    assert StepConfig(h=1.0, t_end=2.0**53).n_steps == 2**53  # the ceiling
    # a positive horizon marches at least one step
    assert StepConfig(h=0.01, t_end=1e-15).n_steps == 1
    # quotients a few ulp past an integer too large for an absolute 1e-12
    # (100000.00000000001, ...) count that integer, not one more
    for h, t_end, n in ((1e-6, 0.1, 100_000), (2e-7, 0.2, 1_000_000),
                        (5e-7, 0.4, 800_000), (7e-5, 7.0, 100_000)):
        assert t_end / h > n
        assert StepConfig(h=h, t_end=t_end).n_steps == n


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_residual_zero_fixed_point(table):
    col = Column(length=1.0, n_cells=20)
    zero = Field.zeros(col)
    cfg = StepConfig(h=0.01, gamma=0.1)
    r, _ = newton_system(zero, zero, cfg, table)
    assert np.all(r == 0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_residual_matches_naive_dense_reimplementation(table, gamma):
    col = Column(length=1.0, n_cells=30, gravity_sign=-1.0)
    n, dz = col.n_cells, col.dz
    rng = np.random.default_rng(42)
    u_new = -0.02 - 0.18 * rng.random(n)
    u_old = -0.02 - 0.18 * rng.random(n)
    cfg = StepConfig(h=0.01, gamma=gamma)

    # naive reference: explicit dense matrices and a scalar face loop
    b_new = np.array([table.all_channels(float(x))[0] for x in u_new])
    b_old = np.array([table.all_channels(float(x))[0] for x in u_old])
    bdiff = (b_new - b_old) / cfg.h
    k = np.array([table.all_channels(float(x))[1] for x in u_new])
    faces = np.concatenate([[k[0]], 0.5 * (k[:-1] + k[1:]), [k[-1]]])
    grav = col.gravity_sign * (faces[1:] - faces[:-1]) / dz
    A = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1))
    B = (np.diag(np.full(n, 6.0)) + np.diag(np.full(n - 1, -4.0), 1)
         + np.diag(np.full(n - 1, -4.0), -1) + np.diag(np.ones(n - 2), 2)
         + np.diag(np.ones(n - 2), -2))
    B[0, 0] = B[-1, -1] = 7.0
    expected = bdiff + grav - (A @ u_new) / dz ** 2 + gamma * (B @ u_new) / dz ** 4

    got, _ = newton_system(Field(u_new, col), Field(u_old, col), cfg, table)
    # the fourth difference amplifies representation noise by dz^-4, so the
    # comparison is relative to the stiffest term's magnitude
    scale = (np.max(np.abs(bdiff)) + np.max(np.abs(grav))
             + np.max(np.abs(A @ u_new)) / dz ** 2
             + gamma * np.max(np.abs(B @ u_new)) / dz ** 4)
    assert np.max(np.abs(got - expected)) <= 1e-13 * scale


def test_residual_subtracts_source(table):
    col = Column(length=1.0, n_cells=12)
    f = _wet_lens(col)
    cfg = StepConfig(h=0.01, gamma=0.1)
    src = np.linspace(-1.0, 1.0, 12)
    r0, _ = newton_system(f, f, cfg, table)
    r1, _ = newton_system(f, f, cfg, table, source=src)
    assert np.allclose(r0 - src, r1, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_jacobian_matches_directional_difference_quotient(table, gamma):
    col = Column(length=1.0, n_cells=30, gravity_sign=-1.0)
    rng = np.random.default_rng(5)
    base = -0.02 - 0.18 * rng.random(30)  # capacity floor inactive here
    u_old = Field(-0.1 * np.ones(30), col)
    cfg = StepConfig(h=0.01, gamma=gamma)
    _, ab = newton_system(Field(base, col), u_old, cfg, table)
    assert ab.shape == (5, 30)  # pentadiagonal: bandwidth <= 5
    J = dense_from_banded(ab, 2, 2)
    eps = 1e-6
    for _ in range(5):
        v = rng.standard_normal(30)
        v /= np.max(np.abs(v))
        rp, _ = newton_system(Field(base + eps * v, col), u_old, cfg, table)
        rm, _ = newton_system(Field(base - eps * v, col), u_old, cfg, table)
        fd = (rp - rm) / (2 * eps)
        Jv = J @ v
        assert np.max(np.abs(fd - Jv)) <= 1e-5 * np.max(np.abs(Jv))


def test_jacobian_saturated_plateau_is_heat_limit(table):
    # gamma = 0 on the saturated branch, where b' = 0: J = -lap, an M-matrix
    col = Column(length=1.0, n_cells=10)
    cfg = StepConfig(h=0.01, gamma=0.0)
    plateau = Field(np.full(10, 0.5), col)
    J = dense_from_banded(newton_system(plateau, plateau, cfg, table)[1], 2, 2)
    assert np.max(np.abs(J - J.T)) <= 1e-14 * np.max(np.abs(J))
    assert np.all(np.diag(J) > 0.0)
    off = J - np.diag(np.diag(J))
    assert np.all(off <= 0.0)
    expected_diag = 2.0 / col.dz ** 2
    assert np.allclose(np.diag(J), expected_diag, rtol=1e-12)


def _oracle_states(col, table, model):
    """Four kinds of state, each checked to be what its name says."""
    z = col.nodes() / col.length
    rng = np.random.default_rng(12)
    states = {
        "capacity below a_min": -0.7 * np.sin(np.pi * z),
        "saturated": 0.3 * np.sin(np.pi * z) - 0.1,
        "wall slope": -0.1 - 0.05 * np.sin(2.0 * np.pi * z),
        "random lens": -0.02 - 0.18 * rng.random(col.n_cells),
    }
    u = np.stack(list(states.values()))
    b_prime, dk = table.all_channels(u)[2:]
    assert np.any((b_prime[0] < model.a_min) & (u[0] < 0.0))
    assert np.any(u[1] >= 0.0)
    assert dk[2, 0] != 0.0 and dk[2, -1] != 0.0
    return states


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_newton_system_equals_term_by_term_assembly(table, model, gamma):
    # the evaluated iterate and the per-run matrix template add the terms of
    # the scheme in the order a term-by-term assembly adds them, bit for bit;
    # the long column (dz ~ 0.5) gives b'/h, lap and gamma * bih comparable
    # sizes, so that another summation order shows in the last bit
    col = Column(length=20.0, n_cells=40, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=gamma)
    system = stepper._System(col, cfg, table)
    rng = np.random.default_rng(3)
    b_old = table.all_channels(-0.3 * rng.random(col.n_cells))[0]
    source = rng.standard_normal(col.n_cells)
    for name, v in _oracle_states(col, table, model).items():
        it = system.evaluate(v)
        for src in (None, source):
            expected = term_by_term_residual(v, b_old, col, cfg, table, src)
            assert system.residual(it, b_old, src).tobytes() == expected.tobytes(), name
        expected = term_by_term_jacobian(v, col, cfg, table)
        assert system.jacobian(it).tobytes() == expected.tobytes(), name


# ---------------------------------------------------------------------------
# Newton step
# ---------------------------------------------------------------------------


def test_step_zero_fixed_point(table):
    col = Column(length=1.0, n_cells=20)
    zero = Field.zeros(col)
    out = banded_step(zero, StepConfig(h=0.01, gamma=0.1, newton_tol=1.0e-10), table)
    assert np.all(out.values == 0.0)


def test_step_nonconvergence_reports_residual(table):
    col = Column(length=1.0, n_cells=50)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.01, newton_tol=1e-13)
    with pytest.raises(NonconvergenceError, match="no convergence in 30 Newton") as exc:
        run(_wet_lens(col), cfg, table)
    assert exc.value.step_index == 1
    assert exc.value.residual_norm > 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_refuses_a_non_finite_residual(table, bad):
    col = Column(length=1.0, n_cells=20)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05, newton_tol=1.0e-10)
    with pytest.raises(NonconvergenceError,
                       match=r"residual not finite \(step 1\)") as exc:
        run(_wet_lens(col), cfg, table, source=lambda t: np.full(col.n_cells, bad))
    assert exc.value.step_index == 1


def test_run_stops_a_diverging_step_at_once():
    # a validator-accepted coarse, dry, sourceless column: the first full
    # Newton step lands three decades and more above the best residual, so
    # the step fails there with the divergence message
    cfg = parse_config(json.dumps({
        "constitutive": {"alpha_vg": 0.1, "n_vg": 1.2, "p_reg": -1.0, "a_min": 0.03},
        "grid": {"n_cells": 50, "gravity_sign": 1.0, "length": 0.37},
        "stepping": {"h": 0.8, "gamma": 0.0, "t_end": 0.8},
        "ic": {"center": 0.173, "width": 0.043, "depth": 0.00166},
    }))
    table = cfg.transform_table()
    stepping = cfg.build_stepping()
    with pytest.raises(NonconvergenceError,
                       match=r"^Newton diverged: residual 3\.835e-01 > 1000 x best "
                             r"9\.900e-05 \(step 1\)$") as exc:
        run(cfg.initial_state(cfg.build_column()), stepping, table)
    assert exc.value.step_index == 1
    assert exc.value.residual_norm > 1000.0 * 9.9e-5


def test_run_reports_a_failed_banded_factorization(table, monkeypatch):
    monkeypatch.setattr(stepper, "dgbsv", lambda kl, ku, ab, b, **kw: (ab, None, b, 1))
    col = Column(length=1.0, n_cells=20)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05)
    with pytest.raises(NonconvergenceError,
                       match=r"^banded factorization failed \(LAPACK info 1\) "
                             r"\(step 1\)$") as exc:
        run(_wet_lens(col), cfg, table)
    assert exc.value.step_index == 1


def _reference_run(table):
    cfg = load_config(None)
    stepping = cfg.build_stepping()
    return run(cfg.initial_state(cfg.build_column()), stepping, table), stepping


def test_step_converging_on_its_last_allowed_iterate_is_accepted(table, monkeypatch):
    # step 1 of the reference run takes 5 iterations: with the cap at 5 it
    # converges on the last iterate the cap allows, and with 4 it does not
    traj, cfg = _reference_run(table)
    assert traj.newton_iters[0] == 5
    u_old = Field(traj.values[0], traj.column)
    monkeypatch.setattr(stepper, "_MAX_ITER", 5)
    assert banded_step(u_old, cfg, table).values.tobytes() == traj.values[1].tobytes()
    monkeypatch.setattr(stepper, "_MAX_ITER", 4)
    with pytest.raises(NonconvergenceError, match="^no convergence in 4 Newton"):
        banded_step(u_old, cfg, table)


def test_banded_step_from_the_projected_state_is_the_first_state_of_run(table):
    # the banded side of criterion 9 is the march's own first step, byte for
    # byte: on the sourceless default problem and on a sourced manufactured
    # step, whose source the march evaluates at times[1]
    doc = load_config(None)
    u0, cfg = doc.initial_state(doc.build_column()), doc.build_stepping()
    stepped = banded_step(project_initial(u0), cfg, table)
    assert stepped.values.tobytes() == run(u0, cfg, table).values[1].tobytes()
    ms = ManufacturedSolution(column=Column(length=1.0, n_cells=60, gravity_sign=-1.0))
    u0, cfg = ms.field(0.0), StepConfig(h=1.0e-3, gamma=0.1, t_end=1.0e-3)
    source = ms.source_callable(cfg, table)
    traj = run(u0, cfg, table, source=source)
    stepped = banded_step(project_initial(u0), cfg, table, source=source(traj.times[1]))
    assert stepped.values.tobytes() == traj.values[1].tobytes()


def test_newton_increment_equals_solve_banded(table, model, monkeypatch):
    # the first increment of a step from each state the reference run solves
    # at is LAPACK's answer on solve_banded's own input, bit for bit
    traj, cfg = _reference_run(table)
    calls = []
    lapack = stepper.dgbsv

    def recording(kl, ku, ab, b, **kwargs):
        matrix, rhs = ab[2:].copy(), b.copy()
        out = lapack(kl, ku, ab, b, **kwargs)
        calls.append((matrix, rhs, out[2].copy()))
        return out

    monkeypatch.setattr(stepper, "dgbsv", recording)
    thin = 0
    for state in (Field(v, traj.column) for v in traj.values[:6]):
        calls.clear()
        banded_step(state, cfg, table)
        matrix, rhs, delta = calls[0]
        r, ab = newton_system(state, state, cfg, table)
        assert matrix.tobytes() == ab.tobytes() and rhs.tobytes() == (-r).tobytes()
        assert delta.tobytes() == solve_banded((2, 2), ab, -r).tobytes()
        v = state.values
        thin += bool(np.any((v < 0.0) & (table.all_channels(v)[2] < model.a_min)))
    assert thin == 6  # every one has unsaturated nodes with b' below a_min


def test_overshoot_lens_small_step_converges_quadratically(table, monkeypatch):
    # the overshoot lens at h = 2e-7: step 1 crosses the near-saturated band
    # where b' < a_min, so Newton contracts quadratically only if its matrix
    # holds the residual's exact slope there
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    u0 = Field(gaussian_lens(col.nodes(), 0.5, 0.1, 0.2), col)
    cfg = StepConfig(h=2.0e-7, gamma=0.1, t_end=6.0e-7, newton_tol=1e-7)
    residual, norms = stepper._System.residual, []

    def recording(self, it, b_old, source):
        r = residual(self, it, b_old, source)
        norms.append((b_old.tobytes(), float(np.abs(r).max())))
        return r

    monkeypatch.setattr(stepper._System, "residual", recording)
    traj = run(u0, cfg, table)
    assert traj.n_steps == 3
    assert all(norm <= cfg.newton_tol for norm in traj.residual_norms)
    first = [norm for key, norm in norms if key == norms[0][0]]
    # one residual per iterate: the guess's and each Newton step's
    assert len(first) == traj.newton_iters[0] + 1
    r1, r2 = first[-2:]
    assert r2 <= 10.0 * r1 ** 2


def test_dgbsv_binding_matches_scipy_lapack_when_pivoting_or_singular():
    # stepper.dgbsv is loaded from scipy's LAPACK extension by file; on
    # (2, 2)-band systems that pivot, and on a singular one, it returns what
    # scipy.linalg.lapack.dgbsv returns, byte for byte
    rng = np.random.default_rng(8)
    n = 12
    systems = []
    for _ in range(4):
        lu = np.zeros((n, 7)).T  # Fortran (7, n) storage, as the stepper builds it
        lu[2:] = rng.uniform(-1.0, 1.0, (5, n))
        lu[5:] *= 10.0  # sub-diagonals dominate the diagonal (row 4)
        systems.append((lu, rng.standard_normal(n)))
    singular = systems[0][0].copy(order="F")
    singular[:, 5] = 0.0  # a zero column: U[5, 5] stays exactly zero
    systems.append((singular, rng.standard_normal(n)))
    pivoted, infos = 0, []
    for lu, rhs in systems:
        ours = stepper.dgbsv(2, 2, lu.copy(order="F"), rhs.copy(),
                             overwrite_ab=True, overwrite_b=True)
        ref = scipy_dgbsv(2, 2, lu.copy(order="F"), rhs.copy(),
                          overwrite_ab=True, overwrite_b=True)
        for mine, theirs in zip(ours[:3], ref[:3]):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        assert ours[3] == ref[3]
        infos.append(ours[3])
        pivoted += bool(np.any(ours[1] != np.arange(1, n + 1)))
    assert pivoted == len(systems)
    assert infos == [0, 0, 0, 0, 6]  # 6: 1-based index of the zero pivot


_STENCILS = ("laplacian_array", "biharmonic_array", "gravity_divergence_array")
# calls of each stencil that read the Newton bands off it, once per march
_PROBES = {"laplacian_array": 3, "biharmonic_array": 5, "gravity_divergence_array": 3}


def _counting(monkeypatch):
    """Count calls of the table lookup, the stencils and the Newton parts,
    each also under the name of the counted call it happened in.  Every
    u-channel read, of one channel or of four, passes the one lookup seam
    ``KirchhoffTable._channels``: that is what is counted."""
    counts, active = Counter(), []

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            counts[f"{name} in {active[-1] if active else 'run'}"] += 1
            active.append(name)
            try:
                return inner(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(owner, name, counted)
        return counted

    count(KirchhoffTable, "_channels")
    for name in ("__init__", "evaluate", "residual", "jacobian"):
        count(stepper._System, name)
    for name in ("_newton", "dgbsv") + _STENCILS:
        count(stepper, name)
    return counts, count


def test_reference_run_evaluates_each_iterate_once(table, monkeypatch):
    counts, _ = _counting(monkeypatch)
    traj, _ = _reference_run(table)
    iters = sum(traj.newton_iters)
    # seven solved steps (then the fixed-point tail), 21 iterations; each
    # step starts from the iterate the one before accepted, so only step 1
    # evaluates its guess, and b(u^0) is read from that evaluation: one
    # lookup and one call of each stencil per evaluated iterate, and no
    # other lookup; one residual and one LAPACK call per iteration;
    # the march's _System probes each stencil a fixed number of times, once
    # per run, to read the Newton matrix's bands off it
    assert (counts["_newton"], iters) == (7, 21)
    assert counts["evaluate"] == 1 + iters == 22
    assert counts["_channels"] == counts["evaluate"] == 22
    assert counts["_channels in run"] == 0  # b(u^0) is the first iterate's
    assert counts["_channels in evaluate"] == counts["evaluate"]
    assert counts["__init__"] == 1
    for name in _STENCILS:
        assert counts[f"{name} in evaluate"] == counts["evaluate"]
        assert counts[f"{name} in __init__"] == _PROBES[name]
        assert counts[name] == counts["evaluate"] + _PROBES[name]
    assert counts["residual"] == counts["_newton"] + iters
    assert counts["jacobian"] == counts["dgbsv"] == iters
    for name in ("residual", "jacobian"):
        assert not any(counts[f"{inner} in {name}"]
                       for inner in ("_channels",) + _STENCILS)


def _mms_first_spatial_level(table):
    """Initial state, stepping and source of the manufactured-solution
    study's first spatial level."""
    ms = ManufacturedSolution(column=Column(length=1.0, n_cells=25, gravity_sign=-1.0))
    cfg = StepConfig(h=1.0e-4, gamma=0.1, t_end=0.02, newton_tol=3.0e-7)
    return project_initial(ms.field(0.0)), cfg, ms.source_callable(cfg, table)


def test_sourced_mms_level_evaluates_each_iterate_once(table, monkeypatch):
    # the source reads the table once per step and runs no stencil
    u0, cfg, source = _mms_first_spatial_level(table)
    counts, count = _counting(monkeypatch)
    traj = run(u0, cfg, table, source=count(SimpleNamespace(source=source), "source"))
    iters = sum(traj.newton_iters)
    assert (counts["_newton"], counts["source"], iters) == (200, 200, 364)
    assert counts["evaluate"] == 1 + iters
    assert counts["_channels in source"] == counts["source"]
    assert counts["_channels"] == counts["evaluate"] + counts["source"]
    assert counts["__init__"] == 1
    for name in _STENCILS:
        assert counts[f"{name} in evaluate"] == counts["evaluate"]
        assert counts[f"{name} in __init__"] == _PROBES[name]
        assert counts[name] == counts["evaluate"] + _PROBES[name]
    assert counts["residual"] == counts["_newton"] + iters
    assert counts["jacobian"] == counts["dgbsv"] == iters
    for name in ("residual", "jacobian"):
        assert not any(counts[f"{inner} in {name}"]
                       for inner in ("_channels",) + _STENCILS)


def test_uniqueness_probe_counts_one_base_and_one_perturbed_march(table, monkeypatch):
    # the probe runs the reference march, then a second march through the
    # same loop in which every step starts from a perturbed guess: 100 Newton
    # solves, since the probe takes no fixed-point tail; each step clamps and
    # evaluates its guess once, and each iteration evaluates once more
    doc = load_config(None)
    u0, cfg = doc.initial_state(doc.build_column()), doc.build_stepping()
    counts, count = _counting(monkeypatch)
    count(stepper._System, "start")
    run(u0, cfg, table)
    base = counts.copy()
    counts.clear()
    uniqueness_probe(u0, cfg, table)
    perturbed = counts - base
    iters = perturbed["dgbsv"]
    assert (base["__init__"], perturbed["__init__"]) == (1, 1)
    assert (base["_newton"], perturbed["_newton"]) == (7, 100)
    assert perturbed["start"] == perturbed["evaluate in start"] == 100
    assert perturbed["evaluate"] == 1 + 100 + iters
    assert perturbed["_channels"] == perturbed["_channels in evaluate"] == perturbed["evaluate"]
    assert perturbed["residual"] == perturbed["_newton"] + iters
    assert perturbed["jacobian"] == iters


def test_step_evaluates_each_iterate_once(table, monkeypatch):
    # the old state is evaluated once, as it is: b(u_old) is read off that
    # evaluation, which is also Newton's start when no guess is given, so
    # there is one lookup per evaluated iterate
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1e-7)
    u_old = project_initial(_wet_lens(col))
    counts, _ = _counting(monkeypatch)
    for guess, evaluated in ((None, 1), (Field(0.9 * u_old.values, col), 2)):
        counts.clear()
        banded_step(u_old, cfg, table, initial_guess=guess)
        iters = counts["dgbsv"]
        assert counts["_newton"] == 1 and iters > 0
        assert counts["evaluate"] == evaluated + iters
        assert counts["_channels"] == counts["_channels in evaluate"] == counts["evaluate"]


def test_step_rejects_out_of_domain_state(table):
    col = Column(length=1.0, n_cells=10)
    vals = np.full(10, -0.1)
    vals[4] = table.u_samples[0] - 1.0
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1.0e-10)
    with pytest.raises(OutOfRangeError):
        banded_step(Field(vals, col), cfg, table)


def test_run_refuses_initial_state_below_the_table(table):
    # the first iterate is evaluated as projected, not clamped onto the
    # table, so a projected state below it is refused by the table's check
    col = Column(length=1.0, n_cells=10)
    vals = np.full(10, -0.1)
    vals[4] = table.u_samples[0] - 1.0
    message = (f"u[4]={float(vals[4])!r} below the table "
               f"(lowest knot u = {float(table.u_samples[0])!r})")
    with pytest.raises(OutOfRangeError) as err:
        run(Field(vals, col), StepConfig(h=0.01, gamma=0.1, t_end=0.02), table)
    assert str(err.value) == message


def test_step_unique_root_from_distinct_guesses(table):
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1e-7)
    u_old = project_initial(_wet_lens(col))
    u1 = banded_step(u_old, cfg, table)
    u2 = banded_step(u_old, cfg, table, initial_guess=Field(0.9 * u_old.values, col))
    assert np.max(np.abs(u1.values - u2.values)) <= 10 * cfg.newton_tol


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_run_zero_initial_state(table):
    col = Column(length=1.0, n_cells=20)
    cfg = StepConfig(h=0.05, gamma=0.1, t_end=0.2, newton_tol=1.0e-10)
    traj = run(Field.zeros(col), cfg, table)
    assert traj.n_steps == 4
    assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2])
    assert np.all(traj.values == 0.0)
    assert traj.newton_iters == (0, 0, 0, 0)


def test_library_defaults_march_the_reference_problem(table):
    # Column() and StepConfig() are the config's reference run, and the
    # default Newton tolerance sits above the residual's round-off floor
    col, cfg = Column(), StepConfig()
    traj = run(_wet_lens(col), cfg, table)
    assert traj.n_steps == 100
    assert traj.times[-1] == pytest.approx(cfg.t_end)
    ref, stepping = _reference_run(table)
    assert (col, cfg) == (ref.column, stepping)
    assert traj.values.tobytes() == ref.values.tobytes()
    # the trajectory keeps the march's own settings, and its times are
    # h * arange(N + 1) of them, bit for bit
    assert ref.stepping is stepping
    assert ref.times.tobytes() == (stepping.h * np.arange(stepping.n_steps + 1)).tobytes()


def test_run_projects_initial_condition(table):
    col = Column(length=1.0, n_cells=20)
    vals = -0.05 * np.ones(20)  # nonzero next to the walls
    traj = run(Field(vals, col), StepConfig(h=0.05, gamma=0.1, t_end=0.1,
                                            newton_tol=1e-8), table)
    assert traj.values[0][0] == 0.0
    assert traj.values[0][-1] == 0.0
    assert np.all(traj.values[0][1:-1] == vals[1:-1])
    proj = project_initial(Field(vals, col))
    assert np.array_equal(traj.values[0], proj.values)


def test_run_states_satisfy_residual_tolerance(table):
    col = Column(length=1.0, n_cells=100, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05, newton_tol=1e-7)
    traj = run(project_initial(_wet_lens(col)), cfg, table)
    states = [Field(v, col) for v in traj.values[traj.rows]]
    for k in range(1, len(states)):
        r, _ = newton_system(states[k], states[k - 1], cfg, table)
        assert np.max(np.abs(r)) <= cfg.newton_tol


def test_run_newton_iteration_regression(table):
    # frozen bound measured on the benchmark configuration
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.1, newton_tol=1e-7)
    traj = run(project_initial(_wet_lens(col)), cfg, table)
    assert max(traj.newton_iters) <= 8


def _counting_fields(monkeypatch):
    """A list that gains one entry per ``Field`` constructed from now on."""
    made = []
    init = Field.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counted)
    return made


def _assert_stored_once(traj, stored, fields):
    # one row per distinct state, every later step mapped to the last row,
    # and no Field but the projected initial state
    assert traj.values.shape == (stored, traj.column.n_cells)
    assert traj.rows.tolist() == list(range(stored)) + [stored - 1] * (
        traj.n_steps + 1 - stored)
    assert len(fields) == 1
    assert fields[0].values.tobytes() == traj.values[0].tobytes()


def test_reference_run_newton_work_count(table, monkeypatch):
    # the reference problem of the command line (200 cells, h = 0.01,
    # 100 steps): the solver's total work is an exact, deterministic count
    cfg = load_config(None)
    col = cfg.build_column()
    stepping = cfg.build_stepping()
    u0 = cfg.initial_state(col)
    fields = _counting_fields(monkeypatch)
    traj = run(u0, stepping, table)
    assert traj.n_steps == 100
    assert sum(traj.newton_iters) == 21
    _assert_stored_once(traj, 7, fields)


@pytest.mark.parametrize("h", [2.5e-4, 1.25e-4, 6.25e-5])
def test_fine_step_newton_work_count(table, monkeypatch, h):
    # the three levels of acceptance criterion 10; each march reaches its
    # fixed point near t = 0.02 and stores only the states before it
    iters = {2.5e-4: 251, 1.25e-4: 476, 6.25e-5: 929}[h]
    stored = {2.5e-4: 82, 1.25e-4: 158, 6.25e-5: 309}[h]
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=h, gamma=0.1, t_end=1.0, newton_tol=1e-7)
    u0 = project_initial(_wet_lens(col))
    fields = _counting_fields(monkeypatch)
    traj = run(u0, cfg, table)
    assert sum(traj.newton_iters) == iters
    _assert_stored_once(traj, stored, fields)


def test_newton_sourced_work_count(monkeypatch, tmp_path):
    # the benchmark's newton-sourced problems, as the command line marches
    # them: `mms` (four spatial, then four temporal levels) and
    # `demo-overshoot` (gamma = 0.1, then 0).  Each count is the sum of one
    # trajectory's newton_iters, the benchmark's stepper.newton_iters
    counts = []

    def counting(march):
        def counted(*args, **kwargs):
            traj = march(*args, **kwargs)
            counts.append(sum(traj.newton_iters))
            return traj
        return counted

    monkeypatch.setattr(harness, "run", counting(harness.run))
    monkeypatch.setattr(cli, "march", counting(cli.march))
    assert cli.main(["mms", "--out", str(tmp_path)]) == 0
    assert cli.main(["demo-overshoot", "--out", str(tmp_path)]) == 0
    assert counts == [364, 356, 369, 375, 52, 97, 159, 316, 914, 1067]
    assert sum(counts) == 4069


def test_run_fixed_point_tail_equals_full_march(table):
    # from step 82 on, the sourceless march returns its input bit for bit
    # and repeats it; a zero source (x - 0.0 == x) turns that off, so the
    # second run solves every step
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=2.5e-4, gamma=0.1, t_end=0.05, newton_tol=1e-7)
    u0 = project_initial(_wet_lens(col))
    tail = run(u0, cfg, table)
    full = run(u0, cfg, table, source=lambda t: np.zeros(col.n_cells))
    assert tail.n_steps == full.n_steps == 200
    assert tail.values[tail.rows].tobytes() == full.values.tobytes()
    assert tail.newton_iters == full.newton_iters
    assert tail.residual_norms == full.residual_norms
    assert tail.rows.tolist() == list(range(82)) + [81] * 119
    assert len(tail.values) == 82
    assert len(full.values) == 201


def _fresh_march(u0, cfg, table, source=None):
    """``run`` without carrying: every step clamps and evaluates its guess,
    and no fixed-point tail is taken.  States, iterations and norms."""
    system = stepper._System(u0.column, cfg, table)
    times = cfg.h * np.arange(cfg.n_steps + 1)
    v = project_initial(u0).values
    b = table.all_channels(v)[0]
    states, iters, norms = [v], [], []
    for k in range(1, cfg.n_steps + 1):
        src = None if source is None else source(times[k])
        it, n_it, rnorm = stepper._newton(system, b, system.start(v), src, k)
        v, b = it.v, it.channels[0]
        states.append(v)
        iters.append(n_it)
        norms.append(rnorm)
    return states, iters, norms


def _assert_march_equal(traj, fresh):
    states, iters, norms = fresh
    assert traj.n_steps + 1 == len(states)
    for a, b in zip(traj.values[traj.rows], states):
        assert a.tobytes() == b.tobytes()
    assert traj.newton_iters == tuple(iters)
    assert np.array(traj.residual_norms).tobytes() == np.array(norms).tobytes()


def test_carried_iterates_equal_fresh_evaluation_on_reference_run(table):
    cfg = load_config(None)
    u0 = cfg.initial_state(cfg.build_column())
    stepping = cfg.build_stepping()
    _assert_march_equal(run(u0, stepping, table), _fresh_march(u0, stepping, table))


def test_carried_iterates_equal_fresh_evaluation_on_mms_level(table):
    u0, cfg, source = _mms_first_spatial_level(table)
    _assert_march_equal(run(u0, cfg, table, source=source),
                        _fresh_march(u0, cfg, table, source))


def test_run_gamma_zero_keeps_maximum_principle(table):
    col = Column(length=1.0, n_cells=63)
    rng = np.random.default_rng(17)
    z = col.nodes()
    vals = sum(
        rng.uniform(-0.08, 0.0) * np.sin((k + 1) * np.pi * z) for k in range(3)
    )
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=0.1, newton_tol=1e-11)
    traj = run(Field(vals, col), cfg, table)
    u0 = traj.values[0]
    hi = max(u0.max(), 0.0)
    lo = min(u0.min(), 0.0)
    for s in traj.values[1:]:
        assert s.max() <= hi + 1e-8
        assert s.min() >= lo - 1e-8


def test_trajectory_times_read_only(table):
    col = Column(length=1.0, n_cells=10)
    cfg = StepConfig(h=0.1, gamma=0.0, t_end=0.2, newton_tol=1.0e-10)
    traj = run(Field.zeros(col), cfg, table)
    with pytest.raises(ValueError):
        traj.times[0] = 5.0
    with pytest.raises(ValueError):
        traj.values[0, 0] = 5.0


def test_trajectory_compares_and_hashes_by_identity(table):
    col = Column(length=1.0, n_cells=10)
    cfg = StepConfig(h=0.1, gamma=0.0, t_end=0.2, newton_tol=1.0e-10)
    traj = run(Field.zeros(col), cfg, table)
    twin = dataclasses.replace(traj)  # the same arrays in a second trajectory
    assert traj == traj and traj != twin and not (traj == twin)
    assert hash(traj) != hash(twin)
    assert len({traj, twin, traj}) == 2


@pytest.mark.parametrize("fields, match", [
    ({"values": np.zeros((2, 9))},
     r"1 to 3 rows of 10 nodal values, got shape \(2, 9\)"),
    ({"values": np.zeros(10)}, r"1 to 3 rows of 10 nodal values, got shape \(10,\)"),
    ({"values": np.zeros((4, 10))},
     r"1 to 3 rows of 10 nodal values, got shape \(4, 10\)"),
    ({"values": np.zeros((0, 10))},
     r"1 to 3 rows of 10 nodal values, got shape \(0, 10\)"),
    ({"values": np.full((2, 10), np.nan)}, "finite"),
    ({"newton_iters": (0,)}, r"^newton_iters: needs 2 entries, one per step \(got 1\)"),
    ({"newton_iters": ()}, r"^newton_iters: needs 2 entries, one per step \(got 0\)"),
    ({"residual_norms": (0.0, 0.0, 0.0)},
     r"^residual_norms: needs 2 entries, one per step \(got 3\)"),
], ids=["short-rows", "one-dimensional", "too-many-rows", "no-rows", "non-finite",
        "short-iters", "no-iters", "long-norms"])
def test_trajectory_rejects_inconsistent_values(fields, match):
    # the checks Field makes per state, made once for the whole array, and
    # one per-step record entry per step
    consistent = {"values": np.zeros((2, 10)), "newton_iters": (0, 0),
                  "residual_norms": (0.0, 0.0)}
    with pytest.raises(GridError, match=match):
        Trajectory(stepping=StepConfig(h=0.1, t_end=0.2),
                   column=Column(length=1.0, n_cells=10), **{**consistent, **fields})

