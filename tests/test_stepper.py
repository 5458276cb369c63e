"""Backward-difference stepper: residual, Jacobian, Newton, trajectories."""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv as scipy_dgbsv

from kirchflow import stepper
from kirchflow.config import load_config
from kirchflow.constitutive import KirchhoffTable, OutOfRangeError
from kirchflow.grid import Column, Field
from kirchflow.stepper import (
    NonconvergenceError,
    StepConfig,
    StepConfigError,
    check_timestep,
    project_initial,
    run,
    step,
)
from oracles.banded import dense_from_banded, newton_system


def _wet_lens(col, depth=0.2, center=0.5, width=0.15):
    z = col.nodes()
    return Field(-depth * np.exp(-(((z - center) / width) ** 2)), col)


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


def test_check_timestep_inclusive_boundary():
    assert check_timestep(0.5, 1.0)
    assert check_timestep(1.0, 1.0)  # boundary case accepted
    assert not check_timestep(1.01, 1.0)
    assert not check_timestep(0.0, 1.0)


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
    b_new = np.array([table.b_of_u(float(x)) for x in u_new])
    b_old = np.array([table.b_of_u(float(x)) for x in u_old])
    bdiff = (b_new - b_old) / cfg.h
    k = np.array([table.conductivity_of_u(float(x)) for x in u_new])
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


def test_jacobian_saturated_plateau_is_heat_limit(table, model):
    # gamma = 0 on the saturated branch: J = (a_min/h) I - lap, an M-matrix
    col = Column(length=1.0, n_cells=10)
    cfg = StepConfig(h=0.01, gamma=0.0)
    plateau = Field(np.full(10, 0.5), col)
    J = dense_from_banded(newton_system(plateau, plateau, cfg, table)[1], 2, 2)
    assert np.max(np.abs(J - J.T)) <= 1e-14 * np.max(np.abs(J))
    assert np.all(np.diag(J) > 0.0)
    off = J - np.diag(np.diag(J))
    assert np.all(off <= 0.0)
    expected_diag = model.a_min / cfg.h + 2.0 / col.dz ** 2
    assert np.allclose(np.diag(J), expected_diag, rtol=1e-12)


# ---------------------------------------------------------------------------
# Newton step
# ---------------------------------------------------------------------------


def test_step_zero_fixed_point(table):
    col = Column(length=1.0, n_cells=20)
    zero = Field.zeros(col)
    out = step(zero, StepConfig(h=0.01, gamma=0.1), table)
    assert np.all(out.values == 0.0)


def test_step_nonconvergence_reports_residual(table):
    col = Column(length=1.0, n_cells=50)
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1e-13)
    with pytest.raises(NonconvergenceError, match="no convergence in 30 Newton") as exc:
        step(_wet_lens(col), cfg, table)
    assert exc.value.residual_norm is not None
    assert exc.value.residual_norm > 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_refuses_a_non_finite_residual(table, bad):
    col = Column(length=1.0, n_cells=20)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05)
    with pytest.raises(NonconvergenceError,
                       match=r"residual not finite \(step 1\)") as exc:
        run(_wet_lens(col), cfg, table, source=lambda t, z: np.full_like(z, bad))
    assert exc.value.step_index == 1


def _reference_run(table):
    cfg = load_config(None)
    stepping = cfg.build_stepping(beta=table.beta_bound())
    return run(cfg.initial_state(cfg.build_column()), stepping, table), stepping


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
    floored = 0
    for state in traj.states[:6]:
        calls.clear()
        step(state, cfg, table)
        matrix, rhs, delta = calls[0]
        r, ab = newton_system(state, state, cfg, table)
        assert matrix.tobytes() == ab.tobytes() and rhs.tobytes() == (-r).tobytes()
        assert delta.tobytes() == solve_banded((2, 2), ab, -r).tobytes()
        v = state.values
        floored += bool(np.any((v < 0.0) & (table.b_prime(v) == model.a_min)))
    assert floored == 6  # the a_min capacity floor is active in every one


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


def test_reference_run_reads_the_table_once_per_residual(table, monkeypatch):
    counts, active = Counter(), []

    def counting(owner, name):
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

    counting(KirchhoffTable, "all_channels")
    counting(stepper._System, "residual")
    counting(stepper._System, "jacobian")
    counting(stepper, "_newton")
    counting(stepper, "dgbsv")
    traj, _ = _reference_run(table)
    iters = sum(traj.newton_iters)
    # seven solved steps (then the fixed-point tail), 21 iterations, no
    # backtracks: each iterate costs one trial residual and one LAPACK call
    assert (counts["_newton"], iters) == (7, 21)
    assert counts["residual"] == counts["_newton"] + iters
    assert counts["all_channels in residual"] == counts["residual"]
    assert counts["all_channels in run"] == 1  # b(u^0)
    assert counts["all_channels"] == counts["residual"] + 1
    assert counts["jacobian"] == counts["dgbsv"] == iters
    assert counts["all_channels in jacobian"] == 0


def test_step_rejects_out_of_domain_state(table):
    col = Column(length=1.0, n_cells=10)
    vals = np.full(10, -0.1)
    vals[4] = table.u_lower - 1.0
    with pytest.raises(OutOfRangeError):
        step(Field(vals, col), StepConfig(h=0.01, gamma=0.1), table)


def test_step_unique_root_from_distinct_guesses(table):
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1e-7)
    u_old = project_initial(_wet_lens(col))
    u1 = step(u_old, cfg, table)
    u2 = step(u_old, cfg, table,
              initial_guess=Field(0.9 * u_old.values, col))
    assert np.max(np.abs(u1.values - u2.values)) <= 10 * cfg.newton_tol


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_run_zero_initial_state(table):
    col = Column(length=1.0, n_cells=20)
    traj = run(Field.zeros(col), StepConfig(h=0.05, gamma=0.1, t_end=0.2), table)
    assert traj.n_steps == 4
    assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2])
    for s in traj.states:
        assert np.all(s.values == 0.0)
    assert traj.newton_iters == (0, 0, 0, 0)


def test_run_projects_initial_condition(table):
    col = Column(length=1.0, n_cells=20)
    vals = -0.05 * np.ones(20)  # nonzero next to the walls
    traj = run(Field(vals, col), StepConfig(h=0.05, gamma=0.1, t_end=0.1,
                                            newton_tol=1e-8), table)
    assert traj.states[0].values[0] == 0.0
    assert traj.states[0].values[-1] == 0.0
    assert np.all(traj.states[0].values[1:-1] == vals[1:-1])
    proj = project_initial(Field(vals, col))
    assert np.array_equal(traj.states[0].values, proj.values)


def test_run_states_satisfy_residual_tolerance(table):
    col = Column(length=1.0, n_cells=100, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.05, newton_tol=1e-7)
    traj = run(project_initial(_wet_lens(col)), cfg, table)
    for k in range(1, len(traj.states)):
        r, _ = newton_system(traj.states[k], traj.states[k - 1], cfg, table)
        assert np.max(np.abs(r)) <= cfg.newton_tol


def test_run_newton_iteration_regression(table):
    # frozen bound measured on the benchmark configuration
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.1, newton_tol=1e-7)
    traj = run(project_initial(_wet_lens(col)), cfg, table)
    assert max(traj.newton_iters) <= 8


def test_reference_run_newton_work_count(table):
    # the reference problem of the command line (200 cells, h = 0.01,
    # 100 steps): the solver's total work is an exact, deterministic count
    cfg = load_config(None)
    col = cfg.build_column()
    stepping = cfg.build_stepping(beta=table.beta_bound())
    traj = run(cfg.initial_state(col), stepping, table)
    assert traj.n_steps == 100
    assert sum(traj.newton_iters) == 21


@pytest.mark.parametrize("h, iters", [(2.5e-4, 255), (1.25e-4, 486), (6.25e-5, 945)])
def test_fine_step_newton_work_count(table, h, iters):
    # the three levels of acceptance criterion 10
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=h, gamma=0.1, t_end=1.0, newton_tol=1e-7)
    traj = run(project_initial(_wet_lens(col)), cfg, table)
    assert sum(traj.newton_iters) == iters


def test_run_fixed_point_tail_equals_full_march(table):
    # from step 82 on, the sourceless march returns its input bit for bit
    # and repeats it; a zero source (x - 0.0 == x) turns that off, so the
    # second run solves every step
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    cfg = StepConfig(h=2.5e-4, gamma=0.1, t_end=0.05, newton_tol=1e-7)
    u0 = project_initial(_wet_lens(col))
    tail = run(u0, cfg, table)
    full = run(u0, cfg, table, source=lambda t, z: np.zeros_like(z))
    assert len(tail.states) == len(full.states) == 201
    for a, b in zip(tail.states, full.states):
        assert a.values.tobytes() == b.values.tobytes()
    assert tail.newton_iters == full.newton_iters
    assert tail.residual_norms == full.residual_norms
    assert all(s is tail.states[81] for s in tail.states[82:])
    assert len({id(s) for s in tail.states}) == 82
    assert len({id(s) for s in full.states}) == 201


def test_run_gamma_zero_keeps_maximum_principle(table):
    col = Column(length=1.0, n_cells=63)
    rng = np.random.default_rng(17)
    z = col.nodes()
    vals = sum(
        rng.uniform(-0.08, 0.0) * np.sin((k + 1) * np.pi * z) for k in range(3)
    )
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=0.1, newton_tol=1e-11)
    traj = run(Field(vals, col), cfg, table)
    u0 = traj.states[0].values
    hi = max(u0.max(), 0.0)
    lo = min(u0.min(), 0.0)
    for s in traj.states[1:]:
        assert s.values.max() <= hi + 1e-8
        assert s.values.min() >= lo - 1e-8


def test_trajectory_times_read_only(table):
    col = Column(length=1.0, n_cells=10)
    traj = run(Field.zeros(col), StepConfig(h=0.1, gamma=0.0, t_end=0.2), table)
    with pytest.raises(ValueError):
        traj.times[0] = 5.0
