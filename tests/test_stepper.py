"""Backward-difference stepper: residual, Jacobian, Newton, trajectories."""

import numpy as np
import pytest

from kirchflow.config import load_config
from kirchflow.constitutive import OutOfRangeError
from kirchflow.grid import Column, Field, dense_from_banded
from kirchflow.stepper import (
    NonconvergenceError,
    StepConfig,
    StepConfigError,
    check_timestep,
    jacobian,
    project_initial,
    residual,
    run,
    step,
)


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
        {"h": 0.01, "newton_max_iter": 0},
        {"h": 0.01, "damping": 0.0},
        {"h": 0.01, "damping": 1.0},
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
    r = residual(zero, zero, cfg, table)
    assert np.all(r.values == 0.0)


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

    got = residual(Field(u_new, col), Field(u_old, col), cfg, table).values
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
    r0 = residual(f, f, cfg, table).values
    r1 = residual(f, f, cfg, table, source=src).values
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
    ab = jacobian(Field(base, col), cfg, table)
    assert ab.shape == (5, 30)  # pentadiagonal: bandwidth <= 5
    J = dense_from_banded(ab, 2, 2)
    eps = 1e-6
    for _ in range(5):
        v = rng.standard_normal(30)
        v /= np.max(np.abs(v))
        rp = residual(Field(base + eps * v, col), u_old, cfg, table).values
        rm = residual(Field(base - eps * v, col), u_old, cfg, table).values
        fd = (rp - rm) / (2 * eps)
        Jv = J @ v
        assert np.max(np.abs(fd - Jv)) <= 1e-5 * np.max(np.abs(Jv))


def test_jacobian_saturated_plateau_is_heat_limit(table, model):
    # gamma = 0 on the saturated branch: J = (a_min/h) I - lap, an M-matrix
    col = Column(length=1.0, n_cells=10)
    cfg = StepConfig(h=0.01, gamma=0.0)
    J = dense_from_banded(jacobian(Field(np.full(10, 0.5), col), cfg, table), 2, 2)
    assert np.max(np.abs(J - J.T)) <= 1e-14 * np.max(np.abs(J))
    assert np.all(np.diag(J) > 0.0)
    off = J - np.diag(np.diag(J))
    assert np.all(off <= 0.0)
    expected_diag = model.a_min / cfg.h + 2.0 / col.dz ** 2
    assert np.allclose(np.diag(J), expected_diag, rtol=1e-12)


def test_jacobian_lag_gravity_drops_flux_block(table):
    col = Column(length=1.0, n_cells=15, gravity_sign=-1.0)
    f = _wet_lens(col)
    full = jacobian(f, StepConfig(h=0.01, gamma=0.1), table)
    lagged = jacobian(f, StepConfig(h=0.01, gamma=0.1, lag_gravity=True), table)
    assert not np.allclose(full, lagged)
    # outer bands are the pure biharmonic, identical either way
    assert np.all(full[0] == lagged[0]) and np.all(full[4] == lagged[4])


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
    cfg = StepConfig(h=0.01, gamma=0.1, newton_tol=1e-13, newton_max_iter=2)
    with pytest.raises(NonconvergenceError) as exc:
        step(_wet_lens(col), cfg, table)
    assert exc.value.residual_norm is not None
    assert exc.value.residual_norm > 1e-13


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


def test_lag_gravity_converges_to_same_root(table):
    col = Column(length=1.0, n_cells=100, gravity_sign=-1.0)
    u_old = project_initial(_wet_lens(col))
    tol = 1e-9
    u_full = step(u_old, StepConfig(h=0.01, gamma=0.0, newton_tol=tol), table)
    u_lag = step(
        u_old,
        StepConfig(h=0.01, gamma=0.0, newton_tol=tol, lag_gravity=True,
                   newton_max_iter=60),
        table,
    )
    assert np.max(np.abs(u_full.values - u_lag.values)) <= 10 * tol


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
        r = residual(traj.states[k], traj.states[k - 1], cfg, table)
        assert np.max(np.abs(r.values)) <= cfg.newton_tol


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
