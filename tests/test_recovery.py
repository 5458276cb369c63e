"""Physical-field recovery: inverse transform, saturation, flux, conservation."""

import numpy as np
import pytest

from kirchflow.config import gaussian_lens
from kirchflow.constitutive import OutOfRangeError
from kirchflow.grid import (
    Column,
    Field,
    biharmonic_array,
    gravity_divergence_array,
    laplacian_array,
)
from kirchflow.recovery import darcy_velocity, pressure_field, saturation_field
from kirchflow.stepper import StepConfig, project_initial, run
from oracles.recovery import face_velocity, gradient_consistency, mass_balance_residual


def _lens(col, depth=0.2, width=0.15, center=0.5):
    return Field(gaussian_lens(col.nodes(), center, width, depth), col)


def _short_run(table, gamma, n, h, tol, t_end):
    col = Column(length=1.0, n_cells=n, gravity_sign=-1.0)
    u0 = project_initial(_lens(col))
    cfg = StepConfig(h=h, gamma=gamma, t_end=t_end, newton_tol=tol)
    return run(u0, cfg, table), cfg


# ---------------------------------------------------------------------------
# pressure
# ---------------------------------------------------------------------------


def test_pressure_zero_field_is_zero(table):
    col = Column(length=1.0, n_cells=40)
    p = pressure_field(Field.zeros(col), table)
    assert p.column is col
    assert np.all(p.values == 0.0)


def test_pressure_identity_on_saturated_plateau(table):
    col = Column(length=1.0, n_cells=40)
    u = Field(0.3 * col.nodes() + 0.05, col)
    p = pressure_field(u, table)
    assert np.array_equal(p.values, u.values)


def test_pressure_round_trip_mixed_field(table):
    col = Column(length=1.0, n_cells=80)
    z = col.nodes()
    u = Field(np.where(z < 0.5, -0.15 * np.sin(np.pi * z), 0.1 * z), col)
    p = pressure_field(u, table)
    back = table.kirchhoff(p.values)
    assert np.max(np.abs(back - u.values)) <= 1.0e-8


def test_pressure_out_of_range_names_node(table):
    col = Column(length=1.0, n_cells=20)
    vals = np.full(20, -0.1)
    vals[7] = np.nextafter(table.u_samples[0], -np.inf)
    with pytest.raises(OutOfRangeError) as err:
        pressure_field(Field(vals, col), table)
    assert "u[7]=" in str(err.value)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_is_one_on_wet_plateau(table):
    col = Column(length=1.0, n_cells=30)
    s = saturation_field(Field(np.linspace(0.0, 0.4, 30), col), table)
    assert np.all(s.values == 1.0)


def test_saturation_matches_closed_form_composition(table, model):
    # the recovered pair (p, S) must be the same physical state: S from
    # the transformed channel against the closed-form curve at the
    # recovered pressure.
    col = Column(length=1.0, n_cells=120)
    z = col.nodes()
    u = Field(-0.3 * np.exp(-(((z - 0.45) / 0.2) ** 2)) + 0.02 * z, col)
    s = saturation_field(u, table)
    p = pressure_field(u, table)
    defect = np.max(np.abs(s.values - model.saturation(p.values)))
    assert defect <= 1.0e-12


def test_saturation_range_and_dry_limit(table, model):
    col = Column(length=1.0, n_cells=50)
    deep = 0.98 * table.u_samples[0]
    vals = np.linspace(deep, 0.2, 50)
    s = saturation_field(Field(vals, col), table)
    assert np.all(s.values >= model.s_res)
    assert np.all(s.values <= 1.0)
    assert s.values[0] == pytest.approx(model.s_res, abs=1.0e-6)


# ---------------------------------------------------------------------------
# gradient consistency
# ---------------------------------------------------------------------------


def test_gradient_consistency_constant_field(table):
    col = Column(length=1.0, n_cells=60)
    # not exactly zero: the one-sided wall rows round 3*p at |p| ~ 50
    assert gradient_consistency(Field(np.full(60, -0.25), col), table) <= 1.0e-12


def test_gradient_consistency_saturated_plateau_exact(table):
    col = Column(length=1.0, n_cells=60)
    u = Field(col.nodes() + 0.1, col)
    assert gradient_consistency(u, table) == 0.0


def test_gradient_consistency_second_order(table):
    errs = []
    for n in (51, 103, 207):
        col = Column(length=1.0, n_cells=n)
        errs.append(gradient_consistency(_lens(col, depth=0.1, width=0.2), table))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------


def test_velocity_zero_field_is_pure_gravity(table):
    col = Column(length=1.0, n_cells=35, gravity_sign=-1.0)
    v = darcy_velocity(Field.zeros(col), 0.1, table)
    assert np.all(v.values == -1.0)


def test_velocity_gamma_zero_hand_assembly(table):
    col = Column(length=1.0, n_cells=45, gravity_sign=-1.0)
    u = _lens(col, depth=0.15, width=0.2)
    v = darcy_velocity(u, 0.0, table).values
    dz = col.dz
    vals = u.values
    k = table.all_channels(vals)[1]
    hand = np.empty_like(vals)
    for i in range(1, 44):
        hand[i] = -k[i] - (vals[i + 1] - vals[i - 1]) / (2.0 * dz)
    hand[0] = -k[0] - (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dz)
    hand[-1] = -k[-1] - (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dz)
    assert np.max(np.abs(v - hand)) <= 1.0e-12


def test_velocity_fourth_order_term_engages(table):
    col = Column(length=1.0, n_cells=45)
    u = _lens(col)
    v0 = darcy_velocity(u, 0.0, table).values
    v1 = darcy_velocity(u, 0.1, table).values
    assert np.max(np.abs(v1 - v0)) > 1.0e-3


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_face_divergence_matches_operator_terms(table, gamma):
    # the face flux is built so its difference quotient IS the spatial
    # part of the discrete residual; anything beyond rounding here means
    # the two codings of the operator have diverged.
    col = Column(length=1.0, n_cells=60, gravity_sign=-1.0)
    z = col.nodes()
    u = Field(-0.3 * np.exp(-(((z - 0.4) / 0.2) ** 2)) + 0.02 * np.sin(9 * z), col)
    flux = face_velocity(u, gamma, table)
    div = (flux[1:] - flux[:-1]) / col.dz
    ops = (
        gravity_divergence_array(table.all_channels(u.values)[1], col.dz,
                                 col.gravity_sign)
        - laplacian_array(u.values, col.dz)
        + gamma * biharmonic_array(u.values, col.dz)
    )
    scale = np.max(np.abs(ops))
    assert np.max(np.abs(div - ops)) <= 1.0e-13 * scale


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------


def test_mass_balance_on_benchmark_steps(table):
    traj, cfg = _short_run(table, gamma=0.1, n=200, h=0.01, tol=1.0e-7, t_end=0.05)
    for k in (1, 3, 5):
        defect = mass_balance_residual(
            Field(traj.values[k], traj.column), Field(traj.values[k - 1], traj.column),
            cfg.h, cfg.gamma, table
        )
        assert defect <= 10.0 * cfg.newton_tol


def test_mass_balance_gamma_zero(table):
    traj, cfg = _short_run(table, gamma=0.0, n=100, h=0.01, tol=1.0e-11, t_end=0.05)
    for k in (1, 5):
        defect = mass_balance_residual(
            Field(traj.values[k], traj.column), Field(traj.values[k - 1], traj.column),
            cfg.h, cfg.gamma, table
        )
        assert defect <= 10.0 * cfg.newton_tol


# ---------------------------------------------------------------------------
# equivalence of the pressure-form statement
# ---------------------------------------------------------------------------


def _pressure_form_interior_l2(model, table, traj, cfg, col):
    """Residual of the untransformed equation at the final accepted step.

    Assembled from scratch: saturation rate from the closed-form curve at
    the recovered pressure, conservative flux differences of K(p) grad p
    with arithmetic-mean faces and zero wall values, gravity from the same
    face conductivities.  The fourth-order term is evaluated from the
    transformed variable itself — its pressure-form evaluation would
    amplify round-trip noise by dz**-4.  Interior norm: the wall rows of
    the two formulations close the boundary differently, at an O(1)
    stencil-level disagreement that does not vanish under refinement.
    """
    u_old, u_new = traj.values[traj.rows[-2:]]
    dz = col.dz
    p_new = table.kirchhoff_inverse(u_new)
    p_old = table.kirchhoff_inverse(u_old)
    rate = (model.saturation(p_new) - model.saturation(p_old)) / cfg.h
    kn = model.conductivity_vs_pressure(p_new)
    kbar = np.concatenate(([kn[0]], 0.5 * (kn[:-1] + kn[1:]), [kn[-1]]))
    grad = np.concatenate(([p_new[0] / dz], np.diff(p_new) / dz, [-p_new[-1] / dz]))
    flux = kbar * grad
    r = rate - (flux[1:] - flux[:-1]) / dz
    r = r + col.gravity_sign * (kbar[1:] - kbar[:-1]) / dz
    if cfg.gamma != 0.0:
        n = col.n_cells
        m = np.zeros((n, n))
        for i in range(n):
            for j, c in zip(
                (i - 2, i - 1, i, i + 1, i + 2), (1.0, -4.0, 6.0, -4.0, 1.0)
            ):
                if 0 <= j < n:
                    m[i, j] = c
        m[0, 0] = 7.0
        m[-1, -1] = 7.0
        r = r + cfg.gamma * (m @ u_new) / dz**4
    inner = r[2:-2]
    return float(np.sqrt(dz * np.sum(inner**2)))


def test_pressure_form_residual_contracts_under_refinement(table, model):
    # h is cut with dz**2 so both error sources quarter per level; a
    # contraction ratio well above 3 per halving is the second-order
    # signature (measured 5.3 and 4.3).
    errs = []
    for n, h in ((50, 4.0e-3), (101, 1.0e-3), (203, 2.5e-4)):
        traj, cfg = _short_run(table, gamma=0.0, n=n, h=h, tol=1.0e-11, t_end=0.02)
        col = traj.column
        errs.append(_pressure_form_interior_l2(model, table, traj, cfg, col))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_pressure_form_residual_with_fourth_order_term(table, model):
    # one level only: under refinement the lens decays so fast at this
    # gamma that the state collapses toward the trivial root and the
    # contraction ratio measures decay, not consistency.
    traj, cfg = _short_run(table, gamma=0.1, n=50, h=4.0e-3, tol=1.0e-8, t_end=0.02)
    col = traj.column
    defect = _pressure_form_interior_l2(model, table, traj, cfg, col)
    assert defect <= 1.0e-5
