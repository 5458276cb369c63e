"""Oracle layer: certified quadrature, manufactured-solution studies,
and the dense reference step that cross-checks the banded solver."""

import json

import numpy as np
import pytest

from kirchflow.config import gaussian_lens, load_config, parse_config
from kirchflow.constitutive import ConstitutiveModel, KirchhoffTable, build_table
from kirchflow.grid import Column, Field
from kirchflow.harness import (
    MMS_ORDER_MIN,
    HarnessError,
    ManufacturedSolution,
    convergence_study,
    fitted_order,
)
from kirchflow.stepper import StepConfig, project_initial
from oracles.banded import banded_step, newton_system
from oracles.dense import dense_reference_step
from oracles.quadrature import quadrature_oracle


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_constant():
    assert quadrature_oracle(lambda x: 1.0, 0.0, 1.0, tol=1e-12) == pytest.approx(
        1.0, abs=1e-14
    )


def test_quadrature_parabola():
    val = quadrature_oracle(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_quadrature_rejects_uncertifiable_tolerance():
    with pytest.raises(HarnessError, match="below certifiable"):
        quadrature_oracle(lambda x: 1.0, 0.0, 1.0, tol=1e-15)


def test_quadrature_refuses_wild_integrand():
    # essential oscillation at the left end: the adaptive scheme cannot
    # push its estimate to 1e-12, and the oracle must say so, not guess
    with pytest.raises(HarnessError):
        quadrature_oracle(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0, tol=1e-12)


def test_quadrature_cross_checks_transform_table(model, table):
    # the tabulated transform is an antiderivative of the conductivity
    # composed with the retention curve; direct adaptive integration must
    # reproduce its differences.  Intervals stop at the joints of the
    # piecewise curve (saturation onset, regularized tail) and stay short
    # enough that 1e-13 absolute certification clears the round-off floor
    # eps*|integral| — the oracle rightly refuses both an interior kink
    # and a value too large to certify at that precision.  Besides the
    # default soil, a refined one whose slope diverges at saturation
    # (n_vg < 2) certifies the table's Gauss order beyond the default.
    refined = ConstitutiveModel(n_vg=1.6, a_min=1.0e-2)
    for model, table in [(model, table), (refined, build_table(refined))]:
        for pa, pb in [
            (-50.0, -30.0),
            (-30.0, -10.0),
            (-10.0, -5.0),
            (-5.0, 0.0),
            (-1.0, 0.0),
            (0.0, 5.0),
            (5.0, 10.0),
            (-50.0, -10.0),
        ]:
            val = quadrature_oracle(
                lambda p: float(model.conductivity_vs_pressure(p)), pa, pb, tol=1e-12
            )
            diff = table.kirchhoff(np.array([pb]))[0] - table.kirchhoff(np.array([pa]))[0]
            assert abs(val - diff) <= 1e-11


# ---------------------------------------------------------------------------
# manufactured solution
# ---------------------------------------------------------------------------


@pytest.fixture()
def ms():
    return ManufacturedSolution(Column(length=1.0, n_cells=50, gravity_sign=-1.0))


def test_ms_field_vanishes_toward_walls(ms):
    u = ms.field(0.0).values
    z = ms.column.nodes()
    # quadratic contact at both walls: wall-adjacent node sits at O(dz^2)
    assert abs(u[0]) <= 20.0 * ms.column.dz**2
    assert abs(u[-1]) <= 20.0 * ms.column.dz**2
    assert u.min() == pytest.approx(ms.envelope(0.0), rel=1e-2)
    assert np.all(u[z.argsort()] <= 1e-15)


def test_ms_envelope_rate_matches_central_difference(ms):
    eps = 1e-6
    for t in (0.0, 0.1, 0.37, 1.0):
        fd = (ms.envelope(t + eps) - ms.envelope(t - eps)) / (2.0 * eps)
        assert ms.envelope_rate(t) == pytest.approx(fd, abs=1e-8)


def test_ms_source_gamma_wiring(ms, table):
    # the two sources must differ by exactly the fourth-derivative term
    cfg0 = StepConfig(h=0.01, gamma=0.0, t_end=0.01)
    cfg1 = StepConfig(h=0.01, gamma=0.25, t_end=0.01)
    t = 0.3
    gap = ms.source_callable(cfg1, table)(t) - ms.source_callable(cfg0, table)(t)
    expected = 0.25 * ms.envelope(t) * 16.0 * 24.0 / ms.column.length**4
    np.testing.assert_allclose(gap, expected, rtol=1e-13)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_ms_source_equals_per_call_closed_form(ms, table, gamma):
    # the shape and its derivatives are computed once per source; every value
    # is the one the closed form computes from scratch at each call
    cfg = StepConfig(h=0.01, gamma=gamma, t_end=0.01)
    src = ms.source_callable(cfg, table)
    length, g = ms.column.length, ms.column.gravity_sign
    for t in (0.0, 0.01, 0.3, 0.77, 2.5):
        z = ms.column.nodes()
        s = z / length
        shape = 16.0 * s**2 * (1.0 - s) ** 2
        d1 = 16.0 * (2.0 * s - 6.0 * s**2 + 4.0 * s**3) / length
        d2 = 16.0 * (2.0 - 12.0 * s + 12.0 * s**2) / length**2
        d4 = 16.0 * 24.0 / length**4 * np.ones_like(z)
        amp = ms.envelope(t)
        u = amp * shape
        b_prime, dk_du = table.all_channels(u)[2:]
        expected = b_prime * (ms.envelope_rate(t) * shape)
        expected += g * dk_du * (amp * d1)
        expected -= amp * d2
        if gamma != 0.0:
            expected += gamma * amp * d4
        assert src(t).tobytes() == expected.tobytes()


def test_ms_discrete_residual_small_at_exact_solution(ms, table):
    # feeding consecutive exact snapshots through the stepper residual
    # leaves only truncation; it must sit far below the solution scale
    cfg = StepConfig(h=1e-5, gamma=0.1, t_end=0.02, newton_tol=1e-10)
    src = ms.source_callable(cfg, table)
    t = 0.01
    r, _ = newton_system(
        ms.field(t),
        ms.field(t - cfg.h),
        cfg,
        table,
        src(t),
    )
    # wall rows carry the mirror-ghost closure truncation (grows like
    # 1/dz when u''' is nonzero at the wall); the convergence studies
    # show the solution never sees it, so the consistency check is
    # interior-only
    assert np.max(np.abs(r[1:-1])) <= 5e-2


# ---------------------------------------------------------------------------
# convergence studies (values frozen from the recorded studies; the
# acceptance suite re-runs them at the contract thresholds)
# ---------------------------------------------------------------------------


def test_spatial_study_second_order(table):
    rows = convergence_study("spatial", table, levels=4, gamma=0.1)
    errs = [r.l2_error for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[0] == pytest.approx(7.112943e-04, rel=1e-3)
    assert errs[-1] == pytest.approx(9.707233e-06, rel=1e-3)
    for r in rows[1:]:
        assert r.observed_order >= MMS_ORDER_MIN["spatial"]
    assert MMS_ORDER_MIN["spatial"] <= fitted_order(rows) <= 2.5


def test_spatial_study_second_order_without_fourth_term(table):
    rows = convergence_study("spatial", table, levels=4, gamma=0.0)
    for r in rows[1:]:
        assert r.observed_order >= MMS_ORDER_MIN["spatial"]
    assert MMS_ORDER_MIN["spatial"] <= fitted_order(rows) <= 2.5


def test_temporal_study_first_order(table):
    rows = convergence_study("temporal", table, levels=4, gamma=0.1)
    errs = [r.l2_error for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[0] == pytest.approx(4.584577e-05, rel=1e-3)
    assert errs[-1] == pytest.approx(6.550500e-06, rel=1e-3)
    # the last pair grazes the fixed spatial floor; the fitted slope is
    # the study's single observed order and must clear the contract
    for r in rows[1:]:
        assert r.observed_order >= 0.85
    assert MMS_ORDER_MIN["temporal"] <= fitted_order(rows) <= 1.2


def test_study_rejects_too_few_levels(table):
    with pytest.raises(HarnessError, match="at least 3"):
        convergence_study("spatial", table, levels=2)


def test_study_rejects_unknown_mode(table):
    with pytest.raises(HarnessError, match="unknown study mode"):
        convergence_study("sideways", table)


# ---------------------------------------------------------------------------
# dense reference step
# ---------------------------------------------------------------------------


def _smooth_state(col, rng):
    z = col.nodes()
    coeff = rng.uniform(-0.08, 0.0125, size=4)
    vals = sum(c * np.sin((m + 1) * np.pi * z) for m, c in enumerate(coeff))
    return Field(np.clip(vals, -0.3, 0.05), col)


def test_dense_zero_state_stays_zero(table):
    col = Column(length=1.0, n_cells=40, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.01, newton_tol=1e-10)
    u0 = Field.zeros(col)
    dense = dense_reference_step(u0, cfg, table)
    banded = banded_step(u0, cfg, table)
    assert np.array_equal(dense.values, np.zeros(40))
    assert np.array_equal(banded.values, np.zeros(40))


def test_dense_matches_banded_on_benchmark_first_step(table):
    col = Column(length=1.0, n_cells=200, gravity_sign=-1.0)
    z = col.nodes()
    lens = -0.2 * np.exp(-(((z - 0.5) / 0.15) ** 2))
    u0 = Field(lens, col)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=1.0, newton_tol=1e-7)
    banded = banded_step(u0, cfg, table)
    dense = dense_reference_step(u0, cfg, table)
    gap = np.max(np.abs(banded.values - dense.values))
    assert gap <= 100.0 * cfg.newton_tol
    assert gap <= 1e-9  # measured 3e-11; regression headroom only


def test_dense_result_satisfies_banded_residual(table):
    # the dense path never touches the banded assembly, yet its accepted
    # state must zero the banded residual to the same tolerance
    rng = np.random.default_rng(7)
    col = Column(length=1.0, n_cells=64, gravity_sign=-1.0)
    u0 = _smooth_state(col, rng)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.01, newton_tol=1e-9)
    dense = dense_reference_step(u0, cfg, table)
    r, _ = newton_system(dense, u0, cfg, table)
    assert np.max(np.abs(r)) <= cfg.newton_tol


def test_dense_rejects_oversized_grid(table):
    col = Column(length=1.0, n_cells=401, gravity_sign=-1.0)
    cfg = StepConfig(h=0.01, gamma=0.1, t_end=0.01, newton_tol=1.0e-10)
    with pytest.raises(HarnessError, match="n_cells"):
        dense_reference_step(Field.zeros(col), cfg, table)


# ---------------------------------------------------------------------------
# dense reference Newton exits
# ---------------------------------------------------------------------------


def _reference_step(table):
    """The projected reference state and the reference stepping."""
    cfg = load_config(None)
    u_old = project_initial(cfg.initial_state(cfg.build_column()))
    return u_old, cfg.build_stepping()


def test_dense_reference_stops_a_diverging_step():
    # the column on which the banded march diverges at step 1: the dense
    # oracle's first full step lands on the same residual
    cfg = parse_config(json.dumps({
        "constitutive": {"alpha_vg": 0.1, "n_vg": 1.2, "p_reg": -1.0, "a_min": 0.03},
        "grid": {"n_cells": 50, "gravity_sign": 1.0, "length": 0.37},
        "stepping": {"h": 0.8, "gamma": 0.0, "t_end": 0.8},
        "ic": {"center": 0.173, "width": 0.043, "depth": 0.00166},
    }))
    table = cfg.transform_table()
    u_old = project_initial(cfg.initial_state(cfg.build_column()))
    with pytest.raises(HarnessError,
                       match=r"^dense reference Newton diverged: residual 3\.835e-01$"):
        dense_reference_step(u_old, cfg.build_stepping(), table)


def test_dense_reference_converging_on_its_last_allowed_iterate(table, monkeypatch):
    # the oracle's own iteration count for one reference step, as its cap:
    # it converges on the last iterate the cap allows, to the same values
    u_old, cfg = _reference_step(table)
    solve, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    free = dense_reference_step(u_old, cfg, table)
    iterations = len(solves)
    assert iterations == 5
    monkeypatch.setattr("oracles.dense._MAX_ITER", iterations)
    capped = dense_reference_step(u_old, cfg, table)
    assert capped.values.tobytes() == free.values.tobytes()


def test_dense_reference_reports_no_convergence(table, monkeypatch):
    u_old, cfg = _reference_step(table)
    monkeypatch.setattr("oracles.dense._MAX_ITER", 1)
    with pytest.raises(HarnessError,
                       match=r"^dense reference Newton did not converge: "
                             r"residual 6\.256e\+01$"):
        dense_reference_step(u_old, cfg, table)


def test_a_guess_below_the_table_is_clamped_onto_its_lowest_knot(table, monkeypatch):
    # a Newton iterate of -1e4, far below the table, is read at the lowest
    # knot, not refused: as the banded step's guess and as the dense oracle's
    # first full step; both go on to the root of the unclamped step
    col = Column(length=1.0, n_cells=10, gravity_sign=-1.0)
    u_old = Field(gaussian_lens(col.nodes(), 0.5, 0.15, 0.2), col)
    cfg = StepConfig(h=0.01, gamma=0.0, t_end=0.01, newton_tol=1e-9)
    src = np.full(col.n_cells, 300.0)
    root = banded_step(u_old, cfg, table, source=src)
    u_bot = np.full(col.n_cells, table.u_samples[0])
    reads = []

    def recording(name):
        inner = getattr(KirchhoffTable, name)

        def read(self, u):
            reads.append(np.array(u))
            return inner(self, u)

        monkeypatch.setattr(KirchhoffTable, name, read)

    recording("all_channels")
    guess = Field(np.full(col.n_cells, -1.0e4), col)
    clamped = banded_step(u_old, cfg, table, initial_guess=guess, source=src)
    assert reads[1].tobytes() == u_bot.tobytes()  # after b(u_old), the guess
    assert np.max(np.abs(clamped.values - root.values)) <= 100.0 * cfg.newton_tol

    solve, solves = np.linalg.solve, []

    def overshooting(a, b):
        solves.append(1)
        return np.full(b.shape, -1.0e4) if len(solves) == 1 else solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", overshooting)
    reads.clear()
    dense = dense_reference_step(u_old, cfg, table, source=src)
    # b(u_old), the residual and the matrix at u_old, then the residual at
    # the clamped step
    assert reads[3].tobytes() == u_bot.tobytes()
    assert np.max(np.abs(dense.values - root.values)) <= 100.0 * cfg.newton_tol
