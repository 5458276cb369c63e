"""Constitutive relations and transform table.

Golden literals below were frozen from the independent high-precision
oracle in tests/oracles/constitutive_golden.py (mpmath, 50 digits); the
default model is alpha_vg=2, n_vg=2, s_res=0.05, p_reg=-10, a_min=1e-3.
"""

import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PPoly

from kirchflow import constitutive
from kirchflow.constitutive import (
    P_MIN,
    ConstitutiveError,
    ConstitutiveModel,
    KirchhoffTable,
    OutOfRangeError,
    build_table,
)
from oracles.legendre import legendre_transform

# oracle: tests/oracles/constitutive_golden.py
GOLD_S_M1 = 0.47485291572496004232
GOLD_K_HALF = 0.010786534809134016193
GOLD_PSI_M2 = -0.20432639648627936678
GOLD_PSI_M1 = -0.2011373055691670705
GOLD_PSI_M10 = -0.21258586377195062885
GOLD_BPRIME_AT_M1 = 40.241474935159770825
GOLD_B_AT_PSI_M1 = 0.090032382655624551625


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_vg": 0.0},
        {"alpha_vg": -1.0},
        {"n_vg": 1.0},
        {"n_vg": 0.9},
        {"s_res": 0.0},
        {"s_res": 1.0},
        {"p_reg": 0.0},
        {"p_reg": 2.0},
        {"a_min": 0.0},
        {"a_min": 1.0},
        {"alpha_vg": float("inf")},
        {"n_vg": float("inf")},
        {"alpha_vg": 1e-300},  # retention slope at p_reg underflows to 0
        {"alpha_vg": 1e-10},  # S(p_reg) rounds to 1: no dry tail to join
        {"alpha_vg": 1e-162},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    (field,) = kwargs
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ConstitutiveError, match=f"^{field}: "):
            ConstitutiveModel(**kwargs)


def test_build_rejects_p_min_above_p_reg():
    with pytest.raises(ConstitutiveError, match="P_MIN"):
        build_table(ConstitutiveModel(p_reg=2.0 * P_MIN))


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturation_saturated_branch(model):
    assert model.saturation(0.0) == 1.0
    assert model.saturation(5.0) == 1.0
    assert np.all(model.saturation(np.array([0.0, 0.3, 12.0])) == 1.0)


def test_saturation_golden_value(model):
    assert model.saturation(-1.0) == pytest.approx(GOLD_S_M1, abs=1e-14)


def test_saturation_monotone_and_in_range(model):
    p = np.linspace(-2000.0, 10.0, 20001)
    s = model.saturation(p)
    assert np.all(np.diff(s) >= 0.0)
    assert np.all(s >= model.s_res)
    assert np.all(s <= 1.0)


def test_saturation_c1_at_regularization_joint(model):
    eps = 1e-7
    below = model.saturation(model.p_reg - eps)
    above = model.saturation(model.p_reg + eps)
    assert abs(above - below) < 1e-6
    slope_below = model.sat_slope_raw(model.p_reg - eps)
    slope_above = model.sat_slope_raw(model.p_reg + eps)
    assert slope_below == pytest.approx(slope_above, rel=1e-5)


# ---------------------------------------------------------------------------
# conductivity
# ---------------------------------------------------------------------------


def test_conductivity_endpoints(model):
    assert model.conductivity(1.0) == 1.0
    assert model.conductivity(model.s_res) == model.k_floor
    assert model.k_floor > 0.0


def test_conductivity_golden_value(model):
    assert model.conductivity(0.5) == pytest.approx(GOLD_K_HALF, abs=1e-15)


def test_conductivity_monotone(model):
    s = np.linspace(model.s_res, 1.0, 5001)
    k = model.conductivity(s)
    assert np.all(np.diff(k) >= 0.0)
    assert np.all(k > 0.0)
    assert np.all(k <= 1.0)


def test_conductivity_domain_error(model):
    with pytest.raises(ConstitutiveError):
        model.conductivity(model.s_res - 1e-6)
    with pytest.raises(ConstitutiveError):
        model.conductivity(1.0 + 1e-6)
    # within tolerance band: clipped, no raise
    model.conductivity(1.0 + 1e-13)


# ---------------------------------------------------------------------------
# kirchhoff map
# ---------------------------------------------------------------------------


def test_kirchhoff_identity_on_saturated_branch(table):
    assert table.kirchhoff(3.7) == 3.7
    assert table.kirchhoff(0.0) == 0.0


def test_kirchhoff_golden_values(table):
    assert table.kirchhoff(-2.0) == pytest.approx(GOLD_PSI_M2, abs=1e-11)
    assert table.kirchhoff(-1.0) == pytest.approx(GOLD_PSI_M1, abs=1e-11)
    assert table.kirchhoff(-10.0) == pytest.approx(GOLD_PSI_M10, abs=1e-11)


def test_kirchhoff_strictly_increasing(table):
    p = np.linspace(-300.0, 10.0, 20001)
    u = table.kirchhoff(p)
    assert np.all(np.diff(u) > 0.0)


def test_chain_rule_central_difference(table, model):
    # d(psi)/dp = K_f(S(p)), probed by central differences at step 1e-5
    p = -np.geomspace(0.01, 30.0, 2000)
    step = 1e-5
    cd = (table.kirchhoff(p + step) - table.kirchhoff(p - step)) / (2 * step)
    assert np.max(np.abs(cd - model.conductivity_vs_pressure(p))) <= 1e-6


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------


def test_inverse_identity_on_saturated_branch(table):
    assert table.kirchhoff_inverse(1.5) == 1.5
    assert table.kirchhoff_inverse(0.0) == 0.0


def test_inverse_round_trip_golden(table):
    p = table.kirchhoff_inverse(table.kirchhoff(-2.0))
    assert p == pytest.approx(-2.0, abs=1e-8)


def test_round_trip_property(table):
    rng = np.random.default_rng(7)
    p = np.concatenate(
        [rng.uniform(-50.0, 10.0, 900), np.linspace(-50.0, 10.0, 100)]
    )
    back = table.kirchhoff_inverse(table.kirchhoff(p))
    assert np.max(np.abs(back - p)) <= 1e-8


def test_inverse_out_of_range(table):
    with pytest.raises(OutOfRangeError):
        table.kirchhoff_inverse(table.u_lower - 0.01)
    with pytest.raises(OutOfRangeError):
        table.kirchhoff_inverse(table.u_lower + 0.5 * table.margin)


def test_every_u_channel_refuses_values_below_the_table(table):
    for u in (table.u_lower - 1.0, np.nan):
        for channel in (table.b_of_u, table.b_prime, table.legendre_B,
                        table.conductivity_of_u, table.dconductivity_du,
                        table.kirchhoff_inverse):
            with pytest.raises(OutOfRangeError):
                channel(u)


def test_pressure_maps_propagate_nan(table, model):
    for f in (model.saturation, model.sat_slope_raw, model.conductivity_pressure_slope,
              model.conductivity_vs_pressure, table.kirchhoff):
        assert np.isnan(f(np.nan))
        out = f(np.array([-1.0, np.nan, -20.0, 2.0]))
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2, 3]]))


def test_table_sample_invariants(table):
    assert np.all(np.diff(table.p_samples) > 0.0)
    assert np.all(np.diff(table.u_samples) > 0.0)
    pos = table.p_samples >= 0.0
    assert np.array_equal(table.u_samples[pos], table.p_samples[pos])
    assert table.u_lower < table.u_samples[0] < 0.0


def test_default_table_knot_count(table):
    # work count of the default build: the graded grid needs no refinement
    assert np.count_nonzero(table.p_samples <= 0.0) == 43167
    assert table.p_samples.size == 43167
    assert table.p_samples[0] == P_MIN


def test_default_table_meets_slope_tolerance(table):
    # refinement gives up silently after 8 passes; the default map must not
    # need that: its slope meets dtol = 1e-8 at the refinement probes
    grid = table.p_samples[table.p_samples <= 0.0]
    for frac in (0.25, 0.5, 0.75):
        probe = grid[:-1] + frac * np.diff(grid)
        exact = table.model.conductivity_vs_pressure(probe)
        slope = constitutive._evaluate(table.p_samples, table._psi_d, probe)
        assert np.max(np.abs(slope - exact)) <= 1.0e-8


def test_default_table_fits_map_once(monkeypatch):
    # the refinement pass that meets the slope tolerance is the table
    calls = []
    panels = constitutive._gauss_panels

    def counting(*args, **kwargs):
        calls.append(1)
        return panels(*args, **kwargs)

    monkeypatch.setattr(constitutive, "_gauss_panels", counting)
    build_table(ConstitutiveModel())
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# piecewise-cubic kernels, with scipy.interpolate as the oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[{}, {"n_vg": 1.6, "a_min": 1.0e-2}],
                ids=["default", "refined"])
def recorded_build(request):
    """A table (the default one, and one that refines to 43,212 knots) and
    ``(x, y, d, coefficients)`` of every Hermite fit its build made."""
    fits = []
    hermite = constitutive._hermite

    def recording(x, y, d):
        fits.append((x, y, d, hermite(x, y, d)))
        return fits[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constitutive, "_hermite", recording)
        return build_table(ConstitutiveModel(**request.param)), fits


def _same_bits(ours, theirs):
    theirs = np.asarray(theirs)
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def test_table_fits_equal_scipy_fits(recorded_build):
    table, fits = recorded_build
    # every fit the build made, refinement passes included
    for x, y, d, coef in fits:
        assert _same_bits(coef, CubicHermiteSpline(x, y, d).c)
    # the last three are the map, b and K_f, on the table's knots
    psi, b, k = (CubicHermiteSpline(*fit[:3]) for fit in fits[-3:])
    assert _same_bits(table.p_samples, psi.x) and _same_bits(table.u_samples, b.x)
    assert _same_bits(table.u_samples, k.x)
    assert _same_bits(table._psi, psi.c)
    assert _same_bits(table._psi_d, psi.derivative().c)
    # channel-major (b, K_f, b', K_f'); the quadratic slopes sit under a
    # zero (+0.0) cubic row
    assert table._bk.shape == (4, 4, b.c.shape[1])
    assert _same_bits(table._bk[:, 0], b.c) and _same_bits(table._bk[:, 1], k.c)
    assert _same_bits(table._bk[1:, 2], b.derivative().c)
    assert _same_bits(table._bk[1:, 3], k.derivative().c)
    assert _same_bits(table._bk[0, 2:], np.zeros((2, b.c.shape[1])))
    b_anti = b.antiderivative()
    assert _same_bits(table._b_anti, b_anti.c)
    assert table._b_anti0 == float(b_anti(0.0))


def test_evaluate_equals_ppoly_call(recorded_build):
    table = recorded_build[0]
    rng = np.random.default_rng(6)
    knots, bk = table.u_samples, table._bk
    # each channel of the four-channel fit against its own PPoly, the two
    # slopes against the derivative of the fit they belong to
    b, k = PPoly(bk[:, 0], knots), PPoly(bk[:, 1], knots)
    channels = (b, k, b.derivative(), k.derivative())
    for knots, coef, fits in [
        (table.p_samples, table._psi, None),
        (table.p_samples, table._psi_d, None),
        (table.u_samples, bk, channels),
        (table.u_samples, table._b_anti, None),
    ]:
        lo, hi = knots[0], knots[-1]
        width = hi - lo
        probes = [
            rng.uniform(lo, hi, 6000),
            knots,
            0.5 * (knots[:-1] + knots[1:]),
            np.array([lo - width, lo - 1.0e-3 * width, np.nextafter(lo, -np.inf),
                      np.nextafter(hi, np.inf), hi + 1.0e-3 * width, hi + width]),
            rng.uniform(lo, hi, (128, 201)),
        ]
        for u in probes:
            ours = constitutive._evaluate(knots, coef, u)
            if fits is None:
                assert _same_bits(ours, PPoly(coef, knots)(u))
            else:
                assert ours.shape == (4,) + u.shape
                for channel, fit in zip(ours, fits):
                    assert _same_bits(channel, fit(u))


def test_evaluate_starts_its_sum_at_zero_like_ppoly():
    # scipy's power sum starts from +0.0, so an all-(-0.0) sum reads +0.0
    knots = np.array([0.0, 1.0])
    coef = constitutive._hermite(knots, np.array([-0.0, -1.0]), np.array([-0.0, -2.5]))
    u = np.zeros(1)
    ours = constitutive._evaluate(knots, coef, u)
    assert _same_bits(ours, PPoly(coef, knots)(u)) and not np.signbit(ours[0])


def test_cubic_fits_refuse_bad_data_as_constitutive_errors():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0, 3.0])
    with pytest.raises(ConstitutiveError, match="finite"):
        constitutive._monotone_hermite(x, y, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ConstitutiveError, match="strictly increasing"):
        constitutive._hermite(np.array([0.0, 1.0, 1.0]), y, np.ones(3))


# ---------------------------------------------------------------------------
# transformed saturation and capacity
# ---------------------------------------------------------------------------


def test_b_of_u_saturated(table):
    assert table.b_of_u(2.0) == 1.0
    assert table.b_of_u(0.0) == 1.0


def test_b_of_u_composition_consistency(table, model):
    u = table.kirchhoff(-1.0)
    assert table.b_of_u(u) == pytest.approx(model.saturation(-1.0), abs=1e-10)


def test_b_of_u_floor_limit(table, model):
    # just above the exclusion band the transform has left the retention
    # curve entirely; b sits at the residual floor
    u = table.u_lower + 2 * table.margin
    assert table.b_of_u(u) == pytest.approx(model.s_res, abs=1e-9)


def test_b_of_u_monotone_and_in_range(table):
    u = np.linspace(table.u_lower + 2 * table.margin, 5.0, 20001)
    b = table.b_of_u(u)
    assert np.all(np.diff(b) >= 0.0)
    assert np.all(b >= table.model.s_res - 1e-12)
    assert np.all(b <= 1.0)


def test_b_prime_golden_value(table):
    u = table.kirchhoff(-1.0)
    assert table.b_prime(u) == pytest.approx(GOLD_BPRIME_AT_M1, abs=1e-8)


def test_b_prime_positive_everywhere(table):
    rng = np.random.default_rng(11)
    u = rng.uniform(table.u_lower + 2 * table.margin, 8.0, 10000)
    bp = table.b_prime(u)
    assert np.all(bp >= table.model.a_min)
    assert np.all(bp > 0.0)


def test_b_prime_plateau_floor(table):
    assert table.b_prime(5.0) == table.model.a_min


def test_b_prime_consistent_with_b_of_u(table):
    # central FD of b against b_prime where the floor is inactive; the
    # grid knots make the FD itself good to ~1e-6 only, hence the loose
    # tolerance (b_prime carries the exact slopes)
    u = np.linspace(table.kirchhoff(-8.0), -1e-3, 500)
    step = 1e-6
    fd = (table.b_of_u(u + step) - table.b_of_u(u - step)) / (2 * step)
    bp = table.b_prime(u)
    assert np.max(np.abs(fd - bp) / bp) < 1e-3


# ---------------------------------------------------------------------------
# potential B
# ---------------------------------------------------------------------------


def test_legendre_B_zero_on_saturated_branch(table):
    assert table.legendre_B(0.0) == 0.0
    assert table.legendre_B(3.0) == 0.0


def test_legendre_B_golden_value(table):
    z = table.kirchhoff(-1.0)
    assert table.legendre_B(z) == pytest.approx(GOLD_B_AT_PSI_M1, abs=1e-11)


def test_legendre_B_nonnegative_min_at_zero(table):
    z = np.linspace(table.u_lower + 2 * table.margin, 10.0, 20001)
    B = table.legendre_B(z)
    assert np.all(B >= 0.0)
    # B' = b'(z) z: nonincreasing left of zero, flat right of zero
    neg = z < 0.0
    assert np.all(np.diff(B[neg]) <= 1e-12)
    assert np.all(B[~neg] == 0.0)


def test_lemma1_pair_inequalities(table):
    # (b(z) - b(z0)) z0 <= B(z) - B(z0) <= (b(z) - b(z0)) z, slack 10*tol_q
    rng = np.random.default_rng(3)
    lo = table.u_lower + 2 * table.margin
    z = rng.uniform(lo, 5.0, 10000)
    z0 = rng.uniform(lo, 5.0, 10000)
    bz, bz0 = table.b_of_u(z), table.b_of_u(z0)
    Bz, Bz0 = table.legendre_B(z), table.legendre_B(z0)
    slack = 10 * table.tol_q
    assert np.all(Bz - Bz0 >= (bz - bz0) * z0 - slack)
    assert np.all(Bz - Bz0 <= (bz - bz0) * z + slack)


def test_legendre_transform_injected_linear():
    for z in (-2.0, -0.5, 1.0, 3.0):
        assert legendre_transform(lambda s: s, z) == pytest.approx(
            z * z / 2.0, abs=1e-12
        )


def test_legendre_transform_injected_constant():
    for z in (-4.0, -1.0, 2.0):
        assert legendre_transform(lambda s: 1.0, z) == pytest.approx(0.0, abs=1e-13)


def test_legendre_transform_matches_table(table):
    # adaptive-quadrature reference vs the tabulated potential
    for z in (-0.05, -0.1, -0.2):
        ref = legendre_transform(table.b_of_u, z)
        assert table.legendre_B(z) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# growth certificate
# ---------------------------------------------------------------------------


def test_beta_bound_is_one(model, table):
    assert model.beta_bound() == 1.0
    assert table.beta_bound() == 1.0


def test_growth_condition_sampled(table):
    rng = np.random.default_rng(19)
    z = rng.uniform(table.u_lower + 2 * table.margin, 8.0, 10000)
    k = table.conductivity_of_u(z)
    B = table.legendre_B(z)
    beta = table.beta_bound()
    assert np.all(k**2 <= beta * (1.0 + B) + 1e-12)


# ---------------------------------------------------------------------------
# misc table behavior
# ---------------------------------------------------------------------------


def test_table_is_frozen(table):
    with pytest.raises(AttributeError):
        table.u_lower = 0.0


def test_conductivity_of_u_saturated(table):
    assert table.conductivity_of_u(1.0) == 1.0
    assert table.conductivity_of_u(0.0) == 1.0


def test_dconductivity_du_is_exact_channel_derivative(table):
    u = np.linspace(table.kirchhoff(-30.0), -1e-4, 2000)
    d = table.dconductivity_du(u)
    assert np.all(np.isfinite(d))
    step = 1e-6
    fd = (table.conductivity_of_u(u + step) - table.conductivity_of_u(u - step)) / (
        2 * step
    )
    assert np.max(np.abs(fd - d)) < 1e-6
    assert table.dconductivity_du(1.0) == 0.0


def test_conductivity_of_u_accuracy(table, model):
    # tabulated channel against the closed-form composition
    p = -np.geomspace(1e-4, 500.0, 4000)
    u = table.kirchhoff(p)
    err = np.abs(table.conductivity_of_u(u) - model.conductivity_vs_pressure(p))
    assert np.max(err) < 1e-7


def test_conductivity_pressure_slope_matches_difference_quotient(model):
    # Step needs an absolute floor: near p = 0 the conductivity carries a
    # ~1e-13 evaluation-noise floor, so a purely relative step drowns the
    # quotient in rounding noise while the analytic slope stays clean.
    p = -np.geomspace(1e-4, 900.0, 3000)
    step = 1e-6 * np.maximum(np.abs(p), 1.0)
    cd = (
        model.conductivity_vs_pressure(p + step)
        - model.conductivity_vs_pressure(p - step)
    ) / (2 * step)
    an = model.conductivity_pressure_slope(p)
    assert np.max(np.abs(cd - an)) < 1e-5
    big = np.abs(an) > 1e-8
    assert np.max(np.abs(cd[big] - an[big]) / np.abs(an[big])) < 1e-5


def test_conductivity_pressure_slope_wet_limit(model):
    # default n_vg=2 puts the product n*m at 1: finite nonzero limit there
    lim = model._conductivity_pressure_slope_limit()
    assert lim == pytest.approx(
        (1.0 - model.k_floor) * 2.0 * model.m_vg * model.n_vg * model.alpha_vg
    )
    assert model.conductivity_pressure_slope(-1e-7) == pytest.approx(lim, rel=1e-5)
    assert model.conductivity_pressure_slope(np.array([0.5, 3.0])).tolist() == [
        0.0,
        0.0,
    ]


def test_scalar_and_array_shapes(table, model):
    assert isinstance(model.saturation(-1.0), float)
    assert model.saturation(np.array([-1.0, 0.5])).shape == (2,)
    assert isinstance(table.kirchhoff(-1.0), float)
    assert table.kirchhoff(np.array([-1.0, 2.0])).shape == (2,)
    assert isinstance(table.b_of_u(-0.1), float)
    assert isinstance(table.legendre_B(-0.1), float)
