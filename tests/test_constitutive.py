"""Constitutive relations and transform table.

Golden literals below were frozen from the independent high-precision
oracle in tests/oracles/constitutive_golden.py (mpmath, 50 digits); the
default model is alpha_vg=2, n_vg=2, s_res=0.05, p_reg=-10, a_min=1e-3.
"""

import dataclasses
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PPoly

from kirchflow import constitutive
from kirchflow.constitutive import (
    BETA,
    P_MIN,
    TOL_Q,
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
    assert model.conductivity(model.s_res) == model.a_min
    assert model.a_min > 0.0


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
    u_bot = table.u_samples[0]
    with pytest.raises(OutOfRangeError):
        table.kirchhoff_inverse(u_bot - 0.01)
    # 1e-9 relative below the lowest knot: a band once read by extrapolation
    with pytest.raises(OutOfRangeError):
        table.kirchhoff_inverse(u_bot * (1.0 + 0.5e-9))
    assert table.kirchhoff_inverse(u_bot) == table.p_samples[0]


def _reference_inverse(table, u):
    # reference: the inverse's seed, tolerance and safeguard, with a new
    # _evaluate search of the whole table on every Newton iterate
    us, ps = table.u_samples, table.p_samples
    idx = np.maximum(np.searchsorted(us, u), 1)
    lo, hi = ps[idx - 1], ps[idx]
    ulo, uhi = us[idx - 1], us[idx]
    p = lo + (u - ulo) * (hi - lo) / (uhi - ulo)
    tol = np.maximum(3.0e-15, 4.0e-15 * np.abs(u))
    read = lambda c, s: (constitutive._cubic(c, s) - u, constitutive._slope(c, s))
    for _ in range(80):
        f, d = constitutive._evaluate(ps, p, read, table._psi)
        done = np.abs(f) <= tol
        if np.all(done):
            break
        hi = np.where(f > 0.0, p, hi)
        lo = np.where(f <= 0.0, p, lo)
        p_new = p - f / np.maximum(d, table.model.a_min * 1.0e-3)
        bad = (p_new <= lo) | (p_new >= hi)
        p_new = np.where(bad, 0.5 * (lo + hi), p_new)
        p = np.where(done, p, p_new)
    return p


def test_inverse_equals_a_search_per_iterate_bit_for_bit(table):
    # every iterate stays on the piece the opening search names, so reading
    # that piece's gathered rows gives what a new search per iterate gave:
    # at every knot, every knot midpoint, both float neighbours of every knot
    # and a seeded uniform draw over the whole negative range
    us = table.u_samples
    knots = us[:-1]  # the last knot is u = 0, the identity branch
    u = np.concatenate([
        knots,
        0.5 * (us[:-1] + us[1:]),
        np.nextafter(knots[1:], -np.inf),
        np.nextafter(knots, np.inf),
        np.random.default_rng(43).uniform(us[0], 0.0, 100_000),
    ])
    u = u[(u >= us[0]) & (u < 0.0)]
    assert u.size > 4 * knots.size
    ours = table.kirchhoff_inverse(u)
    assert ours.tobytes() == _reference_inverse(table, u).tobytes()


def _u_readers(table):
    return (table.all_channels, table.legendre_B, table.kirchhoff_inverse)


def test_every_u_channel_refuses_values_below_the_table(table):
    lowest = f"(lowest knot u = {float(table.u_samples[0])!r})"
    for bad in (table.u_samples[0] - 1.0, np.nan):
        block = np.full((2, 3), -0.1)
        block[1, 2] = bad  # the refusal names the flat index of a block entry
        for u, index in ((bad, 0), (block, 5)):
            message = re.escape(f"u[{index}]={float(bad)!r} below the table {lowest}")
            for channel in _u_readers(table):
                with pytest.raises(OutOfRangeError, match=message):
                    channel(u)


def test_every_u_reader_accepts_the_lowest_knot_only(table):
    # the lowest knot is the table's one boundary: it is read, and the next
    # float below it is refused with its index, by every u-side reader
    u_bot = table.u_samples[0]
    below = np.nextafter(u_bot, -np.inf)
    for reader in _u_readers(table):
        assert np.all(np.isfinite(reader(np.array([-0.1, u_bot]))))
        with pytest.raises(OutOfRangeError,
                           match=re.escape(f"u[1]={float(below)!r} below the table")):
            reader(np.array([-0.1, below]))
    b, k = table.all_channels(u_bot)[:2]
    assert b == table._bk[3, 0, 0] and k == table._bk[3, 1, 0]


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
    assert table.u_samples[0] < 0.0


def test_default_table_knot_count(table):
    # work count of the default build: the graded grid needs no refinement
    assert np.count_nonzero(table.p_samples <= 0.0) == 43167
    assert table.p_samples.size == 43167
    assert table.p_samples[0] == P_MIN


# a model whose starting grid misses the slope tolerance: one refinement
# pass and then it is met (drawn with default_rng(5))
_REFINED = ConstitutiveModel(alpha_vg=0.4465656245281884, n_vg=3.4767813937730176,
                             s_res=0.10177110534730213, p_reg=-0.27997274192541555,
                             a_min=0.024947324759215777)


def test_refined_table_fit_and_knot_count(monkeypatch):
    # work count of a build that refines: the probes decide which intervals
    # split, so a probe that reads another piece or another point moves it
    fits = []
    fit_map = constitutive._fit_map

    def counting(model, grid):
        fits.append(grid.size)
        return fit_map(model, grid)

    monkeypatch.setattr(constitutive, "_fit_map", counting)
    table = build_table(_REFINED)
    assert len(fits) == 2 and fits[0] < fits[1] == 4300
    assert table.p_samples.size == 4300 and table.p_samples[0] == P_MIN
    grid = table.p_samples
    for frac in (0.25, 0.5, 0.75):
        probe = grid[:-1] + frac * np.diff(grid)
        exact = _REFINED.conductivity_vs_pressure(probe)
        slope = constitutive._evaluate(grid, probe, constitutive._slope, table._psi[:3])
        assert np.max(np.abs(slope - exact)) <= 1.0e-8


def _drawn_models(count, seed):
    """Validator-accepted models of the ROADMAP's 400-config draw (its
    constitutive ranges); refused draws are redrawn."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        params = dict(alpha_vg=10 ** rng.uniform(-1, 1), n_vg=rng.uniform(1.2, 3),
                      s_res=rng.uniform(0.01, 0.2), p_reg=-(10 ** rng.uniform(0, 2)),
                      a_min=10 ** rng.uniform(-3, -1.5))
        try:
            models.append(ConstitutiveModel(**params))
        except ConstitutiveError:
            continue
    return models


def test_saturation_range_is_exact():
    # conductivity_vs_pressure and the build feed saturation(p) to
    # conductivity with no clamp: its range [s_res, 1] is exact, down to
    # the smallest pressures, at the joint p_reg and its neighbours, at
    # both zeros and at the bottom of the table
    for model in _drawn_models(50, seed=1):
        p = np.concatenate([-np.geomspace(1e-300, 1e6, 4000),
                            [model.p_reg, np.nextafter(model.p_reg, -np.inf),
                             np.nextafter(model.p_reg, 0.0), 0.0, -0.0, P_MIN]])
        s = model.saturation(p)
        assert np.all((s >= model.s_res) & (s <= 1.0)), model
        se = model.effective_saturation(s)
        assert np.all((se >= 0.0) & (se <= 1.0)), model
        assert np.isnan(model.saturation(np.nan))
        assert np.isnan(model.conductivity_vs_pressure(np.array([np.nan]))).all()


def test_drawn_table_sample_invariants():
    # the inverse map's seed divides by the gap of its bracketing knots and
    # takes the index of the knot above u: both rely on strictly increasing
    # knots that end at p = u = 0
    for model in _drawn_models(50, seed=1):
        table = build_table(model)
        test_table_sample_invariants(table)
        assert table.p_samples[-1] == table.u_samples[-1] == 0.0


def test_default_table_meets_slope_tolerance(table):
    # refinement gives up silently after 8 passes; the default map must not
    # need that: its slope meets dtol = 1e-8 at the refinement probes
    grid = table.p_samples[table.p_samples <= 0.0]
    for frac in (0.25, 0.5, 0.75):
        probe = grid[:-1] + frac * np.diff(grid)
        exact = table.model.conductivity_vs_pressure(probe)
        slope = constitutive._evaluate(table.p_samples, probe, constitutive._slope,
                                       table._psi[:3])
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


def test_gauss_rule_is_the_three_point_legendre_rule():
    # exact for polynomials up to degree 5, and numpy's own digits
    nodes = np.array(constitutive._GAUSS_NODES)
    weights = np.array(constitutive._GAUSS_WEIGHTS)
    for k in range(6):
        assert np.sum(weights * nodes**k) == pytest.approx((1 + (-1) ** k) / (k + 1),
                                                           abs=1e-15)
    leg_nodes, leg_weights = np.polynomial.legendre.leggauss(3)
    np.testing.assert_array_max_ulp(nodes, leg_nodes, maxulp=1)
    np.testing.assert_array_max_ulp(weights, leg_weights, maxulp=1)


@pytest.mark.parametrize("params", [{}, {"n_vg": 1.2}, {"p_reg": -0.1}, {"n_vg": 3.0}],
                         ids=["default", "n_vg=1.2", "p_reg=-0.1", "n_vg=3.0"])
def test_table_values_meet_tol_q_against_a_20_point_rule(params):
    # the knot values agree with 20-point Gauss panels on the same grid to
    # TOL_Q, relative beyond |u| = 1, on the soils where the table's 3-point
    # rule errs most: a slope singular at saturation (n_vg < 2) and a steep
    # dry tail just below p_reg.  A 2-point rule misses by 13x at p_reg = -0.1.
    # With n_vg > 2 the composition is flat at saturation, and the fitted
    # slope reads 0 inside the last knot interval.
    table = build_table(ConstitutiveModel(**params))
    p = table.p_samples
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(p)
    points = 0.5 * (p[:-1] + p[1:]) + half * nodes[:, None]
    vals = table.model.conductivity_vs_pressure(points.ravel()).reshape(points.shape)
    panels = half * (weights @ vals)
    reference = np.append(-np.cumsum(panels[::-1].astype(np.longdouble))[::-1], 0.0)
    reference = reference.astype(float)
    error = np.abs(table.u_samples - reference)
    assert np.all(error <= TOL_Q * np.maximum(1.0, np.abs(reference)))
    if table.model.n_vg > 2.0:
        assert table.all_channels(0.5 * table.u_samples[-2:-1])[3] == 0.0


def _table_arrays(table):
    return {name: value for name, value in vars(table).items()
            if isinstance(value, np.ndarray)}


def test_build_transient_memory_stays_bounded():
    # the model is evaluated, the probes checked, the Hermite pieces fitted
    # and the antiderivative summed slice by slice, straight into the table's
    # slots: what the build holds beyond the table it returns is 0.240 x the
    # table (1.25 of 5.18 MB), 0.69 MB of it the knot saturations and
    # conductivities; whole-table temporaries took it to 0.667 x
    tracemalloc.start()
    try:
        table = build_table(ConstitutiveModel())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(value.nbytes for value in _table_arrays(table).values())
    assert peak - held <= 0.28 * held


def test_build_slice_size_leaves_every_table_array_bitwise(table, monkeypatch):
    # the slices only bound memory: elementwise evaluation, the Hermite fits
    # and the running sum of the antiderivative give the same bits at any
    # slice size
    monkeypatch.setattr(constitutive, "_SLICE", 257)
    sliced = build_table(ConstitutiveModel())
    ours, theirs = _table_arrays(sliced), _table_arrays(table)
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        assert _same_bits(value, theirs[name]), name


def test_default_table_stores_each_cubic_once(table):
    # knots, the map cubic, the two-channel (b, K_f) cubic with its saturated
    # piece and one antiderivative constant per knot: 15 K - 4 floats, with
    # no slope or antiderivative polynomial rows (they are derived on read)
    knots = table.u_samples.size
    arrays = _table_arrays(table)
    assert arrays.keys() == {"p_samples", "u_samples", "_psi", "_bk", "_b_anti"}
    assert table._psi.shape == (4, knots - 1)
    assert table._bk.shape == (4, 2, knots)
    assert table._b_anti.shape == (knots,)
    assert sum(value.nbytes for value in arrays.values()) <= 8 * (15 * knots - 4)


def test_table_compares_and_hashes_by_identity(table):
    twin = dataclasses.replace(table)  # the same arrays in a second table
    assert table == table and table != twin and not (table == twin)
    assert hash(table) != hash(twin)
    assert len({table, twin, table}) == 2


# ---------------------------------------------------------------------------
# piecewise-cubic kernels, with scipy.interpolate as the oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[{}, {"n_vg": 1.6, "a_min": 1.0e-2}],
                ids=["default", "refined"])
def recorded_build(request):
    """A table (the default one, and one that refines to 43,204 knots) and
    ``(x, y, d, coefficients)`` of every Hermite fit its build made."""
    fits = []
    hermite = constitutive._hermite

    def recording(x, y, d, out=None):
        fits.append((x, y, d, hermite(x, y, d, out)))
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
    # channels (b, K_f), then the saturated piece from u = 0: b = K_f = 1
    # and zero slopes, so a read of u >= 0 gives the plateau bit for bit
    assert table._bk.shape == (4, 2, b.c.shape[1] + 1)
    assert _same_bits(table._bk[:, 0, :-1], b.c) and _same_bits(table._bk[:, 1, :-1], k.c)
    assert _same_bits(table._bk[:, :, -1], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    # the antiderivative's constants, and its value at u = 0 for the plateau
    b_anti = b.antiderivative()
    assert _same_bits(table._b_anti[:-1], b_anti.c[-1])
    assert table._b_anti[-1] == float(b_anti(0.0))


def test_evaluate_equals_ppoly_call(recorded_build):
    table = recorded_build[0]
    rng = np.random.default_rng(6)
    # each stored cubic and each row derived from it on read, against its
    # own PPoly, over the tabulated pieces only (the end pieces extrapolate)
    psi = PPoly(table._psi, table.p_samples)
    bk, anti = table._bk[..., :-1], table._b_anti[:-1]
    b, k = PPoly(bk[:, 0], table.u_samples), PPoly(bk[:, 1], table.u_samples)
    for knots, read, fits, ppolys in [
        (table.p_samples, constitutive._cubic, (table._psi,), (psi,)),
        (table.p_samples, constitutive._slope, (table._psi[:3],), (psi.derivative(),)),
        (table.u_samples, constitutive._values_and_slopes, (bk,),
         (b, k, b.derivative(), k.derivative())),
        (table.u_samples, constitutive._value_and_integral, (bk[:, 0], anti),
         (b, b.antiderivative())),
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
            ours = constitutive._evaluate(knots, u, read, *fits)
            if len(ppolys) == 1:
                assert _same_bits(ours, ppolys[0](u))
            else:
                assert ours.shape == (len(ppolys),) + u.shape
                for channel, fit in zip(ours, ppolys):
                    assert _same_bits(channel, fit(u))


def test_derived_rows_round_like_scipy():
    # each cubic row alone, read at s = 1 where every power of s is 1: the
    # read is then the derived row itself (3 c0, 2 c1, c2; c0/4, c1/3, c2/2,
    # c3), so its one rounding shows, where in a table read the constant
    # term swamps it; against scipy's derivative() and antiderivative()
    rng = np.random.default_rng(13)
    values = rng.standard_normal(4000) * 10.0 ** rng.uniform(-200.0, 200.0, 4000)
    knots, at_one = np.array([0.0, 2.0]), np.ones(1)
    for row in range(4):
        ours = np.zeros((4, values.size, 1))  # coefficient, channel, piece
        ours[row, :, 0] = values
        theirs = PPoly(np.moveaxis(ours, 2, 1), knots)  # coefficient, piece, channel
        slope = constitutive._evaluate(knots, at_one, constitutive._slope, ours)
        assert _same_bits(slope[:, 0], theirs.derivative()(1.0))
        integral = constitutive._evaluate(knots, at_one, constitutive._value_and_integral,
                                          ours, np.zeros((values.size, 1)))[1]
        assert _same_bits(integral[:, 0], theirs.antiderivative()(1.0))
        both = constitutive._evaluate(knots, at_one, constitutive._values_and_slopes,
                                      ours[:, :2])
        assert _same_bits(both[2:, 0], theirs.derivative()(1.0)[:2])


def test_derived_reads_equal_scipy_derivative_and_antiderivative(recorded_build):
    # the four rows of all_channels and legendre_B's antiderivative, derived
    # from the cubic rows the table gathered, against scipy's fits b and K_f,
    # their derivative() and b's antiderivative(): bit for bit at the knots,
    # between them, on the saturated branch (where a u-side read is the
    # plateau constant) and just below the lowest knot, where the map's slope
    # extrapolates and every u-side read refuses
    table, fits = recorded_build
    psi, b, k = (CubicHermiteSpline(*fit[:3]) for fit in fits[-3:])
    b_anti = b.antiderivative()
    edge = [0.0, -0.0, 1.0e-300, 3.0]
    for knots, fit in ((table.p_samples, psi), (table.u_samples, b)):
        below = np.nextafter(knots[0], -np.inf)
        if fit is b:
            for reader in (table.all_channels, table.legendre_B):
                with pytest.raises(OutOfRangeError, match=re.escape(f"u[4]={float(below)!r}")):
                    reader(np.array(edge + [below]))
        ends = np.array(edge + [below] if fit is psi else edge)
        for part in (knots, 0.5 * (knots[:-1] + knots[1:]), ends):
            if fit is psi:
                ours = constitutive._evaluate(knots, part, constitutive._slope,
                                              table._psi[:3])
                assert _same_bits(ours, psi.derivative()(part))
                continue
            inside = np.minimum(part, 0.0)
            on_table = part < 0.0
            refs = (b, k, b.derivative(), k.derivative())
            plateau = (1.0, 1.0, 0.0, 0.0)
            for row, ref, flat in zip(table.all_channels(part), refs, plateau):
                assert _same_bits(row, np.where(on_table, ref(inside), flat))
            b_and_integral = table._channels(part, constitutive._value_and_integral,
                                             table._bk[:, 0], table._b_anti)
            integral = np.where(on_table, b_anti(inside), b_anti(0.0))
            assert _same_bits(b_and_integral[1], integral)
            potential = np.maximum(b(inside) * part - (integral - b_anti(0.0)), 0.0)
            assert _same_bits(table.legendre_B(part), np.where(on_table, potential, 0.0))


def test_evaluate_starts_its_sum_at_zero_like_ppoly():
    # scipy's power sum starts from +0.0, so an all-(-0.0) sum reads +0.0
    knots = np.array([0.0, 1.0])
    coef = constitutive._hermite(knots, np.array([-0.0, -1.0]), np.array([-0.0, -2.5]))
    u = np.zeros(1)
    ours = constitutive._evaluate(knots, u, constitutive._cubic, coef)
    assert _same_bits(ours, PPoly(coef, knots)(u)) and not np.signbit(ours[0])


def test_cubic_fits_refuse_bad_data_as_constitutive_errors():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0, 3.0])
    with pytest.raises(ConstitutiveError, match="finite"):
        constitutive._monotone_hermite(x, y, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ConstitutiveError, match="nondecreasing"):
        constitutive._monotone_hermite(x, y[::-1].copy(), np.ones(3))
    with pytest.raises(ConstitutiveError, match="strictly increasing"):
        constitutive._hermite(np.array([0.0, 1.0, 1.0]), y, np.ones(3))


# ---------------------------------------------------------------------------
# the u-side reads
# ---------------------------------------------------------------------------


def _channel_probes(table):
    """u on the plateau, at and between the knots, at and just above the
    lowest knot and as a (128, 201) block."""
    u_bot = table.u_samples[0]
    rng = np.random.default_rng(11)
    knots = table.u_samples
    return [
        np.array([0.0, 1.0e-300, 0.5, 3.0]),
        knots,
        0.5 * (knots[:-1] + knots[1:]),
        np.array([u_bot, np.nextafter(u_bot, np.inf)]),
        rng.uniform(u_bot, 0.5, (128, 201)),
        np.float64(-0.1),
    ]


def test_single_channel_readers_equal_their_all_channels_row(table):
    for u in _channel_probes(table):
        rows = table.all_channels(u)
        assert rows.shape == (4,) + np.shape(u)  # (4,) for the scalar probe
        # legendre_B's formula, computed from channel 0 of all_channels
        z = np.atleast_1d(u)
        anti = table._channels(z, constitutive._value_and_integral,
                               table._bk[:, 0], table._b_anti)[1]
        phi = anti - table._b_anti[-1]
        b = rows[0].reshape(z.shape)
        formula = np.where(z < 0.0, np.maximum(b * z - phi, 0.0), 0.0)
        assert _same_bits(np.asarray(table.legendre_B(u)), formula.reshape(np.shape(u)))
    # just below the lowest knot, all_channels and legendre_B refuse alike
    u_bot = table.u_samples[0]
    below = np.array([np.nextafter(u_bot, -np.inf), u_bot * (1.0 + 0.5e-9)])
    for reader in (table.all_channels, table.legendre_B):
        with pytest.raises(OutOfRangeError, match=re.escape(f"u[0]={float(below[0])!r}")):
            reader(below)


def test_single_channel_readers_gather_only_their_rows(table):
    # legendre_B, gathering channel b's 4 cubic rows, peaks at 13-14x the
    # bytes of its argument, where all_channels, gathering all 8, takes
    # 21-24x and a take on the strided view _bk[:, 0], which copies the
    # whole 1.4 MB channel first, 870x at 200 points
    rng = np.random.default_rng(12)
    for u in (np.linspace(-0.3, 0.1, 200),
              rng.uniform(table.u_samples[0], 0.5, (128, 201))):
        tracemalloc.start()
        try:
            table.legendre_B(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * u.nbytes, u.shape


# ---------------------------------------------------------------------------
# transformed saturation and capacity
# ---------------------------------------------------------------------------


def test_b_of_u_saturated(table):
    assert table.all_channels(2.0)[0] == 1.0
    assert table.all_channels(0.0)[0] == 1.0


def test_b_of_u_composition_consistency(table, model):
    u = table.kirchhoff(-1.0)
    assert table.all_channels(u)[0] == pytest.approx(model.saturation(-1.0), abs=1e-10)


def test_b_of_u_floor_limit(table, model):
    # at the lowest knot the transform has left the retention curve
    # entirely; b sits at the residual floor
    u = table.u_samples[0]
    assert table.all_channels(u)[0] == pytest.approx(model.s_res, abs=1e-9)


def test_b_of_u_monotone_and_in_range(table):
    u = np.linspace(table.u_samples[0], 5.0, 20001)
    b = table.all_channels(u)[0]
    assert np.all(np.diff(b) >= 0.0)
    assert np.all(b >= table.model.s_res - 1e-12)
    assert np.all(b <= 1.0)


def test_b_prime_golden_value(table):
    u = table.kirchhoff(-1.0)
    assert table.all_channels(u)[2] == pytest.approx(GOLD_BPRIME_AT_M1, abs=1e-8)


def test_b_prime_positive_everywhere(table):
    # no floor: b' is the slope of the monotone b, so it is never negative,
    # and it is strictly positive across the working band
    rng = np.random.default_rng(11)
    u = rng.uniform(table.u_samples[0], 8.0, 10000)
    assert np.all(table.all_channels(u)[2] >= 0.0)
    band = np.linspace(table.kirchhoff(-100.0), -2.0e-6, 10000)
    assert np.all(table.all_channels(band)[2] > 0.0)


def test_b_prime_plateau_is_flat(table):
    assert table.all_channels(5.0)[2] == 0.0


def test_b_prime_consistent_with_b_of_u(table):
    # central FD of b against b', also near saturation where b' drops
    # below a_min; the grid knots make the FD itself good to ~1e-6 only,
    # hence the loose tolerance (b' carries the exact slopes)
    u = np.concatenate([np.linspace(table.kirchhoff(-8.0), -1e-3, 500),
                        np.linspace(-1e-3, -2e-6, 500)])
    step = 1e-6
    fd = (table.all_channels(u + step)[0] - table.all_channels(u - step)[0]) / (2 * step)
    bp = table.all_channels(u)[2]
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
    z = np.linspace(table.u_samples[0], 10.0, 20001)
    B = table.legendre_B(z)
    assert np.all(B >= 0.0)
    # B' = b'(z) z: nonincreasing left of zero, flat right of zero
    neg = z < 0.0
    assert np.all(np.diff(B[neg]) <= 1e-12)
    assert np.all(B[~neg] == 0.0)


def test_lemma1_pair_inequalities(table):
    # (b(z) - b(z0)) z0 <= B(z) - B(z0) <= (b(z) - b(z0)) z, slack 10*TOL_Q
    rng = np.random.default_rng(3)
    lo = table.u_samples[0]
    z = rng.uniform(lo, 5.0, 10000)
    z0 = rng.uniform(lo, 5.0, 10000)
    bz, bz0 = table.all_channels(z)[0], table.all_channels(z0)[0]
    Bz, Bz0 = table.legendre_B(z), table.legendre_B(z0)
    slack = 10 * TOL_Q
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
        ref = legendre_transform(lambda s: table.all_channels(s)[0], z)
        assert table.legendre_B(z) == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# growth certificate
# ---------------------------------------------------------------------------


def test_beta_bound_is_one(table):
    assert table.beta_bound() == 1.0


def test_growth_condition_sampled(table):
    rng = np.random.default_rng(19)
    z = rng.uniform(table.u_samples[0], 8.0, 10000)
    k = table.all_channels(z)[1]
    B = table.legendre_B(z)
    assert np.all(k**2 <= BETA * (1.0 + B) + 1e-12)


# ---------------------------------------------------------------------------
# misc table behavior
# ---------------------------------------------------------------------------


def test_legendre_B_searches_the_table_once(table, monkeypatch):
    # b and the integral of b come from one lookup: one range check and
    # clamp (_channels), one interval search (_evaluate), as all_channels
    calls = Counter()

    def counting(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(KirchhoffTable, "_channels")
    counting(constitutive, "_evaluate")
    for z in (np.float64(-0.1), np.linspace(-0.3, 0.1, 200), np.full((128, 201), -0.05)):
        for read in (table.legendre_B, table.all_channels):
            calls.clear()
            read(z)
            assert calls == {"_channels": 1, "_evaluate": 1}, read.__name__


def test_kirchhoff_inverse_searches_the_table_once(table, monkeypatch):
    # one np.searchsorted brackets every point; the Newton iterates read the
    # gathered piece and never search again through _evaluate
    calls = Counter()
    search = np.searchsorted

    evaluate = constitutive._evaluate

    def counted_search(*args, **kwargs):
        calls["searchsorted"] += 1
        return search(*args, **kwargs)

    def counted_evaluate(*args, **kwargs):
        calls["_evaluate"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted_search)
    monkeypatch.setattr(constitutive, "_evaluate", counted_evaluate)
    for u in (np.float64(-0.1), np.linspace(-0.3, 0.1, 200), np.full((128, 201), -0.05)):
        calls.clear()
        p = table.kirchhoff_inverse(u)
        assert p.shape == np.shape(u)
        assert calls == {"searchsorted": 1}, np.shape(u)


def test_table_is_frozen(table):
    with pytest.raises(AttributeError):
        table.u_samples = np.zeros(1)


def test_conductivity_of_u_saturated(table):
    assert table.all_channels(1.0)[1] == 1.0
    assert table.all_channels(0.0)[1] == 1.0


def test_dconductivity_du_is_exact_channel_derivative(table):
    u = np.linspace(table.kirchhoff(-30.0), -1e-4, 2000)
    d = table.all_channels(u)[3]
    assert np.all(np.isfinite(d))
    step = 1e-6
    fd = (table.all_channels(u + step)[1] - table.all_channels(u - step)[1]) / (
        2 * step
    )
    assert np.max(np.abs(fd - d)) < 1e-6
    assert table.all_channels(1.0)[3] == 0.0


def test_conductivity_of_u_accuracy(table, model):
    # tabulated channel against the closed-form composition
    p = -np.geomspace(1e-4, 500.0, 4000)
    u = table.kirchhoff(p)
    err = np.abs(table.all_channels(u)[1] - model.conductivity_vs_pressure(p))
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
        (1.0 - model.a_min) * 2.0 * model.m_vg * model.n_vg * model.alpha_vg
    )
    assert model.conductivity_pressure_slope(-1e-7) == pytest.approx(lim, rel=1e-5)
    assert model.conductivity_pressure_slope(np.array([0.5, 3.0])).tolist() == [
        0.0,
        0.0,
    ]


def test_scalar_and_array_shapes(table, model):
    assert model.saturation(-1.0).shape == ()
    assert model.saturation(np.array([-1.0, 0.5])).shape == (2,)
    assert table.kirchhoff(-1.0).shape == ()
    assert table.kirchhoff(np.array([-1.0, 2.0])).shape == (2,)
    assert table.all_channels(-0.1).shape == (4,)
    assert table.legendre_B(-0.1).shape == ()
