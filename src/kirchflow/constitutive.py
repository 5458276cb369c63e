"""Constitutive relations and the Kirchhoff transformation.

Saturation and relative conductivity follow the van Genuchten / Mualem
closed forms, regularized so that every coefficient the solver touches is
bounded away from degeneracy:

* saturation approaches the residual value ``s_res`` exponentially below
  the regularization pressure ``p_reg`` (C1 joint) instead of flattening
  out at an infinite dry limit;
* the transformed capacity ``b_prime`` carries a floor ``a_min`` so
  implicit steps and uniqueness arguments see a strictly positive
  capacity everywhere, including the saturated plateau;
* relative conductivity gets an affine floor ``k_floor = a_min`` so the
  transform is bi-Lipschitz and invertible to working precision.

The Kirchhoff map ``u = psi(p)`` integrates conductivity over pressure.
It is fitted once, with a monotone cubic on a graded pressure grid down
to ``P_MIN``; the transformed saturation ``b(u)``, its derivative, and
the convex potential ``B`` are all read from the same table so that the
discrete inequalities relating them hold to rounding.  The fits are plain
coefficient arrays whose kernels repeat scipy's ``CubicHermiteSpline`` and
``PPoly`` arithmetic in scipy's order, so they match it bit for bit.

All public array operations accept scalars or ndarrays and are pure; a
built table never mutates, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BETA",
    "ConstitutiveError",
    "OutOfRangeError",
    "ConstitutiveModel",
    "KirchhoffTable",
    "build_table",
]

P_MIN = -1.0e6  # bottom of the table; below it the integrand is k_floor
TOL_Q = 1.0e-12  # tabulated integral accuracy: absolute for |u| <= 1, relative beyond
BETA = 1.0  # growth constant of every model (see ConstitutiveModel.beta_bound)


class ConstitutiveError(ValueError):
    """Invalid constitutive parameter or evaluation outside a domain."""


class OutOfRangeError(ConstitutiveError):
    """Transformed variable below the invertible range of the table, or NaN."""


def _unwrap(x, out: np.ndarray):
    """``out`` as a float when the input ``x`` was a scalar."""
    return float(out[0]) if np.ndim(x) == 0 else out


def _log1pexp(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)), stable for large positive t."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    big = t > 30.0
    out[big] = t[big] + np.log1p(np.exp(-t[big]))
    out[~big] = np.log1p(np.exp(t[~big]))
    return out


# ---------------------------------------------------------------------------
# closed-form model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstitutiveModel:
    """Regularized van Genuchten / Mualem constitutive package.

    Parameters
    ----------
    alpha_vg : float
        Inverse capillary length scale (> 0).
    n_vg : float
        Pore-size distribution exponent (> 1); ``m_vg = 1 - 1/n_vg``.
    s_res : float
        Residual saturation, the lower limit of the saturation range,
        strictly inside (0, 1).
    p_reg : float
        Pressure in ``(P_MIN, 0)`` below which the retention curve is
        replaced by a C1 exponential approach to ``s_res``; the curve must
        still lie above ``s_res`` there.
    a_min : float
        Regularization floor in (0, 1): lower bound enforced on the
        transformed capacity ``b'`` (:meth:`KirchhoffTable.b_prime`), and
        reused as the relative conductivity floor ``k_floor``.

    Notes
    -----
    ``saturation`` equals the closed-form retention curve on
    ``[p_reg, 0)``, is exactly 1 for ``p >= 0``, and decays to ``s_res``
    below ``p_reg`` with value and slope continuous at the joint.  The
    floor ``a_min`` applies to the transformed capacity ``b_prime``, not
    to the saturation values or ``sat_slope_raw``, so the range invariant
    ``s_res <= S <= 1`` is kept exactly.

    A violated constraint raises ``ConstitutiveError("<field>: <constraint>
    (got <value>)")``; the run configuration reports it under ``constitutive.``.
    """

    alpha_vg: float = 2.0
    n_vg: float = 2.0
    s_res: float = 0.05
    p_reg: float = -10.0
    a_min: float = 1.0e-3

    # joint data for the exponential dry branch, filled in __post_init__
    _tail_amp: float = field(init=False, repr=False, default=0.0)
    _tail_rate: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha_vg) and self.alpha_vg > 0.0):
            raise ConstitutiveError(
                f"alpha_vg: must be finite and positive (got {self.alpha_vg!r})"
            )
        if not (np.isfinite(self.n_vg) and self.n_vg > 1.0):
            raise ConstitutiveError(
                f"n_vg: exponent must be finite and exceed 1 (got {self.n_vg!r})"
            )
        if not (0.0 < self.s_res < 1.0):
            raise ConstitutiveError(
                f"s_res: must lie strictly inside (0, 1) (got {self.s_res!r})"
            )
        if not (P_MIN < self.p_reg < 0.0):
            raise ConstitutiveError(
                f"p_reg: must lie strictly inside (P_MIN, 0) = ({P_MIN:g}, 0) "
                f"(got {self.p_reg!r})"
            )
        if not (0.0 < self.a_min < 1.0):
            raise ConstitutiveError(
                f"a_min: must lie strictly inside (0, 1) (got {self.a_min!r})"
            )
        s_j = float(self._vg_saturation(np.asarray(self.p_reg)))
        slope_j = float(self._vg_slope(np.asarray(self.p_reg)))
        amp = s_j - self.s_res
        if amp <= 0.0:
            raise ConstitutiveError(
                f"p_reg: retention curve already at s_res there (got {self.p_reg!r})"
            )
        if slope_j <= 0.0:
            raise ConstitutiveError(
                f"alpha_vg: retention slope at p_reg = {self.p_reg!r} underflows "
                f"to 0 (got {self.alpha_vg!r})"
            )
        if s_j >= 1.0:
            raise ConstitutiveError(
                f"alpha_vg: retention curve still saturated at p_reg = {self.p_reg!r} "
                f"(got {self.alpha_vg!r})"
            )
        object.__setattr__(self, "_tail_amp", amp)
        object.__setattr__(self, "_tail_rate", slope_j / amp)

    # -- scalar properties ---------------------------------------------------

    @property
    def m_vg(self) -> float:
        return 1.0 - 1.0 / self.n_vg

    @property
    def k_floor(self) -> float:
        """Relative conductivity at ``s_res``; the affine floor constant."""
        return self.a_min

    # -- retention curve -----------------------------------------------------

    def _vg_saturation(self, p: np.ndarray) -> np.ndarray:
        # S = s_res + (1 - s_res) * (1 + (alpha |p|)^n)^(-m), valid for p < 0
        t = self.n_vg * np.log(self.alpha_vg * np.abs(p))
        se = np.exp(-self.m_vg * _log1pexp(t))
        return self.s_res + (1.0 - self.s_res) * se

    def _vg_slope(self, p: np.ndarray) -> np.ndarray:
        # dS/dp for p < 0, written in logs to survive extreme arguments
        ap = np.abs(p)
        t = self.n_vg * np.log(self.alpha_vg * ap)
        log_slope = (
            math.log(self.m_vg * self.n_vg)
            + self.n_vg * math.log(self.alpha_vg)
            + (self.n_vg - 1.0) * np.log(ap)
            - (self.m_vg + 1.0) * _log1pexp(t)
        )
        return (1.0 - self.s_res) * np.exp(log_slope)

    def _branches(self, p, wet: float, mid, dry):
        """``wet`` on ``p >= 0``, ``mid(p)`` on ``[p_reg, 0)`` and ``dry(p)``
        below ``p_reg``; NaN takes the dry branch, which propagates it."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.full_like(p_arr, wet)
        is_mid = (p_arr < 0.0) & (p_arr >= self.p_reg)
        is_dry = ~(p_arr >= self.p_reg)
        if np.any(is_mid):
            out[is_mid] = mid(p_arr[is_mid])
        if np.any(is_dry):
            out[is_dry] = dry(p_arr[is_dry])
        return _unwrap(p, out)

    def _tail(self, p: np.ndarray) -> np.ndarray:
        # exponential decay of S - s_res below p_reg, 1 at the joint
        return np.exp(self._tail_rate * (p - self.p_reg))

    def saturation(self, p):
        """Saturation S(p): 1 on the saturated branch, monotone below.

        Parameters
        ----------
        p : float or ndarray
            Pressure head; total on the reals.

        Returns
        -------
        float or ndarray in ``(s_res, 1]``, exactly 1 for ``p >= 0``.
        """
        return self._branches(p, 1.0, self._vg_saturation,
                              lambda pd: self.s_res + self._tail_amp * self._tail(pd))

    def sat_slope_raw(self, p):
        """Pointwise derivative of :meth:`saturation` (no floor)."""
        amp, rate = self._tail_amp, self._tail_rate
        return self._branches(p, 0.0, self._vg_slope,
                              lambda pd: amp * rate * self._tail(pd))

    # -- conductivity ----------------------------------------------------------

    def effective_saturation(self, s):
        """Map saturation in [s_res, 1] to effective saturation in [0, 1]."""
        return (np.asarray(s, dtype=float) - self.s_res) / (1.0 - self.s_res)

    def _mualem_kr(self, se: np.ndarray) -> np.ndarray:
        m = self.m_vg
        with np.errstate(divide="ignore"):
            x = np.exp(np.log(np.maximum(se, 0.0)) / m)  # se**(1/m)
            wet = -np.expm1(m * np.log1p(-np.minimum(x, 1.0)))  # 1 - (1-x)^m
        return np.sqrt(np.maximum(se, 0.0)) * wet * wet

    def conductivity(self, s):
        """Relative conductivity K_f(s) on ``[s_res, 1]``.

        Affine-floored Mualem form ``k_floor + (1 - k_floor) * kr(Se)``;
        equals ``k_floor`` at ``s_res`` and exactly 1 at full saturation.

        Raises
        ------
        ConstitutiveError
            If ``s`` lies outside ``[s_res, 1]`` by more than 1e-12.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        bad = s_arr[(s_arr < self.s_res - 1.0e-12) | (s_arr > 1.0 + 1.0e-12)]
        if bad.size:
            raise ConstitutiveError(f"saturation {bad[0]!r} outside [{self.s_res}, 1]")
        se = np.clip(self.effective_saturation(s_arr), 0.0, 1.0)
        out = self.k_floor + (1.0 - self.k_floor) * self._mualem_kr(se)
        return _unwrap(s, out)

    def conductivity_vs_pressure(self, p):
        """Composition K_f(S(p)); smooth in p and used as the map integrand."""
        return self.conductivity(np.clip(self.saturation(p), self.s_res, 1.0))

    def conductivity_pressure_slope(self, p):
        """d/dp of K_f(S(p)), stable over the whole unsaturated range.

        Parametrized by t = (alpha |p|)^n_vg so the near-saturation
        blowup of dK_f/ds cancels against S' analytically instead of in
        floating point; 0 on p >= 0 (plateau, one-sided).  Below ``p_reg``
        it is dK_f/ds at the tail saturation times the tail slope.
        """
        m, n = self.m_vg, self.n_vg

        def mid(pm):
            log_t = n * np.log(self.alpha_vg * np.abs(pm))
            t = np.exp(log_t)
            log_1pt = _log1pexp(log_t)
            sqrt_se = np.exp(-0.5 * m * log_1pt)
            wet = -np.expm1(m * (log_t - log_1pt))  # 1 - tau^m
            tau_pow = np.exp((m - 1.0) * (log_t - log_1pt))  # tau^(m-1)
            inv1pt2 = np.exp(-2.0 * log_1pt)  # (1+t)^-2
            dsqrt_se = -0.5 * m * np.exp(-(0.5 * m + 1.0) * log_1pt)
            dkr_dt = wet * wet * dsqrt_se - 2.0 * m * sqrt_se * wet * tau_pow * inv1pt2
            return (1.0 - self.k_floor) * (dkr_dt * (n * t / pm))

        def dry(pd):
            tail = self._tail(pd)
            # through s, not amp * tail: (s_res + x) - s_res rounds
            s = self.s_res + self._tail_amp * tail
            se = np.clip(self.effective_saturation(s), 0.0, 1.0)
            dkr = np.zeros_like(se)
            pos = se > 0.0
            sep = se[pos]
            x = np.minimum(np.exp(np.log(sep) / m), 1.0)  # se**(1/m)
            wet = -np.expm1(m * np.log1p(-x))  # 1 - (1-x)^m
            root = np.sqrt(sep)
            with np.errstate(divide="ignore", over="ignore"):
                edge = np.exp((m - 1.0) * np.log1p(-x))  # (1-x)^(m-1), inf at x=1
                dkr[pos] = wet * wet / (2.0 * root) + 2.0 * wet * x * edge / root
            dk_ds = (1.0 - self.k_floor) / (1.0 - self.s_res) * dkr
            return dk_ds * (self._tail_amp * self._tail_rate * tail)

        return self._branches(p, 0.0, mid, dry)

    def _conductivity_pressure_slope_limit(self) -> float:
        """One-sided limit of the composition slope as p -> 0-.

        Scales like |p|^(n_vg m_vg - 1): zero when n_vg > 2, finite when
        n_vg = 2, divergent when n_vg < 2 (the fit caps it there).
        """
        nm = self.n_vg * self.m_vg
        if nm > 1.0 + 1e-12:
            return 0.0
        if abs(nm - 1.0) <= 1e-12:
            return (1.0 - self.k_floor) * 2.0 * self.m_vg * self.n_vg * self.alpha_vg
        return np.inf

    # -- growth certificate ------------------------------------------------------

    def beta_bound(self) -> float:
        """Growth constant: ``K_f(b(z))^2 <= beta * (1 + B(z))`` for all z.

        Conductivity is capped at 1 and the potential B is nonnegative,
        so ``beta = BETA = 1`` certifies the bound with no sampling required.
        """
        return BETA


# ---------------------------------------------------------------------------
# piecewise cubics as plain arrays (layout: see KirchhoffTable)
# ---------------------------------------------------------------------------


def _hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Coefficients of the cubic Hermite fit of values ``y`` and slopes ``d``;
    refuses non-finite data and knots ``x`` that do not strictly increase."""
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(d).all()):
        raise ConstitutiveError("cubic fit data must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0.0):
        raise ConstitutiveError("cubic fit knots must be strictly increasing")
    slope = np.diff(y) / dx
    t = (d[:-1] + d[1:] - 2.0 * slope) / dx
    return np.stack((t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]))


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the piecewise derivative of a one-channel fit."""
    return c[:-1] * np.arange(len(c) - 1, 0, -1.0)[:, None]


def _antiderivative(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of the antiderivative of a one-channel fit, 0 at ``x[0]``.

    Each piece's constant is the previous piece's value at their shared
    knot, summed term by term in scipy's order: one sequential
    ``add.accumulate`` over ``[0, c3 h, c2 h^2, c1 h^3, c0 h^4, ...]``,
    read at the end of every piece.
    """
    scaled = c / np.arange(len(c), 0, -1.0)[:, None]
    h = np.diff(x)[:-1]
    powers = np.cumprod(np.broadcast_to(h, (len(c), h.size)), axis=0)  # h, h^2, ...
    terms = (scaled[::-1, :-1] * powers).T.ravel()
    const = np.add.accumulate(np.concatenate([[0.0], terms]))
    return np.vstack([scaled, const[::len(c)]])


def _evaluate(x: np.ndarray, c: np.ndarray, u) -> np.ndarray:
    """Values at ``u`` of the fit ``(x, c)``, of shape ``channels + u.shape``.

    Pieces are half-open ``[x[i], x[i+1])``, the last one closed, and the
    end pieces extrapolate.  The sum runs over ascending powers, as in
    scipy's PPoly.
    """
    u = np.asarray(u, dtype=float)
    i = x[1:-1].searchsorted(u, "right")
    s = u - x[i]
    rows = c.take(i, axis=-1)
    r = 0.0 + rows[-1] + rows[-2] * s  # scipy's sum starts at 0.0: -0.0 reads +0.0
    z = s
    for row in rows[-3::-1]:
        z = z * s
        r = r + row * z
    return r


# ---------------------------------------------------------------------------
# tabulated Kirchhoff map
# ---------------------------------------------------------------------------


# 3-point Gauss-Legendre rule, numpy's leggauss(3) bit for bit: the lowest
# order whose table stays within TOL_Q of a 20-point rule (2 points miss
# by 13x at p_reg = -0.1)
_GAUSS_NODES = (-0.7745966692414834, 0.0, 0.7745966692414834)
_GAUSS_WEIGHTS = (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)


def _gauss_panels(edges: np.ndarray, f) -> np.ndarray:
    """Gauss-Legendre integral of f over each edge interval, summed node by
    node in one fixed order: a BLAS product would round by thread count."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid + half * np.array(_GAUSS_NODES)[:, None]  # node x panel
    vals = f(nodes.ravel()).reshape(nodes.shape)
    acc = vals[0] * _GAUSS_WEIGHTS[0]
    for row, weight in zip(vals[1:], _GAUSS_WEIGHTS[1:]):
        acc = acc + row * weight
    return half * acc


def _sorted_union(parts) -> np.ndarray:
    """Sorted distinct values of the concatenated ``parts``, as ``np.unique``
    returns them; ``np.unique`` would import ``numpy.ma`` on its first call."""
    grid = np.concatenate(parts)
    grid.sort()
    keep = np.empty(grid.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = grid[1:] != grid[:-1]
    return grid[keep]


def _pressure_grid(model: ConstitutiveModel) -> np.ndarray:
    """Starting grid on [P_MIN, 0]: log-refined toward 0 where the integrand
    curvature blows up, uniform over the retention branch, geometrically
    stretched through the exponential tail.  Refined further adaptively."""
    n_mid = int(min(max(round(-model.p_reg * 4000.0), 1000), 60000))
    mid = np.linspace(model.p_reg, 0.0, n_mid + 1)
    # near-saturation refinement: spacing proportional to |p| down to 1e-8
    scale = 1.0 / model.alpha_vg
    near = -np.geomspace(1.0e-8 * scale, 0.5 * scale, 600)
    pts = [mid, near[near > model.p_reg], np.array([0.0])]
    step = 1.0e-2
    p = model.p_reg
    tail = []
    while p > P_MIN:
        p = max(p - step, P_MIN)
        tail.append(p)
        step *= 1.005
    pts.append(np.array(tail[::-1]))
    grid = _sorted_union(pts)
    # drop near-duplicate knots: zero-width intervals turn cumulative
    # rounding into derivative noise
    gap = np.diff(grid)
    keep = np.concatenate([[True], gap > 1.0e-9 * np.maximum(1.0, np.abs(grid[1:]))])
    keep[-1] = True
    grid = grid[keep]
    if grid[-1] != 0.0:
        grid = np.append(grid[grid < 0.0], 0.0)
    return grid


def _fit_map(model: ConstitutiveModel, grid: np.ndarray):
    """Integrate the conductivity composition over ``grid`` and fit the map.

    Values come from Gauss panels accumulated from p = 0 downward in
    extended precision (absolute accuracy near the working range stays at
    rounding level); knot derivatives are the integrand itself, exactly
    evaluated, so the Hermite fit is O(h^4) in value and O(h^3) in slope
    with no divided-difference noise.  Returns the knot saturations and
    conductivities (the integrand), ``u`` and the fit's coefficients.
    """
    panels = _gauss_panels(grid, model.conductivity_vs_pressure)
    suffix = np.cumsum(panels[::-1].astype(np.longdouble))[::-1]
    u = np.concatenate([-suffix, [np.longdouble(0.0)]]).astype(float)
    u[-1] = 0.0
    # after the panels, so these arrays do not sit under their peak memory
    s = np.clip(model.saturation(grid), model.s_res, 1.0)
    deriv = model.conductivity(s)
    delta = np.diff(u) / np.diff(grid)
    # cubic with positive endpoint slopes is monotone when both stay within
    # 3x the secant slope; the graded grid keeps the ratio near 1
    ratio = np.maximum(deriv[:-1], deriv[1:]) / np.maximum(delta, 1.0e-300)
    if np.any(delta <= 0.0) or float(ratio.max()) > 3.0:
        raise ConstitutiveError("pressure grid too coarse for a monotone map fit")
    return s, deriv, u, _hermite(grid, u, deriv)


def _monotone_hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cubic Hermite coefficients of nondecreasing data with supplied slopes.

    Slopes are capped at three times the neighboring secants (the classic
    sufficient condition), which only bites where the data has gone flat
    relative to the grid; there the cap preserves monotonicity at the cost
    of slope accuracy nobody reads.
    """
    delta = np.diff(y) / np.diff(x)
    if np.any(delta < 0.0):
        raise ConstitutiveError("data for a monotone fit must be nondecreasing")
    cap = np.empty_like(np.asarray(d, dtype=float))
    cap[0] = 3.0 * delta[0]
    cap[-1] = 3.0 * delta[-1]
    cap[1:-1] = 3.0 * np.minimum(delta[:-1], delta[1:])
    return _hermite(x, y, np.clip(d, 0.0, cap))


def _refine_grid(model: ConstitutiveModel, grid: np.ndarray, dtol: float):
    """Split intervals until the fitted map's derivative error against the
    exactly evaluable integrand drops below ``dtol`` everywhere, refining at
    most 8 times.  Returns the last pass: the grid, its knot saturations and
    conductivities, ``u``, and the coefficients of the map and its slope."""
    for refinements in range(9):
        s, k, u, psi = _fit_map(model, grid)
        psi_d = _derivative(psi)
        if refinements == 8:
            break
        bad = np.zeros(len(grid) - 1, dtype=bool)
        for frac in (0.25, 0.5, 0.75):
            probe = grid[:-1] + frac * np.diff(grid)
            exact = model.conductivity_vs_pressure(probe)
            err = np.abs(_evaluate(grid, psi_d, probe) - exact)
            bad |= err > dtol
        if not np.any(bad):
            break
        mids = 0.5 * (grid[:-1] + grid[1:])[bad]
        grid = _sorted_union([grid, mids])
    return grid, s, k, u, psi, psi_d


@dataclass(frozen=True)
class KirchhoffTable:
    """Tabulated Kirchhoff transform and transformed-variable relations.

    Built once per model by :func:`build_table`.  Holds the pressure grid,
    the transformed values ``u = psi(p)``, and monotone cubic interpolants
    for the map, its inverse support, the transformed saturation ``b(u)``
    and the conductivity composition ``K_f(b(u))``.  The ``b`` and ``K_f``
    fits and their derivatives share their knots, so they are stored as one
    four-channel piecewise polynomial: one interval search serves all four,
    and each channel reads exactly what a separate fit would.

    Each fit is a plain coefficient array of shape ``(degree + 1, pieces)``,
    highest power first, over the pressure knots (``_psi``, ``_psi_d``) or
    their images in ``u`` (the rest).  The four-channel ``_bk`` has shape
    ``(4, 4, pieces)``: coefficient, channel ``(b, K_f, b', K_f')``, piece.
    The two quadratic derivative channels carry a zero cubic row; the power
    sum never holds -0.0 and its argument is finite, so adding ``0 * s**3``
    leaves every value bitwise equal to the quadratic's.  Every read goes
    through ``_evaluate`` in one fixed order (interval search, then the power
    sum from the constant term up), so a value depends only on the table and
    its argument, never on which channel or how many points were asked for
    together.

    Attributes
    ----------
    model : ConstitutiveModel
        The closed-form package the table was built from.
    p_samples, u_samples : ndarray
        The knots: pressures on ``[P_MIN, 0]`` and their images ``u = psi(p)``,
        strictly increasing and ending at ``p = u = 0``.
    u_lower : float
        Certified bound strictly below every tabulated ``u``; inversion is
        refused at or below ``u_lower + margin``.
    margin : float
        Exclusion band above ``u_lower`` (1e-9 relative).
    tol_q : float
        Quadrature tolerance the tabulated values honor (``TOL_Q``):
        absolute for ``|u| <= 1``, relative to ``|u|`` beyond.
    """

    model: ConstitutiveModel
    p_samples: np.ndarray
    u_samples: np.ndarray
    u_lower: float
    margin: float
    tol_q: float
    _psi: np.ndarray = field(repr=False)  # u along p
    _psi_d: np.ndarray = field(repr=False)  # du/dp along p
    _bk: np.ndarray = field(repr=False)  # channels (b, K_f, db/du, dK_f/du) along u
    _b_anti: np.ndarray = field(repr=False)  # integral of b along u
    _b_anti0: float = field(repr=False)  # that integral at u = 0
    _bk_plateau: np.ndarray = field(repr=False)  # _bk's channels on u >= 0, (4, 1)

    # -- forward map ---------------------------------------------------------

    def kirchhoff(self, p):
        """Transformed variable u = psi(p); identity on ``p >= 0``.

        Total on the reals: below the tabulated range the map continues
        linearly with slope ``k_floor`` (the integrand is constant there
        to machine precision).  NaN maps to NaN.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        p_bot, u_bot = self.p_samples[0], self.u_samples[0]
        fit = _evaluate(self.p_samples, self._psi,
                        np.minimum(np.maximum(p_arr, p_bot), 0.0))
        below = u_bot + self.model.k_floor * (p_arr - p_bot)
        return _unwrap(p, np.where(p_arr >= 0.0, p_arr,
                                   np.where(p_arr >= p_bot, fit, below)))

    # -- inverse map -----------------------------------------------------------

    def _check_invertible(self, u_arr: np.ndarray) -> None:
        floor = self.u_lower + self.margin
        inside = u_arr > floor  # False at NaN
        if inside.all():
            return
        bad = u_arr.flat[int(np.argmin(inside))]
        if np.isnan(bad):
            raise OutOfRangeError(
                f"u=nan is not a number, outside the invertible range "
                f"(u > u_lower + margin = {floor!r})"
            )
        raise OutOfRangeError(
            f"u={bad!r} at or below invertible range "
            f"(u_lower + margin = {floor!r}): pressure diverges"
        )

    def kirchhoff_inverse(self, u):
        """Pressure p with ``kirchhoff(p) = u``, for ``u > u_lower + margin``.

        Bisection-safeguarded Newton on the monotone table; the returned
        pressure reproduces ``u`` through :meth:`kirchhoff` to a few 1e-15
        in the working band (relative in the deep tail), tight enough that
        saturations recovered through it agree with the direct channel.

        Raises
        ------
        OutOfRangeError
            If any entry is at or below ``u_lower + margin``, or NaN.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_invertible(u_arr)
        out = np.where(u_arr >= 0.0, u_arr, 0.0)
        neg = u_arr < 0.0
        if np.any(neg):
            out[neg] = self._invert_negative(u_arr[neg])
        return _unwrap(u, out)

    def _invert_negative(self, u: np.ndarray) -> np.ndarray:
        us = self.u_samples
        ps = self.p_samples
        # below-table queries sit in the 1e-9 exclusion slack; extend the
        # bottom bracket slightly so they resolve by extrapolation
        idx = np.clip(np.searchsorted(us, u), 1, len(us) - 1)
        lo = np.where(u < us[0], ps[0] - 1.0, ps[idx - 1]).astype(float)
        hi = ps[idx].astype(float)
        ulo = np.where(u < us[0], u - 1.0, us[idx - 1])
        uhi = us[idx]
        # linear seed inside the bracket
        p = lo + (u - ulo) * (hi - lo) / np.maximum(uhi - ulo, 1.0e-300)
        # the residual tolerance has to be far below tol_q: a slack of t
        # here surfaces as b'(u) * t in every recovered-saturation value,
        # and b' reaches ~1e2.  3e-15 is reachable in the working band;
        # the relative term covers the deep tail where |u| is large and
        # evaluation noise scales with it.
        tol = np.maximum(3.0e-15, 4.0e-15 * np.abs(u))
        for _ in range(80):
            f = _evaluate(self.p_samples, self._psi, p) - u
            done = np.abs(f) <= tol
            if np.all(done):
                break
            hi = np.where(f > 0.0, p, hi)
            lo = np.where(f <= 0.0, p, lo)
            d = np.maximum(_evaluate(self.p_samples, self._psi_d, p),
                           self.model.k_floor * 1.0e-3)
            step = f / d
            p_new = p - step
            bad = (p_new <= lo) | (p_new >= hi)
            p_new = np.where(bad, 0.5 * (lo + hi), p_new)
            p = np.where(done, p, p_new)
        return p

    # -- channels along the transformed variable ---------------------------------

    def _channels(self, u, fit: np.ndarray, plateau) -> np.ndarray:
        """Values of a (multi-channel) fit along ``u``, channel first.

        The one place that range-checks ``u``, clamps it into the tabulated
        branch ``[u_samples[0], 0]`` and masks ``u < 0``: there the fit is
        read, on the saturated branch each channel takes its ``plateau``
        constant.  The fit is read along the flattened ``u``, so ``plateau``
        is a scalar or one ``(channels, 1)`` column.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_invertible(u_arr)
        flat = u_arr.ravel()
        vals = _evaluate(self.u_samples, fit,
                         np.minimum(np.maximum(flat, self.u_samples[0]), 0.0))
        out = np.where(flat < 0.0, vals, plateau)
        return out.reshape(out.shape[:-1] + u_arr.shape)

    def all_channels(self, u) -> np.ndarray:
        """``(b, K_f, max(b', a_min), dK_f/du)`` at ``u``, channel first, from
        one range check and one interval lookup: what a Newton iterate reads."""
        out = self._channels(u, self._bk, self._bk_plateau)
        np.maximum(out[2], self.model.a_min, out=out[2])
        return out

    # -- transformed saturation and potential ------------------------------------

    def b_of_u(self, u):
        """Transformed saturation b(u) = S(psi^-1(u)); 1 on ``u >= 0``."""
        return _unwrap(u, self.all_channels(u)[0])

    def b_prime(self, u):
        """Capacity db/du with the regularization floor ``a_min``.

        The derivative of the same fit that backs :meth:`b_of_u` — whose
        knot slopes are the exact quotients ``S'(p) / K_f(S(p))`` — floored
        at ``a_min``.  One consistent channel: a Jacobian built from
        ``b_prime`` linearizes the residual's ``b_of_u`` term exactly
        wherever the floor is inactive.
        """
        return _unwrap(u, self.all_channels(u)[2])

    def legendre_B(self, z):
        """Convex potential ``B(z) = b(z) z - integral_0^z b``.

        Nonnegative, zero on the saturated branch, evaluated from the
        exact antiderivative of the same monotone cubic that represents
        ``b``, so the pairing inequalities hold to rounding.
        """
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        b = self.all_channels(z_arr)[0]
        anti = self._channels(z_arr, self._b_anti, self._b_anti0)
        phi = anti - self._b_anti0
        zc = np.maximum(z_arr, self.u_samples[0])
        return _unwrap(z, np.where(z_arr < 0.0, np.maximum(b * zc - phi, 0.0), 0.0))

    # -- conductivity along the transformed variable ----------------------------

    def conductivity_of_u(self, u):
        """K_f(b(u)); exactly 1 on the saturated branch.

        Read from the tabulated conductivity-vs-u curve so that
        :meth:`dconductivity_du` is its exact derivative — residual and
        Jacobian assembly then share one conductivity channel.
        """
        return _unwrap(u, self.all_channels(u)[1])

    def dconductivity_du(self, u):
        """d/du of the tabulated conductivity composition.

        Bounded everywhere (unlike dK_f/ds at full saturation); the exact
        derivative of :meth:`conductivity_of_u`, intended for Jacobian
        assembly.  Range-checked like every u-channel.
        """
        return _unwrap(u, self.all_channels(u)[3])

    def beta_bound(self) -> float:
        """Growth constant for the stored model (see model docstring)."""
        return self.model.beta_bound()


def build_table(model: ConstitutiveModel) -> KirchhoffTable:
    """Tabulate the Kirchhoff map for ``model`` and wire up interpolants.

    The refinement pass that meets the slope tolerance on ``[P_MIN, 0]`` is
    the map, and its knot saturations and conductivities back ``b`` and ``K_f``.

    Raises
    ------
    ConstitutiveError
        If the pressure grid is too coarse for a monotone fit of the map.
    """
    neg_grid, s_neg, k_neg, u_neg, psi, psi_d = _refine_grid(
        model, _pressure_grid(model), dtol=1.0e-8)
    # db/du = S'(p) / K_f(S(p)) at the knots, exact by the inverse-function
    # rule; interpolating b against u from values alone would amplify table
    # rounding by 1/K^2
    db_du = model.sat_slope_raw(neg_grid) / k_neg
    # coefficient x channel (b, K_f, b', K_f') x piece; the derivative
    # channels keep a zero cubic row (see KirchhoffTable)
    bk = np.zeros((4, 4, u_neg.size - 1))
    bk[:, 0] = _monotone_hermite(u_neg, s_neg, db_du)
    b_anti = _antiderivative(u_neg, bk[:, 0])

    # dK/du = (dK/dp) / (du/dp) with du/dp = K; top knot takes the p -> 0-
    # limit (capped by the fit when the exponent family makes it infinite)
    with np.errstate(over="ignore"):
        dk_du = model.conductivity_pressure_slope(neg_grid) / k_neg
    dk_du[-1] = model._conductivity_pressure_slope_limit()
    bk[:, 1] = _monotone_hermite(u_neg, k_neg, dk_du)
    bk[1:, 2] = _derivative(bk[:, 0])
    bk[1:, 3] = _derivative(bk[:, 1])

    u_bot = float(u_neg[0])
    u_lower = u_bot * (1.0 + 2.0e-9)
    margin = 1.0e-9 * abs(u_lower)

    return KirchhoffTable(
        model=model,
        p_samples=neg_grid,
        u_samples=u_neg,
        u_lower=u_lower,
        margin=margin,
        tol_q=TOL_Q,
        _psi=psi,
        _psi_d=psi_d,
        _bk=bk,
        _b_anti=b_anti,
        _b_anti0=float(_evaluate(u_neg, b_anti, 0.0)),
        _bk_plateau=np.array([[1.0], [1.0], [model.a_min], [0.0]]),
    )
