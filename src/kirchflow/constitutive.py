"""Constitutive relations and the Kirchhoff transformation.

Saturation and relative conductivity follow the van Genuchten / Mualem
closed forms, regularized in two places:

* saturation approaches the residual value ``s_res`` exponentially below
  the regularization pressure ``p_reg`` (C1 joint) instead of flattening
  out at an infinite dry limit;
* relative conductivity gets an affine floor ``a_min`` so the
  transform is bi-Lipschitz and invertible to working precision.

The capacity ``b'`` has no floor: it is the exact slope of the solved
storage ``b(u)``, nonnegative and 0 on the plateau ``u >= 0``.

The Kirchhoff map ``u = psi(p)`` integrates conductivity over pressure.
It is fitted once, with a monotone cubic on a graded pressure grid down
to ``P_MIN``; the transformed saturation ``b(u)``, its derivative, and
the convex potential ``B`` are all read from the same table so that the
discrete inequalities relating them hold to rounding.  The fits are plain
coefficient arrays whose kernels repeat scipy's ``CubicHermiteSpline`` and
``PPoly`` arithmetic in scipy's order, so they match it bit for bit.

Only the cubics are stored; slopes and the antiderivative of ``b`` are
derived on read from the cubic rows a read gathers.  The u side has two
reads: ``all_channels`` for ``(b, K_f, b', K_f')`` and ``legendre_B`` for
the potential.  The build evaluates the model, fits the cubics and sums the
antiderivative in fixed-size slices straight into the table, so its
transient memory beyond the table is about the knot saturations and
conductivities.

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

P_MIN = -1.0e6  # bottom of the table; below it the integrand is a_min
TOL_Q = 1.0e-12  # tabulated integral accuracy: absolute for |u| <= 1, relative beyond
BETA = 1.0  # growth constant of every model (see KirchhoffTable.beta_bound)


class ConstitutiveError(ValueError):
    """Invalid constitutive parameter or evaluation outside a domain."""


class OutOfRangeError(ConstitutiveError):
    """Transformed variable below the lowest knot of the table, or NaN."""


def _unwrap(x, out: np.ndarray):
    """``out`` as a float when the input ``x`` was a scalar."""
    return out.item() if np.ndim(x) == 0 else out


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
        Relative conductivity floor in (0, 1); it bounds the
        Kirchhoff map's slope from below, not the capacity ``b'``.

    Notes
    -----
    ``saturation`` equals the closed-form retention curve on
    ``[p_reg, 0)``, is exactly 1 for ``p >= 0``, and decays to ``s_res``
    below ``p_reg`` with value and slope continuous at the joint, so the
    range invariant ``s_res <= S <= 1`` is kept exactly.

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
        float or ndarray in ``[s_res, 1]``, exactly 1 for ``p >= 0``.
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
            x = np.exp(np.log(se) / m)  # se**(1/m) <= 1: conductivity clips se
            wet = -np.expm1(m * np.log1p(-x))  # 1 - (1-x)^m
        return np.sqrt(se) * wet * wet

    def conductivity(self, s):
        """Relative conductivity K_f(s) on ``[s_res, 1]``.

        Affine-floored Mualem form ``a_min + (1 - a_min) * kr(Se)``;
        equals ``a_min`` at ``s_res`` and exactly 1 at full saturation.

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
        out = self.a_min + (1.0 - self.a_min) * self._mualem_kr(se)
        return _unwrap(s, out)

    def conductivity_vs_pressure(self, p):
        """Composition K_f(S(p)); smooth in p and used as the map integrand."""
        return self.conductivity(self.saturation(p))

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
            return (1.0 - self.a_min) * (dkr_dt * (n * t / pm))

        def dry(pd):
            tail = self._tail(pd)
            # through s, not amp * tail: (s_res + x) - s_res rounds
            s = self.s_res + self._tail_amp * tail
            se = self.effective_saturation(s)  # in [0, 1]: s in [s_res, 1]
            dkr = np.zeros_like(se)
            pos = se > 0.0
            sep = se[pos]
            x = np.exp(np.log(sep) / m)  # se**(1/m) <= 1
            wet = -np.expm1(m * np.log1p(-x))  # 1 - (1-x)^m
            root = np.sqrt(sep)
            with np.errstate(divide="ignore", over="ignore"):
                edge = np.exp((m - 1.0) * np.log1p(-x))  # (1-x)^(m-1), inf at x=1
                dkr[pos] = wet * wet / (2.0 * root) + 2.0 * wet * x * edge / root
            dk_ds = (1.0 - self.a_min) / (1.0 - self.s_res) * dkr
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
            return (1.0 - self.a_min) * 2.0 * self.m_vg * self.n_vg * self.alpha_vg
        return np.inf


# ---------------------------------------------------------------------------
# piecewise cubics as plain arrays (layout: see KirchhoffTable)
# ---------------------------------------------------------------------------


def _hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of the cubic Hermite fit of values ``y`` and slopes ``d``,
    written into ``out`` when given; refuses non-finite data and knots ``x``
    that do not strictly increase."""
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(d).all()):
        raise ConstitutiveError("cubic fit data must be finite")

    def rows(x0, x1, y0, y1, d0, d1):
        dx = x1 - x0
        if np.any(dx <= 0.0):
            raise ConstitutiveError("cubic fit knots must be strictly increasing")
        slope = (y1 - y0) / dx
        t = (d0 + d1 - 2.0 * slope) / dx
        return t / dx, (slope - d0) / dx - t, d0, y0

    out = np.empty((4, x.size - 1)) if out is None else out
    return _sliced(rows, x[:-1], x[1:], y[:-1], y[1:], d[:-1], d[1:], out=out)


# Power sums of a cubic's rows c0..c3 (highest power first) at the offsets
# s of their pieces: ascending, from +0.0 as in scipy's PPoly, so -0.0 reads
# +0.0 and no sum is ever -0.0.  The derivative's rows 3 c0, 2 c1, c2 and
# the antiderivative's c0/4, c1/3, c2/2, c3 are derived from the cubic's on
# read, one rounding each as in PPoly.derivative and PPoly.antiderivative.


def _cubic(c, s):
    """Values of the cubic rows ``c`` at ``s``."""
    r = 0.0 + c[3]
    r += c[2] * s
    z = s * s
    r += c[1] * z
    z *= s
    r += c[0] * z
    return r


def _slope(c, s):
    """Values of the derivative of the cubic rows ``c`` at ``s``, reading only
    ``c[:3]``.  A quadratic: a stored derivative's zero cubic row would only
    add ``0 * s**3``, a signed zero, to a sum that is never -0.0."""
    r = 0.0 + c[2]
    r += 2.0 * c[1] * s
    r += 3.0 * c[0] * (s * s)
    return r


def _integral(c, const, s):
    """Values at ``s`` of the antiderivative of the cubic rows ``c`` that is
    ``const`` at each piece's left knot."""
    r = 0.0 + const
    r += c[3] * s
    z = s * s
    r += c[2] / 2.0 * z
    z *= s
    r += c[1] / 3.0 * z
    z *= s
    r += c[0] / 4.0 * z
    return r


def _values_and_slopes(c, s):
    """``(b, K_f, b', K_f')`` from the gathered rows ``c`` of ``_bk``, by
    ``_cubic`` and ``_slope``.  The offsets are doubled first, so that every
    operand has the rows' shape: at 200 points numpy broadcasts (n,) against
    (2, n) at about twice the cost of a same-shape operation."""
    s = np.array((s, s))
    return np.concatenate((_cubic(c, s), _slope(c, s)))


def _value_and_integral(c, const, s):
    """``(b, integral of b)`` from the gathered rows of channel ``b`` and of
    the antiderivative's constants."""
    return np.stack((_cubic(c, s), _integral(c, const, s)))


def _antiderivative(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Constants of the antiderivative of the cubic ``c`` over the knots ``x``
    that is 0 at ``x[0]``: its value at every knot, the last one included.

    Each is the previous piece's value at their shared knot, summed term by
    term in scipy's order: one sequential ``add.accumulate`` over ``[0, c3
    h, c2/2 h^2, c1/3 h^3, c0/4 h^4, ...]``, read at the end of every piece.
    It runs ``_SLICE`` pieces at a time, each slice starting from the running
    sum the one before ended on: the same additions in the same order.
    """
    pieces = c.shape[-1]
    const = np.empty(pieces + 1)
    const[0] = 0.0
    for lo in range(0, pieces, _SLICE):
        hi = min(lo + _SLICE, pieces)
        h = x[lo + 1:hi + 1] - x[lo:hi]
        powers = np.cumprod(np.broadcast_to(h, (4, h.size)), axis=0)  # h, ..., h^4
        rows = c[::-1, lo:hi] / np.array([[1.0], [2.0], [3.0], [4.0]])
        terms = (rows * powers).T.ravel()
        sums = np.add.accumulate(np.concatenate([const[lo:lo + 1], terms]))
        const[lo + 1:hi + 1] = sums[4::4]
    return const


def _evaluate(x: np.ndarray, u, read, *fits) -> np.ndarray:
    """``read(*rows, s)`` at ``u`` for fits over the knots ``x``: the
    coefficient rows of each fit in ``fits`` gathered at the pieces of
    ``u``, and ``s`` the offsets of ``u`` from their left knots.

    Pieces are half-open ``[x[i], x[i+1])``; the last of a fit with one
    piece fewer than ``x`` has knots is closed, and the end pieces
    extrapolate.  A contiguous fit is gathered with ``take``; a strided one
    (``legendre_B``'s channel view ``_bk[:, 0]``) by fancy indexing, because
    ``take`` would first copy the whole view.  Either gathers only the pieces
    of ``u``.
    """
    u = np.asarray(u, dtype=float)
    i = x[1:fits[0].shape[-1]].searchsorted(u, "right")
    rows = (c.take(i, axis=-1) if c.flags.c_contiguous else c[..., i] for c in fits)
    return read(*rows, u - x[i])


# ---------------------------------------------------------------------------
# tabulated Kirchhoff map
# ---------------------------------------------------------------------------


# 3-point Gauss-Legendre rule, numpy's leggauss(3) bit for bit: the lowest
# order whose table stays within TOL_Q of a 20-point rule (2 points miss
# by 13x at p_reg = -0.1)
_GAUSS_NODES = (-0.7745966692414834, 0.0, 0.7745966692414834)
_GAUSS_WEIGHTS = (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)


# points per slice when the build evaluates the model, fits a cubic or
# sums the antiderivative: the transient arrays stay this long, not table-long
_SLICE = 4096


def _sliced(f, *arrays, dtype=float, out: np.ndarray | None = None) -> np.ndarray:
    """``f(*arrays)`` for elementwise ``f`` on equal-length 1-D arrays,
    evaluated ``_SLICE`` entries at a time into one output array, ``out``
    when given (it may be one of ``arrays``).  The slices fill ``out`` along
    its last axis, so ``f`` may return several rows per entry."""
    out = np.empty(arrays[0].shape, dtype=dtype) if out is None else out
    for lo in range(0, out.shape[-1], _SLICE):
        out[..., lo:lo + _SLICE] = f(*(a[lo:lo + _SLICE] for a in arrays))
    return out


def _gauss_panels(edges: np.ndarray, f) -> np.ndarray:
    """Gauss-Legendre integral of f over each edge interval, summed node by
    node in one fixed order: a BLAS product would round by thread count."""

    def panels(left, right):
        half = 0.5 * (right - left)
        mid = 0.5 * (left + right)
        nodes = mid + half * np.array(_GAUSS_NODES)[:, None]  # node x panel
        vals = f(nodes.ravel()).reshape(nodes.shape)
        acc = vals[0] * _GAUSS_WEIGHTS[0]
        for row, weight in zip(vals[1:], _GAUSS_WEIGHTS[1:]):
            acc = acc + row * weight
        return half * acc

    return _sliced(panels, edges[:-1], edges[1:])


def _pressure_grid(model: ConstitutiveModel) -> np.ndarray:
    """Starting grid on [P_MIN, 0]: log-refined toward 0 where the integrand
    curvature blows up, uniform over the retention branch, geometrically
    stretched through the exponential tail.  Refined further adaptively."""
    n_mid = int(min(max(round(-model.p_reg * 4000.0), 1000), 60000))
    mid = np.linspace(model.p_reg, 0.0, n_mid + 1)
    # near-saturation refinement: spacing proportional to |p| down to 1e-8
    scale = 1.0 / model.alpha_vg
    near = -np.geomspace(1.0e-8 * scale, 0.5 * scale, 600)
    pts = [mid, near[near > model.p_reg]]  # mid ends on exactly 0.0
    step = 1.0e-2
    p = model.p_reg
    tail = []
    while p > P_MIN:
        p = max(p - step, P_MIN)
        tail.append(p)
        step *= 1.005
    pts.append(np.array(tail[::-1]))
    grid = np.sort(np.concatenate(pts))
    # drop exact and near-duplicate knots: zero-width intervals turn
    # cumulative rounding into derivative noise
    gap = np.diff(grid)
    keep = np.concatenate([[True], gap > 1.0e-9 * np.maximum(1.0, np.abs(grid[1:]))])
    keep[-1] = True
    return grid[keep]


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
    s = _sliced(model.saturation, grid)
    deriv = _sliced(model.conductivity, s)
    delta = np.diff(u) / np.diff(grid)
    # cubic with positive endpoint slopes is monotone when both stay within
    # 3x the secant slope; the graded grid keeps the ratio near 1
    ratio = np.maximum(deriv[:-1], deriv[1:]) / np.maximum(delta, 1.0e-300)
    if np.any(delta <= 0.0) or float(ratio.max()) > 3.0:
        raise ConstitutiveError("pressure grid too coarse for a monotone map fit")
    return s, deriv, u, _hermite(grid, u, deriv)


def _monotone_hermite(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Cubic Hermite coefficients of nondecreasing data with supplied slopes,
    written into ``out`` when given.

    Slopes are capped at three times the neighboring secants (the classic
    sufficient condition), which only bites where the data has gone flat
    relative to the grid; there the cap preserves monotonicity at the cost
    of slope accuracy nobody reads.  The slopes ``d`` are capped in place.
    """
    delta = _sliced(lambda x0, x1, y0, y1: (y1 - y0) / (x1 - x0),
                    x[:-1], x[1:], y[:-1], y[1:])
    if np.any(delta < 0.0):
        raise ConstitutiveError("data for a monotone fit must be nondecreasing")
    d[0] = np.clip(d[0], 0.0, 3.0 * delta[0])
    d[-1] = np.clip(d[-1], 0.0, 3.0 * delta[-1])
    _sliced(lambda di, left, right: np.clip(di, 0.0, 3.0 * np.minimum(left, right)),
            d[1:-1], delta[:-1], delta[1:], out=d[1:-1])
    return _hermite(x, y, d, out)


def _refine_grid(model: ConstitutiveModel, grid: np.ndarray, dtol: float):
    """Split intervals until the fitted map's slope, read on each interval's
    own piece at its quarter points, is within ``dtol`` of the exactly
    evaluable integrand, refining at most 8 times.  Returns the last pass: the
    grid, its knot saturations and conductivities, ``u``, and the map's cubic."""
    for refinements in range(9):
        s, k, u, psi = _fit_map(model, grid)
        if refinements == 8:
            break

        def missed(left, right, *rows):
            out = np.zeros(left.size, dtype=bool)
            for frac in (0.25, 0.5, 0.75):
                probe = left + frac * (right - left)
                exact = model.conductivity_vs_pressure(probe)
                out |= np.abs(_slope(rows, probe - left) - exact) > dtol
            return out

        bad = _sliced(missed, grid[:-1], grid[1:], *psi[:3], dtype=bool)
        if not np.any(bad):
            break
        mids = 0.5 * (grid[:-1] + grid[1:])[bad]
        grid = np.sort(np.concatenate([grid, mids]))  # each mid strictly inside
    return grid, s, k, u, psi


@dataclass(frozen=True, eq=False)
class KirchhoffTable:
    """Tabulated Kirchhoff transform and transformed-variable relations.

    Built once per model by :func:`build_table`.  Holds the pressure grid,
    the transformed values ``u = psi(p)``, and monotone cubic interpolants
    for the map, its inverse support, the transformed saturation ``b(u)``
    and the conductivity composition ``K_f(b(u))``.  Only the cubics are
    stored: every slope (``psi'``, ``b'``, ``dK_f/du``) and the antiderivative
    of ``b`` are derived on read from the cubic rows gathered for it, with
    the one rounding per row that scipy's ``PPoly.derivative`` and
    ``antiderivative`` make, so each reads exactly what a stored derived fit
    would.  The ``b`` and ``K_f`` fits share their knots and are stored as one
    two-channel cubic: one interval search serves all four channels.  The u
    side is read in two ways, each from one search: :meth:`all_channels`
    gathers the 8 cubic rows of the pieces it reads, and :meth:`legendre_B`
    the 4 of ``b`` and the antiderivative's constant.

    Each fit is a plain coefficient array of shape ``(4, pieces)``, highest
    power first, over the pressure knots (``_psi``) or their images in ``u``
    (``_bk``, of shape ``(4, 2, pieces)``: coefficient, channel ``(b, K_f)``,
    piece).  ``_bk`` has one piece more than its knots span: the constant
    saturated branch from ``u = 0`` on, where ``b = K_f = 1`` and the slopes
    are 0.  ``_b_anti`` holds the antiderivative of ``b`` at every knot, 0 at
    the lowest; its last entry, the integral up to ``u = 0``, is the constant
    of the saturated piece.  Every read goes through ``_evaluate`` in one
    fixed order (interval search, then the power sum from the constant term
    up), so a value depends only on the table and its argument, never on
    which channel or how many points were asked for together.

    Tables compare and hash by identity.

    Attributes
    ----------
    model : ConstitutiveModel
        The closed-form package the table was built from.
    p_samples, u_samples : ndarray
        The knots: pressures on ``[P_MIN, 0]`` and their images ``u = psi(p)``,
        strictly increasing and ending at ``p = u = 0``.  The lowest knot
        ``u_samples[0]`` is the table's one boundary: every u-side read and
        the inverse accept ``u >= u_samples[0]`` and refuse anything below
        it, or NaN.  The values carry quadrature error ``TOL_Q``.
    """

    model: ConstitutiveModel
    p_samples: np.ndarray
    u_samples: np.ndarray
    _psi: np.ndarray = field(repr=False)  # u along p
    _bk: np.ndarray = field(repr=False)  # channels (b, K_f) along u, then the plateau
    _b_anti: np.ndarray = field(repr=False)  # integral of b from u_samples[0] to each knot

    # -- forward map ---------------------------------------------------------

    def kirchhoff(self, p):
        """Transformed variable u = psi(p); identity on ``p >= 0``.

        Total on the reals: below the tabulated range the map continues
        linearly with slope ``a_min`` (the integrand is constant there
        to machine precision).  NaN maps to NaN.
        """
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        p_bot, u_bot = self.p_samples[0], self.u_samples[0]
        fit = _evaluate(self.p_samples, np.minimum(np.maximum(p_arr, p_bot), 0.0),
                        _cubic, self._psi)
        below = u_bot + self.model.a_min * (p_arr - p_bot)
        return _unwrap(p, np.where(p_arr >= 0.0, p_arr,
                                   np.where(p_arr >= p_bot, fit, below)))

    # -- inverse map -----------------------------------------------------------

    def _check_invertible(self, u_arr: np.ndarray) -> None:
        inside = u_arr >= self.u_samples[0]  # False at NaN
        if inside.all():
            return
        i = int(np.argmin(inside))  # the first refused entry, flat index
        raise OutOfRangeError(f"u[{i}]={float(u_arr.flat[i])!r} below the table "
                              f"(lowest knot u = {float(self.u_samples[0])!r})")

    def kirchhoff_inverse(self, u):
        """Pressure p with ``kirchhoff(p) = u``, for ``u >= u_samples[0]``.

        Bisection-safeguarded Newton on the monotone table; the returned
        pressure reproduces ``u`` through :meth:`kirchhoff` to a few 1e-15
        in the working band (relative in the deep tail), tight enough that
        saturations recovered through it agree with the direct channel.

        Raises
        ------
        OutOfRangeError
            If any entry is below the lowest knot ``u_samples[0]``, or NaN.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        self._check_invertible(u_arr)
        out = np.where(u_arr >= 0.0, u_arr, 0.0)
        neg = u_arr < 0.0
        if np.any(neg):
            out[neg] = self._invert_negative(u_arr[neg])
        return _unwrap(u, out)

    def _invert_negative(self, u: np.ndarray) -> np.ndarray:
        """Pressures of ``us[0] <= u < 0``: a linear seed between the bracketing
        knots, which strictly increase up to ``us[-1] = 0``, then Newton
        iterates that each read the map and its slope from one lookup."""
        us, ps = self.u_samples, self.p_samples
        idx = np.maximum(np.searchsorted(us, u), 1)  # u = us[0]: the lowest piece
        lo, hi = ps[idx - 1], ps[idx]
        ulo, uhi = us[idx - 1], us[idx]
        p = lo + (u - ulo) * (hi - lo) / (uhi - ulo)
        # the residual tolerance has to be far below TOL_Q: a slack of t
        # here surfaces as b'(u) * t in every recovered-saturation value,
        # and b' reaches ~1e2.  3e-15 is reachable in the working band;
        # the relative term covers the deep tail where |u| is large and
        # evaluation noise scales with it.
        tol = np.maximum(3.0e-15, 4.0e-15 * np.abs(u))
        for _ in range(80):
            f, d = _evaluate(ps, p, lambda c, s: (_cubic(c, s) - u, _slope(c, s)),
                             self._psi)
            done = np.abs(f) <= tol
            if np.all(done):
                break
            hi = np.where(f > 0.0, p, hi)
            lo = np.where(f <= 0.0, p, lo)
            p_new = p - f / np.maximum(d, self.model.a_min * 1.0e-3)
            bad = (p_new <= lo) | (p_new >= hi)
            p_new = np.where(bad, 0.5 * (lo + hi), p_new)
            p = np.where(done, p, p_new)
        return p

    # -- channels along the transformed variable ---------------------------------

    def _channels(self, u, read, *fits) -> np.ndarray:
        """``read(*rows, s)`` along ``u``, channel first (see ``_evaluate``).

        The one place that range-checks ``u``, refusing it below the lowest
        knot, and clamps it from above at ``u = 0``, which falls in the
        constant saturated piece.  The fits are read along the
        flattened ``u``, so ``read`` returns a stack of channels along it.
        """
        u_arr = np.asarray(u, dtype=float)
        self._check_invertible(u_arr)
        flat = np.minimum(u_arr.ravel(), 0.0)
        out = _evaluate(self.u_samples, flat, read, *fits)
        return out.reshape(out.shape[:-1] + u_arr.shape)

    def all_channels(self, u) -> np.ndarray:
        """``(b, K_f, b', dK_f/du)`` at ``u``, of shape ``(4,) + shape(u)``,
        from one range check and one interval lookup: what a Newton iterate
        reads, so its matrix holds the exact slope of the residual's ``b``.
        Gathers the 8 cubic rows of every piece read and derives both slopes
        from them.  ``b = K_f = 1`` and both slopes are 0 on ``u >= 0``; ``b'``
        has no floor, so it is also 0 where the dry tail's slope underflows."""
        return self._channels(u, _values_and_slopes, self._bk)

    def legendre_B(self, z):
        """Convex potential ``B(z) = b(z) z - integral_0^z b``.

        Nonnegative, zero on the saturated branch, evaluated from the
        exact antiderivative of the same monotone cubic that represents
        ``b``, so the pairing inequalities hold to rounding.  One interval
        search gathers the 4 coefficient rows of channel ``b`` and the
        antiderivative's constant; ``b`` and its integral both come from them.
        """
        z_arr = np.asarray(z, dtype=float)
        b, anti = self._channels(z_arr, _value_and_integral, self._bk[:, 0], self._b_anti)
        phi = anti - self._b_anti[-1]
        return _unwrap(z, np.where(z_arr < 0.0, np.maximum(b * z_arr - phi, 0.0), 0.0))

    def beta_bound(self) -> float:
        """Growth constant: ``K_f(b(z))^2 <= BETA * (1 + B(z))`` for all z and
        every model, with no sampling, because ``K_f <= 1`` and ``B >= 0``."""
        return BETA


def build_table(model: ConstitutiveModel) -> KirchhoffTable:
    """Tabulate the Kirchhoff map for ``model`` and wire up interpolants.

    The refinement pass that meets the slope tolerance on ``[P_MIN, 0]`` is
    the map, and its knot saturations and conductivities back ``b`` and ``K_f``.

    Raises
    ------
    ConstitutiveError
        If the pressure grid is too coarse for a monotone fit of the map.
    """
    neg_grid, s_neg, k_neg, u_neg, psi = _refine_grid(
        model, _pressure_grid(model), dtol=1.0e-8)
    # coefficient x channel (b, K_f) x piece; the fits go straight into their
    # slots, and the last piece is the saturated branch: b = K_f = 1 from u = 0
    bk = np.zeros((4, 2, u_neg.size))
    bk[3, :, -1] = 1.0
    # db/du = S'(p) / K_f(S(p)) at the knots, exact by the inverse-function
    # rule; interpolating b against u from values alone would amplify table
    # rounding by 1/K^2
    _monotone_hermite(
        u_neg, s_neg, _sliced(lambda p, k: model.sat_slope_raw(p) / k, neg_grid, k_neg),
        out=bk[:, 0, :-1])
    del s_neg

    # dK/du = (dK/dp) / (du/dp) with du/dp = K; top knot takes the p -> 0-
    # limit (capped by the fit when the exponent family makes it infinite)
    with np.errstate(over="ignore"):
        dk_du = _sliced(lambda p, k: model.conductivity_pressure_slope(p) / k,
                        neg_grid, k_neg)
    dk_du[-1] = model._conductivity_pressure_slope_limit()
    _monotone_hermite(u_neg, k_neg, dk_du, out=bk[:, 1, :-1])
    del k_neg, dk_du

    return KirchhoffTable(
        model=model,
        p_samples=neg_grid,
        u_samples=u_neg,
        _psi=psi,
        _bk=bk,
        _b_anti=_antiderivative(u_neg, bk[:, 0, :-1]),
    )
