"""Independent verification oracles for the solver stack.

Nothing in here is needed to *run* the solver; everything in here
exists to catch it lying.  Three instruments:

* a manufactured space-time solution with closed-form derivatives, so
  observed convergence orders can be measured against exact errors;
* convergence studies (spatial and temporal) over the manufactured
  solution;
* a dense reference step — the same backward-difference Newton scheme
  assembled with explicit loops over full matrices and solved by dense
  factorization, sharing no assembly code with the banded path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Literal, Optional, Tuple

import numpy as np

from .constitutive import KirchhoffTable
from .grid import Column, Field, l2_norm
from .stepper import _BACKTRACK_LIMIT, _DAMPING, _GROWTH_CAP, _MAX_ITER
from .stepper import StepConfig, run

__all__ = [
    "HarnessError",
    "ManufacturedSolution",
    "StudyRow",
    "convergence_study",
    "fitted_order",
    "dense_reference_step",
]


class HarnessError(RuntimeError):
    """Oracle could not certify its result."""


@dataclass(frozen=True)
class ManufacturedSolution:
    """Clamped polynomial bump with a smooth time envelope.

    ``u*(z, t) = A(t) * (z/L)^2 (1 - z/L)^2 * scale`` satisfies the
    clamped boundary pair exactly at both walls.  The amplitude keeps
    the field in the well-conditioned band of the transform (moderately
    unsaturated, far from both the wet joint and the dry floor).
    """

    column: Column
    amplitude: float = -0.15
    # fast envelope so the first-order-in-h error dominates the fixed
    # spatial floor in the temporal study (time error grows like rate^2,
    # the floor does not move)
    rate: float = 8.0

    def envelope(self, t: float) -> float:
        return self.amplitude * (0.6 + 0.4 * np.cos(self.rate * t))

    def envelope_rate(self, t: float) -> float:
        return -0.4 * self.rate * self.amplitude * np.sin(self.rate * t)

    def _shape(self, z: np.ndarray) -> np.ndarray:
        s = z / self.column.length
        return 16.0 * s**2 * (1.0 - s) ** 2

    def field(self, t: float) -> Field:
        return Field(self.envelope(t) * self._shape(self.column.nodes()), self.column)

    def source_callable(
        self, cfg: StepConfig, table: KirchhoffTable
    ) -> Callable[[float], np.ndarray]:
        """Right side that makes ``u*`` the exact continuum solution.

        f = b'(u*) du*/dt + g K'(u*) du*/dz - d2u*/dz2 + gamma d4u*/dz4,
        spatial derivatives in closed form, constitutive factors from
        the same tabulated channels the stepper trusts — the measured
        error of a sourced run is then pure discretization error.

        The returned ``source(t)`` gives ``f`` at time ``t`` on this
        solution's column nodes, the form ``stepper.run`` takes.  The shape
        and its derivatives do not depend on ``t`` and are computed once
        here; a call costs the envelope, one table lookup and the sum.
        """
        length = self.column.length
        g = self.column.gravity_sign
        z = self.column.nodes()
        s = z / length
        shape = self._shape(z)
        d1 = 16.0 * (2.0 * s - 6.0 * s**2 + 4.0 * s**3) / length
        d2 = 16.0 * (2.0 - 12.0 * s + 12.0 * s**2) / length**2
        d4 = 16.0 * 24.0 / length**4 * np.ones_like(z)

        def source(t: float) -> np.ndarray:
            amp = self.envelope(t)
            u = amp * shape
            rate = self.envelope_rate(t) * shape
            b_prime, dk_du = table.all_channels(u)[2:]
            out = b_prime * rate
            out += g * dk_du * (amp * d1)
            out -= amp * d2
            out += cfg.gamma * amp * d4
            return out

        return source


def _mms_error(n_cells: int, cfg: StepConfig, table: KirchhoffTable) -> float:
    col = Column(length=1.0, n_cells=n_cells, gravity_sign=-1.0)
    ms = ManufacturedSolution(column=col)
    traj = run(ms.field(0.0), cfg, table, source=ms.source_callable(cfg, table))
    exact = ms.field(float(traj.times[-1]))
    return l2_norm(traj.values[-1] - exact.values, col.dz)


@dataclass(frozen=True)
class StudyRow:
    level: int
    dz: float
    h: float
    l2_error: float
    observed_order: Optional[float]


def convergence_study(
    mode: Literal["spatial", "temporal"],
    table: KirchhoffTable,
    levels: int = 4,
    gamma: float = 0.1,
) -> List[StudyRow]:
    """Manufactured-solution refinement study, `levels` grids deep.

    spatial: dz halves per level with h = 1e-4 pinned far below the
    spatial error; temporal: h halves per level on a fine fixed grid.
    Backward differencing is first order in h, the stencils second
    order in dz.  Newton tolerances sit above the fourth-difference
    round-off floor of the finest level (the floor grows like 1/dz^4),
    which perturbs the states orders of magnitude below the measured
    errors.
    """
    if levels < 3:
        raise HarnessError("need at least 3 levels for an order estimate")
    if mode not in ("spatial", "temporal"):
        raise HarnessError(f"unknown study mode {mode!r}")
    rows: List[StudyRow] = []
    errs: List[float] = []
    for k in range(levels):
        if mode == "spatial":
            n = 25 * 2**k + (2**k - 1)
            cfg = StepConfig(h=1.0e-4, gamma=gamma, t_end=0.02, newton_tol=3.0e-7)
        else:
            n = 400
            cfg = StepConfig(h=0.02 / 2**k, gamma=gamma, t_end=0.4, newton_tol=3.0e-6)
        errs.append(_mms_error(n, cfg, table))
        order = None if k == 0 else float(np.log2(errs[k - 1] / errs[k]))
        rows.append(StudyRow(k, 1.0 / (n + 1), cfg.h, errs[k], order))
    return rows


def fitted_order(rows: List[StudyRow]) -> float:
    """Least-squares slope of log2(error) against refinement level.

    The single observed order for a whole study; per-pair orders stay
    on the rows for inspection.
    """
    lev = np.array([r.level for r in rows], dtype=float)
    loge = np.log2(np.array([r.l2_error for r in rows]))
    slope = np.polyfit(lev, loge, 1)[0]
    return float(-slope)


def _dense_operators(col: Column) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped Laplacian and biharmonic as full matrices, by loops."""
    n = col.n_cells
    dz = col.dz
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, i] = -2.0 / dz**2
        if i > 0:
            lap[i, i - 1] = 1.0 / dz**2
        if i < n - 1:
            lap[i, i + 1] = 1.0 / dz**2
    bih = np.zeros((n, n))
    stencil = (1.0, -4.0, 6.0, -4.0, 1.0)
    for i in range(n):
        for off, c in zip(range(-2, 3), stencil):
            j = i + off
            if 0 <= j < n:
                bih[i, j] = c / dz**4
    bih[0, 0] = 7.0 / dz**4
    bih[n - 1, n - 1] = 7.0 / dz**4
    return lap, bih


def dense_reference_step(
    u_old: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    source: Optional[np.ndarray] = None,
) -> Field:
    """One backward-difference step via dense assembly and dense solve.

    Independent of the banded path: full matrices built by loops,
    gravity faces summed explicitly, Newton update by ``numpy.linalg``
    dense factorization; only the Newton policy constants come from
    ``stepper``.  Agreement with ``stepper.step`` to 100*newton_tol is the
    dual-implementation contract.
    """
    col = u_old.column
    n = col.n_cells
    if n > 400:
        raise HarnessError("dense reference limited to n_cells <= 400")
    dz = col.dz
    g = col.gravity_sign
    lap, bih = _dense_operators(col)
    sys_mat = -lap + cfg.gamma * bih
    floor = table.u_lower + 2.0 * table.margin
    b_old = table.b_of_u(u_old.values)
    rhs = np.zeros(n) if source is None else np.asarray(source, dtype=float)

    def dense_residual(v: np.ndarray) -> np.ndarray:
        k = table.conductivity_of_u(v)
        kf = np.empty(n + 1)
        kf[0] = k[0]
        kf[n] = k[n - 1]
        for i in range(1, n):
            kf[i] = 0.5 * (k[i - 1] + k[i])
        grav = g * (kf[1:] - kf[:-1]) / dz
        return (table.b_of_u(v) - b_old) / cfg.h + grav + sys_mat @ v - rhs

    v = np.maximum(u_old.values.copy(), floor)
    r = dense_residual(v)
    best = float(np.max(np.abs(r)))
    for _ in range(_MAX_ITER):
        if np.max(np.abs(r)) <= cfg.newton_tol:
            return Field(v, col)
        jac = sys_mat + np.diag(table.b_prime(v) / cfg.h)
        # d(grav)/du: interior diagonals cancel between the two faces;
        # the wall rows keep one because the mirror face tracks the node
        dk = table.dconductivity_du(v)
        half = g / (2.0 * dz)
        for i in range(1, n):
            jac[i, i - 1] -= half * dk[i - 1]
        for i in range(n - 1):
            jac[i, i + 1] += half * dk[i + 1]
        jac[0, 0] -= half * dk[0]
        jac[n - 1, n - 1] += half * dk[n - 1]
        delta = np.linalg.solve(jac, -r)
        lam = 1.0
        for _ in range(_BACKTRACK_LIMIT):
            cand = np.maximum(v + lam * delta, floor)
            cand_r = dense_residual(cand)
            cand_norm = float(np.max(np.abs(cand_r)))
            if np.isfinite(cand_norm) and cand_norm <= max(
                _GROWTH_CAP * best, cfg.newton_tol
            ):
                v, r = cand, cand_r
                best = min(best, cand_norm)
                break
            lam *= _DAMPING
        else:
            raise HarnessError("dense reference line search stalled")
    if np.max(np.abs(r)) <= cfg.newton_tol:
        return Field(v, col)
    raise HarnessError(
        f"dense reference Newton did not converge: residual "
        f"{np.max(np.abs(r)):.3e}"
    )
