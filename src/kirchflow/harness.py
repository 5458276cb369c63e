"""Independent verification oracles for the solver stack.

Nothing in here is needed to *run* the solver; everything in here
exists to catch it lying.  Two instruments, which ``mms`` and the benchmark
call:

* a manufactured space-time solution with closed-form derivatives, so
  observed convergence orders can be measured against exact errors;
* convergence studies (spatial and temporal) over the manufactured
  solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Literal, Optional

import numpy as np

from .constitutive import KirchhoffTable
from .grid import Column, Field, l2_norm
from .stepper import StepConfig, run

__all__ = [
    "HarnessError",
    "ManufacturedSolution",
    "StudyRow",
    "convergence_study",
    "fitted_order",
]


class HarnessError(RuntimeError):
    """Oracle could not certify its result."""


@dataclass(frozen=True)
class ManufacturedSolution:
    """Clamped polynomial bump with a smooth time envelope.

    ``u*(z, t) = A(t) * (z/L)^2 (1 - z/L)^2 * scale`` satisfies the clamped
    boundary pair exactly at both walls; ``A(t) = AMPLITUDE * (0.6 + 0.4
    cos(RATE t))``.  The class constant ``AMPLITUDE`` keeps the field in the
    well-conditioned band of the transform (moderately unsaturated, far from
    both the wet joint and the dry floor); ``RATE`` is fast, so that the
    first-order-in-h error dominates the fixed spatial floor in the temporal
    study (time error grows like RATE^2, the floor does not move).
    """

    column: Column
    AMPLITUDE = -0.15
    RATE = 8.0

    def envelope(self, t: float) -> float:
        return self.AMPLITUDE * (0.6 + 0.4 * np.cos(self.RATE * t))

    def envelope_rate(self, t: float) -> float:
        return -0.4 * self.RATE * self.AMPLITUDE * np.sin(self.RATE * t)

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
        the same tabulated channels the stepper trusts, ``b'`` the exact
        slope of ``b`` — a sourced run's error is pure discretization error.

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
