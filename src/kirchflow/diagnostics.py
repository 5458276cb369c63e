"""Executable stability estimates over accepted trajectories.

The solver's correctness story is not just "residuals are small": an
accepted run must also keep the discrete energy bookkeeping inside the
bounds the continuous problem imposes.  This module turns those bounds
into numbers — per-step energy ledgers, the closed-form growth bound, the
backward time-difference energy, an operational uniqueness probe, a
maximum-principle violation meter, and an initial-condition fidelity check,
each verdict a ``Check(name, value, bound)`` that passes iff ``value <=
bound``.  Each is a pure function of a finished Trajectory and its ``stepping``.

Convention: integrals use the column quadrature (`integrate_array`), the
gradient energy is the squared face seminorm (`grad_sq_array`) — the
discrete pairing the stepping scheme actually controls.

Each distinct state is evaluated once, as a row of ``Trajectory.values``:
the kernels are row-wise, and the steps past a fixed point, which repeat the
last row, add exactly 0.0 to the time-derivative energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constitutive import KirchhoffTable
from .grid import Field, grad_sq_array, integrate_array, l2_norm, laplacian_array
from .stepper import StepConfig, Trajectory, _march, project_initial, run

__all__ = [
    "Check",
    "DiagnosticsError",
    "EnergyReport",
    "energy_report",
    "regularity_monitor",
    "uniqueness_probe",
    "max_principle_check",
    "initial_condition_check",
]

# Rows of Trajectory.values per block in energy_report and regularity_monitor.
# 128 rows amortize the per-call overhead of numpy and the table lookup as
# well as 512 do, with 3 MB less peak memory; the kernels never see a whole
# trajectory, since a sourced march can hold tens of thousands of states.
BLOCK_STATES = 128
_GUESS_PERTURBATION = 1.0e-3  # noise scale of uniqueness_probe's Newton guesses


class DiagnosticsError(ValueError):
    """Invalid diagnostic request (as opposed to a solver failure)."""


class Check(NamedTuple):
    """One verdict, passed iff ``value <= bound`` (so a NaN value fails)."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Per-step energy ledger plus the closed-form growth bound.

    ``b_integral[n]`` is the convex storage functional of the n-th
    state, ``grad_sq``/``lap_sq`` the gradient and weighted curvature
    energies, ``cum_dissipation[n]`` the time-summed dissipation
    ``sum_{k<=n} h*(grad_sq[k]/2 + lap_sq[k])``.  ``gronwall_bound`` is
    ``(b_integral[0] + beta*omega*T) * exp(beta*T)`` — the explicit
    constant the growth argument produces, which ``gronwall()`` checks
    ``max(max b_integral, cum_dissipation[-1])`` against.  ``energy_inequality()``
    checks ``max_{n>=1} (inequality_defect()[n-1] - 10*newton_tol*n)`` against 0.
    Reports compare and hash by identity.
    """

    times: np.ndarray
    b_integral: np.ndarray
    grad_sq: np.ndarray
    lap_sq: np.ndarray
    cum_dissipation: np.ndarray
    gronwall_bound: float
    h: float
    beta: float
    omega: float
    newton_tol: float

    def __post_init__(self) -> None:
        for name in ("times", "b_integral", "grad_sq", "lap_sq", "cum_dissipation"):
            arr = getattr(self, name)
            arr.setflags(write=False)
            if arr.shape != self.times.shape:
                raise DiagnosticsError(f"{name} must align with times")

    def inequality_defect(self) -> np.ndarray:
        """Left minus right side of the per-step energy inequality.

        For each n >= 1:

            B_int[n] + cum_dissipation[n]
                <= B_int[0] + beta*omega*t_n + beta*h*sum_{k<=n} B_int[k]

        Returns the n >= 1 defects; nonpositive entries (up to Newton
        slack) mean the inequality holds.
        """
        lhs = self.b_integral[1:] + self.cum_dissipation[1:]
        rhs = (
            self.b_integral[0]
            + self.beta * self.omega * self.times[1:]
            + self.beta * self.h * np.cumsum(self.b_integral[1:])
        )
        return lhs - rhs

    def energy_inequality(self) -> Check:
        """The largest defect over its Newton slack, checked against 0."""
        slack = 10.0 * self.newton_tol * np.arange(1, self.times.size)
        value = np.max(self.inequality_defect() - slack, initial=-np.inf)
        return Check("energy-inequality", float(value), 0.0)

    def gronwall(self) -> Check:
        """The largest ``b_integral`` or final dissipation, against the bound."""
        value = np.maximum(np.max(self.b_integral), self.cum_dissipation[-1])
        return Check("gronwall-bound", float(value), self.gronwall_bound)

    def energy_inequality_ok(self) -> bool:
        return self.energy_inequality().passed

    def gronwall_ok(self) -> bool:
        return self.gronwall().passed


def _blocks(values: np.ndarray, overlap: int = 0):
    """Views of ``BLOCK_STATES`` rows at a time; each block after the first
    starts with the last ``overlap`` rows of the one before."""
    for i in range(0, len(values), BLOCK_STATES):
        yield values[max(i - overlap, 0):i + BLOCK_STATES]


def energy_report(
    traj: Trajectory, cfg: StepConfig, table: KirchhoffTable
) -> EnergyReport:
    """Energy ledger of a trajectory under its own ``traj.stepping``, which ``cfg``
    must equal field for field; a growth bound that overflows a float (from t = 704
    on the default problem) is refused, since an infinite bound certifies nothing."""
    step, col = traj.stepping, traj.column
    differ = [name for name, value in vars(step).items() if getattr(cfg, name) != value]
    if differ:
        raise DiagnosticsError(f"cfg: differs from traj.stepping in {', '.join(differ)}")
    dz, b_int, grad_sq, lap_sq = col.dz, [], [], []
    for block in _blocks(traj.values):
        b_int.append(integrate_array(table.legendre_B(block), dz))
        grad_sq.append(grad_sq_array(block, dz))
        lap_sq.append(step.gamma * integrate_array(laplacian_array(block, dz) ** 2, dz))
    b_int, grad_sq, lap_sq = (np.concatenate(a)[traj.rows]
                              for a in (b_int, grad_sq, lap_sq))
    cum = np.zeros(traj.times.size)
    cum[1:] = np.cumsum(step.h * (0.5 * grad_sq[1:] + lap_sq[1:]))
    t_final = float(traj.times[-1])
    with np.errstate(over="ignore"):
        bound = (b_int[0] + step.beta * col.length * t_final) * np.exp(step.beta * t_final)
    if not np.isfinite(bound):
        raise DiagnosticsError(f"gronwall bound overflows at t = {t_final!r}, "
                               f"beta = {step.beta!r}")
    return EnergyReport(
        times=traj.times.copy(),
        b_integral=b_int,
        grad_sq=grad_sq,
        lap_sq=lap_sq,
        cum_dissipation=cum,
        gronwall_bound=float(bound),
        h=step.h,
        beta=step.beta,
        omega=col.length,
        newton_tol=step.newton_tol,
    )


def regularity_monitor(traj: Trajectory) -> float:
    """Discrete time-derivative energy sum_n h * integral((du/h)^2), h the march's.

    Uniform boundedness under h-refinement is the smoothing signature:
    blow-up here means the march is resolving a kink, not a solution.
    """
    dz, h = traj.column.dz, traj.stepping.h
    total = 0.0
    for block in _blocks(traj.values, overlap=1):
        quot = (block[1:] - block[:-1]) / h
        for term in (h * integrate_array(quot**2, dz)).tolist():
            total += term  # summed in step order
    return total


def uniqueness_probe(
    u0: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    seed: int = 0,
) -> float:
    """Max L2 gap between a warm-started march and a guess-perturbed one.

    The second march adds standard normal noise (from ``seed``) times the
    fixed ``_GUESS_PERTURBATION`` = 1e-3 to every Newton initial guess; if the
    per-step root is unique within the basin, both land on the same states and
    the gap stays at solver tolerance.  A zero scale reproduces the march bitwise.
    """
    base = run(u0, cfg, table)
    rng = np.random.default_rng(seed)
    col = u0.column
    steps = _march(u0, cfg, table, guess=lambda system, it: system.start(
        it.v + _GUESS_PERTURBATION * rng.standard_normal(col.n_cells)))
    next(steps)  # the projected initial state, the base march's own
    gap = 0.0
    for row, (it, _, _) in zip(base.rows[1:], steps):
        gap = max(gap, l2_norm(it.v - base.values[row], col.dz))
    return gap


def max_principle_check(traj: Trajectory) -> float:
    """Overshoot above the invariant ceiling max(max u0, 0).

    Zero (within solver noise) is mandatory for the second-order model;
    with the fourth-order term a positive value is the measured
    overshoot amplitude — reported, never asserted away.
    """
    ceiling = max(float(np.max(traj.values[0])), 0.0)
    return max(0.0, float(np.max(traj.values)) - ceiling)


def initial_condition_check(
    traj: Trajectory, u0: Field, table: KirchhoffTable
) -> float:
    """L2 distance between stored initial saturation and b(projected u0)."""
    projected = project_initial(u0)
    db = table.all_channels(traj.values[0])[0] - table.all_channels(projected.values)[0]
    return l2_norm(db, u0.column.dz)
