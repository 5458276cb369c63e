"""Executable stability estimates over accepted trajectories.

The solver's correctness story is not just "residuals are small": an
accepted run must also keep the discrete energy bookkeeping inside the
bounds the continuous problem imposes.  This module turns those bounds
into numbers — per-step energy ledgers, the closed-form growth bound, the
backward time-difference energy, an operational uniqueness probe, a
maximum-principle violation meter, an initial-condition fidelity check and a
per-step water balance, each verdict a ``Check(name, value, bound)`` that
passes iff ``value <= bound``.  Every verdict is built here, with its bound:
``certify`` lists those of one run and ``uniqueness_probe`` returns its own.
Each is a pure function of a finished Trajectory, the whole record of its
march (initial state, stepping, table and source); only the probe marches again.

Convention: integrals use the column quadrature (`integrate_array`), the
gradient energy is the squared face seminorm (`grad_sq_array`) — the
discrete pairing the stepping scheme actually controls.

Each distinct state is evaluated once, as a row of ``Trajectory.values``:
the kernels are row-wise, and the steps past a fixed point, which repeat the
last row, add exactly 0.0 to the time-derivative energy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .constitutive import KirchhoffTable
from .grid import grad_sq_array, integrate_array, l2_norm, laplacian_array
from .stepper import StepConfig, Trajectory, _march, project_initial

__all__ = [
    "MAX_PRINCIPLE_TOL",
    "Check",
    "DiagnosticsError",
    "EnergyReport",
    "energy_report",
    "regularity_monitor",
    "uniqueness_probe",
    "max_principle_check",
    "initial_condition_check",
    "water_balance",
    "certify",
]

# Rows of Trajectory.values per block in energy_report and regularity_monitor.
# 128 rows amortize the per-call overhead of numpy and the table lookup as
# well as 512 do, with 3 MB less peak memory; the kernels never see a whole
# trajectory, since a sourced march can hold tens of thousands of states.
BLOCK_STATES = 128
_GUESS_PERTURBATION = 1.0e-3  # noise scale of uniqueness_probe's Newton guesses
# largest overshoot of the second-order model (gamma = 0) that passes
MAX_PRINCIPLE_TOL = 1.0e-8


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
    """Energy ledger under ``traj.stepping`` and ``traj.table``, which ``cfg`` and
    ``table.model`` must equal; a growth bound that overflows a float (from t = 704
    on the default problem) is refused, since an infinite bound certifies nothing."""
    step, col = traj.stepping, traj.column
    differ = [name for name, value in vars(step).items() if getattr(cfg, name) != value]
    if differ:
        raise DiagnosticsError(f"cfg: differs from traj.stepping in {', '.join(differ)}")
    if table.model != traj.table.model:
        raise DiagnosticsError("table: built from another model than traj.table")
    dz, b_int, grad_sq, lap_sq = col.dz, [], [], []
    for block in _blocks(traj.values):
        b_int.append(integrate_array(traj.table.legendre_B(block), dz))
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
        times=traj.times,
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


def uniqueness_probe(traj: Trajectory, seed: int = 0) -> Check:
    """Max L2 gap between a march and a guess-perturbed copy of it, against
    ``10 * newton_tol``.

    The copy marches ``traj.initial`` under ``traj.stepping``, ``traj.table``
    and ``traj.source``, adding standard normal noise (from ``seed``) times the
    fixed ``_GUESS_PERTURBATION`` = 1e-3 to every Newton initial guess; if the
    per-step root is unique within the basin, both land on the same states and
    the gap stays at solver tolerance.  A zero scale reproduces the march bitwise.
    """
    rng = np.random.default_rng(seed)
    col = traj.column
    steps = _march(traj.initial, traj.stepping, traj.table, traj.source,
                   guess=lambda system, it: system.start(
                       it.v + _GUESS_PERTURBATION * rng.standard_normal(col.n_cells)))
    next(steps)  # the projected initial state, the march's own
    gap = 0.0
    for row, (it, _, _) in zip(traj.rows[1:], steps):
        gap = max(gap, l2_norm(it.v - traj.values[row], col.dz))
    return Check("uniqueness", gap, 10.0 * traj.stepping.newton_tol)


def max_principle_check(traj: Trajectory) -> float:
    """Overshoot above the invariant ceiling max(max u0, 0).

    Zero (within solver noise) is mandatory for the second-order model;
    with the fourth-order term a positive value is the measured
    overshoot amplitude — reported, never asserted away.
    """
    ceiling = max(float(np.max(traj.values[0])), 0.0)
    return max(0.0, float(np.max(traj.values)) - ceiling)


def initial_condition_check(traj: Trajectory) -> float:
    """L2 distance of the stored initial state from ``project_initial(traj.initial)``."""
    return l2_norm(traj.values[0] - project_initial(traj.initial).values, traj.column.dz)


def water_balance(traj: Trajectory) -> Check:
    """Largest per-step water-balance defect, against ``length * newton_tol``
    plus the round-off of its own evaluation.

    Step n's defect is ``M_n = dz*sum(b(u^n) - b(u^(n-1)))/h + F_last - F_first
    - dz*sum(source(t_n))``, with F the flux through a wall face of ``u^n``:
    gravity (the face takes the adjacent node's K), the one-sided gradient
    against the wall value 0, and ``gamma`` times the gradient of ``lap`` with
    the mirror closure.  The interior fluxes telescope, so ``M_n = dz*sum(r^n)``
    for the step's residual r^n, at most ``length * newton_tol`` when Newton
    accepted it (``newton_tol`` sits above the residual's own round-off);
    steps past a fixed point repeat the last row and add one balance, at
    rate 0.  Evaluating M_n rounds by at most eps times
    ``(n_cells + 2)*dz*sum(|b^n| + |b^(n-1)| + h*|source|)/h`` for the sums
    and ``8*(|K| + |u|/dz + gamma*(4|u| + |u'|)/dz**3)`` over the two wall
    nodes (u) and their neighbours (u'); the bound adds the largest such
    term.  It tests against phi = 1 only: a defect that conserves water passes,
    for example one these wall fluxes share with the scheme.
    """
    col, step = traj.column, traj.stepping
    dz, gamma, eps = col.dz, step.gamma, np.finfo(float).eps
    tail = [traj.values[[-1, -1]]] if len(traj.values) <= traj.n_steps else []
    defects, roundoff, n = [], [], 1  # n: the step of a block's second row
    for block in itertools.chain(_blocks(traj.values, overlap=1), tail):
        b, k = traj.table.all_channels(block)[:2]
        u, k, lap = block[1:], k[1:], laplacian_array(block[1:], dz)
        rate = dz * np.sum(b[1:] - b[:-1], axis=-1) / step.h
        size = dz * np.sum(np.abs(b[1:]) + np.abs(b[:-1]), axis=-1) / step.h
        if traj.source is not None:
            src = np.array([traj.source(t) for t in traj.times[n:n + len(u)]])
            rate -= dz * np.sum(src, axis=-1)
            size += dz * np.sum(np.abs(src), axis=-1)
        ends = u[:, 0] + u[:, -1]
        flux = (col.gravity_sign * (k[:, -1] - k[:, 0]) + ends / dz
                + gamma * (2.0 * ends / dz**2 - lap[:, 0] - lap[:, -1]) / dz)
        defects.append(np.abs(rate + flux))
        ends, near = np.abs(u[:, [0, -1]]), np.abs(u[:, [1, -2]])
        roundoff.append(eps * ((col.n_cells + 2) * size + 8.0 * np.sum(
            np.abs(k[:, [0, -1]]) + ends / dz + gamma * (4.0 * ends + near) / dz**3,
            axis=-1)))
        n += len(u)
    bound = col.length * step.newton_tol + float(np.max(np.concatenate(roundoff)))
    return Check("water-balance", float(np.max(np.concatenate(defects))), bound)


def certify(traj: Trajectory) -> Tuple[Check, ...]:
    """Every per-run verdict on ``traj``, each with its bound, in the order
    ``diagnose`` prints them: the energy inequality, the growth bound, the
    initial state (against 1e-12), the water balance and, at ``gamma = 0``,
    the maximum principle (against ``MAX_PRINCIPLE_TOL``)."""
    report = energy_report(traj, traj.stepping, traj.table)
    checks = (report.energy_inequality(), report.gronwall(),
              Check("initial-condition", initial_condition_check(traj), 1.0e-12),
              water_balance(traj))
    if traj.stepping.gamma == 0.0:
        checks += (Check("max-principle", max_principle_check(traj), MAX_PRINCIPLE_TOL),)
    return checks
