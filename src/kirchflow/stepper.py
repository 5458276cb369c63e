"""Implicit backward-difference stepping of the transformed equation.

Each step solves the nodal system

    (b(u_new) - b(u_old))/h + div(K(u_new) g e3) - lap(u_new)
        + gamma * bih(u_new) = source

by damped Newton iteration on the banded Jacobian

    diag(b'(u_new)/h) + d(gravity flux)/du - lap + gamma * bih,

with pentadiagonal bandwidth, one LAPACK ``dgbsv`` factor-and-solve per
iterate, and a backtracking line search on the sup-norm of the residual.
Acceptance is deliberately non-monotone (bounded by a fixed growth cap over
the best norm seen): crossing a joint of the piecewise constitutive curves often
bumps the residual up for one iterate before quadratic collapse, and a
strict-decrease rule stalls there.  Iterates are clamped to stay
strictly above the invertible floor of the transform table, which
doubles as the domain-recovery damping: a trial step that would leave
the domain is projected back and then judged like any other trial.

The step size is guarded at construction by ``h <= 1/beta`` with the
growth constant ``beta`` of the constitutive package; the energy
estimates are unconditional only under that restriction, so a config
violating it is refused rather than warned about.

The gravity block is linearized exactly (the conductivity channel and its
tabulated derivative), giving quadratic local convergence.  The iteration
cap, the line-search factor and the growth cap are module constants: they
choose how the root is found, not which root, so they are not settings.

Newton runs on plain arrays: the banded ``-lap + gamma * bih`` parts are
built once per run, and an iterate costs one table lookup and one LAPACK
call.  The residual reads ``b``, ``K``, ``b'`` and ``K'`` through one lookup
and hands the slopes on to the Newton matrix, which is assembled straight
into the band storage of ``dgbsv``, the routine ``scipy.linalg.solve_banded``
calls, on the same input.  ``b(u_old)`` is carried over from the previous
accepted iterate, and only accepted states become ``Field``s.  ``residual``
and ``jacobian`` (in ``solve_banded`` layout) are the ``Field`` entry points
to the same arithmetic, bit for bit.

``dgbsv`` is bound from scipy's compiled LAPACK module, loaded by file: the
``scipy.linalg`` package import would also load ``numpy.f2py``,
``numpy.testing`` and ``numpy.random`` through its array-API layer, about
0.3 s of every fresh process, for the same routine object.

A sourceless step is a pure function of its input values and ``b``: once one
returns its input byte for byte, so would every later step, so ``run`` stops
there and the tail of ``Trajectory.states`` is one shared, read-only ``Field``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy

from .constitutive import KirchhoffTable
from .grid import (
    Column, Field, biharmonic_array, biharmonic_banded, gravity_divergence_array,
    gravity_jacobian_array, laplacian_array, laplacian_banded,
)

__all__ = [
    "StepConfigError",
    "NonconvergenceError",
    "StepConfig",
    "Trajectory",
    "check_timestep",
    "project_initial",
    "residual",
    "jacobian",
    "step",
    "run",
]


def _load_flapack():
    """scipy's LAPACK extension module, loaded from its file without running
    ``scipy/linalg/__init__.py``."""
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"{name} not found in scipy {scipy.__version__}", name=name)
    known = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:
        # CPython files the extension under its name by itself; left there, a
        # later ``import scipy.linalg`` would not set its ``_flapack`` attribute
        del sys.modules[name]
    return module


dgbsv = _load_flapack().dgbsv

_MAX_ITER = 30
_DAMPING = 0.5  # line-search step shrink factor
_BACKTRACK_LIMIT = 50
# iterate-to-iterate residual growth allowed before the line search calls
# the step divergent; joint crossings measure ~10x, blowups grow without
# bound, so three decades separates them cleanly
_GROWTH_CAP = 1.0e3


class StepConfigError(ValueError):
    """Invalid stepping parameters (including the h <= 1/beta guard)."""


class NonconvergenceError(RuntimeError):
    """Newton failed to reach the residual tolerance."""

    def __init__(self, message: str, step_index: Optional[int] = None,
                 residual_norm: Optional[float] = None):
        super().__init__(message)
        self.step_index = step_index
        self.residual_norm = residual_norm


def check_timestep(h: float, beta: float) -> bool:
    """Accept h iff h <= 1/beta (inclusive at the boundary)."""
    return 0.0 < h <= 1.0 / beta


@dataclass(frozen=True)
class StepConfig:
    """Step, fourth-order weight, horizon and Newton tolerance of a march.

    ``beta`` is the growth constant of the constitutive package
    (``table.beta_bound()``); construction refuses ``h > 1/beta``.  This is
    the one place these constraints are checked; a violation is reported as
    ``"<field>: <constraint> (got <value>)"``.
    """

    h: float
    gamma: float = 0.1
    t_end: float = 1.0
    newton_tol: float = 1.0e-10
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.h) and self.h > 0.0):
            raise StepConfigError(f"h: must be positive (got {self.h!r})")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise StepConfigError(f"beta: must be positive (got {self.beta!r})")
        if not check_timestep(self.h, self.beta):
            raise StepConfigError(
                f"h: violates h <= 1/beta (beta = {self.beta}) (got {self.h!r})"
            )
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise StepConfigError(f"gamma: must be >= 0 (got {self.gamma!r})")
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise StepConfigError(f"t_end: must be positive (got {self.t_end!r})")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise StepConfigError(
                f"newton_tol: must be positive (got {self.newton_tol!r})"
            )

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_end / self.h - 1.0e-12))


@dataclass(frozen=True)
class Trajectory:
    """Accepted states u^0..u^N with per-step solver bookkeeping; after a
    fixed point (see ``run``) consecutive states are one shared object."""

    times: np.ndarray
    states: Tuple[Field, ...]
    newton_iters: Tuple[int, ...]
    residual_norms: Tuple[float, ...]

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float, copy=True)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1


def project_initial(u0: Field) -> Field:
    """Initial state as the scheme sees it.

    Nodal values with the two boundary-adjacent entries zeroed — the
    finite-difference stand-in for projecting onto the clamped space.
    The difference from the raw samples is O(dz^2) for data compatible
    with the wall conditions.
    """
    vals = u0.values.copy()
    vals[0] = 0.0
    vals[-1] = 0.0
    return Field(vals, u0.column)


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------


class _System:
    """One march's Newton system on plain arrays, with its run constants."""

    def __init__(self, col: Column, cfg: StepConfig, table: KirchhoffTable):
        self.cfg, self.table, self.dz, self.sign = cfg, table, col.dz, col.gravity_sign
        self.lap_ab = laplacian_banded(col)
        self.bih_ab = cfg.gamma * biharmonic_banded(col) if cfg.gamma != 0.0 else None
        self.floor = table.u_lower + 2.0 * table.margin  # strictly invertible band

    def residual(
        self, v: np.ndarray, b_old: np.ndarray, source: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual at the trial values ``v``, ``b(v)`` for reuse, and the
        slopes ``(b'(v), K'(v))`` the Newton matrix at ``v`` is built from."""
        cfg = self.cfg
        channels = self.table.all_channels(v)
        b, k = channels[0], channels[1]
        out = (b - b_old) / cfg.h
        out = out + gravity_divergence_array(k, self.dz, self.sign)
        out = out - laplacian_array(v, self.dz)
        if cfg.gamma != 0.0:
            out = out + cfg.gamma * biharmonic_array(v, self.dz)
        if source is not None:
            out = out - source
        return out, b, channels[2:]

    def jacobian(self, slopes) -> np.ndarray:
        """Newton matrix from the slopes ``(b', K')`` in ``dgbsv``'s Fortran
        ``(7, n)`` band storage: rows ``2:`` in ``solve_banded`` layout, rows
        ``:2`` left for the factorization's fill-in."""
        b_prime, dk = slopes
        lu = np.zeros((dk.shape[0], 7)).T
        # the run constants are added term by term as they always were:
        # summing them ahead of time would round differently
        ab = lu[2:]
        ab[2] += b_prime / self.cfg.h
        ab[1:4] -= self.lap_ab
        if self.bih_ab is not None:
            ab += self.bih_ab
        ab[1:4] += gravity_jacobian_array(dk, self.dz, self.sign)
        return lu


def residual(
    u_new: Field,
    u_old: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    source: Optional[np.ndarray] = None,
) -> Field:
    """Nodal backward-difference residual at the trial state ``u_new``.

    Zero residual characterizes an accepted step.  Raises the table's
    OutOfRangeError when a value is outside the transform domain.
    """
    src = None if source is None else np.asarray(source, dtype=float)
    system = _System(u_new.column, cfg, table)
    out, _, _ = system.residual(u_new.values, table.b_of_u(u_old.values), src)
    return Field(out, u_new.column)


def jacobian(u_new: Field, cfg: StepConfig, table: KirchhoffTable) -> np.ndarray:
    """Banded Newton matrix in solve_banded layout, bandwidth (2, 2).

    Built from the same table channels as the residual (capacity floor
    and tabulated conductivity derivative), so the finite-difference
    directional derivative of ``residual`` matches it wherever the
    capacity floor is inactive.
    """
    slopes = table.jacobian_channels(u_new.values)
    return _System(u_new.column, cfg, table).jacobian(slopes)[2:]


# ---------------------------------------------------------------------------
# Newton solve
# ---------------------------------------------------------------------------


def _newton(system: _System, b_old: np.ndarray, guess: np.ndarray,
            source: Optional[np.ndarray], step_index: Optional[int]
            ) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Accepted values, their ``b``, the iteration count and the residual norm."""
    cfg = system.cfg
    where = "" if step_index is None else f" (step {step_index})"
    v = np.maximum(guess, system.floor)
    r, b, slopes = system.residual(v, b_old, source)
    rnorm = float(np.max(np.abs(r)))
    if not np.isfinite(rnorm):
        raise NonconvergenceError(f"residual not finite{where}", step_index, rnorm)
    best = rnorm
    for it in range(_MAX_ITER):
        if rnorm <= cfg.newton_tol:
            return v, b, it, rnorm
        _, _, delta, info = dgbsv(2, 2, system.jacobian(slopes), -r,
                                  overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise NonconvergenceError(f"banded factorization failed (LAPACK info "
                                      f"{info}){where}", step_index, rnorm)
        lam = 1.0
        for _ in range(_BACKTRACK_LIMIT):
            cand = np.maximum(v + lam * delta, system.floor)
            cand_r, cand_b, cand_slopes = system.residual(cand, b_old, source)
            cand_norm = float(np.max(np.abs(cand_r)))
            if np.isfinite(cand_norm) and cand_norm <= max(
                _GROWTH_CAP * best, cfg.newton_tol
            ):
                v, r, rnorm, b, slopes = cand, cand_r, cand_norm, cand_b, cand_slopes
                best = min(best, cand_norm)
                break
            lam *= _DAMPING
        else:
            raise NonconvergenceError(
                f"line search stalled at residual {rnorm:.3e}{where}", step_index, rnorm
            )
    if rnorm <= cfg.newton_tol:
        return v, b, _MAX_ITER, rnorm
    raise NonconvergenceError(
        f"no convergence in {_MAX_ITER} Newton iterations: "
        f"residual {rnorm:.3e} > tol {cfg.newton_tol:.3e}{where}",
        step_index,
        rnorm,
    )


def step(
    u_old: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    initial_guess: Optional[Field] = None,
    source: Optional[np.ndarray] = None,
) -> Field:
    """One accepted backward-difference step (sup-norm residual <= tol)."""
    guess = u_old if initial_guess is None else initial_guess
    src = None if source is None else np.asarray(source, dtype=float)
    system = _System(u_old.column, cfg, table)
    v, _, _, _ = _newton(system, table.b_of_u(u_old.values), guess.values, src, None)
    return Field(v, u_old.column)


def run(
    u0: Field,
    cfg: StepConfig,
    table: KirchhoffTable,
    source: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
) -> Trajectory:
    """March N = ceil(t_end/h) steps from the projected initial state.

    ``source(t, z)`` — when given — is evaluated at each step's target
    time (fully implicit right side, used by the manufactured-solution
    studies).  Solver failures carry the failing step index.  A sourceless
    step that returns its input values and ``b`` byte for byte is a fixed
    point: later steps repeat its ``Field``, iteration count and norm.
    """
    col = u0.column
    state = project_initial(u0)
    system = _System(col, cfg, table)
    times = cfg.h * np.arange(cfg.n_steps + 1)
    states, iters, norms = [state], [], []
    z = col.nodes()
    v = state.values
    b = table.b_of_u(v)  # b(u_old), carried over from each accepted iterate
    for k in range(1, cfg.n_steps + 1):
        src = None if source is None else np.asarray(source(times[k], z), dtype=float)
        key = v.tobytes() + b.tobytes()
        v, b, n_it, rnorm = _newton(system, b, v, src, k)
        if source is None and v.tobytes() + b.tobytes() == key:
            tail = cfg.n_steps + 1 - k
            states += [states[-1]] * tail
            iters += [n_it] * tail
            norms += [rnorm] * tail
            break
        states.append(Field(v, col))
        iters.append(n_it)
        norms.append(rnorm)
    return Trajectory(
        times=times,
        states=tuple(states),
        newton_iters=tuple(iters),
        residual_norms=tuple(norms),
    )
