"""Conversions between dense and banded matrices, for checking banded
assembly against dense references, the stepper's Newton system evaluated at
one state, one banded Newton step from a given state, and that system
assembled term by term from the kernels and the dense oracle's loop-built
operators, the order oracle for the stepper's evaluated iterates and per-run
matrix template.  Nothing in the solver uses any of them, so they live with
the other test oracles.
"""

import numpy as np

from kirchflow import stepper
from kirchflow.grid import (
    Field, biharmonic_array, gravity_divergence_array, laplacian_array,
)
from oracles.dense import _dense_operators


def dense_from_banded(ab: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Expand a solve_banded-layout matrix to dense."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    for d in range(-lower, upper + 1):
        row = upper - d
        if d >= 0:
            out[np.arange(n - d), np.arange(d, n)] = ab[row, d:]
        else:
            out[np.arange(-d, n), np.arange(n + d)] = ab[row, : n + d]
    return out


def banded_from_dense(a: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Pack the bands of a dense matrix in solve_banded layout."""
    n = a.shape[0]
    ab = np.zeros((lower + upper + 1, n))
    for d in range(-lower, upper + 1):
        ab[upper - d, max(d, 0): n + min(d, 0)] = np.diagonal(a, d)
    return ab


def newton_system(u_new, u_old, cfg, table, source=None):
    """The march's residual at ``u_new`` for a step from ``u_old``, and its
    Newton matrix at ``u_new`` in solve_banded layout, bandwidth (2, 2)."""
    system = stepper._System(u_new.column, cfg, table)
    it = system.evaluate(u_new.values)
    r = system.residual(it, table.b_of_u(u_old.values), source)
    return r, system.jacobian(it)[2:]


def banded_step(u_old, cfg, table, initial_guess=None, source=None):
    """One accepted step of the march's banded Newton solver from ``u_old``:
    ``u_old`` evaluated as it is (a state below the table is refused), Newton
    started there or from ``initial_guess`` clamped onto the table.  Started
    from ``project_initial(u0)``, it gives ``run``'s first state.  The
    stepper's ``_System``, ``_newton``, ``dgbsv`` and ``_MAX_ITER`` are read
    at call time, so patching them reaches this step too."""
    system = stepper._System(u_old.column, cfg, table)
    old = system.evaluate(u_old.values)
    guess = old if initial_guess is None else system.start(initial_guess.values)
    it, _, _ = stepper._newton(system, old.channels[0], guess, source, None)
    return Field(it.v, u_old.column)


def term_by_term_residual(v, b_old, col, cfg, table, source=None):
    """Residual of the scheme at ``v``, its terms added in the scheme's order:
    ``(b - b_old)/h``, ``+ grav``, ``- lap``, ``+ gamma * bih``, ``- source``."""
    channels = table.all_channels(v)
    out = (channels[0] - b_old) / cfg.h
    out = out + gravity_divergence_array(channels[1], col.dz, col.gravity_sign)
    out = out - laplacian_array(v, col.dz)
    if cfg.gamma != 0.0:
        out = out + cfg.gamma * biharmonic_array(v, col.dz)
    if source is not None:
        out = out - source
    return out


def term_by_term_jacobian(v, col, cfg, table):
    """Newton matrix at ``v`` in ``dgbsv``'s Fortran ``(7, n)`` band storage,
    each term added into a zero matrix in turn: ``b'/h``, ``- lap``,
    ``+ gamma * bih``, ``+`` the gravity bands."""
    b_prime, dk = table.all_channels(v)[2:]
    lap, bih = _dense_operators(col)
    lu = np.zeros((col.n_cells, 7)).T
    ab = lu[2:]
    ab[2] += b_prime / cfg.h
    ab[1:4] -= banded_from_dense(lap, 1, 1)
    if cfg.gamma != 0.0:
        ab += cfg.gamma * banded_from_dense(bih, 2, 2)
    g = col.gravity_sign / (2.0 * col.dz)
    ab[1, 1:] += g * dk[1:]      # superdiagonal: +K'(u_{i+1})/(2 dz)
    ab[3, :-1] -= g * dk[:-1]    # subdiagonal:   -K'(u_{i-1})/(2 dz)
    ab[2, 0] -= g * dk[0]        # wall rows: mirror face follows the node
    ab[2, -1] += g * dk[-1]
    return lu
