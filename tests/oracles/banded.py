"""Dense expansion of banded matrices, for checking banded assembly against
dense references, and the stepper's Newton system evaluated at one state.
Nothing in the solver uses either, so they live with the other test oracles.
"""

import numpy as np

from kirchflow.stepper import _System


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


def newton_system(u_new, u_old, cfg, table, source=None):
    """The march's residual at ``u_new`` for a step from ``u_old``, and its
    Newton matrix at ``u_new`` in solve_banded layout, bandwidth (2, 2)."""
    system = _System(u_new.column, cfg, table)
    r, _, slopes = system.residual(u_new.values, table.b_of_u(u_old.values), source)
    return r, system.jacobian(slopes)[2:]
