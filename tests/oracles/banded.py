"""Dense expansion of banded matrices, for checking banded assembly against
dense references.  Nothing in the solver uses it, so it lives with the other
test oracles.
"""

import numpy as np


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
