"""The dense reference step: the stepper's backward-difference Newton scheme
assembled with explicit loops over full matrices and solved by dense
factorization, sharing no assembly code with the banded path, and the
loop-built Laplacian and biharmonic it rests on.  Agreement with the
march's banded step (``oracles.banded.banded_step``) is the
dual-implementation contract.  Nothing in the solver uses them, so they live
with the other test oracles; only the iteration cap and the growth cap come
from the stepper, and failure is reported as the harness does.
"""

from typing import Optional, Tuple

import numpy as np

from kirchflow.constitutive import KirchhoffTable
from kirchflow.grid import Column, Field
from kirchflow.harness import HarnessError
from kirchflow.stepper import _GROWTH_CAP, _MAX_ITER, StepConfig


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
    dense factorization.  Each iterate takes the full step, clamped at the
    table's lowest knot; only the iteration cap and the growth cap that calls a
    step divergent come from ``stepper``.  Agreement with the march's banded
    step (``oracles.banded.banded_step``) to 100*newton_tol is the
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
    floor = table.u_samples[0]
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
    rnorm = best = float(np.max(np.abs(r)))
    for _ in range(_MAX_ITER):
        if rnorm <= cfg.newton_tol:
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
        v = np.maximum(v + delta, floor)
        r = dense_residual(v)
        rnorm = float(np.max(np.abs(r)))
        cap = max(_GROWTH_CAP * best, cfg.newton_tol)
        if not (np.isfinite(rnorm) and rnorm <= cap):
            raise HarnessError(f"dense reference Newton diverged: residual {rnorm:.3e}")
        best = min(best, rnorm)
    if rnorm <= cfg.newton_tol:
        return Field(v, col)
    raise HarnessError(f"dense reference Newton did not converge: residual {rnorm:.3e}")
