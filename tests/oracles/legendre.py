"""Adaptive-quadrature reference for the convex potential B.

Cross-checks the tabulated ``KirchhoffTable.legendre_B`` and exercises the
construction with injected monotone functions.  Nothing in the solver
uses it, so it lives with the other test oracles.
"""

from scipy.integrate import quad


def legendre_transform(b, z: float, tol: float = 1.0e-12) -> float:
    """Potential ``B(z) = integral_0^z (b(z) - b(s)) ds`` for a callable b."""
    bz = float(b(z))
    val, err = quad(lambda s: bz - float(b(s)), 0.0, z, epsabs=tol, epsrel=tol, limit=200)
    return val
