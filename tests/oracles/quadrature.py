"""Certified adaptive quadrature, for cross-checking the tabulated transform
against direct integration.  Nothing in the solver uses it, so it lives with
the other test oracles; it still reports failure as the harness does.
"""

import warnings
from typing import Callable

from scipy.integrate import IntegrationWarning, quad

from kirchflow.harness import HarnessError


def quadrature_oracle(
    f: Callable[[float], float], a: float, b: float, tol: float = 1.0e-12
) -> float:
    """Adaptive integral of ``f`` over [a, b], certified to ``tol``.

    Raises HarnessError when the adaptive scheme cannot push its own
    error estimate below ``tol`` — a noisy or discontinuous integrand,
    not a reason to return a number anyway.
    """
    if tol < 1.0e-14:
        raise HarnessError(f"tolerance {tol!r} below certifiable precision")
    with warnings.catch_warnings():
        # a convergence warning undermines the error estimate itself, so
        # it counts as a certification failure, not console noise
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, estimate = quad(
                f, a, b, epsabs=0.1 * tol, epsrel=0.0, limit=200
            )
        except IntegrationWarning as exc:
            raise HarnessError(f"quadrature did not converge: {exc}") from exc
    if estimate > tol:
        raise HarnessError(
            f"quadrature error estimate {estimate:.3e} exceeds tol {tol:.3e}"
        )
    return value
