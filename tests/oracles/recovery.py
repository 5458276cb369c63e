"""Consistency instruments for the recovered physical fields.

``kirchflow.recovery.darcy_velocity`` is nodal — what you plot and export.
``face_velocity`` lives on the n+1 cell faces with the same mirror wall
closure as the operators; its difference quotient reproduces the
stepper's discrete operator terms identically, so the chain mass-rate +
flux-difference closes to the Newton tolerance and nothing else.  Keep
the distinction: the nodal field is for people, the face field is for
conservation arithmetic.

The mass-balance identity uses plain dz-sums (not the end-weighted
quadrature) because only the plain sum telescopes exactly.  Nothing in
the solver uses these checks, so they live with the other test oracles.
"""

import numpy as np

from kirchflow.constitutive import KirchhoffTable
from kirchflow.grid import Field, face_values, l2_norm, laplacian_array
from kirchflow.recovery import _nodal_gradient


def gradient_consistency(u: Field, table: KirchhoffTable) -> float:
    """Defect of the chain rule grad(p) = grad(u) / K(u), as an L2 norm.

    Vanishes identically on constants and on the saturated plateau and
    decays at second order on smooth profiles — a recovered pressure
    whose gradient disagrees with the transformed gradient at O(1)
    signals a broken inverse, not discretization error.
    """
    dz = u.column.dz
    p = table.kirchhoff_inverse(u.values)
    k = table.all_channels(u.values)[1]
    defect = _nodal_gradient(p, dz) - _nodal_gradient(u.values, dz) / k
    return l2_norm(defect, dz)


def face_velocity(u: Field, gamma: float, table: KirchhoffTable) -> np.ndarray:
    """Flux on the n+1 faces, conservative form.

    Wall faces use the mirror closure of the clamped operators — the
    wall-ghost Laplacian is 2*u_1/dz^2 — so the difference quotient of
    this array reproduces the stepper's operator terms exactly.
    """
    col = u.column
    dz = col.dz
    vals = u.values
    kbar = face_values(table.all_channels(vals)[1])
    grad = np.empty(vals.shape[0] + 1)
    grad[1:-1] = (vals[1:] - vals[:-1]) / dz
    grad[0] = vals[0] / dz
    grad[-1] = -vals[-1] / dz
    flux = col.gravity_sign * kbar - grad
    if gamma != 0.0:
        lap = laplacian_array(vals, dz)
        glap = np.empty_like(grad)
        glap[1:-1] = (lap[1:] - lap[:-1]) / dz
        glap[0] = (lap[0] - 2.0 * vals[0] / dz ** 2) / dz
        glap[-1] = (2.0 * vals[-1] / dz ** 2 - lap[-1]) / dz
        flux = flux + gamma * glap
    return flux


def mass_balance_residual(
    u_new: Field, u_old: Field, h: float, gamma: float, table: KirchhoffTable
) -> float:
    """Defect of mass rate + wall flux difference over one step.

    Plain dz-sum of the saturation rate plus the top/bottom face flux
    difference; bounded by length * newton_tol at an accepted step.
    """
    dz = u_new.column.dz
    db = table.all_channels(u_new.values)[0] - table.all_channels(u_old.values)[0]
    rate = dz * float(np.sum(db)) / h
    flux = face_velocity(u_new, gamma, table)
    return abs(rate + float(flux[-1] - flux[0]))
