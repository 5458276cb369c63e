"""Back-transformation from the solver variable to physical fields.

The solver marches the transformed variable u; physically meaningful
output is pressure ``p`` (inverse transform, identity on the saturated
branch), saturation ``S = b(u)``, and the flux

    v = K(u) * gravity_sign - grad(u) + gamma * grad(lap(u)),

the transformed statement of gravity-driven Darcy flow plus the
fourth-order regularizing correction.  ``darcy_velocity`` evaluates it at
the nodes (central differences, second-order one-sided at the walls):
what you plot and export.  The conservative face flux and the chain-rule
and mass-balance defects that check these fields are test instruments and
live with the test oracles.

Every field is read from the table, whose readers refuse a value below its
lowest knot, or NaN, with an ``OutOfRangeError`` that names the first
offending node as ``u[i]``.
"""

from __future__ import annotations

import numpy as np

from .constitutive import KirchhoffTable
from .grid import Field, laplacian_array

__all__ = [
    "pressure_field",
    "saturation_field",
    "darcy_velocity",
]


def _nodal_gradient(values: np.ndarray, dz: float) -> np.ndarray:
    """Central differences; second-order one-sided rows at the walls.

    One-sided ends keep constant fields exactly gradient-free and the
    whole stencil second-order, so downstream consistency measures
    converge at the interior rate.
    """
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dz)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dz)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dz)
    return out


def pressure_field(u: Field, table: KirchhoffTable) -> Field:
    """Nodewise inverse transform; p = u on the saturated branch.

    Raises OutOfRangeError naming the first offending node, as ``u[i]``,
    when a value lies below the table's lowest knot or is NaN.
    """
    return Field(table.kirchhoff_inverse(u.values), u.column)


def saturation_field(u: Field, table: KirchhoffTable) -> Field:
    """Transformed saturation b(u), in [s_res, 1]."""
    return Field(table.all_channels(u.values)[0], u.column)


def darcy_velocity(u: Field, gamma: float, table: KirchhoffTable) -> Field:
    """Nodal flux K(u)*g - grad(u) + gamma*grad(lap(u))."""
    dz = u.column.dz
    k = table.all_channels(u.values)[1]
    v = u.column.gravity_sign * k - _nodal_gradient(u.values, dz)
    v = v + gamma * _nodal_gradient(laplacian_array(u.values, dz), dz)
    return Field(v, u.column)
