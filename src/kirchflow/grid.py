"""One-dimensional column grid and clamped difference operators.

Interior nodes ``z_i = i*dz`` (``i = 1..n_cells``, ``dz = L/(n_cells+1)``)
carry the unknowns; both walls impose the clamped pair ``u = 0`` and
``du/dn = 0``.  The Laplacian row next to a wall therefore uses the wall
value zero, and the biharmonic rows use in addition the even-mirror ghost
``u(-dz) = u(dz)`` implied by the zero normal derivative, which shows up
as the ``7/dz^4`` corner entry.  Algebraically the biharmonic matrix is
the square of the Dirichlet Laplacian plus ``(2/dz^4)`` on each corner,
so it is symmetric positive definite on the clamped space.

Quadrature is the composite trapezoid over the interior nodes with each
wall cell integrated by the rectangle at its nearest node (end weights
``3*dz/2``); it is exact for constants, ``integrate_array(1) == length``,
and second-order on smooth integrands.  The squared H1 seminorm
``grad_sq_array`` is face-based — one squared difference quotient per face,
wall faces one-sided against the zero wall value — so it equals
``dz * sum(u * (-laplacian_array(u)))`` identically, the discrete
integration by parts the energy estimates rest on.

Gravity flux uses arithmetic face means of the conductivity, with each
wall face carrying the adjacent node's conductivity (same mirror rule as
the operators).  That choice makes the face-mean inequality
``sum(dz * K_face**2) <= integrate_array(K**2)`` exact term by term, which
the dissipation bookkeeping in the diagnostics relies on.

Each stencil lives once, as an array kernel (``*_array``) taking nodal
values along the last axis and the spacing ``dz``: the stepper's Newton
iteration runs on plain arrays, and the diagnostics pass stacked blocks
of states, one per row.  Matrices are not written out separately:
``banded`` reads the bands of a linear kernel off the kernel itself, by
probing, so the Newton matrix of the stepper holds the very numbers its
residual applies.  Gravity is linear in the conductivity, so its Jacobian
in ``u`` is ``banded(gravity) * K'`` with the bands scaled column by
column.  ``Field`` is the API type at the boundary; it has no operators of
its own, so callers hand its ``values`` and ``column.dz`` to the kernels.
Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridError",
    "Column",
    "Field",
    "laplacian_array",
    "biharmonic_array",
    "face_values",
    "gravity_divergence_array",
    "integrate_array",
    "grad_sq_array",
    "l2_norm",
    "banded",
]


class GridError(ValueError):
    """Invalid grid geometry or field data."""


@dataclass(frozen=True)
class Column:
    """Vertical column geometry.

    Parameters
    ----------
    length : float
        Domain depth (> 0), such that ``dz**4`` is a positive finite
        float: the biharmonic stencil divides by it.
    n_cells : int
        Number of interior nodes (>= 5 so the fourth-order stencil fits).
    gravity_sign : float
        Orientation of the vertical unit vector along the column axis,
        +1 or -1.  The sign convention is a modelling choice, so it is
        part of the run configuration rather than hard-coded.

    The defaults are the reference column and the run configuration's
    ``grid`` defaults.  A violated constraint raises ``GridError("<field>:
    <constraint> (got <value>)")``; the run configuration reports it under
    ``grid.``.
    """

    length: float = 1.0
    n_cells: int = 200
    gravity_sign: float = -1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise GridError(f"length: must be positive (got {self.length!r})")
        n = self.n_cells
        if not isinstance(n, numbers.Integral) or not 5 <= n <= 2**53:
            raise GridError(
                f"n_cells: needs an integer from 5 to 2**53 (got {n!r})"
            )
        try:
            quartic = float(self.dz) ** 4
        except OverflowError:
            quartic = math.inf
        if not 0.0 < quartic < math.inf:
            raise GridError(f"length: needs a positive finite dz**4 (got {self.length!r})")
        if self.gravity_sign not in (1.0, -1.0):
            raise GridError(
                f"gravity_sign: must be +1 or -1 (got {self.gravity_sign!r})"
            )

    @property
    def dz(self) -> float:
        return self.length / (self.n_cells + 1)

    def nodes(self) -> np.ndarray:
        """Interior node coordinates z_i = i*dz, i = 1..n_cells."""
        return self.dz * np.arange(1, self.n_cells + 1, dtype=float)


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal values on a column's interior nodes; a read-only snapshot.

    Fields compare and hash by identity; compare values with ``np.array_equal``.
    """

    values: np.ndarray
    column: Column

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1 or vals.shape[0] != self.column.n_cells:
            raise GridError(
                f"field needs {self.column.n_cells} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, column: Column) -> "Field":
        return cls(np.zeros(column.n_cells), column)


# ---------------------------------------------------------------------------
# array kernels; they index the transposed view (node index first), which
# keeps a single state on numpy's fast scalar path
# ---------------------------------------------------------------------------


def laplacian_array(u: np.ndarray, dz: float) -> np.ndarray:
    """Second difference with zero wall values.

    Exact on quadratics away from the walls; the wall rows use u = 0 at
    the boundary, which is exact for clamped data.
    """
    out = np.empty_like(u)
    o, v = out.T, u.T
    o[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    o[0] = -2.0 * v[0] + v[1]
    o[-1] = v[-2] - 2.0 * v[-1]
    return out / dz ** 2


def biharmonic_array(u: np.ndarray, dz: float) -> np.ndarray:
    """Fourth difference with the clamped (wall value + mirror) closure.

    Interior stencil (1, -4, 6, -4, 1)/dz^4, exact on quartics away from
    the walls.  Rows 1 and n fold in the ghost u(-dz) = u(dz), giving the
    corner entry 7/dz^4.
    """
    out = np.empty_like(u)
    o, v = out.T, u.T
    o[2:-2] = v[:-4] - 4.0 * v[1:-3] + 6.0 * v[2:-2] - 4.0 * v[3:-1] + v[4:]
    o[0] = 7.0 * v[0] - 4.0 * v[1] + v[2]
    o[1] = -4.0 * v[0] + 6.0 * v[1] - 4.0 * v[2] + v[3]
    o[-2] = v[-4] - 4.0 * v[-3] + 6.0 * v[-2] - 4.0 * v[-1]
    o[-1] = v[-3] - 4.0 * v[-2] + 7.0 * v[-1]
    return out / dz ** 4


def face_values(k: np.ndarray) -> np.ndarray:
    """Node means on the n_cells+1 faces; wall faces take the adjacent node."""
    out = np.empty(k.shape[0] + 1)
    out[0], out[-1] = k[0], k[-1]
    np.add(k[:-1], k[1:], out=out[1:-1])
    out[1:-1] *= 0.5
    return out


def gravity_divergence_array(k: np.ndarray, dz: float, sign: float) -> np.ndarray:
    """Divergence of the flux ``k * sign`` from nodal conductivities ``k``.

    Face-centered, so the plain ``dz * sum`` of the result telescopes to the
    difference of the two wall-face fluxes exactly.
    """
    flux = sign * face_values(k)
    return (flux[1:] - flux[:-1]) / dz


def integrate_array(u: np.ndarray, dz: float) -> np.ndarray:
    """Composite quadrature over [0, L] of each row; exact for constants."""
    return dz * (u.sum(axis=-1) + 0.5 * (u.T[0] + u.T[-1]))


def grad_sq_array(u: np.ndarray, dz: float) -> np.ndarray:
    """Squared face-based gradient norm of each row, wall faces one-sided.

    Satisfies dz * sum(u * (-laplacian_array(u))) == grad_sq_array(u)
    exactly (discrete integration by parts on the clamped space).
    """
    inner = np.sum((u[..., 1:] - u[..., :-1]) ** 2, axis=-1)
    return (inner + (u.T[0] * u.T[0] + u.T[-1] * u.T[-1])) / dz


def l2_norm(u: np.ndarray, dz: float) -> float:
    """Quadrature L2 norm of one state."""
    return float(np.sqrt(integrate_array(u ** 2, dz)))


# ---------------------------------------------------------------------------
# banded assembly
# ---------------------------------------------------------------------------


def banded(op: Callable[[np.ndarray], np.ndarray], n: int, width: int) -> np.ndarray:
    """Matrix of the linear kernel ``op`` on ``n`` nodes, read off by probing,
    as a ``(width, width)``-banded matrix in solve_banded layout.

    Probe ``j`` is 1 on every ``(2*width + 1)``-th node from node ``j``, so an
    output row within ``width`` of one probed node is beyond the reach of the
    others, and each entry read is one matrix entry times 1.0: the bands are
    the kernel's own numbers, exactly.
    """
    span = 2 * width + 1
    probes = np.arange(n) % span == np.arange(span)[:, None]
    outs = np.stack([op(p.astype(float)) for p in probes])
    ab = np.zeros((span, n))
    for d in range(-width, width + 1):  # entry (c + d, c) sits at ab[width + d, c]
        c = np.arange(max(0, -d), n - max(0, d))
        ab[width + d, c] = outs[c % span, c + d]
    return ab
