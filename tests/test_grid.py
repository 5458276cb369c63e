"""Column grid, clamped operator kernels, quadrature, and banded assembly."""

import numpy as np
import pytest

from kirchflow.grid import (
    Column,
    Field,
    GridError,
    banded,
    biharmonic_array,
    face_values,
    gravity_divergence_array,
    grad_sq_array,
    integrate_array,
    l2_norm,
    laplacian_array,
)
from oracles.banded import banded_from_dense, dense_from_banded
from oracles.dense import _dense_operators


# ---------------------------------------------------------------------------
# geometry and field validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_cells": 10, "length": 0.0},
        {"n_cells": 10, "length": -1.0},
        {"length": 1.0, "n_cells": 4},
        {"length": 1.0, "n_cells": 10, "gravity_sign": 0.5},
        {"length": 1.0, "n_cells": 10, "gravity_sign": 0.0},
        {"length": 1.0, "n_cells": float("inf")},
        {"length": 1.0, "n_cells": float("nan")},
        {"length": 1.0, "n_cells": 50.0},
        {"length": 1e80},  # dz**4 overflows
        {"length": 1e-100},  # dz**4 underflows to 0.0
    ],
)
def test_invalid_column_rejected(kwargs):
    # the error names the offending field, the last key of each case
    with pytest.raises(GridError, match=f"^{list(kwargs)[-1]}: "):
        Column(**kwargs)


def test_column_layout():
    col = Column(length=2.0, n_cells=7)
    assert col.dz == pytest.approx(0.25)
    z = col.nodes()
    assert z.shape == (7,)
    assert z[0] > 0.0 and z[-1] < col.length
    assert np.allclose(np.diff(z), col.dz)


def test_field_validation():
    col = Column(length=1.0, n_cells=5)
    with pytest.raises(GridError):
        Field(np.zeros(4), col)
    with pytest.raises(GridError):
        Field(np.array([0.0, 1.0, np.nan, 0.0, 0.0]), col)
    src = np.ones(5)
    f = Field(src, col)
    src[0] = 99.0
    assert f.values[0] == 1.0  # snapshot, not a view
    with pytest.raises(ValueError):
        f.values[0] = 0.0  # read-only


def test_field_compares_and_hashes_by_identity():
    # a generated __eq__ would compare the value arrays and raise, and a
    # generated __hash__ would hash them and raise
    col = Column(length=1.0, n_cells=200)
    field, twin = Field(np.zeros(200), col), Field(np.zeros(200), col)
    assert field == field and field != twin and not (field == twin)
    assert hash(field) != hash(twin)
    assert len({field, twin, field}) == 2


# ---------------------------------------------------------------------------
# operator exactness
# ---------------------------------------------------------------------------


def _dyadic_column(n_plus_1=64):
    # power-of-two spacing makes polynomial stencil identities bit-exact
    return Column(length=1.0, n_cells=n_plus_1 - 1)


def test_laplacian_zero_field():
    col = Column(length=1.0, n_cells=9)
    out = laplacian_array(np.zeros(col.n_cells), col.dz)
    assert np.all(out == 0.0)


def test_laplacian_exact_on_quadratic():
    col = _dyadic_column()
    z = col.nodes()
    out = laplacian_array(z * z, col.dz)
    # z^2 vanishes at the left wall, so every row but the last is exact
    assert np.all(out[:-1] == 2.0)


def test_biharmonic_zero_field():
    col = Column(length=1.0, n_cells=9)
    out = biharmonic_array(np.zeros(col.n_cells), col.dz)
    assert np.all(out == 0.0)


def test_biharmonic_exact_on_quartic():
    col = _dyadic_column()
    z = col.nodes()
    z2 = z * z
    out = biharmonic_array(z2 * z2, col.dz)
    # z^4 is even about the left wall with zero wall value: rows exact
    # until the stencil reaches the right wall
    assert np.all(out[:-2] == 24.0)


def _max_err_laplacian(n):
    col = Column(length=1.0, n_cells=n)
    z = col.nodes()
    k = np.pi / col.length
    f = np.sin(k * z)
    return np.max(np.abs(laplacian_array(f, col.dz) + k * k * np.sin(k * z)))


def _max_err_biharmonic(n):
    # (1 - cos(2 pi z / L))/2 satisfies the full clamped set at both walls
    col = Column(length=1.0, n_cells=n)
    z = col.nodes()
    k = 2.0 * np.pi / col.length
    f = 0.5 * (1.0 - np.cos(k * z))
    exact = -0.5 * k ** 4 * np.cos(k * z)
    return np.max(np.abs(biharmonic_array(f, col.dz) - exact))


@pytest.mark.parametrize("err_fn", [_max_err_laplacian, _max_err_biharmonic])
def test_operator_convergence_order(err_fn):
    sizes = [31, 63, 127, 255]  # dz halves at each step
    errs = [err_fn(n) for n in sizes]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)


def test_biharmonic_is_squared_laplacian_plus_corners():
    col = Column(length=1.0, n_cells=40)
    z = col.nodes()
    f = np.sin(np.pi * z / col.length)
    twice = laplacian_array(laplacian_array(f, col.dz), col.dz)
    bih = biharmonic_array(f, col.dz)
    scale = np.max(np.abs(bih))
    inner = np.abs(bih[1:-1] - twice[1:-1])
    assert np.max(inner) <= 1e-12 * scale
    cushion = 2.0 / col.dz ** 4
    assert bih[0] - twice[0] == pytest.approx(cushion * f[0], rel=1e-12)
    assert bih[-1] - twice[-1] == pytest.approx(cushion * f[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------


def test_integrate_constants():
    col = Column(length=3.0, n_cells=17)
    assert integrate_array(np.ones(17), col.dz) == pytest.approx(3.0, abs=1e-14)
    assert integrate_array(np.zeros(17), col.dz) == 0.0


def test_integrate_sine_second_order():
    def err(n):
        col = Column(length=1.0, n_cells=n)
        f = np.sin(np.pi * col.nodes())
        return abs(integrate_array(f, col.dz) - 2.0 / np.pi)

    e1, e2 = err(40), err(81)  # dz halves
    assert e1 / e2 > 3.5


def test_l2_norm_of_one():
    col = Column(length=2.0, n_cells=30)
    assert l2_norm(np.ones(30), col.dz) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert l2_norm(np.zeros(30), col.dz) == 0.0


def test_h1_seminorm_sine():
    def err(n):
        col = Column(length=1.0, n_cells=n)
        f = np.sin(np.pi * col.nodes())
        return abs(grad_sq_array(f, col.dz) - np.pi ** 2 / 2.0)

    assert grad_sq_array(np.zeros(9), Column(length=1.0, n_cells=9).dz) == 0.0
    e1, e2 = err(40), err(81)
    assert e1 / e2 > 3.5


def test_pairing_identity_is_h1_seminorm():
    # dz * sum(u * (-lap u)) == grad_sq exactly: the discrete integration
    # by parts that the energy bookkeeping depends on
    col = Column(length=1.5, n_cells=33)
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = rng.standard_normal(33)
        pair = col.dz * float(np.sum(f * -laplacian_array(f, col.dz)))
        assert pair == pytest.approx(grad_sq_array(f, col.dz), rel=1e-12)


# ---------------------------------------------------------------------------
# banded assembly, symmetry, coercivity
# ---------------------------------------------------------------------------


def test_banded_matrices_match_operators():
    # three implementations, one set of bits: the bands probed off the
    # kernels, the kernels applied to unit vectors, and the dense oracle's
    # loop-built operators
    for n in (5, 6, 7, 13, 200):
        for length in (1.0, 1.3):
            col = Column(length=length, n_cells=n)
            lap, bih = _dense_operators(col)
            for kernel, width, dense in ((laplacian_array, 1, lap),
                                         (biharmonic_array, 2, bih)):
                ab = banded(lambda v: kernel(v, col.dz), n, width)
                assert ab.tobytes() == banded_from_dense(dense, width, width).tobytes()
                assert kernel(np.eye(n), col.dz).T.tobytes() == dense.tobytes()


@pytest.mark.parametrize("kernel,width", [(laplacian_array, 1), (biharmonic_array, 2)])
def test_assembled_matrices_symmetric(kernel, width):
    col = Column(length=1.0, n_cells=25)
    mat = dense_from_banded(banded(lambda v: kernel(v, col.dz), 25, width), width, width)
    assert np.max(np.abs(mat - mat.T)) <= 1e-14 * np.max(np.abs(mat))


def test_discrete_coercivity_random_fields():
    col = Column(length=1.0, n_cells=40)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        f = rng.standard_normal(40)
        lap_pair = integrate_array(f * -laplacian_array(f, col.dz), col.dz)
        bih_pair = integrate_array(f * biharmonic_array(f, col.dz), col.dz)
        assert lap_pair >= 0.0
        assert bih_pair >= 0.0


# ---------------------------------------------------------------------------
# gravity flux divergence
# ---------------------------------------------------------------------------


def test_gravity_divergence_constant_field(table):
    col = Column(length=1.0, n_cells=11, gravity_sign=-1.0)
    f = np.full(11, -0.05)
    out = gravity_divergence_array(table.all_channels(f)[1], col.dz, col.gravity_sign)
    assert np.max(np.abs(out)) == 0.0


def test_gravity_divergence_saturated_plateau(table):
    # u >= 0 -> unit conductivity everywhere -> divergence-free flux
    col = Column(length=1.0, n_cells=11)
    z = col.nodes()
    f = z * (1.0 - z)
    out = gravity_divergence_array(table.all_channels(f)[1], col.dz, col.gravity_sign)
    assert np.max(np.abs(out)) == 0.0


def test_gravity_divergence_matches_face_formula(table):
    col = Column(length=1.0, n_cells=21, gravity_sign=-1.0)
    f = -0.01 - 0.19 * col.nodes()  # wet-band ramp
    k = table.all_channels(f)[1]
    faces = np.concatenate([[k[0]], 0.5 * (k[:-1] + k[1:]), [k[-1]]])
    expected = col.gravity_sign * (faces[1:] - faces[:-1]) / col.dz
    out = gravity_divergence_array(k, col.dz, col.gravity_sign)
    assert np.allclose(out, expected, rtol=0, atol=1e-14)
    assert np.allclose(face_values(k), faces)


def test_gravity_divergence_telescoping(table):
    col = Column(length=1.0, n_cells=37, gravity_sign=-1.0)
    rng = np.random.default_rng(11)
    vals = -0.01 - 0.19 * rng.random(37)
    k = table.all_channels(vals)[1]
    out = gravity_divergence_array(k, col.dz, col.gravity_sign)
    faces = face_values(k)
    flux = col.gravity_sign * faces
    assert col.dz * out.sum() == pytest.approx(flux[-1] - flux[0], abs=1e-12)


def test_gravity_jacobian_matches_difference_quotient(table):
    col = Column(length=1.0, n_cells=9, gravity_sign=-1.0)
    base = -0.01 - 0.19 * np.linspace(0.1, 0.9, 9)
    # gravity is linear in K: its bands times K' are the Jacobian in u
    grav_ab = banded(lambda k: gravity_divergence_array(k, col.dz, col.gravity_sign),
                     9, 1)
    jac = dense_from_banded(grav_ab * table.all_channels(base)[3], 1, 1)
    eps = 1e-6
    for j in range(9):
        up, dn = base.copy(), base.copy()
        up[j] += eps
        dn[j] -= eps
        col_fd = (
            gravity_divergence_array(table.all_channels(up)[1], col.dz, col.gravity_sign)
            - gravity_divergence_array(table.all_channels(dn)[1], col.dz,
                                       col.gravity_sign)
        ) / (2 * eps)
        assert np.allclose(jac[:, j], col_fd, rtol=0, atol=1e-6)


def test_dense_from_banded_layout():
    ab = np.zeros((3, 4))
    ab[0, 1:] = [12.0, 23.0, 34.0]  # superdiagonal
    ab[1] = [11.0, 22.0, 33.0, 44.0]
    ab[2, :-1] = [21.0, 32.0, 43.0]  # subdiagonal
    m = dense_from_banded(ab, 1, 1)
    assert m[0, 0] == 11.0 and m[0, 1] == 12.0
    assert m[2, 1] == 32.0 and m[3, 3] == 44.0 and m[0, 2] == 0.0
