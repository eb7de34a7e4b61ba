"""Velocity discretizations, periodic stencils, and Fourier-mode algebra."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psilab
from psilab.discretize import (
    _wrap_pad,
    build_modal,
    build_nodal,
    build_xgrid,
    coefficient_from_name,
    fourier_mode,
    gauss_legendre_points,
)
from reference_kernels import dense_alpha, dense_beta, reference_stencils

# 4-point Gauss-Legendre nodes on [-1, 1], the nodal spectrum for a(v) = v
_GL4 = [0.8611363115940526, 0.3399810435848563, -0.3399810435848563, -0.8611363115940526]


def test_nodal_linear_spectrum_is_the_quadrature_nodes():
    vdisc = build_nodal(lambda v: v, gauss_legendre_points(4))
    np.testing.assert_allclose(vdisc.spectrum.eigenvalues, _GL4, atol=1e-13)


def test_nodal_square_spectrum():
    vdisc = build_nodal(lambda v: v**2, gauss_legendre_points(4))
    expect = sorted((np.asarray(_GL4) ** 2).tolist(), reverse=True)
    np.testing.assert_allclose(vdisc.spectrum.eigenvalues, expect, atol=1e-13)


@pytest.mark.parametrize("n_v", [1, 2, 4, 8])
def test_nodal_eigenvectors_diagonalize_coeff(n_v):
    vdisc = build_nodal(lambda v: v, gauss_legendre_points(n_v))
    vecs, vals = vdisc.spectrum.eigenvectors, vdisc.spectrum.eigenvalues
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(n_v), atol=1e-12)
    np.testing.assert_allclose(vdisc.coeff @ vecs, vecs @ np.diag(vals), atol=1e-12)
    # |A| shares the eigenvectors with |eigenvalue| on the diagonal
    np.testing.assert_allclose(
        vdisc.coeff_abs @ vecs, vecs @ np.diag(np.abs(vals)), atol=1e-12
    )


def test_modal_linear_matrix_is_legendre_tridiagonal():
    """a(v) = v in the orthonormal Legendre basis has the known off-diagonal
    n / sqrt(4n^2 - 1); the spectrum must match the nodal one."""
    vdisc = build_modal(lambda v: v, 4)
    expect = np.zeros((4, 4))
    for n in range(1, 4):
        expect[n - 1, n] = expect[n, n - 1] = n / np.sqrt(4.0 * n * n - 1.0)
    np.testing.assert_allclose(vdisc.coeff, expect, atol=1e-12)
    np.testing.assert_allclose(vdisc.spectrum.eigenvalues, _GL4, atol=1e-12)


def test_modal_square_diagonal_entries():
    # <P_n, v^2 P_n> = sum of squared couplings; sanity against quadrature
    vdisc = build_modal(lambda v: v**2, 3)
    np.testing.assert_allclose(np.diag(vdisc.coeff), [1 / 3, 3 / 5, 11 / 21], atol=1e-12)


@pytest.mark.parametrize("n_x", [3, 4, 8, 16, 64])
def test_stencils_are_circulant_and_antisymmetric(n_x):
    grid = build_xgrid(n_x)
    ma, mb = dense_alpha(grid), dense_beta(grid)
    assert ma.shape == (n_x, n_x) and mb.shape == (n_x, n_x)
    np.testing.assert_allclose(ma, -ma.T, atol=0)
    np.testing.assert_allclose(mb, mb.T, atol=0)
    for shift in range(1, n_x):
        np.testing.assert_allclose(np.roll(np.roll(ma, shift, 0), shift, 1), ma, atol=0)
        np.testing.assert_allclose(np.roll(np.roll(mb, shift, 0), shift, 1), mb, atol=0)


def test_stencil_rows_small_grid():
    grid = build_xgrid(8)
    row_a = np.zeros(8)
    row_a[1], row_a[-1] = 1.0, -1.0  # forward neighbor minus backward neighbor
    np.testing.assert_allclose(dense_alpha(grid)[0], row_a, atol=0)
    row_b = np.zeros(8)
    row_b[0], row_b[1], row_b[-1] = -2.0, 1.0, 1.0
    np.testing.assert_allclose(dense_beta(grid)[0], row_b, atol=0)


@pytest.mark.parametrize("n_x", [3, 4, 8, 16, 64])
def test_fourier_modes_are_stencil_eigenvectors(n_x):
    grid = build_xgrid(n_x)
    for m in range(n_x):
        mode = fourier_mode(m, n_x)
        alpha, beta = 2j * grid.z[m], -grid.two_y[m]
        np.testing.assert_allclose(dense_alpha(grid) @ mode, alpha * mode, atol=1e-12)
        np.testing.assert_allclose(dense_beta(grid) @ mode, beta * mode, atol=1e-12)


@pytest.mark.parametrize("n_x", [3, 16, 63, 1024])
def test_fourier_mode_on_an_array_is_the_stacked_scalar_calls_bitwise(n_x):
    ms = np.arange(n_x)
    stacked = np.stack([fourier_mode(m, n_x) for m in ms.tolist()])
    assert fourier_mode(ms, n_x).tobytes() == stacked.tobytes()
    square = ms[: 2 * (n_x // 2)].reshape(2, -1)[:, ::-1]
    assert fourier_mode(square, n_x).shape == square.shape + (n_x,)
    assert fourier_mode(square, n_x).tobytes() == stacked[square].tobytes()


@pytest.mark.parametrize("n_x", [3, 4, 8, 16, 64])
@pytest.mark.parametrize("cols", [1, 16])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_shift_stencils_match_dense_matrices(n_x, cols, kind):
    grid = build_xgrid(n_x)
    rng = np.random.default_rng(100 * n_x + cols)
    u = rng.standard_normal((n_x, cols))
    if kind == "complex":
        u = u + 1j * rng.standard_normal((n_x, cols))
    np.testing.assert_allclose(grid.alpha(u), dense_alpha(grid) @ u, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(grid.beta(u), dense_beta(grid) @ u, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(grid.beta(u[:, 0]), dense_beta(grid) @ u[:, 0], atol=1e-14)


@pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 5, 3), (2, 3, 5, 4)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_shared_pad_stencils_bitwise_match_each_stencil(shape, kind):
    grid = build_xgrid(5)
    rng = np.random.default_rng(len(shape))
    u = rng.standard_normal(shape)
    if kind == "complex":
        u = u + 1j * rng.standard_normal(shape)
    fa, fb = grid.stencils(u)
    for got, want in ((fa, grid.alpha(u)), (fb, grid.beta(u))):
        assert got.shape == want.shape == shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 5, 3), (2, 3, 5, 4)])
def test_wrap_pad_copies_like_concatenation(shape):
    """The periodic pad holds the rows concatenated along the grid axis
    (axis 0 of a vector, -2 otherwise), as one C-contiguous copy."""
    u = np.random.default_rng(len(shape)).standard_normal(shape)
    if u.ndim < 2:
        want = np.concatenate((u[-1:], u, u[:1]))
    else:
        want = np.concatenate((u[..., -1:, :], u, u[..., :1, :]), axis=-2)
    got = _wrap_pad(u)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


@pytest.mark.parametrize("n_x", [3, 4, 8, 16, 64])
def test_two_y_is_the_second_difference_symbol(n_x):
    grid = build_xgrid(n_x)
    for m in range(n_x):
        mode = fourier_mode(m, n_x)
        assert grid.two_y[m] == 2.0 * grid.y[m]
        np.testing.assert_allclose(grid.beta(mode), -grid.two_y[m] * mode, atol=1e-12)


@settings(deadline=None, max_examples=120)
@given(st.integers(3, 256).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 255))))
def test_mode_coordinate_identities(pair):
    n_x, m = pair
    grid = build_xgrid(n_x)
    y, z = grid.y[m % n_x], grid.z[m % n_x]
    assert 0.0 <= y <= 2.0
    assert z**2 == pytest.approx(y * (2.0 - y), abs=1e-12)
    assert z == pytest.approx(np.sin(2.0 * np.pi * (m % n_x) / n_x), abs=1e-12)
    assert grid.two_y[m % n_x] == 2.0 * y


def test_mode_y_covers_zero_to_two():
    ys = build_xgrid(16).y
    assert min(ys) == 0.0
    assert max(ys) == pytest.approx(2.0)


def test_coefficient_registry():
    v = np.array([-1.5, 0.0, 2.0])
    np.testing.assert_allclose(coefficient_from_name("linear")(v), v)
    np.testing.assert_allclose(coefficient_from_name("abs")(v), np.abs(v))
    np.testing.assert_allclose(coefficient_from_name("square")(v), v**2)
    np.testing.assert_allclose(coefficient_from_name("const:2.5")(v), [2.5, 2.5, 2.5])


def test_coefficient_unknown_name_rejected():
    with pytest.raises(ValueError, match="nope"):
        coefficient_from_name("nope")


@pytest.mark.parametrize("call,message", [
    (lambda: coefficient_from_name("const"),
     "coefficient 'const' needs a parameter, e.g. const:0.75"),
    (lambda: coefficient_from_name("const:abc"),
     "bad decimal parameter in coefficient 'const:abc'"),
    (lambda: coefficient_from_name("linear:1"), "coefficient 'linear' takes no parameter"),
    (lambda: build_xgrid(2), "need at least 3 spatial points for periodic stencils"),
    (lambda: build_modal(lambda v: v, 0), "basis_size must be at least 1"),
    (lambda: build_nodal(lambda v: v, []), "v_points must be a nonempty 1-D array"),
    (lambda: fourier_mode(8, 8), "mode index m=8 outside [0, 8)"),
    (lambda: fourier_mode(np.array([0, 7, 8]), 8), "mode index m=8 outside [0, 8)"),
    (lambda: fourier_mode([[1, 2], [-1, 3]], 8), "mode index m=-1 outside [0, 8)"),
])
def test_discretization_rejects(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_gauss_legendre_nodes():
    pts = gauss_legendre_points(4)
    np.testing.assert_allclose(np.sort(pts), sorted(_GL4), atol=1e-13)
    np.testing.assert_allclose(pts + pts[::-1], 0.0, atol=1e-15)
    with pytest.raises(ValueError):
        gauss_legendre_points(0)


def _stencil_inputs():
    """(label, input) pairs: vectors, matrices, stacks, non-contiguous views
    and the smallest grid, N_x = 3."""
    rng = np.random.default_rng(51)
    cases = {
        "vector": rng.standard_normal(8),
        "matrix": rng.standard_normal((64, 4)),
        "complex matrix": rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)),
        "n_x 3": rng.standard_normal((3, 2)),
        "n_x 3 vector": rng.standard_normal(3),
        "transposed": rng.standard_normal((4, 12)).T,
        "strided": rng.standard_normal((24, 8))[::2, ::2],
        "fortran": np.asfortranarray(rng.standard_normal((10, 3))),
        "stack": rng.standard_normal((2, 12, 4)),
        "deep stack": rng.standard_normal((2, 3, 5, 4)),
        "n_x 3 stack": rng.standard_normal((4, 3, 2)),
        "strided stack": rng.standard_normal((3, 20, 6))[:, ::2, ::3],
    }
    return list(cases.items())


@pytest.mark.parametrize("label,u", _stencil_inputs())
def test_stencils_bitwise_match_the_reference_body(label, u):
    """alpha, beta and the shared-pad pair give the reference body's bytes,
    dtype and memory layout, for plain matrices and for stacks alike."""
    grid = build_xgrid(u.shape[-2] if u.ndim > 1 else u.shape[0])
    want_a, want_b = reference_stencils(u)
    fa, fb = grid.stencils(u)
    for got, want in ((fa, want_a), (fb, want_b), (grid.alpha(u), want_a), (grid.beta(u), want_b)):
        assert got.dtype == want.dtype and got.shape == want.shape == u.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def test_nodal_points_must_be_distinct():
    """The duplicates np.unique finds: equal values, signed zeros, NaNs."""
    constant = coefficient_from_name("const:1")
    for points in ([0.5, -0.25, 0.5], [0.0, -0.0], [1.0, 1.0], [np.nan, 0.5, np.nan]):
        with pytest.raises(ValueError, match="^v_points must be distinct$"):
            build_nodal(constant, points)
    assert build_nodal(constant, [0.5, -0.25, 0.25]).size == 3
    assert build_nodal(constant, [0.5, np.nan]).size == 2  # one NaN is distinct


def _numpy_modules_after(*lines):
    """Run ``lines`` in a fresh interpreter; whether numpy and numpy.ma were
    imported by then."""
    probe = "\n".join(["import sys", *lines,
                       "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.split()


def test_import_and_a_nodal_build_leave_numpy_ma_unloaded():
    """``np.unique`` imports numpy.ma; neither the package import nor the
    first velocity operator build may reach it."""
    assert _numpy_modules_after(
        "import psilab",
        "from psilab.discretize import build_nodal, coefficient_from_name, gauss_legendre_points",
        "build_nodal(coefficient_from_name('linear'), gauss_legendre_points(8))",
    ) == ["True", "False"]


def test_a_contour_csv_write_leaves_numpy_ma_unloaded(tmp_path):
    """Nor may the contour CSV writer, on a table with zeros, fixed-notation
    values and an ``inf`` pole row."""
    assert _numpy_modules_after(
        "from psilab.amplification import contour_grid",
        "from psilab.harness import parse_scheme_name, write_contour_csv",
        "table = contour_grid(parse_scheme_name('par-dtp-lie-theta1').surface, 3, 3, 1.0)",
        f"write_contour_csv({str(tmp_path / 'c.csv')!r}, table)",
    ) == ["True", "False"]
    assert "1,0.5,inf" in (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()
