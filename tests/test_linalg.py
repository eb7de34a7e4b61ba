"""Dense kernel checks: QR, symmetric eigensolver, |A|, linear solves."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import psilab.linalg as linalg
from psilab.linalg import (
    SingularMatrixError,
    _lapack_qr,
    frobenius_norm,
    matrix_abs,
    qr_thin,
    qr_thin_counted,
    require_finite,
    solve_dense,
    sym_eig,
)
from reference_kernels import (
    reference_frobenius_norm,
    reference_matrix_abs,
    reference_qr_thin_counted,
)

_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _mat(rows, cols):
    return arrays(np.float64, (rows, cols), elements=_finite)


def test_qr_identity_passthrough():
    q, r = qr_thin(np.eye(4))
    np.testing.assert_allclose(q, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(r, np.eye(4), atol=1e-15)


def test_qr_known_two_by_two():
    # classic [[3,1],[4,2]]: first column has norm 5
    q, r = qr_thin(np.array([[3.0, 1.0], [4.0, 2.0]]))
    assert r[0, 0] == pytest.approx(5.0)
    np.testing.assert_allclose(q @ r, [[3.0, 1.0], [4.0, 2.0]], atol=1e-14)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8).flatmap(lambda n: st.integers(1, n).flatmap(lambda r: _mat(n, r))))
def test_qr_reconstructs_with_orthonormal_factor(mat):
    q, r = qr_thin(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    np.testing.assert_allclose(q.T @ q, np.eye(mat.shape[1]), atol=1e-12)
    np.testing.assert_allclose(q @ r, mat, atol=1e-12 * scale)
    assert np.allclose(r, np.triu(r))
    assert (np.diag(r) >= 0).all()


@pytest.mark.parametrize("magnitude", [5.7e-157, 1e-200, 1e120, 1e200])
def test_qr_far_from_unit_scale(magnitude):
    # Householder norms square the entries: without rescaling these
    # under- or overflow and the frame comes back non-finite
    mat = magnitude * np.array([[3.0, 1.0], [4.0, 2.0], [1.0, -1.0]])
    with np.errstate(over="ignore"):
        q, r = qr_thin(mat)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(q @ r, mat, rtol=0, atol=1e-12 * magnitude)


def test_qr_rank_deficient_completion():
    # duplicate columns: the span collapses but the frame must stay orthonormal
    col = np.arange(1.0, 7.0)
    mat = np.column_stack([col, col, 2 * col])
    q, r = qr_thin(mat)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(q @ r, mat, atol=1e-12)


def test_qr_counted_reports_rank_events():
    col = np.arange(1.0, 7.0)
    _, _, events = qr_thin_counted(np.column_stack([col, col]))
    assert events >= 1
    _, _, clean = qr_thin_counted(np.eye(5)[:, :3])
    assert clean == 0


def test_qr_zero_matrix_completes_to_frame():
    q, r = qr_thin(np.zeros((5, 2)))
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def test_sym_eig_swap_matrix():
    dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: _mat(n, n)))
def test_sym_eig_decomposition_properties(raw):
    mat = 0.5 * (raw + raw.T)
    dec = sym_eig(mat)
    n = mat.shape[0]
    np.testing.assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(n), atol=1e-11)
    assert (np.diff(dec.eigenvalues) <= 1e-10 * max(1.0, np.abs(dec.eigenvalues).max())).all()
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    np.testing.assert_allclose(recon, mat, atol=1e-10 * max(1.0, float(np.abs(mat).max())))


def test_sym_eig_deterministic():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((6, 6))
    mat = raw + raw.T
    a = sym_eig(mat)
    b = sym_eig(mat.copy())
    assert (a.eigenvalues == b.eigenvalues).all()
    assert (a.eigenvectors == b.eigenvectors).all()


def test_matrix_abs_swap_is_identity():
    np.testing.assert_allclose(matrix_abs(np.array([[0.0, 1.0], [1.0, 0.0]])), np.eye(2), atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6).flatmap(lambda n: _mat(n, n)))
def test_matrix_abs_square_matches_square(raw):
    mat = 0.5 * (raw + raw.T)
    amat = matrix_abs(mat)
    scale = max(1.0, float(np.abs(mat).max()) ** 2)
    np.testing.assert_allclose(amat @ amat, mat @ mat, atol=1e-9 * scale)
    eigs = np.linalg.eigvalsh(amat)
    assert (eigs >= -1e-10 * scale).all()


def test_solve_dense_matches_known_solution():
    mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve_dense(mat, np.array([3.0, 5.0]))
    np.testing.assert_allclose(mat @ x, [3.0, 5.0], atol=1e-14)


def test_solve_dense_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_mat(n, n), _mat(n, 1))))
def test_solve_dense_residual(pair):
    mat, rhs = pair
    mat = mat + 10.0 * np.eye(mat.shape[0])  # keep well conditioned
    assume(np.linalg.cond(mat) < 1e6)  # the shift alone can hit an eigenvalue -10
    x = solve_dense(mat, rhs[:, 0])
    np.testing.assert_allclose(mat @ x, rhs[:, 0], atol=1e-8 * max(1.0, float(np.abs(rhs).max())))


def test_frobenius_norm_example():
    assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)


def test_require_finite_flags_nan_and_inf():
    require_finite("ok", np.ones(3))
    with pytest.raises(Exception, match="bad"):
        require_finite("bad", np.array([1.0, np.nan]))
    with pytest.raises(Exception, match="bad"):
        require_finite("bad", np.array([np.inf]))


def _householder_reference(mat):
    """Column-by-column Householder QR with diag(R) made real and positive
    (full-rank input only)."""
    work = np.array(mat, dtype=np.complex128 if np.iscomplexobj(mat) else np.float64)
    n, r = work.shape
    reflectors = []
    for j in range(r):
        x = work[j:, j]
        phase = x[0] / abs(x[0]) if abs(x[0]) > 0 else 1.0
        v = x.copy()
        v[0] += phase * np.linalg.norm(x)
        tau = 2.0 / np.real(np.vdot(v, v))
        work[j:, j:] -= tau * np.outer(v, v.conj() @ work[j:, j:])
        reflectors.append((j, v, tau))
    q = np.eye(n, r, dtype=work.dtype)
    for j, v, tau in reversed(reflectors):
        q[j:, :] -= tau * np.outer(v, v.conj() @ q[j:, :])
    rfac = np.triu(work[:r])
    phase = np.diag(rfac) / np.abs(np.diag(rfac))
    return q * phase, rfac * phase.conj()[:, None]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.integers(1, n).flatmap(
            lambda r: arrays(np.complex128, (n, r), elements=_complex)
        )
    )
)
def test_qr_complex_reconstructs_with_unitary_factor(mat):
    q, r = qr_thin(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    np.testing.assert_allclose(q.conj().T @ q, np.eye(mat.shape[1]), atol=1e-12)
    np.testing.assert_allclose(q @ r, mat, atol=1e-12 * scale)
    assert np.allclose(r, np.triu(r))
    assert (np.diag(r).imag == 0).all()
    assert (np.diag(r).real >= 0).all()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_qr_rescales_a_subnormal_input(dtype):
    mat = np.array([[5e-324], [5e-324]], dtype=dtype)
    q, r = qr_thin(mat)
    np.testing.assert_allclose(q, np.full((2, 1), np.sqrt(0.5)), atol=1e-15)
    assert r[0, 0] == 5e-324  # sqrt(2) * 5e-324 rounds to the smallest subnormal



@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_qr_completion_pinned_on_repeated_unit_vector(dtype):
    e0 = np.eye(5, dtype=dtype)[:, 0]
    q, r, events = qr_thin_counted(np.column_stack([e0, e0]))
    assert events == 1
    assert r[1, 1] == 0
    np.testing.assert_allclose(np.abs(q[:, 1]), np.eye(5)[:, 1], atol=1e-15)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-15)


def test_qr_completion_counts_every_dependent_column():
    col = np.arange(1.0, 7.0)
    q, r, events = qr_thin_counted(np.column_stack([col, col, 2 * col]))
    assert events == 2
    assert r[1, 1] == 0 and r[2, 2] == 0
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_qr_completion_direction_ignores_input_scale():
    # the canonical direction must not drown in roundoff of a large P a_j
    col = np.arange(1.0, 7.0)
    mat = np.column_stack([col, col, np.ones(6)])
    q_unit, _, events = qr_thin_counted(mat)
    assert events == 1
    q_big, r_big, _ = qr_thin_counted(1e20 * mat)
    np.testing.assert_allclose(q_big, q_unit, atol=1e-12)
    np.testing.assert_allclose(q_big @ r_big, 1e20 * mat, atol=1e-12 * 1e20)


def test_qr_tall_rank_deficient_padding():
    # a short frame padded with zero columns to the rank
    n = 1024
    x = 2 * np.pi * np.arange(n) / n
    basis = np.column_stack([np.cos(3 * x), np.sin(3 * x)]) / np.sqrt(n / 2)
    padded = np.zeros((n, 4))
    padded[:, :2] = basis
    q, r, events = qr_thin_counted(padded)
    assert events == 2
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(q[:, :2], basis, atol=1e-13)
    np.testing.assert_allclose(r, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-13)
    np.testing.assert_allclose(q @ r, padded, atol=1e-13)


@pytest.mark.parametrize("shape", [(2, 2), (6, 3), (64, 4), (1024, 4)])
@pytest.mark.parametrize("complex_input", [False, True])
def test_qr_matches_householder_reference(shape, complex_input):
    rng = np.random.default_rng(shape[0] + shape[1])
    mat = rng.standard_normal(shape)
    if complex_input:
        mat = mat + 1j * rng.standard_normal(shape)
    q, r, events = qr_thin_counted(mat)
    q_ref, r_ref = _householder_reference(mat)
    assert events == 0
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-12 * np.linalg.norm(mat))


def _sym_eig_loop_reference(mat):
    """Eigendecomposition oriented one column at a time."""
    a = np.asarray(mat, dtype=np.float64)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


@pytest.mark.parametrize("seed", range(6))
def test_sym_eig_orientation_bitwise_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n = 1 + 3 * seed
    raw = rng.standard_normal((n, n))
    cases = [raw + raw.T, np.eye(n), np.diag(np.arange(n, 0, -1.0)) - np.eye(n, k=1) - np.eye(n, k=-1)]
    for mat in cases + [np.array([[0.0, 1.0], [1.0, 0.0]])]:
        dec = sym_eig(mat)
        vals, vecs = _sym_eig_loop_reference(mat)
        assert dec.eigenvalues.tobytes() == vals.tobytes()
        assert dec.eigenvectors.tobytes() == vecs.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (16, 1), (64, 4), (1024, 4)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lapack_qr_bitwise_matches_numpy_qr(shape, kind):
    rng = np.random.default_rng(shape[0] + 7 * shape[1])
    mat = rng.standard_normal(shape)
    if kind == "complex":
        mat = mat + 1j * rng.standard_normal(shape)
    before = mat.copy()
    q, packed = _lapack_qr(mat)
    q_ref, r_ref = np.linalg.qr(mat)
    assert q.dtype == q_ref.dtype and q.shape == q_ref.shape
    assert q.tobytes() == q_ref.tobytes()
    assert np.triu(packed).tobytes() == r_ref.tobytes()
    assert mat.tobytes() == before.tobytes()  # the input is not overwritten


def _stack_with_dependent_slice(dtype, shape=(3, 2), rows=6, cols=3, seed=0):
    """A stack of random matrices; slice (1, 0) repeats a column, and slice
    (2, 1) sits far below unit scale."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal(shape + (rows, cols))
    if dtype == np.complex128:
        stack = stack + 1j * rng.standard_normal(shape + (rows, cols))
    stack[1, 0, :, 2] = stack[1, 0, :, 0]
    stack[2, 1] *= 1e-150
    return stack


def _qr_stacks():
    """(label, stack, rank events) for the stacked QR: the oracle's complex
    rank-1 retractions, a stack of march-sized real frames, and slices that
    take rank completion, rescaling, or hold NaN or inf."""
    rng = np.random.default_rng(12)

    def complex_stack(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    oracle_x = complex_stack((64, 16, 1))
    oracle_x[5] = 0.0  # a zero column: completed to a canonical direction
    oracle_x[9] *= 1e-150  # rescaled from below
    oracle_v = complex_stack((64, 4, 1))
    oracle_v[[3, 60]] = 0.0
    oracle_v[7] *= 1e150  # rescaled from above
    frames = rng.standard_normal((5, 64, 4))
    frames[2, :, 3] = frames[2, :, 1]
    frames[4] *= 1e-200
    nonfinite = rng.standard_normal((4, 6, 3))
    nonfinite[1, 2, 1] = np.nan
    nonfinite[2] *= 1e-150
    nonfinite[3, 0, 0] = np.inf
    nan_only = complex_stack((3, 6, 3))
    nan_only[0, 4, 2] = complex(0.0, np.nan)
    cases = [
        ("float64", _stack_with_dependent_slice(np.float64), 1),
        ("complex128", _stack_with_dependent_slice(np.complex128), 1),
        ("oracle X", oracle_x, 1),
        ("oracle V", oracle_v, 2),
        ("frames", frames, 1),
        # With warnings off, the inf slice's columns count as dependent
        # against its infinite norm, alone as in the stack.
        ("nan and inf", nonfinite, 2),
        ("complex nan", nan_only, 0),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


def _qr_outcome(mat):
    """qr_thin_counted's factors and count, or the exception it raised."""
    try:
        return qr_thin_counted(mat)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("label,stack,events", _qr_stacks())
def test_qr_on_a_stack_matches_each_slice(label, stack, events):
    """Each slice of a stacked QR is the plain call on that slice: the same
    bytes in the same memory layout, and a failure (a RuntimeWarning raised
    as an error) wherever a slice's own call fails. With floating-point
    warnings off, non-finite slices propagate exactly as alone."""
    before = stack.copy()
    for state in ({}, {"all": "ignore"}):
        with warnings.catch_warnings(), np.errstate(**state):
            warnings.simplefilter("error", RuntimeWarning)
            got = _qr_outcome(stack)
            slices = [_qr_outcome(stack[idx]) for idx in np.ndindex(stack.shape[:-2])]
        failed = [(type(s), str(s)) for s in slices if isinstance(s, Exception)]
        if failed:
            assert isinstance(got, Exception) and (type(got), str(got)) in failed
            continue
        assert not isinstance(got, Exception), got
        q, r, total = got
        assert type(total) is int
        for idx, (q_i, r_i, ev_i) in zip(np.ndindex(stack.shape[:-2]), slices):
            for stacked, alone in ((q[idx], q_i), (r[idx], r_i)):
                assert stacked.strides == alone.strides
                assert stacked.tobytes() == alone.tobytes()
            total -= ev_i
        assert total == 0 and got[2] == events
    assert stack.tobytes() == before.tobytes()  # the input is not overwritten
    if label in ("float64", "complex128"):
        assert r[1, 0, 2, 2] == 0


def test_sym_eig_and_matrix_abs_on_a_stack_match_each_slice():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((2, 3, 5, 5))
    stack = raw + raw.mT
    stack[0, 1] = np.eye(5)  # repeated eigenvalues: orientation ties
    dec = sym_eig(stack)
    absolute = matrix_abs(stack)
    for idx in np.ndindex(stack.shape[:-2]):
        dec_i = sym_eig(stack[idx])
        assert dec.eigenvalues[idx].tobytes() == dec_i.eigenvalues.tobytes()
        assert dec.eigenvectors[idx].tobytes() == dec_i.eigenvectors.tobytes()
        assert absolute[idx].tobytes() == matrix_abs(stack[idx]).tobytes()


def test_frobenius_norm_of_a_stack_is_per_matrix():
    stack = np.random.default_rng(2).standard_normal((4, 3, 2))
    norms = frobenius_norm(stack)
    assert norms.shape == (4,)
    np.testing.assert_allclose(norms, [frobenius_norm(m) for m in stack], rtol=1e-15)
    assert isinstance(frobenius_norm(stack[0]), float)


# ---------------------------------------------------------------------------
# lean kernels against their reference bodies, byte for byte


def _lean_kernel_inputs():
    """(label, input) pairs: real and complex, dependent columns, zero,
    far from unit scale, transposed and strided views, integers, NaN,
    stacks."""
    rng = np.random.default_rng(31)
    real = rng.standard_normal((64, 4))
    cplx = real + 1j * rng.standard_normal((64, 4))
    dependent = rng.standard_normal((9, 4))
    dependent[:, 2] = 2.0 * dependent[:, 0]
    dependent[:, 3] = 0.0
    cases = {
        "real": real,
        "complex": cplx,
        "square": rng.standard_normal((5, 5)),
        "one column": rng.standard_normal((7, 1)),
        "dependent": dependent,
        "dependent complex": dependent + 1j * np.roll(dependent, 1, axis=0),
        "negative diagonal": -np.eye(6, 3),
        "zero": np.zeros((8, 3)),
        "zero complex": np.zeros((8, 3), dtype=complex),
        "tiny": real * 1e-150,
        "huge": real * 1e150,
        "tiny complex": cplx * 1e-150,
        "huge complex": cplx * 1e150,
        "transposed": rng.standard_normal((4, 12)).T,
        "strided": rng.standard_normal((20, 8))[::2, ::2],
        "fortran": np.asfortranarray(rng.standard_normal((6, 3))),
        "integer": np.arange(12).reshape(4, 3),
        # LAPACK leaves a sign-bit NaN on the diagonal here.
        "nan": np.array([[np.nan, 1.0], [2.0, 3.0], [4.0, 5.0]]),
        "stack": _stack_with_dependent_slice(np.float64),
        "complex stack": _stack_with_dependent_slice(np.complex128),
    }
    return list(cases.items())


@pytest.mark.parametrize("label,mat", _lean_kernel_inputs())
def test_qr_bitwise_matches_the_reference_body(label, mat):
    """The lean QR returns the reference body's Q and R, byte for byte and
    in the same memory layout, with the same event count."""
    q, r, events = qr_thin_counted(mat)
    q_ref, r_ref, events_ref = reference_qr_thin_counted(mat)
    assert events == events_ref
    for got, want in ((q, q_ref), (r, r_ref)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
    if label.startswith("dependent"):
        assert events == 2
    if label.startswith("zero"):
        assert events == 3


def test_qr_lower_entries_are_positive_zeros():
    # diag(R) < 0 flips whole rows of R; the zeros below must not turn -0.0.
    _, r, _ = qr_thin_counted(-np.eye(6, 3))
    assert not np.signbit(r).any()


def test_qr_rejects_what_the_reference_rejects():
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(ValueError) as want:
            reference_qr_thin_counted(bad)
        with pytest.raises(ValueError) as got:
            qr_thin_counted(bad)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("label,mat", _lean_kernel_inputs() + [
    ("vector", np.linspace(-1.0, 3.0, 7)),
    ("complex vector", np.linspace(-1.0, 3.0, 7) * (1 - 2j)),
    ("integer vector", np.arange(-3, 5)),
    ("float32", np.arange(6, dtype=np.float32).reshape(3, 2) / 3),
])
def test_frobenius_norm_bitwise_matches_numpy(label, mat):
    got = frobenius_norm(mat)
    want = reference_frobenius_norm(mat)
    if np.ndim(mat) > 2:
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_qr_completes_a_matrix_from_the_factorisation_already_made(monkeypatch):
    """A plain matrix with one dependent column is factored twice: once,
    then once more after its completion; never a fresh first factoring."""
    calls = []

    def counting(a):
        calls.append(a.copy())
        return _lapack_qr(a)

    monkeypatch.setattr(linalg, "_lapack_qr", counting)
    mat = np.zeros((5, 2))
    mat[0] = 1.0  # [e0, e0]
    q, r, events = qr_thin_counted(mat)
    assert events == 1 and len(calls) == 2
    assert calls[0].tobytes() == mat.tobytes()
    assert calls[1][:, 0].tobytes() == mat[:, 0].tobytes()
    assert calls[1][:, 1].tobytes() != mat[:, 1].tobytes()
    q_ref, r_ref, _ = reference_qr_thin_counted(mat)
    assert q.tobytes() == q_ref.tobytes() and r.tobytes() == r_ref.tobytes()


def _symmetric_inputs():
    """(label, input) pairs for the spectral absolute value: random,
    degenerate spectra, 1 x 1, negative definite, nearly symmetric, stacks."""
    rng = np.random.default_rng(41)
    cases = {}
    for n in (2, 4, 7):
        raw = rng.standard_normal((n, n))
        cases[f"random {n}"] = raw + raw.T
        cases[f"nearly symmetric {n}"] = raw + raw.T + 1e-15 * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cases[f"degenerate {n}"] = (q * np.repeat([2.0, -2.0], n)[:n]) @ q.T
        cases[f"negative definite {n}"] = -(raw @ raw.T) - np.eye(n)
    cases["identity"] = np.eye(5)
    cases["zero"] = np.zeros((3, 3))
    cases["1x1"] = np.array([[-3.5]])
    cases["1x1 zero"] = np.array([[0.0]])
    cases["integer"] = np.array([[2, 1], [1, -4]])
    cases["fortran"] = np.asfortranarray(cases["random 4"])
    raw = rng.standard_normal((2, 3, 4, 4))
    stack = raw + raw.mT
    stack[1, 2] = np.diag([1.0, -1.0, 1.0, -1.0])
    cases["stack"] = stack
    return list(cases.items())


@pytest.mark.parametrize("label,mat", _symmetric_inputs())
def test_matrix_abs_bitwise_matches_the_oriented_reference(label, mat):
    """Dropping the eigenvector sign gauge changes no byte of |A|: a sign
    flip of a column of R is exact in (R |Lambda|) R^T."""
    got, want = matrix_abs(mat), reference_matrix_abs(mat)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def test_matrix_abs_rejects_what_sym_eig_rejects():
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(ValueError, match="needs a square matrix"):
            sym_eig(bad)
        with pytest.raises(ValueError, match="matrix_abs needs a square matrix"):
            matrix_abs(bad)
