"""Dense linear-algebra kernels for the low-rank integrator lab.

Plain numpy arrays (float64 or complex128) are the only data format, and
numpy is the only runtime dependency: the thin QR calls LAPACK ``geqrf``
with ``orgqr``/``ungqr`` through numpy itself (a plain matrix through
``numpy.linalg.lapack_lite``, a stack through the batched
``np.linalg.qr``), and only the test reference ``solve_dense`` imports
scipy. Every kernel wraps LAPACK with the conventions the steppers
need. The thin QR adds two properties a bare factorization lacks: a
deterministic gauge (real nonnegative diagonal of the triangular factor),
and a well-defined orthonormal frame whenever a factor momentarily loses
rank, completed by refactoring with a canonical direction in place of each
dependent column. Symmetric eigendecomposition comes sorted and
sign-oriented; a ``Diagonalization`` carries an operator's eigenbasis as a
matrix or a fast transform; each pivot or symbol is screened on its scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "Diagonalization",
    "RANK_TOL",
    "SingularMatrixError",
    "SpectralDecomposition",
    "frobenius_norm",
    "matrix_abs",
    "qr_thin",
    "qr_thin_counted",
    "require_finite",
    "require_nonsingular",
    "solve_dense",
    "sym_eig",
]

# Columns whose residual drops below RANK_TOL times the Frobenius norm of the
# input count as linearly dependent and are replaced by a canonical direction.
RANK_TOL = 1e-14

# Pivot magnitude, relative to its own reference, that counts as singular.
_PIVOT_TOL = 1e-13

# LAPACK Householder QR (factor, then form the thin Q) for each input dtype.
_QR_ROUTINES = {
    np.dtype(np.float64): (lapack_lite.dgeqrf, lapack_lite.dorgqr),
    np.dtype(np.complex128): (lapack_lite.zgeqrf, lapack_lite.zungqr),
}


class SingularMatrixError(ValueError):
    """A solve met a singular or near-singular system; ``pivot`` carries the
    offending pivot or symbol magnitude, for example at an implicit pole."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a real symmetric matrix.

    Eigenvalues are sorted descending; eigenvectors are the matching columns,
    each oriented so its largest-magnitude entry is positive (deterministic
    gauge).
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class Diagonalization:
    """Hermitian B = W diag(eigenvalues) W^H: ``forward`` maps u to W^H u and
    ``inverse`` z to W z along the row axis (-2), so a fast transform can
    stand in for W. ``real`` marks a real B, whose real functions keep real
    data real. For a stack of operators, the leading axes of ``eigenvalues``
    index the stack."""

    eigenvalues: np.ndarray
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    real: bool


def require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def frobenius_norm(mat) -> float | np.ndarray:
    """Frobenius norm of a matrix (2-norm of a vector); for a stack of
    matrices, the array of per-matrix norms over its leading axes.

    A float64 or complex128 matrix takes ``np.linalg.norm``'s own sum, the
    dot of the entries in memory order, without its per-call dispatch; the
    result is bitwise the same.
    """
    a = np.asarray(mat)
    if a.ndim > 2:
        return np.linalg.norm(a, axis=(-2, -1))
    if a.dtype == np.float64:
        x = a.ravel(order="K")
        return math.sqrt(x.dot(x))
    if a.dtype == np.complex128:
        x = a.ravel(order="K")
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return float(np.linalg.norm(a))


def _as_matrix(mat, name: str) -> np.ndarray:
    a = np.asarray(mat)
    if a.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of matrices, got shape {a.shape}")
    if a.dtype in _QR_ROUTINES:
        return a
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


def _lapack_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK Householder QR of a matrix, or of each matrix of a stack: the
    thin Q and R, each column-major per matrix. A plain matrix's R keeps
    reflector data below its diagonal; a stack's holds zeros there."""
    if a.ndim > 2:
        # numpy's batched QR runs the same geqrf and orgqr/ungqr over the
        # whole stack in one call. Its C-order factors are copied into the
        # plain path's layout, in which every later product rounds as it
        # does on a plain matrix.
        q, rfac = np.linalg.qr(a)
        return q.mT.copy().mT, rfac.mT.copy().mT
    geqrf, orgqr = _QR_ROUTINES[a.dtype]
    m, n = a.shape
    # A C-order copy of A^T is A in LAPACK's column-major order.
    buf = a.T.copy()
    tau = np.empty(n, a.dtype)
    lwork = max(1, 64 * n)
    work = np.empty(lwork, a.dtype)
    if geqrf(m, n, buf, m, tau, work, lwork, 0)["info"]:
        raise np.linalg.LinAlgError("geqrf failed")
    packed = buf[:, :n].T.copy(order="K")  # column-major; orgqr overwrites buf
    if orgqr(m, n, n, buf, m, tau, work, lwork, 0)["info"]:
        raise np.linalg.LinAlgError("orgqr failed")
    return buf.T, packed


@lru_cache(maxsize=None)
def _strict_upper(r: int) -> np.ndarray:
    """Flat indices of the strictly upper triangle of a row-major r x r
    matrix (read-only: every call shares them)."""
    index = np.flatnonzero(np.triu(np.ones((r, r), dtype=bool), 1))
    index.flags.writeable = False
    return index


def _complete_rank(
    a: np.ndarray, q: np.ndarray, rfac: np.ndarray, scale: float, j: int
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Rank completion of one matrix with Frobenius norm ``scale`` (see
    ``qr_thin_counted``), starting from its LAPACK factors and its first
    dependent column j: the final Q and packed R, and the replaced
    columns."""
    completed: list[int] = []
    while True:
        # 1 - |Q[i, :j]|^2 is the squared residual of e_i outside the span;
        # weighting it by |A| keeps roundoff in P a_j from swamping it.
        span = q[:, :j]
        i = int(np.argmax(1.0 - np.sum(np.abs(span) ** 2, axis=1)))
        weight = scale if scale > 0 else 1.0
        col = span @ (rfac[:j, j] - weight * span[i].conj())
        col[i] += weight
        a = a.copy()
        a[:, j] = col
        completed.append(j)
        q, rfac = _lapack_qr(a)
        dependent = np.abs(rfac.diagonal()[j + 1:]) <= RANK_TOL * scale
        if not dependent.any():
            return q, rfac, completed
        j += 1 + int(dependent.argmax())


def qr_thin_counted(mat) -> tuple[np.ndarray, np.ndarray, int]:
    """Thin QR factorization plus the number of rank-completion events.

    LAPACK Householder QR (``geqrf``, then ``orgqr`` or ``ungqr``). Column j
    counts as dependent when |R_jj| is at most ``RANK_TOL`` times the
    Frobenius norm |A| of the input. The first dependent column is replaced
    by P a_j + w (I - P) e_i and the matrix is factored again. Here P
    projects onto the span of Q[:, :j], e_i is the canonical vector with the
    largest residual outside that span (from the row leverage; ties resolve
    to the lowest index), and w = |A| (1 for a zero input), so that Q[:, j]
    becomes the normalized completion direction. This repeats until no later
    column is dependent. Replaced columns get R_jj = 0, so Q @ R reproduces
    the input up to their dropped sub-tolerance residuals. A diagonal phase
    rotation makes diag(R) real and nonnegative, which fixes the gauge of Q
    deterministically (for real input, sign flips).

    A stack of matrices (leading axes) is factored in one call of numpy's
    batched ``np.linalg.qr``, which runs the same LAPACK routines matrix by
    matrix, bitwise as a plain call would. A plain matrix calls
    ``lapack_lite`` directly: that skips ``np.linalg.qr``'s per-call
    overhead (about 11 against 18 us on a 64 x 4 matrix), which a march
    pays on every retraction. The dependence test and the gauge act on the
    whole stack, only the flagged matrices are completed (each as a plain
    matrix), and the count is the stack's total.
    """
    if type(mat) is np.ndarray and mat.dtype == np.float64 and mat.ndim == 2:
        a = mat  # what the steppers pass: no coercion
    else:
        a = _as_matrix(mat, "qr_thin input")
    n, r = a.shape[-2:]
    if n < r:
        raise ValueError(f"qr_thin needs at least as many rows as columns, got {n}x{r}")
    stack = a.ndim > 2
    scale = frobenius_norm(a)  # one per matrix of a stack
    in_range = (1e-100 <= scale) & (scale <= 1e100)
    if not (in_range.all() if stack else in_range):
        # LAPACK scales its reflectors safely, but the Frobenius norm in the
        # rank tolerance squares the entries; rescale so it stays in range.
        peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
        fix = np.logical_not(in_range) & (0.0 < peak) & (peak < np.inf)
        if fix.any():
            peak = np.where(fix, peak, 1.0)[..., None, None]
            # Divide as reals: numpy's complex division multiplies by
            # 1 / peak, which overflows for a subnormal peak.
            scaled = (np.ascontiguousarray(a).view(np.float64) / peak).view(a.dtype)
            q, rfac, events = qr_thin_counted(scaled)
            return q, rfac * peak, events
    q, rfac = _lapack_qr(a)
    diag = rfac.diagonal(0, -2, -1)  # a view: follows the completions below
    mag = np.abs(diag)
    dependent = mag <= RANK_TOL * (scale[..., None] if stack else scale)
    completed = []  # (index of the matrix in the stack..., its replaced columns)
    events = 0
    if np.count_nonzero(dependent):
        for idx in map(tuple, np.argwhere(dependent.any(axis=-1))) if stack else [()]:
            # The matrix's own 2-D norm, as a call on it alone would use.
            own = frobenius_norm(a[idx]) if stack else scale
            first = int(dependent[idx].argmax())
            q[idx], rfac[idx], cols = _complete_rank(a[idx], q[idx], rfac[idx], own, first)
            completed.append(idx + (cols,))
            events += len(cols)
        mag = np.abs(diag)
    if np.iscomplexobj(diag):
        phase = np.divide(diag, mag, out=np.ones_like(diag), where=mag > 0)
    else:
        # A zero diagonal entry always counts as dependent and is completed,
        # so the sign bit alone is the phase.
        phase = np.copysign(1.0, diag)
    # R is column-major per matrix (see _lapack_qr), so R^T is C-order and
    # its flat view per matrix takes the zeros and the diagonal as strided
    # writes; Q's columns and R^T's columns take the phase.
    rt = rfac.mT
    if stack:
        phase = phase[..., None, :]
        flat = rt.reshape(*rt.shape[:-2], r * r)
        upper, diagonal = (..., _strict_upper(r)), (..., slice(None, None, r + 1))
    else:
        flat, upper, diagonal = rt.reshape(r * r), _strict_upper(r), slice(None, None, r + 1)
    q *= phase
    rt *= phase.conj()
    # A replaced column contributes only its sub-RANK_TOL residual here.
    for replaced in completed:
        mag[replaced] = 0.0
    flat[upper] = 0.0  # reflector data, below R's diagonal
    flat[diagonal] = mag
    return q, rfac, events


def qr_thin(mat) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with nonnegative diagonal and deterministic rank completion.

    Returns (Q, R) with Q of the input's shape, orthonormal columns, R square
    upper triangular with real nonnegative diagonal, and Q @ R equal to the
    input up to roundoff even when columns are linearly dependent.
    """
    q, rfac, _ = qr_thin_counted(mat)
    return q, rfac


def _eigh_descending(mat, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the symmetrized real matrix or stack, as reversed views:
    eigenvalues descending, the eigenvector columns in the same order."""
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} needs a square matrix or a stack of them, got shape {a.shape}")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.mT))
    return vals[..., ::-1], vecs[..., ::-1]


def sym_eig(mat) -> SpectralDecomposition:
    """Eigendecomposition of a real symmetric matrix, or of each matrix in a
    stack (leading axes).

    The input is symmetrized first, so symmetric-up-to-roundoff matrices are
    accepted. Eigenvalues come back in descending order; each eigenvector is
    oriented so its largest-magnitude entry is positive.
    """
    vals, vecs = _eigh_descending(mat, "sym_eig")
    lead = np.abs(vecs).argmax(axis=-2, keepdims=True)
    if vecs.ndim == 2:  # plain fancy indexing is the cheaper gather here
        top = vecs[lead[0], np.arange(vecs.shape[1])]
    else:
        top = np.take_along_axis(vecs, lead, axis=-2)
    vecs = np.where(top < 0, -vecs, vecs)
    return SpectralDecomposition(eigenvectors=vecs, eigenvalues=vals.copy())


def matrix_abs(mat) -> np.ndarray:
    """Spectral absolute value |A| = R |Lambda| R^T of a symmetric matrix,
    or of each matrix in a stack. R takes no sign gauge, as a column's sign
    cancels exactly in each term; the descending order fixes the sums' order."""
    vals, vecs = _eigh_descending(mat, "matrix_abs")
    vecs = vecs.copy()  # C order, so the product runs as with sym_eig's R
    out = (vecs * np.abs(vals)[..., None, :]) @ vecs.mT
    return 0.5 * (out + out.mT)


def require_nonsingular(what: str, pivots, reference) -> None:
    """Raise SingularMatrixError, carrying the smallest offending magnitude,
    if some pivot is at most 1e-13 times its reference: the largest pivot
    for LU diagonals, 1 + |x| for a symbol 1 - x of a diagonalized system."""
    mags = np.abs(pivots)
    singular = mags <= _PIVOT_TOL * reference
    if singular.any():
        pivot = float(mags[singular].min())
        raise SingularMatrixError(f"singular {what} (pivot magnitude {pivot:.3e})", pivot)


def solve_dense(mat, rhs) -> np.ndarray:
    """Solve a dense square system by LU with partial pivoting.

    Accepts one right-hand side (1-D) or several (2-D columns). A singular or
    near-singular matrix (smallest/largest pivot ratio at most 1e-13) raises
    SingularMatrixError carrying the pivot magnitude. Tests use it as the
    reference for the steppers' diagonalized solves; it factors with scipy,
    imported here so that the package itself never loads it.
    """
    a = np.asarray(mat)
    b = np.asarray(rhs)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_dense needs a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix {a.shape}")
    dtype = np.complex128 if (np.iscomplexobj(a) or np.iscomplexobj(b)) else np.float64
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a.astype(dtype, copy=True))
    pivots = np.diag(lu)
    require_nonsingular("dense system", pivots, np.abs(pivots).max())
    return scipy.linalg.lu_solve((lu, piv), b.astype(dtype, copy=False))
