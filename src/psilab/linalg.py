"""Dense linear-algebra kernels for the low-rank integrator lab.

Plain numpy arrays (float64 or complex128) are the only data format. The thin
QR factorization is written out explicitly because the integrators rely on two
properties that library QR does not guarantee: a deterministic gauge
(nonnegative diagonal of the triangular factor) and a well-defined orthonormal
frame whenever a factor momentarily loses rank. Symmetric eigendecomposition
and dense solves wrap LAPACK with the conventions the steppers need.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
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

# Pivot ratio below which a system is reported as singular.
_PIVOT_TOL = 1e-13


class SingularMatrixError(ValueError):
    """A dense solve met a singular or near-singular matrix.

    Carries the offending pivot magnitude so callers (for example the
    backward-in-time core substep near its pole) can report how degenerate
    the system was.
    """

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


def require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def frobenius_norm(mat) -> float:
    """Frobenius norm of a matrix (2-norm of a vector)."""
    return float(np.linalg.norm(np.asarray(mat)))


def _as_matrix(mat, name: str) -> np.ndarray:
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    return a.astype(dtype, copy=False)


def _completion_direction(col: int, reflectors, n: int, dtype) -> np.ndarray:
    """Best canonical basis vector, orthogonalized against prior columns.

    Applies the accumulated reflectors to the identity and picks the canonical
    vector with the largest remaining component outside the span of the first
    ``col`` columns (ties resolve to the lowest index, keeping the choice
    deterministic). The trailing part seeds the replacement Householder column.
    """
    basis = np.identity(n, dtype=dtype)
    for off, v, tau in reflectors:
        basis[off:, :] -= tau * np.outer(v, v.conj() @ basis[off:, :])
    scores = np.linalg.norm(basis[col:, :], axis=0)
    return basis[col:, int(np.argmax(scores))].copy()


def qr_thin_counted(mat) -> tuple[np.ndarray, np.ndarray, int]:
    """Thin QR factorization plus the number of rank-completion events.

    Householder reflections, one per column. A column whose residual falls
    below ``RANK_TOL`` times the Frobenius norm of the input is replaced by a
    canonical completion direction; its diagonal entry in the triangular
    factor is set to zero. A final diagonal phase rotation makes diag(R) real
    and nonnegative, which fixes the gauge of Q deterministically (for real
    input this reduces to sign flips).
    """
    a = _as_matrix(mat, "qr_thin input")
    n, r = a.shape
    if n < r:
        raise ValueError(f"qr_thin needs at least as many rows as columns, got {n}x{r}")
    scale = np.linalg.norm(a)
    if not 1e-100 <= scale <= 1e100:
        # The reflector norms square the entries; rescale so they stay in range.
        peak = float(np.abs(a).max(initial=0.0))
        if 0.0 < peak < np.inf:
            q, rfac, events = qr_thin_counted(a / peak)
            return q, rfac * peak, events
    work = a.copy()
    reflectors: list[tuple[int, np.ndarray, float]] = []
    completed: list[int] = []
    for j in range(r):
        x = work[j:, j]
        if np.linalg.norm(x) <= RANK_TOL * scale:
            work[j:, j] = _completion_direction(j, reflectors, n, work.dtype)
            completed.append(j)
            x = work[j:, j]
        norm_x = np.linalg.norm(x)
        lead = x[0]
        phase = lead / abs(lead) if abs(lead) > 0 else 1.0
        v = x.copy()
        v[0] += phase * norm_x
        tau = 2.0 / np.real(np.vdot(v, v))
        work[j:, j:] -= tau * np.outer(v, v.conj() @ work[j:, j:])
        reflectors.append((j, v, tau))

    rfac = np.triu(work[:r, :]).copy()
    for j in completed:
        # The replaced column contributed only its sub-RANK_TOL residual here.
        rfac[j, j] = 0.0

    q = np.zeros((n, r), dtype=work.dtype)
    q[:r, :r] = np.identity(r)
    for off, v, tau in reversed(reflectors):
        q[off:, :] -= tau * np.outer(v, v.conj() @ q[off:, :])

    for j in range(r):
        d = rfac[j, j]
        if abs(d) > 0:
            ph = d / abs(d)
            rfac[j, :] *= np.conj(ph)
            q[:, j] *= ph
    return q, rfac, len(completed)


def qr_thin(mat) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with nonnegative diagonal and deterministic rank completion.

    Returns (Q, R) with Q of the input's shape, orthonormal columns, R square
    upper triangular with real nonnegative diagonal, and Q @ R equal to the
    input up to roundoff even when columns are linearly dependent.
    """
    q, rfac, _ = qr_thin_counted(mat)
    return q, rfac


def sym_eig(mat) -> SpectralDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    The input is symmetrized first, so symmetric-up-to-roundoff matrices are
    accepted. Eigenvalues come back in descending order; each eigenvector is
    oriented so its largest-magnitude entry is positive.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"sym_eig needs a square matrix, got shape {a.shape}")
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        lead = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return SpectralDecomposition(eigenvectors=vecs, eigenvalues=vals)


def matrix_abs(mat) -> np.ndarray:
    """Spectral absolute value |A| = R |Lambda| R^T of a symmetric matrix."""
    dec = sym_eig(mat)
    out = (dec.eigenvectors * np.abs(dec.eigenvalues)) @ dec.eigenvectors.T
    return 0.5 * (out + out.T)


def require_nonsingular(what: str, pivots) -> None:
    """Screen the pivots of a factored system, column by column.

    ``pivots`` holds one system's pivots (1-D), or the pivots of several
    systems side by side (2-D, one system per column): LU diagonals, or the
    symbols of a system that is diagonal in a known basis. A system whose
    smallest/largest pivot magnitude is at most 1e-13 raises
    SingularMatrixError carrying the smallest magnitude.
    """
    mags = np.abs(np.asarray(pivots)).reshape(len(pivots), -1)
    smallest = mags.min(axis=0)
    singular = smallest <= _PIVOT_TOL * mags.max(axis=0)
    if singular.any():
        pivot = float(smallest[np.argmax(singular)])
        raise SingularMatrixError(f"singular {what} (pivot magnitude {pivot:.3e})", pivot)


def solve_dense(mat, rhs) -> np.ndarray:
    """Solve a dense square system by LU with partial pivoting.

    Accepts one right-hand side (1-D) or several (2-D columns). A singular or
    near-singular matrix (smallest/largest pivot ratio below 1e-13) raises
    SingularMatrixError carrying the pivot magnitude; this is the cheap
    condition screen the implicit substeps rely on near their poles.
    """
    a = np.asarray(mat)
    b = np.asarray(rhs)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"solve_dense needs a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix {a.shape}")
    dtype = np.complex128 if (np.iscomplexobj(a) or np.iscomplexobj(b)) else np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a.astype(dtype, copy=True))
    require_nonsingular("dense system", np.diag(lu))
    return scipy.linalg.lu_solve((lu, piv), b.astype(dtype, copy=False))
