"""Reference kernels the tests compare the package's lean versions against,
byte for byte.

``reference_qr_thin_counted`` is the thin QR's earlier body, kept verbatim
apart from calling ``reference_frobenius_norm``: a per-row zeroing loop, a
fancy-index diagonal write, a ``np.divide`` phase for every dtype and
``np.linalg.norm`` for the rank tolerance. The LAPACK calls and the rank
completion are the package's own, so a test comparing the two checks the
bookkeeping around them byte for byte.

``reference_matrix_abs`` is the spectral absolute value built on
``sym_eig``'s sign-oriented eigenvectors; ``reference_gram_deviation`` forms
F^H F - I through a coercing ``np.asarray`` and ``frobenius_norm``;
``reference_stencils`` is ``XGrid.stencils`` through ``np.asarray`` and a
stack's swapped axes, with its own periodic pad; ``dense_alpha`` and
``dense_beta`` are the N_x x N_x matrices of a grid's stencils;
``implicit_columns`` solves the implicit systems that ``_implicit_solve``
solves in eigenbases by one dense LU (``solve_dense``) per eigencolumn.

``reference_contour_grid`` is ``contour_grid``'s earlier body: a separate h
matrix, then Y and mu columns from ``np.repeat`` and ``np.tile``.
"""

from functools import lru_cache

import numpy as np

from psilab.amplification import _sweep_on
from psilab.linalg import (
    RANK_TOL,
    _as_matrix,
    _complete_rank,
    _lapack_qr,
    frobenius_norm,
    solve_dense,
    sym_eig,
)


def reference_frobenius_norm(mat):
    a = np.asarray(mat)
    if a.ndim > 2:
        return np.linalg.norm(a, axis=(-2, -1))
    return float(np.linalg.norm(a))


def reference_qr_thin_counted(mat):
    a = _as_matrix(mat, "qr_thin input")
    n, r = a.shape[-2:]
    if n < r:
        raise ValueError(f"qr_thin needs at least as many rows as columns, got {n}x{r}")
    stack = a.ndim > 2
    scale = reference_frobenius_norm(a)
    in_range = (1e-100 <= scale) & (scale <= 1e100)
    if not (in_range.all() if stack else in_range):
        peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
        fix = np.logical_not(in_range) & (0.0 < peak) & (peak < np.inf)
        if fix.any():
            peak = np.where(fix, peak, 1.0)[..., None, None]
            scaled = (np.ascontiguousarray(a).view(np.float64) / peak).view(a.dtype)
            q, rfac, events = reference_qr_thin_counted(scaled)
            return q, rfac * peak, events
    q, rfac = _lapack_qr(a)
    diag = rfac.diagonal(0, -2, -1)
    mag = np.abs(diag)
    dependent = mag <= RANK_TOL * (scale[..., None] if stack else scale)
    completed = []
    events = 0
    if dependent.any():
        for idx in map(tuple, np.argwhere(dependent.any(axis=-1))) if stack else [()]:
            own = reference_frobenius_norm(a[idx]) if stack else scale
            first = int(dependent[idx].argmax())
            q[idx], rfac[idx], cols = _complete_rank(a[idx], q[idx], rfac[idx], own, first)
            completed.append(idx + (cols,))
            events += len(cols)
        mag = np.abs(diag)
    phase = np.divide(diag, mag, out=np.ones_like(diag), where=mag > 0)
    q *= phase[..., None, :]
    rfac = phase.conj()[..., :, None] * rfac
    for replaced in completed:
        mag[replaced] = 0.0
    for k in range(1, r):
        rfac[..., k, :k] = 0.0
    diagonal = np.arange(r)
    rfac[..., diagonal, diagonal] = mag
    return q, rfac, events


def reference_matrix_abs(mat):
    dec = sym_eig(mat)
    out = (dec.eigenvectors * np.abs(dec.eigenvalues)[..., None, :]) @ dec.eigenvectors.mT
    return 0.5 * (out + out.mT)


def reference_gram_deviation(f):
    gram = np.asarray(f.conj().mT @ f, dtype=np.result_type(f, np.float64))
    if gram.ndim > 2:
        return float(frobenius_norm(gram - np.identity(gram.shape[-1])).max())
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0
    return frobenius_norm(gram)


def _reference_wrap_pad(u):
    if u.ndim < 3:
        n = u.shape[0]
        return u.take(np.concatenate(([n - 1], np.arange(n), [0])), axis=0)
    return np.concatenate((u[-1:], u, u[:1]))


def reference_stencils(u):
    """(alpha(u), beta(u)) along the grid axis, from one periodic pad."""
    u = np.asarray(u)
    p = _reference_wrap_pad(u if u.ndim < 3 else u.swapaxes(0, -2))
    second = p[2:] + p[:-2]
    second -= 2.0 * p[1:-1]
    outs = p[2:] - p[:-2], second
    return outs if u.ndim < 3 else tuple(out.swapaxes(0, -2) for out in outs)


@lru_cache(maxsize=None)
def dense_alpha(grid):
    """Dense matrix of ``grid.alpha``."""
    return grid.alpha(np.identity(grid.n_x))


@lru_cache(maxsize=None)
def dense_beta(grid):
    """Dense matrix of ``grid.beta``."""
    return grid.beta(np.identity(grid.n_x))


def implicit_columns(rhs, op, dec, scale: float):
    """Dense-LU reference for ``_implicit_solve``: solve
    (I - scale*lam_k*op) u_k = rhs_k per eigencolumn k of the right
    coefficient, by one LU per column."""
    rot, eye = dec.eigenvectors, np.identity(op.shape[0])
    cols = zip(dec.eigenvalues, (rhs @ rot).T)
    return np.stack([solve_dense(eye - scale * lam * op, b) for lam, b in cols], axis=1) @ rot.T


def reference_contour_grid(surface, y_points, mu_points, mu_max):
    ys = np.linspace(0.0, 2.0, y_points)
    mus = np.linspace(0.0, mu_max, mu_points)
    h = np.empty((y_points, mu_points))
    for j, mu in enumerate(mus):
        h[:, j] = _sweep_on(surface, ys, float(mu))
    out = np.empty((y_points * mu_points, 3))
    out[:, 0] = np.repeat(ys, mu_points)
    out[:, 1] = np.tile(mus, y_points)
    out[:, 2] = h.reshape(-1)
    return out
