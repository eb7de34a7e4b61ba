"""Reference kernels the tests compare the package's lean versions against.

``reference_qr_thin_counted`` is the thin QR's earlier body, kept verbatim
apart from calling ``reference_frobenius_norm``: a per-row zeroing loop, a
fancy-index diagonal write, a ``np.divide`` phase for every dtype and
``np.linalg.norm`` for the rank tolerance. The LAPACK calls and the rank
completion are the package's own, so a test comparing the two checks the
bookkeeping around them byte for byte.
"""

import numpy as np

from psilab.linalg import RANK_TOL, _as_matrix, _complete_rank, _lapack_qr


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
