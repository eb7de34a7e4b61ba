"""The machine's speed, measured beside each piece of work.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more within seconds, as other tenants load the shared cores and
caches. The process's CPU time drifts with its wall time, so neither reads
steadily from one run to the next: one config of ``march-hyp-64`` repeated
for a minute took 0.33 to 0.71 s.

So every piece of a unit of work (one CLI command, one ``run_simulation``
call) is bracketed by samples of a fixed calibration kernel that belongs to
the benchmark and calls nothing in psilab. A piece's times are multiplied by
``REFERENCE_S`` over the mean of the two samples around it: they read as
seconds on the machine at its reference speed, and a change to the program
moves them in full while a change of the host's speed divides out.

Load slows kinds of work unequally, so there are two kernels, and each
workload names the one whose work is like its own (``workloads.CALIBRATION``):

- ``interpreter``: a pure-Python elimination loop, 400 calls on 16x16 numpy
  arrays, and 192x192 BLAS products and a solve that stay in cache;
- ``memory``: the same cached BLAS work, and products that stream an 8 MB
  matrix from memory.

Alternating ``report`` commands with timed pieces of each part under load,
the commands followed the first kernel's parts and not the streaming
products, and the N_x = 1024 stepping followed the cached BLAS and
streaming parts and not the small numpy calls.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: Seconds of one calibration sample at the reference speed: a typical
#: sample of either kernel on a 2-core shared x86-64 host (Python 3.11.7,
#: numpy 2.4.6, OpenBLAS 0.3.31 on one thread), where it drifts from 0.06 to
#: 0.10 s. Scaled times are seconds at that speed.
REFERENCE_S = 0.08

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((192, 192))
_RHS = _rng.standard_normal((192, 192))
_WIDE = _rng.standard_normal((1024, 1024))
_THIN = _rng.standard_normal((1024, 4))
_SMALL = np.arange(256.0).reshape(16, 16) / 256.0


def _cached_blas() -> None:
    _SQUARE @ _RHS
    np.linalg.solve(_SQUARE, _RHS[:, 0])


def _interpreter() -> None:
    n = 40
    rows = [[1.0 / (i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            factor = row[k] / pivot[k]
            for j in range(k, n):
                row[j] -= factor * pivot[j]
    x = np.ones(16)
    for _ in range(400):
        x = _SMALL @ x
        x = x / np.linalg.norm(x)
    _cached_blas()


def _memory() -> None:
    _cached_blas()
    _WIDE @ _THIN
    _WIDE @ _THIN


#: Each kernel with its runs per sample, which make a sample about REFERENCE_S.
KERNELS = {"interpreter": (_interpreter, 16), "memory": (_memory, 25)}


def sample(kernel: str) -> float:
    """Seconds of one sample of ``kernel``, with the collector off."""
    run, repeats = KERNELS[kernel]
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(repeats):
            run()
        return perf_counter() - start
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns times taken between two samples into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
