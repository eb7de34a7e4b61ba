"""Correctness checks behind the benchmark's ``error_rate``.

Every check is one entry in a ``Checks`` ledger; ``error_rate`` is failed
checks over checks attempted. The program's outputs are compared with
references the program does not compute:

* figure grids: header, row count, the exact (Y, mu) lattice, and a
  fingerprint of the surface values kept in ``reference.json`` (weighted
  sums over each Y row, matched to 12 significant digits so roundoff-level
  rewrites of the surfaces still pass);
* mode-probe runs (``worst_mode``): the final/initial norm ratio kept in
  ``reference.json``, and the stability verdict predicted by the scheme's
  documented threshold mu*;
* random-data runs (``random_rank_r``, seeded by the benchmark's seed): the
  final/initial norm ratio and verdict of an independent reference stepper
  below, which uses FFTs and ``np.roll`` stencils where psilab uses dense
  matrices, LU and its own Householder QR.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

#: The harness's own stability slack, also used as the final-norm tolerance.
NORM_RTOL = 1e-8
#: Fingerprint sums must agree to 12 significant digits.
FINGERPRINT_RTOL = 1e-11
FIGURE_SIDE = 401

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class Checks:
    """Ledger of correctness checks: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def relclose(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# figure grids


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_grid_csv(path: str) -> tuple[str, np.ndarray]:
    """Header line and the (rows, 3) value table of a surface CSV."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        body = handle.read()
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    if values.size % 3:
        return header, np.empty((0, 3))
    return header, values.reshape(-1, 3)


def grid_fingerprint(table: np.ndarray) -> list[float]:
    """Weighted sum of h over each Y row (weights 1..2 along mu).

    h >= 0, so the sums do not cancel; the weights make a swap of two values
    within a row visible.
    """
    h = table[:, 2].reshape(FIGURE_SIDE, FIGURE_SIDE)
    weights = 1.0 + np.arange(FIGURE_SIDE) / (FIGURE_SIDE - 1)
    return [float(x) for x in h @ weights]


def check_figure(checks: Checks, name: str, path: str, mu_max: float, reference: dict) -> None:
    if not checks.check(os.path.isfile(path), f"{name}: not written"):
        return
    header, table = read_grid_csv(path)
    checks.check(header == "Y,mu,h", f"{name}: header {header!r}")
    if not checks.check(table.shape[0] == FIGURE_SIDE**2,
                        f"{name}: {table.shape[0]} rows, expected {FIGURE_SIDE**2}"):
        return
    ys = np.repeat(np.linspace(0.0, 2.0, FIGURE_SIDE), FIGURE_SIDE)
    mus = np.tile(np.linspace(0.0, mu_max, FIGURE_SIDE), FIGURE_SIDE)
    checks.check(np.array_equal(table[:, 0], ys) and np.array_equal(table[:, 1], mus),
                 f"{name}: (Y, mu) lattice differs")
    got = grid_fingerprint(table)
    want = reference["fingerprint"]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not relclose(a, b, FINGERPRINT_RTOL)]
    checks.check(len(got) == len(want) and not bad,
                 f"{name}: fingerprint differs in Y rows {bad[:5]}")


# ---------------------------------------------------------------------------
# march runs


def expected_stable(cfl: float, mu_star) -> bool:
    """Closed-form verdict: stable iff cfl <= mu* (or mu* is unconditional)."""
    return mu_star == "unconditional" or cfl <= mu_star


def check_run(checks: Checks, label: str, ratio: float, verdict: bool,
              want_ratio: float, want_verdict: bool) -> None:
    """One finished run: finite final norm, verdict, final/initial norm."""
    if not checks.check(math.isfinite(ratio), f"{label}: final norm ratio {ratio}"):
        return
    checks.check(verdict == want_verdict,
                 f"{label}: verdict {'stable' if verdict else 'GROWING'}, "
                 f"expected {'stable' if want_verdict else 'GROWING'}")
    checks.check(relclose(ratio, want_ratio, NORM_RTOL),
                 f"{label}: final/initial {ratio!r}, reference {want_ratio!r}")


def _alpha(u):
    """Periodic first difference u_{j+1} - u_{j-1}."""
    return np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)


def _beta(u):
    """Periodic second difference u_{j+1} - 2 u_j + u_{j-1}."""
    return np.roll(u, -1, axis=0) + np.roll(u, 1, axis=0) - 2.0 * u


def _beta_symbol(n_x: int) -> np.ndarray:
    """-symbol of the second difference on each FFT mode: 2 Y_m."""
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_x) / n_x))


def _theta_factor(lam, c, theta, two_y):
    """(1 - (1-theta) c lam 2Y) / (1 + theta c lam 2Y) per (FFT mode, lam)."""
    x = c * lam[None, :] * two_y[:, None]
    return (1.0 - (1.0 - theta) * x) / (1.0 + theta * x)


def _theta_columns(rhs, lam, c, theta, two_y):
    """One theta step of u' = c m_beta u diag(lam), solved in Fourier space."""
    factor = _theta_factor(lam, c, theta, two_y)
    return np.real(np.fft.ifft(np.fft.fft(rhs, axis=0) * factor, axis=0))


def reference_ratio(kind: str, x, s, v, coeff, coeff_abs, dx: float, dt: float,
                    steps: int, theta: float | None = None) -> float:
    """Final/initial Frobenius norm of a run, from an independent stepper.

    ``kind`` is ``hyp-dtp-lie`` (upwind forward Euler, Lie splitting),
    ``par-dtp-lie`` (theta substeps, Lie splitting) or ``par-full``
    (full-tensor theta scheme, closed form per Fourier x eigen mode). The
    low-rank steppers are written in their projector form, so the QR gauge
    does not enter.
    """
    x, s, v = (np.array(a, dtype=float) for a in (x, s, v))
    n_x = x.shape[0]
    start = np.linalg.norm(s)
    lam_a, rot_a = np.linalg.eigh(coeff)
    two_y = _beta_symbol(n_x)
    if kind == "par-full":
        c = dt / dx**2
        modes = np.fft.fft(x @ s @ v.T @ rot_a, axis=0)
        g = _theta_factor(lam_a, c, theta, two_y)
        return float(np.linalg.norm(modes * g**steps) / np.linalg.norm(modes))
    for _ in range(steps):
        if kind == "hyp-dtp-lie":
            def flux(u):
                return (_beta(u) @ coeff_abs - _alpha(u) @ coeff) / (2.0 * dx)
            k = x @ s
            k = k + dt * flux(k @ v.T) @ v
            x, s1 = np.linalg.qr(k)
            s2 = s1 - dt * x.T @ flux(x @ s1 @ v.T) @ v
            low = s2 @ v.T
            low = low + dt * x.T @ flux(x @ low)
        elif kind == "par-dtp-lie":
            c = dt / dx**2
            lam_t, rot_t = np.linalg.eigh(v.T @ coeff @ v)
            k = _theta_columns(x @ s @ rot_t, lam_t, c, theta, two_y) @ rot_t.T
            x, s1 = np.linalg.qr(k)
            cbeta = x.T @ _beta(x)
            rhs = (s1 - (1.0 - theta) * c * cbeta @ s1 @ v.T @ coeff @ v) @ rot_t
            s2 = np.column_stack([
                np.linalg.solve(np.identity(len(lam_t)) + c * theta * lam * cbeta, rhs[:, j])
                for j, lam in enumerate(lam_t)
            ]) @ rot_t.T
            low = s2 @ v.T
            rhs = (low + (1.0 - theta) * c * cbeta @ low @ coeff) @ rot_a
            low = np.column_stack([
                np.linalg.solve(np.identity(len(lam_t)) - c * theta * lam * cbeta, rhs[:, j])
                for j, lam in enumerate(lam_a)
            ]) @ rot_a.T
        else:
            raise ValueError(f"no reference stepper for '{kind}'")
        v, r = np.linalg.qr(low.T)
        s = r.T
    return float(np.linalg.norm(s) / start)
