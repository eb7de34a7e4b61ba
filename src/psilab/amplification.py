"""Closed-form one-step multipliers and stability surfaces.

A rank-1 Fourier probe x_m v_k^T (grid mode m, coefficient eigenvector k)
passes through every scheme as a scalar multiplier. One formula per scheme
gives two views of it:

* ``mode_multiplier``: the exact complex factor at mode coordinates
  (y, nu, z), floats or broadcasting arrays alike, cross-checked elsewhere
  against the production steppers over the whole (m, k) lattice.
* ``stability_surface``: the squared modulus as a function of
  Y = 1 - cos(theta) in [0, 2] and mu = |nu| >= 0, the object the stability
  boundaries and contour grids are built from. Stability of a scheme means
  every surface value stays at or below one.

``amp_p1_p2_p3`` gives the substep factors of the hyperbolic Lie products.

Mode coordinates: y = 1 - cos(theta) in [0, 2] of the grid mode, nu the
signed Courant number of the coefficient eigendirection, and
z = +-sqrt(y (2 - y)) = sin(theta), negative for grid modes above the
Nyquist index (``XGrid.y`` and ``XGrid.z`` hold them per mode).

A diffusion multiplier is a product of implicit factors, each a quotient
(numerator, denominator) read off the ``SchemeSpec``. One pole rule covers
them all: a factor whose denominator lies within _POLE_TOL * (1 + |x|) of
zero is at its resonance, and the multiplier there is inf, a sentinel kept
in grid output and counted as infinitely unstable by the worst-mode scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import SchemeSpec

__all__ = [
    "BoundaryResult",
    "ContourGrid",
    "Y_GRID",
    "amp_p1_p2_p3",
    "contour_grid",
    "find_boundary",
    "mode_multiplier",
    "stability_surface",
]

def _sorted_distinct(values) -> np.ndarray:
    """The distinct values, ascending: ``np.unique`` without its import of
    numpy.ma."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


#: Stability is judged on this Y sample. The uniform part resolves interior
#: violations; the geometric tail resolves thresholds whose first violation
#: appears at Y -> 0+ (the Lie splittings), where the unstable band at
#: distance delta above the threshold has width O(delta).
Y_GRID = _sorted_distinct(
    np.concatenate(
        [
            np.linspace(0.0, 2.0, 4001),
            np.geomspace(1e-9, 1e-2, 241),
            [2.0],
        ]
    )
)

_STABLE_SLACK = 1e-12
_POLE_TOL = 1e-12
_MAX_HALVINGS = 60  # bisection steps in find_boundary


# ---------------------------------------------------------------------------
# one-step multipliers; y, nu and z are floats or arrays alike


def _p1(y, nu, z):
    """Upwind Euler factor: forward K/L substeps and the full scheme."""
    return (1.0 - abs(nu) * y) - 1j * nu * z


def amp_p1_p2_p3(y, nu, z):
    """Substep factors of the hyperbolic Lie splittings at (y, nu, z).

    Returns (P1, P2 of the projected backward substep, P2 and P3 of the
    reduced central substeps); the products P1^2 * P2 and P1 * P2 * P3 are
    the one-step factors of the two formulations.
    """
    p1 = _p1(y, nu, z)
    core = 1j * nu * z
    return p1, 2.0 - p1, 1.0 + core, 1.0 - core


def _rk2(p):
    """Heun average: two Euler stages of factor p, then the midpoint."""
    return 0.5 * (1.0 + p * p)


def _hyperbolic_multiplier(spec: SchemeSpec, y, nu, z):
    p1 = _p1(y, nu, z)
    if spec.approach == "full_tensor":
        return p1
    if spec.splitting == "lie":
        if spec.approach == "dtp":
            return p1 * p1 * (2.0 - p1)
        return p1 * (1.0 + 1j * nu * z) * (1.0 - 1j * nu * z)
    half = _p1(y, 0.5 * nu, z)
    pk = _rk2(half)
    if spec.approach == "dtp":
        ps = _rk2(2.0 - half)
        pl = _rk2(p1)
    else:
        ps = _rk2(1.0 + 1j * (0.5 * nu) * z)
        pl = _rk2(1.0 - 1j * nu * z)
    return pk * ps * pl * ps * pk


def _parabolic_factors(spec: SchemeSpec, x):
    """(numerator, denominator) pairs of the diffusion multiplier at
    x = 2*Y*nu; their quotients multiply left to right."""
    if spec.substep == "hybrid_be_fe_be":
        return [(1.0, 1.0 + x)]
    theta = spec.theta_value
    step = (1.0 - (1.0 - theta) * x, 1.0 + theta * x)
    if spec.approach == "full_tensor" or theta == 0.5:
        # Strang telescopes to one Crank-Nicolson step; the Lie backward
        # substep cancels one forward factor exactly.
        return [step]
    return [step, step, (1.0 + (1.0 - theta) * x, 1.0 - theta * x)]


def _parabolic_multiplier(spec: SchemeSpec, x):
    """The diffusion multiplier at x = 2*Y*nu on floats or arrays, and
    whether a factor sits at its pole there (the pole rule)."""
    g, at_pole = 1.0, False
    for num, den in _parabolic_factors(spec, x):
        at_pole = at_pole | (abs(den) <= _POLE_TOL * (1.0 + abs(x)))
        g = g * (num / den)
    return g, at_pole


def mode_multiplier(spec: SchemeSpec, y, nu, z):
    """Exact one-step factor of every scheme on the rank-1 Fourier probe at
    (y, nu, z), floats or arrays that broadcast; inf at implicit poles. The
    one formula behind the oracle, the worst-mode scan and the surfaces."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.equation == "hyperbolic":
            return _hyperbolic_multiplier(spec, y, nu, z)
        # x as a numpy float, so that a zero denominator divides to inf
        g, at_pole = _parabolic_multiplier(spec, np.multiply(2.0 * y, nu))
        return np.where(at_pole, np.inf, g)


# ---------------------------------------------------------------------------
# stability surfaces: h(Y, mu) = |g(Y, nu = mu, z = sqrt(Y (2 - Y)))|^2


def stability_surface(spec: SchemeSpec):
    """The (Y, mu) stability surface of a scheme, inf at implicit poles."""

    def surface(y, mu):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.abs(mode_multiplier(spec, y, mu, np.sqrt(y * (2.0 - y)))) ** 2

    return surface


# ---------------------------------------------------------------------------
# stability boundary and contour output


@dataclass(frozen=True)
class BoundaryResult:
    """Bisection outcome: the critical mu (or "unconditional"), the Y of the
    largest surface value on the unstable edge, the final bracket, and how
    many surface sweeps the search used."""

    critical_mu: float | str
    worst_y: float
    lo: float
    hi: float
    evaluations: int


def _sweep_on(surface, ys: np.ndarray, mu: float | np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.asarray(surface(ys, mu), dtype=float)


def find_boundary(surface, mu_cap: float, tol: float) -> BoundaryResult:
    """Largest mu at which the surface stays at or below one on Y_GRID.

    The cap is probed first: a scheme stable there is reported
    unconditional. Otherwise bisection on [0, cap] narrows the boundary to
    ``tol``. Each probe is one sweep of Y_GRID, NaN read as inf, and
    ``evaluations`` counts them. The worst Y is read off the sweep kept from
    the unstable edge: the cap on an unconditional row, else the bracket's
    ``hi``. A cap and tolerance that 60 halvings cannot bring together raise
    ValueError.

    "At or below one" means within _STABLE_SLACK, which admits the slight
    growth of the hyperbolic Lie surfaces just above mu* = 1/3 near Y ~ 1e-6.
    Below a ``tol`` of about 1e-6 their brackets exclude 1/3 (hyp-dtp-lie-fe
    at tol 1e-9: [0.3333341032, 0.3333341042]); the diffusion rows stay
    bracketed. The exact boundaries planned in ROADMAP.md remove the slack.
    """
    if not 0.0 < mu_cap < math.inf:
        raise ValueError(f"mu_cap must be finite and positive, got {mu_cap}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    evals = 0

    def sweep(mu: float) -> tuple[bool, np.ndarray]:
        nonlocal evals
        evals += 1
        h = _sweep_on(surface, Y_GRID, mu)
        h = np.where(np.isnan(h), np.inf, h)
        return bool(np.all(h <= 1.0 + _STABLE_SLACK)), h

    stable, worst = sweep(mu_cap)
    if stable:
        worst_y = float(Y_GRID[int(np.argmax(worst))])
        return BoundaryResult("unconditional", worst_y, mu_cap, mu_cap, evals)

    lo, hi = 0.0, mu_cap
    for _ in range(_MAX_HALVINGS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        stable, h = sweep(mid)
        if stable:
            lo = mid
        else:
            hi, worst = mid, h
    if hi - lo > tol:
        raise ValueError(
            f"bisection bracket [{lo:g}, {hi:g}] is still wider than tol = {tol:g} "
            f"after {_MAX_HALVINGS} halvings of mu_cap = {mu_cap:g}"
        )
    worst_y = float(Y_GRID[int(np.argmax(worst))])
    return BoundaryResult(0.5 * (lo + hi), worst_y, lo, hi, evals)


#: Values one lattice tile holds at most. ``contour_grid`` evaluates the
#: surface tile by tile and the contour writer formats it tile by tile.
_TILE_VALUES = 2048


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """A surface tabulated on a lattice, ``h[i, j]`` at (``ys[i]``, ``mus[j]``),
    compared and hashed by identity. Its rows (Y, mu, h) run Y-major, all mu
    values of the first Y, then the next Y; ``len`` is the row count. The
    axes must be 1-D and non-empty, and ``h`` must have their lengths as its
    shape (ValueError otherwise)."""

    ys: np.ndarray
    mus: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        axes = (np.shape(self.ys), np.shape(self.mus))
        if any(len(shape) != 1 or not shape[0] for shape in axes):
            raise ValueError(f"a lattice needs non-empty 1-D axes, got shapes {axes}")
        if np.shape(self.h) != (axes[0][0], axes[1][0]):
            raise ValueError(f"h has shape {np.shape(self.h)}, the axes need "
                             f"{(axes[0][0], axes[1][0])}")

    def __len__(self) -> int:
        return self.h.size

    def tiles(self):
        """(rows, cols) slices of ``h`` that cover the lattice in row order, at
        most _TILE_VALUES values each: whole Y runs, or one Y and a stretch of
        mu."""
        y_count, mu_count = self.h.shape
        y_step, mu_step = max(1, _TILE_VALUES // mu_count), min(mu_count, _TILE_VALUES)
        for y0 in range(0, y_count, y_step):
            for m0 in range(0, mu_count, mu_step):
                yield slice(y0, y0 + y_step), slice(m0, m0 + mu_step)


def contour_grid(surface, y_points: int, mu_points: int, mu_max: float) -> ContourGrid:
    """Tabulate the surface on [0, 2] x [0, mu_max].

    Poles appear as inf and are preserved for the text output. ``h`` is the
    only grid-sized array: each of the lattice's tiles is one sweep, its Y
    against its mu, written straight into it. The tile bound keeps the bits
    of a sweep per mu column: one broadcast over a whole 401 x 401 figure
    moves 5927 of hyp-ptd-lie-fe's values by an ulp, and tiles of whole Y
    runs still agree at 16040 values and differ at 16842.
    """
    if y_points < 2 or mu_points < 2:
        raise ValueError("need at least two points per axis")
    if not 0.0 < mu_max < math.inf:
        raise ValueError(f"mu_max must be finite and positive, got {mu_max}")
    ys = np.linspace(0.0, 2.0, y_points)
    mus = np.linspace(0.0, mu_max, mu_points)
    grid = ContourGrid(ys, mus, np.empty((y_points, mu_points)))
    for rows, cols in grid.tiles():
        grid.h[rows, cols] = _sweep_on(surface, ys[rows, None], mus[None, cols])
    return grid
