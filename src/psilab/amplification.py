"""Closed-form one-step multipliers and stability surfaces.

A rank-1 Fourier probe x_m v_k^T (grid mode m, coefficient eigenvector k)
passes through every scheme as a scalar multiplier. One formula per scheme
gives two views of it:

* ``mode_multiplier``: the exact complex factor for a signed Courant number,
  cross-checked elsewhere against the production steppers.
* stability surfaces (``stability_surface``, ``h_*``): the squared modulus
  as a function of Y = 1 - cos(theta) in [0, 2] and mu = |nu| >= 0, the
  objects the stability boundaries and contour grids are built from.
  Stability of a scheme means every surface value stays at or below one.

A diffusion multiplier is a product of implicit factors, each a quotient
(numerator, denominator) read off the ``SchemeSpec``. One pole rule covers
them all: a factor whose denominator lies within _POLE_TOL * (1 + |x|) of
zero is at its resonance. There the array path (surfaces, worst-mode scan)
yields inf, kept as a sentinel in grid output, and the scalar path
(``mode_multiplier``, ``g_parabolic``) raises PoleError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import SchemeSpec

__all__ = [
    "AmpQuery",
    "BoundaryResult",
    "PoleError",
    "Y_GRID",
    "amp_full_hyperbolic",
    "amp_p1_p2_p3",
    "contour_grid",
    "find_boundary",
    "g_parabolic",
    "h_dtp_lie",
    "h_dtp_strang_rk2",
    "h_full_fe",
    "h_parabolic_surface",
    "h_ptd_lie",
    "h_ptd_strang_rk2",
    "mode_multiplier",
    "stability_surface",
]

#: Stability is judged on this Y sample. The uniform part resolves interior
#: violations; the geometric tail resolves thresholds whose first violation
#: appears at Y -> 0+ (the Lie splittings), where the unstable band at
#: distance delta above the threshold has width O(delta).
Y_GRID = np.unique(
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


class PoleError(ArithmeticError):
    """An implicit factor was evaluated at (or too close to) its resonance."""

    def __init__(self, x: float, where: str):
        super().__init__(f"implicit factor pole near x = {x!r} in {where}")
        self.x = x
        self.where = where


@dataclass(frozen=True)
class AmpQuery:
    """Mode coordinates for a one-step multiplier.

    ``y`` is 1 - cos(theta) of the grid mode, ``nu`` the signed Courant
    number of the coefficient eigendirection, ``z_sign`` the sign of
    sin(theta) (grid modes above the Nyquist index carry -1).
    """

    y: float
    nu: float
    z_sign: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.y <= 2.0:
            raise ValueError(f"y must lie in [0, 2], got {self.y}")
        if self.z_sign not in (1.0, -1.0):
            raise ValueError(f"z_sign must be +-1, got {self.z_sign}")

    @property
    def mu(self) -> float:
        return abs(self.nu)

    @property
    def z(self) -> float:
        return self.z_sign * math.sqrt(self.y * (2.0 - self.y))


# ---------------------------------------------------------------------------
# one-step multipliers; y, nu and z are floats or arrays alike


def _p1(y, nu, z):
    """Upwind Euler factor: forward K/L substeps and the full scheme."""
    return (1.0 - abs(nu) * y) - 1j * nu * z


def amp_full_hyperbolic(q: AmpQuery) -> complex:
    """One-step factor of the full-tensor upwind forward Euler scheme."""
    return _p1(q.y, q.nu, q.z)


def amp_p1_p2_p3(q: AmpQuery) -> tuple[complex, complex, complex, complex]:
    """Substep factors of the hyperbolic Lie splittings.

    Returns (P1, P2 of the projected backward substep, P2 and P3 of the
    reduced central substeps); the products P1^2 * P2 and P1 * P2 * P3 are
    the one-step factors of the two formulations.
    """
    p1 = _p1(q.y, q.nu, q.z)
    core = 1j * q.nu * q.z
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


def _at_pole(den, x):
    """The pole rule, on floats or arrays: |den| <= _POLE_TOL * (1 + |x|)."""
    return abs(den) <= _POLE_TOL * (1.0 + abs(x))


def _multiplier(spec: SchemeSpec, y, nu, z):
    """One-step factor of every scheme on arrays, the single formula behind
    the stability surfaces and the worst-mode scan; inf at implicit poles."""
    if spec.equation == "hyperbolic":
        return _hyperbolic_multiplier(spec, y, nu, z)
    x = 2.0 * y * nu
    g, near = 1.0, False
    for num, den in _parabolic_factors(spec, x):
        near = near | _at_pole(den, x)
        g = g * (num / den)
    return np.where(near, np.inf, g)


def _parabolic_scalar(spec: SchemeSpec, x: float) -> float:
    """The diffusion multiplier in float arithmetic; PoleError at a pole."""
    g = 1.0
    for num, den in _parabolic_factors(spec, x):
        if _at_pole(den, x):
            raise PoleError(x, repr(spec))
        g = g * (num / den)
    return g


def mode_multiplier(spec: SchemeSpec, q: AmpQuery) -> complex:
    """Exact one-step factor of the scheme on the rank-1 Fourier probe."""
    if spec.equation == "hyperbolic":
        return complex(_hyperbolic_multiplier(spec, q.y, q.nu, q.z))
    return complex(_parabolic_scalar(spec, 2.0 * q.y * q.nu))


#: Diffusion variant names and the (approach, splitting, substep) of each.
_VARIANTS = {
    "full_theta": ("full_tensor", "lie", "theta"),
    "dtp_lie_theta": ("dtp", "lie", "theta"),
    "hybrid": ("dtp", "lie", "hybrid_be_fe_be"),
    "strang_cn": ("dtp", "strang", "crank_nicolson"),
}


def _variant_spec(variant: str, theta: float | None) -> SchemeSpec:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown parabolic variant '{variant}'")
    return SchemeSpec("parabolic", *_VARIANTS[variant], theta)


def g_parabolic(x: float, variant: str, theta: float | None = None) -> float:
    """One-step multiplier of the diffusion schemes at x = 2*Y*nu (signed).

    Variants: ``full_theta`` (single theta step), ``dtp_lie_theta`` (Lie
    splitting with theta substeps; identical for both low-rank formulations),
    ``hybrid`` (backward-forward-backward Euler), ``strang_cn`` (Strang with
    Crank-Nicolson substeps, which telescopes to one Crank-Nicolson step).
    Theta is given exactly for the theta variants, in [0, 1].
    """
    return _parabolic_scalar(_variant_spec(variant, theta), x)


# ---------------------------------------------------------------------------
# stability surfaces: h(Y, mu) = |g(Y, nu = mu, z = sqrt(Y (2 - Y)))|^2


def _surface(g):
    def surface(y, mu):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.abs(g(y, mu, np.sqrt(y * (2.0 - y)))) ** 2

    return surface


def stability_surface(spec: SchemeSpec):
    """The (Y, mu) stability surface of a scheme, inf at implicit poles."""
    return _surface(lambda y, nu, z: _multiplier(spec, y, nu, z))


def h_parabolic_surface(variant: str, theta: float | None = None):
    """The (Y, mu) stability surface of a diffusion multiplier variant."""
    return stability_surface(_variant_spec(variant, theta))


#: Hyperbolic surfaces: full-tensor upwind forward Euler, then the Lie
#: (forward Euler substeps) and Strang (Heun substeps) splittings in the
#: discretize-then-project and project-then-discretize formulations.
h_full_fe = stability_surface(SchemeSpec("hyperbolic", "full_tensor"))
h_dtp_lie = stability_surface(SchemeSpec("hyperbolic", "dtp"))
h_ptd_lie = stability_surface(SchemeSpec("hyperbolic", "ptd"))
h_dtp_strang_rk2 = stability_surface(SchemeSpec("hyperbolic", "dtp", "strang", "ssp_rk2"))
h_ptd_strang_rk2 = stability_surface(SchemeSpec("hyperbolic", "ptd", "strang", "ssp_rk2"))


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


def _sweep(surface, mu: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.asarray(surface(Y_GRID, mu), dtype=float)
    return np.where(np.isnan(h), np.inf, h)


def find_boundary(surface, mu_cap: float, tol: float) -> BoundaryResult:
    """Largest mu at which the surface stays at or below one on Y_GRID.

    The cap is probed first: a scheme stable there is reported
    unconditional. Otherwise bisection on [0, cap] narrows the boundary to
    ``tol``; the worst Y is read off the unstable bracket edge. A cap and
    tolerance that 60 halvings cannot bring together raise ValueError.
    """
    if not 0.0 < mu_cap < math.inf:
        raise ValueError(f"mu_cap must be finite and positive, got {mu_cap}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    evals = 0

    def stable(mu: float) -> bool:
        nonlocal evals
        evals += 1
        h = _sweep(surface, mu)
        return bool(np.all(h <= 1.0 + _STABLE_SLACK))

    if stable(mu_cap):
        worst = _sweep(surface, mu_cap)
        worst_y = float(Y_GRID[int(np.argmax(worst))])
        return BoundaryResult("unconditional", worst_y, mu_cap, mu_cap, evals)

    lo, hi = 0.0, mu_cap
    for _ in range(_MAX_HALVINGS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    if hi - lo > tol:
        raise ValueError(
            f"bisection bracket [{lo:g}, {hi:g}] is still wider than tol = {tol:g} "
            f"after {_MAX_HALVINGS} halvings of mu_cap = {mu_cap:g}"
        )
    worst = _sweep(surface, hi)
    worst_y = float(Y_GRID[int(np.argmax(worst))])
    return BoundaryResult(0.5 * (lo + hi), worst_y, lo, hi, evals)


def contour_grid(surface, y_points: int, mu_points: int, mu_max: float) -> np.ndarray:
    """Tabulate the surface on [0, 2] x [0, mu_max] as rows (Y, mu, h).

    Rows run Y-major: all mu values of the first Y, then the next Y. Poles
    appear as inf and are preserved for the text output.
    """
    if y_points < 2 or mu_points < 2:
        raise ValueError("need at least two points per axis")
    if not 0.0 < mu_max < math.inf:
        raise ValueError(f"mu_max must be finite and positive, got {mu_max}")
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


def _sweep_on(surface, ys: np.ndarray, mu: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.asarray(surface(ys, mu), dtype=float)
