"""Model-system discretizations.

Velocity space: a coefficient function a(v) turned into a symmetric operator,
either nodal (diagonal on given points) or modal (normalized Legendre basis on
[-1, 1] with Gauss-Legendre quadrature). Physical space: periodic
difference stencils on a uniform grid, applied by shifts and diagonal on
Fourier modes, plus the per-mode trigonometric shorthand the stability
analysis runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .linalg import Diagonalization, SpectralDecomposition, matrix_abs, require_finite, sym_eig

__all__ = [
    "ModeCoordinates",
    "VDiscretization",
    "XGrid",
    "build_modal",
    "build_nodal",
    "build_xgrid",
    "coefficient_from_name",
    "fourier_mode",
    "gauss_legendre_points",
    "mode_coords",
]

# Parabolic runs require a nonnegative coefficient spectrum; eigenvalues above
# this floor are treated as roundoff and clamped to zero.
_NEGATIVE_EIG_TOL = -1e-12


@dataclass(frozen=True)
class VDiscretization:
    """Symmetric velocity-space operator for a coefficient a(v).

    ``coeff`` is the operator matrix, ``coeff_abs`` its spectral absolute
    value (exact entrywise for the nodal variant), ``spectrum`` the shared
    eigendecomposition with eigenvalues descending.
    """

    kind: str
    coeff: np.ndarray
    coeff_abs: np.ndarray
    spectrum: SpectralDecomposition

    @property
    def size(self) -> int:
        return self.coeff.shape[0]

    def lambda_max(self, equation: str, strict: bool = True) -> float:
        """Largest propagation speed (hyperbolic) or diffusivity (parabolic).

        For parabolic use the spectrum must be nonnegative; values in
        [-1e-12, 0) are clamped to zero, anything below raises unless
        ``strict`` is disabled (one-step mode oracles are sign-agnostic).
        """
        vals = self.spectrum.eigenvalues
        if equation == "hyperbolic":
            return float(np.max(np.abs(vals)))
        if equation == "parabolic":
            smallest = float(vals.min())
            if strict and smallest < _NEGATIVE_EIG_TOL:
                raise ValueError(
                    "parabolic runs need a nonnegative coefficient spectrum, "
                    f"smallest eigenvalue is {smallest:.3e}"
                )
            return max(float(vals.max()), 0.0)
        raise ValueError(f"unknown equation class '{equation}'")


@dataclass(frozen=True)
class XGrid:
    """Uniform periodic grid with its central difference stencils.

    ``alpha`` applies the antisymmetric first difference (u_{j+1} - u_{j-1}),
    ``beta`` the symmetric second difference (u_{j-1} - 2 u_j + u_{j+1}),
    both along axis 0 with wraparound. Both are circulant: FFT mode m is an
    eigenvector, and ``beta`` multiplies it by -``two_y``[m].
    """

    n_x: int
    dx: float

    def alpha(self, u) -> np.ndarray:
        p = _wrap_pad(u)
        return p[2:] - p[:-2]

    def beta(self, u) -> np.ndarray:
        p = _wrap_pad(u)
        out = p[2:] + p[:-2]
        out -= 2.0 * p[1:-1]
        return out

    @cached_property
    def two_y(self) -> np.ndarray:
        """2 Y_m = 2 (1 - cos(2 pi m / n_x)) for each FFT mode m."""
        return 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(self.n_x) / self.n_x))

    @cached_property
    def beta_eig(self) -> Diagonalization:
        """``beta`` diagonalized by the FFT along axis 0 (eigenvalues -2 Y_m)."""
        fft, ifft = partial(np.fft.fft, axis=0), partial(np.fft.ifft, axis=0)
        return Diagonalization(-self.two_y, fft, ifft, real=True)

    @cached_property
    def m_alpha(self) -> np.ndarray:
        """Dense matrix of ``alpha``."""
        return self.alpha(np.identity(self.n_x))

    @cached_property
    def m_beta(self) -> np.ndarray:
        """Dense matrix of ``beta``."""
        return self.beta(np.identity(self.n_x))


def _wrap_pad(u) -> np.ndarray:
    """u with one periodic ghost row on each end of axis 0.

    Shifted slices of the padded copy apply a stencil at every row at once;
    at small n_x this beats both np.roll and writing the wraparound rows
    separately, and at large n_x it matches them.
    """
    u = np.asarray(u)
    return np.concatenate((u[-1:], u, u[:1]))


@dataclass(frozen=True)
class ModeCoordinates:
    """Trigonometric shorthand of Fourier mode m on an n_x-point grid."""

    m: int
    n_x: int
    theta: float
    y: float
    z: float
    alpha: complex
    beta: float


def coefficient_from_name(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Coefficient registry: ``const:<c>``, ``linear``, ``abs``, ``square``.

    Grammar is a bare name with an optional ':' followed by one decimal
    parameter; only ``const`` takes (and requires) the parameter.
    """
    name, sep, param = text.partition(":")
    if name == "const":
        if not sep or param == "":
            raise ValueError("coefficient 'const' needs a parameter, e.g. const:0.75")
        try:
            value = float(param)
        except ValueError as exc:
            raise ValueError(f"bad decimal parameter in coefficient '{text}'") from exc
        return lambda v: np.full_like(np.asarray(v, dtype=np.float64), value)
    if sep:
        raise ValueError(f"coefficient '{name}' takes no parameter")
    if name == "linear":
        return lambda v: np.asarray(v, dtype=np.float64)
    if name == "abs":
        return lambda v: np.abs(np.asarray(v, dtype=np.float64))
    if name == "square":
        return lambda v: np.asarray(v, dtype=np.float64) ** 2
    raise ValueError(f"unknown coefficient '{text}'")


def gauss_legendre_points(n: int) -> np.ndarray:
    """Gauss-Legendre nodes on [-1, 1]; the default nodal velocity grid."""
    if n < 1:
        raise ValueError("need at least one velocity point")
    return np.polynomial.legendre.leggauss(n)[0]


def build_nodal(coeff_fn: Callable[[np.ndarray], np.ndarray], v_points) -> VDiscretization:
    """Diagonal (collocation) velocity operator on distinct points."""
    pts = np.asarray(v_points, dtype=np.float64)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("v_points must be a nonempty 1-D array")
    if np.unique(pts).size != pts.size:
        raise ValueError("v_points must be distinct")
    values = np.asarray(coeff_fn(pts), dtype=np.float64)
    require_finite("nodal coefficient values", values)
    coeff = np.diag(values)
    coeff_abs = np.diag(np.abs(values))
    return VDiscretization(
        kind="nodal", coeff=coeff, coeff_abs=coeff_abs, spectrum=sym_eig(coeff)
    )


def build_modal(
    coeff_fn: Callable[[np.ndarray], np.ndarray], basis_size: int
) -> VDiscretization:
    """Galerkin velocity operator in the normalized Legendre basis on [-1, 1].

    Entries are quadrature approximations of the weighted products of basis
    functions; the Gauss order 2*basis_size integrates polynomial
    coefficients in the registry exactly.
    """
    if basis_size < 1:
        raise ValueError("basis_size must be at least 1")
    nodes, weights = np.polynomial.legendre.leggauss(2 * basis_size)
    vander = np.polynomial.legendre.legvander(nodes, basis_size - 1)
    norms = np.sqrt((2.0 * np.arange(basis_size) + 1.0) / 2.0)
    phi = vander * norms[np.newaxis, :]
    avals = np.asarray(coeff_fn(nodes), dtype=np.float64)
    require_finite("modal coefficient values", avals)
    coeff = phi.T @ (phi * (weights * avals)[:, np.newaxis])
    coeff = 0.5 * (coeff + coeff.T)
    return VDiscretization(
        kind="modal", coeff=coeff, coeff_abs=matrix_abs(coeff), spectrum=sym_eig(coeff)
    )


def build_xgrid(n_x: int, dx: float) -> XGrid:
    """Periodic grid of n_x points with spacing dx."""
    if n_x < 3:
        raise ValueError("need at least 3 spatial points for periodic stencils")
    if not dx > 0:
        raise ValueError("dx must be positive")
    return XGrid(n_x=n_x, dx=float(dx))


def fourier_mode(m: int, n_x: int) -> np.ndarray:
    """Complex Fourier mode values exp(2*pi*i*j*m/n_x), j = 0..n_x-1."""
    if not 0 <= m < n_x:
        raise ValueError(f"mode index m={m} outside [0, {n_x})")
    j = np.arange(n_x)
    return np.exp(2j * np.pi * m * j / n_x)


def mode_coords(m: int, n_x: int) -> ModeCoordinates:
    """Angle theta = 2*pi*m/n_x and the derived symbols of mode m.

    y = 1 - cos(theta) lies in [0, 2], z = sin(theta) (signed), alpha = 2iz
    and beta = -2y are the eigenvalues of the first/second difference
    stencils on that mode.
    """
    if not 0 <= m < n_x:
        raise ValueError(f"mode index m={m} outside [0, {n_x})")
    theta = 2.0 * np.pi * m / n_x
    y = 1.0 - np.cos(theta)
    z = np.sin(theta)
    return ModeCoordinates(
        m=m, n_x=n_x, theta=theta, y=float(y), z=float(z),
        alpha=complex(0.0, 2.0 * z), beta=float(-2.0 * y),
    )
