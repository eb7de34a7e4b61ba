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
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .linalg import Diagonalization, SpectralDecomposition, matrix_abs, require_finite, sym_eig

__all__ = [
    "VDiscretization",
    "XGrid",
    "build_modal",
    "build_nodal",
    "build_xgrid",
    "coefficient_from_name",
    "fourier_mode",
    "gauss_legendre_points",
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
    both with wraparound along the grid axis of an array: the rows of a
    matrix or of each matrix in a stack, the entries of a vector;
    ``stencils`` gives both from one padded copy. Both are circulant: FFT
    mode m is an eigenvector, ``alpha`` multiplies it by 2i ``z``[m] and
    ``beta`` by -``two_y``[m]. The grid covers [0, 2 pi) with n_x points, so
    its point count is all it holds; the spacing ``dx`` follows from it.
    """

    n_x: int

    @cached_property
    def dx(self) -> float:
        """Spacing 2 pi / n_x."""
        return 2.0 * np.pi / self.n_x

    def alpha(self, u: np.ndarray) -> np.ndarray:
        return _first_difference(_wrap_pad(u))

    def beta(self, u: np.ndarray) -> np.ndarray:
        return _second_difference(_wrap_pad(u))

    def stencils(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(``alpha``(u), ``beta``(u)) from one periodic pad."""
        p = _wrap_pad(u)
        return _first_difference(p), _second_difference(p)

    @cached_property
    def y(self) -> np.ndarray:
        """Y_m = 1 - cos(theta_m), theta_m = 2 pi m / n_x, for each FFT mode m."""
        return 1.0 - np.cos(2.0 * np.pi * np.arange(self.n_x) / self.n_x)

    @cached_property
    def z(self) -> np.ndarray:
        """Z_m = sin(theta_m) as +-sqrt(Y_m (2 - Y_m)), negative above the
        Nyquist index, for each FFT mode m."""
        z = np.sqrt(self.y * (2.0 - self.y))
        return np.where(2 * np.arange(self.n_x) > self.n_x, -z, z)

    @cached_property
    def two_y(self) -> np.ndarray:
        """2 Y_m for each FFT mode m."""
        return 2.0 * self.y

    @cached_property
    def beta_eig(self) -> Diagonalization:
        """``beta`` diagonalized by the FFT along the grid axis (eigenvalues -2 Y_m)."""
        fft, ifft = partial(np.fft.fft, axis=-2), partial(np.fft.ifft, axis=-2)
        return Diagonalization(-self.two_y, fft, ifft, real=True)


def _wrap_pad(u: np.ndarray) -> np.ndarray:
    """u with one periodic ghost row on each end of its grid axis: axis 0 of
    a vector or matrix, -2 of a stack.

    Shifted slices of the padded copy apply a stencil at every row at once;
    at small n_x this beats both np.roll and writing the wraparound rows
    separately, and at large n_x it matches them. One gather of the rows
    copies the array, cheaper than concatenation at the N_x x r sizes of a
    march, into C order: the layout whose rounding the BLAS products that
    follow, and the oracle's pinned discrepancies, depend on.
    """
    axis = 0 if u.ndim < 3 else -2
    return u.take(_wrap_rows(u.shape[axis]), axis=axis)


@lru_cache(maxsize=None)
def _wrap_rows(n: int) -> np.ndarray:
    """Row indices n - 1, 0, 1, ..., n - 1, 0 (read-only: shared)."""
    rows = np.arange(-1, n + 1) % n
    rows.flags.writeable = False
    return rows


def _first_difference(p: np.ndarray) -> np.ndarray:
    if p.ndim < 3:
        return p[2:] - p[:-2]
    return p[..., 2:, :] - p[..., :-2, :]


def _second_difference(p: np.ndarray) -> np.ndarray:
    if p.ndim < 3:
        up, down, mid = p[2:], p[:-2], p[1:-1]
    else:
        up, down, mid = p[..., 2:, :], p[..., :-2, :], p[..., 1:-1, :]
    out = up + down
    out -= 2.0 * mid
    return out


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
    # Sorted neighbours, as np.unique compares them without importing
    # numpy.ma; NaNs sort last, and two of them count as equal there too.
    ordered = np.sort(pts)
    if ((ordered[1:] == ordered[:-1]) | np.isnan(ordered[:-1])).any():
        raise ValueError("v_points must be distinct")
    values = np.asarray(coeff_fn(pts), dtype=np.float64)
    require_finite("nodal coefficient values", values)
    coeff = np.diag(values)
    coeff_abs = np.diag(np.abs(values))
    return VDiscretization(coeff=coeff, coeff_abs=coeff_abs, spectrum=sym_eig(coeff))


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
    return VDiscretization(coeff=coeff, coeff_abs=matrix_abs(coeff), spectrum=sym_eig(coeff))


def build_xgrid(n_x: int) -> XGrid:
    """Periodic grid of n_x points on [0, 2 pi), spacing 2 pi / n_x."""
    if n_x < 3:
        raise ValueError("need at least 3 spatial points for periodic stencils")
    return XGrid(n_x=n_x)


def fourier_mode(m, n_x: int) -> np.ndarray:
    """Complex Fourier mode values exp(2*pi*i*j*m/n_x), j = 0..n_x-1, along
    a last axis: shape (n_x,) for one index m, m.shape + (n_x,) for an array
    of them."""
    m = np.asarray(m)
    outside = m[(m < 0) | (m >= n_x)]
    if outside.size:
        raise ValueError(f"mode index m={outside[0]} outside [0, {n_x})")
    j = np.arange(n_x)
    return np.exp(2j * np.pi * m[..., None] * j / n_x)

