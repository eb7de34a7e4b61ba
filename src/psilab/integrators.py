"""Time steppers for the model systems.

Two families: full-tensor reference schemes on the dense unknown, and the
projector-splitting integrator (PSI) on a factored state X @ S @ V^H with QR
retractions after the K and L substeps. The two low-rank formulations differ
in where the discretization happens:

* dtp ("discretize then project"): each substep is the full-tensor
  right-hand side on the reconstructed slice, projected back onto the
  factors. The x-stencils act on X and the velocity operators on V, so the
  advection substeps run on X against the projected r x r coefficients
  V^H A V and V^H |A| V and never form an N_x x N_v slice; the diffusion
  substeps keep the slice form.
* ptd ("project then discretize"): each substep integrates the reduced
  equations built from projected coefficient matrices. In advection this is
  dtp with one difference: the upwind dissipation uses |V^T A V| rather
  than the projected |A|, so only K is upwinded and S and L are central.

Both are exact on rank-1 Fourier modes, which is what the amplification
module's closed forms describe; steppers accept complex states so those
mode probes can run through the production code path.

Every implicit system, K, S, L or full-tensor, is solved in the eigenbases of
both of its operators (``_implicit_solve``).

Every stepper broadcasts over leading axes: a stack of states (X of shape
(..., N_x, r), S (..., r, r), V (..., N_v, r), or dense slices (..., N_x, N_v))
advances as one, with the per-state norms and the total retraction count in
its report. A single state is the same code on plain matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import VDiscretization, XGrid
from .linalg import (
    Diagonalization,
    frobenius_norm,
    matrix_abs,
    qr_thin,  # not called here; bound so the benchmark's tracer can wrap it
    qr_thin_counted,
    require_nonsingular,
    solve_dense,  # not called here; bound so the benchmark's tracer can wrap it
    sym_eig,
)

__all__ = [
    "LowRankState",
    "SchemeSpec",
    "StepReport",
    "init_lowrank",
    "reconstruct",
    "step",
]

_APPROACHES = ("full_tensor", "dtp", "ptd")

#: Substeps each (equation, splitting) pair is defined with.
_SCHEME_SUBSTEPS = {
    ("hyperbolic", "lie"): ("forward_euler",),
    ("hyperbolic", "strang"): ("ssp_rk2",),
    ("parabolic", "lie"): (
        "forward_euler", "backward_euler", "crank_nicolson", "theta", "hybrid_be_fe_be",
    ),
    ("parabolic", "strang"): ("crank_nicolson",),
}

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class SchemeSpec:
    """Descriptor of one scheme: equation class, formulation, time stepping."""

    equation: str
    approach: str
    splitting: str = "lie"
    substep: str = "forward_euler"
    theta: float | None = None

    def __post_init__(self):
        substeps = _SCHEME_SUBSTEPS.get((self.equation, self.splitting))
        if substeps is None:
            raise ValueError(
                f"unknown equation '{self.equation}' or splitting '{self.splitting}'"
            )
        if self.approach not in _APPROACHES:
            raise ValueError(f"unknown approach '{self.approach}'")
        if self.substep not in substeps:
            raise ValueError(
                f"{self.equation} {self.splitting} splitting takes substeps "
                f"{', '.join(substeps)}; got '{self.substep}'"
            )
        if self.approach == "full_tensor" and (
            self.splitting != "lie" or self.substep == "hybrid_be_fe_be"
        ):
            raise ValueError(
                f"full_tensor schemes take lie splitting and no hybrid substep; "
                f"got '{self.splitting}' with '{self.substep}'"
            )
        if (self.theta is not None) != (self.substep == "theta"):
            raise ValueError(
                f"theta is given exactly when the substep is 'theta'; "
                f"got substep '{self.substep}' with theta {self.theta!r}"
            )
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")

    @property
    def theta_value(self) -> float:
        """Implicitness weight of the theta-family substep."""
        table = {"forward_euler": 0.0, "backward_euler": 1.0, "crank_nicolson": 0.5}
        if self.substep in table:
            return table[self.substep]
        if self.substep == "theta":
            return float(self.theta)  # validated above
        raise ValueError(f"substep '{self.substep}' has no theta weight")


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Factored state X @ S @ V^H with orthonormal X and V columns, or a
    stack of them along leading axes; ``ortho_residual`` is the largest
    deviation over the stack. A state that ``step`` returns has read-only
    factors and hands V's projected coefficients on to the next step."""

    X: np.ndarray
    S: np.ndarray
    V: np.ndarray
    ortho_residual: float = field(init=False, repr=False)  # set by the check below
    _vbasis: object = field(default=None, init=False, repr=False)  # set by _psi_step

    def __post_init__(self):
        x, s, v = np.asarray(self.X), np.asarray(self.S), np.asarray(self.V)
        if not 2 <= x.ndim == s.ndim == v.ndim:
            raise ValueError("state factors must be matrices or equal stacks of them")
        r = s.shape[-1]
        if (r < 1 or s.shape[-2:] != (r, r) or x.shape[-1] != r or v.shape[-1] != r
                or not x.shape[:-2] == s.shape[:-2] == v.shape[:-2]):
            raise ValueError(
                f"inconsistent factor shapes {x.shape}, {s.shape}, {v.shape}"
            )
        if x.shape[-2] < r or v.shape[-2] < r:
            raise ValueError("rank exceeds a factor dimension")
        devs = [_gram_deviation(f) for f in (x, v)]
        # A non-finite X or V makes its deviation inf or nan, so the full
        # finiteness scan runs only when some deviation is out of bounds.
        if not (devs[0] <= _ORTHO_TOL and devs[1] <= _ORTHO_TOL):
            for name, f in (("X", x), ("S", s), ("V", v)):
                if not np.isfinite(f).all():
                    raise FloatingPointError(f"factor {name} has non-finite entries")
            for name, dev in zip("XV", devs):
                if not dev <= _ORTHO_TOL:
                    raise ValueError(f"factor {name} is not orthonormal")
        if not np.isfinite(s).all():
            raise FloatingPointError("factor S has non-finite entries")
        object.__setattr__(self, "ortho_residual", max(devs))

    @property
    def rank(self) -> int:
        return self.S.shape[-1]


def _gram_deviation(f: np.ndarray) -> float:
    """Frobenius norm of F^H F - I, formed in at least double precision; the
    largest over a stack."""
    gram = f.conj().mT @ f
    if gram.dtype != np.float64 and gram.dtype != np.complex128:
        gram = gram.astype(np.result_type(f, np.float64))
    if gram.ndim > 2:
        return float(frobenius_norm(gram - np.identity(gram.shape[-1])).max())
    dev = gram.ravel()  # a view: the product is in C order
    dev[:: gram.shape[0] + 1] -= 1.0
    return math.sqrt(dev.dot(dev)) if dev.dtype == np.float64 else frobenius_norm(dev)


@dataclass(frozen=True)
class StepReport:
    """One accepted step: new state plus norm and retraction diagnostics.

    For a stack of states the norm is an array over the stack and
    ``qr_rank_events`` is the stack's total.
    """

    state_after: object
    frobenius_after: float | np.ndarray
    qr_rank_events: int = 0


def reconstruct(state: LowRankState) -> np.ndarray:
    return state.X @ state.S @ state.V.conj().mT


def init_lowrank(u0, rank: int) -> LowRankState:
    """Rank-r truncated SVD of a dense matrix: X and V the leading singular
    vectors, S the leading singular values. Exact whenever rank(u0) <= rank."""
    u = np.asarray(u0)
    if u.ndim != 2:
        raise ValueError("initial data must be a matrix")
    n, m = u.shape
    if not 1 <= rank <= min(n, m):
        raise ValueError(f"rank {rank} outside [1, {min(n, m)}]")
    x, sigma, vh = np.linalg.svd(u, full_matrices=False)
    return LowRankState(X=x[:, :rank], S=np.diag(sigma[:rank]), V=vh[:rank].conj().T)


# ---------------------------------------------------------------------------
# right-hand sides


def _upwind_flux(stencils, coeff, upwind, dx: float):
    """y -> c (beta(y) upwind - alpha(y) coeff) with c = 1/(2 dx), where
    ``stencils``(y) gives (alpha(y), beta(y)): the upwind advection flux of
    the full-tensor step and of every K substep, and, with the projected
    stencils X^H alpha(X) and X^H beta(X), of the dtp S and L substeps."""
    c = 1.0 / (2.0 * dx)

    def flux(y):
        fa, fb = stencils(y)
        return c * (fb @ upwind - fa @ coeff)
    return flux


def _projected_symmetric(v, mat) -> np.ndarray:
    """V^H mat V coerced to a real symmetric matrix.

    Complex bases only occur as rank-1 mode probes, where the projection is
    real up to roundoff; anything genuinely complex is rejected.
    """
    b = v.conj().mT @ (mat @ v)
    b = 0.5 * (b + b.conj().mT)
    if np.iscomplexobj(b):
        imag, real = frobenius_norm(b.imag), frobenius_norm(b.real)
        if np.any(imag > 1e-10 * (real + 1.0)):
            raise ValueError("projected coefficient matrix is not real")
        b = np.ascontiguousarray(b.real)
    return b


def _ssp_rk2(y, rhs, dt: float):
    stage1 = y + dt * rhs(y)
    stage2 = stage1 + dt * rhs(stage1)
    return 0.5 * (y + stage2)


def _implicit_solve(rhs, left: Diagonalization, right, scale: float):
    """Solve (I - scale*lam_k*B) u_k = rhs_k per eigencolumn k of the right
    coefficient, with B diagonalized by ``left``: in both eigenbases each
    system is the scalar 1 - x, x = scale*mu_j*lam_k, and a symbol with
    |1 - x| <= 1e-13 (1 + |x|) raises SingularMatrixError. A negative
    ``scale`` (the backward core substep) is where the implicit pole lives.
    """
    if scale == 0.0:
        return rhs  # the identity; skipping the transforms keeps it exact
    x = scale * (left.eigenvalues[..., :, None] * right.eigenvalues[..., None, :])
    symbol = 1.0 - x
    require_nonsingular("implicit system", symbol, 1.0 + np.abs(x))
    rot = right.eigenvectors
    out = left.inverse(left.forward(rhs @ rot) / symbol)
    if left.real and not np.iscomplexobj(rhs):
        out = out.real
    return out @ rot.mT


# ---------------------------------------------------------------------------
# projector-splitting engine

#: Substep sequence of each splitting: (factor, signed fraction of dt). The
#: core S substep runs backward in time, so its fractions are negative; K
#: and L substeps end in a QR retraction of their factor.
_SEQUENCES = {
    "lie": (("K", 1.0), ("S", -1.0), ("L", 1.0)),
    "strang": (("K", 0.5), ("S", -0.5), ("L", 1.0), ("S", -0.5), ("K", 0.5)),
}


class _lazy:
    """A per-instance attribute computed on first access and then stored
    in the instance, where it shadows this descriptor; unlike
    ``functools.cached_property`` on Python < 3.12 it takes no lock."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _VBasis:
    """A V factor with V^H A V and V^H |A| V as plain products (complex for
    a general complex V), the real symmetric V^T A V, |V^T A V| and its
    eigendecomposition, each built at most once. A step hands its final
    V's basis on with the state it returns."""

    def __init__(self, v: np.ndarray, vdisc: VDiscretization):
        self.v, self.vdisc = v, vdisc

    @_lazy
    def coeff(self) -> np.ndarray:
        return self.v.conj().mT @ (self.vdisc.coeff @ self.v)

    @_lazy
    def coeff_abs(self) -> np.ndarray:
        return self.v.conj().mT @ (self.vdisc.coeff_abs @ self.v)

    @_lazy
    def atil(self) -> np.ndarray:
        return _projected_symmetric(self.v, self.vdisc.coeff)

    @_lazy
    def abs_atil(self) -> np.ndarray:
        return matrix_abs(self.atil)

    @_lazy
    def tdec(self):
        return sym_eig(self.atil)


class _XBasis:
    """An X factor with its projected stencils, each built at most once:
    X^H alpha(X) alone (``calpha``, all that PtD advection reads), X^H
    beta(X) alone (``cbeta``, all that diffusion reads) and its
    diagonalization, and the pair (X^H alpha(X), X^H beta(X)) from one
    stencil pass (``cstencils``) for DtP advection."""

    def __init__(self, x: np.ndarray, grid: XGrid):
        self.x, self.grid = x, grid

    @_lazy
    def calpha(self) -> np.ndarray:
        return self.x.conj().mT @ self.grid.alpha(self.x)

    @_lazy
    def cbeta(self) -> np.ndarray:
        return self.x.conj().mT @ self.grid.beta(self.x)

    @_lazy
    def cstencils(self) -> tuple[np.ndarray, np.ndarray]:
        xh = self.x.conj().mT
        fa, fb = self.grid.stencils(self.x)
        return xh @ fa, xh @ fb

    @_lazy
    def cbeta_eig(self) -> Diagonalization:
        # eigh, not sym_eig: mode probes make X^H beta X complex Hermitian.
        vals, vecs = np.linalg.eigh(self.cbeta)
        forward, inverse = (lambda u: vecs.conj().mT @ u), (lambda z: vecs @ z)
        return Diagonalization(vals, forward, inverse, real=np.isrealobj(vecs))


def _hyperbolic_field(approach: str, factor: str, xb: _XBasis, vb: _VBasis):
    """Right-hand side of one advection substep, forward in time, with
    c = 1/(2 dx).

    dtp is the upwind flux on the reconstructed slice projected back, written
    on projected coefficients so the stencils only see N_x x r arrays:
    K' = c (beta(K) V^H|A|V - alpha(K) V^H A V), and for S and L the
    x-stencils enter as X^H alpha(X) and X^H beta(X) against S V^H A V,
    S V^H|A|V, L A and L |A|. ptd differs in one place: K is upwinded with
    |V^T A V| instead of V^H|A|V, and S and L carry no upwind term.
    """
    g, vd = xb.grid, vb.vdisc
    if factor == "K":
        if approach == "dtp":
            return _upwind_flux(g.stencils, vb.coeff, vb.coeff_abs, g.dx)
        return _upwind_flux(g.stencils, vb.atil, vb.abs_atil, g.dx)
    if approach == "dtp":
        calpha, cbeta = xb.cstencils
        if factor == "S":
            coeff, upwind = vb.coeff, vb.coeff_abs
        else:
            coeff, upwind = vd.coeff, vd.coeff_abs
        return _upwind_flux(lambda y: (calpha @ y, cbeta @ y), coeff, upwind, g.dx)
    c, calpha = 1.0 / (2.0 * g.dx), xb.calpha
    coeff = vb.atil if factor == "S" else vd.coeff
    return lambda y: -c * (calpha @ y @ coeff)


def _parabolic_field(approach: str, factor: str, xb: _XBasis, vb: _VBasis):
    """Right-hand side of one diffusion substep, forward in time, per unit
    dt/dx^2.

    dtp keeps the slice form on purpose: on projected coefficients it would
    be ptd's code, and the per-mode dtp/ptd comparison would check one path
    against itself.
    """
    g, vd, x, v = xb.grid, vb.vdisc, xb.x, vb.v
    if factor == "K":
        if approach == "dtp":
            vh = v.conj().mT
            return lambda k: g.beta(k @ vh) @ vd.coeff @ v
        atil = vb.atil
        return lambda k: g.beta(k @ atil)
    xh = x.conj().mT
    if factor == "S":
        if approach == "dtp":
            vh = v.conj().mT
            return lambda s: xh @ (g.beta(x @ s @ vh) @ vd.coeff) @ v
        cbeta, atil = xb.cbeta, vb.atil
        return lambda s: cbeta @ (s @ atil)
    if approach == "dtp":
        return lambda low: xh @ (g.beta(x @ low) @ vd.coeff)
    cbeta = xb.cbeta
    return lambda low: cbeta @ (low @ vd.coeff)


def _advance(spec: SchemeSpec, factor: str, xb: _XBasis, vb: _VBasis, y, h: float):
    """One substep of signed length h with the scheme's substep integrator:
    forward Euler or SSP-RK2 (hyperbolic), theta or the hybrid's
    theta = 1, 0, 1 on K, S, L (parabolic)."""
    if spec.equation == "hyperbolic":
        rhs = _hyperbolic_field(spec.approach, factor, xb, vb)
        if spec.substep == "ssp_rk2":
            return _ssp_rk2(y, rhs, h)
        return y + h * rhs(y)
    if spec.substep == "hybrid_be_fe_be":
        theta = 0.0 if factor == "S" else 1.0
    else:
        theta = spec.theta_value
    c = h / xb.grid.dx**2
    if theta != 1.0:
        y = y + (1.0 - theta) * c * _parabolic_field(spec.approach, factor, xb, vb)(y)
    if theta == 0.0:
        return y
    # Both formulations solve the projected system: K against the grid
    # stencil, S and L against X^H beta X.
    left = xb.grid.beta_eig if factor == "K" else xb.cbeta_eig
    right = vb.vdisc.spectrum if factor == "L" else vb.tdec
    return _implicit_solve(y, left, right, c * theta)


def _psi_step(spec: SchemeSpec, state: LowRankState, vdisc, grid, dt: float) -> StepReport:
    """One projector-splitting step: the splitting's substep sequence, with a
    QR retraction after every K and L substep.

    The returned state carries its V basis into the next step, which
    reuses it for the same velocity operator; its factors are read-only, so
    that basis cannot go stale.
    """
    vb = state._vbasis
    if vb is None or vb.vdisc is not vdisc:
        vb = _VBasis(state.V, vdisc)
    xb, s = _XBasis(state.X, grid), state.S
    events = 0
    for factor, fraction in _SEQUENCES[spec.splitting]:
        h = fraction * dt
        if factor == "K":
            x, s, ev = qr_thin_counted(_advance(spec, "K", xb, vb, xb.x @ s, h))
            xb = _XBasis(x, grid)
        elif factor == "S":
            s, ev = _advance(spec, "S", xb, vb, s, h), 0
        else:
            low = _advance(spec, "L", xb, vb, s @ vb.v.conj().mT, h)
            v, rl, ev = qr_thin_counted(low.conj().mT)
            vb, s = _VBasis(v, vdisc), rl.conj().mT
        events += ev
    for f in (xb.x, s, vb.v):
        f.flags.writeable = False
    new = LowRankState(X=xb.x, S=s, V=vb.v)
    object.__setattr__(new, "_vbasis", vb)
    # Orthonormal frames carry no norm: |X S V^H|_F = |S|_F.
    return StepReport(new, frobenius_norm(s), events)


# ---------------------------------------------------------------------------
# dispatch


def step(
    spec: SchemeSpec,
    current,
    vdisc: VDiscretization,
    grid: XGrid,
    dt: float,
) -> StepReport:
    """Advance one step of the scheme described by ``spec``.

    ``current`` is a dense matrix for the full-tensor approach and a
    LowRankState otherwise, either of them possibly a stack along leading
    axes; the report mirrors that type.
    """
    if dt == 0.0:
        # a zero step is the identity; skipping the retractions keeps it exact
        full = spec.approach == "full_tensor"
        norm = frobenius_norm(np.asarray(current) if full else current.S)
        return StepReport(current, norm, 0)
    if spec.approach == "full_tensor":
        u = np.asarray(current)
        if spec.equation == "hyperbolic":
            # forward Euler on the upwind flux
            flux = _upwind_flux(grid.stencils, vdisc.coeff, vdisc.coeff_abs, grid.dx)
            after = u + dt * flux(u)
        else:
            # theta scheme on the central diffusion flux
            theta = spec.theta_value
            after = _implicit_solve(
                u + (1.0 - theta) * dt * ((grid.beta(u) @ vdisc.coeff) / grid.dx**2),
                grid.beta_eig, vdisc.spectrum, dt / grid.dx**2 * theta,
            )
        return StepReport(after, frobenius_norm(after), 0)
    if not isinstance(current, LowRankState):
        raise TypeError("low-rank schemes need a LowRankState")
    return _psi_step(spec, current, vdisc, grid, dt)
