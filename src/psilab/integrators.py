"""Time steppers for the model systems.

Two families: full-tensor reference schemes on the dense unknown, and the
projector-splitting integrator (PSI) on a factored state X @ S @ V^H with QR
retractions after the K and L substeps. The two low-rank formulations differ
in where the discretization happens:

* dtp ("discretize then project"): each substep applies the full-tensor
  right-hand side to the reconstructed slice and projects the result back
  onto the factors.
* ptd ("project then discretize"): each substep integrates the reduced
  equations built from projected coefficient matrices; in particular the
  upwind dissipation uses |V^T A V| rather than the projected |A|.

Both are exact on rank-1 Fourier modes, which is what the amplification
module's closed forms describe; steppers accept complex states so those
mode probes can run through the production code path.

Every implicit system, K, S, L or full-tensor, is solved in the eigenbases of
both of its operators (``_implicit_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretize import VDiscretization, XGrid
from .linalg import (
    Diagonalization,
    frobenius_norm,
    matrix_abs,
    qr_thin,
    qr_thin_counted,
    require_nonsingular,
    solve_dense,
    sym_eig,
)

__all__ = [
    "LowRankState",
    "SchemeSpec",
    "StepReport",
    "full_step_hyperbolic",
    "full_step_parabolic",
    "init_lowrank",
    "orthonormality_residual",
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
    """Factored state X @ S @ V^H with orthonormal X and V columns."""

    X: np.ndarray
    S: np.ndarray
    V: np.ndarray
    ortho_residual: float = field(init=False, repr=False)  # set by the check below

    def __post_init__(self):
        x, s, v = np.asarray(self.X), np.asarray(self.S), np.asarray(self.V)
        if x.ndim != 2 or s.ndim != 2 or v.ndim != 2:
            raise ValueError("state factors must be matrices")
        r = s.shape[0]
        if r < 1 or s.shape != (r, r) or x.shape[1] != r or v.shape[1] != r:
            raise ValueError(
                f"inconsistent factor shapes {x.shape}, {s.shape}, {v.shape}"
            )
        if x.shape[0] < r or v.shape[0] < r:
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
        return self.S.shape[0]


def _gram_deviation(f: np.ndarray) -> float:
    """Frobenius norm of F^H F - I, formed in at least double precision."""
    gram = np.asarray(f.conj().T @ f, dtype=np.result_type(f, np.float64))
    gram.ravel()[:: gram.shape[0] + 1] -= 1.0
    return frobenius_norm(gram)


@dataclass(frozen=True)
class StepReport:
    """One accepted step: new state plus norm and retraction diagnostics."""

    state_after: object
    frobenius_before: float
    frobenius_after: float
    qr_rank_events: int = 0


def reconstruct(state: LowRankState) -> np.ndarray:
    return state.X @ state.S @ state.V.conj().T


def orthonormality_residual(state: LowRankState) -> float:
    """Largest Frobenius deviation of X^H X and V^H V from the identity."""
    return state.ortho_residual


def init_lowrank(u0, rank: int) -> LowRankState:
    """Best-effort rank-r factorization of a dense matrix, without an SVD.

    Pass 1 is a greedy column-pivoted Gram-Schmidt on the columns of u0
    (largest residual first, ties to the lowest index), padded with canonical
    completion directions when the column space runs out. Pass 2 projects and
    orthonormalizes the rows. Exact whenever rank(u0) <= rank.
    """
    u = np.asarray(u0)
    if u.ndim != 2:
        raise ValueError("initial data must be a matrix")
    n, m = u.shape
    if not 1 <= rank <= min(n, m):
        raise ValueError(f"rank {rank} outside [1, {min(n, m)}]")
    dtype = np.complex128 if np.iscomplexobj(u) else np.float64
    resid = u.astype(dtype, copy=True)
    scale = frobenius_norm(u)
    cols: list[np.ndarray] = []
    for _ in range(rank):
        norms = np.linalg.norm(resid, axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] <= 1e-13 * max(scale, 1e-300):
            break
        q = resid[:, pick] / norms[pick]
        cols.append(q)
        resid -= np.outer(q, q.conj() @ resid)
    if cols:
        basis = np.stack(cols, axis=1)
    else:
        basis = np.zeros((n, 0), dtype=dtype)
    if basis.shape[1] < rank:
        # Dependent input: pad the frame deterministically via QR completion.
        padded = np.zeros((n, rank), dtype=dtype)
        padded[:, : basis.shape[1]] = basis
        basis, _ = qr_thin(padded)
    projected = basis.conj().T @ u
    vfac, rfac = qr_thin(projected.conj().T)
    return LowRankState(X=basis, S=rfac.conj().T, V=vfac)


# ---------------------------------------------------------------------------
# right-hand sides


def _flux_hyperbolic(u, vdisc: VDiscretization, grid: XGrid):
    """Upwind semi-discrete right-hand side on a dense slice."""
    c = 1.0 / (2.0 * grid.dx)
    return c * (grid.beta(u) @ vdisc.coeff_abs - grid.alpha(u) @ vdisc.coeff)


def _diffusion(u, vdisc: VDiscretization, grid: XGrid):
    """Central second-difference right-hand side on a dense slice."""
    return (grid.beta(u) @ vdisc.coeff) / grid.dx**2


def _projected_symmetric(v, mat) -> np.ndarray:
    """V^H mat V coerced to a real symmetric matrix.

    Complex bases only occur as rank-1 mode probes, where the projection is
    real up to roundoff; anything genuinely complex is rejected.
    """
    b = v.conj().T @ (mat @ v)
    b = 0.5 * (b + b.conj().T)
    if np.iscomplexobj(b):
        if np.linalg.norm(b.imag) > 1e-10 * (np.linalg.norm(b.real) + 1.0):
            raise ValueError("projected coefficient matrix is not real")
        b = np.ascontiguousarray(b.real)
    return b


def _ssp_rk2(y, rhs, dt: float):
    stage1 = y + dt * rhs(y)
    stage2 = stage1 + dt * rhs(stage1)
    return 0.5 * (y + stage2)


# ---------------------------------------------------------------------------
# full-tensor reference schemes


def full_step_hyperbolic(u, vdisc: VDiscretization, grid: XGrid, dt: float):
    """Forward Euler step of the upwind full-tensor scheme."""
    return u + dt * _flux_hyperbolic(u, vdisc, grid)


def full_step_parabolic(u, vdisc: VDiscretization, grid: XGrid, dt: float, theta: float):
    """Theta-scheme step of the central full-tensor diffusion scheme."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    c = dt / grid.dx**2
    rhs = u + (1.0 - theta) * dt * _diffusion(u, vdisc, grid)
    return _implicit_solve(rhs, grid.beta_eig, vdisc.spectrum, c * theta)


def _implicit_solve(rhs, left: Diagonalization, right, scale: float):
    """Solve (I - scale*lam_k*B) u_k = rhs_k per eigencolumn k of the right
    coefficient, with B diagonalized by ``left``: in both eigenbases each
    system is the scalar 1 - x, x = scale*mu_j*lam_k, and a symbol with
    |1 - x| <= 1e-13 (1 + |x|) raises SingularMatrixError. A negative
    ``scale`` (the backward core substep) is where the implicit pole lives.
    """
    if scale == 0.0:
        return rhs  # the identity; skipping the transforms keeps it exact
    x = scale * np.outer(left.eigenvalues, right.eigenvalues)
    symbol = 1.0 - x
    require_nonsingular("implicit system", symbol, 1.0 + np.abs(x))
    rot = right.eigenvectors
    out = left.inverse(left.forward(rhs @ rot) / symbol)
    if left.real and not np.iscomplexobj(rhs):
        out = out.real
    return out @ rot.T


def _implicit_columns(rhs, op, dec, scale: float):
    """Dense-LU reference for ``_implicit_solve``: solve
    (I - scale*lam_k*op) u_k = rhs_k per eigencolumn k of the right
    coefficient, by one LU per column."""
    rot, eye = dec.eigenvectors, np.identity(op.shape[0])
    cols = zip(dec.eigenvalues, (rhs @ rot).T)
    return np.stack([solve_dense(eye - scale * lam * op, b) for lam, b in cols], axis=1) @ rot.T


# ---------------------------------------------------------------------------
# projector-splitting engine

#: Substep sequence of each splitting: (factor, fraction of dt). K and L
#: substeps end in a QR retraction of their factor.
_SEQUENCES = {
    "lie": (("K", 1.0), ("S", 1.0), ("L", 1.0)),
    "strang": (("K", 0.5), ("S", 0.5), ("L", 1.0), ("S", 0.5), ("K", 0.5)),
}


class _VBasis:
    """A V factor with V^T A V, |V^T A V| and its eigendecomposition, each
    built at most once."""

    def __init__(self, v: np.ndarray, vdisc: VDiscretization):
        self.v, self.vdisc = v, vdisc

    @cached_property
    def atil(self) -> np.ndarray:
        return _projected_symmetric(self.v, self.vdisc.coeff)

    @cached_property
    def abs_atil(self) -> np.ndarray:
        return matrix_abs(self.atil)

    @cached_property
    def tdec(self):
        return sym_eig(self.atil)


class _XBasis:
    """An X factor with X^H alpha(X), X^H beta(X) and the latter's
    diagonalization, each built at most once."""

    def __init__(self, x: np.ndarray, grid: XGrid):
        self.x, self.grid = x, grid

    @cached_property
    def calpha(self) -> np.ndarray:
        return self.x.conj().T @ self.grid.alpha(self.x)

    @cached_property
    def cbeta(self) -> np.ndarray:
        return self.x.conj().T @ self.grid.beta(self.x)

    @cached_property
    def cbeta_eig(self) -> Diagonalization:
        # eigh, not sym_eig: mode probes make X^H beta X complex Hermitian.
        vals, vecs = np.linalg.eigh(self.cbeta)
        forward, inverse = (lambda u: vecs.conj().T @ u), (lambda z: vecs @ z)
        return Diagonalization(vals, forward, inverse, real=np.isrealobj(vecs))


def _hyperbolic_field(approach: str, factor: str, xb: _XBasis, vb: _VBasis):
    """Right-hand side of one advection substep.

    dtp applies the full upwind flux to the reconstructed slice and projects
    back; ptd upwinds the K substep with |V^T A V| and integrates the core
    and L substeps with the central projected equations. The core substep
    runs backward in time.
    """
    g, vd, x, v = xb.grid, vb.vdisc, xb.x, vb.v
    if approach == "dtp":
        vh, xh = v.conj().T, x.conj().T
        if factor == "K":
            return lambda k: _flux_hyperbolic(k @ vh, vd, g) @ v
        if factor == "S":
            return lambda s: -(xh @ _flux_hyperbolic(x @ s @ vh, vd, g) @ v)
        return lambda low: xh @ _flux_hyperbolic(x @ low, vd, g)
    c = 1.0 / (2.0 * g.dx)
    if factor == "K":
        atil, abs_atil = vb.atil, vb.abs_atil
        return lambda k: c * (g.beta(k) @ abs_atil - g.alpha(k) @ atil)
    calpha = xb.calpha
    if factor == "S":
        atil = vb.atil
        return lambda s: c * (calpha @ s @ atil)
    return lambda low: -c * (calpha @ low @ vd.coeff)


def _parabolic_field(approach: str, factor: str, xb: _XBasis, vb: _VBasis):
    """Right-hand side of one diffusion substep, per unit dt/dx^2; the core
    substep runs backward in time."""
    g, vd, x, v = xb.grid, vb.vdisc, xb.x, vb.v
    if factor == "K":
        if approach == "dtp":
            vh = v.conj().T
            return lambda k: g.beta(k @ vh) @ vd.coeff @ v
        atil = vb.atil
        return lambda k: g.beta(k @ atil)
    xh = x.conj().T
    if factor == "S":
        if approach == "dtp":
            vh = v.conj().T
            return lambda s: -(xh @ (g.beta(x @ s @ vh) @ vd.coeff) @ v)
        cbeta, atil = xb.cbeta, vb.atil
        return lambda s: -(cbeta @ (s @ atil))
    if approach == "dtp":
        return lambda low: xh @ (g.beta(x @ low) @ vd.coeff)
    cbeta = xb.cbeta
    return lambda low: cbeta @ (low @ vd.coeff)


def _advance(spec: SchemeSpec, factor: str, xb: _XBasis, vb: _VBasis, y, h: float):
    """One substep of length h with the scheme's substep integrator:
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
    # stencil, S and L against X^H beta X; the core substep runs backward.
    left = xb.grid.beta_eig if factor == "K" else xb.cbeta_eig
    right = vb.vdisc.spectrum if factor == "L" else vb.tdec
    scale = c * theta
    return _implicit_solve(y, left, right, -scale if factor == "S" else scale)


def _psi_step(spec: SchemeSpec, state: LowRankState, vdisc, grid, dt: float) -> StepReport:
    """One projector-splitting step: the splitting's substep sequence, with a
    QR retraction after every K and L substep."""
    # Orthonormal frames carry no norm: |X S V^H|_F = |S|_F.
    before = frobenius_norm(state.S)
    xb, vb, s = _XBasis(state.X, grid), _VBasis(state.V, vdisc), state.S
    events = 0
    for factor, fraction in _SEQUENCES[spec.splitting]:
        h = fraction * dt
        if factor == "K":
            x, s, ev = qr_thin_counted(_advance(spec, "K", xb, vb, xb.x @ s, h))
            xb = _XBasis(x, grid)
        elif factor == "S":
            s, ev = _advance(spec, "S", xb, vb, s, h), 0
        else:
            low = _advance(spec, "L", xb, vb, s @ vb.v.conj().T, h)
            v, rl, ev = qr_thin_counted(low.conj().T)
            vb, s = _VBasis(v, vdisc), rl.conj().T
        events += ev
    new = LowRankState(X=xb.x, S=s, V=vb.v)
    return StepReport(new, before, frobenius_norm(s), events)


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
    LowRankState otherwise; the report mirrors that type.
    """
    if dt == 0.0:
        # a zero step is the identity; skipping the retractions keeps it exact
        full = spec.approach == "full_tensor"
        norm = frobenius_norm(np.asarray(current) if full else current.S)
        return StepReport(current, norm, norm, 0)
    if spec.approach == "full_tensor":
        u = np.asarray(current)
        if spec.equation == "hyperbolic":
            after = full_step_hyperbolic(u, vdisc, grid, dt)
        else:
            after = full_step_parabolic(u, vdisc, grid, dt, spec.theta_value)
        return StepReport(after, frobenius_norm(u), frobenius_norm(after), 0)
    if not isinstance(current, LowRankState):
        raise TypeError("low-rank schemes need a LowRankState")
    return _psi_step(spec, current, vdisc, grid, dt)
