"""Experiment runner: configs, the scheme-name registry, oracle and boundary
suites, long-run simulations, and CSV emission.

Everything here is deterministic: randomness flows only through the config
seed, and CSV files contain no timestamps or wall-clock fields, so identical
inputs produce bit-identical output.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .amplification import (
    BoundaryResult,
    ContourGrid,
    contour_grid,
    find_boundary,
    mode_multiplier,
    stability_surface,
)
from .discretize import (
    VDiscretization,
    XGrid,
    build_modal,
    build_nodal,
    build_xgrid,
    coefficient_from_name,
    gauss_legendre_points,
)
from .integrators import LowRankState, SchemeSpec, reconstruct, step
from .linalg import SingularMatrixError, frobenius_norm, qr_thin

__all__ = [
    "BOUNDARY_SUITE",
    "BoundaryRow",
    "ConfigError",
    "ExperimentConfig",
    "NumericalError",
    "RunRecord",
    "SchemeInfo",
    "VERIFY_SCHEMES",
    "build_problem",
    "complex_mode_probes",
    "emit_figure_grids",
    "initial_state",
    "measured_mode_multipliers",
    "parabolic_mode_equivalence",
    "parse_config",
    "parse_scheme_name",
    "run_boundary_suite",
    "run_oracle_suite",
    "run_simulation",
    "serialize_config",
    "stability_verdict",
    "verify_report",
    "write_boundary_csv",
    "write_contour_csv",
    "write_history_csv",
    "write_surface_csv",
]

_STABILITY_SLACK = 1e-8

# Relative window below the largest |G| inside which the worst-mode scan
# counts a mode as tied with the maximum. Modes m and N_x - m tie in exact
# arithmetic but differ in roundoff by a few ulps; the window is far wider.
_TIE_WINDOW = 1e-9


class ConfigError(ValueError):
    """Bad experiment configuration (syntax or violated constraint)."""


class NumericalError(RuntimeError):
    """A run left floating-point range or met a singular implicit solve."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step} failed: {reason}")
        self.step = step


#: Stepper failures that mean the run itself broke down numerically.
_NUMERICAL_FAILURES = (SingularMatrixError, np.linalg.LinAlgError, FloatingPointError)


# ---------------------------------------------------------------------------
# experiment configuration


_INITIAL_DATA = ("random_rank_r", "eigenmode", "worst_mode")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified run: scheme, grids, coefficient, data, length."""

    scheme: SchemeSpec
    n_x: int
    n_v: int
    rank: int
    cfl: float
    steps: int
    coefficient: str = "linear"
    v_mode: str = "nodal"
    seed: int = 0
    initial_data: str = "random_rank_r"
    mode_m: int | None = None
    mode_k: int | None = None

    def __post_init__(self):
        if self.n_x < 3:
            raise ConfigError(f"N_x must be at least 3, got {self.n_x}")
        if self.n_v < 1:
            raise ConfigError(f"N_v must be at least 1, got {self.n_v}")
        cap = min(self.n_x, self.n_v)
        if not 1 <= self.rank <= cap:
            raise ConfigError(
                f"rank must lie in [1, min(N_x, N_v)] = [1, {cap}], got {self.rank}"
            )
        if not 0.0 <= self.cfl < np.inf:
            raise ConfigError(f"cfl must be finite and nonnegative, got {self.cfl}")
        if self.steps < 0:
            raise ConfigError(f"steps must be nonnegative, got {self.steps}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit an unsigned 64-bit integer, got {self.seed}")
        if self.v_mode not in ("nodal", "modal"):
            raise ConfigError(f"v_mode must be nodal or modal, got '{self.v_mode}'")
        if self.initial_data not in _INITIAL_DATA:
            raise ConfigError(f"unknown initial_data '{self.initial_data}'")
        if self.initial_data == "eigenmode":
            if self.mode_m is None or self.mode_k is None:
                raise ConfigError("initial_data eigenmode needs mode_m and mode_k")
            if not 0 <= self.mode_m < self.n_x:
                raise ConfigError(f"mode_m must lie in [0, N_x), got {self.mode_m}")
            if not 0 <= self.mode_k < self.n_v:
                raise ConfigError(f"mode_k must lie in [0, N_v), got {self.mode_k}")
            # full_tensor probes take their minimum rank whatever cfg.rank is
            natural = mode_probe_rank(self.scheme.equation, self.mode_m, self.n_x)
            if self.scheme.approach != "full_tensor" and self.rank < natural:
                raise ConfigError(
                    f"mode data at (m, k) = ({self.mode_m}, {self.mode_k}) is a rotating "
                    f"quadrature pair; rank must be >= {natural}"
                )
            if self.n_v < natural:  # _mode_probe_state's shadow column
                raise ConfigError(
                    f"mode data at (m, k) = ({self.mode_m}, {self.mode_k}) is a rotating "
                    f"quadrature pair; its shadow eigendirection needs N_v >= {natural}"
                )
        elif self.mode_m is not None or self.mode_k is not None:
            raise ConfigError("mode_m/mode_k only apply to initial_data eigenmode")
        try:
            coefficient_from_name(self.coefficient)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


#: The config grammar, key -> (type, required), in the order documents are
#: written. The SchemeSpec field names build the scheme; the other keys,
#: lower-cased, build the ExperimentConfig. Defaults live on the dataclasses.
_GRAMMAR: dict[str, tuple[type, bool]] = {
    "equation": (str, True),
    "approach": (str, True),
    "splitting": (str, True),
    "substep": (str, True),
    "theta": (float, False),
    "N_x": (int, True),
    "N_v": (int, True),
    "rank": (int, True),
    "coefficient": (str, False),
    "v_mode": (str, False),
    "cfl": (float, True),
    "steps": (int, True),
    "seed": (int, False),
    "initial_data": (str, False),
    "mode_m": (int, False),
    "mode_k": (int, False),
}
_SCHEME_KEYS = tuple(f.name for f in fields(SchemeSpec))
_TYPE_NAMES = {int: "an integer", float: "a number"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented ``key = value`` experiment grammar.

    Blank lines and '#' comments (full-line or trailing) are ignored; keys
    are case-sensitive, each given at most once, unknown keys rejected.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _GRAMMAR:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'")
        values[key] = value

    missing = [key for key, (_, required) in _GRAMMAR.items() if required and key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    typed: dict[str, object] = {}
    for key, value in values.items():
        kind = _GRAMMAR[key][0]
        try:
            typed[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}' needs {_TYPE_NAMES[kind]}, got {value!r}") from exc

    try:
        scheme = SchemeSpec(**{key: typed.pop(key) for key in _SCHEME_KEYS if key in typed})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(scheme=scheme, **{key.lower(): v for key, v in typed.items()})


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit a document that parses back to an equal config: keys in grammar
    order, unset optional keys left out."""
    lines = []
    for key, (kind, _) in _GRAMMAR.items():
        value = getattr(cfg.scheme if key in _SCHEME_KEYS else cfg, key.lower())
        if value is not None:
            lines.append(f"{key} = {value!r}" if kind is float else f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scheme-name registry


@dataclass(frozen=True)
class SchemeInfo:
    """Registry row: the spec behind a public scheme name, its documented
    threshold, and its boundary-search and contour parameters."""

    name: str
    spec: SchemeSpec
    reference: float | str | None
    reference_tol: float | None
    mu_cap: float = 1e6
    bisect_tol: float = 1e-7
    contour_mu_max: float = 1.0

    @property
    def surface(self) -> Callable[[np.ndarray, float], np.ndarray]:
        """Stability surface h(Y, mu) = |multiplier|^2 of the spec."""
        return stability_surface(self.spec)


_NAMED_SCHEMES = {
    info.name: info
    for info in (
        SchemeInfo("hyp-full-fe", SchemeSpec("hyperbolic", "full_tensor"), 1.0, 1e-4,
                   mu_cap=4.0, bisect_tol=1e-5, contour_mu_max=1.5),
        SchemeInfo("hyp-dtp-lie-fe", SchemeSpec("hyperbolic", "dtp"), 1.0 / 3.0, 1e-4,
                   mu_cap=4.0, bisect_tol=1e-5),
        SchemeInfo("hyp-ptd-lie-fe", SchemeSpec("hyperbolic", "ptd"), 1.0 / 3.0, 1e-4,
                   mu_cap=4.0, bisect_tol=1e-5),
        SchemeInfo("hyp-dtp-strang-rk2", SchemeSpec("hyperbolic", "dtp", "strang", "ssp_rk2"),
                   0.866, 1e-2, mu_cap=4.0, bisect_tol=1e-4, contour_mu_max=1.2),
        SchemeInfo("hyp-ptd-strang-rk2", SchemeSpec("hyperbolic", "ptd", "strang", "ssp_rk2"),
                   2.0, 1e-2, mu_cap=8.0, bisect_tol=1e-4, contour_mu_max=2.5),
        SchemeInfo("par-hybrid", SchemeSpec("parabolic", "dtp", "lie", "hybrid_be_fe_be"),
                   "unconditional", None),
        SchemeInfo("par-strang-cn", SchemeSpec("parabolic", "dtp", "strang", "crank_nicolson"),
                   "unconditional", None),
    )
}

#: Theta-family name prefixes (the name ends in theta) and their approach.
_THETA_FAMILIES = (
    ("par-full-theta", "full_tensor"),
    ("par-dtp-lie-theta", "dtp"),
    ("par-ptd-lie-theta", "ptd"),
)

#: Documented thresholds of the Lie splittings with theta substeps.
_LIE_THETA_REFERENCES = {
    0.0: ((1.0 + np.sqrt(5.0)) / 8.0, 1e-6),
    0.5: ("unconditional", None),
    1.0: ((np.sqrt(5.0) - 1.0) / 8.0, 1e-6),
}


def _theta_spec(approach: str, theta: float) -> SchemeSpec:
    named = {0.0: "forward_euler", 0.5: "crank_nicolson", 1.0: "backward_euler"}
    if theta in named:
        return SchemeSpec("parabolic", approach, "lie", named[theta])
    return SchemeSpec("parabolic", approach, "lie", "theta", theta)


def _theta_reference(approach: str, theta: float) -> tuple[float | str | None, float | None]:
    if approach != "full_tensor":
        return _LIE_THETA_REFERENCES.get(theta, (None, None))
    # Full theta scheme: stable iff x(1 - 2 theta) <= 2, worst x = 4 mu.
    if theta >= 0.5:
        return "unconditional", None
    return 0.5 / (1.0 - 2.0 * theta), 1e-6


def _parse_theta_suffix(name: str, prefix: str) -> float:
    text = name[len(prefix):]
    try:
        theta = float(text)
    except ValueError as exc:
        raise ValueError(f"bad theta suffix in scheme name '{name}'") from exc
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1] in scheme name '{name}'")
    return theta


def parse_scheme_name(name: str) -> SchemeInfo:
    """Resolve one of the public scheme names.

    Hyperbolic: hyp-full-fe, hyp-dtp-lie-fe, hyp-ptd-lie-fe,
    hyp-dtp-strang-rk2, hyp-ptd-strang-rk2. Parabolic: par-full-theta<t>,
    par-dtp-lie-theta<t>, par-ptd-lie-theta<t>, par-hybrid, par-strang-cn.
    """
    if name in _NAMED_SCHEMES:
        return _NAMED_SCHEMES[name]
    for prefix, approach in _THETA_FAMILIES:
        if name.startswith(prefix):
            theta = _parse_theta_suffix(name, prefix)
            return SchemeInfo(name, _theta_spec(approach, theta),
                              *_theta_reference(approach, theta))
    raise ValueError(f"unknown scheme name '{name}'")


#: Rows of the threshold table: every scheme family with a documented bound.
BOUNDARY_SUITE: tuple[str, ...] = (
    "hyp-full-fe",
    "hyp-dtp-lie-fe",
    "hyp-ptd-lie-fe",
    "hyp-dtp-strang-rk2",
    "hyp-ptd-strang-rk2",
    "par-full-theta0",
    "par-full-theta0.5",
    "par-full-theta1",
    "par-dtp-lie-theta0",
    "par-dtp-lie-theta0.5",
    "par-dtp-lie-theta1",
    "par-hybrid",
    "par-strang-cn",
)

#: Scheme names covered by the oracle cross-check.
VERIFY_SCHEMES: tuple[str, ...] = (
    "hyp-full-fe",
    "hyp-dtp-lie-fe",
    "hyp-ptd-lie-fe",
    "hyp-dtp-strang-rk2",
    "hyp-ptd-strang-rk2",
    "par-full-theta0",
    "par-full-theta0.5",
    "par-full-theta1",
    "par-dtp-lie-theta0",
    "par-dtp-lie-theta0.5",
    "par-dtp-lie-theta1",
    "par-ptd-lie-theta0",
    "par-ptd-lie-theta0.5",
    "par-ptd-lie-theta1",
    "par-hybrid",
    "par-strang-cn",
)


# ---------------------------------------------------------------------------
# problem assembly


@lru_cache(maxsize=64)
def build_vdisc(coefficient: str, v_mode: str, n_v: int) -> VDiscretization:
    """Velocity operator of a registry coefficient, built once per
    (coefficient, v_mode, n_v) and shared between callers, so its arrays
    are read-only."""
    coeff_fn = coefficient_from_name(coefficient)
    if v_mode == "nodal":
        vdisc = build_nodal(coeff_fn, gauss_legendre_points(n_v))
    elif v_mode == "modal":
        vdisc = build_modal(coeff_fn, n_v)
    else:
        raise ValueError(f"v_mode must be nodal or modal, got '{v_mode}'")
    spectrum = vdisc.spectrum
    for arr in (vdisc.coeff, vdisc.coeff_abs, spectrum.eigenvalues, spectrum.eigenvectors):
        arr.flags.writeable = False
    return vdisc


def derive_dt(
    equation: str, cfl: float, grid: XGrid, vdisc: VDiscretization, strict: bool = True
) -> float:
    """Time step from the CFL-like number: dt = cfl*dx/lam (hyperbolic) or
    cfl*dx^2/lam (parabolic) with the grid's dx = 2*pi/N_x."""
    dx = grid.dx
    lam = vdisc.lambda_max(equation, strict=strict)
    if lam == 0.0:
        raise ValueError("coefficient has zero spectral radius; dt is undefined")
    if equation == "hyperbolic":
        return cfl * dx / lam
    return cfl * dx * dx / lam


def build_problem(cfg: ExperimentConfig) -> tuple[VDiscretization, XGrid, float]:
    vdisc = build_vdisc(cfg.coefficient, cfg.v_mode, cfg.n_v)
    grid = build_xgrid(cfg.n_x)
    dt = derive_dt(cfg.scheme.equation, cfg.cfl, grid, vdisc)
    return vdisc, grid, dt


# ---------------------------------------------------------------------------
# mode oracle machinery


def complex_mode_probes(ms, ks, vdisc: VDiscretization, grid: XGrid) -> LowRankState:
    """Rank-1 probes x_m v_k^T as one complex factored state stacked along a
    leading axis, probe i on the pair (ms[i], ks[i]): x_m is Fourier mode m
    scaled to unit norm, v_k the k-th velocity eigenvector, S = sqrt(N_x)."""
    ms, ks = np.asarray(ms), np.asarray(ks)
    if ms.shape != ks.shape:
        raise ValueError(f"mode indices {ms.shape} and eigendirection indices {ks.shape} differ")
    n_x = grid.n_x
    for what, indices, n in (("mode", ms, n_x), ("eigendirection", ks, vdisc.size)):
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"{what} indices must be integers, got {indices.dtype}")
        outside = (indices < 0) | (indices >= n)
        if outside.any():
            raise ValueError(f"{what} indices {indices[outside].tolist()} outside [0, {n})")
    j = np.arange(n_x)
    # fourier_mode's phases in its operation order, so each probe is bitwise its mode
    modes = np.exp(2j * np.pi * ms[:, None] * j / n_x)
    x = (modes / np.sqrt(n_x))[:, :, None]
    v = vdisc.spectrum.eigenvectors[:, ks].T.astype(np.complex128)[:, :, None]
    s = np.full((len(ms), 1, 1), np.sqrt(n_x), dtype=np.complex128)
    return LowRankState(X=x, S=s, V=v)


def measured_mode_multipliers(
    spec: SchemeSpec, ms, ks, vdisc: VDiscretization, grid: XGrid, dt: float
) -> np.ndarray:
    """One production step on the stack of complex rank-1 probes (ms[i],
    ks[i]); multiplier i is <u0_i, u1_i> / <u0_i, u0_i>."""
    probes = complex_mode_probes(ms, ks, vdisc, grid)
    u0 = reconstruct(probes)
    if spec.approach == "full_tensor":
        u1 = np.asarray(step(spec, u0, vdisc, grid, dt).state_after)
    else:
        u1 = reconstruct(step(spec, probes, vdisc, grid, dt).state_after)
    u0, u1 = u0.reshape(len(u0), -1), u1.reshape(len(u1), -1)
    return np.vecdot(u0, u1) / np.vecdot(u0, u0)


def expected_mode_multiplier(
    spec: SchemeSpec, m: int, k: int, vdisc: VDiscretization, grid: XGrid, dt: float
) -> complex:
    """Closed-form multiplier at the signed Courant number of mode (m, k):
    entry (m, k) of ``_multiplier_lattice``."""
    if not 0 <= m < grid.n_x:
        raise ValueError(f"mode index m={m} outside [0, {grid.n_x})")
    if not 0 <= k < vdisc.size:
        raise ValueError(f"eigendirection index k={k} outside [0, {vdisc.size})")
    return complex(_multiplier_lattice(spec, vdisc, grid, dt)[m, k])


def _multiplier_lattice(
    spec: SchemeSpec, vdisc: VDiscretization, grid: XGrid, dt: float
) -> np.ndarray:
    """G(m, k) over every Fourier mode m (rows) and eigendirection k
    (columns), inf at implicit poles: one ``mode_multiplier`` call on the
    modes' y and z as columns against the signed Courant numbers as a row."""
    dx = grid.dx if spec.equation == "hyperbolic" else grid.dx**2
    nu = vdisc.spectrum.eigenvalues * dt / dx
    return mode_multiplier(spec, grid.y[:, None], nu[None, :], grid.z[:, None])


def run_oracle_suite(
    scheme_name: str,
    n_x: int = 16,
    n_v: int = 4,
    coefficient: str = "linear",
    v_mode: str = "nodal",
    cfl: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Measured and closed-form multipliers over every (m, k) pair, as two
    (N_x, N_v) complex lattices: Fourier mode m down, eigendirection k across.

    All n_x * n_v probes advance as one stack in a single production step;
    the expected lattice is one ``_multiplier_lattice``. The default Courant
    numbers (0.3 hyperbolic, 0.2 parabolic) keep every implicit substep away
    from its resonance for the registry coefficients.
    """
    if n_x > 64 or n_v > 8:
        raise ValueError("oracle suite is a desk-scale check: N_x <= 64, N_v <= 8")
    info = parse_scheme_name(scheme_name)
    spec = info.spec
    vdisc = build_vdisc(coefficient, v_mode, n_v)
    grid = build_xgrid(n_x)
    if cfl is None:
        cfl = 0.3 if spec.equation == "hyperbolic" else 0.2
    dt = derive_dt(spec.equation, cfl, grid, vdisc, strict=False)
    ms, ks = np.divmod(np.arange(n_x * n_v), n_v)  # every (m, k) in (m, k) order
    measured = measured_mode_multipliers(spec, ms, ks, vdisc, grid, dt)
    expected = _multiplier_lattice(spec, vdisc, grid, dt)
    return measured.reshape(n_x, n_v), expected.astype(np.complex128, copy=False)


def _discrepancy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| per mode, NaN read as inf, so a NaN on either side is the
    worst mode and fails every bound."""
    gap = np.abs(a - b)
    gap[np.isnan(gap)] = np.inf
    return gap


def verify_report(
    scheme_names: tuple[str, ...] | list[str] | None = None,
) -> tuple[list[str], float]:
    """Oracle sweep over schemes x {nodal, modal} with a(v) = v on the
    default 16 x 4 grid.

    Returns printable per-suite lines and the overall maximum discrepancy,
    ``inf`` if any mode is NaN. Each line names the suite's worst mode
    (m, k); on ties, the first in (m, k) order.
    """
    names = tuple(scheme_names) if scheme_names else VERIFY_SCHEMES
    lines = []
    overall = 0.0
    for name in names:
        for v_mode in ("nodal", "modal"):
            gap = _discrepancy(*run_oracle_suite(name, v_mode=v_mode))
            m, k = divmod(int(np.argmax(gap)), gap.shape[1])
            worst = float(gap[m, k])
            overall = max(overall, worst)
            lines.append(
                f"{name:<22s} {v_mode:<6s} modes={gap.size:3d}  "
                f"max|measured - closed_form| = {worst:.3e} at ({m}, {k})"
            )
    return lines, overall


def parabolic_mode_equivalence(
    theta: float,
    n_x: int = 16,
    n_v: int = 4,
    coefficient: str = "linear",
    v_mode: str = "nodal",
    cfl: float = 0.2,
) -> float:
    """Max per-mode difference between the two low-rank diffusion routes,
    ``inf`` if either route gives a NaN.

    Both formulations act identically on rank-1 probes; the routes differ
    only in how the projected products are grouped, so the gap is roundoff.
    The measured multipliers are ``run_oracle_suite``'s, under its size cap.
    """
    (dtp, _), (ptd, _) = (
        run_oracle_suite(f"par-{approach}-lie-theta{float(theta)!r}", n_x, n_v,
                         coefficient, v_mode, cfl)
        for approach in ("dtp", "ptd")
    )
    return float(_discrepancy(dtp, ptd).max())


# ---------------------------------------------------------------------------
# boundary suite


@dataclass(frozen=True)
class BoundaryRow:
    """One threshold-table row: search outcome next to the documented value."""

    scheme: str
    result: BoundaryResult
    reference: float | str | None
    reference_tol: float | None

    @property
    def passed(self) -> bool | None:
        """True/False against the documented threshold; None if undocumented."""
        if self.reference is None:
            return None
        if self.reference == "unconditional":
            return self.result.critical_mu == "unconditional"
        if self.result.critical_mu == "unconditional":
            return False
        return abs(self.result.critical_mu - self.reference) <= self.reference_tol


def run_boundary_suite(
    scheme_names: tuple[str, ...] | list[str] | None = None,
    tol: float | None = None,
    mu_cap: float | None = None,
) -> list[BoundaryRow]:
    rows = []
    for name in scheme_names or BOUNDARY_SUITE:
        info = parse_scheme_name(name)
        result = find_boundary(
            info.surface,
            mu_cap if mu_cap is not None else info.mu_cap,
            tol if tol is not None else info.bisect_tol,
        )
        rows.append(BoundaryRow(name, result, info.reference, info.reference_tol))
    return rows


# ---------------------------------------------------------------------------
# simulations


@dataclass(frozen=True)
class RunRecord:
    """Per-step diagnostics: norm, factor orthogonality, elapsed seconds."""

    step: int
    frobenius: float
    ortho_residual: float
    wall: float


_SHADOW_WEIGHT = 1e-9
_PAD_WEIGHT = 1e-6


def mode_probe_rank(equation: str, m: int, n_x: int) -> int:
    """Minimum faithful rank of a real Fourier-mode probe.

    Self-conjugate modes (m = 0, and m = N_x/2 for even N_x) are real
    eigenvectors of both stencils and close at rank 1. Every other mode
    rotates between its cosine and sine quadratures under the advection
    stencil, so a hyperbolic probe must carry both columns; the diffusion
    stencil treats the quadratures identically and rank 1 suffices there.
    """
    m = m % n_x
    self_conjugate = m == 0 or (n_x % 2 == 0 and m == n_x // 2)
    if equation == "hyperbolic" and not self_conjugate:
        return 2
    return 1


def _quadrature_column(m: int, n_x: int, quadrature: str) -> np.ndarray:
    angles = 2.0 * np.pi * m * np.arange(n_x) / n_x
    column = np.cos(angles) if quadrature == "cos" else np.sin(angles)
    return column / float(np.linalg.norm(column))


def _pad_columns(carrier_m: int, n_x: int):
    """Quadrature columns outside the carrier's plane, most inert first.

    The constant column leads: both stencils annihilate it, so a pad there
    is exactly neutral under every scheme. Low frequencies follow; their
    single-quadrature dynamics stay subdominant to any carrier the suite
    probes. Skipping the carrier's own frequency keeps the frame orthonormal.
    """
    half = n_x // 2 if n_x % 2 == 0 else None
    for mm in range(n_x // 2 + 1):
        if mm == carrier_m:
            continue
        yield mm, "cos"
        if mm != 0 and mm != half:
            yield mm, "sin"


def _mode_probe_state(
    m: int, k: int, rank: int, vdisc: VDiscretization, grid: XGrid, equation: str
) -> LowRankState:
    """Real factored probe for Fourier mode m against eigendirection k.

    A rotating hyperbolic mode carries both quadratures: the cosine column
    at unit weight against v_k, the sine column at a tiny shadow weight
    against a second eigendirection. The X frame then spans the mode's
    rotation plane and the V frame an invariant coefficient subspace, so
    every projector in the splitting acts as the identity there and the
    norm tracks |G(m, k)| per step up to the shadow's 1e-18 energy. A lone
    quadrature cannot do this: projecting the antisymmetric stencil onto
    one real column zeroes the rotation and the run decays spuriously.

    Ranks above the minimum (``mode_probe_rank``, which ``ExperimentConfig``
    enforces) are padded with tiny-weight columns in other mode planes (the
    exactly-neutral constant column first), so a rank-r config can still
    open with a mode probe.
    """
    x_cols = [_quadrature_column(m % grid.n_x, grid.n_x, "cos")]
    v_used = [k]
    weights = [1.0]
    if mode_probe_rank(equation, m, grid.n_x) == 2:
        # Shadow direction with |lambda_j| nearest |lambda_k|: its multiplier
        # then matches the carrier's modulus, so the shadow-to-carrier weight
        # ratio stays put and the frame's second column never sinks into the
        # QR roundoff floor over long runs.
        eigenvalues = vdisc.spectrum.eigenvalues
        gaps = np.abs(np.abs(eigenvalues) - abs(eigenvalues[k]))
        gaps[k] = np.inf
        x_cols.append(_quadrature_column(m % grid.n_x, grid.n_x, "sin"))
        v_used.append(int(np.argmin(gaps)))
        weights.append(_SHADOW_WEIGHT)
    # The constant pad keeps its weight forever and can sit at the shadow
    # scale. Any other pad decays, and a column whose weight sinks to the QR
    # roundoff floor turns into junk that bleeds into the carrier plane, so
    # those start three decades higher; 1e-12 of energy stays invisible at
    # every verdict tolerance.
    for mm, quad in _pad_columns(m % grid.n_x, grid.n_x):
        if len(x_cols) == rank:
            break
        x_cols.append(_quadrature_column(mm, grid.n_x, quad))
        weights.append(_SHADOW_WEIGHT if mm == 0 else _PAD_WEIGHT)
    v_rest = (j for j in range(vdisc.size) if j not in v_used)
    v_used.extend(itertools.islice(v_rest, rank - len(v_used)))
    return LowRankState(
        X=np.column_stack(x_cols),
        S=np.diag(weights),
        V=vdisc.spectrum.eigenvectors[:, v_used],
    )


def _worst_mode(
    spec: SchemeSpec, vdisc: VDiscretization, grid: XGrid, dt: float
) -> tuple[int, int, float]:
    """The mode (m, k) a worst-mode run starts from, and |g| there.

    The pick is the first (m, k), in (m outer, k inner) order, whose |g|
    lies within _TIE_WINDOW of the largest |g| on the ``_multiplier_lattice``.
    A pole counts as infinitely unstable, |g| = inf, and NaN as -1, so it
    never wins. Random data can hide a weak instability for many steps; the
    sharpest mode cannot. The window settles the ties of exact arithmetic,
    modes m and N_x - m, and lets a neutral mode (0, 0) stand for a growth
    of a few ulps.
    """
    growth = np.abs(_multiplier_lattice(spec, vdisc, grid, dt))
    growth[np.isnan(growth)] = -1.0
    top = growth.max()
    # min: a window below a negative maximum (every mode NaN) lies above it
    first = int(np.argmax(growth >= min(top, top * (1.0 - _TIE_WINDOW))))
    m, k = divmod(first, growth.shape[1])
    return m, k, float(growth[m, k])


def initial_state(
    cfg: ExperimentConfig, vdisc: VDiscretization, grid: XGrid, dt: float
) -> LowRankState:
    """Factored initial data for a run (real arithmetic)."""
    if cfg.initial_data == "random_rank_r":
        rng = np.random.default_rng(cfg.seed)
        x_raw = rng.standard_normal((cfg.n_x, cfg.rank))
        s_raw = rng.standard_normal((cfg.rank, cfg.rank))
        v_raw = rng.standard_normal((cfg.n_v, cfg.rank))
        x_ortho, _ = qr_thin(x_raw)
        v_ortho, _ = qr_thin(v_raw)
        return LowRankState(X=x_ortho, S=s_raw, V=v_ortho)
    if cfg.initial_data == "worst_mode":
        m, k, _ = _worst_mode(cfg.scheme, vdisc, grid, dt)
        cfg = replace(cfg, initial_data="eigenmode", mode_m=m, mode_k=k)  # checks the rank
    m, k, rank = cfg.mode_m, cfg.mode_k, cfg.rank
    if cfg.scheme.approach == "full_tensor":
        rank = mode_probe_rank(cfg.scheme.equation, m, grid.n_x)
    return _mode_probe_state(m, k, rank, vdisc, grid, cfg.scheme.equation)


def run_simulation(cfg: ExperimentConfig) -> list[RunRecord]:
    """Advance the configured scheme for the configured number of steps.

    Emits a record at step 0 and after each step. Deterministic for a fixed
    config. A singular solve, a pole, or a norm that leaves floating-point
    range aborts the run with a NumericalError carrying the step index.
    """
    vdisc, grid, dt = build_problem(cfg)
    state = initial_state(cfg, vdisc, grid, dt)
    dense = cfg.scheme.approach == "full_tensor"
    current = reconstruct(state) if dense else state
    start = time.perf_counter()

    def record(index: int, norm: float) -> RunRecord:
        ortho = 0.0 if dense else current.ortho_residual
        return RunRecord(index, norm, ortho, time.perf_counter() - start)

    records = [record(0, frobenius_norm(current if dense else state.S))]
    # Overflow raises at its first operation instead of seeding NaNs.
    with np.errstate(over="raise", invalid="raise"):
        for index in range(1, cfg.steps + 1):
            try:
                report = step(cfg.scheme, current, vdisc, grid, dt)
            except _NUMERICAL_FAILURES as exc:
                raise NumericalError(index, str(exc)) from exc
            if not math.isfinite(report.frobenius_after):
                raise NumericalError(index, f"norm {report.frobenius_after} is not finite")
            current = report.state_after
            records.append(record(index, report.frobenius_after))
    return records


def stability_verdict(records: list[RunRecord]) -> bool:
    """Stable iff the final norm has not grown beyond benign roundoff."""
    return records[-1].frobenius <= records[0].frobenius * (1.0 + _STABILITY_SLACK)


# ---------------------------------------------------------------------------
# CSV emission (UTF-8, \n endings, 17 significant digits)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ``%.17g`` of x with 1e-4 <= x < 1e16 is fixed notation: the 17 digits of
# N = round-half-even(x * 10**(16 - k)), k the decimal exponent, with the
# point after digit k (k >= 0) or behind "0." and -k - 1 zeros (k < 0), then
# trailing zeros and a bare point dropped. N is computed exactly: 10**q is a
# double for q <= 22, and Dekker's product (with a Veltkamp split) gives
# x * 10**q = p + e, p the rounded double and e its exact error. p >= 1e16 >
# 2**53 is an even integer, so N = p + rint(e). Every other value, negatives
# and zeros included, is written by ``format`` itself.
_VELTKAMP = 134217729.0  # 2**27 + 1


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo, each half with at most 26 significant bits."""
    c = a * _VELTKAMP
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**q) for q in range(23)])
_POW10_HI, _POW10_LO = _veltkamp_split(_POW10)


def _words(chars) -> np.ndarray:
    """One uint32 per four bytes, the bytes in memory order."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit group 0000..9999: its ASCII word and its number of
    trailing zero digits (4 for 0000). Built on first use, read-only."""
    chars = np.empty((10,) * 4 + (4,), np.uint8)
    zeros = np.int8(0)
    for j in range(4):  # digit j of the group varies along axis j
        digit = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
        chars[..., j] = digit
        zeros = (digit == 48) * (1 + zeros)
    return _read_only(_words(chars)), _read_only(zeros.ravel())


# Text is assembled from 4-byte words, 11 per value, and the kept bytes are
# selected by a mask. With F = "000" + the 17 digits (F[3 + i] is digit i):
#   word 0      " 0." and digit 0            bytes 0-3
#   words 1-4   digits 1-16                  bytes 4-19 (digit i at 3 + i)
#   word 5      F[0:4] if k < 0, else "."    bytes 20-23
#   words 6-9   digits 1-16 again            bytes 24-39 (F[j] at 20 + j)
#   word 10     the newline                  byte 40
# k >= 0 keeps digits 0..k (bytes 3..3+k), then the point and the fraction
# F[k+4:], which is non-empty unless every fraction digit is zero. k < 0
# keeps "0." and F[k+4:]: -k - 1 zeros, then the digits.
_LEAD = _words(np.frombuffer(b"".join(b" 0.%d" % d for d in range(10)), np.uint8))
_DOT = _words(np.frombuffer(b".   ", np.uint8))[0]
_NEWLINE = _words(np.frombuffer(b"\n   ", np.uint8))[0]
_ROW_BYTES = 44
_SEP_BYTE = 40


@lru_cache(maxsize=None)
def _layout_masks() -> np.ndarray:
    """Kept bytes of a value's row by code: (k + 4) * 17 + trailing zeros
    for -4 <= k <= 15, then ``_TEXT_LAYOUT`` for text that ``format`` wrote,
    whose pad bytes are NUL. Built on first use, read-only."""
    k = np.arange(-4, 16)[:, None, None]
    end = _SEP_BYTE - np.arange(17)[:, None]  # after the trailing zeros
    b = np.arange(_ROW_BYTES)
    fraction = (b >= 24 + k) & (b < end)
    fixed = np.where(k < 0, (b == 1) | (b == 2) | fraction,
                     ((b >= 3) & (b < 4 + k)) | ((b == 20) & (24 + k < end)) | fraction)
    text = b < _SEP_BYTE
    return _read_only(np.vstack([fixed.reshape(-1, _ROW_BYTES), text]) | (b == _SEP_BYTE))


_TEXT_LAYOUT = 20 * 17


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**(16 - k) = p + e exactly (Dekker's product)."""
    q = 16 - k
    p = x * _POW10[q]
    xh, xl = _veltkamp_split(x)
    bh, bl = _POW10_HI[q], _POW10_LO[q]
    return p, xl * bl - (((p - xh * bh) - xl * bh) - xh * bl)


def _divmod(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # np.divmod does not use numpy's fast division by a scalar; // does.
    q = a // d
    return q, a - q * d


def _digit_groups(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For 1e-4 <= x < 1e16: the decimal exponent k of x rounded to 17
    digits, and those digits as the groups 1 + 4 + 4 + 4 + 4."""
    k = np.floor(np.log10(x)).astype(np.intp)
    p, e = _scaled(x, k)
    # log10 can miss k by one next to a power of ten; p + e is exact, so
    # these comparisons with 1e16 and 1e17 find every miss.
    low = (p - 1e16) + e < 0
    high = (p - 1e17) + e >= 0
    miss = np.flatnonzero(low | high)
    if len(miss):
        k[miss] += high[miss].astype(np.intp) - low[miss]
        p[miss], e[miss] = _scaled(x[miss], k[miss])
    # n < 10**17: rounding up to 10**(k + 1) needs x within 5e-18 of it,
    # relatively, from below, and no double in the window is (the doubles
    # nearest 1e-3, 1e-2 and 1e-1 lie above them).
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    head, tail = _divmod(n, 10**8)
    d0, middle = _divmod(head, 10**8)
    return (k, d0, *_divmod(middle, 10**4), *_divmod(tail, 10**4))


def _fixed_rows(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row bytes and layout codes of ``values`` in fixed notation, valid
    where the returned mask is set. Its temporaries are freed on return,
    before the tile's byte mask is built."""
    fixed = (values >= 1e-4) & (values < 1e16)
    k, d0, *groups = _digit_groups(np.where(fixed, values, 2.0))  # 2.0: any in the window
    g1, g2, g3, g4 = groups
    quad, z = _quad_tables()
    zeros = z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1]))
    layout = (k + 4) * 17 + zeros
    words = np.empty((11, len(values)), np.uint32)  # row j: word j of every value
    words[0] = _LEAD[d0]
    words[5] = np.where(k < 0, quad[d0], _DOT)
    for j, group in enumerate(groups, 1):
        words[j] = words[j + 5] = quad[group]
    words[10] = _NEWLINE
    return words.T.copy().view(np.uint8), layout, fixed


def _kernel_slots(values: np.ndarray, out: np.ndarray) -> None:
    """Fill the 44-byte slots ``out`` with ``format(v, ".17g")`` of each value
    and then a newline, every other byte NUL."""
    chars, layout, fixed = _fixed_rows(values)
    other = np.flatnonzero(~fixed)
    if len(other):
        texts = [format(v, ".17g").encode() for v in values[other].tolist()]
        chars[other, :_SEP_BYTE] = np.frombuffer(
            b"".join(t.ljust(_SEP_BYTE, b"\0") for t in texts), np.uint8).reshape(-1, _SEP_BYTE)
        layout[other] = _TEXT_LAYOUT
    np.multiply(chars, np.take(_layout_masks(), layout, axis=0), out=out)


def _text_slots(values: np.ndarray) -> np.ndarray:
    """Slots holding ``format(v, ".17g")`` of each value and then a comma,
    NUL-padded to the longest (at most 25 bytes)."""
    texts = [format(v, ".17g").encode() + b"," for v in values.tolist()]
    width = max(map(len, texts))
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts),
                         np.uint8).reshape(-1, width)


def write_contour_csv(path: str, grid: ContourGrid) -> None:
    """Write the (Y, mu, h) rows of ``grid`` tile by tile (``ContourGrid.tiles``,
    at most ``_TILE_VALUES`` rows each); the bytes equal per-value
    ``format(v, ".17g")``. A tile formats its Y, and its mu unless the tile
    before had the same (a short mu axis: once per file), into NUL-padded
    slots, and h by the digit kernel. It fills one (Y, mu, row) byte buffer
    with the three slots and writes it without its NULs."""
    mu_slots = lru_cache(maxsize=1)(lambda m0, m1: _text_slots(grid.mus[m0:m1]))
    with open(path, "wb") as handle:
        handle.write(b"Y,mu,h\n")
        for rows, cols in grid.tiles():
            tile = grid.h[rows, cols]
            y_text, mu_text = _text_slots(grid.ys[rows]), mu_slots(cols.start, cols.stop)
            y_end = y_text.shape[1]
            mu_end = y_end + mu_text.shape[1]
            chars = np.empty(tile.shape + (mu_end + _ROW_BYTES,), np.uint8)
            chars[:, :, :y_end] = y_text[:, None]
            chars[:, :, y_end:mu_end] = mu_text
            _kernel_slots(tile.reshape(-1), chars.reshape(tile.size, -1)[:, mu_end:])
            handle.write(chars[chars != 0])


def write_history_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("step,frobenius,ortho_residual\n")
        for rec in records:
            handle.write(f"{rec.step},{_fmt(rec.frobenius)},{_fmt(rec.ortho_residual)}\n")


def write_boundary_csv(path: str, rows: list[BoundaryRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("scheme,critical_mu,worst_Y,lo,hi\n")
        for row in rows:
            crit = row.result.critical_mu
            crit_text = crit if isinstance(crit, str) else _fmt(crit)
            handle.write(
                f"{row.scheme},{crit_text},{_fmt(row.result.worst_y)},"
                f"{_fmt(row.result.lo)},{_fmt(row.result.hi)}\n"
            )


#: The four published contour grids: file name, scheme, mu range (the
#: scheme's registry ``contour_mu_max``).
FIGURE_GRIDS: tuple[tuple[str, str, float], ...] = tuple(
    (filename, name, _NAMED_SCHEMES[name].contour_mu_max)
    for filename, name in (
        ("fig1_dtp_lie.csv", "hyp-dtp-lie-fe"),
        ("fig2_dtp_strang.csv", "hyp-dtp-strang-rk2"),
        ("fig3_ptd_lie.csv", "hyp-ptd-lie-fe"),
        ("fig4_ptd_strang.csv", "hyp-ptd-strang-rk2"),
    )
)


def write_surface_csv(path: str, scheme_name: str, y_points: int = 401,
                      mu_points: int = 401, mu_max: float | None = None) -> ContourGrid:
    """Tabulate a registry scheme's stability surface on [0, 2] x [0, mu_max]
    (default: its ``contour_mu_max``) and write it to ``path``."""
    info = parse_scheme_name(scheme_name)
    grid = contour_grid(info.surface, y_points, mu_points,
                        info.contour_mu_max if mu_max is None else mu_max)
    write_contour_csv(path, grid)
    return grid


def emit_figure_grids(outdir: str) -> list[str]:
    """Write the four 401x401 stability-surface grids into ``outdir``, one
    grid held at a time."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, filename) for filename, _, _ in FIGURE_GRIDS]
    for path, (_, scheme_name, mu_max) in zip(paths, FIGURE_GRIDS):
        write_surface_csv(path, scheme_name, mu_max=mu_max)
    return paths
