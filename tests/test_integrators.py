"""Stepper behavior: retractions, exact mode closures, splitting order."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psilab.discretize import build_xgrid
from psilab.harness import (
    VERIFY_SCHEMES,
    build_vdisc,
    complex_mode_state,
    expected_mode_multiplier,
    measured_mode_multiplier,
    parabolic_mode_equivalence,
    parse_scheme_name,
    run_oracle_suite,
)
from psilab.integrators import (
    LowRankState,
    SchemeSpec,
    _implicit_columns,
    _implicit_solve,
    _XBasis,
    init_lowrank,
    orthonormality_residual,
    reconstruct,
    step,
)
from psilab.linalg import SingularMatrixError, frobenius_norm, qr_thin, sym_eig

_NX, _NV = 16, 4
_GRID = build_xgrid(_NX, 2.0 * np.pi / _NX)


def _vdisc_for(name):
    return build_vdisc("linear" if name.startswith("hyp") else "square", "nodal", _NV)


@pytest.mark.parametrize("name", VERIFY_SCHEMES)
def test_zero_dt_is_identity(name):
    spec = parse_scheme_name(name).spec
    vdisc = _vdisc_for(name)
    rng = np.random.default_rng(11)
    u0 = rng.standard_normal((_NX, _NV))
    if spec.approach == "full_tensor":
        after = step(spec, u0.copy(), vdisc, _GRID, 0.0).state_after
        np.testing.assert_allclose(after, u0, atol=1e-14)
    else:
        state = init_lowrank(u0, 3)
        before = reconstruct(state)
        after = reconstruct(step(spec, state, vdisc, _GRID, 0.0).state_after)
        np.testing.assert_allclose(after, before, atol=1e-13)


def test_init_lowrank_exact_on_low_rank_input():
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal((_NX, 2)) @ rng.standard_normal((2, _NV))
    state = init_lowrank(u0, 2)
    np.testing.assert_allclose(reconstruct(state), u0, atol=1e-12)
    assert orthonormality_residual(state) < 1e-13


def test_init_lowrank_completes_deficient_input():
    # requested rank exceeds the actual rank: factors must stay orthonormal
    col = np.linspace(0.0, 1.0, _NX)
    u0 = np.outer(col, np.ones(_NV))
    state = init_lowrank(u0, 3)
    assert state.X.shape == (_NX, 3) and state.V.shape == (_NV, 3)
    np.testing.assert_allclose(reconstruct(state), u0, atol=1e-13)
    assert orthonormality_residual(state) < 1e-13


def test_init_lowrank_zero_matrix():
    state = init_lowrank(np.zeros((_NX, _NV)), 2)
    np.testing.assert_allclose(reconstruct(state), 0.0, atol=1e-15)
    assert orthonormality_residual(state) < 1e-13


def test_step_report_norms_match_states():
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    vdisc = _vdisc_for("hyp")
    state = init_lowrank(np.random.default_rng(2).standard_normal((_NX, _NV)), 3)
    report = step(spec, state, vdisc, _GRID, 1e-2)
    assert report.frobenius_before == pytest.approx(frobenius_norm(reconstruct(state)))
    assert report.frobenius_after == pytest.approx(
        frobenius_norm(reconstruct(report.state_after))
    )


_SPOT_MODES = [(0, 0), (1, 2), (5, 0), (8, 3), (15, 1)]


@pytest.mark.parametrize(
    "name", ["hyp-dtp-lie-fe", "hyp-ptd-strang-rk2", "par-hybrid", "par-strang-cn"]
)
@pytest.mark.parametrize("m,k", _SPOT_MODES)
def test_complex_mode_closure(name, m, k):
    """One step on x_m v_k^T multiplies it by the closed-form G and nothing
    else; the mode stays rank 1 in exact arithmetic."""
    spec = parse_scheme_name(name).spec
    vdisc = _vdisc_for(name)
    dt = 0.2 * _GRID.dx / float(np.abs(vdisc.spectrum.eigenvalues).max())
    if spec.equation == "parabolic":
        dt *= _GRID.dx
    measured = measured_mode_multiplier(spec, m, k, vdisc, _GRID, dt)
    expected = expected_mode_multiplier(spec, m, k, vdisc, _GRID, dt)
    assert abs(measured - expected) < 1e-12


def test_complex_mode_state_is_unit_rank_one():
    vdisc = _vdisc_for("hyp")
    state = complex_mode_state(3, 1, vdisc, _GRID)
    assert state.S.shape == (1, 1)
    dense = reconstruct(state)
    assert np.linalg.matrix_rank(dense) == 1


_COEFFICIENTS = st.one_of(
    st.sampled_from(["linear", "abs", "square"]),
    st.floats(min_value=0.05, max_value=4.0).map(lambda c: f"const:{c!r}"),
)


@st.composite
def _oracle_problems(draw):
    name = draw(st.sampled_from(VERIFY_SCHEMES))
    n_x = draw(st.integers(min_value=3, max_value=32))
    n_v = draw(st.integers(min_value=1, max_value=8))
    coefficient = draw(_COEFFICIENTS)
    v_mode = draw(st.sampled_from(["nodal", "modal"]))
    # |x| = 2 Y |nu| <= 4 cfl < 1 keeps every implicit factor off its pole.
    cap = 1.0 if name.startswith("hyp") else 0.24
    cfl = draw(st.floats(min_value=0.0, max_value=cap))
    return name, n_x, n_v, coefficient, v_mode, cfl


@settings(deadline=None, max_examples=100)
@given(_oracle_problems())
def test_oracle_holds_on_random_problems(problem):
    """The stepper/closed-form contract of ``psilab verify`` on problems
    beyond its fixed 16 x 4 grid."""
    name, n_x, n_v, coefficient, v_mode, cfl = problem
    equation = "hyperbolic" if name.startswith("hyp") else "parabolic"
    vdisc = build_vdisc(coefficient, v_mode, n_v)
    assume(vdisc.lambda_max(equation, strict=False) > 0.0)  # dt needs a speed
    rows = run_oracle_suite(name, n_x=n_x, n_v=n_v, coefficient=coefficient,
                            v_mode=v_mode, cfl=cfl)
    assert max(row.discrepancy for row in rows) <= 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_parabolic_formulations_agree_per_mode(theta):
    assert parabolic_mode_equivalence(theta, n_x=_NX, n_v=_NV) <= 1e-12


def _one_step_gap(low_name, full_name, coeff, dt, u0):
    grid = _GRID
    vdisc = build_vdisc(coeff, "nodal", _NV)
    low = parse_scheme_name(low_name).spec
    full = parse_scheme_name(full_name).spec
    state = init_lowrank(u0, _NV)  # full rank: the gap is pure splitting error
    a = reconstruct(step(low, state, vdisc, grid, dt).state_after)
    b = step(full, u0.copy(), vdisc, grid, dt).state_after
    return frobenius_norm(a - b)


@pytest.mark.parametrize("low", ["hyp-dtp-lie-fe", "hyp-ptd-lie-fe"])
def test_lie_splitting_gap_is_second_order(low):
    u0 = np.random.default_rng(3).standard_normal((_NX, _NV))
    coarse = _one_step_gap(low, "hyp-full-fe", "linear", 2e-3, u0)
    fine = _one_step_gap(low, "hyp-full-fe", "linear", 1e-3, u0)
    assert coarse / fine == pytest.approx(4.0, abs=0.4)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_parabolic_lie_splitting_gap_is_second_order(theta):
    u0 = np.random.default_rng(3).standard_normal((_NX, _NV))
    name = f"par-dtp-lie-theta{theta:g}"
    coarse = _one_step_gap(name, f"par-full-theta{theta:g}", "square", 2e-3, u0)
    fine = _one_step_gap(name, f"par-full-theta{theta:g}", "square", 1e-3, u0)
    assert coarse / fine == pytest.approx(4.0, abs=0.4)


def test_crank_nicolson_splitting_telescopes_at_full_rank():
    # theta = 1/2 is special: the K and S factors cancel and the split
    # update equals the unsplit one exactly, not just to second order
    u0 = np.random.default_rng(3).standard_normal((_NX, _NV))
    for dt in (2e-3, 1e-3):
        gap = _one_step_gap("par-dtp-lie-theta0.5", "par-full-theta0.5", "square", dt, u0)
        assert gap < 1e-12


def test_strang_splitting_gap_is_third_order():
    rng = np.random.default_rng(3)
    u0 = rng.standard_normal((_NX, _NV))
    vdisc = build_vdisc("linear", "nodal", _NV)
    low = parse_scheme_name("hyp-dtp-strang-rk2").spec
    lam, lam_abs = vdisc.coeff, vdisc.coeff_abs

    def rhs(u):
        adv = _GRID.m_alpha @ u @ lam.T / (2.0 * _GRID.dx)
        dif = _GRID.m_beta @ u @ lam_abs.T / (2.0 * _GRID.dx)
        return dif - adv

    gaps = []
    for dt in (2e-3, 1e-3):
        state = init_lowrank(u0, _NV)
        a = reconstruct(step(low, state, vdisc, _GRID, dt).state_after)
        u1 = u0 + dt * rhs(u0)
        b = 0.5 * (u0 + u1 + dt * rhs(u1))  # unsplit ssp-rk2 comparator
        gaps.append(frobenius_norm(a - b))
    assert gaps[0] / gaps[1] == pytest.approx(8.0, abs=0.8)


def test_orthonormality_survives_many_steps():
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    vdisc = _vdisc_for("hyp")
    dt = 0.3 * _GRID.dx / float(np.abs(vdisc.spectrum.eigenvalues).max())
    state = init_lowrank(np.random.default_rng(9).standard_normal((_NX, _NV)), 3)
    worst = 0.0
    for _ in range(300):
        state = step(spec, state, vdisc, _GRID, dt).state_after
        worst = max(worst, orthonormality_residual(state))
    assert worst < 1e-12


def test_scheme_spec_validation():
    with pytest.raises(ValueError, match="equation"):
        SchemeSpec(equation="elliptic", approach="dtp")
    with pytest.raises(ValueError, match="theta"):
        SchemeSpec(equation="hyperbolic", approach="dtp", theta=0.5)
    with pytest.raises(ValueError, match="ssp_rk2"):
        SchemeSpec(equation="parabolic", approach="dtp", substep="ssp_rk2")
    with pytest.raises(ValueError):
        SchemeSpec(equation="hyperbolic", approach="dtp", splitting="strang",
                   substep="forward_euler")


#: Every scheme SchemeSpec accepts among the axis values below.
_VALID_SCHEMES = {
    ("hyperbolic", "full_tensor", "lie", "forward_euler", None),
    ("hyperbolic", "dtp", "lie", "forward_euler", None),
    ("hyperbolic", "dtp", "strang", "ssp_rk2", None),
    ("hyperbolic", "ptd", "lie", "forward_euler", None),
    ("hyperbolic", "ptd", "strang", "ssp_rk2", None),
    ("parabolic", "full_tensor", "lie", "forward_euler", None),
    ("parabolic", "full_tensor", "lie", "backward_euler", None),
    ("parabolic", "full_tensor", "lie", "crank_nicolson", None),
    ("parabolic", "full_tensor", "lie", "theta", 0.3),
    ("parabolic", "dtp", "lie", "forward_euler", None),
    ("parabolic", "dtp", "lie", "backward_euler", None),
    ("parabolic", "dtp", "lie", "crank_nicolson", None),
    ("parabolic", "dtp", "lie", "theta", 0.3),
    ("parabolic", "dtp", "lie", "hybrid_be_fe_be", None),
    ("parabolic", "dtp", "strang", "crank_nicolson", None),
    ("parabolic", "ptd", "lie", "forward_euler", None),
    ("parabolic", "ptd", "lie", "backward_euler", None),
    ("parabolic", "ptd", "lie", "crank_nicolson", None),
    ("parabolic", "ptd", "lie", "theta", 0.3),
    ("parabolic", "ptd", "lie", "hybrid_be_fe_be", None),
    ("parabolic", "ptd", "strang", "crank_nicolson", None),
}


def test_scheme_spec_accepts_exactly_the_valid_combinations():
    combos = list(itertools.product(
        ("hyperbolic", "parabolic"),
        ("full_tensor", "dtp", "ptd"),
        ("lie", "strang"),
        ("forward_euler", "ssp_rk2", "backward_euler", "crank_nicolson", "theta",
         "hybrid_be_fe_be"),
        (None, 0.3),
    ))
    assert len(combos) == 144
    accepted = set()
    for combo in combos:
        try:
            SchemeSpec(*combo)
        except ValueError:
            continue
        accepted.add(combo)
    assert accepted == _VALID_SCHEMES


@pytest.mark.parametrize("factor", ["X", "S", "V"])
def test_state_rejects_non_finite_factors(factor):
    state = init_lowrank(np.random.default_rng(4).standard_normal((_NX, _NV)), 2)
    factors = {"X": state.X.copy(), "S": state.S.copy(), "V": state.V.copy()}
    factors[factor][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=f"factor {factor}"):
        LowRankState(**factors)
    factors[factor][0, 0] = np.inf
    with pytest.raises(FloatingPointError, match=f"factor {factor}"):
        LowRankState(**factors)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_state_ortho_residual_bitwise_matches_identity_difference(kind):
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal((_NX, _NV))
    if kind == "complex":
        u0 = u0 + 1j * rng.standard_normal((_NX, _NV))
    state = init_lowrank(u0, 3)
    eye = np.identity(3)
    devs = [frobenius_norm(f.conj().T @ f - eye) for f in (state.X, state.V)]
    assert state.ortho_residual == max(devs)


def test_state_accepts_integer_frames():
    frame = np.eye(_NX, 2, dtype=int)
    assert LowRankState(X=frame, S=np.eye(2), V=frame).ortho_residual == 0.0


@pytest.mark.parametrize("factor", ["X", "V"])
def test_state_rejects_non_orthonormal_factors(factor):
    state = init_lowrank(np.random.default_rng(4).standard_normal((_NX, _NV)), 2)
    factors = {"X": state.X.copy(), "S": state.S.copy(), "V": state.V.copy()}
    factors[factor] *= 1.001
    with pytest.raises(ValueError, match=f"factor {factor} is not orthonormal"):
        LowRankState(**factors)
    # a non-finite core is named even when a frame is also off
    factors["S"][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="factor S"):
        LowRankState(**factors)


def _coefficient_with_spectrum(lams, seed):
    """A symmetric matrix with the given eigenvalues and random eigenvectors."""
    q, _ = qr_thin(np.random.default_rng(seed).standard_normal((len(lams), len(lams))))
    return sym_eig((q * np.asarray(lams)) @ q.T)


@pytest.mark.parametrize("n_x", [3, 8, 64, 256])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fourier_implicit_solve_matches_dense_lu(n_x, sign, kind):
    """The Fourier-space solve of (I - scale*lam_k*beta) agrees with a dense
    LU of the n_x x n_x system per eigencolumn, for either sign of scale and
    eigenvalues of both signs (every symbol stays at or above 0.2). So does
    the solve against the projected stencil X^H beta X, diagonalized by
    eigh, for a random orthonormal X (complex X makes it complex Hermitian);
    its eigenvalues lie in beta's range [-4, 0], so the same bound holds."""
    grid = build_xgrid(n_x, 2.0 * np.pi / n_x)
    scale = sign * 0.35
    dec = _coefficient_with_spectrum(sign * np.array([2.0, 0.7, 0.1, -0.3, -0.55]), n_x)
    rng = np.random.default_rng(n_x)
    rhs = rng.standard_normal((n_x, 5))
    if kind == "complex":
        rhs = rhs + 1j * rng.standard_normal((n_x, 5))
    fourier = _implicit_solve(rhs, grid.beta_eig, dec, scale)
    dense = _implicit_columns(rhs, grid.m_beta, dec, scale)
    assert np.iscomplexobj(fourier) == (kind == "complex")
    rot = dec.eigenvectors
    for got, want in zip((fourier @ rot).T, (dense @ rot).T):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    r = min(n_x, 4)
    x = rng.standard_normal((n_x, r))
    if kind == "complex":
        x = x + 1j * rng.standard_normal((n_x, r))
    xb = _XBasis(qr_thin(x)[0], grid)
    small = rhs[:r]
    projected = _implicit_solve(small, xb.cbeta_eig, dec, scale)
    dense = _implicit_columns(small, xb.cbeta, dec, scale)
    assert np.iscomplexobj(projected) == (kind == "complex")
    for got, want in zip((projected @ rot).T, (dense @ rot).T):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fourier_implicit_solve_reports_a_zero_symbol():
    # scale * lam * 2Y_2 = 1 * (-0.5) * 2 on N_x = 8: mode 2's symbol vanishes
    grid = build_xgrid(8, 2.0 * np.pi / 8)
    dec = sym_eig(np.diag([1.0, -0.5]))
    rhs = np.ones((8, 2))
    with pytest.raises(SingularMatrixError) as err:
        _implicit_solve(rhs, grid.beta_eig, dec, 1.0)
    assert np.isfinite(err.value.pivot) and err.value.pivot <= 1e-13
