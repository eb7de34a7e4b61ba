"""Stepper behavior: retractions, exact mode closures, splitting order."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psilab.integrators as integrators
from psilab.discretize import XGrid, build_xgrid, fourier_mode
from psilab.harness import (
    VERIFY_SCHEMES,
    ExperimentConfig,
    build_vdisc,
    complex_mode_probes,
    derive_dt,
    expected_mode_multiplier,
    measured_mode_multipliers,
    parabolic_mode_equivalence,
    parse_scheme_name,
    run_oracle_suite,
    run_simulation,
)
from psilab.integrators import (
    LowRankState,
    SchemeSpec,
    _hyperbolic_field,
    _implicit_solve,
    _parabolic_field,
    _VBasis,
    _XBasis,
    init_lowrank,
    reconstruct,
    step,
)
from psilab.linalg import SingularMatrixError, frobenius_norm, qr_thin, sym_eig
from reference_kernels import (
    dense_alpha,
    dense_beta,
    implicit_columns,
    reference_gram_deviation,
    reference_matrix_abs,
    reference_qr_thin_counted,
)

_NX, _NV = 16, 4
_GRID = build_xgrid(_NX)


def _vdisc_for(name):
    return build_vdisc("linear" if name.startswith("hyp") else "square", "nodal", _NV)


def _single_probe(m, k, vdisc, grid):
    """The rank-1 probe x_m v_k^T as plain matrices: the stack of one that
    complex_mode_probes builds, unstacked."""
    probe = complex_mode_probes([m], [k], vdisc, grid)
    return LowRankState(X=probe.X[0], S=probe.S[0], V=probe.V[0])


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
    assert state.ortho_residual < 1e-13


def test_init_lowrank_completes_deficient_input():
    # requested rank exceeds the actual rank: factors must stay orthonormal
    col = np.linspace(0.0, 1.0, _NX)
    u0 = np.outer(col, np.ones(_NV))
    state = init_lowrank(u0, 3)
    assert state.X.shape == (_NX, 3) and state.V.shape == (_NV, 3)
    np.testing.assert_allclose(reconstruct(state), u0, atol=1e-13)
    assert state.ortho_residual < 1e-13


def test_init_lowrank_zero_matrix():
    state = init_lowrank(np.zeros((_NX, _NV)), 2)
    np.testing.assert_allclose(reconstruct(state), 0.0, atol=1e-15)
    assert state.ortho_residual < 1e-13


def test_step_report_norms_match_states():
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    vdisc = _vdisc_for("hyp")
    state = init_lowrank(np.random.default_rng(2).standard_normal((_NX, _NV)), 3)
    report = step(spec, state, vdisc, _GRID, 1e-2)
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
    measured = complex(measured_mode_multipliers(spec, [m], [k], vdisc, _GRID, dt)[0])
    expected = expected_mode_multiplier(spec, m, k, vdisc, _GRID, dt)
    assert abs(measured - expected) < 1e-12


def test_complex_mode_state_is_unit_rank_one():
    vdisc = _vdisc_for("hyp")
    state = _single_probe(3, 1, vdisc, _GRID)
    assert state.S.shape == (1, 1)
    dense = reconstruct(state)
    assert np.linalg.matrix_rank(dense) == 1


@pytest.mark.parametrize("n_x", [3, 16, 63, 64])
def test_mode_probes_are_bitwise_the_fourier_probes(n_x):
    """Each stacked probe, and a stack of one, is x_m = fourier_mode(m) /
    sqrt(N_x) against v_k with S = sqrt(N_x), bit for bit."""
    grid = build_xgrid(n_x)
    vdisc = build_vdisc("linear", "modal", 3)
    ms, ks = np.divmod(np.arange(n_x * 3), 3)
    probes = complex_mode_probes(ms, ks, vdisc, grid)
    assert probes.X.shape == (n_x * 3, n_x, 1) and probes.S.shape == (n_x * 3, 1, 1)
    for i, (m, k) in enumerate(zip(ms.tolist(), ks.tolist())):
        x = (fourier_mode(m, n_x) / np.sqrt(n_x)).reshape(-1, 1)
        v = vdisc.spectrum.eigenvectors[:, k].astype(np.complex128).reshape(-1, 1)
        single = _single_probe(m, k, vdisc, grid)
        for state in (single, LowRankState(X=probes.X[i], S=probes.S[i], V=probes.V[i])):
            assert state.X.tobytes() == x.tobytes()
            assert state.V.tobytes() == v.tobytes()
            assert state.S.tobytes() == np.array([[np.sqrt(n_x)]], dtype=complex).tobytes()
    for bad_ms, bad_ks, named in (([0, n_x], [0, 0], f"[{n_x}]"), ([0, 1], [0, -1], "[-1]"),
                                  ([0, 1], [3, 0], "[3]")):
        with pytest.raises(ValueError, match=rf"{re.escape(named)} outside"):
            complex_mode_probes(bad_ms, bad_ks, vdisc, grid)
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"k={k} outside"):
            expected_mode_multiplier(spec, 0, k, vdisc, grid, 0.1)
    with pytest.raises(ValueError, match="differ"):
        complex_mode_probes([0, 1], [0], vdisc, grid)
    for bad_ms, bad_ks, what in (([1.5], [0], "mode"), ([1], [0.0], "eigendirection")):
        with pytest.raises(ValueError, match=f"{what} indices must be integers"):
            complex_mode_probes(bad_ms, bad_ks, vdisc, grid)


def _dense_after(spec, report):
    after = report.state_after
    return np.asarray(after) if spec.approach == "full_tensor" else reconstruct(after)


def _assert_slices_close(stacked, singles, rtol=1e-14):
    """Each slice of ``stacked`` within rtol of ``singles``, relative to the
    slice's Frobenius norm."""
    gaps = frobenius_norm(stacked - singles)
    assert (gaps <= rtol * frobenius_norm(singles)).all(), gaps.max()


@pytest.mark.parametrize("v_mode", ["nodal", "modal"])
@pytest.mark.parametrize("name", VERIFY_SCHEMES)
def test_stacked_probes_step_like_single_probes(name, v_mode):
    """One step on the stack of every (m, k) probe equals the stack of the
    single-probe steps, the norms and retraction count included."""
    spec = parse_scheme_name(name).spec
    vdisc = build_vdisc("linear", v_mode, _NV)
    cfl = 0.3 if spec.equation == "hyperbolic" else 0.2
    dt = derive_dt(spec.equation, cfl, _GRID, vdisc, strict=False)
    full = spec.approach == "full_tensor"
    ms, ks = np.divmod(np.arange(_NX * _NV), _NV)
    probes = complex_mode_probes(ms, ks, vdisc, _GRID)
    report = step(spec, reconstruct(probes) if full else probes, vdisc, _GRID, dt)
    singles = []
    for m, k in zip(ms.tolist(), ks.tolist()):
        state = _single_probe(m, k, vdisc, _GRID)
        singles.append(step(spec, reconstruct(state) if full else state, vdisc, _GRID, dt))
    _assert_slices_close(_dense_after(spec, report),
                         np.stack([_dense_after(spec, r) for r in singles]))
    np.testing.assert_allclose(report.frobenius_after,
                               [r.frobenius_after for r in singles], rtol=1e-14)
    assert type(report.qr_rank_events) is int
    assert report.qr_rank_events == sum(r.qr_rank_events for r in singles)


def _state_stack(count=3, rank=2, seed=4):
    """Factors of ``count`` random rank-``rank`` states stacked on axis 0."""
    rng = np.random.default_rng(seed)
    states = [init_lowrank(rng.standard_normal((_NX, _NV)), rank) for _ in range(count)]
    return {f: np.stack([getattr(st, f) for st in states]) for f in "XSV"}


@pytest.mark.parametrize(
    "name", ["hyp-dtp-lie-fe", "hyp-ptd-strang-rk2", "par-dtp-lie-theta1", "par-strang-cn"]
)
def test_stacked_step_sums_rank_events(name):
    """A zero core makes every K and L retraction complete each column; the
    stack reports the total of its states' events as an int."""
    spec = parse_scheme_name(name).spec
    vdisc = _vdisc_for(name)
    factors = _state_stack()
    factors["S"][1] = 0.0
    dt = 0.01 if spec.equation == "hyperbolic" else 1e-4
    report = step(spec, LowRankState(**factors), vdisc, _GRID, dt)
    singles = [step(spec, LowRankState(X=x, S=s, V=v), vdisc, _GRID, dt)
               for x, s, v in zip(factors["X"], factors["S"], factors["V"])]
    assert type(report.qr_rank_events) is int
    assert [r.qr_rank_events > 0 for r in singles] == [False, True, False]
    assert report.qr_rank_events == sum(r.qr_rank_events for r in singles)
    _assert_slices_close(reconstruct(report.state_after),
                         np.stack([reconstruct(r.state_after) for r in singles]))


# ---------------------------------------------------------------------------
# the V basis a step hands on to the next

_LOW_RANK_SCHEMES = [name for name in VERIFY_SCHEMES
                     if parse_scheme_name(name).spec.approach != "full_tensor"]


def _fresh(state):
    """The same state built anew from copies of its factors: no carried basis."""
    return LowRankState(X=state.X.copy(), S=state.S.copy(), V=state.V.copy())


def _assert_reports_equal(got, want):
    for f in "XSV":
        assert getattr(got.state_after, f).tobytes() == getattr(want.state_after, f).tobytes()
    assert np.asarray(got.frobenius_after).tobytes() == np.asarray(want.frobenius_after).tobytes()
    assert got.qr_rank_events == want.qr_rank_events


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", _LOW_RANK_SCHEMES)
def test_carried_basis_steps_bitwise_like_a_fresh_state(name, stacked):
    spec = parse_scheme_name(name).spec
    vdisc = _vdisc_for(name)
    cfl = 0.3 if spec.equation == "hyperbolic" else 0.2
    dt = derive_dt(spec.equation, cfl, _GRID, vdisc, strict=False)
    if stacked:
        state = LowRankState(**_state_stack())
    else:
        state = init_lowrank(np.random.default_rng(6).standard_normal((_NX, _NV)), 3)
    for index in range(4):
        assert (state._vbasis is None) == (index == 0)
        report = step(spec, state, vdisc, _GRID, dt)
        _assert_reports_equal(report, step(spec, _fresh(state), vdisc, _GRID, dt))
        state = report.state_after


@pytest.mark.parametrize("name", ["hyp-dtp-lie-fe", "hyp-ptd-strang-rk2", "par-strang-cn"])
def test_carried_basis_saves_one_basis_per_step(monkeypatch, name):
    """A fresh state builds a basis for its V and one after the L substep;
    a stepped state reuses the first."""
    built = []

    class Counting(integrators._VBasis):
        def __init__(self, v, vdisc):
            built.append(v)
            super().__init__(v, vdisc)

    monkeypatch.setattr(integrators, "_VBasis", Counting)
    spec = parse_scheme_name(name).spec
    vdisc = _vdisc_for(name)
    state = init_lowrank(np.random.default_rng(6).standard_normal((_NX, _NV)), 3)
    state = step(spec, state, vdisc, _GRID, 1e-3).state_after
    assert len(built) == 2
    step(spec, state, vdisc, _GRID, 1e-3)
    assert len(built) == 3
    step(spec, _fresh(state), vdisc, _GRID, 1e-3)
    assert len(built) == 5


@pytest.mark.parametrize("name", ["hyp-dtp-lie-fe", "hyp-ptd-strang-rk2", "par-ptd-lie-theta1"])
def test_carried_basis_is_rebuilt_for_another_velocity_operator(name):
    spec = parse_scheme_name(name).spec
    first = _vdisc_for(name)
    other = build_vdisc("abs", "modal", _NV)
    state = init_lowrank(np.random.default_rng(6).standard_normal((_NX, _NV)), 3)
    state = step(spec, state, first, _GRID, 1e-3).state_after
    assert state._vbasis.vdisc is first
    report = step(spec, state, other, _GRID, 1e-3)
    _assert_reports_equal(report, step(spec, _fresh(state), other, _GRID, 1e-3))
    assert report.state_after._vbasis.vdisc is other


@pytest.mark.parametrize("stacked", [False, True])
def test_stepped_factors_are_read_only(stacked):
    """The carried basis belongs to the returned V, so no returned factor
    can be edited in place."""
    spec = parse_scheme_name("hyp-ptd-strang-rk2").spec
    vdisc = _vdisc_for("hyp")
    if stacked:
        state = LowRankState(**_state_stack())
    else:
        state = init_lowrank(np.random.default_rng(6).standard_normal((_NX, _NV)), 3)
    after = step(spec, state, vdisc, _GRID, 1e-2).state_after
    for f in "XSV":
        with pytest.raises(ValueError, match="read-only"):
            getattr(after, f)[..., 0, 0] = 1.0


_COEFFICIENTS = st.one_of(
    st.sampled_from(["linear", "abs", "square"]),
    st.floats(min_value=0.05, max_value=4.0).map(lambda c: f"const:{c!r}"),
)


@st.composite
def _oracle_problems(draw):
    name = draw(st.sampled_from(VERIFY_SCHEMES))
    n_x = draw(st.integers(min_value=3, max_value=64))
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
    measured, expected = run_oracle_suite(name, n_x=n_x, n_v=n_v, coefficient=coefficient,
                                          v_mode=v_mode, cfl=cfl)
    assert np.abs(measured - expected).max() <= 1e-10  # a NaN propagates and fails


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


@pytest.mark.parametrize("splitting", sorted(integrators._SEQUENCES))
def test_splitting_fractions_sum_to_one_step(splitting):
    """K and L advance by +dt in total and the core S substep by -dt; Strang
    reads the same reversed."""
    sequence = integrators._SEQUENCES[splitting]
    totals = {factor: math.fsum(f for name, f in sequence if name == factor) for factor in "KSL"}
    assert totals == {"K": 1.0, "S": -1.0, "L": 1.0}
    if splitting == "strang":
        assert sequence == sequence[::-1]


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
        adv = dense_alpha(_GRID) @ u @ lam.T / (2.0 * _GRID.dx)
        dif = dense_beta(_GRID) @ u @ lam_abs.T / (2.0 * _GRID.dx)
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
        worst = max(worst, state.ortho_residual)
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


_FRAME = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 2)))[0]


@pytest.mark.parametrize("call,error,message", [
    (lambda: SchemeSpec("hyperbolic", "sideways"), ValueError, "unknown approach 'sideways'"),
    (lambda: SchemeSpec("hyperbolic", "dtp", "strang", "ssp_rk2").theta_value,
     ValueError, "substep 'ssp_rk2' has no theta weight"),
    (lambda: LowRankState(X=_FRAME[0], S=np.eye(2), V=_FRAME),
     ValueError, "state factors must be matrices or equal stacks of them"),
    (lambda: LowRankState(X=_FRAME, S=np.eye(3), V=_FRAME),
     ValueError, "inconsistent factor shapes (8, 2), (3, 3), (8, 2)"),
    (lambda: LowRankState(X=_FRAME[:1], S=np.eye(2), V=_FRAME),
     ValueError, "rank exceeds a factor dimension"),
    (lambda: init_lowrank(np.ones(4), 1), ValueError, "initial data must be a matrix"),
    (lambda: init_lowrank(np.ones((4, 3)), 4), ValueError, "rank 4 outside [1, 3]"),
    (lambda: step(SchemeSpec("hyperbolic", "dtp"), np.ones((_NX, _NV)), _vdisc_for("hyp"),
                  _GRID, 0.1),
     TypeError, "low-rank schemes need a LowRankState"),
])
def test_stepper_rejects(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("name", ["hyp-ptd-lie-fe", "par-ptd-lie-theta1"])
def test_ptd_step_rejects_a_genuinely_complex_projection(name):
    """PtD projects the velocity coefficient onto V; a V whose V^H A V is
    genuinely complex is not a mode probe, and the step refuses it."""
    rng = np.random.default_rng(23)
    state = LowRankState(X=_random_frame(rng, (_NX, 2), "complex"),
                         S=_random(rng, (2, 2), "complex"),
                         V=_random_frame(rng, (_NV, 2), "complex"))
    vdisc = _vdisc_for(name)
    with pytest.raises(ValueError, match="^projected coefficient matrix is not real$"):
        step(parse_scheme_name(name).spec, state, vdisc, _GRID, 0.01)


# theta out of [0, 1] or nan, given to a substep without a weight, or
# missing from the theta substep
@pytest.mark.parametrize("approach,splitting,substep,theta", [
    ("full_tensor", "lie", "theta", -0.1),
    ("dtp", "lie", "theta", 1.5),
    ("dtp", "lie", "theta", math.nan),
    ("dtp", "lie", "hybrid_be_fe_be", 0.5),
    ("dtp", "strang", "crank_nicolson", 0.5),
    ("dtp", "strang", "theta", 0.5),  # Strang takes crank_nicolson by name only
    ("full_tensor", "lie", "theta", None),
    ("dtp", "lie", "theta", None),
])
def test_scheme_spec_rejects_bad_theta(approach, splitting, substep, theta):
    with pytest.raises(ValueError, match="theta"):
        SchemeSpec("parabolic", approach, splitting, substep, theta)


@pytest.mark.parametrize("approach", ["full_tensor", "dtp", "ptd"])
@pytest.mark.parametrize("weight,named", [
    (0.0, "forward_euler"), (0, "forward_euler"), (0.5, "crank_nicolson"),
    (np.float64(0.5), "crank_nicolson"), (1.0, "backward_euler"), (1, "backward_euler"),
], ids=["0.0", "int-0", "0.5", "float64-0.5", "1.0", "int-1"])
def test_theta_substep_at_a_named_weight_is_the_named_spec(approach, weight, named):
    spec = SchemeSpec("parabolic", approach, "lie", "theta", weight)
    assert spec == SchemeSpec("parabolic", approach, "lie", named)
    assert hash(spec) == hash(SchemeSpec("parabolic", approach, "lie", named))
    assert (spec.substep, spec.theta, spec.theta_value) == (named, None, weight)


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


@pytest.mark.parametrize("factor", ["X", "S", "V"])
def test_state_stack_names_a_non_finite_slice(factor):
    factors = _state_stack()
    factors[factor][1, 0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=f"factor {factor}"):
        LowRankState(**factors)


@pytest.mark.parametrize("factor", ["X", "V"])
def test_state_stack_rejects_a_non_orthonormal_slice(factor):
    factors = _state_stack()
    factors[factor][2] *= 1.001
    with pytest.raises(ValueError, match=f"factor {factor} is not orthonormal"):
        LowRankState(**factors)


def test_state_stack_ortho_residual_is_the_stack_maximum():
    factors = _state_stack()
    factors["V"][1] *= 1.0 + 1e-10  # within tolerance, and the largest deviation
    slices = [LowRankState(X=x, S=s, V=v)
              for x, s, v in zip(factors["X"], factors["S"], factors["V"])]
    stack = LowRankState(**factors)
    assert stack.rank == 2
    assert stack.ortho_residual == pytest.approx(max(st.ortho_residual for st in slices),
                                                 rel=1e-12)
    assert stack.ortho_residual == pytest.approx(slices[1].ortho_residual, rel=1e-12)
    with pytest.raises(ValueError, match="inconsistent factor shapes"):
        LowRankState(X=factors["X"], S=factors["S"][:2], V=factors["V"])


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
    grid = build_xgrid(n_x)
    scale = sign * 0.35
    dec = _coefficient_with_spectrum(sign * np.array([2.0, 0.7, 0.1, -0.3, -0.55]), n_x)
    rng = np.random.default_rng(n_x)
    rhs = rng.standard_normal((n_x, 5))
    if kind == "complex":
        rhs = rhs + 1j * rng.standard_normal((n_x, 5))
    fourier = _implicit_solve(rhs, grid.beta_eig, dec, scale)
    dense = implicit_columns(rhs, dense_beta(grid), dec, scale)
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
    dense = implicit_columns(small, xb.cstencils[1], dec, scale)
    assert np.iscomplexobj(projected) == (kind == "complex")
    for got, want in zip((projected @ rot).T, (dense @ rot).T):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fourier_implicit_solve_reports_a_zero_symbol():
    # scale * lam * 2Y_2 = 1 * (-0.5) * 2 on N_x = 8: mode 2's symbol vanishes
    grid = build_xgrid(8)
    dec = sym_eig(np.diag([1.0, -0.5]))
    rhs = np.ones((8, 2))
    with pytest.raises(SingularMatrixError) as err:
        _implicit_solve(rhs, grid.beta_eig, dec, 1.0)
    assert np.isfinite(err.value.pivot) and err.value.pivot <= 1e-13


# ---------------------------------------------------------------------------
# substep fields on projected coefficients


def _dense_field(equation, approach, factor, xb, vb):
    """Reference field of one substep, forward in time, from the dense
    stencil matrices Ad and Bd. dtp: the full-tensor right-hand side on the
    reconstructed N_x x N_v slice, projected back. ptd: the reduced
    equations on At = V^T A V, with Ad and Bd acting on K and X^T Ad X and
    X^T Bd X on S and L; only K is upwinded, with |At|."""
    g, vd, x, v = xb.grid, vb.vdisc, xb.x, vb.v
    ad, bd = dense_alpha(g), dense_beta(g)
    c = 1.0 / (2.0 * g.dx)
    if approach == "dtp":
        vh, xh = v.conj().mT, x.conj().mT
        if equation == "hyperbolic":
            def full(u):
                return c * (bd @ u @ vd.coeff_abs - ad @ u @ vd.coeff)
        else:
            def full(u):
                return bd @ u @ vd.coeff
        if factor == "K":
            return lambda k: full(k @ vh) @ v
        if factor == "S":
            return lambda s: xh @ full(x @ s @ vh) @ v
        return lambda low: xh @ full(x @ low)
    at = v.mT @ vd.coeff @ v
    if factor != "K":
        ad, bd = x.mT @ ad @ x, x.mT @ bd @ x
    coeff = vd.coeff if factor == "L" else at
    if equation == "parabolic":
        return lambda y: bd @ y @ coeff
    if factor == "K":
        abs_at = reference_matrix_abs(at)
        return lambda k: c * (bd @ k @ abs_at - ad @ k @ at)
    return lambda y: -c * (ad @ y @ coeff)


def _random_frame(rng, shape, kind):
    a = rng.standard_normal(shape)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(shape)
    return np.linalg.qr(a)[0]


def _random(rng, shape, kind):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if kind == "complex" else a


_FIELD_GRIDS = {n_x: build_xgrid(n_x) for n_x in (3, 4, 64, 1024)}
_FIELDS = {"hyperbolic": _hyperbolic_field, "parabolic": _parabolic_field}


@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("n_v", [1, 16])
@pytest.mark.parametrize("n_x", [3, 4, 64, 1024])
@pytest.mark.parametrize("equation,approach,kind", [
    # ptd rejects a genuinely complex V, so its frames are real
    ("hyperbolic", "dtp", "real"), ("hyperbolic", "dtp", "complex"),
    ("hyperbolic", "ptd", "real"),
    ("parabolic", "dtp", "real"), ("parabolic", "dtp", "complex"),
    ("parabolic", "ptd", "real"),
])
def test_substep_fields_are_the_dense_stencil_forms(equation, approach, kind, n_x, n_v, lead):
    """Every K, S and L field on projected coefficients equals its form on
    the dense stencil matrices (``_dense_field``) on random rank-r frames,
    so the order of the r x r products in each field is checked too."""
    rng = np.random.default_rng(n_x * 100 + n_v)
    coefficient = "linear" if equation == "hyperbolic" else "square"
    grid, vdisc = _FIELD_GRIDS[n_x], build_vdisc(coefficient, "modal", n_v)
    r = min(3, n_x, n_v)
    xb = _XBasis(_random_frame(rng, (*lead, n_x, r), kind), grid)
    vb = _VBasis(_random_frame(rng, (*lead, n_v, r), kind), vdisc)
    inputs = {"K": (*lead, n_x, r), "S": (*lead, r, r), "L": (*lead, r, n_v)}
    if (equation, approach, r) == ("hyperbolic", "ptd", 1):
        # x^T alpha(x) = 0 for a real x, so the S and L fields vanish and
        # both sides are roundoff of opposite signs
        del inputs["S"], inputs["L"]
    for factor, shape in inputs.items():
        y = _random(rng, shape, kind)
        got = _FIELDS[equation](approach, factor, xb, vb)(y)
        want = _dense_field(equation, approach, factor, xb, vb)(y)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), factor


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_dtp_advection_stencils_never_see_a_velocity_slice(monkeypatch, lead):
    """A hyperbolic dtp step applies the x-stencils only to N_x x r arrays,
    never to an N_x x N_v slice."""
    n_x, n_v, r = 64, 16, 4
    grid, vdisc = build_xgrid(n_x), build_vdisc("linear", "nodal", n_v)
    rng = np.random.default_rng(8)
    state = LowRankState(X=_random_frame(rng, (*lead, n_x, r), "real"),
                         S=rng.standard_normal((*lead, r, r)),
                         V=_random_frame(rng, (*lead, n_v, r), "real"))
    shapes = []

    def recording(stencil):
        def wrapper(self, u):
            shapes.append(np.shape(u))
            return stencil(self, u)
        return wrapper

    for stencil in ("alpha", "beta", "stencils"):
        monkeypatch.setattr(XGrid, stencil, recording(getattr(XGrid, stencil)))
    dt = derive_dt("hyperbolic", 0.3, grid, vdisc)
    for name in ("hyp-dtp-lie-fe", "hyp-dtp-strang-rk2"):
        step(parse_scheme_name(name).spec, state, vdisc, grid, dt)
    assert shapes and all(shape[-1] == r for shape in shapes), set(shapes)


@pytest.mark.parametrize("name", ["hyp-dtp-lie-fe", "hyp-dtp-strang-rk2"])
def test_dtp_advection_steps_a_general_complex_state(monkeypatch, name):
    """A complex state whose V^H A V is genuinely complex steps, and the step
    equals the slice-form step."""
    n_x, n_v, r = 32, 8, 3
    grid, vdisc = build_xgrid(n_x), build_vdisc("linear", "modal", n_v)
    rng = np.random.default_rng(21)
    state = LowRankState(X=_random_frame(rng, (n_x, r), "complex"),
                         S=_random(rng, (r, r), "complex"),
                         V=_random_frame(rng, (n_v, r), "complex"))
    projected = state.V.conj().T @ vdisc.coeff @ state.V
    assert frobenius_norm(projected.imag) > 0.1 * frobenius_norm(projected.real)
    spec = parse_scheme_name(name).spec
    dt = derive_dt("hyperbolic", 0.3, grid, vdisc)
    got = reconstruct(step(spec, state, vdisc, grid, dt).state_after)

    def slice_field(approach, factor, xb, vb):
        assert approach == "dtp"
        return _dense_field("hyperbolic", "dtp", factor, xb, vb)

    monkeypatch.setattr(integrators, "_hyperbolic_field", slice_field)
    want = reconstruct(step(spec, state, vdisc, grid, dt).state_after)
    assert frobenius_norm(got - want) <= 1e-13 * frobenius_norm(want)


# ---------------------------------------------------------------------------
# lean step kernels against their reference bodies, byte for byte


def _gram_inputs():
    rng = np.random.default_rng(61)
    frame, _ = qr_thin(rng.standard_normal((64, 4)))
    cframe, _ = qr_thin(rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3)))
    cases = {
        "real frame": frame,
        "complex frame": cframe,
        "one column": frame[:, :1],
        "non-orthonormal": rng.standard_normal((9, 3)),
        "non-orthonormal complex": rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)),
        "integer": np.eye(_NX, 2, dtype=int),
        "integer non-orthonormal": np.arange(12).reshape(4, 3),
        "float32": frame.astype(np.float32),
        "transposed": np.ascontiguousarray(frame.T).T,
        "strided": rng.standard_normal((20, 8))[::2, ::2],
        "stack": np.stack([frame, frame * (1.0 + 1e-9), -frame]),
        "complex stack": np.stack([cframe, cframe.conj()])[None],
    }
    return list(cases.items())


@pytest.mark.parametrize("label,f", _gram_inputs())
def test_gram_deviation_bitwise_matches_the_reference_body(label, f):
    before = f.copy()
    got, want = integrators._gram_deviation(f), reference_gram_deviation(f)
    assert type(got) is float and type(want) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert f.tobytes() == before.tobytes()  # the input is left alone


@pytest.mark.parametrize("initial_data", ["random_rank_r", "worst_mode"])
@pytest.mark.parametrize("name", _LOW_RANK_SCHEMES)
def test_march_bitwise_matches_a_march_on_the_reference_kernels(monkeypatch, name,
                                                                initial_data):
    """100 steps with the lean QR, |A| and orthonormality check record the
    same norm and residual bytes as with the reference bodies."""
    info = parse_scheme_name(name)
    hyperbolic = info.spec.equation == "hyperbolic"
    cfg = ExperimentConfig(
        scheme=info.spec, n_x=16, n_v=4, rank=2, cfl=0.3 if hyperbolic else 0.2,
        steps=100, coefficient="linear" if hyperbolic else "square", seed=3,
        initial_data=initial_data,
    )
    shipped = run_simulation(cfg)
    for attr, reference in (("matrix_abs", reference_matrix_abs),
                            ("qr_thin_counted", reference_qr_thin_counted),
                            ("_gram_deviation", reference_gram_deviation)):
        monkeypatch.setattr(integrators, attr, reference)
    referenced = run_simulation(cfg)
    assert len(shipped) == len(referenced) == 101
    for column in ("frobenius", "ortho_residual"):
        got = np.array([getattr(rec, column) for rec in shipped])
        want = np.array([getattr(rec, column) for rec in referenced])
        assert got.tobytes() == want.tobytes(), column


def _stencil_calls(monkeypatch, name, stencils):
    """Names of the ``XGrid`` stencil methods among ``stencils`` that one
    step of the scheme calls, in order."""
    calls = []

    def counting(stencil):
        def wrapper(self, u):
            calls.append(stencil.__name__)
            return stencil(self, u)
        return wrapper

    for stencil in stencils:
        monkeypatch.setattr(XGrid, stencil, counting(getattr(XGrid, stencil)))
    spec = parse_scheme_name(name).spec
    state = init_lowrank(np.random.default_rng(6).standard_normal((_NX, _NV)), 3)
    step(spec, state, _vdisc_for(name), _GRID, 1e-2)
    return calls


@pytest.mark.parametrize("name,evaluations", [("hyp-ptd-lie-fe", 1),
                                              ("hyp-ptd-strang-rk2", 4)])
def test_ptd_advection_pads_only_for_its_k_field(monkeypatch, name, evaluations):
    """PtD's S and L fields read X^H alpha(X) alone, so a step pads for
    beta only where a K field is evaluated: once per forward Euler K
    substep, twice per SSP-RK2 one."""
    calls = _stencil_calls(monkeypatch, name, ("beta", "stencils"))
    assert calls == ["stencils"] * evaluations


@pytest.mark.parametrize("name", [name for name in _LOW_RANK_SCHEMES
                                  if name.startswith("par-")])
def test_diffusion_steps_form_no_alpha(monkeypatch, name):
    """Diffusion reads X^H beta(X) alone, so a parabolic step never applies
    alpha, neither alone nor through the shared-pad stencil pair."""
    assert _stencil_calls(monkeypatch, name, ("alpha", "stencils")) == []
