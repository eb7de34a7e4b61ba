"""Closed-form amplification surfaces, parabolic multipliers, boundaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psilab.amplification import (
    AmpQuery,
    PoleError,
    Y_GRID,
    amp_full_hyperbolic,
    amp_p1_p2_p3,
    contour_grid,
    find_boundary,
    g_parabolic,
    h_dtp_lie,
    h_dtp_strang_rk2,
    h_full_fe,
    h_parabolic_surface,
    h_ptd_lie,
    h_ptd_strang_rk2,
    mode_multiplier,
)
from psilab.harness import BOUNDARY_SUITE, parse_scheme_name

_Y = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_NU = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_SIGN = st.sampled_from([1.0, -1.0])

_Y_GRID = np.concatenate([[0.0], np.geomspace(1e-8, 2.0, 4001)])


def test_full_multiplier_is_one_at_y_zero():
    for nu in (-2.0, 0.0, 0.4, 1.0, 3.0):
        assert amp_full_hyperbolic(AmpQuery(0.0, nu, 1.0)) == 1.0


def test_full_multiplier_neutral_at_unit_cfl():
    # upwinding at |nu| = 1 shifts the grid exactly: |G| = 1 for every mode
    for y in np.linspace(0.0, 2.0, 21):
        for nu in (1.0, -1.0):
            assert abs(amp_full_hyperbolic(AmpQuery(y, nu, 1.0))) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(h_full_fe(np.linspace(0, 2, 101), 1.0), 1.0, atol=1e-14)


def test_full_multiplier_vanishes_at_half_cfl_grid_mode():
    assert amp_full_hyperbolic(AmpQuery(2.0, 0.5, 1.0)) == 0.0


@settings(deadline=None, max_examples=150)
@given(_Y, _NU, _SIGN)
def test_substep_factor_algebra(y, nu, sign):
    p1, p2_dtp, p2_ptd, p3_ptd = amp_p1_p2_p3(AmpQuery(y, nu, sign))
    mu = abs(nu)
    z = sign * np.sqrt(y * (2.0 - y))
    assert p1 == pytest.approx((1.0 - mu * y) - 1j * nu * z, abs=1e-14)
    assert p2_dtp == pytest.approx(2.0 - p1, abs=1e-14)
    assert abs(p2_dtp) ** 2 == pytest.approx(1.0 + 2.0 * y * mu * (mu + 1.0), abs=1e-11)
    prod = p2_ptd * p3_ptd
    assert prod.imag == pytest.approx(0.0, abs=1e-12)
    assert prod.real == pytest.approx(1.0 + nu**2 * y * (2.0 - y), abs=1e-11)


def test_dtp_lie_surface_values():
    assert h_dtp_lie(2.0, 1.0 / 3.0) == pytest.approx(25.0 / 729.0, rel=1e-13)
    assert h_dtp_lie(0.1, 0.4) == pytest.approx(0.952**2 * 1.112, rel=1e-12)
    assert h_dtp_lie(0.1, 0.4) == pytest.approx(1.00781, abs=1e-5)


def test_ptd_lie_surface_values():
    assert h_ptd_lie(1.0, 1.0 / 3.0) == pytest.approx(500.0 / 729.0, rel=1e-13)
    surf = h_ptd_lie(_Y_GRID, 1.0 / 3.0)
    assert float(surf.max()) == pytest.approx(1.0, abs=1e-12)
    assert float(surf[0]) == 1.0  # the maximum sits at Y = 0


@settings(deadline=None, max_examples=150)
@given(_Y, _NU, _SIGN)
def test_lie_surfaces_match_factor_products(y, nu, sign):
    p1, p2_dtp, p2_ptd, p3_ptd = amp_p1_p2_p3(AmpQuery(y, nu, sign))
    mu = abs(nu)
    scale = max(1.0, abs(p1) ** 4 * abs(p2_dtp) ** 2)
    assert h_dtp_lie(y, mu) == pytest.approx(abs(p1) ** 4 * abs(p2_dtp) ** 2, abs=1e-12 * scale)
    ptd = abs(p1) ** 2 * (p2_ptd * p3_ptd).real ** 2
    assert h_ptd_lie(y, mu) == pytest.approx(ptd, abs=1e-12 * max(1.0, ptd))


@pytest.mark.parametrize("name", BOUNDARY_SUITE)
def test_surfaces_match_mode_multiplier(name):
    """Every registry surface is |mode_multiplier|^2 at nu = mu, z >= 0, and
    both place the implicit poles at the same Y (mu = 1/4 and 1/2 put the
    backward Euler pole x = 1 on the grid)."""
    info = parse_scheme_name(name)
    for mu in (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.866, 1.0, 2.0):
        surface = info.surface(Y_GRID, mu)
        for y, h in zip(Y_GRID, surface):
            try:
                g = mode_multiplier(info.spec, AmpQuery(float(y), mu, 1.0))
            except PoleError:
                assert not np.isfinite(h), (mu, y, h)
                continue
            want = abs(g) ** 2
            assert abs(h - want) <= 1e-13 * max(abs(h), want), (mu, y, h, want)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.0, max_value=1.0 / 3.0, allow_nan=False))
def test_lie_surfaces_monotone_below_threshold(mu):
    y = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    for surf in (h_dtp_lie, h_ptd_lie):
        vals = surf(y, mu)
        assert (np.diff(vals) <= 1e-12).all()
        assert vals[0] == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1.0 / 3.0 + 1e-3, max_value=1.0, allow_nan=False))
def test_lie_surfaces_unstable_above_threshold(mu):
    assert float(h_dtp_lie(_Y_GRID, mu).max()) > 1.0
    assert float(h_ptd_lie(_Y_GRID, mu).max()) > 1.0


def test_strang_surfaces_onset():
    assert float(h_dtp_strang_rk2(_Y_GRID, 0.86).max()) <= 1.0 + 1e-12
    assert float(h_dtp_strang_rk2(_Y_GRID, 0.88).max()) > 1.0
    assert float(h_ptd_strang_rk2(_Y_GRID, 1.99).max()) <= 1.0 + 1e-12
    assert float(h_ptd_strang_rk2(_Y_GRID, 2.1).max()) > 1.0


def test_strang_surfaces_equal_one_at_y_zero():
    assert float(h_dtp_strang_rk2(np.array([0.0]), 0.7)[0]) == pytest.approx(1.0, abs=1e-14)
    assert float(h_ptd_strang_rk2(np.array([0.0]), 1.5)[0]) == pytest.approx(1.0, abs=1e-14)


def test_parabolic_theta_multiplier_values():
    # forward Euler flips sign at x = 2, backward Euler halves at x = 1
    assert g_parabolic(2.0, "full_theta", theta=0.0) == pytest.approx(-1.0)
    assert g_parabolic(1.0, "full_theta", theta=1.0) == pytest.approx(0.5)
    assert g_parabolic(1.0, "full_theta", theta=0.5) == pytest.approx(1.0 / 3.0)


def test_parabolic_backward_euler_split_pole():
    with pytest.raises(PoleError):
        g_parabolic(1.0, "dtp_lie_theta", theta=1.0)


def test_parabolic_split_neutral_points():
    # the split theta = 1 scheme returns to |G| = 1 at x = (sqrt5 - 1) / 2
    x_be = (np.sqrt(5.0) - 1.0) / 2.0
    assert abs(g_parabolic(x_be, "dtp_lie_theta", theta=1.0)) == pytest.approx(1.0, abs=1e-12)
    x_fe = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(g_parabolic(x_fe, "dtp_lie_theta", theta=0.0)) == pytest.approx(1.0, abs=1e-12)


def test_hybrid_multiplier_decays_like_inverse_x():
    assert g_parabolic(1e6, "hybrid") == pytest.approx(1e-6, rel=1e-5)
    assert g_parabolic(0.0, "hybrid") == 1.0
    for x in (0.1, 1.0, 7.5, 4e3):
        assert g_parabolic(x, "hybrid") == pytest.approx(1.0 / (1.0 + x), rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_strang_cn_telescopes_to_plain_cn(x):
    composite = g_parabolic(x, "strang_cn")
    plain = (1.0 - 0.5 * x) / (1.0 + 0.5 * x)
    assert composite == pytest.approx(plain, abs=1e-12)


@settings(deadline=None, max_examples=150)
@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_full_theta_stability_region(x, theta):
    g = g_parabolic(x, "full_theta", theta=theta)
    if x * (1.0 - 2.0 * theta) <= 2.0:
        assert abs(g) <= 1.0 + 1e-12
    else:
        assert abs(g) > 1.0


def test_boundary_bracket_invariants():
    info = parse_scheme_name("hyp-dtp-lie-fe")
    res = find_boundary(info.surface, info.mu_cap, 1e-4)
    assert res.lo <= res.critical_mu <= res.hi
    assert res.hi - res.lo <= 1e-4
    assert res.evaluations > 0
    assert res.critical_mu == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_boundary_unconditional_hits_cap():
    info = parse_scheme_name("par-strang-cn")
    res = find_boundary(info.surface, 1e6, 1e-4)
    assert res.critical_mu == "unconditional"
    assert res.lo == res.hi == 1e6


@pytest.mark.parametrize("mu_cap", [math.inf, math.nan, 0.0, -1.0])
def test_boundary_rejects_bad_cap(mu_cap):
    info = parse_scheme_name("hyp-dtp-lie-fe")
    with pytest.raises(ValueError, match="mu_cap must be finite and positive"):
        find_boundary(info.surface, mu_cap, 1e-4)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_boundary_rejects_bad_tol(tol):
    info = parse_scheme_name("hyp-dtp-lie-fe")
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        find_boundary(info.surface, info.mu_cap, tol)


def test_boundary_raises_when_bisection_cannot_reach_tol():
    # 60 halvings of 1e308 leave a bracket of ~8.7e289, far wider than tol
    info = parse_scheme_name("hyp-dtp-lie-fe")
    with pytest.raises(ValueError, match="still wider than tol"):
        find_boundary(info.surface, 1e308, 1e-5)


def test_boundary_largest_reachable_bracket_still_converges():
    # 2^60 * tol is exactly what 60 halvings bring down to tol
    info = parse_scheme_name("hyp-dtp-lie-fe")
    res = find_boundary(info.surface, 2.0**60 * 1e-6, 1e-6)
    assert res.hi - res.lo <= 1e-6
    assert res.critical_mu == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_contour_grid_shape_and_corner():
    info = parse_scheme_name("hyp-dtp-lie-fe")
    table = contour_grid(info.surface, 3, 3, 1.0)
    assert table.shape == (9, 3)
    y, mu, h = table[0]
    assert (y, mu) == (0.0, 0.0) and h == 1.0
    assert float(table[:, 0].max()) == pytest.approx(2.0)
    assert float(table[:, 1].max()) == pytest.approx(1.0)


def test_contour_grid_marks_poles_infinite():
    surf = h_parabolic_surface("dtp_lie_theta", 1.0)
    table = contour_grid(surf, 3, 3, 1.0)
    # x = 2 mu Y crosses the backward Euler pole x = 1 at (Y, mu) = (1, 1/2)
    hit = table[(table[:, 0] == 1.0) & (table[:, 1] == 0.5)]
    assert np.isinf(hit[0, 2])
    # On the 23 x 101 grid, (Y, mu) = (10/11, 0.55) lands on x = 1 only up to
    # roundoff; the pole rule still marks it.
    table = contour_grid(surf, 23, 101, 1.0)
    y, mu, h = table[10 * 101 + 55]
    assert y == pytest.approx(10.0 / 11.0) and mu == pytest.approx(0.55)
    assert 2.0 * y * mu != 1.0
    assert np.isinf(h)


_BAD_VARIANTS = [
    ("bogus", None),
    ("hybrid", 0.5),
    ("strang_cn", 0.5),
    ("full_theta", None),
    ("dtp_lie_theta", None),
    ("full_theta", -0.1),
    ("dtp_lie_theta", 1.5),
    ("dtp_lie_theta", math.nan),
]


@pytest.mark.parametrize("variant,theta", _BAD_VARIANTS)
def test_parabolic_variant_rejects_bad_theta_pairing(variant, theta):
    with pytest.raises(ValueError):
        g_parabolic(0.5, variant, theta)
    with pytest.raises(ValueError):
        h_parabolic_surface(variant, theta)
