"""Closed-form amplification surfaces, parabolic multipliers, boundaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psilab.amplification import (
    Y_GRID,
    ContourGrid,
    amp_p1_p2_p3,
    contour_grid,
    find_boundary,
    mode_multiplier,
    stability_surface,
)
from psilab.harness import FIGURE_GRIDS, VERIFY_SCHEMES, parse_scheme_name
from psilab.integrators import SchemeSpec
from reference_kernels import reference_contour_grid

_Y = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_NU = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_SIGN = st.sampled_from([1.0, -1.0])

_Y_GRID = np.concatenate([[0.0], np.geomspace(1e-8, 2.0, 4001)])

_FULL_FE = SchemeSpec("hyperbolic", "full_tensor")


def _theta(approach, theta):
    return SchemeSpec("parabolic", approach, "lie", "theta", theta)


def _z(y, sign=1.0):
    """The signed z = +-sqrt(y (2 - y)) of a mode at y."""
    return sign * math.sqrt(y * (2.0 - y))


def _diffusion(spec, x):
    """The diffusion multiplier at x = 2*Y*nu, read at Y = 1/2 and nu = x."""
    return mode_multiplier(spec, 0.5, x, _z(0.5))


def test_full_multiplier_is_one_at_y_zero():
    for nu in (-2.0, 0.0, 0.4, 1.0, 3.0):
        assert mode_multiplier(_FULL_FE, 0.0, nu, _z(0.0)) == 1.0


def test_full_multiplier_neutral_at_unit_cfl():
    # upwinding at |nu| = 1 shifts the grid exactly: |G| = 1 for every mode
    for y in np.linspace(0.0, 2.0, 21):
        for nu in (1.0, -1.0):
            g = mode_multiplier(_FULL_FE, y, nu, _z(y))
            assert abs(g) == pytest.approx(1.0, abs=1e-14)
    h_full = stability_surface(_FULL_FE)
    np.testing.assert_allclose(h_full(np.linspace(0, 2, 101), 1.0), 1.0, atol=1e-14)


def test_full_multiplier_vanishes_at_half_cfl_grid_mode():
    assert mode_multiplier(_FULL_FE, 2.0, 0.5, _z(2.0)) == 0.0


@settings(deadline=None, max_examples=150)
@given(_Y, _NU, _SIGN)
def test_substep_factor_algebra(y, nu, sign):
    p1, p2_dtp, p2_ptd, p3_ptd = amp_p1_p2_p3(y, nu, _z(y, sign))
    mu = abs(nu)
    z = sign * np.sqrt(y * (2.0 - y))
    assert p1 == pytest.approx((1.0 - mu * y) - 1j * nu * z, abs=1e-14)
    assert p2_dtp == pytest.approx(2.0 - p1, abs=1e-14)
    assert abs(p2_dtp) ** 2 == pytest.approx(1.0 + 2.0 * y * mu * (mu + 1.0), abs=1e-11)
    prod = p2_ptd * p3_ptd
    assert prod.imag == pytest.approx(0.0, abs=1e-12)
    assert prod.real == pytest.approx(1.0 + nu**2 * y * (2.0 - y), abs=1e-11)


def test_dtp_lie_surface_values():
    h_dtp = parse_scheme_name("hyp-dtp-lie-fe").surface
    assert h_dtp(2.0, 1.0 / 3.0) == pytest.approx(25.0 / 729.0, rel=1e-13)
    assert h_dtp(0.1, 0.4) == pytest.approx(0.952**2 * 1.112, rel=1e-12)
    assert h_dtp(0.1, 0.4) == pytest.approx(1.00781, abs=1e-5)


def test_ptd_lie_surface_values():
    h_ptd = parse_scheme_name("hyp-ptd-lie-fe").surface
    assert h_ptd(1.0, 1.0 / 3.0) == pytest.approx(500.0 / 729.0, rel=1e-13)
    surf = h_ptd(_Y_GRID, 1.0 / 3.0)
    assert float(surf.max()) == pytest.approx(1.0, abs=1e-12)
    assert float(surf[0]) == 1.0  # the maximum sits at Y = 0


@settings(deadline=None, max_examples=150)
@given(_Y, _NU, _SIGN)
def test_lie_surfaces_match_factor_products(y, nu, sign):
    p1, p2_dtp, p2_ptd, p3_ptd = amp_p1_p2_p3(y, nu, _z(y, sign))
    mu = abs(nu)
    scale = max(1.0, abs(p1) ** 4 * abs(p2_dtp) ** 2)
    h_dtp = parse_scheme_name("hyp-dtp-lie-fe").surface(y, mu)
    assert h_dtp == pytest.approx(abs(p1) ** 4 * abs(p2_dtp) ** 2, abs=1e-12 * scale)
    ptd = abs(p1) ** 2 * (p2_ptd * p3_ptd).real ** 2
    h_ptd = parse_scheme_name("hyp-ptd-lie-fe").surface(y, mu)
    assert h_ptd == pytest.approx(ptd, abs=1e-12 * max(1.0, ptd))


@pytest.mark.parametrize("name", VERIFY_SCHEMES)
def test_surfaces_match_mode_multiplier(name):
    """Every registry surface is |mode_multiplier|^2 at nu = mu, z >= 0, and
    both place the implicit poles at the same Y (mu = 1/4 and 1/2 put the
    backward Euler pole x = 1 on the grid): the surface is infinite where
    mode_multiplier, on floats, is inf and finite wherever it is finite."""
    info = parse_scheme_name(name)
    for mu in (0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.866, 1.0, 2.0):
        surface = info.surface(Y_GRID, mu)
        for y, h in zip(Y_GRID, surface):
            g = mode_multiplier(info.spec, float(y), mu, _z(float(y)))
            if g == np.inf:
                assert not np.isfinite(h), (mu, y, h)
                continue
            assert np.isfinite(h), (mu, y, h)
            want = abs(g) ** 2
            assert abs(h - want) <= 1e-13 * max(abs(h), want), (mu, y, h, want)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.0, max_value=1.0 / 3.0, allow_nan=False))
def test_lie_surfaces_monotone_below_threshold(mu):
    y = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    for name in ("hyp-dtp-lie-fe", "hyp-ptd-lie-fe"):
        vals = parse_scheme_name(name).surface(y, mu)
        assert (np.diff(vals) <= 1e-12).all()
        assert vals[0] == pytest.approx(1.0, abs=1e-14)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1.0 / 3.0 + 1e-3, max_value=1.0, allow_nan=False))
def test_lie_surfaces_unstable_above_threshold(mu):
    assert float(parse_scheme_name("hyp-dtp-lie-fe").surface(_Y_GRID, mu).max()) > 1.0
    assert float(parse_scheme_name("hyp-ptd-lie-fe").surface(_Y_GRID, mu).max()) > 1.0


def test_strang_surfaces_onset():
    h_dtp = parse_scheme_name("hyp-dtp-strang-rk2").surface
    h_ptd = parse_scheme_name("hyp-ptd-strang-rk2").surface
    assert float(h_dtp(_Y_GRID, 0.86).max()) <= 1.0 + 1e-12
    assert float(h_dtp(_Y_GRID, 0.88).max()) > 1.0
    assert float(h_ptd(_Y_GRID, 1.99).max()) <= 1.0 + 1e-12
    assert float(h_ptd(_Y_GRID, 2.1).max()) > 1.0


def test_strang_surfaces_equal_one_at_y_zero():
    h_dtp = parse_scheme_name("hyp-dtp-strang-rk2").surface
    h_ptd = parse_scheme_name("hyp-ptd-strang-rk2").surface
    assert float(h_dtp(np.array([0.0]), 0.7)[0]) == pytest.approx(1.0, abs=1e-14)
    assert float(h_ptd(np.array([0.0]), 1.5)[0]) == pytest.approx(1.0, abs=1e-14)


def test_parabolic_theta_multiplier_values():
    # forward Euler flips sign at x = 2, backward Euler halves at x = 1
    assert _diffusion(_theta("full_tensor", 0.0), 2.0) == pytest.approx(-1.0)
    assert _diffusion(_theta("full_tensor", 1.0), 1.0) == pytest.approx(0.5)
    assert _diffusion(_theta("full_tensor", 0.5), 1.0) == pytest.approx(1.0 / 3.0)


def test_parabolic_backward_euler_split_pole():
    assert _diffusion(_theta("dtp", 1.0), 1.0) == np.inf


def test_parabolic_split_neutral_points():
    # the split theta = 1 scheme returns to |G| = 1 at x = (sqrt5 - 1) / 2
    x_be = (np.sqrt(5.0) - 1.0) / 2.0
    assert abs(_diffusion(_theta("dtp", 1.0), x_be)) == pytest.approx(1.0, abs=1e-12)
    x_fe = (1.0 + np.sqrt(5.0)) / 2.0
    assert abs(_diffusion(_theta("dtp", 0.0), x_fe)) == pytest.approx(1.0, abs=1e-12)


def test_hybrid_multiplier_decays_like_inverse_x():
    hybrid = parse_scheme_name("par-hybrid").spec
    assert _diffusion(hybrid, 1e6) == pytest.approx(1e-6, rel=1e-5)
    assert _diffusion(hybrid, 0.0) == 1.0
    for x in (0.1, 1.0, 7.5, 4e3):
        assert _diffusion(hybrid, x) == pytest.approx(1.0 / (1.0 + x), rel=1e-12)


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_strang_cn_telescopes_to_plain_cn(x):
    composite = _diffusion(parse_scheme_name("par-strang-cn").spec, x)
    plain = (1.0 - 0.5 * x) / (1.0 + 0.5 * x)
    assert composite == pytest.approx(plain, abs=1e-12)


@settings(deadline=None, max_examples=150)
@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_full_theta_stability_region(x, theta):
    g = _diffusion(_theta("full_tensor", theta), x)
    if x * (1.0 - 2.0 * theta) <= 2.0:
        assert abs(g) <= 1.0 + 1e-12
    else:
        assert abs(g) > 1.0


def test_y_grid_is_sorted_and_distinct():
    """4241 distinct points in [0, 2], bit for bit the deduplicated union of
    the 4001-point uniform grid and the 241-point geometric tail, whose 1e-2
    endpoint the uniform grid also holds."""
    assert Y_GRID.shape == (4241,)
    assert (np.diff(Y_GRID) > 0.0).all()
    assert (Y_GRID[0], Y_GRID[1], Y_GRID[-1]) == (0.0, 1e-9, 2.0)
    union = np.unique(np.concatenate([np.linspace(0.0, 2.0, 4001),
                                      np.geomspace(1e-9, 1e-2, 241)]))
    assert Y_GRID.tobytes() == union.tobytes()


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


@pytest.mark.parametrize("name,mu_cap,tol", [
    ("hyp-dtp-lie-fe", 4.0, 1e-5),  # bisected
    ("par-hybrid", 1e6, 1e-7),  # unconditional
])
def test_boundary_sweeps_the_surface_once_per_evaluation(name, mu_cap, tol):
    """find_boundary calls the surface exactly ``evaluations`` times, and its
    worst Y is the argmax of a fresh NaN-as-inf sweep at the unstable edge
    (``hi``, the cap on an unconditional row), bit for bit."""
    surface = parse_scheme_name(name).surface
    calls = []

    def counted(ys, mu):
        calls.append(mu)
        return surface(ys, mu)

    res = find_boundary(counted, mu_cap, tol)
    assert len(calls) == res.evaluations
    h = np.asarray(surface(Y_GRID, res.hi), dtype=float)
    h[np.isnan(h)] = np.inf
    want = Y_GRID[int(np.argmax(h))]
    assert np.float64(res.worst_y).tobytes() == want.tobytes()
    assert (res.critical_mu == "unconditional") == (res.hi == mu_cap)


def test_contour_grid_shape_and_corner():
    info = parse_scheme_name("hyp-dtp-lie-fe")
    grid = contour_grid(info.surface, 3, 3, 1.0)
    assert grid.h.shape == (3, 3) and len(grid) == 9
    y, mu, h = grid.ys[0], grid.mus[0], grid.h[0, 0]
    assert (y, mu) == (0.0, 0.0) and h == 1.0
    assert float(grid.ys.max()) == pytest.approx(2.0)
    assert float(grid.mus.max()) == pytest.approx(1.0)


def test_contour_grid_marks_poles_infinite():
    surf = parse_scheme_name("par-dtp-lie-theta1").surface
    grid = contour_grid(surf, 3, 3, 1.0)
    # x = 2 mu Y crosses the backward Euler pole x = 1 at (Y, mu) = (1, 1/2)
    hit = grid.h[grid.ys == 1.0][:, grid.mus == 0.5]
    assert np.isinf(hit[0, 0])
    # On the 23 x 101 grid, (Y, mu) = (10/11, 0.55) lands on x = 1 only up to
    # roundoff; the pole rule still marks it.
    grid = contour_grid(surf, 23, 101, 1.0)
    y, mu, h = grid.ys[10], grid.mus[55], grid.h[10, 55]
    assert y == pytest.approx(10.0 / 11.0) and mu == pytest.approx(0.55)
    assert 2.0 * y * mu != 1.0
    assert np.isinf(h)


_CONTOUR_CASES = [
    (name, mu_max, y_points, mu_points)
    for _, name, mu_max in FIGURE_GRIDS
    for y_points, mu_points in [(2, 2), (3, 3), (401, 7), (7, 401),
                                # whole figures, where one broadcast over the
                                # lattice moves fig3's bits; a mu axis of two
                                # tiles; a Y axis of many
                                (401, 401), (3, 3000), (3000, 2)]
] + [("par-dtp-lie-theta1", 1.0, 23, 101)]  # rows through the inf poles


@pytest.mark.parametrize("name,mu_max,y_points,mu_points", _CONTOUR_CASES)
def test_contour_grid_bitwise_matches_the_repeat_tile_table(name, mu_max, y_points,
                                                            mu_points):
    surface = parse_scheme_name(name).surface
    grid = contour_grid(surface, y_points, mu_points, mu_max)
    assert grid.h.shape == (y_points, mu_points)
    assert grid.h.dtype == np.float64
    assert grid.h.flags.c_contiguous and grid.h.flags.writeable
    got = np.column_stack([np.repeat(grid.ys, mu_points), np.tile(grid.mus, y_points),
                           grid.h.reshape(-1)])
    want = reference_contour_grid(surface, y_points, mu_points, mu_max)
    assert got.shape == want.shape == (y_points * mu_points, 3) == (len(grid), 3)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ys,mus,h", [
    pytest.param([0.0, 1.0], [0.0, 1.0], np.ones((2, 3)), id="wide-h"),
    pytest.param([0.0, 1.0], [0.0, 1.0], np.ones((3, 2)), id="tall-h"),
    pytest.param([], [], np.ones((0, 0)), id="empty-axes"),
    pytest.param([[0.0, 1.0]], [0.0, 1.0], np.ones((1, 2)), id="2-d-ys"),
])
def test_contour_grid_rejects_a_bad_lattice(ys, mus, h):
    with pytest.raises(ValueError, match="lattice needs|the axes need"):
        ContourGrid(np.array(ys, dtype=float), np.array(mus, dtype=float), h)


@pytest.mark.parametrize("y_points,mu_points", [(1, 5), (5, 1)])
def test_contour_grid_rejects_a_single_point_axis(y_points, mu_points):
    surface = parse_scheme_name("hyp-dtp-lie-fe").surface
    with pytest.raises(ValueError, match="^need at least two points per axis$"):
        contour_grid(surface, y_points, mu_points, 1.0)


def test_contour_grid_compares_and_hashes_by_identity():
    grid = contour_grid(parse_scheme_name("hyp-dtp-lie-fe").surface, 3, 3, 1.0)
    twin = contour_grid(parse_scheme_name("hyp-dtp-lie-fe").surface, 3, 3, 1.0)
    assert grid == grid and grid != twin
    assert len({grid, twin, grid}) == 2
