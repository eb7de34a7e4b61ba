"""Experiment harness: config grammar, runs, suites, CSV and CLI contracts."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import psilab
import psilab.cli as cli
import psilab.harness as harness
from psilab.cli import main as cli_main
from psilab.harness import (
    BOUNDARY_SUITE,
    FIGURE_GRIDS,
    VERIFY_SCHEMES,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    RunRecord,
    build_problem,
    derive_dt,
    build_vdisc,
    emit_figure_grids,
    expected_mode_multiplier,
    initial_state,
    measured_mode_multipliers,
    mode_probe_rank,
    parabolic_mode_equivalence,
    parse_config,
    parse_scheme_name,
    run_boundary_suite,
    run_oracle_suite,
    run_simulation,
    serialize_config,
    stability_verdict,
    verify_report,
    write_boundary_csv,
    write_contour_csv,
    write_history_csv,
)
from psilab.amplification import ContourGrid, contour_grid
from psilab.discretize import build_xgrid
from psilab.harness import _CSV_BLOCK_ROWS, _worst_mode

_MINIMAL = """
equation = hyperbolic
approach = dtp
splitting = lie
substep = forward_euler
N_x = 16
N_v = 4
rank = 2
cfl = 0.25
steps = 10
"""


def test_parse_minimal_document_fills_defaults():
    cfg = parse_config(_MINIMAL)
    assert cfg.n_x == 16 and cfg.n_v == 4 and cfg.rank == 2
    assert cfg.cfl == 0.25 and cfg.steps == 10
    assert cfg.coefficient == "linear"
    assert cfg.v_mode == "nodal"
    assert cfg.seed == 0
    assert cfg.initial_data == "random_rank_r"
    assert cfg.mode_m is None and cfg.mode_k is None


def test_parse_rejects_oversized_rank_by_name():
    with pytest.raises(ConfigError, match="rank"):
        parse_config(_MINIMAL.replace("rank = 2", "rank = 99"))


def test_parse_comments_and_blank_lines():
    doc = _MINIMAL.replace("cfl = 0.25", "cfl = 0.25  # trailing comment")
    cfg = parse_config("# leading comment\n\n" + doc)
    assert cfg.cfl == 0.25


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a key value pair")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("equation = hyperbolic\nbogus = 3")
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("equation = hyperbolic\nequation = parabolic")
    with pytest.raises(ConfigError, match="line 1.*empty value"):
        parse_config("equation =")


def test_parse_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("equation = hyperbolic\napproach = dtp")


def test_parse_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="'N_x'"):
        parse_config(_MINIMAL.replace("N_x = 16", "N_x = sixteen"))
    with pytest.raises(ConfigError, match="'cfl'"):
        parse_config(_MINIMAL.replace("cfl = 0.25", "cfl = fast"))


@pytest.mark.parametrize("cfl", ["inf", "-inf", "nan", "-0.5"])
def test_parse_rejects_nonfinite_or_negative_cfl(cfl):
    with pytest.raises(ConfigError, match="cfl must be finite and nonnegative"):
        parse_config(_MINIMAL.replace("cfl = 0.25", f"cfl = {cfl}"))


def test_eigenmode_requires_indices():
    doc = _MINIMAL + "initial_data = eigenmode\n"
    with pytest.raises(ConfigError, match="mode_m"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="mode_m"):
        parse_config(_MINIMAL + "mode_m = 1\nmode_k = 0\n")  # no eigenmode selected


@pytest.mark.parametrize(
    "extra",
    [
        "",
        "theta = 0.5\n",
        "initial_data = eigenmode\nmode_m = 3\nmode_k = 1\n",
        "coefficient = const:0.7\nv_mode = modal\nseed = 42\n",
    ],
)
def test_config_round_trip(extra):
    base = _MINIMAL
    if "theta" in extra:
        base = (
            base.replace("hyperbolic", "parabolic").replace("forward_euler", "theta")
        )
    cfg = parse_config(base + extra)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_config_bytes():
    # Keys come out in grammar order whatever the document order; floats
    # as repr.
    doc = (
        "mode_k = 1\nmode_m = 3\ninitial_data = eigenmode\nseed = 42\nsteps = 7\n"
        "cfl = 0.1\nv_mode = modal\ncoefficient = const:0.7\nrank = 2\nN_v = 5\n"
        "N_x = 12\ntheta = 0.3\nsubstep = theta\nsplitting = lie\napproach = ptd\n"
        "equation = parabolic\n"
    )
    assert serialize_config(parse_config(doc)) == (
        "equation = parabolic\napproach = ptd\nsplitting = lie\nsubstep = theta\n"
        "theta = 0.3\nN_x = 12\nN_v = 5\nrank = 2\ncoefficient = const:0.7\n"
        "v_mode = modal\ncfl = 0.1\nsteps = 7\nseed = 42\ninitial_data = eigenmode\n"
        "mode_m = 3\nmode_k = 1\n"
    )


def test_zero_steps_gives_single_record():
    cfg = parse_config(_MINIMAL.replace("steps = 10", "steps = 0"))
    records = run_simulation(cfg)
    assert len(records) == 1
    assert records[0].step == 0
    assert records[0].frobenius > 0.0


def test_record_steps_strictly_increasing():
    records = run_simulation(parse_config(_MINIMAL))
    assert [r.step for r in records] == list(range(11))
    assert all(r.frobenius >= 0.0 for r in records)


def test_histories_are_bit_identical(tmp_path):
    cfg = parse_config(_MINIMAL + "seed = 3\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_history_csv(str(a), run_simulation(cfg))
    write_history_csv(str(b), run_simulation(cfg))
    assert a.read_bytes() == b.read_bytes()


def test_history_csv_format(tmp_path):
    path = tmp_path / "h.csv"
    records = run_simulation(parse_config(_MINIMAL))
    write_history_csv(str(path), records)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "step,frobenius,ortho_residual"
    assert len(lines) == len(records) + 1
    # 17 significant digits: values survive a parse round trip exactly
    for line, rec in zip(lines[1:], records):
        step, frob, ortho = line.split(",")
        assert int(step) == rec.step
        assert float(frob) == rec.frobenius
        assert float(ortho) == rec.ortho_residual


@pytest.mark.parametrize("cfl", [0.31, 0.40])
def test_verdicts_are_seed_independent(cfl):
    # margin >= 0.02 on both sides of the 1/3 threshold
    verdicts = set()
    for seed in range(5):
        cfg = ExperimentConfig(
            scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
            n_x=32, n_v=4, rank=3, cfl=cfl, steps=500, seed=seed,
        )
        verdicts.add(stability_verdict(run_simulation(cfg)))
    assert len(verdicts) == 1


def test_random_run_below_threshold_is_stable():
    cfg = ExperimentConfig(
        scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
        n_x=64, n_v=4, rank=3, cfl=1.0 / 3.0, steps=1000,
    )
    records = run_simulation(cfg)
    assert records[-1].frobenius <= records[0].frobenius * (1.0 + 1e-10)


def test_worst_mode_run_above_threshold_grows_tenfold():
    cfg = ExperimentConfig(
        scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
        n_x=64, n_v=4, rank=3, cfl=0.5, steps=1000, initial_data="worst_mode",
    )
    records = run_simulation(cfg)
    assert records[-1].frobenius >= 10.0 * records[0].frobenius


def test_mode_probe_rank_classification():
    assert mode_probe_rank("hyperbolic", 0, 64) == 1
    assert mode_probe_rank("hyperbolic", 32, 64) == 1
    assert mode_probe_rank("hyperbolic", 5, 64) == 2
    assert mode_probe_rank("parabolic", 5, 64) == 1


def test_mode_probe_rejects_rank_below_minimum():
    with pytest.raises(ConfigError, match="rank must be >= 2"):
        ExperimentConfig(
            scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
            n_x=16, n_v=4, rank=1, cfl=0.3, steps=1,
            initial_data="eigenmode", mode_m=3, mode_k=0,
        )


def test_full_tensor_rotating_mode_needs_a_shadow_eigendirection():
    # A full_tensor probe of a rotating hyperbolic mode takes rank 2 whatever
    # cfg.rank says; its shadow column needs a second eigendirection.
    spec = parse_scheme_name("hyp-full-fe").spec
    message = r"rotating quadrature pair; its shadow eigendirection needs N_v >= 2"
    with pytest.raises(ConfigError, match=r"\(m, k\) = \(3, 0\) is a " + message):
        ExperimentConfig(scheme=spec, n_x=16, n_v=1, rank=1, cfl=1.2, steps=3,
                         coefficient="const:1", initial_data="eigenmode", mode_m=3, mode_k=0)
    # The worst mode of an odd grid at this cfl is the rotating m = 7.
    cfg = ExperimentConfig(scheme=spec, n_x=15, n_v=1, rank=1, cfl=1.2, steps=3,
                           coefficient="const:1", initial_data="worst_mode")
    with pytest.raises(ConfigError, match=r"\(m, k\) = \(7, 0\) is a " + message):
        run_simulation(cfg)
    # A self-conjugate mode closes at rank 1 on one eigendirection.
    flat = replace(cfg, initial_data="eigenmode", mode_m=0, mode_k=0)
    assert [r.frobenius for r in run_simulation(flat)] == pytest.approx([1.0] * 4)


def test_mode_probe_padding_keeps_frames_orthonormal():
    cfg = ExperimentConfig(
        scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
        n_x=16, n_v=4, rank=4, cfl=0.3, steps=1,
        initial_data="eigenmode", mode_m=3, mode_k=0,
    )
    vdisc, grid, dt = build_problem(cfg)
    state = initial_state(cfg, vdisc, grid, dt)
    np.testing.assert_allclose(state.X.T @ state.X, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(state.V.T @ state.V, np.eye(4), atol=1e-13)
    # pads carry negligible energy: the probe is still essentially unit norm
    norm = np.linalg.norm(state.X @ state.S @ state.V.T)
    assert norm == pytest.approx(1.0, abs=1e-11)


def test_worst_mode_below_threshold_is_exactly_flat():
    # the argmax multiplier below threshold is the m = 0 mode with G = 1
    cfg = ExperimentConfig(
        scheme=parse_scheme_name("hyp-dtp-lie-fe").spec,
        n_x=32, n_v=4, rank=1, cfl=0.30, steps=50, initial_data="worst_mode",
    )
    records = run_simulation(cfg)
    norms = {r.frobenius for r in records}
    assert max(norms) / min(norms) - 1.0 < 1e-12


def _worst_mode_by_policy(spec, vdisc, grid, dt):
    """Reference pick: a Python loop over the lattice's |G| in (m, k) order,
    NaN read as -1 and a pole as inf; the first mode within the tie window
    of the largest wins. (m, k, |g|)."""
    lattice = np.abs(harness._multiplier_lattice(spec, vdisc, grid, dt)).tolist()
    growth = [[-1.0 if math.isnan(g) else g for g in row] for row in lattice]
    top = max(max(row) for row in growth)
    window = harness._TIE_WINDOW * top if math.isfinite(top) else 0.0
    for m, row in enumerate(growth):
        for k, g in enumerate(row):
            if g >= top or top - g <= window:
                return m, k, g


def _assert_scan_follows_policy(name, n_x, coefficient, n_v, cfl):
    spec = parse_scheme_name(name).spec
    vdisc = build_vdisc(coefficient, "nodal", n_v)
    grid = build_xgrid(n_x, 2.0 * np.pi / n_x)
    dt = derive_dt(spec.equation, cfl, n_x, vdisc, strict=False)
    assert _worst_mode(spec, vdisc, grid, dt) == _worst_mode_by_policy(
        spec, vdisc, grid, dt
    )


@pytest.mark.parametrize("name", VERIFY_SCHEMES)
def test_worst_mode_scan_follows_the_tie_policy(name):
    # cfl 0.34 puts the Lie schemes above threshold, where modes m and
    # N_x - m tie in exact arithmetic; par cfl 0.25 hits the theta = 1 pole.
    hyper = name.startswith("hyp")
    for n_x in (16, 64, 256, 1024):
        _assert_scan_follows_policy(
            name, n_x, "linear" if hyper else "square", 4, 0.34 if hyper else 0.25
        )


@pytest.mark.parametrize(
    "name,n_x,coefficient,cfl",
    [
        ("hyp-dtp-lie-fe", 64, "linear", 0.3),
        ("hyp-dtp-lie-fe", 64, "linear", 0.34),
        ("hyp-ptd-strang-rk2", 64, "linear", 1.9),
        ("hyp-dtp-lie-fe", 1024, "linear", 0.3),
        ("hyp-ptd-lie-fe", 1024, "linear", 0.3),
        ("hyp-dtp-lie-fe", 1024, "linear", 0.34),
        ("par-dtp-lie-theta1", 256, "square", 0.2),
        ("par-strang-cn", 256, "square", 5.0),
        ("par-full-theta0.5", 256, "square", 0.2),
    ],
)
def test_worst_mode_scan_follows_the_tie_policy_on_march_configs(name, n_x, coefficient, cfl):
    _assert_scan_follows_policy(name, n_x, coefficient, 16, cfl)


@pytest.mark.parametrize(
    "name,n_x,n_v,coefficient,cfl,want",
    [
        # Modes 1 and 15 tie in exact arithmetic; the first in order wins.
        ("hyp-dtp-lie-fe", 16, 4, "linear", 0.3633, (1, 0)),
        # Every |g| is 1 in exact arithmetic; the constant mode comes first.
        ("hyp-full-fe", 1024, 16, "linear", 1.0, (0, 0)),
        # The worst-mode configs of the benchmark marches.
        ("hyp-dtp-lie-fe", 64, 16, "linear", 0.34, (1, 0)),
        ("hyp-ptd-strang-rk2", 64, 16, "linear", 1.9, (0, 0)),
        ("hyp-ptd-lie-fe", 1024, 16, "linear", 0.3, (0, 0)),
        ("par-strang-cn", 256, 16, "square", 5.0, (0, 0)),
    ],
)
def test_worst_mode_picks_the_first_mode_in_the_tie_window(name, n_x, n_v, coefficient,
                                                            cfl, want):
    spec = parse_scheme_name(name).spec
    cfg = ExperimentConfig(scheme=spec, n_x=n_x, n_v=n_v, rank=1, cfl=cfl, steps=1,
                           coefficient=coefficient)
    vdisc, grid, dt = build_problem(cfg)
    m, k, growth = _worst_mode(spec, vdisc, grid, dt)
    assert (m, k) == want
    assert growth == abs(expected_mode_multiplier(spec, m, k, vdisc, grid, dt))
    if want == (0, 0):
        assert growth == 1.0


def test_expected_mode_multiplier_rejects_indices_outside_the_lattice():
    """A lattice index out of range raises; a negative m would otherwise
    wrap to mode N_x + m."""
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    vdisc = build_vdisc("linear", "nodal", 4)
    grid = build_xgrid(16, 2.0 * np.pi / 16)
    for m in (-1, 16):
        with pytest.raises(ValueError, match=rf"m={m} outside \[0, 16\)"):
            expected_mode_multiplier(spec, m, 0, vdisc, grid, 0.1)
    for k in (-1, 4):
        with pytest.raises(ValueError, match=rf"k={k} outside \[0, 4\)"):
            expected_mode_multiplier(spec, 0, k, vdisc, grid, 0.1)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_parabolic_mode_equivalence_is_the_measured_gap_bitwise(theta):
    """The equivalence gap read off two oracle suites is max |g_dtp - g_ptd|
    of the stacked probes over every (m, k), bit for bit."""
    vdisc = build_vdisc("linear", "nodal", 4)
    grid = build_xgrid(16, 2.0 * np.pi / 16)
    dt = derive_dt("parabolic", 0.2, 16, vdisc, strict=False)
    ms, ks = np.divmod(np.arange(64), 4)
    g_dtp, g_ptd = (
        measured_mode_multipliers(parse_scheme_name(f"par-{approach}-lie-theta{theta}").spec,
                                  ms, ks, vdisc, grid, dt)
        for approach in ("dtp", "ptd")
    )
    want = float(np.abs(g_dtp - g_ptd).max())
    assert np.float64(parabolic_mode_equivalence(theta)).tobytes() == np.float64(want).tobytes()


def test_derive_dt_formulas():
    vdisc = build_vdisc("linear", "nodal", 4)
    lam = float(np.abs(vdisc.spectrum.eigenvalues).max())
    dx = 2.0 * np.pi / 16
    assert derive_dt("hyperbolic", 0.4, 16, vdisc) == pytest.approx(0.4 * dx / lam)
    assert derive_dt("parabolic", 0.4, 16, build_vdisc("square", "nodal", 4)) == (
        pytest.approx(0.4 * dx * dx / lam**2)
    )


def test_oracle_suite_zero_cfl_is_exactly_unit():
    for name in ("hyp-dtp-lie-fe", "hyp-ptd-strang-rk2", "par-hybrid"):
        measured, expected = run_oracle_suite(name, n_x=8, n_v=2, cfl=0.0)
        assert measured.shape == expected.shape == (8, 2)
        assert (measured == 1.0).all() and (expected == 1.0).all()


@pytest.mark.parametrize("v_mode", ["nodal", "modal"])
@pytest.mark.parametrize("name", ["hyp-ptd-strang-rk2", "par-dtp-lie-theta0.5"])
def test_oracle_rows_expect_the_scalar_closed_form_bitwise(name, v_mode):
    """The oracle's expected lattice is the multiplier lattice, and its entry
    (m, k) is expected_mode_multiplier of (m, k), bit for bit; the measured
    lattice holds the stacked probes' multipliers in the same (m, k) layout."""
    spec = parse_scheme_name(name).spec
    vdisc = build_vdisc("linear", v_mode, 4)
    grid = build_xgrid(16, 2.0 * np.pi / 16)
    cfl = 0.3 if spec.equation == "hyperbolic" else 0.2
    dt = derive_dt(spec.equation, cfl, 16, vdisc, strict=False)
    measured, expected = run_oracle_suite(name, v_mode=v_mode)
    assert measured.shape == expected.shape == (16, 4)
    assert measured.dtype == expected.dtype == np.complex128
    ms, ks = np.divmod(np.arange(64), 4)
    stacked = measured_mode_multipliers(spec, ms, ks, vdisc, grid, dt)
    assert measured.tobytes() == stacked.tobytes()
    lattice = harness._multiplier_lattice(spec, vdisc, grid, dt)
    assert expected.tobytes() == lattice.astype(np.complex128).tobytes()
    for m, k in zip(ms.tolist(), ks.tolist()):
        want = expected_mode_multiplier(spec, m, k, vdisc, grid, dt)
        assert np.complex128(expected[m, k]).tobytes() == np.complex128(want).tobytes()


def test_boundary_suite_thresholds_match_simulations():
    """The closed-form threshold and the time stepper must tell one story:
    just below the boundary the worst-mode run never grows, just above it
    the run-wide maximum leaves the initial norm behind."""
    rows = run_boundary_suite(BOUNDARY_SUITE)
    for row in rows:
        crit = row.result.critical_mu
        hyper = row.scheme.startswith("hyp")
        coeff = "linear" if hyper else "square"
        probes = []
        if isinstance(crit, str):  # unconditional: probe far beyond any cap
            probes.append((5.0, True))
        else:
            probes.append((crit - 0.01, True))
            probes.append((crit + 0.01, False))
        for cfl, expect_stable in probes:
            cfg = ExperimentConfig(
                scheme=parse_scheme_name(row.scheme).spec,
                n_x=64, n_v=4, rank=2 if hyper else 1, cfl=cfl, steps=1000,
                coefficient=coeff, initial_data="worst_mode",
            )
            records = run_simulation(cfg)
            peak = max(r.frobenius for r in records)
            grew = peak > records[0].frobenius * (1.0 + 1e-8)
            assert grew != expect_stable, (
                f"{row.scheme} at cfl {cfl}: peak ratio {peak / records[0].frobenius}"
            )


def test_boundary_csv_format(tmp_path):
    rows = run_boundary_suite(["hyp-full-fe", "par-strang-cn"])
    path = tmp_path / "b.csv"
    write_boundary_csv(str(path), rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scheme,critical_mu,worst_Y,lo,hi"
    assert lines[1].startswith("hyp-full-fe,")
    assert float(lines[1].split(",")[1]) == rows[0].result.critical_mu
    assert lines[2].split(",")[1] == "unconditional"


def test_contour_csv_pole_sentinel(tmp_path):
    grid = contour_grid(parse_scheme_name("par-dtp-lie-theta1").surface, 3, 3, 1.0)
    path = tmp_path / "c.csv"
    write_contour_csv(str(path), grid)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "Y,mu,h"
    assert "1,0.5,inf" in lines


def _reference_contour_csv(path, grid):
    """The per-value writer that ``write_contour_csv`` must match byte for
    byte; it walks the lattice's rows, Y-major."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("Y,mu,h\n")
        for y, h_row in zip(grid.ys, grid.h):
            for mu, h in zip(grid.mus, h_row):
                y_text, mu_text, h_text = (format(float(value), ".17g") for value in (y, mu, h))
                handle.write(f"{y_text},{mu_text},{h_text}\n")


def _grid(ys, mus, h):
    return ContourGrid(np.array(ys, dtype=float), np.array(mus, dtype=float),
                       np.array(h, dtype=float))


_CSV_SPECIALS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.5e-310,
    2.2250738585072014e-308, 1.0, 0.1, -1.0 / 3.0, 1e300,
)
_CSV_VALUES = st.one_of(
    st.sampled_from(_CSV_SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    # The writer's fixed-notation window, which the full range seldom hits.
    st.floats(min_value=1e-4, max_value=1e16),
)
# Axis values lean on values that compare equal or unequal to themselves
# while printing differently: 0.0 == -0.0, nan != nan.
_CSV_POOL_VALUES = st.one_of(st.sampled_from((0.0, -0.0, math.nan, -math.nan)), _CSV_VALUES)


@st.composite
def _contour_grids(draw):
    """Lattices of up to 7 x 7 points with Y and mu from ``_CSV_POOL_VALUES``
    and any double for h."""
    ys = draw(st.lists(_CSV_POOL_VALUES, min_size=1, max_size=7))
    mus = draw(st.lists(_CSV_POOL_VALUES, min_size=1, max_size=7))
    size = len(ys) * len(mus)
    h = draw(st.lists(_CSV_VALUES, min_size=size, max_size=size))
    return _grid(ys, mus, np.reshape(h, (len(ys), len(mus))))


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grid=_contour_grids())
@example(grid=_grid([0.0, -0.0], [1.0], [[2.0], [2.0]]))
@example(grid=_grid([0.0, 1.0], [0.0, -0.0], [[2.0, 2.0], [2.0, 2.0]]))
def test_contour_csv_matches_per_value_formatting(tmp_path, grid):
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_contour_csv_kernel_edge_values(tmp_path):
    # No double in the window [1e-4, 1e16) rounds up to the next power of
    # ten at 17 digits: the doubles nearest the powers inside lie above them.
    assert all(Fraction(float(f"1e{k}")) >= Fraction(10) ** k for k in range(-4, 17))
    powers = [float(f"1e{k}") for k in range(-6, 18)]
    values = [
        *powers,
        *np.nextafter(powers, 0.0).tolist(),
        *np.nextafter(powers, math.inf).tolist(),
        # Ties at the 18th digit, rounded half to even.
        1234567890123456.25, 1234567890123456.75, 123456789012345.625, 123456789012345.875,
        # Doubles below a power of ten that round up to it at 17 digits.
        1e-14, 1e-70, 1e98,
        # The fixed-notation window's edges.
        1e-4, 1e16, np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0),
        0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
        0.1, 0.5, 1.0 / 3.0, 2.5, 9999999999999998.0,
    ]
    values += [-v for v in values]
    h = np.array(values + [1.0] * (-len(values) % 3)).reshape(-1, 3)
    grid = _grid(h[:, 0], h[0], h)
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _figure_grid(scheme_name, mu_max):
    return contour_grid(parse_scheme_name(scheme_name).surface, 401, 401, mu_max)


def test_contour_csv_long_runs_match_per_value_formatting(tmp_path):
    # Y runs cut into several tiles, the second at -0.0, the third with
    # specials in h.
    rng = np.random.default_rng(0)
    h = rng.random((3, 2 * _CSV_BLOCK_ROWS + 5))
    h[2, :3] = (math.nan, math.inf, 0.0)
    grid = _grid([0.5, -0.0, 1.0], rng.random(h.shape[1]), h)
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _lattice(y_points, mu_points):
    """A y_points x mu_points lattice whose Y start at 0.25, -0.0, 0.0 and
    whose mu hold values outside the digit kernel's window, with random h
    and some inf and nan."""
    rng = np.random.default_rng(y_points * mu_points)
    ys = rng.random(y_points) * 2.0
    ys[:3] = (0.25, -0.0, 0.0)[:y_points]
    mus = rng.random(mu_points) * 2.5
    mus[:4] = (0.0, -1.5, 1e-7, 3e20)[:mu_points]
    h = rng.random((y_points, mu_points)) * 3.0
    h.flat[::97] = math.inf
    h.flat[1::89] = math.nan
    return ContourGrid(ys, mus, h)


@pytest.mark.parametrize("y_points,mu_points", [
    *(pytest.param(3, n, id=f"runs-of-{n}") for n in (401, 2047, 2048, 2049)),
    pytest.param(23, 89, id="rows-2047"),
    pytest.param(32, 64, id="rows-2048"),
    pytest.param(683, 3, id="rows-2049"),
    pytest.param(7, 3000, id="7x3000"),
    pytest.param(3000, 2, id="3000x2"),
])
def test_contour_csv_lattices_across_block_seams(tmp_path, y_points, mu_points):
    # Y runs of 2047-2049 rows, and lattices of 2047-2049 rows, end next to
    # a tile's row bound; long and short Y runs cross many tile seams.
    grid = _lattice(y_points, mu_points)
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("y_points,mu_points", [(2, 5000), (5000, 2)])
def test_contour_csv_long_axes_match_per_value_formatting(tmp_path, y_points, mu_points):
    # A mu axis longer than a tile is cut into tiles within each Y run, and a
    # long Y axis spans many tiles: specials sit next to the tile seams.
    rng = np.random.default_rng(1)
    ys, mus = rng.random(y_points) * 2.0, rng.random(mu_points) * 2.5
    long_axis = ys if y_points > mu_points else mus
    long_axis[[0, 1023, 1024, 2047, 2048, 4095, -1]] = (
        -0.0, math.nan, 1e-300, 0.0, math.inf, -math.nan, 3e20)
    grid = ContourGrid(ys, mus, rng.random((y_points, mu_points)))
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("filename,scheme_name,mu_max", FIGURE_GRIDS)
def test_figure_csv_matches_per_value_formatting(tmp_path, filename, scheme_name, mu_max):
    grid = _figure_grid(scheme_name, mu_max)
    write_contour_csv(str(tmp_path / "block.csv"), grid)
    _reference_contour_csv(str(tmp_path / "reference.csv"), grid)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("shape", [
    pytest.param("figure", id="figure"),
    pytest.param((100, 2000), id="long-run"),
    pytest.param((2, 100_000), id="long-mu"),
    pytest.param((100_000, 2), id="long-y"),
    pytest.param((1, 200_000), id="one-y"),
])
def test_contour_csv_writes_without_holding_the_file(tmp_path, shape):
    # A 401 x 401 figure file is about 8 MB of text; the writer holds one
    # tile of at most _CSV_BLOCK_ROWS rows of it at a time, and of a long
    # axis only the tile's stretch of it.
    if shape == "figure":
        _, scheme_name, mu_max = FIGURE_GRIDS[0]
        grid = _figure_grid(scheme_name, mu_max)
    else:
        rng = np.random.default_rng(0)
        grid = ContourGrid(rng.random(shape[0]), rng.random(shape[1]), rng.random(shape))
    assert _traced_peak(write_contour_csv, str(tmp_path / "fig.csv"), grid) < 1_000_000


def _traced_peak(call, *args):
    """Peak bytes tracemalloc sees during call(*args), above what was
    allocated before it; the result counts while it is alive."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.mark.parametrize("y_points,mu_points", [(401, 401), (157, 401), (401, 157)])
def test_contour_grid_allocates_only_its_table(y_points, mu_points):
    # h is built in place, one mu column sweep at a time: no second
    # grid-sized array (a table of rows, repeated Y, tiled mu) exists beside it.
    surface = parse_scheme_name("hyp-ptd-strang-rk2").surface
    nbytes = 8 * y_points * mu_points
    assert _traced_peak(contour_grid, surface, y_points, mu_points, 2.5) <= nbytes + 256 * 1024


def test_figure_grids_hold_one_table_at_a_time(tmp_path):
    # One 401 x 401 h array is 1.29 MB and the writer holds about 0.6 MB;
    # holding the previous figure's grid while the next is built, or a
    # (Y, mu, h) table of 3.86 MB, reads above 3 MB.
    assert _traced_peak(emit_figure_grids, str(tmp_path)) < 3_000_000


@pytest.mark.parametrize("mu_max", [math.inf, math.nan, -1.0])
def test_contour_grid_rejects_mu_max(mu_max):
    with pytest.raises(ValueError, match="mu_max must be finite and positive"):
        contour_grid(parse_scheme_name("par-dtp-lie-theta1").surface, 3, 3, mu_max)


@pytest.mark.parametrize("mu_max", ["inf", "nan", "-1"])
def test_cli_analyze_bad_mu_max_exits_2(tmp_path, capsys, mu_max):
    out = tmp_path / "surface.csv"
    code = cli_main(["analyze", "--scheme", "hyp-dtp-lie-fe", "--out", str(out),
                     "--mu-max", mu_max, "--y-points", "3", "--mu-points", "3"])
    assert code == 2
    assert "mu_max must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_figure_grids(tmp_path):
    paths = emit_figure_grids(str(tmp_path))
    names = [os.path.basename(p) for p in paths]
    assert names == [
        "fig1_dtp_lie.csv",
        "fig2_dtp_strang.csv",
        "fig3_ptd_lie.csv",
        "fig4_ptd_strang.csv",
    ]
    mu_max = {"fig1_dtp_lie.csv": 1.0, "fig2_dtp_strang.csv": 1.2,
              "fig3_ptd_lie.csv": 1.0, "fig4_ptd_strang.csv": 2.5}
    for path in paths:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (401 * 401, 3)
        assert float(data[:, 1].max()) == pytest.approx(mu_max[os.path.basename(path)])
    fig1 = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    strip = fig1[fig1[:, 1] <= 1.0 / 3.0]
    assert float(strip[:, 2].max()) <= 1.0 + 1e-12
    fig4 = np.loadtxt(paths[3], delimiter=",", skiprows=1)
    strip = fig4[fig4[:, 1] <= 2.0]
    assert float(strip[:, 2].max()) <= 1.0 + 1e-12


def test_cli_analyze_defaults_write_the_figure_bytes(tmp_path):
    # analyze and figures reach the contour writer from two commands.
    filename, scheme_name, _ = FIGURE_GRIDS[0]
    assert (filename, scheme_name) == ("fig1_dtp_lie.csv", "hyp-dtp-lie-fe")
    out = tmp_path / "analyze.csv"
    assert cli_main(["analyze", "--scheme", scheme_name, "--out", str(out)]) == 0
    assert cli_main(["figures", "--outdir", str(tmp_path / "figs")]) == 0
    assert out.read_bytes() == (tmp_path / "figs" / filename).read_bytes()


def test_stability_verdict_slack():
    flat = [RunRecord(0, 1.0, 0.0, 0.0), RunRecord(1, 1.0 + 5e-9, 0.0, 0.1)]
    assert stability_verdict(flat)
    grown = [RunRecord(0, 1.0, 0.0, 0.0), RunRecord(1, 1.0 + 1e-6, 0.0, 0.1)]
    assert not stability_verdict(grown)


def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = cli_main(["analyze", "--scheme", "hyp-dtp-lie-fe", "--out", str(out),
                     "--y-points", "11", "--mu-points", "7"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "Y,mu,h"
    assert len(lines) == 1 + 11 * 7
    assert "rows" in capsys.readouterr().out


def test_cli_analyze_marks_near_pole_infinite(tmp_path):
    # x = 2 Y mu = 1 at (Y, mu) = (10/11, 0.55) in exact arithmetic only.
    out = tmp_path / "surface.csv"
    code = cli_main(["analyze", "--scheme", "par-dtp-lie-theta1", "--out", str(out),
                     "--y-points", "23", "--mu-points", "101"])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1 + 10 * 101 + 55] == "0.90909090909090917,0.55000000000000004,inf"


def test_cli_boundary(tmp_path, capsys):
    out = tmp_path / "thresholds.csv"
    code = cli_main(["boundary", "--scheme", "hyp-dtp-lie-fe", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("scheme,critical_mu")


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--mu-cap", "inf"], "error: mu_cap must be finite and positive, got inf"),
        (["--mu-cap", "nan"], "error: mu_cap must be finite and positive, got nan"),
        (["--tol", "inf"], "error: tol must be finite and positive, got inf"),
        (["--mu-cap", "1e308"], "error: bisection bracket [0, 8.67362e+289] is still wider"),
    ],
)
def test_cli_boundary_bad_search_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "thresholds.csv"
    code = cli_main(["boundary", "--scheme", "hyp-dtp-lie-fe", "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert captured.out == "" and not out.exists()


def test_boundary_suite_bisection_count():
    rows = run_boundary_suite()
    assert len(rows) == 13
    assert sum(row.result.evaluations for row in rows) == 235


def test_cli_simulate(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_MINIMAL, encoding="utf-8")
    out = tmp_path / "history.csv"
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert "stable" in capsys.readouterr().out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 12


def test_cli_verify_single_family(capsys):
    code = cli_main(["verify", "--scheme", "hyp-dtp-lie-fe"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_verify_names_first_worst_mode(monkeypatch):
    def fake_suite(name, v_mode):
        measured = np.array([[1e-15, 3e-15], [3e-15, 2e-15]], dtype=complex)
        return measured, np.zeros_like(measured)

    monkeypatch.setattr(harness, "run_oracle_suite", fake_suite)
    lines, overall = verify_report(("hyp-dtp-lie-fe",))
    assert overall == 3e-15
    assert [line.split("= ")[-1] for line in lines] == ["3.000e-15 at (0, 1)"] * 2


def test_verify_fails_on_a_nan_closed_form(monkeypatch, capsys):
    """A NaN on the expected side is the worst mode, inf, and fails verify:
    y > 1 first holds at m = 5 on the 16-point grid."""
    closed_form = harness.mode_multiplier

    def nan_above_one(spec, y, nu, z):
        return np.where(y > 1.0, np.nan, closed_form(spec, y, nu, z))

    monkeypatch.setattr(harness, "mode_multiplier", nan_above_one)
    lines, overall = verify_report(("hyp-dtp-lie-fe",))
    assert overall == math.inf
    assert [line.split("= ")[-1] for line in lines] == ["inf at (5, 0)"] * 2
    assert cli_main(["verify", "--scheme", "hyp-dtp-lie-fe"]) == 1
    assert "overall max discrepancy = inf (FAIL" in capsys.readouterr().out


def test_verify_fails_on_a_nan_step(monkeypatch, capsys):
    """A NaN on the measured side fails verify, even when every mode is NaN."""
    def nan_flux(stencils, coeff, upwind, dx):
        return lambda y: np.full_like(y, np.nan)

    monkeypatch.setattr(psilab.integrators, "_upwind_flux", nan_flux)
    assert cli_main(["verify", "--scheme", "hyp-full-fe"]) == 1
    assert "overall max discrepancy = inf (FAIL" in capsys.readouterr().out


def test_parabolic_mode_equivalence_reads_a_nan_as_inf(monkeypatch):
    stacked = harness.measured_mode_multipliers

    def nan_on_ptd(spec, *args):
        g = stacked(spec, *args)
        if spec.approach == "ptd":
            g[5] = np.nan
        return g

    monkeypatch.setattr(harness, "measured_mode_multipliers", nan_on_ptd)
    assert parabolic_mode_equivalence(0.5) == math.inf


def test_verify_builds_each_velocity_operator_once(monkeypatch):
    """verify's 32 suites share 2 velocity operators (nodal and modal), each
    built once and handed out read-only."""
    built = []

    def counting(builder):
        def wrapper(*args):
            built.append(builder.__name__)
            return builder(*args)
        return wrapper

    monkeypatch.setattr(harness, "build_nodal", counting(harness.build_nodal))
    monkeypatch.setattr(harness, "build_modal", counting(harness.build_modal))
    build_vdisc.cache_clear()
    try:
        verify_report()
        assert sorted(built) == ["build_modal", "build_nodal"]
    finally:
        build_vdisc.cache_clear()
    vdisc = build_vdisc("linear", "modal", 4)
    assert vdisc is build_vdisc("linear", "modal", 4)
    for arr in (vdisc.coeff, vdisc.coeff_abs, vdisc.spectrum.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def _python(code: str, tmp_path) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this psilab tree."""
    src = os.path.dirname(os.path.dirname(psilab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy(tmp_path):
    proc = _python(
        "import sys, psilab, psilab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify"], ["boundary", "--out", "b.csv"]])
def test_cli_runs_with_scipy_blocked(tmp_path, argv):
    proc = _python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from psilab.cli import main\n"
        f"sys.exit(main({argv!r}))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def test_cli_figures(tmp_path, capsys):
    code = cli_main(["figures", "--outdir", str(tmp_path / "figs")])
    assert code == 0
    assert len(list((tmp_path / "figs").glob("*.csv"))) == 4


def _cli_outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call."""
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_reuses_its_parser_across_calls(capsys):
    """One process calls main with a valid command, an invalid one, then the
    valid one again: each matches a call on a freshly built parser, and the
    parser is built once."""
    valid = ["verify", "--scheme", "hyp-full-fe"]
    invalid = ["sweep", "--steps", "many"]
    fresh = {}
    for argv in (valid, invalid):
        cli._build_parser.cache_clear()
        fresh[tuple(argv)] = _cli_outcome(argv, capsys)
    assert fresh[tuple(valid)][0] == 0 and fresh[tuple(invalid)][0] == 2
    assert "invalid int value" in fresh[tuple(invalid)][2]
    cli._build_parser.cache_clear()
    for argv in (valid, invalid, valid):
        assert _cli_outcome(argv, capsys) == fresh[tuple(argv)]
    assert cli._build_parser.cache_info().misses == 1


def test_sweep_notes_a_neutral_worst_mode(capsys):
    """par-hybrid never grows, so its worst-mode scan lands on the constant
    mode (0, 0) at every cfl; the sweep says so under its header. A sweep
    whose scan finds growth at some cfl prints no note."""
    assert cli_main(["sweep", "--scheme", "par-hybrid", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "par-hybrid: worst-mode sweep, 5 steps, N_x = 64"
    assert lines[1] == ("  note: no mode grows at these cfl values; every run marches "
                        "the neutral mode (0, 0), where |g| = 1")
    assert len(lines) == 7 and all(line.startswith("  cfl = ") for line in lines[2:])
    assert all(line.endswith(" stable neutral (0, 0)") for line in lines[2:])
    assert cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.startswith("  cfl = ") for line in lines[1:])


def test_sweep_marks_each_row_that_marches_a_neutral_mode(capsys):
    """Below threshold the worst mode is the neutral (0, 0), so a stable
    verdict there shows nothing; those rows name the mode, and the rows
    whose mode grows do not."""
    assert cli_main(["sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hyp-dtp-lie-fe: worst-mode sweep, 1000 steps, N_x = 64"
    rows = lines[1:]
    assert [row.split()[2] for row in rows] == ["0.3133", "0.3233", "0.3333", "0.3433",
                                                "0.3533"]
    assert [row.endswith(" stable neutral (0, 0)") for row in rows] == [True] * 3 + [False] * 2
    assert all("neutral" not in row and row.endswith(" GROWING") for row in rows[3:])


def test_worst_mode_is_the_mode_the_run_starts_from():
    for name, cfl, want in (("par-hybrid", 0.5, (0, 0)), ("hyp-dtp-lie-fe", 0.34, None)):
        spec = parse_scheme_name(name).spec
        hyper = spec.equation == "hyperbolic"
        cfg = ExperimentConfig(scheme=spec, n_x=32, n_v=4, rank=2 if hyper else 1, cfl=cfl,
                               steps=1, coefficient="linear" if hyper else "square",
                               initial_data="worst_mode")
        vdisc, grid, dt = build_problem(cfg)
        m, k, growth = _worst_mode(spec, vdisc, grid, dt)
        probe = initial_state(replace(cfg, initial_data="eigenmode", mode_m=m, mode_k=k),
                              vdisc, grid, dt)
        start = initial_state(cfg, vdisc, grid, dt)
        for a, b in ((start.X, probe.X), (start.S, probe.S), (start.V, probe.V)):
            assert np.array_equal(a, b)
        assert growth == abs(expected_mode_multiplier(spec, m, k, vdisc, grid, dt))
        if want is not None:
            assert (m, k) == want and growth == 1.0
        else:
            assert growth > 1.0


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert cli_main(["analyze", "--scheme", "no-such-scheme",
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert cli_main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "y.csv")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


_DIVERGING = """
equation = parabolic
approach = dtp
splitting = lie
substep = forward_euler
N_x = 64
N_v = 16
rank = 4
coefficient = square
cfl = 0.6
steps = 3000
initial_data = random_rank_r
"""

# The backward Euler variant lands on the core substep's pole at once.
_ON_POLE = (
    _DIVERGING.replace("forward_euler", "backward_euler")
    .replace("cfl = 0.6", "cfl = 0.25")
    .replace("random_rank_r", "worst_mode")
)
# At rank 1 the core system is a scalar, so its pole has no other pivot to
# be small against.
_ON_POLE_RANK_1 = _ON_POLE.replace("rank = 4", "rank = 1")


@pytest.mark.parametrize(
    "doc,failed_step", [(_DIVERGING, 192), (_ON_POLE, 1), (_ON_POLE_RANK_1, 1)]
)
def test_numerical_failure_carries_step(doc, failed_step):
    with pytest.raises(NumericalError, match=f"step {failed_step} failed") as info:
        run_simulation(parse_config(doc))
    assert info.value.step == failed_step


@pytest.mark.parametrize("doc,fails", [
    (_MINIMAL, False),
    (_ON_POLE, True),
    (_MINIMAL.replace("cfl = 0.25", "cfl = 1e308"), True),
])
def test_run_simulation_restores_the_floating_point_error_state(doc, fails):
    """The run raises on overflow inside its steps only: the caller's
    error state is back after a finished run and after a failed one."""
    with np.errstate(all="warn", under="ignore"):
        before = np.geterr()
        if fails:
            with pytest.raises(NumericalError):
                run_simulation(parse_config(doc))
        else:
            run_simulation(parse_config(doc))
        assert np.geterr() == before


@pytest.mark.parametrize(
    "doc,failed_step", [(_DIVERGING, 192), (_ON_POLE, 1), (_ON_POLE_RANK_1, 1)]
)
def test_cli_simulate_numerical_failure_exits_3(tmp_path, capsys, doc, failed_step):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(doc, encoding="utf-8")
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "h.csv")])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: step {failed_step} failed")


def test_cli_infinite_cfl_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_MINIMAL.replace("cfl = 0.25", "cfl = inf"), encoding="utf-8")
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "h.csv")]) == 2
    assert cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--cfl", "inf",
                     "--steps", "5", "--n-x", "16"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cfl must be finite and nonnegative, got inf"] * 2


def test_cli_overflowing_finite_cfl_is_a_numerical_failure(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_MINIMAL.replace("cfl = 0.25", "cfl = 1e308"), encoding="utf-8")
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "h.csv")]) == 3
    assert cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--cfl", "1e308",
                     "--steps", "5", "--n-x", "16"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: step 1 failed") for line in err)


def test_cli_sweep_checks_every_cfl_before_marching(capsys):
    code = cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--cfl", "0.3", "nan",
                     "--steps", "300"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cfl =" not in captured.out
    assert captured.err == "error: cfl must be finite and nonnegative, got nan\n"


def test_cli_probe_rank_is_checked_before_any_output(tmp_path, capsys):
    """A sweep whose worst mode at some cfl rotates needs rank 2; at rank 1
    it fails before its header, and eigenmode data below the probe rank
    fails when simulate parses the config, with the same message."""
    message = ("error: mode data at (m, k) = (2, 0) is a rotating quadrature pair; "
               "rank must be >= 2\n")
    code = cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--rank", "1", "--steps", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_MINIMAL.replace("rank = 2", "rank = 1")
                        + "initial_data = eigenmode\nmode_m = 2\nmode_k = 0\n", encoding="utf-8")
    code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "h.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)
    assert not (tmp_path / "h.csv").exists()


def test_cli_sweep_rows(capsys):
    code = cli_main(["sweep", "--scheme", "hyp-dtp-lie-fe", "--cfl", "0.3", "0.4",
                     "--steps", "200", "--n-x", "32"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "hyp-dtp-lie-fe: worst-mode sweep, 200 steps, N_x = 32"
    assert len(lines) == 3
    assert lines[1].startswith("  cfl = 0.3 ") and lines[1].endswith(" stable neutral (0, 0)")
    assert lines[2].startswith("  cfl = 0.4 ") and lines[2].endswith(" GROWING")


def test_benchmark_tracer_names_bind_and_unbind(monkeypatch):
    """The benchmark's tracer (bench/tracing.py) wraps functions by attribute
    name in psilab.integrators, psilab.harness and psilab.cli. Every name it
    patches must exist, and uninstalling must put each original back."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import tracing

    modules = (psilab.integrators, harness, psilab.cli)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install(*modules)
        patched = [(module, attr) for module, attr, _ in tracer._patches]
        assert len(patched) == sum(len(table) for table in (
            tracing._INTEGRATORS_WRAPS, tracing._HARNESS_WRAPS, tracing._CLI_WRAPS))
        for module, attr in patched:
            assert getattr(module, attr) is not before[modules.index(module)][attr], attr
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        assert all(vars(module)[attr] is value for attr, value in names.items()), module


def test_traced_analyze_records_its_contour_and_rows(monkeypatch, tmp_path):
    """``analyze`` reaches the surface and the writer through the harness
    names that the benchmark's tracer wraps."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install(psilab.integrators, harness, psilab.cli)
    try:
        code = psilab.cli.main(["analyze", "--scheme", "hyp-dtp-lie-fe",
                                "--out", str(tmp_path / "a.csv"),
                                "--y-points", "7", "--mu-points", "5"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts[(0, "harness.csv.rows")] == 35
    assert any(span[0].startswith("amplification.contour:") for span in tracer.spans)
