"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and enforces the documented runtime budget on this machine.
"""

import time

import numpy as np

from psilab.amplification import mode_multiplier
from psilab.harness import (
    ExperimentConfig,
    parabolic_mode_equivalence,
    parse_scheme_name,
    run_boundary_suite,
    run_simulation,
    verify_report,
)
from psilab.integrators import init_lowrank, reconstruct, step
from psilab.linalg import frobenius_norm, qr_thin, sym_eig
from psilab.harness import build_vdisc
from psilab.discretize import build_xgrid


def _report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.2f} s)")


def _threshold(scheme: str):
    start = time.perf_counter()
    row = run_boundary_suite([scheme])[0]
    return row.result.critical_mu, time.perf_counter() - start


def test_criterion_1_full_hyperbolic_threshold():
    crit, elapsed = _threshold("hyp-full-fe")
    ok = abs(crit - 1.0) <= 1e-4 and elapsed < 1.0
    _report("criterion 1", ok, f"hyp-full-fe critical mu = {crit:.6f} (want 1.000 +- 1e-4)", elapsed)
    assert abs(crit - 1.0) <= 1e-4
    assert elapsed < 1.0


def test_criterion_2_lie_thresholds():
    for scheme in ("hyp-dtp-lie-fe", "hyp-ptd-lie-fe"):
        crit, elapsed = _threshold(scheme)
        ok = abs(crit - 1.0 / 3.0) <= 1e-4 and elapsed < 1.0
        _report("criterion 2", ok, f"{scheme} critical mu = {crit:.6f} (want 0.33333 +- 1e-4)", elapsed)
        assert abs(crit - 1.0 / 3.0) <= 1e-4
        assert elapsed < 1.0


def test_criterion_3_strang_enlargement():
    for scheme, want, tol in (
        ("hyp-dtp-strang-rk2", 0.866, 0.01),
        ("hyp-ptd-strang-rk2", 2.00, 0.01),
    ):
        crit, elapsed = _threshold(scheme)
        ok = abs(crit - want) <= tol and elapsed < 5.0
        _report("criterion 3", ok, f"{scheme} critical mu = {crit:.6f} (want {want} +- {tol})", elapsed)
        assert abs(crit - want) <= tol
        assert elapsed < 5.0


def test_criterion_4_parabolic_thresholds():
    start = time.perf_counter()
    targets = {
        "par-full-theta0": 0.5,
        "par-dtp-lie-theta1": (np.sqrt(5.0) - 1.0) / 8.0,
        "par-dtp-lie-theta0": (1.0 + np.sqrt(5.0)) / 8.0,
    }
    unconditional = ("par-dtp-lie-theta0.5", "par-hybrid", "par-strang-cn")
    rows = run_boundary_suite(list(targets) + list(unconditional))
    elapsed = time.perf_counter() - start
    details = []
    ok = elapsed < 5.0
    for row in rows:
        crit = row.result.critical_mu
        if row.scheme in targets:
            good = abs(crit - targets[row.scheme]) <= 1e-6
            details.append(f"{row.scheme} = {crit:.8f}")
        else:
            good = crit == "unconditional" and row.result.hi >= 1e6
            details.append(f"{row.scheme} = {crit}")
        ok = ok and good
    _report("criterion 4", ok, "; ".join(details), elapsed)
    for row in rows:
        if row.scheme in targets:
            assert abs(row.result.critical_mu - targets[row.scheme]) <= 1e-6, row.scheme
        else:
            assert row.result.critical_mu == "unconditional", row.scheme
            assert row.result.hi >= 1e6
    assert elapsed < 5.0


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    lines, overall = verify_report()  # every family, nodal and modal velocity
    elapsed = time.perf_counter() - start
    ok = overall <= 1e-10 and elapsed < 30.0
    _report(
        "criterion 5", ok,
        f"max |measured - closed form| = {overall:.3e} over {len(lines)} family/basis rows",
        elapsed,
    )
    assert overall <= 1e-10
    assert elapsed < 30.0


def test_criterion_6_formulation_equivalence():
    start = time.perf_counter()
    gaps = {theta: parabolic_mode_equivalence(theta, n_x=16, n_v=4) for theta in (0.0, 0.5, 1.0)}
    elapsed = time.perf_counter() - start
    ok = max(gaps.values()) <= 1e-12 and elapsed < 10.0
    detail = ", ".join(f"theta={t:g}: {g:.2e}" for t, g in gaps.items())
    _report("criterion 6", ok, f"DtP vs PtD per-mode gap {detail}", elapsed)
    assert max(gaps.values()) <= 1e-12
    assert elapsed < 10.0


def _simulate(scheme: str, cfl: float, rank: int, coefficient: str):
    cfg = ExperimentConfig(
        scheme=parse_scheme_name(scheme).spec,
        n_x=64, n_v=4, rank=rank, cfl=cfl, steps=1000,
        coefficient=coefficient, initial_data="worst_mode",
    )
    start = time.perf_counter()
    records = run_simulation(cfg)
    return records, time.perf_counter() - start


def test_criterion_7_empirical_bracketing():
    # hyperbolic pair around 1/3
    records, elapsed = _simulate("hyp-dtp-lie-fe", 0.33, 1, "linear")
    ratio = records[-1].frobenius / records[0].frobenius
    ok = ratio <= 1.0 + 1e-8 and elapsed < 10.0
    _report("criterion 7", ok, f"hyp-dtp-lie-fe nu=0.33 final/initial = {ratio:.12f}", elapsed)
    assert ratio <= 1.0 + 1e-8 and elapsed < 10.0

    records, elapsed = _simulate("hyp-dtp-lie-fe", 0.40, 2, "linear")
    ratio = records[-1].frobenius / records[0].frobenius
    ok = ratio >= 10.0 and elapsed < 10.0
    _report("criterion 7", ok, f"hyp-dtp-lie-fe nu=0.40 growth = {ratio:.2f}x (want >= 10x)", elapsed)
    assert ratio >= 10.0 and elapsed < 10.0

    # parabolic backward Euler pair around (sqrt5 - 1)/8
    records, elapsed = _simulate("par-dtp-lie-theta1", 0.15, 1, "square")
    ratio = records[-1].frobenius / records[0].frobenius
    ok = ratio <= 1.0 + 1e-8 and elapsed < 10.0
    _report("criterion 7", ok, f"par-dtp-lie-theta1 nu=0.15 final/initial = {ratio:.12f}", elapsed)
    assert ratio <= 1.0 + 1e-8 and elapsed < 10.0

    records, elapsed = _simulate("par-dtp-lie-theta1", 0.17, 1, "square")
    ratio = records[-1].frobenius / records[0].frobenius
    ok = ratio > 1.0 + 1e-8 and elapsed < 10.0
    _report("criterion 7", ok, f"par-dtp-lie-theta1 nu=0.17 growth = {ratio:.2f}x (want growing)", elapsed)
    assert ratio > 1.0 + 1e-8 and elapsed < 10.0


def test_criterion_8_property_suites():
    start = time.perf_counter()

    # dense kernel residuals
    rng = np.random.default_rng(17)
    for shape in ((8, 3), (6, 6), (12, 5)):
        mat = rng.standard_normal(shape)
        q, r = qr_thin(mat)
        assert np.abs(q.T @ q - np.eye(shape[1])).max() < 1e-12
        assert np.abs(q @ r - mat).max() < 1e-12
        assert np.abs(np.tril(r, -1)).max() == 0.0
    sym = rng.standard_normal((7, 7))
    sym = sym + sym.T
    dec = sym_eig(sym)
    assert np.abs(sym @ dec.eigenvectors - dec.eigenvectors @ np.diag(dec.eigenvalues)).max() < 1e-10

    # factor orthonormality across 1000 PSI steps
    spec = parse_scheme_name("hyp-dtp-lie-fe").spec
    vdisc = build_vdisc("linear", "nodal", 4)
    grid = build_xgrid(32)
    dt = 0.3 * grid.dx / float(np.abs(vdisc.spectrum.eigenvalues).max())
    state = init_lowrank(rng.standard_normal((32, 4)), 3)
    worst_ortho = 0.0
    for _ in range(1000):
        state = step(spec, state, vdisc, grid, dt).state_after
        worst_ortho = max(worst_ortho, state.ortho_residual)
    assert worst_ortho <= 1e-10

    # mode algebra for every mode of several grids
    for n_x in (3, 4, 8, 16, 64, 128):
        modes = build_xgrid(n_x)
        for y, z in zip(modes.y, modes.z):
            assert abs(z**2 - y * (2.0 - y)) <= 1e-12

    # Strang Crank-Nicolson composite telescopes to plain Crank-Nicolson
    # (the multiplier at x = 2*Y*nu, read at Y = 1/2 and nu = x)
    xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.geomspace(50.0, 1e6, 200)])
    strang_cn = parse_scheme_name("par-strang-cn").spec
    worst_cn = max(
        abs(mode_multiplier(strang_cn, 0.5, float(x), np.sqrt(0.75))
            - (1.0 - 0.5 * x) / (1.0 + 0.5 * x))
        for x in xs
    )
    assert worst_cn <= 1e-12

    # monotone decay of both Lie surfaces in Y for mu <= 1/3, 1e-3 grids
    y = np.arange(0.0, 2.0 + 1e-3, 1e-3)
    h_dtp = parse_scheme_name("hyp-dtp-lie-fe").surface
    h_ptd = parse_scheme_name("hyp-ptd-lie-fe").surface
    for mu in np.arange(0.0, 1.0 / 3.0 + 1e-3, 1e-3):
        mu = min(float(mu), 1.0 / 3.0)
        assert (np.diff(h_dtp(y, mu)) <= 1e-12).all()
        assert (np.diff(h_ptd(y, mu)) <= 1e-12).all()

    elapsed = time.perf_counter() - start
    _report(
        "criterion 8", True,
        f"QR/eig residuals, 1000-step orthonormality {worst_ortho:.2e}, "
        f"Z^2 identity, Strang-CN telescoping {worst_cn:.2e}, Lie-surface monotonicity",
        elapsed,
    )
