"""Command-line interface.

Subcommands: ``analyze`` (contour CSV of one scheme's stability surface),
``boundary`` (threshold table), ``simulate`` (norm history of a configured
run), ``sweep`` (worst-mode runs across a range of cfl values), ``verify``
(stepper vs closed-form oracle report), ``figures`` (the four published
surface grids).

Exit codes: 0 success, 1 oracle bound exceeded, 2 bad arguments,
configuration or file, 3 a run failed numerically.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache

from .amplification import contour_grid
from .harness import (
    BOUNDARY_SUITE,
    ConfigError,
    ExperimentConfig,
    NumericalError,
    build_problem,
    emit_figure_grids,
    parse_config,
    parse_scheme_name,
    run_boundary_suite,
    run_simulation,
    stability_verdict,
    verify_report,
    write_boundary_csv,
    write_contour_csv,
    write_history_csv,
    _worst_mode,
)

_ORACLE_BOUND = 1e-10


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it as
    it was, so repeated ``main`` calls in one process share it."""
    parser = argparse.ArgumentParser(
        prog="psilab",
        description="Low-rank integrator stability laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="contour CSV of a stability surface")
    analyze.add_argument("--scheme", required=True, help="public scheme name")
    analyze.add_argument("--out", required=True, help="output CSV path")
    analyze.add_argument("--y-points", type=int, default=401)
    analyze.add_argument("--mu-points", type=int, default=401)
    analyze.add_argument("--mu-max", type=float, default=None,
                         help="default: the scheme's documented plot range")

    boundary = sub.add_parser("boundary", help="stability threshold table")
    boundary.add_argument("--scheme", default=None,
                          help="single scheme (default: the full suite)")
    boundary.add_argument("--tol", type=float, default=None,
                          help="bisection bracket width (default: per scheme)")
    boundary.add_argument("--mu-cap", type=float, default=None,
                          help="search cap (default: per scheme)")
    boundary.add_argument("--out", required=True, help="output CSV path")

    simulate = sub.add_parser("simulate", help="run a configured experiment")
    simulate.add_argument("--config", required=True, help="experiment config file")
    simulate.add_argument("--out", required=True, help="norm-history CSV path")

    sweep = sub.add_parser("sweep", help="worst-mode runs across the stability boundary")
    sweep.add_argument("--scheme", default="hyp-dtp-lie-fe")
    sweep.add_argument("--cfl", type=float, nargs="+", default=None,
                       help="explicit cfl values (default: around the documented threshold)")
    sweep.add_argument("--steps", type=int, default=1000)
    sweep.add_argument("--n-x", type=int, default=64)
    sweep.add_argument("--n-v", type=int, default=4)
    sweep.add_argument("--rank", type=int, default=None,
                       help="default: 2 for hyperbolic schemes, 1 for parabolic")

    verify = sub.add_parser("verify", help="stepper vs closed-form oracle check")
    verify.add_argument("--scheme", default=None,
                        help="single scheme (default: every family)")

    figures = sub.add_parser("figures", help="emit the four surface grids")
    figures.add_argument("--outdir", required=True)

    return parser


def _cmd_analyze(args) -> int:
    info = parse_scheme_name(args.scheme)
    mu_max = args.mu_max if args.mu_max is not None else info.contour_mu_max
    table = contour_grid(info.surface, args.y_points, args.mu_points, mu_max)
    write_contour_csv(args.out, table)
    print(f"{args.scheme}: {table.shape[0]} rows "
          f"({args.y_points} x {args.mu_points}, mu <= {mu_max:g}) -> {args.out}")
    return 0


def _cmd_boundary(args) -> int:
    names = [args.scheme] if args.scheme else list(BOUNDARY_SUITE)
    rows = run_boundary_suite(names, tol=args.tol, mu_cap=args.mu_cap)
    write_boundary_csv(args.out, rows)
    for row in rows:
        crit = row.result.critical_mu
        crit_text = crit if isinstance(crit, str) else f"{crit:.6f}"
        if row.passed is None:
            status = "(no documented threshold)"
        else:
            expect = row.reference
            expect_text = expect if isinstance(expect, str) else f"{expect:.6f}"
            status = f"expected {expect_text}: {'PASS' if row.passed else 'FAIL'}"
        print(f"{row.scheme:<22s} critical_mu = {crit_text:<14s} {status}")
    print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        cfg = parse_config(handle.read())
    records = run_simulation(cfg)
    write_history_csv(args.out, records)
    verdict = "stable" if stability_verdict(records) else "GROWING"
    print(
        f"{cfg.steps} steps: frobenius {records[0].frobenius:.6e} -> "
        f"{records[-1].frobenius:.6e} ({verdict}) -> {args.out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    """Final and peak norm ratios of the worst Fourier mode for each cfl,
    which bracket the closed-form threshold empirically."""
    info = parse_scheme_name(args.scheme)
    hyperbolic = info.spec.equation == "hyperbolic"
    cfls = args.cfl
    if cfls is None:
        ref = info.reference if isinstance(info.reference, float) else 1.0
        cfls = [round(ref + d, 4) for d in (-0.02, -0.01, 0.0, 0.01, 0.02)]
    rank = args.rank if args.rank is not None else (2 if hyperbolic else 1)

    # Every config is checked, then each cfl's worst mode found once and
    # handed to its run as eigenmode data (which checks the rank), before
    # anything is printed or marched.
    configs = [
        ExperimentConfig(
            scheme=info.spec,
            n_x=args.n_x, n_v=args.n_v, rank=rank, cfl=cfl, steps=args.steps,
            coefficient="linear" if hyperbolic else "square",
            initial_data="worst_mode",
        )
        for cfl in cfls
    ]
    scans = [_worst_mode(cfg.scheme, *build_problem(cfg)) for cfg in configs]
    configs = [replace(cfg, initial_data="eigenmode", mode_m=m, mode_k=k)
               for cfg, (m, k, _) in zip(configs, scans)]
    print(f"{args.scheme}: worst-mode sweep, {args.steps} steps, N_x = {args.n_x}")
    if all(growth == 1.0 for _, _, growth in scans):
        modes = ", ".join(sorted({f"({m}, {k})" for m, k, _ in scans}))
        print(f"  note: no mode grows at these cfl values; every run marches the "
              f"neutral mode {modes}, where |g| = 1")
    for cfg in configs:
        records = run_simulation(cfg)
        initial = records[0].frobenius
        final = records[-1].frobenius / initial
        peak = max(r.frobenius for r in records) / initial
        verdict = "stable" if stability_verdict(records) else "GROWING"
        print(f"  cfl = {cfg.cfl:<8g} final/initial = {final:<12.6g} "
              f"peak/initial = {peak:<12.6g} {verdict}")
    return 0


def _cmd_verify(args) -> int:
    names = (args.scheme,) if args.scheme else None
    lines, overall = verify_report(names)
    for line in lines:
        print(line)
    ok = overall <= _ORACLE_BOUND
    print(f"overall max discrepancy = {overall:.3e} "
          f"({'PASS' if ok else 'FAIL'}, bound {_ORACLE_BOUND:.0e})")
    return 0 if ok else 1


def _cmd_figures(args) -> int:
    for path in emit_figure_grids(args.outdir):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "boundary": _cmd_boundary,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
