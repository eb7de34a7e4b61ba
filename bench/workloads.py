"""The benchmark's workloads: what one unit of work is, and how it is checked.

Every workload is a closed loop with one caller: a unit of work runs to the
end before the next one starts. ``report`` runs the paper-reproduction CLI
subcommands in-process; each ``march-*`` workload runs a fixed list of
``run_simulation`` configs, handed to the program only as config text
through ``parse_config``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

import psilab.cli as cli
import psilab.harness as harness
from checks import (
    NORM_RTOL,
    Checks,
    check_figure,
    check_run,
    expected_stable,
    load_reference,
    reference_ratio,
    sha256_file,
)


@dataclass(frozen=True)
class March:
    """One run_simulation config of a march workload (N_v = 16, rank 4)."""

    scheme: str
    n_x: int
    coefficient: str
    initial_data: str
    cfl: float
    steps: int

    @property
    def label(self) -> str:
        return (f"{self.scheme}/{self.initial_data}/cfl{self.cfl:g}"
                f"/N_x{self.n_x}/steps{self.steps}")

    def config_text(self, seed: int) -> str:
        spec = harness.parse_scheme_name(self.scheme).spec
        lines = [
            f"equation = {spec.equation}",
            f"approach = {spec.approach}",
            f"splitting = {spec.splitting}",
            f"substep = {spec.substep}",
        ]
        if spec.theta is not None:
            lines.append(f"theta = {spec.theta!r}")
        lines += [
            f"N_x = {self.n_x}",
            "N_v = 16",
            "rank = 4",
            f"coefficient = {self.coefficient}",
            f"cfl = {self.cfl!r}",
            f"steps = {self.steps}",
            f"seed = {seed}",
            f"initial_data = {self.initial_data}",
        ]
        return "\n".join(lines) + "\n"


MARCHES: dict[str, tuple[March, ...]] = {
    # Pure-Python Householder QR dominates; no implicit solves. The PtD
    # Strang probe takes QR's rank-completion branch about once per step.
    "march-hyp-64": (
        March("hyp-dtp-lie-fe", 64, "linear", "random_rank_r", 0.3, 1000),
        March("hyp-dtp-lie-fe", 64, "linear", "worst_mode", 0.34, 1000),
        March("hyp-ptd-strang-rk2", 64, "linear", "worst_mode", 1.9, 1000),
    ),
    # Dense N_x x N_x stencil products dominate; set-up holds a 16384-mode
    # worst-mode scan and the dense XGrid build.
    "march-hyp-1024": (
        March("hyp-dtp-lie-fe", 1024, "linear", "random_rank_r", 0.3, 100),
        March("hyp-ptd-lie-fe", 1024, "linear", "worst_mode", 0.3, 100),
    ),
    # Dense LU per velocity eigencolumn dominates.
    "march-par-256": (
        March("par-dtp-lie-theta1", 256, "square", "random_rank_r", 0.2, 25),
        March("par-strang-cn", 256, "square", "worst_mode", 5.0, 25),
        March("par-full-theta0.5", 256, "square", "random_rank_r", 0.2, 25),
    ),
}

WORKLOADS = ("report",) + tuple(MARCHES)

#: The calibration kernel of ``speed.py`` each workload's time follows under
#: load: interpreter work and small numpy calls for the CLI commands and the
#: pure-Python QR, cached BLAS and memory streaming for the dense N_x x N_x
#: products and the N_x = 256 LU factorisations.
CALIBRATION = {
    "report": "interpreter",
    "march-hyp-64": "interpreter",
    "march-hyp-1024": "memory",
    "march-par-256": "memory",
}

#: Independent reference stepper for each random-data scheme: (kind, theta).
_REFERENCE_STEPPERS = {
    "hyp-dtp-lie-fe": ("hyp-dtp-lie", None),
    "par-dtp-lie-theta1": ("par-dtp-lie", 1.0),
    "par-full-theta0.5": ("par-full", 0.5),
}


@dataclass
class Unit:
    """Timings of one unit of work, piece by piece, plus what its checks need.

    A piece is one CLI command or one ``run_simulation`` call. Each piece
    has a ``wall`` time, and march pieces also their ``setup`` and ``span``
    times and step times. The caller's ``between`` runs after every piece
    and is timed by nobody: the runner measures the machine's speed there.
    """

    pieces: list[dict[str, float]]
    step_s: list[list[float]]
    outcome: list

    @property
    def wall(self) -> float:
        return sum(piece["wall"] for piece in self.pieces)

    def scaled(self, factors: list[float]) -> Unit:
        """The same unit with the times of piece i multiplied by ``factors[i]``."""
        return Unit([{k: v * f for k, v in piece.items()}
                     for piece, f in zip(self.pieces, factors)],
                    [[s * f for s in steps] for steps, f in zip(self.step_s, factors)],
                    self.outcome)


def _no_pause() -> None:
    pass


# ---------------------------------------------------------------------------
# report


class Report:
    """``psilab verify``, ``psilab boundary`` and ``psilab figures`` in-process."""

    def __init__(self, outdir: str):
        # The report has no random input, so it takes no seed.
        self.boundary_csv = os.path.join(outdir, "thresholds.csv")
        self.figure_dir = os.path.join(outdir, "figures")
        self.commands = (
            ("verify_s", ["verify"]),
            ("boundary_s", ["boundary", "--out", self.boundary_csv]),
            ("figures_s", ["figures", "--outdir", self.figure_dir]),
        )

    def unit(self, between=_no_pause) -> Unit:
        pieces, outcome = [], []
        for _, argv in self.commands:
            stdout = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = _run_cli(argv)
            pieces.append({"wall": perf_counter() - t0})
            between()
            outcome.append((argv[0], code, stdout.getvalue()))
        paths = {f: os.path.join(self.figure_dir, f) for f, _, _ in harness.FIGURE_GRIDS}
        outcome.append(("sha256", {f: sha256_file(p) if os.path.isfile(p) else None
                                   for f, p in paths.items()}))
        return Unit(pieces, [[] for _ in pieces], outcome)

    def check(self, checks: Checks, units: list[Unit]) -> dict:
        """Exit codes and boundary rows of every unit; the figure files of the
        last unit against the stored fingerprint, and every unit's files
        against the last unit's bytes."""
        reference = load_reference()["figures"]
        for index, unit in enumerate(units):
            for command, code, text in unit.outcome[:3]:
                checks.check(code == 0, f"unit {index}: psilab {command} exited {code}")
                if command == "boundary":
                    rows = [line for line in text.splitlines() if "expected" in line]
                    checks.check(len(rows) == len(harness.BOUNDARY_SUITE),
                                 f"unit {index}: {len(rows)} boundary rows")
                    for line in rows:
                        checks.check(line.endswith("PASS"), f"unit {index}: {line.strip()}")
        last = units[-1].outcome[3][1]
        for unit in units[:-1]:
            checks.check(unit.outcome[3][1] == last, "figure bytes differ between units")
        for filename, _, mu_max in harness.FIGURE_GRIDS:
            check_figure(checks, filename, os.path.join(self.figure_dir, filename),
                         mu_max, reference[filename])
        return {"figure_sha256": last,
                "figure_sha256_matches_stored": {
                    f: last[f] == reference[f]["sha256"] for f in last}}

    def summarize(self, units: list[Unit]) -> dict[str, tuple[float, int]]:
        out = {"wall_s": _median([u.wall for u in units])}
        out.update((name, _median([u.pieces[i]["wall"] for u in units]))
                   for i, (name, _) in enumerate(self.commands))
        return out


def _run_cli(argv: list[str]):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code
    except Exception as exc:  # the program failed; the check records it
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# march


class MarchWorkload:
    """A fixed list of run_simulation configs, stepped to the end each unit."""

    def __init__(self, name: str, seed: int):
        self.runs = MARCHES[name]
        self.configs = [harness.parse_config(run.config_text(seed)) for run in self.runs]

    def unit(self, between=_no_pause) -> Unit:
        pieces, step_s, outcome = [], [], []
        for cfg in self.configs:
            t0 = perf_counter()
            try:
                records = harness.run_simulation(cfg)
            except Exception as exc:  # the program failed; the check records it
                pieces.append({"wall": perf_counter() - t0})
                step_s.append([])
                outcome.append(f"{type(exc).__name__}: {exc}")
                between()
                continue
            total = perf_counter() - t0
            span = records[-1].wall - records[0].wall
            pieces.append({"wall": total, "setup": total - span, "span": span})
            step_s.append([b.wall - a.wall for a, b in zip(records, records[1:])])
            between()
            outcome.append((records[-1].frobenius / records[0].frobenius,
                            harness.stability_verdict(records)))
        return Unit(pieces, step_s, outcome)

    def references(self) -> list[tuple[float, bool]]:
        """Expected (final/initial norm, verdict) of each run."""
        stored = load_reference()["marches"]
        out = []
        for run, cfg in zip(self.runs, self.configs):
            info = harness.parse_scheme_name(run.scheme)
            if run.initial_data == "worst_mode":
                out.append((stored[run.label], expected_stable(run.cfl, info.reference)))
                continue
            kind, theta = _REFERENCE_STEPPERS[run.scheme]
            vdisc, grid, dt = harness.build_problem(cfg)
            state = harness.initial_state(cfg, vdisc, grid, dt)
            ratio = reference_ratio(kind, state.X, state.S, state.V, vdisc.coeff,
                                    vdisc.coeff_abs, grid.dx, dt, run.steps, theta)
            # Random data can hide a weak instability for many steps, so the
            # verdict comes from the reference run, not from mu*.
            out.append((ratio, ratio <= 1.0 + NORM_RTOL))
        return out

    def check(self, checks: Checks, units: list[Unit]) -> dict:
        want = self.references()
        for index, unit in enumerate(units):
            for run, got, (want_ratio, want_verdict) in zip(self.runs, unit.outcome, want):
                label = f"unit {index}: {run.label}"
                if not checks.check(not isinstance(got, str), f"{label}: {got}"):
                    continue
                check_run(checks, label, got[0], got[1], want_ratio, want_verdict)
        return {"final_norm_ratio": [list(o) if not isinstance(o, str) else o
                                     for o in units[-1].outcome],
                "reference_ratio": [list(w) for w in want]}

    def summarize(self, units: list[Unit]) -> dict[str, tuple[float, int]]:
        def total(kind: str) -> list[float]:
            return [sum(piece.get(kind, math.nan) for piece in u.pieces) for u in units]

        steps = sum(cfg.steps for cfg in self.configs)
        pooled = [s for u in units for steps_of_run in u.step_s for s in steps_of_run]
        return {
            "wall_s": _median([u.wall for u in units]),
            "assembly_s": _median(total("setup")),
            "steps_per_s": _median([steps / span for span in total("span")]),
            "step_ms_p50": (statistics.median(pooled) * 1e3 if pooled else math.nan,
                            len(pooled)),
        }


def _median(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def make(name: str, outdir: str, seed: int):
    if name == "report":
        return Report(outdir)
    return MarchWorkload(name, seed)
