#!/usr/bin/env python3
"""Regenerate ``reference.json``, the stored references the checks compare to.

    python3 bench/make_reference.py

Writes the figure grids with ``psilab figures`` and keeps, per file, its
sha256 (information only) and the per-Y-row fingerprint rounded to 12
significant digits. Runs every ``worst_mode`` march config once and keeps its
final/initial norm ratio, printed next to the closed form |g_max|^steps it
should track. Run it only when a change to the program is meant to change
these outputs, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import psilab.harness as harness  # noqa: E402
from checks import REFERENCE_PATH, grid_fingerprint, read_grid_csv, sha256_file  # noqa: E402
from workloads import MARCHES  # noqa: E402


def main() -> int:
    outdir = ROOT / ".bench_out" / "reference" / "figures"
    figures = {}
    for path in harness.emit_figure_grids(str(outdir)):
        _, table = read_grid_csv(path)
        figures[os.path.basename(path)] = {
            "sha256": sha256_file(path),
            "fingerprint": [float(f"{x:.11e}") for x in grid_fingerprint(table)],
        }
    marches = {}
    for runs in MARCHES.values():
        for run in runs:
            if run.initial_data != "worst_mode":
                continue
            cfg = harness.parse_config(run.config_text(seed=0))
            records = harness.run_simulation(cfg)
            ratio = records[-1].frobenius / records[0].frobenius
            vdisc, grid, dt = harness.build_problem(cfg)
            growth = max(
                abs(harness.expected_mode_multiplier(cfg.scheme, m, k, vdisc, grid, dt))
                for m in range(grid.n_x) for k in range(vdisc.size)
            )
            print(f"{run.label}: final/initial {ratio!r}, |g_max|^steps {growth**run.steps!r}")
            marches[run.label] = ratio
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"figures": figures, "marches": marches}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
