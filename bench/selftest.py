#!/usr/bin/env python3
"""Show that each correctness check behind ``error_rate`` can fail.

    python3 bench/selftest.py

Feeds the checks a corrupted CSV row, a flipped stability verdict and a
final norm just past the 1e-8 bound, next to the untouched inputs, and
exits nonzero unless every corrupted input raises ``error_rate`` above 0
while the untouched ones leave it at 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import psilab.harness as harness  # noqa: E402
from checks import NORM_RTOL, Checks, check_figure, check_run, load_reference  # noqa: E402


def _error_rate(feed) -> float:
    ledger = Checks()
    feed(ledger)
    return ledger.error_rate


def main() -> int:
    outdir = ROOT / ".bench_out" / "selftest"
    name, _, mu_max = harness.FIGURE_GRIDS[0]
    path = harness.emit_figure_grids(str(outdir))[0]
    reference = load_reference()["figures"][name]
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    # Row 1000 holds an interior h value; change its 7th significant digit.
    y, mu, h = lines[1000].rstrip("\n").split(",")
    lines[1000] = f"{y},{mu},{float(h) * (1.0 + 1e-6)!r}\n"
    corrupted = str(outdir / "corrupted.csv")
    with open(corrupted, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)

    ratio = 1.0259370893707005
    cases = [
        ("figure as written", False,
         lambda c: check_figure(c, name, path, mu_max, reference)),
        ("corrupted CSV row", True,
         lambda c: check_figure(c, name, corrupted, mu_max, reference)),
        ("run as measured", False,
         lambda c: check_run(c, "run", ratio, False, ratio, False)),
        ("flipped verdict", True,
         lambda c: check_run(c, "run", ratio, True, ratio, False)),
        ("final norm 3x past the bound", True,
         lambda c: check_run(c, "run", ratio * (1 + 3 * NORM_RTOL), False, ratio, False)),
        ("final norm within the bound", False,
         lambda c: check_run(c, "run", ratio * (1 + 0.3 * NORM_RTOL), False, ratio, False)),
        ("non-finite final norm", True,
         lambda c: check_run(c, "run", float("nan"), False, ratio, False)),
    ]
    ok = True
    for label, should_fail, feed in cases:
        rate = _error_rate(feed)
        good = (rate > 0) == should_fail
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label:<32s} error_rate = {rate:.3g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
