#!/usr/bin/env python3
"""psilab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy, and the run fails (exit code 2,
no result line) when that source tree is missing. Each invocation is one
fresh process, so ``peak_rss_mb`` and the import part of ``setup_s`` belong
to the workload it runs.

``--trace 0`` times whole units of work and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and prints the per-layer
metrics of the traced ones (see ``tracing.py``). Both check every unit's
outputs (see ``checks.py``). Every unit, and every import timing, is
bracketed by a calibration of the machine's speed, and end-to-end times are
reported in seconds at the reference speed (see ``speed.py``); the raw
times go to ``result.json`` beside them. The last line of standard output
is the result as one JSON object; the full result, with provenance, is
written to ``.bench_out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the runs stay steady on a small shared box, and the
# thread count never exceeds nproc. Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import speed  # noqa: E402  (imports numpy, so after the BLAS setting)

#: Fresh-process imports timed per run; their median is the import part of setup_s.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import psilab; "
    "print(time.perf_counter() - t)"
)

#: Every end-to-end metric the benchmark prints, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "boundary_s": "s",
    "figures_s": "s",
    "steps_per_s": "steps/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
#: The ones every workload has; only these go into the result line, and
#: BENCHMARK.json bounds exactly these. The workload-specific ones above are
#: printed and written to result.json.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="psilab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Time ``import psilab`` in a fresh interpreter (one child at a time)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _imports(kernel: str) -> tuple[list[float], list[float]]:
    """Raw ``import psilab`` timings and the speed scale around each."""
    seconds, scales = [], []
    before = speed.sample(kernel)
    for _ in range(IMPORT_SAMPLES):
        seconds.append(_import_seconds())
        after = speed.sample(kernel)
        scales.append(speed.scale(before, after))
        before = after
    return seconds, scales


def _measure(workload, kernel: str, seconds: float, tracer=None):
    """Untimed warm-up unit, then whole units until the window is spent.

    A sample of the calibration ``kernel`` is taken before the first unit
    and after every piece of every unit; each piece gets the speed scale of the samples
    around it. With a tracer, units alternate untraced (even) and traced
    (odd), so the traced run also measures its own overhead.
    """
    warmup = workload.unit()
    units, scales, traced = [], [], []
    calibrations = [speed.sample(kernel)]

    def between():
        calibrations.append(speed.sample(kernel))

    min_units = 4 if tracer else 3
    start = perf_counter()
    while True:
        index = len(units)
        if tracer and index % 2:
            tracer.run_id = index
            tracer.install(*_modules())
            try:
                units.append(workload.unit(between))
            finally:
                tracer.uninstall()
            traced.append(index)
        else:
            units.append(workload.unit(between))
        around = calibrations[-len(units[-1].pieces) - 1:]
        scales.append([speed.scale(a, b) for a, b in zip(around, around[1:])])
        elapsed = perf_counter() - start
        # Stop when another unit would end well past the window.
        if len(units) >= min_units and elapsed + 0.5 * units[-1].wall >= seconds:
            return warmup, units, scales, traced


def _modules():
    import psilab.cli
    import psilab.harness
    import psilab.integrators

    return psilab.integrators, psilab.harness, psilab.cli


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_files": len(sources),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "psilab" / "__init__.py").is_file():
        print(f"error: no psilab source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import psilab

    if Path(psilab.__file__).resolve().parent != SRC / "psilab":
        print(f"error: imported psilab from {psilab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)

    kernel = workloads.CALIBRATION[args.workload]
    imports, import_scales = _imports(kernel)
    workload = workloads.make(args.workload, str(outdir), args.seed)
    tracer = tracing.Tracer() if args.trace else None
    warmup, units, scales, traced = _measure(workload, kernel, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ledger = checks.Checks()
    evidence = workload.check(ledger, [warmup] + units)

    samples: dict[str, tuple[float, int]] = {}
    raw: dict[str, tuple[float, int]] = {}
    scaled = [unit.scaled(factors) for unit, factors in zip(units, scales)]
    untraced = [u for i, u in enumerate(scaled) if i not in traced]
    if args.trace:
        layer = tracer.layer_metrics(traced)
        layer["trace.overhead_s"] = (
            statistics.median(scaled[i].wall for i in traced)
            - statistics.median(u.wall for u in untraced)
        )
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        samples["integrators.step.ms_p99"] = (layer["integrators.step.ms_p99"],
                                              layer["step_samples"])
        tracer.write(str(outdir / "spans.csv"))
    else:
        for into, runs, loads in (
            (samples, untraced, [t * f for t, f in zip(imports, import_scales)]),
            (raw, [u for i, u in enumerate(units) if i not in traced], imports),
        ):
            parts = workload.summarize(runs)
            assembly = parts["assembly_s"][0] if "assembly_s" in parts else 0.0
            into["setup_s"] = (statistics.median(loads) + assembly, len(loads))
            into.update((k, v) for k, v in parts.items() if k in END_TO_END_UNITS)
        samples["peak_rss_mb"] = (peak_rss_mb, 1)
        metrics = {name: {"value": samples[name][0], "unit": END_TO_END_UNITS[name]}
                   for name in GATED}

    units_of = dict(END_TO_END_UNITS, **tracing.LAYER_METRICS)
    shown = list(metrics) if args.trace else [n for n in END_TO_END_UNITS if n in samples]
    for name in shown:
        value = metrics[name]["value"] if name in metrics else samples[name][0]
        count = samples.get(name, (None, None))[1]
        extra = f"  (n = {count})" if count else ""
        print(f"{name:<34s} {value:>14.6g} {units_of[name]}{extra}")
    raw_wall = statistics.median(u.wall for u in units)
    flat = [f for unit_scales in scales for f in unit_scales]
    print(f"{'speed_scale':<34s} {statistics.median(flat):>14.6g} reference s per s"
          f"  (n = {len(flat)}; raw median unit wall {raw_wall:.6g} s)")
    print(f"{'error_rate':<34s} {ledger.error_rate:>14.6g} fraction"
          f"  ({ledger.failed} of {ledger.attempted} checks failed)")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        error_rate=ledger.error_rate,
        failures=ledger.failures,
        samples={k: {"value": v, "n": n} for k, (v, n) in samples.items()},
        raw_samples={k: {"value": v, "n": n} for k, (v, n) in raw.items()},
        calibration_kernel=kernel,
        reference_speed_s=speed.REFERENCE_S,
        units=len(units),
        traced_units=len(traced),
        unit_wall_s=[u.wall for u in units],
        unit_speed_scale=scales,
        import_s=imports,
        import_speed_scale=import_scales,
        evidence=evidence,
        provenance=_provenance(),
    )
    (outdir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
