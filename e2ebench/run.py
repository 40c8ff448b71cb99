"""Benchmark the simulated mobile computer end to end and layer by layer.

Usage, from the repository root::

    python3 e2ebench/run.py --workload ss_office_2c --seed 0 --seconds 20 --trace 0

One single-threaded process runs one workload.  It repeats set-up
(machine build plus trace generation) and replay until ``--seconds`` of
host time have passed (at least three times) and reports the medians of
set-up time and replay throughput over the repetitions.
Simulated metrics repeat exactly on every repetition; the run checks
that they do, and reads back every file against a logical model after
each replay.  Any mismatch makes the result incorrect and the exit code
non-zero.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
of ``--seconds`` on untraced repetitions (the base of the tracing
overhead), then adds one traced replay (spans around each layer's entry
points, written to ``e2ebench/out/<workload>.spans.jsonl``) and one
replay under cProfile for the deterministic Python call count, and
reports the per-layer metrics and the tracing overhead.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Host metrics reported with --trace 0, in BENCHMARK.json order.
END_TO_END = (
    ("replay_records_per_s", "records/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Simulated end-to-end metrics: printed on every run and folded into the
# fingerprint.  They repeat exactly for one seed, but their spread across
# seeds (up to 0.67 of the median for a p99) is wider than any regression
# bound on a seed-varied median could be, so the JSON result leaves them
# out; compare them seed by seed instead.
SIMULATED = (
    ("sim_write_p50_ms", "ms"),
    ("sim_write_p99_ms", "ms"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p99_ms", "ms"),
    ("sim_late_frac", "frac"),
    ("device_write_bytes_per_app_byte", "B/B"),
    ("sim_avg_power_mw", "mW"),
    ("ops_failed_frac", "frac"),
)
MIN_REPS = 3


def _import_program():
    """Put the repository's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no program source at {SRC}/repro\n")
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"e2ebench: imported repro from {repro.__file__}\n")
        sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _measure(workload, seed: int, seconds: float):
    """Untraced repetitions until ``seconds`` of host time have passed."""
    from e2ebench.harness import run_once

    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(run_once(workload, seed))
    return reps


def _print_row(name: str, value: float, unit: str, n) -> None:
    print(f"  {name:<44} {value:>16.6g} {unit:<10} n={n}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from e2ebench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(
            f"e2ebench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}\n"
        )
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    reps = _measure(workload, args.seed, budget)
    extra = []
    layer = None
    if args.trace:
        from e2ebench.layers import TARGETS, traced_reps

        layer, extra = traced_reps(workload, args.seed, reps, ROOT / "e2ebench" / "out")
    everything = reps + extra

    first = reps[0]
    problems = []
    for rep in everything:
        problems.extend(rep.mismatches)
    digests = sorted({rep.fingerprint for rep in everything})
    if len(digests) > 1:
        problems.append(f"simulated outputs differ between repetitions: {digests}")

    print(
        f"e2ebench workload={workload.name} seed={args.seed} reps={len(reps)} "
        f"records={first.generated} fingerprint={first.fingerprint}"
    )
    if first.error:
        print(f"  replay aborted: {first.error}")
    print(" simulated (identical on every repetition):")
    for name, unit in SIMULATED:
        _print_row(name, first.sim[name], unit, first.counts[name])

    host = {
        "replay_records_per_s": statistics.median(r.served / r.replay_s for r in reps),
        "setup_s": statistics.median(r.setup_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(" host (median over repetitions):")
    for name, unit in END_TO_END:
        _print_row(name, host[name], unit, len(reps) if name != "peak_rss_mb" else 1)

    if layer is not None:
        print(" per layer (traced run), with the end-to-end metric each should move:")
        for name, (value, unit, n) in layer.items():
            _print_row(name, value, unit, n)
            print(f"      -> {TARGETS[name]}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _n) in layer.items()}
    else:
        metrics = {name: {"value": host[name], "unit": unit} for name, unit in END_TO_END}

    for problem in problems[:20]:
        print(f"  MISMATCH {problem}")
    attempted = sum(r.generated for r in everything)
    failed = sum(r.generated - r.served for r in everything)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
