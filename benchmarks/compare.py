"""Compare the end-to-end benchmark of a change with its parent, on one host.

Usage, from the repository root::

    python3 benchmarks/compare.py                      # parent: see below
    python3 benchmarks/compare.py --base main          # any git revision
    python3 benchmarks/compare.py --workload ss_office_2c --pairs 10 --seed 3

The change is the working tree this script sits in, uncommitted edits
included.  The parent is the git revision ``--base``, exported with
``git archive`` into a temporary directory.  Without ``--base`` it is
``HEAD`` when tracked files have uncommitted changes and ``HEAD~1``
otherwise, which is the parent only when the change is those edits or
exactly one commit.  For a change that spans several commits, name its
base commit with ``--base``.  The header prints the commit each side
resolved to.

For each workload in ``BENCHMARK.json`` (or each ``--workload``) it runs
``python3 e2ebench/run.py --workload W --seed S --seconds T --trace 0``
``--pairs`` times on each side, alternating, and flips which side runs
first in every pair so that drift in the host's speed lands on both
sides alike.  ``T`` is the benchmark's own ``run_seconds``.

Per workload and end-to-end metric it prints each side's median and
quartiles, the fraction of pairs the change wins, the change of the
median relative to the parent's, and whether the change stays within the
bound ``BENCHMARK.json`` gives the metric.  A gain is clear when the
change wins nearly every pair and its median moves by more than the
parent's interquartile range (the ``gain>IQR`` column).  Each side's
share of failed operations and its read-back verdict are printed too.

The exit code is 1 when a bound does not hold, a run fails, reads back
wrongly or fails operations, and 0 otherwise.  Wall time depends on the
host and on what else runs on it: compare on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None,
                        help="parent git revision (default: HEAD if tracked files "
                             "have uncommitted changes, else HEAD~1)")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def has_uncommitted_changes() -> bool:
    """Whether tracked files in the working tree differ from ``HEAD``."""
    return bool(_git("status", "--porcelain", "--untracked-files=no"))


def export_revision(revision: str, into: Path) -> Path:
    """Write the committed files of ``revision`` into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    # The "data" filter refuses absolute paths and links out of ``into``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run in ``tree``; its last-line JSON result,
    or ``{"error": ...}`` when the run printed none."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exit {proc.returncode}, no JSON result: {tail}"}
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_metric(
    parent: List[float], change: List[float], better: str, bound: float
) -> Dict[str, object]:
    """Summary of one metric over paired runs (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "rel": rel,
        # Worse by more than the bound, in the metric's own direction.
        "within_bound": sign * rel >= -bound,
        "gain_beyond_iqr": sign * (c_med - p_med) > p_q3 - p_q1,
    }


def _fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def main(argv=None) -> int:
    args = _parse(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    dirty = has_uncommitted_changes()
    base = args.base or ("HEAD" if dirty else "HEAD~1")
    base_commit = _git("rev-parse", "--verify", f"{base}^{{commit}}")

    with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
        trees = {"parent": export_revision(base_commit, Path(tmp)), "change": ROOT}
        print(f"parent: {base} = {base_commit}\n"
              f"change: {ROOT} at HEAD = {_git('rev-parse', 'HEAD')}"
              f"{' + uncommitted changes' if dirty else ''}\n"
              f"{args.pairs} alternating pairs per workload, seed {args.seed}, "
              f"--seconds {seconds:g}")

        problems: List[str] = []
        for workload in workloads:
            results: Dict[str, List[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, args.seed, seconds)
                    if "error" in result:
                        problems.append(f"{workload} {side} pair {pair}: {result['error']}")
                        return _report_problems(problems)
                    results[side].append(result)
                    value = result["metrics"]["replay_records_per_s"]["value"]
                    print(f"  {workload} pair {pair + 1}/{args.pairs} {side:<6} "
                          f"replay_records_per_s {value:,.0f}", flush=True)
            problems.extend(_print_workload(workload, results, metrics))
    return _report_problems(problems)


def _print_workload(workload: str, results: Dict[str, List[dict]], metrics) -> List[str]:
    """Print one workload's table; returns the problems found."""
    problems = []
    print(f"\n{workload}")
    print(f"  {'metric':<22} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
          f"{'wins':>6} {'median':>8} {'gain>IQR':>8}  bound")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        row = compare_metric(parent, change, metric["better"], metric["bound"])
        verdict = "ok" if row["within_bound"] else f"WORSE than {metric['bound']:.0%}"
        if not row["within_bound"]:
            problems.append(f"{workload} {name}: median {row['rel']:+.1%} breaks the bound")
        print(f"  {name:<22} {'/'.join(_fmt(v) for v in row['parent']):>28} "
              f"{'/'.join(_fmt(v) for v in row['change']):>28} "
              f"{row['wins']:>3}/{row['pairs']:<2} {row['rel']:>+8.1%} "
              f"{'yes' if row['gain_beyond_iqr'] else 'no':>8}  {verdict}")
    for side, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"  {side}: failed ops {failed}/{attempted}, read-back "
              f"{'correct' if correct else 'WRONG'}")
        if failed or not correct:
            problems.append(f"{workload} {side}: {failed} failed ops, correct={correct}")
    return problems


def _report_problems(problems: List[str]) -> int:
    if problems:
        print(f"\nCOMPARE FAILED ({len(problems)} problems):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\ncompare ok: every metric within its BENCHMARK.json bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
