"""Deterministic perf gate over the end-to-end benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e_gate.py

For each workload in ``BENCHMARK.json`` it runs ``e2ebench/run.py
--seconds 0`` twice: seed 0 with ``--trace 1`` (fingerprint plus the four
``work.*`` counts per replayed record) and seed 1 with ``--trace 0``
(fingerprint only).  Every value must equal the one pinned in
``benchmarks/e2e_gate.json`` exactly, and every run must read back
correctly (``correct``) with no failed operations (``failed`` == 0).

None of the compared values is a clock reading: a fingerprint digests the
simulated outputs, and the work counts are Python calls, layer-boundary
calls, engine events and device operations per replayed record.  So the
gate passes or fails because of the code, not the host.
``work.calls_per_record`` is a cProfile count and depends on the
interpreter; it is compared only when the running Python's major.minor
equals the pinned one, and the gate says so when it is not.

On failure the gate prints the fresh values in the pin file's own
format.  When a change is meant to move them, check that output and copy
it over ``benchmarks/e2e_gate.json`` by hand, like a test golden.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "benchmarks" / "e2e_gate.json"
#: ``(seed, --trace)`` per workload; only traced runs report work counts.
RUNS = ((0, 1), (1, 0))
WORK_KEYS = (
    "work.calls_per_record",
    "work.boundary_calls_per_record",
    "work.engine_events_per_record",
    "work.device_ops_per_record",
)
#: The one pinned value that depends on the interpreter version.
PER_INTERPRETER = "work.calls_per_record"


def parse_run(stdout: str) -> dict:
    """The gated fields of one ``run.py`` output.

    Reads the ``e2ebench workload=... fingerprint=...`` header line and
    the JSON result on the last line; raises ``ValueError`` when either
    is missing.
    """
    lines = stdout.strip().splitlines()
    headers = [line for line in lines if line.startswith("e2ebench ")]
    if not headers or not lines[-1].startswith("{"):
        raise ValueError("no header line or no JSON result line")
    fields = dict(part.split("=", 1) for part in headers[0].split()[1:])
    result = json.loads(lines[-1])
    pin = {"fingerprint": fields["fingerprint"]}
    for key in WORK_KEYS:
        if key in result["metrics"]:
            pin[key] = result["metrics"][key]["value"]
    return {"correct": result["correct"], "failed": result["failed"], "pin": pin}


def check(
    pins: dict, results: Dict[str, Dict[str, dict]], python: str
) -> Tuple[List[str], List[str]]:
    """Compare parsed runs (``{workload: {seed: parse_run(...)}}``) with the
    pin file's contents.  Returns ``(failures, notes)``."""
    notes = []
    skip = set()
    if pins["python"] != python:
        skip.add(PER_INTERPRETER)
        notes.append(
            f"{PER_INTERPRETER} not compared: pinned on Python {pins['python']}, "
            f"running {python}, and a cProfile call count depends on the "
            "interpreter"
        )
    failures = []
    pinned_runs = pins["runs"]
    for workload in sorted(set(pinned_runs) | set(results)):
        pinned_seeds = pinned_runs.get(workload, {})
        fresh_seeds = results.get(workload, {})
        for seed in sorted(set(pinned_seeds) | set(fresh_seeds)):
            where = f"{workload} seed {seed}"
            pinned = pinned_seeds.get(seed)
            run = fresh_seeds.get(seed)
            if run is None:
                failures.append(f"{where}: pinned but not run")
                continue
            if pinned is None:
                failures.append(f"{where}: run but not pinned")
                continue
            if not run["correct"]:
                failures.append(f"{where}: correct is false (read-back mismatch)")
            if run["failed"] > 0:
                failures.append(f"{where}: {run['failed']} operations failed")
            for key in sorted((set(pinned) | set(run["pin"])) - skip):
                old, new = pinned.get(key), run["pin"].get(key)
                if old != new:
                    failures.append(f"{where}: {key} pinned {old}, got {new}")
    return failures, notes


def fresh_pins(results: Dict[str, Dict[str, dict]], python: str) -> dict:
    """The fresh values in the pin file's format."""
    return {
        "python": python,
        "runs": {
            workload: {seed: run["pin"] for seed, run in seeds.items()}
            for workload, seeds in results.items()
        },
    }


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    results: Dict[str, Dict[str, dict]] = {}
    failures = []
    for workload in workloads:
        for seed, trace in RUNS:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            try:
                results.setdefault(workload, {})[str(seed)] = parse_run(proc.stdout)
            except (KeyError, ValueError) as exc:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                failures.append(
                    f"{workload} seed {seed}: unreadable run.py output "
                    f"(exit {proc.returncode}, {exc}) {tail[0]}"
                )
                continue
            print(f"  {workload} seed {seed} --trace {trace}: "
                  f"{time.perf_counter() - start:.1f} s")
    python = "%d.%d" % sys.version_info[:2]
    mismatches, notes = check(json.loads(PINS.read_text()), results, python)
    failures.extend(mismatches)
    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"E2E GATE FAILED ({len(failures)} problems):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(f"fresh values in the format of {PINS.relative_to(ROOT)}:", file=sys.stderr)
        print(json.dumps(fresh_pins(results, python), indent=2), file=sys.stderr)
        return 1
    runs = sum(len(seeds) for seeds in results.values())
    print(f"e2e gate ok: {runs} runs match {PINS.relative_to(ROOT)} "
          "(fingerprints, work counts, read-back, no failed ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
