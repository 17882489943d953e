#!/usr/bin/env python3
"""A/B wall-time gate: the benchmark of record on two checkouts, interleaved.

Usage:
    python3 .github/scripts/nocbench_ab.py BASE_DIR HEAD_DIR

Each checkout runs its own nocbench/run.py from its own root, so each side
builds and times its own sources, into its own CARGO_TARGET_DIR
(<checkout>/.bench_build). For every workload in HEAD_DIR/BENCHMARK.json the
script runs PAIRS base/head pairs of SECONDS each, alternating which side of a
pair runs first. Every run must report "correct": true and "failed": 0.

For every end-to-end metric it prints each side's median and quartiles over
the pairs, and fails (exit 1) when head's median is worse than base's by more
than the metric's bound: for a higher-is-better metric, head < base * (1 -
bound); for a lower-is-better one, head > base * (1 + bound).
"""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 4.0


def run(checkout: Path, workload: str, seconds: float) -> dict:
    """One nocbench run on `checkout`; returns its JSON result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    cmd = [sys.executable, "nocbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"nocbench_ab: {checkout} {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"nocbench_ab: {checkout} {workload} reported correct={result.get('correct')} "
                 f"failed={result.get('failed')}")
    return result


def summary(values: list) -> tuple:
    """(median, "median [q1, q3]") of one side's per-run values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": Path(sys.argv[1]).resolve(), "head": Path(sys.argv[2]).resolve()}
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # Build both sides (and check they run) before anything is timed.
    for path in sides.values():
        run(path, workloads[0], 0.1)

    samples = {(side, w, m["name"]): [] for side in sides for w in workloads for m in metrics}
    for pair in range(PAIRS):
        for wi, workload in enumerate(workloads):
            order = ["base", "head"] if (pair + wi) % 2 == 0 else ["head", "base"]
            for side in order:
                result = run(sides[side], workload, SECONDS)
                for m in metrics:
                    samples[(side, workload, m["name"])].append(
                        result["metrics"][m["name"]]["value"])
            print(f"pair {pair + 1}/{PAIRS} {workload} done ({order[0]} first)", flush=True)

    worse = 0
    row = "{:<16} {:<18} {:<36} {:<36} {:>9}  {:>5}  {}"
    print()
    print(row.format("workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
                     "head/base", "bound", "verdict"))
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            base, base_cell = summary(samples[("base", workload, name)])
            head, head_cell = summary(samples[("head", workload, name)])
            if m["better"] == "higher":
                bad = head < base * (1.0 - bound)
            else:
                bad = head > base * (1.0 + bound)
            worse += bad
            print(row.format(workload, name, base_cell, head_cell, f"{head / base:.4f}", bound,
                             "WORSE" if bad else "ok"))
    print(f"\n{'FAIL' if worse else 'PASS'}: {worse} metric(s) worse than base by more than "
          f"the bound ({PAIRS} pairs x {SECONDS:g} s per run)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
