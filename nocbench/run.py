#!/usr/bin/env python3
"""Build nocbench from the checkout's sources and run one workload.

Usage (from the repository root):
    python3 nocbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 nocbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/nocbench (default .bench_build/nocbench)
relative to the current directory; build output goes to stderr. The program's
stdout passes through unchanged, so its last line is the JSON result. Exits
non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["sat_mesh16", "sparse_mesh32", "vfi_per_router8", "paper_sweep5"]


def build(build_dir: Path) -> None:
    log = sys.stderr
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("nocbench: simulator sources (src/) not found next to the benchmark")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True, stdout=log)


def check_emitted_metrics(build_dir: Path) -> int:
    """Run a short workload traced and untraced; every emitted metric must
    have a valid name and unit, and match BENCHMARK.json when present."""
    spec_path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    failures = 0
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([str(build_dir / "nocbench"), "--workload", "vfi_per_router8",
                              "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        problems = []
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        if result.get("correct") is not True:
            problems.append("run reported correct=false")
        emitted = {}
        for name, m in result.get("metrics", {}).items():
            if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name):
                problems.append(f"metric name {name!r}")
            unit = m.get("unit", "")
            if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit):
                problems.append(f"unit {unit!r} of {name}")
            if set(m) != {"value", "unit"} or not isinstance(m.get("value"), (int, float)):
                problems.append(f"metric {name} is {m}")
            emitted[name] = unit
        if spec is not None:
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if emitted != declared:
                problems.append(f"emitted {emitted} != BENCHMARK.json {section} {declared}")
        for p in problems:
            print(f"FAIL (--trace {trace}): {p}")
        failures += len(problems)
    print(f"{'PASS' if failures == 0 else 'FAIL'} emitted metrics ({failures} failures)")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "nocbench"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"nocbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        rc = subprocess.run([str(build_dir / "nocbench_test")]).returncode
        return rc or check_emitted_metrics(build_dir)
    cmd = [str(build_dir / "nocbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
