#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-shape run of every workload.

For each workload it runs perfbench/run.py with --shape smoke, once untraced
and once traced, and checks that the last line names exactly the metrics of
BENCHMARK.json with their units, that the run is correct and that no item
failed. It also checks that the benchmark refuses a directory that holds
only BENCHMARK.json and perfbench/. Run from the root of a checkout:

    python3 perfbench/selftest.py

Exit code 0 when every check passes. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# The per-layer metrics a gap pair moves; on gaps every other one reads 0.
# On the sweeps only the gap checks and refine's reassignments may read 0.
GAPS_LAYERS = {"chains.validate_s", "chains.validate_calls", "metrics.gap_checks_s",
               "cli.other_s", "trace.overhead_frac"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--shape", "smoke")
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"{sorted(expected[trace].items())}")
            if trace:
                zero = {k for k, v in result["metrics"].items() if v["value"] == 0}
                allowed = (expected[1].keys() - GAPS_LAYERS if workload == "gaps"
                           else {"metrics.gap_checks_s", "likelihood.changed"})
                if zero - allowed:
                    problems.append(f"{tag}: layers read 0: {sorted(zero - allowed)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                details = json.loads(proc.stdout.splitlines()[-2])["details"]
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} failed: "
                                f"{details['failures']}")
            print(f"{tag}: {result['attempted']} attempted, {result['failed']} failed")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"bare directory: refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
