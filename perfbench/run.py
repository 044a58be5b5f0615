#!/usr/bin/env python3
"""mmclab benchmark: one run of one workload, reported as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decay --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):
    decay  separation construction, S=4, K=2, T=200, H=20000, one sweep point per item
    wide   random instance, S=40, K=8, T=4000, H=1000, one sweep point per item
    gaps   one random chain pair per item: two generated chains and the gap checks

Each run starts three fresh worker processes (perfbench/worker.py) with the
checkout's src/ on PYTHONPATH, one after the other, and times set-up on each,
from spawn to the worker's READY line. The second then checks the default
seed's output against perfbench/reference.json; the third runs items for
--seconds and checks every output. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (perfbench/spans.py). The lines before it give the environment
and the run's details. Exit code 2 means the checkout has no mmclab source,
1 that the worker died.

--shape smoke swaps in tiny instances for the self-test (perfbench/selftest.py);
--record rewrites this workload's entry in perfbench/reference.json from the
default seed, after a deliberate change of outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3           # worker starts timed per run (at least 2); the median is setup_s
WORKER_TIMEOUT_S = 150      # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "item_s.min": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}
LAYER_UNITS = {
    "chains.validate_s": "s", "chains.validate_calls": "count",
    "simgen.sample_s": "s", "simgen.ns_per_state": "ns",
    "simgen.states_bytes": "B_computed",
    "embedding.build_s": "s", "embedding.W_hat_bytes": "B_computed",
    "spectral.cluster_s": "s", "spectral.peak_alloc_mb": "MB",
    "spectral.pairwise_bytes": "B_computed", "spectral.K_hat": "count",
    "spectral.R_hat": "count",
    "likelihood.refine_s": "s", "likelihood.oracle_s": "s",
    "likelihood.peak_alloc_mb": "MB", "likelihood.changed": "count",
    "metrics.divergence_s": "s", "metrics.misclassification_s": "s",
    "metrics.gap_checks_s": "s",
    "cli.other_s": "s", "trace.overhead_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["decay", "wide", "gaps"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--shape", choices=["full", "smoke"], default="full")
    p.add_argument("--record", action="store_true",
                   help="rewrite this workload's reference rows and exit")
    return p.parse_args(argv)


def fail(msg: str, code: int):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


# --- environment -------------------------------------------------------------

def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, as the kernel lists them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sharing = (index / "shared_cpu_list").read_text().strip()
            sizes[f"L{level}"] = f"{(index / 'size').read_text().strip()} (cpus {sharing})"
        except OSError:
            continue
    return sizes


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "mmclab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine(),
            "caches": cache_sizes(), "git_commit": commit,
            "src_sha256": src.hexdigest()}


# --- worker processes ------------------------------------------------------------

def spawn(root: Path, opts: dict) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.Popen([sys.executable, str(WORKER), json.dumps(opts)], cwd=root,
                            env=env, stdout=subprocess.PIPE, text=True)


def run_worker(root: Path, opts: dict) -> tuple[float, list[str], int, float]:
    """Start a worker and wait for it; returns (setup s, stdout lines after
    READY, exit status, peak RSS in MB from ``os.wait4``)."""
    start = time.perf_counter()
    proc = spawn(root, opts)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY":
        fail(f"worker did not get ready (exit {proc.returncode})", 1)
    return setup, lines, proc.returncode, usage.ru_maxrss / 1024.0


# --- metrics ------------------------------------------------------------------

def typical(res: dict) -> dict:
    """Throughput and per-item quantiles of the run. They follow the shared
    host's speed, which drifts by up to a third over minutes, so they go to
    the details line rather than into the gated metrics."""
    walls = sorted(res["item_walls"])
    if not walls:
        return {}
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    return {"items_per_s": len(walls) / res["elapsed_s"],
            "item_s.p50": statistics.median(walls), "item_s.p90": p90}


def end_to_end(res: dict, setups: list[float], peak_rss_mb: float) -> dict:
    blocks = res["block_walls"]
    if not blocks:
        fail("no whole block of items completed: " + "; ".join(res["failures"]), 1)
    # The fastest block is the time the code needs when the host interferes
    # least; unlike the mean or median, it barely moves with the host's drift.
    values = {"setup_s": statistics.median(setups),
              "item_s.min": min(blocks) / res["items_per_block"],
              "peak_rss_mb": peak_rss_mb,
              "ok_frac": 1.0 - res["failed"] / res["attempted"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(res: dict) -> dict:
    layers = res.get("layers")
    if layers is None:
        fail("traced run produced no spans: " + "; ".join(res["failures"]), 1)
    # layers the workload never enters report 0
    return {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}


def main(argv=None) -> None:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mmclab" / "cli.py").is_file():
        fail(f"no mmclab source under {root / 'src'}; run from the root of a checkout", 2)
    out = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    opts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "shape": args.shape, "out": str(out), "mode": "setup"}
    try:
        if args.record:
            _, _, status, _ = run_worker(root, dict(opts, mode="record"))
            raise SystemExit(status)
        setups = [run_worker(root, opts)[0] for _ in range(SETUP_SAMPLES - 2)]
        setup, lines, status, _ = run_worker(root, dict(opts, mode="canary"))
        if status != 0 or not lines:
            fail(f"canary worker exited {status} without a result", 1)
        canary = json.loads(lines[-1])
        setups.append(setup)
        setup, lines, status, peak_rss_mb = run_worker(root, dict(opts, mode="run"))
        setups.append(setup)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.is_dir() and not any(out.parent.iterdir()):
            out.parent.rmdir()
    if status != 0 or not lines:
        fail(f"worker exited {status} without a result", 1)
    res = json.loads(lines[-1])
    res["attempted"] += 1
    if canary["failure"]:
        res["failed"] += 1
        res["failures"].insert(0, canary["failure"])

    metrics = per_layer(res) if args.trace else end_to_end(res, setups, peak_rss_mb)
    env = dict(environment(root), **res["environment"])
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "shape": args.shape, "trace": args.trace, "items": res["items"],
               "elapsed_s": res["elapsed_s"], "blocks": len(res["block_walls"]),
               "items_per_block": res["items_per_block"], **typical(res),
               "setup_samples_s": setups,
               "failed_frac": res["failed"] / res["attempted"],
               "canary_exact": canary["exact"], "failures": res["failures"]}
    if args.trace:
        details["spans"] = res["layers"]["trace.spans"]
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
