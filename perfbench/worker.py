"""One benchmark run of one workload, in a fresh process started by run.py.

Protocol on stdout: the line ``READY`` once mmclab is imported and the
workload is ready (run.py times set-up up to that line), then, unless only
set-up was asked for, one JSON line: the run's raw figures, or in canary
mode the default seed's check against reference.json. Everything
the package prints goes to a buffer, not to stdout.

Usage (run.py passes one JSON object of options):
    python3 perfbench/worker.py '{"workload": "decay", "seed": 0, ...}'
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, instrumented, targets  # noqa: E402

REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
# The CSV header the sweep must write; pinned here rather than read from
# mmclab.cli, so that a change of columns shows as a failure.
SWEEP_COLUMNS = ["T", "H", "delta", "lambda", "seed", "K_hat", "e_t_stage1",
                 "e_t_stage2", "e_t_oracle", "D", "D_pi", "delta_W_sq",
                 "gamma_ps", "sigma_thres", "R_hat", "wall_time_s"]
# columns that depend only on the instance and the sweep constants
INSTANCE_COLUMNS = ["D", "D_pi", "delta_W_sq", "gamma_ps", "sigma_thres"]
GAP_CHECKS = ["kl_sandwich_lower", "kl_sandwich_upper", "dpi_vs_witness",
              "deltaW_upper_hellinger", "deltaW_lower_witness"]
GAP_S_CYCLE = 7             # pair i has S = 2 + i % 7: one cycle of S over 2..8
GAP_PAIRS_PER_CANARY = 2 * GAP_S_CYCLE

# Stage constants of the acceptance suite and scripts/run_error_decay.py.
CONSTANTS = {"delta": [0.1], "lambda": [0.5], "c_sigma": 0.15, "c_rho": 2.0}
SHAPES = {
    "full": {
        "decay": {"S_prime": 2, "T": 200, "H": 20_000},
        "wide": {"S": 40, "K": 8, "floor": 0.005, "T": 4000, "H": 1000},
    },
    # tiny shapes for the self-test
    "smoke": {
        "decay": {"S_prime": 2, "T": 40, "H": 400},
        "wide": {"S": 6, "K": 3, "floor": 0.02, "T": 60, "H": 200},
    },
}


class ItemFailed(Exception):
    """A work item raised, exited non-zero or produced a wrong output."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ItemFailed(msg)


def rows_match(got: list, ref: list) -> bool:
    """Equal rows, floats allowed to differ by 1e-9 relative."""
    if len(got) != len(ref):
        return False
    for g_row, r_row in zip(got, ref):
        if len(g_row) != len(r_row):
            return False
        for g, r in zip(g_row, r_row):
            if g == r:
                continue
            try:
                if not math.isclose(float(g), float(r), rel_tol=1e-9, abs_tol=1e-12):
                    return False
            except ValueError:
                return False
    return True


# --- workloads ---------------------------------------------------------------

class SweepWorkload:
    """One sweep point per item, through ``mmclab.cli.main(["sweep", ...])``."""

    block = 1   # items per timed block; every point has the same shape

    def __init__(self, name: str, shape: dict, seed: int, out: Path, mmclab):
        self.cli = mmclab.cli
        self.out = out
        if name == "decay":
            spec = {"type": "separation", "S_prime": shape["S_prime"]}
        else:
            spec = {"type": "random", "S": shape["S"], "K": shape["K"],
                    "floor": shape["floor"], "seed": seed}
        self.config = dict(CONSTANTS, instance=spec, T=[shape["T"]], H=[shape["H"]])
        self.T, self.H = shape["T"], shape["H"]
        self.first = seed   # sweep seeds run consecutively from the workload seed
        self.instance_values: list | None = None

    def item(self, i: int) -> tuple[list, float]:
        return self.run(self.first + i)

    def run(self, sweep_seed: int, config: dict | None = None) -> tuple[list, float]:
        """One sweep point; returns (rows without wall time, wall_time_s)."""
        cfg = dict(config or self.config, seeds=[sweep_seed])
        path = self.out / "item.config.json"
        path.write_text(json.dumps(cfg))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["sweep", str(path), "--jobs", "1",
                                "--out", str(self.out), "--name", "item"])
        _check(rc == 0, f"sweep exited {rc}")
        with open(self.out / "item.sweep.csv", newline="") as fh:
            table = list(csv.reader(fh))
        _check(table[0] == SWEEP_COLUMNS, f"sweep columns {table[0]}")
        _check(len(table) == 2, f"{len(table) - 1} rows for one point")
        row = dict(zip(table[0], table[1]))
        wall = float(row.pop("wall_time_s"))
        _check(wall > 0.0, "nonpositive wall_time_s")
        return [list(row.values())], wall

    def check(self, rows: list, i: int) -> None:
        """Invariants of one sweep row that hold on every seed."""
        row = dict(zip(SWEEP_COLUMNS, rows[0]))
        sweep_seed = self.first + i
        T = self.T
        _check([int(row["T"]), int(row["H"]), int(row["seed"])] == [T, self.H, sweep_seed],
               "row does not echo its point")
        _check(1 <= int(row["K_hat"]) <= T and int(row["R_hat"]) >= 1, "K_hat/R_hat out of range")
        for col in ("e_t_stage1", "e_t_stage2", "e_t_oracle"):
            _check(0 <= int(row[col]) <= T, f"{col} out of range")
        values = [float(row[c]) for c in INSTANCE_COLUMNS]
        _check(all(math.isfinite(v) and v > 0.0 for v in values), "instance value not positive")
        # every point of a run shares one instance, so these repeat exactly
        if self.instance_values is None:
            self.instance_values = [row[c] for c in INSTANCE_COLUMNS]
        _check([row[c] for c in INSTANCE_COLUMNS] == self.instance_values,
               "instance columns differ between points")

    def canary(self) -> list:
        """The default seed's sweep row, plus a sha256 of the trajectories
        that ``mmclab sample`` writes for that seed: the row alone barely
        depends on the sampled states when every stage gets E_T = 0."""
        cfg = self.config
        if cfg["instance"]["type"] == "random":
            cfg = dict(cfg, instance=dict(cfg["instance"], seed=DEFAULT_SEED))
        rows = self.run(DEFAULT_SEED, cfg)[0]
        spec = dict(cfg["instance"], T=self.T, H=self.H)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["generate", json.dumps(spec)],
                         ["sample", str(self.out / "canary.instance.json"),
                          "--seed", str(DEFAULT_SEED)]):
                rc = self.cli.main(argv + ["--out", str(self.out), "--name", "canary"])
                _check(rc == 0, f"{argv[0]} exited {rc}")
        digest = hashlib.sha256((self.out / "canary.traj.bin").read_bytes()).hexdigest()
        return rows + [["sample_sha256", digest]]


class GapsWorkload:
    """One floored-Dirichlet chain pair per item, as scripts/run_gap_sweep.py draws them."""

    block = GAP_S_CYCLE   # a timed block is one cycle of S, so blocks have equal work

    def __init__(self, seed: int, mmclab):
        self.simgen, self.metrics = mmclab.simgen, mmclab.metrics
        self.seed = seed

    def pair(self, i: int, seed: int) -> list:
        S = 2 + i % GAP_S_CYCLE
        base = 40_000 + 1_000_000 * seed
        models = [self.simgen.gen_random_ergodic(S, base + 13 * i + j, 1 / (4 * S))
                  for j in range(2)]
        return [[c.name, repr(bool(c.holds)), repr(float(c.lhs)), repr(float(c.rhs)),
                 repr(float(c.slack))] for c in self.metrics.check_gap_inequalities(models)]

    def item(self, i: int) -> tuple[list, float]:
        start = time.perf_counter()
        rows = self.pair(i, self.seed)
        return rows, time.perf_counter() - start

    def check(self, rows: list, i: int) -> None:
        _check([r[0] for r in rows] == GAP_CHECKS, "unexpected set of gap checks")
        for name, holds, lhs, rhs, slack in rows:
            lhs, rhs, slack = float(lhs), float(rhs), float(slack)
            _check(holds == "True" and slack >= -1e-12, f"{name} violated")
            if math.isfinite(slack):
                _check(math.isclose(abs(slack), abs(rhs - lhs), rel_tol=1e-9, abs_tol=1e-12),
                       f"{name} slack is not |rhs - lhs|")

    def canary(self) -> list:
        return [r for i in range(GAP_PAIRS_PER_CANARY) for r in self.pair(i, DEFAULT_SEED)]


# --- per-layer aggregation ----------------------------------------------------

def layer_metrics(tracer: Tracer, roots: list[int], untraced_walls: list[float]) -> dict:
    """Median over items of each layer's figures, from one root span per item."""
    per_item: list[dict] = []
    by_item: dict[int, list[int]] = {}
    for idx, span in enumerate(tracer.spans):
        by_item.setdefault(span.item, []).append(idx)
    for root in roots:
        acc: dict[str, float] = {}

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        for idx in by_item[tracer.spans[root].item]:
            span = tracer.spans[idx]
            name = span.name
            if name == "chains.validate_model":
                add("chains.validate_s", span.duration)
                add("chains.validate_calls", 1)
            elif name == "simgen.sample_trajectories":
                add("simgen.sample_s", span.duration)
                add("states", span.info["states"])
                add("simgen.states_bytes", span.info["states_bytes"])
            elif name == "embedding.build_matrices":
                add("embedding.build_s", span.duration)
                add("embedding.W_hat_bytes", span.info["W_hat_bytes"])
            elif name == "spectral.spectral_cluster":
                add("spectral.cluster_s", span.duration)
                add("spectral.peak_alloc_mb", span.peak_bytes / 2**20)
                for key in ("pairwise_bytes", "K_hat", "R_hat"):
                    add("spectral." + key, span.info[key])
            elif name in ("likelihood.refine", "likelihood.oracle_classify"):
                add("likelihood.refine_s" if name.endswith("refine") else "likelihood.oracle_s",
                    span.duration)
                acc["likelihood.peak_alloc_mb"] = max(acc.get("likelihood.peak_alloc_mb", 0.0),
                                                      span.peak_bytes / 2**20)
                if span.info:
                    add("likelihood.changed", span.info["changed"])
            elif name in ("metrics.divergence_D", "metrics.divergence_D_pi", "metrics.delta_W_sq"):
                add("metrics.divergence_s", span.duration)
            elif name == "metrics.misclassification":
                add("metrics.misclassification_s", span.duration)
            elif name == "metrics.check_gap_inequalities":
                add("metrics.gap_checks_s", span.duration)
        acc["cli.other_s"] = tracer.self_time(root)
        states = acc.pop("states", 0.0)
        acc["simgen.ns_per_state"] = 1e9 * acc.get("simgen.sample_s", 0.0) / states if states else 0.0
        per_item.append(acc)

    # a layer an item never entered counts as 0 for that item
    names = set().union(*per_item)
    out = {n: statistics.median(acc.get(n, 0.0) for acc in per_item) for n in names}
    traced_walls = [tracer.spans[r].duration for r in roots]
    out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    out["trace.spans"] = len(tracer.spans)
    return out


# --- environment ------------------------------------------------------------

def blas_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment(mmclab) -> dict:
    import numpy as np
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
            "mmclab_file": str(Path(mmclab.__file__).relative_to(Path.cwd()))}


# --- the run ----------------------------------------------------------------

def reference_key(opts: dict) -> str:
    """Sweeps have a reference per shape; gap pairs have one shape."""
    name = opts["workload"]
    return name if name == "gaps" or opts["shape"] == "full" else f"{name}@{opts['shape']}"


def setup(opts: dict):
    """Import mmclab from the checkout's src/ and make the workload ready."""
    import mmclab
    import mmclab.cli  # noqa: F401  (the sweep entry point)

    src = (Path.cwd() / "src").resolve()
    if Path(mmclab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"mmclab imported from {mmclab.__file__}, not from {src}")
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    name, seed = opts["workload"], opts["seed"]
    if name == "gaps":
        return mmclab, GapsWorkload(seed, mmclab)
    return mmclab, SweepWorkload(name, SHAPES[opts["shape"]][name], seed, out, mmclab)


def run(opts: dict, mmclab, work) -> dict:
    trace = bool(opts["trace"])
    tracer = Tracer()
    boundaries = targets(mmclab)
    walls: list[float] = []           # per item, untraced
    blocks: list[float] = []          # per whole block of work.block items, untraced
    block: list[float] = []           # the block being filled
    roots: list[int] = []             # root span per traced item
    failures: list[str] = []
    attempted = 0
    deadline = opts["seconds"]

    def traced(i):
        tracer.item = i
        with instrumented(tracer, boundaries):
            root = tracer.begin("cli.main" if isinstance(work, SweepWorkload) else "bench.gap_pair")
            try:
                rows = work.item(i)[0]
            finally:
                tracer.end(root)
        roots.append(root)
        return rows

    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < deadline:
        attempted += 1
        try:
            if trace:
                # alternate which side goes first, so neither always runs warm
                if i % 2:
                    rows_t = traced(i)
                    rows, wall = work.item(i)
                else:
                    rows, wall = work.item(i)
                    rows_t = traced(i)
                _check(rows_t == rows, "traced rows differ from untraced rows")
            else:
                rows, wall = work.item(i)
            work.check(rows, i)
            walls.append(wall)
            block.append(wall)
        except Exception as exc:  # an item that fails is counted, the run goes on
            failures.append(f"item {i}: {type(exc).__name__}: {exc}")
        i += 1
        if i % work.block == 0:
            # a block with a failed item is short and is dropped
            if len(block) == work.block:
                blocks.append(sum(block))
            block = []
    elapsed = time.perf_counter() - start

    result = {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "items": len(walls), "elapsed_s": elapsed, "item_walls": walls,
              "block_walls": blocks, "items_per_block": work.block,
              "environment": environment(mmclab)}
    if trace and roots and walls:
        result["layers"] = layer_metrics(tracer, roots, walls)
    return result


def canary(opts: dict, work) -> dict:
    """The default seed's output against the recorded reference.

    It runs in a worker of its own, so it neither warms the measured worker
    nor adds to its peak RSS."""
    try:
        rows = work.canary()
        ref = json.loads(REFERENCE.read_text())[reference_key(opts)]["rows"]
        _check(rows_match(rows, ref), "canary rows differ from reference.json")
    except Exception as exc:  # a wrong or failing canary is a failed item
        return {"failure": f"canary: {type(exc).__name__}: {exc}", "exact": False}
    return {"failure": None, "exact": rows == ref}


def record(opts: dict, work) -> None:
    """Write the default seed's rows for this workload and shape into reference.json."""
    shape_key = reference_key(opts)
    rows = work.canary()
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    refs[shape_key] = {"seed": DEFAULT_SEED, "sha256": digest, "rows": rows}
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {shape_key}: {len(rows)} rows, sha256 {digest}", file=sys.stderr)


def main() -> None:
    opts = json.loads(sys.argv[1])
    mmclab, work = setup(opts)
    print("READY", flush=True)
    if opts["mode"] == "setup":
        return
    if opts["mode"] == "record":
        record(opts, work)
    elif opts["mode"] == "canary":
        print(json.dumps(canary(opts, work)), flush=True)
    else:
        print(json.dumps(run(opts, mmclab, work)), flush=True)


if __name__ == "__main__":
    main()
