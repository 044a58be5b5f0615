"""In-memory span recorder that times calls into mmclab's public functions.

The benchmark never edits the package. For a traced item it rebinds the
names through which the sweep path (and the gap-check path) reaches each
module's public functions, so every call records one span: name, start,
end, parent and item id. Spans stay in memory; the worker aggregates them
when the run ends. A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

# Calls whose peak allocation is recorded with tracemalloc (numpy reports
# its buffers to it). Tracing starts and stops inside the span, so the peak
# counts only memory allocated during that call.
PEAK_SPANS = {"spectral.spectral_cluster", "likelihood.refine",
              "likelihood.oracle_classify"}


@dataclass
class Span:
    name: str
    item: int
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0
    info: dict = field(default_factory=dict)
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; ``item`` tags spans with the work item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.item, parent, time.perf_counter()))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            peak = name in PEAK_SPANS
            if peak:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if peak:
                    self.spans[idx].peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.end(idx)
            if measure is not None:
                self.spans[idx].info = measure(out)
            return out
        return traced

    def self_time(self, idx: int) -> float:
        span = self.spans[idx]
        covered = sum(self.spans[c].duration for c in span.children)
        return span.duration - covered


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets: list[tuple]):
    """Rebind each target's ``(namespace, attribute)`` to a traced wrapper
    for the duration of the block, and restore the originals after it."""
    saved = []
    try:
        for ns, attr, name, measure in targets:
            original = getattr(ns, attr)
            saved.append((ns, attr, original))
            setattr(ns, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


# Sizes read off a call's result. Byte counts come from array shapes and
# dtypes, so they are computed, not measured: they ignore cache traffic.

def _sample_info(trajs) -> dict:
    return {"states": int(trajs.states.size), "states_bytes": int(trajs.states.nbytes)}


def _build_info(matrices) -> dict:
    return {"W_hat_bytes": int(matrices[1].values.nbytes)}


def _cluster_info(res) -> dict:
    T = int(res.labels.size)
    # stage 1 holds a float64 T x T distance matrix and a bool T x T
    # neighbour matrix at once: 9 bytes per pair
    return {"K_hat": int(res.K_hat), "R_hat": int(res.R_hat),
            "pairwise_bytes": 9 * T * T}


def _refine_info(res) -> dict:
    return {"changed": int(res.changed)}


def targets(mmclab) -> list[tuple]:
    """The layer boundaries: where cli and the benchmark call into each module.

    ``mmclab`` is the imported package. Each target is ``(namespace,
    attribute, span name, measure)``. Names are bound where the caller looks
    them up: cli imports most functions by name, reaches simgen through the
    module, and simgen calls ``validate_model`` through its own globals.
    """
    cli, simgen, metrics = mmclab.cli, mmclab.simgen, mmclab.metrics
    return [
        (simgen, "validate_model", "chains.validate_model", None),
        (simgen, "gen_separation_models", "simgen.gen_separation_models", None),
        (simgen, "gen_random_ergodic", "simgen.gen_random_ergodic", None),
        (simgen, "make_instance", "simgen.make_instance", None),
        (simgen, "sample_trajectories", "simgen.sample_trajectories", _sample_info),
        (cli, "build_matrices", "embedding.build_matrices", _build_info),
        (cli, "spectral_cluster", "spectral.spectral_cluster", _cluster_info),
        (cli, "refine", "likelihood.refine", _refine_info),
        (cli, "oracle_classify", "likelihood.oracle_classify", None),
        (cli, "divergence_D", "metrics.divergence_D", None),
        (cli, "divergence_D_pi", "metrics.divergence_D_pi", None),
        (cli, "delta_W_sq", "metrics.delta_W_sq", None),
        (cli, "misclassification", "metrics.misclassification", None),
        (metrics, "check_gap_inequalities", "metrics.check_gap_inequalities", None),
    ]
