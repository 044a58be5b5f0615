"""One-shot likelihood refinement of provisional cluster labels.

Pool transition counts within each provisional cluster into kernel estimates,
score every (trajectory, cluster) log-likelihood from the counts, and
reassign each trajectory to its best-scoring cluster in a single pass. The
known-kernel variant (``oracle_classify``) is the reference Neyman-Pearson
style classifier the refinement approximates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chains import MarkovModel
from .embedding import Counts
from .errors import (EmptyCluster, LengthMismatch, StateSpaceMismatch,
                     ZeroProbabilityTransition)

__all__ = ["TransitionEstimate", "Stage2Result", "pool_estimates",
           "trajectory_loglik", "refine", "oracle_classify",
           "stage2_to_json", "stage2_from_json", "save_stage2", "load_stage2"]


@dataclass(frozen=True)
class TransitionEstimate:
    """Pooled per-cluster kernel estimates with additive smoothing.

    With smoothing 0, rows whose pooled source count is zero are undefined;
    they are stored as all-zero rows and flagged in ``undefined_rows``.
    """

    kernels: np.ndarray         # (K, S, S)
    visit_counts: np.ndarray    # (K, S) pooled transition-source counts
    trans_counts: np.ndarray    # (K, S, S) pooled transition counts
    smoothing: float
    undefined_rows: np.ndarray  # (K, S) bool


@dataclass(frozen=True)
class Stage2Result:
    labels: np.ndarray   # (T,) refined labels, 0-based
    loglik: np.ndarray   # (T, K) trajectory log-likelihood scores
    changed: int         # number of reassigned trajectories
    smoothing: float

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.loglik.setflags(write=False)


def pool_estimates(counts: Counts, labels: np.ndarray, K: int, lam: float) -> TransitionEstimate:
    """p0_k(s'|s) = (pooled N(s,s') + lam) / (pooled source count of s + lam * S).

    The denominator counts transition sources (sum over s' of N(s,s'), i.e.
    visits over h in [H-1]) rather than raw visits, so the rows normalize
    exactly at lam = 0.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != counts.T:
        raise LengthMismatch("labels length does not match trajectory count")
    if lam < 0:
        raise ValueError("smoothing must be nonnegative")
    S = counts.S
    counts_per_cluster = np.bincount(labels, minlength=K)
    if K < 1 or labels.min() < 0 or labels.max() >= K:
        raise EmptyCluster(f"labels must lie in [0, {K - 1}]")
    if np.any(counts_per_cluster == 0):
        empty = int(np.argmin(counts_per_cluster))
        raise EmptyCluster(f"cluster {empty} has no trajectories")

    trans = np.zeros((K, S, S), dtype=np.float64)
    np.add.at(trans, labels, counts.transitions.astype(np.float64))
    sources = trans.sum(axis=2)  # (K, S)

    denom = sources + lam * S
    undefined = denom == 0.0
    kernels = np.zeros_like(trans)
    np.divide(trans + lam, denom[:, :, None], out=kernels, where=~undefined[:, :, None])
    return TransitionEstimate(kernels=kernels, visit_counts=sources,
                              trans_counts=trans, smoothing=float(lam),
                              undefined_rows=undefined)


def _loglik_from_counts(transitions: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Count-form scores: loglik[t, k] = sum_{s,s'} N_t(s,s') log k(s'|s).

    Transitions with zero estimated probability score -inf (the caller decides
    whether that is an error).
    """
    T = transitions.shape[0]
    K, S, _ = kernels.shape
    with np.errstate(divide="ignore"):
        logk = np.log(kernels).reshape(K, S * S)
    counts = transitions.reshape(T, S * S).astype(np.float64)
    scores = np.empty((T, K))
    for k in range(K):
        dead = np.isneginf(logk[k])
        scores[:, k] = counts[:, ~dead] @ logk[k][~dead]
        if dead.any():
            scores[counts[:, dead].sum(axis=1) > 0, k] = -np.inf
    return scores


def trajectory_loglik(traj: Sequence[int], kernel: np.ndarray) -> float:
    """sum_h log kernel(s_{h+1} | s_h), evaluated in count form.

    The count form repeats each distinct log-probability N(s,s') times and
    exactly rounds the total with math.fsum, so the result equals the
    order-dependent sequential sum bit for bit.
    """
    traj = np.asarray(traj, dtype=np.int64)
    kernel = np.asarray(kernel, dtype=np.float64)
    S = kernel.shape[0]
    used = kernel[traj[:-1], traj[1:]]
    if np.any(used <= 0.0):
        raise ZeroProbabilityTransition(
            "an observed transition has estimated probability 0 (smoothing needed)")
    pair_idx = traj[:-1] * S + traj[1:]
    counts = np.bincount(pair_idx, minlength=S * S)
    with np.errstate(divide="ignore"):
        logk = np.log(kernel.ravel())
    return math.fsum(np.repeat(logk[counts > 0], counts[counts > 0]))


def refine(counts: Counts, labels_f0: np.ndarray, K: int, lam: float, *,
           iterate: bool = False, max_rounds: int = 50) -> Stage2Result:
    """One pooling + reassignment pass (``iterate`` loops to a fixed point).

    Ties keep the incumbent label when it attains the maximum, else break to
    the lowest index, so the pass is deterministic and a likelihood-optimal
    labeling is a fixed point.
    """
    labels = np.asarray(labels_f0, dtype=np.int64).copy()
    rounds = max_rounds if iterate else 1
    total_changed = 0
    scores = None
    for _ in range(rounds):
        est = pool_estimates(counts, labels, K, lam)
        scores = _loglik_from_counts(counts.transitions, est.kernels)
        if lam == 0.0 and np.any(np.all(np.isneginf(scores), axis=1)):
            raise ZeroProbabilityTransition(
                "a trajectory has -inf score under every cluster at smoothing 0")
        best = scores.max(axis=1)
        new_labels = np.argmax(scores, axis=1).astype(np.int64)
        keep = scores[np.arange(len(labels)), labels] == best
        new_labels[keep] = labels[keep]
        changed = int((new_labels != labels).sum())
        total_changed += changed
        labels = new_labels
        if changed == 0:
            break
    return Stage2Result(labels=labels, loglik=scores, changed=total_changed,
                        smoothing=float(lam))


def oracle_classify(counts: Counts, models: Sequence[MarkovModel],
                    use_initial: bool = False) -> np.ndarray:
    """Known-kernel maximum-likelihood labels (reference classifier).

    Scores sum log p_k(s_{h+1}|s_h) over transitions, optionally plus
    log mu_k(s_1). Raises if any model assigns probability zero to an
    observed transition; ties break to the lowest model index.
    """
    if any(m.S != counts.S for m in models):
        raise StateSpaceMismatch(f"every model must have the counts' S={counts.S}")
    transitions = counts.transitions
    kernels = np.stack([m.P for m in models])
    used_any = transitions.sum(axis=0) > 0
    if np.any((kernels <= 0.0) & used_any[None, :, :]):
        raise ZeroProbabilityTransition(
            "a model assigns probability 0 to an observed transition")
    scores = _loglik_from_counts(transitions, kernels)
    if use_initial:
        with np.errstate(divide="ignore"):
            logmu = np.log(np.stack([m.mu for m in models]))
        scores = scores + logmu[:, counts.first].T
    return np.argmax(scores, axis=1).astype(np.int64)


def stage2_to_json(res: Stage2Result) -> dict:
    """JSON document; labels are 1-based on disk. The loglik matrix is dumped
    separately as binary when requested."""
    return {"labels": (res.labels + 1).tolist(), "changed": res.changed,
            "lambda": res.smoothing}


def stage2_from_json(doc: dict) -> tuple[np.ndarray, int, float]:
    return (np.asarray(doc["labels"], dtype=np.int64) - 1, int(doc["changed"]),
            float(doc["lambda"]))


def save_stage2(res: Stage2Result, path: str | Path, *, dump_loglik: bool = False) -> None:
    path = Path(path)
    path.write_text(json.dumps(stage2_to_json(res), indent=2))
    if dump_loglik:
        with open(path.with_suffix(path.suffix + ".loglik"), "wb") as fh:
            fh.write(res.loglik.astype("<f8").tobytes(order="C"))


def load_stage2(path: str | Path) -> tuple[np.ndarray, int, float]:
    return stage2_from_json(json.loads(Path(path).read_text()))
