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

from . import memory
from .chains import MarkovModel
from .embedding import Counts
from .errors import (EmptyCluster, InvalidRange, LengthMismatch, StateSpaceMismatch,
                     ZeroProbabilityTransition)

__all__ = ["TransitionEstimate", "Stage2Result", "pool_estimates",
           "trajectory_loglik", "refine", "oracle_classify", "save_stage2"]


@dataclass(frozen=True)
class TransitionEstimate:
    """Pooled per-cluster kernel estimates with additive smoothing.

    With smoothing 0, rows whose pooled source count is zero are undefined;
    they are stored as all-zero rows and flagged in ``undefined_rows``.
    """

    kernels: np.ndarray         # (K, S, S)
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
    if not 0.0 <= lam < math.inf:
        raise InvalidRange(f"smoothing must be finite and >= 0; got {lam}")
    S = counts.S
    if K < 1 or labels.min() < 0 or labels.max() >= K:
        raise EmptyCluster(f"labels must lie in [0, {K - 1}]")
    counts_per_cluster = np.bincount(labels, minlength=K)
    if np.any(counts_per_cluster == 0):
        empty = int(np.argmin(counts_per_cluster))
        raise EmptyCluster(f"cluster {empty} has no trajectories")

    # a cluster's rows are summed in pieces of the label-sorted order, each one
    # run of equal labels cut so that its copy of the counts fits the pass budget,
    # or holds one trajectory; integer sums are exact, so the kernels do not
    # depend on the pooling order
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    step = memory.rows_within(memory.PASS_BYTES, counts.transitions[0].nbytes)
    cuts = np.union1d(np.flatnonzero(np.diff(sorted_labels)) + 1,
                      np.arange(0, counts.T, step)).tolist()
    trans = np.zeros((K, S, S), dtype=np.int64)
    for lo, hi in zip(cuts, cuts[1:] + [counts.T]):
        trans[sorted_labels[lo]] += counts.transitions[order[lo:hi]].sum(axis=0, dtype=np.int64)
    sources = trans.sum(axis=2)  # (K, S)

    denom = sources + lam * S
    undefined = denom == 0.0
    # the kernels are divided in place from trans + lam, so no third (K, S, S)
    # array exists; an undefined row is lam = 0 and no counts, 0 / 1 = +0.0
    kernels = np.add(trans, lam, dtype=np.float64)
    denom[undefined] = 1.0
    kernels /= denom[:, :, None]
    return TransitionEstimate(kernels=kernels, undefined_rows=undefined)


def trajectory_loglik(counts: Counts, kernels: np.ndarray) -> np.ndarray:
    """Count-form scores of every trajectory under every kernel, shape (T, K):
    loglik[t, k] = sum_{s,s'} N_t(s,s') log kernels[k](s'|s).

    A trajectory that uses a transition of probability zero under kernel k
    scores -inf there; the caller decides whether that is an error.
    """
    K, S, _ = kernels.shape
    dead = kernels.reshape(K, S * S) == 0.0
    logk = np.log(kernels.reshape(K, S * S), out=np.zeros(dead.shape), where=~dead)
    N = counts.transitions.reshape(counts.T, S * S)
    # optimize=False keeps einsum's own loop, which sums a row's terms in the same
    # order wherever the row sits and casts the narrow counts in small buffers;
    # optimize=True hands the product to BLAS, whose rounding depends on the row
    scores = np.einsum("ts,ks->tk", N, logk, optimize=False)
    if dead.any():
        # summed in the counts' dtype, which holds a row's total of H - 1
        scores[np.einsum("ts,ks->tk", N, dead, optimize=False) > 0] = -np.inf
    return scores


def refine(counts: Counts, labels_f0: np.ndarray, K: int, lam: float) -> Stage2Result:
    """One pooling + reassignment pass.

    Ties keep the incumbent label when it attains the maximum, else break to
    the lowest index, so the pass is deterministic and a likelihood-optimal
    labeling is a fixed point.
    """
    labels = np.asarray(labels_f0, dtype=np.int64)
    est = pool_estimates(counts, labels, K, lam)
    # finite under each trajectory's own cluster, even at lam = 0: its counts
    # are pooled into that cluster's kernel, so every transition it makes has
    # positive probability there
    scores = trajectory_loglik(counts, est.kernels)
    best = scores.max(axis=1)
    new_labels = np.argmax(scores, axis=1).astype(np.int64)
    keep = scores[np.arange(len(labels)), labels] == best
    new_labels[keep] = labels[keep]
    return Stage2Result(labels=new_labels, loglik=scores,
                        changed=int((new_labels != labels).sum()), smoothing=float(lam))


def oracle_classify(counts: Counts, models: Sequence[MarkovModel]) -> np.ndarray:
    """Known-kernel maximum-likelihood labels (reference classifier).

    Scores sum log p_k(s_{h+1}|s_h) over transitions. Raises only for a
    trajectory that every model scores -inf, so chains may differ in support;
    ties break to the lowest model index.
    """
    if any(m.S != counts.S for m in models):
        raise StateSpaceMismatch(f"every model must have the counts' S={counts.S}")
    scores = trajectory_loglik(counts, np.stack([m.P for m in models]))
    if np.isneginf(scores).all(axis=1).any():
        raise ZeroProbabilityTransition(
            "every model assigns probability 0 to a transition of one trajectory")
    return np.argmax(scores, axis=1).astype(np.int64)


def save_stage2(res: Stage2Result, path: str | Path, *, dump_loglik: bool = False) -> None:
    """JSON document with 1-based labels; with ``dump_loglik`` the (T, K) scores
    also go to ``<path>.loglik`` as row-major little-endian f64."""
    path = Path(path)
    doc = {"labels": (res.labels + 1).tolist(), "changed": res.changed,
           "lambda": res.smoothing}
    path.write_text(json.dumps(doc, indent=2))
    if dump_loglik:
        with open(path.with_suffix(path.suffix + ".loglik"), "wb") as fh:
            fh.write(res.loglik.astype("<f8").tobytes(order="C"))
