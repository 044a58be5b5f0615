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

    # integer sums are exact, so the kernels do not depend on the pooling order
    trans = np.stack([counts.transitions[labels == k].sum(axis=0) for k in range(K)])
    sources = trans.sum(axis=2)  # (K, S)

    denom = sources + lam * S
    undefined = denom == 0.0
    kernels = np.zeros((K, S, S), dtype=np.float64)
    np.divide(trans + lam, denom[:, :, None], out=kernels, where=~undefined[:, :, None])
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
    # order wherever the row sits and casts the int32 counts in small buffers;
    # optimize=True hands the product to BLAS, whose rounding depends on the row
    scores = np.einsum("ts,ks->tk", N, logk, optimize=False)
    if dead.any():
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
    scores = trajectory_loglik(counts, est.kernels)
    if lam == 0.0 and np.any(np.all(np.isneginf(scores), axis=1)):
        raise ZeroProbabilityTransition(
            "a trajectory has -inf score under every cluster at smoothing 0")
    best = scores.max(axis=1)
    new_labels = np.argmax(scores, axis=1).astype(np.int64)
    keep = scores[np.arange(len(labels)), labels] == best
    new_labels[keep] = labels[keep]
    return Stage2Result(labels=new_labels, loglik=scores,
                        changed=int((new_labels != labels).sum()), smoothing=float(lam))


def oracle_classify(counts: Counts, models: Sequence[MarkovModel]) -> np.ndarray:
    """Known-kernel maximum-likelihood labels (reference classifier).

    Scores sum log p_k(s_{h+1}|s_h) over transitions. Raises if any model
    assigns probability zero to an observed transition; ties break to the
    lowest model index.
    """
    if any(m.S != counts.S for m in models):
        raise StateSpaceMismatch(f"every model must have the counts' S={counts.S}")
    scores = trajectory_loglik(counts, np.stack([m.P for m in models]))
    if np.isneginf(scores).any():
        raise ZeroProbabilityTransition(
            "a model assigns probability 0 to an observed transition")
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
