"""Adaptive SVD clustering of the empirical data matrix, without knowing K.

The stage thresholds the singular spectrum to pick a working rank, builds the
spectral representation X = U_{1:R} Sigma_{1:R}, and greedily peels maximal
neighborhoods of squared radius sigma_thres^2 until a carve falls below the
size guard c_rho * R * T / log(TH/delta). Leftover trajectories attach to the
nearest carved center.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import DataMatrix
from .errors import EmptyInput, InvalidRange, NonpositiveLogArgument, SvdFailure

__all__ = ["SpectralConfig", "Stage1Result", "sigma_threshold", "estimate_rank",
           "spectral_cluster", "save_stage1", "load_stage1"]


@dataclass(frozen=True)
class SpectralConfig:
    """Knobs of the spectral stage.

    ``c_sigma`` and ``c_rho`` default to the analysis constants (8 and 32);
    at desk scale those are extremely conservative (the size guard can exceed
    T, collapsing the output to a single forced cluster), so experiments
    typically dial them down.
    """

    delta: float
    gamma_ps: float
    c_sigma: float = 8.0
    c_rho: float = 32.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise InvalidRange(f"delta must be in (0,1); got {self.delta}")
        if not 0.0 < self.gamma_ps <= 1.0:
            raise InvalidRange(f"gamma_ps must be in (0,1]; got {self.gamma_ps}")
        if self.c_sigma < 0 or self.c_rho <= 0:
            raise InvalidRange("threshold constants must be positive (c_sigma >= 0)")


@dataclass(frozen=True)
class Stage1Result:
    K_hat: int
    labels: np.ndarray           # (T,) int, 0-based cluster labels
    centers: np.ndarray          # (K_hat,) trajectory indices t_k*
    R_hat: int
    singular_values: np.ndarray  # full spectrum of W-hat, descending
    sigma_thres: float
    forced_first_cluster: bool = False

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.centers.setflags(write=False)
        self.singular_values.setflags(write=False)


def _log_term(T: int, H: int, delta: float) -> float:
    # math.log handles arbitrarily large python ints, so huge noiseless-limit
    # horizons are fine here even when float(H) would overflow.
    if T < 1 or H < 1:
        raise NonpositiveLogArgument("T and H must be >= 1")
    val = math.log(T) + math.log(H) - math.log(delta)
    if val <= 0.0:
        raise NonpositiveLogArgument(f"log(T*H/delta) = {val} is not positive")
    return val


def sigma_threshold(T: int, S: int, H: int, cfg: SpectralConfig) -> float:
    """c_sigma * sqrt(T S / (H gamma_ps) * log(T H / delta))."""
    log_term = _log_term(T, H, cfg.delta)
    ratio = (T * S) / (cfg.gamma_ps * H)  # int*int / (float*int) stays exact enough
    return cfg.c_sigma * math.sqrt(float(ratio) * log_term)


def estimate_rank(singular_values: np.ndarray, thresh: float) -> int:
    """Count of singular values >= thresh (non-strict; values sorted descending)."""
    sv = np.asarray(singular_values, dtype=np.float64)
    return int((sv >= thresh).sum())


def spectral_cluster(W_hat: DataMatrix, cfg: SpectralConfig) -> Stage1Result:
    """Run the full stage on a T x S^2 data matrix.

    The greedy peel always commits its first carve (otherwise a guard larger
    than T would yield no clustering at all; the result flags this), and stops
    at the first sub-guard carve thereafter, which is discarded. Candidate
    centers are the unassigned trajectories; ties break to the lowest index.
    """
    T = W_hat.T
    if T == 0 or W_hat.values.size == 0:
        raise EmptyInput("empty data matrix")
    S, H = W_hat.S, W_hat.H

    try:
        U, sv = np.linalg.svd(W_hat.values, full_matrices=False)[:2]
    except np.linalg.LinAlgError as exc:
        raise SvdFailure("SVD of the data matrix did not converge") from exc

    sigma_thres = sigma_threshold(T, S, H, cfg)
    R_hat = max(1, estimate_rank(sv, sigma_thres))
    X = U[:, :R_hat] * sv[:R_hat]
    del U  # the peel needs only X; free the T x min(T, S^2) factor before the T x T work

    sq_norms = (X ** 2).sum(axis=1)
    # Q_t as rows; no clip at 0 is needed, since sigma_thres^2 >= 0 already
    # admits every negative rounding of a squared distance
    neighbors = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T) <= sigma_thres * sigma_thres
    np.fill_diagonal(neighbors, True)

    guard = cfg.c_rho * R_hat * T / _log_term(T, H, cfg.delta)
    assigned = np.zeros(T, dtype=bool)
    labels = np.full(T, -1, dtype=np.int64)
    centers: list[int] = []
    forced = False
    while not assigned.all():
        gains = (neighbors & ~assigned[None, :]).sum(axis=1)
        gains[assigned] = -1  # centers come from the unassigned pool
        t_star = int(np.argmax(gains))
        carve = neighbors[t_star] & ~assigned
        if gains[t_star] < guard:
            if not centers:
                forced = True  # keep the first carve so a clustering always exists
            else:
                break
        labels[carve] = len(centers)
        centers.append(t_star)
        assigned |= carve
        if forced:
            break

    center_arr = np.asarray(centers, dtype=np.int64)
    leftover = np.flatnonzero(labels < 0)
    if leftover.size:
        d = np.sqrt(((X[leftover, None, :] - X[center_arr][None, :, :]) ** 2).sum(axis=2))
        labels[leftover] = np.argmin(d, axis=1)  # argmin takes the lowest index on ties
    return Stage1Result(K_hat=len(centers), labels=labels, centers=center_arr,
                        R_hat=R_hat, singular_values=sv, sigma_thres=sigma_thres,
                        forced_first_cluster=forced)


def save_stage1(res: Stage1Result, path: str | Path) -> None:
    """JSON document; labels and centers are 1-based on disk."""
    doc = {
        "K_hat": res.K_hat,
        "labels": (res.labels + 1).tolist(),
        "centers": (res.centers + 1).tolist(),
        "R_hat": res.R_hat,
        "sigma_thres": res.sigma_thres,
        "singular_values": res.singular_values.tolist(),
        "forced_first_cluster": res.forced_first_cluster,
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_stage1(path: str | Path) -> Stage1Result:
    doc = json.loads(Path(path).read_text())
    return Stage1Result(
        K_hat=int(doc["K_hat"]),
        labels=np.asarray(doc["labels"], dtype=np.int64) - 1,
        centers=np.asarray(doc["centers"], dtype=np.int64) - 1,
        R_hat=int(doc["R_hat"]),
        singular_values=np.asarray(doc["singular_values"], dtype=np.float64),
        sigma_thres=float(doc["sigma_thres"]),
        forced_first_cluster=bool(doc["forced_first_cluster"]),
    )
