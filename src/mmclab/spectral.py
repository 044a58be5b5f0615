"""Adaptive spectral clustering of the empirical data matrix, without knowing K.

The stage reduces the smaller Gram matrix of the T x S^2 data matrix (S^2 x
S^2, or T x T when T < S^2) to tridiagonal form once, in place, and takes
both the data matrix's singular spectrum (every eigenvalue) and the top R
eigenvectors from that one reduction. It thresholds the spectrum to pick a
working rank R, builds the spectral representation X = U_{1:R} Sigma_{1:R}
(up to the sign of each column) from those R eigenvectors alone, and
greedily peels maximal neighborhoods of squared radius sigma_thres^2 until a
carve falls below the size guard c_rho * R * T / log(TH/delta). Leftover
trajectories attach to the nearest carved center.

scipy, whose LAPACK wrappers and tridiagonal eigensolvers do the reduction
and its eigenproblems, is imported by the functions that call it, so
importing this module does not load it. They look those routines up on
``scipy.linalg`` at each call rather than caching them, so a routine replaced
there takes effect at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embedding import DataMatrix
from .errors import EmptyInput, InvalidRange, NonpositiveLogArgument, SvdFailure
from .jsondoc import boolean, field, float_array, int_vector, integer, number, read_object

__all__ = ["SpectralConfig", "Stage1Result", "sigma_threshold", "estimate_rank",
           "spectral_cluster", "save_stage1", "load_stage1"]

_STAGE1_KEYS = ("K_hat", "labels", "centers", "R_hat", "singular_values", "sigma_thres",
                "forced_first_cluster")
_ROW_BLOCK = 256  # rows of the neighbour matrix filled or counted per pass, so that work stays O(T)
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits per byte


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
        # each message names the constant by its sweep-config key (gamma for gamma_ps)
        if not 0.0 < self.delta < 1.0:
            raise InvalidRange(f"delta must be in (0,1); got {self.delta}")
        if not 0.0 < self.gamma_ps <= 1.0:
            raise InvalidRange(f"gamma must be in (0,1]; got {self.gamma_ps}")
        if not self.c_sigma >= 0.0:
            raise InvalidRange(f"c_sigma must be >= 0; got {self.c_sigma}")
        if not self.c_rho > 0.0:
            raise InvalidRange(f"c_rho must be > 0; got {self.c_rho}")


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


def _unassigned_gains(neighbors: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """|Q_t minus the assigned set| for every unassigned t, and -1 for assigned
    t (centers come from the unassigned pool), counted one row block at a time."""
    free = np.packbits(~assigned)  # pad bits stay 0, like the neighbour rows'
    gains = np.full(assigned.shape[0], -1, dtype=np.int64)
    candidates = np.flatnonzero(~assigned)
    for lo in range(0, candidates.size, _ROW_BLOCK):
        rows = candidates[lo:lo + _ROW_BLOCK]
        gains[rows] = _POPCOUNT[neighbors[rows] & free].sum(axis=1)
    return gains


def _tridiagonalize(G: np.ndarray) -> tuple:
    """Reduce the symmetric C-ordered G to Q^T G Q = tridiag(d, e) in place.

    G.T is the same matrix F-ordered, so LAPACK's dsytrd overwrites G itself;
    Q = H(1)...H(n-1) is left as Householder vectors below the subdiagonal of
    the (n-1) x (n-1) block c[1:, :n-1], with their scales in tau. That block
    is moved, still in G's buffer, to a contiguous F-ordered (n-1) x (n-1)
    array at its start, since dormqr would copy an offset view.
    """
    import scipy.linalg

    n = G.shape[0]
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(n, lower=1)[0])  # blocked; the default is not
    c, d, e, tau, info = scipy.linalg.lapack.dsytrd(G.T, lower=1, lwork=lwork, overwrite_a=1)
    _check_info("dsytrd", info)
    flat = c.reshape(-1, order="F")  # a view: c is F-contiguous
    m = n - 1
    # column j moves from [j n + 1, j n + n) down to [j m, j m + m); in increasing
    # j no column lands on one that has not moved yet
    for j in range(m):
        flat[j * m:(j + 1) * m] = flat[j * n + 1:(j + 1) * n]
    return d, e, flat[:m * m].reshape((m, m), order="F"), tau


def _back_transform(reflectors: np.ndarray, tau: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Q Z for the Q that ``_tridiagonalize`` left in (reflectors, tau).

    Q fixes the first coordinate, so row 0 of Z stays and dormqr applies
    H(1)...H(n-1) to the rest.
    """
    import scipy.linalg

    if Z.shape[0] == 1:
        return Z
    ormqr = scipy.linalg.lapack.dormqr
    work, info = ormqr("L", "N", reflectors, tau, Z[1:], -1)[1:]
    _check_info("dormqr workspace query", info)
    QZ, _, info = ormqr("L", "N", reflectors, tau, Z[1:], int(work[0]))
    _check_info("dormqr", info)
    return np.vstack([Z[:1], QZ])


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} returned info = {info}")


def spectral_cluster(W_hat: DataMatrix, cfg: SpectralConfig) -> Stage1Result:
    """Run the full stage on a T x S^2 data matrix.

    The greedy peel always commits its first carve (otherwise a guard larger
    than T would yield no clustering at all; the result flags this), and stops
    at the first sub-guard carve thereafter, which is discarded. Candidate
    centers are the unassigned trajectories; ties break to the lowest index.
    """
    import scipy.linalg

    T = W_hat.T
    if T == 0 or W_hat.values.size == 0:
        raise EmptyInput("empty data matrix")
    S, H = W_hat.S, W_hat.H

    A = W_hat.values
    gram_of_columns = T >= A.shape[1]
    sigma_thres = sigma_threshold(T, S, H, cfg)
    try:
        # the Gram matrix is reduced once, in place: its memory ends up holding Q
        d, e, reflectors, tau = _tridiagonalize(A.T @ A if gram_of_columns else A @ A.T)
        sv = np.sqrt(np.clip(scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")[::-1],
                             0.0, None))  # descending
        R_hat = max(1, estimate_rank(sv, sigma_thres))
        # only the eigenvectors X needs: the top R_hat, which come ascending
        n = d.shape[0]
        Z = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(n - R_hat, n - 1))[1]
        V = _back_transform(reflectors, tau, Z)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure("eigendecomposition of the Gram matrix did not converge") from exc
    del reflectors
    V = V[:, ::-1]  # descending like the spectrum; column order sets the distances' rounding
    # U Sigma up to the sign of each column, which no distance below sees
    X = A @ V if gram_of_columns else V * sv[:R_hat]

    sq_norms = (X ** 2).sum(axis=1)
    r2 = sigma_thres * sigma_thres
    # Q_t as bit-packed rows (bit j of row t is set when j is in Q_t), one block
    # at a time; no clip at 0 is needed, since sigma_thres^2 >= 0 already
    # admits every negative rounding of a squared distance
    neighbors = np.empty((T, (T + 7) // 8), dtype=np.uint8)
    for lo in range(0, T, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        block = sq_norms[rows, None] + sq_norms[None, :] - 2.0 * (X[rows] @ X.T) <= r2
        own = np.arange(block.shape[0])
        block[own, lo + own] = True
        neighbors[rows] = np.packbits(block, axis=1)

    guard = cfg.c_rho * R_hat * T / _log_term(T, H, cfg.delta)
    assigned = np.zeros(T, dtype=bool)
    labels = np.full(T, -1, dtype=np.int64)
    centers: list[int] = []
    forced = False
    while not assigned.all():
        gains = _unassigned_gains(neighbors, assigned)
        t_star = int(np.argmax(gains))
        carve = np.unpackbits(neighbors[t_star], count=T).view(bool) & ~assigned
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
    doc, where = read_object(path, _STAGE1_KEYS), str(path)
    return Stage1Result(
        K_hat=field(doc, "K_hat", integer, where),
        labels=field(doc, "labels", int_vector, where) - 1,
        centers=field(doc, "centers", int_vector, where) - 1,
        R_hat=field(doc, "R_hat", integer, where),
        singular_values=field(doc, "singular_values", float_array, where),
        sigma_thres=field(doc, "sigma_thres", number, where),
        forced_first_cluster=field(doc, "forced_first_cluster", boolean, where),
    )
