"""Adaptive spectral clustering of the empirical data matrix, without knowing K.

The stage works on the smaller Gram matrix G of the T x S^2 data matrix
(S^2 x S^2, or T x T when T < S^2), summed from blocks of the data matrix's
rows, as the rows of X below are formed, so the data matrix is never held
whole: a sweep point reads it straight from the integer counts, each pass
into one block buffer that it reuses. Its working
rank R is the count of singular values at or above sigma_thres, the
eigenvalues of G at or above sigma_thres^2; Sylvester's law of inertia gives
that count exactly from one symmetric indefinite (Bunch-Kaufman)
factorization of G - sigma_thres^2 I, made in place in one triangle of G.
Implicitly restarted Lanczos then finds only the top k = min(R + 1, n)
eigenpairs of G, n = min(T, S^2); the singular values recorded are those k,
and the rest of the spectrum is never computed. The stage builds the
spectral representation X = U_{1:R} Sigma_{1:R} (up to the sign of each
column) from the top R eigenvectors, and greedily peels maximal
neighborhoods of squared radius sigma_thres^2 until a carve falls below the
size guard c_rho * R * T / log(TH/delta). The neighborhoods are held as
packed bits, and every gain is a popcount of those bytes. Leftover
trajectories attach to the nearest carved center.

scipy, whose BLAS and LAPACK wrappers and ARPACK do the Gram sum, the
factorization and the eigenproblems, is imported by the functions that call
it, so importing this module does not load it, and ``scipy.sparse.linalg``
is loaded only when Lanczos runs. They look those routines up on
``scipy.linalg`` and ``scipy.sparse.linalg`` at each call rather than
caching them, so a routine replaced there takes effect at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import memory
from .embedding import DataMatrix
from .errors import InputError, NumericalError
from .jsondoc import boolean, field, float_array, int_vector, integer, number, read_object

__all__ = ["SpectralConfig", "Stage1Result", "sigma_threshold", "spectral_cluster",
           "save_stage1", "load_stage1"]

_STAGE1_KEYS = ("K_hat", "labels", "centers", "R_hat", "singular_values", "sigma_thres",
                "forced_first_cluster")


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
            raise InputError(f"delta must be in (0,1); got {self.delta}")
        if not 0.0 < self.gamma_ps <= 1.0:
            raise InputError(f"gamma must be in (0,1]; got {self.gamma_ps}")
        if not self.c_sigma >= 0.0:
            raise InputError(f"c_sigma must be >= 0; got {self.c_sigma}")
        if not self.c_rho > 0.0:
            raise InputError(f"c_rho must be > 0; got {self.c_rho}")


@dataclass(frozen=True)
class Stage1Result:
    K_hat: int
    labels: np.ndarray           # (T,) int, 0-based cluster labels
    centers: np.ndarray          # (K_hat,) trajectory indices t_k*
    R_hat: int
    singular_values: np.ndarray  # sigma_1 .. sigma_min(R_hat + 1, n) of W-hat, descending
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
        raise InputError("T and H must be >= 1")
    # positive: SpectralConfig keeps delta in (0, 1)
    return math.log(T) + math.log(H) - math.log(delta)


def sigma_threshold(T: int, S: int, H: int, cfg: SpectralConfig) -> float:
    """c_sigma * sqrt(T S / (H gamma_ps) * log(T H / delta))."""
    log_term = _log_term(T, H, cfg.delta)
    ratio = (T * S) / (cfg.gamma_ps * H)  # int*int / (float*int) stays exact enough
    return cfg.c_sigma * math.sqrt(float(ratio) * log_term)


def _mirror_lower(G: np.ndarray) -> None:
    """Copy the strict lower triangle of the C-ordered G into its upper
    triangle a block of rows at a time, so no second n x n array exists."""
    n = G.shape[0]
    step = memory.rows_within(memory.BLOCK_BYTES, 8 * n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        G[lo:hi, hi:] = G[hi:, lo:hi].T
        square = G[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        square[upper] = square.T[upper]


def _gram(W_hat: DataMatrix, of_columns: bool) -> np.ndarray:
    """The Gram matrix W-hat^T W-hat (S^2 x S^2) when ``of_columns``, else
    W-hat W-hat^T (T x T), from blocks of W-hat's rows read one at a time.

    The column Gram accumulates in place in G's lower triangle, one BLAS
    dsyrk call per block with beta = 1, so no block leaves a temporary the
    size of G; the row Gram fills its lower triangle a pair of row blocks at
    a time. Either triangle is then mirrored. The blocks are read into one
    buffer, and the row Gram's left blocks into a second, so no pass maps
    fresh memory per block. When W-hat fits one block, G is numpy's A^T A or
    A A^T bit for bit; over several blocks it can differ from that in the
    last bits.
    """
    import scipy.linalg

    T, width = W_hat.T, W_hat.S * W_hat.S
    step = memory.rows_within(memory.BLOCK_BYTES, 8 * width)
    buffer = np.empty((min(step, T), width))
    if of_columns:
        G = np.zeros((width, width))
        for lo in range(0, T, step):
            # G.T is G F-ordered, so dsyrk's upper triangle of it is G's lower
            # one; the call returns that same memory, which nothing keeps
            scipy.linalg.blas.dsyrk(1.0, W_hat.rows(lo, lo + step, buffer).T, beta=1.0, c=G.T,
                                    lower=0, overwrite_c=1)
    else:
        G = np.empty((T, T))
        left_buffer = np.empty_like(buffer)
        for lo in range(0, T, step):
            block = W_hat.rows(lo, lo + step, buffer)
            hi = lo + block.shape[0]
            np.matmul(block, block.T, out=G[lo:hi, lo:hi])
            for left in range(0, lo, step):
                np.matmul(block, W_hat.rows(left, left + step, left_buffer).T,
                          out=G[lo:hi, left:left + step])
    _mirror_lower(G)
    return G


def _count_below(G: np.ndarray, shift: float) -> int:
    """Number of eigenvalues of the symmetric C-ordered G below ``shift``.

    By Sylvester's law of inertia, G - shift I = L D L^T has as many negative
    eigenvalues as its block-diagonal D, whose 1 x 1 and 2 x 2 blocks are read
    off the Bunch-Kaufman factorization. LAPACK's dsytrf takes a 2 x 2 pivot
    only when |d11| < alpha d21^2 / sigma and |d22| < alpha sigma, with
    alpha = (1 + sqrt 17)/8, so the block's determinant is below
    (alpha^2 - 1) d21^2 < 0 and it has exactly one negative eigenvalue
    (Bunch & Kaufman 1977). G.T is the same matrix F-ordered, so dsytrf
    factors it in place, in G's diagonal and upper triangle.
    G is then rebuilt from its untouched strict lower triangle, by
    ``_mirror_lower``, and a saved diagonal, so no second n x n array exists.
    """
    import scipy.linalg

    n = G.shape[0]
    diagonal = G.diagonal().copy()
    G.flat[::n + 1] -= shift
    lwork = int(scipy.linalg.lapack.dsytrf_lwork(n, lower=1)[0])  # blocked; the default is not
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(G.T, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dsytrf returned info = {info}")
    # info > 0 is an exactly zero 1 x 1 pivot: an eigenvalue at the shift, not below it
    paired = ipiv < 0  # both rows of each 2 x 2 block
    below = int(np.count_nonzero((ldu.diagonal() < 0.0) & ~paired)
                + np.count_nonzero(paired) // 2)

    _mirror_lower(G)
    np.fill_diagonal(G, diagonal)
    return below


def _top_eigenpairs(G: np.ndarray, k: int) -> tuple:
    """The k largest eigenvalues of the symmetric G, descending, and their
    eigenvectors as columns in the same order.

    Implicitly restarted Lanczos (ARPACK) finds them from a fixed start vector
    to machine precision (tol=0). Where its Krylov basis, of ARPACK's default
    size max(2k + 1, 20), would span the whole space, LAPACK solves the dense
    problem instead; G is overwritten there.
    """
    n = G.shape[0]
    if n <= max(2 * k + 1, 20):
        import scipy.linalg

        w, V = scipy.linalg.eigh(G, subset_by_index=(n - k, n - 1), overwrite_a=True)
    else:
        import scipy.sparse.linalg

        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            w, V = scipy.sparse.linalg.eigsh(G, k, which="LA", v0=v0, tol=0)
        except scipy.sparse.linalg.ArpackError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc
    return w[::-1], V[:, ::-1]  # both solvers return them ascending


def spectral_cluster(W_hat: DataMatrix, cfg: SpectralConfig) -> Stage1Result:
    """Run the full stage on a T x S^2 data matrix, read a block of rows at a time.

    The greedy peel always commits its first carve (otherwise a guard larger
    than T would yield no clustering at all; the result flags this), and stops
    at the first sub-guard carve thereafter, which is discarded. Candidate
    centers are the unassigned trajectories; ties break to the lowest index.
    """
    T, S, H = W_hat.T, W_hat.S, W_hat.H
    if T == 0 or S == 0:
        raise InputError("empty data matrix")

    gram_of_columns = T >= S * S
    sigma_thres = sigma_threshold(T, S, H, cfg)
    r2 = sigma_thres * sigma_thres
    G = _gram(W_hat, gram_of_columns)
    n = G.shape[0]
    try:
        # R_hat counts the singular values >= sigma_thres, the eigenvalues of G
        # at or above r2; G is positive semidefinite, so at r2 = 0 that is all n
        R_hat = max(1, n - _count_below(G, r2)) if r2 > 0.0 else n
        eigvals, V = _top_eigenpairs(G, min(R_hat + 1, n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition of the Gram matrix did not converge") from exc
    del G
    sv = np.sqrt(np.clip(eigvals, 0.0, None))
    V = V[:, :R_hat]  # descending; column order sets the distances' rounding
    # U Sigma up to the sign of each column, which no distance below sees
    if gram_of_columns:
        X = np.empty((T, R_hat))
        step = memory.rows_within(memory.BLOCK_BYTES, 8 * S * S)
        buffer = np.empty((min(step, T), S * S))
        for lo in range(0, T, step):
            np.matmul(W_hat.rows(lo, lo + step, buffer), V, out=X[lo:lo + step])
    else:
        X = V * sv[:R_hat]

    sq_norms = (X ** 2).sum(axis=1)
    # Q_t as bit-packed rows (bit j of row t is set when j is in Q_t), one block
    # at a time, and each row's gain |Q_t|; no clip at 0 is needed, since
    # sigma_thres^2 >= 0 already admits every negative rounding of a squared distance
    neighbors = np.empty((T, (T + 7) // 8), dtype=np.uint8)
    gains = np.empty(T, dtype=np.int64)
    # the squared distances ||x_t||^2 + ||x_j||^2 - 2 x_t.x_j of a block, in
    # that order of rounding, are built in two buffers that every block reuses
    step = memory.rows_within(memory.BLOCK_BYTES, 16 * T)
    dist = np.empty((min(step, T), T))
    dots = np.empty_like(dist)
    within = np.empty(dist.shape, dtype=bool)
    for lo in range(0, T, step):
        rows = slice(lo, lo + step)
        n = min(step, T - lo)
        dist_n, dots_n = dist[:n], dots[:n]
        np.add(sq_norms[rows, None], sq_norms[None, :], out=dist_n)
        if R_hat == 1:
            # numpy's matmul skips BLAS for an inner size of 1; each dot product
            # is one correctly rounded product either way
            np.multiply(X[rows], X[:, 0], out=dots_n)
        else:
            np.matmul(X[rows], X.T, out=dots_n)
        dots_n *= 2.0
        dist_n -= dots_n
        block = np.less_equal(dist_n, r2, out=within[:n])
        own = np.arange(n)
        block[own, lo + own] = True
        neighbors[rows] = np.packbits(block, axis=1)
        gains[rows] = np.bitwise_count(neighbors[rows]).sum(axis=1, dtype=np.int64)

    # gains[t] = |Q_t minus the carved set| for every uncarved t, and -1 for
    # carved t (centers come from the uncarved pool)
    guard = cfg.c_rho * R_hat * T / _log_term(T, H, cfg.delta)
    labels = np.full(T, -1, dtype=np.int64)
    centers: list[int] = []
    forced = False
    while gains.max() >= 0:
        t_star = int(np.argmax(gains))
        carve = np.unpackbits(neighbors[t_star], count=T).view(bool) & (gains >= 0)
        if gains[t_star] < guard:
            if not centers:
                forced = True  # keep the first carve so a clustering always exists
            else:
                break
        labels[carve] = len(centers)
        centers.append(t_star)
        if forced:
            break
        # lower each uncarved row's gain by |Q_t & carve|, read from row t's own bits (Q need
        # not be symmetric bit for bit) in only the carve's bytes, a block of rows a pass
        gains[carve] = -1
        cols = np.unique(np.flatnonzero(carve) >> 3)
        mask = np.packbits(carve)[cols]
        free = np.flatnonzero(gains >= 0)
        step = memory.rows_within(memory.BLOCK_BYTES, 8 * cols.size)
        for lo in range(0, free.size, step):
            rows = free[lo:lo + step]
            carved_bytes = neighbors.take(rows[:, None] * neighbors.shape[1] + cols)
            gains[rows] -= np.bitwise_count(carved_bytes & mask).sum(axis=1, dtype=np.int64)

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
    K_hat = field(doc, "K_hat", integer, where)
    labels = field(doc, "labels", int_vector, where) - 1
    # a carve always holds its centre, so no cluster of a stage-1 result is empty
    values = np.unique(labels)
    if values.size != K_hat or (K_hat and (values[0] != 0 or values[-1] != K_hat - 1)):
        raise InputError(f"{where}: labels must take every value in [1, {K_hat}]")
    return Stage1Result(
        K_hat=K_hat,
        labels=labels,
        centers=field(doc, "centers", int_vector, where) - 1,
        R_hat=field(doc, "R_hat", integer, where),
        singular_values=field(doc, "singular_values", float_array, where),
        sigma_thres=field(doc, "sigma_thres", number, where),
        forced_first_cluster=field(doc, "forced_first_cluster", boolean, where),
    )
