import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from mmclab import gen_random_ergodic, gen_separation_models, make_instance, validate_model
from mmclab.embedding import DataMatrix
from mmclab.errors import DimensionMismatch
from mmclab.simgen import TrajectorySet


@pytest.fixture
def two_state():
    """The workhorse 2-state chain: pi = (2/3, 1/3), gamma_ps = 0.51, t_mix = 3."""
    return validate_model([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])


def random_models(n, S, seed0=0, floor=None):
    floor = floor if floor is not None else 1.0 / (4 * S)
    return [gen_random_ergodic(S, seed0 + 31 * i, floor) for i in range(n)]


def gen_separation_instance(S_prime, T=2, H=2, alpha=(0.5, 0.5)):
    """Two-cluster instance of the 3:1 separation construction on S = 2 S' states."""
    return make_instance(gen_separation_models(S_prime), np.asarray(alpha), T, H)


def matrix_from_values(values, S, H):
    """The data matrix whose rows are the given (T, S^2) array, read through a
    read-only view of it, or copied into the leading rows of ``out``."""
    values = np.asarray(values, dtype=np.float64).view()
    if values.ndim != 2 or values.shape[1] != S * S:
        raise DimensionMismatch(f"values must be a (T, {S * S}) array; got {values.shape}")
    values.setflags(write=False)

    def build(rows, out):
        block = values[rows]
        if out is None:
            return block
        out = out[:block.shape[0]]
        out[...] = block
        return out

    return DataMatrix(T=values.shape[0], S=S, H=H, build=build)


def random_labels(rng, T, K):
    """Random label vector guaranteed to use all K labels."""
    labels = rng.integers(0, K, size=T)
    labels[rng.permutation(T)[:K]] = np.arange(K)
    return labels


def _raise_linalg_error(original):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic failure")
    return boom


def _raise_no_convergence(original):
    def boom(A, k, *args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("synthetic failure", np.empty(0),
                                                      np.empty((A.shape[0], 0)))
    return boom


def _negative_info(original):
    def failed(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], -1)  # LAPACK wrappers return info last
    return failed


# each call of stage 1's eigendecomposition made to fail in turn, with the size
# n of a Gram matrix that reaches it: the rank's factorization reports an
# illegal argument, Lanczos (n > 20 at rank 1) does not converge, and the dense
# solver of a small Gram matrix raises LinAlgError itself
STAGE1_EIGEN_FAILURES = pytest.mark.parametrize("module, name, breaker, n", [
    (scipy.linalg.lapack, "dsytrf", _negative_info, 4),
    (scipy.sparse.linalg, "eigsh", _raise_no_convergence, 36),
    (scipy.linalg, "eigh", _raise_linalg_error, 4),
], ids=["dsytrf-info", "eigsh-no-convergence", "scipy-eigh"])


def reference_sample_trajectories(instance, seed, chunk=2048):
    """The sampler's original step: count the CDF entries below u by comparing
    u against the whole row, one (T, S) array per step.

    Draws the first state by a separate count over mu's CDF, from the first
    uniform of each (seed, t) Philox stream, and each later state from the next
    uniforms, refilled ``chunk`` at a time. ``sample_trajectories`` consumes the
    same streams in the same order, so the two must agree state for state.
    """
    T, H, S = instance.T, instance.H, instance.S
    f = instance.decoding
    mu_cdf = np.cumsum(np.stack([m.mu for m in instance.models]), axis=1)
    P_cdf = np.cumsum(np.stack([m.P for m in instance.models]), axis=2)
    mu_cdf[:, -1] = 1.0
    P_cdf[:, :, -1] = 1.0
    gens = [np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
            for t in range(T)]
    states = np.empty((T, H), dtype=np.int32)
    u0 = np.array([g.random() for g in gens])
    states[:, 0] = (u0[:, None] > mu_cdf[f]).sum(axis=1)
    cdf_flat = P_cdf.reshape(-1, S)  # row f*S + s is the CDF of p^{(f)}(.|s)
    base = f * S
    cur = states[:, 0]
    U = np.empty((T, min(chunk, H - 1)))
    h = 1
    while h < H:
        width = min(chunk, H - h)
        for t, g in enumerate(gens):
            g.random(out=U[t, :width])
        for j in range(width):
            cur = (U[:, j, None] > cdf_flat[base + cur]).sum(axis=1)
            states[:, h + j] = cur
        h += width
    return TrajectorySet(states=states, seed=int(seed))


def reference_pseudo_spectral_gap_terms(P: np.ndarray, pi: np.ndarray, k_max: int) -> np.ndarray:
    """(1/k)(1 - lambda_2((B^k)^T B^k)) with B = D^{1/2} P D^{-1/2}, by one
    eigensolve per k."""
    d = np.sqrt(pi)
    B = (d[:, None] * P) / d[None, :]
    terms = np.empty(k_max)
    Bk = np.eye(P.shape[0])
    for k in range(1, k_max + 1):
        Bk = Bk @ B
        ev = np.linalg.eigvalsh(Bk.T @ Bk)
        lam2 = float(ev[-2]) if len(ev) > 1 else 0.0  # eigvalsh sorts ascending
        terms[k - 1] = (1.0 - min(lam2, 1.0)) / k
    return terms


def reference_counts(traj, S):
    """Per-trajectory reference: visit and transition bincounts of one row."""
    traj = np.asarray(traj, dtype=np.int64)
    visits = np.bincount(traj, minlength=S)
    transitions = np.bincount(traj[:-1] * S + traj[1:], minlength=S * S).reshape(S, S)
    return visits, transitions


def reference_brute_force_misclassification(f_hat, f):
    """E_T by explicit enumeration of all K! relabelings sigma, maximizing
    sum_b C[sigma(b), b] over the confusion matrix C."""
    f_hat, f = np.asarray(f_hat), np.asarray(f)
    K = int(max(f_hat.max(), f.max())) + 1
    C = np.zeros((K, K), dtype=np.int64)
    np.add.at(C, (f_hat, f), 1)
    return len(f) - max(sum(int(C[sigma[b], b]) for b in range(K))
                        for sigma in itertools.permutations(range(K)))


def reference_misclassification(f_hat, f):
    """E_T by scipy's optimal assignment on the confusion matrix padded to
    max(K_hat, K) squared: the smaller label set gains empty clusters."""
    from scipy.optimize import linear_sum_assignment

    f_hat, f = np.asarray(f_hat, dtype=np.int64), np.asarray(f, dtype=np.int64)
    K = int(max(f_hat.max(), f.max())) + 1
    C = np.zeros((K, K), dtype=np.int64)
    np.add.at(C, (f_hat, f), 1)
    row, col = linear_sum_assignment(-C)
    return len(f) - int(C[row, col].sum())


def reference_necessary_condition(eps, delta, T, H, D, alpha_min):
    """delta >= (1/2)(alpha_min/(16 e eps))^{eps T} exp(-4 eps T (H-1) D),
    evaluated in log space (an arithmetic path independent of the rearranged
    form in ``lower_bound_check``; the two must agree on pass/fail)."""
    c = eps * T
    log_rhs = -math.log(2.0) + c * math.log(alpha_min / (16.0 * math.e * eps)) \
        - 4.0 * c * (H - 1) * D
    return math.log(delta) >= log_rhs


def reference_two_inf_distance(a, b):
    """2->infinity distance: max over rows of the l2 row difference."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).sum(axis=1)).max())
