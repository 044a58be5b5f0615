import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmclab import (
    count_transitions,
    delta_W_sq,
    empirical_matrix,
    gen_random_ergodic,
    make_instance,
    misclassification,
    sample_trajectories,
    sigma_threshold,
    spectral_cluster,
    SpectralConfig,
)
from mmclab.embedding import DataMatrix, embed_model
from mmclab.errors import InputError, NumericalError
from mmclab import memory, spectral
from mmclab.spectral import Stage1Result, save_stage1, load_stage1
from tests.conftest import (STAGE1_EIGEN_FAILURES, gen_separation_instance,
                            matrix_from_values, random_models)


def estimate_rank(singular_values, thresh):
    """Count of singular values >= thresh (non-strict)."""
    return int((np.asarray(singular_values, dtype=np.float64) >= thresh).sum())


def reference_spectral_cluster(W_hat, cfg):
    """Stage 1 from a full SVD of W-hat and a dense T x T neighbour matrix.

    Same threshold, rank, peel, tie rules and leftover assignment as
    ``spectral_cluster``; only the routes to the rank (a count of the whole
    spectrum here), to the spectrum and to X = U Sigma differ, so the two
    must agree on every output. ``singular_values`` holds the whole spectrum.
    """
    T, S, H = W_hat.T, W_hat.S, W_hat.H
    U, sv = np.linalg.svd(W_hat.values, full_matrices=False)[:2]
    sigma_thres = sigma_threshold(T, S, H, cfg)
    R_hat = max(1, estimate_rank(sv, sigma_thres))
    X = U[:, :R_hat] * sv[:R_hat]
    sq_norms = (X ** 2).sum(axis=1)
    neighbors = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T) <= sigma_thres * sigma_thres
    np.fill_diagonal(neighbors, True)

    guard = cfg.c_rho * R_hat * T / (math.log(T) + math.log(H) - math.log(cfg.delta))
    assigned = np.zeros(T, dtype=bool)
    labels = np.full(T, -1, dtype=np.int64)
    centers = []
    forced = False
    while not assigned.all():
        gains = (neighbors & ~assigned[None, :]).sum(axis=1)
        gains[assigned] = -1
        t_star = int(np.argmax(gains))
        carve = neighbors[t_star] & ~assigned
        if gains[t_star] < guard:
            if not centers:
                forced = True
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
        labels[leftover] = np.argmin(d, axis=1)
    return Stage1Result(K_hat=len(centers), labels=labels, centers=center_arr,
                        R_hat=R_hat, singular_values=sv, sigma_thres=sigma_thres,
                        forced_first_cluster=forced)


# rows of W-hat per block when a test sets the block budget to fit this many
BLOCK = 16


def lattice_matrix(points):
    """Data matrix (S=2, H=100) whose first columns hold the integer points."""
    values = np.zeros((points.shape[0], 4))
    values[:, :points.shape[1]] = points
    return matrix_from_values(values, S=2, H=100)


def lattice_c_sigma(T, r2):
    """c_sigma at which sigma_thres^2 = r2 for a T-row ``lattice_matrix`` at
    gamma_ps = 1 and delta = 0.1. At a half-integer r2 no squared distance
    between integer points lies within rounding of the radius, so every
    neighbour set is exact on both routes to X, provided R_hat is the rank."""
    return math.sqrt(r2) / math.sqrt(T * 2 / 100 * math.log(T * 100 / 0.1))


@functools.lru_cache(maxsize=None)
def equivalence_case(kind, T):
    """(W-hat, gamma_ps) of the separation instance (S'=2, H=2000), of the
    random S=40, K=8, H=1000 instance of the `wide` benchmark shape, seed 0,
    of T uniform points in the unit square (S=2, H=100), or of T points of
    the integer cube {0..5}^3 or of the integer line {0..29} (S=2, H=100)."""
    if kind == "square":
        values = np.zeros((T, 4))
        values[:, :2] = np.random.default_rng(0).random((T, 2))
        return matrix_from_values(values, S=2, H=100), 1.0
    if kind == "lattice":
        return lattice_matrix(np.random.default_rng(0).integers(0, 6, (T, 3))), 1.0
    if kind == "line":
        return lattice_matrix(np.random.default_rng(0).integers(0, 30, (T, 1))), 1.0
    if kind == "separation":
        inst = gen_separation_instance(2, T=T, H=2_000)
    else:
        models = [gen_random_ergodic(40, 7919 * k, 0.005) for k in range(8)]
        inst = make_instance(models, np.full(8, 1 / 8), T, 1_000)
    states = sample_trajectories(inst, 0).states
    gamma = min(m.gamma_ps for m in inst.models)
    return empirical_matrix(count_transitions(states, inst.S)), gamma


def hadamard_groups():
    """Data matrix (S=5, H=100) of 20 + 20 + 1 rows repeating rows 1, 2 and 3
    of the 16 x 16 Hadamard matrix, scaled to norms 1, 1 and 1/2, in the
    first 16 of its 25 columns. Those rows are exactly orthogonal, so the
    Gram matrix's eigenvalues are exactly 20, 20, 1/4 and 0."""
    rows = scipy.linalg.hadamard(16)[1:4] / 4.0 * np.array([[1.0], [1.0], [0.5]])
    values = np.zeros((41, 25))
    values[:, :16] = np.repeat(rows, (20, 20, 1), axis=0)
    return matrix_from_values(values, S=5, H=100)


def assert_matches_svd_reference(W_hat, cfg):
    """Stage 1 agrees with ``reference_spectral_cluster`` on every output, and
    on the top min(R_hat + 1, n) singular values, the only ones it computes,
    to 1e-10 relative; returns its result."""
    res, ref = spectral_cluster(W_hat, cfg), reference_spectral_cluster(W_hat, cfg)
    assert (res.K_hat, res.R_hat, res.forced_first_cluster) == \
        (ref.K_hat, ref.R_hat, ref.forced_first_cluster)
    assert np.array_equal(res.labels, ref.labels)
    assert np.array_equal(res.centers, ref.centers)
    assert res.sigma_thres == ref.sigma_thres
    np.testing.assert_allclose(res.singular_values, ref.singular_values[:ref.R_hat + 1],
                               rtol=1e-10, atol=0)
    return res


def truth_matrix(models, decoding, H):
    rows = np.stack([embed_model(m) for m in models])
    return matrix_from_values(rows[decoding], S=models[0].S, H=H)


def noiseless_config(models, T, H, delta=0.1):
    """Config whose threshold sits at Delta_W / 4 and whose guard admits any
    nonempty carve (noiseless-recovery regime)."""
    gamma = min(m.gamma_ps for m in models)
    base = math.sqrt(T * models[0].S / (gamma * H) * math.log(T * H / delta))
    target = math.sqrt(delta_W_sq(models)) / 4
    return SpectralConfig(delta=delta, gamma_ps=gamma, c_sigma=target / base,
                          c_rho=1e-9)


class TestSigmaThreshold:
    def test_frozen_example(self):
        cfg = SpectralConfig(delta=0.1, gamma_ps=0.5)
        val = sigma_threshold(100, 4, 10_000, cfg)
        # direct formula evaluation: 8 sqrt(0.08 * log(1e7))
        assert val == pytest.approx(8 * math.sqrt(0.08 * math.log(1e7)), abs=1e-12)
        assert val == pytest.approx(9.0845, abs=2e-3)

    def test_zero_constant_degenerates(self):
        cfg = SpectralConfig(delta=0.1, gamma_ps=0.5, c_sigma=0.0)
        assert sigma_threshold(10, 2, 100, cfg) == 0.0

    def test_inverse_sqrt_H_scaling(self):
        cfg = SpectralConfig(delta=0.1, gamma_ps=0.3)
        a, b = 1_000, 16_000
        va, vb = sigma_threshold(50, 3, a, cfg), sigma_threshold(50, 3, b, cfg)
        # sigma^2 * H / log(TH/delta) is H-independent
        assert va ** 2 * a / math.log(50 * a / 0.1) == pytest.approx(
            vb ** 2 * b / math.log(50 * b / 0.1), rel=1e-12)

    def test_nonpositive_log_argument(self):
        # unreachable through a valid config (T, H >= 1 and delta < 1 keep
        # TH/delta > 1); degenerate sizes trip the guard
        with pytest.raises(InputError, match="T and H must be >= 1"):
            sigma_threshold(0, 2, 1, SpectralConfig(delta=0.5, gamma_ps=0.5))


class TestEstimateRank:
    # the reference's rank rule, which the inertia count of spectral_cluster matches
    def test_examples(self):
        assert estimate_rank(np.array([5.0, 3.0, 1.0]), 2.0) == 2
        assert estimate_rank(np.array([5.0, 3.0, 1.0]), 10.0) == 0
        assert estimate_rank(np.array([5.0, 3.0, 3.0]), 3.0) == 3  # non-strict


BK_ALPHA = (1 + math.sqrt(17)) / 8  # the Bunch-Kaufman pivot threshold of LAPACK's dsytrf


def gram_and_shift(rng, kind):
    """The Gram matrix G = A^T A of an m x n factor A, n from 2 to 99, that is
    Gaussian, of small integers, rows repeated from at most five (low rank),
    or Gaussian with 80% zeros, and a shift that is a random fraction of G's
    largest diagonal entry."""
    n = int(rng.integers(2, 100))
    m = int(rng.integers(1, 2 * n))
    if kind == "gaussian":
        A = rng.standard_normal((m, n))
    elif kind == "integer":
        A = rng.integers(-3, 4, (m, n)).astype(float)
    elif kind == "repeated":
        rows = rng.standard_normal((int(rng.integers(1, 6)), n))
        A = rows[rng.integers(0, len(rows), m)]
    else:
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.2)
    G = A.T @ A
    return G, float(rng.uniform(0.0, 1.0) * G.diagonal().max())


class TestInertia:
    KINDS = ["gaussian", "integer", "repeated", "sparse"]

    def test_every_two_by_two_pivot_is_indefinite(self):
        # _count_below counts one negative eigenvalue per 2 x 2 block of D;
        # factor shifted Gram matrices as it does and read every block
        rng = np.random.default_rng(0)
        det, off_sq = [], []
        for i in range(400):
            G, shift = gram_and_shift(rng, self.KINDS[i % 4])
            G.flat[::len(G) + 1] -= shift
            lwork = int(scipy.linalg.lapack.dsytrf_lwork(len(G), lower=1)[0])
            ldu, ipiv, info = scipy.linalg.lapack.dsytrf(G.T, lower=1, lwork=lwork,
                                                         overwrite_a=1)
            assert info >= 0
            paired = np.flatnonzero(ipiv < 0)
            first = paired[0::2]
            assert np.array_equal(paired[1::2], first + 1)  # each block's two rows
            d, c = ldu.diagonal(), ldu[first + 1, first]
            det.append(d[first] * d[first + 1] - c * c)
            off_sq.append(c * c)
        det, off_sq = np.concatenate(det), np.concatenate(off_sq)
        assert det.size >= 1000
        assert (det < 0.0).all()
        assert (det / off_sq).max() < BK_ALPHA ** 2 - 1.0 + 1e-12

    def test_count_below_matches_the_spectrum(self):
        rng = np.random.default_rng(1)
        for i in range(200):
            G, shift = gram_and_shift(rng, self.KINDS[i % 4])
            ev = np.linalg.eigvalsh(G)
            if np.abs(ev - shift).min() < 1e-8 * max(ev[-1], 1.0):
                continue  # too close to the shift for either count to be exact
            before = G.copy()
            assert spectral._count_below(G, shift) == np.count_nonzero(ev < shift)
            assert np.array_equal(G, before)


class TestSpectralCluster:
    def test_noiseless_two_clusters(self):
        models = random_models(2, 4, seed0=1)
        decoding = np.repeat([0, 1], 20)
        W = truth_matrix(models, decoding, H=10 ** 9)
        res = spectral_cluster(W, noiseless_config(models, 40, 10 ** 9))
        assert res.K_hat == 2
        assert misclassification(res.labels, decoding) == 0
        assert not res.forced_first_cluster

    def test_all_rows_identical(self):
        m = random_models(1, 3, seed0=2)[0]
        W = truth_matrix([m, m], np.repeat([0, 1], 10), H=10 ** 9)
        res = spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                 c_sigma=1e-3, c_rho=1e-9))
        assert res.K_hat == 1
        assert len(set(res.labels.tolist())) == 1

    def test_empty_input(self):
        W = matrix_from_values(np.zeros((0, 4)), S=2, H=10)
        with pytest.raises(InputError, match="empty data matrix"):
            spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0))

    def test_single_trajectory(self):
        # T = 1 < S^2 gives a 1 x 1 Gram matrix, whose reduction leaves no reflectors
        W = matrix_from_values(np.array([[0.3, 0.4, 0.0, 0.0]]), S=2, H=10)
        res = spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=1e-3, c_rho=1e-9))
        assert (res.K_hat, res.R_hat, res.labels.tolist()) == (1, 1, [0])
        assert res.singular_values.tolist() == pytest.approx([0.5], rel=1e-15)

    def test_default_guard_forces_single_cluster_at_desk_scale(self):
        # at desk scale 32 R T / log(TH/delta) exceeds T: the peel is forced
        inst = gen_separation_instance(2, T=60, H=2_000)
        trajs = sample_trajectories(inst, 0)
        W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0))
        assert res.K_hat == 1
        assert res.forced_first_cluster

    def test_permutation_equivariance(self):
        inst = gen_separation_instance(2, T=50, H=3_000)
        trajs = sample_trajectories(inst, 3)
        W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
        base = spectral_cluster(W_hat, cfg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(50)
        permuted = matrix_from_values(W_hat.values[perm], S=W_hat.S, H=W_hat.H)
        res = spectral_cluster(permuted, cfg)
        assert misclassification(res.labels, base.labels[perm]) == 0

    def test_determinism_and_sign_flip_invariance(self):
        inst = gen_separation_instance(1, T=30, H=500)
        trajs = sample_trajectories(inst, 9)
        W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
        a = spectral_cluster(W_hat, cfg)
        b = spectral_cluster(W_hat, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        # column sign flips of the spectral representation preserve distances
        U, sv, _ = np.linalg.svd(W_hat.values, full_matrices=False)
        X = U[:, :a.R_hat] * sv[:a.R_hat]
        flipped = X * np.where(np.arange(a.R_hat) % 2 == 0, -1.0, 1.0)
        d0 = ((X[:, None] - X[None, :]) ** 2).sum(-1)
        d1 = ((flipped[:, None] - flipped[None, :]) ** 2).sum(-1)
        assert np.allclose(d0, d1, atol=1e-12)

    def test_every_trajectory_labeled_centers_consistent(self):
        inst = gen_separation_instance(2, T=80, H=2_500)
        trajs = sample_trajectories(inst, 5)
        W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                     c_sigma=0.15, c_rho=2.0))
        assert (res.labels >= 0).all() and (res.labels < res.K_hat).all()
        assert len(set(res.centers.tolist())) == res.K_hat
        for k, c in enumerate(res.centers):
            assert res.labels[c] == k

    @pytest.mark.parametrize("T, hub", [(600, 0), (600, 255), (600, 256), (600, 599),
                                        (601, 600)],
                             ids=["0", "255", "256", "599", "T601-600"])
    def test_every_row_block_is_filled(self, monkeypatch, T, hub):
        # rank-1 points at +-0.9 sigma_thres and one hub at 0: only the hub's
        # neighbourhood holds every trajectory, so it must be the one center;
        # the budget makes the fill's blocks 256 rows, so hubs 255 and 256 sit
        # on either side of a block edge; T = 601 leaves 7 pad bits in each
        # packed neighbour row
        monkeypatch.setattr(memory, "BLOCK_BYTES", 16 * T * 256)
        H, delta = 100, 0.1
        base = math.sqrt(T * 2 / H * math.log(T * H / delta))
        cfg = SpectralConfig(delta=delta, gamma_ps=1.0, c_sigma=1.0 / base, c_rho=1e-9)
        x = np.where(np.arange(T) % 2 == 0, 0.9, -0.9) * sigma_threshold(T, 2, H, cfg)
        x[hub] = 0.0
        values = np.zeros((T, 4))
        values[:, 0] = x
        res = spectral_cluster(matrix_from_values(values, S=2, H=H), cfg)
        assert res.K_hat == 1 and res.centers.tolist() == [hub]

    @staticmethod
    def traced_peak(T):
        """tracemalloc peak of stage 1 on T uniform random rows in S^2 = 4 columns."""
        rng = np.random.default_rng(0)
        W = matrix_from_values(rng.random((T, 4)), S=2, H=100)
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.05, c_rho=1e-9)
        tracemalloc.start()
        try:
            spectral_cluster(W, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_T_by_T_float_matrix(self):
        T = 3_000
        assert self.traced_peak(T) < T * T * 8

    def test_no_T_by_T_boolean_matrix(self):
        # the neighbour matrix is bit-packed (T^2 / 8 bytes), and the gains are
        # counted once while it is filled and lowered per carve in row blocks,
        # so not even one T x T bool array exists
        T = 12_000
        assert self.traced_peak(T) < T * T

    def test_stage1_from_counts_holds_no_T_by_S2_array(self):
        # W-hat would take T S^2 * 8 = 12.8 MB whole, against S^4 * 8 = 1.3 MB
        # for its Gram matrix and T^2 / 8 = 2 MB for the packed neighbours
        T, S = 4_000, 20
        counts = count_transitions(np.random.default_rng(0).integers(0, S, size=(T, 50)), S)
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=1.0, c_rho=1e-9)
        tracemalloc.start()
        try:
            spectral_cluster(empirical_matrix(counts), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * S * S * 8

    @STAGE1_EIGEN_FAILURES
    def test_eigensolver_failure_raises(self, monkeypatch, module, name, breaker, n):
        monkeypatch.setattr(module, name, breaker(getattr(module, name)))
        W = matrix_from_values(np.eye(n), S=math.isqrt(n), H=10)
        with pytest.raises(NumericalError, match="did not converge"):
            spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0))

    @pytest.mark.parametrize("kind, T, c_sigma, c_rho", [
        ("separation", 20, 0.15, 2.0),
        ("separation", 200, 0.15, 2.0),
        ("separation", 2_000, 0.15, 2.0),
        ("separation", 200, 8.0, 32.0),
        ("random", 500, 0.15, 0.2),
        ("random", 500, 0.02, 0.2),
        ("random", 2_000, 0.15, 0.2),
        ("random", 2_000, 0.02, 0.2),
        ("square", 601, 0.008, 1e-9),
        ("lattice", 601, lattice_c_sigma(601, 2.5), 1e-9),
        ("line", 601, lattice_c_sigma(601, 2.5), 1e-9),
    ])
    def test_gram_route_matches_svd_reference(self, monkeypatch, kind, T, c_sigma, c_rho):
        # T = 500 < S^2 = 1600 takes the T x T Gram matrix, every other case
        # the S^2 x S^2 one; separation at T = 2000 collapses to K_hat = 1, and
        # the analysis constants force the first carve; the square's radius of
        # about 0.1 and near-zero guard make dozens of carves, each of which
        # must count only uncarved neighbours; so do the lattice's radius of
        # sqrt(2.5), and its ties between equal gains, and on the line they
        # do so at R_hat = 1, where the fill's product has an inner size of 1
        W_hat, gamma = equivalence_case(kind, T)
        cfg = SpectralConfig(delta=0.1, gamma_ps=gamma, c_sigma=c_sigma, c_rho=c_rho)
        res = assert_matches_svd_reference(W_hat, cfg)
        # a 1-byte budget takes one row per block: of W-hat, of G mirrored, of
        # the neighbour fill and of each peel pass
        monkeypatch.setattr(memory, "BLOCK_BYTES", 1)
        row_by_row = spectral_cluster(W_hat, cfg)
        assert (row_by_row.K_hat, row_by_row.R_hat, row_by_row.forced_first_cluster) == \
            (res.K_hat, res.R_hat, res.forced_first_cluster)
        assert np.array_equal(row_by_row.labels, res.labels)
        assert np.array_equal(row_by_row.centers, res.centers)
        np.testing.assert_allclose(row_by_row.singular_values, res.singular_values,
                                   rtol=1e-10, atol=0)

    @pytest.mark.parametrize("S_prime", [1, 4], ids=["column-gram", "row-gram"])
    def test_passes_read_w_hat_into_reused_buffers(self, monkeypatch, S_prime):
        # every block of W-hat is read into a buffer the pass allocated once:
        # the column Gram's and X's one each, the row Gram's two
        S = 2 * S_prime
        inst = gen_separation_instance(S_prime, T=3 * BLOCK + 7, H=2_000)
        W_hat = empirical_matrix(count_transitions(sample_trajectories(inst, 0).states, S))
        outs = []

        def build(rows, out):
            outs.append(out)
            return W_hat.build(rows, out)

        recorded = DataMatrix(T=W_hat.T, S=S, H=W_hat.H, build=build)
        monkeypatch.setattr(memory, "BLOCK_BYTES", 8 * S * S * BLOCK)
        spectral_cluster(recorded, SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15,
                                                  c_rho=2.0))
        assert len(outs) > 4  # four blocks a pass
        assert all(out is not None for out in outs)
        assert len({id(out) for out in outs}) <= 2

    @pytest.mark.parametrize("S_prime", [1, 4], ids=["column-gram", "row-gram"])
    @pytest.mark.parametrize("T", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("c_sigma, c_rho", [(0.15, 2.0), (0.05, 0.5)])
    def test_row_blocks_match_svd_reference(self, monkeypatch, S_prime, T, c_sigma, c_rho):
        # separation at S = 2 (T >= S^2 = 4: the S^2 x S^2 Gram matrix) and at
        # S = 8 (T < S^2 = 64: the T x T one), read from the counts BLOCK rows
        # at a time; the first constants recover both clusters at R_hat = 2,
        # the second take R_hat up to 14
        S = 2 * S_prime
        inst = gen_separation_instance(S_prime, T=T, H=2_000)
        W_hat = empirical_matrix(count_transitions(sample_trajectories(inst, 0).states, S))
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=c_sigma, c_rho=c_rho)
        one_block = spectral_cluster(W_hat, cfg)
        monkeypatch.setattr(memory, "BLOCK_BYTES", 8 * S * S * BLOCK)
        res = assert_matches_svd_reference(W_hat, cfg)
        ref = reference_spectral_cluster(W_hat, cfg)
        np.testing.assert_allclose(res.singular_values, ref.singular_values[:ref.R_hat + 1],
                                   rtol=0, atol=1e-12 * ref.singular_values[0])
        if T <= BLOCK:
            assert res.singular_values.tobytes() == one_block.singular_values.tobytes()
            assert res.labels.tobytes() == one_block.labels.tobytes()

    @pytest.mark.parametrize("of_columns", [True, False], ids=["column-gram", "row-gram"])
    @pytest.mark.parametrize("T", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_gram_from_row_blocks(self, monkeypatch, of_columns, T):
        # one block is numpy's product bit for bit; more sum in another order
        S = 2 if of_columns else 8
        monkeypatch.setattr(memory, "BLOCK_BYTES", 8 * S * S * BLOCK)
        A = np.random.default_rng(T).random((T, S * S))
        G = spectral._gram(matrix_from_values(A, S=S, H=100), of_columns)
        expected = A.T @ A if of_columns else A @ A.T
        assert np.array_equal(G, G.T)
        if T <= BLOCK:
            assert G.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(G, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", ["repeated-top", "c_sigma-0", "rank-n-1"])
    def test_rank_edge_cases_match_svd_reference(self, case):
        if case == "repeated-top":
            # the top eigenvalue 20 is repeated exactly, which a single Lanczos
            # vector meets only once in exact arithmetic; the 25 x 25 Gram
            # matrix and k = R_hat + 1 = 3 put it on Lanczos, and sigma_thres^2
            # = 1/2 puts the rank at 2 and separates the three groups
            W_hat, gamma, R_hat, thresh = hadamard_groups(), 1.0, 2, 0.5 ** 0.5
        else:
            # at c_sigma = 0 every singular value counts, and halfway between
            # the two smallest all but the last; with k = n the random case's
            # 500 x 500 Gram matrix takes the dense solver
            W_hat, gamma = equivalence_case("random", 500)
            sv = np.linalg.svd(W_hat.values, compute_uv=False)
            R_hat = 500 if case == "c_sigma-0" else 499
            thresh = 0.0 if case == "c_sigma-0" else (sv[-2] + sv[-1]) / 2
        unit = sigma_threshold(W_hat.T, W_hat.S, W_hat.H, SpectralConfig(0.1, gamma, 1.0))
        res = assert_matches_svd_reference(W_hat, SpectralConfig(
            delta=0.1, gamma_ps=gamma, c_sigma=thresh / unit, c_rho=1e-9))
        assert res.R_hat == R_hat
        if case == "repeated-top":
            assert res.K_hat == 3
            assert res.singular_values[:2] == pytest.approx([20 ** 0.5] * 2, rel=1e-12)

    def test_zero_threshold_counts_the_rounded_zero_eigenvalues(self):
        # rank 3 in 25 columns: the Gram matrix's 22 zero eigenvalues round to
        # either side of 0, and at c_sigma = 0 each still counts, as
        # sqrt(max(lambda, 0)) >= 0 does; the SVD reference cannot be matched
        # here, since those singular values have no relative accuracy
        res = spectral_cluster(hadamard_groups(), SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                                 c_sigma=0.0, c_rho=1e-9))
        assert res.R_hat == 25 and res.singular_values.shape == (25,)

    # every carve lowers the gains of the rows it leaves; with a near-zero
    # guard the peel carves each lattice site's neighbourhood in turn, tens to
    # hundreds of times, and repeated points and the lattice's symmetry make
    # ties between equal gains that must break to the lowest index
    @given(T=st.integers(2, 300), dims=st.integers(1, 4), side=st.integers(2, 8),
           r2=st.sampled_from([0.5, 1.5, 2.5, 3.5]), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_peel_matches_dense_recount_on_lattice(self, T, dims, side, r2, seed):
        W = lattice_matrix(np.random.default_rng(seed).integers(0, side, (T, dims)))
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=lattice_c_sigma(T, r2),
                             c_rho=1e-9)
        ref = reference_spectral_cluster(W, cfg)
        assume(ref.R_hat == np.linalg.matrix_rank(W.values))
        res = spectral_cluster(W, cfg)
        assert (res.K_hat, res.forced_first_cluster) == (ref.K_hat, ref.forced_first_cluster)
        assert np.array_equal(res.centers, ref.centers)
        assert np.array_equal(res.labels, ref.labels)

    def test_stage1_json_roundtrip(self, tmp_path):
        inst = gen_separation_instance(1, T=20, H=300)
        trajs = sample_trajectories(inst, 1)
        W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                     c_sigma=0.2, c_rho=2.0))
        save_stage1(res, tmp_path / "s1.json")
        again = load_stage1(tmp_path / "s1.json")
        assert np.array_equal(again.labels, res.labels)
        assert again.K_hat == res.K_hat
        assert again.sigma_thres == res.sigma_thres

    # stored labels are 1-based, and stage 1 leaves no cluster empty; a huge
    # K_hat is refused without allocating K_hat entries
    @pytest.mark.parametrize("K_hat, labels", [(2, [0, 1, 2]), (2, [1, 1, 1]), (2, [1, 2, 3]),
                                               (2, []), (10**12, [1, 2])],
                             ids=["zero", "empty-cluster", "above-K_hat", "no-labels",
                                  "huge-K_hat"])
    def test_stage1_labels_must_take_every_cluster(self, tmp_path, K_hat, labels):
        doc = {"K_hat": K_hat, "labels": labels, "centers": [1, 2], "R_hat": 1,
               "singular_values": [1.0], "sigma_thres": 0.5, "forced_first_cluster": False}
        path = tmp_path / "s1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=re.escape(f"{path}: labels must take every "
                                                       f"value in [1, {K_hat}]")):
            load_stage1(path)

    @pytest.mark.xfail(strict=True, reason=(
        "sigma_thres grows as sqrt(T) while the spacing of the cluster centres "
        "in X does not, so more trajectories at a fixed H collapse stage 1 to "
        "one cluster; the abstract's horizon condition "
        "H = Omega~(gamma_ps^-1 (S^2 v pi_min^-1)) does not depend on T"))
    def test_more_trajectories_keep_both_clusters(self):
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
        K_hats = []
        for T in (200, 2_000):
            inst = gen_separation_instance(2, T=T, H=2_000)
            states = sample_trajectories(inst, 0).states
            K_hats.append(spectral_cluster(empirical_matrix(count_transitions(states, inst.S)),
                                           cfg).K_hat)
        assert K_hats == [2, 2]


class TestStage1ErrorEnvelope:
    def test_error_below_envelope_on_separation_instance(self):
        # statistical one-sided check of the stage-one guarantee shape:
        # misclassification <= 2^13 * T R S / (H gamma Delta_W^2) * log(TH/delta).
        # Constants are tuned so sigma_thres < Delta_W / 4 at a tractable H.
        T, H, delta = 200, 70_000, 0.1
        inst = gen_separation_instance(2, T=T, H=H)
        dW2 = delta_W_sq(inst.models)
        cfg = SpectralConfig(delta=delta, gamma_ps=1.0, c_sigma=0.25, c_rho=2.0)
        assert sigma_threshold(T, inst.S, H, cfg) < math.sqrt(dW2) / 4
        envelope = 2 ** 13 * T * 2 * inst.S / (H * 1.0 * dW2) * math.log(T * H / delta)
        errs = []
        for seed in range(20):
            trajs = sample_trajectories(inst, seed)
            W_hat = empirical_matrix(count_transitions(trajs.states, inst.S))
            res = spectral_cluster(W_hat, cfg)
            errs.append(misclassification(res.labels, inst.decoding))
        assert all(e <= envelope for e in errs)
        assert np.mean(errs) / T < 0.05  # the bound is loose; recovery is near exact
