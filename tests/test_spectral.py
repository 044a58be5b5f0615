import functools
import math
import tracemalloc

import numpy as np
import pytest

from mmclab import (
    build_matrices,
    count_transitions,
    delta_W_sq,
    empirical_matrix,
    estimate_rank,
    gen_random_ergodic,
    make_instance,
    misclassification,
    sample_trajectories,
    sigma_threshold,
    spectral_cluster,
    SpectralConfig,
)
from mmclab.embedding import DataMatrix, embed_model
from mmclab.errors import EmptyInput, NonpositiveLogArgument, SvdFailure
from mmclab.spectral import Stage1Result, save_stage1, load_stage1
from tests.conftest import STAGE1_EIGEN_FAILURES, gen_separation_instance, random_models


def reference_spectral_cluster(W_hat, cfg):
    """Stage 1 from a full SVD of W-hat and a dense T x T neighbour matrix.

    Same threshold, rank, peel, tie rules and leftover assignment as
    ``spectral_cluster``; only the route to the spectrum and to X = U Sigma
    differs, so the two must agree on every output.
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


@functools.lru_cache(maxsize=None)
def equivalence_case(kind, T):
    """(W-hat, gamma_ps) of the separation instance (S'=2, H=2000), of the
    random S=40, K=8, H=1000 instance of the `wide` benchmark shape, seed 0,
    or of T uniform points in the unit square (S=2, H=100)."""
    if kind == "square":
        values = np.zeros((T, 4))
        values[:, :2] = np.random.default_rng(0).random((T, 2))
        return DataMatrix(values=values, S=2, H=100), 1.0
    if kind == "separation":
        inst = gen_separation_instance(2, T=T, H=2_000)
    else:
        models = [gen_random_ergodic(40, 7919 * k, 0.005) for k in range(8)]
        inst = make_instance(models, np.full(8, 1 / 8), T, 1_000)
    states = sample_trajectories(inst, 0).states
    gamma = min(m.gamma_ps for m in inst.models)
    return empirical_matrix(count_transitions(states, inst.S)), gamma


def truth_matrix(models, decoding, H):
    rows = np.stack([embed_model(m) for m in models])
    return DataMatrix(values=rows[decoding].copy(), S=models[0].S, H=H)


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
        with pytest.raises(NonpositiveLogArgument):
            sigma_threshold(0, 2, 1, SpectralConfig(delta=0.5, gamma_ps=0.5))


class TestEstimateRank:
    def test_examples(self):
        assert estimate_rank(np.array([5.0, 3.0, 1.0]), 2.0) == 2
        assert estimate_rank(np.array([5.0, 3.0, 1.0]), 10.0) == 0
        assert estimate_rank(np.array([5.0, 3.0, 3.0]), 3.0) == 3  # non-strict


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
        W = DataMatrix(values=np.zeros((0, 4)), S=2, H=10)
        with pytest.raises(EmptyInput):
            spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0))

    def test_single_trajectory(self):
        # T = 1 < S^2 gives a 1 x 1 Gram matrix, whose reduction leaves no reflectors
        W = DataMatrix(values=np.array([[0.3, 0.4, 0.0, 0.0]]), S=2, H=10)
        res = spectral_cluster(W, SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=1e-3, c_rho=1e-9))
        assert (res.K_hat, res.R_hat, res.labels.tolist()) == (1, 1, [0])
        assert res.singular_values.tolist() == pytest.approx([0.5], rel=1e-15)

    def test_default_guard_forces_single_cluster_at_desk_scale(self):
        # at desk scale 32 R T / log(TH/delta) exceeds T: the peel is forced
        inst = gen_separation_instance(2, T=60, H=2_000)
        trajs = sample_trajectories(inst, 0)
        _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0))
        assert res.K_hat == 1
        assert res.forced_first_cluster

    def test_permutation_equivariance(self):
        inst = gen_separation_instance(2, T=50, H=3_000)
        trajs = sample_trajectories(inst, 3)
        _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
        cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
        base = spectral_cluster(W_hat, cfg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(50)
        permuted = DataMatrix(values=W_hat.values[perm].copy(), S=W_hat.S, H=W_hat.H)
        res = spectral_cluster(permuted, cfg)
        assert misclassification(res.labels, base.labels[perm]) == 0

    def test_determinism_and_sign_flip_invariance(self):
        inst = gen_separation_instance(1, T=30, H=500)
        trajs = sample_trajectories(inst, 9)
        _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
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
        _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                     c_sigma=0.15, c_rho=2.0))
        assert (res.labels >= 0).all() and (res.labels < res.K_hat).all()
        assert len(set(res.centers.tolist())) == res.K_hat
        for k, c in enumerate(res.centers):
            assert res.labels[c] == k

    @pytest.mark.parametrize("T, hub", [(600, 0), (600, 255), (600, 256), (600, 599),
                                        (601, 600)],
                             ids=["0", "255", "256", "599", "T601-600"])
    def test_every_row_block_is_filled(self, T, hub):
        # rank-1 points at +-0.9 sigma_thres and one hub at 0: only the hub's
        # neighbourhood holds every trajectory, so it must be the one center;
        # T = 601 leaves 7 pad bits in each packed neighbour row
        H, delta = 100, 0.1
        base = math.sqrt(T * 2 / H * math.log(T * H / delta))
        cfg = SpectralConfig(delta=delta, gamma_ps=1.0, c_sigma=1.0 / base, c_rho=1e-9)
        x = np.where(np.arange(T) % 2 == 0, 0.9, -0.9) * sigma_threshold(T, 2, H, cfg)
        x[hub] = 0.0
        values = np.zeros((T, 4))
        values[:, 0] = x
        res = spectral_cluster(DataMatrix(values=values, S=2, H=H), cfg)
        assert res.K_hat == 1 and res.centers.tolist() == [hub]

    @staticmethod
    def traced_peak(T):
        """tracemalloc peak of stage 1 on T uniform random rows in S^2 = 4 columns."""
        rng = np.random.default_rng(0)
        W = DataMatrix(values=rng.random((T, 4)), S=2, H=100)
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
        # the neighbour matrix is bit-packed (T^2 / 8 bytes) and the per-carve
        # gains are counted in row blocks, so not even one T x T bool array exists
        T = 12_000
        assert self.traced_peak(T) < T * T

    @STAGE1_EIGEN_FAILURES
    def test_eigensolver_failure_raises_svd_failure(self, monkeypatch, module, name, breaker):
        monkeypatch.setattr(module, name, breaker(getattr(module, name)))
        W = DataMatrix(values=np.eye(4), S=2, H=10)
        with pytest.raises(SvdFailure, match="did not converge"):
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
    ])
    def test_gram_route_matches_svd_reference(self, kind, T, c_sigma, c_rho):
        # T = 500 < S^2 = 1600 takes the T x T Gram matrix, every other case
        # the S^2 x S^2 one; separation at T = 2000 collapses to K_hat = 1, and
        # the analysis constants force the first carve; the square's radius of
        # about 0.1 and near-zero guard make dozens of carves, each of which
        # must count only unassigned neighbours
        W_hat, gamma = equivalence_case(kind, T)
        cfg = SpectralConfig(delta=0.1, gamma_ps=gamma, c_sigma=c_sigma, c_rho=c_rho)
        res, ref = spectral_cluster(W_hat, cfg), reference_spectral_cluster(W_hat, cfg)
        assert (res.K_hat, res.R_hat, res.forced_first_cluster) == \
            (ref.K_hat, ref.R_hat, ref.forced_first_cluster)
        assert np.array_equal(res.labels, ref.labels)
        assert np.array_equal(res.centers, ref.centers)
        assert res.sigma_thres == ref.sigma_thres
        sv, ref_sv = res.singular_values, ref.singular_values
        assert sv.shape == ref_sv.shape
        assert np.abs(sv - ref_sv).max() <= 1e-12 * ref_sv[0]
        top = slice(0, ref.R_hat + 1)
        np.testing.assert_allclose(sv[top], ref_sv[top], rtol=1e-10, atol=0)

    def test_stage1_json_roundtrip(self, tmp_path):
        inst = gen_separation_instance(1, T=20, H=300)
        trajs = sample_trajectories(inst, 1)
        _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
        res = spectral_cluster(W_hat, SpectralConfig(delta=0.1, gamma_ps=1.0,
                                                     c_sigma=0.2, c_rho=2.0))
        save_stage1(res, tmp_path / "s1.json")
        again = load_stage1(tmp_path / "s1.json")
        assert np.array_equal(again.labels, res.labels)
        assert again.K_hat == res.K_hat
        assert again.sigma_thres == res.sigma_thres


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
            _, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
            res = spectral_cluster(W_hat, cfg)
            errs.append(misclassification(res.labels, inst.decoding))
        assert all(e <= envelope for e in errs)
        assert np.mean(errs) / T < 0.05  # the bound is loose; recovery is near exact
