import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mmclab import (
    SpectralConfig,
    count_transitions,
    empirical_matrix,
    gen_random_ergodic,
    gen_separation_models,
    make_instance,
    misclassification,
    oracle_classify,
    pool_estimates,
    refine,
    sample_trajectories,
    spectral_cluster,
    trajectory_loglik,
    validate_model,
)
from mmclab.errors import InputError, NumericalError
from mmclab.embedding import Counts
from mmclab.likelihood import save_stage2
from tests.conftest import gen_separation_instance, random_labels, random_models, reference_counts


def counts_of(states, S):
    return count_transitions(np.asarray(states, dtype=np.int32), S)


def reference_loglik(traj, kernel) -> float:
    """Single-trajectory reference: sum_h log kernel(s_{h+1} | s_h) in count form.

    The count form repeats each distinct log-probability N(s,s') times and
    exactly rounds the total with math.fsum, so the result equals the
    sequential fsum bit for bit. A transition of probability 0 gives -inf.
    """
    traj = np.asarray(traj, dtype=np.int64)
    kernel = np.asarray(kernel, dtype=np.float64)
    S = kernel.shape[0]
    counts = np.bincount(traj[:-1] * S + traj[1:], minlength=S * S)
    with np.errstate(divide="ignore"):
        logk = np.log(kernel.ravel())
    return math.fsum(np.repeat(logk[counts > 0], counts[counts > 0]))


def reference_trajectory_loglik(counts, kernels):
    """Exactly rounded scores: for each (t, k), the math.fsum of the products
    N_t(s,s') log kernels[k](s'|s) over the cells the trajectory uses, so -inf
    where one of them has probability 0. Every term is <= 0, so the exact sum
    has no cancellation to hide."""
    K, S, _ = kernels.shape
    N = counts.transitions.reshape(counts.T, S * S)
    with np.errstate(divide="ignore"):
        logk = np.log(kernels).reshape(K, S * S)
    scores = np.empty((counts.T, K))
    for t in range(counts.T):
        used = N[t] > 0
        for k in range(K):
            scores[t, k] = math.fsum(N[t, used] * logk[k, used])
    return scores


def assert_matches_reference(scores, ref):
    """-inf in the same cells, and within 1e-12 relative everywhere else."""
    assert np.array_equal(np.isneginf(scores), np.isneginf(ref))
    assert not np.isnan(scores).any()
    finite = ~np.isneginf(ref)
    np.testing.assert_allclose(scores[finite], ref[finite], rtol=1e-12, atol=0)


@st.composite
def pooled_cases(draw):
    """States, labels using every cluster, and a smoothing; at lam = 0 the
    pooled kernels have zero entries wherever a cluster saw no transition."""
    S = draw(st.integers(2, 5))
    K = draw(st.integers(1, 3))
    T = draw(st.integers(K, 6))
    states = draw(hnp.arrays(np.int32, (T, draw(st.integers(2, 30))),
                             elements=st.integers(0, S - 1)))
    labels = random_labels(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), T, K)
    return states, S, labels, K, draw(st.sampled_from([0.0, 0.5]))


@st.composite
def scoring_cases(draw):
    """Counts of up to 80 trajectories and K kernels, some with zero entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    S, K = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    T, H = draw(st.integers(1, 80)), draw(st.integers(2, 400))
    states = rng.integers(0, S, size=(T, H), dtype=np.int32)
    kernels = rng.dirichlet(np.ones(S), size=(K, S))
    kernels[rng.random(kernels.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = 0.0
    return states, S, kernels, rng.permutation(T)


def sampled_counts(inst, seed):
    return count_transitions(sample_trajectories(inst, seed).states, inst.S)


class TestPoolEstimates:
    def test_single_trajectory_unsmoothed(self):
        counts = counts_of([[0, 0, 1]], S=2)
        est = pool_estimates(counts, np.array([0]), K=1, lam=0.0)
        assert np.allclose(est.kernels[0, 0], [0.5, 0.5])
        assert est.undefined_rows[0].tolist() == [False, True]
        assert np.all(est.kernels[0, 1] == 0.0)

    def test_single_trajectory_smoothed(self):
        counts = counts_of([[0, 0, 1]], S=2)
        est = pool_estimates(counts, np.array([0]), K=1, lam=0.5)
        assert np.allclose(est.kernels[0, 1], [0.5, 0.5])  # pure prior row
        assert np.allclose(est.kernels[0].sum(axis=1), 1.0, atol=1e-12)

    def test_pooling_identical_trajectories_invariant(self):
        one = counts_of([[0, 1, 0, 0]], S=2)
        two = counts_of([[0, 1, 0, 0], [0, 1, 0, 0]], S=2)
        e1 = pool_estimates(one, np.zeros(1, dtype=int), 1, 0.0)
        e2 = pool_estimates(two, np.zeros(2, dtype=int), 1, 0.0)
        assert np.allclose(e1.kernels, e2.kernels, atol=1e-15)

    def test_rows_normalize_with_smoothing(self):
        rng = np.random.default_rng(0)
        counts = counts_of(rng.integers(0, 3, size=(6, 20)), S=3)
        labels = np.array([0, 0, 1, 1, 2, 2])
        for lam in (0.0, 0.5, 2.0):
            est = pool_estimates(counts, labels, 3, lam)
            defined = ~est.undefined_rows
            sums = est.kernels.sum(axis=2)[defined]
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_labels_of_wrong_length_raise(self):
        counts = counts_of([[0, 1], [1, 0]], S=2)
        with pytest.raises(InputError, match="labels length does not match"):
            pool_estimates(counts, np.array([0, 0, 0]), K=1, lam=0.5)

    def test_empty_cluster_raises(self):
        counts = counts_of([[0, 1], [1, 0]], S=2)
        with pytest.raises(InputError, match="cluster 1 has no trajectories"):
            pool_estimates(counts, np.array([0, 0]), K=2, lam=0.5)

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_label_out_of_range_raises(self, labels):
        counts = counts_of([[0, 1], [1, 0]], S=2)
        with pytest.raises(InputError, match=r"labels must lie in \[0, 1\]"):
            pool_estimates(counts, np.array(labels), K=2, lam=0.5)

    @pytest.mark.parametrize("lam", [-0.5, math.inf, math.nan])
    def test_smoothing_must_be_finite_and_nonnegative(self, lam):
        # an infinite smoothing makes every kernel entry inf / inf = NaN
        counts = counts_of([[0, 1], [1, 0]], S=2)
        with pytest.raises(InputError, match="smoothing must be finite and >= 0"):
            pool_estimates(counts, np.array([0, 1]), K=2, lam=lam)

    @settings(max_examples=200, deadline=None)
    @given(pooled_cases())
    def test_equals_pooled_reference_counts(self, case):
        states, S, labels, K, lam = case
        pooled = np.zeros((K, S, S))
        for traj, k in zip(states, labels):
            pooled[k] += reference_counts(traj, S)[1]
        denom = pooled.sum(axis=2) + lam * S
        undefined = denom == 0.0
        expected = np.zeros_like(pooled)
        np.divide(pooled + lam, denom[:, :, None], out=expected, where=~undefined[:, :, None])
        est = pool_estimates(counts_of(states, S), labels, K, lam)
        assert np.array_equal(est.undefined_rows, undefined)
        assert np.array_equal(est.kernels, expected)


    ROWS = 256

    @pytest.mark.parametrize("T", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 7])
    @pytest.mark.parametrize("K", [1, 3, 200])
    def test_pooling_pieces_match_whole_cluster_sums(self, monkeypatch, T, K):
        # the label-sorted order is cut at every change of label and every
        # PASS_BYTES // (a trajectory's S^2 one-byte counts) rows, here every
        # ROWS; these T end a cut exactly, one short of it or past it
        S = 4
        monkeypatch.setattr("mmclab.memory.PASS_BYTES", (self.ROWS + 1) * S * S - 1)
        states = np.random.default_rng(T).integers(0, S, size=(T, 30)).astype(np.int32)
        counts = counts_of(states, S)
        labels = random_labels(np.random.default_rng(K), T, K)
        pooled = np.stack([counts.transitions[labels == k].sum(axis=0) for k in range(K)])
        expected = (pooled + 0.5) / (pooled.sum(axis=2) + 0.5 * S)[:, :, None]
        assert np.array_equal(pool_estimates(counts, labels, K, 0.5).kernels, expected)

    def test_pooling_copies_no_whole_cluster(self):
        # one cluster: copying its rows would take all of the 6.4 MB counts
        T, S = 4_000, 20
        counts = counts_of(np.random.default_rng(0).integers(0, S, size=(T, 50)), S)
        tracemalloc.start()
        try:
            pool_estimates(counts, np.zeros(T, dtype=np.int64), 1, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < counts.transitions.nbytes / 4

    def test_pooling_step_within_the_pass_budget(self):
        # the `wide` shape, whose one cluster's uint16 counts take 12.8 MB: a
        # step within PASS_BYTES copies 38 trajectories' counts, 122 KB
        T, S = 4_000, 40
        states = np.random.default_rng(0).integers(0, S, size=(T, 1_000), dtype=np.uint8)
        counts = count_transitions(states, S)
        labels = np.zeros(T, dtype=np.int64)
        pool_estimates(counts, labels, 1, 0.5)  # its first call imports numpy.ma (np.union1d)
        tracemalloc.start()
        try:
            pool_estimates(counts, labels, 1, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 << 10

    def test_pooling_holds_two_kernel_sized_arrays(self):
        # the pooled int64 counts and the kernels, divided in place; a float
        # temporary of trans + lam would make it three
        K, S = 500, 40
        states = np.random.default_rng(0).integers(0, S, size=(2 * K, 50), dtype=np.uint8)
        counts = count_transitions(states, S)
        labels = np.arange(2 * K) % K
        pool_estimates(counts, labels, K, 0.5)  # its first call imports numpy.ma (np.union1d)
        tracemalloc.start()
        try:
            pool_estimates(counts, labels, K, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * K * S * S * 8


class TestTrajectoryLoglik:
    def test_hand_example(self):
        scores = trajectory_loglik(counts_of([[0, 0, 1]], S=2), np.full((1, 2, 2), 0.5))
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(2 * math.log(0.5), abs=1e-15)

    def test_count_form_equals_sequential_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            S = int(rng.integers(2, 5))
            kernel = rng.dirichlet(np.ones(S), size=S)
            traj = rng.integers(0, S, size=int(rng.integers(2, 60)))
            sequential = math.fsum(math.log(kernel[traj[h], traj[h + 1]])
                                   for h in range(len(traj) - 1))
            assert reference_loglik(traj, kernel) == sequential  # exact

    def test_monotone_in_used_probabilities(self):
        low = np.array([[0.2, 0.8], [0.3, 0.7]])
        high = np.array([[0.1, 0.9], [0.4, 0.6]])  # larger on both used entries
        scores = trajectory_loglik(counts_of([[0, 1, 0]], S=2), np.stack([low, high]))
        assert scores[0, 1] > scores[0, 0]

    def test_zero_probability_scores_neg_inf(self):
        kernel = np.array([[[1.0, 0.0], [0.5, 0.5]]])
        scores = trajectory_loglik(counts_of([[0, 1], [0, 0]], S=2), kernel)
        assert scores[0, 0] == -np.inf
        assert scores[1, 0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(pooled_cases())
    def test_matches_reference(self, case):
        states, S, labels, K, lam = case
        counts = counts_of(states, S)
        kernels = pool_estimates(counts, labels, K, lam).kernels
        scores = trajectory_loglik(counts, kernels)
        assert scores.shape == (len(states), K)
        for t, traj in enumerate(states):
            for k in range(K):
                ref = reference_loglik(traj, kernels[k])
                uses_zero = bool((kernels[k][traj[:-1], traj[1:]] == 0.0).any())
                assert np.isneginf(ref) == uses_zero
                if uses_zero:
                    assert scores[t, k] == -np.inf
                else:
                    assert math.isclose(scores[t, k], ref, rel_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_within_1e12_of_exactly_rounded_reference(self, case):
        states, S, kernels, _ = case
        counts = counts_of(states, S)
        assert_matches_reference(trajectory_loglik(counts, kernels),
                                 reference_trajectory_loglik(counts, kernels))

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_permuting_rows_permutes_scores_bit_for_bit(self, case):
        states, S, kernels, perm = case
        scores = trajectory_loglik(counts_of(states, S), kernels)
        permuted = trajectory_loglik(counts_of(states[perm], S), kernels)
        assert permuted.tobytes() == scores[perm].tobytes()  # -inf cells included


class TestNarrowCounts:
    """``count_transitions`` holds counts in ``np.min_scalar_type(H)``; scores
    read from them must be those of the same counts widened to int32."""

    @staticmethod
    def widened(counts):
        return Counts(visits=counts.visits.astype(np.int32),
                      transitions=counts.transitions.astype(np.int32), H=counts.H)

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_scores_equal_int32_scores_bit_for_bit(self, case):
        states, S, kernels, _ = case
        counts = counts_of(states, S)
        assert counts.transitions.dtype == np.min_scalar_type(counts.H)
        scores = trajectory_loglik(counts, kernels)
        # -inf cells included
        assert scores.tobytes() == trajectory_loglik(self.widened(counts), kernels).tobytes()

    @pytest.mark.parametrize("H", [255, 256, 65_535, 65_536])
    def test_a_row_of_H_minus_1_dead_transitions_scores_neg_inf(self, H):
        # a constant trajectory makes H - 1 transitions through one cell, the
        # most one row can sum in the dtype; kernel 0 gives that cell zero
        counts = count_transitions(np.zeros((1, H), dtype=np.uint8), 2)
        kernels = np.array([[[0.0, 1.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        scores = trajectory_loglik(counts, kernels)
        assert scores[0, 0] == -np.inf and scores[0, 1] == (H - 1) * math.log(0.5)
        assert scores.tobytes() == trajectory_loglik(self.widened(counts), kernels).tobytes()


class TestRefine:
    @settings(max_examples=200, deadline=None)
    @given(pooled_cases())
    def test_own_cluster_score_is_finite_without_smoothing(self, case):
        # a trajectory's counts are pooled into its own cluster's kernel, so at
        # lam = 0 refine always has a finite score to compare against
        states, S, labels, K, _ = case
        counts = counts_of(states, S)
        scores = refine(counts, labels, K, 0.0).loglik
        assert np.isfinite(scores[np.arange(len(labels)), labels]).all()

    def test_fixed_point(self):
        inst = gen_separation_instance(2, T=40, H=400)
        counts = sampled_counts(inst, 0)
        first = refine(counts, inst.decoding, 2, 0.5)
        again = refine(counts, first.labels, 2, 0.5)
        if first.changed == 0:
            assert np.array_equal(first.labels, inst.decoding)
        assert again.changed == 0 or np.array_equal(again.labels, first.labels)

    def test_optimal_labels_unchanged(self):
        inst = gen_separation_instance(2, T=60, H=1_000)
        res = refine(sampled_counts(inst, 1), inst.decoding, 2, 0.5)
        assert res.changed == 0
        assert np.array_equal(res.labels, inst.decoding)

    def test_improves_on_corrupted_labels(self):
        inst = gen_separation_instance(2, T=60, H=1_500)
        counts = sampled_counts(inst, 2)
        corrupted = inst.decoding.copy()
        corrupted[:6] = 1 - corrupted[:6]
        res = refine(counts, corrupted, 2, 0.5)
        assert misclassification(res.labels, inst.decoding) \
            <= misclassification(corrupted, inst.decoding)

    def test_label_permutation_equivariance(self):
        inst = gen_separation_instance(2, T=30, H=800)
        counts = sampled_counts(inst, 3)
        start = inst.decoding.copy()
        start[:3] = 1 - start[:3]
        res = refine(counts, start, 2, 0.5)
        swapped = refine(counts, 1 - start, 2, 0.5)
        assert np.array_equal(swapped.labels, 1 - res.labels)

    def test_iterate_mode_reaches_fixed_point(self):
        inst = gen_separation_instance(2, T=40, H=1_200)
        counts = sampled_counts(inst, 12)
        labels = inst.decoding.copy()
        labels[:8] = 1 - labels[:8]
        for _ in range(50):
            res = refine(counts, labels, 2, 0.5)
            labels = res.labels
            if res.changed == 0:
                break
        again = refine(counts, labels, 2, 0.5)
        assert again.changed == 0 and np.array_equal(again.labels, labels)

    def test_smoothed_scores_always_finite(self):
        res = refine(counts_of([[0, 0, 0], [1, 1, 1]], S=2), np.array([0, 1]), 2, 0.5)
        assert np.isfinite(res.loglik).all()

    def test_stage2_json_roundtrip(self, tmp_path):
        inst = gen_separation_instance(1, T=10, H=50)
        res = refine(sampled_counts(inst, 4), inst.decoding, 2, 0.5)
        save_stage2(res, tmp_path / "s2.json", dump_loglik=True)
        doc = json.loads((tmp_path / "s2.json").read_text())
        assert doc["labels"] == (res.labels + 1).tolist()  # 1-based on disk
        assert doc["changed"] == res.changed and doc["lambda"] == 0.5
        raw = np.fromfile(tmp_path / "s2.json.loglik", dtype="<f8")
        assert np.array_equal(raw.reshape(res.loglik.shape), res.loglik)


class TestSharedFloatCounts:
    """refine's dump holds the scores of ``trajectory_loglik``, and they and the
    oracle's labels agree with the exactly rounded reference."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_loglik_dump_and_oracle_match_fresh_conversion(self, tmp_path, lam):
        models = random_models(3, 6, seed0=11)
        inst = make_instance(models, np.full(3, 1 / 3), 300, 120)
        counts = sampled_counts(inst, 6)
        labels = inst.decoding.copy()
        labels[:40] = (labels[:40] + 1) % 3
        res = refine(counts, labels, 3, lam)
        kernels = pool_estimates(counts, labels, 3, lam).kernels
        assert res.loglik.tobytes() == trajectory_loglik(counts, kernels).tobytes()
        assert_matches_reference(res.loglik, reference_trajectory_loglik(counts, kernels))
        save_stage2(res, tmp_path / "s2.json", dump_loglik=True)
        assert (tmp_path / "s2.json.loglik").read_bytes() == res.loglik.astype("<f8").tobytes()
        kernels[1:, 0, 1] = 0.0  # and through the zero-probability cells
        assert_matches_reference(trajectory_loglik(counts, kernels),
                                 reference_trajectory_loglik(counts, kernels))
        oracle = oracle_classify(counts, models)
        ref_oracle = reference_trajectory_loglik(counts, np.stack([m.P for m in models]))
        assert np.array_equal(oracle, np.argmax(ref_oracle, axis=1))


class TestOracleClassify:
    def test_single_source_all_one_label(self):
        models = list(gen_separation_instance(2, T=2, H=2).models)
        inst = make_instance([models[0], models[0]], [0.5, 0.5], 40, 300)
        labels = oracle_classify(sampled_counts(inst, 5), models)
        assert (labels == 0).all()

    def test_identical_models_tie_to_lowest_index(self):
        m = gen_random_ergodic(3, seed=0, floor=0.05)
        inst = make_instance([m, m], [0.5, 0.5], 10, 50)
        labels = oracle_classify(sampled_counts(inst, 6), [m, m])
        assert (labels == 0).all()

    def test_zero_probability_transition_raises(self):
        # both chains are ergodic with a structural zero at (0 -> 0), which the
        # second trajectory uses: no model can have produced it
        m_a = validate_model(np.array([[0.0, 1.0], [0.5, 0.5]]), [0.5, 0.5])
        m_b = validate_model(np.array([[0.0, 1.0], [0.3, 0.7]]), [0.5, 0.5])
        counts = counts_of([[0, 1, 1], [0, 0, 1]], S=2)
        with pytest.raises(NumericalError, match="every model assigns probability 0 to a transition"):
            oracle_classify(counts, [m_a, m_b])

    def test_chains_differing_in_support_label_each_trajectory(self):
        # each trajectory scores -inf under the chain that lacks one of its
        # transitions and finitely under its own
        m_up = validate_model(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
                              np.ones(3) / 3)
        m_down = validate_model(np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
                                np.ones(3) / 3)
        counts = counts_of([[0, 1, 2, 0], [0, 2, 1, 0], [1, 1, 2, 2]], S=3)
        assert oracle_classify(counts, [m_up, m_down]).tolist() == [0, 1, 0]

    def test_model_state_space_must_match_counts(self):
        m = gen_random_ergodic(3, seed=0, floor=0.05)
        with pytest.raises(InputError, match="every model must have the counts' S=2"):
            oracle_classify(counts_of([[0, 1, 0]], S=2), [m, m])

    def test_plugin_consistency_small(self):
        models = random_models(2, 4, seed0=50, floor=0.04)
        inst = make_instance(models, np.array([0.5, 0.5]), 50, 2_000)
        counts = sampled_counts(inst, 8)
        plug_in = refine(counts, inst.decoding, 2, 1e-9)
        oracle = oracle_classify(counts, models)
        assert (plug_in.labels == oracle).mean() >= 0.98


class TestPipelinePermutation:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_permuting_trajectories_permutes_labels(self, data):
        # Where stage 1 mixes the clusters, its neighbourhoods overlap, and the
        # peel's lowest-index tie rule may pick another center after a
        # permutation (H >= 600 makes this rare, not impossible). So stage 1 is
        # checked where it recovers the decoding or collapses to one cluster,
        # and refine and the oracle on every draw, from the permuted stage-1 labels.
        if data.draw(st.booleans(), label="separation"):
            models = gen_separation_models(data.draw(st.integers(1, 3), label="S_prime"))
        else:
            S = data.draw(st.integers(2, 5), label="S")
            seed = data.draw(st.integers(0, 10_000), label="model_seed")
            models = random_models(data.draw(st.integers(2, 3), label="K"), S, seed0=seed)
        K = len(models)
        T = data.draw(st.integers(max(K, 8), 60), label="T")
        inst = make_instance(models, np.full(K, 1 / K), T, data.draw(st.integers(600, 1500),
                                                                      label="H"))
        states = sample_trajectories(inst, data.draw(st.integers(0, 2**32 - 1), label="seed")).states
        perm = np.asarray(data.draw(st.permutations(range(T)), label="perm"))
        lam = data.draw(st.sampled_from([0.0, 0.5]), label="lam")
        cfg = SpectralConfig(delta=0.1, gamma_ps=min(m.gamma_ps for m in models),
                             c_sigma=0.15, c_rho=2.0)

        def pipeline(st_):
            counts = count_transitions(st_, inst.S)
            stage1 = spectral_cluster(empirical_matrix(counts), cfg)
            return (stage1, refine(counts, stage1.labels, stage1.K_hat, lam),
                    oracle_classify(counts, models))

        s1, s2, oracle = pipeline(states)
        p1, p2, p_oracle = pipeline(states[perm])
        assert np.array_equal(p_oracle, oracle[perm])
        # refine sees stage 1 only through its labels
        q2 = refine(count_transitions(states[perm], inst.S), s1.labels[perm], s1.K_hat, lam)
        assert np.array_equal(q2.labels, s2.labels[perm])
        assert np.array_equal(q2.loglik, s2.loglik[perm])
        if not (s1.K_hat == 1 or (s1.K_hat == K and
                                  misclassification(s1.labels, inst.decoding) == 0)):
            return
        # stage 1 numbers its clusters in carve order, which a permutation may
        # change; sigma maps the permuted run's numbers onto the original's
        assert p1.K_hat == s1.K_hat
        sigma = np.full(s1.K_hat, -1)
        sigma[p1.labels] = s1.labels[perm]
        assert np.array_equal(sigma[p1.labels], s1.labels[perm])
        assert np.array_equal(sigma[p2.labels], s2.labels[perm])
        assert np.array_equal(p2.loglik[:, np.argsort(sigma)], s2.loglik[perm])

    @pytest.mark.xfail(strict=True, reason=(
        "the peel breaks a tie for the largest gain by the lowest trajectory "
        "index: trajectories 5, 6 and 7 tie at gain 4, and 5's neighbourhood "
        "is its own chain's four trajectories while 6's also holds trajectory "
        "1 of the other chain, so swapping 5 and 6 makes 6 the first center "
        "and misassigns trajectory 1 (E = 1), where the original order "
        "recovers the decoding"))
    def test_permutation_of_a_recovered_draw_keeps_stage1_labels(self):
        # a draw of the property test above on which stage 1 recovers the
        # decoding in the original order and not in the permuted one
        models = random_models(2, 2, seed0=128)
        inst = make_instance(models, np.full(2, 0.5), 8, 600)
        states = sample_trajectories(inst, 686).states
        perm = np.array([0, 1, 2, 3, 4, 6, 5, 7])
        cfg = SpectralConfig(delta=0.1, gamma_ps=min(m.gamma_ps for m in models),
                             c_sigma=0.15, c_rho=2.0)
        s1, p1 = (spectral_cluster(empirical_matrix(count_transitions(x, inst.S)), cfg)
                  for x in (states, states[perm]))
        assert s1.K_hat == 2 and misclassification(s1.labels, inst.decoding) == 0
        assert misclassification(p1.labels, inst.decoding[perm]) == 0
