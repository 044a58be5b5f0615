import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra import numpy as hnp

from mmclab import (
    build_matrices,
    count_transitions,
    embed_model,
    empirical_matrix,
    make_instance,
    sample_trajectories,
    validate_model,
)
from mmclab.memory import PASS_BYTES
from mmclab.errors import InputError
from tests.conftest import (
    gen_separation_instance,
    matrix_from_values,
    random_models,
    reference_counts,
    reference_two_inf_distance,
)


def one(traj, S):
    """Counts of a single trajectory (T = 1)."""
    return count_transitions(np.asarray([traj]), S)


@st.composite
def state_arrays(draw):
    S = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 40)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return draw(hnp.arrays(dtype, shape, elements=st.integers(0, S - 1))), S


class TestCountStats:
    def test_basic_hand_count(self):
        # states (1,1,2) in 1-based notation = (0,0,1) here
        cs = one([0, 0, 1], S=2)
        assert cs.visits.tolist() == [[2, 1]]
        assert cs.transitions.tolist() == [[[1, 1], [0, 0]]]
        assert cs.H == 3 and cs.T == 1 and cs.S == 2

    def test_constant_trajectory(self):
        cs = one([0, 0, 0, 0], S=2)
        assert cs.visits.tolist() == [[4, 0]]
        assert cs.transitions[0, 0, 0] == 3

    def test_alternating(self):
        cs = one([0, 1, 0, 1], S=2)
        assert cs.visits.tolist() == [[2, 2]]
        assert cs.transitions[0, 0, 1] == 2
        assert cs.transitions[0, 1, 0] == 1

    def test_count_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            S = int(rng.integers(2, 6))
            H = int(rng.integers(2, 50))
            cs = one(rng.integers(0, S, size=H), S)
            assert cs.visits.sum() == H
            assert cs.transitions.sum() == H - 1
            outgoing = cs.transitions[0].sum(axis=1)
            assert np.all((outgoing == cs.visits[0]) | (outgoing == cs.visits[0] - 1))

    def test_state_out_of_range(self):
        with pytest.raises(InputError, match=r"state indices must lie in \[0, 1\]"):
            one([0, 3], S=2)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_state_at_S_or_negative_rejected(self, bad):
        # either would fold into a neighbouring count cell if it were counted
        states = np.zeros((3, 5), dtype=np.int32)
        states[1, 2] = bad
        with pytest.raises(InputError, match=r"state indices must lie in \[0, 1\]"):
            count_transitions(states, 2)

    @pytest.mark.parametrize("shape", [(4,), (2, 1), (2, 3, 4)])
    def test_shape_rejected(self, shape):
        with pytest.raises(InputError, match=r"states must be a \(T, H\) array with H >= 2"):
            count_transitions(np.zeros(shape, dtype=np.int32), 2)

    def test_counts_are_read_only_and_narrow(self):
        for H, dtype in [(3, np.uint8), (300, np.uint16)]:
            states = np.random.default_rng(H).integers(0, 2, size=(2, H)).astype(np.int32)
            cs = count_transitions(states, 2)
            assert cs.visits.dtype == cs.transitions.dtype == np.min_scalar_type(H) == dtype
            for arr in (cs.visits, cs.transitions):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("H, dtype", [(255, np.uint8), (256, np.uint16),
                                          (65_535, np.uint16), (65_536, np.uint32)])
    def test_count_dtype_holds_H_at_its_edges(self, H, dtype):
        # a constant trajectory visits one state H times, the largest count
        # there is; the second row alternates, so its counts are about H / 2
        constant = np.broadcast_to(np.uint8(1), (1, H))
        alternating = np.arange(H, dtype=np.uint8)[None, :] % 2
        cs = count_transitions(np.vstack([constant, alternating]), 2)
        assert cs.transitions.dtype == cs.visits.dtype == dtype
        assert cs.visits.tolist() == [[0, H], [(H + 1) // 2, H // 2]]
        assert cs.transitions.tolist() == [[[0, 0], [0, H - 1]],
                                           [[0, H // 2], [(H - 1) // 2, 0]]]

    def test_horizon_beyond_int32_counts_rejected(self):
        # a zero-stride view: 2^31 + 1 states without allocating them; they are
        # out of range too, so a range scan run before the guard would raise
        # the state-range error (after reading every one)
        states = np.broadcast_to(np.int32(2), (1, 2**31 + 1))
        with pytest.raises(InputError, match="H = 2147483649 exceeds the int32 count range"):
            count_transitions(states, 2)

    @pytest.mark.parametrize("T", [255, 256, 257, 513])
    def test_block_edges_match_reference(self, T):
        # at this H the budget holds the int64 index, H - 1 entries each, of 256
        # trajectories; these T end a pass exactly, one short of it or one past it
        S, H = 5, PASS_BYTES // (8 * 256) + 1
        states = np.random.default_rng(T).integers(0, S, size=(T, H)).astype(np.int32)
        cs = count_transitions(states, S)
        for t in range(T):
            visits, transitions = reference_counts(states[t], S)
            assert np.array_equal(cs.visits[t], visits)
            assert np.array_equal(cs.transitions[t], transitions)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("budget", ["1", "H-2", "H-1", "H", "3H+1"])
    def test_counts_do_not_depend_on_the_block_budget(self, monkeypatch, dtype, budget):
        T, H, S = 7, 40, 5
        states = np.random.default_rng(1).integers(0, S, size=(T, H)).astype(dtype)
        # one trajectory's pass index takes 8 (H - 1) bytes; the budget is a byte,
        # those bytes less one, exactly or plus one (ids H-2, H-1 and H, after
        # the index's H - 1 entries), or three trajectories' bytes
        one = 8 * (H - 1)
        budget = {"1": 1, "H-2": one - 1, "H-1": one, "H": one + 1, "3H+1": 3 * one}[budget]
        monkeypatch.setattr("mmclab.memory.PASS_BYTES", budget)
        cs = count_transitions(states, S)
        for t in range(T):
            visits, transitions = reference_counts(states[t], S)
            assert np.array_equal(cs.visits[t], visits)
            assert np.array_equal(cs.transitions[t], transitions)

    def test_no_whole_int64_flat_index(self):
        T, H, S = 2_000, 500, 10
        states = np.random.default_rng(0).integers(0, S, size=(T, H)).astype(np.int32)
        tracemalloc.start()
        try:
            count_transitions(states, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * (H - 1) * 8

    # a pass allocates its int64 index and bincount within the budget, or within
    # one trajectory's 8 (H - 1) or 8 S^2 bytes: at the decay shape, where the
    # whole index would take 32 MB, a pass of one trajectory takes 160 KB; with
    # many states a pass over all T would make a 24 MB bincount, against 80 KB
    @pytest.mark.parametrize("T, H, S, budgets", [(200, 20_000, 4, 2), (300, 3, 100, 5)])
    def test_pass_buffers_within_the_budget(self, T, H, S, budgets):
        states = np.random.default_rng(0).integers(0, S, size=(T, H)).astype(np.int64)
        tracemalloc.start()
        try:
            cs = count_transitions(states, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = cs.visits.nbytes + cs.transitions.nbytes
        assert peak - kept < budgets * max(PASS_BYTES, 8 * (H - 1), 8 * S * S)

    @given(state_arrays())
    @settings(max_examples=100, deadline=None)
    def test_count_transitions_matches_reference(self, drawn):
        states, S = drawn
        T, H = states.shape
        cs = count_transitions(states, S)
        assert (cs.T, cs.S, cs.H) == (T, S, H)
        for t in range(T):
            visits, transitions = reference_counts(states[t], S)
            assert np.array_equal(cs.visits[t], visits)
            assert np.array_equal(cs.transitions[t], transitions)
        assert (cs.visits.sum(axis=1) == H).all()
        assert (cs.transitions.sum(axis=(1, 2)) == H - 1).all()


def reference_pi_from_embedding(L, S):
    """Recover pi from a model embedding: summing row s over s' gives
    sqrt(pi(s)) (rows of P sum to one), so pi(s) is the squared row sum."""
    return L.reshape(S, S).sum(axis=1) ** 2


def reference_kernel_from_embedding(L, S):
    """Recover P(s,s') = L(s,s') / sqrt(pi(s)) from a model embedding."""
    root_pi = L.reshape(S, S).sum(axis=1)
    return L.reshape(S, S) / root_pi[:, None]


class TestEmbedModel:
    def test_two_state_frozen_values(self, two_state):
        vec = embed_model(two_state)
        # composition oracle: stationary solve then entrywise scaling
        expected = (np.sqrt(two_state.pi)[:, None] * two_state.P).ravel()
        assert np.array_equal(vec, expected)
        assert vec == pytest.approx([0.73485, 0.08165, 0.11547, 0.46188], abs=1e-5)

    def test_uniform_chain(self):
        m = validate_model(np.full((2, 2), 0.5), [0.5, 0.5])
        assert embed_model(m) == pytest.approx([np.sqrt(0.5) * 0.5] * 4, abs=1e-15)
        assert np.sqrt(0.5) * 0.5 == pytest.approx(0.35355, abs=1e-5)

    def test_injectivity_on_200_random_pairs(self):
        models = random_models(400, 3, seed0=10)
        for i in range(0, 400, 2):
            a, b = models[i], models[i + 1]
            assert np.abs(embed_model(a) - embed_model(b)).max() > 0

    def test_reconstruction(self):
        for m in random_models(5, 4, seed0=3):
            L = embed_model(m)
            assert np.allclose(reference_pi_from_embedding(L, 4), m.pi, atol=1e-12)
            assert np.allclose(reference_kernel_from_embedding(L, 4), m.P, atol=1e-12)

    def test_equal_embeddings_imply_equal_models(self):
        m = random_models(1, 3, seed0=77)[0]
        L1, L2 = embed_model(m), embed_model(m)
        if np.abs(L1 - L2).max() <= 1e-12:
            assert np.allclose(reference_kernel_from_embedding(L1, 3),
                               reference_kernel_from_embedding(L2, 3), atol=1e-10)


def embed_one(traj, S):
    return empirical_matrix(one(traj, S)).values[0]


class TestEmbedTrajectory:
    def test_hand_example(self):
        vec = embed_one([0, 0, 1], S=2)
        assert vec == pytest.approx([1 / np.sqrt(6), 1 / np.sqrt(6), 0, 0], abs=1e-12)

    def test_constant_trajectory(self):
        assert embed_one([0, 0, 0, 0], S=2).tolist() == [0.75, 0.0, 0.0, 0.0]

    def test_coordinates_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            S = int(rng.integers(2, 5))
            traj = rng.integers(0, S, size=int(rng.integers(2, 40)))
            vec = embed_one(traj, S).reshape(S, S)
            visits, _ = reference_counts(traj, S)
            bound = np.sqrt(np.maximum(visits, 1) / len(traj))
            assert (vec <= bound[:, None] + 1e-12).all()
            assert vec.max() <= 1.0 and vec.min() >= 0.0

    def test_unvisited_states_give_zero_block(self):
        vec = embed_one([0, 1, 0], S=4).reshape(4, 4)
        assert np.all(vec[2:] == 0)
        assert np.all(vec[:, 2:] == 0)
        # the visited block does not depend on how many unused states exist
        small = embed_one([0, 1, 0], S=2).reshape(2, 2)
        assert np.array_equal(vec[:2, :2], small)

    def test_rows_equal_single_trajectory_embeddings(self):
        rng = np.random.default_rng(3)
        states = rng.integers(0, 3, size=(7, 25))
        W_hat = empirical_matrix(count_transitions(states, 3))
        assert (W_hat.T, W_hat.S, W_hat.H) == (7, 3, 25)
        for t in range(7):
            assert np.array_equal(W_hat.values[t], embed_one(states[t], 3))


class TestDataMatrices:
    def test_truth_matrix_has_K_distinct_rows(self):
        inst = gen_separation_instance(2, T=12, H=10)
        trajs = sample_trajectories(inst, 0)
        W, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
        assert W.values.shape == (12, 16)
        assert len(np.unique(W.values, axis=0)) == 2
        assert np.linalg.matrix_rank(W.values) <= 2
        assert W_hat.values.min() >= 0 and W_hat.values.max() <= 1

    def test_identical_models_rank_one(self):
        m = random_models(1, 3, seed0=5)[0]
        inst = make_instance([m, m], np.array([0.5, 0.5]), 8, 6)
        trajs = sample_trajectories(inst, 1)
        W, _ = build_matrices(inst, count_transitions(trajs.states, inst.S))
        assert np.linalg.matrix_rank(W.values) == 1

    def test_row_error_shrinks_with_H(self):
        m = random_models(1, 4, seed0=9)[0]
        errs = []
        for H in (1_000, 10_000):
            inst = make_instance([m, m], [0.5, 0.5], 30, H)
            trajs = sample_trajectories(inst, 13)
            W, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
            errs.append(np.sqrt(((W.values - W_hat.values) ** 2).sum(axis=1)).mean())
        assert errs[1] < errs[0]

    def test_matrices_are_built_only_as_their_rows_are_read(self):
        # W and W-hat are read in row blocks; building them allocates no T x S^2
        # array of any dtype wider than a byte, and W-hat's rows come from the counts
        T, S, H = 4_000, 20, 20
        inst = make_instance(random_models(2, S, seed0=3), [0.5, 0.5], T, H)
        counts = count_transitions(sample_trajectories(inst, 0).states, S)
        tracemalloc.start()
        try:
            W, W_hat = build_matrices(inst, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * S * S
        model_rows = np.stack([embed_model(m) for m in inst.models])
        assert np.array_equal(W.rows(1_000, 1_010), model_rows[inst.decoding[1_000:1_010]])
        assert np.array_equal(W_hat.rows(T - 3, T + 5), W_hat.values[T - 3:])
        # at H = S most states go unvisited, and their coordinates are +0.0
        visits = counts.visits[1_000:1_010]
        assert (visits == 0).any()
        expected = np.zeros((10, S, S))
        np.divide(counts.transitions[1_000:1_010], np.sqrt(H * visits.astype(float))[:, :, None],
                  out=expected, where=visits[:, :, None] > 0)
        assert W_hat.rows(1_000, 1_010).tobytes() == expected.tobytes()
        # rows read into the leading rows of a larger buffer are written in place,
        # are the fresh rows bit for bit, and leave the spare rows alone
        values = matrix_from_values(W_hat.rows(0, 40), S, H)
        for matrix, lo in ((W, 1_000), (W_hat, 1_000), (W_hat, T - 3), (values, 35)):
            fresh = matrix.rows(lo, lo + 10)
            out = np.full((12, S * S), np.nan)
            block = matrix.rows(lo, lo + 10, out)
            assert np.shares_memory(block, out)
            assert block.tobytes() == fresh.tobytes()
            assert np.isnan(out[block.shape[0]:]).all()

    def test_values_must_have_S_squared_columns(self):
        with pytest.raises(InputError, match=r"values must be a \(T, 4\) array; got \(3, 5\)"):
            matrix_from_values(np.zeros((3, 5)), S=2, H=10)

    def test_two_inf_examples(self):
        a = np.zeros((3, 4))
        assert reference_two_inf_distance(a, a) == 0.0
        b = a.copy()
        b[1, 0] = 0.3
        b[1, 1] = 0.4
        assert reference_two_inf_distance(a, b) == pytest.approx(0.5, abs=1e-15)
        perm = [2, 0, 1]
        assert reference_two_inf_distance(a[perm], b[perm]) == pytest.approx(0.5, abs=1e-15)

    def test_two_inf_shape_mismatch(self):
        with pytest.raises(InputError, match=r"shape mismatch \(2, 2\) vs \(3, 2\)"):
            reference_two_inf_distance(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_counts_must_match_instance(self):
        inst = gen_separation_instance(1, T=5, H=8)
        states = sample_trajectories(inst, 2).states
        for counts in (count_transitions(states, inst.S + 1),
                       count_transitions(states[:4], inst.S),
                       count_transitions(states[:, :7], inst.S)):
            with pytest.raises(InputError, match="trajectory counts do not match the instance shape"):
                build_matrices(inst, counts)
