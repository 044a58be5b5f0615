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
from mmclab.embedding import _BLOCK_ELEMENTS
from mmclab.errors import DimensionMismatch, InvalidRange, StateOutOfRange
from tests.conftest import (
    gen_separation_instance,
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
        with pytest.raises(StateOutOfRange):
            one([0, 3], S=2)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_state_at_S_or_negative_rejected(self, bad):
        # either would fold into a neighbouring count cell if it were counted
        states = np.zeros((3, 5), dtype=np.int32)
        states[1, 2] = bad
        with pytest.raises(StateOutOfRange):
            count_transitions(states, 2)

    @pytest.mark.parametrize("shape", [(4,), (2, 1), (2, 3, 4)])
    def test_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            count_transitions(np.zeros(shape, dtype=np.int32), 2)

    def test_counts_are_read_only_int32(self):
        cs = count_transitions(np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int32), 2)
        assert cs.visits.dtype == cs.transitions.dtype == np.int32
        for arr in (cs.visits, cs.transitions):
            assert not arr.flags.writeable

    def test_horizon_beyond_int32_counts_rejected(self):
        # a zero-stride view: 2^31 + 1 states without allocating them; they are
        # out of range too, so a range scan run before the guard would raise
        # StateOutOfRange (after reading every one)
        states = np.broadcast_to(np.int32(2), (1, 2**31 + 1))
        with pytest.raises(InvalidRange):
            count_transitions(states, 2)

    @pytest.mark.parametrize("T", [255, 256, 257, 513])
    def test_block_edges_match_reference(self, T):
        # at this H a counting pass takes 256 trajectories; these T end a
        # block exactly, one short of it or one past it
        S, H = 5, _BLOCK_ELEMENTS // 256 + 1
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
        budget = {"1": 1, "H-2": H - 2, "H-1": H - 1, "H": H, "3H+1": 3 * H + 1}[budget]
        monkeypatch.setattr("mmclab.embedding._BLOCK_ELEMENTS", budget)
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

    # the decay shape, where the whole int64 flat index would take 32 MB and
    # a pass of 13 trajectories takes 2.1 MB; and one with many states, where
    # a pass over all T would make a 24 MB int64 bincount, against 80 KB for
    # a pass of one trajectory
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
        assert peak - kept < budgets * _BLOCK_ELEMENTS * 8

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
        with pytest.raises(DimensionMismatch):
            reference_two_inf_distance(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_counts_must_match_instance(self):
        inst = gen_separation_instance(1, T=5, H=8)
        states = sample_trajectories(inst, 2).states
        for counts in (count_transitions(states, inst.S + 1),
                       count_transitions(states[:4], inst.S),
                       count_transitions(states[:, :7], inst.S)):
            with pytest.raises(DimensionMismatch):
                build_matrices(inst, counts)
