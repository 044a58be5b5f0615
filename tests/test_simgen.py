import json
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmclab import (
    gen_random_ergodic,
    gen_separation_models,
    make_instance,
    sample_trajectories,
    validate_model,
)
from mmclab import simgen
from mmclab.errors import (DimensionMismatch, EmptyClusterAfterRounding, InputError, InvalidRange,
                          StateOutOfRange, StateSpaceMismatch)
from mmclab.metrics import eta_params
from mmclab.simgen import (
    cluster_sizes,
    instance_from_json,
    instance_to_json,
    MixtureInstance,
    TrajectorySet,
    load_trajectories,
    save_trajectories,
)
from tests.conftest import gen_separation_instance, random_models, reference_sample_trajectories


class TestClusterSizes:
    def test_even_split(self):
        assert cluster_sizes(np.array([0.5, 0.5]), 10).tolist() == [5, 5]

    def test_exact_rounding(self):
        assert cluster_sizes(np.array([0.7, 0.3]), 10).tolist() == [7, 3]

    def test_floor_one_guard(self):
        assert cluster_sizes(np.array([0.99, 0.01]), 10).tolist() == [9, 1]

    def test_t_below_k_raises(self):
        with pytest.raises(EmptyClusterAfterRounding):
            cluster_sizes(np.array([0.4, 0.3, 0.3]), 2)

    def test_zero_alpha_raises(self):
        with pytest.raises(EmptyClusterAfterRounding):
            cluster_sizes(np.array([1.0, 0.0]), 10)

    @pytest.mark.parametrize("alpha", [[2.0, 2.0], [0.1, 0.1], [0.9, 0.3], [np.nan, 1.0],
                                       [np.inf, -np.inf]])
    def test_alpha_not_finite_or_not_summing_to_one_raises(self, alpha):
        with pytest.raises(InvalidRange, match="alpha must be finite and sum to 1"):
            cluster_sizes(np.array(alpha), 10)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_sizes_sum_to_T_each_positive(self, K, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.dirichlet(np.ones(K) * 0.5)
        alpha = np.clip(alpha, 1e-6, None)
        alpha /= alpha.sum()
        T = int(rng.integers(K, 100))
        sizes = cluster_sizes(alpha, T)
        assert sizes.sum() == T
        assert (sizes >= 1).all()


class TestMakeInstance:
    def test_contiguous_blocks(self):
        models = random_models(2, 3)
        inst = make_instance(models, np.array([0.5, 0.5]), 10, 5)
        assert inst.decoding.tolist() == [0] * 5 + [1] * 5
        assert np.allclose(inst.alpha, [0.5, 0.5])

    def test_shuffle_keeps_sizes(self):
        models = random_models(2, 3)
        inst = make_instance(models, np.array([0.3, 0.7]), 20, 5,
                             shuffle=True, shuffle_seed=1)
        assert np.bincount(inst.decoding).tolist() == [6, 14]
        assert inst.decoding.tolist() != [0] * 6 + [1] * 14

    def test_state_space_mismatch(self):
        m1 = gen_random_ergodic(3, 0, 0.05)
        m2 = gen_random_ergodic(4, 1, 0.05)
        with pytest.raises(StateSpaceMismatch):
            make_instance([m1, m2], np.array([0.5, 0.5]), 10, 5)

    def test_one_model_raises(self):
        with pytest.raises(DimensionMismatch, match="K >= 2"):
            make_instance(random_models(1, 3), np.array([1.0]), 10, 5)


class TestSampling:
    def test_bitwise_reproducible(self):
        inst = gen_separation_instance(1, T=12, H=40)
        a = sample_trajectories(inst, seed=99)
        b = sample_trajectories(inst, seed=99)
        assert np.array_equal(a.states, b.states)

    def test_sampling_never_hashes_the_instance(self, monkeypatch):
        inst = gen_separation_instance(1, T=12, H=40)
        expected = sample_trajectories(inst, seed=99).states

        def no_hash(self):
            raise AssertionError("sampling hashed the instance")

        monkeypatch.setattr(MixtureInstance, "instance_id", no_hash)
        assert np.array_equal(sample_trajectories(inst, seed=99).states, expected)

    @given(chunk=st.integers(1, 120), H=st.integers(2, 101))
    @settings(max_examples=30, deadline=None)
    def test_chunking_does_not_change_streams(self, chunk, H):
        # chunks at, below and past H, so the uniform buffer's last fill is
        # partial, exact or the only one
        inst = gen_separation_instance(1, T=6, H=H)
        with mock.patch.object(simgen, "_CHUNK", chunk):
            a = sample_trajectories(inst, seed=5)
        b = sample_trajectories(inst, seed=5)
        assert np.array_equal(a.states, b.states)

    @given(S=st.one_of(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]),
                       st.integers(1, 70)),
           K=st.integers(2, 4), T=st.integers(4, 12), H=st.integers(2, 60),
           chunk=st.integers(1, 70), overshoot=st.booleans(),
           model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bisection_matches_reference_sampler(self, S, K, T, H, chunk, overshoot,
                                                 model_seed, seed):
        # sparse rows repeat CDF entries; with overshoot, every row of P whose
        # last entry is 0, and mu when its last entry is 0, sums to 1 + 5e-13,
        # so its CDF passes 1.0 before the forced final 1.0; S runs over powers
        # of two and their neighbours, where the padded row width P changes
        rng = np.random.default_rng(model_seed)
        models = []
        for _ in range(K):
            keep = rng.random((S, S)) < 0.5
            keep[np.arange(S), np.arange(S)] = True  # self-loops: aperiodic
            keep[np.arange(S), (np.arange(S) + 1) % S] = True  # a cycle: irreducible
            P = rng.random((S, S)) * keep
            P /= P.sum(axis=1, keepdims=True)
            mu = rng.random(S) * (rng.random(S) < 0.5)
            mu[rng.integers(S)] = 1.0
            mu /= mu.sum()
            if overshoot:
                P[P[:, -1] == 0.0] *= 1.0 + 5e-13
                if mu[-1] == 0.0:
                    mu *= 1.0 + 5e-13
            models.append(validate_model(P, mu))
        inst = make_instance(models, np.full(K, 1.0 / K), T, H, shuffle=True, shuffle_seed=model_seed)
        with mock.patch.object(simgen, "_CHUNK", chunk):
            got = sample_trajectories(inst, seed).states
        assert np.array_equal(got, reference_sample_trajectories(inst, seed, chunk=chunk).states)

    @staticmethod
    def sample_with_constant_uniforms(monkeypatch, u, mu):
        """Both trajectories of a 4-state pair whose every uniform is u; row 0's
        CDF (0.25, 0.25, 0.5, 1) repeats 0.25, the other rows are uniform."""
        def constant_refill(out, gen, template, h):
            out[:] = u

        monkeypatch.setattr(simgen, "_refill", constant_refill)
        P = np.array([[0.25, 0.0, 0.25, 0.5]] + [[0.25] * 4] * 3)
        m = validate_model(P, mu)
        return sample_trajectories(make_instance([m, m], [0.5, 0.5], 2, 4), 0).states.tolist()

    @pytest.mark.parametrize("u, expected", [(0.25, [0, 0, 0, 0]), (0.5, [0, 2, 1, 1])])
    def test_uniform_on_a_cdf_entry_counts_entries_strictly_below(self, monkeypatch, u, expected):
        # every uniform is u, exactly a CDF entry: a u of 0.25 must stay on
        # state 0 and a u of 0.5 go to 2
        got = self.sample_with_constant_uniforms(monkeypatch, u, [0.5, 0.5, 0.0, 0.0])
        assert got == [expected, expected]

    @pytest.mark.parametrize("u, expected", [(0.25, [0, 0, 0, 0]), (0.5, [2, 1, 1, 1])])
    def test_first_state_on_a_mu_cdf_entry_counts_entries_strictly_below(self, monkeypatch,
                                                                         u, expected):
        # mu's CDF (0.25, 0.25, 0.5, 1) repeats 0.25 too: the first state of a
        # u of 0.25 is 0 and that of a u of 0.5 is 2
        got = self.sample_with_constant_uniforms(monkeypatch, u, [0.25, 0.0, 0.25, 0.5])
        assert got == [expected, expected]

    @given(T=st.integers(1, 5), width=st.integers(1, 9), seed=st.sampled_from([0, 2**64 - 1]))
    @settings(max_examples=40, deadline=None)
    def test_refill_resumes_each_stream_at_uniform_h(self, T, width, seed):
        # one generator and one template serve every refill, at every offset
        # h % 4 into a Philox block, in turn after draws left the generator
        # mid-block; column t must be stream (seed, t) from uniform h on
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        template = gen.bit_generator.state
        streams = [np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
                   .random(13 + width) for t in range(T)]
        out = np.empty((width, T))
        for h in range(14):
            simgen._refill(out, gen, template, h)
            for t in range(T):
                assert np.array_equal(out[:, t], streams[t][h:h + width])

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_one_philox_key_word_raises(self, seed):
        # a seed is one 64-bit key word: 2**64 would alias seed 0, and -1 seed 2**64 - 1
        inst = gen_separation_instance(1, T=4, H=6)
        with pytest.raises(InvalidRange, match=rf"seed must be in \[0, 2\*\*64\).*got {seed}$"):
            sample_trajectories(inst, seed)

    def test_top_seed_keys_its_own_streams(self):
        inst = gen_separation_instance(1, T=4, H=6)
        assert np.array_equal(sample_trajectories(inst, 2**64 - 1).states,
                              reference_sample_trajectories(inst, 2**64 - 1).states)

    @pytest.mark.parametrize("S, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_states_take_the_narrowest_dtype_that_holds_S(self, S, dtype):
        # every trajectory starts on the top state S - 1, which a dtype one
        # size too narrow would wrap to 0
        mu = np.zeros(S)
        mu[-1] = 1.0
        m = validate_model(np.full((S, S), 1.0 / S), mu)
        inst = make_instance([m, m], [0.5, 0.5], 4, 30)
        states = sample_trajectories(inst, 3).states
        assert states.dtype == np.min_scalar_type(S - 1) == dtype
        assert (states[:, 0] == S - 1).all()
        assert np.array_equal(states, reference_sample_trajectories(inst, 3).states)

    def test_different_seeds_differ(self):
        inst = gen_separation_instance(1, T=12, H=40)
        assert not np.array_equal(sample_trajectories(inst, 1).states,
                                  sample_trajectories(inst, 2).states)

    def test_point_mass_initial_distribution(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = validate_model(P, [1.0, 0.0])
        inst = make_instance([m, m], np.array([0.5, 0.5]), 8, 5)
        trajs = sample_trajectories(inst, 3)
        assert (trajs.states[:, 0] == 0).all()

    def test_near_deterministic_row(self):
        eps = 1e-9
        P = np.array([[1 - eps, eps], [1 - eps, eps]])
        m = validate_model(P, [1.0 - eps, eps])
        inst = make_instance([m, m], [0.5, 0.5], 50, 200)
        trajs = sample_trajectories(inst, 11)
        assert (trajs.states == 0).mean() > 0.999

    def test_transition_frequencies_match_kernel(self):
        # law of large numbers at T*H = 1e6: conditional frequencies within 0.01
        m = gen_random_ergodic(4, seed=8, floor=0.05)
        inst = make_instance([m, m], [0.5, 0.5], 100, 10_000)
        trajs = sample_trajectories(inst, 21)
        from mmclab import count_transitions
        pooled = count_transitions(trajs.states, 4).transitions.sum(axis=0).astype(float)
        p_hat = pooled / pooled.sum(axis=1, keepdims=True)
        assert np.abs(p_hat - m.P).max() < 0.01


class TestGenerators:
    def test_random_ergodic_floor(self):
        S = 5
        m = gen_random_ergodic(S, seed=0, floor=1 / (2 * S))
        assert m.P.min() >= 1 / (2 * S) - 1e-12
        assert m.P.max() <= 1.0

    def test_random_ergodic_eta_bound(self):
        S = 4
        floor = 1 / (2 * S)
        a = gen_random_ergodic(S, seed=1, floor=floor)
        b = gen_random_ergodic(S, seed=2, floor=floor)
        _, _, eta_p = eta_params([a, b])
        assert eta_p <= 2 * S * (1 - S * floor) + 1 + 1e-9

    def test_separation_models_validate(self):
        for sp in (1, 2, 4, 8):
            m1, m2 = gen_separation_models(sp)
            hi, lo = 3 / (4 * sp), 1 / (4 * sp)
            assert np.allclose(m1.P[0], [hi] * sp + [lo] * sp)
            assert np.allclose(m1.pi, m1.P[0], atol=1e-12)
            assert np.allclose(m2.pi, m1.pi[::-1], atol=1e-12)
            assert m1.gamma_ps == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: gen_random_ergodic(1, seed=0, floor=0.5), "S must be >= 2"),
        (lambda: gen_separation_models(0), "S_prime must be >= 1"),
    ], ids=["random-S-1", "separation-S_prime-0"])
    def test_state_space_too_small_raises(self, call, message):
        with pytest.raises(DimensionMismatch, match=message):
            call()


class TestPersistence:
    def test_instance_json_roundtrip(self, tmp_path):
        inst = gen_separation_instance(2, T=10, H=20)
        doc = instance_to_json(inst)
        assert min(doc["decoding"]) == 1  # 1-based on disk
        again = instance_from_json(doc)
        assert np.array_equal(again.decoding, inst.decoding)
        assert again.instance_id() == inst.instance_id()

    @pytest.mark.parametrize("decoding, message", [
        ([1] * 9, "decoding length does not match T"),
        ([1] * 9 + [3], r"decoding values outside \[1, K\]"),
        ([0] + [1] * 9, r"decoding values outside \[1, K\]"),
    ], ids=["short", "above-K", "zero"])
    def test_bad_decoding_raises(self, decoding, message):
        doc = dict(instance_to_json(gen_separation_instance(2, T=10, H=20)), decoding=decoding)
        with pytest.raises(DimensionMismatch, match=message):
            instance_from_json(doc)

    def test_trajectory_binary_roundtrip(self, tmp_path):
        inst = gen_separation_instance(2, T=7, H=13)
        trajs = sample_trajectories(inst, 4)
        path = tmp_path / "t.traj.bin"
        save_trajectories(trajs, path, inst.S, inst.instance_id())
        again, S, instance_id = load_trajectories(path)
        assert S == inst.S and instance_id == inst.instance_id()
        assert np.array_equal(again.states, trajs.states)
        assert again.seed == 4
        sidecar = json.loads((tmp_path / "t.traj.bin.json").read_text())
        assert sidecar == {"seed": 4, "instance_id": inst.instance_id(), "index_base": 1}

    def test_disk_states_are_one_based(self, tmp_path):
        inst = gen_separation_instance(1, T=3, H=5)
        trajs = sample_trajectories(inst, 0)
        path = tmp_path / "t.traj.bin"
        save_trajectories(trajs, path, inst.S, "x")
        raw = np.frombuffer(path.read_bytes()[12:], dtype="<u2")
        assert raw.min() >= 1 and raw.max() <= inst.S

    def test_largest_u16_state_space_roundtrips(self, tmp_path):
        trajs = TrajectorySet(states=np.array([[0, 65534]], dtype=np.int32), seed=0)
        save_trajectories(trajs, tmp_path / "t.traj.bin", 65535, "x")
        again, S, _ = load_trajectories(tmp_path / "t.traj.bin")
        assert S == 65535 and np.array_equal(again.states, trajs.states)

    @pytest.mark.parametrize("states, S", [
        ([[0, 65535]], 65536),  # the u16 file would store state 65535 as 0 and load it as -1
        ([[0, 3]], 3),          # a state at or above S
        ([[0, -1]], 3),
    ])
    def test_save_rejects_states_the_file_cannot_hold(self, tmp_path, states, S):
        trajs = TrajectorySet(states=np.array(states, dtype=np.int32), seed=0)
        path = tmp_path / "t.traj.bin"
        with pytest.raises(StateOutOfRange):
            save_trajectories(trajs, path, S, "x")
        assert not path.exists()

    @pytest.mark.parametrize("S", [256, 257])
    def test_narrow_states_write_the_bytes_of_int32_states(self, tmp_path, S):
        states = np.array([[0, S - 1, 1], [S - 1, 0, S - 2]], dtype=np.min_scalar_type(S - 1))
        narrow, wide = tmp_path / "narrow.traj.bin", tmp_path / "wide.traj.bin"
        save_trajectories(TrajectorySet(states=states, seed=0), narrow, S, "x")
        save_trajectories(TrajectorySet(states=states.astype(np.int32), seed=0), wide, S, "x")
        assert narrow.read_bytes() == wide.read_bytes()
        assert narrow.stat().st_size == 12 + 2 * states.size
        again, _, _ = load_trajectories(narrow)
        assert again.states.dtype == states.dtype and np.array_equal(again.states, states)

    @staticmethod
    def write_raw(path, raw, S, base):
        """A trajectory file holding ``raw`` as its disk states, at index base ``base``."""
        raw = np.asarray(raw, dtype="<u2")
        path.write_bytes(struct.pack("<III", *raw.shape, S) + raw.tobytes())
        sidecar = {"seed": 0, "instance_id": "x", "index_base": base}
        path.with_suffix(".bin.json").write_text(json.dumps(sidecar))

    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("S", [4, 256, 257])
    def test_load_narrows_states_at_either_index_base(self, tmp_path, S, base):
        path = tmp_path / "t.traj.bin"
        self.write_raw(path, [[base, base + S - 1, base + 1]], S, base)
        trajs, _, _ = load_trajectories(path)
        assert trajs.states.dtype == np.min_scalar_type(S - 1)
        assert trajs.states.tolist() == [[0, S - 1, 1]]

    @pytest.mark.parametrize("base, bad", [(1, 0), (0, "S"), (1, "S+1")])
    @pytest.mark.parametrize("S", [4, 256, 257])
    def test_load_range_checks_states_before_narrowing(self, tmp_path, S, base, bad):
        # narrowed unchecked, a 0 in a 1-based file at S = 256 would load as
        # 255 and a disk state one past the last as 0, both inside [0, S)
        bad = {0: 0, "S": S, "S+1": S + 1}[bad]
        path = tmp_path / "t.traj.bin"
        self.write_raw(path, [[base, bad, base]], S, base)
        with pytest.raises(StateOutOfRange, match=re.escape(f"[{base}, {base + S - 1}]")):
            load_trajectories(path)

    @pytest.mark.parametrize("keep", [0, 5, 12, 12 + 2 * 7 * 13 - 1])
    def test_truncated_file_raises(self, tmp_path, keep):
        inst = gen_separation_instance(2, T=7, H=13)
        path = tmp_path / "t.traj.bin"
        save_trajectories(sample_trajectories(inst, 4), path, inst.S, "x")
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DimensionMismatch):
            load_trajectories(path)

    def test_missing_sidecar_raises_input_error_naming_it(self, tmp_path):
        inst = gen_separation_instance(1, T=3, H=5)
        path = tmp_path / "t.traj.bin"
        save_trajectories(sample_trajectories(inst, 0), path, inst.S, "x")
        sidecar = tmp_path / "t.traj.bin.json"
        sidecar.unlink()
        with pytest.raises(InputError, match=re.escape(str(sidecar))):
            load_trajectories(path)

    def test_sidecar_without_instance_id_raises_input_error(self, tmp_path):
        inst = gen_separation_instance(1, T=3, H=5)
        path = tmp_path / "t.traj.bin"
        save_trajectories(sample_trajectories(inst, 0), path, inst.S, "x")
        (tmp_path / "t.traj.bin.json").write_text(json.dumps({"seed": 0, "index_base": 1}))
        with pytest.raises(InputError, match="instance_id"):
            load_trajectories(path)
