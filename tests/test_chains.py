import math
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components

from mmclab import (
    augmented_chain,
    gen_random_ergodic,
    gen_separation_models,
    model_from_json,
    model_to_json,
    pseudo_spectral_gap,
    validate_model,
)
from mmclab import chains, memory
from mmclab.chains import mixing_time, stationary_distribution
from mmclab.errors import InputError, NumericalError
from tests.conftest import reference_pseudo_spectral_gap_terms

P2 = np.array([[0.9, 0.1], [0.2, 0.8]])


def reference_time_reversal(M):
    """Time reversal P*(s, s') = pi(s') P(s', s) / pi(s); row stochastic."""
    return (M.pi[:, None] * M.P).T / M.pi[:, None]


@st.composite
def adjacencies(draw):
    """Random 0/1 adjacency with 1 <= S <= 8 states and no empty row.

    With more than one layer, edges are kept only from layer c to layer c + 1
    (mod the layer count), so that periodic graphs are common; states are
    then permuted."""
    S = draw(st.integers(min_value=1, max_value=8))
    layers = draw(st.just(1) | st.integers(min_value=1, max_value=S))
    layer = np.arange(S) % layers
    nxt = (layer + 1) % layers
    adj = draw(hnp.arrays(bool, (S, S))) & (layer[None, :] == nxt[:, None])
    empty = np.flatnonzero(~adj.any(axis=1))
    adj[empty, nxt[empty]] = True  # state nxt[u] is in layer nxt[u]
    perm = np.array(draw(st.permutations(range(S))), dtype=np.int64)
    return adj[np.ix_(perm, perm)]


def return_time_gcd(adj: np.ndarray) -> int:
    """gcd of the return times n <= 3 S^2 to state 0, from boolean matrix powers."""
    S = adj.shape[0]
    A = adj.astype(np.int64)
    reach, g = np.eye(S, dtype=np.int64), 0
    for n in range(1, 3 * S * S + 1):
        reach = (reach @ A > 0).astype(np.int64)
        if reach[0, 0]:
            g = math.gcd(g, n)
    return g


def reference_depths(adj: np.ndarray) -> np.ndarray:
    """Breadth-first depth of every state from state 0, -1 if unreachable,
    by a queue over one adjacency."""
    depth = np.full(adj.shape[0], -1, dtype=np.int64)
    depth[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
    return depth


def batched_terms(P: np.ndarray, pi: np.ndarray, k_max: int) -> np.ndarray:
    """Every gap term for k = 1..k_max, from the stacked eigensolves of the
    private ``chains._terms`` that ``pseudo_spectral_gap`` runs."""
    return chains._terms(chains._conjugate(P, pi), np.eye(P.shape[0]), 1, k_max)[0]


@st.composite
def gap_chains(draw):
    """(P, pi) of a floored Dirichlet chain with a floor down to 1/(4000 S), a
    lazy cycle with escape probability 1e-1 to 1e-4, or a sparse irreducible
    chain (a cycle plus random edges, periodic at times)."""
    S = draw(st.integers(min_value=2, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["floored", "lazy_cycle", "sparse"]))
    cycle = np.roll(np.eye(S), 1, axis=1)
    if kind == "floored":
        floor = 1.0 / (4 * S * 10 ** draw(st.floats(min_value=0.0, max_value=3.0)))
        P = (1.0 - S * floor) * rng.dirichlet(np.ones(S), size=S) + floor
    elif kind == "lazy_cycle":
        escape = 10 ** -draw(st.floats(min_value=1.0, max_value=4.0))
        P = (1.0 - escape) * np.eye(S) + escape * cycle
    else:
        edges = (cycle > 0) | (rng.random((S, S)) < 0.2)
        P = edges * (rng.random((S, S)) + 1e-3)
    P /= P.sum(axis=1, keepdims=True)
    return P, stationary_distribution(P)


class EigvalshCalls:
    """np.linalg.eigvalsh wrapped to count its calls and the matrices they
    took, and to set every eigenvalue of the matrices numbered in ``nan_at``
    (1-based over all calls) to NaN."""

    def __init__(self, monkeypatch, nan_at=()):
        self.calls = self.matrices = 0
        self.nan_at = set(nan_at)
        self.original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", self)

    def __call__(self, a):
        ev = self.original(a)
        self.calls += 1
        flat = ev.reshape(-1, ev.shape[-1])
        for i in range(len(flat)):
            self.matrices += 1
            if self.matrices in self.nan_at:
                flat[i] = math.nan
        return ev


def reference_doublet_kernel(P: np.ndarray) -> np.ndarray:
    """The doublet kernel filled pair by pair over the support of P."""
    mask = P > 0.0
    pairs = np.argwhere(mask)
    index = {(int(x), int(xp)): i for i, (x, xp) in enumerate(pairs)}
    Pt = np.zeros((len(pairs), len(pairs)))
    for i, (x, xp) in enumerate(pairs):
        for yp in np.flatnonzero(mask[xp]):
            Pt[i, index[int(xp), int(yp)]] = P[xp, yp]
    return Pt


class TestValidateModel:
    def test_two_state_stationary(self, two_state):
        # oracle: closed form (q, p) / (p + q) for a 2-state chain
        p, q = 0.1, 0.2
        expected = np.array([q, p]) / (p + q)
        assert np.allclose(two_state.pi, expected, atol=1e-12)
        assert np.max(np.abs(two_state.pi @ two_state.P - two_state.pi)) <= 1e-10

    def test_identity_not_irreducible(self):
        with pytest.raises(InputError, match="positive-transition graph is not strongly connected"):
            validate_model(np.eye(2), [0.5, 0.5])

    def test_two_cycle_periodic(self):
        with pytest.raises(InputError, match="chain has period 2$"):
            validate_model([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match=r"matrix must be square, got shape \(2, 3\)"):
            validate_model(np.ones((2, 3)) / 3, [0.5, 0.5])
        with pytest.raises(InputError, match="mu has length 3, expected 2"):
            validate_model(P2, [1.0, 0.0, 0.0])
        with pytest.raises(InputError, match="mu must be 1-D"):
            validate_model(P2, [[0.5, 0.5]])

    def test_row_not_stochastic(self):
        with pytest.raises(InputError, match=r"row 0 sums to .*1\.1\b.*, not 1 within 1e-12$"):
            validate_model([[0.9, 0.2], [0.2, 0.8]], [0.5, 0.5])
        with pytest.raises(InputError, match="row 0 has negative entries"):
            validate_model([[1.1, -0.1], [0.2, 0.8]], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_P_rejected(self, bad):
        P = P2.copy()
        P[1] = [bad, 0.8]
        with pytest.raises(InputError, match="row 1 has non-finite entries"):
            validate_model(P, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, bad):
        with pytest.raises(InputError, match="mu has non-finite entries"):
            validate_model(P2, [bad, 1.0])

    def test_three_cycle_period_in_message(self):
        with pytest.raises(InputError, match="period 3"):
            validate_model(np.roll(np.eye(3), 1, axis=1), np.ones(3) / 3)

    @given(adjacencies())
    @settings(max_examples=200, deadline=None)
    def test_stacked_depths_match_per_direction_reference(self, adj):
        depth = chains._depths(np.stack([adj, adj.T]))
        assert np.array_equal(depth[0], reference_depths(adj))
        assert np.array_equal(depth[1], reference_depths(adj.T))

    @given(adjacencies())
    @settings(max_examples=300, deadline=None)
    def test_ergodicity_verdicts_match_graph_references(self, adj):
        P = adj / adj.sum(axis=1, keepdims=True)
        mu = np.full(adj.shape[0], 1.0 / adj.shape[0])
        n_components, _ = connected_components(adj, directed=True, connection="strong")
        if n_components > 1:
            with pytest.raises(InputError, match="not strongly connected"):
                validate_model(P, mu)
        elif (period := return_time_gcd(adj)) > 1:
            with pytest.raises(InputError, match=f"period {period}$"):
                validate_model(P, mu)
        else:
            try:
                validate_model(P, mu)
            except NumericalError:
                pass

    def test_sandwich_on_random_models(self):
        for i in range(30):
            m = gen_random_ergodic(2 + i % 5, seed=100 + i, floor=0.02)
            upper = 1 + 2 * math.log(2) + math.log(1 / m.pi.min())
            assert 0.5 <= m.gamma_ps * m.t_mix <= upper

    def test_eigensolver_failure_raises_eigen_failure(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        with pytest.raises(NumericalError, match="eigensolver failed at k=1"):
            validate_model(P2, [0.5, 0.5])

    def test_floored_chain_takes_one_eigensolve(self, monkeypatch):
        # term 1 of a floored S = 8 chain is above 1/2, so no k >= 2 can beat
        # it: one eigensolve, where the k schedule starts at ten
        P, mu = gen_random_ergodic(8, seed=4, floor=1 / 32).P, np.full(8, 1 / 8)
        calls = EigvalshCalls(monkeypatch)
        m = validate_model(P, mu)
        assert max(10, 2 * m.t_mix) == 10 and m.gamma_ps * 2 > 1
        assert (calls.calls, calls.matrices) == (1, 1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_nan_term_fails_the_sandwich(self, monkeypatch, k):
        # term 1 = 1 - 0.9^2 leaves k up to 5 to compute, and a NaN term 1
        # sets no bound; either NaN term must make gamma_ps NaN, which no
        # sandwich bound holds
        P = np.array([[0.95, 0.05], [0.05, 0.95]])
        EigvalshCalls(monkeypatch, nan_at=[k])
        with pytest.raises(NumericalError, match="gamma_ps \\* t_mix = nan outside sandwich"):
            validate_model(P, [0.5, 0.5])

    def test_json_roundtrip_recomputes_derived(self, two_state):
        doc = model_to_json(two_state)
        again = model_from_json(doc)
        assert np.array_equal(again.P, two_state.P)
        assert again.gamma_ps == two_state.gamma_ps
        assert again.t_mix == two_state.t_mix

    def test_json_size_disagreeing_with_P_raises(self, two_state):
        with pytest.raises(InputError, match="S=3 does not match P shape"):
            model_from_json(dict(model_to_json(two_state), S=3))


class TestStationary:
    def test_symmetric_doubly_stochastic(self):
        pi = stationary_distribution(np.full((2, 2), 0.5))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_separation_chain_sprime2(self):
        m1, _ = gen_separation_models(2)
        assert np.allclose(m1.pi, [3 / 8, 3 / 8, 1 / 8, 1 / 8], atol=1e-12)

    def test_reducible_raises(self):
        with pytest.raises(NumericalError, match="stationary solve failed"):
            stationary_distribution(np.eye(3))

    def test_residual_above_tolerance_raises(self):
        # row 0 sums to 1.1: the solve succeeds with pi = (1/2, 1/2), but
        # pi P - pi = (0, 0.05)
        with pytest.raises(NumericalError, match="residual 5.000e-02 exceeds 1e-10"):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))


class TestTimeReversal:
    def test_two_state_reversible(self, two_state):
        assert np.allclose(reference_time_reversal(two_state), two_state.P, atol=1e-12)

    def test_doubly_stochastic_symmetric(self):
        P = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
        m = validate_model(P, np.ones(3) / 3)
        assert np.allclose(reference_time_reversal(m), P.T, atol=1e-12)

    def test_detailed_balance_identity_cycle_biased(self):
        # non-reversible 3-state chain biased around the cycle
        P = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
        m = validate_model(P, np.ones(3) / 3)
        P_star = reference_time_reversal(m)
        assert not np.allclose(P_star, P)  # genuinely non-reversible
        lhs = m.pi[:, None] * P
        rhs = (m.pi[:, None] * P_star).T
        assert np.allclose(lhs, rhs, atol=1e-14)
        assert np.allclose(P_star.sum(axis=1), 1.0, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        m = gen_random_ergodic(4, seed=seed, floor=0.03)
        P_star = reference_time_reversal(m)
        m_star = validate_model(P_star, m.mu)
        assert np.allclose(reference_time_reversal(m_star), m.P, atol=1e-12)


class TestPseudoSpectralGap:
    def test_two_state_value(self, two_state):
        # reversible chain: (P*)P = P^2, lambda_2 = 0.7^2, gap term 0.51 at k=1
        gap = pseudo_spectral_gap(two_state.P, two_state.pi, k_max=10)
        assert gap == pytest.approx(0.51, abs=1e-12)

    def test_uniform_chain(self):
        m = validate_model(np.full((3, 3), 1 / 3), np.ones(3) / 3)
        assert pseudo_spectral_gap(m.P, m.pi, k_max=5) == pytest.approx(1.0, abs=1e-12)

    def test_random_chain_sandwich_crosscheck(self):
        m = gen_random_ergodic(5, seed=3, floor=0.02)
        gap = pseudo_spectral_gap(m.P, m.pi, k_max=max(10, 2 * m.t_mix))
        upper = 1 + 2 * math.log(2) + math.log(1 / m.pi.min())
        assert 0.5 <= gap * m.t_mix <= upper

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_k_max(self, seed):
        m = gen_random_ergodic(3, seed=seed, floor=0.05)
        gaps = [pseudo_spectral_gap(m.P, m.pi, k_max=k) for k in (1, 3, 6, 12)]
        assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:]))

    @given(gap_chains())
    @settings(max_examples=100, deadline=None)
    def test_first_k_max_already_meets_the_lower_sandwich_bound(self, chain):
        # validate_model takes the gap at k_max = max(10, 2 t_mix) once: term
        # t_mix is at least 1/(2 t_mix), so no larger k_max could lift a gap
        # below the sandwich's 1/2 (at k_max = 1 most sparse chains fall below)
        P, pi = chain
        assume(return_time_gcd(P > 0) == 1)
        t_mix = mixing_time(P, pi)
        assert pseudo_spectral_gap(P, pi, max(10, 2 * t_mix)) * t_mix >= 0.5

    @given(gap_chains(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=150, deadline=None)
    def test_batched_terms_and_pruned_gap_equal_per_k_reference(self, chain, k_max):
        P, pi = chain
        ref = reference_pseudo_spectral_gap_terms(P, pi, k_max)
        assert batched_terms(P, pi, k_max).tobytes() == ref.tobytes()
        assert np.float64(pseudo_spectral_gap(P, pi, k_max)).tobytes() == ref.max().tobytes()

    @pytest.mark.parametrize("batch, calls", [(4, 50), (16, 13), (28, 8), (1 << 20, 1)])
    def test_terms_split_into_batches_within_the_budget(self, monkeypatch, batch, calls):
        # ``batch`` counts matrix elements, 4 per term of this 2-state chain,
        # and the block budget their bytes
        P = gen_random_ergodic(2, seed=9, floor=0.05).P
        pi = stationary_distribution(P)
        ref = reference_pseudo_spectral_gap_terms(P, pi, 50)
        monkeypatch.setattr(memory, "BLOCK_BYTES", 8 * batch)
        counter = EigvalshCalls(monkeypatch)
        assert batched_terms(P, pi, 50).tobytes() == ref.tobytes()
        assert (counter.calls, counter.matrices) == (calls, 50)

    def test_failure_names_the_first_k_of_its_batch(self, monkeypatch):
        # term 1 of this chain bounds k by 5: k = 2..5 form the second batch
        original = np.linalg.eigvalsh

        def fail_second_call(a):
            if a.shape[0] > 1:
                raise np.linalg.LinAlgError("synthetic failure")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_second_call)
        with pytest.raises(NumericalError, match="eigensolver failed at k=2$"):
            validate_model([[0.95, 0.05], [0.05, 0.95]], [0.5, 0.5])

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_terms_match_direct_nonsymmetric_spectrum(self, seed, k_max):
        # the symmetric conjugate (B^k)^T B^k against eigvals of (P*)^k P^k itself
        m = gen_random_ergodic(5, seed=seed, floor=0.02)
        P_star = reference_time_reversal(m)
        for k, term in enumerate(reference_pseudo_spectral_gap_terms(m.P, m.pi, k_max),
                                 start=1):
            M = np.linalg.matrix_power(P_star, k) @ np.linalg.matrix_power(m.P, k)
            lam2 = np.sort(np.linalg.eigvals(M).real)[-2]
            assert term == pytest.approx((1.0 - lam2) / k, abs=1e-12)


class TestMixingTime:
    def test_two_state_oracle(self, two_state):
        # worst-row TV is (2/3) 0.7^t: first t with (2/3) 0.7^t <= 1/4 is 3
        assert two_state.t_mix == 3
        brute = next(t for t in range(1, 50) if (2 / 3) * 0.7 ** t <= 0.25)
        assert brute == 3

    def test_uniform_mixes_in_one_step(self):
        m = validate_model(np.full((4, 4), 0.25), np.ones(4) / 4)
        assert m.t_mix == 1

    def test_separation_chain_mixes_in_one_step(self):
        for sp in (1, 2, 4):
            m1, m2 = gen_separation_models(sp)
            assert m1.t_mix == 1 and m2.t_mix == 1

    def test_not_mixed_within_t_max(self, monkeypatch):
        P = np.array([[0.999, 0.001], [0.001, 0.999]])
        pi = stationary_distribution(P)
        monkeypatch.setattr(chains, "MIXING_T_MAX", 3)
        with pytest.raises(NumericalError, match="did not mix to 0.25 within t_max=3$"):
            mixing_time(P, pi)


class TestAugmentedChain:
    def test_doublet_stationary_two_state(self, two_state):
        aug = augmented_chain(two_state)
        pi, P = two_state.pi, two_state.P
        expected = np.array([pi[0] * P[0, 0], pi[0] * P[0, 1],
                             pi[1] * P[1, 0], pi[1] * P[1, 1]])
        assert np.allclose(aug.stationary_full, expected, atol=1e-12)
        # stationarity re-verified on the doublet transition matrix itself
        resid = np.abs(aug.model.pi @ aug.model.P - aug.model.pi).max()
        assert resid <= 1e-10
        assert aug.support_mask.all()

    def test_structural_zeros_are_masked(self):
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        m = validate_model(P, np.ones(3) / 3)
        aug = augmented_chain(m)
        assert aug.support_mask.sum() == 6
        assert aug.model.S == 6
        assert aug.stationary_full[(~aug.support_mask).ravel()].sum() == 0.0

    @pytest.mark.parametrize("P", [
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
        [[0.0, 0.7, 0.0, 0.3], [0.2, 0.0, 0.8, 0.0], [0.0, 0.0, 0.1, 0.9], [1.0, 0.0, 0.0, 0.0]],
    ])
    def test_doublet_kernel_equals_pairwise_reference(self, P):
        m = validate_model(np.array(P), np.ones(len(P)) / len(P))
        assert np.array_equal(augmented_chain(m).model.P, reference_doublet_kernel(m.P))

    def test_doublet_gap_equals_shifted_base_terms(self, two_state):
        # spectrum((Pt*)^k Pt^k) = spectrum((P*)^{k-1} P^{k-1}) + zeros, so the
        # doublet gap is max_j gamma_j / (j + 1) over the base terms
        k_base = 12
        aug = augmented_chain(two_state)
        direct = pseudo_spectral_gap(aug.model.P, aug.model.pi, k_max=k_base + 1)
        terms = reference_pseudo_spectral_gap_terms(two_state.P, two_state.pi, k_base)
        gammas = terms * np.arange(1, k_base + 1)
        shifted = (gammas / (np.arange(1, k_base + 1) + 1)).max()
        assert direct == pytest.approx(shifted, abs=1e-8)

    def test_doublet_gap_within_factor_two_of_base(self):
        for i in range(10):
            m = gen_random_ergodic(2 + i % 4, seed=500 + i, floor=0.05)
            aug = augmented_chain(m)
            k = max(12, 2 * m.t_mix)
            base = pseudo_spectral_gap(m.P, m.pi, k_max=k)
            dbl = pseudo_spectral_gap(aug.model.P, aug.model.pi, k_max=k + 1)
            assert base / 2 - 1e-9 <= dbl <= base + 1e-9

    def test_uniform_base_doublet_gap(self):
        # rank-one base: every base term gamma_j = 1, so the doublet gap is
        # max_j 1/(j+1) = 1/2 (not 1; the k=1 doublet operator is block rank-one
        # with an S-fold eigenvalue 1)
        m = validate_model(np.full((2, 2), 0.5), np.ones(2) / 2)
        aug = augmented_chain(m)
        gap = pseudo_spectral_gap(aug.model.P, aug.model.pi, k_max=6)
        assert gap == pytest.approx(0.5, abs=1e-10)
