import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmclab import (
    check_gap_inequalities,
    delta_W_sq,
    divergence_D,
    divergence_D_pi,
    eta_params,
    gap_report,
    gen_random_ergodic,
    gen_separation_models,
    hellinger_sq,
    witness_state_gap,
    kl_divergence,
    lower_bound_check,
    make_instance,
    misclassification,
    p_max,
    squared_l2,
    predicted_error_rate,
    validate_model,
)
from mmclab.errors import InputError
from mmclab import memory
from mmclab.metrics import (
    LOG_E_OVER_2,
    InequalityCheck,
    c_eta_explicit,
    visitation_weights,
)
from tests.conftest import (
    gen_separation_instance,
    random_labels,
    random_models,
    reference_brute_force_misclassification,
    reference_misclassification,
    reference_necessary_condition,
)


# --- loop references for the stacked-array divergences and gap checks -------

def reference_visitation_weights(model, H):
    """Average visitation over steps 1..H-1: the plain H-1 step recurrence."""
    acc = model.mu.copy()
    total = np.zeros(model.S)
    for _ in range(H - 1):
        total += acc
        acc = acc @ model.P
    return total / (H - 1)


def first_fixed_step(model, H):
    """The first step h < H-1 at which acc @ P reproduces acc bit for bit, or None."""
    acc = model.mu.copy()
    for h in range(H - 1):
        nxt = acc @ model.P
        if nxt.tobytes() == acc.tobytes():
            return h
        acc = nxt
    return None


def reference_kl(p, q):
    """Scalar KL over the positive entries of p, summed after masking."""
    pos = p > 0.0
    if np.any(q[pos] == 0.0):
        return math.inf
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


def reference_pairwise_weighted_kl(models, weights):
    """sum over s with weights[k][s] > 0 of weights[k][s] KL(P_k(s) || P_k'(s)),
    one ordered pair and one state at a time."""
    K = len(models)
    out = np.zeros((K, K))
    for k in range(K):
        for kp in range(K):
            if k != kp:
                out[k, kp] = sum(float(weights[k][s]) * reference_kl(models[k].P[s], models[kp].P[s])
                                 for s in range(models[k].S) if weights[k][s] > 0.0)
    return out


def reference_divergence_D(instance):
    models, H = instance.models, instance.H
    pair = reference_pairwise_weighted_kl(models, [reference_visitation_weights(m, H)
                                                   for m in models])
    for k, kp in itertools.permutations(range(len(models)), 2):
        pair[k, kp] += reference_kl(models[k].mu, models[kp].mu) / (H - 1)
    return pair


def reference_witness(models):
    """Per pair k < k', the state maximizing min(pi) * ||row difference||^2;
    (alpha, Delta^2) of the first pair with the smallest product."""
    K = len(models)
    witness = -np.ones((K, K), dtype=np.int64)
    worst = None
    for k in range(K):
        for kp in range(k + 1, K):
            floor = np.minimum(models[k].pi, models[kp].pi)
            sep = ((models[k].P - models[kp].P) ** 2).sum(axis=1)
            prod = floor * sep
            s_star = int(np.argmax(prod))
            witness[k, kp] = witness[kp, k] = s_star
            cand = (float(prod[s_star]), float(floor[s_star]), float(sep[s_star]))
            if worst is None or cand[0] < worst[0]:
                worst = cand
    return worst[1], worst[2], witness


def reference_eta(models):
    def max_ratio(num, den):
        num, den = num.ravel(), den.ravel()
        both_zero = (num == 0.0) & (den == 0.0)
        num, den = num[~both_zero], den[~both_zero]
        if np.any((num > 0.0) & (den == 0.0)):
            return math.inf
        return float((num / den).max()) if num.size else 1.0

    e_mu = e_pi = e_p = 1.0
    for a in models:
        for b in models:
            e_mu = max(e_mu, max_ratio(a.mu, b.mu))
            e_pi = max(e_pi, max_ratio(a.pi, b.pi))
            e_p = max(e_p, max_ratio(a.P, b.P))
    return e_mu, e_pi, e_p


def reference_sandwich(models):
    """Worst (slack, lhs, rhs) of the lower and upper KL sandwich over the rows
    (k, k', s), k != k', in that order; (inf, 0, 0) when no slack is finite."""
    lo_slack = hi_slack = math.inf
    worst_lo = worst_hi = (0.0, 0.0)
    for k, kp in itertools.permutations(range(len(models)), 2):
        for s in range(models[k].S):
            p, q = models[k].P[s], models[kp].P[s]
            l2 = squared_l2(p, q)
            kl = reference_kl(p, q)
            lower = LOG_E_OVER_2 / max(p.max(), q.max()) * l2
            upper = math.inf if q.min() == 0.0 else l2 / q.min()
            if kl - lower < lo_slack:
                lo_slack, worst_lo = kl - lower, (lower, kl)
            if upper - kl < hi_slack:
                hi_slack, worst_hi = upper - kl, (kl, upper)
    return (lo_slack, *worst_lo), (hi_slack, *worst_hi)


def reference_gap_checks(models):
    """(name, holds, slack, lhs, rhs) of checks (i)-(iv) from the loop references."""
    tol = 1e-12
    pair_dpi = reference_pairwise_weighted_kl(models, [m.pi for m in models])
    d_pi = float(pair_dpi[~np.eye(len(models), dtype=bool)].min())
    alpha, delta_sq, _ = reference_witness(models)
    pmax = p_max(models)
    dW2 = delta_W_sq(models)
    lo, hi = reference_sandwich(models)
    rows = [("kl_sandwich_lower", lo[0] >= -tol, *lo), ("kl_sandwich_upper", hi[0] >= -tol, *hi)]
    rhs = LOG_E_OVER_2 * alpha * delta_sq / pmax
    rows.append(("dpi_vs_witness", d_pi >= rhs - tol, d_pi - rhs, d_pi, rhs))
    bound = min((2.0 * pmax / LOG_E_OVER_2) * pair_dpi[k, kp]
                + 4.0 * hellinger_sq(models[k].pi, models[kp].pi)
                for k, kp in itertools.permutations(range(len(models)), 2))
    rows.append(("deltaW_upper_hellinger", dW2 <= bound + tol, bound - dW2, dW2, bound))
    eta_pi = reference_eta(models)[1]
    r = math.sqrt(eta_pi)
    penalty = math.inf if math.isinf(eta_pi) else max((r - 1.0) ** 2, (1.0 - 1.0 / r) ** 2)
    rhs_iv = 0.5 * alpha * delta_sq - penalty
    rows.append(("deltaW_lower_witness", dW2 >= rhs_iv - tol, dW2 - rhs_iv, dW2, rhs_iv))
    return rows


def random_ergodic_set(rng, K, S, zeros):
    """K validated chains on S states; with ``zeros``, about half of each
    kernel's entries and some of mu are zero, while a self-loop and a cycle
    through every state keep each chain ergodic."""
    models = []
    for _ in range(K):
        P = rng.dirichlet(np.ones(S), size=S)
        mu = rng.dirichlet(np.ones(S))
        if zeros:
            keep = rng.random((S, S)) < 0.5
            keep[np.arange(S), np.arange(S)] = True
            keep[np.arange(S), (np.arange(S) + 1) % S] = True
            P = P * keep / (P * keep).sum(axis=1, keepdims=True)
            mu = np.where(rng.random(S) < 0.6, mu, 0.0)
            mu = mu / mu.sum() if mu.sum() > 0.0 else np.eye(S)[0]
        models.append(validate_model(P, mu))
    return models


def assert_same(got, ref, exact, scale=None):
    """Byte-equal when ``exact``; otherwise +inf in the same places and finite
    entries within 1e-14 of ``scale`` (by default the reference itself)."""
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if exact:
        assert got.tobytes() == ref.tobytes()
        return
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    fin = np.isfinite(ref)
    scale = np.abs(ref) if scale is None else np.broadcast_to(scale, ref.shape)
    assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-14 * scale[fin])


class TestMisclassification:
    def test_relabeling_invariance(self):
        f = np.array([0, 0, 1, 1])
        assert misclassification(np.array([1, 1, 0, 0]), f) == 0

    def test_single_error(self):
        f = np.array([0, 0, 1, 1])
        f_hat = np.array([0, 1, 1, 1])
        # brute-force oracle over both permutations of K=2
        best = min(sum(fh != s(t) for fh, t in zip(f_hat, f))
                   for s in (lambda x: x, lambda x: 1 - x))
        assert best == 1
        assert misclassification(f_hat, f) == 1

    def test_identity(self):
        f = np.array([0, 1, 2, 0])
        assert misclassification(f, f) == 0

    def test_unequal_label_sets_padded(self):
        f = np.array([0, 0, 1, 1])
        f_hat = np.array([0, 1, 2, 2])  # three clusters vs two
        assert misclassification(f_hat, f) == 1

    def test_label_values_far_above_T(self):
        # only the labels that occur size the confusion matrix
        f_hat = np.array([0, 2**40, 2**40, 7])
        assert misclassification(f_hat, np.array([1, 0, 0, 0])) == 1
        assert misclassification(np.array([1, 0, 0, 0]), f_hat) == 1

    def test_length_mismatch(self):
        with pytest.raises(InputError, match=r"label shapes differ: \(2,\) vs \(3,\)"):
            misclassification(np.array([0, 1]), np.array([0, 1, 1]))

    def test_empty_labels_have_no_errors(self):
        assert misclassification(np.array([], dtype=int), np.array([], dtype=int)) == 0

    @pytest.mark.parametrize("f_hat, f", [([0, -1], [0, 1]), ([0, 1], [-2, 1])])
    def test_negative_labels_raise(self, f_hat, f):
        with pytest.raises(InputError, match="labels must be nonnegative"):
            misclassification(np.array(f_hat), np.array(f))

    def test_brute_equals_assignment(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            K = int(rng.integers(2, 9))
            T = int(rng.integers(K, 40))
            f = random_labels(rng, T, K)
            f_hat = random_labels(rng, T, K)
            assert reference_brute_force_misclassification(f_hat, f) \
                == misclassification(f_hat, f)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, K_hat, K, T, seed):
        rng = np.random.default_rng(seed)
        f_hat, f = rng.integers(0, K_hat, size=T), rng.integers(0, K, size=T)
        assert misclassification(f_hat, f) == reference_brute_force_misclassification(f_hat, f)

    # label values drawn from a set with gaps, as a file's labels may be;
    # either side may hold more clusters
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=400, unique=True),
           st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
           st.integers(1, 800), st.booleans(), st.integers(0, 2**32 - 1))
    @example(values_hat=[0, 5], values=[3], T=1, swap=False, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_assignment(self, values_hat, values, T, swap, seed):
        rng = np.random.default_rng(seed)
        f_hat, f = rng.choice(values_hat, size=T), rng.choice(values, size=T)
        if swap:
            f_hat, f = f, f_hat
        assert misclassification(f_hat, f) == reference_misclassification(f_hat, f)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        K, T = int(rng.integers(2, 5)), int(rng.integers(4, 16))
        f = random_labels(rng, T, K)
        g = random_labels(rng, T, K)
        h = random_labels(rng, T, K)
        assert misclassification(f, g) == misclassification(g, f)
        assert misclassification(f, f) == 0
        perm = rng.permutation(K)
        assert misclassification(perm[f], f) == 0
        assert misclassification(f, h) <= misclassification(f, g) + misclassification(g, h)


class TestDivergencePrimitives:
    def test_kl_zero_for_equal(self):
        assert kl_divergence(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_kl_shape_mismatch_raises(self):
        with pytest.raises(InputError, match="shape mismatch"):
            kl_divergence(np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5]))

    def test_kl_frozen_value(self):
        val = kl_divergence(np.array([0.9, 0.1]), np.array([0.8, 0.2]))
        frozen = 0.9 * math.log(0.9 / 0.8) + 0.1 * math.log(0.1 / 0.2)
        assert val == pytest.approx(frozen, abs=1e-15)
        assert val == pytest.approx(0.03669, abs=1e-5)

    def test_kl_support_conventions(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) \
            == pytest.approx(math.log(2), abs=1e-15)
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_nonnegativity_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(S))
        q = rng.dirichlet(np.ones(S))
        for fn in (kl_divergence, hellinger_sq, squared_l2):
            assert fn(p, q) >= 0.0
            assert fn(p, p) == pytest.approx(0.0, abs=1e-15)
        if 0.5 * np.abs(p - q).sum() > 1e-9:
            assert kl_divergence(p, q) > 0.0

    def test_kl_l2_sandwich_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            S = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(S) * rng.uniform(0.5, 3.0))
            q = rng.dirichlet(np.ones(S) * rng.uniform(0.5, 3.0))
            p = 0.9 * p + 0.1 / S
            q = 0.9 * q + 0.1 / S
            l2 = squared_l2(p, q)
            kl = kl_divergence(p, q)
            assert kl >= LOG_E_OVER_2 / max(p.max(), q.max()) * l2 - 1e-12
            assert kl <= l2 / q.min() + 1e-12


class TestDivergenceD:
    def test_identical_models_zero(self):
        m = random_models(1, 3, seed0=0)[0]
        inst = make_instance([m, m], np.array([0.5, 0.5]), 4, 50)
        D, pair = divergence_D(inst)
        assert D == 0.0
        assert np.all(pair == 0.0)

    def test_stationary_start_identity(self):
        # mu = pi makes the visitation weights exactly pi, so
        # D(k,k') = KL(pi_k, pi_k')/(H-1) + D_pi(k,k')
        a, b = random_models(2, 3, seed0=5)
        a2 = validate_model(a.P, a.pi)
        b2 = validate_model(b.P, b.pi)
        H = 37
        inst = make_instance([a2, b2], np.array([0.5, 0.5]), 4, H)
        _, pair = divergence_D(inst)
        _, pair_pi = divergence_D_pi([a2, b2])
        expected = kl_divergence(a2.pi, b2.pi) / (H - 1) + pair_pi[0, 1]
        assert pair[0, 1] == pytest.approx(expected, rel=1e-10)

    def test_visitation_weights_sum_to_one(self):
        m = random_models(1, 4, seed0=7)[0]
        w = visitation_weights(m, 23)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


    def test_exhaustive_path_enumeration_oracle(self):
        # independent oracle at H = 6: enumerate all S^H paths of chain A and
        # average the log likelihood ratio over (H - 1)
        A = validate_model([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        B = validate_model([[0.8, 0.2], [0.3, 0.7]], [0.5, 0.5])
        H = 6
        inst = make_instance([A, B], np.array([0.5, 0.5]), 4, H)
        _, pair = divergence_D(inst)
        total = 0.0
        for path in itertools.product(range(2), repeat=H):
            prob = A.mu[path[0]]
            ratio = math.log(A.mu[path[0]] / B.mu[path[0]])
            for s, s2 in zip(path[:-1], path[1:]):
                prob *= A.P[s, s2]
                ratio += math.log(A.P[s, s2] / B.P[s, s2])
            total += prob * ratio
        assert pair[0, 1] == pytest.approx(total / (H - 1), abs=1e-12)

    def test_monte_carlo_oracle_H100(self):
        # 1e6-sample Monte Carlo estimate of E[log ratio]/(H-1), 3 sigma band
        A = validate_model([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        B = validate_model([[0.8, 0.2], [0.3, 0.7]], [0.5, 0.5])
        H, N = 100, 1_000_000
        inst = make_instance([A, B], np.array([0.5, 0.5]), 4, H)
        _, pair = divergence_D(inst)
        rng = np.random.default_rng(123)
        logratio_mu = np.log(A.mu / B.mu)
        logratio_P = np.log(A.P / B.P)
        cdf = np.cumsum(A.P, axis=1)
        cdf[:, -1] = 1.0
        cur = (rng.random(N)[:, None] > np.cumsum(A.mu)[None, :-1]).sum(axis=1)
        acc = logratio_mu[cur].astype(np.float64)
        for _ in range(H - 1):
            nxt = (rng.random(N) > cdf[cur, 0]).astype(np.int64)  # S = 2 shortcut
            acc += logratio_P[cur, nxt]
            cur = nxt
        est = acc.mean() / (H - 1)
        se = acc.std(ddof=1) / math.sqrt(N) / (H - 1)
        assert abs(est - pair[0, 1]) < 3 * se

    def test_infinite_kl_propagates(self):
        # disjoint initial supports push the mu term to +inf in both orders;
        # the min and the pairwise matrix carry the infinity without raising
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        a = validate_model(P, [1.0, 0.0])
        b = validate_model(P, [0.0, 1.0])
        inst = make_instance([a, b], np.array([0.5, 0.5]), 4, 10)
        D, pair = divergence_D(inst)
        assert math.isinf(pair[0, 1]) and math.isinf(pair[1, 0])
        assert math.isinf(D)

    def test_min_over_ordered_pairs_asymmetric(self):
        a, b = random_models(2, 3, seed0=11)
        inst = make_instance([a, b], np.array([0.5, 0.5]), 4, 30)
        D, pair = divergence_D(inst)
        assert D == min(pair[0, 1], pair[1, 0])
        assert pair[0, 1] != pair[1, 0]  # ordered pairs matter

    def test_state_relabeling_invariance(self):
        a, b = random_models(2, 4, seed0=21)
        perm = np.array([2, 0, 3, 1])
        def relabel(m):
            return validate_model(m.P[np.ix_(perm, perm)], m.mu[perm])
        inst = make_instance([a, b], np.array([0.5, 0.5]), 4, 25)
        inst_p = make_instance([relabel(a), relabel(b)], np.array([0.5, 0.5]), 4, 25)
        assert divergence_D(inst)[0] == pytest.approx(divergence_D(inst_p)[0], rel=1e-12)


class TestVisitationAgainstLoop:
    """visitation_weights stops the recurrence at an exact fixed point and adds
    the remaining steps by accumulation; it must equal the plain loop byte for byte."""

    # the block budget is patched to hold ``steps`` settled steps per accumulate pass
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 12), st.booleans(),
           st.one_of(st.sampled_from([2, 3]), st.integers(4, 300),
                     st.integers(4_097, 12_288)),
           st.integers(1, 4_096))
    @settings(max_examples=120, deadline=None)
    def test_random_chains_match_loop(self, seed, S, zeros, H, steps):
        model = random_ergodic_set(np.random.default_rng(seed), 1, S, zeros)[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memory, "BLOCK_BYTES", steps * 8 * S)
            weights = visitation_weights(model, H)
        assert weights.tobytes() == reference_visitation_weights(model, H).tobytes()

    @pytest.mark.parametrize("S_prime, fixed_at", [(1, 0), (2, 0), (5, None)])
    @pytest.mark.parametrize("H", [2, 3, 100, 4_097, 8_199, 20_000])
    def test_separation_chains_match_loop(self, S_prime, fixed_at, H):
        # S' = 1, 2 start at their fixed point (mu = pi is a row of P); the
        # first S' = 5 chain ends in a 2-cycle of last-bit values, so it never
        # stops early and takes the plain loop all the way
        model = gen_separation_models(S_prime)[0]
        assert first_fixed_step(model, H) == fixed_at
        assert visitation_weights(model, H).tobytes() == \
            reference_visitation_weights(model, H).tobytes()

    @pytest.mark.parametrize("passes, extra", [(1, -1), (1, 0), (1, 1), (3, 0), (3, 7)])
    def test_pass_edges_match_loop(self, monkeypatch, passes, extra):
        # S' = 1 settles at step 0, which leaves H - 2 steps to accumulate; the
        # budget holds 16 of them per pass, so these H end a pass exactly, one
        # short of it or past it
        model = gen_separation_models(1)[0]
        monkeypatch.setattr(memory, "BLOCK_BYTES", 16 * model.pi.nbytes)
        H = 16 * passes + extra + 2
        assert visitation_weights(model, H).tobytes() == \
            reference_visitation_weights(model, H).tobytes()


class TestModelChecks:
    # every stacked divergence and gap takes two or more models on one state space
    @pytest.mark.parametrize("compute", [divergence_D_pi, delta_W_sq, witness_state_gap,
                                         eta_params, check_gap_inequalities])
    def test_one_model_raises(self, compute):
        with pytest.raises(InputError, match="need at least two models"):
            compute(random_models(1, 3))

    @pytest.mark.parametrize("compute", [divergence_D_pi, witness_state_gap, eta_params,
                                         check_gap_inequalities])
    def test_state_space_mismatch_raises(self, compute):
        models = [gen_random_ergodic(3, 0, 0.05), gen_random_ergodic(4, 1, 0.05)]
        with pytest.raises(InputError, match="same state space"):
            compute(models)

    @pytest.mark.parametrize("H", [1, 0])
    def test_visitation_weights_need_two_steps(self, H):
        with pytest.raises(InputError, match="H must be >= 2"):
            visitation_weights(random_models(1, 3)[0], H)


class TestDivergenceDPi:
    def test_identical_zero(self):
        m = random_models(1, 3, seed0=1)[0]
        assert divergence_D_pi([m, m])[0] == 0.0

    def test_limit_of_divergence_D(self):
        a, b = random_models(2, 3, seed0=15)
        d_pi, pair_pi = divergence_D_pi([a, b])
        diffs = []
        for H in (100, 1_000, 10_000):
            inst = make_instance([a, b], np.array([0.5, 0.5]), 4, H)
            _, pair = divergence_D(inst)
            diffs.append(abs(pair[0, 1] - pair_pi[0, 1]))
        # O(1/H) decay: tenfold H shrinks the gap by roughly tenfold
        assert diffs[1] < diffs[0] / 3
        assert diffs[2] < diffs[1] / 3

    def test_separation_instance_closed_form(self):
        # every state contributes pi(s) * (1/2) log 3 under the normalized
        # 3:1 kernels, so D_pi = (log 3) / 2 for every S'
        for sp in (1, 2, 4):
            models = gen_separation_models(sp)
            d_pi, _ = divergence_D_pi(models)
            assert d_pi == pytest.approx(math.log(3) / 2, abs=1e-12)


class TestGaps:
    def test_delta_w_identical_zero(self):
        m = random_models(1, 3, seed0=2)[0]
        assert delta_W_sq([m, m]) == 0.0

    def test_delta_w_symmetric(self):
        a, b = random_models(2, 3, seed0=3)
        assert delta_W_sq([a, b]) == delta_W_sq([b, a])

    def test_delta_w_separation_closed_form(self):
        for sp in (1, 2, 4):
            val = delta_W_sq(gen_separation_models(sp))
            closed = ((3 * math.sqrt(3) - 1) ** 2 + (3 - math.sqrt(3)) ** 2) / (32 * sp)
            assert val == pytest.approx(closed, abs=1e-12)

    def test_witness_state_gap_separation(self):
        for sp in (1, 2):
            alpha, delta_sq, witness = witness_state_gap(gen_separation_models(sp))
            assert alpha == pytest.approx(1 / (4 * sp), abs=1e-12)
            assert delta_sq == pytest.approx(1 / (2 * sp), abs=1e-12)
            assert witness[0, 1] == 0  # every state maximizes; ties -> lowest

    def test_witness_state_gap_identical_models(self):
        m = random_models(1, 3, seed0=4)[0]
        _, delta_sq, _ = witness_state_gap([m, m])
        assert delta_sq == 0.0

    def test_witness_product_below_dpi(self):
        for i in range(100):
            models = random_models(2, 2 + i % 4, seed0=1000 + 7 * i)
            alpha, delta_sq, _ = witness_state_gap(models)
            d_pi, _ = divergence_D_pi(models)
            assert alpha * delta_sq <= p_max(models) * d_pi / LOG_E_OVER_2 + 1e-12

    def test_eta_params(self):
        m = random_models(1, 3, seed0=6)[0]
        assert eta_params([m, m]) == (1.0, 1.0, 1.0)
        e_mu, e_pi, e_p = eta_params(gen_separation_models(2))
        assert e_pi == pytest.approx(3.0, abs=1e-12)
        assert e_p == pytest.approx(3.0, abs=1e-12)

    def test_eta_infinite_on_support_mismatch(self):
        a = validate_model([[0.0, 1.0], [0.5, 0.5]], [0.5, 0.5])
        b = validate_model([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
        _, _, e_p = eta_params([a, b])
        assert e_p == math.inf


class TestGapInequalities:
    def test_identical_models_all_hold(self):
        m = random_models(1, 3, seed0=8)[0]
        for chk in check_gap_inequalities([m, m]):
            assert chk.holds

    def test_separation_closed_form_bound(self):
        for sp in (1, 2, 4):
            models = gen_separation_models(sp)
            checks = {c.name: c for c in check_gap_inequalities(models)}
            up = checks["deltaW_upper_hellinger"]
            # plug the closed forms into the bound directly
            pm = 3 / (4 * sp)
            d_pair = math.log(3) / 2
            h2 = hellinger_sq(models[0].pi, models[1].pi)
            expected = 2 * pm / LOG_E_OVER_2 * d_pair + 4 * h2
            assert up.rhs == pytest.approx(expected, rel=1e-12)
            assert up.holds

    def test_random_sweep_no_violations(self):
        for i in range(50):
            models = random_models(2, 2 + i % 5, seed0=303 + 11 * i)
            for chk in check_gap_inequalities(models):
                assert chk.holds, chk


class TestStackedAgainstLoopReferences:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 4),
           st.integers(2, 12), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_references(self, seed, K, S, zeros):
        # Sums along a row that holds zeros may regroup once a row has 8 or
        # more entries, so only those cases are compared to a tolerance.
        rng = np.random.default_rng(seed)
        models = random_ergodic_set(rng, K, S, zeros)
        exact = not zeros or S < 8
        inst = make_instance(models, np.ones(K) / K, 4 * K, int(rng.integers(2, 60)))
        D, pair = divergence_D(inst)
        ref = reference_divergence_D(inst)
        assert_same(pair, ref, exact)
        assert_same(D, ref[~np.eye(K, dtype=bool)].min(), exact)
        d_pi, pair_pi = divergence_D_pi(models)
        ref = reference_pairwise_weighted_kl(models, [m.pi for m in models])
        assert_same(pair_pi, ref, exact)
        assert_same(d_pi, ref[~np.eye(K, dtype=bool)].min(), exact)
        alpha, delta_sq, witness = witness_state_gap(models)
        r_alpha, r_delta_sq, r_witness = reference_witness(models)
        assert (alpha, delta_sq) == (r_alpha, r_delta_sq)
        assert witness.dtype == r_witness.dtype and np.array_equal(witness, r_witness)
        assert eta_params(models) == reference_eta(models)
        checks = check_gap_inequalities(models)
        assert [c.name for c in checks] == [r[0] for r in reference_gap_checks(models)]
        for chk, (_, holds, slack, lhs, rhs) in zip(checks, reference_gap_checks(models)):
            assert chk.holds == holds, chk
            assert_same([chk.lhs, chk.rhs], [lhs, rhs], exact)
            assert_same(chk.slack, slack, exact, scale=max(abs(lhs), abs(rhs)))

    @pytest.mark.parametrize("other, finite_lower", [
        ([[0.6, 0.4, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8]], True),   # same support
        ([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], False),  # KL = +inf per row
    ])
    def test_sandwich_sentinel_when_no_slack_is_finite(self, other, finite_lower):
        # every row of both chains holds a zero, so L2 / min q is +inf on every
        # row and no upper slack is finite; the check reports (inf, 0.0, 0.0)
        a = validate_model([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]], np.ones(3) / 3)
        b = validate_model(other, np.ones(3) / 3)
        checks = {c.name: c for c in check_gap_inequalities([a, b])}
        assert checks["kl_sandwich_upper"] == InequalityCheck(
            "kl_sandwich_upper", True, math.inf, 0.0, 0.0)
        lower = checks["kl_sandwich_lower"]
        assert math.isfinite(lower.slack) == finite_lower
        if not finite_lower:
            assert (lower.holds, lower.slack, lower.lhs, lower.rhs) == (True, math.inf, 0.0, 0.0)
        ref_lo, ref_hi = reference_sandwich([a, b])
        assert (lower.slack, lower.lhs, lower.rhs) == ref_lo
        assert (math.inf, 0.0, 0.0) == ref_hi


class TestLowerBound:
    def test_zero_divergence_never_holds(self):
        rep = lower_bound_check(eps=0.01, delta=0.1, T=100, H=50, D=0.0,
                                alpha_min=0.5)
        # log(alpha_min / (16 e eps)) = log(0.5/0.435) > 0: fails for every H
        assert rep.rhs_eq2 > 0
        assert not rep.necessary_holds
        assert rep.min_H_necessary is None

    def test_vanishing_second_term(self):
        eps = 0.01
        alpha = 16 * math.e * eps
        rep = lower_bound_check(eps=eps, delta=0.1, T=100, H=10, D=0.05,
                                alpha_min=alpha)
        assert rep.rhs_eq2 == pytest.approx(math.log(1 / 0.2) / (eps * 100), rel=1e-12)

    def test_frozen_example(self):
        rep = lower_bound_check(eps=0.01, delta=0.1, T=1000, H=3, D=0.05,
                                alpha_min=0.5)
        expected_rhs = math.log(5) / 10 + math.log(0.5 / (16 * math.e * 0.01))
        assert rep.rhs_eq2 == pytest.approx(expected_rhs, rel=1e-12)
        assert rep.lhs_4HD == pytest.approx(0.4, rel=1e-12)
        assert rep.necessary_holds == (0.4 >= expected_rhs)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            eps = float(rng.uniform(0.001, 0.5))
            delta = float(rng.uniform(0.001, 0.5))
            T = int(rng.integers(1, 10_000))
            H = int(rng.integers(2, 10_000))
            D = float(rng.uniform(0, 0.2))
            alpha = float(rng.uniform(0.01, 1.0))
            rep = lower_bound_check(eps, delta, T, H, D, alpha)
            assert rep.necessary_holds == reference_necessary_condition(
                eps, delta, T, H, D, alpha)

    def test_min_H_agrees_with_scan(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            eps = float(rng.uniform(0.01, 0.5))
            delta = float(rng.uniform(0.01, 0.5))
            T = int(rng.integers(1, 500))
            D = float(rng.uniform(0.001, 0.5))
            alpha = float(rng.uniform(0.01, 1.0))
            rep = lower_bound_check(eps, delta, T, 2, D, alpha)
            scan = next((H for H in range(2, 20_000)
                         if lower_bound_check(eps, delta, T, H, D, alpha).necessary_holds),
                        None)
            assert rep.min_H_necessary == scan

    def test_invalid_ranges(self):
        with pytest.raises(InputError, match=r"eps must be in \(0,1\]; got 0.0"):
            lower_bound_check(0.0, 0.1, 10, 10, 0.1, 0.5)
        with pytest.raises(InputError, match=r"delta must be in \(0, 1/2\]; got 0.6"):
            lower_bound_check(0.1, 0.6, 10, 10, 0.1, 0.5)
        with pytest.raises(InputError, match=r"alpha_min must be in \(0,1\]; got 1.5"):
            lower_bound_check(0.1, 0.1, 10, 10, 0.1, 1.5)

    @pytest.mark.parametrize("T, H", [(0, 10), (10, 1)])
    def test_T_or_H_out_of_range_raises(self, T, H):
        with pytest.raises(InputError, match="need T >= 1 and H >= 2"):
            lower_bound_check(0.1, 0.1, T, H, 0.1, 0.5)

    def test_min_H_steps_back_from_an_overshooting_ceil(self):
        # 1 + rhs / (4 D) rounds to 15.000000000000002 here, whose ceil is 16,
        # yet 4 (15 - 1) D already reaches rhs
        D = 0.002489897914077941
        rep = lower_bound_check(0.02, 0.5, 100, 2, D, 1.0)
        assert math.ceil(1.0 + rep.rhs_eq2 / (4.0 * D)) == 16
        assert rep.min_H_necessary == 15
        assert [lower_bound_check(0.02, 0.5, 100, H, D, 1.0).necessary_holds
                for H in (14, 15)] == [False, True]


class TestPredictedErrorRate:
    def test_zero_divergence_gives_T(self):
        assert predicted_error_rate(100, 50, 0.5, 0.0, 1.0) == 100.0

    @pytest.mark.parametrize("T, H, gamma_ps, message", [
        (0, 50, 0.5, "need T, H >= 1"), (100, 0, 0.5, "need T, H >= 1"),
        (100, 50, 0.0, "gamma_ps must be in"), (100, 50, 1.5, "gamma_ps must be in"),
    ])
    def test_out_of_range_arguments_raise(self, T, H, gamma_ps, message):
        with pytest.raises(InputError, match=message):
            predicted_error_rate(T, H, gamma_ps, 0.1, 1.0)

    def test_rate_upper_bounds_observed_error(self):
        # one-sided Monte-Carlo check with the explicit analysis constant
        from mmclab import (count_transitions, empirical_matrix, refine, sample_trajectories,
                            spectral_cluster, SpectralConfig)
        models = gen_separation_models(2)
        c_eta = c_eta_explicit(3.0)
        d_pi, _ = divergence_D_pi(models)
        for H in (500, 2_000):
            inst = make_instance(models, np.array([0.5, 0.5]), 200, H)
            rate = predicted_error_rate(200, H, 1.0, d_pi, c_eta)
            for seed in range(10):
                counts = count_transitions(sample_trajectories(inst, seed).states, inst.S)
                W_hat = empirical_matrix(counts)
                cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
                r1 = spectral_cluster(W_hat, cfg)
                r2 = refine(counts, r1.labels, r1.K_hat, 0.5)
                assert misclassification(r2.labels, inst.decoding) <= rate

    def test_doubling_identity(self):
        T, H = 200, 300
        r1 = predicted_error_rate(T, H, 0.4, 0.2, 0.01)
        r2 = predicted_error_rate(T, 2 * H, 0.4, 0.2, 0.01)
        assert r2 == pytest.approx(r1 ** 2 / T, rel=1e-9)

    def test_explicit_constant(self):
        val = c_eta_explicit(3.0)
        assert val == pytest.approx(1 / (256 * (36 + 5 * math.log(3))), rel=1e-12)
        with pytest.raises(InputError, match="eta_p must be >= 1"):
            c_eta_explicit(0.5)


class TestGapReport:
    def test_assembly_and_json(self):
        inst = gen_separation_instance(2, T=20, H=100)
        rep = gap_report(inst)
        assert rep.D_pi == pytest.approx(math.log(3) / 2, abs=1e-12)
        assert rep.alpha_min_clusters == 0.5
        assert rep.gamma_ps_min == pytest.approx(1.0, abs=1e-12)
        doc = rep.to_json()
        assert doc["eta_p"] == pytest.approx(3.0)
        assert len(doc["pairwise_D"]) == 2

    def test_json_keys_are_the_fields_in_order(self):
        gaps = gap_report(gen_separation_instance(2, T=20, H=100))
        bounds = lower_bound_check(0.01, 0.1, 100, 50, 0.05, 0.5)
        for rep in (gaps, bounds):
            names = [f.name for f in dataclasses.fields(rep)]
            assert list(rep.to_json()) == names

    # the gap checks and the report derive D_pi, Delta_W^2 and the witness gap
    # from the same stacked fields, so they agree bit for bit
    @given(st.integers(0, 2**31), st.integers(2, 4), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_gap_checks_read_the_report_quantities(self, seed, K, S):
        models = random_models(K, S, seed0=seed)
        rep = gap_report(make_instance(models, np.ones(K) / K, 2 * K, 20))
        checks = {c.name: c for c in check_gap_inequalities(models)}
        assert checks["dpi_vs_witness"].lhs == rep.D_pi
        assert checks["dpi_vs_witness"].rhs == LOG_E_OVER_2 * rep.alpha * rep.Delta_sq / rep.p_max
        assert checks["deltaW_upper_hellinger"].lhs == rep.delta_W_sq
        assert checks["deltaW_lower_witness"].lhs == rep.delta_W_sq
