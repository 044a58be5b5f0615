"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Two sub-criteria assert published closed forms that are arithmetically
inconsistent with row-stochastic kernels (see notes in the repository's
decision log): those are implemented exactly as stated and marked strict
xfail, each paired with a sibling asserting the self-consistent value at the
same tolerance. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from mmclab import (
    augmented_chain,
    build_matrices,
    check_gap_inequalities,
    count_transitions,
    delta_W_sq,
    divergence_D_pi,
    empirical_matrix,
    gen_random_ergodic,
    gen_separation_models,
    witness_state_gap,
    lower_bound_check,
    make_instance,
    misclassification,
    oracle_classify,
    pseudo_spectral_gap,
    refine,
    sample_trajectories,
    spectral_cluster,
    SpectralConfig,
)
from mmclab.cli import run_sweep
from mmclab.embedding import embed_model
from mmclab.spectral import sigma_threshold
from tests.conftest import (
    matrix_from_values,
    random_labels,
    reference_brute_force_misclassification,
    reference_necessary_condition,
    reference_pseudo_spectral_gap_terms,
    reference_two_inf_distance,
)


def report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


SPRIMES = (1, 2, 4, 8)
CLAIMED_DW2_NUM = ((3 * math.sqrt(3) - 1) / 2) ** 2 + ((3 - math.sqrt(3)) / 2) ** 2


def separation_quantities(sp):
    models = gen_separation_models(sp)
    alpha, delta_sq, _ = witness_state_gap(models)
    d_pi, _ = divergence_D_pi(models)
    return models, alpha, delta_sq, d_pi, delta_W_sq(models)


class TestCriterion1ClosedForms:
    @pytest.mark.xfail(strict=True, reason=(
        "published closed forms use kernels whose rows sum to 2; with "
        "row-stochastic kernels Delta^2, D_pi, Delta_W^2 come out 4x/2x/8x "
        "smaller (alpha matches)"))
    def test_ac1_closed_forms_as_published(self):
        ok = True
        for sp in SPRIMES:
            _, alpha, delta_sq, d_pi, dw2 = separation_quantities(sp)
            ok &= abs(alpha - 1 / (4 * sp)) <= 1e-9
            ok &= abs(delta_sq - 2 / sp) <= 1e-9
            ok &= abs(d_pi - math.log(3)) <= 1e-9
            ok &= abs(dw2 - CLAIMED_DW2_NUM / sp) <= 1e-9
        report("AC1/published", ok, "(literal constants from the source construction)")
        assert ok

    def test_ac1_closed_forms_consistent(self):
        ok = True
        for sp in SPRIMES:
            _, alpha, delta_sq, d_pi, dw2 = separation_quantities(sp)
            ok &= abs(alpha - 1 / (4 * sp)) <= 1e-9
            ok &= abs(delta_sq - 1 / (2 * sp)) <= 1e-9
            ok &= abs(d_pi - math.log(3) / 2) <= 1e-9
            ok &= abs(dw2 - CLAIMED_DW2_NUM / (8 * sp)) <= 1e-9
        report("AC1", ok, "(closed forms of the normalized construction, 1e-9)")
        assert ok


class TestCriterion2Scaling:
    def test_ac2_ratio_grows_linearly_in_S(self):
        S_vals, ratios = [], []
        for sp in SPRIMES:
            _, alpha, delta_sq, _, dw2 = separation_quantities(sp)
            S_vals.append(2 * sp)
            ratios.append(dw2 / (alpha * delta_sq))
        coeffs = np.polyfit(S_vals, ratios, 1)
        fit = np.polyval(coeffs, S_vals)
        rel_dev = float(np.max(np.abs(fit - np.asarray(ratios)) / np.asarray(ratios)))
        hellinger_ok = True
        for sp in SPRIMES:
            models, *_ = separation_quantities(sp)
            checks = {c.name: c for c in check_gap_inequalities(models)}
            hellinger_ok &= checks["deltaW_upper_hellinger"].holds
        ok = rel_dev < 0.01 and coeffs[0] > 0 and hellinger_ok
        report("AC2", ok, f"(linear-fit deviation {rel_dev:.2e}, slope {coeffs[0]:.3f})")
        assert ok


class TestCriterion3GapSweep:
    def test_ac3_no_violations_500_pairs(self):
        violations = 0
        for i in range(500):
            S = 2 + i % 7  # S in {2..8}
            models = [gen_random_ergodic(S, 40_000 + 13 * i + j, 1 / (4 * S))
                      for j in range(2)]
            for chk in check_gap_inequalities(models):
                violations += 0 if chk.holds else 1
        report("AC3", violations == 0, f"({violations} violations over 500 pairs)")
        assert violations == 0


class TestCriterion4MetricAndOracle:
    def test_ac4_metric_axioms_1000_triples(self):
        rng = np.random.default_rng(4)
        bad = 0
        for _ in range(1000):
            K, T = int(rng.integers(2, 5)), int(rng.integers(4, 20))
            f = random_labels(rng, T, K)
            g = random_labels(rng, T, K)
            h = random_labels(rng, T, K)
            sym = misclassification(f, g) == misclassification(g, f)
            ident = misclassification(f, rng.permutation(K)[f]) == 0
            tri = misclassification(f, h) <= misclassification(f, g) + misclassification(g, h)
            bad += 0 if (sym and ident and tri) else 1
        report("AC4/metric", bad == 0, f"({bad} axiom failures over 1000 triples)")
        assert bad == 0

    def test_ac4_hungarian_equals_brute_force(self):
        rng = np.random.default_rng(5)
        bad = 0
        for _ in range(200):
            K = int(rng.integers(2, 9))
            T = int(rng.integers(K, 60))
            f = random_labels(rng, T, K)
            f_hat = random_labels(rng, T, K)
            if reference_brute_force_misclassification(f_hat, f) != misclassification(f_hat, f):
                bad += 1
        report("AC4/assignment", bad == 0, f"({bad} disagreements over 200 cases)")
        assert bad == 0

    @pytest.mark.xfail(strict=True, reason=(
        "the doublet chain's k-step multiplicative-reversibilization spectrum "
        "equals the base chain's (k-1)-step one plus zeros, so its "
        "pseudo-spectral gap is max_j gamma_j/(j+1), not the base gap; "
        "equality within 1e-8 cannot hold"))
    def test_ac4_augmented_gap_equality_as_published(self):
        models = [gen_random_ergodic(2 + i % 5, 60_000 + i, 0.04) for i in range(100)]
        worst = max(abs(augmented_chain(mm).model.gamma_ps - mm.gamma_ps)
                    for mm in models)
        report("AC4/doublet-published", worst <= 1e-8, f"(worst |diff| = {worst:.3f})")
        assert worst <= 1e-8

    def test_ac4_augmented_gap_shift_identity(self):
        worst = 0.0
        for i in range(100):
            mm = gen_random_ergodic(2 + i % 5, 60_000 + i, 0.04)
            k = max(12, 2 * mm.t_mix)
            aug = augmented_chain(mm).model
            direct = pseudo_spectral_gap(aug.P, aug.pi, k_max=k + 1)
            terms = reference_pseudo_spectral_gap_terms(mm.P, mm.pi, k)
            gammas = terms * np.arange(1, k + 1)
            shifted = float((gammas / (np.arange(1, k + 1) + 1)).max())
            worst = max(worst, abs(direct - shifted))
            base = float(terms.max())
            assert base / 2 - 1e-9 <= direct <= base + 1e-9
        ok = worst <= 1e-8
        report("AC4/doublet", ok, f"(shifted-spectrum identity, worst |diff| = {worst:.2e})")
        assert ok


class TestCriterion5NoiselessRecovery:
    def test_ac5_exact_recovery_50_instances(self):
        fails = 0
        T, S, H = 60, 5, 10 ** 9
        for i in range(50):
            K = 2 + i % 3
            models = [gen_random_ergodic(S, 9_000 + 41 * i + j, 0.02) for j in range(K)]
            inst = make_instance(models, np.full(K, 1.0 / K), T, H)
            rows = np.stack([embed_model(mm) for mm in models])
            W = matrix_from_values(rows[inst.decoding], S=S, H=H)
            gamma = min(mm.gamma_ps for mm in models)
            base = math.sqrt(T * S / (gamma * H) * math.log(T * H / 0.1))
            target = math.sqrt(delta_W_sq(models)) / 4
            cfg = SpectralConfig(delta=0.1, gamma_ps=gamma, c_sigma=target / base,
                                 c_rho=1e-9)
            assert sigma_threshold(T, S, H, cfg) < math.sqrt(delta_W_sq(models)) / 2
            res = spectral_cluster(W, cfg)
            if res.K_hat != K or misclassification(res.labels, inst.decoding) != 0:
                fails += 1
        report("AC5", fails == 0, f"({50 - fails}/50 exact noiseless recoveries)")
        assert fails == 0


DECAY_HS = (500, 1_000, 2_000, 4_000)


@pytest.fixture(scope="module")
def decay_runs():
    models = gen_separation_models(2)
    out = {}
    for H in DECAY_HS:
        inst = make_instance(models, np.array([0.5, 0.5]), 200, H)
        e1s, e2s = [], []
        for seed in range(50):
            counts = count_transitions(sample_trajectories(inst, seed).states, inst.S)
            W_hat = empirical_matrix(counts)
            cfg = SpectralConfig(delta=0.1, gamma_ps=1.0, c_sigma=0.15, c_rho=2.0)
            r1 = spectral_cluster(W_hat, cfg)
            r2 = refine(counts, r1.labels, r1.K_hat, 0.5)
            e1s.append(misclassification(r1.labels, inst.decoding))
            e2s.append(misclassification(r2.labels, inst.decoding))
        out[H] = (np.array(e1s), np.array(e2s))
    return out


class TestCriterion6ErrorDecay:
    HS = DECAY_HS

    def test_ac6a_mean_error_non_increasing(self, decay_runs):
        means = [float(decay_runs[H][1].mean()) / 200 for H in self.HS]
        ok = all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
        report("AC6a", ok, f"(stage-2 mean error rates {[round(x, 4) for x in means]})")
        assert ok

    def test_ac6b_log_error_slope_negative(self, decay_runs):
        means = np.array([decay_runs[H][1].mean() / 200 for H in self.HS])
        slope = np.polyfit(self.HS, np.log(means + 1 / 200), 1)[0]
        report("AC6b", slope < 0, f"(slope {slope:.2e})")
        assert slope < 0

    def test_ac6c_stage2_not_worse_paired(self, decay_runs):
        ok = True
        details = []
        for H in self.HS:
            e1, e2 = decay_runs[H]
            d = e2.astype(float) - e1.astype(float)
            sd = d.std(ddof=1)
            crit = stats.t.ppf(0.95, len(d) - 1) * sd / math.sqrt(len(d)) if sd > 0 else 0.0
            ok &= d.mean() <= crit + 1e-12
            details.append(f"H={H}: {d.mean():+.2f}")
        report("AC6c", ok, "(paired one-sided 95%: " + ", ".join(details) + ")")
        assert ok


class TestCriterion7PluginConsistency:
    def test_ac7_plugin_matches_oracle(self):
        models = [gen_random_ergodic(4, 77, 0.05), gen_random_ergodic(4, 78, 0.05)]
        assert divergence_D_pi(models)[0] > 0.2  # well separated
        inst = make_instance(models, np.array([0.5, 0.5]), 100, 10_000)
        assert inst.T * inst.H >= 10 ** 6
        agree = total = 0
        for seed in range(10):
            counts = count_transitions(sample_trajectories(inst, seed).states, inst.S)
            plug = refine(counts, inst.decoding, 2, 1e-9)
            oracle = oracle_classify(counts, models)
            agree += int((plug.labels == oracle).sum())
            total += inst.T
        frac = agree / total
        report("AC7", frac >= 0.99, f"(agreement {frac:.4f} over 10 seeds)")
        assert frac >= 0.99


class TestCriterion8LowerBoundConsistency:
    def test_ac8_dual_forms_agree_on_grid(self):
        rng = np.random.default_rng(8)
        disagreements = 0
        for _ in range(10_000):
            eps = float(rng.uniform(0.001, 1.0))
            delta = float(rng.uniform(0.001, 0.5))
            T = int(rng.integers(1, 100_000))
            H = int(rng.integers(2, 100_000))
            D = float(rng.uniform(0.0, 0.5))
            alpha = float(rng.uniform(0.001, 1.0))
            rep = lower_bound_check(eps, delta, T, H, D, alpha)
            if rep.necessary_holds != reference_necessary_condition(
                    eps, delta, T, H, D, alpha):
                disagreements += 1
        report("AC8/forms", disagreements == 0,
               f"({disagreements} disagreements over 10^4 grid points)")
        assert disagreements == 0

    def test_ac8_min_H_matches_direct_scan(self):
        rng = np.random.default_rng(9)
        bad = 0
        for _ in range(300):
            eps = float(rng.uniform(0.01, 0.5))
            delta = float(rng.uniform(0.01, 0.5))
            T = int(rng.integers(1, 1_000))
            D = float(rng.uniform(0.001, 0.5))
            alpha = float(rng.uniform(0.01, 1.0))
            rep = lower_bound_check(eps, delta, T, 2, D, alpha)
            scan = next((H for H in range(2, 50_000)
                         if lower_bound_check(eps, delta, T, H, D, alpha).necessary_holds),
                        None)
            if rep.min_H_necessary != scan:
                bad += 1
        report("AC8/minH", bad == 0, f"({bad} scan mismatches over 300 points)")
        assert bad == 0


class TestCriterion9ConcentrationEnvelope:
    def test_ac9_two_inf_below_envelope(self):
        model = gen_random_ergodic(4, 1234, 0.05)
        T, delta = 100, 0.1
        ok = True
        details = []
        for H in (1_000, 10_000):
            bound = 8 * math.sqrt(4 / (H * model.gamma_ps) * math.log(T * H / delta))
            hits = 0
            for seed in range(100):
                inst = make_instance([model, model], [0.5, 0.5], T, H)
                trajs = sample_trajectories(inst, seed)
                W, W_hat = build_matrices(inst, count_transitions(trajs.states, inst.S))
                hits += int(reference_two_inf_distance(W.values, W_hat.values) <= bound)
            ok &= hits >= 95
            details.append(f"H={H}: {hits}/100")
        report("AC9", ok, "(" + ", ".join(details) + ")")
        assert ok


class TestCriterion10Reproducibility:
    CFG = {
        "instance": {"type": "separation", "S_prime": 1},
        "T": [30],
        "H": [50, 100],
        "delta": [0.1],
        "lambda": [0.5],
        "seeds": [1, 2, 3],
        "c_sigma": 0.15,
        "c_rho": 2.0,
    }

    @staticmethod
    def _strip_walltime(text: str) -> str:
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().splitlines())

    def test_ac10_byte_identical_sweeps(self):
        a = self._strip_walltime(run_sweep(dict(self.CFG), jobs=1))
        b = self._strip_walltime(run_sweep(dict(self.CFG), jobs=1))
        c = self._strip_walltime(run_sweep(dict(self.CFG), jobs=8))
        ok = a == b == c
        report("AC10", ok, "(rerun and 1-vs-8-worker sweeps byte-identical)")
        assert ok
