"""Misclassification metric, divergences, separation gaps, and bound evaluators.

Everything here is a pure function of validated models or label vectors. KL
divergences may be +inf (disjoint supports); infinities propagate through the
min/comparison arithmetic rather than raising. Nothing here needs scipy:
``misclassification`` solves its optimal assignment itself, exactly, on the
rectangular confusion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import memory
from .chains import MarkovModel, pi_min as chains_pi_min, v_min as chains_v_min
from .errors import InputError
from .simgen import MixtureInstance

__all__ = [
    "misclassification",
    "kl_divergence",
    "hellinger_sq",
    "squared_l2",
    "visitation_weights",
    "divergence_D",
    "divergence_D_pi",
    "delta_W_sq",
    "witness_state_gap",
    "eta_params",
    "p_max",
    "InequalityCheck",
    "check_gap_inequalities",
    "GapReport",
    "gap_report",
    "BoundReport",
    "lower_bound_check",
    "predicted_error_rate",
    "c_eta_explicit",
]

# --- misclassification metric -------------------------------------------

def misclassification(f_hat: np.ndarray, f: np.ndarray) -> int:
    """E_T: misclassified count minimized over relabelings of the clusters.

    Label vectors may use different numbers of clusters, and any nonnegative
    label values. The best relabeling
    matches each cluster of the smaller label set to a distinct cluster of
    the larger one, maximizing the trajectories the matched pairs share;
    every trajectory of an unmatched cluster counts as misclassified, as if
    the smaller set were padded with empty clusters.
    """
    f_hat = np.asarray(f_hat, dtype=np.int64)
    f = np.asarray(f, dtype=np.int64)
    if f_hat.shape != f.shape or f_hat.ndim != 1:
        raise InputError(f"label shapes differ: {f_hat.shape} vs {f.shape}")
    if f.shape[0] == 0:
        return 0
    if f_hat.min() < 0 or f.min() < 0:
        raise InputError("labels must be nonnegative")
    # number the labels that occur 0, 1, ...: a label value far above T
    # (one read from a file, say) must not size the confusion matrix
    f_hat = np.unique(f_hat, return_inverse=True)[1]
    f = np.unique(f, return_inverse=True)[1]
    K_hat, K = int(f_hat.max()) + 1, int(f.max()) + 1
    confusion = np.bincount(f_hat * K + f, minlength=K_hat * K).reshape(K_hat, K)
    return f.shape[0] - _max_matching_weight(confusion.T if K_hat > K else confusion)


def _max_matching_weight(C: np.ndarray) -> int:
    """Largest sum of C[i, j] over matchings of every row i to a distinct
    column j, for an (n, m) integer matrix with n <= m.

    The minimum-cost assignment on the costs C.max() - C, by shortest
    augmenting paths with row and column potentials (Jonker & Volgenant
    1987; Crouse 2016): each row joins the matching through one Dijkstra
    search over the columns on the reduced costs, which stay nonnegative,
    so every value is an exact int64. Column 0 of the cost table is a dummy
    that the search starts from; rows are 1-based, and row 0 marks a free
    column.
    """
    n, m = C.shape
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = C.max() - C
    unreached = np.iinfo(np.int64).max // 2
    u = np.zeros(n + 1, dtype=np.int64)        # row potentials
    v = np.zeros(m + 1, dtype=np.int64)        # column potentials
    row_of = np.zeros(m + 1, dtype=np.intp)    # row matched to each column, 0 if none
    came_from = np.zeros(m + 1, dtype=np.intp)  # previous column on the shortest path
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(m + 1, unreached, dtype=np.int64)
        done = np.zeros(m + 1, dtype=bool)
        while row_of[j0]:
            done[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            came_from[closer] = j0
            j1 = int(np.argmin(np.where(done, unreached, dist)))
            step = dist[j1]
            u[row_of[done]] += step
            v[done] -= step
            dist[~done] -= step
            j0 = j1
        while j0:  # flip the matching along the path back to the dummy column
            row_of[j0] = row_of[came_from[j0]]
            j0 = came_from[j0]
    cols = np.flatnonzero(row_of[1:])
    return int(C[row_of[1:][cols] - 1, cols].sum())


# --- divergences between probability vectors ------------------------------
# The *_rows helpers reduce the last axis and broadcast over the others.

def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(p / q), 0.0).sum(axis=-1)


def _l2_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return ((p - q) ** 2).sum(axis=-1)


def _hellinger_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=-1)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum p log(p/q) with 0 log(0/q) = 0 and p>0, q=0 -> +inf."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise InputError(f"shape mismatch {p.shape} vs {q.shape}")
    return float(_kl_rows(p, q))


def hellinger_sq(p: np.ndarray, q: np.ndarray) -> float:
    """Squared Hellinger distance (1/2) sum (sqrt(p) - sqrt(q))^2."""
    return float(_hellinger_rows(np.asarray(p, float), np.asarray(q, float)))


def squared_l2(p: np.ndarray, q: np.ndarray) -> float:
    """sum (p - q)^2 (the L2 quantity of the KL sandwich)."""
    return float(_l2_rows(np.asarray(p, float), np.asarray(q, float)))


# --- instance-level divergences and gaps ----------------------------------
# P is stacked as (K, S, S), mu and pi as (K, S); entry [k, k', s] of a
# (K, K, S) row table compares row s of model k with row s of model k'.

def _stack(models) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (P, mu, pi) of two or more models on one state space."""
    models = tuple(models)
    if len(models) < 2:
        raise InputError("need at least two models")
    if len({m.S for m in models}) > 1:
        raise InputError("all models must share the same state space")
    return (np.stack([m.P for m in models]), np.stack([m.mu for m in models]),
            np.stack([m.pi for m in models]))


def _off_min(pair: np.ndarray) -> float:
    """Minimum over ordered pairs k != k'."""
    return float(pair[~np.eye(len(pair), dtype=bool)].min())


def visitation_weights(model: MarkovModel, H: int) -> np.ndarray:
    """Average state-visitation over steps 1..H-1 starting from mu, exactly.

    The recurrence acc <- acc @ P runs until acc @ P reproduces acc bit for
    bit. Every later step would add that same acc to the running total, so
    those additions go through np.add.accumulate, which adds one row after
    another exactly as the loop did. A chain whose iterates never settle
    (one that ends in a cycle of last-bit values) runs the loop to the end.
    """
    if H < 2:
        raise InputError("H must be >= 2")
    acc = model.mu.copy()
    total = np.zeros(model.S)
    steps = H - 1
    while steps:
        total += acc
        steps -= 1
        nxt = acc @ model.P
        if nxt.tobytes() == acc.tobytes():
            break
        acc = nxt
    if steps:
        # row 0 holds the running total and rows 1.. the fixed acc
        block = memory.rows_within(memory.BLOCK_BYTES, acc.nbytes)
        rows = np.empty((min(steps, block) + 1, model.S))
        rows[1:] = acc
        sums = np.empty_like(rows)
        while steps:
            n = min(steps, block)
            rows[0] = total
            np.add.accumulate(rows[:n + 1], axis=0, out=sums[:n + 1])
            total = sums[n].copy()
            steps -= n
    return total / (H - 1)


def _pairwise_weighted_kl(kl: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, K) sums over s of weights[k, s] * kl[k, k', s]; weight-0 states add nothing."""
    w = weights[:, None, :]
    with np.errstate(invalid="ignore"):
        terms = np.where(w > 0.0, w * kl, 0.0)
    # add the states one after another: a sum along the contiguous last axis
    # would go pairwise from 8 terms on and change the last bits
    return np.ascontiguousarray(np.moveaxis(terms, -1, 0)).sum(axis=0)


def divergence_D(instance: MixtureInstance) -> tuple[float, np.ndarray]:
    """Horizon-dependent divergence: initial-distribution KL over (H-1) plus
    visitation-weighted transition KLs; min over ordered pairs k != k'."""
    P, mu, _ = _stack(instance.models)
    weights = np.stack([visitation_weights(m, instance.H) for m in instance.models])
    pair = _pairwise_weighted_kl(_kl_rows(P[:, None], P[None]), weights)
    pair += _kl_rows(mu[:, None], mu[None]) / (instance.H - 1)
    return _off_min(pair), pair


def divergence_D_pi(models: list[MarkovModel] | tuple[MarkovModel, ...]
                    ) -> tuple[float, np.ndarray]:
    """Stationary-weighted version; min over ordered pairs k != k'."""
    P, _, pi = _stack(models)
    pair = _pairwise_weighted_kl(_kl_rows(P[:, None], P[None]), pi)
    return _off_min(pair), pair


def _upper_pairs(K: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs k < k' of K models in (k, k') order, as np.triu_indices(K, 1)."""
    return np.nonzero(~np.tri(K, dtype=bool))


def _delta_W_sq(P: np.ndarray, pi: np.ndarray) -> float:
    """delta_W_sq from the stacked P and pi: each model's embedding row holds
    sqrt(pi(s)) P(s, s'), row-major, as embedding.embed_model forms it."""
    E = (np.sqrt(pi)[:, :, None] * P).reshape(len(P), -1)
    return float(_l2_rows(E[:, None], E[None])[_upper_pairs(len(E))].min())


def delta_W_sq(models: list[MarkovModel] | tuple[MarkovModel, ...]) -> float:
    """Minimum pairwise squared l2 distance between model embeddings."""
    P, _, pi = _stack(models)
    return _delta_W_sq(P, pi)


def _witness(pi: np.ndarray, sep: np.ndarray) -> tuple[float, float, np.ndarray]:
    """witness_state_gap from pi and the (K, K, S) table of row l2 separations."""
    floor = np.minimum(pi[:, None], pi[None])
    prod = floor * sep
    witness = prod.argmax(axis=-1)  # argmax takes the lowest state on ties
    np.fill_diagonal(witness, -1)
    k, kp = _upper_pairs(len(pi))
    s = witness[k, kp]
    j = int(np.argmin(prod[k, kp, s]))  # the first worst pair in (k, k') order
    return float(floor[k[j], kp[j], s[j]]), float(sep[k[j], kp[j], s[j]]), witness


def witness_state_gap(models: list[MarkovModel] | tuple[MarkovModel, ...]
               ) -> tuple[float, float, np.ndarray]:
    """Best single-state (alpha, Delta^2) per pair, maximizing their product.

    For each pair, the witness state maximizes
    min(pi_k(s), pi_k'(s)) * ||p_k(.|s) - p_k'(.|s)||_2^2 (the product is the
    only combination entering the gap inequalities); the reported (alpha,
    Delta^2) come from the globally worst pair. witness_states[k, k'] holds
    the maximizing state per pair (-1 on the diagonal).
    """
    P, _, pi = _stack(models)
    return _witness(pi, _l2_rows(P[:, None], P[None]))


def _max_ratio(x: np.ndarray) -> float:
    """max(1, x[a] / x[b]) over ordered pairs (a, b) and entries; 0/0 is skipped
    and a positive entry over zero gives +inf."""
    num, den = x[:, None], x[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(num / den, where=(num != 0.0) | (den != 0.0), initial=1.0))


def eta_params(models: list[MarkovModel] | tuple[MarkovModel, ...]
               ) -> tuple[float, float, float]:
    """Exact maxima of the cross-chain ratio families (eta_mu, eta_pi, eta_p).

    A positive numerator over a zero denominator gives +inf; 0/0 ratios are
    skipped.
    """
    P, mu, pi = _stack(models)
    return _max_ratio(mu), _max_ratio(pi), _max_ratio(P)


def p_max(models: list[MarkovModel] | tuple[MarkovModel, ...]) -> float:
    """max over models and (s, s') of the transition probability."""
    return float(np.max([m.P for m in models]))


# --- gap inequalities ------------------------------------------------------

LOG_E_OVER_2 = math.log(math.e / 2.0)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    holds: bool
    slack: float
    lhs: float
    rhs: float


def _worst_row(slack: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float, float]:
    """(slack, lhs, rhs) of the first row in (k, k', s) order with the smallest
    slack below +inf, skipping k = k' and NaN (inf - inf) rows; (inf, 0, 0)
    when no row qualifies."""
    off = ~np.eye(len(slack), dtype=bool)[:, :, None]
    cand = np.where(off & (slack < math.inf), slack, math.inf)
    i = np.unravel_index(np.argmin(cand), cand.shape)
    if cand[i] == math.inf:
        return math.inf, 0.0, 0.0
    return float(slack[i]), float(lhs[i]), float(rhs[i])


def check_gap_inequalities(models: list[MarkovModel] | tuple[MarkovModel, ...]
                           ) -> list[InequalityCheck]:
    """Evaluate the KL/L2 sandwich and the gap inequalities with explicit constants.

    Returns one check per inequality: (i) the per-row KL sandwich
    c/(pmax v qmax) L2 <= KL <= L2/min q with c = log(e/2); (ii)
    D_pi >= c alpha Delta^2 / p_max; (iii) Delta_W^2 <= min over ordered pairs
    of (2 p_max / c) D_pi(k,k') + 4 Hellinger^2(pi_k, pi_k'); (iv)
    Delta_W^2 >= alpha Delta^2 / 2 - max((sqrt(eta_pi)-1)^2, (1-1/sqrt(eta_pi))^2).
    Infinite quantities make the affected inequality pass vacuously with
    slack +inf.
    """
    P, _, pi = _stack(models)
    kl = _kl_rows(P[:, None], P[None])
    l2 = _l2_rows(P[:, None], P[None])
    pair_dpi = _pairwise_weighted_kl(kl, pi)
    d_pi = _off_min(pair_dpi)
    dW2 = _delta_W_sq(P, pi)
    alpha, delta_sq, _ = _witness(pi, l2)
    eta_pi_val = _max_ratio(pi)
    pmax = float(P.max())
    tol = 1e-12

    # (i) KL sandwich per conditional row, worst slack over (k, k', s)
    row_max, row_min = P.max(axis=-1), P.min(axis=-1)
    lower = LOG_E_OVER_2 / np.maximum(row_max[:, None], row_max[None]) * l2
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(row_min[None] == 0.0, math.inf, l2 / row_min[None])
        lo_slack, lo_lhs, lo_rhs = _worst_row(kl - lower, lower, kl)
        hi_slack, hi_lhs, hi_rhs = _worst_row(upper - kl, kl, upper)
    checks = [
        InequalityCheck("kl_sandwich_lower", lo_slack >= -tol, lo_slack, lo_lhs, lo_rhs),
        InequalityCheck("kl_sandwich_upper", hi_slack >= -tol, hi_slack, hi_lhs, hi_rhs),
    ]

    # (ii) p_max D_pi >= log(e/2) alpha Delta^2
    rhs = LOG_E_OVER_2 * alpha * delta_sq / pmax
    checks.append(InequalityCheck("dpi_vs_witness", d_pi >= rhs - tol,
                                  d_pi - rhs, d_pi, rhs))

    # (iii) Delta_W^2 <= min over ordered pairs of the Hellinger-form bound
    h2 = _hellinger_rows(pi[:, None], pi[None])
    bound = _off_min((2.0 * pmax / LOG_E_OVER_2) * pair_dpi + 4.0 * h2)
    checks.append(InequalityCheck("deltaW_upper_hellinger", dW2 <= bound + tol,
                                  bound - dW2, dW2, bound))

    # (iv) Delta_W^2 >= alpha Delta^2 / 2 - max((sqrt(eta_pi)-1)^2, (1-1/sqrt(eta_pi))^2)
    r = math.sqrt(eta_pi_val)  # +inf when eta_pi is, and so is the penalty
    penalty = max((r - 1.0) ** 2, (1.0 - 1.0 / r) ** 2)
    rhs_iv = 0.5 * alpha * delta_sq - penalty
    checks.append(InequalityCheck("deltaW_lower_witness", dW2 >= rhs_iv - tol,
                                  dW2 - rhs_iv, dW2, rhs_iv))

    return checks


# --- reports ---------------------------------------------------------------

class _JsonReport:
    def to_json(self) -> dict:
        """Every dataclass field in declaration order, arrays as nested lists."""
        return {f.name: v.tolist() if isinstance(v := getattr(self, f.name), np.ndarray) else v
                for f in fields(self)}


@dataclass(frozen=True)
class GapReport(_JsonReport):
    D: float
    D_pi: float
    pairwise_D: np.ndarray
    pairwise_D_pi: np.ndarray
    delta_W_sq: float
    alpha: float
    Delta_sq: float
    witness_states: np.ndarray
    eta_mu: float
    eta_pi: float
    eta_p: float
    p_max: float
    alpha_min_clusters: float
    pi_min: float
    v_min: float
    gamma_ps_min: float


def gap_report(instance: MixtureInstance) -> GapReport:
    """Every divergence, gap, and regularity parameter of an instance."""
    models = instance.models
    D, pair_D = divergence_D(instance)
    d_pi, pair_dpi = divergence_D_pi(models)
    alpha, delta_sq, witness = witness_state_gap(models)
    e_mu, e_pi, e_p = eta_params(models)
    return GapReport(
        D=D, D_pi=d_pi, pairwise_D=pair_D, pairwise_D_pi=pair_dpi,
        delta_W_sq=delta_W_sq(models), alpha=alpha, Delta_sq=delta_sq,
        witness_states=witness, eta_mu=e_mu, eta_pi=e_pi, eta_p=e_p,
        p_max=p_max(models), alpha_min_clusters=instance.alpha_min,
        pi_min=chains_pi_min(models), v_min=chains_v_min(models),
        gamma_ps_min=float(min(m.gamma_ps for m in models)),
    )


@dataclass(frozen=True)
class BoundReport(_JsonReport):
    necessary_holds: bool
    lhs_4HD: float
    rhs_eq2: float
    min_H_necessary: int | None
    asymptotic_ratio: float


def lower_bound_check(eps: float, delta: float, T: int, H: int, D: float,
                      alpha_min: float) -> BoundReport:
    """Evaluate the necessary condition 4(H-1)D >= log(1/(2 delta))/(eps T)
    + log(alpha_min/(16 e eps)) and the minimal integer H >= 2 satisfying it.

    ``asymptotic_ratio`` is 2(H-1)D / log(alpha_min/(16 e eps)) (the liminf
    quantity of the asymptotically-stable condition).
    """
    if not 0.0 < eps <= 1.0:
        raise InputError(f"eps must be in (0,1]; got {eps}")
    if not 0.0 < delta <= 0.5:
        raise InputError(f"delta must be in (0, 1/2]; got {delta}")
    if not 0.0 < alpha_min <= 1.0:
        raise InputError(f"alpha_min must be in (0,1]; got {alpha_min}")
    if T < 1 or H < 2:
        raise InputError(f"need T >= 1 and H >= 2; got T = {T}, H = {H}")
    if not 0.0 <= D < math.inf:
        raise InputError(f"D must be finite and >= 0; got {D}")

    rhs = math.log(1.0 / (2.0 * delta)) / (eps * T) + math.log(alpha_min / (16.0 * math.e * eps))
    lhs = 4.0 * (H - 1) * D
    holds = lhs >= rhs

    if rhs <= 0.0:
        min_H: int | None = 2
    elif D == 0.0:
        min_H = None
    else:
        min_H = max(2, math.ceil(1.0 + rhs / (4.0 * D)))
        # integer boundary guard: ceil of an almost-integer can overshoot by one
        while min_H > 2 and 4.0 * (min_H - 1 - 1) * D >= rhs:
            min_H -= 1

    denom = math.log(alpha_min / (16.0 * math.e * eps))
    ratio = math.inf if denom == 0.0 else 2.0 * (H - 1) * D / denom
    return BoundReport(necessary_holds=holds, lhs_4HD=lhs, rhs_eq2=rhs,
                       min_H_necessary=min_H, asymptotic_ratio=ratio)


def predicted_error_rate(T: int, H: int, gamma_ps: float, D_pi: float, C_eta: float) -> float:
    """Predicted error envelope T exp(-C_eta gamma_ps H D_pi)."""
    if T < 1 or H < 1:
        raise InputError(f"need T, H >= 1; got T = {T}, H = {H}")
    if not 0.0 < gamma_ps <= 1.0:
        raise InputError(f"gamma_ps must be in (0,1]; got {gamma_ps}")
    if not 0.0 <= D_pi < math.inf:
        raise InputError(f"D_pi must be finite and >= 0; got {D_pi}")
    if not 0.0 < C_eta < math.inf:
        raise InputError(f"C_eta must be finite and > 0; got {C_eta}")
    return T * math.exp(-C_eta * gamma_ps * H * D_pi)


def c_eta_explicit(eta_p: float) -> float:
    """The explicit constant 1 / (256 (4 eta_p^2 + 5 log eta_p)) from the
    likelihood-stage analysis."""
    if eta_p < 1.0:
        raise InputError("eta_p must be >= 1")
    return 1.0 / (256.0 * (4.0 * eta_p ** 2 + 5.0 * math.log(eta_p)))
