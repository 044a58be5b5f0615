"""Validated ergodic Markov chains and their spectral/mixing quantities.

A chain is held as a frozen ``MarkovModel`` with its stationary distribution,
pseudo-spectral gap, and mixing time cached at construction. All functions are
pure; models are immutable and safe to share across workers.

Conventions: states are 0-based indices, transition matrices are row
stochastic (row s is the distribution of the next state given s), and the
time reversal is the adjoint in L2(pi): P*(s, s') = pi(s') P(s', s) / pi(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenFailure,
    InvalidRange,
    NotIrreducible,
    NotMixedWithinTMax,
    Periodic,
    RowNotStochastic,
    SingularSystem,
)
from .jsondoc import field, float_array, integer, require_keys

PROB_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
MIXING_THRESHOLD = 0.25  # t_mix is the first t with max_s TV(P^t(s, .), pi) at or below it
MIXING_T_MAX = 100_000  # steps after which mixing_time gives up

__all__ = [
    "MarkovModel",
    "AugmentedChain",
    "validate_model",
    "check_prob_vector",
    "check_stochastic_matrix",
    "stationary_distribution",
    "pseudo_spectral_gap",
    "pseudo_spectral_gap_terms",
    "mixing_time",
    "augmented_chain",
    "pi_min",
    "v_min",
    "model_to_json",
    "model_from_json",
]


def _row_fault(M: np.ndarray) -> tuple[int, str] | None:
    """First row of the 2-D M that is not a finite, nonnegative vector summing
    to 1 within PROB_SUM_TOL, with the reason; None when every row is one."""
    with np.errstate(invalid="ignore"):  # inf - inf in a sum; caught as non-finite
        sums = M.sum(axis=1)
    nonfinite = ~np.isfinite(M).all(axis=1)
    negative = (M < 0).any(axis=1)
    bad = nonfinite | negative | (np.abs(sums - 1.0) > PROB_SUM_TOL)
    if not bad.any():
        return None
    s = int(np.argmax(bad))
    if nonfinite[s]:
        return s, "has non-finite entries"
    if negative[s]:
        return s, "has negative entries"
    return s, f"sums to {sums[s]!r}, not 1 within {PROB_SUM_TOL}"


def check_prob_vector(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Return v as float64 after checking it is finite, nonnegative and sums to 1 (1e-12)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    fault = _row_fault(v[None, :])
    if fault:
        raise RowNotStochastic(f"{name} {fault[1]}")
    return v


def check_stochastic_matrix(P: np.ndarray) -> np.ndarray:
    """Return P as float64 after checking it is square and row stochastic."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got shape {P.shape}")
    fault = _row_fault(P)
    if fault:
        raise RowNotStochastic(f"row {fault[0]} {fault[1]}")
    return P


@dataclass(frozen=True)
class MarkovModel:
    """An ergodic finite-state Markov chain with cached derived quantities."""

    P: np.ndarray
    mu: np.ndarray
    pi: np.ndarray
    gamma_ps: float
    t_mix: int
    S: int

    def __post_init__(self):
        self.P.setflags(write=False)
        self.mu.setflags(write=False)
        self.pi.setflags(write=False)


@dataclass(frozen=True)
class AugmentedChain:
    """Doublet chain on state pairs (s, s'), restricted to its support.

    ``model`` is the chain on the support pairs (pairs with positive base
    transition probability) in row-major order; impossible pairs are retained
    in ``support_mask`` / ``stationary_full`` with zero mass so the full S^2
    indexing stays available.
    """

    model: MarkovModel
    support_mask: np.ndarray     # (S, S) bool
    stationary_full: np.ndarray  # (S*S,) with zeros at impossible pairs

    def __post_init__(self):
        self.support_mask.setflags(write=False)
        self.stationary_full.setflags(write=False)


def _depths(adj: np.ndarray) -> np.ndarray:
    """Breadth-first depth of every state from state 0 in the 0/1 adjacency,
    -1 where a state is unreachable; one boolean frontier step per level."""
    depth = np.full(adj.shape[0], -1, dtype=np.int64)
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[0] = True
    level = 0
    while frontier.any():
        depth[frontier] = level
        frontier = adj[frontier].any(axis=0) & (depth < 0)
        level += 1
    return depth


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique pi with pi P = pi, by a direct linear solve.

    Replaces the last balance equation with the normalization constraint;
    raises SingularSystem if the solve fails or the residual exceeds 1e-10
    (both indicate the chain is not irreducible).
    """
    P = np.asarray(P, dtype=np.float64)
    S = P.shape[0]
    A = P.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("stationary solve failed (chain not irreducible?)") from exc
    residual = float(np.max(np.abs(pi @ P - pi)))
    if residual > STATIONARY_TOL or np.any(pi < -STATIONARY_TOL) or abs(pi.sum() - 1.0) > 1e-9:
        raise SingularSystem(f"stationary solve residual {residual:.3e} exceeds {STATIONARY_TOL}")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def pseudo_spectral_gap_terms(P: np.ndarray, pi: np.ndarray, k_max: int) -> np.ndarray:
    """(1/k)(1 - lambda_2((P*)^k P^k)) for k = 1..k_max.

    The non-symmetric (P*)^k P^k is conjugated with diag(pi)^{1/2} into the
    symmetric (B^k)^T B^k with B = D^{1/2} P D^{-1/2}, which has the same
    spectrum, so a symmetric eigensolver can be used.
    """
    if k_max < 1:
        raise InvalidRange("k_max must be >= 1")
    d = np.sqrt(pi)
    B = (d[:, None] * P) / d[None, :]
    terms = np.empty(k_max)
    Bk = np.eye(P.shape[0])
    for k in range(1, k_max + 1):
        Bk = Bk @ B
        try:
            ev = np.linalg.eigvalsh(Bk.T @ Bk)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigensolver failed at k={k}") from exc
        lam2 = float(ev[-2]) if len(ev) > 1 else 0.0  # eigvalsh sorts ascending
        terms[k - 1] = (1.0 - min(lam2, 1.0)) / k
    return terms


def pseudo_spectral_gap(P: np.ndarray, pi: np.ndarray, k_max: int) -> float:
    """max over k in [1, k_max] of (1/k) * spectral gap of (P*)^k P^k."""
    return float(pseudo_spectral_gap_terms(P, pi, k_max).max())


def mixing_time(P: np.ndarray, pi: np.ndarray) -> int:
    """Smallest t with max_s TV(P^t(s, .), pi) <= MIXING_THRESHOLD."""
    Pt = np.array(P, dtype=np.float64)
    for t in range(1, MIXING_T_MAX + 1):
        if 0.5 * np.abs(Pt - pi[None, :]).sum(axis=1).max() <= MIXING_THRESHOLD:
            return t
        Pt = Pt @ P
    raise NotMixedWithinTMax(f"chain did not mix to {MIXING_THRESHOLD} within t_max={MIXING_T_MAX}")


def validate_model(P: np.ndarray, mu: np.ndarray) -> MarkovModel:
    """Validate an ergodic chain and cache pi, gamma_ps, and t_mix.

    Ergodicity is checked on the positive-transition graph: it is irreducible
    when every state has a breadth-first depth from state 0 both forwards and
    backwards, and its period is the gcd of depth(u) + 1 - depth(v) over its
    edges (u, v). The pseudo-spectral gap starts from k_max = max(10, 2 * t_mix)
    and extends k_max when needed so the sandwich
    1/2 <= gamma_ps * t_mix <= 1 + 2 log 2 + log(1/pi_min) holds.
    """
    P = check_stochastic_matrix(P)
    S = P.shape[0]
    mu = check_prob_vector(mu, name="mu")
    if mu.shape[0] != S:
        raise DimensionMismatch(f"mu has length {mu.shape[0]}, expected {S}")

    adj = P > 0.0
    depth = _depths(adj)
    if depth.min() < 0 or _depths(adj.T).min() < 0:
        raise NotIrreducible("positive-transition graph is not strongly connected")
    u, v = np.nonzero(adj)
    period = int(np.gcd.reduce(depth[u] + 1 - depth[v]))
    if period != 1:
        raise Periodic(f"chain has period {period}")

    pi = stationary_distribution(P)
    t_mix = mixing_time(P, pi)
    k = max(10, 2 * t_mix)
    gamma = pseudo_spectral_gap(P, pi, k)
    # k too small shows up as a violated lower sandwich bound; extend.
    cap = max(k, 64 * t_mix)
    while gamma * t_mix < 0.5 and k < cap:
        k = min(2 * k, cap)
        gamma = pseudo_spectral_gap(P, pi, k)
    upper = 1.0 + 2.0 * math.log(2.0) + math.log(1.0 / float(pi.min()))
    if not (0.5 <= gamma * t_mix <= upper + 1e-9):
        raise EigenFailure(
            f"gamma_ps * t_mix = {gamma * t_mix:.6f} outside sandwich [0.5, {upper:.6f}]")
    return MarkovModel(P=P, mu=mu, pi=pi, gamma_ps=gamma, t_mix=t_mix, S=S)


def augmented_chain(M: MarkovModel) -> AugmentedChain:
    """Doublet chain on pairs (s_h, s_{h+1}) with p~((y,y')|(x,x')) = 1[y=x'] p(y'|y).

    Pairs with zero stationary mass (impossible transitions) are kept out of
    the spectral computation: the returned model lives on the support, while
    ``stationary_full`` and ``support_mask`` preserve the S^2 indexing.
    """
    S = M.S
    mask = M.P > 0.0
    pairs = np.argwhere(mask)  # row-major (s, s') order
    n = pairs.shape[0]
    index = -np.ones((S, S), dtype=np.int64)
    index[pairs[:, 0], pairs[:, 1]] = np.arange(n)

    Pt = np.zeros((n, n))
    i, yp = np.nonzero(mask[pairs[:, 1]])  # pair i = (x, xp) steps to (xp, yp)
    xp = pairs[i, 1]
    Pt[i, index[xp, yp]] = M.P[xp, yp]
    mu_t = M.mu[pairs[:, 0]] * M.P[pairs[:, 0], pairs[:, 1]]
    mu_t = mu_t / mu_t.sum() if mu_t.sum() > 0 else np.full(n, 1.0 / n)

    model = validate_model(Pt, mu_t)
    stationary_full = np.zeros(S * S)
    stationary_full[pairs[:, 0] * S + pairs[:, 1]] = model.pi
    return AugmentedChain(model=model, support_mask=mask, stationary_full=stationary_full)


def pi_min(models: Sequence[MarkovModel]) -> float:
    """min over models and states of pi(s)."""
    return float(min(m.pi.min() for m in models))


def v_min(models: Sequence[MarkovModel]) -> float:
    """min over models and states of pi(s)(1 - pi(s))."""
    return float(min((m.pi * (1.0 - m.pi)).min() for m in models))


def model_to_json(M: MarkovModel) -> dict:
    """JSON document {"S", "P", "mu"}; derived fields are never persisted."""
    return {"S": M.S, "P": M.P.tolist(), "mu": M.mu.tolist()}


def model_from_json(doc: dict, where: str = "model document") -> MarkovModel:
    """Rebuild a model from its JSON document, recomputing derived fields."""
    require_keys(doc, ("S", "P", "mu"), where)
    P = field(doc, "P", float_array, where)
    mu = field(doc, "mu", float_array, where)
    S = field(doc, "S", integer, where)
    if P.ndim != 2 or S != P.shape[0]:
        raise DimensionMismatch(f"S={S} does not match P shape {P.shape}")
    return validate_model(P, mu)
