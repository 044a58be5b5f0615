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

from . import memory
from .errors import InputError, NumericalError
from .jsondoc import field, float_array, integer, require_keys

PROB_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
MIXING_THRESHOLD = 0.25  # t_mix is the first t with max_s TV(P^t(s, .), pi) at or below it
MIXING_T_MAX = 100_000  # steps after which mixing_time gives up
# B = D^{1/2} P D^{-1/2} is a contraction, so (B^k)^T B^k has its eigenvalues
# in [0, 1], and rounding takes eigvalsh's lambda_2 about S * 1e-16 below 0 at
# most: term k of the pseudo-spectral gap is at most (1 + GAP_TERM_MARGIN)/k
GAP_TERM_MARGIN = 1e-9

__all__ = [
    "MarkovModel",
    "AugmentedChain",
    "validate_model",
    "check_prob_vector",
    "check_stochastic_matrix",
    "stationary_distribution",
    "pseudo_spectral_gap",
    "mixing_time",
    "augmented_chain",
    "pi_min",
    "v_min",
    "model_to_json",
    "model_from_json",
]


def _row_fault(M: np.ndarray) -> tuple[int, str] | None:
    """First row of the 2-D M that is not a finite, nonnegative vector summing
    to 1 within PROB_SUM_TOL, with the reason; None when every row is one.

    A clean row set (every entry in [0, 1], every row sum within
    PROB_SUM_TOL of 1) is accepted in one pass: its entries are finite, so
    its sums need no error state. Any other M, the empty one included, is
    diagnosed row by row."""
    if M.size and M.min() >= 0.0 and M.max() <= 1.0:
        if (np.abs(M.sum(axis=1) - 1.0) <= PROB_SUM_TOL).all():
            return None
    # inf - inf in a sum is caught as non-finite, and a finite row whose sum
    # overflows reports its sum as inf
    with np.errstate(invalid="ignore", over="ignore"):
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
    return s, f"sums to {float(sums[s])!r}, not 1 within {PROB_SUM_TOL}"


def check_prob_vector(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Return v as float64 after checking it is finite, nonnegative and sums to 1 (1e-12)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {v.shape}")
    fault = _row_fault(v[None, :])
    if fault:
        raise InputError(f"{name} {fault[1]}")
    return v


def check_stochastic_matrix(P: np.ndarray) -> np.ndarray:
    """Return P as float64 after checking it is square and row stochastic."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InputError(f"transition matrix must be square, got shape {P.shape}")
    fault = _row_fault(P)
    if fault:
        raise InputError(f"row {fault[0]} {fault[1]}")
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
    """Breadth-first depth of every state from state 0 in each (S, S) 0/1
    adjacency of the (n, S, S) stack, -1 where a state is unreachable; all n
    searches take one boolean frontier step per level together."""
    n, S, _ = adj.shape
    depth = np.full((n, S), -1, dtype=np.int64)
    frontier = np.zeros((n, S), dtype=bool)
    frontier[:, 0] = True
    level = 0
    while frontier.any():
        depth[frontier] = level
        frontier = (frontier[:, :, None] & adj).any(axis=1) & (depth < 0)
        level += 1
    return depth


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Unique pi with pi P = pi, by a direct linear solve.

    Replaces the last balance equation with the normalization constraint;
    raises NumericalError if the solve fails or the residual exceeds 1e-10
    (both indicate the chain is not irreducible), or if a state gets zero
    mass, as where a transition into it is too small for the solve to see.
    """
    P = np.asarray(P, dtype=np.float64)
    S = P.shape[0]
    A = P.T.copy()
    A.ravel()[::S + 1] -= 1.0  # A = P^T - I
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("stationary solve failed (chain not irreducible?)") from exc
    residual = float(np.max(np.abs(pi @ P - pi)))
    if residual > STATIONARY_TOL or np.any(pi < -STATIONARY_TOL) or abs(pi.sum() - 1.0) > 1e-9:
        raise NumericalError(f"stationary solve residual {residual:.3e} exceeds {STATIONARY_TOL}")
    pi = np.clip(pi, 0.0, None)
    if not pi.all():
        raise NumericalError(f"stationary solve gives state {int(np.argmin(pi))} zero mass; "
                             f"an irreducible chain has pi > 0 on every state")
    return pi / pi.sum()


def _conjugate(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """B = D^{1/2} P D^{-1/2} with D = diag(pi): (P*)^k P^k is similar to the
    symmetric (B^k)^T B^k, so its spectrum comes from a symmetric eigensolver."""
    d = np.sqrt(pi)
    return (d[:, None] * P) / d[None, :]


def _lam2(stack: np.ndarray, k: int) -> np.ndarray:
    """lambda_2 of X^T X for each X of the (n, S, S) stack, 0 when S = 1;
    an eigensolver failure names k, the power of B that X[0] holds."""
    try:
        ev = np.linalg.eigvalsh(np.matmul(stack.transpose(0, 2, 1), stack))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed at k={k}") from exc
    # eigvalsh sorts ascending; a 1-state chain has no second eigenvalue
    return ev[:, -2] if stack.shape[1] > 1 else np.zeros(len(stack))


def _terms(B: np.ndarray, Bk: np.ndarray, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The gap terms for k = k_lo..k_hi, given Bk = B^(k_lo - 1); returns them
    with B^k_hi. Each eigensolve takes a stack of (B^k)^T B^k within the
    block budget, not all k at once (8 GB at k_max = 200 for a doublet chain
    of S = 40)."""
    terms = np.empty(k_hi - k_lo + 1)
    batch = memory.rows_within(memory.BLOCK_BYTES, B.nbytes)
    stack = np.empty((min(len(terms), batch), *B.shape))
    for lo in range(0, len(terms), len(stack)):
        n = min(len(stack), len(terms) - lo)
        for i in range(n):
            Bk = Bk @ B
            stack[i] = Bk
        lam2 = _lam2(stack[:n], k_lo + lo)
        terms[lo:lo + n] = (1.0 - np.minimum(lam2, 1.0)) / np.arange(k_lo + lo, k_lo + lo + n)
    return terms, Bk


def pseudo_spectral_gap(P: np.ndarray, pi: np.ndarray, k_max: int) -> float:
    """max over k in [1, k_max] of (1/k) * spectral gap of (P*)^k P^k.

    lambda_2 of the positive semidefinite (B^k)^T B^k is at least minus its
    rounding error, so term k is at most (1 + GAP_TERM_MARGIN)/k, and no k
    above (1 + GAP_TERM_MARGIN)/term_1 can beat term 1. Only the k up to that
    bound (and k_max) are computed, in one eigensolve after term 1's; the
    result is the maximum over all k_max terms bit for bit. Term 1 comes
    from B^T B itself: B is finite and nonnegative, so B equals I B exactly.
    A NaN term 1 sets no bound, and the maximum over an array keeps any NaN
    term, so a NaN gap stays NaN.
    """
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    B = _conjugate(P, pi)
    term1 = 1.0 - min(float(_lam2(B[None], 1)[0]), 1.0)
    bound = (1.0 + GAP_TERM_MARGIN) / term1 if term1 > 0.0 else math.inf
    k_hi = k_max if not bound < k_max else math.floor(bound)
    if k_hi > 1:
        return float(_terms(B, B, 2, k_hi)[0].max(initial=term1))
    return term1


def mixing_time(P: np.ndarray, pi: np.ndarray) -> int:
    """Smallest t with max_s TV(P^t(s, .), pi) <= MIXING_THRESHOLD."""
    Pt = np.array(P, dtype=np.float64)
    for t in range(1, MIXING_T_MAX + 1):
        if 0.5 * np.abs(Pt - pi[None, :]).sum(axis=1).max() <= MIXING_THRESHOLD:
            return t
        Pt = Pt @ P
    raise NumericalError(f"chain did not mix to {MIXING_THRESHOLD} within t_max={MIXING_T_MAX}")


def validate_model(P: np.ndarray, mu: np.ndarray) -> MarkovModel:
    """Validate an ergodic chain and cache pi, gamma_ps, and t_mix.

    Ergodicity is checked on the positive-transition graph: it is irreducible
    when every state has a breadth-first depth from state 0 both forwards and
    backwards, and its period is the gcd of depth(u) + 1 - depth(v) over its
    edges (u, v); one stacked search covers the graph and its reverse. A
    chain whose transitions are all positive skips the search: every state
    is one step from every other and has a self-loop, so it is primitive
    (Seneta 2006) and the search could only accept it. The
    pseudo-spectral gap is taken once, at k_max = max(10, 2 * t_mix), and
    the sandwich 1/2 <= gamma_ps * t_mix <= 1 + 2 log 2 + log(1/pi_min) must
    hold. A larger k_max could not change that verdict: term t_mix is at
    least 1/(2 t_mix), as |lambda_2| of (P*)^t P^t is at most the Dobrushin
    coefficient of P^t, at most 2 d(t_mix) <= 1/2 at t = t_mix (Paulin 2015,
    Prop. 3.4), and a term past k_max is at most
    (1 + GAP_TERM_MARGIN)/(k_max + 1), below 1/(2 t_mix) for t_mix up to
    MIXING_T_MAX. The gap eigensolves only the k up to
    (1 + GAP_TERM_MARGIN)/term_1 (see ``pseudo_spectral_gap``): one
    eigensolve when term 1 exceeds 1/2.
    """
    P = check_stochastic_matrix(P)
    S = P.shape[0]
    mu = check_prob_vector(mu, name="mu")
    if mu.shape[0] != S:
        raise InputError(f"mu has length {mu.shape[0]}, expected {S}")

    adj = P > 0.0
    if not adj.all():  # a positive chain is primitive: the search could only accept it
        depth = _depths(np.stack([adj, adj.T]))
        if depth.min() < 0:
            raise InputError("positive-transition graph is not strongly connected")
        u, v = np.nonzero(adj)
        period = int(np.gcd.reduce(depth[0, u] + 1 - depth[0, v]))
        if period != 1:
            raise InputError(f"chain has period {period}")

    pi = stationary_distribution(P)
    t_mix = mixing_time(P, pi)
    gamma = pseudo_spectral_gap(P, pi, max(10, 2 * t_mix))
    upper = 1.0 + 2.0 * math.log(2.0) + math.log(1.0 / float(pi.min()))
    if not (0.5 <= gamma * t_mix <= upper + 1e-9):
        raise NumericalError(
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


_MODEL_KEYS = ("S", "P", "mu")


def model_to_json(M: MarkovModel) -> dict:
    """JSON document {"S", "P", "mu"}; derived fields are never persisted."""
    return {"S": M.S, "P": M.P.tolist(), "mu": M.mu.tolist()}


def model_from_json(doc: dict, where: str = "model document") -> MarkovModel:
    """Rebuild a model from its JSON document, recomputing derived fields.

    The document holds exactly the keys ``S``, ``P`` and ``mu``; any other key
    (a misspelt ``"Mu"``, a derived ``"pi"``) raises InputError naming it."""
    require_keys(doc, _MODEL_KEYS, where)
    unknown = sorted(set(doc) - set(_MODEL_KEYS))
    if unknown:
        raise InputError(f"{where} has unknown key(s) {unknown}")
    P = field(doc, "P", float_array, where)
    mu = field(doc, "mu", float_array, where)
    S = field(doc, "S", integer, where)
    if P.ndim != 2 or S != P.shape[0]:
        raise InputError(f"S={S} does not match P shape {P.shape}")
    return validate_model(P, mu)
