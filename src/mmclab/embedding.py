"""Euclidean embedding of ergodic chains and its empirical trajectory version.

A chain maps to the S^2 vector with coordinate (s, s') = sqrt(pi(s)) p(s'|s)
(row-major flattening); a trajectory maps to N(s,s') / sqrt(H N(s)) from its
occupation and transition counts. Stacking embeddings row-wise over the T
trajectories gives the data matrices the spectral stage decomposes; a
``DataMatrix`` builds those rows a block at a time as they are read, so the
T x S^2 stack is never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import memory
from .chains import MarkovModel
from .errors import DimensionMismatch, InvalidRange, StateOutOfRange
from .simgen import MixtureInstance

__all__ = [
    "Counts",
    "DataMatrix",
    "count_transitions",
    "embed_model",
    "empirical_matrix",
    "build_matrices",
]

@dataclass(frozen=True)
class Counts:
    """Per-trajectory sufficient statistics of a (T, H) state array.

    ``visits`` counts occupations over h in [H]; ``transitions`` counts pairs
    (s_h, s_{h+1}) over h in [H-1], so each trajectory's block sums to H-1.
    Counts are held in ``np.min_scalar_type(H)``, the narrowest unsigned dtype
    that holds H: no count, and no sum of one trajectory's counts, exceeds it.
    """

    visits: np.ndarray       # (T, S) np.min_scalar_type(H)
    transitions: np.ndarray  # (T, S, S) np.min_scalar_type(H)
    H: int

    def __post_init__(self):
        for arr in (self.visits, self.transitions):
            arr.setflags(write=False)

    @property
    def S(self) -> int:
        return self.visits.shape[1]

    @property
    def T(self) -> int:
        return self.visits.shape[0]


@dataclass(frozen=True, eq=False)  # equality is identity: rows are not compared
class DataMatrix:
    """T x S^2 row-stack of embeddings, plus the horizon it was built at.

    The stack itself is not stored: the matrix keeps only what its rows are
    made from (the counts, or the models and the decoding) and
    ``rows(lo, hi)`` builds rows lo..hi-1 on demand, so a caller that reads
    it in row blocks never holds a T x S^2 float array; one that passes the
    same ``out`` to every block allocates no block either. ``values`` builds
    the whole stack.
    """

    T: int
    S: int
    H: int
    build: Callable[[slice, np.ndarray | None], np.ndarray] = field(repr=False)

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows lo..min(hi, T)-1 as a (rows, S^2) float64 array: a new one, or,
        given a C-ordered float64 ``out`` with at least that many rows, its
        leading rows, written in place."""
        return self.build(slice(lo, hi), out)

    @property
    def values(self) -> np.ndarray:
        """The whole (T, S^2) stack, built at once."""
        return self.rows(0, self.T)


def count_transitions(states: np.ndarray, S: int) -> Counts:
    """Exact visit and transition counts of every row of a (T, H) state array."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] < 2:
        raise DimensionMismatch("states must be a (T, H) array with H >= 2")
    T, H = states.shape
    # a constant trajectory visits one state H times; H is capped where int32
    # ends, so a count fits int32 wherever a reader widens it
    if H > np.iinfo(np.int32).max:
        raise InvalidRange(f"H = {H} exceeds the int32 count range")
    if states.size and (states.min() < 0 or states.max() >= S):
        raise StateOutOfRange(f"state indices must lie in [0, {S - 1}]")
    transitions = np.empty((T, S, S), dtype=np.min_scalar_type(H))
    # a pass's int64 flat index has H - 1 entries per trajectory and its int64
    # bincount S * S; the larger stays within the pass budget, or one trajectory's worth
    rows = memory.rows_within(memory.PASS_BYTES, 8 * max(H - 1, S * S))
    # the flat index (t, s, s') of every transition of a pass, built in place
    # in one int64 buffer that every pass reuses
    index = np.empty((min(rows, T), H - 1), dtype=np.int64)
    for lo in range(0, T, rows):
        block = states[lo:lo + rows]
        n = block.shape[0]
        flat = index[:n]
        flat[...] = block[:, :-1]
        flat += np.arange(n, dtype=np.int64)[:, None] * S
        flat *= S
        flat += block[:, 1:]
        transitions[lo:lo + n] = np.bincount(flat.ravel(), minlength=n * S * S).reshape(n, S, S)
    # every visit but the last is the source of one transition
    visits = transitions.sum(axis=2, dtype=transitions.dtype)
    visits[np.arange(T), states[:, -1]] += 1
    return Counts(visits=visits, transitions=transitions, H=H)


def embed_model(M: MarkovModel) -> np.ndarray:
    """Coordinates (s, s') = sqrt(pi(s)) P(s, s'), row-major."""
    return (np.sqrt(M.pi)[:, None] * M.P).ravel()


def empirical_matrix(counts: Counts) -> DataMatrix:
    """W-hat: row t has coordinates N_t(s,s') / sqrt(H N_t(s)); rows with
    N_t(s) = 0 map to zero. Rows are built from the counts as they are read.

    N(s) counts all H visits (including the final state, which has no
    outgoing transition), exactly as the population embedding's weight does
    in the limit.
    """
    S = counts.S

    def build(rows: slice, out: np.ndarray | None) -> np.ndarray:
        transitions = counts.transitions[rows]
        n = transitions.shape[0]
        out = np.empty((n, S * S)) if out is None else out[:n]
        denom = np.sqrt(counts.H * counts.visits[rows].astype(np.float64))
        # a state never visited has no transitions either: 0 / 1 is the row's +0.0
        denom[denom == 0.0] = 1.0
        np.divide(transitions, denom[:, :, None], out=out.reshape(n, S, S))
        return out

    return DataMatrix(T=counts.T, S=counts.S, H=counts.H, build=build)


def build_matrices(instance: MixtureInstance, counts: Counts) -> tuple[DataMatrix, DataMatrix]:
    """Ground-truth W (row t = model embedding of f(t)) and empirical W-hat,
    each built a block of rows at a time as it is read."""
    if counts.T != instance.T or counts.H != instance.H or counts.S != instance.S:
        raise DimensionMismatch("trajectory counts do not match the instance shape")
    model_rows = np.stack([embed_model(m) for m in instance.models])

    def build(rows: slice, out: np.ndarray | None) -> np.ndarray:
        decoding = instance.decoding[rows]
        return model_rows.take(decoding, axis=0, out=None if out is None else out[:len(decoding)])

    W = DataMatrix(T=instance.T, S=instance.S, H=instance.H, build=build)
    return W, empirical_matrix(counts)
