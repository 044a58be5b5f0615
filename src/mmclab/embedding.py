"""Euclidean embedding of ergodic chains and its empirical trajectory version.

A chain maps to the S^2 vector with coordinate (s, s') = sqrt(pi(s)) p(s'|s)
(row-major flattening); a trajectory maps to N(s,s') / sqrt(H N(s)) from its
occupation and transition counts. Stacking embeddings row-wise over the T
trajectories gives the data matrices the spectral stage decomposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# int64 flat-index entries a counting pass may hold: a pass takes at most
# max(1, _BLOCK_ELEMENTS // (H - 1)) trajectories, so its index holds
# O(max(_BLOCK_ELEMENTS, H)) entries whatever T is
_BLOCK_ELEMENTS = 1 << 18
# int64 bins a counting pass's bincount may return: 120 KiB, under 128 KiB,
# the least size from which glibc gives a block a mapping of its own, so each
# pass reuses heap memory instead of faulting in fresh pages; at S = 40,
# H = 1000 that halved the counting time with the threshold held at 128 KiB
_COUNT_BINS = 15 << 10


@dataclass(frozen=True)
class Counts:
    """Per-trajectory sufficient statistics of a (T, H) state array.

    ``visits`` counts occupations over h in [H]; ``transitions`` counts pairs
    (s_h, s_{h+1}) over h in [H-1], so each trajectory's block sums to H-1.
    Counts are int32: none exceeds H, which ``count_transitions`` bounds.
    """

    visits: np.ndarray       # (T, S) int32
    transitions: np.ndarray  # (T, S, S) int32
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


@dataclass(frozen=True)
class DataMatrix:
    """T x S^2 row-stack of embeddings, plus the horizon it was built at."""

    values: np.ndarray  # (T, S*S) float64
    S: int
    H: int

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def T(self) -> int:
        return self.values.shape[0]


def count_transitions(states: np.ndarray, S: int) -> Counts:
    """Exact visit and transition counts of every row of a (T, H) state array."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] < 2:
        raise DimensionMismatch("states must be a (T, H) array with H >= 2")
    T, H = states.shape
    # a constant trajectory visits one state H times, so H itself must fit in int32
    if H > np.iinfo(np.int32).max:
        raise InvalidRange(f"H = {H} exceeds the int32 count range")
    if states.size and (states.min() < 0 or states.max() >= S):
        raise StateOutOfRange(f"state indices must lie in [0, {S - 1}]")
    transitions = np.empty((T, S, S), dtype=np.int32)
    # a pass's int64 flat index has H - 1 entries per trajectory and its int64
    # bincount S * S; each stays within its budget, or one trajectory's worth
    rows = max(1, min(_BLOCK_ELEMENTS // (H - 1), _COUNT_BINS // (S * S)))
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
    visits = transitions.sum(axis=2, dtype=np.int32)
    visits[np.arange(T), states[:, -1]] += 1
    return Counts(visits=visits, transitions=transitions, H=H)


def embed_model(M: MarkovModel) -> np.ndarray:
    """Coordinates (s, s') = sqrt(pi(s)) P(s, s'), row-major."""
    return (np.sqrt(M.pi)[:, None] * M.P).ravel()


def empirical_matrix(counts: Counts) -> DataMatrix:
    """W-hat: row t has coordinates N_t(s,s') / sqrt(H N_t(s)); rows with
    N_t(s) = 0 map to zero.

    N(s) counts all H visits (including the final state, which has no
    outgoing transition), exactly as the population embedding's weight does
    in the limit.
    """
    denom = np.sqrt(counts.H * counts.visits.astype(np.float64))[:, :, None]
    out = np.zeros(counts.transitions.shape, dtype=np.float64)
    np.divide(counts.transitions, denom, out=out, where=denom > 0)
    return DataMatrix(values=out.reshape(counts.T, -1), S=counts.S, H=counts.H)


def build_matrices(instance: MixtureInstance, counts: Counts) -> tuple[DataMatrix, DataMatrix]:
    """Ground-truth W (row t = model embedding of f(t)) and empirical W-hat."""
    if counts.T != instance.T or counts.H != instance.H or counts.S != instance.S:
        raise DimensionMismatch("trajectory counts do not match the instance shape")
    model_rows = np.stack([embed_model(m) for m in instance.models])
    # fancy indexing already returns a new array, so W owns its rows
    W = DataMatrix(values=model_rows[instance.decoding], S=instance.S, H=instance.H)
    return W, empirical_matrix(counts)

