import numpy as np
import pytest

from mmclab import gen_random_ergodic, validate_model


@pytest.fixture
def two_state():
    """The workhorse 2-state chain: pi = (2/3, 1/3), gamma_ps = 0.51, t_mix = 3."""
    return validate_model([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])


def random_models(n, S, seed0=0, floor=None):
    floor = floor if floor is not None else 1.0 / (4 * S)
    return [gen_random_ergodic(S, seed0 + 31 * i, floor) for i in range(n)]


def random_labels(rng, T, K):
    """Random label vector guaranteed to use all K labels."""
    labels = rng.integers(0, K, size=T)
    labels[rng.permutation(T)[:K]] = np.arange(K)
    return labels


def reference_counts(traj, S):
    """Per-trajectory reference: visit and transition bincounts of one row."""
    traj = np.asarray(traj, dtype=np.int64)
    visits = np.bincount(traj, minlength=S)
    transitions = np.bincount(traj[:-1] * S + traj[1:], minlength=S * S).reshape(S, S)
    return visits, transitions
