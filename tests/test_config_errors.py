import numpy as np
import pytest

from mmclab import (
    SpectralConfig,
    count_transitions,
    gen_random_ergodic,
    pool_estimates,
    pseudo_spectral_gap,
)
from mmclab.errors import InputError

P = np.array([[0.5, 0.5], [0.25, 0.75]])
PI = np.array([1 / 3, 2 / 3])


@pytest.mark.parametrize("call, message", [
    (lambda: pseudo_spectral_gap(P, PI, 0), "k_max must be >= 1"),
    (lambda: gen_random_ergodic(3, seed=0, floor=0.5), r"floor must lie in \(0, 1/S\); got 0.5"),
    (lambda: SpectralConfig(delta=1.0, gamma_ps=0.5), r"delta must be in \(0,1\); got 1.0"),
    (lambda: SpectralConfig(delta=0.1, gamma_ps=0.0), r"gamma must be in \(0,1\]; got 0.0"),
    (lambda: SpectralConfig(delta=0.1, gamma_ps=0.5, c_rho=0.0), "c_rho must be > 0; got 0.0"),
    (lambda: SpectralConfig(delta=0.1, gamma_ps=0.5, c_sigma=np.nan),
     "c_sigma must be >= 0; got nan"),
    (lambda: pool_estimates(count_transitions(np.array([[0, 1, 0]]), 2), np.array([0]), 1, -0.5),
     "smoothing must be finite and >= 0; got -0.5"),
    (lambda: pool_estimates(count_transitions(np.array([[0, 1, 0]]), 2), np.array([0]), 1, np.nan),
     "smoothing must be finite and >= 0; got nan"),
], ids=["k_max", "floor", "delta", "gamma_ps", "c_rho", "c_sigma-nan", "smoothing",
        "smoothing-nan"])
def test_out_of_range_settings_raise_invalid_range(call, message):
    with pytest.raises(InputError, match=message):
        call()
