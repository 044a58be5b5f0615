"""mmclab: simulation, clustering, and verification lab for mixtures of ergodic Markov chains."""

from .chains import (
    AugmentedChain,
    MarkovModel,
    augmented_chain,
    mixing_time,
    model_from_json,
    model_to_json,
    pi_min,
    pseudo_spectral_gap,
    stationary_distribution,
    v_min,
    validate_model,
)
from .embedding import (
    Counts,
    DataMatrix,
    build_matrices,
    count_transitions,
    embed_model,
    empirical_matrix,
)
from .likelihood import (
    Stage2Result,
    TransitionEstimate,
    oracle_classify,
    pool_estimates,
    refine,
    trajectory_loglik,
)
from .metrics import (
    BoundReport,
    GapReport,
    check_gap_inequalities,
    delta_W_sq,
    divergence_D,
    divergence_D_pi,
    eta_params,
    gap_report,
    hellinger_sq,
    witness_state_gap,
    kl_divergence,
    lower_bound_check,
    misclassification,
    p_max,
    squared_l2,
    predicted_error_rate,
)
from .simgen import (
    MixtureInstance,
    TrajectorySet,
    gen_random_ergodic,
    gen_separation_models,
    make_instance,
    sample_trajectories,
)
from .spectral import SpectralConfig, Stage1Result, sigma_threshold, spectral_cluster

__version__ = "0.1.0"
