"""Entanglement swapping over continuous-variable star networks.

Gaussian-state toolbox (hbar = 2, interleaved quadrature ordering), an
N-port Bell relay with homodyne conditioning, closed-form output clusters
with independent numerical cross-checks, thermal-loss network formulas,
and linearized optomechanical steady states feeding the same relay.
"""

__version__ = "0.1.0"

from .analysis import (
    NetworkPoint,
    block_logneg_formula,
    block_logneg_numeric,
    e2_formula,
    full_house_logneg,
    gle_formula,
    gle_numeric,
    network_cluster_cm,
    pairwise_logneg_formula,
    pairwise_logneg_numeric,
    swap_logneg_two,
    tmsv_swap_bound,
)
from .gaussian import (
    GaussianState,
    PhysicalityError,
    log_negativity,
    partial_transpose,
    reduce,
    rotation,
    symplectic_eigenvalues,
    two_mode_standard_form,
)
from .optomech import (
    OptomechParams,
    detuning_sweep,
    drift_diffusion,
    is_stable,
    mean_occupation,
    mechanical_cluster,
    standard_params,
    steady_state_cm,
)
from .relay import (
    ClusterBlocks,
    RelayPlan,
    bell_detect,
    build_relay,
    cluster_closed_form,
    condition_homodynes,
    diff_x_variance,
    displacement_correction,
    relay_from_cascade,
    relay_orthogonal,
    sum_p_variance,
)
from .sources import (
    TwoModeNormalForm,
    frontier_closed_form,
    max_swap_logneg_at_asymmetry,
    sample_normal_form,
    thermal_loss_map,
    thermal_loss_on_a,
    tmsv,
)

__all__ = [
    "__version__",
    # gaussian core
    "GaussianState",
    "PhysicalityError",
    "rotation",
    "symplectic_eigenvalues",
    "partial_transpose",
    "log_negativity",
    "reduce",
    "two_mode_standard_form",
    # relay
    "RelayPlan",
    "build_relay",
    "relay_orthogonal",
    "relay_from_cascade",
    "condition_homodynes",
    "bell_detect",
    "displacement_correction",
    "ClusterBlocks",
    "cluster_closed_form",
    "sum_p_variance",
    "diff_x_variance",
    # sources and channels
    "TwoModeNormalForm",
    "tmsv",
    "thermal_loss_on_a",
    "thermal_loss_map",
    "sample_normal_form",
    "max_swap_logneg_at_asymmetry",
    "frontier_closed_form",
    # network analysis
    "NetworkPoint",
    "e2_formula",
    "pairwise_logneg_formula",
    "pairwise_logneg_numeric",
    "gle_formula",
    "gle_numeric",
    "block_logneg_formula",
    "block_logneg_numeric",
    "full_house_logneg",
    "network_cluster_cm",
    "swap_logneg_two",
    "tmsv_swap_bound",
    # optomechanics
    "OptomechParams",
    "standard_params",
    "mean_occupation",
    "drift_diffusion",
    "is_stable",
    "steady_state_cm",
    "mechanical_cluster",
    "detuning_sweep",
]
