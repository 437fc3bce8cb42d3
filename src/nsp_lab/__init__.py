"""Null-space recovery certificates for sparse recovery by F-minimization.

The package decides exact and robust recovery of sparse signals from the
geometry of the measurement null space: strict cost inequalities over the
null space (exact recovery), their stability under perturbations of
controlled relative size (robust recovery with explicit constants),
Gaussian widths of the failure cones with escape probabilities, and the
rate-robustness tradeoff in the linear-growth regime.
"""

from .config import TOL, Tolerances
from .measures import (
    BUILTIN_MEASURES,
    ComparisonReport,
    CostFunction,
    PropertyReport,
    SparsenessMeasure,
    builtin_measure,
    check_measure_properties,
    compare_measures,
    parse_measure,
)
from .subspaces import (
    MeasurementMatrix,
    Subspace,
    gaussian_measurement,
    grassmann_distance,
    null_space,
    perturb_subspace,
    sample_haar,
)
from .nsp import (
    Ce1Membership,
    ErcVerdict,
    NscReport,
    NspVerdict,
    RegionMap,
    RobustnessProbe,
    Violation,
    ce1_membership,
    converse_constant,
    erc_member,
    nsc,
    nsp_check,
    region_boundary_map,
    robustness_constant,
    rrc_probe,
)
from .solver import (
    AdversarialPair,
    RecoveryProblem,
    RobustnessSweep,
    SolveResult,
    TrialRecord,
    adversarial_pair,
    empirical_robustness,
    solve_noiseless,
    solve_noisy,
)
from .width import (
    OmegaHatBound,
    TradeoffPoint,
    WidthEstimate,
    chi_mean,
    delta_margin,
    delta_positivity_threshold,
    gordon_bound,
    omega_hat_bound,
    oracle_robustness_constant,
    rv_bound,
    tradeoff,
    width_extended,
    width_mc,
    zeta,
)
from .experiments import (
    Ce1Report,
    ExperimentConfig,
    MonteCarloSummary,
    WilsonInterval,
    mc_probability,
    verify_counterexample1,
    wilson_interval,
)
from .suite import CriterionResult, SuiteReport, run_suite

__version__ = "0.1.0"
