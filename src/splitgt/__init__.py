"""Tree-splitting group testing: sparsity-constrained and noise-tolerant
pooling designs with decoders whose cost tracks the defective count, plus
COMP-style baselines, brute-force oracles, and a Monte-Carlo harness."""

from .baselines import (
    FlatDesign,
    decode_comp,
    decode_ncomp,
    flatten_design,
    ml_minimizers,
    oracle_consistent_sets,
    oracle_ml,
)
from .bench import AggregateResult, TrialConfig, eta_curve, eta_hat, run_trials, sweep
from .core import (
    BatchReport,
    DecodeReport,
    NoiseChannel,
    OutcomeVector,
    ProblemInstance,
    RandomnessKey,
    evaluate_design,
    round_instance,
)
from .gamma import GammaParams, build_gamma_design, decode_gamma, gamma_params, select_gamma_prime
from .noisy import NoisyParams, build_noisy_design, decode_noisy, decode_noisy_batch, noisy_params
from .rho import RhoParams, build_rho_design, decode_rho, rho_params
from .tree import TreeDesign

__version__ = "0.1.0"
