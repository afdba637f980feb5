"""Labels-Perturbed Classifier: noise-robust ridge classification with
asymptotic performance prediction and a Monte Carlo experiment harness."""

from .core import (
    Classifier,
    RhoParams,
    decision,
    evaluate,
    loo_decisions,
    train_lpc,
    train_lpc_bce,
)
from .datasets import (
    GmmSpec,
    LabeledDataset,
    StandardizeResult,
    TrainingStats,
    derive_seed,
    flip_label_vector,
    flip_labels,
    generate_gmm,
    generate_scores,
    generate_training_stats,
    load_features_csv,
    standardize_and_estimate,
)
from .noise import NoiseEstimate, estimate_noise_rates
from .theory import (
    TheoryStats,
    delta,
    gaussian_upper_tail,
    optimal_rho,
    theory_stats,
    worst_rho,
)

__version__ = "0.1.0"

__all__ = [
    "Classifier",
    "GmmSpec",
    "LabeledDataset",
    "NoiseEstimate",
    "RhoParams",
    "StandardizeResult",
    "TheoryStats",
    "TrainingStats",
    "decision",
    "delta",
    "derive_seed",
    "estimate_noise_rates",
    "evaluate",
    "flip_label_vector",
    "flip_labels",
    "gaussian_upper_tail",
    "generate_gmm",
    "generate_scores",
    "generate_training_stats",
    "load_features_csv",
    "loo_decisions",
    "optimal_rho",
    "standardize_and_estimate",
    "theory_stats",
    "train_lpc",
    "train_lpc_bce",
    "worst_rho",
]
