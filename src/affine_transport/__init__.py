"""Affine transport transfer maps between state-transition distributions.

Fit a closed-form map from one dynamics domain onto another from paired
transition triplets: an orthogonal Procrustes alignment composed with the
Gaussian optimal transport map between normal approximations. Includes the
exact empirical 2-Wasserstein distance for validation, bound diagnostics,
and an affinity score measuring how close two domains are to affinely
related.
"""

from .errors import (
    AffineTransportError,
    BadFraction,
    BadSpec,
    DegenerateInput,
    DimensionMismatch,
    IndefiniteMatrix,
    MalformedCsv,
    MalformedModel,
    MissingManifest,
    NonFinite,
    NotSymmetric,
    PairingMismatch,
    SingularMatrix,
    TooFewSamples,
    TooLarge,
)
from .linalg import spd_sqrt
from .gaussian_ot import (
    AffineMap,
    GaussianModel,
    at_map,
    estimate_moments,
    gaussian_ot_map,
    gaussian_w2,
    gelbrich_gap_bound,
    normal_approx_bound,
)
from .discrete_ot import (
    MAX_EXACT,
    empirical_w2,
    pointwise_error,
)
from .data import (
    DomainSpec,
    TransitionDataset,
    check_paired,
    dataset_fingerprint,
    gen_linear,
    gen_puck,
    load_csv,
    rng_stream,
    save_dataset,
    split,
    subset,
)
from .transfer import (
    FitMeta,
    TransferModel,
    TransferReport,
    affinity_score,
    apply,
    evaluate,
    evaluate_pointwise,
    fit,
    load_model,
    procrustes,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransportError",
    "BadFraction",
    "BadSpec",
    "DegenerateInput",
    "DimensionMismatch",
    "IndefiniteMatrix",
    "MalformedCsv",
    "MalformedModel",
    "MissingManifest",
    "NonFinite",
    "NotSymmetric",
    "PairingMismatch",
    "SingularMatrix",
    "TooFewSamples",
    "TooLarge",
    "spd_sqrt",
    "AffineMap",
    "GaussianModel",
    "at_map",
    "estimate_moments",
    "gaussian_ot_map",
    "gaussian_w2",
    "gelbrich_gap_bound",
    "normal_approx_bound",
    "MAX_EXACT",
    "empirical_w2",
    "pointwise_error",
    "DomainSpec",
    "TransitionDataset",
    "check_paired",
    "dataset_fingerprint",
    "gen_linear",
    "gen_puck",
    "load_csv",
    "rng_stream",
    "save_dataset",
    "split",
    "subset",
    "FitMeta",
    "TransferModel",
    "TransferReport",
    "affinity_score",
    "apply",
    "evaluate",
    "evaluate_pointwise",
    "fit",
    "load_model",
    "procrustes",
    "save_model",
    "__version__",
]
