"""Dataset-identity bias removal for pooled audio-style embeddings.

The package estimates the direction(s) along which two data collections
separate in an embedding space, removes them by orthogonal projection
(optionally inside a random-feature kernel space and optionally per
downstream class), and measures the effect on cross-collection transfer of
per-class linear classifiers.
"""

from .bias import (
    BiasDirection,
    bias_correlation,
    domain_probe_accuracy,
    fit_lda_direction,
    subspace_correlation,
)
from .config import ExperimentConfig, load_config
from .data import (
    EmbeddingTable,
    GenreMap,
    Manifest,
    balanced_subsample,
    load_embeddings,
    load_genre_map,
    load_manifest,
    pool_frames,
    reduce_genres,
    save_embeddings,
    save_genre_map,
    save_manifest,
)
from .errors import DebiasKitError
from .kernel import (
    KernelMap,
    Standardizer,
    fit_rff,
    fit_standardizer,
    median_heuristic_gamma,
    transform_rff,
)
from .logreg import ClassifierModel, cv_select_c, predict_scores, train_logreg
from .metrics import roc_auc
from .pipeline import run_matrix, run_strategy
from .projection import DebiasOperator, projector_from_direction, projector_from_subspace
from .report import ExperimentReport, build_report, load_report, render_table, save_report
from .seeding import derive_run_seeds, derive_seed
from .synth import (
    BiasSpec,
    SynthSpec,
    default_spec,
    generate_biased_corpus,
    spec_from_dict,
    synth_genre_map,
)

__version__ = "0.1.0"

__all__ = [
    "BiasDirection",
    "BiasSpec",
    "ClassifierModel",
    "DebiasKitError",
    "DebiasOperator",
    "EmbeddingTable",
    "ExperimentConfig",
    "ExperimentReport",
    "GenreMap",
    "KernelMap",
    "Manifest",
    "Standardizer",
    "SynthSpec",
    "balanced_subsample",
    "bias_correlation",
    "build_report",
    "cv_select_c",
    "default_spec",
    "derive_run_seeds",
    "derive_seed",
    "domain_probe_accuracy",
    "fit_lda_direction",
    "fit_rff",
    "fit_standardizer",
    "generate_biased_corpus",
    "load_config",
    "load_embeddings",
    "load_genre_map",
    "load_manifest",
    "load_report",
    "median_heuristic_gamma",
    "pool_frames",
    "predict_scores",
    "projector_from_direction",
    "projector_from_subspace",
    "reduce_genres",
    "render_table",
    "roc_auc",
    "run_matrix",
    "run_strategy",
    "save_embeddings",
    "save_genre_map",
    "save_manifest",
    "save_report",
    "spec_from_dict",
    "subspace_correlation",
    "synth_genre_map",
    "train_logreg",
    "__version__",
]
