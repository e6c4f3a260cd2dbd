"""Experiment orchestration: strategy x scope x transfer-direction runs.

The run proceeds in phases — pool, standardize, kernel, bias, train,
evaluate — and every read of embedding rows goes through a split guard, so
held-out rows provably never feed any fitted statistic. Feature transforms
(standardization, random features, global debias) are applied lazily per
row access, which keeps the fit phases touching training rows only.

Strategies: "none" (baseline), "LDA" (single-direction removal), "mLDA"
(per-genre subspace removal), "K" (random-feature space, no removal),
"KLDA"/"mKLDA" (removal inside the random-feature space). Scopes: "global"
(one correction for all classes) or "classwise" (one per class, fitted on
that class's positives). The scope is meaningless for "none"/"K" and is
ignored with a warning.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bias import (
    BiasDirection,
    bias_correlation,
    fit_lda_direction,
    subspace_correlation,
)
from .data import (
    NEG,
    POS,
    TEST,
    TRAIN,
    UNK,
    UNKNOWN_GENRE,
    EmbeddingTable,
    GenreMap,
    Manifest,
    ManifestRecord,
    balanced_subsample,
    load_embeddings,
    load_genre_map,
    load_manifest,
    pool_frames,
    reduce_genres,
)
from .errors import (
    DebiasKitError,
    DegenerateMeansError,
    EmptyClassError,
    PipelineError,
    SingleClassError,
    ValidationError,
    ZeroVectorError,
)
from .guard import (
    PHASE_BIAS,
    PHASE_EVALUATE,
    PHASE_KERNEL,
    PHASE_STANDARDIZE,
    PHASE_TRAIN,
    SplitGuard,
)
from .kernel import (
    DEFAULT_DPRIME_FACTOR,
    fit_rff,
    fit_standardizer,
    transform_rff,
)
from .logreg import (
    DEFAULT_C_GRID,
    DEFAULT_FOLDS,
    cv_select_c,
    predict_scores,
    train_logreg,
)
from .metrics import roc_auc
from .projection import DebiasOperator, projector_from_direction, projector_from_subspace
from .report import (
    Cell,
    CorrelationEntry,
    ExperimentReport,
    RenderedTable,
    build_report,
    config_fingerprint,
    merge_reports,
    render_table,
    save_report,
)
from .seeding import derive_run_seeds, derive_seed

STRATEGIES = ("none", "LDA", "mLDA", "K", "KLDA", "mKLDA")
SCOPES = ("global", "classwise")
SCOPE_FREE_STRATEGIES = ("none", "K")
KERNEL_STRATEGIES = ("K", "KLDA", "mKLDA")
MULTI_STRATEGIES = ("mLDA", "mKLDA")
PROJECTING_STRATEGIES = ("LDA", "mLDA", "KLDA", "mKLDA")

SPACE_ORIGINAL = "original"
SPACE_KERNELIZED = "kernelized"

DEFAULT_MIN_GENRE_SAMPLES = 5


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    embeddings: str
    manifest: str
    fmt: str  # "csv" | "binary"


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetEntry, DatasetEntry]
    strategy: str
    scope: str
    seed: int
    genre_map: str | None = None
    classes: tuple[str, ...] | None = None
    dprime_factor: int = DEFAULT_DPRIME_FACTOR
    gamma: float | str = "median"
    shrinkage: float = 1e-2
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    cv_folds: int = DEFAULT_FOLDS
    min_genre_samples: int = DEFAULT_MIN_GENRE_SAMPLES
    seeds_override: dict[str, int] = field(default_factory=dict)
    output_dir: str | None = None

    def effective_scope(self) -> str:
        return "global" if self.strategy in SCOPE_FREE_STRATEGIES else self.scope

    def run_seeds(self) -> dict[str, int]:
        seeds = derive_run_seeds(self.seed)
        seeds.update(self.seeds_override)
        return seeds

    def to_dict(self) -> dict:
        """Science-relevant resolved fields; excludes the output directory so
        the fingerprint (and the report file) do not depend on where results land."""
        return {
            "datasets": [
                {"name": d.name, "embeddings": d.embeddings, "manifest": d.manifest, "format": d.fmt}
                for d in self.datasets
            ],
            "genre_map": self.genre_map,
            "classes": list(self.classes) if self.classes is not None else None,
            "strategy": self.strategy,
            "scope": self.scope,
            "dprime_factor": self.dprime_factor,
            "gamma": self.gamma,
            "shrinkage": self.shrinkage,
            "c_grid": list(self.c_grid),
            "cv_folds": self.cv_folds,
            "min_genre_samples": self.min_genre_samples,
            "seed": self.seed,
            "seeds_override": dict(self.seeds_override),
        }


def _infer_format(path: str) -> str:
    return "csv" if path.endswith(".csv") else "binary"


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config; relative paths resolve against the
    config file's own directory."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}", path=path) from exc
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object", path=path)
    base_dir = os.path.dirname(os.path.abspath(path))
    return config_from_dict(obj, base_dir=base_dir)


def config_from_dict(obj: dict, base_dir: str | None = None) -> ExperimentConfig:
    known = {
        "datasets",
        "genre_map",
        "classes",
        "strategy",
        "scope",
        "dprime_factor",
        "gamma",
        "shrinkage",
        "c_grid",
        "cv_folds",
        "min_genre_samples",
        "seed",
        "seeds",
        "output_dir",
    }
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValidationError(f"unknown config fields: {unknown}")
    for required in ("datasets", "strategy", "seed"):
        if required not in obj:
            raise ValidationError(f"config is missing required field {required!r}")

    def resolve(p: str | None) -> str | None:
        if p is None:
            return None
        if base_dir is not None and not os.path.isabs(p):
            return os.path.join(base_dir, p)
        return p

    raw_datasets = obj["datasets"]
    if not isinstance(raw_datasets, list) or len(raw_datasets) != 2:
        raise ValidationError("config needs exactly two dataset entries")
    entries = []
    for raw in raw_datasets:
        for key in ("name", "embeddings", "manifest"):
            if key not in raw:
                raise ValidationError(f"dataset entry missing field {key!r}")
        emb = resolve(raw["embeddings"])
        man = resolve(raw["manifest"])
        fmt = raw.get("format", _infer_format(emb))
        if fmt not in ("csv", "binary"):
            raise ValidationError(f"unknown embedding format {fmt!r}")
        entries.append(DatasetEntry(raw["name"], emb, man, fmt))
    if entries[0].name == entries[1].name:
        raise ValidationError("dataset names must be distinct")

    strategy = obj["strategy"]
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r} (expected one of {STRATEGIES})")
    scope = obj.get("scope", "global")
    if scope not in SCOPES:
        raise ValidationError(f"unknown scope {scope!r} (expected one of {SCOPES})")
    if strategy in SCOPE_FREE_STRATEGIES and scope != "global":
        warnings.warn(
            f"scope {scope!r} is ignored for strategy {strategy!r} (no bias fit)",
            UserWarning,
            stacklevel=2,
        )

    gamma = obj.get("gamma", "median")
    if gamma != "median":
        gamma = float(gamma)
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ValidationError(f"gamma must be positive and finite or 'median', got {gamma}")
    dprime_factor = int(obj.get("dprime_factor", DEFAULT_DPRIME_FACTOR))
    if dprime_factor < 1:
        raise ValidationError("dprime_factor must be >= 1")
    shrinkage = float(obj.get("shrinkage", 1e-2))
    if not (shrinkage >= 0 and np.isfinite(shrinkage)):
        raise ValidationError("shrinkage must be a finite non-negative number")
    c_grid = tuple(float(c) for c in obj.get("c_grid", DEFAULT_C_GRID))
    if not c_grid or any(not (c > 0 and np.isfinite(c)) for c in c_grid):
        raise ValidationError("c_grid must be a non-empty list of positive numbers")
    cv_folds = int(obj.get("cv_folds", DEFAULT_FOLDS))
    if cv_folds < 2:
        raise ValidationError("cv_folds must be >= 2")
    min_genre_samples = int(obj.get("min_genre_samples", DEFAULT_MIN_GENRE_SAMPLES))
    if min_genre_samples < 2:
        raise ValidationError("min_genre_samples must be >= 2")
    seeds_override = {}
    for purpose, value in dict(obj.get("seeds", {})).items():
        if purpose not in ("sampling", "rff", "cv"):
            raise ValidationError(f"unknown seed purpose {purpose!r}")
        seeds_override[purpose] = int(value)
    classes = obj.get("classes")
    if classes is not None:
        classes = tuple(str(c) for c in classes)
        if len(set(classes)) != len(classes) or not classes:
            raise ValidationError("classes must be a non-empty list of unique names")

    config = ExperimentConfig(
        datasets=(entries[0], entries[1]),
        strategy=strategy,
        scope=scope,
        seed=int(obj["seed"]),
        genre_map=resolve(obj.get("genre_map")),
        classes=classes,
        dprime_factor=dprime_factor,
        gamma=gamma,
        shrinkage=shrinkage,
        c_grid=c_grid,
        cv_folds=cv_folds,
        min_genre_samples=min_genre_samples,
        seeds_override=seeds_override,
        output_dir=resolve(obj.get("output_dir")),
    )
    for entry in config.datasets:
        for file_path in (entry.embeddings, entry.manifest):
            if not os.path.exists(file_path):
                raise ValidationError(f"referenced file does not exist: {file_path}")
    if config.genre_map is not None and not os.path.exists(config.genre_map):
        raise ValidationError(f"referenced file does not exist: {config.genre_map}")
    return config


# --- guarded per-dataset feature store ------------------------------------


class DomainData:
    """Pooled clip-level rows with manifest alignment and guarded access.

    Transforms (standardize, random features, global debias) are applied
    lazily inside :meth:`rows`, so fitted statistics only ever see the rows
    they were explicitly given.
    """

    def __init__(
        self,
        name: str,
        table: EmbeddingTable,
        manifest: Manifest,
        genres: tuple[str, ...],
        guard: SplitGuard,
    ):
        if len(manifest.records) != table.n_rows:
            raise ValidationError(
                f"dataset {name!r}: {table.n_rows} embedding rows but "
                f"{len(manifest.records)} manifest records"
            )
        self.name = name
        self.table = table
        self.manifest = manifest
        self.genres = genres
        self.guard = guard
        self._transforms: list = []
        splits = [r.split for r in manifest.records]
        self.train_indices = np.asarray(
            [i for i, s in enumerate(splits) if s == TRAIN], dtype=np.intp
        )
        self.test_indices = np.asarray(
            [i for i, s in enumerate(splits) if s == TEST], dtype=np.intp
        )

    def add_transform(self, fn) -> None:
        self._transforms.append(fn)

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """The only path to feature rows; audited by the split guard."""
        indices = np.asarray(indices, dtype=np.intp)
        self.guard.check(self.name, indices)
        out = self.table.vectors[indices]
        for fn in self._transforms:
            out = fn(out)
        return out

    def train_rows_by_genre(self) -> dict[str, np.ndarray]:
        buckets: dict[str, list[int]] = {}
        for i in self.train_indices.tolist():
            buckets.setdefault(self.genres[i], []).append(i)
        return {g: np.asarray(ix, dtype=np.intp) for g, ix in buckets.items()}


def _harmonize_classes(
    manifests: list[Manifest], requested: tuple[str, ...] | None
) -> tuple[list[Manifest], tuple[str, ...]]:
    """Give every record the union label universe (absent labels become unknown)."""
    universe: dict[str, None] = {}
    for manifest in manifests:
        for cls in manifest.classes:
            universe.setdefault(cls, None)
    classes = tuple(universe)
    if requested is not None:
        missing = [c for c in requested if c not in classes]
        if missing:
            raise ValidationError(f"requested classes not present in any manifest: {missing}")
    rebuilt = []
    for manifest in manifests:
        records = tuple(
            ManifestRecord(
                r.clip_id,
                r.dataset,
                r.split,
                r.genres,
                {c: r.labels.get(c, UNK) for c in classes},
            )
            for r in manifest.records
        )
        rebuilt.append(Manifest(records, classes))
    return rebuilt, (requested if requested is not None else classes)


def _align(name: str, table: EmbeddingTable, manifest: Manifest) -> tuple[EmbeddingTable, Manifest]:
    """Order manifest records to match pooled embedding rows, 1:1 by clip id."""
    by_id = {r.clip_id: r for r in manifest.records}
    embedded = set(table.clip_ids)
    missing = [c for c in table.clip_ids if c not in by_id]
    extra = [r.clip_id for r in manifest.records if r.clip_id not in embedded]
    if missing or extra:
        raise ValidationError(
            f"dataset {name!r}: embeddings and manifest disagree on clips "
            f"(first missing from manifest: {missing[:3]}, "
            f"first without embeddings: {extra[:3]})"
        )
    ordered = tuple(by_id[c] for c in table.clip_ids)
    return table, Manifest(ordered, manifest.classes)


def _identity_genre_map(manifests: list[Manifest]) -> GenreMap:
    observed: dict[str, None] = {}
    for manifest in manifests:
        for record in manifest.records:
            for genre in record.genres:
                observed.setdefault(genre, None)
    return GenreMap(tuple(sorted(observed)) or (UNKNOWN_GENRE,), {})


@dataclass(frozen=True)
class Corpus:
    """Both datasets' file contents: pooled rows aligned 1:1 with harmonised
    manifest records, the genre map and each row's reduced genre. Immutable,
    so one load serves every job of a matrix."""

    tables: tuple[EmbeddingTable, EmbeddingTable]
    manifests: tuple[Manifest, Manifest]
    genres: tuple[tuple[str, ...], tuple[str, ...]]
    classes: tuple[str, ...]
    genre_map: GenreMap


def load_corpus(config: ExperimentConfig) -> Corpus:
    manifests = []
    tables = []
    for entry in config.datasets:
        table = pool_frames(load_embeddings(entry.embeddings, entry.fmt))
        manifest = load_manifest(entry.manifest).for_dataset(entry.name)
        if not manifest.records:
            raise ValidationError(f"manifest {entry.manifest} holds no records for dataset {entry.name!r}")
        table, manifest = _align(entry.name, table, manifest)
        tables.append(table)
        manifests.append(manifest)
    manifests, classes = _harmonize_classes(manifests, config.classes)
    if config.genre_map is not None:
        genre_map = load_genre_map(config.genre_map)
    else:
        genre_map = _identity_genre_map(manifests)
    genres = tuple(
        tuple(reduce_genres(r.genres, genre_map) for r in manifest.records) for manifest in manifests
    )
    return Corpus(tuple(tables), tuple(manifests), genres, classes, genre_map)


def load_domains(
    config: ExperimentConfig, corpus: Corpus | None = None
) -> tuple[DomainData, DomainData, tuple[str, ...], GenreMap, SplitGuard]:
    """Per-run domains over ``corpus`` (loaded from ``config`` when not
    given), with a fresh split guard and no transforms."""
    if corpus is None:
        corpus = load_corpus(config)
    guard = SplitGuard(
        {
            entry.name: np.asarray(
                [i for i, r in enumerate(man.records) if r.split == TEST], dtype=np.intp
            )
            for entry, man in zip(config.datasets, corpus.manifests)
        }
    )
    domains = [
        DomainData(entry.name, table, manifest, genres, guard)
        for entry, table, manifest, genres in zip(
            config.datasets, corpus.tables, corpus.manifests, corpus.genres
        )
    ]
    return domains[0], domains[1], corpus.classes, corpus.genre_map, guard


# --- bias fitting ---------------------------------------------------------


@dataclass
class BiasFit:
    """What the strategy fitted: projection operators plus correlation targets.

    ``global_reference`` / ``class_reference`` hold either a unit direction
    (single-direction strategies and the diagnostic fit for "none"/"K") or an
    orthonormal basis matrix (multi-direction strategies).
    """

    global_operator: DebiasOperator | None = None
    class_operators: dict[str, DebiasOperator] = field(default_factory=dict)
    global_reference: np.ndarray | None = None
    class_reference: dict[str, np.ndarray] = field(default_factory=dict)
    skipped_pairs: list[dict] = field(default_factory=list)
    degenerate: list[dict] = field(default_factory=list)


def _fit_pair_directions(
    domain_a: DomainData,
    domain_b: DomainData,
    pools_a: dict[str, np.ndarray],
    pools_b: dict[str, np.ndarray],
    targets: tuple[str, ...],
    config: ExperimentConfig,
    *,
    scope: str,
    class_name: str | None,
    outcome: BiasFit,
) -> list[BiasDirection]:
    """One discriminant per genre present on both sides with enough rows."""
    directions = []
    for genre in targets:
        if genre == UNKNOWN_GENRE:
            continue
        idx_a = pools_a.get(genre)
        idx_b = pools_b.get(genre)
        n_a = 0 if idx_a is None else len(idx_a)
        n_b = 0 if idx_b is None else len(idx_b)
        if min(n_a, n_b) < config.min_genre_samples:
            outcome.skipped_pairs.append(
                {"genre": genre, "class": class_name, "n_a": n_a, "n_b": n_b}
            )
            continue
        try:
            directions.append(
                fit_lda_direction(
                    domain_a.rows(idx_a),
                    domain_b.rows(idx_b),
                    config.shrinkage,
                    scope=scope,
                    class_name=class_name,
                    genre=genre,
                )
            )
        except DegenerateMeansError:
            outcome.degenerate.append({"genre": genre, "class": class_name})
    return directions


def _subsample_positive_pools(
    domain_a: DomainData,
    domain_b: DomainData,
    class_name: str,
    sampling_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    seed = derive_seed(sampling_seed, f"subsample:{class_name}:{POS}")
    return balanced_subsample(domain_a.manifest, domain_b.manifest, class_name, POS, seed)


def fit_bias(
    config: ExperimentConfig,
    domain_a: DomainData,
    domain_b: DomainData,
    classes: tuple[str, ...],
    genre_map: GenreMap,
    sampling_seed: int,
) -> BiasFit:
    """Fit directions/subspaces per the strategy and scope; attach operators.

    For "none" and "K" a single diagnostic global direction is fitted for
    correlation reporting but nothing is projected. A degenerate fit (domain
    means coincide) downgrades to no projection rather than failing the run.
    """
    strategy = config.strategy
    scope = config.effective_scope()
    outcome = BiasFit()
    multi = strategy in MULTI_STRATEGIES
    applies = strategy in PROJECTING_STRATEGIES

    if scope == "global" or not applies:
        if multi:
            directions = _fit_pair_directions(
                domain_a,
                domain_b,
                domain_a.train_rows_by_genre(),
                domain_b.train_rows_by_genre(),
                genre_map.targets,
                config,
                scope="global",
                class_name=None,
                outcome=outcome,
            )
            if not directions:
                raise EmptyClassError(
                    "no genre pair had enough samples on both sides for the "
                    "multi-direction fit"
                )
            operator = projector_from_subspace(directions)
            outcome.global_operator = operator
            outcome.global_reference = operator.basis
        else:
            try:
                direction = fit_lda_direction(
                    domain_a.rows(domain_a.train_indices),
                    domain_b.rows(domain_b.train_indices),
                    config.shrinkage,
                    scope="global",
                )
            except DegenerateMeansError:
                outcome.degenerate.append({"genre": None, "class": None})
                return outcome
            outcome.global_reference = direction.vector
            if applies:
                outcome.global_operator = projector_from_direction(direction)
        return outcome

    # Class-wise: one operator per evaluated class, fitted on that class's
    # balanced positive pools.
    for class_name in classes:
        pos_a, pos_b = _subsample_positive_pools(domain_a, domain_b, class_name, sampling_seed)
        if multi:
            genre_pools_a = _group_by_genre(domain_a, pos_a)
            genre_pools_b = _group_by_genre(domain_b, pos_b)
            directions = _fit_pair_directions(
                domain_a,
                domain_b,
                genre_pools_a,
                genre_pools_b,
                genre_map.targets,
                config,
                scope="classwise",
                class_name=class_name,
                outcome=outcome,
            )
            if not directions:
                raise EmptyClassError(
                    f"class {class_name!r}: every genre pair fell below "
                    f"{config.min_genre_samples} positives per side"
                )
            operator = projector_from_subspace(directions)
            outcome.class_operators[class_name] = operator
            outcome.class_reference[class_name] = operator.basis
        else:
            try:
                direction = fit_lda_direction(
                    domain_a.rows(pos_a),
                    domain_b.rows(pos_b),
                    config.shrinkage,
                    scope="classwise",
                    class_name=class_name,
                )
            except DegenerateMeansError:
                outcome.degenerate.append({"genre": None, "class": class_name})
                continue
            outcome.class_operators[class_name] = projector_from_direction(direction)
            outcome.class_reference[class_name] = direction.vector
    return outcome


def _group_by_genre(domain: DomainData, indices: np.ndarray) -> dict[str, np.ndarray]:
    buckets: dict[str, list[int]] = {}
    for i in np.asarray(indices).tolist():
        buckets.setdefault(domain.genres[i], []).append(i)
    return {g: np.asarray(ix, dtype=np.intp) for g, ix in buckets.items()}


# --- the run itself -------------------------------------------------------


@dataclass
class RunResult:
    report: ExperimentReport
    audit: dict
    bias_fit: BiasFit | None = None


def _wrap(exc: DebiasKitError, config: ExperimentConfig, **context) -> PipelineError:
    if isinstance(exc, PipelineError):
        return exc
    return PipelineError(
        str(exc),
        strategy=config.strategy,
        scope=config.effective_scope(),
        **context,
    )


def run_strategy(
    config: ExperimentConfig, *, evaluate_cells: bool = True, corpus: Corpus | None = None
) -> RunResult:
    """Execute one strategy end to end and assemble its report. ``corpus``,
    when given, must have been loaded from a config with the same datasets,
    classes and genre map."""
    strategy = config.strategy
    scope = config.effective_scope()
    if strategy in SCOPE_FREE_STRATEGIES and config.scope != "global":
        warnings.warn(
            f"scope {config.scope!r} is ignored for strategy {strategy!r} (no bias fit)",
            UserWarning,
            stacklevel=2,
        )
    seeds = config.run_seeds()
    domain_a, domain_b, classes, genre_map, guard = load_domains(config, corpus)
    domains = (domain_a, domain_b)
    kernelized = strategy in KERNEL_STRATEGIES
    space = SPACE_KERNELIZED if kernelized else SPACE_ORIGINAL

    # Shared feature space: standardize + random features, training rows only.
    if kernelized:
        guard.enter(PHASE_STANDARDIZE)
        train_stack = np.vstack(
            [d.rows(d.train_indices) for d in domains]
        )
        standardizer = fit_standardizer(train_stack)
        for d in domains:
            d.add_transform(standardizer.apply)
        guard.enter(PHASE_KERNEL)
        standardized_train = standardizer.apply(train_stack)
        dim = standardized_train.shape[1]
        kernel_map = fit_rff(
            dim,
            config.dprime_factor * dim,
            config.gamma,
            seeds["rff"],
            x_sample=standardized_train,
        )
        for d in domains:
            d.add_transform(lambda rows, _km=kernel_map: transform_rff(_km, rows))

    # Bias directions / subspaces, fitted on training rows.
    guard.enter(PHASE_BIAS)
    try:
        bias_fit = fit_bias(config, domain_a, domain_b, classes, genre_map, seeds["sampling"])
    except DebiasKitError as exc:
        raise _wrap(exc, config) from exc
    if bias_fit.global_operator is not None:
        op = bias_fit.global_operator
        for d in domains:
            d.add_transform(op.apply)

    # Per-class training sets and models per training domain.
    guard.enter(PHASE_TRAIN)
    models: dict[str, dict[str, object]] = {c: {} for c in classes}
    for class_name in classes:
        try:
            pos_seed = derive_seed(seeds["sampling"], f"subsample:{class_name}:{POS}")
            neg_seed = derive_seed(seeds["sampling"], f"subsample:{class_name}:{NEG}")
            pos_a, pos_b = balanced_subsample(
                domain_a.manifest, domain_b.manifest, class_name, POS, pos_seed
            )
            neg_a, neg_b = balanced_subsample(
                domain_a.manifest, domain_b.manifest, class_name, NEG, neg_seed
            )
        except DebiasKitError as exc:
            raise _wrap(exc, config, class_name=class_name) from exc
        for domain, pos_idx, neg_idx in ((domain_a, pos_a, neg_a), (domain_b, pos_b, neg_b)):
            try:
                x = np.vstack([domain.rows(pos_idx), domain.rows(neg_idx)])
                if class_name in bias_fit.class_operators:
                    x = bias_fit.class_operators[class_name].apply(x)
                y = np.concatenate(
                    [np.ones(len(pos_idx), dtype=bool), np.zeros(len(neg_idx), dtype=bool)]
                )
                cv_seed = derive_seed(seeds["cv"], f"cv:{class_name}:{domain.name}")
                c_value, _ = cv_select_c(x, y, cv_seed, config.c_grid, config.cv_folds)
                models[class_name][domain.name] = train_logreg(x, y, c_value)
            except DebiasKitError as exc:
                raise _wrap(exc, config, class_name=class_name, cell=f"train:{domain.name}") from exc

    # Held-out scoring: all four (train -> test) cells.
    cells: list[Cell] = []
    if evaluate_cells:
        guard.enter(PHASE_EVALUATE)
        for train_domain in domains:
            for eval_domain in domains:
                class_auc: dict[str, float] = {}
                for class_name in classes:
                    try:
                        idx, y = _labeled_test_rows(eval_domain, class_name)
                        x = eval_domain.rows(idx)
                        if class_name in bias_fit.class_operators:
                            x = bias_fit.class_operators[class_name].apply(x)
                        model = models[class_name][train_domain.name]
                        class_auc[class_name] = roc_auc(predict_scores(model, x), y)
                    except DebiasKitError as exc:
                        raise _wrap(
                            exc,
                            config,
                            class_name=class_name,
                            cell=f"{train_domain.name}->{eval_domain.name}",
                        ) from exc
                mean = sum(class_auc.values()) / len(class_auc)
                cells.append(
                    Cell(train_domain.name, eval_domain.name, strategy, scope, class_auc, mean)
                )

    correlations = _correlations(strategy, scope, space, domains, classes, models, bias_fit)
    histogram = _genre_histogram(domains, classes)

    config_dict = config.to_dict()
    config_dict["bias_fit_notes"] = {
        "skipped_genre_pairs": bias_fit.skipped_pairs,
        "degenerate_fits": bias_fit.degenerate,
    }
    report = build_report(
        datasets=(domain_a.name, domain_b.name),
        classes=classes,
        cells=cells,
        correlations=correlations,
        genre_histogram=histogram,
        seeds=seeds,
        config=config_dict,
        expected_cells=[
            (t.name, e.name, strategy, scope) for t in domains for e in domains
        ]
        if evaluate_cells
        else [],
    )
    return RunResult(report=report, audit=guard.audit(), bias_fit=bias_fit)


def _labeled_test_rows(domain: DomainData, class_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Held-out rows with a definite label for the class; unknowns excluded."""
    idx = []
    y = []
    for i in domain.test_indices.tolist():
        state = domain.manifest.records[i].labels.get(class_name, UNK)
        if state == POS:
            idx.append(i)
            y.append(True)
        elif state == NEG:
            idx.append(i)
            y.append(False)
    if not idx:
        raise EmptyClassError(
            f"dataset {domain.name!r} has no labeled held-out rows for class {class_name!r}"
        )
    return np.asarray(idx, dtype=np.intp), np.asarray(y, dtype=bool)


def _correlations(
    strategy: str,
    scope: str,
    space: str,
    domains: tuple[DomainData, DomainData],
    classes: tuple[str, ...],
    models: dict[str, dict[str, object]],
    bias_fit: BiasFit,
) -> list[CorrelationEntry]:
    """Alignment between each trained model and the strategy's bias geometry.

    Single directions give a signed cosine; subspaces give the norm of the
    model direction's component inside the subspace (non-negative).
    """
    entries = []
    for domain in domains:
        class_corr: dict[str, float] = {}
        for class_name in classes:
            reference = bias_fit.class_reference.get(class_name, bias_fit.global_reference)
            if reference is None:
                continue
            model = models[class_name].get(domain.name)
            if model is None:
                continue
            weights = model.weights
            try:
                if reference.ndim == 2:
                    value = subspace_correlation(reference, weights)
                else:
                    value = bias_correlation(reference, weights)
            except ZeroVectorError:
                value = 0.0
            class_corr[class_name] = value
        if not class_corr:
            continue
        mean_abs = sum(abs(v) for v in class_corr.values()) / len(class_corr)
        entries.append(
            CorrelationEntry(domain.name, strategy, scope, space, class_corr, mean_abs)
        )
    return entries


def _genre_histogram(
    domains: tuple[DomainData, DomainData], classes: tuple[str, ...]
) -> dict[str, dict[str, dict[str, int]]]:
    """Reduced-genre counts over each dataset's positive records, per class."""
    histogram: dict[str, dict[str, dict[str, int]]] = {}
    for domain in domains:
        per_class: dict[str, dict[str, int]] = {}
        for class_name in classes:
            counts: dict[str, int] = {}
            for i, record in enumerate(domain.manifest.records):
                if record.labels.get(class_name, UNK) == POS:
                    genre = domain.genres[i]
                    counts[genre] = counts.get(genre, 0) + 1
            per_class[class_name] = counts
        histogram[domain.name] = per_class
    return histogram


# --- the strategy x scope matrix ------------------------------------------


@dataclass
class MatrixResult:
    jobs: tuple[tuple[str, str], ...]
    reports: dict[tuple[str, str], ExperimentReport]
    combined: ExperimentReport
    rendered: RenderedTable
    audits: dict[str, dict]


def _matrix_jobs(strategies: list[str], scopes: list[str]) -> list[tuple[str, str]]:
    jobs: list[tuple[str, str]] = [("none", "global")]
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
        for scope in scopes:
            if scope not in SCOPES:
                raise ValidationError(f"unknown scope {scope!r}")
            effective = "global" if strategy in SCOPE_FREE_STRATEGIES else scope
            job = (strategy, effective)
            if job not in jobs:
                jobs.append(job)
    return jobs


def run_matrix(
    base_config: ExperimentConfig,
    strategies: list[str],
    scopes: list[str],
) -> MatrixResult:
    """Run each (strategy, scope) plus the shared baseline; render the grid.

    The baseline is always computed (deltas need it) and computed once. The
    corpus is loaded once and shared; each run gets its own domains, split
    guard and master seed derived from the base seed. A failing run aborts
    the matrix after writing a partial-results manifest.
    """
    if not strategies or not scopes:
        raise ValidationError("strategies and scopes must be non-empty")
    jobs = _matrix_jobs(strategies, scopes)
    out_dir = base_config.output_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    reports: dict[tuple[str, str], ExperimentReport] = {}
    audits: dict[str, dict] = {}
    corpus = None
    for strategy, scope in jobs:
        run_config = replace(
            base_config,
            strategy=strategy,
            scope=scope,
            seed=derive_seed(base_config.seed, f"run:{strategy}:{scope}"),
        )
        try:
            if corpus is None:
                corpus = load_corpus(base_config)
            result = run_strategy(run_config, corpus=corpus)
        except DebiasKitError as exc:
            if out_dir is not None:
                _write_partial(out_dir, jobs, reports, (strategy, scope), exc)
            raise
        reports[(strategy, scope)] = result.report
        audits[f"{strategy}:{scope}"] = result.audit
        if out_dir is not None:
            save_report(result.report, os.path.join(out_dir, f"report_{strategy}_{scope}.json"))

    combined = merge_reports([reports[j] for j in jobs])
    matrix_config = dict(reports[jobs[0]].config)
    matrix_config.update(
        {
            "strategy": None,
            "scope": None,
            "seed": base_config.seed,
            "matrix_strategies": list(strategies),
            "matrix_scopes": list(scopes),
        }
    )
    matrix_config.pop("bias_fit_notes", None)
    combined = replace(
        combined,
        config=matrix_config,
        seeds={"master": base_config.seed},
        fingerprint=config_fingerprint(matrix_config, {"master": base_config.seed}),
    )
    rendered = render_table(combined, "table1")
    if out_dir is not None:
        save_report(combined, os.path.join(out_dir, "report.json"))
        _write_text(os.path.join(out_dir, "table1.txt"), rendered.text)
        _write_text(os.path.join(out_dir, "table1.csv"), rendered.csv)
        audit_all = {"runs": audits, "clean": all(a["clean"] for a in audits.values())}
        _write_text(
            os.path.join(out_dir, "audit.json"),
            json.dumps(audit_all, sort_keys=True) + "\n",
        )
    return MatrixResult(tuple(jobs), reports, combined, rendered, audits)


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


def _write_partial(
    out_dir: str,
    jobs: list[tuple[str, str]],
    reports: dict[tuple[str, str], ExperimentReport],
    failed: tuple[str, str],
    exc: DebiasKitError,
) -> None:
    manifest = {
        "completed": [list(j) for j in jobs if j in reports],
        "failed": {"strategy": failed[0], "scope": failed[1], "error": str(exc)},
        "pending": [list(j) for j in jobs if j not in reports and j != failed],
    }
    _write_text(
        os.path.join(out_dir, "partial_results.json"),
        json.dumps(manifest, sort_keys=True) + "\n",
    )
