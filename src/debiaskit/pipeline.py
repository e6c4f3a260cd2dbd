"""Experiment orchestration: strategy x scope x transfer-direction runs.

The run proceeds in phases — standardize, kernel, bias, train, evaluate —
and every read of embedding rows passes its clip indices through a split
guard, so held-out rows provably never feed any fitted statistic.
Original-space strategies gather rows straight from the pooled table. Kernel
strategies build each domain's random-feature rows once per phase: the
training rows in the kernel phase, the held-out rows on entering evaluate.
A fitted operator, global or per class, projects each gathered training or
test set in place, so no projected copy of the rows is kept; only a read of
every built feature row, which is served without a copy, is copied first.

The train phase fits, per class and training domain, one logistic regression
on that class's balanced, debiased training rows. Its C comes from
``c_grid``: a one-value grid is the C, with no folds built and no fold fits;
a grid of two or more values is searched by stratified ``cv_folds``-fold
cross-validation on those rows. The final model is then trained from scratch
on all of them at that C.

Strategies: "none" (baseline), "LDA" (single-direction removal), "mLDA"
(per-genre subspace removal), "K" (random-feature space, no removal),
"KLDA"/"mKLDA" (removal inside the random-feature space). Scopes: "global"
(one correction for all classes) or "classwise" (one per class, fitted on
the balanced positives that class's classifier trains on). "none" and "K"
fit no correction and run at "global" whatever the scope setting, which the
config records as written.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .bias import bias_correlation, fit_lda_direction, subspace_correlation

# The acceptance suite imports config_from_dict from this module.
from .config import (  # noqa: F401
    BASELINE,
    SCOPES,
    STRATEGIES,
    ExperimentConfig,
    config_from_dict,
    effective_scope,
    write_json,
)
from .data import (
    NEG,
    POS,
    TEST,
    TRAIN,
    UNKNOWN_GENRE,
    EmbeddingTable,
    GenreMap,
    Manifest,
    balanced_subsample,
    load_embeddings,
    load_genre_map,
    load_manifest,
    located,
    pool_frames,
    reduce_genres,
)
from .errors import (
    DebiasKitError,
    DegenerateMeansError,
    EmptyClassError,
    LeakageError,
    PipelineError,
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
from .kernel import fit_rff, fit_standardizer, transform_rff
from .logreg import cv_select_c, predict_scores, train_logreg
from .metrics import roc_auc
from .projection import DebiasOperator, projector_from_direction, projector_from_subspace
# perfbench/tracing.py wraps build_report and merge_reports by name on this
# module. config_fingerprint is imported only so its lookup resolves: that
# span never records, as build_report calls report's own binding.
from .report import (  # noqa: F401
    Cell,
    CorrelationEntry,
    ExperimentReport,
    RenderedTable,
    build_report,
    config_fingerprint,
    merge_reports,
    render_table,
    save_report,
    save_table,
)
from .seeding import derive_run_seeds, derive_seed

# The largest pooled value a run takes: the largest a binary embedding file holds.
MAX_EMBEDDING_VALUE = float(np.finfo(np.float32).max)

# --- guarded per-dataset rows ---------------------------------------------


class DomainData:
    """One dataset's pooled rows, aligned manifest and guarded row access.

    :meth:`rows` passes the clip indices of every read to the split guard,
    then gathers from the pooled table or, after :meth:`build_features`,
    from the feature rows built for the current phase.
    """

    def __init__(
        self,
        name: str,
        table: EmbeddingTable,
        manifest: Manifest,
        genres: np.ndarray,
        guard: SplitGuard,
    ):
        self.name = name
        self.table = table
        self.manifest = manifest
        self.genres = genres
        self.guard = guard
        self._features: np.ndarray | None = None
        self.train_indices = manifest.indices(TRAIN)
        self.test_indices = guard.test_indices[name]

    def build_features(self, indices: np.ndarray, featurize) -> None:
        """Map the rows at ``indices`` through ``featurize`` once; from now on
        :meth:`rows` serves those rows, and only those, from the result. The
        previous feature rows are released first."""
        self._features = None
        indices = np.asarray(indices, dtype=np.intp)
        raw = self.rows(indices)
        self._built = indices
        # Each clip's row among the built rows, or -1 for a clip not built.
        self._position = np.full(self.table.n_rows, -1, dtype=np.intp)
        self._position[indices] = np.arange(indices.size)
        self._features = featurize(raw)
        self._features.setflags(write=False)

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """The only path to feature rows; audited by the split guard."""
        indices = np.asarray(indices, dtype=np.intp)
        self.guard.check(self.name, indices)
        if self._features is None:
            return self.table.vectors[indices]
        if np.array_equal(indices, self._built):
            # A read of every built row, as the global bias fit makes, is
            # served without a copy: the copy would double peak memory.
            return self._features
        positions = self._position[indices]
        unbuilt = positions < 0
        if unbuilt.any():
            missing = np.sort(indices[unbuilt])
            raise LeakageError(
                f"rows of {self.name!r} read during phase {self.guard.phase!r} are "
                f"not among the built feature rows: indices {missing[:5].tolist()}"
                f"{'...' if missing.size > 5 else ''}"
            )
        return self._features[positions]


def _align(
    name: str, table: EmbeddingTable, manifest: Manifest, universe: tuple[str, ...]
) -> Manifest:
    """The manifest records of dataset ``name`` in pooled-row order, 1:1 by
    clip id, over the label universe ``universe``."""
    rows = np.flatnonzero(manifest.datasets == name)
    row_of = dict(zip(manifest.clip_ids[rows].tolist(), rows.tolist()))
    embedded = set(table.clip_ids)
    missing = [c for c in table.clip_ids if c not in row_of]
    extra = [c for c in row_of if c not in embedded]
    if missing or extra:
        raise ValidationError(
            f"dataset {name!r}: embeddings and manifest disagree on clips "
            f"(first missing from manifest: {missing[:3]}, "
            f"first without embeddings: {extra[:3]})"
        )
    return manifest.take([row_of[c] for c in table.clip_ids], universe)


def _identity_genre_map(manifests: list[Manifest]) -> GenreMap:
    observed = {genre for manifest in manifests for genres in manifest.genres for genre in genres}
    return GenreMap(tuple(sorted(observed)) or (UNKNOWN_GENRE,), {})


@dataclass(frozen=True)
class Corpus:
    """Both datasets' file contents: pooled rows aligned 1:1 with manifest
    records over one label universe, the genre map and each row's reduced
    genre, one read-only object array per dataset. Immutable, so one load
    serves every job of a matrix."""

    tables: tuple[EmbeddingTable, EmbeddingTable]
    manifests: tuple[Manifest, Manifest]
    genres: tuple[np.ndarray, np.ndarray]
    classes: tuple[str, ...]
    genre_map: GenreMap


def _pooled(path: str) -> EmbeddingTable:
    """The table in the embedding file at ``path``, one mean-pooled row per
    clip; a clip whose frames sum past the float64 range is refused with
    the path."""
    table = load_embeddings(path)
    with located(path):
        return pool_frames(table)


def load_corpus(config: ExperimentConfig) -> Corpus:
    loaded = [
        (entry, _pooled(entry.embeddings), load_manifest(entry.manifest))
        for entry in config.datasets
    ]
    (entry_a, table_a, _), (entry_b, table_b, _) = loaded
    if table_a.dim != table_b.dim:
        raise ValidationError(
            f"datasets {entry_a.name!r} and {entry_b.name!r} differ in embedding width: "
            f"{table_a.dim} against {table_b.dim}"
        )
    labelled = {c for _, _, manifest in loaded for c in manifest.classes}
    universe = tuple(sorted(labelled))
    manifests = []
    for entry, table, manifest in loaded:
        if max(table.vectors.max(), -table.vectors.min()) > MAX_EMBEDDING_VALUE:
            row = np.flatnonzero(np.abs(table.vectors).max(axis=1) > MAX_EMBEDDING_VALUE)[0]
            raise ValidationError(
                f"dataset {entry.name!r}: clip {table.clip_ids[row]!r} pools to a value beyond"
                f" {MAX_EMBEDDING_VALUE!r} in magnitude, the float32 range of embedding files"
            )
        if entry.name not in manifest.datasets:
            raise ValidationError(f"manifest {entry.manifest} holds no records for dataset {entry.name!r}")
        manifests.append(_align(entry.name, table, manifest, universe))
    classes = config.classes if config.classes is not None else universe
    if not classes:
        raise ValidationError(f"manifests {entry_a.manifest} and {entry_b.manifest} label no class")
    missing = [c for c in classes if c not in labelled]
    if missing:
        raise ValidationError(f"requested classes not present in any manifest: {missing}")
    if config.genre_map is not None:
        genre_map = load_genre_map(config.genre_map)
    else:
        genre_map = _identity_genre_map(manifests)
    genres = tuple(
        np.array([reduce_genres(g, genre_map) for g in manifest.genres], dtype=object)
        for manifest in manifests
    )
    for reduced in genres:
        reduced.setflags(write=False)
    tables = tuple(table for _, table, _ in loaded)
    return Corpus(tables, tuple(manifests), genres, classes, genre_map)


def load_domains(
    config: ExperimentConfig, corpus: Corpus | None = None
) -> tuple[DomainData, DomainData, tuple[str, ...], GenreMap, SplitGuard]:
    """Per-run domains over ``corpus`` (loaded from ``config`` when not
    given), with a fresh split guard and no feature rows built yet."""
    if corpus is None:
        corpus = load_corpus(config)
    guard = SplitGuard(
        {entry.name: man.indices(TEST) for entry, man in zip(config.datasets, corpus.manifests)}
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
    """What the strategy fitted, keyed like the pools it was fitted on: by
    class name, or by ``None`` for the one global correction.

    ``operators`` hold the projections to apply; a class without its own
    operator uses the global one, if any. ``references`` are the correlation
    targets: a unit direction (single-direction strategies and the diagnostic
    fit for "none"/"K") or an orthonormal basis matrix (multi-direction
    strategies).
    """

    operators: dict[str | None, DebiasOperator] = field(default_factory=dict)
    references: dict[str | None, np.ndarray] = field(default_factory=dict)
    skipped_pairs: list[dict] = field(default_factory=list)
    degenerate: list[dict] = field(default_factory=list)

    @property
    def global_reference(self) -> np.ndarray | None:
        return self.references.get(None)


def fit_bias(
    config: ExperimentConfig,
    domain_a: DomainData,
    domain_b: DomainData,
    genre_map: GenreMap,
    pools: dict[str | None, tuple[np.ndarray, np.ndarray]],
) -> BiasFit:
    """Fit one correction per entry of ``pools``, which maps a key (a class
    name, or ``None`` for the global fit) to both domains' training indices.

    Each key's rows split into groups that get one discriminant each: all
    rows form one group for single-direction strategies; multi-direction
    strategies take one group per genre target with ``min_genre_samples``
    rows on both sides and note the other targets as skipped pairs. A
    degenerate group (domain means coincide) is noted and gives no
    direction. A multi-direction key removes the span of its directions and
    fails when it has none; a single-direction key without its direction is
    left uncorrected. For "none" and "K" the direction is a diagnostic for
    correlation reporting and nothing is projected.
    """
    scope = config.effective_scope()
    strategy = STRATEGIES[config.strategy]
    outcome = BiasFit()
    for key, (idx_a, idx_b) in pools.items():
        groups = []
        skipped = []
        if not strategy.multi:
            groups.append((None, idx_a, idx_b))
        else:
            for genre in genre_map.targets:
                if genre == UNKNOWN_GENRE:
                    continue
                rows_a = idx_a[domain_a.genres[idx_a] == genre]
                rows_b = idx_b[domain_b.genres[idx_b] == genre]
                n_a, n_b = len(rows_a), len(rows_b)
                if min(n_a, n_b) < config.min_genre_samples:
                    skipped.append({"genre": genre, "class": key, "n_a": n_a, "n_b": n_b})
                else:
                    groups.append((genre, rows_a, rows_b))
            outcome.skipped_pairs += skipped
        directions = []
        for genre, rows_a, rows_b in groups:
            try:
                directions.append(
                    fit_lda_direction(
                        domain_a.rows(rows_a),
                        domain_b.rows(rows_b),
                        config.shrinkage,
                        scope=scope,
                        class_name=key,
                        genre=genre,
                    )
                )
            except DegenerateMeansError:
                outcome.degenerate.append({"genre": genre, "class": key})
        if strategy.multi:
            if not directions:
                raise EmptyClassError(
                    f"no genre pair gave a direction (class={key}): {len(groups)} degenerate, "
                    f"{len(skipped)} below {config.min_genre_samples} training rows a side"
                )
            operator = projector_from_subspace(directions)
            outcome.operators[key] = operator
            outcome.references[key] = operator.basis
        elif directions:
            (direction,) = directions
            outcome.references[key] = direction.vector
            if strategy.projecting:
                outcome.operators[key] = projector_from_direction(direction)
    return outcome


# --- the run itself -------------------------------------------------------


@dataclass
class RunResult:
    report: ExperimentReport
    audit: dict
    bias_fit: BiasFit | None = None


@contextmanager
def _job_context(config: ExperimentConfig, **context):
    """Re-raise a package error from the block as a PipelineError that names
    the job's strategy and scope and the given class and cell."""
    try:
        yield
    except DebiasKitError as exc:
        raise PipelineError(
            str(exc), strategy=config.strategy, scope=config.effective_scope(), **context
        ) from exc


def _fit_feature_map(config: ExperimentConfig, domains, guard: SplitGuard, rff_seed: int):
    """Fit the standardizer and the random-feature map on both domains'
    training rows; return the raw-rows -> random-features function."""
    guard.enter(PHASE_STANDARDIZE)
    train_stack = np.vstack([d.rows(d.train_indices) for d in domains])
    dim = train_stack.shape[1]
    standardizer = fit_standardizer(train_stack)
    guard.enter(PHASE_KERNEL)
    standardized_train = standardizer.apply(train_stack)
    kernel_map = fit_rff(
        dim,
        config.dprime_factor * dim,
        config.gamma,
        rff_seed,
        x_sample=standardized_train,
    )
    return lambda raw: transform_rff(kernel_map, standardizer.apply(raw))


def run_strategy(config: ExperimentConfig, *, corpus: Corpus | None = None) -> RunResult:
    """Execute one strategy end to end and assemble its report. ``corpus``,
    when given, must have been loaded from a config with the same datasets,
    classes and genre map."""
    strategy = config.strategy
    scope = config.effective_scope()
    seeds = derive_run_seeds(config.seed)
    domain_a, domain_b, classes, genre_map, guard = load_domains(config, corpus)
    domains = (domain_a, domain_b)
    kernelized = STRATEGIES[strategy].kernelized

    # Each class's balanced positive and negative training pools, drawn once:
    # a class-wise correction is fitted on the positives its classifier uses.
    samples: dict[str, tuple[tuple[np.ndarray, np.ndarray], ...]] = {}
    for class_name in classes:
        with _job_context(config, class_name=class_name):
            samples[class_name] = tuple(
                balanced_subsample(
                    domain_a.manifest,
                    domain_b.manifest,
                    class_name,
                    state,
                    derive_seed(seeds["sampling"], f"subsample:{class_name}:{state}"),
                )
                for state in (POS, NEG)
            )

    # Shared feature space: standardize + random features, fitted on training
    # rows; each domain's training rows are mapped once, here.
    if kernelized:
        with _job_context(config):
            featurize = _fit_feature_map(config, domains, guard, seeds["rff"])
            for d in domains:
                d.build_features(d.train_indices, featurize)

    # Bias directions / subspaces, fitted on training rows: all of them for
    # the global correction, each class's positives for a class-wise one.
    if scope == "global":
        pools = {None: (domain_a.train_indices, domain_b.train_indices)}
    else:
        pools = {c: samples[c][0] for c in classes}
    guard.enter(PHASE_BIAS)
    with _job_context(config):
        bias_fit = fit_bias(config, domain_a, domain_b, genre_map, pools)

    def debiased(class_name: str, x: np.ndarray) -> np.ndarray:
        """``x`` projected in place, or into a copy when ``x`` is the
        read-only built feature rows that :meth:`DomainData.rows` serves."""
        op = bias_fit.operators.get(class_name, bias_fit.operators.get(None))
        if op is None:
            return x
        return op.apply_in_place(x) if x.flags.writeable else op.apply(x)

    # Per-class training sets and models per training domain.
    guard.enter(PHASE_TRAIN)
    models: dict[str, dict[str, object]] = {c: {} for c in classes}
    for class_name in classes:
        (pos_a, pos_b), (neg_a, neg_b) = samples[class_name]
        for domain, pos_idx, neg_idx in ((domain_a, pos_a, neg_a), (domain_b, pos_b, neg_b)):
            with _job_context(config, class_name=class_name, cell=f"train:{domain.name}"):
                x = debiased(class_name, domain.rows(np.concatenate([pos_idx, neg_idx])))
                y = np.concatenate(
                    [np.ones(len(pos_idx), dtype=bool), np.zeros(len(neg_idx), dtype=bool)]
                )
                if len(config.c_grid) == 1:
                    # A one-value grid leaves nothing to select: no folds.
                    (c_value,) = config.c_grid
                else:
                    cv_seed = derive_seed(seeds["cv"], f"cv:{class_name}:{domain.name}")
                    c_value, _ = cv_select_c(x, y, cv_seed, config.c_grid, config.cv_folds)
                models[class_name][domain.name] = train_logreg(x, y, c_value)

    # Held-out scoring: each labelled held-out set is gathered and projected
    # once, then scored by both training domains' models. The cells keep the
    # (train, test) order.
    guard.enter(PHASE_EVALUATE)
    if kernelized:
        with _job_context(config):
            for d in domains:
                d.build_features(d.test_indices, featurize)
    class_auc: dict[tuple[str, str], dict[str, float]] = {
        (t.name, e.name): {} for t in domains for e in domains
    }
    for eval_domain in domains:
        for class_name in classes:
            with _job_context(config, class_name=class_name, cell=f"test:{eval_domain.name}"):
                idx, y = _labeled_test_rows(eval_domain, class_name)
                x = debiased(class_name, eval_domain.rows(idx))
            for train_domain in domains:
                cell = (train_domain.name, eval_domain.name)
                with _job_context(config, class_name=class_name, cell="->".join(cell)):
                    model = models[class_name][train_domain.name]
                    class_auc[cell][class_name] = roc_auc(predict_scores(model, x), y)
    cells = [Cell(*key, strategy, scope, aucs) for key, aucs in class_auc.items()]

    space = "kernelized" if kernelized else "original"
    report = build_report(
        datasets=(domain_a.name, domain_b.name),
        classes=classes,
        cells=cells,
        correlations=_correlations(strategy, scope, space, domains, classes, models, bias_fit),
        genre_histogram=_genre_histogram(domains, classes),
        seeds=seeds,
        config=config.to_dict(),
        bias_fit_notes={
            f"{strategy}:{scope}": {
                "skipped_genre_pairs": bias_fit.skipped_pairs,
                "degenerate_fits": bias_fit.degenerate,
            }
        },
    )
    return RunResult(report=report, audit=guard.audit(), bias_fit=bias_fit)


def _labeled_test_rows(domain: DomainData, class_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Held-out rows with a definite label for the class, ascending, and
    whether each is positive; unknowns excluded."""
    idx = domain.manifest.indices(TEST, class_name)
    if not idx.size:
        raise EmptyClassError(
            f"dataset {domain.name!r} has no labeled held-out rows for class {class_name!r}"
        )
    return idx, domain.manifest.label_states(class_name)[idx] == POS


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
            reference = bias_fit.references.get(class_name, bias_fit.references.get(None))
            if reference is None:
                continue
            weights = models[class_name][domain.name].weights
            try:
                if reference.ndim == 2:
                    value = subspace_correlation(reference, weights)
                else:
                    value = bias_correlation(reference, weights)
            except ZeroVectorError:
                value = 0.0
            class_corr[class_name] = value
        if class_corr:
            entries.append(CorrelationEntry(domain.name, strategy, scope, space, class_corr))
    return entries


def _genre_histogram(
    domains: tuple[DomainData, DomainData], classes: tuple[str, ...]
) -> dict[str, dict[str, dict[str, int]]]:
    """Reduced-genre counts over each dataset's positive records, per class,
    genres in first-appearance order."""
    histogram: dict[str, dict[str, dict[str, int]]] = {}
    for domain in domains:
        histogram[domain.name] = {}
        for class_name in classes:
            positives = domain.manifest.label_states(class_name) == POS
            histogram[domain.name][class_name] = dict(Counter(domain.genres[positives]))
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
    jobs: list[tuple[str, str]] = [(BASELINE, "global")]
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
        for scope in scopes:
            if scope not in SCOPES:
                raise ValidationError(f"unknown scope {scope!r}")
            job = (strategy, effective_scope(strategy, scope))
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
    corpus is loaded once, before any job, and shared; each run gets its own
    domains and split guard. Every run uses the base config's seed, so all
    jobs share subsamples, CV folds and (kernel jobs) the random-feature map,
    and each job equals ``run_strategy`` at its strategy and scope. A corpus
    that fails to load raises its error and writes no partial-results
    manifest; a failing run aborts the matrix after writing one.
    """
    if not strategies or not scopes:
        raise ValidationError("strategies and scopes must be non-empty")
    jobs = _matrix_jobs(strategies, scopes)
    out_dir = base_config.output_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    corpus = load_corpus(base_config)
    reports: dict[tuple[str, str], ExperimentReport] = {}
    audits: dict[str, dict] = {}
    for strategy, scope in jobs:
        run_config = replace(base_config, strategy=strategy, scope=scope)
        try:
            result = run_strategy(run_config, corpus=corpus)
        except DebiasKitError as exc:
            if out_dir is not None:
                _write_partial(out_dir, jobs, reports, (strategy, scope), exc)
            raise
        reports[(strategy, scope)] = result.report
        audits[f"{strategy}:{scope}"] = result.audit
        if out_dir is not None:
            save_report(result.report, os.path.join(out_dir, f"report_{strategy}_{scope}.json"))

    combined = merge_reports(
        [reports[j] for j in jobs],
        {
            **base_config.to_dict(),
            "strategy": None,
            "scope": None,
            "matrix_strategies": list(strategies),
            "matrix_scopes": list(scopes),
        },
        {"master": base_config.seed},
    )
    rendered = render_table(combined, "table1")
    if out_dir is not None:
        save_report(combined, os.path.join(out_dir, "report.json"))
        save_table(rendered, out_dir, "table1")
        audit_all = {"runs": audits, "clean": all(a["clean"] for a in audits.values())}
        write_json(os.path.join(out_dir, "audit.json"), audit_all)
    return MatrixResult(tuple(jobs), reports, combined, rendered, audits)


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
    write_json(os.path.join(out_dir, "partial_results.json"), manifest)
