"""End-to-end experiment pipeline: config parsing, guarded runs, the
strategy-by-scope matrix, and exact replication of a pipeline cell by an
independent re-implementation of the training recipe."""

import json
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import SMALL_SPEC, corpus_config, write_corpus
from debiaskit import logreg, pipeline
from debiaskit.config import ExperimentConfig, config_from_dict, load_config
from debiaskit.data import (
    NEG,
    POS,
    TEST,
    TRAIN,
    EmbeddingTable,
    GenreMap,
    Manifest,
    balanced_subsample,
    load_embeddings,
    load_manifest,
    pool_frames,
)
from debiaskit.errors import (
    LeakageError,
    NonFiniteError,
    PipelineError,
    SingleClassError,
    ValidationError,
)
from debiaskit.guard import PHASE_BIAS, PHASE_EVALUATE
from debiaskit.logreg import cv_select_c, predict_scores, train_logreg
from debiaskit.metrics import roc_auc
from debiaskit.pipeline import (
    _align,
    _matrix_jobs,
    fit_bias,
    load_domains,
    run_matrix,
    run_strategy,
)
from debiaskit.report import config_fingerprint, load_report, save_report
from debiaskit.seeding import derive_run_seeds, derive_seed
from debiaskit.synth import BiasSpec, SynthSpec, default_spec


# --- config loading --------------------------------------------------------


def config_payload(entries, gm_path, **overrides):
    payload = {
        "datasets": [
            {"name": e.name, "embeddings": e.embeddings, "manifest": e.manifest}
            for e in entries
        ],
        "genre_map": gm_path,
        "strategy": "none",
        "seed": 31,
    }
    payload.update(overrides)
    return payload


def test_load_config_resolves_relative_paths(small_corpus, tmp_path):
    entries, _, gm_path = small_corpus
    corpus_dir = Path(entries[0].embeddings).parent
    payload = {
        "datasets": [
            {
                "name": e.name,
                "embeddings": Path(e.embeddings).name,
                "manifest": Path(e.manifest).name,
            }
            for e in entries
        ],
        "genre_map": Path(gm_path).name,
        "strategy": "LDA",
        "scope": "classwise",
        "seed": 99,
    }
    config_path = corpus_dir / "relative_config.json"
    config_path.write_text(json.dumps(payload))
    config = load_config(str(config_path))
    assert config.datasets[0].embeddings == str(corpus_dir / "synthA.csv")
    assert config.datasets[1].manifest == str(corpus_dir / "synthB.jsonl")
    assert config.genre_map == str(corpus_dir / "genres.json")
    assert config.datasets[0].fmt == "csv"  # inferred from the suffix
    assert config.strategy == "LDA"
    assert config.scope == "classwise"
    assert config.seed == 99


def test_load_config_infers_binary_format(tmp_path):
    entries, _, gm_path = write_corpus(tmp_path, replace(SMALL_SPEC, samples_per_cell=4), fmt="binary")
    payload = config_payload(entries, gm_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    config = load_config(str(config_path))
    assert config.datasets[0].fmt == "binary"
    assert config.datasets[0].embeddings.endswith(".emb")


def test_load_config_missing_file_is_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot open config"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_config(str(path))


def test_config_rejects_unknown_fields(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path, typo_field=1)
    with pytest.raises(ValidationError, match="unknown config fields.*typo_field"):
        config_from_dict(payload)


@pytest.mark.parametrize("missing", ["datasets", "strategy", "seed"])
def test_config_requires_core_fields(small_corpus, missing):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path)
    del payload[missing]
    with pytest.raises(ValidationError, match=f"missing required field '{missing}'"):
        config_from_dict(payload)


def test_config_rejects_duplicate_dataset_names(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path)
    payload["datasets"][1]["name"] = payload["datasets"][0]["name"]
    with pytest.raises(ValidationError, match="distinct"):
        config_from_dict(payload)


def test_config_rejects_missing_referenced_files(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path)
    payload["datasets"][0]["embeddings"] = "/definitely/not/there.csv"
    with pytest.raises(ValidationError, match="does not exist"):
        config_from_dict(payload)


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        ({"strategy": "PCA"}, "unknown strategy"),
        ({"scope": "per-genre"}, "unknown scope"),
        ({"gamma": -2.0}, "gamma must be positive"),
        ({"gamma": 0.0}, "gamma must be positive"),
        ({"dprime_factor": 0}, "dprime_factor"),
        ({"shrinkage": -0.5}, "shrinkage"),
        ({"c_grid": []}, "c_grid"),
        ({"c_grid": [1.0, -1.0]}, "c_grid"),
        ({"cv_folds": 1}, "cv_folds"),
        ({"min_genre_samples": 1}, "min_genre_samples"),
        # No setting overrides the seeds derived from "seed".
        ({"seeds": {"weights": 3}}, r"unknown config fields: \['seeds'\]"),
        ({"classes": []}, "classes"),
        ({"classes": ["a", "a"]}, "classes"),
        # Numbers must be JSON numbers of the setting's kind, and finite.
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 7.5}, "seed must be an integer"),
        ({"seed": "5"}, "seed must be an integer"),
        ({"shrinkage": "0.5"}, "shrinkage must be a number"),
        ({"shrinkage": True}, "shrinkage must be a number"),
        ({"shrinkage": float("inf")}, "shrinkage must be finite"),
        ({"cv_folds": 2.5}, "cv_folds must be an integer"),
        ({"cv_folds": 3.0}, "cv_folds must be an integer"),
        ({"dprime_factor": None}, "dprime_factor must be an integer"),
        ({"min_genre_samples": "5"}, "min_genre_samples must be an integer"),
        ({"gamma": True}, "gamma must be a number"),
        ({"gamma": "1.0"}, "gamma must be a number"),
        ({"gamma": float("nan")}, "gamma must be finite"),
        ({"c_grid": [1.0, "10"]}, "c_grid entry must be a number"),
        ({"c_grid": [10**400]}, "c_grid entry is out of range"),
        ({"seeds": {"rff": 7}}, r"unknown config fields: \['seeds'\]"),
        ({"seeds": {}}, r"unknown config fields: \['seeds'\]"),
        ({"classes": [0]}, "classes entry must be a string"),
        ({"seeds_override": {"rff": 1}}, "unknown config fields"),
        ({"base_dir": "."}, "unknown config fields"),
    ],
)
def test_config_validates_parameters(small_corpus, overrides, pattern):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path, **overrides)
    with pytest.raises(ValidationError, match=pattern):
        config_from_dict(payload)


def test_config_rejects_unknown_dataset_entry_fields(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path)
    payload["datasets"][1]["fromat"] = "binary"
    with pytest.raises(ValidationError, match=r"unknown dataset entry fields: \['fromat'\]"):
        config_from_dict(payload)


def test_config_defaults_are_the_dataclass_defaults(small_corpus):
    entries, _, gm_path = small_corpus
    parsed = config_from_dict(config_payload(entries, gm_path))
    built = ExperimentConfig(
        datasets=parsed.datasets, strategy="none", seed=31, genre_map=gm_path
    )
    assert parsed == built


def test_config_reads_integers_in_float_settings_as_floats(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path, gamma=2, shrinkage=0, c_grid=[1, 10])
    config = config_from_dict(payload)
    assert (config.gamma, config.shrinkage, config.c_grid) == (2.0, 0.0, (1.0, 10.0))
    assert all(type(v) is float for v in (config.gamma, config.shrinkage, *config.c_grid))


def test_config_requires_exactly_two_datasets(small_corpus):
    entries, _, gm_path = small_corpus
    payload = config_payload(entries, gm_path)
    payload["datasets"] = payload["datasets"][:1]
    with pytest.raises(ValidationError, match="exactly two"):
        config_from_dict(payload)


def test_config_dict_excludes_output_dir(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "none", output_dir="/tmp/somewhere")
    as_dict = config.to_dict()
    assert "output_dir" not in as_dict
    moved = replace(config, output_dir="/tmp/elsewhere")
    seeds = derive_run_seeds(config.seed)
    assert config_fingerprint(as_dict, seeds) == config_fingerprint(moved.to_dict(), seeds)


def test_config_dict_holds_json_types(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "LDA", classes=("class0", "class1"))
    as_dict = config.to_dict()
    assert as_dict == json.loads(json.dumps(as_dict))
    assert isinstance(as_dict["datasets"], list) and isinstance(as_dict["c_grid"], list)
    assert as_dict["classes"] == ["class0", "class1"]


# --- baseline run ----------------------------------------------------------


FAST = dict(c_grid=(0.01, 1.0, 100.0), cv_folds=3)


def test_baseline_run_produces_full_matrix_cell_block(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "none", **FAST)
    result = run_strategy(config)
    report = result.report
    assert report.datasets == ("synthA", "synthB")
    assert report.classes == ("class0", "class1", "class2")
    assert len(report.cells) == 4
    pairs = {(c.train, c.test) for c in report.cells}
    assert pairs == {
        ("synthA", "synthA"),
        ("synthA", "synthB"),
        ("synthB", "synthA"),
        ("synthB", "synthB"),
    }
    for cell in report.cells:
        assert cell.strategy == "none"
        assert cell.scope == "global"
        assert set(cell.class_auc) == set(report.classes)
        assert all(0.0 <= v <= 1.0 for v in cell.class_auc.values())
    # Within-domain discrimination should be strong on this easy corpus.
    within = [c.mean_auc for c in report.cells if c.train == c.test]
    assert min(within) > 0.9
    # Diagnostic direction exists even though nothing was projected out.
    assert result.bias_fit.operators == {}
    assert set(result.bias_fit.references) == {None}
    assert len(report.correlations) == 2
    for entry in report.correlations:
        assert entry.space == "original"
        assert set(entry.class_corr) == set(report.classes)
    assert result.audit["clean"] is True
    assert result.audit["test_rows_read_during_fit"] == 0
    for phase, stats in result.audit["phases"].items():
        if phase != "evaluate":
            assert stats["test_rows"] == 0, f"test rows read during {phase}"
    assert report.genre_histogram["synthA"]["class0"]  # counts present


def test_a_run_report_reads_back_from_disk_unchanged(small_corpus, tmp_path):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "LDA", classes=("class0", "class1"), **FAST)
    result = run_strategy(config)
    path = str(tmp_path / "report.json")
    save_report(result.report, path)
    loaded = load_report(path)
    assert loaded.config == result.report.config
    assert loaded == result.report


def test_run_is_silent_when_scope_is_ignored(small_corpus):
    # The scope is recorded and not read, like every such setting: no warning.
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "none", scope="classwise", **FAST)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_strategy(config).report
    assert caught == []
    assert {cell.scope for cell in report.cells} == {"global"}
    assert list(report.bias_fit_notes) == ["none:global"]


def test_scope_free_run_is_identical_under_either_scope_setting(small_corpus):
    entries, _, gm_path = small_corpus
    config_g = corpus_config(entries, gm_path, "none", scope="global", **FAST)
    config_c = corpus_config(entries, gm_path, "none", scope="classwise", **FAST)
    report_g = run_strategy(config_g).report
    report_c = run_strategy(config_c).report
    for cell_g, cell_c in zip(report_g.cells, report_c.cells):
        assert cell_g == cell_c
    for corr_g, corr_c in zip(report_g.correlations, report_c.correlations):
        assert corr_g.class_corr == corr_c.class_corr
    # The declared (ignored) scope still shows up in the config record.
    assert report_g.config["scope"] == "global"
    assert report_c.config["scope"] == "classwise"
    assert report_g.fingerprint != report_c.fingerprint


# --- exact replication of one trained cell ---------------------------------


def test_independent_reimplementation_matches_pipeline_cell(small_corpus):
    """Recompute one cross-domain AUC from the raw files, using only the
    public building blocks, and require exact agreement with the pipeline."""
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "none", **FAST)
    report = run_strategy(config).report

    tables = {}
    manifests = {}
    for entry in entries:
        table = pool_frames(load_embeddings(entry.embeddings, entry.fmt))
        manifest = load_manifest(entry.manifest)
        row_of = {
            c: i
            for i, (c, d) in enumerate(zip(manifest.clip_ids, manifest.datasets))
            if d == entry.name
        }
        tables[entry.name] = table
        manifests[entry.name] = manifest.take([row_of[c] for c in table.clip_ids], manifest.classes)

    seeds = derive_run_seeds(config.seed)
    class_name = "class1"
    man_a, man_b = manifests["synthA"], manifests["synthB"]
    pos_seed = derive_seed(seeds["sampling"], f"subsample:{class_name}:{POS}")
    neg_seed = derive_seed(seeds["sampling"], f"subsample:{class_name}:{NEG}")
    pos_a, _ = balanced_subsample(man_a, man_b, class_name, POS, pos_seed)
    neg_a, _ = balanced_subsample(man_a, man_b, class_name, NEG, neg_seed)

    x = np.vstack(
        [tables["synthA"].vectors[pos_a], tables["synthA"].vectors[neg_a]]
    )
    y = np.concatenate([np.ones(len(pos_a), dtype=bool), np.zeros(len(neg_a), dtype=bool)])
    cv_seed = derive_seed(seeds["cv"], f"cv:{class_name}:synthA")
    c_value, _ = cv_select_c(x, y, cv_seed, config.c_grid, config.cv_folds)
    model = train_logreg(x, y, c_value)

    test_idx = []
    test_y = []
    for i, (split, state) in enumerate(zip(man_b.splits, man_b.labels[class_name])):
        if split != TEST:
            continue
        if state in (POS, NEG):
            test_idx.append(i)
            test_y.append(state == POS)
    scores = predict_scores(model, tables["synthB"].vectors[test_idx])
    auc = roc_auc(scores, np.asarray(test_y))

    cell = next(
        c for c in report.cells if c.train == "synthA" and c.test == "synthB"
    )
    assert auc == cell.class_auc[class_name]


# --- scope equivalence on single-class balanced corpora ---------------------


ONE_CLASS_SPEC = SynthSpec(
    dim=10,
    n_classes=1,
    n_genres=2,
    samples_per_cell=40,
    seed=5150,
    bias=(BiasSpec("global", 2.5, 0),),
)


def _fit_both_scopes(tmp_path, strategy):
    """The bias fit at global scope, over every training row, and at
    class-wise scope, over the class's balanced positives."""
    entries, _, gm_path = write_corpus(tmp_path, ONE_CLASS_SPEC)
    fits = []
    for scope in ("global", "classwise"):
        config = corpus_config(entries, gm_path, strategy, scope=scope)
        domain_a, domain_b, _, genre_map, guard = load_domains(config)
        guard.enter(PHASE_BIAS)
        if scope == "global":
            pools = {None: (domain_a.train_indices, domain_b.train_indices)}
        else:
            seed = derive_seed(derive_run_seeds(config.seed)["sampling"], f"subsample:class0:{POS}")
            pools = {
                "class0": balanced_subsample(domain_a.manifest, domain_b.manifest, "class0", POS, seed)
            }
        fits.append(fit_bias(config, domain_a, domain_b, genre_map, pools))
    return fits


def test_single_class_balanced_corpus_scopes_agree_for_single_direction(tmp_path):
    """With one all-positive class and equal counts everywhere, the classwise
    positive pools are exactly the full training sets, so the per-class fit
    must reproduce the global fit bit for bit."""
    fit_g, fit_c = _fit_both_scopes(tmp_path, "LDA")
    assert set(fit_g.references) == {None}
    assert set(fit_c.references) == {"class0"}
    assert_array_equal(fit_g.references[None], fit_c.references["class0"])


def test_single_class_balanced_corpus_scopes_agree_for_subspaces(tmp_path):
    fit_g, fit_c = _fit_both_scopes(tmp_path, "mLDA")
    assert fit_g.references[None].ndim == 2
    assert_array_equal(fit_g.references[None], fit_c.references["class0"])


# --- bias-fit bookkeeping ---------------------------------------------------


def write_twin_corpus(directory):
    """SMALL_SPEC's first dataset and an exact copy of it under the second
    name: every pair of domain means coincides, at any scope and genre."""
    entries, _, gm_path = write_corpus(directory, SMALL_SPEC)
    first, second = entries
    twin_emb = Path(directory) / "twin.csv"
    twin_man = Path(directory) / "twin.jsonl"
    twin_emb.write_bytes(Path(first.embeddings).read_bytes())
    records = [json.loads(line) for line in Path(first.manifest).read_text().splitlines()]
    twin_man.write_text(
        "".join(json.dumps({**r, "dataset": second.name}) + "\n" for r in records)
    )
    return (first, replace(second, embeddings=str(twin_emb), manifest=str(twin_man))), gm_path


@pytest.mark.parametrize("strategy", ["LDA", "KLDA"])
@pytest.mark.parametrize("scope", ["global", "classwise"])
def test_degenerate_single_direction_fits_are_noted_without_an_operator(
    tmp_path, strategy, scope
):
    entries, gm_path = write_twin_corpus(tmp_path)
    config = corpus_config(entries, gm_path, strategy, scope=scope, dprime_factor=2, **FAST)
    result = run_strategy(config)
    keys = [None] if scope == "global" else ["class0", "class1", "class2"]
    expected = [{"genre": None, "class": key} for key in keys]
    assert result.bias_fit.degenerate == expected
    assert result.bias_fit.operators == {}
    assert result.bias_fit.references == {}
    assert result.bias_fit.skipped_pairs == []
    assert result.report.bias_fit_notes == {
        f"{strategy}:{scope}": {"skipped_genre_pairs": [], "degenerate_fits": expected}
    }


def test_multi_direction_failure_counts_degenerate_and_small_pairs(tmp_path):
    entries, gm_path = write_twin_corpus(tmp_path)
    config = corpus_config(entries, gm_path, "mLDA", **FAST)
    with pytest.raises(PipelineError) as excinfo:
        run_strategy(config)
    assert (
        "no genre pair gave a direction (class=None): "
        "2 degenerate, 0 below 5 training rows a side"
    ) in str(excinfo.value)


def record_directions(monkeypatch) -> list:
    """Every direction the pipeline's ``fit_lda_direction`` returns, in order."""
    original = pipeline.fit_lda_direction
    fitted = []

    def recording(*args, **kwargs):
        direction = original(*args, **kwargs)
        fitted.append(direction)
        return direction

    monkeypatch.setattr(pipeline, "fit_lda_direction", recording)
    return fitted


def test_skipped_genre_pairs_follow_the_target_order(small_corpus, monkeypatch):
    """Per key, in key order, each genre target in the map's order: "unknown"
    is never fitted nor noted; a target with too few rows on either side is
    noted with both counts; the rest are fitted."""
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "mLDA", scope="classwise", min_genre_samples=10)
    domain_a, domain_b, _, _, guard = load_domains(config)
    guard.enter(PHASE_BIAS)
    genre1_b = [i for i in domain_b.train_indices.tolist() if domain_b.genres[i] == "genre1"]
    trimmed_b = np.setdiff1d(domain_b.train_indices, genre1_b[4:])
    seed = derive_seed(derive_run_seeds(config.seed)["sampling"], f"subsample:class1:{POS}")
    pools = {
        None: (domain_a.train_indices, trimmed_b),
        "class1": balanced_subsample(domain_a.manifest, domain_b.manifest, "class1", POS, seed),
    }
    targets = GenreMap(("genre1", "unknown", "genre7", "genre0"))
    fitted = record_directions(monkeypatch)
    fit = fit_bias(config, domain_a, domain_b, targets, pools)
    assert fit.skipped_pairs == [
        {"genre": "genre1", "class": None, "n_a": 66, "n_b": 4},
        {"genre": "genre7", "class": None, "n_a": 0, "n_b": 0},
        {"genre": "genre7", "class": "class1", "n_a": 0, "n_b": 0},
    ]
    assert fit.degenerate == []
    assert [(d.class_name, d.genre) for d in fitted] == [
        (None, "genre0"),
        ("class1", "genre1"),
        ("class1", "genre0"),
    ]
    assert [(d.n_a, d.n_b) for d in fitted[1:]] == [(22, 22)] * 2
    assert [fit.operators[key].basis.shape[1] for key in (None, "class1")] == [1, 2]


# --- strategies beyond the baseline ----------------------------------------


def test_classwise_run_fits_an_operator_per_class(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "LDA", scope="classwise", **FAST)
    result = run_strategy(config)
    assert set(result.bias_fit.operators) == {"class0", "class1", "class2"}
    assert set(result.bias_fit.references) == {"class0", "class1", "class2"}
    for reference in result.bias_fit.references.values():
        assert reference.shape == (SMALL_SPEC.dim,)
        assert np.isclose(np.linalg.norm(reference), 1.0)
    assert len(result.report.cells) == 4
    assert all(c.scope == "classwise" for c in result.report.cells)
    assert result.audit["clean"] is True


def test_multi_direction_global_run_uses_a_genre_subspace(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "mLDA", scope="global", **FAST)
    result = run_strategy(config)
    basis = result.bias_fit.references[None]
    assert basis.ndim == 2
    assert basis.shape[0] == SMALL_SPEC.dim
    assert 1 <= basis.shape[1] <= SMALL_SPEC.n_genres
    gram = basis.T @ basis
    assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-10)
    # Subspace correlations are component norms, hence non-negative.
    for entry in result.report.correlations:
        assert all(v >= 0.0 for v in entry.class_corr.values())


@pytest.mark.parametrize("scope", ["global", "classwise"])
def test_no_genre_map_reads_each_observed_genre_as_its_own_target(small_corpus, scope):
    # The synth's genres.json lists exactly the genres its records carry, so
    # leaving the map out must change nothing a multi-direction run reports.
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "mLDA", scope=scope, **FAST)
    without = replace(config, genre_map=None)
    assert load_domains(without)[3] == load_domains(config)[3] == GenreMap(("genre0", "genre1"))
    with_map = run_strategy(config).report
    without_map = run_strategy(without).report
    assert without_map.cells == with_map.cells
    assert without_map.correlations == with_map.correlations
    assert without_map.bias_fit_notes == with_map.bias_fit_notes


def test_kernel_strategy_reports_kernelized_space(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "K", dprime_factor=2, **FAST)
    result = run_strategy(config)
    assert result.bias_fit.operators == {}
    # Diagnostic direction lives in the expanded feature space.
    assert result.bias_fit.references[None].shape == (2 * SMALL_SPEC.dim,)
    for entry in result.report.correlations:
        assert entry.space == "kernelized"
    assert result.audit["clean"] is True


def test_kernel_debias_changes_little_without_planted_bias(tmp_path):
    spec = SynthSpec(
        dim=12,
        n_classes=2,
        n_genres=2,
        samples_per_cell=40,
        seed=4242,
        bias=(),
    )
    entries, _, gm_path = write_corpus(tmp_path, spec)
    config_k = corpus_config(entries, gm_path, "K", dprime_factor=2, **FAST)
    config_klda = corpus_config(entries, gm_path, "KLDA", dprime_factor=2, **FAST)
    report_k = run_strategy(config_k).report
    report_klda = run_strategy(config_klda).report
    by_pair_k = {(c.train, c.test): c.mean_auc for c in report_k.cells}
    by_pair_klda = {(c.train, c.test): c.mean_auc for c in report_klda.cells}
    assert set(by_pair_k) == set(by_pair_klda)
    for pair, auc_k in by_pair_k.items():
        assert abs(auc_k - by_pair_klda[pair]) <= 0.05, pair


# One spec per failure site: every clip of one class and genre, so each site's
# counts are fixed by samples_per_cell and test_fraction.
SITE_SPEC = SynthSpec(dim=8, n_classes=2, n_genres=1, samples_per_cell=20, seed=7, bias=())


def failing_roc_auc(scores, labels):
    raise SingleClassError("planted scoring failure")


@pytest.mark.parametrize(
    "spec, strategy, scope, overrides, cell, message",
    [
        # Every class predominant-only means no negative examples exist anywhere.
        (
            SynthSpec(
                dim=8,
                n_classes=2,
                n_genres=1,
                samples_per_cell=20,
                seed=7,
                bias=(),
                genre_mix=((1.0,), (1.0,)),
                predominant_only_classes=(0, 1),
            ),
            "none",
            "global",
            {},
            None,
            "no train records with label 'neg' for class 'class0' on side a"
            " [strategy=none, scope=global, class=class0]",
        ),
        # Every clip held out: the first class's positive draw finds no
        # training record, before any bias fit.
        (
            SynthSpec(
                dim=8, n_classes=2, n_genres=1, samples_per_cell=1, test_fraction=0.9, seed=7, bias=()
            ),
            "LDA",
            "classwise",
            {},
            None,
            "no train records with label 'pos' for class 'class0' on side a"
            " [strategy=LDA, scope=classwise, class=class0]",
        ),
        # No clip held out: the first held-out set gathered, synthA's for the
        # first class, is empty; the error names that set, not a training set.
        (
            replace(SITE_SPEC, test_fraction=0.0),
            "none",
            "global",
            {},
            "test:synthA",
            "dataset 'synthA' has no labeled held-out rows for class 'class0'"
            " [strategy=none, scope=global, class=class0, cell=test:synthA]",
        ),
        # The feature map: a width whose scatter passes the bound, refused
        # before any draw; no class or cell is involved yet.
        (
            SITE_SPEC,
            "K",
            "global",
            {"dprime_factor": 1449},
            None,
            "11592 random features over 60 training rows exceed 134217728 values in the"
            " scatter or the feature rows; lower dprime_factor [strategy=K, scope=global]",
        ),
        # The bias fit: no genre has enough training rows for a direction.
        (
            SITE_SPEC,
            "mLDA",
            "global",
            {"min_genre_samples": 100},
            None,
            "no genre pair gave a direction (class=None): 0 degenerate, 1 below 100"
            " training rows a side [strategy=mLDA, scope=global]",
        ),
        # Training: a class with fewer training positives than folds.
        (
            SITE_SPEC,
            "none",
            "global",
            {"cv_folds": 20},
            "train:synthA",
            "cannot build 20 stratified folds from 15 positives and 15 negatives"
            " [strategy=none, scope=global, class=class0, cell=train:synthA]",
        ),
        # Scoring: the first model scored, synthA's on synthA's held-out rows.
        (
            SITE_SPEC,
            "none",
            "global",
            {"roc_auc": failing_roc_auc},
            "synthA->synthA",
            "planted scoring failure [strategy=none, scope=global, class=class0, cell=synthA->synthA]",
        ),
    ],
    ids=[
        "no-negatives",
        "no-training-clips",
        "no-held-out-clips",
        "feature-map",
        "bias-fit",
        "train",
        "scoring",
    ],
)
def test_pipeline_errors_carry_run_context(
    tmp_path, monkeypatch, spec, strategy, scope, overrides, cell, message
):
    overrides = dict(overrides)
    if "roc_auc" in overrides:
        monkeypatch.setattr(pipeline, "roc_auc", overrides.pop("roc_auc"))
    entries, _, gm_path = write_corpus(tmp_path, spec)
    config = corpus_config(entries, gm_path, strategy, scope=scope, **{**FAST, **overrides})
    with pytest.raises(PipelineError) as excinfo:
        run_strategy(config)
    text = str(excinfo.value)
    assert text == message
    assert f" [strategy={strategy}, scope={scope}" in text
    assert text.endswith(f", cell={cell}]" if cell else "]")


@pytest.mark.parametrize("failing_call", [1, 3], ids=["training-rows", "held-out-rows"])
def test_feature_row_failures_carry_run_context(small_corpus, monkeypatch, failing_call):
    """The random-feature map runs on each domain's training rows, then on
    each domain's held-out rows; a failure in either names the job."""
    entries, _, gm_path = small_corpus
    original = pipeline.transform_rff
    calls = []

    def failing(kernel_map, x):
        calls.append(x.shape)
        if len(calls) == failing_call:
            raise NonFiniteError("planted feature failure")
        return original(kernel_map, x)

    monkeypatch.setattr(pipeline, "transform_rff", failing)
    with pytest.raises(PipelineError) as excinfo:
        run_strategy(corpus_config(entries, gm_path, "K", **FAST))
    assert str(excinfo.value) == "planted feature failure [strategy=K, scope=global]"


def test_classwise_fit_uses_the_draws_its_classifiers_train_on(small_corpus, monkeypatch):
    entries, _, gm_path = small_corpus
    original = pipeline.balanced_subsample
    drawn = []

    def recording(manifest_a, manifest_b, class_name, state, seed):
        pools = original(manifest_a, manifest_b, class_name, state, seed)
        drawn.append((class_name, state, pools))
        return pools

    monkeypatch.setattr(pipeline, "balanced_subsample", recording)
    fitted = record_directions(monkeypatch)
    run_strategy(corpus_config(entries, gm_path, "LDA", scope="classwise", **FAST))
    # One positive and one negative draw per class, and one direction per
    # class fitted on its positives.
    assert len(drawn) == 6
    positives = {c: (len(a), len(b)) for c, state, (a, b) in drawn if state == POS}
    assert {d.class_name: (d.n_a, d.n_b) for d in fitted} == positives
    assert len(fitted) == len(positives)


@pytest.mark.parametrize("strategy", ["LDA", "KLDA"])
def test_held_out_index_in_a_training_pool_is_refused(small_corpus, monkeypatch, strategy):
    entries, _, gm_path = small_corpus
    original = pipeline.balanced_subsample

    def leaky(manifest_a, manifest_b, class_name, state, seed):
        idx_a, idx_b = original(manifest_a, manifest_b, class_name, state, seed)
        held_out = next(i for i, split in enumerate(manifest_a.splits) if split == TEST)
        return np.append(idx_a, held_out), idx_b

    monkeypatch.setattr(pipeline, "balanced_subsample", leaky)
    with pytest.raises(PipelineError) as excinfo:
        run_strategy(corpus_config(entries, gm_path, strategy, **FAST))
    assert isinstance(excinfo.value.__cause__, LeakageError)


def test_built_feature_rows_serve_only_their_own_indices(small_corpus):
    entries, _, gm_path = small_corpus
    domain, _, _, _, guard = load_domains(corpus_config(entries, gm_path, "K"))
    guard.enter(PHASE_EVALUATE)
    held_out = domain.test_indices
    # Below, between and above the built indices.
    above = domain.train_indices[-1:]
    assert above[0] > held_out.max()
    between = np.setdiff1d(np.arange(held_out[0], held_out[-1]), held_out)
    # Built in ascending order or shuffled, the rows are served in any read order.
    for built in (held_out, np.random.default_rng(5).permutation(held_out)):
        domain.build_features(built, lambda raw: 2.0 * raw)
        for picked in (built, built[::-2], held_out, held_out[::-2]):
            assert_array_equal(domain.rows(picked), 2.0 * domain.table.vectors[picked])
        for picked in (domain.train_indices[:1], between[:1], above):
            with pytest.raises(LeakageError, match="not among the built feature rows"):
                domain.rows(picked)


@pytest.mark.filterwarnings("error")
def test_stock_klda_classwise_job_fits_all_converge(tmp_path, monkeypatch):
    """On the stock corpus, a class-wise KLDA job at the four smallest C
    values. At this seed one warm-started CV fit, on a 900 x 256 fold at
    C = 1e-5, had a full step whose Armijo decrease the loss could not
    resolve; judged by the loss, the line search gave up on it and left
    the fit stalled above its gradient tolerance."""
    entries, _, gm_path = write_corpus(tmp_path, default_spec())
    config = corpus_config(
        entries,
        gm_path,
        "KLDA",
        scope="classwise",
        seed=4092178733601228524,
        c_grid=(1e-8, 1e-7, 1e-6, 1e-5),
    )
    fits = []

    def recording(x, y, c_value, **kwargs):
        model = train_logreg(x, y, c_value, **kwargs)
        fits.append((c_value, model))
        return model

    monkeypatch.setattr(logreg, "train_logreg", recording)
    monkeypatch.setattr(pipeline, "train_logreg", recording)
    run_strategy(config)
    # 4 classes x 2 domains x (5 folds x 4 C + 1 final fit).
    assert len(fits) == 168
    assert [c for c, f in fits if not f.converged] == []


@pytest.mark.parametrize("strategy, scope", [("LDA", "classwise"), ("KLDA", "global")])
def test_a_one_value_grid_trains_at_its_c_without_cross_validation(
    small_corpus, monkeypatch, strategy, scope
):
    """A one-value grid is the selected C: the run makes no CV fits, and it
    reports what selecting between two equal grid values reports."""
    entries, _, gm_path = small_corpus
    selected, cv_fits, final_cs = [], [], []

    def selecting(*args, **kwargs):
        c_value, curve = cv_select_c(*args, **kwargs)
        selected.append(c_value)
        return c_value, curve

    def cv_fitting(*args, **kwargs):
        cv_fits.append(args[2])
        return train_logreg(*args, **kwargs)

    def final_fitting(x, y, c_value):
        final_cs.append(c_value)
        return train_logreg(x, y, c_value)

    monkeypatch.setattr(pipeline, "cv_select_c", selecting)
    monkeypatch.setattr(logreg, "train_logreg", cv_fitting)
    monkeypatch.setattr(pipeline, "train_logreg", final_fitting)
    one = run_strategy(
        corpus_config(entries, gm_path, strategy, scope=scope, c_grid=(1.0,), cv_folds=3)
    )
    assert (selected, cv_fits) == ([], [])
    # 3 classes x 2 training domains, each trained once at the grid's C.
    assert final_cs == [1.0] * 6

    final_cs.clear()
    two = run_strategy(
        corpus_config(entries, gm_path, strategy, scope=scope, c_grid=(1.0, 1.0), cv_folds=3)
    )
    assert selected == [1.0] * 6
    assert cv_fits == [1.0] * (6 * 3 * 2)  # 3 folds x 2 grid values per selection
    assert final_cs == [1.0] * 6
    assert one.report.cells == two.report.cells
    assert one.report.correlations == two.report.correlations
    assert one.report.bias_fit_notes == two.report.bias_fit_notes


# --- the matrix ------------------------------------------------------------


def test_matrix_jobs_start_with_baseline_and_deduplicate():
    assert _matrix_jobs(["none", "LDA"], ["global"]) == [
        ("none", "global"),
        ("LDA", "global"),
    ]
    # Scope-free strategies collapse to one job regardless of requested scopes.
    assert _matrix_jobs(["K"], ["global", "classwise"]) == [
        ("none", "global"),
        ("K", "global"),
    ]
    assert _matrix_jobs(["LDA"], ["global", "classwise"]) == [
        ("none", "global"),
        ("LDA", "global"),
        ("LDA", "classwise"),
    ]
    with pytest.raises(ValidationError, match="unknown strategy"):
        _matrix_jobs(["LSA"], ["global"])
    with pytest.raises(ValidationError, match="unknown scope"):
        _matrix_jobs(["LDA"], ["cluster"])


def test_matrix_runs_baseline_plus_requested_and_writes_outputs(small_corpus, tmp_path):
    entries, _, gm_path = small_corpus
    out_dir = tmp_path / "results"
    config = corpus_config(entries, gm_path, "none", output_dir=str(out_dir), **FAST)
    result = run_matrix(config, ["LDA"], ["global"])
    assert result.jobs == (("none", "global"), ("LDA", "global"))
    assert len(result.combined.cells) == 8
    assert result.combined.config["strategy"] is None
    assert result.combined.config["matrix_strategies"] == ["LDA"]
    assert result.combined.seeds == {"master": config.seed}
    assert result.combined.fingerprint == config_fingerprint(
        result.combined.config, {"master": config.seed}
    )
    assert set(result.combined.bias_fit_notes) == set(result.audits) == {
        "none:global",
        "LDA:global",
    }
    # Every job runs at the base config's seed: its config is the base config
    # at the job's strategy and scope, and every job records the same seeds.
    # A job's fingerprint covers its config and seeds, and none of its outcome.
    for (strategy, scope), report in result.reports.items():
        job = replace(config, strategy=strategy, scope=scope).to_dict()
        assert report.config == job
        assert report.seeds == derive_run_seeds(config.seed)
        assert report.fingerprint == config_fingerprint(job, derive_run_seeds(config.seed))
    for name in (
        "report_none_global.json",
        "report_LDA_global.json",
        "report.json",
        "table1.txt",
        "table1.csv",
        "audit.json",
    ):
        assert (out_dir / name).exists(), name
    audit = json.loads((out_dir / "audit.json").read_text())
    assert audit["clean"] is True
    assert set(audit["runs"]) == {"none:global", "LDA:global"}
    assert "none" in result.rendered.text and "LDA" in result.rendered.text


def test_matrix_is_deterministic_on_disk(small_corpus, tmp_path):
    entries, _, gm_path = small_corpus
    outputs = []
    for run_dir in ("first", "second"):
        out_dir = tmp_path / run_dir
        config = corpus_config(entries, gm_path, "none", output_dir=str(out_dir), **FAST)
        run_matrix(config, ["LDA"], ["global"])
        outputs.append(
            (
                (out_dir / "table1.csv").read_bytes(),
                (out_dir / "report.json").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_matrix_failure_writes_partial_results_manifest(small_corpus, tmp_path):
    entries, _, gm_path = small_corpus
    out_dir = tmp_path / "partial"
    config = corpus_config(
        entries,
        gm_path,
        "none",
        output_dir=str(out_dir),
        min_genre_samples=10**6,  # every genre pair gets skipped
        **FAST,
    )
    with pytest.raises(PipelineError):
        run_matrix(config, ["mLDA"], ["global"])
    manifest = json.loads((out_dir / "partial_results.json").read_text())
    assert manifest["completed"] == [["none", "global"]]
    assert manifest["failed"]["strategy"] == "mLDA"
    assert manifest["failed"]["scope"] == "global"
    assert manifest["failed"]["error"]
    assert manifest["pending"] == []
    assert (out_dir / "report_none_global.json").exists()
    assert not (out_dir / "report.json").exists()


def test_matrix_over_a_corpus_that_fails_to_load_writes_no_manifest(tmp_path):
    # A corpus that fails to load is no job's failure: its error is raised
    # before any job runs, and no partial-results manifest names a job.
    entries, _, gm_path = write_corpus(tmp_path / "corpus", SMALL_SPEC)
    manifest_path = Path(entries[0].manifest)
    lines = manifest_path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "split": "bogus"})
    manifest_path.write_text("".join(line + "\n" for line in lines))
    out_dir = tmp_path / "unloadable"
    config = corpus_config(entries, gm_path, "none", output_dir=str(out_dir), **FAST)
    with pytest.raises(ValidationError, match="bogus"):
        run_matrix(config, ["LDA"], ["global"])
    assert not (out_dir / "partial_results.json").exists()


def test_matrix_loads_the_corpus_once_and_guards_each_run_afresh(
    small_corpus, tmp_path, monkeypatch
):
    entries, _, gm_path = small_corpus
    loaded = []
    original = pipeline.load_embeddings

    def counting_load(path, fmt):
        loaded.append(path)
        return original(path, fmt)

    monkeypatch.setattr(pipeline, "load_embeddings", counting_load)
    config = corpus_config(entries, gm_path, "none", **FAST)
    result = run_matrix(config, ["LDA", "KLDA"], ["global", "classwise"])
    assert sorted(loaded) == sorted(e.embeddings for e in entries)
    assert len(result.jobs) == 5
    for strategy, scope in result.jobs:
        alone = run_strategy(replace(config, strategy=strategy, scope=scope))
        assert result.audits[f"{strategy}:{scope}"] == alone.audit
        assert result.reports[(strategy, scope)] == alone.report


def test_matrix_jobs_share_subsamples_folds_and_the_feature_map(small_corpus, monkeypatch):
    """Every job of a matrix runs at the config's seed, so a delta compares
    models trained on the same draws: every job takes the same balanced
    subsamples and CV fold seeds, the kernel jobs share one random-feature
    map and its feature rows, and each baseline's diagnostic direction is
    the one its projecting counterpart removes."""
    entries, _, gm_path = small_corpus
    # What each recorded function was called with or returned, per job.
    kept = {
        "balanced_subsample": lambda args, out: (args[2:], out[0].tobytes(), out[1].tobytes()),
        "cv_select_c": lambda args, out: args[2:],
        "fit_rff": lambda args, out: (out.frequencies.tobytes(), out.phases.tobytes(), out.gamma),
        "transform_rff": lambda args, out: out.tobytes(),
        "fit_bias": lambda args, out: out,
    }
    drawn: dict[tuple[str, str], dict[str, list]] = {}
    job = []

    def tracking(config, **kwargs):
        job[:] = [(config.strategy, config.scope)]
        drawn[job[0]] = {name: [] for name in kept}
        return run_strategy(config, **kwargs)

    def recording(name, original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            drawn[job[0]][name].append(kept[name](args, out))
            return out

        return wrapper

    monkeypatch.setattr(pipeline, "run_strategy", tracking)
    for name in kept:
        monkeypatch.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
    config = corpus_config(entries, gm_path, "none", **FAST)
    result = run_matrix(config, ["LDA", "mLDA", "K", "KLDA", "mKLDA"], ["global", "classwise"])
    assert list(drawn) == list(result.jobs) and len(drawn) == 10

    baseline = drawn[("none", "global")]
    # 3 classes x (positives, negatives); 3 classes x 2 training datasets.
    assert len(baseline["balanced_subsample"]) == 6 and len(baseline["cv_select_c"]) == 6
    for draws in drawn.values():
        assert draws["balanced_subsample"] == baseline["balanced_subsample"]
        assert draws["cv_select_c"] == baseline["cv_select_c"]
    kernel_jobs = [j for j in result.jobs if pipeline.STRATEGIES[j[0]].kernelized]
    assert len(kernel_jobs) == 5
    k_draws = drawn[("K", "global")]
    # One map; each dataset's training rows, then its held-out rows.
    assert len(k_draws["fit_rff"]) == 1 and len(k_draws["transform_rff"]) == 4
    for kernel_job in kernel_jobs:
        assert drawn[kernel_job]["fit_rff"] == k_draws["fit_rff"]
        assert drawn[kernel_job]["transform_rff"] == k_draws["transform_rff"]
    for reference_job, removing_job in (
        (("none", "global"), ("LDA", "global")),
        (("K", "global"), ("KLDA", "global")),
    ):
        (reference,) = drawn[reference_job]["fit_bias"]
        (removed,) = drawn[removing_job]["fit_bias"]
        assert reference.global_reference.tobytes() == removed.global_reference.tobytes()


def test_stock_classwise_multi_direction_rows_equal_single_direction_rows(tmp_path):
    """On the stock corpus each class's positives sit in one genre, so a
    class-wise multi-direction fit skips the other genre pair and removes
    the same single direction as the single-direction fit. With every job at
    the config's seed, class-wise mLDA and mKLDA give exactly the per-class
    AUCs of class-wise LDA and KLDA."""
    entries, _, gm_path = write_corpus(tmp_path, default_spec())
    config = corpus_config(entries, gm_path, "none", seed=20240901, c_grid=(1.0,))
    result = run_matrix(config, ["LDA", "mLDA", "KLDA", "mKLDA"], ["classwise"])

    def class_aucs(strategy):
        cells = result.reports[(strategy, "classwise")].cells
        return {(c.train, c.test): c.class_auc for c in cells}

    for single, multi in (("LDA", "mLDA"), ("KLDA", "mKLDA")):
        assert len(class_aucs(multi)) == 4
        assert class_aucs(multi) == class_aucs(single)


def _align_seconds(n_clips):
    ids = [f"clip{i:06d}" for i in range(n_clips)]
    table = EmbeddingTable(ids, np.zeros(n_clips), np.zeros((n_clips, 1)))
    n = len(ids)
    manifest = Manifest(ids[::-1], ["d"] * n, [TRAIN] * n, [()] * n, {})
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        aligned = _align("d", table, manifest, ())
        best = min(best, time.perf_counter() - start)
    assert aligned.clip_ids.tolist() == ids
    return best


def test_align_is_linear_in_the_clip_count():
    # 8x the clips: about 8x the time when linear, 64x when quadratic.
    ratio = _align_seconds(16_000) / _align_seconds(2_000)
    assert ratio < 24, ratio


def test_matrix_rejects_empty_request(small_corpus):
    entries, _, gm_path = small_corpus
    config = corpus_config(entries, gm_path, "none", **FAST)
    with pytest.raises(ValidationError, match="non-empty"):
        run_matrix(config, [], ["global"])
