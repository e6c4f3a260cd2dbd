"""Synthetic two-domain corpora: planted geometry, determinism, designed failure modes."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from debiaskit.bias import fit_lda_direction
from debiaskit.data import (
    NEG,
    POS,
    TEST,
    TRAIN,
    UNK,
    load_embeddings,
    reduce_genres,
    save_embeddings,
)
from debiaskit.errors import InfeasibleSpecError, ValidationError
from debiaskit.pipeline import run_strategy
from debiaskit.synth import (
    MAX_CLIPS,
    MAX_VALUES,
    BiasSpec,
    SynthSpec,
    default_spec,
    generate_biased_corpus,
    save_ground_truth,
    spec_from_dict,
    synth_genre_map,
)
from conftest import corpus_config, write_corpus


def genre_split_counts(manifest, klass):
    """Clips per (genre index, split) among those whose one "pos" label is
    class ``klass``."""
    counts = {}
    positive = manifest.labels[f"class{klass}"] == POS
    for (genre,), split in zip(manifest.genres[positive], manifest.splits[positive]):
        key = (int(genre.removeprefix("genre")), str(split))
        counts[key] = counts.get(key, 0) + 1
    return counts


# --- allocation and splits ------------------------------------------------


def test_uniform_mix_fills_every_cell():
    spec = SynthSpec(dim=12, n_classes=2, n_genres=3, samples_per_cell=10, seed=1)
    _, manifests, _ = generate_biased_corpus(spec)
    for domain in spec.domain_names:
        for k in range(2):
            counts = genre_split_counts(manifests[domain], k)
            for g in range(3):
                total = counts.get((g, TRAIN), 0) + counts.get((g, TEST), 0)
                assert total == 10


def test_weighted_mix_redistributes_class_total():
    spec = SynthSpec(
        dim=12,
        n_classes=1,
        n_genres=3,
        samples_per_cell=10,
        seed=2,
        genre_mix=((1.0, 1.0, 2.0),),
    )
    _, manifests, _ = generate_biased_corpus(spec)
    counts = genre_split_counts(manifests[spec.domain_names[0]], 0)
    totals = [
        counts.get((g, TRAIN), 0) + counts.get((g, TEST), 0) for g in range(3)
    ]
    # Largest-remainder split of 30 by (1, 1, 2): 7.5 / 7.5 / 15 with the
    # leftover unit going to the earliest tied genre.
    assert totals == [8, 7, 15]


def test_test_fraction_rounding_per_cell():
    spec = SynthSpec(
        dim=12, n_classes=2, n_genres=2, samples_per_cell=40, test_fraction=0.25, seed=3
    )
    _, manifests, _ = generate_biased_corpus(spec)
    for domain in spec.domain_names:
        for k in range(2):
            counts = genre_split_counts(manifests[domain], k)
            for g in range(2):
                assert counts.get((g, TEST), 0) == 10
                assert counts.get((g, TRAIN), 0) == 30


def test_zero_test_fraction_gives_no_held_out_rows():
    spec = SynthSpec(
        dim=12, n_classes=1, n_genres=1, samples_per_cell=20, test_fraction=0.0, seed=4
    )
    _, manifests, _ = generate_biased_corpus(spec)
    for manifest in manifests.values():
        assert manifest.splits.tolist() == [TRAIN] * 20


def test_distinct_genre_mix_per_domain():
    spec = SynthSpec(
        dim=12,
        n_classes=2,
        n_genres=2,
        samples_per_cell=10,
        seed=5,
        genre_mix=((1.0, 0.0), (0.5, 0.5)),
        genre_mix_b=((0.0, 1.0), (0.5, 0.5)),
    )
    _, manifests, _ = generate_biased_corpus(spec)
    first, second = spec.domain_names
    counts_a = genre_split_counts(manifests[first], 0)
    counts_b = genre_split_counts(manifests[second], 0)
    assert sum(n for (g, _), n in counts_a.items() if g == 0) == 20
    assert sum(n for (g, _), n in counts_a.items() if g == 1) == 0
    assert sum(n for (g, _), n in counts_b.items() if g == 0) == 0
    assert sum(n for (g, _), n in counts_b.items() if g == 1) == 20


# --- determinism ----------------------------------------------------------


def test_same_seed_byte_identical_files(tmp_path):
    spec = SynthSpec(dim=10, n_classes=2, n_genres=2, samples_per_cell=8, seed=42)
    for sub in ("one", "two"):
        directory = tmp_path / sub
        write_corpus(directory, spec)
        _, _, truth = generate_biased_corpus(spec)
        save_ground_truth(truth, str(directory / "truth.json"))
    for name in [
        f"{spec.domain_names[0]}.csv",
        f"{spec.domain_names[1]}.csv",
        f"{spec.domain_names[0]}.jsonl",
        f"{spec.domain_names[1]}.jsonl",
        "genres.json",
        "truth.json",
    ]:
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


def test_different_seed_different_vectors():
    spec = SynthSpec(dim=10, n_classes=2, n_genres=1, samples_per_cell=8, seed=42)
    tables_a, _, _ = generate_biased_corpus(spec)
    tables_b, _, _ = generate_biased_corpus(
        SynthSpec(dim=10, n_classes=2, n_genres=1, samples_per_cell=8, seed=43)
    )
    name = spec.domain_names[0]
    assert not np.array_equal(tables_a[name].vectors, tables_b[name].vectors)


# --- planted geometry -----------------------------------------------------


def test_class_directions_orthogonal_to_bias_span():
    spec = SynthSpec(
        dim=24,
        n_classes=3,
        n_genres=2,
        samples_per_cell=5,
        seed=6,
        bias=(BiasSpec("global", 3.0, 0), BiasSpec("genre1", 2.0, 1)),
    )
    _, _, truth = generate_biased_corpus(spec)
    cross = truth.class_directions @ truth.bias_directions.T
    assert np.abs(cross).max() <= 1e-10
    for row in truth.class_directions:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
    assert truth.bias_span().shape == (24, 2)


def test_cell_means_match_planted_construction():
    spec = SynthSpec(
        dim=12,
        n_classes=2,
        n_genres=2,
        samples_per_cell=50,
        seed=7,
        noise_sigma=1e-3,
        bias=(BiasSpec("global", 3.0, 0), BiasSpec("genre1", 2.0, 1)),
    )
    tables, manifests, truth = generate_biased_corpus(spec)
    b0, b1 = truth.bias_directions
    for domain, sign in zip(spec.domain_names, (1.0, -1.0)):
        table, manifest = tables[domain], manifests[domain]
        assert table.clip_ids == tuple(manifest.clip_ids)
        for k in range(2):
            for g in range(2):
                members = np.flatnonzero(
                    (manifest.labels[f"class{k}"] == POS)
                    & np.array([genres == (f"genre{g}",) for genres in manifest.genres])
                )
                assert members.size == 50
                expected = 2.0 * truth.class_directions[k] + sign * 1.5 * b0
                if g == 1:
                    expected = expected + sign * 1.0 * b1
                observed = table.vectors[members].mean(axis=0)
                np.testing.assert_allclose(observed, expected, atol=1e-3)


def test_predominant_only_class_hides_other_labels():
    spec = SynthSpec(
        dim=12,
        n_classes=2,
        n_genres=1,
        samples_per_cell=6,
        seed=8,
        predominant_only_classes=(1,),
    )
    _, manifests, _ = generate_biased_corpus(spec)
    for manifest in manifests.values():
        for class0, class1 in zip(manifest.labels["class0"], manifest.labels["class1"]):
            if class1 == POS:
                assert class0 == UNK
            else:
                assert class0 == POS
                assert class1 == NEG


def test_each_clip_has_one_pos_label_the_class_in_its_id():
    spec = SynthSpec(
        dim=12,
        n_classes=3,
        n_genres=2,
        samples_per_cell=5,
        seed=10,
        genre_mix=((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
        predominant_only_classes=(2,),
    )
    _, manifests, _ = generate_biased_corpus(spec)
    for manifest in manifests.values():
        states = np.column_stack([manifest.labels[name] for name in spec.class_names()])
        assert ((states == POS).sum(axis=1) == 1).all()
        for clip_id, row in zip(manifest.clip_ids, states):
            k = int(clip_id.split("-")[1].removeprefix("k"))
            assert row[k] == POS


def test_identity_genre_map():
    spec = SynthSpec(dim=12, n_classes=2, n_genres=3, samples_per_cell=4, seed=9)
    genre_map = synth_genre_map(spec)
    assert genre_map.targets == ("genre0", "genre1", "genre2")
    assert genre_map.rules == {}
    assert reduce_genres(("genre2",), genre_map) == "genre2"


# --- bias recovery and its absence ----------------------------------------


def test_zero_bias_leaves_domains_indistinguishable():
    spec = SynthSpec(
        dim=16, n_classes=2, n_genres=1, samples_per_cell=1000, seed=10, bias=()
    )
    tables, _, truth = generate_biased_corpus(spec)
    first, second = spec.domain_names
    x_a, x_b = tables[first].vectors, tables[second].vectors
    assert x_a.shape[0] == 2000
    assert truth.bias_span().shape == (16, 0)
    # With nothing planted the domain means differ by sampling noise alone:
    # sigma * sqrt(2 / n) on each coordinate, about sigma * sqrt(2 D / n) in norm.
    noise = spec.noise_sigma * np.sqrt(2.0 * spec.dim / x_a.shape[0])
    assert np.linalg.norm(x_a.mean(axis=0) - x_b.mean(axis=0)) < 2.0 * noise


def test_strong_bias_direction_recovered():
    spec = SynthSpec(
        dim=64,
        n_classes=2,
        n_genres=1,
        samples_per_cell=250,
        seed=11,
        bias=(BiasSpec("global", 6.0, 0),),
    )
    tables, _, truth = generate_biased_corpus(spec)
    first, second = spec.domain_names
    assert tables[first].vectors.shape[0] == 500
    fitted = fit_lda_direction(tables[first].vectors, tables[second].vectors)
    cosine = abs(float(fitted.vector @ truth.bias_directions[0]))
    assert cosine >= 0.95


def test_probe_collapses_after_projecting_true_directions():
    """The gap between the domain means lies along the planted direction, and
    projecting out ``truth.bias_span()`` leaves only sampling noise of it."""
    spec = SynthSpec(
        dim=32,
        n_classes=2,
        n_genres=2,
        samples_per_cell=250,
        seed=12,
        bias=(BiasSpec("global", 3.0, 0),),
    )
    tables, _, truth = generate_biased_corpus(spec)
    first, second = spec.domain_names
    x_a, x_b = tables[first].vectors, tables[second].vectors
    noise = spec.noise_sigma * np.sqrt(2.0 * spec.dim / x_a.shape[0])
    span = truth.bias_span()
    gap = x_a.mean(axis=0) - x_b.mean(axis=0)
    # The planted offset is +m/2 in the first domain and -m/2 in the second.
    assert float(span[:, 0] @ gap) == pytest.approx(3.0, abs=noise)
    projector = np.eye(32) - span @ span.T
    pa, pb = x_a @ projector, x_b @ projector
    assert np.linalg.norm(pa.mean(axis=0) - pb.mean(axis=0)) < 2.0 * noise


# --- end-to-end invariants on generated corpora ---------------------------


def test_ideal_debias_closes_transfer_gap(tmp_path):
    spec = default_spec()
    entries, truth, gm_path = write_corpus(tmp_path / "raw", spec)

    projected_dir = tmp_path / "projected"
    projected_dir.mkdir()
    span = truth.bias_span()
    projector = np.eye(spec.dim) - span @ span.T
    projected_entries = []
    for entry in entries:
        table = load_embeddings(entry.embeddings)
        cleaned = type(table)(table.clip_ids, table.frames, table.vectors @ projector)
        emb = projected_dir / Path(entry.embeddings).name
        save_embeddings(cleaned, str(emb), "csv")
        projected_entries.append(type(entry)(entry.name, str(emb), entry.manifest))

    kwargs = {"c_grid": (0.01, 1.0, 100.0), "cv_folds": 3, "seed": 20240901}

    def gap_and_within(run_entries):
        cfg = corpus_config(tuple(run_entries), gm_path, "none", **kwargs)
        report = run_strategy(cfg).report
        first, second = report.datasets
        within = (
            report.cell(first, first, "none", "global").mean_auc
            + report.cell(second, second, "none", "global").mean_auc
        ) / 2
        cross = (
            report.cell(first, second, "none", "global").mean_auc
            + report.cell(second, first, "none", "global").mean_auc
        ) / 2
        return within - cross, within

    gap_raw, within_raw = gap_and_within(entries)
    gap_clean, within_clean = gap_and_within(projected_entries)
    assert gap_raw >= 0.10  # the planted corpus starts meaningfully degraded
    assert gap_clean <= 0.5 * gap_raw
    assert abs(within_clean - within_raw) <= 0.02


def test_genre_shifted_class_dominates_weight_bias_correlation(tmp_path):
    # One class lives in genre 0 in the first domain but genre 1 in the
    # second, while only genre 0 carries a domain-dependent offset; its
    # records label no other classes, keeping the balanced classes'
    # negative pools symmetric. That class's trained weights must align
    # with the fitted domain direction far more than any balanced class.
    spec = SynthSpec(
        dim=32,
        n_classes=3,
        n_genres=2,
        samples_per_cell=150,
        seed=779,
        class_signal_strength=1.5,
        bias=(BiasSpec("genre0", 12.0, 0),),
        genre_mix=((0.5, 0.5), (0.5, 0.5), (1.0, 0.0)),
        genre_mix_b=((0.5, 0.5), (0.5, 0.5), (0.0, 1.0)),
        predominant_only_classes=(2,),
    )
    entries, _, gm_path = write_corpus(tmp_path, spec)
    cfg = corpus_config(entries, gm_path, "none", c_grid=(1.0,), cv_folds=3, seed=42)
    report = run_strategy(cfg).report
    mean_abs = {name: [] for name in report.classes}
    for entry in report.correlations:
        for name, value in entry.class_corr.items():
            mean_abs[name].append(abs(value))
    averages = {name: float(np.mean(v)) for name, v in mean_abs.items()}
    assert averages["class2"] > 2.0 * averages["class0"]
    assert averages["class2"] > 2.0 * averages["class1"]


# --- validation -----------------------------------------------------------


def test_dimension_too_small_for_orthogonal_construction():
    with pytest.raises(InfeasibleSpecError):
        generate_biased_corpus(
            SynthSpec(dim=4, n_classes=3, n_genres=1, samples_per_cell=5, seed=13)
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples_per_cell": 0},
        {"test_fraction": 1.0},
        {"test_fraction": -0.1},
        {"noise_sigma": -1.0},
        {"domain_names": ("same", "same")},
        {"bias": (BiasSpec("genre9", 1.0, 0),)},
        {"bias": (BiasSpec("global", -1.0, 0),)},
        {"bias": (BiasSpec("global", 1.0, -1),)},
        {"genre_mix": ((1.0,),)},
        {"genre_mix": ((0.0, 0.0), (1.0, 1.0))},
        {"genre_mix": ((1.0, -0.5), (1.0, 1.0))},
        {"genre_mix_b": ((1.0, 1.0),)},
        {"predominant_only_classes": (5,)},
        # Each domain name becomes a file name under the output directory.
        {"domain_names": ("A", "")},
        {"domain_names": ("A", ".")},
        {"domain_names": ("A", "..")},
        {"domain_names": ("A", "../escaped")},
        {"domain_names": ("A", "a/b")},
        {"domain_names": ("A", "a\\b")},
        {"domain_names": ("A", "a\0b")},
    ],
)
def test_invalid_specs_rejected(kwargs):
    base = dict(dim=16, n_classes=2, n_genres=2, samples_per_cell=5, seed=14)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        generate_biased_corpus(SynthSpec(**base))


@pytest.mark.parametrize(
    "obj",
    [
        {"n_genres": 300_000},
        {"dim": 10**9},
        # Few clips, but a planted direction index that needs a dim x 10^6 frame.
        {"dim": 10**6, "samples_per_cell": 1, "bias": [{"magnitude": 1.0, "direction_index": 10**6 - 10}]},
    ],
)
def test_oversized_spec_rejected_before_allocating(obj):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            spec_from_dict(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_clip_cap_rejects_a_spec_within_the_value_cap():
    # 4.19M clips at dim 2: under MAX_VALUES, over MAX_CLIPS.
    obj = {"dim": 2, "n_classes": 1, "n_genres": 1, "samples_per_cell": 2097152, "bias": []}
    assert 2 * (2 * obj["samples_per_cell"] + 1) <= MAX_VALUES
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="clips"):
            spec_from_dict(obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    spec_from_dict({**obj, "samples_per_cell": MAX_CLIPS // 2})
    with pytest.raises(ValidationError, match="clips"):
        spec_from_dict({**obj, "samples_per_cell": MAX_CLIPS // 2 + 1})


def test_size_caps_admit_the_benchmark_corpora_and_hold_at_the_bound():
    # The largest stock-based corpora the benchmark generates.
    spec_from_dict({"dim": 256, "samples_per_cell": 500})
    spec_from_dict({"dim": 512, "samples_per_cell": 250})
    # dim * (clips + 2 frame directions) is exactly MAX_VALUES, then just above it.
    spec_from_dict({"dim": 2**10, "n_classes": 1, "n_genres": 1, "samples_per_cell": MAX_VALUES // 2**11 - 1})
    with pytest.raises(ValidationError):
        spec_from_dict({"dim": 2**10, "n_classes": 1, "n_genres": 1, "samples_per_cell": MAX_VALUES // 2**11})


# --- spec parsing ---------------------------------------------------------


def test_spec_from_dict_full_round_trip():
    obj = {
        "dim": 20,
        "n_classes": 3,
        "n_genres": 2,
        "samples_per_cell": 12,
        "test_fraction": 0.2,
        "class_signal_strength": 1.5,
        "noise_sigma": 0.8,
        "seed": 99,
        "domain_names": ["left", "right"],
        "bias": [
            {"scope": "global", "magnitude": 2.5},
            {"scope": "genre1", "magnitude": 1.0, "direction_index": 1},
        ],
        "genre_mix": [[1, 0], [0.5, 0.5], [0, 1]],
        "genre_mix_b": [[0, 1], [0.5, 0.5], [1, 0]],
        "predominant_only_classes": [2],
    }
    spec = spec_from_dict(obj)
    assert spec == SynthSpec(
        dim=20,
        n_classes=3,
        n_genres=2,
        samples_per_cell=12,
        test_fraction=0.2,
        class_signal_strength=1.5,
        noise_sigma=0.8,
        seed=99,
        domain_names=("left", "right"),
        bias=(BiasSpec("global", 2.5, 0), BiasSpec("genre1", 1.0, 1)),
        genre_mix=((1.0, 0.0), (0.5, 0.5), (0.0, 1.0)),
        genre_mix_b=((0.0, 1.0), (0.5, 0.5), (1.0, 0.0)),
        predominant_only_classes=(2,),
    )
    # The parsed spec is also JSON-stable: dumping the source object and
    # re-parsing lands on the same value.
    assert spec_from_dict(json.loads(json.dumps(obj))) == spec


def test_spec_from_dict_defaults_and_unknown_fields():
    assert spec_from_dict({}) == SynthSpec()
    with pytest.raises(ValidationError):
        spec_from_dict({"dim": 8, "mystery": 1})
