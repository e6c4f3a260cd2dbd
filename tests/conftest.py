"""Shared fixtures: materialized synthetic corpora and config builders."""

from pathlib import Path

import pytest

from debiaskit.config import DatasetEntry, ExperimentConfig
from debiaskit.data import save_embeddings, save_genre_map, save_manifest
from debiaskit.synth import BiasSpec, SynthSpec, generate_biased_corpus, synth_genre_map

# Small, fast corpus with a strong planted direction — used wherever a test
# needs a real two-domain dataset but not the full-size default corpus.
SMALL_SPEC = SynthSpec(
    dim=16,
    n_classes=3,
    n_genres=2,
    samples_per_cell=30,
    seed=90210,
    bias=(BiasSpec("global", 3.0, 0),),
)


def write_corpus(directory, spec, fmt="csv"):
    """Generate a corpus and write its files; returns (entries, truth, genre-map path)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables, manifests, truth = generate_biased_corpus(spec)
    suffix = "csv" if fmt == "csv" else "emb"
    entries = []
    for name in spec.domain_names:
        emb = directory / f"{name}.{suffix}"
        man = directory / f"{name}.jsonl"
        save_embeddings(tables[name], str(emb), fmt)
        save_manifest(manifests[name], str(man))
        entries.append(DatasetEntry(name, str(emb), str(man), fmt))
    gm_path = directory / "genres.json"
    save_genre_map(synth_genre_map(spec), str(gm_path))
    return tuple(entries), truth, str(gm_path)


def corpus_config(entries, gm_path, strategy, scope="global", seed=90210, **kwargs):
    return ExperimentConfig(
        datasets=tuple(entries),
        strategy=strategy,
        scope=scope,
        seed=seed,
        genre_map=gm_path,
        **kwargs,
    )


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small_corpus")
    return write_corpus(directory, SMALL_SPEC)
