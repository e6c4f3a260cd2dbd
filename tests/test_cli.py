"""Command-line interface: corpus generation, runs, the matrix, re-rendering,
and the JSON error contract."""

import hashlib
import json
import math
import random
import shutil
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SMALL_SPEC, write_corpus
from debiaskit import cli, kernel
from debiaskit.cli import main
from debiaskit.config import load_config
from debiaskit.data import MAX_CLASSES, EmbeddingTable, load_embeddings, save_embeddings
from debiaskit.kernel import MAX_FEATURE_VALUES, MAX_MAP_VALUES
from debiaskit.logreg import MIN_C
from debiaskit.report import config_fingerprint, load_report, save_report
from debiaskit.synth import SynthSpec

CLI_SPEC = replace(SMALL_SPEC, samples_per_cell=12)

CLI_SPEC_JSON = {
    "dim": CLI_SPEC.dim,
    "n_classes": CLI_SPEC.n_classes,
    "n_genres": CLI_SPEC.n_genres,
    "samples_per_cell": CLI_SPEC.samples_per_cell,
    "seed": CLI_SPEC.seed,
    "bias": [
        {"scope": b.scope, "magnitude": b.magnitude, "direction_index": b.direction_index}
        for b in CLI_SPEC.bias
    ],
}


def write_config(corpus_dir, entries, *, strategy="none", output_dir=None, entry=None, **extras):
    """Write a config for ``entries``; ``entry`` adds keys to each dataset entry."""
    payload = {
        "datasets": [
            {
                "name": e.name,
                "embeddings": Path(e.embeddings).name,
                "manifest": Path(e.manifest).name,
                **(entry or {}),
            }
            for e in entries
        ],
        "genre_map": "genres.json",
        "strategy": strategy,
        "seed": 424242,
        "c_grid": [0.01, 1.0, 100.0],
        "cv_folds": 3,
    }
    if output_dir is not None:
        payload["output_dir"] = output_dir
    payload.update(extras)
    path = Path(corpus_dir) / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def cli_corpus(tmp_path):
    entries, _, _ = write_corpus(tmp_path, CLI_SPEC)
    return tmp_path, entries


def read_stderr_error(capsys):
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.strip()]
    assert len(lines) == 1, captured.err
    return json.loads(lines[0]), captured


# --- synth -----------------------------------------------------------------


def test_synth_writes_corpus_and_runnable_config(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CLI_SPEC_JSON))
    out_dir = tmp_path / "corpus"
    code = main(["synth", "--spec", str(spec_path), "--out", str(out_dir)])
    assert code == 0
    for name in (
        "synthA.csv",
        "synthA.jsonl",
        "synthB.csv",
        "synthB.jsonl",
        "genres.json",
        "ground_truth.json",
        "config.json",
    ):
        assert (out_dir / name).exists(), name
    # The generated config is immediately loadable; paths resolve relative to it.
    config = load_config(str(out_dir / "config.json"))
    assert config.strategy == "LDA"
    assert config.datasets[0].embeddings == str(out_dir / "synthA.csv")
    assert config.output_dir == str(out_dir / "results")
    truth = json.loads((out_dir / "ground_truth.json").read_text())
    assert truth  # planted geometry recorded alongside the corpus
    assert "wrote corpus" in capsys.readouterr().out


def test_synth_binary_format(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CLI_SPEC_JSON))
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_dir), "--format", "binary"]) == 0
    assert (out_dir / "synthA.emb").exists()
    assert not (out_dir / "synthA.csv").exists()
    assert (out_dir / "synthA.emb").read_bytes()[:4] == b"EMB1"
    config = load_config(str(out_dir / "config.json"))
    assert load_embeddings(config.datasets[0].embeddings).n_rows > 0


# The README quick-start corpus, pinned by value: comparing two runs of the
# same code would pass a writer or generator change that moved every file.
STOCK_CORPUS_SHA256 = {
    "csv": {
        "synthA.csv": "26c33ab26ca9524979f66de1b88ff002e4ef83425bf2eb394632a2be18a94caa",
        "synthB.csv": "053c9157cb44924b5eef5fdc18b7e4285bb76f2f9e962127137eb5ceac315be5",
    },
    "binary": {
        "synthA.emb": "d275cd98d5406e0d1d1176bdc0cca3818be551237c11e63e0e1bfd9befa7364d",
        "synthB.emb": "7e96e2d7b4751e38afd791aa4b2cd56d8b71702dc143d43ae5635b2983d91af7",
    },
}
STOCK_MANIFEST_SHA256 = {
    "synthA.jsonl": "8f597511f3337821a2bad5ae08fbaf78396d1a363a572a283523fa67d6ffc0cb",
    "synthB.jsonl": "cbb59f7291b45eb828be4b6c48feccad5deedfe30016c58442507e4202ab0cbc",
}


@pytest.mark.parametrize("fmt", sorted(STOCK_CORPUS_SHA256))
def test_stock_synth_corpus_keeps_its_bytes(tmp_path, fmt):
    out_dir = tmp_path / fmt
    assert main(["synth", "--out", str(out_dir), "--format", fmt]) == 0
    expected = {**STOCK_CORPUS_SHA256[fmt], **STOCK_MANIFEST_SHA256}
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in expected}
    assert digests == expected


def test_synth_rejects_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"dim": 2, "n_classes": 5}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"]
    assert payload["message"]


def test_synth_writes_nothing_outside_its_output_directory(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**CLI_SPEC_JSON, "domain_names": ["../escaped", "B"]}))
    out_dir = tmp_path / "corpus" / "out"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_dir)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    assert "'../escaped'" in payload["message"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


# --- run -------------------------------------------------------------------


def test_run_prints_table_and_writes_outputs(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="none", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "synthA" in out and "synthB" in out
    assert "report written to" in out
    results = corpus_dir / "results"
    report = load_report(str(results / "report.json"))
    assert len(report.cells) == 4
    audit = json.loads((results / "audit.json").read_text())
    assert audit["clean"] is True


@pytest.mark.parametrize("strategy", ["none", "K"])
def test_run_at_an_ignored_scope_is_silent_and_runs_global(cli_corpus, capsys, strategy):
    # A scope-free strategy records the scope as written and runs at
    # "global", like every setting a job does not read: no stderr output.
    corpus_dir, entries = cli_corpus
    cells = {}
    for scope in ("classwise", "global"):
        config_path = write_config(
            corpus_dir, entries, strategy=strategy, scope=scope, output_dir=scope
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", config_path]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""
        report = load_report(str(corpus_dir / scope / "report.json"))
        assert report.config["scope"] == scope
        cells[scope] = report.cells
    assert {cell.scope for cell in cells["classwise"]} == {"global"}
    assert cells["classwise"] == cells["global"]


# A report whose one cell has no "train" field.
REPORT_WITHOUT_TRAIN = {
    "datasets": ["synthA", "synthB"],
    "classes": ["class0"],
    "cells": [
        {
            "test": "synthA",
            "strategy": "none",
            "scope": "global",
            "class_auc": {"class0": 0.5},
            "mean_auc": 0.5,
        }
    ],
    "correlations": [],
    "genre_histogram": {},
    "config": {},
    "bias_fit_notes": {},
}


# A well-formed report with the four baseline cells, and edits to it that keep
# every field name but break a field's shape.
REPORT = {
    **REPORT_WITHOUT_TRAIN,
    "cells": [
        {**REPORT_WITHOUT_TRAIN["cells"][0], "train": train, "test": test}
        for train in ("synthA", "synthB")
        for test in ("synthA", "synthB")
    ],
}


# A correlation entry that holds no class of the report.
CORRELATION_WITHOUT_CLASSES = {
    "domain": "synthA",
    "strategy": "none",
    "scope": "global",
    "space": "original",
    "class_corr": {},
    "mean_abs_corr": 0.0,
}


def edit_first_cell(**fields):
    return {**REPORT, "cells": [{**REPORT["cells"][0], **fields}] + REPORT["cells"][1:]}


def edit_correlation(**fields):
    """A correlation entry that holds the report's class, edited by ``fields``."""
    return {**CORRELATION_WITHOUT_CLASSES, "class_corr": {"class0": 0.5}, **fields}


@pytest.mark.parametrize(
    "command, extras",
    [
        ("run", {"dprime_factor": "abc"}),
        ("run", {"seed": "x"}),
        ("run", {"seeds": [1]}),
        ("run", {"c_grid": 5}),
        ("run", {"cv_folds": None}),
        ("run", {"classes": 3}),
        ("run", {"datasets": [1, 2]}),
        ("synth", None),
        ("synth", {"bias": 5}),
        ("synth", {"dim": "x"}),
        ("synth", {"bias": [{"magnitude": "abc"}]}),
        ("synth", {"domain_names": 7}),
        ("synth", {"genre_mix": [[1, "a"]]}),
        ("report", "{not json"),
        ("report", {}),
        ("report", REPORT_WITHOUT_TRAIN),
        ("report", {**REPORT, "datasets": ["synthA"]}),
        ("report", edit_first_cell(class_auc=[1, 2])),
        ("report", {**REPORT, "classes": "class0"}),
        ("report", edit_first_cell(class_auc={})),
        ("report", edit_first_cell(mean_auc="x")),
        ("report", {**REPORT, "cells": REPORT["cells"] + REPORT["cells"][:1]}),
        ("report", edit_first_cell(class_auc={"class0": 1.5})),
        ("report", {**REPORT, "notes": {}}),
        # Read strictly: a boolean, a numeric string or a float where an
        # integer belongs is rejected, never converted; so is an unknown
        # dataset-entry key.
        ("run", {"seed": True}),
        ("run", {"shrinkage": "0.5"}),
        ("run", {"cv_folds": 2.5}),
        ("run", {"gamma": True}),
        ("run", {"classes": [0]}),
        ("run", {"entry": {"fromat": "binary"}}),
        ("synth", {"dim": True}),
        ("synth", {"noise_sigma": "1"}),
        ("report", edit_first_cell(class_auc={"class0": True})),
        # The config's seed sets the derived seeds, so a report holds none.
        ("report", {**REPORT, "seeds": {}}),
        ("report", {**REPORT, "correlations": [CORRELATION_WITHOUT_CLASSES]}),
        # Reports that no run can write: each would render wrongly.
        ("report", {**REPORT, "datasets": ["synthA", "synthA"]}),
        ("report", {**REPORT, "classes": ["class0", "class0"]}),
        ("report", edit_first_cell(train="synthC")),
        ("report", edit_first_cell(test="synthC")),
        ("report", {**REPORT, "correlations": [edit_correlation(domain="synthC")]}),
        ("report", edit_first_cell(strategy="bogus")),
        ("report", edit_first_cell(scope="sideways")),
        ("report", {**REPORT, "correlations": [edit_correlation(space="sideways")]}),
        # A strategy that removes nothing runs only at "global".
        (
            "report",
            {**REPORT, "cells": REPORT["cells"] + [{**c, "scope": "classwise"} for c in REPORT["cells"]]},
        ),
        ("report", {**REPORT, "correlations": [edit_correlation(strategy="K", scope="classwise")]}),
    ],
)
def test_malformed_input_ends_in_one_line_json_error(cli_corpus, capsys, command, extras):
    corpus_dir, entries = cli_corpus
    if command == "synth":
        spec_path = corpus_dir / "spec.json"
        if extras is not None:
            spec_path.write_text(json.dumps(extras))
        argv = ["synth", "--spec", str(spec_path), "--out", str(corpus_dir / "x")]
    elif command == "report":
        report_dir = corpus_dir / "written"
        report_dir.mkdir()
        text = extras if isinstance(extras, str) else json.dumps(extras)
        (report_dir / "report.json").write_text(text)
        argv = ["report", "--in", str(report_dir)]
    else:
        argv = ["run", "--config", write_config(corpus_dir, entries, **extras)]
    assert main(argv) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"


def test_a_dataset_entry_naming_its_format_is_refused(cli_corpus, capsys):
    # The loader reads the format from the file's first bytes.
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, entry={"format": "csv"})
    assert main(["run", "--config", config_path]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload == {
        "error": "ValidationError",
        "message": f"{config_path}: unknown dataset entry fields: ['format']",
    }


# Every JSON object input refuses a key it does not know and names the first
# required key it lacks, in one wording. A synth spec requires no key.
@pytest.mark.parametrize(
    "command, fault, error, named",
    [
        pytest.param("run", {"seeds": {}}, "ValidationError", "unknown config fields: ['seeds']", id="config-seeds"),
        # A value that is not an object is shown abridged: it may be a whole file.
        pytest.param(
            "config",
            list(range(1000)),
            "ValidationError",
            "config must be a JSON object, got [0, 1, 2, 3, 4, 5, ...]",
            id="config-not-an-object",
        ),
        pytest.param(
            "config",
            {"datasets": [], "strategy": "none"},
            "ValidationError",
            "config is missing required field 'seed'",
            id="config-without-seed",
        ),
        pytest.param("run", {"c_grid": [MIN_C / 2]}, "ValidationError", "c_grid entry must be >= ", id="c-below-min-c"),
        pytest.param(
            "run",
            {"entry": {"format": "csv"}},
            "ValidationError",
            "unknown dataset entry fields: ['format']",
            id="entry-format",
        ),
        pytest.param(
            "config",
            {
                "datasets": [{"name": "a", "embeddings": "a.csv"}, {"name": "b", "embeddings": "b.csv"}],
                "strategy": "none",
                "seed": 1,
            },
            "ValidationError",
            "dataset entry is missing required field 'manifest'",
            id="entry-without-manifest",
        ),
        pytest.param(
            "run",
            {"genre_map": "missing.json"},
            "ValidationError",
            "referenced file does not exist: ",
            id="missing-referenced-file",
        ),
        pytest.param(
            "genres", {"targets": "class0"}, "ValidationError", "targets must be a list", id="genre-map-targets"
        ),
        pytest.param(
            "genres",
            {"targets": ["genre0"], "rulez": {"g": "genre0"}},
            "ValidationError",
            "unknown genre map fields: ['rulez']",
            id="genre-map-rulez",
        ),
        pytest.param(
            "genres",
            {"rules": {}},
            "ValidationError",
            "genre map is missing required field 'targets'",
            id="genre-map-without-targets",
        ),
        pytest.param(
            "report", {**REPORT, "seeds": {}}, "ValidationError", "unknown report fields: ['seeds']", id="report-seeds"
        ),
        pytest.param(
            "report", [REPORT], "ValidationError", "report must be a JSON object, got [{", id="report-not-an-object"
        ),
        pytest.param(
            "report",
            {key: value for key, value in REPORT.items() if key != "cells"},
            "ValidationError",
            "report is missing required field 'cells'",
            id="report-without-cells",
        ),
        pytest.param(
            "report",
            edit_first_cell(extra=1),
            "ValidationError",
            "unknown report cell fields: ['extra']",
            id="report-cell-extra",
        ),
        pytest.param(
            "report",
            REPORT_WITHOUT_TRAIN,
            "ValidationError",
            "report cell is missing required field 'train'",
            id="report-cell-without-train",
        ),
        pytest.param(
            "report",
            {**REPORT, "correlations": [edit_correlation(extra=1)]},
            "ValidationError",
            "unknown correlation entry fields: ['extra']",
            id="correlation-extra",
        ),
        pytest.param(
            "report",
            {**REPORT, "correlations": [{k: v for k, v in edit_correlation().items() if k != "space"}]},
            "ValidationError",
            "correlation entry is missing required field 'space'",
            id="correlation-without-space",
        ),
        pytest.param(
            "synth",
            {**CLI_SPEC_JSON, "bogus": 1},
            "ValidationError",
            "unknown synth spec fields: ['bogus']",
            id="spec-unknown-field",
        ),
        pytest.param(
            "synth",
            {**CLI_SPEC_JSON, "bias": [{"magnitude": 1.0, "direction_idx": 1}]},
            "ValidationError",
            "unknown bias entry fields: ['direction_idx']",
            id="bias-entry-direction-idx",
        ),
        pytest.param(
            "synth",
            {**CLI_SPEC_JSON, "bias": [{"scope": "global"}]},
            "ValidationError",
            "bias entry is missing required field 'magnitude'",
            id="bias-entry-without-magnitude",
        ),
        pytest.param(
            "synth",
            {"dim": 2, "n_classes": 2, "n_genres": 1},
            "InfeasibleSpecError",
            "dim 2 too small for 1 bias + 2 class directions",
            id="spec-infeasible",
        ),
    ],
)
def test_every_whole_file_input_names_its_file_once(cli_corpus, capsys, command, fault, error, named):
    corpus_dir, entries = cli_corpus
    if command == "synth":
        path = corpus_dir / "spec.json"
        path.write_text(json.dumps(fault))
        argv = ["synth", "--spec", str(path), "--out", str(corpus_dir / "x")]
    elif command == "report":
        (corpus_dir / "written").mkdir()
        path = corpus_dir / "written" / "report.json"
        path.write_text(json.dumps(fault))
        argv = ["report", "--in", str(path.parent)]
    elif command == "genres":
        path = corpus_dir / "genres.json"
        path.write_text(json.dumps(fault))
        argv = ["run", "--config", write_config(corpus_dir, entries)]
    elif command == "config":
        path = corpus_dir / "config.json"
        path.write_text(json.dumps(fault))
        argv = ["run", "--config", str(path)]
    else:
        path = write_config(corpus_dir, entries, **fault)
        argv = ["run", "--config", path]
    assert main(argv) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == error
    assert payload["message"].startswith(f"{path}: "), payload["message"]
    assert payload["message"].count(str(path)) == 1, payload["message"]
    assert named in payload["message"], payload["message"]


@pytest.mark.parametrize(
    "content",
    [b"", b"EMB", b"EMB1\x01", b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR", b"hello, world\n"],
    ids=["empty", "short-magic", "magic-alone", "png", "text"],
)
def test_an_embedding_file_in_neither_format_ends_in_one_json_line_naming_it(
    cli_corpus, capsys, content
):
    corpus_dir, entries = cli_corpus
    Path(entries[0].embeddings).write_bytes(content)
    assert main(["run", "--config", write_config(corpus_dir, entries)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "FormatError"
    assert payload["message"].startswith(f"{entries[0].embeddings}: ")


@pytest.mark.parametrize("fault, error", [("repeat", "ValidationError"), ("nan", "NonFiniteError")])
def test_a_repeated_or_non_finite_embedding_row_ends_in_one_json_line_naming_file_and_clip(
    cli_corpus, capsys, fault, error
):
    corpus_dir, entries = cli_corpus
    path = Path(entries[0].embeddings)
    header, first, *rest = path.read_bytes().split(b"\r\n")
    fields = first.split(b",")
    if fault == "repeat":
        rows = [first, first, *rest]
    else:
        rows = [b",".join(fields[:2] + [b"nan"] + fields[3:]), *rest]
    path.write_bytes(b"\r\n".join([header, *rows]))
    assert main(["run", "--config", write_config(corpus_dir, entries)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == error
    # A CSV value is located by its file line, like every other CSV fault.
    assert payload["message"].startswith(f"{path}: " if fault == "repeat" else f"{path}:line 2: ")
    assert f"clip {fields[0].decode()!r}" in payload["message"]
    if fault == "repeat":
        assert f"frame {int(fields[1])} twice" in payload["message"]


def rewrite_records(entry, edit):
    """Rewrite each record of ``entry``'s manifest as ``edit`` returns it;
    ``edit`` gets the record and its 0-based line index."""
    path = Path(entry.manifest)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(edit(r, i)) + "\n" for i, r in enumerate(records)))


def strip_labels(entries):
    for entry in entries:
        rewrite_records(entry, lambda r, i: {**r, "labels": {}})


def drop_last_column(entry):
    path = Path(entry.embeddings)
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


@pytest.mark.parametrize("command", ["run", "matrix"])
def test_manifests_without_classes_end_in_one_line_json_error(cli_corpus, capsys, command):
    corpus_dir, entries = cli_corpus
    strip_labels(entries)
    assert main([command, "--config", write_config(corpus_dir, entries, strategy="LDA")]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    assert "label no class" in payload["message"]


@pytest.mark.parametrize("strategy", ["LDA", "K"])
def test_datasets_of_different_widths_end_in_one_line_json_error(cli_corpus, capsys, strategy):
    corpus_dir, entries = cli_corpus
    drop_last_column(entries[1])
    assert main(["run", "--config", write_config(corpus_dir, entries, strategy=strategy)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    width = CLI_SPEC.dim
    assert f"'synthA' and 'synthB' differ in embedding width: {width} against {width - 1}" in (
        payload["message"]
    )


def drop_last_record(entry):
    path = Path(entry.manifest)
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[:-1]))


def rename_header_columns(entry):
    path = Path(entry.embeddings)
    lines = path.read_bytes().split(b"\r\n")
    lines[0] = lines[0].replace(b",e", b",x")
    path.write_bytes(b"\r\n".join(lines))


def cut_before_last_row(entry):
    """Cut an EMB1 file where its last row starts."""
    path = Path(entry.embeddings)
    blob = path.read_bytes()
    _, _, n_rows, dim = struct.unpack_from("<4sIII", blob, 0)
    offset = 16
    for _ in range(n_rows - 1):
        (id_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4 + id_len + 4 + 4 * dim
    path.write_bytes(blob[:offset])
    return n_rows - 1


@pytest.mark.parametrize(
    "fmt, corrupt, extras, error, message",
    [
        ("csv", drop_last_record, {}, "ValidationError", "embeddings and manifest disagree on clips"),
        (
            "csv",
            lambda e: rewrite_records(e, lambda r, i: {**r, "dataset": "synthC"}),
            {},
            "ValidationError",
            "holds no records for dataset 'synthA'",
        ),
        (
            "csv",
            None,
            {"classes": ["class0", "class9"]},
            "ValidationError",
            "requested classes not present in any manifest: ['class9']",
        ),
        ("csv", lambda e: Path(e.embeddings).write_bytes(b""), {}, "FormatError", "empty CSV file"),
        ("csv", rename_header_columns, {}, "FormatError", "malformed header"),
        (
            "binary",
            lambda e: Path(e.embeddings).write_bytes(Path(e.embeddings).read_bytes()[:10]),
            {},
            "FormatError",
            "truncated header",
        ),
        ("binary", cut_before_last_row, {}, "FormatError", "truncated at row {row}"),
        (
            "csv",
            lambda e: rewrite_records(e, lambda r, i: {**r, "labels": []} if i == 2 else r),
            {},
            "ValidationError",
            "line 3: labels must be an object",
        ),
    ],
    ids=[
        "clips-disagree",
        "dataset-without-records",
        "absent-class",
        "empty-csv",
        "malformed-csv-header",
        "emb1-shorter-than-header",
        "emb1-cut-between-rows",
        "labels-not-an-object",
    ],
)
def test_corpus_assembly_faults_end_in_one_line_json_error(
    tmp_path, capsys, fmt, corrupt, extras, error, message
):
    entries, _, _ = write_corpus(tmp_path, CLI_SPEC, fmt=fmt)
    row = corrupt(entries[0]) if corrupt is not None else None
    assert main(["run", "--config", write_config(tmp_path, entries, **extras)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == error
    assert message.format(row=row) in payload["message"]


@pytest.mark.parametrize("command", ["synth", "run", "matrix", "report"])
def test_unwritable_output_ends_in_one_line_json_error(cli_corpus, capsys, monkeypatch, command):
    corpus_dir, entries = cli_corpus
    blocker = corpus_dir / "taken"
    blocker.write_text("a regular file where an output directory should go\n")
    if command == "synth":
        argv = ["synth", "--out", str(blocker)]
    elif command == "report":
        (corpus_dir / "written").mkdir()
        (corpus_dir / "written" / "report.json").write_text(json.dumps(REPORT))
        (corpus_dir / "written" / "table1.txt").mkdir()
        argv = ["report", "--in", str(corpus_dir / "written")]
    else:
        argv = [command, "--config", write_config(corpus_dir, entries, output_dir="taken")]

    def never_called(*args, **kwargs):
        raise AssertionError("run_strategy called before the output directory was made")

    monkeypatch.setattr(cli, "run_strategy", never_called)
    assert main(argv) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "IoError"


@pytest.mark.parametrize("c_grid", [[1.0], [0.1, 1.0]])
def test_fewer_training_positives_than_folds_fail_only_when_c_is_selected(
    tmp_path, capsys, c_grid
):
    """Each class has 2 training positives per dataset, below 3 folds. A
    one-value grid builds no folds, so the run trains; a grid to select from
    cannot fold the class and ends in the one-line JSON error."""
    spec = SynthSpec(dim=8, n_classes=2, n_genres=1, samples_per_cell=3, test_fraction=0.34, seed=7)
    entries, _, _ = write_corpus(tmp_path, spec)
    config = write_config(tmp_path, entries, output_dir="results", c_grid=c_grid, cv_folds=3)
    if len(c_grid) == 1:
        assert main(["run", "--config", config]) == 0
        assert (tmp_path / "results" / "report.json").is_file()
        return
    assert main(["run", "--config", config]) == 1
    payload, captured = read_stderr_error(capsys)
    assert payload["error"] == "PipelineError"
    assert "cannot build 3 stratified folds from 2 positives" in payload["message"]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "results" / "report.json").exists()


def test_run_without_output_dir_only_prints(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="none")
    assert main(["run", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "synthA" in out
    assert "report written to" not in out
    assert not (corpus_dir / "results").exists()


def test_run_missing_config_exits_with_json_error(capsys):
    assert main(["run", "--config", "/no/such/config.json"]) == 1
    payload, captured = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    assert "cannot open config" in payload["message"]
    assert captured.out == ""


def test_synth_generated_config_runs_unmodified(tmp_path, capsys):
    # The quick-start path: the config `synth` writes (a debiasing strategy,
    # not the baseline) must run as-is, rendering plain values without deltas.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CLI_SPEC_JSON))
    out_dir = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(out_dir / "config.json")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "LDA" in captured.out
    report = load_report(str(out_dir / "results" / "report.json"))
    assert len(report.cells) == 4


# --- row and line order ----------------------------------------------------


def shuffle_rows(path, rng, header=1, end=b"\n"):
    """Shuffle the lines of ``path`` after its first ``header`` lines."""
    lines = Path(path).read_bytes().split(end)
    assert lines[-1] == b""
    body = lines[header:-1]
    rng.shuffle(body)
    Path(path).write_bytes(end.join(lines[:header] + body + [b""]))


def shuffle_binary_rows(path, rng):
    table = load_embeddings(str(path))
    rows = list(range(table.n_rows))
    rng.shuffle(rows)
    shuffled = EmbeddingTable(
        [table.clip_ids[i] for i in rows], table.frames[rows], table.vectors[rows]
    )
    save_embeddings(shuffled, str(path), "binary")


def omit_class0_on_class2_records(path):
    """Records of class2 drop their class0 label, which then reads "unk"."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    for record in records:
        if record["labels"]["class2"] == "pos":
            del record["labels"]["class0"]
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in records))


def write_frames(path, order=None):
    """Rewrite a one-frame CSV as three frames a clip, at frame indices 0, 3
    and 7: in that order, or with each clip's rows shuffled in place by the
    random generator ``order``."""
    noise = random.Random(3)
    lines = Path(path).read_bytes().decode().split("\r\n")
    rows = [lines[0]]
    for line in lines[1:-1]:
        clip_id, _, *values = line.split(",")
        frames = [
            f"{clip_id},{frame}," + ",".join(repr(float(v) + noise.gauss(0.0, 0.5)) for v in values)
            for frame in (0, 3, 7)
        ]
        if order is not None:
            order.shuffle(frames)
        rows += frames
    Path(path).write_bytes("\r\n".join(rows + [""]).encode())


@pytest.mark.parametrize(
    "case", ["csv-rows", "binary-rows", "manifest-lines", "frames-within-clips"]
)
def test_row_and_line_order_leave_a_run_byte_identical(tmp_path, case):
    """A corpus and a copy of it with its rows or lines in another order (the
    same clips, the same frames) write the same report.json and audit.json."""
    base = tmp_path / "base"
    entries, _, _ = write_corpus(base, CLI_SPEC, "binary" if case == "binary-rows" else "csv")
    if case == "manifest-lines":
        for entry in entries:
            omit_class0_on_class2_records(entry.manifest)
    shuffled = tmp_path / "shuffled"
    shutil.copytree(base, shuffled)
    rng = random.Random(5)
    for entry in entries:
        embeddings = shuffled / Path(entry.embeddings).name
        manifest = shuffled / Path(entry.manifest).name
        if case == "csv-rows":
            shuffle_rows(embeddings, rng, end=b"\r\n")
        elif case == "binary-rows":
            shuffle_binary_rows(embeddings, rng)
        elif case == "manifest-lines":
            shuffle_rows(manifest, rng, header=0)
        else:
            write_frames(entry.embeddings)
            write_frames(embeddings, order=rng)
        changed = embeddings if case != "manifest-lines" else manifest
        assert changed.read_bytes() != (base / changed.name).read_bytes()
    written = []
    for corpus_dir in (base, shuffled):
        config = write_config(
            corpus_dir, entries, strategy="mKLDA", scope="classwise", output_dir="results"
        )
        assert main(["run", "--config", config]) == 0
        results = corpus_dir / "results"
        written.append([(results / name).read_bytes() for name in ("report.json", "audit.json")])
    assert written[0] == written[1]


# --- matrix ----------------------------------------------------------------


def test_matrix_runs_grid_and_writes_outputs(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, output_dir="grid")
    code = main(
        ["matrix", "--config", config_path, "--strategies", "LDA", "--scopes", "global"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "matrix written to" in out
    grid = corpus_dir / "grid"
    for name in ("report.json", "table1.txt", "table1.csv", "audit.json"):
        assert (grid / name).exists(), name
    combined = load_report(str(grid / "report.json"))
    strategies = {c.strategy for c in combined.cells}
    assert strategies == {"none", "LDA"}


def test_matrix_warns_about_no_scope(cli_corpus, capsys):
    # Neither the config's own strategy and scope, which the matrix does not
    # run, nor the scope-free jobs the grid collapses to "global" warn.
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="K", scope="classwise")
    argv = ["matrix", "--config", config_path, "--strategies", "LDA,K", "--scopes", "classwise"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert caught == []
    assert capsys.readouterr().err == ""


def test_matrix_reports_are_byte_identical_across_corpus_directories(tmp_path, capsys):
    first = tmp_path / "a"
    entries, _, _ = write_corpus(first, CLI_SPEC)
    write_config(first, entries, strategy="LDA", output_dir="results")
    second = tmp_path / "somewhere" / "else" / "b"
    shutil.copytree(first, second)
    written = []
    for corpus_dir in (first, second):
        argv = ["matrix", "--config", str(corpus_dir / "config.json"), "--strategies", "LDA"]
        assert main(argv + ["--scopes", "global"]) == 0
        reports = sorted((corpus_dir / "results").glob("report*.json"))
        written.append({path.name: path.read_bytes() for path in reports})
    assert sorted(written[0]) == ["report.json", "report_LDA_global.json", "report_none_global.json"]
    assert written[0] == written[1]
    recorded = json.loads(written[0]["report.json"])["config"]
    assert recorded["datasets"][0]["embeddings"] == "synthA.csv"
    assert recorded["genre_map"] == "genres.json"


def test_a_matrix_job_is_byte_for_byte_its_run(cli_corpus, capsys):
    """Every matrix job runs at the config's seed, so `run` at a job's
    strategy and scope writes that job's report and audit."""
    corpus_dir, entries = cli_corpus
    matrix_config = write_config(corpus_dir, entries, output_dir="grid")
    argv = ["matrix", "--config", matrix_config, "--strategies", "LDA,KLDA"]
    assert main(argv + ["--scopes", "global,classwise"]) == 0
    grid = corpus_dir / "grid"
    audits = json.loads((grid / "audit.json").read_text())["runs"]
    for strategy, scope in (("KLDA", "classwise"), ("none", "global")):
        alone = corpus_dir / f"alone_{strategy}_{scope}"
        run_config = write_config(
            corpus_dir, entries, strategy=strategy, scope=scope, output_dir=alone.name
        )
        assert main(["run", "--config", run_config]) == 0
        job_report = grid / f"report_{strategy}_{scope}.json"
        assert (alone / "report.json").read_bytes() == job_report.read_bytes()
        assert json.loads((alone / "audit.json").read_text()) == audits[f"{strategy}:{scope}"]
    assert capsys.readouterr().err == ""


def test_matrix_strategies_default_to_every_strategy_but_the_baseline():
    args = cli._build_parser().parse_args(["matrix", "--config", "config.json"])
    assert args.strategies == "LDA,mLDA,K,KLDA,mKLDA"


def test_matrix_rejects_unknown_strategy(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries)
    assert main(["matrix", "--config", config_path, "--strategies", "LSA"]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    assert "unknown strategy" in payload["message"]


# --- report ----------------------------------------------------------------


def test_report_rerenders_written_report(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="none", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    capsys.readouterr()
    results = str(corpus_dir / "results")
    assert main(["report", "--in", results, "--layout", "fig3"]) == 0
    out = capsys.readouterr().out
    assert out  # rendered text echoed
    assert (corpus_dir / "results" / "fig3.txt").read_text() == out
    assert (corpus_dir / "results" / "fig3.csv").exists()
    assert main(["report", "--in", results, "--layout", "fig2"]) == 0
    assert (corpus_dir / "results" / "fig2.csv").exists()


def test_report_renders_the_class_mean_in_place_of_a_tampered_mean(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, output_dir="grid")
    assert main(["matrix", "--config", config_path, "--strategies", "LDA"]) == 0
    grid = corpus_dir / "grid"
    written = (grid / "table1.txt").read_text()
    capsys.readouterr()
    report = json.loads((grid / "report.json").read_text())
    cell = report["cells"][0]
    assert cell["mean_auc"] != 0.5
    cell["mean_auc"] = 0.5
    (grid / "report.json").write_text(json.dumps(report))
    assert main(["report", "--in", str(grid), "--layout", "table1"]) == 0
    assert capsys.readouterr().out == written
    assert "50.00" not in written


def test_report_renders_the_class_mean_in_place_of_a_tampered_correlation_mean(
    cli_corpus, capsys
):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="LDA", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    results = corpus_dir / "results"
    written = (results / "report.json").read_text()
    assert main(["report", "--in", str(results), "--layout", "fig3"]) == 0
    rendered = (results / "fig3.txt").read_text()
    capsys.readouterr()
    report = json.loads(written)
    entry = report["correlations"][0]
    assert round(entry["mean_abs_corr"], 2) != 0.99
    entry["mean_abs_corr"] = 0.99
    (results / "report.json").write_text(json.dumps(report))
    assert main(["report", "--in", str(results), "--layout", "fig3"]) == 0
    assert capsys.readouterr().out == rendered
    assert "(0.99)" not in rendered


def test_a_run_report_keeps_its_bytes_when_read_back(cli_corpus):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="mLDA", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    path = corpus_dir / "results" / "report.json"
    written = path.read_text()
    save_report(load_report(str(path)), str(path))
    assert path.read_text() == written


def test_a_report_records_its_seed_once_and_refuses_derived_seeds(cli_corpus, capsys):
    # The config's seed sets every derived seed: a written report holds no
    # "seeds", its fingerprint digests the config alone, and `report` refuses
    # a report that holds "seeds" as it refuses any unknown field.
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="LDA", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    path = corpus_dir / "results" / "report.json"
    written = json.loads(path.read_text())
    assert "seeds" not in written
    assert written["fingerprint"] == config_fingerprint(written["config"])
    capsys.readouterr()
    path.write_text(json.dumps({**written, "seeds": {}}))
    assert main(["report", "--in", str(path.parent)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload == {"error": "ValidationError", "message": f"{path}: unknown report fields: ['seeds']"}


def test_huge_feature_map_ends_in_one_line_json_error(cli_corpus, capsys):
    # Rejected by size before the map's frequencies are drawn.
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="K", dprime_factor=10**30)
    assert main(["run", "--config", config_path]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "PipelineError"
    assert "feature map exceeds" in payload["message"]


def test_feature_width_past_the_scatter_bound_is_refused_before_any_draw(
    cli_corpus, capsys, monkeypatch
):
    # Within the map cap (dprime * dim), but the dprime x dprime discriminant
    # scatter would exceed MAX_FEATURE_VALUES: fit_rff refuses it before it
    # draws the map's frequencies.
    corpus_dir, entries = cli_corpus
    dprime_factor = math.isqrt(MAX_FEATURE_VALUES) // CLI_SPEC.dim + 1
    assert dprime_factor * CLI_SPEC.dim**2 <= MAX_MAP_VALUES
    draws = []
    default_rng = np.random.default_rng

    def spying_rng(*args, **kwargs):
        if sys._getframe(1).f_code is kernel.fit_rff.__code__:
            draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spying_rng)
    config_path = write_config(corpus_dir, entries, strategy="KLDA", dprime_factor=dprime_factor)
    assert main(["run", "--config", config_path]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "PipelineError"
    assert f"exceed {MAX_FEATURE_VALUES} values" in payload["message"]
    assert draws == []


def test_manifest_past_the_class_bound_names_the_line(cli_corpus, capsys):
    # Each record names a class of its own; the class past MAX_CLASSES first
    # appears on the line after the one that brings the count to the bound.
    corpus_dir, entries = cli_corpus
    manifest = Path(entries[0].manifest)
    lines = manifest.read_text().splitlines()
    known = {c for line in lines for c in json.loads(line)["labels"]}
    records = []
    for i in range(2 * MAX_CLASSES):
        record = json.loads(lines[i % len(lines)])
        record["clip_id"] = f"extra{i}"
        record["labels"] = {f"extra{i}": "unk"}
        records.append(json.dumps(record))
    manifest.write_text("\n".join(lines + records) + "\n")
    bad_line = len(lines) + MAX_CLASSES - len(known) + 1
    config_path = write_config(corpus_dir, entries)
    start = time.perf_counter()
    assert main(["run", "--config", config_path]) == 1
    assert time.perf_counter() - start < 1.0
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "ValidationError"
    assert f"line {bad_line}: more than {MAX_CLASSES} classes" in payload["message"]


def set_first_value(entry, text):
    """Write ``text`` in place of the first value of the last row of
    ``entry``'s CSV, a training clip; returns that clip's id."""
    path = Path(entry.embeddings)
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = text
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return fields[0]


@pytest.mark.parametrize(
    "extras, error, message",
    [
        (
            {"c_grid": [1e-310]},
            "ValidationError",
            "{config}: c_grid entry must be >= " + f"{MIN_C}, got 1e-310",
        ),
        (
            {"strategy": "KLDA", "gamma": 1e308},
            "PipelineError",
            "kernel width 1e+308 overflows the frequency scale sqrt(2 gamma)"
            " [strategy=KLDA, scope=global]",
        ),
        ({"value": "1e300"}, "ValidationError", "dataset 'synthA': clip {clip!r} pools to a value"
         " beyond 3.4028234663852886e+38 in magnitude, the float32 range of embedding files"),
    ],
    ids=["c-below-min-c", "gamma-overflows-the-frequency-scale", "value-beyond-float32"],
)
def test_numbers_past_the_float_range_end_in_one_line_json_error(
    cli_corpus, capsys, extras, error, message
):
    corpus_dir, entries = cli_corpus
    extras = dict(extras)
    clip = set_first_value(entries[0], extras.pop("value")) if "value" in extras else None
    config_path = write_config(corpus_dir, entries, **extras)
    start = time.perf_counter()
    assert main(["run", "--config", config_path]) == 1
    assert time.perf_counter() - start < 5.0
    payload, _ = read_stderr_error(capsys)
    assert payload == {"error": error, "message": message.format(clip=clip, config=config_path)}


def test_frames_that_sum_past_the_float_range_end_in_one_located_json_error(
    cli_corpus, capsys
):
    # Two finite frames of 1e308 for one clip overflow when they are pooled.
    corpus_dir, entries = cli_corpus
    path = Path(entries[0].embeddings)
    header, first, *rest = path.read_text().splitlines()
    clip = first.split(",")[0]
    width = len(header.split(",")) - 2
    frames = [",".join([clip, str(frame), *["1e308"] * width]) for frame in (0, 1)]
    path.write_text("\n".join([header, *frames, *rest]) + "\n")
    config_path = write_config(corpus_dir, entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", config_path]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == "NonFiniteError"
    # Named by the clip and its frames, not by the clip's row in the pooled table.
    assert payload["message"] == (
        f"{path.resolve()}: clip {clip!r}: its 2 frames sum past the float64 range"
    )


def test_a_singular_scatter_at_zero_shrinkage_ends_in_one_line_json_error(cli_corpus, capsys):
    # Column e0 is 0.0 in every row of both datasets, so the discriminant
    # scatter has a zero row and column; shrinkage 0 leaves it singular.
    corpus_dir, entries = cli_corpus
    for entry in entries:
        path = Path(entry.embeddings)
        header, *rows = path.read_text().splitlines()
        rows = [",".join([*row.split(",")[:2], "0.0", *row.split(",")[3:]]) for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n")
    config_path = write_config(corpus_dir, entries, strategy="LDA", shrinkage=0, c_grid=[1.0])
    assert main(["run", "--config", config_path]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload == {
        "error": "PipelineError",
        "message": "the within-group scatter is singular at shrinkage 0.0, so no discriminant"
        " direction solves it; shrinkage > 0 avoids this [strategy=LDA, scope=global]",
    }


LONE_SURROGATE = "\ud800"  # json.loads accepts it; UTF-8 cannot encode it


def rename_dataset(config_path, entries):
    """Append a lone surrogate to the first dataset's name, in the config and
    in each of its manifest records."""
    config = json.loads(Path(config_path).read_text())
    config["datasets"][0]["name"] += LONE_SURROGATE
    Path(config_path).write_text(json.dumps(config))
    rewrite_records(entries[0], lambda r, i: {**r, "dataset": r["dataset"] + LONE_SURROGATE})


def add_class_on_first_record(config_path, entries):
    def edit(record, i):
        labels = {**record["labels"], "class" + LONE_SURROGATE: "pos"} if i == 0 else record["labels"]
        return {**record, "labels": labels}

    rewrite_records(entries[0], edit)


def rename_reported_class(config_path, entries):
    """Run, then rename class0 in the written report.json."""
    assert main(["run", "--config", config_path]) == 0
    path = Path(config_path).parent / "results" / "report.json"
    path.write_text(path.read_text().replace('"class0"', '"class0\\ud800"'))


def rename_reported_class_key(config_path, entries):
    """Run, then rename class0 only where it keys an object in report.json."""
    assert main(["run", "--config", config_path]) == 0
    path = Path(config_path).parent / "results" / "report.json"
    text = path.read_text()
    assert '"class0": ' in text
    path.write_text(text.replace('"class0": ', '"class0\\ud800": '))


def add_genre_rule_key(config_path, entries):
    path = Path(config_path).parent / "genres.json"
    genre_map = json.loads(path.read_text())
    genre_map.setdefault("rules", {})["rock" + LONE_SURROGATE] = genre_map["targets"][0]
    path.write_text(json.dumps(genre_map))


def list_class(config_path, entries):
    """Give the config a classes list whose second entry holds a lone surrogate."""
    config = json.loads(Path(config_path).read_text())
    config["classes"] = ["class0", "class1" + LONE_SURROGATE]
    Path(config_path).write_text(json.dumps(config))


def add_genre_on_third_record(config_path, entries):
    def edit(record, i):
        genres = record["genres"] + (["rock" + LONE_SURROGATE] if i == 2 else [])
        return {**record, "genres": genres}

    rewrite_records(entries[1], edit)


def write_spec(config_path, entries):
    """Write a synth spec whose second domain name holds a lone surrogate."""
    spec = {**CLI_SPEC_JSON, "domain_names": ["synthA", "synthB" + LONE_SURROGATE]}
    (Path(config_path).parent / "spec.json").write_text(json.dumps(spec))


@pytest.mark.parametrize(
    "command, edit, error, message",
    [
        (command, add_class_on_first_record, "ParseError", "line 1: lone UTF-16 surrogate")
        for command in ("run", "matrix")
    ]
    + [
        (command, rename_dataset, "ValidationError", "config holds a lone UTF-16 surrogate")
        for command in ("run", "matrix")
    ]
    + [
        ("report", edit, "ValidationError", "report holds a lone UTF-16 surrogate")
        for edit in (rename_reported_class, rename_reported_class_key)
    ]
    + [
        ("run", add_genre_rule_key, "ValidationError", "genre map holds a lone UTF-16 surrogate"),
        ("run", list_class, "ValidationError", "config holds a lone UTF-16 surrogate"),
        ("run", add_genre_on_third_record, "ParseError", "line 3: lone UTF-16 surrogate"),
        ("synth", write_spec, "ValidationError", "synth spec holds a lone UTF-16 surrogate"),
    ],
    ids=[
        "manifest-class-run",
        "manifest-class-matrix",
        "dataset-run",
        "dataset-matrix",
        "report",
        "report-class-key",
        "genre-map-rule-key",
        "config-classes-entry",
        "manifest-genres-entry",
        "synth-spec-domain-name",
    ],
)
def test_a_lone_surrogate_ends_in_one_line_json_error(
    cli_corpus, capsys, command, edit, error, message
):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, output_dir="results")
    edit(config_path, entries)
    capsys.readouterr()
    if command == "report":
        argv = ["report", "--in", str(corpus_dir / "results")]
    elif command == "synth":
        argv = ["synth", "--spec", str(corpus_dir / "spec.json"), "--out", str(corpus_dir / "out")]
    else:
        argv = [command, "--config", config_path]
    assert main(argv) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"] == error
    assert message in payload["message"] and "\\ud800'" in payload["message"]


@pytest.mark.parametrize(
    "kind, too_deep, refused",
    [
        ("config", "config is not valid JSON", "config holds a lone UTF-16 surrogate '\\ud800'"),
        ("manifest", "line 1: JSON nested too deeply", "line 1: lone UTF-16 surrogate '\\ud800'"),
    ],
)
def test_a_lone_surrogate_at_the_deepest_parsed_nesting_is_named(
    cli_corpus, capsys, monkeypatch, kind, too_deep, refused
):
    # The encoder that finds a lone surrogate recurses once per nesting level,
    # as the parser does. At the deepest nesting the parser accepts it must
    # still name the surrogate, not run out of stack.
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries)

    def message(depth):
        nested = "[" * depth + '"\\ud800"' + "]" * depth
        if kind == "config":
            Path(config_path).write_text('{"classes": ' + nested + "}")
        else:
            Path(entries[0].manifest).write_text('{"clip_id": ' + nested + "}\n")
        assert main(["run", "--config", config_path]) == 1
        payload, _ = read_stderr_error(capsys)
        return payload["message"]

    # The deepest nesting the parser alone accepts, with the check switched off.
    with monkeypatch.context() as patch:
        for reader in ("debiaskit.config", "debiaskit.data"):
            patch.setattr(f"{reader}.lone_surrogate", lambda obj: None)
        low, high = 1, sys.getrecursionlimit()
        assert too_deep not in message(low) and too_deep in message(high)
        while high - low > 1:
            mid = (low + high) // 2
            if too_deep in message(mid):
                high = mid
            else:
                low = mid
    assert refused in message(low)


def test_a_pooled_value_at_the_float32_bound_runs(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    set_first_value(entries[0], repr(float(np.finfo(np.float32).max)))
    assert main(["run", "--config", write_config(corpus_dir, entries, strategy="LDA")]) == 0
    assert capsys.readouterr().err == ""


def test_report_requires_existing_report(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 1
    payload, _ = read_stderr_error(capsys)
    assert "no report.json" in payload["message"]


def test_run_reports_correlations_and_fig3_renders_every_class(cli_corpus, capsys):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy="LDA", output_dir="results")
    assert main(["run", "--config", config_path]) == 0
    capsys.readouterr()
    report = load_report(str(corpus_dir / "results" / "report.json"))
    assert [c.domain for c in report.correlations] == ["synthA", "synthB"]
    assert main(["report", "--in", str(corpus_dir / "results"), "--layout", "fig3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for class_name in report.classes:
        (line,) = [ln for ln in lines if ln.split()[:1] == [class_name]]
        for entry in report.correlations:
            assert f"{entry.class_corr[class_name]:+.2f}" in line


# --- installed entry point -------------------------------------------------


def test_console_script_shows_usage():
    result = subprocess.run(
        [sys.executable, "-c", "import debiaskit.cli as c, sys; sys.exit(c.main(['--help']))"],
        capture_output=True,
        text=True,
    )
    # argparse --help exits via SystemExit(0)
    assert result.returncode == 0
    for command in ("synth", "run", "matrix", "report"):
        assert command in result.stdout


# The preamble maps "scipy" to None, so any scipy import in this interpreter
# raises ImportError; the installed packages are left as they are.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from debiaskit import cli
from debiaskit.cli import main
from debiaskit.config import load_config
from debiaskit.data import EmbeddingTable, load_embeddings, save_embeddings
loaded = [name for name, module in sys.modules.items() if name.startswith("scipy") and module]
assert not loaded, loaded
sys.exit(main(sys.argv[1:]))
"""


def test_runtime_needs_no_scipy(tmp_path):
    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-c", WITHOUT_SCIPY, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CLI_SPEC_JSON))
    run("synth", "--spec", str(spec_path), "--out", str(tmp_path / "corpus"))
    config_path = tmp_path / "corpus" / "config.json"
    config = json.loads(config_path.read_text())
    config.update(c_grid=[0.1, 10.0], cv_folds=2)
    config_path.write_text(json.dumps(config))
    # LDA solves the discriminant system, KLDA takes the median distance, and
    # every cell ranks scores for its AUC.
    run("matrix", "--config", str(config_path), "--strategies", "LDA,KLDA", "--scopes", "global")
