"""Command-line interface: corpus generation, runs, the matrix, re-rendering,
and the JSON error contract."""

import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SMALL_SPEC, write_corpus
from debiaskit import cli
from debiaskit.cli import main
from debiaskit.pipeline import load_config
from debiaskit.report import load_report

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


def write_config(corpus_dir, entries, *, strategy="none", output_dir=None, **extras):
    payload = {
        "datasets": [
            {
                "name": e.name,
                "embeddings": Path(e.embeddings).name,
                "manifest": Path(e.manifest).name,
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
    config = load_config(str(out_dir / "config.json"))
    assert config.datasets[0].fmt == "binary"


def test_synth_rejects_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"dim": 2, "n_classes": 5}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 1
    payload, _ = read_stderr_error(capsys)
    assert payload["error"]
    assert payload["message"]


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
def test_run_warns_once_about_an_ignored_scope(cli_corpus, capsys, strategy):
    corpus_dir, entries = cli_corpus
    config_path = write_config(corpus_dir, entries, strategy=strategy, scope="classwise")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", config_path]) == 0
    assert [str(w.message) for w in caught] == [
        f"scope 'classwise' is ignored for strategy {strategy!r} (no bias fit)"
    ]


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
    "seeds": {},
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


def edit_first_cell(**fields):
    return {**REPORT, "cells": [{**REPORT["cells"][0], **fields}] + REPORT["cells"][1:]}


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


def strip_labels(entries):
    for entry in entries:
        path = Path(entry.manifest)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(json.dumps({**r, "labels": {}}) + "\n" for r in records))


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
