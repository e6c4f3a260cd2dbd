"""The benchmark's trace seams: every function perfbench/tracing.py wraps
must exist where it looks it up, and a traced matrix must reach every layer.

The benchmark runs untraced by default, so without this a renamed or moved
traced function would fail only in the traced benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import SMALL_SPEC, write_corpus
from debiaskit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = perfbench_module("tracing")
workloads = perfbench_module("workloads")


@pytest.mark.parametrize("targets", ["matrix_targets", "setup_targets"])
def test_every_traced_name_resolves_to_a_callable(targets):
    for owner, attr, span, _, _ in getattr(tracing, targets)():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} (span {span})"


def test_a_traced_kernel_matrix_covers_every_layer(tmp_path, capsys):
    entries, _, gm_path = write_corpus(tmp_path, SMALL_SPEC)
    config = {
        "datasets": [
            {"name": e.name, "embeddings": e.embeddings, "manifest": e.manifest} for e in entries
        ],
        "genre_map": gm_path,
        "strategy": "none",
        "seed": 7,
        "c_grid": [0.1, 1.0],
        "cv_folds": 2,
        "output_dir": str(tmp_path / "results"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["matrix", "--config", str(config_path), "--strategies", "KLDA", "--scopes", "global"]
    tracer = tracing.Tracer(tracing.matrix_targets())
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert status == 0
    _, by_layer, _ = tracing.span_totals(tracer.take())
    tracing.check_coverage(by_layer, workloads.MATRIX_LAYERS, "in-process KLDA matrix")
