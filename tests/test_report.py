"""Report assembly, persistence, fingerprinting, and the three table layouts."""

import csv
import io
import json
import math

import pytest

from debiaskit.errors import IncompleteMatrixError, LayoutError, ValidationError
from debiaskit.report import (
    Cell,
    CorrelationEntry,
    ExperimentReport,
    build_report,
    config_fingerprint,
    format_value_with_delta,
    load_report,
    merge_reports,
    render_table,
    save_report,
)

DATASETS = ("north", "south")
CLASSES = ("guitar", "voice")


def make_cell(train, test, strategy, scope, aucs):
    class_auc = dict(zip(CLASSES, aucs))
    return Cell(train, test, strategy, scope, class_auc)


def full_matrix(strategy, scope, values):
    """Four cells (within a, within b, a->b, b->a) at the same per-class AUCs."""
    a, b = DATASETS
    return [
        make_cell(a, a, strategy, scope, values["aa"]),
        make_cell(b, b, strategy, scope, values["bb"]),
        make_cell(a, b, strategy, scope, values["ab"]),
        make_cell(b, a, strategy, scope, values["ba"]),
    ]


def assemble(cells, correlations=(), histogram=None, notes=None):
    return build_report(
        datasets=DATASETS,
        classes=CLASSES,
        cells=cells,
        correlations=list(correlations),
        genre_histogram=histogram or {},
        seeds={"sampling": 1, "rff": 2, "cv": 3},
        config={"strategy": "mixed", "scope": "global"},
        bias_fit_notes=notes or {},
    )


# --- value formatting -----------------------------------------------------


def test_positive_delta_rendering_and_flag():
    assert format_value_with_delta(0.8587, 0.8501) == "85.87 (+0.86)*"


def test_negative_delta_rendering_and_flag():
    assert format_value_with_delta(0.8456, 0.8547) == "84.56 (-0.91)*"


def test_zero_delta_rendering():
    assert format_value_with_delta(0.8547, 0.8547) == "85.47 (0.0)"
    # A sub-half-hundredth difference also collapses to the zero form.
    assert format_value_with_delta(0.854701, 0.8547) == "85.47 (0.0)"


def test_small_unflagged_delta():
    rendered = format_value_with_delta(0.8548, 0.8547)
    assert rendered == "85.48 (+0.01)"
    assert "*" not in rendered


def test_flag_threshold_is_strict():
    # 2^-10 above the baseline is 0.09765625pp: prints as "+0.10" but sits
    # strictly below the flag threshold, so no asterisk may appear.
    at_threshold = format_value_with_delta(0.5 + 2**-10, 0.5)
    assert at_threshold == "50.10 (+0.10)"
    assert format_value_with_delta(0.5 + 2**-9, 0.5).endswith("*")


def test_no_baseline_no_parenthetical():
    assert format_value_with_delta(0.8547, None) == "85.47"


# --- report assembly ------------------------------------------------------


def test_single_cell_mean():
    report = build_report(
        datasets=DATASETS,
        classes=("guitar",),
        cells=[Cell("north", "north", "none", "global", {"guitar": 0.9})],
        correlations=[],
        genre_histogram={},
        seeds={},
        config={},
        bias_fit_notes={},
    )
    assert report.cells[0].mean_auc == 0.9


def test_mean_matches_summation_oracle():
    names = tuple(f"c{i}" for i in range(10))
    aucs = {name: 0.5 + 0.04 * i for i, name in enumerate(names)}
    report = build_report(
        datasets=DATASETS,
        classes=names,
        cells=[Cell("north", "north", "none", "global", aucs)],
        correlations=[],
        genre_histogram={},
        seeds={},
        config={},
        bias_fit_notes={},
    )
    total = 0.0
    for name in names:
        total += aucs[name]
    assert report.cells[0].mean_auc == pytest.approx(total / 10, abs=1e-15)


def test_stored_mean_is_recomputed_not_trusted():
    cell = Cell("north", "north", "none", "global", {"guitar": 0.8, "voice": 0.6}, 0.99)
    report = assemble([cell])
    assert report.cells[0].mean_auc == pytest.approx(0.7)


def test_means_are_left_to_build_report():
    cell = Cell("north", "north", "none", "global", {"guitar": 0.8, "voice": 0.6})
    entry = CorrelationEntry("north", "none", "global", "original", {"guitar": -0.4, "voice": 0.2})
    assert math.isnan(cell.mean_auc) and math.isnan(entry.mean_abs_corr)
    report = assemble([cell], correlations=[entry])
    assert report.cells[0].mean_auc == pytest.approx(0.7)
    assert report.correlations[0].mean_abs_corr == pytest.approx(0.3)


def test_missing_class_in_cell_rejected():
    cell = Cell("north", "north", "none", "global", {"guitar": 0.8})
    with pytest.raises(ValidationError, match="voice"):
        assemble([cell])


def test_report_without_classes_rejected():
    with pytest.raises(ValidationError, match="at least one class"):
        build_report(
            datasets=DATASETS,
            classes=(),
            cells=[Cell("north", "north", "none", "global", {})],
            correlations=[],
            genre_histogram={},
            seeds={},
            config={},
            bias_fit_notes={},
        )


def test_duplicate_cell_keys_rejected():
    cell = make_cell("north", "north", "none", "global", (0.9, 0.8))
    with pytest.raises(ValidationError):
        assemble([cell, cell])


def test_out_of_range_auc_rejected():
    cell = make_cell("north", "north", "none", "global", (1.2, 0.8))
    with pytest.raises(ValidationError):
        assemble([cell])


def test_cell_lookup_failure_names_the_cell():
    report = assemble(full_matrix("none", "global", {k: (0.9, 0.8) for k in ("aa", "bb", "ab", "ba")}))
    with pytest.raises(IncompleteMatrixError, match="strategy=LDA"):
        report.cell("north", "south", "LDA", "global")


# --- merge / persistence / fingerprint ------------------------------------


MATRIX_CONFIG = {"strategy": None, "scope": None}
MATRIX_SEEDS = {"master": 11}


def baseline_plus_lda():
    values_none = {"aa": (0.95, 0.93), "bb": (0.94, 0.92), "ab": (0.86, 0.84), "ba": (0.87, 0.84)}
    values_lda = {"aa": (0.95, 0.93), "bb": (0.94, 0.92), "ab": (0.90, 0.88), "ba": (0.90, 0.89)}
    skipped = {"genre": "rock", "class": None, "n_a": 3, "n_b": 9}
    first = assemble(
        full_matrix("none", "global", values_none),
        notes={"none:global": {"skipped_genre_pairs": [], "degenerate_fits": []}},
    )
    second = assemble(
        full_matrix("LDA", "global", values_lda),
        notes={"LDA:global": {"skipped_genre_pairs": [skipped], "degenerate_fits": []}},
    )
    return first, second


def test_merge_combines_cells_and_notes_under_the_given_config():
    first, second = baseline_plus_lda()
    merged = merge_reports([first, second], MATRIX_CONFIG, MATRIX_SEEDS)
    assert len(merged.cells) == 8
    assert merged.cell("north", "south", "LDA", "global").mean_auc == pytest.approx(0.89)
    assert merged.datasets == DATASETS
    assert merged.bias_fit_notes == {**first.bias_fit_notes, **second.bias_fit_notes}
    assert merged.config == MATRIX_CONFIG
    assert merged.seeds == MATRIX_SEEDS
    assert merged.fingerprint == config_fingerprint(MATRIX_CONFIG, MATRIX_SEEDS)


def test_merge_rejects_a_repeated_report():
    first, second = baseline_plus_lda()
    with pytest.raises(ValidationError, match="duplicate"):
        merge_reports([first, second, first], MATRIX_CONFIG, MATRIX_SEEDS)


def test_merge_rejects_mismatched_classes():
    first, _ = baseline_plus_lda()
    other = build_report(
        datasets=DATASETS,
        classes=("guitar",),
        cells=[Cell("north", "north", "none", "global", {"guitar": 0.9})],
        correlations=[],
        genre_histogram={},
        seeds={},
        config={},
        bias_fit_notes={},
    )
    with pytest.raises(ValidationError):
        merge_reports([first, other], MATRIX_CONFIG, MATRIX_SEEDS)


def test_merge_empty_rejected():
    with pytest.raises(ValidationError):
        merge_reports([], MATRIX_CONFIG, MATRIX_SEEDS)


def test_save_load_round_trip(tmp_path):
    first, second = baseline_plus_lda()
    merged = merge_reports([first, second], MATRIX_CONFIG, MATRIX_SEEDS)
    path = tmp_path / "report.json"
    save_report(merged, str(path))
    loaded = load_report(str(path))
    assert loaded == merged
    # Serialisation is byte-stable: saving the loaded report reproduces the file.
    again = tmp_path / "again.json"
    save_report(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_loaded_report_is_built_and_checked_like_a_run_report():
    first, _ = baseline_plus_lda()

    def stored():
        return json.loads(json.dumps(first.to_dict()))

    tampered = stored()
    tampered["cells"][0]["mean_auc"] = 0.5
    tampered["fingerprint"] = "0" * 64
    assert ExperimentReport.from_dict(tampered) == first
    for field, value in (("extra", 1), ("bias_fit_notes", [])):
        with pytest.raises(ValidationError, match=field):
            ExperimentReport.from_dict({**stored(), field: value})
    repeated = stored()
    repeated["cells"].append(repeated["cells"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        ExperimentReport.from_dict(repeated)


def test_fingerprint_stable_and_sensitive():
    config = {"strategy": "LDA", "scope": "global", "shrinkage": 0.01}
    seeds = {"sampling": 5, "rff": 6, "cv": 7}
    assert config_fingerprint(config, seeds) == config_fingerprint(dict(config), dict(seeds))
    assert config_fingerprint(config, seeds) != config_fingerprint(
        {**config, "shrinkage": 0.02}, seeds
    )
    assert config_fingerprint(config, seeds) != config_fingerprint(
        config, {**seeds, "cv": 8}
    )


def test_report_fingerprint_set_by_builder():
    first, _ = baseline_plus_lda()
    assert first.fingerprint == config_fingerprint(first.config, first.seeds)


# --- table1 layout --------------------------------------------------------


def paper_style_report():
    # Cross-domain numbers echo a published two-dataset instrument table;
    # within-domain numbers are arbitrary but fixed.
    none_cells = full_matrix(
        "none",
        "global",
        {"aa": (0.95, 0.94), "bb": (0.90, 0.89), "ab": (0.8501, 0.8501), "ba": (0.8547, 0.8547)},
    )
    k_cells = full_matrix(
        "K",
        "global",
        {"aa": (0.95, 0.94), "bb": (0.90, 0.89), "ab": (0.8587, 0.8587), "ba": (0.8456, 0.8456)},
    )
    lda_cells = full_matrix(
        "LDA",
        "global",
        {"aa": (0.95, 0.94), "bb": (0.90, 0.89), "ab": (0.8501, 0.8501), "ba": (0.8547, 0.8547)},
    )
    return assemble(none_cells + k_cells + lda_cells)


def test_table1_text_mirrors_published_formatting():
    rendered = render_table(paper_style_report(), "table1")
    assert "85.87 (+0.86)*" in rendered.text
    assert "84.56 (-0.91)*" in rendered.text
    assert "85.01 (0.0)" in rendered.text
    assert "85.47 (0.0)" in rendered.text
    lines = rendered.text.splitlines()
    assert lines[0].startswith("strategy")
    # Strategy order: baseline first, then LDA before the kernel variant.
    order = [line.split()[0] for line in lines[2:]]
    assert order == ["none", "LDA", "K"]


def test_table1_csv_is_machine_faithful():
    rendered = render_table(paper_style_report(), "table1")
    rows = list(csv.reader(io.StringIO(rendered.csv)))
    header = rows[0]
    assert header == ["strategy", "scope", "train", "test", "mean_auc", "delta", "flagged"]
    body = [r for r in rows[1:] if len(r) == 7 and r[0] != "strategy"]
    k_cross = next(
        r for r in body if r[0] == "K" and r[2] == "north" and r[3] == "south"
    )
    assert float(k_cross[4]) == pytest.approx(0.8587)
    assert float(k_cross[5]) == pytest.approx(0.8587 - 0.8501)
    assert k_cross[6] == "1"
    none_row = next(
        r for r in body if r[0] == "none" and r[2] == "north" and r[3] == "south"
    )
    assert float(none_row[5]) == 0.0
    assert none_row[6] == "0"
    # Per-class rows ride along after the summary block.
    class_header_idx = next(
        i for i, r in enumerate(rows) if r[:5] == ["strategy", "scope", "train", "test", "class"]
    )
    class_rows = rows[class_header_idx + 1 :]
    assert any(r[4] == "guitar" and float(r[5]) == 0.8587 for r in class_rows)


def test_table1_without_baseline_renders_plain_values():
    # A single-strategy report (e.g. one `run` invocation) has no baseline
    # cells; the table renders without delta annotations and the CSV leaves
    # the delta field empty rather than fabricating zeros.
    values = {"aa": (0.95, 0.94), "bb": (0.90, 0.89), "ab": (0.86, 0.85), "ba": (0.86, 0.85)}
    lda_only = assemble(full_matrix("LDA", "global", values))
    rendered = render_table(lda_only, "table1")
    data_line = rendered.text.split("\n")[2]
    assert data_line.startswith("LDA")
    assert "(" not in data_line
    rows = list(csv.reader(io.StringIO(rendered.csv)))
    mean_rows = [r for r in rows[1:] if r[:1] == ["LDA"] and len(r) == 7]
    assert len(mean_rows) == 4
    for row in mean_rows:
        assert row[5] == ""  # no delta recorded
        assert row[6] == "0"


def test_table1_baseline_only_renders_without_deltas():
    values = {"aa": (0.95, 0.94), "bb": (0.90, 0.89), "ab": (0.86, 0.85), "ba": (0.86, 0.85)}
    report = assemble(full_matrix("none", "global", values))
    rendered = render_table(report, "table1")
    assert "none" in rendered.text
    assert "(" not in rendered.text.split("\n")[2]


def test_table1_csv_quotes_awkward_dataset_names():
    tricky = ("data,set", 'qu"oted')
    cells = [
        Cell(t, e, "none", "global", {"guitar": 0.9, "voice": 0.8})
        for t in tricky
        for e in tricky
    ]
    report = build_report(
        datasets=tricky,
        classes=CLASSES,
        cells=cells,
        correlations=[],
        genre_histogram={},
        seeds={},
        config={},
        bias_fit_notes={},
    )
    rendered = render_table(report, "table1")
    rows = list(csv.reader(io.StringIO(rendered.csv)))
    assert any("data,set" in r for r in rows[1:])
    assert any('qu"oted' in r for r in rows[1:])


def test_empty_report_rejected_by_table1():
    report = assemble([])
    with pytest.raises(LayoutError):
        render_table(report, "table1")


def test_unknown_layout_rejected():
    report = assemble([])
    with pytest.raises(LayoutError):
        render_table(report, "fig9")


# --- fig3 layout (weight-bias correlations) -------------------------------


def correlation_report():
    entries = [
        CorrelationEntry(
            "north", "none", "global", "original", {"guitar": 0.41, "voice": -0.12}, 0.265
        ),
        CorrelationEntry(
            "south", "none", "global", "original", {"guitar": 0.38, "voice": -0.05}, 0.215
        ),
    ]
    return assemble([], correlations=entries)


def test_fig3_text_and_csv():
    rendered = render_table(correlation_report(), "fig3")
    assert "+0.41" in rendered.text
    assert "-0.12" in rendered.text
    assert "(0.27)" in rendered.text  # mean |c| row, two decimals
    rows = list(csv.reader(io.StringIO(rendered.csv)))
    assert rows[0] == ["domain", "strategy", "scope", "space", "class", "correlation"]
    guitar = next(r for r in rows[1:] if r[0] == "north" and r[4] == "guitar")
    assert float(guitar[5]) == 0.41
    mean_row = next(r for r in rows[1:] if r[0] == "north" and r[4] == "MEAN_ABS")
    assert float(mean_row[5]) == 0.265


def test_fig3_requires_correlations():
    with pytest.raises(LayoutError):
        render_table(assemble([]), "fig3")


# --- fig2 layout (genre histograms) ---------------------------------------


def test_fig2_counts_render():
    histogram = {
        "north": {"guitar": {"rock": 120, "jazz": 30}, "voice": {"rock": 80}},
        "south": {"guitar": {"jazz": 200}, "voice": {"rock": 10, "jazz": 5}},
    }
    report = assemble([], histogram=histogram)
    rendered = render_table(report, "fig2")
    assert "rock" in rendered.text and "jazz" in rendered.text
    rows = list(csv.reader(io.StringIO(rendered.csv)))
    assert rows[0] == ["dataset", "class", "genre", "count"]
    jazz_south = next(
        r for r in rows[1:] if r[0] == "south" and r[1] == "guitar" and r[2] == "jazz"
    )
    assert jazz_south[3] == "200"
    # A genre absent from a (dataset, class) pair renders as zero, not missing.
    rock_south_guitar = next(
        r for r in rows[1:] if r[0] == "south" and r[1] == "guitar" and r[2] == "rock"
    )
    assert rock_south_guitar[3] == "0"


def test_fig2_requires_histogram():
    with pytest.raises(LayoutError):
        render_table(assemble([]), "fig2")
