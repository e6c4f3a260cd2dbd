"""Report assembly, persistence, fingerprinting, and the three table layouts."""

import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.config import SCOPES, STRATEGIES, effective_scope
from debiaskit.errors import IncompleteMatrixError, LayoutError, ValidationError
from debiaskit.report import (
    BASELINE,
    DELTA_FLAG_PP,
    LAYOUTS,
    Cell,
    CorrelationEntry,
    ExperimentReport,
    build_report,
    config_fingerprint,
    format_value_with_delta,
    load_report,
    merge_reports,
    _table_text,
    _transfer_columns,
    render_table,
    save_report,
    save_table,
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
    merged = merge_reports([first, second], MATRIX_CONFIG)
    assert len(merged.cells) == 8
    assert merged.cell("north", "south", "LDA", "global").mean_auc == pytest.approx(0.89)
    assert merged.datasets == DATASETS
    assert merged.bias_fit_notes == {**first.bias_fit_notes, **second.bias_fit_notes}
    assert merged.config == MATRIX_CONFIG
    assert "seeds" not in merged.to_dict()
    assert merged.fingerprint == config_fingerprint(MATRIX_CONFIG)


def test_merge_rejects_a_repeated_report():
    first, second = baseline_plus_lda()
    with pytest.raises(ValidationError, match="duplicate"):
        merge_reports([first, second, first], MATRIX_CONFIG)


def test_merge_rejects_mismatched_classes():
    first, _ = baseline_plus_lda()
    other = build_report(
        datasets=DATASETS,
        classes=("guitar",),
        cells=[Cell("north", "north", "none", "global", {"guitar": 0.9})],
        correlations=[],
        genre_histogram={},
        config={},
        bias_fit_notes={},
    )
    with pytest.raises(ValidationError):
        merge_reports([first, other], MATRIX_CONFIG)


def test_merge_empty_rejected():
    with pytest.raises(ValidationError):
        merge_reports([], MATRIX_CONFIG)


def test_save_load_round_trip(tmp_path):
    first, second = baseline_plus_lda()
    merged = merge_reports([first, second], MATRIX_CONFIG)
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
    # The derived seeds are not a report field: the config's seed sets them.
    for field, value in (("extra", 1), ("seeds", {}), ("bias_fit_notes", [])):
        with pytest.raises(ValidationError, match=field):
            ExperimentReport.from_dict({**stored(), field: value})
    repeated = stored()
    repeated["cells"].append(repeated["cells"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        ExperimentReport.from_dict(repeated)


def test_fingerprint_stable_and_sensitive():
    config = {"strategy": "LDA", "scope": "global", "shrinkage": 0.01, "seed": 5}
    assert config_fingerprint(config) == config_fingerprint(dict(reversed(config.items())))
    assert config_fingerprint(config) != config_fingerprint({**config, "shrinkage": 0.02})
    assert config_fingerprint(config) != config_fingerprint({**config, "seed": 6})


def test_fingerprint_is_the_digest_of_the_config_alone():
    config = {"strategy": "LDA", "scope": "global", "seed": 5}
    canonical = json.dumps(config, sort_keys=True).encode("utf-8")
    assert config_fingerprint(config) == hashlib.sha256(canonical).hexdigest()


def test_report_fingerprint_set_by_builder():
    first, _ = baseline_plus_lda()
    assert first.fingerprint == config_fingerprint(first.config)


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
    message = r"^unknown layout 'fig9' \(expected table1, fig3 or fig2\)$"
    with pytest.raises(LayoutError, match=message):
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


# --- the renderers against a reference -------------------------------------
#
# The table1 renderer and CSV field rule these replaced, kept as the reference:
# on any report whose names hold no CR, the renderers must give the same bytes.


def _reference_csv_field(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _reference_csv_text(headers, rows) -> str:
    out = io.StringIO()
    out.write(",".join(headers) + "\n")
    for row in rows:
        out.write(",".join(_reference_csv_field(v) for v in row) + "\n")
    return out.getvalue()


def _reference_render_table1(report):
    seen = {}
    for cell in report.cells:
        seen.setdefault((cell.strategy, cell.scope), None)
    combos = tuple(seen)
    strategies = [s for s in STRATEGIES if any(c[0] == s for c in combos)]
    if not strategies:
        raise LayoutError("report holds no cells to render")
    scopes = [s for s in SCOPES if any(c[1] == s and c[0] != BASELINE for c in combos)]
    if not scopes:
        scopes = ["global"]
    baseline_cells = None
    if BASELINE in strategies:
        baseline_cells = {}
        for train, test, _ in _transfer_columns(report):
            baseline_cells[(train, test)] = report.cell(train, test, BASELINE, "global").mean_auc
    columns = _transfer_columns(report)
    headers = ["strategy"] + [
        f"{scope}:{train}-{test}" for scope in scopes for train, test, _ in columns
    ]
    text_rows, csv_rows = [], []
    for strategy in strategies:
        row = [strategy]
        for scope in scopes:
            actual_scope = effective_scope(strategy, scope)
            for train, test, is_cross in columns:
                try:
                    cell = report.cell(train, test, strategy, actual_scope)
                except IncompleteMatrixError:
                    row.append("-")
                    continue
                base = None
                if strategy != BASELINE and is_cross and baseline_cells is not None:
                    base = baseline_cells[(train, test)]
                row.append(format_value_with_delta(cell.mean_auc, base))
                if strategy != BASELINE and baseline_cells is not None:
                    delta = cell.mean_auc - baseline_cells[(train, test)]
                    flagged = int(abs(delta * 100.0) > DELTA_FLAG_PP)
                elif strategy == BASELINE:
                    delta, flagged = 0.0, 0
                else:
                    delta, flagged = "", 0
                csv_rows.append(
                    [strategy, actual_scope, train, test, cell.mean_auc, delta, flagged]
                )
        text_rows.append(row)
    class_rows = [
        [cell.strategy, cell.scope, cell.train, cell.test, cls, cell.class_auc[cls]]
        for cell in report.cells
        for cls in report.classes
    ]
    csv_text = _reference_csv_text(
        ["strategy", "scope", "train", "test", "mean_auc", "delta", "flagged"], csv_rows
    )
    csv_text += _reference_csv_text(
        ["strategy", "scope", "train", "test", "class", "auc"], class_rows
    )
    return _table_text(headers, text_rows), csv_text


# Names drawn from letters and the characters the CSV must quote, except CR,
# which the reference left bare.
NAMES = st.text(alphabet='ab,"\n ', min_size=1, max_size=4)


@st.composite
def random_reports(draw):
    datasets = tuple(draw(st.lists(NAMES, min_size=2, max_size=2, unique=True)))
    classes = tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
    a, b = datasets
    keys = [
        (train, test, strategy, scope)
        for strategy in STRATEGIES
        for scope in SCOPES
        if scope == effective_scope(strategy, scope)  # the only scopes a run writes
        for train, test in ((a, a), (b, b), (b, a), (a, b))
    ]
    # With the whole baseline, with none of it, or with a random part of it.
    baseline = [k for k in keys if k[2] == BASELINE and k[3] == "global"]
    others = [k for k in keys if k not in baseline]
    part = draw(st.lists(st.sampled_from(baseline), unique=True))
    chosen = draw(st.sampled_from([baseline, [], part]))
    chosen = chosen + draw(st.lists(st.sampled_from(others), unique=True, max_size=12))
    auc = st.floats(min_value=0.0, max_value=1.0)
    cells = [Cell(*key, {c: draw(auc) for c in classes}) for key in chosen]
    return build_report(
        datasets=datasets,
        classes=classes,
        cells=cells,
        correlations=[],
        genre_histogram={},
        config={},
        bias_fit_notes={},
    )


@settings(max_examples=300, deadline=None)
@given(random_reports())
def test_table1_renders_the_reference_bytes(report):
    try:
        expected = _reference_render_table1(report)
    except (IncompleteMatrixError, LayoutError) as exc:
        with pytest.raises(type(exc)):
            render_table(report, "table1")
        return
    rendered = render_table(report, "table1")
    assert (rendered.text, rendered.csv) == expected


AWKWARD = ("car\rriage", "line\nfeed", "com,ma", 'qu"ote')


def awkward_report():
    """Every string field of every layout's CSV holds CR, LF, a comma or a
    double quote."""
    datasets = ("car\rriage", "line\nfeed")
    classes = ("com,ma", 'qu"ote', "car\rriage")
    cells = [
        Cell(train, test, strategy, "global", {c: 0.75 for c in classes})
        for strategy in ("none", "LDA")
        for train in datasets
        for test in datasets
    ]
    correlations = [
        CorrelationEntry(d, "LDA", "global", "original", {c: 0.5 for c in classes})
        for d in datasets
    ]
    histogram = {d: {c: {g: 3 for g in AWKWARD} for c in classes} for d in datasets}
    return build_report(
        datasets=datasets,
        classes=classes,
        cells=cells,
        correlations=correlations,
        genre_histogram=histogram,
        config={},
        bias_fit_notes={},
    )


def test_every_layout_csv_reads_back_names_with_line_ends_and_quotes():
    report = awkward_report()
    datasets, classes = set(report.datasets), set(report.classes)
    expected = {
        "table1": {"train": datasets, "test": datasets, "class": classes},
        "fig3": {"domain": datasets, "class": classes | {"MEAN_ABS"}},
        "fig2": {"dataset": datasets, "class": classes, "genre": set(AWKWARD)},
    }
    assert list(expected) == list(LAYOUTS)
    for layout, columns in expected.items():
        rows = csv.reader(io.StringIO(render_table(report, layout).csv, newline=""))
        read_back: dict[str, set] = {}
        header = None
        for row in rows:
            if row[0] in ("strategy", "domain", "dataset"):
                header = row
                continue
            # Every row comes back whole: no name splits it.
            assert len(row) == len(header), (layout, row)
            for name, value in zip(header, row):
                read_back.setdefault(name, set()).add(value)
        assert {name: read_back[name] for name in columns} == columns, layout


def test_save_table_writes_the_rendered_bytes(tmp_path):
    rendered = render_table(awkward_report(), "fig2")
    save_table(rendered, str(tmp_path), "fig2")
    assert (tmp_path / "fig2.txt").read_bytes() == rendered.text.encode("utf-8")
    assert (tmp_path / "fig2.csv").read_bytes() == rendered.csv.encode("utf-8")
