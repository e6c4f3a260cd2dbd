"""Experiment reports: assembly, JSON persistence, table rendering.

One report can hold a single strategy's cells or a whole strategy x scope
matrix; the cell key is (train, test, strategy, scope). Every report, run
or read from a file, is made by ``build_report``, which checks its cells and
recomputes every mean and the fingerprint. ``LAYOUTS`` lists the rendered
layouts: "table1" (strategy rows, within/cross transfer columns, deltas
against the no-debias baseline), "fig3" (per-class bias correlations), "fig2"
(genre histograms per dataset and class). Text tables round to two decimals;
the CSV carries full precision, quotes as the csv module does and is
byte-stable across re-runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace

from .config import (
    BASELINE, SCOPES, STRATEGIES, _keyed, _number, _typed, effective_scope, read_json, write_json
)
from .data import csv_field
from .errors import IncompleteMatrixError, LayoutError, ValidationError, located

DELTA_FLAG_PP = 0.1


@dataclass(frozen=True)
class Cell:
    train: str
    test: str
    strategy: str
    scope: str
    class_auc: dict[str, float]
    mean_auc: float = math.nan  # set by build_report, which computes every mean

    def key(self) -> tuple[str, str, str, str]:
        return (self.train, self.test, self.strategy, self.scope)


@dataclass(frozen=True)
class CorrelationEntry:
    domain: str
    strategy: str
    scope: str
    space: str  # "original" | "kernelized"
    class_corr: dict[str, float]
    mean_abs_corr: float = math.nan  # set by build_report


@dataclass(frozen=True)
class ExperimentReport:
    datasets: tuple[str, str]
    classes: tuple[str, ...]
    cells: tuple[Cell, ...]
    correlations: tuple[CorrelationEntry, ...]
    genre_histogram: dict[str, dict[str, dict[str, int]]]
    config: dict
    # Per job, keyed "strategy:scope": the genre pairs its bias fit skipped
    # and the fits it found degenerate.
    bias_fit_notes: dict[str, dict]
    fingerprint: str

    def cell(self, train: str, test: str, strategy: str, scope: str) -> Cell:
        for cell in self.cells:
            if cell.key() == (train, test, strategy, scope):
                return cell
        raise IncompleteMatrixError(
            f"no cell for train={train}, test={test}, strategy={strategy}, scope={scope}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(obj: dict) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_dict` output through
        :func:`build_report`, after checking its keys and each field's type.
        The stored means and fingerprint are recomputed, not read."""
        _keyed(obj, "report", ExperimentReport, optional=("fingerprint",))
        datasets = _strings(obj["datasets"], "datasets")
        if len(datasets) != 2:
            raise ValidationError(f"datasets must name two datasets, got {list(datasets)}")
        cells = []
        for c in _typed(obj["cells"], list, "cells", "a list"):
            _keyed(c, "report cell", Cell, optional=())
            _strings([c["train"], c["test"], c["strategy"], c["scope"]], "cell keys")
            class_auc = _numbers(c["class_auc"], "class_auc")
            mean = _number(float, c["mean_auc"], "mean_auc")
            cells.append(Cell(**{**c, "class_auc": class_auc, "mean_auc": mean}))
        correlations = []
        for e in _typed(obj["correlations"], list, "correlations", "a list"):
            _keyed(e, "correlation entry", CorrelationEntry, optional=())
            _strings([e["domain"], e["strategy"], e["scope"], e["space"]], "correlation keys")
            class_corr = _numbers(e["class_corr"], "class_corr")
            mean = _number(float, e["mean_abs_corr"], "mean_abs_corr")
            correlations.append(
                CorrelationEntry(**{**e, "class_corr": class_corr, "mean_abs_corr": mean})
            )
        histogram = _typed(obj["genre_histogram"], dict, "genre_histogram", "an object")
        for per_class in histogram.values():
            for counts in _typed(per_class, dict, "genre_histogram", "nested objects").values():
                _numbers(counts, "genre counts", int)
        notes = _typed(obj["bias_fit_notes"], dict, "bias_fit_notes", "an object")
        for job_notes in notes.values():
            _typed(job_notes, dict, "bias_fit_notes", "an object of objects")
        return build_report(
            datasets=datasets,
            classes=_strings(obj["classes"], "classes"),
            cells=cells,
            correlations=correlations,
            genre_histogram=histogram,
            config=_typed(obj["config"], dict, "config", "an object"),
            bias_fit_notes=notes,
        )


def _strings(value, name: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def _numbers(value, name: str, kind=float) -> dict:
    """A JSON object of numbers, each read as ``kind``."""
    _typed(value, dict, name, "an object of numbers")
    return {k: _number(kind, v, f"{name} entry {k!r}") for k, v in value.items()}


def config_fingerprint(config: dict) -> str:
    """Stable digest of the resolved config. Its ``seed`` sets every derived
    per-purpose seed, so the digest tells runs apart without them."""
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_report(
    datasets: tuple[str, str],
    classes: tuple[str, ...],
    cells: list[Cell],
    correlations: list[CorrelationEntry],
    genre_histogram: dict[str, dict[str, dict[str, int]]],
    config: dict,
    bias_fit_notes: dict[str, dict],
) -> ExperimentReport:
    """Assemble and validate a report, the one way every report is made.

    The dataset names and the classes must be distinct. Each cell and
    correlation entry must name only ``datasets``, a strategy of the strategy
    table and a scope of ``SCOPES`` that a run of that strategy writes (see
    ``effective_scope``); an entry's space is "original" or
    "kernelized". Each cell needs an AUC in [0, 1] for every class and a key
    of its own. Every mean is recomputed in ``classes`` order: a cell's over
    all classes, a correlation entry's mean |correlation| over the classes it
    holds. The fingerprint is recomputed from ``config``.
    """
    if not classes:
        raise ValidationError("a report needs at least one class")
    if len(set(datasets)) != len(datasets):
        raise ValidationError(f"dataset names must be distinct, got {list(datasets)}")
    if len(set(classes)) != len(classes):
        raise ValidationError(f"classes must be distinct, got {list(classes)}")

    def check_names(what: str, domains: tuple[str, ...], strategy: str, scope: str) -> None:
        stray = [d for d in domains if d not in datasets]
        if stray:
            raise ValidationError(f"{what} names datasets {stray} not in {list(datasets)}")
        if strategy not in STRATEGIES:
            raise ValidationError(f"{what} has unknown strategy {strategy!r}")
        if scope not in SCOPES:
            raise ValidationError(f"{what} has unknown scope {scope!r}")
        if scope != effective_scope(strategy, scope):
            raise ValidationError(f"{what} has scope {scope!r}, but {strategy} runs only globally")

    recomputed = []
    for cell in cells:
        check_names(f"cell {cell.key()}", (cell.train, cell.test), cell.strategy, cell.scope)
        missing = [c for c in classes if c not in cell.class_auc]
        if missing:
            raise ValidationError(f"cell {cell.key()} is missing classes {missing}")
        bad = {c: v for c, v in cell.class_auc.items() if not 0.0 <= v <= 1.0}
        if bad:
            raise ValidationError(f"cell {cell.key()} has AUCs outside [0, 1]: {bad}")
        mean = sum(cell.class_auc[c] for c in classes) / len(classes)
        recomputed.append(replace(cell, class_auc=dict(cell.class_auc), mean_auc=mean))
    if len({c.key() for c in recomputed}) != len(recomputed):
        raise ValidationError("duplicate cell keys in report")
    entries = []
    for entry in correlations:
        what = f"correlation entry {entry.domain}:{entry.strategy}/{entry.scope}/{entry.space}"
        check_names(what, (entry.domain,), entry.strategy, entry.scope)
        if entry.space not in ("original", "kernelized"):
            raise ValidationError(f"{what} has unknown space {entry.space!r}")
        held = [abs(entry.class_corr[c]) for c in classes if c in entry.class_corr]
        if not held:
            raise ValidationError(f"{what} holds no class")
        mean = sum(held) / len(held)
        entries.append(replace(entry, class_corr=dict(entry.class_corr), mean_abs_corr=mean))
    return ExperimentReport(
        datasets=datasets,
        classes=tuple(classes),
        cells=tuple(recomputed),
        correlations=tuple(entries),
        genre_histogram=genre_histogram,
        config=config,
        bias_fit_notes=bias_fit_notes,
        fingerprint=config_fingerprint(config),
    )


def merge_reports(reports: list[ExperimentReport], config: dict) -> ExperimentReport:
    """One report of the cells, correlations and fit notes of ``reports``
    (shared datasets, classes and genre histogram), under ``config``."""
    if not reports:
        raise ValidationError("nothing to merge")
    head = reports[0]
    if any(r.datasets != head.datasets or r.classes != head.classes for r in reports):
        raise ValidationError("reports disagree on datasets or classes")
    return build_report(
        datasets=head.datasets,
        classes=head.classes,
        cells=[cell for r in reports for cell in r.cells],
        correlations=[entry for r in reports for entry in r.correlations],
        genre_histogram=head.genre_histogram,
        config=config,
        bias_fit_notes={job: notes for r in reports for job, notes in r.bias_fit_notes.items()},
    )


def save_report(report: ExperimentReport, path: str) -> None:
    write_json(path, report.to_dict())


def load_report(path: str) -> ExperimentReport:
    with located(path):
        return ExperimentReport.from_dict(read_json(path, "report"))


@dataclass(frozen=True)
class RenderedTable:
    text: str
    csv: str


def format_value_with_delta(value: float, baseline: float | None) -> str:
    """Percentage with two decimals, plus a parenthesised delta vs baseline.

    A delta rounding to zero renders as "(0.0)"; magnitudes above 0.1
    percentage points are flagged with a trailing asterisk.
    """
    text = f"{value * 100:.2f}"
    if baseline is None:
        return text
    delta_pp = (value - baseline) * 100.0
    if abs(round(delta_pp, 2)) < 0.005:
        rendered = "(0.0)"
    else:
        rendered = f"({delta_pp:+.2f})"
    if abs(delta_pp) > DELTA_FLAG_PP:
        rendered += "*"
    return f"{text} {rendered}"


def _table_text(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, val in enumerate(row):
            widths[i] = max(widths[i], len(val))
    def fmt(row):
        return "  ".join(val.ljust(widths[i]) for i, val in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def _csv_text(headers: list[str], rows: list[list]) -> str:
    """One LF-ended line per row: floats as their shortest round-trip repr,
    every other value as text in the csv module's minimal quoting."""
    return "".join(
        ",".join(repr(v) if isinstance(v, float) else csv_field(str(v)) for v in row) + "\n"
        for row in [headers, *rows]
    )


def render_table(report: ExperimentReport, layout: str) -> RenderedTable:
    if layout not in LAYOUTS:
        *head, last = LAYOUTS
        raise LayoutError(f"unknown layout {layout!r} (expected {', '.join(head)} or {last})")
    return LAYOUTS[layout](report)


def save_table(rendered: RenderedTable, out_dir: str, layout: str) -> None:
    """Write ``<layout>.txt`` and ``<layout>.csv`` under ``out_dir``."""
    for suffix, content in (("txt", rendered.text), ("csv", rendered.csv)):
        path = os.path.join(out_dir, f"{layout}.{suffix}")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


def _transfer_columns(report: ExperimentReport) -> list[tuple[str, str, bool]]:
    """(train, test, is_cross) in within-first order."""
    a, b = report.datasets
    return [(a, a, False), (b, b, False), (b, a, True), (a, b, True)]


def _render_table1(report: ExperimentReport) -> RenderedTable:
    cells = {cell.key(): cell for cell in report.cells}
    strategies = [s for s in STRATEGIES if any(key[2] == s for key in cells)]
    if not strategies:
        raise LayoutError("report holds no cells to render")
    debiased = {key[3] for key in cells if key[2] != BASELINE}
    scopes = [s for s in SCOPES if s in debiased] or ["global"]
    columns = _transfer_columns(report)
    # Deltas are defined against the no-debias baseline; a report without
    # baseline cells (a single-strategy run) renders plain values instead.
    baseline: dict[tuple[str, str], float] | None = None
    if BASELINE in strategies:
        baseline = {
            (train, test): report.cell(train, test, BASELINE, "global").mean_auc
            for train, test, _ in columns
        }

    headers = ["strategy"] + [
        f"{scope}:{train}-{test}" for scope in scopes for train, test, _ in columns
    ]
    text_rows: list[list[str]] = []
    csv_rows: list[list] = []
    for strategy in strategies:
        row = [strategy]
        for scope in scopes:
            # The baseline and plain-kernel rows are scope-free; render their
            # single set of numbers in every scope group, as the source table does.
            actual_scope = effective_scope(strategy, scope)
            for train, test, is_cross in columns:
                cell = cells.get((train, test, strategy, actual_scope))
                if cell is None:
                    row.append("-")
                    continue
                base = None
                if is_cross and strategy != BASELINE and baseline is not None:
                    base = baseline[(train, test)]
                row.append(format_value_with_delta(cell.mean_auc, base))
                # The baseline's own delta is x - x, exactly 0.0 and unflagged.
                delta, flagged = "", 0
                if baseline is not None:
                    delta = cell.mean_auc - baseline[(train, test)]
                    flagged = int(abs(delta * 100.0) > DELTA_FLAG_PP)
                csv_rows.append(
                    [strategy, actual_scope, train, test, cell.mean_auc, delta, flagged]
                )
        text_rows.append(row)
    # Per-class AUCs ride along in the CSV for machine consumers.
    class_rows: list[list] = []
    for cell in report.cells:
        for cls in report.classes:
            class_rows.append(
                [cell.strategy, cell.scope, cell.train, cell.test, cls, cell.class_auc[cls]]
            )
    csv = _csv_text(
        ["strategy", "scope", "train", "test", "mean_auc", "delta", "flagged"], csv_rows
    )
    csv += _csv_text(["strategy", "scope", "train", "test", "class", "auc"], class_rows)
    return RenderedTable(_table_text(headers, text_rows), csv)


def _render_fig3(report: ExperimentReport) -> RenderedTable:
    if not report.correlations:
        raise LayoutError("report holds no correlation entries")
    entries = list(report.correlations)
    headers = ["class"] + [
        f"{e.domain}:{e.strategy}/{e.scope}/{e.space}" for e in entries
    ]
    rows = []
    for cls in report.classes:
        rows.append([cls] + [f"{e.class_corr.get(cls, float('nan')):+.2f}" for e in entries])
    rows.append(["mean|c|"] + [f"({e.mean_abs_corr:.2f})" for e in entries])
    csv_rows = []
    for e in entries:
        for cls in report.classes:
            if cls in e.class_corr:
                csv_rows.append(
                    [e.domain, e.strategy, e.scope, e.space, cls, e.class_corr[cls]]
                )
        csv_rows.append([e.domain, e.strategy, e.scope, e.space, "MEAN_ABS", e.mean_abs_corr])
    return RenderedTable(
        _table_text(headers, rows),
        _csv_text(["domain", "strategy", "scope", "space", "class", "correlation"], csv_rows),
    )


def _render_fig2(report: ExperimentReport) -> RenderedTable:
    if not report.genre_histogram:
        raise LayoutError("report holds no genre histogram")
    genres: dict[str, None] = {}
    for per_class in report.genre_histogram.values():
        for counts in per_class.values():
            for genre in counts:
                genres.setdefault(genre, None)
    genre_list = list(genres)
    headers = ["dataset", "class"] + genre_list
    rows = []
    csv_rows = []
    for dataset in report.genre_histogram:
        for cls in report.genre_histogram[dataset]:
            counts = report.genre_histogram[dataset][cls]
            rows.append([dataset, cls] + [str(counts.get(g, 0)) for g in genre_list])
            for genre in genre_list:
                csv_rows.append([dataset, cls, genre, counts.get(genre, 0)])
    return RenderedTable(
        _table_text(headers, rows),
        _csv_text(["dataset", "class", "genre", "count"], csv_rows),
    )


# The rendered layouts, in the order the docs list them.
LAYOUTS = {"table1": _render_table1, "fig3": _render_fig3, "fig2": _render_fig2}
