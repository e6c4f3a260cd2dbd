"""Spans around debiaskit's public functions, recorded from outside the package.

Each target is patched where the caller looks it up: the `debiaskit.pipeline`
binding for names the pipeline imports, `debiaskit.logreg.train_logreg` for
the cross-validation fits, and class attributes for the methods the pipeline
binds at run time. A span holds its name, start, end, parent span and job id
(`strategy:scope`); counters come from arguments and return values only.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import os
import time
from statistics import median

# Per-layer metric names and units, in report order. README.md explains them.
LAYER_METRICS = {
    "logreg.cv_fit.calls": "count",
    "logreg.cv_fit.s": "s",
    "logreg.cv_fit.n_iter": "count",
    "logreg.final_fit.calls": "count",
    "logreg.final_fit.s": "s",
    "logreg.final_fit.n_iter": "count",
    "logreg.cv_select_c.self_s": "s",
    "logreg.unconverged_share": "ratio",
    "logreg.predict_scores.s": "s",
    "logreg.self_s": "s",
    "pipeline.load_domains.calls": "count",
    "pipeline.load_domains.s": "s",
    "pipeline.load_domains.self_s": "s",
    "pipeline.run_strategy.calls": "count",
    "pipeline.run_strategy.s": "s",
    "pipeline.fit_bias.s": "s",
    "pipeline.fit_bias.self_s": "s",
    "pipeline.self_s": "s",
    "data.load_embeddings.calls": "count",
    "data.load_embeddings.s": "s",
    "data.load_embeddings.mb": "MB",
    "data.load_manifest.s": "s",
    "data.pool_frames.s": "s",
    "data.balanced_subsample.calls": "count",
    "data.balanced_subsample.s": "s",
    "data.self_s": "s",
    "kernel.transform_rff.calls": "count",
    "kernel.transform_rff.s": "s",
    "kernel.transform_rff.rows": "count",
    "kernel.transform_rff.gflop": "gflop",
    "kernel.rows_per_clip": "rows/clip",
    "kernel.standardize_apply.calls": "count",
    "kernel.standardize_apply.s": "s",
    "kernel.fit_standardizer.s": "s",
    "kernel.fit_rff.s": "s",
    "kernel.self_s": "s",
    "bias.fit_lda_direction.calls": "count",
    "bias.fit_lda_direction.s": "s",
    "bias.self_s": "s",
    "projection.build.calls": "count",
    "projection.build.s": "s",
    "projection.apply.calls": "count",
    "projection.apply.s": "s",
    "projection.self_s": "s",
    "guard.check.calls": "count",
    "guard.check.s": "s",
    "guard.rows_checked": "count",
    "guard.self_s": "s",
    "metrics.roc_auc.calls": "count",
    "metrics.roc_auc.s": "s",
    "report.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "share.logreg": "ratio",
    "share.load_domains": "ratio",
    "share.kernel_bias": "ratio",
    "synth.generate_biased_corpus.s": "s",
    "data.save_embeddings.s": "s",
    "data.save_manifest.s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_s": "s",
}
# Measured during set-up (perfbench/corpus.py), not in the matrix run.
SETUP_METRICS = ("synth.generate_biased_corpus.s", "data.save_embeddings.s", "data.save_manifest.s")

# Counter functions: (args, kwargs, result) -> {counter: value}.


def _fit_counts(args, kwargs, model):
    return {"n_iter": model.n_iter, "unconverged": 0 if model.converged else 1}


def _rff_counts(args, kwargs, out):
    kernel_map, x = args[0], args[1]
    rows = 1 if x.ndim == 1 else x.shape[0]
    return {"rows": rows, "gflop": 2.0 * rows * kernel_map.input_dim * kernel_map.dprime / 1e9}


def _guard_counts(args, kwargs, result):
    return {"rows": int(getattr(args[2], "size", len(args[2])))}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _clip_counts(args, kwargs, result):
    return {"clips": result[0].table.n_rows + result[1].table.n_rows}


def _job_of(args, kwargs):
    config = args[0]
    return f"{config.strategy}:{config.effective_scope()}"


def matrix_targets():
    """(owner, attribute, span name, counter fn, job fn) for one matrix run."""
    from debiaskit import cli, logreg, pipeline
    from debiaskit.guard import SplitGuard
    from debiaskit.kernel import Standardizer
    from debiaskit.projection import DebiasOperator

    return [
        (cli, "main", "cli.main", None, None),
        (cli, "run_matrix", "pipeline.run_matrix", None, None),
        (pipeline, "run_strategy", "pipeline.run_strategy", None, _job_of),
        (pipeline, "load_domains", "pipeline.load_domains", _clip_counts, None),
        (pipeline, "fit_bias", "pipeline.fit_bias", None, None),
        (pipeline, "load_embeddings", "data.load_embeddings", _file_mb, None),
        (pipeline, "load_manifest", "data.load_manifest", None, None),
        (pipeline, "load_genre_map", "data.load_genre_map", None, None),
        (pipeline, "pool_frames", "data.pool_frames", None, None),
        (pipeline, "balanced_subsample", "data.balanced_subsample", None, None),
        (SplitGuard, "check", "guard.check", _guard_counts, None),
        (pipeline, "fit_standardizer", "kernel.fit_standardizer", None, None),
        (Standardizer, "apply", "kernel.standardize_apply", None, None),
        (pipeline, "fit_rff", "kernel.fit_rff", None, None),
        (pipeline, "transform_rff", "kernel.transform_rff", _rff_counts, None),
        (pipeline, "fit_lda_direction", "bias.fit_lda_direction", None, None),
        (pipeline, "bias_correlation", "bias.correlation", None, None),
        (pipeline, "subspace_correlation", "bias.correlation", None, None),
        (pipeline, "projector_from_direction", "projection.build", None, None),
        (pipeline, "projector_from_subspace", "projection.build", None, None),
        (DebiasOperator, "apply", "projection.apply", None, None),
        (pipeline, "cv_select_c", "logreg.cv_select_c", None, None),
        (logreg, "train_logreg", "logreg.cv_fit", _fit_counts, None),
        (pipeline, "train_logreg", "logreg.final_fit", _fit_counts, None),
        (logreg, "predict_scores", "logreg.predict_scores", None, None),
        (pipeline, "predict_scores", "logreg.predict_scores", None, None),
        (logreg, "roc_auc", "metrics.roc_auc", None, None),
        (pipeline, "roc_auc", "metrics.roc_auc", None, None),
        (pipeline, "build_report", "report.build_report", None, None),
        (pipeline, "merge_reports", "report.merge_reports", None, None),
        (pipeline, "config_fingerprint", "report.config_fingerprint", None, None),
        (pipeline, "render_table", "report.render_table", None, None),
        (pipeline, "save_report", "report.save_report", None, None),
    ]


def setup_targets():
    """Targets for `debiaskit synth`, patched on the CLI module that calls them."""
    from debiaskit import cli

    return [
        (cli, "generate_biased_corpus", "synth.generate_biased_corpus", None, None),
        (cli, "save_embeddings", "data.save_embeddings", None, None),
        (cli, "save_manifest", "data.save_manifest", None, None),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.counts = None

    def to_dict(self, origin: float) -> dict:
        out = {
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "job": self.job,
        }
        if self.counts:
            out.update(self.counts)
        return out


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, count, job_of in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, job_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, count, job_of):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if job_of is not None:
                job = job_of(args, kwargs)
            else:
                job = spans[parent].job if parent is not None else None
            span = Span(name, time.perf_counter(), parent, job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def span_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per span name: calls, inclusive seconds, self seconds and counter sums.
    Per layer (the name's first component): self seconds, and inclusive
    seconds, i.e. time inside spans whose parent is in another layer."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    layer_incl: dict[str, float] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        own = dur - child_time[i]
        entry = by_name.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += own
        for key, value in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        layer = _layer(span.name)
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        if span.parent is None or _layer(spans[span.parent].name) != layer:
            layer_incl[layer] = layer_incl.get(layer, 0.0) + dur
    return by_name, by_layer, layer_incl


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def check_coverage(by_layer: dict, expected: tuple[str, ...], workload: str) -> None:
    """Fail loudly when a layer the workload must exercise recorded no span,
    so a renamed or moved function cannot silently report zero."""
    missing = [layer for layer in expected if layer not in by_layer]
    if missing:
        raise RuntimeError(
            f"trace coverage: layer(s) {missing} recorded no span on workload {workload!r}; "
            "update perfbench/tracing.py to the program's current function names"
        )


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The matrix-run part of LAYER_METRICS for one traced invocation.

    `<layer>.<function>.<counter>` reads the counter of that span name and
    `<layer>.self_s` the layer's self time; the rest are derived below.
    """
    by_name, by_layer, layer_incl = span_totals(spans)
    out = {}
    for metric in LAYER_METRICS:
        head, _, key = metric.rpartition(".")
        if metric in SETUP_METRICS:
            continue
        if "." in head:
            out[metric] = by_name.get(head, {}).get(key, 0)
        elif key == "self_s":
            out[metric] = by_layer.get(head, 0.0)

    fits = out["logreg.cv_fit.calls"] + out["logreg.final_fit.calls"]
    unconverged = sum(
        by_name.get(name, {}).get("unconverged", 0) for name in ("logreg.cv_fit", "logreg.final_fit")
    )
    loads = [s for s in spans if s.name == "pipeline.load_domains"]
    clips = loads[0].counts["clips"] if loads else 0
    rows = out["kernel.transform_rff.rows"]
    job_s = out["pipeline.run_strategy.s"]
    out.update(
        {
            "logreg.unconverged_share": unconverged / fits if fits else 0.0,
            "guard.rows_checked": by_name.get("guard.check", {}).get("rows", 0),
            "kernel.rows_per_clip": rows / clips if clips else 0.0,
            "report.s": by_layer.get("report", 0.0),
        }
    )
    shares = {
        "share.logreg": layer_incl.get("logreg", 0.0),
        "share.load_domains": out["pipeline.load_domains.s"],
        "share.kernel_bias": layer_incl.get("kernel", 0.0) + layer_incl.get("bias", 0.0),
    }
    for name, seconds in shares.items():
        out[name] = seconds / job_s if job_s else 0.0
    return out


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    by_name, _, _ = span_totals(spans)
    return {metric: by_name.get(metric[: -len(".s")], {}).get("s", 0.0) for metric in SETUP_METRICS}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(sample[key] for sample in samples) for key in samples[0]}
