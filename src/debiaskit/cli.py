"""Command-line interface.

Subcommands:
  synth   generate a synthetic two-domain corpus with planted bias geometry
  run     execute one strategy from a JSON config and write its report
  matrix  execute the strategy x scope grid with a shared baseline
  report  re-render a written report in a chosen layout

Every failure raised by the package exits nonzero with a one-line JSON
object on stderr carrying the error type and message; an output that cannot
be created or written is an IoError.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import BASELINE, STRATEGIES, load_config, read_json, write_json
from .data import save_embeddings, save_genre_map, save_manifest
from .errors import DebiasKitError, IoError, ValidationError
from .pipeline import run_matrix, run_strategy
from .report import LAYOUTS, load_report, render_table, save_report, save_table
from .synth import (
    default_spec,
    generate_biased_corpus,
    save_ground_truth,
    spec_from_dict,
    synth_genre_map,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debiaskit",
        description="Dataset-identity bias removal for pooled embeddings: "
        "discriminant directions, subspace projection, random-feature "
        "kernelization, and a transfer evaluation matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic biased corpus")
    p_synth.add_argument("--spec", help="JSON file overriding the default corpus spec")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument(
        "--format", choices=("csv", "binary"), default="csv", help="embedding file format"
    )

    p_run = sub.add_parser("run", help="run a single strategy")
    p_run.add_argument("--config", required=True, help="experiment config JSON")

    p_matrix = sub.add_parser("matrix", help="run the strategy x scope grid")
    p_matrix.add_argument("--config", required=True, help="experiment config JSON")
    p_matrix.add_argument(
        "--strategies",
        default=",".join(s for s in STRATEGIES if s != BASELINE),
        help="comma-separated strategies (baseline always included)",
    )
    p_matrix.add_argument(
        "--scopes", default="global,classwise", help="comma-separated scopes"
    )

    p_report = sub.add_parser("report", help="render a written report")
    p_report.add_argument("--in", dest="in_dir", required=True, help="directory holding report.json")
    p_report.add_argument("--layout", choices=list(LAYOUTS), default="table1")
    return parser


def _cmd_synth(args) -> int:
    if args.spec is not None:
        spec = spec_from_dict(read_json(args.spec, "synth spec"))
    else:
        spec = default_spec()
    os.makedirs(args.out, exist_ok=True)
    tables, manifests, truth = generate_biased_corpus(spec)
    suffix = "csv" if args.format == "csv" else "emb"
    dataset_entries = []
    for domain in spec.domain_names:
        emb_path = os.path.join(args.out, f"{domain}.{suffix}")
        man_path = os.path.join(args.out, f"{domain}.jsonl")
        save_embeddings(tables[domain], emb_path, args.format)
        save_manifest(manifests[domain], man_path)
        dataset_entries.append(
            {"name": domain, "embeddings": f"{domain}.{suffix}", "manifest": f"{domain}.jsonl"}
        )
    genre_path = os.path.join(args.out, "genres.json")
    save_genre_map(synth_genre_map(spec), genre_path)
    save_ground_truth(truth, os.path.join(args.out, "ground_truth.json"))
    config = {
        "datasets": dataset_entries,
        "genre_map": "genres.json",
        "strategy": "LDA",
        "scope": "global",
        "seed": spec.seed,
        "output_dir": "results",
    }
    write_json(os.path.join(args.out, "config.json"), config, indent=2)
    print(f"wrote corpus for {spec.domain_names[0]}/{spec.domain_names[1]} to {args.out}")
    return 0


def _cmd_run(args) -> int:
    """Run the config's strategy; its output directory is made before any work."""
    config = load_config(args.config)
    out_dir = config.output_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    result = run_strategy(config)
    if out_dir is not None:
        save_report(result.report, os.path.join(out_dir, "report.json"))
        write_json(os.path.join(out_dir, "audit.json"), result.audit)
    print(render_table(result.report, "table1").text, end="")
    if out_dir is not None:
        print(f"report written to {out_dir}")
    return 0


def _cmd_matrix(args) -> int:
    config = load_config(args.config)
    strategies = [s for s in args.strategies.split(",") if s]
    scopes = [s for s in args.scopes.split(",") if s]
    result = run_matrix(config, strategies, scopes)
    print(result.rendered.text, end="")
    if config.output_dir is not None:
        print(f"matrix written to {config.output_dir}")
    return 0


def _cmd_report(args) -> int:
    report_path = os.path.join(args.in_dir, "report.json")
    if not os.path.exists(report_path):
        raise ValidationError(f"no report.json under {args.in_dir}")
    rendered = render_table(load_report(report_path), args.layout)
    save_table(rendered, args.in_dir, args.layout)
    print(rendered.text, end="")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DebiasKitError, OSError) as exc:
        # An output that cannot be created or written is an IoError too.
        error = exc if isinstance(exc, DebiasKitError) else IoError(str(exc))
        payload = {"error": type(error).__name__, "message": str(error)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
