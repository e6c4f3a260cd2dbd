"""Experiment configuration: the strategy registry and the JSON config file.

A config names the two datasets (embedding file, manifest, format), one
strategy and scope, the kernel and classifier settings and a master seed.
Parsing checks the type and range of every field, so a malformed config ends
in a ValidationError before any embedding is read.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

from .bias import DEFAULT_SHRINKAGE
from .errors import ValidationError
from .kernel import DEFAULT_DPRIME_FACTOR
from .logreg import DEFAULT_C_GRID, DEFAULT_FOLDS
from .seeding import derive_run_seeds


class Strategy(NamedTuple):
    kernelized: bool  # works in the random-feature space
    multi: bool  # removes one direction per genre pair, not a single one
    projecting: bool  # removes anything; the others ignore the scope


# In report order: each space's baseline, then its removal strategies.
STRATEGIES = {
    "none": Strategy(kernelized=False, multi=False, projecting=False),
    "LDA": Strategy(kernelized=False, multi=False, projecting=True),
    "mLDA": Strategy(kernelized=False, multi=True, projecting=True),
    "K": Strategy(kernelized=True, multi=False, projecting=False),
    "KLDA": Strategy(kernelized=True, multi=False, projecting=True),
    "mKLDA": Strategy(kernelized=True, multi=True, projecting=True),
}
SCOPES = ("global", "classwise")

DEFAULT_MIN_GENRE_SAMPLES = 5

_FIELDS = {
    "datasets",
    "genre_map",
    "classes",
    "strategy",
    "scope",
    "dprime_factor",
    "gamma",
    "shrinkage",
    "c_grid",
    "cv_folds",
    "min_genre_samples",
    "seed",
    "seeds",
    "output_dir",
}


def effective_scope(strategy: str, scope: str) -> str:
    """The scope a run actually uses: strategies that remove nothing are global."""
    return scope if STRATEGIES[strategy].projecting else "global"


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    embeddings: str
    manifest: str
    fmt: str  # "csv" | "binary"


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetEntry, DatasetEntry]
    strategy: str
    scope: str
    seed: int
    genre_map: str | None = None
    classes: tuple[str, ...] | None = None
    dprime_factor: int = DEFAULT_DPRIME_FACTOR
    gamma: float | str = "median"
    shrinkage: float = DEFAULT_SHRINKAGE
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    cv_folds: int = DEFAULT_FOLDS
    min_genre_samples: int = DEFAULT_MIN_GENRE_SAMPLES
    seeds_override: dict[str, int] = field(default_factory=dict)
    output_dir: str | None = None
    base_dir: str | None = None  # where relative paths resolve; reports record paths from here

    def effective_scope(self) -> str:
        return effective_scope(self.strategy, self.scope)

    def run_seeds(self) -> dict[str, int]:
        seeds = derive_run_seeds(self.seed)
        seeds.update(self.seeds_override)
        return seeds

    def to_dict(self) -> dict:
        """Science-relevant resolved fields. Input paths are recorded relative
        to ``base_dir`` and the output directory is left out, so the
        fingerprint (and the report file) depend neither on where the corpus
        lives nor on where results land."""

        def recorded(path: str | None) -> str | None:
            if path is None or self.base_dir is None:
                return path
            return os.path.relpath(path, self.base_dir)

        return {
            "datasets": [
                {
                    "name": d.name,
                    "embeddings": recorded(d.embeddings),
                    "manifest": recorded(d.manifest),
                    "format": d.fmt,
                }
                for d in self.datasets
            ],
            "genre_map": recorded(self.genre_map),
            "classes": list(self.classes) if self.classes is not None else None,
            "strategy": self.strategy,
            "scope": self.scope,
            "dprime_factor": self.dprime_factor,
            "gamma": self.gamma,
            "shrinkage": self.shrinkage,
            "c_grid": list(self.c_grid),
            "cv_folds": self.cv_folds,
            "min_genre_samples": self.min_genre_samples,
            "seed": self.seed,
            "seeds_override": dict(self.seeds_override),
        }


def read_json(path: str, what: str):
    """The parsed content of a JSON file; an unreadable or malformed file is
    a ValidationError naming ``what`` it was meant to be."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot open {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}", path=path) from exc


def write_json(path: str, obj, *, indent: int | None = None) -> None:
    """Write ``obj`` to ``path`` as JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config; relative paths resolve against the
    config file's own directory."""
    obj = read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object", path=path)
    base_dir = os.path.dirname(os.path.abspath(path))
    return config_from_dict(obj, base_dir=base_dir)


def _typed(value, kinds, name: str, expected: str):
    if not isinstance(value, kinds):
        raise ValidationError(f"{name} must be {expected}, got {value!r}")
    return value


def _number(kind, value, name: str):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc


def config_from_dict(obj: dict, base_dir: str | None = None) -> ExperimentConfig:
    """Validate a config object; relative paths resolve against ``base_dir``."""
    _typed(obj, dict, "config", "a JSON object")
    unknown = sorted(set(obj) - _FIELDS)
    if unknown:
        raise ValidationError(f"unknown config fields: {unknown}")
    for required in ("datasets", "strategy", "seed"):
        if required not in obj:
            raise ValidationError(f"config is missing required field {required!r}")

    def resolve(p, name: str) -> str | None:
        if p is None:
            return None
        _typed(p, str, name, "a path string")
        if base_dir is not None and not os.path.isabs(p):
            return os.path.join(base_dir, p)
        return p

    raw_datasets = obj["datasets"]
    if not isinstance(raw_datasets, list) or len(raw_datasets) != 2:
        raise ValidationError("config needs exactly two dataset entries")
    entries = []
    for raw in raw_datasets:
        _typed(raw, dict, "a dataset entry", "an object")
        for key in ("name", "embeddings", "manifest"):
            if not isinstance(raw.get(key), str):
                raise ValidationError(f"dataset entry needs a string field {key!r}")
        emb = resolve(raw["embeddings"], "embeddings")
        man = resolve(raw["manifest"], "manifest")
        fmt = raw.get("format", "csv" if emb.endswith(".csv") else "binary")
        if fmt not in ("csv", "binary"):
            raise ValidationError(f"unknown embedding format {fmt!r}")
        entries.append(DatasetEntry(raw["name"], emb, man, fmt))
    if entries[0].name == entries[1].name:
        raise ValidationError("dataset names must be distinct")

    strategy = obj["strategy"]
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        raise ValidationError(
            f"unknown strategy {strategy!r} (expected one of {tuple(STRATEGIES)})"
        )
    scope = obj.get("scope", "global")
    if scope not in SCOPES:
        raise ValidationError(f"unknown scope {scope!r} (expected one of {SCOPES})")

    seed = _number(int, obj["seed"], "seed")
    gamma = obj.get("gamma", "median")
    if gamma != "median":
        gamma = _number(float, gamma, "gamma")
        if not (gamma > 0 and math.isfinite(gamma)):
            raise ValidationError(f"gamma must be positive and finite or 'median', got {gamma}")
    dprime_factor = _number(int, obj.get("dprime_factor", DEFAULT_DPRIME_FACTOR), "dprime_factor")
    if dprime_factor < 1:
        raise ValidationError("dprime_factor must be >= 1")
    shrinkage = _number(float, obj.get("shrinkage", DEFAULT_SHRINKAGE), "shrinkage")
    if not (shrinkage >= 0 and math.isfinite(shrinkage)):
        raise ValidationError("shrinkage must be a finite non-negative number")
    raw_grid = _typed(obj.get("c_grid", DEFAULT_C_GRID), (list, tuple), "c_grid", "a list")
    c_grid = tuple(_number(float, c, "c_grid entry") for c in raw_grid)
    if not c_grid or any(not (c > 0 and math.isfinite(c)) for c in c_grid):
        raise ValidationError("c_grid must be a non-empty list of positive numbers")
    cv_folds = _number(int, obj.get("cv_folds", DEFAULT_FOLDS), "cv_folds")
    if cv_folds < 2:
        raise ValidationError("cv_folds must be >= 2")
    min_genre_samples = _number(
        int, obj.get("min_genre_samples", DEFAULT_MIN_GENRE_SAMPLES), "min_genre_samples"
    )
    if min_genre_samples < 2:
        raise ValidationError("min_genre_samples must be >= 2")
    seeds_override = {}
    for purpose, value in _typed(obj.get("seeds", {}), dict, "seeds", "an object").items():
        if purpose not in ("sampling", "rff", "cv"):
            raise ValidationError(f"unknown seed purpose {purpose!r}")
        seeds_override[purpose] = _number(int, value, f"seed {purpose!r}")
    classes = obj.get("classes")
    if classes is not None:
        classes = tuple(str(c) for c in _typed(classes, (list, tuple), "classes", "a list"))
        if len(set(classes)) != len(classes) or not classes:
            raise ValidationError("classes must be a non-empty list of unique names")

    config = ExperimentConfig(
        datasets=(entries[0], entries[1]),
        strategy=strategy,
        scope=scope,
        seed=seed,
        genre_map=resolve(obj.get("genre_map"), "genre_map"),
        classes=classes,
        dprime_factor=dprime_factor,
        gamma=gamma,
        shrinkage=shrinkage,
        c_grid=c_grid,
        cv_folds=cv_folds,
        min_genre_samples=min_genre_samples,
        seeds_override=seeds_override,
        output_dir=resolve(obj.get("output_dir"), "output_dir"),
        base_dir=base_dir,
    )
    for entry in config.datasets:
        for file_path in (entry.embeddings, entry.manifest):
            if not os.path.exists(file_path):
                raise ValidationError(f"referenced file does not exist: {file_path}")
    if config.genre_map is not None and not os.path.exists(config.genre_map):
        raise ValidationError(f"referenced file does not exist: {config.genre_map}")
    return config
