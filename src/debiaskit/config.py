"""Experiment configuration: the strategy registry and the JSON config file.

A config names the two datasets (embedding file, manifest, format), one
strategy and scope, the kernel and classifier settings and a master seed.
``ExperimentConfig`` declares every field and its default once. Parsing
checks the type and range of each field the JSON holds, so a malformed config
ends in a ValidationError before any embedding is read.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

from .bias import DEFAULT_SHRINKAGE
from .errors import ValidationError
from .kernel import DEFAULT_DPRIME_FACTOR
from .logreg import DEFAULT_C_GRID, DEFAULT_FOLDS, MIN_C


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
BASELINE = "none"  # every matrix runs it: the deltas are taken against it
SCOPES = ("global", "classwise")


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
    """One run's settings. The JSON config's keys are these field names,
    except ``base_dir``, which is never read from JSON. ``seed`` alone sets a
    run's randomness: every per-purpose seed is derived from it."""

    datasets: tuple[DatasetEntry, DatasetEntry]
    strategy: str
    seed: int
    scope: str = "global"
    genre_map: str | None = None
    classes: tuple[str, ...] | None = None
    dprime_factor: int = DEFAULT_DPRIME_FACTOR
    gamma: float | str = "median"
    shrinkage: float = DEFAULT_SHRINKAGE
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    cv_folds: int = DEFAULT_FOLDS
    min_genre_samples: int = 5
    output_dir: str | None = None
    base_dir: str | None = None  # where relative paths resolve; reports record paths from here

    def effective_scope(self) -> str:
        return effective_scope(self.strategy, self.scope)

    def to_dict(self) -> dict:
        """Science-relevant resolved fields, as JSON types. Input paths are
        recorded relative to ``base_dir`` and the output directory is left
        out, so the fingerprint (and the report file) depend neither on where
        the corpus lives nor on where results land."""

        def recorded(path: str | None) -> str | None:
            if path is None or self.base_dir is None:
                return path
            return os.path.relpath(path, self.base_dir)

        def json_value(value):
            if isinstance(value, DatasetEntry):
                return {
                    "name": value.name,
                    "embeddings": recorded(value.embeddings),
                    "manifest": recorded(value.manifest),
                    "format": value.fmt,
                }
            if isinstance(value, tuple):
                return [json_value(v) for v in value]
            return value

        out = {f.name: json_value(getattr(self, f.name)) for f in fields(self)}
        del out["output_dir"], out["base_dir"]
        out["genre_map"] = recorded(self.genre_map)
        return out


def lone_surrogate(obj) -> str | None:
    """The first lone UTF-16 surrogate in the parsed JSON value ``obj``, or
    None. ``json`` decodes an unpaired escape such as ``\\ud800`` to such a
    character, which no UTF-8 text can hold: ``obj`` serialised with its
    strings as they are fails to encode as UTF-8 at the first one. The encoder
    is called directly, not through ``json.dumps``, so it has as much stack as
    a ``json.loads`` call that parsed ``obj`` from the same caller, and checks
    any value that call could parse."""
    try:
        json.JSONEncoder(ensure_ascii=False).encode(obj).encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.object[exc.start]
    return None


def read_json(path: str, what: str, object_pairs_hook=None):
    """The parsed content of a JSON file; an unreadable or malformed file, one
    nested too deeply to parse or to check, or one holding a lone UTF-16
    surrogate (see ``lone_surrogate``) is a ValidationError naming ``what`` it
    was meant to be. ``object_pairs_hook`` builds each JSON object, as in
    ``json.load``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=object_pairs_hook)
        bad = lone_surrogate(obj)
    except OSError as exc:
        raise ValidationError(f"cannot open {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}", path=path) from exc
    if bad is not None:
        raise ValidationError(f"{what} holds a lone UTF-16 surrogate {bad!r}", path=path)
    return obj


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


def _number(kind, value, name: str, least=None):
    """``value`` as ``kind`` (int or float) if it is a finite JSON number of
    that kind, not below ``least``: an integer setting takes only an integer,
    a float setting an integer or a float. Booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {expected}, got {value!r}")
    try:
        number = kind(value)
    except OverflowError as exc:
        raise ValidationError(f"{name} is out of range, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if least is not None and number < least:
        raise ValidationError(f"{name} must be >= {least}, got {value!r}")
    return number


# The numeric settings: (kind, least allowed value); a seed may be any integer.
_NUMBERS = {
    "seed": (int, None),
    "dprime_factor": (int, 1),
    "shrinkage": (float, 0),
    "cv_folds": (int, 2),
    "min_genre_samples": (int, 2),
}


def config_from_dict(obj: dict, base_dir: str | None = None) -> ExperimentConfig:
    """Validate a config object; relative paths resolve against ``base_dir``.
    Only the fields the object holds are passed on, so every default is the
    dataclass's."""
    _typed(obj, dict, "config", "a JSON object")
    keys = {f.name for f in fields(ExperimentConfig)} - {"base_dir"}
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ValidationError(f"unknown config fields: {unknown}")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in obj:
            raise ValidationError(f"config is missing required field {f.name!r}")

    def resolve(p, name: str) -> str | None:
        if p is None or os.path.isabs(_typed(p, str, name, "a path string")) or base_dir is None:
            return p
        return os.path.join(base_dir, p)

    raw_datasets = obj["datasets"]
    if not isinstance(raw_datasets, list) or len(raw_datasets) != 2:
        raise ValidationError("config needs exactly two dataset entries")
    entries = []
    for raw in raw_datasets:
        _typed(raw, dict, "a dataset entry", "an object")
        unknown = sorted(set(raw) - {"name", "embeddings", "manifest", "format"})
        if unknown:
            raise ValidationError(f"unknown dataset entry fields: {unknown}")
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
        expected = tuple(STRATEGIES)
        raise ValidationError(f"unknown strategy {strategy!r} (expected one of {expected})")
    kwargs = {"datasets": tuple(entries), "strategy": strategy, "base_dir": base_dir}
    if "scope" in obj:
        if obj["scope"] not in SCOPES:
            raise ValidationError(f"unknown scope {obj['scope']!r} (expected one of {SCOPES})")
        kwargs["scope"] = obj["scope"]
    for key, (kind, least) in _NUMBERS.items():
        if key in obj:
            kwargs[key] = _number(kind, obj[key], key, least)
    if "gamma" in obj and obj["gamma"] != "median":
        gamma = kwargs["gamma"] = _number(float, obj["gamma"], "gamma")
        if not gamma > 0:
            raise ValidationError(f"gamma must be positive and finite or 'median', got {gamma}")
    if "c_grid" in obj:
        raw_grid = _typed(obj["c_grid"], (list, tuple), "c_grid", "a list")
        c_grid = kwargs["c_grid"] = tuple(_number(float, c, "c_grid entry", MIN_C) for c in raw_grid)
        if not c_grid:
            raise ValidationError("c_grid must be a non-empty list of positive numbers")
    if obj.get("classes") is not None:
        classes = kwargs["classes"] = tuple(
            _typed(c, str, "classes entry", "a string")
            for c in _typed(obj["classes"], (list, tuple), "classes", "a list")
        )
        if len(set(classes)) != len(classes) or not classes:
            raise ValidationError("classes must be a non-empty list of unique names")
    for key in ("genre_map", "output_dir"):
        if key in obj:
            kwargs[key] = resolve(obj[key], key)

    config = ExperimentConfig(**kwargs)
    paths = [p for e in config.datasets for p in (e.embeddings, e.manifest)] + [config.genre_map]
    for path in paths:
        if path is not None and not os.path.exists(path):
            raise ValidationError(f"referenced file does not exist: {path}")
    return config
