"""Synthetic two-domain corpora with planted, recoverable dataset bias.

Geometry: class signal directions and planted bias directions are drawn as
one orthonormal frame, so class signal is exactly orthogonal to every bias
direction. A record of class k in domain d and genre g is

    signal * u_k  +  sum of applicable bias offsets  +  Normal(0, sigma^2 I)

where a bias entry with magnitude m contributes +m/2 along its direction in
the first domain and -m/2 in the second, and genre-scoped entries touch only
that genre's records. Bias entries may share a planted direction (via
``direction_index``), which models a dataset offset whose strength varies by
genre while staying recoverable as a single direction.

The default spec mirrors the real-data story that motivates all of this: one
class lives entirely in its own genre, and that genre rides the shared bias
direction much harder than the rest, so cross-domain transfer collapses for
that class until the direction is projected out. Records of that class label
the other classes "unk" (predominant-style partial labelling), which keeps
the other classes' negative pools bias-balanced.

Sample counts are specified per (domain, class, genre) cell; a non-uniform
``genre_mix`` row redistributes the class total (cell count times number of
genres) across genres. ``genre_mix_b`` optionally gives the second domain a
different mix, which models a class whose genre composition shifts between
collections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import _number, _typed, write_json
from .data import (
    NEG,
    POS,
    TEST,
    TRAIN,
    UNK,
    EmbeddingTable,
    GenreMap,
    Manifest,
)
from .errors import InfeasibleSpecError, ValidationError

GLOBAL_SCOPE = "global"
MAX_CELLS = 1024  # cap on n_classes * n_genres, checked before any per-cell work
MAX_VALUES = 2**24  # cap on the float64 values drawn: dim * (clips + frame directions)
MAX_CLIPS = 2**20  # cap on both domains' clips: ids and manifest columns keep ~180 B a clip


@dataclass(frozen=True)
class BiasSpec:
    """One planted bias entry: where it applies and how strongly."""

    scope: str  # "global" or a genre name
    magnitude: float
    direction_index: int = 0


@dataclass(frozen=True)
class SynthSpec:
    dim: int = 64
    n_classes: int = 4
    n_genres: int = 2
    samples_per_cell: int = 250  # per (domain, class, genre), train + test together
    test_fraction: float = 0.25
    class_signal_strength: float = 2.0
    noise_sigma: float = 1.0
    seed: int = 20240901
    domain_names: tuple[str, str] = ("synthA", "synthB")
    bias: tuple[BiasSpec, ...] = (BiasSpec(GLOBAL_SCOPE, 3.0, 0),)
    # Per-class genre weights, rows summing to anything positive; None = uniform.
    # The class total (samples_per_cell * n_genres) is redistributed by the row.
    genre_mix: tuple[tuple[float, ...], ...] | None = None
    # Optional distinct mix for the second domain; None = same as genre_mix.
    genre_mix_b: tuple[tuple[float, ...], ...] | None = None
    predominant_only_classes: tuple[int, ...] = ()

    def class_names(self) -> tuple[str, ...]:
        return tuple(f"class{k}" for k in range(self.n_classes))

    def genre_names(self) -> tuple[str, ...]:
        return tuple(f"genre{g}" for g in range(self.n_genres))


def default_spec(seed: int = 20240901) -> SynthSpec:
    """The stock corpus: global bias magnitude 3.0 along one direction, plus a
    genre-1 boost along the same direction; the last class sits entirely in
    genre 1, so its cross-domain transfer collapses until debiasing."""
    return SynthSpec(
        seed=seed,
        bias=(
            BiasSpec(GLOBAL_SCOPE, 3.0, 0),
            BiasSpec("genre1", 5.4, 0),
        ),
        genre_mix=((1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
        predominant_only_classes=(3,),
    )


@dataclass(frozen=True)
class GroundTruth:
    """Planted geometry, for oracle checks. Each clip's class, genre and split
    are in its domain's manifest: the class is its one "pos" label."""

    bias_directions: np.ndarray  # n_directions x D unit rows
    bias_entries: tuple[dict, ...]  # scope / magnitude / direction_index
    class_directions: np.ndarray  # K x D unit rows

    def bias_span(self) -> np.ndarray:
        """D x B orthonormal basis of the directions that carry nonzero bias."""
        used = sorted(
            {e["direction_index"] for e in self.bias_entries if e["magnitude"] > 0}
        )
        return self.bias_directions[used].T

    def to_dict(self) -> dict:
        return {
            "bias_directions": self.bias_directions.tolist(),
            "bias_entries": list(self.bias_entries),
            "class_directions": self.class_directions.tolist(),
        }


def _normalize_mix(
    raw: tuple[tuple[float, ...], ...] | None, spec: SynthSpec, name: str
) -> tuple[tuple[float, ...], ...]:
    if raw is None:
        return tuple(
            tuple(1.0 for _ in range(spec.n_genres)) for _ in range(spec.n_classes)
        )
    mix = tuple(tuple(float(w) for w in row) for row in raw)
    if len(mix) != spec.n_classes or any(len(row) != spec.n_genres for row in mix):
        raise ValidationError(f"{name} must be n_classes rows of n_genres weights")
    if any(not 0 <= w < math.inf for row in mix for w in row) or any(
        not 0 < sum(row) < math.inf for row in mix
    ):
        raise ValidationError(f"{name} rows need finite non-negative weights, positive sum")
    return mix


def _validate(
    spec: SynthSpec,
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...], int]:
    if spec.dim < 1 or spec.n_classes < 1 or spec.n_genres < 1:
        raise ValidationError("dim, n_classes and n_genres must be >= 1")
    if spec.samples_per_cell < 1:
        raise ValidationError("samples_per_cell must be >= 1")
    if spec.n_classes * spec.n_genres > MAX_CELLS:
        raise ValidationError(f"n_classes * n_genres must be <= {MAX_CELLS}")
    n_directions = max((e.direction_index for e in spec.bias), default=-1) + 1
    n_clips = 2 * spec.n_classes * spec.n_genres * spec.samples_per_cell
    if spec.dim * (n_clips + n_directions + spec.n_classes) > MAX_VALUES:
        raise ValidationError(f"the corpus would exceed {MAX_VALUES} values")
    if n_clips > MAX_CLIPS:
        raise ValidationError(f"the corpus would exceed {MAX_CLIPS} clips")
    if not (0.0 <= spec.test_fraction < 1.0):
        raise ValidationError("test_fraction must lie in [0, 1)")
    if not (0 <= spec.noise_sigma < math.inf and 0 <= spec.class_signal_strength < math.inf):
        raise ValidationError("noise_sigma and class_signal_strength must be finite and >= 0")
    if spec.seed < 0:
        raise ValidationError("seed must be >= 0")
    if len(spec.domain_names) != 2 or spec.domain_names[0] == spec.domain_names[1]:
        raise ValidationError("exactly two distinct domain names are required")
    for name in spec.domain_names:
        # Each name becomes a file name under the output directory.
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ValidationError(
                f"domain name {name!r} must be a plain file name: not empty, '.' or '..', "
                "and without '/', '\\' or NUL"
            )
    genre_names = spec.genre_names()
    for entry in spec.bias:
        if not 0 <= entry.magnitude < math.inf:
            raise ValidationError(f"bias magnitude must be finite and >= 0, got {entry.magnitude}")
        if entry.scope != GLOBAL_SCOPE and entry.scope not in genre_names:
            raise ValidationError(f"bias scope {entry.scope!r} is not global or a genre")
        if entry.direction_index < 0:
            raise ValidationError("direction_index must be >= 0")
    for k in spec.predominant_only_classes:
        if not 0 <= k < spec.n_classes:
            raise ValidationError(f"predominant-only class {k} out of range")
    mix_a = _normalize_mix(spec.genre_mix, spec, "genre_mix")
    mix_b = (
        mix_a
        if spec.genre_mix_b is None
        else _normalize_mix(spec.genre_mix_b, spec, "genre_mix_b")
    )
    if spec.dim <= n_directions + spec.n_classes:
        raise InfeasibleSpecError(
            f"dim {spec.dim} too small for {n_directions} bias + "
            f"{spec.n_classes} class directions with room to spare"
        )
    return mix_a, mix_b, n_directions


def _allocate(total: int, weights: tuple[float, ...]) -> list[int]:
    """Largest-remainder split of ``total`` by ``weights`` (deterministic)."""
    scale = sum(weights)
    exact = [total * w / scale for w in weights]
    counts = [int(np.floor(e)) for e in exact]
    short = total - sum(counts)
    remainders = sorted(
        range(len(weights)), key=lambda g: (-(exact[g] - counts[g]), g)
    )
    for g in remainders[:short]:
        counts[g] += 1
    return counts


def generate_biased_corpus(
    spec: SynthSpec,
) -> tuple[dict[str, EmbeddingTable], dict[str, Manifest], GroundTruth]:
    """Build both domains' embeddings and manifests plus the planted truth."""
    mix_a, mix_b, n_directions = _validate(spec)
    rng = np.random.default_rng(spec.seed)
    n_frame = n_directions + spec.n_classes
    frame, _ = np.linalg.qr(rng.standard_normal((spec.dim, max(n_frame, 1))))
    bias_dirs = frame[:, :n_directions].T.copy() if n_directions else np.zeros((0, spec.dim))
    class_dirs = frame[:, n_directions : n_directions + spec.n_classes].T.copy()

    class_names = spec.class_names()
    genre_names = spec.genre_names()
    # Per (domain sign, genre) mean offset, shared across classes.
    offsets: dict[tuple[float, int], np.ndarray] = {}
    for sign in (1.0, -1.0):
        for g in range(spec.n_genres):
            total = np.zeros(spec.dim)
            for entry in spec.bias:
                if entry.scope == GLOBAL_SCOPE or entry.scope == genre_names[g]:
                    total += sign * (entry.magnitude / 2.0) * bias_dirs[entry.direction_index]
            offsets[(sign, g)] = total

    tables: dict[str, EmbeddingTable] = {}
    manifests: dict[str, Manifest] = {}
    genre_tuples = np.fromiter(((name,) for name in genre_names), dtype=object, count=spec.n_genres)
    hidden = np.isin(np.arange(spec.n_classes), spec.predominant_only_classes)
    for domain, sign, mix in zip(spec.domain_names, (1.0, -1.0), (mix_a, mix_b)):
        # Built cell by cell: the clip ids, rows and held-out flags, and each
        # cell's (class, genre, clip count).
        ids: list[str] = []
        cells: list[np.ndarray] = []
        held_out: list[np.ndarray] = []
        cell_keys: list[tuple[int, int, int]] = []
        for k in range(spec.n_classes):
            counts = _allocate(spec.samples_per_cell * spec.n_genres, mix[k])
            for g, count in enumerate(counts):
                if count == 0:
                    continue
                mean = spec.class_signal_strength * class_dirs[k] + offsets[(sign, g)]
                noise = rng.standard_normal((count, spec.dim)) * spec.noise_sigma
                cells.append(mean + noise)
                n_test = int(round(spec.test_fraction * count))
                is_test = np.zeros(count, dtype=bool)
                if n_test:
                    is_test[rng.choice(count, size=n_test, replace=False)] = True
                held_out.append(is_test)
                ids.extend(f"{domain}-k{k}-g{g}-{i:05d}" for i in range(count))
                cell_keys.append((k, g, count))
        keys = np.array(cell_keys)
        klass, genre = np.repeat(keys[:, :2], keys[:, 2], axis=0).T
        others = np.where(hidden[klass], UNK, NEG)
        tables[domain] = EmbeddingTable(
            tuple(ids), np.zeros(len(ids), dtype=np.int64), np.concatenate(cells)
        )
        manifests[domain] = Manifest(
            ids,
            [domain] * len(ids),
            np.where(np.concatenate(held_out), TEST, TRAIN),
            genre_tuples[genre],
            {name: np.where(klass == k, POS, others) for k, name in enumerate(class_names)},
        )

    truth = GroundTruth(
        bias_directions=bias_dirs,
        bias_entries=tuple(
            {
                "scope": e.scope,
                "magnitude": float(e.magnitude),
                "direction_index": int(e.direction_index),
            }
            for e in spec.bias
        ),
        class_directions=class_dirs,
    )
    return tables, manifests, truth


def synth_genre_map(spec: SynthSpec) -> GenreMap:
    """Identity genre map over the given SynthSpec's genre names."""
    return GenreMap(spec.genre_names(), {})


def save_ground_truth(truth: GroundTruth, path: str) -> None:
    write_json(path, truth.to_dict())


_SPEC_NUMBERS = {
    "dim": int,
    "n_classes": int,
    "n_genres": int,
    "samples_per_cell": int,
    "test_fraction": float,
    "class_signal_strength": float,
    "noise_sigma": float,
    "seed": int,
}
_SPEC_FIELDS = {f.name for f in fields(SynthSpec)}


def spec_from_dict(obj: dict) -> SynthSpec:
    """Build a valid SynthSpec from a JSON object (the CLI's --spec file); a
    field of the wrong type or out of range is a ValidationError."""
    _typed(obj, dict, "synth spec", "a JSON object")
    unknown = set(obj) - _SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown synth spec fields: {sorted(unknown)}")
    kwargs: dict = {
        key: _number(kind, obj[key], key) for key, kind in _SPEC_NUMBERS.items() if key in obj
    }
    if "domain_names" in obj:
        kwargs["domain_names"] = tuple(
            _typed(name, str, "a domain name", "a string")
            for name in _typed(obj["domain_names"], list, "domain_names", "a list")
        )
    if "bias" in obj:
        entries = []
        for raw in _typed(obj["bias"], list, "bias", "a list"):
            _typed(raw, dict, "a bias entry", "an object")
            entries.append(
                BiasSpec(
                    _typed(raw.get("scope", GLOBAL_SCOPE), str, "bias scope", "a string"),
                    _number(float, raw.get("magnitude"), "bias magnitude"),
                    _number(int, raw.get("direction_index", 0), "direction_index"),
                )
            )
        kwargs["bias"] = tuple(entries)
    rows = "a list of weight lists"
    for key in ("genre_mix", "genre_mix_b"):
        if obj.get(key) is not None:
            kwargs[key] = tuple(
                tuple(_number(float, w, f"{key} weight") for w in _typed(row, list, key, rows))
                for row in _typed(obj[key], list, key, rows)
            )
    if "predominant_only_classes" in obj:
        kwargs["predominant_only_classes"] = tuple(
            _number(int, k, "predominant-only class")
            for k in _typed(obj["predominant_only_classes"], list, "predominant_only_classes", "a list")
        )
    spec = SynthSpec(**kwargs)
    _validate(spec)
    return spec
