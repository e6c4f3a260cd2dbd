"""Embedding tables, manifests, genre maps, pooling and balanced subsampling.

File contracts
--------------
Embedding CSV: header ``clip_id,frame,e0,...,e{D-1}``, one row per
(clip, frame), floats as their shortest round-trip repr, CRLF row ends; an id
is quoted csv-style only when it holds a comma, a double quote, CR or LF.

Embedding binary: magic ``EMB1``; little-endian u32 version (=1), u32 row
count, u32 dimension; then per row: u32 id byte-length, UTF-8 id bytes,
u32 frame index, D little-endian float32 values. Values are widened to
float64 in memory; save/load round-trips the file byte-exactly.

Manifest: JSON Lines, one record per line; only LF (U+000A) ends a line.
Each record carries ``clip_id``, ``dataset``, ``split`` ("train" | "test"),
``genres`` (list of strings) and ``labels`` (object mapping class name to
"pos" | "neg" | "unk"). The manifest's classes are every class name seen
anywhere in the file (at most ``MAX_CLASSES``); a class that a record omits
reads as "unk". In memory a manifest is its columns: one read-only array per
field with an entry per clip, and one array of label states per class.

Genre map: JSON object ``{"targets": [...], "rules": {"source": "target"}}``.
A genre equal to a canonical target maps to itself; rules cover renames.

The order of the rows in an embedding file and of the lines in a manifest
does not affect results: pooling orders clips by id and each clip's frames by
frame index, and the pipeline takes the manifests' classes in sorted order.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import lone_surrogate, read_json, write_json
from .errors import (
    EmptyClassError,
    FormatError,
    IoError,
    NonFiniteError,
    ParseError,
    ValidationError,
)

MAGIC = b"EMB1"
BINARY_VERSION = 1

TRAIN = "train"
TEST = "test"
SPLITS = (TRAIN, TEST)

POS = "pos"
NEG = "neg"
UNK = "unk"
LABEL_STATES = (POS, NEG, UNK)
# The loaded label columns hold these three strings, not each record's copy.
_STATES = {state: state for state in LABEL_STATES}
MAX_CLASSES = 1024  # cap on a manifest's classes: each record fills every class column

UNKNOWN_GENRE = "unknown"


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class EmbeddingTable:
    """Ordered (clip_id, frame_index, vector) rows over a fixed dimension.

    Vectors are float64 in memory regardless of on-disk width. Instances are
    immutable; the arrays are marked read-only. Zero rows are allowed for
    in-memory intermediates, but files must hold at least one row.
    """

    clip_ids: tuple[str, ...]
    frames: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        frames = np.ascontiguousarray(self.frames, dtype=np.int64)
        if vectors.ndim != 2:
            raise ValidationError("vectors must be a 2-d array")
        if vectors.shape[1] < 1:
            raise ValidationError("embedding dimension must be >= 1")
        if len(self.clip_ids) != vectors.shape[0] or frames.shape != (vectors.shape[0],):
            raise ValidationError("clip_ids, frames and vectors disagree on row count")
        if vectors.size and not np.isfinite(vectors).all():
            bad = int(np.where(~np.isfinite(vectors).all(axis=1))[0][0])
            raise NonFiniteError(
                f"row {bad}: clip {self.clip_ids[bad]!r}: non-finite embedding value"
            )
        keys = list(zip(self.clip_ids, frames.tolist()))
        if len(set(keys)) != len(keys):
            counts = Counter(keys)
            clip_id, frame = next(key for key in keys if counts[key] > 1)
            raise ValidationError(
                f"clip {clip_id!r} holds frame {frame} twice: "
                "(clip_id, frame_index) pairs must be unique"
            )
        object.__setattr__(self, "clip_ids", tuple(self.clip_ids))
        object.__setattr__(self, "frames", _freeze(frames))
        object.__setattr__(self, "vectors", _freeze(vectors))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_rows(self) -> int:
        return self.vectors.shape[0]


@contextmanager
def located(path: str):
    """Name ``path`` at the start of the message of a table check that fails
    in the block: a table built from the file's rows, or pooled from them."""
    try:
        yield
    except (NonFiniteError, ValidationError) as exc:  # the table's own checks
        raise type(exc)(f"{path}: {exc}") from exc


def load_embeddings(path: str) -> EmbeddingTable:
    """Read an embedding table from ``path``: the binary format when the file
    starts with ``MAGIC``, CSV otherwise."""
    try:
        with open(path, "rb") as handle:
            binary = handle.read(len(MAGIC)) == MAGIC
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with located(path):
        table = _load_binary(path) if binary else _load_csv(path)
    if table.n_rows < 1:
        raise ValidationError("embedding file holds no rows", path=path)
    return table


def save_embeddings(table: EmbeddingTable, path: str, fmt: str) -> None:
    """Write ``table`` to ``path``. Binary output round-trips byte-exactly."""
    if table.n_rows < 1:
        raise ValidationError("refusing to write an empty embedding table")
    if fmt == "csv":
        _save_csv(table, path)
    elif fmt == "binary":
        _save_binary(table, path)
    else:
        raise ValidationError(f"unknown embedding format {fmt!r}")


def _load_csv(path: str) -> EmbeddingTable:
    try:
        handle = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty CSV file") from None
            if len(header) < 3 or header[0] != "clip_id" or header[1] != "frame":
                raise FormatError(f"{path}: header must start with clip_id,frame,e0,...")
            dim = len(header) - 2
            expected = ["clip_id", "frame"] + [f"e{i}" for i in range(dim)]
            if header != expected:
                raise FormatError(f"{path}: malformed header {header[:4]}...")
            # `float()` parses each value straight into one float64 buffer
            # that grows in place, so no Python object is kept per value.
            ids: list[str] = []
            frames = array("q")
            values = array("d")
            for row in reader:
                if not row:
                    continue
                line_no = reader.line_num  # a quoted id may span lines
                if len(row) != dim + 2:
                    raise FormatError(
                        f"{path}: row at line {line_no} has {len(row) - 2} values, expected {dim}"
                    )
                try:
                    frames.append(int(row[1]))
                    values.extend(map(float, row[2:]))
                except (ValueError, OverflowError) as exc:
                    raise ParseError(str(exc), line=line_no, path=path) from exc
                ids.append(row[0])
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    vectors = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)
    return EmbeddingTable(tuple(ids), np.frombuffer(frames, dtype=np.int64), vectors)


def _save_csv(table: EmbeddingTable, path: str) -> None:
    """Write the bytes ``csv.writer`` writes, a row at a time: shortest
    round-trip floats (``repr``, as csv formats a float), CRLF row ends, and
    the csv module's minimal quoting of ids."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(["clip_id", "frame"] + [f"e{i}" for i in range(table.dim)])
        # One row at a time becomes Python floats: in numpy 2 a numpy scalar's
        # repr is "np.float64(...)", and the whole table as a list of floats
        # would take 32 bytes per value.
        handle.writelines(
            f"{csv_field(clip_id)},{frame},{','.join(map(repr, vec.tolist()))}\r\n"
            for clip_id, frame, vec in zip(table.clip_ids, table.frames.tolist(), table.vectors)
        )


def csv_field(text: str) -> str:
    """``text`` as a field of a csv.writer row: bare unless it holds a comma,
    a double quote, CR or LF, and then quoted by the csv module itself."""
    if not any(char in text for char in ',"\r\n'):
        return text
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text])
    return buffer.getvalue()[: -len("\r\n")]


_HEADER = struct.Struct("<4sIII")
_U32 = struct.Struct("<I")


def _load_binary(path: str) -> EmbeddingTable:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, n_rows, dim = _HEADER.unpack_from(blob, 0)
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise FormatError(f"{path}: dimension must be >= 1")
    offset = _HEADER.size
    # Each row takes at least its two u32 fields and its values; check the
    # claimed rows fit the file before allocating for them.
    if n_rows * (8 + 4 * dim) > len(blob) - offset:
        raise FormatError(
            f"{path}: header claims {n_rows} rows of dimension {dim}, "
            f"more than the {len(blob) - offset} bytes that follow"
        )
    ids: list[str] = []
    frames: list[int] = []
    # The rows' float32 values go, as bytes, into one float32 table that is
    # widened once when every row is read: no float64 table exists meanwhile.
    narrow = np.empty(n_rows * dim, dtype="<f4")
    vec_bytes = 4 * dim
    dest = memoryview(narrow.view(np.uint8))
    source = memoryview(blob)
    for row in range(n_rows):
        if offset + 4 > len(blob):
            raise FormatError(f"{path}: truncated at row {row}")
        (id_len,) = _U32.unpack_from(blob, offset)
        offset += 4
        if offset + id_len + 4 + vec_bytes > len(blob):
            raise FormatError(f"{path}: truncated at row {row}")
        try:
            ids.append(blob[offset : offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: row {row}: invalid UTF-8 clip id") from exc
        offset += id_len
        (frame,) = _U32.unpack_from(blob, offset)
        offset += 4
        frames.append(frame)
        dest[row * vec_bytes : (row + 1) * vec_bytes] = source[offset : offset + vec_bytes]
        offset += vec_bytes
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes")
    # The file's bytes go before the float64 table is made.
    source.release()
    dest.release()
    del blob
    vectors = narrow.reshape(n_rows, dim).astype(np.float64)
    return EmbeddingTable(tuple(ids), np.asarray(frames), vectors)


def _save_binary(table: EmbeddingTable, path: str) -> None:
    out = io.BytesIO()
    out.write(_HEADER.pack(MAGIC, BINARY_VERSION, table.n_rows, table.dim))
    narrowed = table.vectors.astype("<f4")
    for clip_id, frame, vec in zip(table.clip_ids, table.frames, narrowed):
        encoded = clip_id.encode("utf-8")
        out.write(_U32.pack(len(encoded)))
        out.write(encoded)
        out.write(_U32.pack(int(frame)))
        out.write(vec.tobytes())
    with open(path, "wb") as handle:
        handle.write(out.getvalue())


# --- manifests ------------------------------------------------------------


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-d array; an object column keeps each value,
    a tuple too, as one element."""
    if dtype is object and not isinstance(values, np.ndarray):
        values = np.fromiter(values, dtype=object, count=len(values))
    return _freeze(np.asarray(values, dtype=dtype))


@dataclass(frozen=True)
class Manifest:
    """Per-clip metadata as read-only columns, one entry per clip:
    ``clip_ids``, ``datasets``, ``splits`` and ``genres`` (a tuple of names
    per clip). ``labels`` maps each class to every clip's state for it."""

    clip_ids: np.ndarray
    datasets: np.ndarray
    splits: np.ndarray
    genres: np.ndarray
    labels: dict[str, np.ndarray]

    def __post_init__(self):
        kinds = {"clip_ids": object, "datasets": object, "splits": str, "genres": object}
        for name, dtype in kinds.items():
            object.__setattr__(self, name, _column(getattr(self, name), dtype))
        object.__setattr__(self, "labels", {c: _column(s, str) for c, s in self.labels.items()})
        columns = (self.datasets, self.splits, self.genres, *self.labels.values())
        if any(len(column) != len(self.clip_ids) for column in columns):
            raise ValidationError("manifest columns disagree on clip count")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def take(self, rows: np.ndarray, classes: tuple[str, ...]) -> "Manifest":
        """The records at ``rows``, in that order, over the label universe
        ``classes``; a class this manifest does not have reads "unk"."""
        rows = np.asarray(rows, dtype=np.intp)
        unknown = np.full(rows.size, UNK)
        return Manifest(
            self.clip_ids[rows],
            self.datasets[rows],
            self.splits[rows],
            self.genres[rows],
            {c: self.labels[c][rows] if c in self.labels else unknown for c in classes},
        )

    def label_states(self, class_name: str) -> np.ndarray:
        """Each record's label state for ``class_name``."""
        if class_name not in self.labels:
            raise EmptyClassError(f"class {class_name!r} absent from manifest")
        return self.labels[class_name]

    def indices(
        self, split: str, class_name: str | None = None, state: str | None = None
    ) -> np.ndarray:
        """Ascending indices of the ``split`` records; given a class, only those
        whose label for it is ``state``, or known ("pos" or "neg") when
        ``state`` is None."""
        mask = self.splits == split
        if class_name is not None:
            states = self.label_states(class_name)
            mask &= states == state if state is not None else states != UNK
        return np.flatnonzero(mask)


def load_manifest(path: str) -> Manifest:
    """Read a JSON Lines manifest. Only LF ends a record: JSON strings may
    hold other line separators, and the CR of a CRLF is JSON whitespace.
    Each line is decoded and checked as it is read, so the first faulty line
    is the one reported. Each class's column is built once the file is read,
    from every record's labels, which share one copy of each class name and
    state: a record that omits the class, such as one read before the class
    first appears, holds "unk" for it."""
    clip_ids: list[str] = []
    datasets: list[str] = []
    splits: list[str] = []
    genre_lists: list[tuple[str, ...]] = []
    label_dicts: list[dict[str, str]] = []
    classes: dict[str, str] = {}  # each name to its one copy, in first-seen order
    seen_ids: set[tuple[str, str]] = set()
    try:
        with open(path, "rb") as handle:
            for line_no, raw in enumerate(handle, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"not valid UTF-8 ({exc.reason})", line=line_no, path=path
                    ) from exc
                if not line.strip():
                    continue
                clip_id, dataset, split, genres, labels = _record(line, line_no, path)
                if (dataset, clip_id) in seen_ids:
                    raise ValidationError(
                        f"duplicate clip_id {clip_id!r} within dataset {dataset!r}",
                        line=line_no,
                        path=path,
                    )
                seen_ids.add((dataset, clip_id))
                label_dicts.append(
                    {classes.setdefault(c, c): _STATES[s] for c, s in labels.items()}
                )
                if len(classes) > MAX_CLASSES:
                    raise ValidationError(
                        f"more than {MAX_CLASSES} classes", line=line_no, path=path
                    )
                clip_ids.append(clip_id)
                datasets.append(dataset)
                splits.append(split)
                genre_lists.append(genres)
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    states = {c: [record.get(c, UNK) for record in label_dicts] for c in classes}
    return Manifest(clip_ids, datasets, splits, genre_lists, states)


def _record(line: str, line_no: int, path: str) -> tuple:
    """One manifest line's (clip_id, dataset, split, genres, labels), checked."""
    try:
        obj = json.loads(line)
        # The line is valid UTF-8, so only a \u escape can hold a lone surrogate.
        bad = lone_surrogate(obj) if "\\u" in line else None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", line=line_no, path=path) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", line=line_no, path=path) from exc
    except ValueError as exc:  # an integer too long to convert
        raise ParseError(str(exc), line=line_no, path=path) from exc
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line=line_no, path=path)
    if bad is not None:
        raise ParseError(f"lone UTF-16 surrogate {bad!r}", line=line_no, path=path)
    for key in ("clip_id", "dataset", "split", "genres", "labels"):
        if key not in obj:
            raise ValidationError(f"missing field {key!r}", line=line_no, path=path)
    clip_id, dataset, split = obj["clip_id"], obj["dataset"], obj["split"]
    if not isinstance(clip_id, str) or not isinstance(dataset, str):
        raise ValidationError("clip_id and dataset must be strings", line=line_no, path=path)
    if split not in SPLITS:
        raise ValidationError(
            f"unknown split token {split!r} (expected one of {SPLITS})",
            line=line_no,
            path=path,
        )
    genres = obj["genres"]
    if not isinstance(genres, list) or not all(isinstance(g, str) for g in genres):
        raise ValidationError("genres must be a list of strings", line=line_no, path=path)
    labels = obj["labels"]
    if not isinstance(labels, dict):
        raise ValidationError("labels must be an object", line=line_no, path=path)
    for cls, state in labels.items():
        if state not in LABEL_STATES:
            raise ValidationError(
                f"label state {state!r} for class {cls!r} not in {LABEL_STATES}",
                line=line_no,
                path=path,
            )
    return clip_id, dataset, split, tuple(genres), labels


def save_manifest(manifest: Manifest, path: str) -> None:
    states = {c: column.tolist() for c, column in manifest.labels.items()}
    columns = (manifest.clip_ids, manifest.datasets, manifest.splits, manifest.genres)
    with open(path, "w", encoding="utf-8") as handle:
        for i, (clip_id, dataset, split, genres) in enumerate(zip(*(c.tolist() for c in columns))):
            record = {
                "clip_id": clip_id,
                "dataset": dataset,
                "split": split,
                "genres": list(genres),
                "labels": {c: column[i] for c, column in states.items()},
            }
            handle.write(json.dumps(record) + "\n")


# --- genre maps -----------------------------------------------------------


@dataclass(frozen=True)
class GenreMap:
    """Canonical genre targets plus rename rules into them."""

    targets: tuple[str, ...]
    rules: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # Each genre that maps into the targets, and its target: a rule wins
        # over a target's own name.
        canonical = dict(zip(self.targets, self.targets))
        if len(canonical) != len(self.targets):
            raise ValidationError("genre map targets must be unique")
        for src, dst in self.rules.items():
            if dst not in canonical:
                raise ValidationError(f"rule target {dst!r} (for {src!r}) not in targets")
        object.__setattr__(self, "_canonical", {**canonical, **self.rules})


def load_genre_map(path: str) -> GenreMap:
    def reject_duplicates(pairs):
        counts = Counter(k for k, _ in pairs)
        if len(counts) != len(pairs):
            dupes = sorted(k for k, n in counts.items() if n > 1)
            raise ValidationError(f"duplicate rule keys {dupes} in {path}")
        return dict(pairs)

    obj = read_json(path, "genre map", reject_duplicates)
    if not isinstance(obj, dict) or "targets" not in obj:
        raise ValidationError(f"{path}: genre map must be an object with a targets list")
    targets = obj["targets"]
    rules = obj.get("rules", {})
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
        raise ValidationError(f"{path}: targets must be a list of strings")
    if not isinstance(rules, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in rules.items()
    ):
        raise ValidationError(f"{path}: rules must map strings to strings")
    return GenreMap(tuple(targets), dict(rules))


def save_genre_map(genre_map: GenreMap, path: str) -> None:
    obj = {"targets": list(genre_map.targets), "rules": dict(genre_map.rules)}
    write_json(path, obj, indent=2)


def reduce_genres(genres: tuple[str, ...] | list[str], genre_map: GenreMap) -> str:
    """Collapse a genre list to one label.

    The first genre that maps into the canonical targets wins; failing that,
    the first original label verbatim; an empty list gives "unknown".
    """
    for genre in genres:
        if genre in genre_map._canonical:
            return genre_map._canonical[genre]
    if genres:
        return genres[0]
    return UNKNOWN_GENRE


# --- pooling --------------------------------------------------------------


def pool_frames(table: EmbeddingTable) -> EmbeddingTable:
    """Mean-pool frames per clip, each clip at frame 0. Clips come out in
    code-point order of their ids, and a clip's frames are summed in
    frame-index order, so the order of the rows does not change the result.

    The rows are sorted once by (clip id, frame index). Each clip's frames
    are then summed rank by rank: frame rank 0 of every clip, then rank 1 of
    the clips that have one, and so on. Rank 0 is added to zeros as
    ``x + 0.0``, which IEEE addition makes the bits of ``0.0 + x``: a -0.0
    pools to +0.0."""
    keys = list(zip(table.clip_ids, table.frames.tolist()))
    order = sorted(range(table.n_rows), key=keys.__getitem__)
    ids = np.array([keys[row][0] for row in order], dtype=object)
    order = np.array(order, dtype=np.intp)
    first = np.ones(ids.size, dtype=bool)  # the rows that start a clip's run
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, ids.size))
    most = counts.max(initial=0)
    sums = table.vectors[order[starts]]
    sums += 0.0
    # Finite frames can sum past the float64 range; the pooled table refuses
    # the infinity, so numpy's overflow warning would only repeat it.
    with np.errstate(over="ignore"):
        for rank in range(1, most):
            clips = np.flatnonzero(counts > rank)
            sums[clips] += table.vectors[order[starts[clips] + rank]]
    if most > 1:  # x / 1 is x, so one-frame clips need no division
        sums /= counts[:, None]
    return EmbeddingTable(tuple(ids[starts].tolist()), np.zeros(starts.size, dtype=np.int64), sums)


# --- balanced subsampling -------------------------------------------------


def balanced_subsample(
    manifest_a: Manifest,
    manifest_b: Manifest,
    class_name: str,
    state: str,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Size-matched uniform subsamples of train records in the given label state.

    Returns sorted record-index arrays into each manifest, both of size
    min(count_a, count_b). Deterministic for a given seed.
    """
    pool_a = manifest_a.indices(TRAIN, class_name, state)
    pool_b = manifest_b.indices(TRAIN, class_name, state)
    if len(pool_a) == 0 or len(pool_b) == 0:
        raise EmptyClassError(
            f"no train records with label {state!r} for class {class_name!r} "
            f"on side {'a' if len(pool_a) == 0 else 'b'}"
        )
    n = min(len(pool_a), len(pool_b))
    rng = np.random.default_rng(seed)
    take_a = np.sort(rng.choice(pool_a, size=n, replace=False))
    take_b = np.sort(rng.choice(pool_b, size=n, replace=False))
    return take_a, take_b
