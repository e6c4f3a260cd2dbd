"""Embedding/manifest IO, genre reduction, pooling, and balanced sampling."""

import csv
import io
import json
import struct
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit import data
from debiaskit.data import (
    BINARY_VERSION,
    LABEL_STATES,
    MAX_CLASSES,
    NEG,
    POS,
    SPLITS,
    TEST,
    TRAIN,
    UNK,
    EmbeddingTable,
    GenreMap,
    Manifest,
    balanced_subsample,
    load_embeddings,
    load_genre_map,
    load_manifest,
    pool_frames,
    reduce_genres,
    save_embeddings,
    save_genre_map,
    save_manifest,
)
from debiaskit.errors import (
    DebiasKitError,
    EmptyClassError,
    FormatError,
    NonFiniteError,
    ParseError,
    ValidationError,
    located,
)


def make_table(ids, frames, vectors):
    return EmbeddingTable(tuple(ids), np.asarray(frames, dtype=np.int64), np.asarray(vectors, dtype=float))


def random_table(rng, n=10, dim=5):
    return make_table(
        [f"clip{i}" for i in range(n)],
        np.zeros(n, dtype=np.int64),
        rng.standard_normal((n, dim)),
    )


# --- embedding table validation -------------------------------------------


def test_table_rejects_duplicate_clip_frame_pairs():
    with pytest.raises(ValidationError):
        make_table(["a", "a"], [0, 0], [[1.0], [2.0]])


def test_table_allows_same_clip_distinct_frames():
    table = make_table(["a", "a"], [0, 1], [[1.0], [2.0]])
    assert table.n_rows == 2


def test_table_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        make_table(["a"], [0], [[np.inf]])


def test_loading_rowless_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("clip_id,frame,e0\n")
    with pytest.raises(ValidationError, match="no rows"):
        load_embeddings(str(path))


def test_a_message_located_by_path_alone_has_a_space_after_the_path(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("clip_id,frame,e0\n")
    with pytest.raises(ValidationError) as excinfo:
        load_embeddings(str(path))
    assert str(excinfo.value) == f"{path}: embedding file holds no rows"
    # A located line keeps its form: the path, a colon, then the line.
    for error, message in [
        (ParseError("bad", line=3), "m.jsonl:line 3: bad"),
        (ParseError("bad"), "m.jsonl: bad"),
    ]:
        with pytest.raises(ParseError) as excinfo:
            with located("m.jsonl"):
                raise error
        assert str(excinfo.value) == message
    assert str(ParseError("bad", line=3)) == "line 3: bad"


# --- CSV format -----------------------------------------------------------


def test_csv_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(0)
    table = random_table(rng)
    path = str(tmp_path / "t.csv")
    save_embeddings(table, path, "csv")
    loaded = load_embeddings(path)
    assert loaded.clip_ids == table.clip_ids
    np.testing.assert_array_equal(loaded.vectors, table.vectors)
    np.testing.assert_array_equal(loaded.frames, table.frames)


def test_csv_rejects_wrong_width(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,frame,e0,e1,e2\nc0,0,1.0,2.0,3.0,4.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_embeddings(str(path))


def test_csv_wrong_width_after_a_blank_line_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,frame,e0,e1,e2\nc0,0,1.0,2.0,3.0\n\nc1,0,1.0,2.0\n")
    with pytest.raises(FormatError, match=":line 4: "):
        load_embeddings(str(path))


@pytest.mark.parametrize(
    "body, message",
    [
        ("c0,0\n", "row has 0 values, expected 1"),
        ("a" * 200_000 + ",0,1.0\n", "field larger than field limit"),
    ],
    ids=["short-row", "long-field"],
)
def test_csv_format_errors_name_their_line_like_every_located_message(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,frame,e0\n" + body)
    with pytest.raises(FormatError) as excinfo:
        load_embeddings(str(path))
    assert str(excinfo.value).startswith(f"{path}:line 2: {message}"), str(excinfo.value)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,frame,e0\nc0,0,1.0\n")
    with pytest.raises(FormatError):
        load_embeddings(str(path))


@pytest.mark.parametrize(
    "fmt, body, where",
    [
        ("csv", "c0,0,1.0\nc1,0,nan\n", ":line 3: clip 'c1'"),
        ("csv", "c0,0,1.0\n\nc1,0,-Infinity\n", ":line 4: clip 'c1'"),
        ("csv", "c0,0,1.0\nc1,0,1e400\n", ":line 3: clip 'c1'"),
        ("csv", 'c0,0,1.0\n"c\n1",0,nan\n', ":line 4: clip 'c\\n1'"),
        ("binary", None, ": row 1: clip 'c1'"),
    ],
    ids=["csv", "csv-infinity-after-blank", "csv-overflow", "csv-id-over-two-lines", "binary"],
)
def test_loader_rejects_nan(tmp_path, fmt, body, where):
    path = tmp_path / "bad"
    if fmt == "csv":
        path.write_text("clip_id,frame,e0\n" + body)
    else:
        rows = [(b"c0", 1.0), (b"c1", float("nan"))]
        path.write_bytes(
            struct.pack("<4sIII", b"EMB1", BINARY_VERSION, len(rows), 1)
            + b"".join(struct.pack("<I", len(c)) + c + struct.pack("<If", 0, v) for c, v in rows)
        )
    with pytest.raises(NonFiniteError) as excinfo:
        load_embeddings(str(path))
    # A CSV row is located by its file line, a binary row by its index.
    assert str(excinfo.value) == f"{path}{where}: non-finite embedding value"


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_a_repeated_clip_frame_pair_names_its_file_clip_and_frame(tmp_path, fmt):
    table = make_table(["a", "b", "c"], [0, 3, 0], [[1.0], [2.0], [3.0]])
    path = tmp_path / "dup"
    save_embeddings(table, str(path), fmt)
    # Append the row ("b", 3) again, by hand in each format.
    if fmt == "csv":
        path.write_bytes(path.read_bytes() + b"b,3,4.0\r\n")
    else:
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 4)
        path.write_bytes(bytes(blob) + struct.pack("<I", 1) + b"b" + struct.pack("<If", 3, 4.0))
    with pytest.raises(ValidationError) as excinfo:
        load_embeddings(str(path))
    assert str(excinfo.value) == (
        f"{path}: clip 'b' holds frame 3 twice: (clip_id, frame_index) pairs must be unique"
    )


def test_csv_rejects_unparsable_float(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,frame,e0\nc0,0,abc\n")
    with pytest.raises(ParseError):
        load_embeddings(str(path))


@pytest.mark.parametrize(
    "body, line",
    [
        ("c0,0,1.0\n\n\nc1,0,0x10\n", 5),
        ("c0,0,1.0\r\n\r\nc1,x,1.0\r\n", 4),
        ('"c\n0",0,1.0\nc1,0,xyz\n', 4),
        # A frame index beyond int64.
        ("c0,99999999999999999999,1.0\n", 2),
    ],
    ids=["value-after-blank-lines", "frame-crlf", "after-a-two-line-id", "frame-overflow"],
)
def test_csv_rejects_unparsable_field_naming_its_line(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,frame,e0\n" + body, newline="")
    with pytest.raises(ParseError) as excinfo:
        load_embeddings(str(path))
    assert str(excinfo.value).startswith(f"{path}:line {line}: ")


def test_csv_values_parse_as_python_floats(tmp_path):
    texts = ["1_0", " 7 ", "\u0661\u0662", "-0.0", "1e-320", "0.1", "+.5e1", "4.9e-324"]
    path = tmp_path / "t.csv"
    header = "clip_id,frame," + ",".join(f"e{i}" for i in range(len(texts)))
    path.write_text(f"{header}\nc0,1_0,{','.join(texts)}\n", encoding="utf-8")
    table = load_embeddings(str(path))
    expected = np.array([[float(t) for t in texts]])
    assert table.vectors.tobytes() == expected.tobytes()
    assert table.frames.tolist() == [10]


def reference_save_csv(table, path):
    """The writer as it was first written: one `writerow` per row, each
    value a numpy scalar passed through `repr(float(v))`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["clip_id", "frame"] + [f"e{i}" for i in range(table.dim)])
        for clip_id, frame, vec in zip(table.clip_ids, table.frames, table.vectors):
            writer.writerow([clip_id, int(frame)] + [repr(float(v)) for v in vec])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csv_writer_matches_the_reference_bytes_and_round_trips(tmp_path, seed):
    rng = np.random.default_rng(seed)
    clips, dim = 40, 6
    frames_per_clip = 1 + seed
    n = clips * frames_per_clip
    # Values across the exponent range, plus exact zeros, halves and integers.
    vectors = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
    vectors[0] = [0.0, -0.0, 0.5, 1e16, 123456789.0, 5e-324]
    # Ids that csv.writer must quote (some spanning lines), and ids it writes bare.
    tricky = [
        "a,b", 'say "hi"', '"lead', '""', "clip-é☃", " padded ", "line\nbreak",
        "cr\ronly", "crlf\r\nid", "\r", "", "'",
    ]
    ids = tricky + [f"clip{i}" for i in range(clips - len(tricky))]
    # Each clip's frames are distinct, in no particular order.
    frames = np.concatenate([rng.choice(2**31, frames_per_clip, replace=False) for _ in ids])
    table = make_table(np.repeat(ids, frames_per_clip).tolist(), frames, vectors)
    save_embeddings(table, str(tmp_path / "new.csv"), "csv")
    reference_save_csv(table, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_embeddings(str(tmp_path / "new.csv"))
    assert loaded.clip_ids == table.clip_ids
    np.testing.assert_array_equal(loaded.frames, table.frames)
    np.testing.assert_array_equal(loaded.vectors, vectors)


def traced_peak(load):
    """Bytes that ``load()`` holds at its high-water mark, by tracemalloc,
    after one untraced call to warm any caches."""
    load()
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_loader_peaks_below_three_times_its_array(tmp_path):
    # One float64 array and the ids: no Python object per value.
    table = random_table(np.random.default_rng(3), n=2000, dim=64)
    path = str(tmp_path / "t.csv")
    save_embeddings(table, path, "csv")
    peak = traced_peak(lambda: load_embeddings(path))
    assert peak < 3 * table.vectors.nbytes


# --- binary format --------------------------------------------------------


def f32_table(rng, n=7, dim=4):
    """Values exactly representable in 32-bit floats, so round trips are bit-exact."""
    vectors = rng.standard_normal((n, dim)).astype(np.float32).astype(np.float64)
    return make_table([f"clip-é{i}" for i in range(n)], np.arange(n), vectors)


def test_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    table = f32_table(rng)
    p1, p2 = str(tmp_path / "a.emb"), str(tmp_path / "b.emb")
    save_embeddings(table, p1, "binary")
    loaded = load_embeddings(p1)
    assert loaded.vectors.tobytes() == table.vectors.tobytes()
    assert loaded.clip_ids == table.clip_ids
    save_embeddings(loaded, p2, "binary")
    assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()


def test_binary_magic_bytes(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.emb"
    save_embeddings(random_table(rng), str(path), "binary")
    assert path.read_bytes()[:4] == b"EMB1"


def test_a_binary_file_is_read_into_memory_once(tmp_path, monkeypatch):
    # The loader opens the file unbuffered: a buffered read() of the whole
    # file joins the read-ahead to a second full-size copy, twice its size.
    table = f32_table(np.random.default_rng(4), n=2000, dim=128)
    path = tmp_path / "t.emb"
    save_embeddings(table, str(path), "binary")
    load_binary, peaks = data._load_binary, []

    def measured(handle):
        tracemalloc.start()
        try:
            blob = handle.read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return load_binary(io.BytesIO(blob))

    monkeypatch.setattr(data, "_load_binary", measured)
    loaded = load_embeddings(str(path))
    np.testing.assert_array_equal(loaded.vectors, table.vectors)
    assert peaks[0] < 1.25 * path.stat().st_size


def test_binary_small_header_round_trip(tmp_path):
    table = make_table(["x", "y"], [0, 0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = str(tmp_path / "t.emb")
    save_embeddings(table, path, "binary")
    loaded = load_embeddings(path)
    assert loaded.n_rows == 2 and loaded.dim == 3


def test_binary_size_formula(tmp_path):
    rng = np.random.default_rng(3)
    n, dim = 100, 512
    ids = [f"clip-{i:04d}" for i in range(n)]
    table = make_table(ids, np.zeros(n, dtype=np.int64), rng.standard_normal((n, dim)))
    path = tmp_path / "t.emb"
    save_embeddings(table, str(path), "binary")
    # Independent size computation: fixed header, then per row the id-length
    # field, the encoded id, the frame field, and dim 4-byte floats.
    expected = 16 + sum(4 + len(i.encode("utf-8")) + 4 + dim * 4 for i in ids)
    assert path.stat().st_size == expected


def test_binary_rejects_bad_magic(tmp_path):
    # A file without the magic is read as CSV, whose header check refuses it.
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError) as excinfo:
        load_embeddings(str(path))
    assert str(excinfo.value).startswith(f"{path}: header must start")


@pytest.mark.parametrize("fmt, misnamed", [("binary", "t.csv"), ("csv", "t.emb")])
def test_the_format_is_read_from_the_file_not_its_name(tmp_path, fmt, misnamed):
    table = f32_table(np.random.default_rng(6))
    named = str(tmp_path / ("t.emb" if fmt == "binary" else "t.csv"))
    save_embeddings(table, named, fmt)
    save_embeddings(table, str(tmp_path / misnamed), fmt)
    for loaded in (load_embeddings(named), load_embeddings(str(tmp_path / misnamed))):
        assert loaded.clip_ids == table.clip_ids
        np.testing.assert_array_equal(loaded.frames, table.frames)
        assert loaded.vectors.tobytes() == table.vectors.tobytes()


def test_binary_rejects_truncation(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "t.emb"
    save_embeddings(random_table(rng), str(path), "binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        load_embeddings(str(path))


def reference_load_binary(blob):
    """The row-by-row reader: a float64 table allocated first, each row's
    float32 values widened into it by its own ``np.frombuffer``."""
    _, _, n_rows, dim = struct.unpack_from("<4sIII", blob, 0)
    offset = 16
    ids, frames = [], []
    vectors = np.empty((n_rows, dim), dtype=np.float64)
    for row in range(n_rows):
        (id_len,) = struct.unpack_from("<I", blob, offset)
        ids.append(blob[offset + 4 : offset + 4 + id_len].decode("utf-8"))
        offset += 4 + id_len
        frames.append(struct.unpack_from("<I", blob, offset)[0])
        vectors[row] = np.frombuffer(blob, dtype="<f4", count=dim, offset=offset + 4)
        offset += 4 + 4 * dim
    return tuple(ids), np.asarray(frames, dtype=np.int64), vectors


F32_EDGES = np.array(
    [
        -0.0,
        0.0,
        np.finfo(np.float32).smallest_subnormal,
        -np.finfo(np.float32).smallest_subnormal,
        np.finfo(np.float32).smallest_normal * 0.5,  # a subnormal
        np.finfo(np.float32).smallest_normal,
        np.finfo(np.float32).max,
        -np.finfo(np.float32).max,
    ],
    dtype=np.float32,
)


@pytest.mark.parametrize("seed", range(20))
def test_binary_reader_matches_the_row_by_row_reader_byte_for_byte(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    alphabet = ["a", "Z", "0", ",", "\u00e9", "\u4e2d", "\U0001f3b5", " "]
    ids = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 9)))) for _ in range(n)]
    frames = rng.choice(2**32, size=n, replace=False)
    values = rng.standard_normal((n, dim)).astype(np.float32)
    edge = rng.random((n, dim)) < 0.3
    values[edge] = rng.choice(F32_EDGES, size=int(edge.sum()))
    blob = struct.pack("<4sIII", b"EMB1", BINARY_VERSION, n, dim) + b"".join(
        struct.pack("<I", len(c.encode())) + c.encode() + struct.pack("<I", f) + v.astype("<f4").tobytes()
        for c, f, v in zip(ids, frames.tolist(), values)
    )
    path = tmp_path / "t.emb"
    path.write_bytes(blob)
    loaded = load_embeddings(str(path))
    ref_ids, ref_frames, ref_vectors = reference_load_binary(blob)
    assert loaded.clip_ids == ref_ids
    assert loaded.frames.tobytes() == ref_frames.tobytes()
    assert loaded.vectors.dtype == np.float64
    assert loaded.vectors.tobytes() == ref_vectors.tobytes()


def test_binary_loader_peaks_below_twice_its_float64_table(tmp_path):
    # The file's bytes are dropped before the float32 table is widened, so
    # the peak holds the two tables, not the bytes as well.
    table = random_table(np.random.default_rng(4), n=4000, dim=256)
    path = str(tmp_path / "t.emb")
    save_embeddings(table, path, "binary")
    peak = traced_peak(lambda: load_embeddings(path))
    assert peak < 1.9 * table.vectors.nbytes, peak / table.vectors.nbytes


def test_refuses_to_write_empty_table(tmp_path):
    rng = np.random.default_rng(5)
    table = random_table(rng, n=2)
    object.__setattr__(table, "clip_ids", ())
    object.__setattr__(table, "frames", np.zeros(0, dtype=np.int64))
    object.__setattr__(table, "vectors", np.zeros((0, 5)))
    with pytest.raises(ValidationError):
        save_embeddings(table, str(tmp_path / "t.emb"), "binary")


# --- manifests ------------------------------------------------------------


def test_manifest_single_record_fills_unknowns(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [
        {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {"organ": "pos"}},
        {"clip_id": "b", "dataset": "A", "split": "test", "genres": ["x"], "labels": {"guitar": "neg"}},
    ]
    path.write_text("".join(json.dumps(o) + "\n" for o in lines))
    manifest = load_manifest(str(path))
    assert set(manifest.classes) == {"organ", "guitar"}
    assert manifest.label_states("organ").tolist() == [POS, UNK]
    assert manifest.label_states("guitar").tolist() == [UNK, NEG]
    assert manifest.indices(TRAIN, "guitar", UNK).tolist() == [0]
    assert manifest.indices(TEST, "organ", UNK).tolist() == [1]


def test_manifest_duplicate_id_same_dataset_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    line = {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {}}
    path.write_text(json.dumps(line) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_manifest(str(path))


def test_manifest_same_id_different_datasets_allowed(tmp_path):
    path = tmp_path / "m.jsonl"
    lines = [
        {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {"k": "pos"}},
        {"clip_id": "a", "dataset": "B", "split": "train", "genres": [], "labels": {"k": "pos"}},
    ]
    path.write_text("".join(json.dumps(o) + "\n" for o in lines))
    manifest = load_manifest(str(path))
    assert manifest.clip_ids.tolist() == ["a", "a"]
    assert manifest.datasets.tolist() == ["A", "B"]


def test_manifest_bad_split_names_line(tmp_path):
    path = tmp_path / "m.jsonl"
    good = {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {}}
    bad = {"clip_id": "b", "dataset": "A", "split": "validation", "genres": [], "labels": {}}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_manifest(str(path))


def test_manifest_malformed_json_names_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"clip_id": "a"\n')
    with pytest.raises(ParseError, match="line 1"):
        load_manifest(str(path))


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_manifest_strings_may_hold_unicode_line_separators(tmp_path, separator):
    # JSON allows these unescaped inside a string; only LF ends a record.
    record = {
        "clip_id": "a",
        "dataset": "A",
        "split": "train",
        "genres": [f"rock{separator}pop"],
        "labels": {"k": "pos"},
    }
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\r\n", encoding="utf-8")
    manifest = load_manifest(str(path))
    assert manifest.genres.tolist() == [(f"rock{separator}pop",)]
    assert manifest.label_states("k").tolist() == [POS]


def test_manifest_loader_peak_per_record(tmp_path):
    # Each record keeps only its labels, over one copy of each class name and
    # state, so the loader holds far less than one parsed JSON object per
    # record at its peak.
    n = 2000
    path = tmp_path / "m.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            record = {
                "clip_id": f"synthA-k{i % 4}-g{i % 3}-{i:05d}",
                "dataset": "synthA",
                "split": TRAIN if i % 3 else TEST,
                "genres": [f"genre{i % 3}"],
                "labels": {f"class{k}": POS if k == i % 4 else NEG for k in range(4)},
            }
            handle.write(json.dumps(record) + "\n")
    peak = traced_peak(lambda: load_manifest(str(path)))
    assert peak < 1024 * n


def test_manifest_reports_its_first_faulty_line(tmp_path):
    good = {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {}}
    lines = [json.dumps(good).encode(), b'{"clip_id": "b"}', b"\xff", b"{not json"]
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValidationError, match="missing field") as excinfo:
        load_manifest(str(path))
    assert str(excinfo.value).startswith(f"{path}:line 2: ")
    path.write_bytes(b"\n".join(lines[:1] + lines[2:]) + b"\n")
    with pytest.raises(ParseError, match="UTF-8") as excinfo:
        load_manifest(str(path))
    assert str(excinfo.value).startswith(f"{path}:line 2: ")


def test_manifest_bad_label_state_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    line = {"clip_id": "a", "dataset": "A", "split": "train", "genres": [], "labels": {"k": "maybe"}}
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(ValidationError, match="maybe"):
        load_manifest(str(path))


def manifest_of(records, classes):
    """Columns built from (clip_id, dataset, split, genres, labels) records,
    one by one; a class that a record's labels omit reads "unk"."""
    return Manifest(
        [r[0] for r in records],
        [r[1] for r in records],
        [r[2] for r in records],
        [tuple(r[3]) for r in records],
        {c: [r[4].get(c, UNK) for r in records] for c in classes},
    )


def assert_same_columns(left, right):
    assert left.classes == right.classes
    for name in ("clip_ids", "datasets", "splits", "genres"):
        assert getattr(left, name).tolist() == getattr(right, name).tolist(), name
    for cls in left.classes:
        assert left.labels[cls].tolist() == right.labels[cls].tolist(), cls


def write_records(path, records):
    """Write (clip_id, dataset, split, genres, labels) records as a manifest."""
    keys = ("clip_id", "dataset", "split", "genres", "labels")
    path.write_text("".join(json.dumps(dict(zip(keys, r))) + "\n" for r in records))


def test_manifest_classes_first_seen_on_later_lines_read_unk_before(tmp_path):
    records = [
        ("a", "A", TRAIN, (), {}),
        ("b", "A", TEST, ("rock",), {"k1": POS}),
        ("c", "A", TRAIN, (), {"k0": NEG, "k1": NEG}),
        ("d", "B", TEST, (), {"k2": POS, "k0": POS}),
        ("e", "B", TRAIN, ("jazz",), {"k1": UNK}),
    ]
    path = tmp_path / "m.jsonl"
    write_records(path, records)
    loaded = load_manifest(str(path))
    # The classes in the order they first appear, as the records built one by one.
    assert_same_columns(loaded, manifest_of(records, ("k1", "k0", "k2")))
    assert loaded.labels["k1"].tolist() == [UNK, POS, NEG, UNK, UNK]
    assert loaded.labels["k0"].tolist() == [UNK, UNK, NEG, POS, UNK]
    assert loaded.labels["k2"].tolist() == [UNK, UNK, UNK, POS, UNK]


def test_manifest_past_max_classes_is_refused_on_the_line_that_brings_one_more(tmp_path):
    # Line 1 brings all but two of the bound's classes, line 2 only known ones,
    # line 3 the last two and line 4 one known and one past the bound.
    names = [f"k{i}" for i in range(MAX_CLASSES + 1)]
    labels = [
        dict.fromkeys(names[:-3], NEG),
        {names[0]: POS},
        dict.fromkeys(names[-3:-1], POS),
        dict.fromkeys([names[1], names[-1]], POS),
    ]
    records = [(f"c{i}", "A", TRAIN, (), states) for i, states in enumerate(labels)]
    path = tmp_path / "m.jsonl"
    write_records(path, records[:3])
    assert len(load_manifest(str(path)).classes) == MAX_CLASSES
    write_records(path, records)
    with pytest.raises(ValidationError, match=f"more than {MAX_CLASSES} classes") as excinfo:
        load_manifest(str(path))
    assert str(excinfo.value).startswith(f"{path}:line 4: ")


def test_manifest_save_load_round_trip(tmp_path):
    # One record omits a class and has no genres; one has two genres.
    records = [
        ("a", "A", TRAIN, ("rock",), {"k0": POS, "k1": UNK}),
        ("b", "A", TEST, (), {"k0": NEG}),
        ("c", "B", TRAIN, ("jazz", "rock"), {"k1": POS}),
    ]
    manifest = manifest_of(records, ("k0", "k1"))
    assert manifest.labels["k1"].tolist() == [UNK, UNK, POS]
    path = str(tmp_path / "m.jsonl")
    save_manifest(manifest, path)
    loaded = load_manifest(path)
    assert_same_columns(loaded, manifest)
    assert loaded.genres.tolist() == [("rock",), (), ("jazz", "rock")]
    save_manifest(loaded, str(tmp_path / "again.jsonl"))
    assert (tmp_path / "again.jsonl").read_bytes() == Path(path).read_bytes()


def test_take_reorders_and_widens_the_label_universe():
    manifest = manifest_of(
        [
            ("a", "A", TRAIN, ("rock",), {"k0": POS}),
            ("b", "A", TEST, (), {"k0": NEG}),
            ("c", "B", TRAIN, ("jazz",), {"k0": UNK}),
        ],
        ("k0",),
    )
    taken = manifest.take(np.array([2, 0]), ("new", "k0"))
    assert taken.clip_ids.tolist() == ["c", "a"]
    assert taken.datasets.tolist() == ["B", "A"]
    assert taken.splits.tolist() == [TRAIN, TRAIN]
    assert taken.genres.tolist() == [("jazz",), ("rock",)]
    assert taken.classes == ("new", "k0")
    assert taken.labels["new"].tolist() == [UNK, UNK]
    assert taken.labels["k0"].tolist() == [UNK, POS]
    empty = manifest.take(np.array([], dtype=np.intp), ("k0",))
    assert empty.clip_ids.size == 0 and empty.labels["k0"].size == 0
    assert empty.indices(TRAIN, "k0").size == 0
    for column in (taken.clip_ids, taken.datasets, taken.splits, taken.genres, *taken.labels.values()):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_manifest_columns_must_agree_on_clip_count():
    with pytest.raises(ValidationError, match="clip count"):
        Manifest(["a", "b"], ["A", "A"], [TRAIN], [(), ()], {})


# --- genre maps and reduction ---------------------------------------------


GM = GenreMap(("pop/rock", "jazz"), {"Noise-Rock": "pop/rock"})


def test_reduce_rule_match_wins():
    assert reduce_genres(["Noise-Rock", "Jazz"], GM) == "pop/rock"


def test_reduce_no_match_returns_first_verbatim():
    assert reduce_genres(["Ambient", "Drone"], GM) == "Ambient"


def test_reduce_empty_is_unknown():
    assert reduce_genres([], GM) == "unknown"


def test_reduce_canonical_name_self_maps():
    assert reduce_genres(["Ambient", "jazz"], GM) == "jazz"


def test_genre_map_rejects_rule_to_unknown_target():
    with pytest.raises(ValidationError):
        GenreMap(("jazz",), {"x": "blues"})


def test_genre_map_round_trip(tmp_path):
    path = str(tmp_path / "g.json")
    save_genre_map(GM, path)
    loaded = load_genre_map(path)
    assert loaded.targets == GM.targets
    assert loaded.rules == GM.rules


def test_genre_map_duplicate_rule_keys_rejected(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"targets": ["a"], "rules": {"x": "a", "x": "a"}}')
    with pytest.raises(ValidationError, match="duplicate"):
        load_genre_map(str(path))


@pytest.mark.parametrize("duplicate", [False, True], ids=["valid", "one-duplicate-key"])
def test_a_100k_entry_genre_map_loads_and_applies_in_linear_time(tmp_path, duplicate):
    # 50k targets and 50k rules, rule i renaming to target i, each entry
    # applied to one record. With a lookup per genre and a count of the keys
    # this takes about 0.2 s; a scan of the targets per rule and per genre, or
    # of the keys per key, takes about a minute.
    targets = [f"t{i}" for i in range(50_000)]
    rules = {f"r{i}": target for i, target in enumerate(targets)}
    text = json.dumps({"targets": targets, "rules": rules})
    if duplicate:
        text = text[: -len("}}")] + ', "r0": "t0"}}'
    path = tmp_path / "g.json"
    path.write_text(text)
    start = time.perf_counter()
    if duplicate:
        with pytest.raises(ValidationError) as excinfo:
            load_genre_map(str(path))
        assert str(excinfo.value) == f"{path}: duplicate rule keys ['r0']"
    else:
        genre_map = load_genre_map(str(path))
        reduced = [reduce_genres((genre,), genre_map) for genre in [*rules, *targets]]
        assert reduced == targets + targets
    assert time.perf_counter() - start < 2.0


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, content, fmt, error",
    [
        ("m.jsonl", b'{"clip_id": "\xff"}\n', "manifest", ParseError),
        ("e.csv", b"clip_id,frame,e0\n\xff,0,1.0\n", "csv", FormatError),
        # The csv module refuses a field over 128 KiB.
        ("long.csv", b"clip_id,frame,e0\n" + b"a" * 200_000 + b",0,1.0\n", "csv", FormatError),
        ("g.json", b'{"targets": ["\xff"]}', "genre_map", ValidationError),
        ("deep.json", ('{"targets": ' + DEEP + "}").encode(), "genre_map", ValidationError),
        ("deep.jsonl", ('{"clip_id": ' + DEEP + "}\n").encode(), "manifest", ParseError),
        # 2^32 - 1 rows of dimension 2^32 - 1 would take 8 TiB as float64.
        ("huge.emb", struct.pack("<4sIII", b"EMB1", 1, 2**32 - 1, 2**32 - 1), "binary", FormatError),
        # Python refuses to convert an integer of more than 4300 digits.
        ("long.jsonl", ('{"clip_id": ' + "1" * 5000 + "}\n").encode(), "manifest", ParseError),
        ("long.json", ('{"targets": ' + "1" * 5000 + "}").encode(), "genre_map", ValidationError),
        # An unpaired surrogate escape parses, but no UTF-8 text can hold it.
        ("lone.jsonl", b'{"clip_id": "a\\ud800"}\n', "manifest", ParseError),
        ("lone.json", b'{"targets": ["a"], "rules": {"\\udc00": "a"}}', "genre_map", ValidationError),
    ],
    ids=[
        "manifest-utf8",
        "csv-utf8",
        "csv-long-field",
        "genre-map-utf8",
        "genre-map-deep",
        "manifest-deep",
        "binary-header",
        "manifest-long-int",
        "genre-map-long-int",
        "manifest-lone-surrogate",
        "genre-map-lone-surrogate",
    ],
)
def test_unreadable_file_ends_in_a_package_error(tmp_path, name, content, fmt, error):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(error):
        if fmt == "manifest":
            load_manifest(str(path))
        elif fmt == "genre_map":
            load_genre_map(str(path))
        else:
            load_embeddings(str(path))


def test_a_surrogate_pair_escape_reads_as_its_character(tmp_path):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(
        '{"clip_id": "a", "dataset": "d", "split": "train", "genres": ["\\ud83c\\udfb5"],'
        ' "labels": {"\\ud83c\\udfb5": "pos"}}\n'
    )
    loaded = load_manifest(str(manifest))
    assert loaded.classes == ("\U0001f3b5",) and loaded.genres.tolist() == [("\U0001f3b5",)]
    genre_map = tmp_path / "g.json"
    genre_map.write_text('{"targets": ["\\ud83c\\udfb5"]}')
    assert load_genre_map(str(genre_map)).targets == ("\U0001f3b5",)


# --- frame pooling --------------------------------------------------------


def test_pool_two_frames_simple_mean():
    table = make_table(["a", "a"], [0, 1], [[1.0, 2.0], [3.0, 4.0]])
    pooled = pool_frames(table)
    assert pooled.clip_ids == ("a",)
    np.testing.assert_allclose(pooled.vectors, [[2.0, 3.0]])
    assert pooled.frames.tolist() == [0]


def test_frames_that_sum_past_the_float_range_name_their_clip():
    # Clip "a" pools to row 1, from the file's rows 1 and 2; no row of it is
    # non-finite, only the sum of its frames.
    table = make_table(["b", "a", "a"], [0, 0, 1], [[1.0], [1e308], [1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as excinfo:
            pool_frames(table)
    assert str(excinfo.value) == "clip 'a': its 2 frames sum past the float64 range"


def test_pool_single_frame_unchanged():
    table = make_table(["a"], [3], [[1.5, -2.5]])
    pooled = pool_frames(table)
    np.testing.assert_array_equal(pooled.vectors, table.vectors)


def test_pool_matches_summation_oracle():
    rng = np.random.default_rng(6)
    frames = rng.standard_normal((5, 7))
    table = make_table(["c"] * 5, np.arange(5), frames)
    pooled = pool_frames(table)
    oracle = np.zeros(7)
    for row in frames:
        oracle += row
    oracle /= 5.0
    np.testing.assert_allclose(pooled.vectors[0], oracle, atol=1e-12)


def test_pool_is_idempotent():
    rng = np.random.default_rng(7)
    table = make_table(
        ["a", "b", "a", "c"], [0, 0, 1, 0], rng.standard_normal((4, 3))
    )
    once = pool_frames(table)
    twice = pool_frames(once)
    assert twice.clip_ids == once.clip_ids
    np.testing.assert_array_equal(twice.vectors, once.vectors)


def test_pool_orders_clips_by_id():
    table = make_table(
        ["b", "a", "b", "B", "\u00e9"], [0, 0, 1, 0, 0], [[1.0], [2.0], [3.0], [4.0], [5.0]]
    )
    assert pool_frames(table).clip_ids == ("B", "a", "b", "\u00e9")


def pool_by_first_appearance(table):
    """The reference: clips in the order they first appear, each clip's
    frames summed in row order into zeros, then divided by the frame count."""
    order: dict[str, int] = {}
    for clip_id in table.clip_ids:
        if clip_id not in order:
            order[clip_id] = len(order)
    index = np.fromiter((order[c] for c in table.clip_ids), dtype=np.int64, count=table.n_rows)
    sums = np.zeros((len(order), table.dim), dtype=np.float64)
    np.add.at(sums, index, table.vectors)
    counts = np.bincount(index, minlength=len(order)).astype(np.float64)
    means = sums / counts[:, None]
    return EmbeddingTable(tuple(order), np.zeros(len(order), dtype=np.int64), means)


@st.composite
def sorted_frame_tables(draw):
    """A table in (clip id, frame index) order: several clips of one to four
    frames, with values that include -0.0."""
    ids = sorted(draw(st.lists(st.text(max_size=3), min_size=1, max_size=6, unique=True)))
    dim = draw(st.integers(1, 4))
    value = st.one_of(st.just(-0.0), st.floats(-1e6, 1e6))
    rows = []
    for clip_id in ids:
        frames = sorted(draw(st.sets(st.integers(0, 2**32 - 1), min_size=1, max_size=4)))
        rows += [(clip_id, f, draw(st.lists(value, min_size=dim, max_size=dim))) for f in frames]
    return make_table(*zip(*rows))


@settings(max_examples=200, deadline=None)
@given(table=sorted_frame_tables(), data=st.data())
def test_pool_matches_first_appearance_pooling_and_ignores_row_order(table, data):
    pooled = pool_frames(table)
    reference = pool_by_first_appearance(table)
    assert pooled.clip_ids == reference.clip_ids
    assert pooled.frames.tobytes() == reference.frames.tobytes()
    assert pooled.vectors.tobytes() == reference.vectors.tobytes()
    rows = np.array(data.draw(st.permutations(range(table.n_rows))), dtype=np.intp)
    shuffled = pool_frames(
        make_table([table.clip_ids[i] for i in rows], table.frames[rows], table.vectors[rows])
    )
    assert shuffled.clip_ids == pooled.clip_ids
    assert shuffled.vectors.tobytes() == pooled.vectors.tobytes()


def reference_pool(table):
    """The object-array pooling: ``np.unique`` ids, a ``lexsort`` by (clip,
    frame), and one ``np.add.at`` of every row into zeros."""
    ids, index = np.unique(np.array(table.clip_ids, dtype=object), return_inverse=True)
    order = np.lexsort((table.frames, index))
    sums = np.zeros((ids.size, table.dim), dtype=np.float64)
    np.add.at(sums, index[order], table.vectors[order])
    sums /= np.bincount(index, minlength=ids.size)[:, None]
    return tuple(ids.tolist()), sums


def shuffled_table(rng, frame_counts, dim):
    """Clips ``c0, c1, ...`` with the given frame counts at distinct random
    frame indices, rows shuffled, a fifth of the values -0.0."""
    ids, frames = [], []
    for clip, count in enumerate(frame_counts):
        ids += [f"c{clip}\u00e9" if clip % 3 else f"c{clip}"] * count
        frames += rng.choice(10**6, size=count, replace=False).tolist()
    vectors = rng.standard_normal((len(ids), dim)) * 10.0 ** rng.integers(-300, 300, size=(len(ids), 1))
    vectors[rng.random(vectors.shape) < 0.2] = -0.0
    rows = rng.permutation(len(ids))
    return make_table([ids[i] for i in rows], np.asarray(frames)[rows], vectors[rows])


@pytest.mark.parametrize(
    "frame_counts",
    [[1] * 300, [1, 2, 50] * 4, [50, 1, 2, 1, 50]],
    ids=["one-frame", "1-2-50-frames", "50-1-2-1-50-frames"],
)
@pytest.mark.parametrize("seed", range(5))
def test_pool_matches_the_scatter_add_pooling_byte_for_byte(frame_counts, seed):
    table = shuffled_table(np.random.default_rng(seed), frame_counts, dim=6)
    pooled = pool_frames(table)
    ids, sums = reference_pool(table)
    assert pooled.clip_ids == ids
    assert pooled.frames.tobytes() == np.zeros(len(ids), dtype=np.int64).tobytes()
    assert pooled.vectors.tobytes() == sums.tobytes()


# --- balanced subsampling -------------------------------------------------


def label_manifest(dataset, n_pos, n_neg, n_test_pos=0):
    records = [
        (f"{dataset}p{i}", dataset, TEST if i < n_test_pos else TRAIN, (), {"k": POS})
        for i in range(n_pos)
    ]
    records += [(f"{dataset}n{i}", dataset, TRAIN, (), {"k": NEG}) for i in range(n_neg)]
    return manifest_of(records, ("k",))


def test_subsample_takes_min_count():
    man_a = label_manifest("A", 10, 0)
    man_b = label_manifest("B", 7, 0)
    idx_a, idx_b = balanced_subsample(man_a, man_b, "k", POS, seed=11)
    assert len(idx_a) == len(idx_b) == 7
    assert len(set(idx_a.tolist())) == 7


def test_subsample_empty_side_raises():
    man_a = label_manifest("A", 5, 0)
    man_b = label_manifest("B", 0, 3)
    with pytest.raises(EmptyClassError):
        balanced_subsample(man_a, man_b, "k", POS, seed=11)


def test_subsample_deterministic():
    man_a = label_manifest("A", 20, 0)
    man_b = label_manifest("B", 9, 0)
    first = balanced_subsample(man_a, man_b, "k", POS, seed=5)
    second = balanced_subsample(man_a, man_b, "k", POS, seed=5)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
    third = balanced_subsample(man_a, man_b, "k", POS, seed=6)
    assert not np.array_equal(first[0], third[0]) or not np.array_equal(first[1], third[1])


def test_subsample_ignores_test_split():
    man_a = label_manifest("A", 10, 0, n_test_pos=4)
    man_b = label_manifest("B", 10, 0)
    idx_a, _ = balanced_subsample(man_a, man_b, "k", POS, seed=1)
    assert len(idx_a) == 6
    test_rows = set(np.flatnonzero(man_a.splits == TEST).tolist())
    assert len(test_rows) == 4
    assert not test_rows.intersection(idx_a.tolist())


def test_subsample_never_exceeds_eligible_counts():
    man_a = label_manifest("A", 4, 2)
    man_b = label_manifest("B", 9, 5)
    idx_a, idx_b = balanced_subsample(man_a, man_b, "k", NEG, seed=3)
    assert len(idx_a) == len(idx_b) == 2


def test_eligible_indices_unknown_class():
    man = label_manifest("A", 2, 2)
    with pytest.raises(EmptyClassError):
        man.indices(TRAIN, "missing", POS)
    with pytest.raises(EmptyClassError):
        man.label_states("missing")


# --- split and label queries ----------------------------------------------

CLASS_NAMES = ("k0", "k1", "k2")


@st.composite
def drawn_records(draw):
    """Records that may omit any label, over classes that no record may name."""
    classes = tuple(draw(st.lists(st.sampled_from(CLASS_NAMES), unique=True)))
    records = draw(
        st.lists(
            st.tuples(
                st.integers().map(lambda i: f"c{i}"),
                st.just("A"),
                st.sampled_from(SPLITS),
                st.just(()),
                st.dictionaries(st.sampled_from(classes), st.sampled_from(LABEL_STATES))
                if classes
                else st.just({}),
            ),
            max_size=12,
        )
    )
    return records, classes


@settings(max_examples=300, deadline=None)
@given(drawn=drawn_records())
def test_indices_and_label_states_match_a_per_record_scan(drawn):
    records, classes = drawn
    man = manifest_of(records, classes)
    for split in SPLITS:
        expected = [i for i, r in enumerate(records) if r[2] == split]
        assert man.indices(split).tolist() == expected
    for cls in classes:
        states = [r[4].get(cls, UNK) for r in records]
        assert man.label_states(cls).tolist() == states
        for split in SPLITS:
            for state in LABEL_STATES:
                pool = man.indices(split, cls, state)
                assert pool.dtype == np.int64
                assert pool.tolist() == [
                    i for i, r in enumerate(records) if r[2] == split and states[i] == state
                ]
            labelled = [i for i, r in enumerate(records) if r[2] == split and states[i] in (POS, NEG)]
            assert man.indices(split, cls).tolist() == labelled


# --- any input file parses or raises a package error ------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
MANIFEST_FIELDS = {
    "clip_id": st.text(max_size=6),
    "dataset": st.sampled_from(["A", "B"]),
    "split": st.sampled_from(SPLITS),
    "genres": st.lists(st.text(max_size=3), max_size=2),
    "labels": st.dictionaries(st.sampled_from(CLASS_NAMES), st.sampled_from(LABEL_STATES)),
}


@st.composite
def manifest_lines(draw):
    """Mostly records whose fields are each valid, of another JSON type or
    missing; otherwise any JSON value or any text."""
    kind = draw(st.sampled_from(["record", "record", "json", "text"]))
    if kind == "json":
        return json.dumps(draw(json_values))
    if kind == "text":
        return draw(st.text(max_size=12))
    record = {}
    for key, valid in MANIFEST_FIELDS.items():
        choice = draw(st.sampled_from(["valid"] * 5 + ["other", "missing"]))
        if choice != "missing":
            record[key] = draw(valid if choice == "valid" else json_values)
    return json.dumps(record)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parses_or_raises_a_package_error(load, path, content):
    path.write_bytes(content)
    try:
        return load(str(path))
    except DebiasKitError:
        return None


@settings(max_examples=400, deadline=None)
@given(
    content=st.lists(manifest_lines(), max_size=4).map(lambda lines: "\n".join(lines).encode())
    | st.binary(max_size=40)
)
def test_any_manifest_file_parses_or_raises_a_package_error(fuzz_dir, content):
    manifest = parses_or_raises_a_package_error(load_manifest, fuzz_dir / "m.jsonl", content)
    if manifest is not None:
        for split in SPLITS:
            manifest.indices(split)
        for cls in manifest.classes:
            manifest.label_states(cls)


@settings(max_examples=400, deadline=None)
@given(
    content=(
        st.fixed_dictionaries(
            {},
            optional={
                "targets": st.lists(st.sampled_from(["a", "b", "c"]), max_size=3) | json_values,
                "rules": st.dictionaries(st.text(max_size=2), st.sampled_from(["a", "b", "x"]), max_size=2)
                | json_values,
            },
        )
        | json_values
    ).map(lambda obj: json.dumps(obj).encode())
    | st.binary(max_size=40)
)
def test_any_genre_map_file_parses_or_raises_a_package_error(fuzz_dir, content):
    parses_or_raises_a_package_error(load_genre_map, fuzz_dir / "g.json", content)


@st.composite
def emb1_files(draw):
    """Well-formed EMB1 rows under a header with at most one field replaced
    by any u32; the body kept, cut short and extended, or replaced by any bytes."""
    dim = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(
                st.text(max_size=3).map(str.encode) | st.binary(max_size=3),
                st.integers(0, 2),
                st.lists(st.floats(width=32), min_size=dim, max_size=dim),
            ),
            max_size=3,
        )
    )
    header = [BINARY_VERSION, len(rows), dim]
    replaced = draw(st.sampled_from([None, None, 0, 1, 2]))
    if replaced is not None:
        header[replaced] = draw(st.integers(0, 2**32 - 1))
    body = b"".join(
        struct.pack("<I", len(clip)) + clip + struct.pack(f"<I{dim}f", frame, *values)
        for clip, frame, values in rows
    )
    edit = draw(st.sampled_from(["keep", "keep", "cut", "replace"]))
    if edit == "cut":
        body = body[: draw(st.integers(0, len(body)))] + draw(st.binary(max_size=4))
    elif edit == "replace":
        body = draw(st.binary(max_size=48))
    return struct.pack("<4sIII", b"EMB1", *header) + body


@settings(max_examples=400, deadline=None)
@given(content=emb1_files())
def test_any_emb1_file_parses_or_raises_a_package_error(fuzz_dir, content):
    parses_or_raises_a_package_error(load_embeddings, fuzz_dir / "e.emb", content)
