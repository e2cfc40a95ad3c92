import json
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscore import store
from graphscore.cli import load_dataset
from graphscore.store import (
    EmbeddingMatrix,
    NpyFormatError,
    load_flags,
    load_unit_matrix,
    load_vector,
    save_flags,
    save_matrix,
    read_npy,
    save_vector,
    share,
    unit_rows,
)

from oracles import random_unit_rows


def test_load_trivial_matrix(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    m = load_unit_matrix(path)
    assert m.count == 2 and m.dim == 3
    assert m.data.dtype == np.float64
    np.testing.assert_array_equal(m.data, [[1, 0, 0], [0, 1, 0]])


def test_float32_widened(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.array([[0.5, 0.25]], dtype=np.float32))
    m = read_npy(path, rank=2)
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, [[0.5, 0.25]])


def test_fortran_order_rejected(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.asfortranarray(np.random.default_rng(0).random((3, 4))))
    with pytest.raises(NpyFormatError, match="unsupported layout"):
        read_npy(path, rank=2)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.npy"
    path.write_bytes(b"NOTNPY" + b"\x00" * 64)
    with pytest.raises(NpyFormatError, match="bad magic"):
        read_npy(path, rank=2)


def test_unsupported_version(tmp_path):
    path = tmp_path / "m.npy"
    with open(path, "wb") as f:
        np.lib.format.write_array(f, np.zeros((2, 2)), version=(2, 0))
    with pytest.raises(NpyFormatError, match="unsupported NPY version"):
        read_npy(path, rank=2)


@pytest.mark.parametrize("dtype", [np.int64, np.float16, ">f8"])
def test_unsupported_dtype(tmp_path, dtype):
    path = tmp_path / "m.npy"
    np.save(path, np.ones((2, 2), dtype=dtype))
    with pytest.raises(NpyFormatError, match="unsupported dtype"):
        read_npy(path, rank=2)


def test_unsupported_rank(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.zeros(5))
    with pytest.raises(NpyFormatError, match="unsupported rank"):
        read_npy(path, rank=2)
    np.save(path, np.zeros((2, 2, 2)))
    with pytest.raises(NpyFormatError, match="unsupported rank"):
        read_npy(path, rank=2)


def test_nan_payload_names_row(tmp_path):
    path = tmp_path / "m.npy"
    data = np.ones((4, 2))
    data[2, 1] = np.nan
    np.save(path, data)
    with pytest.raises(ValueError, match=r"m\.npy: non-finite norm in row 2"):
        load_unit_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(NpyFormatError, match="truncated payload"):
        read_npy(path, rank=2)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(NpyFormatError, match="trailing bytes"):
        read_npy(path, rank=2)


def _npy(header, payload=b""):
    """Raw NPY v1.0 bytes with ``header`` padded as numpy pads it."""
    header += " " * (-(len(header) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header.encode() + payload


_HEADER_2X2 = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }"


@pytest.mark.parametrize("raw", [
    pytest.param(b"\x93NUMPY\x01", id="seven_bytes"),
    pytest.param(b"\x93NUMPY\x01\x00\x76", id="truncated_header_length"),
    pytest.param(_npy(_HEADER_2X2)[:40], id="truncated_header"),
    pytest.param(_npy("{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), 'x': 1, }",
                      bytes(32)), id="unexpected_header_key"),
    pytest.param(_npy("{'descr': '<f8', 'fortran_order': False, 'shape': (2.0, 2), }",
                      bytes(32)), id="non_integer_shape"),
    pytest.param(_npy("{'descr': '<f8', 'fortran_order': False, 'shape': (0, 2), }"),
                 id="empty_axis"),
])
def test_malformed_npy_names_the_file(tmp_path, raw):
    path = tmp_path / "bad.npy"
    path.write_bytes(raw)
    with pytest.raises(NpyFormatError, match=re.escape(str(path))):
        read_npy(path, rank=2)


def test_payload_length_checked_before_reading(tmp_path):
    # a header claiming 160 GB is refused from the file size, not by reading
    path = tmp_path / "m.npy"
    path.write_bytes(_npy("{'descr': '<f8', 'fortran_order': False, 'shape': (200000, 100000), }",
                          bytes(64)))
    with pytest.raises(NpyFormatError, match="truncated payload \\(64 of 160000000000 bytes\\)"):
        read_npy(path, rank=2)


def test_read_npy_into_slot(tmp_path):
    # '<f8' is read straight into the slot and '<f4' widened into it; the
    # slot is asked for only once the payload size matches the header
    data = np.random.default_rng(4).standard_normal((3, 5))
    stack, shapes = np.zeros((2, 3, 5)), []

    def slot(shape):
        shapes.append(shape)
        return stack[len(shapes) - 1]

    path = tmp_path / "m.npy"
    for c, dtype in enumerate(("<f8", "<f4")):
        np.save(path, data.astype(dtype))
        got = read_npy(path, rank=2, slot=slot)
        assert np.shares_memory(got, stack[c])
        assert stack[c].tobytes() == np.load(path).astype(np.float64).tobytes()
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(NpyFormatError, match="truncated payload"):
        read_npy(path, rank=2, slot=slot)
    assert shapes == [(3, 5), (3, 5)]


def test_memoized_headers_are_parsed_once_and_still_checked(tmp_path, monkeypatch):
    parsed = []
    parse = np.lib.format.read_array_header_1_0

    def spy(f):
        parsed.append(f)
        return parse(f)

    monkeypatch.setattr(np.lib.format, "read_array_header_1_0", spy)
    store._parse_header.cache_clear()  # the memo lives for the process
    memo = store._parse_header.cache_info
    for name, shape in (("a", (2, 2)), ("b", (2, 2)), ("c", (3, 2))):
        np.save(tmp_path / f"{name}.npy", np.ones(shape))
        assert read_npy(tmp_path / f"{name}.npy", rank=2).shape == shape
    assert len(parsed) == memo().currsize == 2
    # a memoized header that fails a check fails it for every file
    np.save(tmp_path / "i.npy", np.ones((2, 2), dtype="<i8"))
    for _ in range(2):
        with pytest.raises(NpyFormatError, match="unsupported dtype"):
            read_npy(tmp_path / "i.npy", rank=2)
    assert len(parsed) == memo().currsize == 3
    # a header that fails to parse is not memoized, and the memo is bounded
    header = b"{'shape': (2, 2), 'fortran_order': False}\n"
    (tmp_path / "m.npy").write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                                     + header + bytes(32))
    for _ in range(2):
        with pytest.raises(NpyFormatError, match="m.npy: malformed header"):
            read_npy(tmp_path / "m.npy", rank=2)
    assert len(parsed) == 5 and memo().currsize == 3
    assert memo().maxsize == 256


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(17)
    data = rng.standard_normal((17, 8))
    path = tmp_path / "m.npy"
    save_matrix(EmbeddingMatrix(data), path)
    assert read_npy(path, rank=2).tobytes() == data.tobytes()
    # files written here load through numpy too
    np.testing.assert_array_equal(np.load(path), data)


def test_round_trip_large(tmp_path):
    rng = np.random.default_rng(99)
    data = rng.standard_normal((100, 16))
    path = tmp_path / "m.npy"
    save_matrix(EmbeddingMatrix(data), path)
    assert read_npy(path, rank=2).tobytes() == data.tobytes()


def test_save_one_by_one(tmp_path):
    path = tmp_path / "m.npy"
    save_matrix(EmbeddingMatrix([[0.5]]), path)
    assert read_npy(path, rank=2).tolist() == [[0.5]]


def test_save_empty_path_errors():
    with pytest.raises(OSError):
        save_matrix(EmbeddingMatrix([[0.5]]), "")


def test_save_writes_exactly_the_given_path(tmp_path):
    save_matrix(EmbeddingMatrix([[0.5, 1.0]]), tmp_path / "protos")
    save_vector(np.ones(3), tmp_path / "scores.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["protos", "scores.bin"]
    assert read_npy(tmp_path / "protos", rank=2).tolist() == [[0.5, 1.0]]
    assert load_vector(tmp_path / "scores.bin").tolist() == [1.0, 1.0, 1.0]


@given(st.one_of(st.tuples(st.integers(1, 100_000)),
                 st.tuples(st.integers(1, 1000), st.integers(1, 1000))),
       st.sampled_from(["<f4", "<f8"]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_saved_bytes_equal_numpy_save(tmp_path_factory, shape, dtype, seed):
    out = tmp_path_factory.mktemp("npy")
    data = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    if data.ndim == 2:
        save_matrix(EmbeddingMatrix(data), out / "ours.npy")
    else:
        save_vector(data, out / "ours.npy")
    np.save(out / "numpy.npy", data.astype("<f8"))
    assert (out / "ours.npy").read_bytes() == (out / "numpy.npy").read_bytes()


def test_vector_round_trip(tmp_path):
    values = np.random.default_rng(3).standard_normal(31)
    path = tmp_path / "v.npy"
    save_vector(values, path)
    got = load_vector(path)
    assert got.tobytes() == values.tobytes()
    with pytest.raises(ValueError):
        save_vector(np.zeros((2, 2)), path)


def test_load_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.npy"
    np.save(path, np.zeros((2, 2)))
    with pytest.raises(NpyFormatError, match="unsupported rank"):
        load_vector(path)


def test_l2_normalize_345():
    np.testing.assert_allclose(unit_rows(np.array([[3.0, 4.0]]), "m"), [[0.6, 0.8]],
                               rtol=0, atol=1e-15)


def test_l2_normalize_zero_row():
    with pytest.raises(ValueError, match="m.npy: zero-norm row 0"):
        unit_rows(np.array([[0.0, 0.0]]), "m.npy")


def test_l2_normalize_names_offender(tmp_path):
    path = tmp_path / "rows.npy"
    save_matrix(EmbeddingMatrix([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), path)
    with pytest.raises(ValueError, match=r"rows\.npy: zero-norm row 2"):
        load_unit_matrix(path)


def test_unit_rows_rejects_non_finite_norm(tmp_path):
    # [1e200, 1e200] is finite, but its sum of squares overflows: scaling by
    # an inf norm would turn it into a zero "unit" row
    with pytest.raises(ValueError, match=r"m\.npy: non-finite norm in row 1"):
        unit_rows(np.array([[1.0, 0.0], [1e200, 1e200]]), "m.npy")
    path = tmp_path / "rows.npy"
    np.save(path, np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match=r"rows\.npy: non-finite norm in row 2"):
        load_unit_matrix(path)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_l2_normalize_idempotent(seed):
    rng = np.random.default_rng(seed)
    once = unit_rows(rng.standard_normal((6, 5)) + 0.1, "m")
    assert np.abs(unit_rows(once, "m") - once).max() < 1e-12


def test_unit_rows_writes_into_out():
    rows = np.array([[3.0, 4.0], [0.0, 2.0]])
    out = np.empty((2, 2))
    assert unit_rows(rows, "m", out=out) is out
    assert out.tobytes() == (rows / np.linalg.norm(rows, axis=1)[:, None]).tobytes()


def test_load_unit_matrix_equals_normalized_load(tmp_path):
    path = tmp_path / "m.npy"
    raw = np.random.default_rng(2).standard_normal((7, 5)).astype(np.float32)
    np.save(path, raw)
    got = load_unit_matrix(path).data
    wide = raw.astype(np.float64)
    assert got.tobytes() == (wide / np.linalg.norm(wide, axis=1)[:, None]).tobytes()


# rows of dimension _DIM per chunk of unit_rows and of a widened '<f4' read
_DIM = 512
_CHUNK = store.UNIT_BLOCK_BYTES // (8 * _DIM)


@pytest.mark.parametrize("bad, message", [
    (0.0, "zero-norm row"), (np.nan, "non-finite norm in row"),
    (1e200, "non-finite norm in row")])
def test_unit_rows_names_a_bad_row_after_the_first_chunk(tmp_path, bad, message):
    rows = np.random.default_rng(3).standard_normal((3 * _CHUNK + 5, _DIM))
    row = 2 * _CHUNK + 7
    rows[row] = bad
    with pytest.raises(ValueError, match=rf"^m\.npy: {message} {row}$"):
        unit_rows(rows, "m.npy")
    path = tmp_path / "rows.npy"
    np.save(path, rows)
    with pytest.raises(ValueError, match=rf"rows\.npy: {message} {row}$"):
        load_unit_matrix(path)


def test_float32_file_over_three_chunks_loads_as_normalized_whole(tmp_path):
    path = tmp_path / "m.npy"
    raw = np.random.default_rng(4).standard_normal((3 * _CHUNK + 17, _DIM)).astype(np.float32)
    np.save(path, raw)
    wide = raw.astype(np.float64)
    assert read_npy(path, rank=2).tobytes() == wide.tobytes()
    whole = wide / np.linalg.norm(wide, axis=1)[:, None]
    assert load_unit_matrix(path).data.tobytes() == whole.tobytes()


def test_unit_rows_without_out_leaves_rows_untouched():
    for n in (2 * _CHUNK + 3, _CHUNK // 4 + 5):
        rows = np.random.default_rng(5).standard_normal((n, _DIM))
        before = rows.copy()
        got = unit_rows(rows, "m")
        assert got is not rows and not np.shares_memory(got, rows)
        assert rows.tobytes() == before.tobytes()
        assert got.tobytes() == (before / np.linalg.norm(before, axis=1)[:, None]).tobytes()


def test_unit_rows_in_place_holds_a_quarter_chunk():
    # the squares are taken a quarter chunk at a time: a chunk-sized square,
    # freed and faulted back in, cost every small call about a millisecond.
    # The 80 KB are numpy's own 64 KB buffer for the broadcast division, the
    # norms and small objects
    rows = np.random.default_rng(8).standard_normal((_CHUNK, _DIM))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        unit_rows(rows, "m", out=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= store.UNIT_BLOCK_BYTES // 4 + (80 << 10), peak


@pytest.mark.parametrize("dtype", ["<f8", "<f4"])
def test_load_unit_matrix_peak_memory_is_one_input_and_a_chunk(tmp_path, dtype):
    # rows are read into the matrix and normalized there a chunk at a time;
    # a whole-matrix norm or division, or a bytes copy of the payload, would
    # each take half the matrix or more on top
    path = tmp_path / "m.npy"
    np.save(path, np.random.default_rng(6).standard_normal((16 * _CHUNK, _DIM)).astype(dtype))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m = load_unit_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.data.nbytes + 2 * store.UNIT_BLOCK_BYTES + (64 << 10), peak


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_normalized_dot_equals_explicit_cosine(seed):
    rng = np.random.default_rng(seed)
    raw_a = rng.standard_normal((5, 7)) + 0.05
    raw_b = rng.standard_normal((4, 7)) + 0.05
    unit_a = unit_rows(raw_a, "a")
    unit_b = unit_rows(raw_b, "b")
    dots = unit_a @ unit_b.T
    explicit = (raw_a @ raw_b.T) / np.outer(
        np.linalg.norm(raw_a, axis=1), np.linalg.norm(raw_b, axis=1)
    )
    assert np.abs(dots - explicit).max() < 1e-9


def test_embedding_matrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingMatrix(np.zeros(3))
    with pytest.raises(ValueError, match="at least 1x1"):
        EmbeddingMatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="row 0"):
        EmbeddingMatrix([[np.inf, 0.0]])
    with pytest.raises(ValueError, match="row 1 contains non-finite"):
        EmbeddingMatrix([[0.0, 1.0], [np.nan, 0.0]])
    m = EmbeddingMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0  # frozen payload


def test_embedding_matrix_adopts_float64_c_order():
    rows = np.ones((3, 2))
    m = EmbeddingMatrix(rows)
    assert m.data is rows and not rows.flags.writeable
    for other in (np.ones((3, 2), dtype=np.float32), np.asfortranarray(np.ones((3, 2))),
                  [[1.0, 1.0]]):
        converted = EmbeddingMatrix(other).data
        assert converted is not other and converted.flags.c_contiguous



def test_load_unit_matrix_checks_values_once(tmp_path, monkeypatch):
    # unit_rows' norm check proves every value finite, so the loaded matrix
    # runs no second max/min pass; a hand-made matrix still runs it
    rows = random_unit_rows(np.random.default_rng(0), 6, 4) * 3.0
    path = tmp_path / "m.npy"
    np.save(path, rows)
    checked = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x, *a, **kw: checked.append(np.shape(x))
                        or isfinite(x, *a, **kw))
    m = load_unit_matrix(path)
    assert checked == [(6,)]
    assert isinstance(m, EmbeddingMatrix) and m.count == 6 and m.dim == 4
    assert m.data.dtype == np.float64 and m.data.flags.c_contiguous
    assert not m.data.flags.writeable
    assert m.data.tobytes() == unit_rows(rows, path).tobytes()
    checked.clear()
    EmbeddingMatrix(m.data)
    assert checked == [(2,)]


# flags ----------------------------------------------------------------

def test_flags_round_trip(tmp_path):
    flags = np.array([True, False, True, True])
    path = tmp_path / "flags.csv"
    save_flags(flags, path)
    np.testing.assert_array_equal(load_flags(path), flags)
    # a blank line is skipped
    path.write_text("index,is_id\n0,1\n\n1,0\n", encoding="utf-8")
    np.testing.assert_array_equal(load_flags(path), [True, False])


_LONG_FLAGS = b"index,is_id\n" + b"".join(b"%d,%d\n" % (i, i % 2) for i in range(2000))


@pytest.mark.parametrize("text, message", [
    ("index,is_id\n0,1,junk\n", "flags.csv:2: expected two fields, got 3"),
    ("index,is_id\n0\n", "flags.csv:2: expected two fields, got 1"),
    ("index,is_id\n0,1\n1,0,2\n", "flags.csv:3: expected two fields, got 3"),
    ("index,is_id\n0,x\n", "flags.csv:2: non-integer entry"),
    ("index,is_id\n0,2\n", "flags.csv:2: is_id must be 0 or 1"),
    ("index,is_id\n0,1\n0,0\n", "flags.csv: duplicate index 0"),
    ("index,is_id\n", "flags.csv: no flag rows"),
    ("", "flags.csv: expected header 'index,is_id'"),
    # the offset counts from the start of the file, past csv's read chunks too
    (b"index,is_id\n0,1\n1,\xff\n", "flags.csv: not UTF-8 text (byte 18)"),
    pytest.param(_LONG_FLAGS + b"\xff\n", f"flags.csv: not UTF-8 text (byte {len(_LONG_FLAGS)})",
                 id="not-utf8-past-8k"),
    ("index,is_id\n0,1\n1,1\n",
     "flags.csv: every row has is_id 1; AUROC and FPR95 need both classes"),
    ("index,is_id\n0,0\n", "flags.csv: every row has is_id 0"),
])
def test_flags_malformed_rows_named(tmp_path, text, message):
    path = tmp_path / "flags.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_flags(path)


def test_flags_incomplete(tmp_path):
    path = tmp_path / "flags.csv"
    path.write_text("index,is_id\n0,1\n2,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="cover"):
        load_flags(path)


# manifests, parsed by cli.load_dataset ---------------------------------

def _write_dataset(tmp_path, with_pools=True):
    rng = np.random.default_rng(5)
    save_matrix(EmbeddingMatrix(random_unit_rows(rng, 6, 4)), tmp_path / "unlabeled.npy")
    doc = {
        "unlabeled": "unlabeled.npy",
        "C_in": 2,
        "class_names": ["a", "b"],
    }
    if with_pools:
        for c in range(2):
            save_matrix(EmbeddingMatrix(random_unit_rows(rng, 5, 4)),
                        tmp_path / f"pool{c}.npy")
        doc["prompt_pools"] = ["pool0.npy", "pool1.npy"]
    return doc


def test_manifest_good(tmp_path):
    import json

    doc = _write_dataset(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    bundle = load_dataset(tmp_path / "manifest.json")
    assert bundle.unlabeled.count == 6 and bundle.unlabeled.dim == 4
    # the pool files are kept as a list, read only when the pool is reduced
    paths, check = bundle.pool
    assert paths == [str(tmp_path / "pool0.npy"), str(tmp_path / "pool1.npy")] and callable(check)
    assert bundle.labeled is None and bundle.prototypes is None and bundle.flags is None


def test_manifest_missing_file():
    with pytest.raises(FileNotFoundError, match="manifest not found"):
        load_dataset("/nonexistent/manifest.json")


def test_manifest_class_names_mismatch(tmp_path):
    import json

    doc = _write_dataset(tmp_path)
    doc["class_names"] = ["a"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="class_names"):
        load_dataset(tmp_path / "manifest.json")


def test_manifest_needs_exactly_one_prototype_source(tmp_path):
    import json

    doc = _write_dataset(tmp_path, with_pools=False)
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="exactly one"):
        load_dataset(tmp_path / "manifest.json")


def test_manifest_missing_referenced_file(tmp_path):
    import json

    doc = _write_dataset(tmp_path)
    doc["prompt_pools"] = ["pool0.npy", "missing.npy"]
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FileNotFoundError, match="missing.npy"):
        load_dataset(tmp_path / "manifest.json")


def test_manifest_invalid_json_reports_position(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"unlabeled": }', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1 column 15"):
        load_dataset(path)


def test_manifest_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"unlabeled": "\xff"}')
    with pytest.raises(ValueError, match="manifest.json: not UTF-8 text"):
        load_dataset(path)


def test_manifest_repeated_key_names_the_file(tmp_path):
    doc = _write_dataset(tmp_path)
    text = json.dumps(doc).replace('"C_in": 2', '"C_in": 3, "C_in": 2')
    (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="manifest.json: repeated keys \\['C_in'\\]"):
        load_dataset(tmp_path / "manifest.json")


def test_share_runs_every_task_once_with_its_threads_buffers(thread_starts):
    caller, ran = threading.current_thread(), []
    share(range(50), lambda task, name: ran.append((task, name, threading.current_thread())),
          [("caller",), ("worker",)])
    assert sorted(task for task, *_ in ran) == list(range(50))
    assert all((thread is caller) == (name == "caller") for _, name, thread in ran)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    # one task runs on the calling thread, which needs no second buffer set
    thread_starts.clear()
    share([7], lambda task, name: ran.append((task, name)), [("caller",)])
    assert ran[-1] == (7, "caller") and thread_starts == []


@pytest.mark.parametrize("late", ["caller", "worker"])
def test_share_raises_the_first_failed_task_unchanged(thread_starts, late):
    # each thread fails the one task it holds, the ``late`` one after the
    # other: the error of the lower task comes out, whichever thread held
    # it, and neither thread claims a third task
    both, early_failed = threading.Barrier(2, timeout=10), threading.Event()
    errors = {}

    def work(task, name):
        errors[task] = RuntimeError(f"task {task}")
        both.wait()
        if name == late:
            early_failed.wait(timeout=10)
        else:
            early_failed.set()
        raise errors[task]

    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        share(range(8), work, [("caller",), ("worker",)])
    assert sorted(errors) == [0, 1] and caught.value is errors[0]
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert threading.active_count() == before
