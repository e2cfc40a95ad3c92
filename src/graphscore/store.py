"""Loading, validation, and persistence of embedding matrices, flag tables
and JSON files, and :func:`share`, the two-thread task loop of the KNN build
and the prompt pool pass. Every input file is read here; which files make up
one dataset, and how they must agree, is the manifest schema in
:func:`graphscore.pipeline.load_dataset`.

NPY files are read and written with ``numpy.lib.format``, restricted to a
subset: version 1.0, little-endian float32/float64, C-order, no empty axis,
2-D for embedding matrices and 1-D for score vectors. Files written here are
always ``'<f8'`` so that a save/load round trip is bit-exact. Everything is
widened to float64 on load; normalization is a separate, explicit step.

JSON files are read by :func:`load_json` and each field is checked by
:func:`typed`, so bad input fails at load time naming the file and the key.
"""

import csv
import functools
import io
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.lib.format as npy

_SUPPORTED_DESCRS = ("<f4", "<f8")

# Rows with L2 norm below this are rejected by unit_rows.
_NORM_EPS = 1e-12
# float64 bytes per row chunk of unit_rows and of a widened '<f4' read: 256
# rows at d = 512, so a chunk stays in a 2 MB L2 cache between its passes
UNIT_BLOCK_BYTES = 1 << 20


class NpyFormatError(ValueError):
    """An NPY file falls outside the supported v1.0 subset."""


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def share(tasks, work, scratch) -> None:
    """Run ``work(task, *scratch[0])`` on the calling thread and, with more
    than one task, ``work(task, *scratch[1])`` on a worker thread alive only
    for this call, each thread claiming the next task in order. numpy
    releases the GIL in products, sorts and file reads, so the threads
    overlap on two cores. The caller makes every buffer on its own thread:
    one freed on the short-lived worker would stay in that thread's malloc
    arena. Once a task raises, neither thread claims another; when both are
    done, the error of the first failed task in task order is raised as is.
    """
    unclaimed, claim, failed = enumerate(tasks), threading.Lock(), []

    def drain(*buffers):
        while True:
            with claim:  # no further task once one has failed
                i, task = (None, None) if failed else next(unclaimed, (None, None))
            if i is None:
                return
            try:
                work(task, *buffers)
            except BaseException as exc:  # raised below, once both threads are done
                failed.append((i, exc))

    # the worker thread starts with the first submit, so one task starts none
    with ThreadPoolExecutor(max_workers=1) as worker:
        helper = worker.submit(drain, *scratch[1]) if len(tasks) > 1 else None
        drain(*scratch[0])
        if helper:
            helper.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense matrix of feature vectors, one sample per row.

    A float64 C-order array is adopted without a copy and made read-only, so
    the caller's array is frozen too; anything else numpy can convert is
    copied first. Rows are validated to be finite; unit norm is only
    guaranteed for rows from :func:`unit_rows` or :func:`load_unit_matrix`.
    """

    data: np.ndarray

    def __post_init__(self, finite=False):
        data = np.asarray(self.data, dtype=np.float64, order="C")
        if data.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got rank {data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"embedding matrix must be at least 1x1, got shape {data.shape}")
        # NaN and inf reach the max or the min
        if not finite and not np.isfinite([data.max(), data.min()]).all():
            row = int(np.nonzero(~np.isfinite(data).all(axis=1))[0][0])
            raise ValueError(f"row {row} contains non-finite values")
        object.__setattr__(self, "data", _lock(data))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.data, dtype=dtype, copy=copy)


@functools.lru_cache(maxsize=256)
def _parse_header(raw: bytes):
    # (shape, fortran_order, dtype) of a raw v1.0 header, memoized for the
    # process by its bytes; a header that fails to parse is not memoized
    return npy.read_array_header_1_0(io.BytesIO(raw))


def read_npy(path, rank, slot=None) -> np.ndarray:
    """A ``rank``-D NPY file in the supported subset as float64, values unchecked.

    The payload is read straight into a new array, or into ``slot(shape)``,
    a float64 C-order array of the file's shape that a loader hands out from
    a preallocated stack; ``slot`` may raise to refuse the shape, or return
    None to read no payload, and is only called once the file size matches
    the header. A ``'<f4'`` payload is widened ``UNIT_BLOCK_BYTES`` of
    output at a time through one small buffer. Each distinct header is
    parsed once per process; every file is still checked against it.
    """
    with open(path, "rb") as f:
        try:
            version = npy.read_magic(f)
        except ValueError as exc:
            raise NpyFormatError(f"{path}: not an NPY file (bad magic: {exc})") from None
        if version != (1, 0):
            raise NpyFormatError(f"{path}: unsupported NPY version {version}")
        raw = f.read(2)  # the header length, then the header
        raw += f.read(int.from_bytes(raw, "little"))
        try:
            shape, fortran_order, dtype = _parse_header(raw)
        except ValueError as exc:
            raise NpyFormatError(f"{path}: malformed header ({exc})") from None
        if dtype.str not in _SUPPORTED_DESCRS:
            raise NpyFormatError(f"{path}: unsupported dtype {dtype.str!r} (need '<f4' or '<f8')")
        if fortran_order:
            raise NpyFormatError(f"{path}: unsupported layout (fortran_order=True)")
        if len(shape) != rank:
            raise NpyFormatError(f"{path}: unsupported rank {len(shape)} (need {rank}-D)")
        if any(s < 1 for s in shape):
            raise NpyFormatError(f"{path}: empty axis in shape {shape}")
        # checked against the file size, so a bad shape allocates nothing
        expected = math.prod(shape) * dtype.itemsize
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size < expected:
            raise NpyFormatError(f"{path}: truncated payload ({size} of {expected} bytes)")
        if size > expected:
            raise NpyFormatError(f"{path}: trailing bytes after payload")
        out = np.empty(shape) if slot is None else slot(shape)
        if out is None:
            return None
        if dtype == out.dtype:
            f.readinto(out)
            return out
        step = _chunk_rows(out)
        buf = np.empty((min(step, shape[0]), *shape[1:]), dtype=dtype)
        for lo in range(0, shape[0], step):
            part = buf[:min(step, shape[0] - lo)]
            f.readinto(part)
            out[lo:lo + step] = part
        return out


def _write_npy(path, arr: np.ndarray):
    with open(path, "wb") as f:
        npy.write_array(f, np.ascontiguousarray(arr, "<f8"), version=(1, 0))


def save_matrix(matrix: EmbeddingMatrix, path) -> None:
    """Write an embedding matrix as NPY v1.0, '<f8', C-order."""
    _write_npy(path, matrix.data)


def load_vector(path) -> np.ndarray:
    """Load a 1-D float NPY file (score vectors, etc.) as float64."""
    arr = read_npy(path, rank=1)
    if not np.isfinite(arr).all():
        bad = int(np.nonzero(~np.isfinite(arr))[0][0])
        raise ValueError(f"{path}: entry {bad} is non-finite")
    return arr


def save_vector(values, path) -> None:
    """Write a 1-D float64 vector as NPY v1.0."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected 1-D vector, got rank {values.ndim}")
    _write_npy(path, values)


def _chunk_rows(arr: np.ndarray) -> int:
    # rows of ``arr`` per chunk of UNIT_BLOCK_BYTES as float64
    return max(1, UNIT_BLOCK_BYTES // (8 * math.prod(arr.shape[1:])))


def unit_rows(rows: np.ndarray, source, out=None) -> np.ndarray:
    """``rows``, a float64 matrix, with every row scaled to unit L2 norm,
    written into ``out`` (which may be ``rows``) or else a new array.

    Rows are normalized in chunks of ``UNIT_BLOCK_BYTES``, each while it is
    in cache. A chunk's squares are taken a quarter chunk at a time in one
    scratch, so besides ``out`` a call holds that scratch and one chunk's
    norms. A chunk-sized temporary, freed at the end of every small call,
    let glibc trim the heap top and fault it back in on the next call,
    about a millisecond per 256-row call. Each row's sum of squares runs
    over that row alone, as in ``np.linalg.norm(rows, axis=1)``, so a row's
    bits do not depend on the chunk or the scratch. A row whose norm is
    (numerically) zero or not finite, from a NaN, an inf or an overflowing
    sum of squares, is an error naming ``source`` and the row, the first
    such row of the first chunk that has one.
    """
    out = np.empty(rows.shape) if out is None else out
    step = _chunk_rows(rows)
    sub = max(1, step // 4)
    squares = np.empty((min(sub, rows.shape[0]), *rows.shape[1:]))
    sums = np.empty(min(step, rows.shape[0]))
    for lo in range(0, rows.shape[0], step):
        chunk = rows[lo:lo + step]
        norms = sums[:len(chunk)]
        with np.errstate(over="ignore"):  # an overflowing row is reported below
            for at in range(0, len(chunk), sub):
                part = chunk[at:at + sub]
                square = squares[:len(part)]
                np.multiply(part, part, out=square)
                np.add.reduce(square, axis=1, out=norms[at:at + sub])
        np.sqrt(norms, out=norms)
        bad = ~np.isfinite(norms)
        if bad.any():
            raise ValueError(f"{source}: non-finite norm in row {lo + int(np.argmax(bad))}")
        small = norms < _NORM_EPS
        if small.any():
            raise ValueError(f"{source}: zero-norm row {lo + int(np.argmax(small))}")
        np.divide(chunk, norms[:, None], out=out[lo:lo + step])
    return out


def load_unit_matrix(path) -> EmbeddingMatrix:
    """The matrix in ``path`` with every row scaled in place to unit L2 norm
    by :func:`unit_rows`: the load holds the matrix and one chunk."""
    rows = read_npy(path, rank=2)
    matrix = object.__new__(EmbeddingMatrix)
    object.__setattr__(matrix, "data", unit_rows(rows, path, out=rows))
    # unit_rows found every row norm finite, so every value is: skip that pass
    matrix.__post_init__(finite=True)
    return matrix


def load_flags(path) -> np.ndarray:
    """Load ground-truth ID/OOD flags from a CSV with header ``index,is_id``.

    Blank lines are skipped. Indices must cover 0..n-1 exactly once, and
    both values must occur, as AUROC and FPR95 need both classes; returns a
    boolean array where True marks in-distribution samples.
    """
    header = ["index", "is_id"]
    pairs = {}
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    first = next(reader, None)
    if first != header:
        raise ValueError(f"{path}: expected header {','.join(header)!r}, "
                         f"got {','.join(first or [])!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: expected two fields, got {len(row)}")
        try:
            idx, val = int(row[0]), int(row[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer entry") from None
        if idx in pairs:
            raise ValueError(f"{path}: duplicate index {idx}")
        if val not in (0, 1):
            raise ValueError(f"{path}:{lineno}: is_id must be 0 or 1")
        pairs[idx] = bool(val)
    n = len(pairs)
    if n == 0:
        raise ValueError(f"{path}: no flag rows")
    if set(pairs) != set(range(n)):
        raise ValueError(f"{path}: indices must cover 0..{n - 1} exactly")
    if len(set(pairs.values())) == 1:
        raise ValueError(f"{path}: every row has is_id {int(pairs[0])}; "
                         f"AUROC and FPR95 need both classes")
    return np.array([pairs[i] for i in range(n)], dtype=bool)


def save_flags(is_id, path) -> None:
    is_id = np.asarray(is_id, dtype=bool)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "is_id"])
        for i, flag in enumerate(is_id):
            writer.writerow([i, int(flag)])


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _read_text(path) -> str:
    """The whole of ``path`` decoded as UTF-8; other bytes are an error naming
    the file and the offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_json(path, what, keys, required=()) -> dict:
    """Read the JSON object in ``path``, a ``what`` file.

    Malformed JSON, any other top-level value, a repeated key, a key outside
    ``keys`` and a missing ``required`` key are errors naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")

    def unique(pairs):
        # json keeps the last of repeated keys; a repeat is an error instead
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated keys {repeated}")
        return dict(pairs)

    try:
        doc = json.loads(_read_text(path), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"{path}: unknown {what} keys {unknown}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    return doc


def typed(value, typ, key, source):
    """``value`` as ``typ``. Only whole numbers are integers, no number may be
    NaN, infinite or too large for a float, and no value may be null; anything
    else is an error naming ``source`` and ``key``."""
    if typ is str:
        ok = isinstance(value, str)
    else:
        try:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value) and (typ is float or float(value).is_integer()))
        except OverflowError:  # an integer too large for a float
            ok = False
    if not ok:
        raise ValueError(f"{source}: key {key!r} must be {_TYPE_NAMES[typ]}, "
                         f"got {json.dumps(value)}")
    return typ(value)


def typed_list(values, typ, key, source) -> list:
    """``values``, a list, with each entry checked by :func:`typed`."""
    if not isinstance(values, list):
        raise ValueError(f"{source}: key {key!r} must be a list, got {json.dumps(values)}")
    return [typed(v, typ, f"{key}[{i}]", source) for i, v in enumerate(values)]
