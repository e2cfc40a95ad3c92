"""Loading, validation, and persistence of embedding matrices, label tables,
dataset manifests and their JSON sidecars. Every input file is parsed here.

NPY files are read and written with ``numpy.lib.format``, restricted to a
subset: version 1.0, little-endian float32/float64, C-order, no empty axis,
2-D for embedding matrices and 1-D for score vectors. Files written here are
always ``'<f8'`` so that a save/load round trip is bit-exact. Everything is
widened to float64 on load; normalization is a separate, explicit step.

JSON files are read by :func:`load_json` and each field is checked by
:func:`typed`, so bad input fails at load time naming the file and the key.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.lib.format as npy

_SUPPORTED_DESCRS = ("<f4", "<f8")

# Rows with L2 norm below this are rejected by l2_normalize.
_NORM_EPS = 1e-12


class NpyFormatError(ValueError):
    """An NPY file falls outside the supported v1.0 subset."""


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense matrix of feature vectors, one sample per row.

    The payload is copied to a contiguous float64 array and frozen on
    construction, so instances are safe to share across threads. Rows are
    validated to be finite; unit norm is only guaranteed after
    :func:`l2_normalize`.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if data.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got rank {data.ndim}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"embedding matrix must be at least 1x1, got shape {data.shape}")
        bad = ~np.isfinite(data)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
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


@dataclass(frozen=True)
class LabelTable:
    """Class labels for a subset of rows of an embedding matrix.

    ``entries`` is a tuple of ``(row_index, class_id)`` pairs; ``count`` is
    the row count of the associated matrix and ``n_classes`` the number of
    in-distribution classes.
    """

    entries: tuple
    count: int
    n_classes: int

    def __post_init__(self):
        entries = tuple((int(i), int(c)) for i, c in self.entries)
        seen = set()
        for i, c in entries:
            if i in seen:
                raise ValueError(f"duplicate index {i}")
            seen.add(i)
            if not 0 <= i < self.count:
                raise ValueError(f"index {i} out of range for matrix with {self.count} rows")
            if not 0 <= c < self.n_classes:
                raise ValueError(f"label out of range: {c} (n_classes={self.n_classes})")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class DatasetManifest:
    """Paths and metadata describing one scoring run's inputs.

    Exactly one prototype source must be present: ``prompt_pools`` (one NPY
    per class, clustered at score time), ``pool_matrix`` +
    ``pool_boundaries`` (one stacked NPY plus its row offsets), or
    ``prototypes`` + ``prototype_classes`` (pre-built prototype matrix plus
    its class map). All paths are resolved relative to the manifest's
    directory at load time.
    """

    root: Path
    unlabeled: Path
    c_in: int
    class_names: tuple
    prompt_pools: tuple = None
    pool_matrix: Path = None
    pool_boundaries: Path = None
    prototypes: Path = None
    prototype_classes: Path = None
    labeled: Path = None
    labels: Path = None
    flags: Path = None


def _read_npy(path, rank) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as f:
        try:
            version = npy.read_magic(f)
        except ValueError as exc:
            raise NpyFormatError(f"{path}: not an NPY file (bad magic: {exc})") from None
        if version != (1, 0):
            raise NpyFormatError(f"{path}: unsupported NPY version {version}")
        try:
            shape, fortran_order, dtype = npy.read_array_header_1_0(f)
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
        return np.frombuffer(f.read(expected), dtype=dtype).reshape(shape)


def _write_npy(path, arr: np.ndarray):
    with open(path, "wb") as f:
        npy.write_array(f, np.ascontiguousarray(arr, "<f8"), version=(1, 0))


def load_matrix(path) -> EmbeddingMatrix:
    """Load a 2-D embedding matrix from an NPY v1.0 file.

    Values are widened to float64; no normalization is applied. Raises
    :class:`NpyFormatError` for files outside the supported subset, and
    ``ValueError`` naming the first offending row for NaN/Inf payloads.
    """
    arr = _read_npy(path, rank=2)
    try:
        return EmbeddingMatrix(arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_matrix(matrix: EmbeddingMatrix, path) -> None:
    """Write an embedding matrix as NPY v1.0, '<f8', C-order."""
    _write_npy(path, matrix.data)


def load_vector(path) -> np.ndarray:
    """Load a 1-D float NPY file (score vectors, etc.) as float64."""
    arr = _read_npy(path, rank=1).astype(np.float64)
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


def l2_normalize(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Return a copy of ``matrix`` with every row scaled to unit L2 norm.

    Raises ``ValueError`` naming the first row whose norm is (numerically)
    zero. Idempotent up to ~1e-16 per entry.
    """
    return EmbeddingMatrix(matrix.data / row_norms(matrix.data)[:, None])


def row_norms(data: np.ndarray) -> np.ndarray:
    """Row L2 norms of ``data``; a (numerically) zero norm is an error naming its row."""
    norms = np.linalg.norm(data, axis=1)
    small = norms < _NORM_EPS
    if small.any():
        raise ValueError(f"zero-norm row {int(np.argmax(small))}")
    return norms


def load_labels(path, matrix: EmbeddingMatrix, c_in: int) -> LabelTable:
    """Load a label CSV (header exactly ``index,label``) and validate it
    against the matrix row count and the class count."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty label file") from None
        if header != ["index", "label"]:
            raise ValueError(f"{path}: expected header 'index,label', got {','.join(header)!r}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected two fields, got {len(row)}")
            try:
                entries.append((int(row[0]), int(row[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer entry") from None
    try:
        return LabelTable(tuple(entries), count=matrix.count, n_classes=c_in)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_labels(table: LabelTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "label"])
        writer.writerows(table.entries)


def load_flags(path) -> np.ndarray:
    """Load ground-truth ID/OOD flags from a CSV with header ``index,is_id``.

    Indices must cover 0..n-1 exactly once; returns a boolean array where
    True marks in-distribution samples.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["index", "is_id"]:
            raise ValueError(f"{path}: expected header 'index,is_id'")
        pairs = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                idx, val = int(row[0]), int(row[1])
            except (ValueError, IndexError):
                raise ValueError(f"{path}:{lineno}: malformed row") from None
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
    return np.array([pairs[i] for i in range(n)], dtype=bool)


def save_flags(is_id, path) -> None:
    is_id = np.asarray(is_id, dtype=bool)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "is_id"])
        for i, flag in enumerate(is_id):
            writer.writerow([i, int(flag)])


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


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

    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
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
    """``value`` as ``typ``. Only whole numbers are integers and no value may
    be null; anything else is an error naming ``source`` and ``key``."""
    if typ is str:
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (typ is float or float(value).is_integer()))
    if not ok:
        raise ValueError(f"{source}: key {key!r} must be {_TYPE_NAMES[typ]}, "
                         f"got {json.dumps(value)}")
    return typ(value)


def typed_list(values, typ, key, source) -> list:
    """``values``, a list, with each entry checked by :func:`typed`."""
    if not isinstance(values, list):
        raise ValueError(f"{source}: key {key!r} must be a list, got {json.dumps(values)}")
    return [typed(v, typ, f"{key}[{i}]", source) for i, v in enumerate(values)]


# manifest keys naming one file each, resolved against the manifest's directory
_MANIFEST_FILES = ("unlabeled", "pool_matrix", "pool_boundaries", "prototypes",
                   "prototype_classes", "labeled", "labels", "flags")


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a JSON dataset manifest.

    Checks the type of every field, that referenced files exist, that
    ``class_names`` matches ``C_in``, and that exactly one prototype source
    (``prompt_pools``, ``pool_matrix`` or ``prototypes``) is declared.
    Unknown keys and null values are errors.
    """
    path = Path(path)
    doc = load_json(path, "manifest", ("C_in", "class_names", "prompt_pools", *_MANIFEST_FILES),
                    required=("unlabeled", "C_in", "class_names"))
    c_in = typed(doc["C_in"], int, "C_in", path)
    class_names = tuple(typed_list(doc["class_names"], str, "class_names", path))
    if len(class_names) != c_in:
        raise ValueError(
            f"{path}: class_names has {len(class_names)} entries, C_in is {c_in}"
        )
    files = {key: path.parent / typed(doc[key], str, key, path)
             for key in _MANIFEST_FILES if key in doc}
    if sum(key in doc for key in ("prompt_pools", "pool_matrix", "prototypes")) != 1:
        raise ValueError(
            f"{path}: exactly one of prompt_pools, pool_matrix, or prototypes required"
        )
    pools = None
    if "prompt_pools" in doc:
        pools = tuple(path.parent / p
                      for p in typed_list(doc["prompt_pools"], str, "prompt_pools", path))
        if len(pools) != c_in:
            raise ValueError(f"{path}: prompt_pools needs one file per class ({c_in})")
    for needs, key in (("pool_matrix", "pool_boundaries"), ("prototypes", "prototype_classes"),
                       ("labeled", "labels")):
        if needs in files and key not in files:
            raise ValueError(f"{path}: {needs} requires {key}")
    for p in (*files.values(), *(pools or ())):
        if not p.exists():
            raise FileNotFoundError(f"{path}: referenced file does not exist: {p}")
    return DatasetManifest(root=path.parent, c_in=c_in, class_names=class_names,
                           prompt_pools=pools, **files)
