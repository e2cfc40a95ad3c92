"""Loading, validation, and persistence of embedding matrices, label tables,
and dataset manifests.

All on-disk arrays use a deliberately restricted NPY subset: version 1.0,
little-endian float32/float64, C-order, 2-D for embedding matrices and 1-D
for score vectors. Files written here are always ``'<f8'`` so that a
save/load round trip is bit-exact. Everything is widened to float64 on load;
normalization is a separate, explicit step.
"""

import ast
import csv
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"\x93NUMPY"
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

    Exactly one of ``prompt_pools`` (one NPY per class, clustered at score
    time) or ``prototypes`` + ``prototype_classes`` (pre-built prototype
    matrix plus its class map) must be present. All paths are resolved
    relative to the manifest's directory at load time.
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


def _read_npy_header(f, path):
    magic = f.read(6)
    if magic != _MAGIC:
        raise NpyFormatError(f"{path}: not an NPY file (bad magic)")
    version = f.read(2)
    if len(version) < 2:
        raise NpyFormatError(f"{path}: truncated version field")
    if (version[0], version[1]) != (1, 0):
        raise NpyFormatError(f"{path}: unsupported NPY version {(version[0], version[1])}")
    raw_len = f.read(2)
    if len(raw_len) < 2:
        raise NpyFormatError(f"{path}: truncated header length")
    (header_len,) = struct.unpack("<H", raw_len)
    header = f.read(header_len)
    if len(header) < header_len:
        raise NpyFormatError(f"{path}: truncated header")
    try:
        meta = ast.literal_eval(header.decode("latin1").strip())
    except (ValueError, SyntaxError) as exc:
        raise NpyFormatError(f"{path}: malformed header") from exc
    if not isinstance(meta, dict) or set(meta) != {"descr", "fortran_order", "shape"}:
        raise NpyFormatError(f"{path}: malformed header (unexpected keys)")
    return meta


def _read_npy_payload(path, expected_rank):
    path = Path(path)
    with open(path, "rb") as f:
        meta = _read_npy_header(f, path)
        descr = meta["descr"]
        if descr not in _SUPPORTED_DESCRS:
            raise NpyFormatError(f"{path}: unsupported dtype {descr!r} (need '<f4' or '<f8')")
        if meta["fortran_order"]:
            raise NpyFormatError(f"{path}: unsupported layout (fortran_order=True)")
        shape = meta["shape"]
        if not isinstance(shape, tuple) or not all(isinstance(s, int) for s in shape):
            raise NpyFormatError(f"{path}: malformed header (shape field)")
        if len(shape) != expected_rank:
            raise NpyFormatError(f"{path}: unsupported rank {len(shape)} (need {expected_rank}-D)")
        if any(s < 1 for s in shape):
            raise NpyFormatError(f"{path}: empty axis in shape {shape}")
        dtype = np.dtype(descr)
        n_items = int(np.prod(shape))
        expected = n_items * dtype.itemsize
        payload = f.read(expected + 1)
        if len(payload) < expected:
            raise NpyFormatError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
        if len(payload) > expected:
            raise NpyFormatError(f"{path}: trailing bytes after payload")
        return np.frombuffer(payload, dtype=dtype).reshape(shape)


def _write_npy(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': %s, }" % (arr.shape,)
    # pad so the payload starts on a 64-byte boundary, newline-terminated
    unpadded = len(_MAGIC) + 2 + 2 + len(header) + 1
    header = header + " " * (-unpadded % 64) + "\n"
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(bytes([1, 0]))
        f.write(struct.pack("<H", len(header)))
        f.write(header.encode("latin1"))
        f.write(arr.tobytes(order="C"))


def load_matrix(path) -> EmbeddingMatrix:
    """Load a 2-D embedding matrix from an NPY v1.0 file.

    Values are widened to float64; no normalization is applied. Raises
    :class:`NpyFormatError` for files outside the supported subset, and
    ``ValueError`` naming the first offending row for NaN/Inf payloads.
    """
    arr = _read_npy_payload(path, expected_rank=2)
    try:
        return EmbeddingMatrix(arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_matrix(matrix: EmbeddingMatrix, path) -> None:
    """Write an embedding matrix as NPY v1.0, '<f8', C-order."""
    _write_npy(path, matrix.data)


def load_vector(path) -> np.ndarray:
    """Load a 1-D float NPY file (score vectors, etc.) as float64."""
    arr = _read_npy_payload(path, expected_rank=1).astype(np.float64)
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
    norms = np.linalg.norm(matrix.data, axis=1)
    small = norms < _NORM_EPS
    if small.any():
        row = int(np.nonzero(small)[0][0])
        raise ValueError(f"zero-norm row {row}")
    return EmbeddingMatrix(matrix.data / norms[:, None])


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


def _resolve(root: Path, value):
    if value is None:
        return None
    p = Path(value)
    return p if p.is_absolute() else root / p


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a JSON dataset manifest.

    Checks that referenced files exist, that ``class_names`` matches
    ``C_in``, and that exactly one prototype source (``prompt_pools`` or
    ``prototypes``) is declared.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    root = path.parent
    for key in ("unlabeled", "C_in", "class_names"):
        if key not in doc:
            raise ValueError(f"{path}: missing required field {key!r}")
    c_in = int(doc["C_in"])
    class_names = tuple(str(n) for n in doc["class_names"])
    if len(class_names) != c_in:
        raise ValueError(
            f"{path}: class_names has {len(class_names)} entries, C_in is {c_in}"
        )
    pools = doc.get("prompt_pools")
    pool_matrix = doc.get("pool_matrix")
    protos = doc.get("prototypes")
    n_sources = sum(x is not None for x in (pools, pool_matrix, protos))
    if n_sources != 1:
        raise ValueError(
            f"{path}: exactly one of prompt_pools, pool_matrix, or prototypes required"
        )
    if pools is not None:
        if len(pools) != c_in:
            raise ValueError(f"{path}: prompt_pools needs one file per class ({c_in})")
        pools = tuple(_resolve(root, p) for p in pools)
    if pool_matrix is not None and doc.get("pool_boundaries") is None:
        raise ValueError(f"{path}: pool_matrix requires pool_boundaries")
    if protos is not None and doc.get("prototype_classes") is None:
        raise ValueError(f"{path}: prototypes requires prototype_classes")
    manifest = DatasetManifest(
        root=root,
        unlabeled=_resolve(root, doc["unlabeled"]),
        c_in=c_in,
        class_names=class_names,
        prompt_pools=pools,
        pool_matrix=_resolve(root, pool_matrix),
        pool_boundaries=_resolve(root, doc.get("pool_boundaries")),
        prototypes=_resolve(root, protos),
        prototype_classes=_resolve(root, doc.get("prototype_classes")),
        labeled=_resolve(root, doc.get("labeled")),
        labels=_resolve(root, doc.get("labels")),
        flags=_resolve(root, doc.get("flags")),
    )
    if manifest.labeled is not None and manifest.labels is None:
        raise ValueError(f"{path}: labeled embeddings require a labels file")
    for name in ("unlabeled", "pool_matrix", "pool_boundaries", "prototypes",
                 "prototype_classes", "labeled", "labels", "flags"):
        p = getattr(manifest, name)
        if p is not None and not Path(p).exists():
            raise FileNotFoundError(f"{path}: referenced file does not exist: {p}")
    if manifest.prompt_pools is not None:
        for p in manifest.prompt_pools:
            if not Path(p).exists():
                raise FileNotFoundError(f"{path}: referenced file does not exist: {p}")
    return manifest
