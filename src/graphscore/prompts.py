"""Per-class prompt pools and their reduction to in-distribution prototypes.

A pool holds the encoded prompt-template vectors for each class. Prototypes
are either the per-class normalized means (the conventional single-prototype
setup) or the centers of a per-class K-means clustering, which keeps several
representatives per class. Clustering is fully deterministic for a given
seed: k-means++ seeding from a PCG64 generator, Lloyd iterations capped at
100, convergence when no center moves more than 1e-6, ties and empty
clusters repaired by fixed index rules, and centers returned in
lexicographic row order.
"""

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .store import (EmbeddingMatrix, _lock, l2_normalize, load_json, load_matrix, row_norms,
                    save_matrix, typed, typed_list)

_LLOYD_MAX_ITER = 100
_LLOYD_TOL = 1e-6
# templates per K-means block; a block needs one such array of scratch
LLOYD_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class PromptPool:
    """Encoded prompt templates as one frozen ``(C, T, d)`` float64 stack: C
    classes of T templates in d dimensions. A float64 C-order array is adopted
    without a copy; anything else numpy can stack, such as a sequence of
    per-class matrices, is converted first."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64, order="C")
        if data.ndim != 3 or data.size == 0:
            raise ValueError(f"prompt pool must be a non-empty (C, T, d) stack, got {data.shape}")
        if not np.isfinite([data.max(), data.min()]).all():  # NaN and inf reach one of them
            raise ValueError("prompt pool holds non-finite values")
        object.__setattr__(self, "data", _lock(data))

    @property
    def n_classes(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class PrototypeSet:
    """Stacked prototype vectors with per-row class provenance."""

    vectors: EmbeddingMatrix
    class_of: np.ndarray
    clusters_per_class: int

    def __post_init__(self):
        class_of = np.array(self.class_of, dtype=np.int64, copy=True)
        if class_of.ndim != 1 or class_of.size != self.vectors.count:
            raise ValueError("class_of must map every prototype row to a class")
        if (class_of < 0).any():
            raise ValueError("negative class id in class_of")
        missing = np.setdiff1d(np.arange(class_of.max() + 1), class_of)
        if missing.size:
            raise ValueError(f"class_of has no prototype for class ids {missing.tolist()}")
        norms = np.linalg.norm(self.vectors.data, axis=1)
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("prototype rows must be unit-normalized")
        object.__setattr__(self, "class_of", _lock(class_of))

    @property
    def count(self) -> int:
        return self.vectors.count

    @property
    def n_classes(self) -> int:
        return int(self.class_of.max()) + 1

    @cached_property
    def class_members(self) -> tuple:
        """Row indices per class, in class order."""
        return tuple(np.nonzero(self.class_of == c)[0] for c in range(self.n_classes))


def _sq_dist(points: np.ndarray, centers: np.ndarray, buf: np.ndarray) -> np.ndarray:
    # (B, T) squared distances of the templates to their class's center, via the scratch
    np.subtract(points, centers[:, None, :], out=buf)
    return np.square(buf, out=buf).sum(axis=2)


def _kmeans_pp_init(points: np.ndarray, k: int, seed: int, stream: int, buf) -> np.ndarray:
    n_b, n, _ = points.shape
    rows = np.arange(n_b)
    chosen = np.empty((n_b, k), dtype=np.int64)
    draws = np.empty((n_b, k - 1))
    for b in range(n_b):
        # one PCG64 stream per (seed, class) so classes cluster independently;
        # a class whose mass runs out draws no more, so its unused draws do not matter
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), stream + b])))
        chosen[b, 0] = rng.integers(n)
        draws[b] = rng.random(k - 1)
    d2 = _sq_dist(points, points[rows, chosen[:, 0]], buf)
    for j in range(1, k):
        total = d2.sum(axis=1)
        # searchsorted(cumsum, r, side="right") as a count of entries <= r
        below = np.cumsum(d2, axis=1) <= (draws[:, j - 1] * total)[:, None]
        chosen[:, j] = np.minimum(below.sum(axis=1), n - 1)
        for b in np.nonzero(total <= 0.0)[0]:
            # all mass sits on chosen points: take the lowest-index unused one
            chosen[b, j] = np.setdiff1d(np.arange(n), chosen[b, :j])[0]
        if j < k - 1:  # the last center's distances are never used
            d2 = np.minimum(d2, _sq_dist(points, points[rows, chosen[:, j]], buf))
    return points[rows[:, None], chosen]


def _assign(points: np.ndarray, sq: np.ndarray, centers: np.ndarray):
    # squared distances from the templates' squared norms ``sq``; argmin
    # breaks ties toward the lowest center index
    d2 = (sq[:, :, None] - 2.0 * np.matmul(points, centers.transpose(0, 2, 1))
          + np.sum(centers ** 2, axis=2)[:, None, :])
    return np.argmin(d2, axis=2), d2


def _repair_empty(assign: np.ndarray, d2: np.ndarray, k: int) -> None:
    # in place: each empty cluster takes the farthest point of a cluster of two or more
    counts = np.bincount(assign, minlength=k)
    for c in range(k):
        if counts[c] > 0:
            continue
        own = d2[np.arange(assign.size), assign]
        eligible = counts[assign] >= 2
        if not eligible.any():  # cannot happen for k <= n, kept as a guard
            raise RuntimeError("no donor point for empty cluster repair")
        masked = np.where(eligible, own, -np.inf)
        donor = int(np.argmax(masked))  # farthest point; argmax ties -> lowest index
        counts[assign[donor]] -= 1
        assign[donor] = c
        counts[c] += 1


def _lloyd(points: np.ndarray, k: int, seed: int, stream: int):
    """Deterministic K-means. Returns (centers, assignments, objective history).

    ``points`` is one class's (T, d) templates, or a (B, T, d) block of classes
    whose class b draws from PCG64 stream ``stream + b`` and iterates until its
    own centers settle; a block returns (B, k, d) centers, (B, T) assignments
    and a history per class. Centers come back in lexicographic row order so
    results do not depend on the order templates were supplied in.
    """
    if points.ndim == 2:
        centers, assign, history = _lloyd(points[None], k, seed, stream)
        return centers[0], assign[0], history[0]
    buf = np.empty_like(points)
    sq = np.square(points, out=buf).sum(axis=2)
    centers = _kmeans_pp_init(points, k, seed, stream, buf)
    history = [[] for _ in points]
    live = np.arange(len(points))  # classes still iterating
    x, x_sq, cur = points, sq, centers
    assign, d2 = _assign(x, x_sq, cur)
    for it in range(_LLOYD_MAX_ITER):
        rows = np.arange(live.size)
        counts = (assign[:, :, None] == np.arange(k)).sum(axis=1)
        for b in np.nonzero(counts.min(axis=1) == 0)[0]:
            _repair_empty(assign[b], d2[b], k)
            counts[b] = np.bincount(assign[b], minlength=k)
        # summed template by template from -0.0: the bits of points[assign == c].mean(axis=0)
        new = np.full_like(cur, -0.0)
        for t in range(x.shape[1]):
            new[rows, assign[:, t]] += x[:, t]
        new /= counts[:, :, None]
        prev = assign
        assign, d2 = _assign(x, x_sq, new)
        # the objective: every template's squared distance to its updated center
        objective = np.take_along_axis(d2, prev[:, :, None], axis=2).sum(axis=(1, 2))
        settled = np.max(np.linalg.norm(new - cur, axis=2), axis=1) < _LLOYD_TOL
        # an unchanged assignment rebuilds the same centers bit for bit, so
        # the next step could only repeat this objective and settle
        repeat = ~settled & (assign == prev).all(axis=1) & (it + 1 < _LLOYD_MAX_ITER)
        for b, obj, again in zip(live, objective, repeat):
            history[b] += [float(obj)] * (1 + again)
        settled |= repeat
        centers[live] = new
        if settled.all():
            break
        if settled.any():
            live, x_sq, new, assign, d2 = (a[~settled] for a in (live, x_sq, new, assign, d2))
            # the remaining classes move to the front of the scratch; the indices
            # are in range, and "clip" skips the buffered copy "raise" makes
            x = np.take(points, live, axis=0, out=buf[:live.size], mode="clip")
        cur = new
    if any((np.diff(h) > 1e-9).any() for h in history):
        raise RuntimeError("k-means objective increased between iterations")
    order = np.lexsort(centers.transpose(2, 0, 1)[::-1], axis=-1)
    centers = np.take_along_axis(centers, order[:, :, None], axis=1)
    assign, _ = _assign(points, sq, centers)
    return centers, assign, history


def cluster_prompts(pool: PromptPool, n_c: int, seed: int) -> PrototypeSet:
    """Cluster each class's template pool into ``n_c`` prototypes.

    Centers are re-normalized to unit length; requests for more clusters than
    templates are clamped with a warning. ``n_c == 1`` gives exactly
    :func:`mean_prototypes`. Classes run in blocks of ``LLOYD_BLOCK_BYTES``.
    """
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    n_classes, n_t, dim = pool.data.shape
    if n_c > n_t:
        warnings.warn(f"n_c={n_c} exceeds template count {n_t}; clamping", stacklevel=2)
        n_c = n_t
    if n_c == 1:
        return mean_prototypes(pool)
    block = max(1, LLOYD_BLOCK_BYTES // pool.data[0].nbytes)
    centers = np.empty((n_classes, n_c, dim))
    for lo in range(0, n_classes, block):
        centers[lo:lo + block] = _lloyd(pool.data[lo:lo + block], n_c, seed, stream=lo)[0]
    norms = np.linalg.norm(centers, axis=2)
    small = (norms < 1e-12).any(axis=1)
    if small.any():
        raise ValueError(f"zero-norm cluster center for class {int(np.argmax(small))}")
    return PrototypeSet(EmbeddingMatrix((centers / norms[:, :, None]).reshape(-1, dim)),
                        class_of=np.repeat(np.arange(n_classes), n_c), clusters_per_class=n_c)


def mean_prototypes(pool: PromptPool) -> PrototypeSet:
    """One prototype per class: the normalized mean of its templates."""
    means = pool.data.mean(axis=1)
    # one norm per row, as a dot product (norm(axis=1) sums differently)
    norms = np.array([np.linalg.norm(mean) for mean in means])
    if (norms < 1e-12).any():
        raise ValueError(f"zero-norm mean for class {int(np.argmax(norms < 1e-12))}")
    return PrototypeSet(EmbeddingMatrix(means / norms[:, None]),
                        class_of=np.arange(len(means)), clusters_per_class=1)


def _normalize_into(out: np.ndarray, rows: np.ndarray, path) -> None:
    # store.l2_normalize's norm and divide, written into a slot of the stack
    try:
        np.divide(rows, row_norms(rows)[:, None], out=out)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_prompt_pools(paths) -> PromptPool:
    """Build a pool from one NPY file per class; rows are L2-normalized."""
    paths = list(paths)
    stack = np.empty(0)
    for c, path in enumerate(paths):
        rows = load_matrix(path).data
        if c == 0:
            stack = np.empty((len(paths), *rows.shape))
        elif rows.shape != stack.shape[1:]:
            raise ValueError(f"{path}: shape {rows.shape} differs from "
                             f"{paths[0]}: {stack.shape[1:]}")
        _normalize_into(stack[c], rows, path)
    return PromptPool(stack)


def load_pooled_matrix(matrix_path, boundaries_path) -> PromptPool:
    """Build a pool from one stacked NPY plus a JSON class-boundary sidecar.

    The sidecar holds ``{"boundaries": [0, t, 2t, ..., n]}``: row offsets
    delimiting each class's templates, the same number for every class.
    """
    doc = load_json(boundaries_path, "pool boundaries", ("boundaries",), required=("boundaries",))
    bounds = typed_list(doc["boundaries"], int, "boundaries", boundaries_path)
    rows = load_matrix(matrix_path).data
    sizes = sorted(set(np.diff(bounds).tolist()))
    if bounds[:1] != [0] or bounds[-1:] != [rows.shape[0]] or len(sizes) != 1 or sizes[0] < 1:
        raise ValueError(f"{boundaries_path}: boundaries must run from 0 to {rows.shape[0]} in "
                         f"equal steps; the classes hold {sizes} templates")
    stack = np.empty((len(bounds) - 1, sizes[0], rows.shape[1]))
    _normalize_into(stack.reshape(rows.shape), rows, matrix_path)
    return PromptPool(stack)


def load_prototypes(matrix_path, classes_path) -> PrototypeSet:
    """Load a pre-built prototype matrix plus its JSON class map."""
    doc = load_json(classes_path, "prototype class map", ("class_of", "clusters_per_class"),
                    required=("class_of",))
    class_of = typed_list(doc["class_of"], int, "class_of", classes_path)
    clusters = typed(doc.get("clusters_per_class", 1), int, "clusters_per_class", classes_path)
    vectors = l2_normalize(load_matrix(matrix_path))
    try:
        return PrototypeSet(vectors=vectors, class_of=class_of, clusters_per_class=clusters)
    except ValueError as exc:
        raise ValueError(f"{classes_path}: {exc}") from exc


def save_prototypes(protos: PrototypeSet, matrix_path, classes_path) -> None:
    save_matrix(protos.vectors, matrix_path)
    with open(classes_path, "w", encoding="utf-8") as f:
        json.dump({"class_of": [int(c) for c in protos.class_of],
                   "clusters_per_class": protos.clusters_per_class}, f, indent=2)
        f.write("\n")
