"""Per-class prompt pools and their reduction to in-distribution prototypes.

A pool holds the encoded prompt-template vectors for each class. Prototypes
are either the per-class normalized means (the conventional single-prototype
setup) or the centers of a per-class K-means clustering, which keeps several
representatives per class. Clustering is fully deterministic for a given
seed: k-means++ seeding from a PCG64 generator, Lloyd iterations capped at
100, convergence when no center moves more than 1e-6, ties and empty
clusters repaired by fixed index rules, and centers returned in
lexicographic row order. Classes are reduced in blocks that the calling
thread and one worker thread share (:func:`graphscore.store.share`).
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .store import (_NORM_EPS, EmbeddingMatrix, _chunk_rows, _lock, load_json, load_unit_matrix,
                    read_npy, save_matrix, share, typed, typed_list, unit_rows)

_LLOYD_MAX_ITER = 100
_LLOYD_TOL = 1e-6
# float64 templates per class block; each thread of a pass holds one block
# buffer of this size, which it reads files into and K-means only reads
LLOYD_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class PrototypeSet:
    """Stacked prototype vectors with per-row class provenance."""

    vectors: EmbeddingMatrix
    class_of: np.ndarray

    def __post_init__(self):
        class_of = np.array(self.class_of, dtype=np.int64, copy=True)
        if class_of.ndim != 1 or class_of.size != self.vectors.count:
            raise ValueError("class_of must map every prototype row to a class")
        if (class_of < 0).any():
            raise ValueError("negative class id in class_of")
        missing = np.setdiff1d(np.arange(class_of.max() + 1), class_of)
        if missing.size:
            raise ValueError(f"class_of has no prototype for class ids {missing.tolist()}")
        # a per-row dot: norm(axis=1) would hold a (P, d) square
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors.data, self.vectors.data))
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError("prototype rows must be unit-normalized")
        object.__setattr__(self, "class_of", _lock(class_of))

    @property
    def count(self) -> int:
        return self.vectors.count

    @property
    def n_classes(self) -> int:
        return int(self.class_of.max()) + 1


def _sq_dist(points: np.ndarray, centers=None) -> np.ndarray:
    # (B, T) squared distances of the templates to their class's center, or
    # with none their squared norms, a chunk of classes at a time; each sum
    # runs over one row, so no bit moves
    step = min(_chunk_rows(points), len(points))
    buf, out = np.empty((step, *points.shape[1:])), np.empty(points.shape[:2])
    for lo in range(0, len(points), step):
        part = buf[:len(points) - lo]
        diff = (points[lo:lo + step] if centers is None
                else np.subtract(points[lo:lo + step], centers[lo:lo + step, None, :], out=part))
        np.square(diff, out=part).sum(axis=2, out=out[lo:lo + step])
    return out


def _kmeans_pp_init(points: np.ndarray, k: int, seed: int, stream: int) -> np.ndarray:
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
    d2 = _sq_dist(points, points[rows, chosen[:, 0]])
    for j in range(1, k):
        total = d2.sum(axis=1)
        # searchsorted(cumsum, r, side="right") as a count of entries <= r
        below = np.cumsum(d2, axis=1) <= (draws[:, j - 1] * total)[:, None]
        chosen[:, j] = np.minimum(below.sum(axis=1), n - 1)
        for b in np.nonzero(total <= 0.0)[0]:
            # all mass sits on chosen points: take the lowest-index unused one
            chosen[b, j] = np.setdiff1d(np.arange(n), chosen[b, :j])[0]
        if j < k - 1:  # the last center's distances are never used
            d2 = np.minimum(d2, _sq_dist(points, points[rows, chosen[:, j]]))
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
    """Deterministic K-means over a (B, T, d) block of classes. Returns the
    (B, k, d) centers and an objective history per class.

    Class b draws from PCG64 stream ``stream + b`` and iterates until its own
    centers settle. Centers come back in lexicographic row order so results
    do not depend on the order templates were supplied in. Each iteration
    works on the runs of consecutive classes still iterating: per run, one
    masked sum per cluster updates the centers and one batched product
    assigns the templates, numpy calls that release the GIL, so two
    threads' blocks overlap; the per-class bookkeeping is held in arrays.
    ``points`` is only read; besides per-class arrays the call holds a
    chunk of whole classes of at most ``UNIT_BLOCK_BYTES`` (one class, if a
    class is larger).
    """
    n_b, _, dim = points.shape
    x_sq = _sq_dist(points)
    centers = _kmeans_pp_init(points, k, seed, stream)
    # a class's objectives, one per iteration and at most one repeat, which
    # only an iteration before the last adds; NaN past its ``length``
    history, length = np.full((n_b, _LLOYD_MAX_ITER), np.nan), np.zeros(n_b, dtype=np.int64)
    live, sums = np.arange(n_b), np.empty((n_b, k, dim))  # classes still iterating
    assign, d2 = _assign(points, x_sq, centers)
    for it in range(_LLOYD_MAX_ITER):
        # runs of consecutive live classes, each a view of the block; a
        # class's product has the same bits whatever else is in the batch,
        # and a settled class keeps its centers
        spans = [slice(run[0], run[-1] + 1)
                 for run in np.split(live, np.flatnonzero(np.diff(live) > 1) + 1)]
        prev = assign[live]
        counts = (prev[:, :, None] == np.arange(k)).sum(axis=1)
        for b in np.nonzero(counts.min(axis=1) == 0)[0]:
            _repair_empty(prev[b], d2[live[b]], k)
            counts[b] = np.bincount(prev[b], minlength=k)
        assign[live] = prev
        for span in spans:
            for c in range(k):
                # a masked sum, template by template from add's identity
                # +0.0: the bits of points[assign == c].mean(axis=0)
                np.add.reduce(points[span], axis=1, where=(assign[span] == c)[:, :, None],
                              out=sums[span, c])
        new = sums[live] / counts[:, :, None]
        settled = np.max(np.linalg.norm(new - centers[live], axis=2), axis=1) < _LLOYD_TOL
        centers[live] = new
        for span in spans:
            assign[span], d2[span] = _assign(points[span], x_sq[span], centers[span])
        # the objective: every template's squared distance to its updated center
        objective = np.take_along_axis(d2[live], prev[:, :, None], axis=2).sum(axis=(1, 2))
        # an unchanged assignment rebuilds the same centers bit for bit, so
        # the next step could only repeat this objective and settle
        repeat = ~settled & (assign[live] == prev).all(axis=1) & (it + 1 < _LLOYD_MAX_ITER)
        for rows, obj in ((live, objective), (live[repeat], objective[repeat])):
            history[rows, length[rows]] = obj
            length[rows] += 1
        live = live[~(settled | repeat)]
        if not live.size:
            break
    if (np.diff(history, axis=1) > 1e-9).any():  # NaN compares false
        raise RuntimeError("k-means objective increased between iterations")
    # lexicographic order: column 0 decides unless two of a class's centers tie on it
    order = np.argsort(centers[:, :, 0], axis=1, kind="stable")
    first = np.take_along_axis(centers[:, :, 0], order, axis=1)
    tied = (first[:, 1:] == first[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.lexsort(centers[tied].transpose(2, 0, 1)[::-1], axis=-1)
    return (np.take_along_axis(centers, order[:, :, None], axis=1),
            [h[:n].tolist() for h, n in zip(history, length)])


def pool_prototypes(paths, clusters, seed: int, check=lambda path, dim: None) -> dict:
    """Every prototype set that ``clusters`` asks for, keyed by the count
    asked for, from one pass over ``paths``, one NPY file per class.

    A count of 1 gives the normalized class means, a larger one the
    normalized K-means centers of :func:`_lloyd`; counts above the template
    count are clamped with a warning. Classes run in blocks of
    ``LLOYD_BLOCK_BYTES``: a block's files are read into a block buffer,
    each file once, normalized in place by one :func:`unit_rows` call over
    the block's rows, and reduced to every set asked for before the next
    block, so no ``(C, T, d)`` stack is ever held; :func:`_lloyd` only reads
    the block, so every count clusters the same buffer. Every file must have
    the first file's shape and pass ``check(path, dim)``. The error is the
    one a file-by-file pass would raise: a zero, NaN or inf row is named by
    its file and its row in that file, and it comes before a read error in
    a later file of the block.

    :func:`share` runs the blocks on two threads. Every class draws from its
    own PCG64 stream, so no output depends on which thread ran its block.
    """
    if min(clusters) < 1:
        raise ValueError(f"clusters must be >= 1, got {list(clusters)}")
    first = read_npy(paths[0], rank=2)
    n_classes, (n_t, dim) = len(paths), first.shape
    check(paths[0], dim)

    for n_c in sorted(set(clusters)):
        if n_c > n_t:
            warnings.warn(f"n_c={n_c} exceeds template count {n_t}; clamping", stacklevel=2)
    counts = sorted({min(n_c, n_t) for n_c in clusters})
    centers = {k: np.empty((n_classes, k, dim)) for k in counts}
    block = max(1, LLOYD_BLOCK_BYTES // (n_t * dim * 8))
    starts = range(0, n_classes, block)

    def reduce(lo, buf):
        # the block's files into ``buf``, normalized as one (B * T, d)
        # matrix, then to every set asked for
        hi, failed = min(lo + block, n_classes), None
        for c, rows in zip(range(lo, hi), buf):
            def slot(shape):
                check(paths[c], shape[1])
                if shape != first.shape:
                    raise ValueError(f"{paths[c]}: shape {shape} differs from "
                                     f"{paths[0]}: {first.shape}")
                return rows

            try:
                if c == 0:  # read once already, to size the blocks
                    np.copyto(rows, first)
                else:
                    read_npy(paths[c], rank=2, slot=slot)
            except Exception as exc:  # a bad row in an earlier file comes first
                hi, failed = c, exc
                break
        try:
            flat = buf[:hi - lo].reshape(-1, dim)
            unit_rows(flat, paths[lo], out=flat)
        except ValueError:
            # the first bad row lies in the first file that fails on its own
            for c, rows in zip(range(lo, hi), buf):
                unit_rows(rows, paths[c], out=rows)
            raise
        if failed is not None:
            raise failed
        for k, out in centers.items():
            out[lo:hi] = (buf[:hi - lo].mean(axis=1, keepdims=True) if k == 1
                          else _lloyd(buf[:hi - lo], k, seed, lo)[0])

    # one block buffer per thread, freed before the sets below are built
    share(starts, reduce, [(np.empty((min(block, n_classes), n_t, dim)),) for _ in starts[:2]])
    sets = {}
    for k, out in centers.items():
        # one norm per mean, as a dot product (norm(axis=2) sums differently);
        # the centers' norms are norm(axis=2)'s, a chunk of classes at a time
        norms = (np.sqrt(_sq_dist(out)) if k > 1
                 else np.array([[np.linalg.norm(mean)] for mean in out[:, 0]]))
        small = (norms < _NORM_EPS).any(axis=1)
        if small.any():
            c = int(np.argmax(small))
            raise ValueError(f"{paths[c]}: zero-norm {'mean' if k == 1 else 'cluster center'} "
                             f"for class {c}")
        out /= norms[:, :, None]  # in place, so the matrix adopts ``out`` without a copy
        sets[k] = PrototypeSet(EmbeddingMatrix(out.reshape(-1, dim)),
                               class_of=np.repeat(np.arange(n_classes), k))
    return {n_c: sets[min(n_c, n_t)] for n_c in clusters}


def load_prototypes(matrix_path, classes_path) -> PrototypeSet:
    """Load a pre-built prototype matrix plus its JSON class map. A map may keep
    the ``clusters_per_class`` key of earlier versions if every class has that many rows."""
    doc = load_json(classes_path, "prototype class map", ("class_of", "clusters_per_class"),
                    required=("class_of",))
    class_of = typed_list(doc["class_of"], int, "class_of", classes_path)
    per_class = typed(doc.get("clusters_per_class", 1), int, "clusters_per_class", classes_path)
    vectors = load_unit_matrix(matrix_path)
    try:
        protos = PrototypeSet(vectors=vectors, class_of=class_of)
    except ValueError as exc:
        raise ValueError(f"{classes_path}: {exc}") from exc
    counts = np.bincount(protos.class_of)
    if "clusters_per_class" in doc and (counts != per_class).any():
        c = int(np.argmax(counts != per_class))
        raise ValueError(f"{classes_path}: key 'clusters_per_class' is {per_class}, "
                         f"but class {c} has {counts[c]} rows")
    return protos


def save_prototypes(protos: PrototypeSet, matrix_path, classes_path) -> None:
    save_matrix(protos.vectors, matrix_path)
    with open(classes_path, "w", encoding="utf-8") as f:
        json.dump({"class_of": [int(c) for c in protos.class_of]}, f, indent=2)
        f.write("\n")
