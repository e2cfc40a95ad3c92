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

from .store import (
    EmbeddingMatrix,
    _lock,
    l2_normalize,
    load_json,
    load_matrix,
    save_matrix,
    typed,
    typed_list,
)

_LLOYD_MAX_ITER = 100
_LLOYD_TOL = 1e-6


@dataclass(frozen=True)
class PromptPool:
    """Per-class pools of encoded prompt-template vectors.

    Every class must carry the same number of templates and the same
    embedding dimension.
    """

    per_class: tuple

    def __post_init__(self):
        per_class = tuple(self.per_class)
        if not per_class:
            raise ValueError("empty prompt pool")
        dims = {m.dim for m in per_class}
        if len(dims) != 1:
            raise ValueError(f"pool classes disagree on dim: {sorted(dims)}")
        counts = {m.count for m in per_class}
        if len(counts) != 1:
            raise ValueError(f"pool classes disagree on template count: {sorted(counts)}")
        object.__setattr__(self, "per_class", per_class)

    @property
    def n_classes(self) -> int:
        return len(self.per_class)

    @property
    def template_count(self) -> int:
        return self.per_class[0].count

    @property
    def dim(self) -> int:
        return self.per_class[0].dim


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


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one PCG64 stream per (seed, class) so classes cluster independently
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    chosen = [int(rng.integers(n))]
    centers[0] = points[chosen[0]]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass sits on already-chosen points; take the
            # lowest-index point not yet used
            rest = [i for i in range(n) if i not in chosen]
            idx = rest[0]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray):
    # squared distances; argmin breaks ties toward the lowest center index
    d2 = (
        np.sum(points ** 2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers ** 2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1), d2


def _repair_empty(assign: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
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
    return assign


def _lloyd(points: np.ndarray, k: int, seed: int, stream: int):
    """Deterministic K-means. Returns (centers, assignments, objective history).

    Centers come back in lexicographic row order so results do not depend on
    the order templates were supplied in.
    """
    n = points.shape[0]
    if k == 1:
        centers = points.mean(axis=0, keepdims=True)
        obj = float(np.sum((points - centers[0]) ** 2))
        return centers, np.zeros(n, dtype=np.int64), [obj]
    rng = _rng(seed, stream)
    centers = _kmeans_pp_init(points, k, rng)
    history = []
    for _ in range(_LLOYD_MAX_ITER):
        assign, d2 = _assign(points, centers)
        assign = _repair_empty(assign, d2, k)
        new_centers = np.empty_like(centers)
        for c in range(k):
            new_centers[c] = points[assign == c].mean(axis=0)
        history.append(float(np.sum((points - new_centers[assign]) ** 2)))
        movement = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        if movement < _LLOYD_TOL:
            break
    if len(history) > 1:
        drift = np.diff(history)
        if (drift > 1e-9).any():
            raise RuntimeError("k-means objective increased between iterations")
    order = np.lexsort(centers.T[::-1])
    centers = centers[order]
    assign, _ = _assign(points, centers)
    return centers, assign, history


def cluster_prompts(pool: PromptPool, n_c: int, seed: int) -> PrototypeSet:
    """Cluster each class's template pool into ``n_c`` prototypes.

    Cluster centers are re-normalized to unit length before use; requests for
    more clusters than templates are clamped with a warning. With ``n_c == 1``
    this reduces exactly to :func:`mean_prototypes`.
    """
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c}")
    if n_c > pool.template_count:
        warnings.warn(
            f"n_c={n_c} exceeds template count {pool.template_count}; clamping",
            stacklevel=2,
        )
        n_c = pool.template_count
    all_centers = []
    class_of = []
    for c, matrix in enumerate(pool.per_class):
        centers, _, _ = _lloyd(matrix.data, n_c, seed, stream=c)
        norms = np.linalg.norm(centers, axis=1)
        if (norms < 1e-12).any():
            raise ValueError(f"zero-norm cluster center for class {c}")
        all_centers.append(centers / norms[:, None])
        class_of.extend([c] * n_c)
    return PrototypeSet(
        vectors=EmbeddingMatrix(np.vstack(all_centers)),
        class_of=np.array(class_of, dtype=np.int64),
        clusters_per_class=n_c,
    )


def mean_prototypes(pool: PromptPool) -> PrototypeSet:
    """One prototype per class: the normalized mean of its templates."""
    centers = []
    for c, matrix in enumerate(pool.per_class):
        mean = matrix.data.mean(axis=0, keepdims=True)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise ValueError(f"zero-norm mean for class {c}")
        centers.append(mean / norm)
    return PrototypeSet(
        vectors=EmbeddingMatrix(np.vstack(centers)),
        class_of=np.arange(pool.n_classes, dtype=np.int64),
        clusters_per_class=1,
    )


def load_prompt_pools(paths) -> PromptPool:
    """Build a pool from one NPY file per class; rows are L2-normalized."""
    return PromptPool(tuple(l2_normalize(load_matrix(p)) for p in paths))


def load_pooled_matrix(matrix_path, boundaries_path) -> PromptPool:
    """Build a pool from one stacked NPY plus a JSON class-boundary sidecar.

    The sidecar holds ``{"boundaries": [0, t, 2t, ..., n]}`` — row offsets
    delimiting each class's templates in the stacked matrix.
    """
    doc = load_json(boundaries_path, "pool boundaries", ("boundaries",), required=("boundaries",))
    bounds = typed_list(doc["boundaries"], int, "boundaries", boundaries_path)
    stacked = l2_normalize(load_matrix(matrix_path))
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != stacked.count:
        raise ValueError(
            f"{boundaries_path}: boundaries must start at 0 and end at {stacked.count}"
        )
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"{boundaries_path}: boundaries must be strictly increasing")
    per_class = tuple(
        EmbeddingMatrix(stacked.data[b1:b2]) for b1, b2 in zip(bounds, bounds[1:])
    )
    return PromptPool(per_class)


def load_prototypes(matrix_path, classes_path) -> PrototypeSet:
    """Load a pre-built prototype matrix plus its JSON class map."""
    doc = load_json(classes_path, "prototype class map", ("class_of", "clusters_per_class"),
                    required=("class_of",))
    class_of = typed_list(doc["class_of"], int, "class_of", classes_path)
    clusters = typed(doc.get("clusters_per_class", 1), int, "clusters_per_class", classes_path)
    vectors = l2_normalize(load_matrix(matrix_path))
    try:
        return PrototypeSet(
            vectors=vectors,
            class_of=class_of,
            clusters_per_class=clusters,
        )
    except ValueError as exc:
        raise ValueError(f"{classes_path}: {exc}") from exc


def save_prototypes(protos: PrototypeSet, matrix_path, classes_path) -> None:
    save_matrix(protos.vectors, matrix_path)
    with open(classes_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "class_of": [int(c) for c in protos.class_of],
                "clusters_per_class": protos.clusters_per_class,
            },
            f,
            indent=2,
        )
        f.write("\n")
