"""Seeded synthetic embedding benchmarks on the unit sphere.

Two generator shapes:

* ``gaussian_blobs`` — one tight cluster per ID class around its prototype
  plus an OOD cluster placed opposite the ID centroid. Raw cosine scoring
  separates this easily; it is the sanity regime.
* ``bridged_chain`` — ID class 0 is a geodesic chain whose head sits at the
  prototype and whose tail swings far away; the OOD samples form a second
  arc that branches off partway along the chain and leaves the chain plane.
  Cosine distance misorders the chain tail against the near end of the OOD
  branch, while scores propagated along the chain keep the ordering, and
  the branch's far end is the natural source of pseudo negatives. This is
  the regime where graph scoring is expected to win.

Sampling is an isotropic Gaussian in the tangent space of each target
direction, re-projected to the sphere. All randomness flows through PCG64
generators keyed as SeedSequence([seed, stream]) with one fixed stream per
component (prototypes=0, ID samples=1, OOD samples=2, labeled samples=3),
so identical specs produce bit-identical datasets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .prompts import PrototypeSet
from .store import EmbeddingMatrix

STREAM_PROTO = 0
STREAM_ID = 1
STREAM_OOD = 2
STREAM_LABELED = 3

# bridged_chain geometry in degrees: chain length, where the OOD branch leaves
# the chain, and the branch's gap from the chain and length
CHAIN_EXTENT_DEG = 100.0
BRANCH_DEG = 70.0
BRANCH_GAP_DEG = 8.0
OOD_EXTENT_DEG = 45.0

_SHAPES = ("gaussian_blobs", "bridged_chain")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic dataset.

    ``id_counts`` gives the per-class unlabeled ID sample counts; class
    means default to the first standard basis vectors (the chain shape uses
    the e0-e1 plane for its arc and e2 for its OOD branch, so its blob classes
    start at e3). Spreads are radians of tangent noise.
    """

    dim: int = 16
    shape: str = "gaussian_blobs"
    id_counts: tuple = (50, 50)
    ood_count: int = 100
    spread: float = 0.08
    proto_jitter: float = 0.02
    labeled_per_class: int = 0
    seed: int = 0
    chain_noise: float = 0.05

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {_SHAPES}")
        if self.dim < len(self.id_counts) + 2:
            raise ValueError("dim too small for the requested class count")
        if not self.id_counts or any(c < 1 for c in self.id_counts):
            raise ValueError("id_counts must all be >= 1")
        if self.ood_count < 1:
            raise ValueError("ood_count must be >= 1")
        if self.spread <= 0 or self.chain_noise <= 0:
            raise ValueError("spreads must be positive")
        if self.labeled_per_class < 0:
            raise ValueError("labeled_per_class must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "id_counts", tuple(int(c) for c in self.id_counts))

    @property
    def n_classes(self) -> int:
        return len(self.id_counts)

    @property
    def n_id(self) -> int:
        return sum(self.id_counts)


@dataclass(frozen=True)
class SynthDataset:
    prototypes: PrototypeSet
    unlabeled: EmbeddingMatrix
    is_id: np.ndarray
    labeled: EmbeddingMatrix = None


def _rng(seed: int, stream: int) -> "np.random.Generator":
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _tangent_sample(rng, centers: np.ndarray, sigma: float) -> np.ndarray:
    """One point per center row: center + sigma * tangent Gaussian, renormalized."""
    noise = rng.standard_normal(centers.shape)
    noise -= np.sum(noise * centers, axis=1, keepdims=True) * centers
    return _unit(centers + sigma * noise)


def _blob(rng, mean: np.ndarray, sigma: float, n: int) -> np.ndarray:
    return _tangent_sample(rng, np.tile(mean, (n, 1)), sigma)


def _arc_points(rng, start: np.ndarray, toward: np.ndarray, angles_deg: np.ndarray,
                noise: float) -> np.ndarray:
    """Points on the great circle from unit ``start`` toward the orthogonal
    unit ``toward``, at the given angles from ``start``."""
    phi = np.radians(angles_deg)
    base = np.cos(phi)[:, None] * start + np.sin(phi)[:, None] * toward
    return _tangent_sample(rng, base, noise)


def _arc_angles(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """Jittered regular grid of angles in [lo, hi].

    A grid keeps the arc free of large sampling holes, so its KNN structure
    (and hence propagation reach) is stable across seeds; the jitter still
    varies every seed.
    """
    step = (hi - lo) / n
    grid = lo + step * (np.arange(n) + 0.5)
    return grid + rng.uniform(-0.45 * step, 0.45 * step, n)


def _class_means(spec: SynthSpec) -> np.ndarray:
    means = np.zeros((spec.n_classes, spec.dim))
    if spec.shape == "bridged_chain":
        # class 0 anchors the chain at e0; the chain lives in the e0-e1
        # plane and the OOD branch bends into e2, so blob classes start at e3
        means[0, 0] = 1.0
        for c in range(1, spec.n_classes):
            means[c, c + 2] = 1.0
    else:
        for c in range(spec.n_classes):
            means[c, c] = 1.0
    return means


def generate(spec: SynthSpec) -> SynthDataset:
    """Generate a dataset: prototypes, unlabeled samples (ID first, then
    OOD), ID flags, and optionally labeled samples, ``labeled_per_class``
    rows per class in class order."""
    means = _class_means(spec)
    rng_id = _rng(spec.seed, STREAM_ID)
    rng_ood = _rng(spec.seed, STREAM_OOD)
    protos = _tangent_sample(_rng(spec.seed, STREAM_PROTO), means, spec.proto_jitter)

    chain = spec.shape == "bridged_chain"
    id_rows = []
    if chain:  # class 0 is the chain, and the OOD samples branch off it
        e0, e1, e2 = np.eye(3, spec.dim)
        angles = _arc_angles(rng_id, 0.0, CHAIN_EXTENT_DEG, spec.id_counts[0])
        id_rows.append(_arc_points(rng_id, e0, e1, angles, spec.chain_noise))
        branch_rad = math.radians(BRANCH_DEG)
        branch = math.cos(branch_rad) * e0 + math.sin(branch_rad) * e1
        ood_angles = _arc_angles(rng_ood, BRANCH_GAP_DEG, BRANCH_GAP_DEG + OOD_EXTENT_DEG,
                                 spec.ood_count)
        ood = _arc_points(rng_ood, branch, e2, ood_angles, spec.chain_noise)
    else:
        ood = _blob(rng_ood, _unit(-means.sum(axis=0)), spec.spread, spec.ood_count)
    id_rows += [_blob(rng_id, means[c], spec.spread, spec.id_counts[c])
                for c in range(int(chain), spec.n_classes)]

    unlabeled = EmbeddingMatrix(np.vstack(id_rows + [ood]))
    is_id = np.zeros(unlabeled.count, dtype=bool)
    is_id[: spec.n_id] = True

    labeled = None
    if spec.labeled_per_class > 0:
        rng_lab = _rng(spec.seed, STREAM_LABELED)
        rows = []
        for c in range(spec.n_classes):
            rows.append(_blob(rng_lab, means[c], spec.spread, spec.labeled_per_class))
        labeled = EmbeddingMatrix(np.vstack(rows))

    prototypes = PrototypeSet(EmbeddingMatrix(protos), class_of=np.arange(spec.n_classes))
    return SynthDataset(prototypes=prototypes, unlabeled=unlabeled, is_id=is_id, labeled=labeled)


def blob_benchmark_spec(seed: int = 0) -> SynthSpec:
    """Frozen easy benchmark: two tight ID blobs, OOD opposite their centroid."""
    return SynthSpec(seed=seed)


def bridge_benchmark_spec(seed: int = 0) -> SynthSpec:
    """Frozen hard benchmark: chain-shaped ID manifold with an OOD branch
    leaving the chain partway along it."""
    return SynthSpec(shape="bridged_chain", id_counts=(24, 20), ood_count=14, seed=seed)
