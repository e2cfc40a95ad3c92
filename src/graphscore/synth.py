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

_SHAPES = ("gaussian_blobs", "bridged_chain")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic dataset.

    ``id_counts`` gives the per-class unlabeled ID sample counts; class
    means default to the first standard basis vectors (the chain shape uses
    the e0-e1 plane for its arc, so blob classes start at e2). Angles are
    degrees, spreads are radians of tangent noise.
    """

    dim: int = 16
    shape: str = "gaussian_blobs"
    id_counts: tuple = (50, 50)
    ood_count: int = 100
    spread: float = 0.08
    proto_jitter: float = 0.02
    labeled_per_class: int = 0
    seed: int = 0
    chain_extent_deg: float = 100.0
    branch_deg: float = 70.0
    branch_gap_deg: float = 8.0
    ood_extent_deg: float = 45.0
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


def _rng(seed: int, stream: int) -> np.random.Generator:
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


def _arc_points(rng, dim: int, angles_deg: np.ndarray, noise: float) -> np.ndarray:
    """Points along the great circle through e0 and e1 at the given angles."""
    theta = np.radians(angles_deg)
    base = np.zeros((theta.size, dim))
    base[:, 0] = np.cos(theta)
    base[:, 1] = np.sin(theta)
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


def _branch_points(rng, dim: int, branch_deg: float, angles_deg: np.ndarray,
                   noise: float) -> np.ndarray:
    """Points on the great circle leaving the chain at ``branch_deg`` and
    bending out of the chain plane toward e2."""
    base_dir = np.zeros(dim)
    base_dir[0] = math.cos(math.radians(branch_deg))
    base_dir[1] = math.sin(math.radians(branch_deg))
    out_dir = np.zeros(dim)
    out_dir[2] = 1.0
    phi = np.radians(angles_deg)
    base = np.cos(phi)[:, None] * base_dir + np.sin(phi)[:, None] * out_dir
    return _tangent_sample(rng, base, noise)


def generate(spec: SynthSpec) -> SynthDataset:
    """Generate a dataset: prototypes, unlabeled samples (ID first, then
    OOD), ID flags, and optionally labeled samples, ``labeled_per_class``
    rows per class in class order."""
    means = _class_means(spec)
    rng_proto = _rng(spec.seed, STREAM_PROTO)
    rng_id = _rng(spec.seed, STREAM_ID)
    rng_ood = _rng(spec.seed, STREAM_OOD)

    protos = _tangent_sample(rng_proto, means, spec.proto_jitter)

    id_rows = []
    if spec.shape == "gaussian_blobs":
        for c, n in enumerate(spec.id_counts):
            id_rows.append(_blob(rng_id, means[c], spec.spread, n))
        ood_mean = _unit(-means.sum(axis=0))
        ood = _blob(rng_ood, ood_mean, spec.spread, spec.ood_count)
    else:
        angles = _arc_angles(rng_id, 0.0, spec.chain_extent_deg, spec.id_counts[0])
        id_rows.append(_arc_points(rng_id, spec.dim, angles, spec.chain_noise))
        for c in range(1, spec.n_classes):
            id_rows.append(_blob(rng_id, means[c], spec.spread, spec.id_counts[c]))
        lo = spec.branch_gap_deg
        ood_angles = _arc_angles(rng_ood, lo, lo + spec.ood_extent_deg, spec.ood_count)
        ood = _branch_points(rng_ood, spec.dim, spec.branch_deg, ood_angles,
                             spec.chain_noise)

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

    prototypes = PrototypeSet(
        vectors=EmbeddingMatrix(protos),
        class_of=np.arange(spec.n_classes, dtype=np.int64),
        clusters_per_class=1,
    )
    return SynthDataset(
        prototypes=prototypes,
        unlabeled=unlabeled,
        is_id=is_id,
        labeled=labeled,
    )


def blob_benchmark_spec(seed: int = 0) -> SynthSpec:
    """Frozen easy benchmark: two tight ID blobs, OOD opposite their centroid."""
    return SynthSpec(
        dim=16,
        shape="gaussian_blobs",
        id_counts=(50, 50),
        ood_count=100,
        spread=0.08,
        seed=seed,
    )


def bridge_benchmark_spec(seed: int = 0) -> SynthSpec:
    """Frozen hard benchmark: chain-shaped ID manifold with an OOD branch
    leaving the chain partway along it."""
    return SynthSpec(
        dim=16,
        shape="bridged_chain",
        id_counts=(24, 20),
        ood_count=14,
        spread=0.08,
        proto_jitter=0.02,
        seed=seed,
        chain_extent_deg=100.0,
        branch_deg=70.0,
        branch_gap_deg=8.0,
        ood_extent_deg=45.0,
        chain_noise=0.05,
    )
