"""Blockwise KNN adjacency over [prototypes | labeled | unlabeled] nodes.

The graph has a fixed block structure: prototypes and labeled samples carry
identity self-loops and are never connected to each other; prototypes and
labeled samples each connect to their k nearest unlabeled samples; unlabeled
samples connect to their k nearest other unlabeled samples. Edge weights are
clamped cosine similarities and the result is symmetrized by elementwise
max. The graph is one CSR matrix of those weights; on unit vectors the L2
distance between an edge's endpoints is derived from its weight s as
sqrt(2 - 2s) (used by the shortest-path baseline).

Each node's k nearest neighbors are ordered by (-similarity, index): equal
similarities go to the lower index. Similarities come from TOP_K_BLOCK-row
query strips, and each pair of unlabeled nodes has its similarity computed
once. KNN memory is two TOP_K_BLOCK x n strip products, used in turn, plus a
SELECT_ROWS x n selection copy and mask. When a query block spans several
strips, a worker thread that lives only for that call computes the next
strip's product while the calling thread selects from the current one. The
overlap uses a second core when BLAS runs on one thread, and moves no bit.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .prompts import PrototypeSet
from .store import EmbeddingMatrix, _lock

# degrees are floored before inversion so isolated nodes do not divide by zero
DEGREE_FLOOR = 1e-12
# query rows per similarity strip
TOP_K_BLOCK = 512
# rows per selection and merge chunk of a strip
SELECT_ROWS = 128


@dataclass(frozen=True)
class NodePartition:
    """Sizes of the three contiguous node segments, in fixed order
    prototypes, labeled, unlabeled."""

    n_proto: int
    n_labeled: int
    n_unlabeled: int

    def __post_init__(self):
        if self.n_proto < 1:
            raise ValueError("need at least one prototype node")
        if self.n_unlabeled < 1:
            raise ValueError("need at least one unlabeled node")
        if self.n_labeled < 0:
            raise ValueError("n_labeled must be >= 0")

    @property
    def n_total(self) -> int:
        return self.n_proto + self.n_labeled + self.n_unlabeled

    @property
    def unlabeled_slice(self) -> slice:
        return slice(self.n_proto + self.n_labeled, self.n_total)

    @property
    def unlabeled_offset(self) -> int:
        return self.n_proto + self.n_labeled


@dataclass(frozen=True)
class BlockAdjacency:
    """Symmetric weighted graph over the partition's nodes.

    ``weights`` is one canonical CSR matrix (sorted indices, no duplicate
    entries) holding both directions of every edge; its arrays are copied
    and frozen on construction.
    """

    weights: sp.csr_matrix
    partition: NodePartition

    def __post_init__(self):
        n = self.partition.n_total
        weights = sp.csr_matrix(self.weights, dtype=np.float64, copy=True)
        if weights.shape != (n, n):
            raise ValueError(f"weights shape {weights.shape} does not match partition total {n}")
        weights.sum_duplicates()
        if (weights.data < 0).any():
            raise ValueError("negative edge weight")
        for arr in (weights.data, weights.indices, weights.indptr):
            _lock(arr)
        object.__setattr__(self, "weights", weights)

    @property
    def nnz(self) -> int:
        return self.weights.nnz


def _select_block(block: np.ndarray, k: int, part: np.ndarray, reach: np.ndarray):
    """Column indices, ascending, and values of the k largest entries of each
    row of ``block`` under the (-value, index) order. ``block`` may be a
    strided view; ``part`` and ``reach`` are scratch arrays of its shape
    (float and bool) whose contents are overwritten."""
    m, n = block.shape
    np.copyto(part, block)
    # in place: each row's k-th largest value lands in column n - k
    part.partition(n - k, axis=1)
    kth = part[:, n - k:n - k + 1]
    np.greater_equal(block, kth, out=reach)
    flat = np.flatnonzero(reach)
    if flat.size > m * k:
        # more than k entries reach the k-th value in some rows: keep those
        # strictly above it, then the lowest-index ones equal to it
        tied = np.flatnonzero(np.bincount(flat // n, minlength=m) > k)
        above = reach[tied] & (block[tied] > kth[tied])
        equal = reach[tied] & ~above
        need = k - above.sum(axis=1, keepdims=True)
        reach[tied] = above | (equal & (np.cumsum(equal, axis=1) <= need))
        flat = np.flatnonzero(reach)
    # exactly k entries per row now, in ascending column order
    cand = (flat % n).reshape(m, k)
    return cand, np.take_along_axis(block, cand, axis=1)


def _top_k(queries: np.ndarray, corpus: np.ndarray, k: int, exclude_self: bool):
    """The k most similar corpus rows per query, ordered by (-sim, index).

    Queries run in strips of TOP_K_BLOCK rows whose candidates merge into a
    running (n_q, k) best list. With ``exclude_self`` (queries is corpus) no
    row selects itself, and a strip computes only its upper trapezoid
    ``u[lo:hi] @ u[lo:].T``, whose columns past the strip, transposed, give
    each later row its candidates among the strip's rows, so sim(i, j) and
    sim(j, i) are one value.

    Strip products alternate between two flat TOP_K_BLOCK x n buffers. With
    more than one strip, one worker thread, alive only for this call,
    computes strip s + 1's product while the calling thread selects and
    merges strip s; numpy releases the GIL in both stages, so they overlap
    on a second core when BLAS runs on one thread. Selection and merge run
    in chunks of SELECT_ROWS rows, on both sides of a tile, through one
    SELECT_ROWS x n scratch pair. Every product has the same shape and
    operands whichever thread runs it, and merges run in strip order, so
    the result does not depend on the overlap.
    """
    n_q, n_c = queries.shape[0], corpus.shape[0]
    # sentinel entries sort after every real candidate
    idx, sim = np.full((n_q, k), n_c), np.full((n_q, k), -np.inf)
    starts = range(0, n_q, TOP_K_BLOCK)
    prods = [np.empty(min(TOP_K_BLOCK, n_q) * n_c) for _ in starts[:2]]
    size = min(SELECT_ROWS, n_q) * n_c
    part, reach = np.empty(size), np.empty(size, dtype=bool)

    def product(lo, buf):
        hi = min(lo + TOP_K_BLOCK, n_q)
        first = lo if exclude_self else 0
        tile = buf[:(hi - lo) * (n_c - first)].reshape(hi - lo, n_c - first)
        np.matmul(queries[lo:hi], corpus[first:].T, out=tile)
        if exclude_self:
            np.fill_diagonal(tile, -np.inf)  # each row's own column
        return tile

    def merge(block, k_sel, row0, offset):
        # the first k of each row's list and its k_sel best in ``block``,
        # whose rows are list rows row0, row0 + 1, ...; strips run in order,
        # so a list holds only lower indices than the new candidates and a
        # stable sort by -sim keeps the index order
        for c in range(0, block.shape[0], SELECT_ROWS):
            chunk = block[c:c + SELECT_ROWS]
            rows = slice(row0 + c, row0 + c + chunk.shape[0])
            scratch = (buf[:chunk.size].reshape(chunk.shape) for buf in (part, reach))
            cand, vals = _select_block(chunk, k_sel, *scratch)
            all_idx = np.concatenate([idx[rows], cand + offset], axis=1)
            all_sim = np.concatenate([sim[rows], vals], axis=1)
            order = np.argsort(-all_sim, axis=1, kind="stable")[:, :k]
            idx[rows], sim[rows] = (np.take_along_axis(a, order, axis=1)
                                    for a in (all_idx, all_sim))

    def select(lo, tile):
        hi = lo + tile.shape[0]
        first = lo if exclude_self else 0
        if exclude_self and hi < n_q:
            merge(tile[:, hi - lo:].T, min(k, hi - lo), hi, lo)
        if n_c - first > exclude_self:
            merge(tile, min(k, n_c - first - exclude_self), lo, first)

    # the worker thread starts with the first submit, so one strip starts none
    with ThreadPoolExecutor(max_workers=1) as pool:
        tile = product(0, prods[0])
        for s, lo in enumerate(starts[:-1]):
            # the other buffer: its strip's selection has finished
            pending = pool.submit(product, starts[s + 1], prods[(s + 1) % 2])
            select(lo, tile)
            tile = pending.result()
        select(starts[-1], tile)
    return idx, sim


def _clamp_k(k: int, available: int, what: str) -> int:
    if available < 1:
        return 0
    if k > available:
        warnings.warn(f"k={k} exceeds available {what} neighbors ({available}); clamping",
                      stacklevel=3)
        return available
    return k


def build_adjacency(prototypes: PrototypeSet, labeled, unlabeled: EmbeddingMatrix,
                    k: int = 10) -> BlockAdjacency:
    """Construct the blockwise KNN graph.

    ``labeled`` may be None (zero-shot). Edge weight is
    max(cosine similarity, 0); zero-weight edges are dropped. The directed
    KNN edges are symmetrized by elementwise max, and identity self-loops
    are placed on the prototype and labeled diagonal.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    proto = prototypes.vectors.data
    unlab = unlabeled.data
    lab = labeled.data if labeled is not None else np.zeros((0, unlabeled.dim))
    if proto.shape[1] != unlab.shape[1] or lab.shape[1] != unlab.shape[1]:
        raise ValueError("prototypes, labeled, and unlabeled must share dim")
    part = NodePartition(proto.shape[0], lab.shape[0], unlab.shape[0])
    off_u = part.unlabeled_offset

    # identity diagonal on prototype and labeled segments
    diag = np.arange(off_u)
    rows, cols, sims = [diag], [diag], [np.ones(off_u)]

    def add_block(queries, offset, k_eff, exclude_self):
        if k_eff < 1:
            return
        idx, s = _top_k(queries, unlab, k_eff, exclude_self)
        qi = np.repeat(np.arange(queries.shape[0]), k_eff) + offset
        rows.append(qi)
        cols.append(idx.ravel() + off_u)
        sims.append(s.ravel())

    add_block(proto, 0, _clamp_k(k, part.n_unlabeled, "unlabeled"), False)
    if part.n_labeled:
        add_block(lab, part.n_proto, _clamp_k(k, part.n_unlabeled, "unlabeled"), False)
    add_block(unlab, off_u, _clamp_k(k, part.n_unlabeled - 1, "intra-unlabeled"), True)

    r, c, s = (np.concatenate(parts) for parts in (rows, cols, sims))
    keep = s > 0.0
    n = part.n_total
    directed = sp.csr_matrix((s[keep], (r[keep], c[keep])), shape=(n, n))
    return BlockAdjacency(directed.maximum(directed.T), part)


def normalize(adj: BlockAdjacency) -> BlockAdjacency:
    """Symmetric normalization: weight(i,j) / sqrt(deg_i * deg_j), with the
    degree vector floored at DEGREE_FLOOR before inversion. The result has
    the same edges as ``adj``, with scaled weights."""
    w = adj.weights
    n = adj.partition.n_total
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    degree = np.zeros(n)
    np.add.at(degree, rows, w.data)
    degree = np.maximum(degree, DEGREE_FLOOR)
    inv_sqrt = 1.0 / np.sqrt(degree)
    # the two factors multiply first so (i,j) and (j,i) round identically
    scaled = w.data * (inv_sqrt[rows] * inv_sqrt[w.indices])
    return BlockAdjacency(sp.csr_matrix((scaled, w.indices, w.indptr), shape=w.shape),
                          adj.partition)
