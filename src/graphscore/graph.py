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
once. Among unlabeled nodes the product is cut into TOP_K_BLOCK x
TOP_K_BLOCK tiles, and a tile is never computed when a spherical-cap bound
(each block's centroid and angular radius, against each row's seeded k-th
similarity, with a rounding margin) shows that none of its entries can
enter a k-best list. A partial last block is only multiplied together with
the block before it, so the result keeps every bit of the full product's.
KNN memory is two TOP_K_BLOCK x n strip products, used in turn, plus a
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
# least similarity margin on each side of the tile-skip test (see _top_k)
SKIP_MARGIN = 1e-6


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
    and frozen on construction. ``knn_tiles`` is the (computed, skipped)
    count of TOP_K_BLOCK x TOP_K_BLOCK tiles of the unlabeled x unlabeled
    similarity product that :func:`build_adjacency` made it from.
    """

    weights: sp.csr_matrix
    partition: NodePartition
    knn_tiles: tuple = (0, 0)

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

    @property
    def summary(self) -> dict:
        """Edge count and KNN tile counts, as the diagnostics report them."""
        computed, skipped = self.knn_tiles
        return {"edges": self.nnz, "knn_tiles": {"computed": computed, "skipped": skipped}}


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


def _tile_plan(u: np.ndarray, k: int):
    """Which TOP_K_BLOCK x TOP_K_BLOCK tiles of ``u @ u.T`` the
    intra-unlabeled top-k must compute, as ``(need, far)``.

    ``need[a, b]`` is False when no entry of tile (a, b) can enter the k-best
    list of its row or of its column, except that strip a needs the block
    before a partial last block whenever it needs that block; ``far[b, q]``
    is True when no row of block b can enter row q's list. The bounds and
    the margin are derived in :func:`_top_k`.
    """
    n, d = u.shape
    starts = np.arange(0, n, TOP_K_BLOCK)
    nb = starts.size
    need, far = np.ones((nb, nb), dtype=bool), np.zeros((nb, n), dtype=bool)
    if nb < 2:
        return need, far
    # one pass over each block while it is in cache: its sum and its squared norms
    centers, squares = np.empty((nb, d)), np.empty(n)
    for b, lo in enumerate(starts):
        rows = u[lo:lo + TOP_K_BLOCK]
        rows.sum(axis=0, out=centers[b])
        np.einsum("ij,ij->i", rows, rows, out=squares[lo:lo + TOP_K_BLOCK])
    # worst-case error of one cosine between rows this close to unit norm
    delta = 4 * (d + 2) * 2.0 ** -53
    if np.abs(squares - 1.0).max() > delta / 2:
        return need, far
    margin = max(SKIP_MARGIN, 2 * np.sqrt(2 * delta) + 2 * delta)
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    # a zero centroid stays zero: every angle to it is pi/2, which rules out nothing
    centers /= np.where(norms > 0, norms, 1.0)
    # angle of every row (column) to every centroid (row)
    theta = np.arccos(np.clip(centers @ u.T, -1.0, 1.0))
    own = theta[np.arange(n) // TOP_K_BLOCK, np.arange(n)]
    radius = np.maximum.reduceat(own, starts)
    seed = np.full(n, -np.inf)
    for lo in starts:
        ang = own[lo:lo + TOP_K_BLOCK]
        if ang.size > k:
            # the k-th smallest angle among the block's other members
            low = np.partition(ang, (k - 1, k))
            kth = np.where(ang <= low[k - 1], low[k], low[k - 1])
            seed[lo:lo + TOP_K_BLOCK] = np.cos(np.minimum(np.pi, ang + kth))
    bound = np.cos(np.maximum(0.0, theta - radius[:, None]))
    far = bound + margin < seed - margin
    # all_far[b, a]: every row of block a is far from block b
    all_far = np.logical_and.reduceat(far, starts, axis=1)
    need = ~(all_far & all_far.T)
    np.fill_diagonal(need, True)
    if n % TOP_K_BLOCK:
        # a partial last block joins the run of the block before it: alone,
        # its narrow product would round differently from the whole strip's
        need[:-1, -2] |= need[:-1, -1]
    return need, far


def _top_k(queries: np.ndarray, corpus: np.ndarray, k: int, exclude_self: bool):
    """The k most similar corpus rows per query, ordered by (-sim, index),
    and the ``(computed, skipped)`` count of TOP_K_BLOCK x TOP_K_BLOCK tiles.

    Queries run in strips of TOP_K_BLOCK rows whose candidates merge into a
    running (n_q, k) best list. With ``exclude_self`` (queries is corpus, of
    unit rows) no row selects itself, and strip a's product covers its own
    block and the later blocks b whose tile (a, b) is needed, in contiguous
    column runs written straight into the strip buffer. The columns past the
    strip, transposed, give each later row its candidates among the strip's
    rows, so sim(i, j) and sim(j, i) are one value.

    A tile is skipped when a spherical-cap bound shows that none of its
    entries can enter any list. Block b (rows of one strip) has unit centroid
    mu_b and angular radius r_b, the largest angle from mu_b to a member;
    one ``M @ u.T`` gives every row's angle to every centroid. By the
    triangle inequality on the sphere,

    * sim(q, j) <= cos(max(0, angle(q, mu_b) - r_b)) for every j in b, and
    * sim(q, j) >= cos(theta_q + theta_j), theta being the angle to the
      row's own centroid,

    so row q's final k-th similarity is at least its seed
    cos(theta_q + theta_(k)), with theta_(k) the k-th smallest centroid angle
    among the other members of q's block (no seed when the block has at most
    k rows). Tile (a, b) is skipped when bound + margin < seed - margin holds
    for every row of a toward b and for every row of b toward a; a skipped
    entry then lies strictly below the k-th value of both its rows, ties
    included. In a needed tile, a later row whose bound toward the strip lies
    below its seed is left out of the column-side selection.

    The margin covers rounding. With delta = 4(d + 2) 2^-53 at dim d, rows
    count as unit when each computed squared norm lies within delta / 2 of
    1 (rows from ``store.unit_rows`` lie within about 12 2^-53 at d = 512);
    rows further off skip nothing. A computed cosine between such a row and
    a normalized centroid is then off by at most delta: Higham's gamma_d for
    the product plus both norms' slack. arccos magnifies that near 1, where
    an angle is off by up to sqrt(2 delta) (1.5e-8 rad for one ulp, 6.8e-7
    at d = 512 in the worst case), and each side of the test adds or
    subtracts two such angles. So each side takes
    max(1e-6, 2 sqrt(2 delta) + 2 delta) (1.35e-6 at d = 512), which also
    covers the product's own error in the compared similarities.

    Strip products alternate between two flat TOP_K_BLOCK x n buffers; a
    strip with skipped tiles fills a prefix, and no copy of ``u`` is taken.
    With more than one strip, one worker thread, alive only for this call,
    computes strip s + 1's product while the calling thread selects and
    merges strip s; numpy releases the GIL in both stages, so they overlap
    on a second core when BLAS runs on one thread. Selection and merge run
    in chunks of SELECT_ROWS rows, on both sides of a tile, through one
    SELECT_ROWS x n scratch pair. Column runs start on the TOP_K_BLOCK grid
    and a partial last block is never a run of its own, which leaves every
    entry's bits as in the whole strip product; every product has the same
    shape and operands whichever thread runs it, and merges run in strip
    order with columns ascending, so the result depends on neither the
    overlap nor the skipping.
    """
    n_q, n_c = queries.shape[0], corpus.shape[0]
    # sentinel entries sort after every real candidate
    idx, sim = np.full((n_q, k), n_c), np.full((n_q, k), -np.inf)
    starts = range(0, n_q, TOP_K_BLOCK)
    if exclude_self:
        need, far = _tile_plan(queries, k)
        computed = int(need[np.triu_indices(len(starts))].sum())
        tiles = (computed, len(starts) * (len(starts) + 1) // 2 - computed)
    else:
        tiles = (len(starts) * len(range(0, n_c, TOP_K_BLOCK)), 0)
    prods = [np.empty(min(TOP_K_BLOCK, n_q) * n_c) for _ in starts[:2]]
    size = min(SELECT_ROWS, n_q) * n_c
    part, reach = np.empty(size), np.empty(size, dtype=bool)

    def runs(s):
        # ascending (first, stop) corpus row ranges of strip s's product
        if not exclude_self:
            return [(0, n_c)]
        out = []
        for b in np.flatnonzero(need[s, s:]) + s:
            first, stop = b * TOP_K_BLOCK, min((b + 1) * TOP_K_BLOCK, n_c)
            if out and out[-1][1] == first:
                first = out.pop()[0]
            out.append((first, stop))
        return out

    def product(s, buf):
        lo = starts[s]
        hi = min(lo + TOP_K_BLOCK, n_q)
        spans = runs(s)
        tile = buf[:(hi - lo) * sum(stop - first for first, stop in spans)].reshape(hi - lo, -1)
        at = 0
        for first, stop in spans:
            np.matmul(queries[lo:hi], corpus[first:stop].T, out=tile[:, at:at + stop - first])
            at += stop - first
        if exclude_self:
            np.fill_diagonal(tile, -np.inf)  # each row's own column
        return tile

    def merge(block, k_sel, rows, cols, pos=None):
        # the first k of list row rows[i] and its k_sel best in block row
        # pos[i] (row i without ``pos``), block column c being corpus row
        # cols[c]; strips run in order, so a list holds only lower indices
        # than the new candidates and a stable sort by -sim keeps the index
        # order
        for c in range(0, rows.size, SELECT_ROWS):
            at = rows[c:c + SELECT_ROWS]
            if at[-1] - at[0] == at.size - 1:  # consecutive rows: a view, not a gather
                at = slice(at[0], at[-1] + 1)
            chunk = block[c:c + SELECT_ROWS] if pos is None else block[pos[c:c + SELECT_ROWS]]
            scratch = (buf[:chunk.size].reshape(chunk.shape) for buf in (part, reach))
            cand, vals = _select_block(chunk, k_sel, *scratch)
            all_idx = np.concatenate([idx[at], cols[cand]], axis=1)
            all_sim = np.concatenate([sim[at], vals], axis=1)
            order = np.argsort(-all_sim, axis=1, kind="stable")[:, :k]
            idx[at], sim[at] = (np.take_along_axis(a, order, axis=1)
                                for a in (all_idx, all_sim))

    def select(s, tile):
        m, width = tile.shape
        strip = np.arange(starts[s], starts[s] + m)
        cols = np.concatenate([np.arange(first, stop) for first, stop in runs(s)])
        if exclude_self and width > m:
            later = cols[m:]
            keep = np.flatnonzero(~far[s, later])
            merge(tile[:, m:].T, min(k, m), later[keep], strip,
                  None if keep.size == later.size else keep)
        if width > exclude_self:
            merge(tile, min(k, width - exclude_self), strip, cols)

    # the worker thread starts with the first submit, so one strip starts none
    with ThreadPoolExecutor(max_workers=1) as pool:
        tile = product(0, prods[0])
        for s in range(len(starts) - 1):
            # the other buffer: its strip's selection has finished
            pending = pool.submit(product, s + 1, prods[(s + 1) % 2])
            select(s, tile)
            tile = pending.result()
        select(len(starts) - 1, tile)
    return idx, sim, tiles


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
            return (0, 0)
        idx, s, tiles = _top_k(queries, unlab, k_eff, exclude_self)
        qi = np.repeat(np.arange(queries.shape[0]), k_eff) + offset
        rows.append(qi)
        cols.append(idx.ravel() + off_u)
        sims.append(s.ravel())
        return tiles

    add_block(proto, 0, _clamp_k(k, part.n_unlabeled, "unlabeled"), False)
    if part.n_labeled:
        add_block(lab, part.n_proto, _clamp_k(k, part.n_unlabeled, "unlabeled"), False)
    tiles = add_block(unlab, off_u, _clamp_k(k, part.n_unlabeled - 1, "intra-unlabeled"), True)

    r, c, s = (np.concatenate(parts) for parts in (rows, cols, sims))
    keep = s > 0.0
    n = part.n_total
    directed = sp.csr_matrix((s[keep], (r[keep], c[keep])), shape=(n, n))
    return BlockAdjacency(directed.maximum(directed.T), part, tiles)


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
                          adj.partition, adj.knn_tiles)
