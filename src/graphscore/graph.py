"""Blockwise KNN adjacency over [prototypes | labeled | unlabeled] nodes.

The graph has a fixed block structure: prototypes and labeled samples carry
identity self-loops and are never connected to each other; prototypes and
labeled samples each connect to their k nearest unlabeled samples; unlabeled
samples connect to their k nearest other unlabeled samples. Edge weights are
clamped cosine similarities and the result is symmetrized by elementwise
max. The graph is one CSR matrix of those weights in three numpy arrays;
on unit vectors the L2 distance between an edge's endpoints is derived
from its weight s as sqrt(2 - 2s) (used by the shortest-path baseline).

Each node's k nearest neighbors are ordered by (-similarity, index): equal
similarities go to the lower index. Similarities come from TOP_K_BLOCK-row
query strips. A prototype or labeled strip is one product as wide as the
unlabeled corpus, selected densely. Among unlabeled nodes each pair's
similarity is computed once, in grid-aligned column pieces that keep the
strip product's bits; the diagonal pieces, each run by the task that owns
its rows, set each row's running k-th, later pieces are compared against it
and only survivors merged, and a tile that a spherical-cap bound puts below
it is skipped. Two threads share strips and pieces; neither moves a bit.
"""

import copy
import threading
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .prompts import PrototypeSet
from .store import EmbeddingMatrix, _lock, share

# degrees are floored before inversion so isolated nodes do not divide by zero
DEGREE_FLOOR = 1e-12
# query rows per similarity strip
TOP_K_BLOCK = 512
# rows per partition chunk of a dense selection
SELECT_ROWS = 128
# least similarity margin of the tile-skip test (see _top_k)
SKIP_MARGIN = 1e-6

# freeing a block glibc mapped raises its mmap threshold to the block's size and its trim threshold
# to twice that: after this 8 MiB block, small calls reuse heap pages instead of faulting new ones
np.empty(1 << 20)


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

    One canonical CSR matrix (``indptr``, ``indices``, ``data``) of both
    directions of every edge; intp and float64 arrays are adopted and frozen,
    others copied. ``rows``, each entry's row, is made once: leave it unset.
    ``report`` holds what :func:`build_adjacency` measured: the computed and
    skipped count of TOP_K_BLOCK x TOP_K_BLOCK tiles of the unlabeled x
    unlabeled product in ``knn_tiles``, the k each clamped block got in
    ``k_clamps`` and the most strip or piece buffer and scratch bytes one
    search held in ``knn_scratch_bytes``; a hand-built graph's is empty.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    partition: NodePartition
    report: dict = field(default_factory=dict)
    rows: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("indptr", np.intp), ("indices", np.intp), ("data", np.float64)):
            object.__setattr__(self, name, _lock(np.asarray(getattr(self, name), dtype=dtype)))
        ptr, cols, n = self.indptr, self.indices, self.partition.n_total
        if (self.data < 0).any():
            raise ValueError("negative edge weight")
        if self.rows is None:  # a new structure: check it, then index each entry's row
            if (ptr.shape != (n + 1,) or ptr[0] != 0 or (np.diff(ptr) < 0).any()
                    or not ptr[-1] == cols.size == self.data.size):
                raise ValueError(f"indptr does not match partition total {n}")
            rows = np.repeat(np.arange(n), np.diff(ptr))
            if (np.diff(rows * n + cols) <= 0).any() or not ((0 <= cols) & (cols < n)).all():
                raise ValueError("columns must lie in [0, n) and ascend within each row")
            object.__setattr__(self, "rows", _lock(rows))

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def summary(self) -> dict:
        """Edge count and a copy of ``report``, as the diagnostics report them."""
        return {"edges": self.nnz, **copy.deepcopy(self.report)}


def product(adj: BlockAdjacency, x: np.ndarray) -> np.ndarray:
    """W @ x with scipy's bits: each row's terms summed in column order from +0.0."""
    return np.bincount(adj.rows, weights=adj.data * x[adj.indices], minlength=x.size)


def _select_block(block: np.ndarray, k: int, part: np.ndarray, reach: np.ndarray):
    """Column indices and values of the k largest entries of each row of
    ``block`` under the (-value, index) order, in that order. ``block`` may
    be a strided view; ``part`` is flat float scratch of at least one row
    and ``reach`` bool scratch of the block's shape, both overwritten."""
    m, n = block.shape
    kth, step = np.empty((m, 1)), part.size // n
    for lo in range(0, m, step):
        rows = part[:min(step, m - lo) * n].reshape(-1, n)
        np.copyto(rows, block[lo:lo + step])
        # in place: each row's k-th largest value lands in column n - k
        rows.partition(n - k, axis=1)
        kth[lo:lo + step] = rows[:, n - k:n - k + 1]
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
    # exactly k entries per row now, columns ascending, which a stable sort keeps among ties
    cand = (flat % n).reshape(m, k)
    vals = np.take_along_axis(block, cand, axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _tile_plan(u: np.ndarray, kth: np.ndarray) -> np.ndarray:
    """Which TOP_K_BLOCK x TOP_K_BLOCK tiles of ``u @ u.T`` the
    intra-unlabeled top-k must compute, given each row's running k-th
    similarity ``kth``. ``need[a, b]`` is False when no entry of tile (a, b)
    can enter the k-best list of its row or of its column; a partial last
    block is glued to the block before it (see :func:`_top_k`). Angles are
    taken one block of rows at a time, so the plan holds O(nb (d +
    TOP_K_BLOCK)) floats for nb blocks.
    """
    n, d = u.shape
    starts = np.arange(0, n, TOP_K_BLOCK)
    nb = starts.size
    need = np.ones((nb, nb), dtype=bool)
    if n < 2 * TOP_K_BLOCK:  # one full block: no tile to plan
        return need
    # one pass over each block while it is in cache: its sum (as a product
    # with ones, a few times faster than sum(axis=0)) and its squared norms
    centers, ones = np.empty((nb, d)), np.ones(TOP_K_BLOCK)
    # worst-case error of one cosine between rows this close to unit norm
    delta = 4 * (d + 2) * 2.0 ** -53
    for b, lo in enumerate(starts):
        rows = u[lo:lo + TOP_K_BLOCK]
        np.dot(ones[:rows.shape[0]], rows, out=centers[b])
        if np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0).max() > delta / 2:
            return need
    margin = max(SKIP_MARGIN, 2 * np.sqrt(2 * delta) + 2 * delta)
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    # a zero centroid stays zero: every angle to it is pi/2, which rules out nothing
    centers /= np.where(norms > 0, norms, 1.0)
    # bound + margin < kth, that is cos(max(0, theta - radius)) < kth - margin,
    # holds exactly when theta - arccos(kth - margin) > radius: so each block
    # of rows reduces its angles to every centroid (row) to their least
    # excess over arccos(kth - margin), and gives its own radius, the
    # largest angle from its centroid to a member
    excess, radius = np.empty((nb, nb)), np.empty(nb)
    buf = np.empty(nb * TOP_K_BLOCK)
    for a, lo in enumerate(starts):
        rows = u[lo:lo + TOP_K_BLOCK]
        theta = np.matmul(centers, rows.T, out=buf[:nb * rows.shape[0]].reshape(nb, -1))
        np.arccos(np.clip(theta, -1.0, 1.0, out=theta), out=theta)
        radius[a] = theta[a].max()
        theta -= np.arccos(np.clip(kth[lo:lo + TOP_K_BLOCK] - margin, -1.0, 1.0))
        theta.min(axis=1, out=excess[:, a])
    # all_far[b, a]: no row of block a can take a member of block b
    all_far = excess > radius[:, None]
    need = ~(all_far & all_far.T)
    np.fill_diagonal(need, True)
    if n % TOP_K_BLOCK:  # the partial last block is glued to the block before it
        need[-2, -1] = True  # inside that block's diagonal piece
        need[:-1, -2] |= need[:-1, -1]
    return need


def _nearest(queries: np.ndarray, corpus: np.ndarray, k: int):
    """The k most similar corpus rows per query, ordered by (-sim, index),
    and the bytes of strip buffers and scratch the call held.

    Each TOP_K_BLOCK-row query strip is one product as wide as the corpus,
    selected densely by :func:`_select_block`, as BLAS may round a column
    block of a few rows differently from the whole product (2-row strips at
    d = 512 do). :func:`share` runs the strips; each thread holds a strip
    buffer and mask, 9 bytes per entry, and a selection copy.
    """
    n_q, n_c = queries.shape[0], corpus.shape[0]
    idx, sim = np.empty((n_q, k), dtype=np.int64), np.empty((n_q, k))

    def strip(lo, buf, part, mask):
        hi = min(lo + TOP_K_BLOCK, n_q)
        block = np.matmul(queries[lo:hi], corpus.T, out=buf[:(hi - lo) * n_c].reshape(hi - lo, -1))
        reach = mask[:block.size].reshape(block.shape)
        idx[lo:hi], sim[lo:hi] = _select_block(block, k, part, reach)

    size = min(TOP_K_BLOCK, n_q) * n_c
    # _select_block copies whole rows: fewer than n_c floats would hold none
    select = max(min(SELECT_ROWS, n_q) * min(TOP_K_BLOCK, n_c), n_c)
    bufs = [(np.empty(size), np.empty(select), np.empty(size, dtype=bool))
            for _ in range(1 + (n_q > TOP_K_BLOCK))]
    share(range(0, n_q, TOP_K_BLOCK), strip, bufs)
    return idx, sim, sum(x.nbytes for triple in bufs for x in triple)


def _top_k(u: np.ndarray, k: int):
    """For each of the unit rows ``u``, its k most similar other rows in the
    (-sim, index) order; the ``(computed, skipped)`` count of TOP_K_BLOCK x
    TOP_K_BLOCK tiles; and the bytes of buffers and scratch the call held.

    A piece is one TOP_K_BLOCK-row strip times a column block of the upper
    triangle, on the TOP_K_BLOCK grid with a partial last block glued to the
    block before it, which keeps every entry's bits; no row selects itself.
    The diagonal pieces run first: :func:`_select_block` takes each strip's
    own block densely and sets every row's running k-th similarity.
    The rest of every piece is compared once, in its own layout, against
    that running k-th, and only entries at or above it are merged into the
    (n, k) lists. The k-th only rises, so an entry below it never enters
    its list, and each merge keeps the exact k best of a list and its
    candidates in the (-sim, index) order: the result depends neither on
    the merge order nor on how stale a compared k-th was.

    Piece (a, b), b > a, is also compared against the running k-th of
    block b's rows (``P >= kth[cols][None, :]``), so sim(i, j) and
    sim(j, i) are one value, and is skipped when a spherical-cap bound
    shows that none of its entries can enter a list. Block b has unit
    centroid mu_b and angular radius r_b, the largest angle from mu_b to a
    member, and sim(q, j) <= cos(max(0, angle(q, mu_b) - r_b)) for every j
    in b by the triangle inequality on the sphere. Row q's running k-th
    kth_q after the diagonal pieces is one of the computed values in its
    list, so its final k-th is at least kth_q, bit for bit. Tile (a, b) is skipped when
    bound + margin < kth_q holds for every row of a toward b and every row
    of b toward a; a skipped entry then lies strictly below the k-th value
    of both its rows, ties included.

    The margin covers rounding of the bound alone, since kth_q is exact.
    With delta = 4(d + 2) 2^-53 at dim d, rows count as unit when each
    computed squared norm lies within delta / 2 of 1 (others skip nothing).
    A computed cosine between such a row and a normalized centroid is then
    off by at most delta (Higham's gamma_d plus both norms' slack), which
    arccos magnifies near 1 to an angle error of up to sqrt(2 delta), and
    the bound takes two angles. So the margin is max(1e-6, 2 sqrt(2 delta)
    + 2 delta) (1.35e-6 at d = 512), which also covers the product's error
    in the compared entry. :func:`_tile_plan` tests the same inequality in
    angles, angle(q, mu_b) - arccos(kth_q - margin) > r_b, as cos falls on
    [0, pi]; rounding kth_q - margin and its arccos moves the test by less
    than delta in cosine, as rounding the cos did.

    :func:`share` runs one diagonal task per block, which writes each selection
    into the rows it owns (a glued block's task does the partial last strip
    first), then the surviving tiles; the k-th reads and merges of a glued
    remainder and of the tiles share one lock. Each thread, one below two full
    blocks, holds a piece buffer and mask, 9 bytes per entry of a TOP_K_BLOCK x
    (2 TOP_K_BLOCK - 1) piece at most, and a SELECT_ROWS-row selection copy:
    O(TOP_K_BLOCK^2 + n k).
    """
    n = u.shape[0]
    # sentinel entries sort after every real candidate
    idx, sim = np.full((n, k), n), np.full((n, k), -np.inf)
    n_strips, n_blocks = -(-n // TOP_K_BLOCK), max(1, n // TOP_K_BLOCK)
    lock = threading.Lock()

    def merge(rows, cand, vals):
        # each list row in ``rows`` keeps its k best of itself and its candidates
        with lock:
            at = np.unique(rows)
            r = np.concatenate([np.repeat(at, k), rows])
            i = np.concatenate([idx[at].ravel(), cand])
            s = np.concatenate([sim[at].ravel(), vals])
            # one integer key per entry in the (row, -sim, index) order, the
            # sims by rank (equal sims share one); rows lie within one block
            by_sim = np.argsort(-s)
            rank = np.empty(s.size, dtype=np.int64)
            rank[by_sim] = np.cumsum(np.r_[True, s[by_sim][1:] != s[by_sim][:-1]])
            order = np.argsort(((r - at[0]) * (s.size + 1) + rank) * (n + 1) + i)
            take = order[np.searchsorted(r[order], at)[:, None] + np.arange(k)]
            idx[at], sim[at] = i[take], s[take]

    def piece(ab, buf, part, mask):
        a, b = ab
        lo, first, hi = a * TOP_K_BLOCK, b * TOP_K_BLOCK, min((a + 1) * TOP_K_BLOCK, n)
        stop = n if n - first < 2 * TOP_K_BLOCK else first + TOP_K_BLOCK
        block = np.matmul(u[lo:hi], u[first:stop].T,
                          out=buf[:(hi - lo) * (stop - first)].reshape(hi - lo, -1))
        if a == b:  # the strip's own block, densely
            own = hi - lo
            np.fill_diagonal(block, -np.inf)  # each row's own column
            k_sel = min(k, own - 1)
            if k_sel:
                reach = mask[:own * own].reshape(own, own)
                cand, vals = _select_block(block[:, :own], k_sel, part, reach)
                idx[lo:hi, :k_sel], sim[lo:hi, :k_sel] = cand + first, vals
            block, first = block[:, own:], first + own
        # merge the entries at or above the running k-th of their row, then
        # of their column (rows from lo, columns from first)
        w = block.shape[1]
        hit = mask[:block.size].reshape(block.shape)
        for column_side in (False, True):
            with lock:
                kth = (sim[first:first + w, k - 1] if column_side
                       else sim[lo:hi, k - 1, None]).copy()
            r, c = np.divmod(np.flatnonzero(np.greater_equal(block, kth, out=hit)), w)
            if r.size:
                merge(*((first + c, lo + r) if column_side else (lo + r, first + c)), block[r, c])

    def diagonal(a, *scratch):  # block a's own strip, after the partial last strip glued to it
        for s in range(n_strips - 1 if a == n_blocks - 1 else a, a - 1, -1):
            piece((s, s), *scratch)

    size = min(TOP_K_BLOCK, n) * (n - (n_blocks - 1) * TOP_K_BLOCK)
    bufs = [(np.empty(size), np.empty(min(SELECT_ROWS, n) * min(TOP_K_BLOCK, n)),
             np.empty(size, dtype=bool)) for _ in range(1 + (n_blocks > 1))]
    share(range(n_blocks), diagonal, bufs)
    need = _tile_plan(u, sim[:, k - 1])
    share([(a, b) for a, b in zip(*np.nonzero(np.triu(need, 1))) if b < n_blocks], piece, bufs)
    computed = int(need[np.triu_indices(n_strips)].sum())
    tiles = (computed, n_strips * (n_strips + 1) // 2 - computed)
    return idx, sim, tiles, sum(x.nbytes for triple in bufs for x in triple)


def build_adjacency(prototypes: PrototypeSet, labeled, unlabeled: EmbeddingMatrix,
                    k: int = 10) -> BlockAdjacency:
    """Construct the blockwise KNN graph.

    ``labeled`` may be None (zero-shot). Edge weight is
    max(cosine similarity, 0); zero-weight edges are dropped. The directed
    KNN edges are symmetrized by elementwise max, and identity self-loops
    are placed on the prototype and labeled diagonal. A k above the
    neighbors a block has is clamped with a warning and recorded.
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
    report = {"knn_tiles": {"computed": 0, "skipped": 0}, "k_clamps": {},
              "knn_scratch_bytes": 0}

    def add_block(queries, offset, available, what):
        k_eff = min(k, available)
        if k_eff < k:
            report["k_clamps"][what] = k_eff
            if k_eff:
                warnings.warn(f"k={k} exceeds available {what} neighbors ({available}); "
                              "clamping", stacklevel=3)
        if k_eff < 1:
            return
        if what == "intra-unlabeled":
            idx, s, (computed, skipped), held = _top_k(queries, k_eff)
            report["knn_tiles"] = {"computed": computed, "skipped": skipped}
        else:
            idx, s, held = _nearest(queries, unlab, k_eff)
        report["knn_scratch_bytes"] = max(report["knn_scratch_bytes"], held)
        rows.append(np.repeat(np.arange(queries.shape[0]), k_eff) + offset)
        cols.append(idx.ravel() + off_u)
        sims.append(s.ravel())

    add_block(proto, 0, part.n_unlabeled, "unlabeled")
    if part.n_labeled:
        add_block(lab, part.n_proto, part.n_unlabeled, "unlabeled")
    add_block(unlab, off_u, part.n_unlabeled - 1, "intra-unlabeled")

    r, c, s = (np.concatenate(parts) for parts in (rows, cols, sims))
    keep = np.flatnonzero(s > 0.0)
    return BlockAdjacency(*_symmetric_csr(r[keep], c[keep], s[keep], part.n_total), part, report)


def _symmetric_csr(r, c, s, n):
    """The canonical CSR arrays of max(A, A.T), A[r, c] = s with no pair given
    twice, in scipy's bits: entries and transposes sorted by (row, column) in
    one integer sort, positions packed below; a pair given twice keeps its max."""
    bits, shift = n.bit_length(), (2 * r.size).bit_length()
    if 2 * bits + shift > 63:
        raise ValueError(f"{n} nodes and {r.size} edges overflow the 64-bit sort key")
    key = np.concatenate([r << bits | c, c << bits | r]) << shift | np.arange(2 * r.size)
    key.sort()
    weights = np.concatenate([s, s])[key & ((1 << shift) - 1)]
    key >>= shift
    dup = np.flatnonzero(key[1:] == key[:-1])  # a pair given both ways: equal neighbors
    weights[dup + 1] = np.maximum(weights[dup], weights[dup + 1])
    keep = np.flatnonzero(np.bincount(dup, minlength=key.size) == 0)
    key, weights = key[keep], weights[keep]
    return np.searchsorted(key, np.arange(n + 1) << bits), key & ((1 << bits) - 1), weights


def normalize(adj: BlockAdjacency) -> BlockAdjacency:
    """Symmetric normalization: weight(i,j) / sqrt(deg_i * deg_j), with the
    degree vector floored at DEGREE_FLOOR before inversion. The result has
    the same edges and ``rows`` as ``adj``, with scaled weights."""
    degree = np.maximum(product(adj, np.ones(adj.partition.n_total)), DEGREE_FLOOR)
    inv_sqrt = 1.0 / np.sqrt(degree)
    # the two factors multiply first so (i,j) and (j,i) round identically
    scaled = adj.data * (inv_sqrt[adj.rows] * inv_sqrt[adj.indices])
    return replace(adj, data=scaled)
