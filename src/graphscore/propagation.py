"""Iterative score propagation over the normalized graph.

Scores start at +1 on prototype and labeled nodes and 0 on unlabeled nodes,
then diffuse for a fixed number of iterations with the initial scores
re-injected every step:

    S_t = W_norm @ S_{t-1} + alpha * S_0

After a first pass, the most and least confident unlabeled nodes are
promoted to +1/-1 pseudo prompts, the initial scores are rebuilt, and a
second pass produces the final scores. The graph itself is held fixed
between passes.
"""

import time
from dataclasses import dataclass

import numpy as np

from .graph import BlockAdjacency, NodePartition, normalize
from .store import _lock


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.5
    iterations: int = 5
    m_percent: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.m_percent < 50.0:
            raise ValueError(f"m_percent must be in (0, 50), got {self.m_percent}")


@dataclass(frozen=True)
class ScoreVector:
    """Per-node propagation state, indexed like the node partition."""

    values: np.ndarray
    partition: NodePartition

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1 or values.size != self.partition.n_total:
            raise ValueError(
                f"score vector length {values.size} does not match partition "
                f"total {self.partition.n_total}"
            )
        if not np.isfinite(values).all():
            raise ValueError("score vector contains non-finite entries")
        object.__setattr__(self, "values", _lock(values))

    @property
    def unlabeled_values(self) -> np.ndarray:
        return self.values[self.partition.unlabeled_slice]


@dataclass(frozen=True)
class PseudoPromptSelection:
    """Unlabeled nodes promoted to pseudo prompts, as global node indices."""

    positives: np.ndarray
    negatives: np.ndarray
    pos_threshold: float
    neg_threshold: float

    def __post_init__(self):
        pos = np.array(self.positives, dtype=np.int64, copy=True)
        neg = np.array(self.negatives, dtype=np.int64, copy=True)
        if np.intersect1d(pos, neg).size:
            raise ValueError("positive and negative selections overlap")
        object.__setattr__(self, "positives", _lock(pos))
        object.__setattr__(self, "negatives", _lock(neg))


def init_scores(partition: NodePartition) -> ScoreVector:
    """+1 on every prototype and labeled node, 0 on every unlabeled node."""
    values = np.zeros(partition.n_total)
    values[: partition.unlabeled_offset] = 1.0
    return ScoreVector(values, partition)


def propagate(norm_adj: BlockAdjacency, s0: ScoreVector,
              cfg: PropagationConfig = None) -> ScoreVector:
    """Run the fixed-iteration propagation recurrence from ``s0`` over a
    graph returned by :func:`normalize`."""
    cfg = cfg or PropagationConfig()
    if norm_adj.partition.n_total != s0.partition.n_total:
        raise ValueError("graph and score vector disagree on node count")
    w = norm_adj.weights
    base = cfg.alpha * s0.values
    s = s0.values.copy()
    for _ in range(cfg.iterations):
        s = w @ s + base
    return ScoreVector(s, s0.partition)


def pseudo_prompt_count(m_percent: float, n_unlabeled: int) -> int:
    """Number of nodes promoted per side: round(m% of n), at least 1."""
    return max(1, int(round(m_percent / 100.0 * n_unlabeled)))


def select_pseudo_prompts(s_t: ScoreVector, m_percent: float) -> PseudoPromptSelection:
    """Pick the q most and q least confident unlabeled nodes.

    Ties resolve toward the lower index; the low side skips any index
    already taken by the high side so the two sets never overlap.
    """
    part = s_t.partition
    if not 0.0 < m_percent < 50.0:
        raise ValueError(f"m_percent must be in (0, 50), got {m_percent}")
    if part.n_unlabeled < 2:
        raise ValueError("need at least two unlabeled nodes to select pseudo prompts")
    unlab = s_t.unlabeled_values
    q = pseudo_prompt_count(m_percent, part.n_unlabeled)
    order_desc = np.argsort(-unlab, kind="stable")
    order_asc = np.argsort(unlab, kind="stable")
    pos = order_desc[:q]
    neg = order_asc[~np.isin(order_asc, pos)][:q]
    if neg.size < q:
        raise ValueError("not enough unlabeled nodes to fill both selections")
    offset = part.unlabeled_offset
    return PseudoPromptSelection(
        positives=pos.astype(np.int64) + offset,
        negatives=neg + offset,
        pos_threshold=float(unlab[pos[-1]]),
        neg_threshold=float(unlab[neg[-1]]),
    )


def reinit_scores(s0: ScoreVector, sel: PseudoPromptSelection) -> ScoreVector:
    """Rebuild initial scores with +1 at the selected positives and -1 at the
    selected negatives; everything else keeps its ``s0`` value."""
    part = s0.partition
    lo, hi = part.unlabeled_offset, part.n_total
    for name, idx in (("positives", sel.positives), ("negatives", sel.negatives)):
        if idx.size and ((idx < lo) | (idx >= hi)).any():
            raise ValueError(f"{name} contain indices outside the unlabeled segment")
    values = s0.values.copy()
    values[sel.positives] = 1.0
    values[sel.negatives] = -1.0
    return ScoreVector(values, part)


def run_gsp(adj: BlockAdjacency, cfg: PropagationConfig = None,
            self_train: bool = True):
    """Full graph-score-propagation pipeline over a graph returned by
    :func:`~graphscore.graph.build_adjacency`.

    Normalizes the graph, propagates the initial scores, promotes pseudo
    prompts, re-initializes, and propagates again. The graph is not rebuilt
    between passes. With ``self_train=False`` the selection and second pass
    are skipped (the score-propagation-only ablation). Returns
    ``(scores_on_unlabeled, diagnostics)``.
    """
    cfg = cfg or PropagationConfig()
    timing = {}

    t0 = time.perf_counter()
    norm = normalize(adj)
    timing["normalize"] = time.perf_counter() - t0

    s0 = init_scores(adj.partition)
    t0 = time.perf_counter()
    pass1 = propagate(norm, s0, cfg)
    timing["propagate_pass1"] = time.perf_counter() - t0

    selection = None
    pass2 = None
    # a single unlabeled node cannot fill both pseudo-prompt sets; fall back
    # to the first-pass scores
    if self_train and adj.partition.n_unlabeled < 2:
        self_train = False
    if self_train:
        t0 = time.perf_counter()
        selection = select_pseudo_prompts(pass1, cfg.m_percent)
        timing["select"] = time.perf_counter() - t0
        s0b = reinit_scores(s0, selection)
        t0 = time.perf_counter()
        pass2 = propagate(norm, s0b, cfg)
        timing["propagate_pass2"] = time.perf_counter() - t0

    final = pass2 if pass2 is not None else pass1
    unlab1 = pass1.unlabeled_values
    timing["total"] = sum(timing.values())
    diagnostics = {
        "partition": {
            "n_proto": adj.partition.n_proto,
            "n_labeled": adj.partition.n_labeled,
            "n_unlabeled": adj.partition.n_unlabeled,
        },
        "graph": {"edges": adj.nnz},
        "config": {
            "alpha": cfg.alpha,
            "iterations": cfg.iterations,
            "m_percent": cfg.m_percent,
            "self_train": self_train,
        },
        "selection": None if selection is None else {
            "positives": [int(i) for i in selection.positives],
            "negatives": [int(i) for i in selection.negatives],
            "pos_threshold": selection.pos_threshold,
            "neg_threshold": selection.neg_threshold,
        },
        # unreached nodes score exactly 0 and decide the pseudo-negative ties
        "pass1_unlabeled": {
            "min": float(unlab1.min()),
            "max": float(unlab1.max()),
            "n_zero": int(np.count_nonzero(unlab1 == 0.0)),
        },
        "timing_s": timing,
    }
    return final.unlabeled_values.copy(), diagnostics
