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
from dataclasses import asdict, dataclass

import numpy as np

from .graph import BlockAdjacency, NodePartition, normalize, product


def timed(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)``; returns ``(result, seconds)``, the time
    every ``timing_s`` stage reports."""
    clock = time.perf_counter
    t0 = clock()
    result = fn(*args, **kwargs)
    return result, clock() - t0


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


def propagate(norm_adj: BlockAdjacency, s0: np.ndarray,
              cfg: PropagationConfig = None) -> np.ndarray:
    """Run the fixed-iteration propagation recurrence from ``s0``, a float64
    vector indexed like the partition, over a graph returned by
    :func:`normalize`."""
    cfg = cfg or PropagationConfig()
    s0 = np.asarray(s0, dtype=np.float64)
    if s0.shape != (norm_adj.partition.n_total,):
        raise ValueError(f"score vector of shape {s0.shape} does not match "
                         f"the graph's {norm_adj.partition.n_total} nodes")
    base = cfg.alpha * s0
    s = s0
    for _ in range(cfg.iterations):
        s = product(norm_adj, s) + base
    return s


def select_pseudo_prompts(scores: np.ndarray, partition: NodePartition,
                          m_percent: float):
    """Pick the q most and q least confident unlabeled nodes of ``scores``
    (indexed like ``partition``), q being round(m% of the unlabeled count)
    and at least 1. Returns ``(positives, negatives)``, global node indices
    in selection order, so each side's last entry holds its threshold.

    Ties resolve toward the lower index; the low side skips any index
    already taken by the high side so the two sets never overlap.
    """
    if not 0.0 < m_percent < 50.0:
        raise ValueError(f"m_percent must be in (0, 50), got {m_percent}")
    if partition.n_unlabeled < 2:
        raise ValueError("need at least two unlabeled nodes to select pseudo prompts")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (partition.n_total,):
        raise ValueError(f"score vector of shape {scores.shape} does not match "
                         f"the partition's {partition.n_total} nodes")
    unlab = scores[partition.unlabeled_slice]
    q = max(1, int(round(m_percent / 100.0 * partition.n_unlabeled)))
    order_desc = np.argsort(-unlab, kind="stable")
    order_asc = np.argsort(unlab, kind="stable")
    pos = order_desc[:q]
    neg = order_asc[~np.isin(order_asc, pos)][:q]
    if neg.size < q:
        raise ValueError("not enough unlabeled nodes to fill both selections")
    return pos + partition.unlabeled_offset, neg + partition.unlabeled_offset


def run_gsp(adj: BlockAdjacency, cfg: PropagationConfig = None):
    """Full graph-score-propagation pipeline over a graph returned by
    :func:`~graphscore.graph.build_adjacency`.

    Normalizes the graph once, propagates the initial scores (pass 1),
    promotes pseudo prompts, and propagates the +1/-1 re-initialized scores
    over the same graph (pass 2). Pass 1 alone is the score-propagation-only
    ablation. Returns ``(pass1, final, diagnostics)`` with both score vectors
    on the unlabeled nodes; with a single unlabeled node, which cannot fill
    both pseudo-prompt sets, ``final`` is ``pass1``. ``timing_s`` holds the
    seconds of each stage run; the caller adds ``total``.
    """
    cfg = cfg or PropagationConfig()
    part = adj.partition
    timing = {}
    norm, timing["normalize"] = timed(normalize, adj)

    # +1 on every prototype and labeled node, 0 on every unlabeled node
    s0 = np.zeros(part.n_total)
    s0[: part.unlabeled_offset] = 1.0
    pass1, timing["propagate_pass1"] = timed(propagate, norm, s0, cfg)
    unlab1 = pass1[part.unlabeled_slice]

    selection = None
    final = pass1
    if part.n_unlabeled >= 2:
        (pos, neg), timing["select"] = timed(select_pseudo_prompts, pass1, part, cfg.m_percent)
        # pass 2 starts from the pass-1 initial vector with the pseudo prompts at +1/-1
        s0[pos] = 1.0
        s0[neg] = -1.0
        final, timing["propagate_pass2"] = timed(propagate, norm, s0, cfg)
        pos_threshold, neg_threshold = float(pass1[pos[-1]]), float(pass1[neg[-1]])
        selection = {
            "q": int(pos.size),
            "pos_threshold": pos_threshold,
            "neg_threshold": neg_threshold,
            # unlabeled pass-1 scores equal to each threshold; the tie rule
            # picks among these by node index
            "pos_ties": int(np.count_nonzero(unlab1 == pos_threshold)),
            "neg_ties": int(np.count_nonzero(unlab1 == neg_threshold)),
        }

    diagnostics = {
        "partition": asdict(part),
        "graph": adj.summary,
        "config": asdict(cfg),
        "selection": selection,
        # unreached nodes score exactly 0 and decide the pseudo-negative ties
        "pass1_unlabeled": {
            "min": float(unlab1.min()),
            "max": float(unlab1.max()),
            "n_zero": int(np.count_nonzero(unlab1 == 0.0)),
        },
        "timing_s": timing,
    }
    return unlab1.copy(), final[part.unlabeled_slice].copy(), diagnostics
