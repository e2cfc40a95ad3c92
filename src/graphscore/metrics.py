"""AUROC and FPR-at-TPR for ID-vs-OOD score vectors.

Conventions: in-distribution is the positive class and higher scores mean
more in-distribution. AUROC is the Mann-Whitney statistic with ties counted
as half, computed from integer pair counts so it matches an exhaustive
pairwise comparison bit for bit. FPR95 uses the largest threshold whose
"score >= threshold" rule keeps ID recall at or above 95%, with no
interpolation between observed score values.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    auroc: float
    fpr95: float
    n_id: int
    n_ood: int
    method: str = ""

    def __post_init__(self):
        if not 0.0 <= self.auroc <= 1.0:
            raise ValueError(f"auroc out of range: {self.auroc}")
        if not 0.0 <= self.fpr95 <= 1.0:
            raise ValueError(f"fpr95 out of range: {self.fpr95}")
        if self.n_id < 1 or self.n_ood < 1:
            raise ValueError("need at least one ID and one OOD sample")


def auroc(scores, is_id) -> float:
    """Probability a random ID sample outscores a random OOD sample, with
    ties credited 0.5. Exact: the pair counts are accumulated as integers."""
    return evaluate(scores, is_id).auroc


def fpr_at_tpr(scores, is_id) -> float:
    """False positive rate at the largest threshold keeping ID recall >= 95%."""
    return evaluate(scores, is_id).fpr95


def evaluate(scores, is_id, method: str = "") -> EvalReport:
    """Both metrics in a report, from one sort of each class's scores."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    if scores.ndim != 1 or is_id.ndim != 1 or scores.size != is_id.size:
        raise ValueError("scores and is_id must be 1-D and the same length")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    id_scores, ood_scores = np.sort(scores[is_id]), np.sort(scores[~is_id])
    n_id, n_ood = id_scores.size, ood_scores.size
    if n_id == 0 or n_ood == 0:
        raise ValueError("need at least one ID and one OOD sample")
    # per ID score: the OOD scores below it, then those at or below it
    wins = int(np.searchsorted(ood_scores, id_scores, side="left").sum())
    ties = int(np.searchsorted(ood_scores, id_scores, side="right").sum()) - wins
    # smallest ID count whose recall reaches 95%, in 1..n_id; the tiny slack
    # keeps exact products like 0.95 * 100 from rounding up past the ceiling
    need = math.ceil(0.95 * n_id - 1e-9)
    # the OOD scores at or above the threshold
    false_pos = n_ood - int(np.searchsorted(ood_scores, id_scores[n_id - need], side="left"))
    return EvalReport(auroc=(wins + 0.5 * ties) / (n_id * n_ood), fpr95=false_pos / n_ood,
                      n_id=n_id, n_ood=n_ood, method=method)
