from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscore.metrics import EvalReport, auroc, evaluate, fpr_at_tpr

from oracles import pairwise_auroc, sweep_fpr


def test_auroc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    is_id = np.array([True, True, False, False])
    assert auroc(scores, is_id) == 1.0


def test_auroc_all_ties():
    scores = np.full(6, 0.5)
    is_id = np.array([True, False] * 3)
    assert auroc(scores, is_id) == 0.5


def test_auroc_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    is_id = np.array([True, True, False, False])
    assert auroc(scores, is_id) == 0.0


def test_auroc_matches_pairwise_oracle_exactly():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.standard_normal(n)
        if seed % 3 == 0:
            scores = np.round(scores, 1)  # inject ties
        is_id = rng.random(n) < 0.5
        if is_id.all() or not is_id.any():
            is_id[0] = True
            is_id[-1] = False
        assert auroc(scores, is_id) == pairwise_auroc(scores, is_id)
    # unreached nodes score exactly 0.0: signed zeros tie, and a mix may be all zeros
    signed = np.array([0.0, -0.0, 0.3, -0.0, 0.0, -0.2, 0.0])
    for scores, is_id in [(signed, np.array([True, False, True, True, False, False, False])),
                          (signed, np.array([False, True, False, False, True, True, True])),
                          (np.zeros(5), np.array([True, False, False, True, False]))]:
        assert auroc(scores, is_id) == pairwise_auroc(scores, is_id)


def test_fpr_perfect_separation():
    scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    is_id = np.array([True, True, True, False, False])
    assert fpr_at_tpr(scores, is_id) == 0.0


def test_fpr_all_equal_scores():
    scores = np.full(8, 0.3)
    is_id = np.array([True] * 4 + [False] * 4)
    assert fpr_at_tpr(scores, is_id) == 1.0


def test_fpr_matches_sweep_oracle_exactly():
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(6, 100))
        scores = rng.standard_normal(n)
        if seed % 4 == 0:
            scores = np.round(scores, 1)
        is_id = rng.random(n) < 0.6
        if is_id.all() or not is_id.any():
            is_id[0] = True
            is_id[-1] = False
        assert fpr_at_tpr(scores, is_id) == sweep_fpr(scores, is_id)


def test_fpr_nonincreasing_under_id_shift():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(80)
    is_id = rng.random(80) < 0.5
    base = fpr_at_tpr(scores, is_id)
    shifted = scores.copy()
    shifted[is_id] += 0.7
    assert fpr_at_tpr(shifted, is_id) <= base


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auroc_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    scores = rng.standard_normal(n)
    is_id = rng.random(n) < 0.5
    if is_id.all() or not is_id.any():
        is_id[0] = True
        is_id[-1] = False
    base = auroc(scores, is_id)
    for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
        assert auroc(transform(scores), is_id) == base


def test_auroc_negation_antisymmetry_no_ties():
    rng = np.random.default_rng(13)
    scores = rng.permutation(40).astype(float)  # distinct values
    is_id = rng.random(40) < 0.5
    is_id[0] = True
    is_id[-1] = False
    assert auroc(scores, is_id) + auroc(-scores, is_id) == 1.0


def test_negated_scores_match_oracle_with_ties():
    rng = np.random.default_rng(21)
    scores = np.round(rng.standard_normal(50), 1)
    is_id = rng.random(50) < 0.5
    is_id[0] = True
    is_id[-1] = False
    assert auroc(-scores, is_id) == pairwise_auroc(-scores, is_id)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(30)
    is_id = rng.random(30) < 0.5
    is_id[0] = True
    is_id[-1] = False
    perm = rng.permutation(30)
    assert auroc(scores, is_id) == auroc(scores[perm], is_id[perm])
    assert fpr_at_tpr(scores, is_id) == fpr_at_tpr(scores[perm], is_id[perm])


def test_single_class_inputs_rejected():
    with pytest.raises(ValueError, match="at least one"):
        auroc(np.array([0.1, 0.2]), np.array([True, True]))
    with pytest.raises(ValueError, match="at least one"):
        fpr_at_tpr(np.array([0.1, 0.2]), np.array([False, False]))
    with pytest.raises(ValueError, match="the same length"):
        evaluate(np.array([0.1, 0.2, 0.3]), np.array([True, False]))
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(np.array([0.1, np.nan]), np.array([True, False]))


def test_evaluate_bundles_report():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    is_id = np.array([True, True, False, False])
    report = evaluate(scores, is_id, method="demo")
    assert report.auroc == 1.0 and report.fpr95 == 0.0
    assert report.n_id == 2 and report.n_ood == 2
    assert asdict(report) == {"auroc": 1.0, "fpr95": 0.0, "n_id": 2, "n_ood": 2,
                              "method": "demo"}


def test_evaluate_inverted_scores():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    is_id = np.array([True, True, False, False])
    assert evaluate(scores, is_id).auroc == 0.0


def test_report_validation():
    with pytest.raises(ValueError):
        EvalReport(auroc=1.2, fpr95=0.0, n_id=1, n_ood=1)
    with pytest.raises(ValueError):
        EvalReport(auroc=0.5, fpr95=0.0, n_id=0, n_ood=1)
