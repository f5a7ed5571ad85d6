"""Multi-label evaluation measures."""

import numpy as np
import pytest

from margraph.errors import DataError
from margraph.metrics import MetricReport, evaluate, per_label_f_scores

from _helpers import random_labels

HAND_TRUTHS = [[1, -1, 1], [-1, -1, 1]]
HAND_PREDS = [[1, -1, 1], [1, -1, -1]]


def test_hand_counted_example_is_reproduced_exactly():
    rep = evaluate(HAND_TRUTHS, HAND_PREDS)
    assert rep.exact_match == 0.5
    assert rep.hamming == 1 / 3
    assert rep.f_sample == 0.5
    # per-label F: 2/3, 1 (no positives in truth or prediction), 2/3
    assert rep.f_macro == (2 / 3 + 1 + 2 / 3) / 3
    assert rep.f_micro == 2 / 3
    assert per_label_f_scores(HAND_TRUTHS, HAND_PREDS).tolist() == [2 / 3, 1.0, 2 / 3]


def test_perfect_predictions():
    rng = np.random.default_rng(1)
    Y = random_labels(rng, 12, 4)
    rep = evaluate(Y, Y.copy())
    assert rep == MetricReport(1.0, 0.0, 1.0, 1.0, 1.0)


def test_total_disagreement_on_all_positive_truths():
    truths = np.ones((5, 3), dtype=np.int8)
    rep = evaluate(truths, -truths)
    assert rep.exact_match == 0.0
    assert rep.hamming == 1.0
    assert rep.f_sample == 0.0
    assert rep.f_macro == 0.0
    assert rep.f_micro == 0.0


def test_no_positives_anywhere_scores_one():
    truths = -np.ones((4, 2), dtype=np.int8)
    rep = evaluate(truths, truths.copy())
    assert rep == MetricReport(1.0, 0.0, 1.0, 1.0, 1.0)


def assert_reports_match(a, b):
    """Count-based metrics must agree exactly; the f-score means are sums
    whose accumulation order follows the data order, so allow 1 ulp there."""
    assert a.exact_match == b.exact_match
    assert a.hamming == b.hamming
    assert a.f_micro == b.f_micro
    assert a.f_sample == pytest.approx(b.f_sample, abs=1e-12)
    assert a.f_macro == pytest.approx(b.f_macro, abs=1e-12)


def test_instance_permutation_leaves_all_metrics_unchanged():
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = random_labels(rng, 15, 4)
        P = random_labels(rng, 15, 4)
        perm = rng.permutation(15)
        assert_reports_match(evaluate(T, P), evaluate(T[perm], P[perm]))


def test_label_permutation_preserves_everything_but_reorders_label_scores():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T = random_labels(rng, 15, 5)
        P = random_labels(rng, 15, 5)
        perm = rng.permutation(5)
        assert_reports_match(evaluate(T, P), evaluate(T[:, perm], P[:, perm]))
        scores = per_label_f_scores(T, P)
        assert per_label_f_scores(T[:, perm], P[:, perm]).tolist() == scores[perm].tolist()


def test_exact_match_one_iff_hamming_zero():
    rng = np.random.default_rng(4)
    for _ in range(20):
        T = random_labels(rng, 10, 3)
        P = random_labels(rng, 10, 3)
        rep = evaluate(T, P)
        assert (rep.exact_match == 1.0) == (rep.hamming == 0.0)
        assert 0.0 <= rep.hamming <= 1.0
        for value in (rep.exact_match, rep.f_sample, rep.f_macro, rep.f_micro):
            assert 0.0 <= value <= 1.0


def test_shape_and_value_validation():
    with pytest.raises(DataError):
        evaluate([[1, -1]], [[1, -1], [1, 1]])
    with pytest.raises(DataError):
        evaluate([[1, 0]], [[1, 1]])
    with pytest.raises(DataError):
        evaluate([1, -1], [1, -1])
    # all True is no more a sign matrix than a mix of True and False
    with pytest.raises(DataError, match="boolean array"):
        evaluate([[True, True]], [[True, True]])


def test_format_line_uses_full_precision():
    rep = evaluate(HAND_TRUTHS, HAND_PREDS)
    line = rep.format_line()
    assert line.startswith("E=0.5,H=0.3333333333333333,")
    parsed = dict(part.split("=") for part in line.split(","))
    assert float(parsed["Fmac"]) == rep.f_macro
