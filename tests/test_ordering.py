"""Node ordering strategies: identity and probe-F-score sorting."""

import numpy as np
import pytest

import margraph as mg
from margraph import Dataset
from margraph.errors import DataError
from margraph.ordering import make_order_strategy

from _helpers import random_dataset


def dataset_with_positive_counts(counts, n_instances=132):
    """Labels with fixed positive counts and no inputs.

    With no inputs each probe classifier reduces to a bias weight; when a
    label is majority-positive the probe predicts +1 everywhere, so its
    training F-score is exactly 2p/(p+1) for positive fraction p.
    """
    Y = -np.ones((n_instances, len(counts)), dtype=np.int8)
    for j, count in enumerate(counts):
        Y[:count, j] = 1
    return Dataset(np.zeros((n_instances, 0)), Y)


def test_index_strategy_is_the_identity():
    for counts in ([88, 108, 99], [88]):
        strategy = make_order_strategy("index", dataset_with_positive_counts(counts))
        assert strategy.order == tuple(range(len(counts)))
        assert strategy.per_label_fscores is None and strategy.probe is None


def test_probe_fscores_hit_exact_closed_forms():
    # positive fractions 2/3, 9/11, 3/4 of 132 give F = 0.8, 0.9, 6/7
    dataset = dataset_with_positive_counts([88, 108, 99])
    assert make_order_strategy("fscore", dataset).per_label_fscores == (0.8, 0.9, 6 / 7)


def test_fscore_strategy_sorts_descending():
    dataset = dataset_with_positive_counts([88, 108, 99])
    assert make_order_strategy("fscore", dataset).order == (1, 2, 0)


def test_fscore_strategy_breaks_ties_by_label_index():
    for counts, order in (([88, 88, 88], (0, 1, 2)), ([108, 88, 108], (0, 2, 1))):
        assert make_order_strategy("fscore", dataset_with_positive_counts(counts)).order == order


def test_the_probe_rides_along_outside_comparisons():
    dataset = dataset_with_positive_counts([88, 108, 99])
    strategy = make_order_strategy("fscore", dataset)
    assert [r.node for r in strategy.probe.reports] == [0, 1, 2]
    assert strategy == mg.OrderStrategy((1, 2, 0), (0.8, 0.9, 6 / 7))


def test_fscores_are_those_of_the_returned_probe():
    rng = np.random.default_rng(5)
    dataset = random_dataset(rng, 60, 4, 3)
    strategy = make_order_strategy("fscore", dataset, mg.TrainConfig(lam=0.05))
    graph = strategy.probe.state.graph
    assert graph == mg.build_independent_graph(4, 3, mg.DIRECTED)
    scores = dataset.Y * mg.batch_scorer(graph, strategy.probe.weights, dataset.X).margin_block(dataset.Y)
    preds = np.where(scores >= 0.0, 1, -1)
    assert strategy.per_label_fscores == tuple(mg.per_label_f_scores(dataset.Y, preds).tolist())


def test_unknown_strategy_is_a_data_error():
    with pytest.raises(DataError, match="unknown order strategy 'alphabetical'"):
        make_order_strategy("alphabetical", dataset_with_positive_counts([88]))


def test_fscore_strategy_is_a_deterministic_permutation():
    rng = np.random.default_rng(31)
    dataset = random_dataset(rng, 40, 5, 3)
    first = make_order_strategy("fscore", dataset)
    second = make_order_strategy("fscore", dataset)
    assert first == second
    assert sorted(first.order) == [0, 1, 2, 3, 4]
