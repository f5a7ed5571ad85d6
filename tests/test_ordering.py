"""Node ordering strategies: identity and probe-F-score sorting."""

import numpy as np
import pytest

import margraph as mg
from margraph import Dataset
from margraph.errors import DataError
from margraph.ordering import (
    fscore_order,
    index_order,
    make_order_strategy,
    probe_label_fscores,
)

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


def test_index_order_is_identity():
    assert index_order(3) == (0, 1, 2)
    assert index_order(1) == (0,)
    with pytest.raises(DataError):
        index_order(0)


def test_probe_fscores_hit_exact_closed_forms():
    # positive fractions 2/3, 9/11, 3/4 of 132 give F = 0.8, 0.9, 6/7
    dataset = dataset_with_positive_counts([88, 108, 99])
    scores = probe_label_fscores(dataset)
    assert scores.tolist() == [0.8, 0.9, 6 / 7]


def test_fscore_order_sorts_descending():
    dataset = dataset_with_positive_counts([88, 108, 99])
    assert fscore_order(dataset) == (1, 2, 0)


def test_fscore_order_breaks_ties_by_label_index():
    assert fscore_order(dataset_with_positive_counts([88, 88, 88])) == (0, 1, 2)
    assert fscore_order(dataset_with_positive_counts([108, 88, 108])) == (0, 2, 1)


def test_make_order_strategy_variants():
    dataset = dataset_with_positive_counts([88, 108, 99])
    idx = make_order_strategy("index", dataset)
    assert idx.kind == "index" and idx.order == (0, 1, 2)
    assert idx.per_label_fscores is None
    fs = make_order_strategy("fscore", dataset)
    assert fs.kind == "fscore" and fs.order == (1, 2, 0)
    assert fs.per_label_fscores == (0.8, 0.9, 6 / 7)
    # the probe's run rides along, outside comparisons
    assert idx.probe is None and [r.node for r in fs.probe.reports] == [0, 1, 2]
    assert fs == mg.OrderStrategy("fscore", (1, 2, 0), (0.8, 0.9, 6 / 7))
    with pytest.raises(DataError):
        make_order_strategy("alphabetical", dataset)


def test_fscore_order_is_a_deterministic_permutation():
    rng = np.random.default_rng(31)
    dataset = random_dataset(rng, 40, 5, 3)
    first = fscore_order(dataset)
    second = fscore_order(dataset)
    assert first == second
    assert sorted(first) == [0, 1, 2, 3, 4]
