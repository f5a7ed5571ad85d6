"""Label-order strategies for directed graphs.

Either keep the natural index order, or sort labels by the training-set
F-score of an independent per-label classifier (score 0 predicts +1; ties
by ascending index) so that easier labels come first (and are conditioned
on by the harder ones).  The fscore strategy keeps that probe's training
result: its terminal duals are a feasible start for every directed node's
full problem over the same data and lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError
from .graphs import DIRECTED, build_independent_graph
from .metrics import per_label_f_scores
from .model import batch_scorer
from .training import TrainConfig, TrainResult, train_lmsbn

__all__ = ["OrderStrategy", "make_order_strategy"]


@dataclass(frozen=True)
class OrderStrategy:
    """A chosen node order, with per-label probe F-scores when relevant.

    ``probe`` is the fscore probe's training run (its reports, and the
    ``DualState`` that ``train_lmsbn(..., start=probe.state)`` starts
    from); it takes no part in comparisons.
    """

    order: tuple[int, ...]
    per_label_fscores: tuple[float, ...] | None = None
    probe: TrainResult | None = field(default=None, compare=False, repr=False)


def make_order_strategy(
    kind: str, dataset: Dataset, config: TrainConfig | None = None
) -> OrderStrategy:
    """The ``"index"`` or the ``"fscore"`` order of the dataset's labels."""
    if kind == "index":
        return OrderStrategy(order=tuple(range(dataset.n_outputs)))
    if kind != "fscore":
        raise DataError(f"unknown order strategy {kind!r}")
    graph = build_independent_graph(dataset.n_outputs, dataset.n_inputs, DIRECTED)
    probe = train_lmsbn(dataset, graph, config or TrainConfig())
    scores = dataset.Y * batch_scorer(graph, probe.weights, dataset.X).margin_block(dataset.Y)
    fscores = per_label_f_scores(dataset.Y, np.where(scores >= 0.0, 1, -1))
    order = tuple(sorted(range(dataset.n_outputs), key=lambda i: (-fscores[i], i)))
    return OrderStrategy(order, tuple(float(s) for s in fscores), probe)
