"""Label-order strategies for directed graphs.

Either keep the natural index order, or sort labels by the training-set
F-score of an independent per-label classifier so that easier labels come
first (and are conditioned on by the harder ones).  The fscore strategy
keeps that probe's training result: its terminal duals are a feasible start
for every directed node's full problem over the same data and lambda.
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

__all__ = ["OrderStrategy", "index_order", "fscore_order", "make_order_strategy"]


@dataclass(frozen=True)
class OrderStrategy:
    """A chosen node order, with per-label probe F-scores when relevant.

    ``probe`` is the fscore probe's training run (its reports, and the
    ``DualState`` that ``train_lmsbn(..., start=probe.state)`` starts
    from); it takes no part in comparisons.
    """

    kind: str
    order: tuple[int, ...]
    per_label_fscores: tuple[float, ...] | None = None
    probe: TrainResult | None = field(default=None, compare=False, repr=False)


def index_order(n_outputs: int) -> tuple[int, ...]:
    """Identity permutation."""
    if n_outputs < 1:
        raise DataError(f"need at least one output, got {n_outputs}")
    return tuple(range(n_outputs))


def probe_label_fscores(dataset: Dataset, config: TrainConfig | None = None) -> np.ndarray:
    """Training-set F-score of an independent linear classifier per label."""
    return _probe(dataset, config)[0]


def _probe(dataset: Dataset, config: TrainConfig | None) -> tuple[np.ndarray, TrainResult]:
    """The per-label probe F-scores and the probe's training result."""
    graph = build_independent_graph(dataset.n_outputs, dataset.n_inputs, DIRECTED)
    result = train_lmsbn(dataset, graph, config or TrainConfig())
    scores = dataset.Y * batch_scorer(graph, result.weights, dataset.X).margin_block(dataset.Y)
    preds = np.where(scores >= 0.0, 1, -1)  # score 0 predicts +1
    return per_label_f_scores(dataset.Y, preds), result


def fscore_order(dataset: Dataset, config: TrainConfig | None = None) -> tuple[int, ...]:
    """Labels sorted by descending probe F-score; ties by ascending index."""
    return make_order_strategy("fscore", dataset, config).order


def make_order_strategy(
    kind: str, dataset: Dataset, config: TrainConfig | None = None
) -> OrderStrategy:
    if kind == "index":
        return OrderStrategy(kind="index", order=index_order(dataset.n_outputs))
    if kind == "fscore":
        scores, probe = _probe(dataset, config)
        order = tuple(sorted(range(dataset.n_outputs), key=lambda i: (-scores[i], i)))
        fscores = tuple(float(s) for s in scores)
        return OrderStrategy(kind="fscore", order=order, per_label_fscores=fscores, probe=probe)
    raise DataError(f"unknown order strategy {kind!r}")
