"""Census of how the dual solves of a random family of trainings end.

Run from the repository root (not collected by pytest, about 30 s):

    PYTHONPATH=src python3 tests/solve_census.py

Seeds 1-3 each draw 1,000 trainings: a graph from ``_helpers.coupled_graph``
(directed chain, full or independent base, or undirected chain or full base),
K 1-6 labels, D 0-24 inputs and N 1-299 rows from ``random_dataset``, with
the inputs scaled by 0.1 on half of them, lambda = 10^U(-4.5, 0) and
eta0 0 or 1, at the default tolerance and epoch cap.  It prints one JSON
object of four counts over every solve, in total and per model kind
(directed node solves, undirected joint solves): all solves, the solves
left uncertified, the largest ``epochs`` (Newton iterations) a solve took,
and the solves that reached the crossover (step 3 of ``training._train``,
the active set run with a proximal weight), recorded through
``_helpers.record_newton_calls``.  Two trees that solve alike print the
same counts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import margraph as mg
from margraph import TrainConfig

from _helpers import coupled_graph, random_dataset, record_newton_calls

SEEDS = (1, 2, 3)
TRAININGS = 1000
FAMILIES = (
    (mg.DIRECTED, "chain"),
    (mg.DIRECTED, "full"),
    (mg.DIRECTED, "independent"),
    (mg.UNDIRECTED, "chain"),
    (mg.UNDIRECTED, "full"),
)


def trainings(seed: int):
    """(dataset, graph, config) of each training that ``seed`` draws."""
    rng = np.random.default_rng(seed)
    for _ in range(TRAININGS):
        kind, topology = FAMILIES[int(rng.integers(len(FAMILIES)))]
        K, D, N = int(rng.integers(1, 7)), int(rng.integers(0, 25)), int(rng.integers(1, 300))
        graph = coupled_graph(rng, topology, K, D, kind)
        dataset = random_dataset(rng, N, K, D)
        if rng.random() < 0.5:
            dataset = mg.Dataset(0.1 * dataset.X, dataset.Y)
        config = TrainConfig(lam=float(10.0 ** rng.uniform(-4.5, 0.0)), eta0=float(rng.integers(2)))
        yield dataset, graph, config


def census() -> dict[str, dict[str, int]]:
    counts = {
        group: dict.fromkeys(("solves", "uncertified", "max_epochs", "crossovers"), 0)
        for group in ("total", mg.DIRECTED, mg.UNDIRECTED)
    }
    with pytest.MonkeyPatch.context() as mp:
        calls = record_newton_calls(mp)
        for seed in SEEDS:
            for dataset, graph, config in trainings(seed):
                train = mg.train_lmsbn if graph.kind == mg.DIRECTED else mg.train_lmbm
                calls.clear()
                reports = train(dataset, graph, config).reports
                # each solve runs the crossover at most once, as an active set with rho > 0
                crossovers = sum(call[0] == "active set" and call[4] > 0.0 for call in calls)
                for group in (counts["total"], counts[graph.kind]):
                    group["crossovers"] += crossovers
                    for r in reports:
                        group["solves"] += 1
                        group["uncertified"] += not r.converged
                        group["max_epochs"] = max(group["max_epochs"], r.epochs)
    return counts


if __name__ == "__main__":
    print(json.dumps(census()))
