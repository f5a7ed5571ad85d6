"""Census of how `margraph predict` decodes a random family of models.

Run from the repository root (not collected by pytest, about 10 s):

    PYTHONPATH=src python3 tests/decode_census.py

Seeds 1-3 each draw 150 models: a graph from ``_helpers.coupled_graph``
(directed or undirected, chain or full base) or an independent graph, K 1-12
labels, D 0-3 inputs, clique weights N(0, s) with s in {0.3, 1, 3}, a third
of them zeroed on half the models (exact score ties), and biases tilted by
±4 on a third (rows whose zero-loss pass succeeds), with a chunk of 1-30
rows of N(0, 1) inputs.  Each model and chunk is saved to a temporary
directory and decoded by the command itself, once per decoder setting:
branch and bound at the default cutoff, at ``--S 1`` (the greedy fallback
below any optimum of at least 1), at ``--max-states 3`` (the state budget)
and with ``--escalate``, then the exhaustive oracle.  It prints one JSON
object: the rows decoded, their total states, the count of each status,
and the SHA-256 of every prediction line in order.  Two trees that decode
alike print the same line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import margraph as mg
from margraph.cli import main
from margraph.dataio import ModelFile, read_predictions, save_model, write_multilabel_svmlight

from _helpers import coupled_graph

SEEDS = (1, 2, 3)
MODELS = 150
TOPOLOGIES = ("independent", "chain", "full")
SETTINGS = (
    ("--infer", "bb"),
    ("--infer", "bb", "--S", "1"),
    ("--infer", "bb", "--max-states", "3"),
    ("--infer", "bb", "--escalate"),
    ("--infer", "exhaustive"),
)


def models(seed: int):
    """(graph, weights, X) of each model and chunk that ``seed`` draws."""
    rng = np.random.default_rng(seed)
    for _ in range(MODELS):
        kind = (mg.DIRECTED, mg.UNDIRECTED)[int(rng.integers(2))]
        topology = TOPOLOGIES[int(rng.integers(len(TOPOLOGIES)))]
        K, D, n = int(rng.integers(1, 13)), int(rng.integers(0, 4)), int(rng.integers(1, 31))
        if topology == "independent":
            graph = mg.build_independent_graph(K, D, kind)
        else:
            graph = coupled_graph(rng, topology, K, D, kind)
        w = rng.normal(0.0, (0.3, 1.0, 3.0)[int(rng.integers(3))], graph.n_cliques)
        if rng.random() < 0.5:
            w = np.where(rng.random(graph.n_cliques) < 1 / 3, 0.0, w)
        if rng.random() < 1 / 3:
            w[:K] += 4.0 * np.where(rng.random(K) < 0.5, 1.0, -1.0)
        yield graph, mg.WeightVector(w, lam=1.0), rng.standard_normal((n, D))


def census() -> dict:
    rows = states = 0
    statuses: Counter = Counter()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        model, data, out = (Path(tmp) / name for name in ("census.model", "census.sv", "census.pred"))
        for seed in SEEDS:
            for graph, weights, X in models(seed):
                save_model(ModelFile(graph=graph, weights=weights), model)
                # every label +1: the labels are not read, and a row needs one
                Y = np.ones((len(X), graph.n_outputs), dtype=np.int8)
                write_multilabel_svmlight(mg.Dataset(X, Y), data)
                for setting in SETTINGS:
                    argv = ["predict", "--model-file", str(model), "--data", str(data), *setting]
                    argv += ["--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert main(argv) == 0, argv
                    _, _, counts, words = read_predictions(out)
                    rows += len(words)
                    states += int(counts.sum())
                    statuses.update(words)
                    digest.update(out.read_bytes())
    return {"rows": rows, "states": states, "statuses": dict(sorted(statuses.items())),
            "sha256": digest.hexdigest()}


if __name__ == "__main__":
    print(json.dumps(census()))
