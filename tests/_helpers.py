"""Shared builders for randomized test models."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import margraph as mg
from margraph.errors import DataError
from margraph.inference import STATUS_BUDGET, STATUS_LOCAL, STATUS_OPTIMAL
from margraph.model import compile_scorer, signs_of_indices

BUILDERS = {
    "independent": mg.build_independent_graph,
    "chain": mg.build_chain_graph,
    "full": mg.build_full_graph,
}


def random_model(rng, kind, max_outputs=10, max_inputs=5, min_outputs=1, scale=1.0):
    """A random graph, N(0, scale) weights, and one random input vector."""
    n_outputs = int(rng.integers(min_outputs, max_outputs + 1))
    n_inputs = int(rng.integers(0, max_inputs + 1))
    build = BUILDERS[rng.choice(list(BUILDERS))]
    graph = build(n_outputs, n_inputs, kind)
    weights = mg.WeightVector(rng.normal(0.0, scale, graph.n_cliques), lam=1.0)
    x = rng.standard_normal(n_inputs)
    return graph, weights, x


def random_labels(rng, n_instances, n_outputs):
    """Uniform random +1/-1 label matrix."""
    return np.where(rng.random((n_instances, n_outputs)) < 0.5, 1, -1).astype(np.int8)


def random_dataset(rng, n_instances, n_outputs, n_inputs):
    return mg.Dataset(
        rng.standard_normal((n_instances, n_inputs)),
        random_labels(rng, n_instances, n_outputs),
    )


def coupled_graph(rng, topology, K, D, kind):
    """A chain or full graph in a random order, plus input-coupled cliques of
    two to four members (at least one of three or more once K >= 3)."""
    base = BUILDERS[topology](K, D, kind, order=tuple(int(i) for i in rng.permutation(K)))
    cliques = {(c.outputs, c.input_feature): c for c in base.cliques}
    for n in range(int(rng.integers(1, K + 1)) if K >= 2 else 0):
        size = 3 if n == 0 and K >= 3 else int(rng.integers(2, min(K, 4) + 1))
        members = tuple(int(k) for k in rng.choice(K, size=size, replace=False))
        feature = int(rng.integers(D)) if D and rng.random() < 0.7 else None
        c = mg.Clique(members, feature)
        cliques.setdefault((c.outputs, c.input_feature), c)
    return mg.GraphSpec(K, D, kind, base.order, tuple(cliques.values()))


def assignment_signs(n_outputs, start, stop):
    """Rows start..stop-1 of the (2^K, K) sign matrix, the reference the
    label grid of ``NodeScorer.grid_sums`` is checked against."""
    return signs_of_indices(n_outputs, np.arange(start, stop, dtype=np.int64))


def reference_losses(scorer, K, start, stop):
    """Joint losses of assignments start..stop-1 from the per-row sign matrix,
    the path exhaustive enumeration took before its label grid."""
    return scorer.total_loss_column(assignment_signs(K, start, stop))


def reference_energies(graph, weights, x):
    """Undirected energies (1/2) sum_i z_i of every assignment, from the
    per-row margin_block of one compiled input."""
    K = graph.n_outputs
    Z = compile_scorer(graph, weights, x).margin_block(assignment_signs(K, 0, 1 << K))
    return 0.5 * Z.sum(axis=1)


def reference_log_table(graph, weights, x):
    """reference_energies normalized over all assignments."""
    table = reference_energies(graph, weights, x)
    m = float(table.max())
    return table - (m + math.log(float(np.exp(table - m).sum())))


def reference_write_svmlight(dataset, path):
    """The svmlight writer as it was before it read rows through ``tolist``:
    one NumPy index per label and per feature."""
    lines = []
    for r in range(dataset.n_instances):
        labels = ",".join(str(k + 1) for k in range(dataset.n_outputs) if dataset.Y[r, k] == 1)
        feats = [
            f"{d + 1}:{float(dataset.X[r, d])!r}"
            for d in range(dataset.n_inputs)
            if dataset.X[r, d] != 0.0
        ]
        if not labels and not feats:
            raise DataError(
                f"instance {r} has no positive labels and no nonzero features; "
                "it would serialize to a blank line"
            )
        lines.append((labels + " " + " ".join(feats)).strip() if labels else " " + " ".join(feats))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_icm(graph, weights, x, y0, max_sweeps):
    """ICM as it was before it rescored only the flipped node's dependents:
    every candidate is rescored in full through ``total_loss_column`` on a
    one-row matrix.  Returns (labels, objective, states, status)."""
    y = np.array(y0, dtype=np.int8).copy()
    scorer = compile_scorer(graph, weights, x)
    current = float(scorer.total_loss_column(y[None])[0])
    states = 0
    for _ in range(max_sweeps):
        moved = False
        for node in graph.order:
            y[node] = -y[node]
            candidate = float(scorer.total_loss_column(y[None])[0])
            states += 1
            if candidate < current:
                current = candidate
                moved = True
            else:
                y[node] = -y[node]
        if not moved:
            return y, current, states, STATUS_OPTIMAL if graph.n_outputs == 1 else STATUS_LOCAL
    return y, current, states, STATUS_BUDGET
