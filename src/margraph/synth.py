"""Synthetic data sampled exactly from planted models.

Directed models are sampled ancestrally along the node order; undirected
models by inverting the cumulative 2^K table of each input.  Those tables
come from the energy identity E(y) = (1/2) sum_i z_i(y) = sum_S coef_S(x) *
parity_S(y) over clique output sets S: one matmul per block of inputs, over
a parity matrix that covers the low bits of the assignment index, with
higher chunks flipping coefficient signs (see ``margraph.model``).  Both
samplers are exact (no MCMC), so empirical frequencies can be tested against
the model's own likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import CapabilityError, DataError, GraphError
from .graphs import (
    DIRECTED,
    UNDIRECTED,
    GraphSpec,
    build_chain_graph,
    build_full_graph,
    build_independent_graph,
)
from .model import TABLE_MAX_OUTPUTS, WeightVector, _ParityEnergy, batch_scorer, signs_of_indices

__all__ = ["SynthConfig", "sample_sbn", "sample_bm", "planted_model"]

INPUT_NORMAL = "normal"
INPUT_NONE = "none"
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SynthConfig:
    """Planted model plus sampling parameters."""

    graph: GraphSpec
    weights: WeightVector
    n_instances: int
    seed: int = 0
    input_model: str = INPUT_NORMAL

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise DataError(f"need at least one instance, got {self.n_instances}")
        if self.input_model not in (INPUT_NORMAL, INPUT_NONE):
            raise DataError(f"unknown input model {self.input_model!r}")
        if self.input_model == INPUT_NONE and self.graph.n_inputs != 0:
            raise DataError("input model 'none' requires a graph with zero inputs")
        if len(self.weights) != self.graph.n_cliques:
            raise DataError(
                f"{len(self.weights)} weights for {self.graph.n_cliques} cliques"
            )


def _draw_inputs(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    n, d = config.n_instances, config.graph.n_inputs
    if config.input_model == INPUT_NONE or d == 0:
        return np.zeros((n, d), dtype=np.float64)
    return rng.standard_normal((n, d))


def sample_sbn(config: SynthConfig) -> Dataset:
    """Ancestral sampling along the order: y_i = +1 with probability
    sigmoid(s_i), where s_i depends on the earlier labels."""
    graph = config.graph
    if graph.kind != DIRECTED:
        raise GraphError("ancestral sampling needs a directed graph")
    rng = np.random.default_rng(config.seed)
    X = _draw_inputs(config, rng)
    n = config.n_instances
    Y = np.zeros((n, graph.n_outputs), dtype=np.int8)
    scorer = batch_scorer(graph, config.weights, X)
    for node in graph.order:
        s = scorer.column(node, Y)
        # p(y=+1) = sigmoid(s), computed stably
        p = np.exp(-np.logaddexp(0.0, -s))
        Y[:, node] = np.where(rng.random(n) < p, 1, -1)
    return Dataset(X, Y)


def _cumulative_tables(energy: _ParityEnergy, X: np.ndarray) -> np.ndarray:
    """Each input row's cumulative probability table, built in place on the
    log table that ``log_probs`` returns, so no second 2^K array is made."""
    cum = energy.log_probs(X)
    np.exp(cum, out=cum)
    return np.cumsum(cum, axis=1, out=cum)


def sample_bm(config: SynthConfig) -> Dataset:
    """Exact sampling from the normalized 2^K table of each input.

    Inputs go through the parity matmul of ``model._ParityEnergy`` in blocks
    of rows whose tables hold at most 2^15 entries (8 rows at K = 12, one
    row from K = 15 on), so time is O(n * sets * 2^K) and memory stays near
    one table, 8 MB at K = 20: the block's log table, which ``log_probs``
    normalises with a log-sum-exp streamed over the parity chunks and which
    then becomes its cumulative table in place.  When no clique reads an
    input, one table serves every row.
    """
    graph = config.graph
    if graph.kind != UNDIRECTED:
        raise GraphError("table sampling needs an undirected graph")
    if graph.n_outputs > TABLE_MAX_OUTPUTS:
        raise CapabilityError(
            f"exact sampling supports at most {TABLE_MAX_OUTPUTS} outputs, got {graph.n_outputs}"
        )
    rng = np.random.default_rng(config.seed)
    X = _draw_inputs(config, rng)
    n = config.n_instances
    u = rng.random(n)
    energy = _ParityEnergy(graph, config.weights)
    if graph.reads_inputs:
        block = max(1, _BLOCK_ENTRIES >> graph.n_outputs)
        indices = np.empty(n, dtype=np.int64)
        for r in range(0, n, block):
            cum = _cumulative_tables(energy, X[r : r + block])
            # searchsorted(side="right") of each row's u in its own table
            indices[r : r + block] = (cum <= u[r : r + block, None]).sum(axis=1)
            del cum  # freed before the next block's tables are built
    else:
        indices = np.searchsorted(_cumulative_tables(energy, X[:1])[0], u, side="right")
    indices = np.minimum(indices, (1 << graph.n_outputs) - 1)
    return Dataset(X, signs_of_indices(graph.n_outputs, indices))


def planted_model(
    n_outputs: int,
    n_inputs: int,
    *,
    kind: str = DIRECTED,
    topology: str = "chain",
    seed: int = 0,
    bias_scale: float = 1.0,
    input_scale: float = 1.0,
    edge_scale: float = 1.0,
    order=None,
) -> tuple[GraphSpec, WeightVector]:
    """A random graph/weights pair for planted-model experiments.

    Unary bias weights, input-coupling weights, and edge weights are drawn
    from centered normals with the given scales.
    """
    if topology == "chain":
        graph = build_chain_graph(n_outputs, n_inputs, kind, order=order)
    elif topology == "full":
        graph = build_full_graph(n_outputs, n_inputs, kind, order=order)
    elif topology == "independent":
        graph = build_independent_graph(n_outputs, n_inputs, kind, order=order)
    else:
        raise DataError(f"unknown topology {topology!r}")
    rng = np.random.default_rng(seed)
    values = np.empty(graph.n_cliques, dtype=np.float64)
    for j, c in enumerate(graph.cliques):
        if len(c.outputs) >= 2:
            scale = edge_scale
        elif c.input_feature is not None:
            scale = input_scale
        else:
            scale = bias_scale
        values[j] = rng.normal(0.0, scale)
    weights = WeightVector(values=values, lam=1.0, eta0=0.0)
    return graph, weights
