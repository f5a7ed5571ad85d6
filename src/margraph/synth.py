"""Synthetic data sampled exactly from planted models.

Each row's inputs are drawn i.i.d. standard normal from the config's seed
(a graph with no inputs draws nothing, leaving the generator as it was);
the labels are then sampled given the inputs.  Directed models are sampled
ancestrally along the node order; undirected models by inverting the
cumulative 2^K table of each input.  Those tables come from the energy
identity E(y) = (1/2) sum_i z_i(y) = sum_S coef_S(x) * parity_S(y) over
clique output sets S: one matmul per block of inputs, over a parity matrix
that covers the low bits of the assignment index, with higher chunks
flipping coefficient signs (see ``margraph.model``).  Both samplers are
exact (no MCMC), so empirical frequencies can be tested against the model's
own likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, GraphError
from .graphs import DIRECTED, GRAPH_BUILDERS, UNDIRECTED, GraphSpec
from .model import (
    TABLE_MAX_OUTPUTS,
    WeightVector,
    _check_enum_size,
    _check_int,
    _check_real,
    _check_seed,
    _check_weight_count,
    _ParityEnergy,
    batch_scorer,
    signs_of_indices,
)

__all__ = ["SynthConfig", "sample_sbn", "sample_bm", "planted_model"]

_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SynthConfig:
    """Planted model plus sampling parameters."""

    graph: GraphSpec
    weights: WeightVector
    n_instances: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int(self.n_instances, "n_instances", 1)
        _check_seed(self.seed)
        _check_weight_count(self.graph, self.weights)


def sample_sbn(config: SynthConfig) -> Dataset:
    """Ancestral sampling along the order: y_i = +1 with probability
    sigmoid(s_i), where s_i depends on the earlier labels."""
    graph = config.graph
    if graph.kind != DIRECTED:
        raise GraphError("ancestral sampling needs a directed graph")
    rng = np.random.default_rng(config.seed)
    n = config.n_instances
    X = rng.standard_normal((n, graph.n_inputs))
    Y = np.zeros((n, graph.n_outputs), dtype=np.int8)
    scorer = batch_scorer(graph, config.weights, X)
    for node in graph.order:
        s = scorer.score_column(node, Y)
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
    _check_enum_size(graph.n_outputs, TABLE_MAX_OUTPUTS, "exact sampling")
    rng = np.random.default_rng(config.seed)
    n = config.n_instances
    X = rng.standard_normal((n, graph.n_inputs))
    u = rng.random(n)
    energy = _ParityEnergy(graph, config.weights)
    if (graph.cliques.inputs >= 0).any():
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
) -> tuple[GraphSpec, WeightVector]:
    """A random graph/weights pair, in index order, for planted-model experiments.

    ``topology`` names a builder of ``GRAPH_BUILDERS``.  Unary bias weights,
    input-coupling weights, and edge weights are drawn from centered normals
    with the given scales, each finite and non-negative (0 plants zeros).
    """
    if topology not in GRAPH_BUILDERS:
        raise DataError(f"unknown topology {topology!r}")
    _check_seed(seed)
    for name, scale in (("bias", bias_scale), ("input", input_scale), ("edge", edge_scale)):
        _check_real(scale, f"{name} scale")
        if not (0 <= scale < math.inf):
            raise DataError(f"{name} scale must be finite and non-negative, got {scale}")
    graph = GRAPH_BUILDERS[topology](n_outputs, n_inputs, kind)
    scales = np.where(
        np.diff(graph.cliques.indptr) >= 2,
        edge_scale,
        np.where(graph.cliques.inputs < 0, bias_scale, input_scale),
    )
    values = np.random.default_rng(seed).normal(0.0, scales)
    return graph, WeightVector(values=values, lam=1.0, eta0=0.0)
