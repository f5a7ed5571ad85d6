"""Output graphs over binary labels, built from parity cliques.

A clique is a set of output variables, optionally tied to one input
coordinate.  Its feature value is the product of the member labels (their
parity) times the attached input value, or times 1 when no input is attached.
A graph fixes the label count, the input dimension, a total order over the
labels, and whether cliques contribute to every member's score (undirected)
or only to the member that comes last in the order (directed).

Graphs say nothing of how the 2^K label assignments are numbered or walked;
the label grid that enumerates them lives in ``margraph.model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import GraphError

__all__ = [
    "DIRECTED",
    "UNDIRECTED",
    "Clique",
    "GraphSpec",
    "ScoreLayout",
    "build_independent_graph",
    "build_chain_graph",
    "build_full_graph",
    "GRAPH_BUILDERS",
]

DIRECTED = "directed"
UNDIRECTED = "undirected"


@dataclass(frozen=True)
class Clique:
    """A group of output variables with an optional input coupling.

    ``outputs`` is stored sorted and duplicate-free.  ``input_feature`` is
    the index of the input coordinate multiplied into the feature, or None
    for a pure label-parity feature.
    """

    outputs: tuple[int, ...]
    input_feature: int | None = None

    def __post_init__(self) -> None:
        outs = tuple(sorted(set(int(k) for k in self.outputs)))
        if not outs:
            raise GraphError("a clique needs at least one output variable")
        if any(k < 0 for k in outs):
            raise GraphError(f"negative output index in clique: {outs}")
        object.__setattr__(self, "outputs", outs)
        if self.input_feature is not None:
            d = int(self.input_feature)
            if d < 0:
                raise GraphError(f"negative input feature index: {d}")
            object.__setattr__(self, "input_feature", d)


@dataclass(frozen=True)
class ScoreLayout:
    """Node i's score terms w_j * xa[column] * parity(partners), per graph.

    ``column`` indexes xa = [1 | x] (0 for no input, d + 1 for input d).
    ``feeds[i]`` lists (clique, column, partners) in clique order;
    the single-output ("unary") terms also come as three flat index arrays,
    and ``coupled[i]`` holds node i's multi-output terms.
    """

    feeds: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]
    coupled: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]
    unary_clique: np.ndarray
    unary_column: np.ndarray
    unary_node: np.ndarray


@dataclass(frozen=True)
class GraphSpec:
    """A label graph: dimensions, node order, cliques, and coupling kind.

    ``order`` lists the label indices in evaluation order.  In a directed
    graph each clique contributes only to the score of its owner, the member
    that appears last in ``order``; in an undirected graph it contributes to
    every member's score.
    """

    n_outputs: int
    n_inputs: int
    kind: str
    order: tuple[int, ...]
    cliques: tuple[Clique, ...]

    def __post_init__(self) -> None:
        if self.n_outputs < 1:
            raise GraphError(f"need at least one output, got {self.n_outputs}")
        if self.n_inputs < 0:
            raise GraphError(f"negative input dimension: {self.n_inputs}")
        if self.kind not in (DIRECTED, UNDIRECTED):
            raise GraphError(f"kind must be {DIRECTED!r} or {UNDIRECTED!r}, got {self.kind!r}")
        order = tuple(int(i) for i in self.order)
        # the length first, so a huge declared count fails before range() is built
        if len(order) != self.n_outputs or sorted(order) != list(range(self.n_outputs)):
            raise GraphError(f"order must be a permutation of 0..{self.n_outputs - 1}, got {order}")
        object.__setattr__(self, "order", order)
        cliques = tuple(self.cliques)
        object.__setattr__(self, "cliques", cliques)
        seen: set[tuple] = set()
        for c in cliques:
            if not isinstance(c, Clique):
                raise GraphError(f"not a clique: {c!r}")
            if c.outputs[-1] >= self.n_outputs:
                raise GraphError(f"clique {c.outputs} exceeds output count {self.n_outputs}")
            if c.input_feature is not None and c.input_feature >= self.n_inputs:
                raise GraphError(
                    f"clique input feature {c.input_feature} exceeds input dimension {self.n_inputs}"
                )
            key = (c.outputs, c.input_feature)
            if key in seen:
                raise GraphError(f"duplicate clique: outputs={c.outputs} input={c.input_feature}")
            seen.add(key)

    @property
    def n_cliques(self) -> int:
        return len(self.cliques)

    @cached_property
    def layout(self) -> ScoreLayout:
        """The per-node score terms, built once per graph.

        This is the one place that routes cliques: in clique order, a
        directed clique feeds only its owner, the member that comes last in
        ``order``, and an undirected clique feeds every member.
        """
        position = {node: p for p, node in enumerate(self.order)}
        feeds: list[list] = [[] for _ in range(self.n_outputs)]
        for j, c in enumerate(self.cliques):
            column = 0 if c.input_feature is None else c.input_feature + 1
            fed = (max(c.outputs, key=position.__getitem__),) if self.kind == DIRECTED else c.outputs
            for i in fed:
                feeds[i].append((j, column, tuple(k for k in c.outputs if k != i)))
        unary = [(j, col, i) for i, f in enumerate(feeds) for j, col, partners in f if not partners]
        clique, column, node = np.array(unary, dtype=np.intp).reshape(-1, 3).T.copy()
        coupled = tuple(tuple(t for t in f if t[2]) for f in feeds)
        return ScoreLayout(tuple(tuple(f) for f in feeds), coupled, clique, column, node)

    @cached_property
    def contributing(self) -> tuple[tuple[int, ...], ...]:
        """contributing[i] = indices of cliques that feed node i's score."""
        return tuple(tuple(j for j, _, _ in f) for f in self.layout.feeds)

    def regularizer_multipliers(self, eta0: float) -> np.ndarray:
        """Per-clique quadratic penalty multipliers.

        Multi-output cliques of an undirected graph are penalized by an
        extra ``eta0`` because they appear in several node scores; all other
        cliques get multiplier 1.
        """
        if eta0 < 0:
            raise GraphError(f"negative regularizer boost: {eta0}")
        mult = np.ones(self.n_cliques, dtype=np.float64)
        if self.kind == UNDIRECTED:
            for j, c in enumerate(self.cliques):
                if len(c.outputs) >= 2:
                    mult[j] = 1.0 + eta0
        return mult


def _default_order(n_outputs: int, order) -> tuple[int, ...]:
    if order is None:
        return tuple(range(n_outputs))
    return tuple(int(i) for i in order)


def _build(n_outputs: int, n_inputs: int, kind: str, order, pairs) -> GraphSpec:
    """Every node's bias clique, then each node's input cliques node by node,
    then one clique per pair of nodes in ``pairs``."""
    cliques = [Clique((i,)) for i in range(n_outputs)]
    cliques += [Clique((i,), d) for i in range(n_outputs) for d in range(n_inputs)]
    cliques += [Clique(pair) for pair in pairs]
    return GraphSpec(n_outputs, n_inputs, kind, order, tuple(cliques))


def build_independent_graph(
    n_outputs: int, n_inputs: int, kind: str = DIRECTED, order=None
) -> GraphSpec:
    """Graph with only per-node bias and input cliques, no label coupling."""
    return _build(n_outputs, n_inputs, kind, _default_order(n_outputs, order), ())


def build_chain_graph(n_outputs: int, n_inputs: int, kind: str, order=None) -> GraphSpec:
    """Unary cliques plus pair cliques linking consecutive nodes in the order."""
    order = _default_order(n_outputs, order)
    return _build(n_outputs, n_inputs, kind, order, zip(order, order[1:]))


def build_full_graph(n_outputs: int, n_inputs: int, kind: str, order=None) -> GraphSpec:
    """Unary cliques plus one pair clique for every pair of nodes."""
    order = _default_order(n_outputs, order)
    return _build(n_outputs, n_inputs, kind, order, combinations(range(n_outputs), 2))


# Topology name -> builder, for everything that picks a graph by name.
GRAPH_BUILDERS = {
    "independent": build_independent_graph,
    "chain": build_chain_graph,
    "full": build_full_graph,
}
