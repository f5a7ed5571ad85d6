"""Output graphs over binary labels, built from parity cliques.

A clique is a set of output variables, optionally tied to one input
coordinate.  Its feature value is the product of the member labels (their
parity) times the attached input value, or times 1 when no input is attached.
A graph fixes the label count, the input dimension, a total order over the
labels, and whether cliques contribute to every member's score (undirected)
or only to the member that comes last in the order (directed).

A graph holds its cliques in one flat form, ``Cliques``: every clique's
members in one array delimited by ``indptr`` (CSR), and one input index per
clique, -1 for none.  That form is built and checked once, with NumPy, and
is canonical from then on (each clique's members sorted and duplicate-free);
``GraphSpec`` then checks the dimensions and order, and the cliques against
them.  Nothing else checks a clique: ``Clique`` is only the value of one
clique, for writing a graph by hand or reading one back, and the model
reader and the builders hand their lists straight to ``Cliques``.

A graph routes its cliques to the node scores once, in ``GraphSpec.layout``,
which holds each score term once: flat (clique, column) arrays, a node array
for the single-output terms and per-node ``partners`` for the others.

An index (a count, an order entry, a member or an input) is an ``int``
(``bool`` included) or a NumPy integer or bool scalar.  Anything else, a
float such as ``1.0`` among them, is a GraphError that names it, never
truncated.

Graphs say nothing of how the 2^K label assignments are numbered or walked;
the label grid that enumerates them lives in ``margraph.model``.  A directed
graph does find each position's frontier (the earlier labels that the rest
of the order still reads) and number its few labellings, in one place, for
the search's cost-to-go tables (``GraphSpec.frontier_codes``), and every
graph lists the score terms that each label completes
(``GraphSpec.closing``), for the depth-first search over the labels in
index order that decodes undirected graphs and opens the exhaustive
oracle.  ``GraphSpec.search_terms`` holds the terms once more as the
searches and their bound tables read them, by index into an input's flat
list of term weights, so that no search builds per-input term tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, repeat

import numpy as np

from .errors import GraphError

__all__ = [
    "DIRECTED",
    "UNDIRECTED",
    "Clique",
    "Cliques",
    "GraphSpec",
    "ScoreLayout",
    "FrontierCodes",
    "SearchTerms",
    "build_independent_graph",
    "build_chain_graph",
    "build_full_graph",
    "GRAPH_BUILDERS",
]

DIRECTED = "directed"
UNDIRECTED = "undirected"
# frontier_codes numbers the labellings of frontiers at most this wide
_FRONTIER_MAX_WIDTH = 4
_INTEGER = (int, np.integer, np.bool_)


def _index(value, what: str) -> int:
    """value as a Python int, or a GraphError naming it."""
    if not isinstance(value, _INTEGER):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _output_count(value) -> int:
    """value as a label count, or a GraphError naming it."""
    n_outputs = _index(value, "output count")
    if n_outputs < 1:
        raise GraphError(f"need at least one output, got {n_outputs}")
    return n_outputs


def _indices(values, what: str) -> np.ndarray:
    """A list of indices as an intp array, or as an object array when some
    do not fit one (such an index is out of range for any graph); a value
    that is not an integer is a GraphError naming it."""
    arr = np.array(values)
    if arr.ndim == 1 and arr.dtype.kind in "biu":
        out = arr.astype(np.intp)
        if arr.dtype.kind != "u" or (out >= 0).all():
            return out
    for v in values:
        _index(v, what)
    return np.array(values, dtype=object) if len(values) else np.zeros(0, dtype=np.intp)


@dataclass(frozen=True)
class Clique:
    """One clique as a value: its output variables, and the index of the
    input coordinate multiplied into its feature, or None for a pure
    label-parity feature.

    A Clique is not checked on its own.  A graph checks and canonicalises
    its cliques, and the cliques read back from one have sorted,
    duplicate-free ``outputs``.
    """

    outputs: tuple[int, ...]
    input_feature: int | None = None


class Cliques:
    """A graph's cliques in one flat form, checked once, when built.

    Clique j's members are ``members[indptr[j]:indptr[j + 1]]``, sorted and
    duplicate-free, and ``inputs[j]`` is its input coordinate, -1 for none.
    The arrays are read-only and intp (object only when some index does not
    fit one, which no graph accepts).  Indexing and iterating give
    ``Clique`` values, a slice the list of them, and two forms are equal
    when their arrays are.

    Built from ``sizes`` (each clique's member count), every clique's
    members in a row, and one input per clique (None for none).  The first
    clique, in clique order, with no member, a negative member or a
    negative input is refused with that fault; ranges and duplicates are
    checked by the graph (``GraphSpec``), against its dimensions.
    """

    __slots__ = ("indptr", "members", "inputs")

    def __init__(self, sizes, members, inputs) -> None:
        sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
        members = _indices(members, "clique member")
        given = list(map(operator.is_not, inputs, repeat(None)))
        features = _indices(list(compress(inputs, given)), "clique input feature")
        given = np.array(given, dtype=bool).reshape(-1)
        n = len(given)
        inputs = np.full(n, -1, dtype=features.dtype)
        inputs[given] = features
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        clique_of = np.repeat(np.arange(n), sizes)
        fault = (sizes < 1) | (given & (inputs < 0))
        fault[clique_of[members < 0]] = True
        if fault.any():
            j = int(np.argmax(fault))
            outs = tuple(sorted(set(map(int, members[indptr[j] : indptr[j + 1]].tolist()))))
            if not outs:
                raise GraphError("a clique needs at least one output variable")
            if outs[0] < 0:
                raise GraphError(f"negative output index in clique: {outs}")
            raise GraphError(f"negative input feature index: {int(inputs[j])}")
        members = members[np.lexsort((members, clique_of))]
        keep = np.ones(len(members), dtype=bool)
        keep[1:] = members[1:] != members[:-1]
        keep[indptr[:-1]] = True
        members = members[keep]
        indptr[1:] = np.cumsum(keep)[indptr[1:] - 1]
        self.indptr, self.members, self.inputs = indptr, members, inputs
        for arr in (self.indptr, self.members, self.inputs):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, j) -> Clique | list[Clique]:
        j = range(len(self))[j]
        if isinstance(j, range):
            return list(map(self.__getitem__, j))
        d = int(self.inputs[j])
        return Clique(tuple(self.members[self.indptr[j] : self.indptr[j + 1]].tolist()), None if d < 0 else d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cliques):
            return NotImplemented
        return all(map(np.array_equal, self._arrays(), other._arrays()))

    def __hash__(self) -> int:
        return hash(tuple(a.tobytes() for a in self._arrays()))

    def __repr__(self) -> str:
        return f"Cliques({list(self)!r})"

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.indptr, self.members, self.inputs


def _cliques_of(values) -> Cliques:
    """The flat form of a sequence of ``Clique`` values."""
    values = tuple(values)
    bad = next((c for c in values if not isinstance(c, Clique)), None)
    if bad is not None:
        raise GraphError(f"not a clique: {bad!r}")
    outputs = [tuple(c.outputs) for c in values]
    return Cliques(list(map(len, outputs)), list(chain.from_iterable(outputs)), [c.input_feature for c in values])


@dataclass(frozen=True)
class ScoreLayout:
    """Node i's score terms w_j * xa[column] * parity(partners), each held
    once, node by node and in clique order within a node.

    ``column`` indexes xa = [1 | x] (0 for no input, d + 1 for input d).
    The single-output ("unary") terms are three flat arrays; the others'
    cliques and columns are two flat arrays, and ``partners[i]`` holds the
    partners of node i's ``len(partners[i])`` terms among them.
    """

    partners: tuple[tuple[tuple[int, ...], ...], ...]
    unary_clique: np.ndarray
    unary_column: np.ndarray
    unary_node: np.ndarray
    coupled_clique: np.ndarray
    coupled_column: np.ndarray


@dataclass(frozen=True)
class FrontierCodes:
    """Entries for tables over the labellings of each position's frontier.

    Position p's frontier F_p (see ``GraphSpec.frontier_codes``) is labelled
    by a code f < 2^len(F_p) whose bit b is set when F_p[b] is -1.  Entries
    run by position, then by code, the last one for position K's empty
    frontier; ``node[e]`` is order[p] for position p's entries e.
    Row t of ``slot`` and ``sign`` gives that node's t-th coupled term: its
    index among all coupled terms listed node by node (one past the last for
    a node with fewer terms) and the parity of its partners under the
    labelling (1.0 for a missing term).  ``step[2e + b]`` is twice the entry
    of position p + 1 reached by labelling order[p] +1 (b = 0) or -1 (b = 1).
    """

    node: np.ndarray
    slot: np.ndarray
    sign: np.ndarray
    step: tuple[int, ...]


@dataclass(frozen=True)
class SearchTerms:
    """The coupled score terms as the searches read them, built once per
    graph (``GraphSpec.search_terms``).

    Node i's t-th coupled term, with partners ``layout.partners[i][t]``, is
    entry j = (node i's first entry) + t of the layout's coupled arrays, and
    of the flat list of one input's coupled w_eff (``model.compile_scorer``
    sums them in the same order).  ``nodes[i]`` lists node i's terms as (j,
    partners).  ``steps[k]`` lists as (i, j, partners) the terms that label
    k closes, in ``GraphSpec.closing`` order, and ``checks[k]`` pairs each
    node whose bound label k can change with c, the entry of its margin
    bound in the flat list of every label's checks.

    The arrays index the bound tables that ``inference._closing_table``
    builds for many inputs at once; T (the coupled term count) stands for a
    missing term.  Row i of ``term_slot`` lists node i's j in term order,
    and row i of ``closing_slot`` in the order its terms close.
    ``check_node`` and ``check_entry`` give each check's node and its entry
    in the flattened (K, L + 1) open sums, L the widest row: node i's open
    sum after label k is entry i (L + 1) + (its terms closed by then).
    """

    nodes: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    steps: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]
    term_slot: np.ndarray
    closing_slot: np.ndarray
    check_node: np.ndarray
    check_entry: np.ndarray


@dataclass(frozen=True)
class GraphSpec:
    """A label graph: dimensions, node order, cliques, and coupling kind.

    ``order`` lists the label indices in evaluation order.  In a directed
    graph each clique contributes only to the score of its owner, the member
    that appears last in ``order``; in an undirected graph it contributes to
    every member's score.

    ``cliques`` is the flat ``Cliques`` form; a sequence of ``Clique``
    values is converted to it.  The check runs in the order a reader meets
    the faults: a clique's own faults (when its form is built), then the
    dimensions, kind and order, then the first clique whose largest member
    or input is out of range or whose (members, input) repeats an earlier
    clique's.
    """

    n_outputs: int
    n_inputs: int
    kind: str
    order: tuple[int, ...]
    cliques: Cliques

    def __post_init__(self) -> None:
        cliques = self.cliques if isinstance(self.cliques, Cliques) else _cliques_of(self.cliques)
        n_outputs = _output_count(self.n_outputs)
        n_inputs = _index(self.n_inputs, "input dimension")
        if n_inputs < 0:
            raise GraphError(f"negative input dimension: {n_inputs}")
        if self.kind not in (DIRECTED, UNDIRECTED):
            raise GraphError(f"kind must be {DIRECTED!r} or {UNDIRECTED!r}, got {self.kind!r}")
        order = tuple(_index(i, "order entry") for i in self.order)
        # the length first, so a huge declared count fails before range() is built
        if len(order) != n_outputs or sorted(order) != list(range(n_outputs)):
            raise GraphError(f"order must be a permutation of 0..{n_outputs - 1}, got {order}")
        for name, value in (("n_outputs", n_outputs), ("n_inputs", n_inputs), ("order", order), ("cliques", cliques)):
            object.__setattr__(self, name, value)
        indptr, members, inputs = cliques.indptr, cliques.members, cliques.inputs
        n = len(cliques)
        out = (members[indptr[1:] - 1] >= n_outputs) | (inputs >= n_inputs)
        # duplicates among the cliques before the first one out of range:
        # equal rows (size, input, members padded with -1) sort next to each
        # other, and the sort is stable, so the later of two is the repeat
        n_in = int(np.argmax(out)) if out.any() else n
        sizes = np.diff(indptr[: n_in + 1])
        rows = np.full((n_in, 2 + int(sizes.max(initial=0))), -1, dtype=np.intp)
        rows[:, 0], rows[:, 1] = sizes, inputs[:n_in]
        clique_of = np.repeat(np.arange(n_in), sizes)
        rows[clique_of, 2 + np.arange(len(clique_of)) - indptr[clique_of]] = members[: len(clique_of)]
        key = np.lexsort(rows.T[::-1])
        repeats = key[1:][(rows[key[1:]] == rows[key[:-1]]).all(axis=1)]
        j = int(repeats.min(initial=n_in))
        if j == n:
            return
        c = cliques[j]
        if j < n_in:
            raise GraphError(f"duplicate clique: outputs={c.outputs} input={c.input_feature}")
        if c.outputs[-1] >= n_outputs:
            raise GraphError(f"clique {c.outputs} exceeds output count {n_outputs}")
        raise GraphError(f"clique input feature {c.input_feature} exceeds input dimension {n_inputs}")

    @property
    def n_cliques(self) -> int:
        return len(self.cliques)

    @cached_property
    def layout(self) -> ScoreLayout:
        """The per-node score terms, built once per graph.

        This is the one place that routes cliques: in clique order, a
        directed clique feeds only its owner, the member that comes last in
        ``order``, and an undirected clique feeds every member.  Single-output
        cliques, nearly all of a wide graph's, are routed by NumPy.
        """
        K = self.n_outputs
        indptr, members, column = self.cliques.indptr, self.cliques.members, self.cliques.inputs + 1
        sizes = np.diff(indptr)
        unary = np.flatnonzero(sizes == 1)
        node = members[indptr[unary]]
        by_node = np.argsort(node, kind="stable")
        unary, node = unary[by_node], node[by_node]
        coupled: list[list] = [[] for _ in range(K)]
        position = {i: p for p, i in enumerate(self.order)}
        for j in np.flatnonzero(sizes > 1).tolist():
            outs = members[indptr[j] : indptr[j + 1]].tolist()
            fed = (max(outs, key=position.__getitem__),) if self.kind == DIRECTED else outs
            for i in fed:
                coupled[i].append((j, tuple(k for k in outs if k != i)))
        clique = np.array([j for terms in coupled for j, _ in terms], dtype=np.intp)
        partners = tuple(tuple(p for _, p in terms) for terms in coupled)
        return ScoreLayout(partners, unary, column[unary], node, clique, column[clique])

    @cached_property
    def contributing(self) -> tuple[tuple[int, ...], ...]:
        """contributing[i] = indices of cliques that feed node i's score."""
        layout = self.layout
        K = self.n_outputs
        node = np.concatenate((layout.unary_node, np.repeat(np.arange(K), list(map(len, layout.partners)))))
        clique = np.concatenate((layout.unary_clique, layout.coupled_clique))
        clique = clique[np.lexsort((clique, node))].tolist()
        ends = np.cumsum(np.bincount(node, minlength=K)).tolist()
        return tuple(tuple(clique[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def frontier_codes(self) -> FrontierCodes | None:
        """Every frontier labelling of a directed graph as a table entry, or
        None when some frontier holds more than _FRONTIER_MAX_WIDTH labels.

        Position p's frontier F_p, for p = 0..K, lists by position the nodes
        before p in ``order`` that node order[p] or a later node reads: a
        search standing at position p needs exactly these labels to score
        the rest of the order, and F_0 and F_K are empty.  Position p has
        2^len(F_p) entries, so the cap keeps the tables over them a few
        entries per position.
        """
        if self.kind != DIRECTED:
            raise GraphError("frontier codes need a directed graph")
        K = self.n_outputs
        partners = self.layout.partners
        position = {node: p for p, node in enumerate(self.order)}
        reads: set[int] = set()
        frontiers = [()] * (K + 1)
        for p in range(K - 1, -1, -1):
            reads.update(chain.from_iterable(partners[self.order[p]]))
            frontiers[p] = tuple(sorted((k for k in reads if position[k] < p), key=position.__getitem__))
        if max(map(len, frontiers)) > _FRONTIER_MAX_WIDTH:
            return None
        first = np.cumsum([0] + list(map(len, partners))).tolist()
        offset = np.cumsum([0] + [1 << len(f) for f in frontiers[:K]]).tolist()
        n_entries = offset[K]
        node = np.zeros(n_entries, dtype=np.intp)
        slot = np.full((max(map(len, partners)), n_entries), first[K], dtype=np.intp)
        sign = np.ones(slot.shape)
        step = [2 * n_entries] * (2 * n_entries)
        for p, i in enumerate(self.order):
            bit = {k: b for b, k in enumerate(frontiers[p])}
            for f in range(1 << len(frontiers[p])):
                e = offset[p] + f
                node[e] = i
                for t, others in enumerate(partners[i]):
                    slot[t, e] = first[i] + t
                    if sum(f >> bit[k] & 1 for k in others) & 1:
                        sign[t, e] = -1.0
                for b in (0, 1):
                    code = 0
                    for c, k in enumerate(frontiers[p + 1]):
                        code |= (b if k == i else f >> bit[k] & 1) << c
                    step[2 * e + b] = 2 * (offset[p + 1] + code)
        return FrontierCodes(node, slot, sign, tuple(step))

    @cached_property
    def closing(self) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
        """closing[k] = (terms, nodes) for each label k, for the search that
        sets the labels in index order (``inference._index_search``).

        ``terms`` lists (i, t), node by node, for node i's t-th coupled term
        (partners ``layout.partners[i][t]``) whose last partner in index
        order is k: setting label k fixes that term's parity.  ``nodes`` holds
        k and the nodes of those terms, ascending: the nodes whose loss bound
        setting label k can change.
        """
        closed: list[list[tuple[int, int]]] = [[] for _ in range(self.n_outputs)]
        for i, terms in enumerate(self.layout.partners):
            for t, partners in enumerate(terms):
                closed[max(partners)].append((i, t))
        return tuple((tuple(c), tuple(sorted({k, *(i for i, _ in c)}))) for k, c in enumerate(closed))

    @cached_property
    def search_terms(self) -> SearchTerms:
        """The coupled terms by their index among all coupled terms, for the
        searches and their bound tables (see ``SearchTerms``)."""
        K = self.n_outputs
        partners = self.layout.partners
        counts = list(map(len, partners))
        first = list(accumulate(counts, initial=0))
        T, L = first[K], max(counts)
        nodes = tuple(tuple(zip(range(first[i], first[i + 1]), terms)) for i, terms in enumerate(partners))
        closed: list[list[int]] = [[] for _ in range(K)]  # each node's j in closing order
        steps, checks, check_node, check_entry = [], [], [], []
        for terms, touched in self.closing:
            step = tuple((i, first[i] + t, partners[i][t]) for i, t in terms)
            for i, j, _ in step:
                closed[i].append(j)
            steps.append(step)
            checks.append(tuple(zip(touched, range(len(check_node), len(check_node) + len(touched)))))
            check_node += touched
            check_entry += [i * (L + 1) + len(closed[i]) for i in touched]
        arrays = (
            np.array([[*range(first[i], first[i + 1]), *[T] * (L - counts[i])] for i in range(K)], dtype=np.intp),
            np.array([[*js, *[T] * (L - len(js))] for js in closed], dtype=np.intp),
            np.array(check_node, dtype=np.intp),
            np.array(check_entry, dtype=np.intp),
        )
        for arr in arrays:
            arr.flags.writeable = False
        return SearchTerms(nodes, tuple(steps), tuple(checks), *arrays)


def _default_order(n_outputs, order) -> tuple:
    n_outputs = _index(n_outputs, "output count")
    return tuple(range(n_outputs)) if order is None else tuple(order)


def _build(n_outputs: int, n_inputs: int, kind: str, order, pairs) -> GraphSpec:
    """Every node's bias clique, then each node's input cliques node by node,
    then one clique per pair of nodes in ``pairs``."""
    # a negative count builds no cliques; the graph refuses it
    K, D = max(int(n_outputs), 0), max(_index(n_inputs, "input dimension"), 0)
    pairs = list(chain.from_iterable(pairs))
    n_pairs = len(pairs) // 2
    members = list(range(K)) + [i for i in range(K) for _ in range(D)] + pairs
    inputs = [None] * K + list(range(D)) * K + [None] * n_pairs
    cliques = Cliques([1] * (K + K * D) + [2] * n_pairs, members, inputs)
    return GraphSpec(n_outputs, n_inputs, kind, order, cliques)


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
