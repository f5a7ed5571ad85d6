"""MAP prediction: branch-and-bound for both model kinds, and the exhaustive
oracle.  Both minimize the joint hinge loss sum_i max(0, 1 - z_i) over
label assignments, exactly.

On a directed graph the search walks nodes in graph order.  It tries the
locally best label first (cost max(0, 1 - |s_i|)) and the opposite label
second (cost 1 + |s_i|, always at least 1), pruning any prefix whose
partial sum already reaches the current upper bound.  Since every opposite-label step costs at
least 1, an initial upper bound of S confines the search to prefixes with
fewer than S such steps.

It also prunes on the cost still to come.  Whatever its partners' labels,
node i's |s_i| is at most M_i = |const_i| + sum |w_eff| over its terms, so
it costs at least max(0, 1 - M_i).  M_i is summed in the score's term
order, so monotone rounding keeps this bound at or below the float cost
itself.  A prefix is pruned when its partial sum plus the bounds of the
nodes after it reaches upper * (1 + 4 K 2^-52); the relative slack covers
the bound being summed in a different order from the leaf total, so no leaf
strictly under the upper bound is ever cut.  The search only prunes more:
labels, objectives and statuses are those of the search without the bound,
and only the state counts fall.

On a graph whose frontiers are narrow the search prunes on the exact cost
still to come instead (bucket elimination along the order, used as a search
heuristic: Dechter 1999, Kask and Dechter 2001).  Position p's frontier
holds the earlier nodes that p or a later node reads; a backward DP
tabulates h_p, the least cost of positions p.. for each labelling of that
frontier, from the same per-node costs the search adds, and the search
prunes on partial + h_{p+1} with the same slack.  Each h_p is at least the
static bound (the same monotone rounding), and the optimum's backward sum
stays within the slack of its forward one, so the first minimizer in
search order is never cut and labels, objectives and statuses stay those
of the static search, which visits every state the tabled search visits.
Every row's bound table is built before its one pass, and the greedy
fallback reads it too: the cost-to-go table (``_cost_to_go``) when
``GraphSpec.frontier_codes`` exists (every frontier at most a few labels
wide), the static bound's width-0 table (``_static_table``) otherwise.
``BBConfig(cost_to_go=False)`` keeps the static bound: the ``bench`` sweeps
measure the search that the ``1 - loss/S`` guarantee and the
trained-versus-random contrast are about, and exact tables make random
models cheap too.

A chunk of rows is decoded from one compile (``bb_infer_chunk``,
``exhaustive_infer_chunk``; ``bb_infer`` and ``exhaustive_infer`` are the
chunk of one row).  ``model._compile`` folds the chunk's inputs into a
const (n, K) and a coupled w_eff (n, T) array, and the NumPy half of every
row's table, the node costs of ``_cost_to_go`` and the margin bounds of
``_closing_table``, is built for the whole chunk in one pass, from the
graph's term structure (``GraphSpec.search_terms``) and the rows' weights,
with the bits of the scalar build.  Each row is then searched on two plain
Python lists, its const and its w_eff, the search reading w_eff[j] for the
term at flat index j, so no search builds per-row term tuples; only a row
that the exhaustive oracle enumerates gets a ``NodeScorer``.  The directed
greedy fallback, the locally best label at every node, is the first
all-left dive.

On an undirected graph a node's score reads all its partners.  There
``_index_search`` sets the labels in index order and bounds each node's
loss from the labels set so far: with A_i = const_i plus the terms whose
partners are all set (``GraphSpec.closing``), added as they close, and R_i
the sum of |w_eff| over the other terms, node i's margin is at most
y_i A_i + R_i (|A_i| + R_i while y_i is unset), so its loss is at least
(1 - slack_i - R_i) - y_i A_i, with slack_i = 4 (n_i + 1) max(M_i, 1) 2^-52
for its n_i terms.  The float margin, A_i and R_i, each a sum of at most
2 n_i terms of magnitude at most M_i, are off by at most n_i, n_i and
2 n_i times 2^-53 M_i; forming 1 - slack_i - R_i, the bound and the leaf's
node loss rounds by at most 7 max(M_i, 1) 2^-53 more, under slack_i in
all, so each bound is at most every completion's node loss.  A node keeps
the largest bound met on its path.  A label is pruned when the bounds' sum
reaches the limit upper / (1 - 4 K 2^-52), which covers the rounding of
that sum, of the leaf's and of the division.  A leaf sums ``_node_loss`` in
graph order, the bits of ``NodeScorer.grid_sums``, and a zero-loss leaf
ends the search.
``bb_infer`` tries each label's greedy sign (that of its A_k) first, and
its fallback is that first dive.

The exhaustive oracle returns the first minimizer in index order
(``model.signs_of_indices``: label 0 on the high bit, +1 before -1).  A
joint loss is never below 0, so the first assignment in that order of loss
exactly 0.0 is that minimizer.  The index-order search with +1 first and
cutoff ``math.ulp(0.0)`` finds it, pruning a label once some node's margin
cannot reach 1; this zero-loss pass sets at most ``_pass_budget(K)`` =
max(2K, 2^K / 32) labels, counting pruned ones.  A pass label costs a few
µs against under half a µs per enumerated assignment at K = 16, so a row
that exhausts the budget takes about 1.4 times as long as enumeration
alone; 2K lets one dive try both labels at every depth.  A row whose pass
finds no zero-loss leaf is enumerated on the label grid of
``NodeScorer.grid_sums``.

The searches and the exhaustive oracle accumulate losses with the same
floating-point operations in the same order, so their objectives agree
bit-for-bit, never merely within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graphs import DIRECTED, FrontierCodes, GraphSpec
from .model import (
    ENUM_MAX_OUTPUTS,
    WeightVector,
    _augmented,
    _check_enum_size,
    _check_int,
    _check_real,
    _compile,
    _row_scorer,
    signs_of_indices,
)

__all__ = [
    "STATUS_OPTIMAL",
    "STATUS_BUDGET",
    "STATUS_FALLBACK",
    "BBConfig",
    "InferenceResult",
    "bb_infer",
    "bb_infer_chunk",
    "exhaustive_infer",
    "exhaustive_infer_chunk",
]

STATUS_OPTIMAL = "proven_optimal"
STATUS_BUDGET = "budget_exceeded"
STATUS_FALLBACK = "no_solution_under_S_fallback"


def _check_cutoff(cutoff) -> None:
    """Refuse a search cutoff that is not a number of at least 1."""
    _check_real(cutoff, "cutoff")
    if not (cutoff >= 1.0):
        raise DataError(f"cutoff must be at least 1, got {cutoff}")


@dataclass(frozen=True)
class BBConfig:
    """Search knobs: initial upper bound, state budget, ``escalate`` (no
    cutoff at all, the same search as ``cutoff=math.inf``), and whether a
    directed graph with narrow frontiers is searched on cost-to-go tables
    (off keeps the static bound, the search the paper analyses; an
    undirected graph has no such tables and ignores it)."""

    cutoff: float = 1e9
    max_states: int | None = None
    escalate: bool = False
    cost_to_go: bool = True

    def __post_init__(self) -> None:
        _check_cutoff(self.cutoff)
        if self.max_states is not None:
            _check_int(self.max_states, "max_states", 1)


@dataclass(frozen=True)
class InferenceResult:
    """Predicted labels with the achieved loss and search accounting.

    ``objective`` is always the joint loss of ``labels``.  ``states_visited``
    counts the branches taken by the directed search, the label settings of
    the index-order search, pruned ones included (undirected ``bb_infer``),
    and for ``exhaustive_infer`` the zero-loss pass's label settings, plus
    2^K when the row was enumerated.
    """

    labels: np.ndarray
    objective: float
    states_visited: int
    status: str


def _cost_to_go(codes: FrontierCodes, const: np.ndarray, coupled: np.ndarray) -> list[list[float]]:
    """Each row's h, h[2e] the least cost of the positions from p on, given
    entry e's labelling of position p's frontier (see
    ``GraphSpec.frontier_codes``); const and coupled are ``_compile``'s.

    Every row's per-node costs come from one NumPy pass over the chunk:
    each node score adds ±w_eff to its constant in term order, and each
    cost is the search's max(0, 1 - |s|) or 1 + |s|, so every per-node cost
    has the bits the search gives it.  Then a backward DP per row: h[2e] is
    the smaller over order[p]'s two labels of that label's cost plus h at
    the entry it steps to, and position K's entry holds 0.0.
    """
    w = np.concatenate((coupled, np.zeros((len(coupled), 1))), axis=1)
    s = const[:, codes.node]
    for slot, sign in zip(codes.slot, codes.sign):
        s = s + w[:, slot] * sign
    a = np.abs(s)
    near = np.maximum(1.0 - a, 0.0)
    far = 1.0 + a
    up = s >= 0.0
    cost = np.stack((np.where(up, near, far), np.where(up, far, near)), axis=2)
    costs = cost.reshape(len(s), 2 * s.shape[1]).tolist()
    step = codes.step
    tables = []
    for cost in costs:
        h = [0.0] * (len(cost) + 1)
        for k in range(len(cost) - 2, -1, -2):
            u = cost[k] + h[step[k]]
            v = cost[k + 1] + h[step[k + 1]]
            h[k] = u if u <= v else v
        tables.append(h)
    return tables


def _static_table(graph: GraphSpec, const: list, w: list) -> tuple[list[int], list[float]]:
    """The width-0 table (step, bound) of one row: position p's one entry is
    entry p, and bound[2p] = bound[2p + 1] is the sum over positions q > p
    of max(0, 1 - M_q), where M_q bounds |s| of node order[q] whatever its
    partners' labels (see the module docstring)."""
    K = graph.n_outputs
    nodes = graph.search_terms.nodes
    bound = [0.0] * (2 * K)
    rest = 0.0
    for p in range(K - 1, 0, -1):
        node = graph.order[p]
        m = abs(const[node])
        for j, _ in nodes[node]:
            m += abs(w[j])
        rest += 1.0 - m if m < 1.0 else 0.0
        bound[2 * p - 2] = bound[2 * p - 1] = rest
    return [2 * p + 2 for p in range(K) for _ in (0, 1)], bound


def _search(graph: GraphSpec, const: list, w: list, cutoff: float, budget, table):
    """One depth-first pass over one row.  Returns (incumbent or None,
    objective, states, hit_budget).

    Entering position p adds node order[p]'s terms (``SearchTerms.nodes``,
    each w[j] of the row's coupled list) to its constant on plain Python
    lists and floats, in the same order as ``NodeScorer.score_column``.  A
    branch is pruned when its partial sum reaches the upper bound, or when
    that sum plus ``bound[key]``, a lower bound on the cost of the positions
    after p, reaches the upper bound times the rounding slack (see the
    module docstring); both limits drop with each new incumbent.

    ``table`` = (step, bound), built once per chunk from the graph's term
    structure and each row's weights: key = 2e + b for entry e and
    order[p]'s label b (0 for +1, 1 for -1), and ``step[key]`` is the next
    position's entry, doubled.  With an infinite cutoff and a budget of K
    states the pass is the greedy all-left dive and nothing more, which is
    the fallback ``bb_infer`` returns.
    """
    K = graph.n_outputs
    order = graph.order
    nodes = graph.search_terms.nodes
    terms = [nodes[node] for node in order]
    step, bound = table
    slack = 1.0 + 4 * K * 2.0**-52
    y = [0] * K
    partial = [0.0] * (K + 1)
    left_label = [0] * K
    left_key = [0] * K
    left_cost = [0.0] * K
    right_cost = [0.0] * K
    tried = [0] * K
    upper = float(cutoff)
    limit = upper * slack
    incumbent = None
    incumbent_obj = 0.0
    states = 0
    p = 0
    base = 0
    while True:
        # enter position p: score its node given the labels above it
        s = const[order[p]]
        for j, others in terms[p]:
            parity = 1
            for k in others:
                if y[k] < 0:
                    parity = -parity
            s += w[j] if parity > 0 else -w[j]
        if s >= 0.0:
            left_label[p] = 1
            left_key[p] = base
            a = s
        else:
            left_label[p] = -1
            left_key[p] = base + 1
            a = -s
        c = 1.0 - a
        left_cost[p] = c if c > 0.0 else 0.0
        right_cost[p] = 1.0 + a
        tried[p] = 0
        # take the next untried branch, backtracking past exhausted positions
        while True:
            t = tried[p]
            if t == 2:
                if p == 0:
                    return incumbent, incumbent_obj, states, False
                p -= 1
                continue
            tried[p] = t + 1
            if t == 0:
                label = left_label[p]
                total = partial[p] + left_cost[p]
                key = left_key[p]
            else:
                label = -left_label[p]
                total = partial[p] + right_cost[p]
                key = left_key[p] ^ 1
            if total >= upper or total + bound[key] >= limit:
                continue
            if budget is not None and states >= budget:
                return incumbent, incumbent_obj, states, True
            states += 1
            y[order[p]] = label
            if p < K - 1:
                break
            # complete assignment strictly under the current bound
            upper = total
            limit = upper * slack
            incumbent = np.array(y, dtype=np.int8)
            incumbent_obj = total
        p += 1
        partial[p] = total
        base = step[key]


def bb_infer(graph: GraphSpec, weights: WeightVector, x, config: BBConfig | None = None) -> InferenceResult:
    """Branch-and-bound minimizer of the joint hinge loss for one input: the
    chunk of one row of ``bb_infer_chunk``.

    With a large enough cutoff the result is the exact minimizer.  A
    directed graph is searched in graph order (``_search``), where the
    ``branch_budget`` and ``1 - loss/S`` bounds hold, an undirected one in
    index order (``_index_search``), where the cutoff is only a starting
    bound; either way in one pass, on a table built before it (see the
    module docstring).  ``escalate`` searches with no cutoff.  If no
    assignment has loss under the cutoff, the greedy assignment (the first
    dive) is returned (status no_solution_under_S_fallback).  If the state
    budget runs out first, the best assignment seen so far (or the greedy
    one) is returned with status budget_exceeded.
    """
    return _bb_chunk(graph, weights, _augmented(graph, weights, x, 1)[None], config)[0]


def bb_infer_chunk(
    graph: GraphSpec, weights: WeightVector, X, config: BBConfig | None = None
) -> list[InferenceResult]:
    """``bb_infer`` on every row of the (n, D) inputs X, with the same
    labels, objectives, states and statuses, bit for bit.

    The chunk is compiled once (``model._compile``) and the NumPy half of
    every row's bound table is built for the whole chunk; each row then
    runs the scalar search on its own const and w_eff lists.
    """
    return _bb_chunk(graph, weights, _augmented(graph, weights, X, 2), config)


def _bb_chunk(graph: GraphSpec, weights: WeightVector, Xa: np.ndarray, config: BBConfig | None):
    config = config or BBConfig()
    const, coupled, rows = _compile(graph, weights, Xa)
    if graph.kind == DIRECTED:
        search = _search
        codes = graph.frontier_codes if config.cost_to_go else None
        if codes is None:
            tables = [_static_table(graph, c, w) for c, w in rows]
        else:
            step = codes.step
            tables = [(step, [h[k] for k in step]) for h in _cost_to_go(codes, const, coupled)]
    else:
        search = _index_search
        tables = [(needs, True) for needs in _closing_table(graph, const, coupled)]
    cutoff = math.inf if config.escalate else float(config.cutoff)
    results = []
    for (c, w), table in zip(rows, tables):
        y, obj, states, hit_budget = search(graph, c, w, cutoff, config.max_states, table)
        if y is not None:
            status = STATUS_BUDGET if hit_budget else STATUS_OPTIMAL
        else:
            # the greedy fallback: with no cutoff and K states, the first dive
            y, obj, _, _ = search(graph, c, w, math.inf, graph.n_outputs, table)
            status = STATUS_BUDGET if hit_budget else STATUS_FALLBACK
        results.append(InferenceResult(y, obj, states, status))
    return results


def _pass_budget(K: int) -> int:
    """The zero-loss pass's state budget: 2^K / 32, and never below 2K."""
    return max(2 * K, (1 << K) >> 5)


def _closing_table(graph: GraphSpec, const: np.ndarray, coupled: np.ndarray) -> list[list[float]]:
    """Each row's margin bounds for the index-order search, from
    ``_compile``'s const and coupled: entry c of a row's list, for the
    check (i, c) in ``SearchTerms.checks[k]``, is the bound node i's margin
    needs once label k is set, 1 - slack_i - R_i, with R_i summing |w_eff|
    over the terms still open then (see the module docstring).

    Built for the chunk in one NumPy pass, in the scalar loop's order: R_i
    sums |w_eff| from 0.0 in term order, and each open sum is a cumsum from
    R_i then -|w_eff| in closing order, so every bound keeps its bits.
    """
    terms = graph.search_terms
    n, K = const.shape
    a = np.abs(np.concatenate((coupled, np.zeros((n, 1))), axis=1))
    r = np.zeros((n, K))
    for slot in terms.term_slot.T:
        r = r + a[:, slot]
    counts = np.array(list(map(len, terms.nodes)))
    floor = 1.0 - 4 * (counts + 1) * np.maximum(np.abs(const) + r, 1.0) * 2.0**-52
    open_sums = np.cumsum(np.concatenate((r[:, :, None], -a[:, terms.closing_slot]), axis=2), axis=2)
    open_sums = open_sums.reshape(n, K * open_sums.shape[2])
    return (floor[:, terms.check_node] - open_sums[:, terms.check_entry]).tolist()


def _index_search(graph: GraphSpec, const: list, w: list, cutoff: float, budget, table):
    """One depth-first pass over one row's labels in index order.  Returns
    (incumbent or None, objective, states, hit_budget).

    ``table`` = (needs, greedy): the row's list from ``_closing_table``,
    and whether label k tries the sign of A_k first (+1 first otherwise).
    Setting label k adds the terms it closes (``SearchTerms.steps[k]``,
    each w[j] of the row's coupled list) to the A_i, then rechecks the
    bounds of the nodes in ``SearchTerms.checks[k]`` (see the module
    docstring); one bound reaching the limit prunes at once, as their sum
    would.  ``states`` counts every label set, pruned or not, up to
    ``budget``.  With an infinite cutoff and a budget of K states the pass
    is the first dive and nothing more, which is the fallback ``bb_infer``
    returns.
    """
    K = graph.n_outputs
    order = graph.order
    terms = graph.search_terms
    nodes, steps, checks = terms.nodes, terms.steps, terms.checks
    needs, greedy = table
    scale = 1.0 - 4 * K * 2.0**-52
    upper = float(cutoff)
    limit = upper / scale
    y = [0] * K
    # sums[k], bounds[k], totals[k]: every A_i, every node's loss bound and
    # their sum, before label k is set
    sums = [const] + [None] * (K - 1)
    bounds = [[0.0] * K] + [None] * (K - 1)
    totals = [0.0] * K
    first = [-1 if greedy and const[0] < 0.0 else 1] + [1] * (K - 1)
    tried = [0] * K
    incumbent = None
    incumbent_obj = 0.0
    states = 0
    k = 0
    while True:
        t = tried[k]
        if t == 2:
            y[k] = 0
            if k == 0:
                return incumbent, incumbent_obj, states, False
            k -= 1
            continue
        if budget is not None and states >= budget:
            return incumbent, incumbent_obj, states, True
        states += 1
        tried[k] = t + 1
        y[k] = first[k] if t == 0 else -y[k]
        a = sums[k][:]
        for i, j, partners in steps[k]:
            parity = 1
            for q in partners:
                if y[q] < 0:
                    parity = -parity
            a[i] += w[j] if parity > 0 else -w[j]
        lb = parent = bounds[k]
        for i, c in checks[k]:
            need = needs[c]
            v = a[i]
            if y[i] < 0 or (y[i] == 0 and v < 0.0):
                v = -v
            if v < need:
                d = need - v
                if d >= limit:
                    break
                if d > lb[i]:
                    if lb is parent:
                        lb = lb[:]
                    lb[i] = d
        else:
            total = totals[k] if lb is parent else sum(lb)
            if total >= limit:
                continue
            if k < K - 1:
                k += 1
                sums[k] = a
                bounds[k] = lb
                totals[k] = total
                tried[k] = 0
                if greedy:
                    first[k] = 1 if a[k] >= 0.0 else -1
                continue
            loss = 0.0
            for i in order:
                loss += _node_loss(const, w, nodes, y, i)
                if loss >= upper:
                    break
            else:
                # a complete assignment strictly under the current bound
                upper = loss
                limit = upper / scale
                incumbent = np.array(y, dtype=np.int8)
                incumbent_obj = loss
                if loss == 0.0:
                    return incumbent, loss, states, False


def exhaustive_infer(graph: GraphSpec, weights: WeightVector, x) -> InferenceResult:
    """Return the first minimizer in enumeration order, stopping early at a
    zero-loss assignment: the chunk of one row of ``exhaustive_infer_chunk``.

    Enumeration order is lexicographic with +1 before -1, so ties go to the
    assignment whose first differing label is +1.  The index-order search
    in that order, with cutoff ``math.ulp(0.0)`` (the zero-loss pass),
    first looks for an assignment of loss exactly 0.0 within
    ``_pass_budget(K)`` label settings; the first it finds is the first
    minimizer.  Otherwise every assignment is scored, a chunk of at most
    2^16 at a time on a broadcast label grid (see ``NodeScorer.grid_sums``),
    so time grows as K * terms * 2^K and memory stays a few chunk-sized
    arrays for every K.  ``states_visited`` is the pass's label settings,
    plus 2^K when the row was enumerated.
    """
    _check_enum_size(graph.n_outputs, ENUM_MAX_OUTPUTS, "exhaustive search")
    return _exhaustive_chunk(graph, weights, _augmented(graph, weights, x, 1)[None])[0]


def exhaustive_infer_chunk(graph: GraphSpec, weights: WeightVector, X) -> list[InferenceResult]:
    """``exhaustive_infer`` on every row of the (n, D) inputs X, with the
    same labels, objectives and states, bit for bit: one compile and one
    ``_closing_table`` for the chunk, and a ``NodeScorer`` only for a row
    whose zero-loss pass fails and which is enumerated."""
    _check_enum_size(graph.n_outputs, ENUM_MAX_OUTPUTS, "exhaustive search")
    return _exhaustive_chunk(graph, weights, _augmented(graph, weights, X, 2))


def _exhaustive_chunk(graph: GraphSpec, weights: WeightVector, Xa: np.ndarray):
    K = graph.n_outputs
    const, coupled, rows = _compile(graph, weights, Xa)
    results = []
    for r, ((c, w), needs) in enumerate(zip(rows, _closing_table(graph, const, coupled))):
        labels, obj, states, _ = _index_search(graph, c, w, math.ulp(0.0), _pass_budget(K), (needs, False))
        if labels is None:
            obj = np.inf
            best = 0
            for start, totals in _row_scorer(graph, const[r], w).grid_sums():
                i = int(np.argmin(totals))
                if totals[i] < obj:
                    obj = float(totals[i])
                    best = start + i
            labels = signs_of_indices(K, [best])[0]
            states += 1 << K
        results.append(InferenceResult(labels, obj, states, STATUS_OPTIMAL))
    return results


def _node_loss(const: list, w: list, nodes, y: list, i: int) -> float:
    """Node i's hinge loss max(0, 1 - y_i * s_i) on Python floats, s_i summed
    term by term (``SearchTerms.nodes``) as in the search and
    ``NodeScorer.total_loss_column``."""
    s = const[i]
    for j, others in nodes[i]:
        parity = 1
        for k in others:
            if y[k] < 0:
                parity = -parity
        s += w[j] if parity > 0 else -w[j]
    c = 1.0 - s if y[i] > 0 else 1.0 + s
    return c if c > 0.0 else 0.0
