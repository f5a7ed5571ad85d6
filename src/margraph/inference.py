"""MAP prediction: branch-and-bound, exhaustive oracle, and ICM baseline.

All three minimize the joint hinge loss sum_i max(0, 1 - z_i) over label
assignments.  The branch-and-bound search walks nodes in graph order,
trying the locally best label first (cost max(0, 1 - |s_i|)) and the
opposite label second (cost 1 + |s_i|, always at least 1), pruning any
prefix whose partial sum already reaches the current upper bound.  Since
every opposite-label step costs at least 1, an initial upper bound of S
confines the search to prefixes with fewer than S such steps.

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

The search computes each node score itself, on plain Python lists and
floats, from the tables of ``compile_scorer``.  The greedy fallback, the
locally best label at every node, is the search's first all-left dive and
not a separate routine.  ICM rescores single nodes with the same scalar
loop (``_node_loss``), kept apart so the search's hot loop stays inline.

The exhaustive oracle takes the joint losses of all 2^K assignments, in
index order, from the label grid of ``NodeScorer.grid_sums``; how an index
maps to labels is ``margraph.model``'s business alone.

The search and the exhaustive oracle accumulate losses with the same
floating-point operations in the same order, so their objectives agree
bit-for-bit, never merely within a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, GraphError
from .graphs import DIRECTED, GraphSpec
from .model import (
    ENUM_MAX_OUTPUTS,
    NodeScorer,
    WeightVector,
    _check_enum_size,
    compile_scorer,
    signs_from_index,
)

__all__ = [
    "STATUS_OPTIMAL",
    "STATUS_BUDGET",
    "STATUS_FALLBACK",
    "STATUS_LOCAL",
    "BBConfig",
    "InferenceResult",
    "bb_infer",
    "exhaustive_infer",
    "icm_infer",
]

STATUS_OPTIMAL = "proven_optimal"
STATUS_BUDGET = "budget_exceeded"
STATUS_FALLBACK = "no_solution_under_S_fallback"
STATUS_LOCAL = "local_optimum"

_ESCALATE_CAP = 60


@dataclass(frozen=True)
class BBConfig:
    """Search knobs: initial upper bound, state budget, escalation retry."""

    cutoff: float = 1e9
    max_states: int | None = None
    escalate: bool = False

    def __post_init__(self) -> None:
        if not (self.cutoff >= 1.0):
            raise DataError(f"cutoff must be at least 1, got {self.cutoff}")
        if self.max_states is not None and self.max_states < 1:
            raise DataError(f"state budget must be positive, got {self.max_states}")


@dataclass(frozen=True)
class InferenceResult:
    """Predicted labels with the achieved loss and search accounting.

    ``objective`` is always the joint loss of ``labels``; ``states_visited``
    counts label assignments made during search (branches taken).
    """

    labels: np.ndarray
    objective: float
    states_visited: int
    status: str


def _search(scorer: NodeScorer, order: tuple[int, ...], cutoff: float, budget):
    """One depth-first pass.  Returns (incumbent or None, objective, states, hit_budget).

    Entering position p adds node order[p]'s terms to its constant on plain
    Python lists and floats, in the same order as ``NodeScorer.score_column``.
    A branch is pruned when its partial sum reaches the upper bound, or when
    that sum plus ``suffix[p + 1]``, the static lower bound on the nodes
    after p, reaches the upper bound times the rounding slack (see the
    module docstring); both limits drop with each new incumbent.  With an
    infinite cutoff and a budget of K states the pass is the greedy all-left
    dive and nothing more, which is the fallback ``bb_infer`` returns.
    """
    K = scorer.n_outputs
    const = scorer.const.tolist()
    terms = [scorer.terms[node] for node in order]
    # suffix[p] = sum over positions q >= p of max(0, 1 - M_q), where M_q
    # bounds |s| of node order[q] whatever its partners' labels
    suffix = [0.0] * (K + 1)
    for p in range(K - 1, -1, -1):
        m = abs(const[order[p]])
        for w_eff, _ in terms[p]:
            m += abs(w_eff)
        suffix[p] = suffix[p + 1] + (1.0 - m if m < 1.0 else 0.0)
    slack = 1.0 + 4 * K * 2.0**-52
    y = [0] * K
    partial = [0.0] * (K + 1)
    left_label = [0] * K
    left_cost = [0.0] * K
    right_cost = [0.0] * K
    tried = [0] * K
    upper = float(cutoff)
    limit = upper * slack
    incumbent = None
    incumbent_obj = 0.0
    states = 0
    p = 0
    while True:
        # enter position p: score its node given the labels above it
        s = const[order[p]]
        for w_eff, others in terms[p]:
            parity = 1
            for k in others:
                if y[k] < 0:
                    parity = -parity
            s += w_eff if parity > 0 else -w_eff
        if s >= 0.0:
            left_label[p] = 1
            a = s
        else:
            left_label[p] = -1
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
            else:
                label = -left_label[p]
                total = partial[p] + right_cost[p]
            if total >= upper or total + suffix[p + 1] >= limit:
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


def bb_infer(graph: GraphSpec, weights: WeightVector, x, config: BBConfig | None = None) -> InferenceResult:
    """Branch-and-bound minimizer of the joint hinge loss for directed graphs.

    With a large enough cutoff the result is the exact minimizer.  The
    lower bound on the cost still to come only prunes prefixes that cannot
    hold an assignment strictly under the upper bound, so it lowers
    ``states_visited`` and changes no label, objective or status; the
    ``branch_budget`` and ``1 - loss/S`` bounds hold as before.  If no
    assignment has loss under the cutoff, the greedy all-left assignment is
    returned (status no_solution_under_S_fallback), or the search retries
    with a doubled cutoff when escalation is on.  If the state budget runs
    out first, including a pass that spends exactly the states left before an
    escalated retry, the best assignment seen so far (or the greedy one) is
    returned with status budget_exceeded.
    """
    if graph.kind != DIRECTED:
        raise GraphError("branch-and-bound needs a directed graph")
    config = config or BBConfig()
    scorer = compile_scorer(graph, weights, x)
    order = graph.order
    cutoff = float(config.cutoff)
    total_states = 0
    status = STATUS_FALLBACK
    for _ in range(_ESCALATE_CAP + 1):
        remaining = None
        if config.max_states is not None:
            remaining = config.max_states - total_states
            if remaining <= 0:
                # an escalated retry with no states left: the budget ran out
                status = STATUS_BUDGET
                break
        incumbent, obj, states, hit_budget = _search(scorer, order, cutoff, remaining)
        total_states += states
        if incumbent is not None:
            return InferenceResult(incumbent, obj, total_states, STATUS_BUDGET if hit_budget else STATUS_OPTIMAL)
        if hit_budget:
            status = STATUS_BUDGET
            break
        if not config.escalate:
            break
        cutoff *= 2.0
    # the greedy fallback: with no bound and K states, the first all-left dive
    y, obj, _, _ = _search(scorer, order, math.inf, graph.n_outputs)
    return InferenceResult(y, obj, total_states, status)


def exhaustive_infer(graph: GraphSpec, weights: WeightVector, x) -> InferenceResult:
    """Enumerate all assignments and return the first minimizer.

    Enumeration order is lexicographic with +1 before -1, so ties go to the
    assignment whose first differing label is +1.  Assignments are scored a
    chunk of at most 2^16 at a time on a broadcast label grid (see
    ``NodeScorer.grid_sums``), so time grows as K * terms * 2^K and memory
    stays a few chunk-sized arrays for every K.
    """
    K = graph.n_outputs
    _check_enum_size(K, ENUM_MAX_OUTPUTS, "exhaustive search")
    best_obj = np.inf
    best_idx = 0
    for start, totals in compile_scorer(graph, weights, x).grid_sums():
        i = int(np.argmin(totals))
        if totals[i] < best_obj:
            best_obj = float(totals[i])
            best_idx = start + i
    return InferenceResult(signs_from_index(K, best_idx), best_obj, 1 << K, STATUS_OPTIMAL)


def _node_loss(const: list, terms, y: list, i: int) -> float:
    """Node i's hinge loss max(0, 1 - y_i * s_i) on Python floats, s_i summed
    term by term as in the search and ``NodeScorer.total_loss_column``."""
    s = const[i]
    for w_eff, others in terms[i]:
        parity = 1
        for k in others:
            if y[k] < 0:
                parity = -parity
        s += w_eff if parity > 0 else -w_eff
    c = 1.0 - s if y[i] > 0 else 1.0 + s
    return c if c > 0.0 else 0.0


def icm_infer(
    graph: GraphSpec,
    weights: WeightVector,
    x,
    y0,
    max_sweeps: int = 100,
) -> InferenceResult:
    """Iterated conditional modes: flip single labels while the loss drops.

    Sweeps nodes in graph order; accepts a flip only on strict improvement.
    Converging proves optimality only in the one-node case; otherwise the
    result is a single-flip local optimum.  states_visited counts candidate
    evaluations.

    Per-node losses are kept as Python floats.  A flip rescores only the
    flipped node and the nodes that read its label, then re-sums the K
    losses from 0.0 in graph order, so every candidate's loss has the same
    bits as ``total_loss_column`` on the flipped assignment.
    """
    if max_sweeps < 1:
        raise DataError(f"need at least one sweep, got {max_sweeps}")
    y = np.array(y0, dtype=np.int8).copy()
    if y.shape != (graph.n_outputs,):
        raise DataError(f"initial labels shape {y.shape} does not match {graph.n_outputs} outputs")
    if not np.all(np.isin(y, (-1, 1))):
        raise DataError("initial labels must be +1/-1")
    scorer = compile_scorer(graph, weights, x)
    K = graph.n_outputs
    order = graph.order
    const = scorer.const.tolist()
    terms = scorer.terms
    # readers[k]: node k, then every node with k among its partners
    readers = [[k] for k in range(K)]
    for i, feeds in enumerate(graph.layout.feeds):
        for k in sorted({k for _, _, partners in feeds for k in partners}):
            readers[k].append(i)
    labels = y.tolist()
    losses = [_node_loss(const, terms, labels, i) for i in range(K)]
    current = 0.0
    for i in order:
        current += losses[i]
    states = 0
    status = STATUS_BUDGET
    for _ in range(max_sweeps):
        moved = False
        for node in order:
            labels[node] = -labels[node]
            saved = [losses[i] for i in readers[node]]
            for i in readers[node]:
                losses[i] = _node_loss(const, terms, labels, i)
            candidate = 0.0
            for i in order:
                candidate += losses[i]
            states += 1
            if candidate < current:
                current = candidate
                moved = True
            else:
                labels[node] = -labels[node]
                for i, loss in zip(readers[node], saved):
                    losses[i] = loss
        if not moved:
            status = STATUS_OPTIMAL if K == 1 else STATUS_LOCAL
            break
    return InferenceResult(np.array(labels, dtype=np.int8), current, states, status)
