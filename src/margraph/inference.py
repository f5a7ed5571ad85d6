"""MAP prediction: branch-and-bound, exhaustive oracle, and ICM baseline.

All three minimize the joint hinge loss sum_i max(0, 1 - z_i) over label
assignments.  The branch-and-bound search walks nodes in graph order,
trying the locally best label first (cost max(0, 1 - |s_i|)) and the
opposite label second (cost 1 + |s_i|, always at least 1), pruning any
prefix whose partial sum already reaches the current upper bound.  Since
every opposite-label step costs at least 1, an initial upper bound of S
confines the search to prefixes with fewer than S such steps.

The search and the exhaustive oracle accumulate losses with the same
floating-point operations in the same order, so their objectives agree
bit-for-bit, never merely within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DataError, GraphError
from .graphs import DIRECTED, GraphSpec
from .model import (
    ENUM_MAX_OUTPUTS,
    NodeScorer,
    WeightVector,
    assignment_signs,
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

_ENUM_CHUNK = 1 << 16
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


def _greedy_descent(scorer: NodeScorer, order: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Take the locally best branch at every node; never prunes."""
    y = np.zeros(scorer.n_outputs, dtype=np.int8)
    total = 0.0
    for node in order:
        s = scorer.node_score(node, y)
        y[node] = 1 if s >= 0.0 else -1
        a = s if s >= 0.0 else -s
        total += max(0.0, 1.0 - a)
    return y, total


def _search(scorer: NodeScorer, order: tuple[int, ...], cutoff: float, budget):
    """One depth-first pass.  Returns (incumbent or None, objective, states, hit_budget)."""
    K = scorer.n_outputs
    y = np.zeros(K, dtype=np.int8)
    partial = np.zeros(K + 1, dtype=np.float64)
    left_label = np.zeros(K, dtype=np.int8)
    left_cost = np.zeros(K, dtype=np.float64)
    right_cost = np.zeros(K, dtype=np.float64)
    tried = np.zeros(K, dtype=np.int8)
    upper = float(cutoff)
    incumbent = None
    incumbent_obj = 0.0
    states = 0
    node_score = scorer.node_score

    def enter(p: int) -> None:
        node = order[p]
        s = node_score(node, y)
        a = s if s >= 0.0 else -s
        left_label[p] = 1 if s >= 0.0 else -1
        left_cost[p] = max(0.0, 1.0 - a)
        right_cost[p] = 1.0 + a
        tried[p] = 0

    enter(0)
    p = 0
    hit_budget = False
    while True:
        t = tried[p]
        if t == 2:
            if p == 0:
                break
            p -= 1
            continue
        tried[p] = t + 1
        if t == 0:
            label = left_label[p]
            cost = left_cost[p]
        else:
            label = -left_label[p]
            cost = right_cost[p]
        total = partial[p] + cost
        if total >= upper:
            continue
        if budget is not None and states >= budget:
            hit_budget = True
            break
        states += 1
        y[order[p]] = label
        if p == K - 1:
            # complete assignment strictly under the current bound
            upper = total
            incumbent = y.copy()
            incumbent_obj = total
            continue
        p += 1
        partial[p] = total
        enter(p)
    return incumbent, incumbent_obj, states, hit_budget


def bb_infer(graph: GraphSpec, weights: WeightVector, x, config: BBConfig | None = None) -> InferenceResult:
    """Branch-and-bound minimizer of the joint hinge loss for directed graphs.

    With a large enough cutoff the result is the exact minimizer.  If no
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
    for _ in range(_ESCALATE_CAP + 1):
        remaining = None
        if config.max_states is not None:
            remaining = config.max_states - total_states
            if remaining <= 0:
                # an escalated retry with no states left: the budget ran out
                y, obj = _greedy_descent(scorer, order)
                return InferenceResult(y, obj, total_states, STATUS_BUDGET)
        incumbent, obj, states, hit_budget = _search(scorer, order, cutoff, remaining)
        total_states += states
        if incumbent is not None and not hit_budget:
            return InferenceResult(incumbent, obj, total_states, STATUS_OPTIMAL)
        if hit_budget:
            if incumbent is None:
                y, obj = _greedy_descent(scorer, order)
                return InferenceResult(y, obj, total_states, STATUS_BUDGET)
            return InferenceResult(incumbent, obj, total_states, STATUS_BUDGET)
        if not config.escalate:
            break
        cutoff *= 2.0
    y, obj = _greedy_descent(scorer, order)
    return InferenceResult(y, obj, total_states, STATUS_FALLBACK)


def exhaustive_infer(graph: GraphSpec, weights: WeightVector, x) -> InferenceResult:
    """Enumerate all assignments and return the first minimizer.

    Enumeration order is lexicographic with +1 before -1, so ties go to the
    assignment whose first differing label is +1.
    """
    K = graph.n_outputs
    if K > ENUM_MAX_OUTPUTS:
        raise CapabilityError(f"exhaustive search supports at most {ENUM_MAX_OUTPUTS} outputs, got {K}")
    scorer = compile_scorer(graph, weights, x)
    best_obj = np.inf
    best_idx = 0
    for start in range(0, 1 << K, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, 1 << K)
        totals = scorer.total_loss_column(assignment_signs(K, start, stop))
        i = int(np.argmin(totals))
        if totals[i] < best_obj:
            best_obj = float(totals[i])
            best_idx = start + i
    return InferenceResult(signs_from_index(K, best_idx), best_obj, 1 << K, STATUS_OPTIMAL)


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
    """
    if max_sweeps < 1:
        raise DataError(f"need at least one sweep, got {max_sweeps}")
    y = np.array(y0, dtype=np.int8).copy()
    if y.shape != (graph.n_outputs,):
        raise DataError(f"initial labels shape {y.shape} does not match {graph.n_outputs} outputs")
    if not np.all(np.isin(y, (-1, 1))):
        raise DataError("initial labels must be +1/-1")
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
            status = STATUS_OPTIMAL if graph.n_outputs == 1 else STATUS_LOCAL
            return InferenceResult(y, current, states, status)
    return InferenceResult(y, current, states, STATUS_BUDGET)
