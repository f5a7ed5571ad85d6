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

On a graph whose frontiers are narrow the search prunes on the exact cost
still to come instead (bucket elimination along the order, used as a search
heuristic: Dechter 1999, Kask and Dechter 2001).  Position p's frontier
(``GraphSpec.frontiers``) holds the earlier nodes that p or a later node
reads; a backward DP tabulates h_p, the least cost of positions p.. for
each labelling of that frontier, from the same per-node costs the search
adds, and the search prunes on partial + h_{p+1} with the same slack.  Each
h_p is at least the static bound (the same monotone rounding), and the
optimum's backward sum stays within the slack of its forward one, so the
first minimizer in search order is never cut and labels, objectives and
statuses stay those of the static search, which visits every state the
tabled search visits.  ``bb_infer`` chooses once per call: tables, built
before the first pass and kept by escalated retries, when
``GraphSpec.frontier_codes`` exists (every frontier at most a few labels
wide), the static bound otherwise.  ``BBConfig(cost_to_go=False)`` keeps
the static bound: the ``bench`` sweeps measure the search that the
``1 - loss/S`` guarantee and the trained-versus-random contrast are about,
and exact tables make random models cheap too.

The search computes each node score itself, on plain Python lists and
floats, from the tables of ``compile_scorer``.  The greedy fallback, the
locally best label at every node, is the search's first all-left dive and
not a separate routine.  ICM rescores single nodes with the same scalar
loop (``_node_loss``), kept apart so the search's hot loop stays inline.

The exhaustive oracle returns the first minimizer in index order
(``model.signs_of_indices``: label 0 on the high bit, +1 before -1).  A
joint loss is never below 0, so the first assignment in that order whose
loss is exactly 0.0 is that minimizer, labels and objective alike.  A
depth-first pass looks for it first: it sets labels 0..K-1 in index order,
+1 first, and stops at its first leaf whose node losses, each summed in term
order as ``NodeScorer.grid_sums`` sums it, are all 0.0 (a sum of
non-negative node losses is 0.0 exactly when each is).  It prunes a label
when some node cannot reach margin 1 in any completion: with A_i = const_i
plus the terms whose partners are all set (``GraphSpec.closing``), added as
they close, and R_i the sum of |w_eff| over the other terms, node i's
margin is at most y_i A_i + R_i, or |A_i| + R_i while y_i is unset.  The
pass prunes when that bound falls below 1 - slack_i, with
slack_i = 4 (n_i + 1) max(M_i, 1) 2^-52 for node i's n_i terms.  The leaf's
float margin, A_i and R_i, each a sum of at most 2 n_i terms of magnitude
at most M_i, differ from their exact values by at most n_i, n_i and
2 n_i times 2^-53 M_i, and forming the limit 1 - slack_i - R_i rounds once
more each way; together under (4 n_i + 2) 2^-53 max(M_i, 1), less than
slack_i.  So a pruned label has no completion whose float margin at node i
reaches 1, and no zero-loss leaf is ever cut.

The pass sets at most ``_pass_budget(K)`` = max(2K, 2^K / 32) labels,
counting pruned ones.  A pass label costs a few µs against under half a µs
per enumerated assignment at K = 16, so a row that exhausts the budget
takes about 1.4 times as long as enumeration alone; 2K lets one dive try
both labels at every depth where 2^K / 32 would not.  A row whose pass ends
without a zero-loss leaf is enumerated exactly as before: the joint losses
of all 2^K assignments, in index order, from the label grid of
``NodeScorer.grid_sums``.

The search and the exhaustive oracle accumulate losses with the same
floating-point operations in the same order, so their objectives agree
bit-for-bit, never merely within a tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import as_sign_labels
from .errors import DataError, GraphError
from .graphs import DIRECTED, FrontierCodes, GraphSpec
from .model import (
    ENUM_MAX_OUTPUTS,
    NodeScorer,
    WeightVector,
    _check_enum_size,
    _check_int,
    _check_real,
    _label_vector,
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


def _check_cutoff(cutoff) -> None:
    """Refuse a search cutoff that is not a number of at least 1."""
    _check_real(cutoff, "cutoff")
    if not (cutoff >= 1.0):
        raise DataError(f"cutoff must be at least 1, got {cutoff}")


@dataclass(frozen=True)
class BBConfig:
    """Search knobs: initial upper bound, state budget, escalation retry,
    and whether a graph with narrow frontiers is searched on cost-to-go
    tables (off keeps the static bound, the search the paper analyses)."""

    cutoff: float = 1e9
    max_states: int | None = None
    escalate: bool = False
    cost_to_go: bool = True

    def __post_init__(self) -> None:
        _check_cutoff(self.cutoff)
        if self.max_states is not None:
            _check_int(self.max_states, "max_states")
            if self.max_states < 1:
                raise DataError(f"state budget must be positive, got {self.max_states}")


@dataclass(frozen=True)
class InferenceResult:
    """Predicted labels with the achieved loss and search accounting.

    ``objective`` is always the joint loss of ``labels``; ``states_visited``
    counts label assignments made during search (branches taken), and for
    ``exhaustive_infer`` the zero-loss pass's label settings, plus 2^K when
    the row was enumerated.
    """

    labels: np.ndarray
    objective: float
    states_visited: int
    status: str


def _cost_to_go(scorer: NodeScorer, codes: FrontierCodes) -> list[float]:
    """h[2e]: the least cost of the positions from p on, given entry e's
    labelling of position p's frontier (see ``GraphSpec.frontier_codes``).

    A backward DP: h[2e] is the smaller over order[p]'s two labels of that
    label's cost plus h at the entry it steps to, and position K's entry
    holds 0.0.  Each node score adds ±w_eff to its constant in term order,
    and each cost is the search's max(0, 1 - |s|) or 1 + |s|, so every
    per-node cost has the bits the search gives it.
    """
    w = np.array([w_eff for node in scorer.terms for w_eff, _ in node] + [0.0])
    s = scorer.const[codes.node]
    for slot, sign in zip(codes.slot, codes.sign):
        s = s + w[slot] * sign
    a = np.abs(s)
    near = np.maximum(1.0 - a, 0.0)
    far = 1.0 + a
    up = s >= 0.0
    cost = np.stack((np.where(up, near, far), np.where(up, far, near)), axis=1).ravel().tolist()
    step = codes.step
    h = [0.0] * (len(cost) + 1)
    for k in range(len(cost) - 2, -1, -2):
        u = cost[k] + h[step[k]]
        v = cost[k + 1] + h[step[k + 1]]
        h[k] = u if u <= v else v
    return h


@functools.lru_cache(maxsize=None)
def _static_steps(K: int) -> tuple[int, ...]:
    """The width-0 table's steps: position p's one entry is entry p."""
    return tuple(2 * (k // 2) + 2 for k in range(2 * K))


def _search(scorer: NodeScorer, order: tuple[int, ...], cutoff: float, budget, table=None):
    """One depth-first pass.  Returns (incumbent or None, objective, states,
    hit_budget).

    Entering position p adds node order[p]'s terms to its constant on plain
    Python lists and floats, in the same order as ``NodeScorer.score_column``.
    A branch is pruned when its partial sum reaches the upper bound, or when
    that sum plus ``bound[key]``, a lower bound on the cost of the positions
    after p, reaches the upper bound times the rounding slack (see the
    module docstring); both limits drop with each new incumbent.

    ``bound`` and ``step`` form one table: key = 2e + b for entry e and
    order[p]'s label b (0 for +1, 1 for -1), and ``step[key]`` is the next
    position's entry, doubled.  ``table`` = (step, h) gives cost-to-go
    tables keyed by ``GraphSpec.frontier_codes`` (h from ``_cost_to_go``);
    without it the bound is the static one, the width-0 table with one entry
    per position.  With an infinite cutoff and a budget of K states the pass
    is the greedy all-left dive and nothing more, which is the fallback
    ``bb_infer`` returns.
    """
    K = scorer.n_outputs
    const = scorer.const.tolist()
    terms = [scorer.terms[node] for node in order]
    if table is not None:
        step, h = table
        bound = [h[k] for k in step]
    else:
        step = _static_steps(K)
        # bound[2p], bound[2p + 1] = sum over positions q > p of
        # max(0, 1 - M_q), where M_q bounds |s| of node order[q] whatever
        # its partners' labels
        bound = [0.0] * (2 * K)
        rest = 0.0
        for p in range(K - 1, 0, -1):
            m = abs(const[order[p]])
            for w_eff, _ in terms[p]:
                m += abs(w_eff)
            rest += 1.0 - m if m < 1.0 else 0.0
            bound[2 * p - 2] = bound[2 * p - 1] = rest
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
        for w_eff, others in terms[p]:
            parity = 1
            for k in others:
                if y[k] < 0:
                    parity = -parity
            s += w_eff if parity > 0 else -w_eff
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
    """Branch-and-bound minimizer of the joint hinge loss for directed graphs.

    With a large enough cutoff the result is the exact minimizer.  The
    lower bound on the cost still to come only prunes prefixes that cannot
    hold an assignment strictly under the upper bound, so it lowers
    ``states_visited`` and changes no label, objective or status; the
    ``branch_budget`` and ``1 - loss/S`` bounds hold as before.  With
    ``config.cost_to_go`` and a graph whose frontiers are all narrow, the
    cost-to-go tables are built once, before the first pass, and serve every
    pass (see the module docstring).  If no assignment has loss under the
    cutoff, the greedy all-left assignment is returned (status
    no_solution_under_S_fallback), or the search retries with a doubled
    cutoff when escalation is on.  If the state budget runs out first,
    including a pass that spends exactly the states left before an escalated
    retry, the best assignment seen so far (or the greedy one) is returned
    with status budget_exceeded.
    """
    if graph.kind != DIRECTED:
        raise GraphError("branch-and-bound needs a directed graph")
    config = config or BBConfig()
    scorer = compile_scorer(graph, weights, x)
    order = graph.order
    codes = graph.frontier_codes if config.cost_to_go else None
    table = None if codes is None else (codes.step, _cost_to_go(scorer, codes))
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
        incumbent, obj, states, hit_budget = _search(scorer, order, cutoff, remaining, table)
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


def _pass_budget(K: int) -> int:
    """The zero-loss pass's state budget: 2^K / 32, and never below 2K."""
    return max(2 * K, (1 << K) >> 5)


def _zero_pass(scorer: NodeScorer, closing, budget: int):
    """Depth-first search for the first assignment in index order whose
    joint loss is exactly 0.0.  Returns (labels or None, states).

    Labels are set in index order, +1 before -1, and ``states`` counts every
    label set, pruned or not; the pass gives up when ``budget`` labels have
    been set.  ``closing`` is ``GraphSpec.closing``.  Node i's margin bound
    is y_i A_i + R_i (|A_i| + R_i while y_i is unset): A_i is const_i plus
    the terms whose partners are all set, R_i the sum of |w_eff| over the
    others.  A label is pruned when some node's bound falls below
    1 - slack_i (see the module docstring); R_i depends only on how many
    labels are set, so each label's limits 1 - slack_i - R_i are tabulated
    once per row.
    """
    K = scorer.n_outputs
    const = scorer.const.tolist()
    terms = scorer.terms
    open_sum = []
    floor = []
    for i in range(K):
        r = 0.0
        for w_eff, _ in terms[i]:
            r += abs(w_eff)
        m = abs(const[i]) + r
        open_sum.append(r)
        floor.append(1.0 - 4 * (len(terms[i]) + 1) * max(m, 1.0) * 2.0**-52)
    steps = []
    checks = []
    for closed, nodes in closing:
        step = []
        for i, t in closed:
            w_eff, partners = terms[i][t]
            open_sum[i] -= abs(w_eff)
            step.append((i, w_eff, partners))
        steps.append(step)
        checks.append([(i, floor[i] - open_sum[i]) for i in nodes])
    y = [0] * K
    # sums[k]: every A_i before label k is set
    sums = [const] + [None] * K
    tried = [0] * K
    states = 0
    k = 0
    while True:
        t = tried[k]
        if t == 2:
            y[k] = 0
            if k == 0:
                return None, states
            k -= 1
            continue
        if states >= budget:
            return None, states
        states += 1
        tried[k] = t + 1
        y[k] = 1 if t == 0 else -1
        a = sums[k][:]
        for i, w_eff, partners in steps[k]:
            parity = 1
            for j in partners:
                if y[j] < 0:
                    parity = -parity
            a[i] += w_eff if parity > 0 else -w_eff
        for i, limit in checks[k]:
            v = a[i]
            if y[i] < 0 or (y[i] == 0 and v < 0.0):
                v = -v
            if v < limit:
                break
        else:
            if k < K - 1:
                k += 1
                sums[k] = a
                tried[k] = 0
            # a leaf: its joint loss, summed from nonnegative node losses, is
            # exactly 0.0 when and only when every node loss is
            elif all(_node_loss(const, terms, y, i) == 0.0 for i in range(K)):
                return y, states


def exhaustive_infer(graph: GraphSpec, weights: WeightVector, x) -> InferenceResult:
    """Return the first minimizer in enumeration order, stopping early at a
    zero-loss assignment.

    Enumeration order is lexicographic with +1 before -1, so ties go to the
    assignment whose first differing label is +1.  A depth-first pass in
    that order (``_zero_pass``) first looks for an assignment of loss
    exactly 0.0 within ``_pass_budget(K)`` label settings; the first it
    finds is the first minimizer.  Otherwise every assignment is scored, a
    chunk of at most 2^16 at a time on a broadcast label grid (see
    ``NodeScorer.grid_sums``), so time grows as K * terms * 2^K and memory
    stays a few chunk-sized arrays for every K.  ``states_visited`` is the
    pass's label settings, plus 2^K when the row was enumerated.
    """
    K = graph.n_outputs
    _check_enum_size(K, ENUM_MAX_OUTPUTS, "exhaustive search")
    scorer = compile_scorer(graph, weights, x)
    labels, states = _zero_pass(scorer, graph.closing, _pass_budget(K))
    if labels is not None:
        return InferenceResult(np.array(labels, dtype=np.int8), 0.0, states, STATUS_OPTIMAL)
    best_obj = np.inf
    best_idx = 0
    for start, totals in scorer.grid_sums():
        i = int(np.argmin(totals))
        if totals[i] < best_obj:
            best_obj = float(totals[i])
            best_idx = start + i
    return InferenceResult(signs_from_index(K, best_idx), best_obj, states + (1 << K), STATUS_OPTIMAL)


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
    _check_int(max_sweeps, "max_sweeps")
    if max_sweeps < 1:
        raise DataError(f"need at least one sweep, got {max_sweeps}")
    y = as_sign_labels(_label_vector(graph, y0))
    scorer = compile_scorer(graph, weights, x)
    K = graph.n_outputs
    order = graph.order
    const = scorer.const.tolist()
    terms = scorer.terms
    # readers[k]: node k, then every node with k among its partners
    readers = [[k] for k in range(K)]
    for i, partners in enumerate(graph.layout.partners):
        for k in sorted(set().union(*partners)):
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
