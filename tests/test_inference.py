"""Branch-and-bound search, exhaustive oracle, and the flip-descent baseline."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import BBConfig, Clique, GraphSpec, Instance, WeightVector, graphs, inference, model
from margraph.bench import branch_budget
from margraph.errors import CapabilityError, DataError, GraphError
from margraph.inference import (
    _ESCALATE_CAP,
    STATUS_BUDGET,
    STATUS_FALLBACK,
    STATUS_LOCAL,
    STATUS_OPTIMAL,
    bb_infer,
    exhaustive_infer,
    icm_infer,
)
from margraph.model import compile_scorer, signs_from_index

from _helpers import (
    coupled_graph,
    random_labels,
    random_model,
    reference_exhaustive,
    reference_icm,
    reference_losses,
)


@pytest.fixture
def two_node_model():
    graph = GraphSpec(2, 1, mg.DIRECTED, (0, 1), (Clique((0,), 0), Clique((0, 1))))
    weights = WeightVector(np.array([1.0, 1.0]), lam=1.0)
    return graph, weights, np.array([2.0])


def zero_model(n_outputs, kind=mg.DIRECTED):
    graph = mg.build_independent_graph(n_outputs, 0, kind)
    return graph, WeightVector(np.zeros(graph.n_cliques), lam=1.0), np.zeros(0)


def test_search_finds_the_zero_loss_assignment(two_node_model):
    graph, weights, x = two_node_model
    res = bb_infer(graph, weights, x, BBConfig(cutoff=10))
    assert res.labels.tolist() == [1, 1]
    assert res.objective == 0.0
    assert res.status == STATUS_OPTIMAL
    ex = exhaustive_infer(graph, weights, x)
    assert ex.labels.tolist() == [1, 1] and ex.objective == 0.0
    # the zero-loss pass finds it on its first dive, one state per label
    assert ex.states_visited == 2


def test_low_cutoff_returns_fallback_assignment():
    graph, weights, x = zero_model(3)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2))
    # every assignment has loss 3, so nothing beats the cutoff
    assert res.status == STATUS_FALLBACK
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 3.0


def test_escalation_doubles_the_cutoff_until_a_solution_appears():
    graph, weights, x = zero_model(3)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2, escalate=True))
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 3.0


def test_exhausted_state_budget_reports_budget_status():
    graph, weights, x = zero_model(3)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=10, max_states=2))
    assert res.status == STATUS_BUDGET
    assert res.states_visited <= 2
    assert res.objective == 3.0  # greedy completion still answers


def test_budget_used_up_exactly_by_a_pass_before_escalating_reports_budget_status():
    # node 1 is scored 0.5 + 0.5 * y_0 and node 2 0.5 * y_0 - 0.5 * y_1, so
    # both have static bound max(0, 1 - 0.5 - 0.5) = 0 yet every completion
    # of a root label costs at least 1.  Under cutoff 2 the pass takes both
    # root labels and (+1, +1), 3 states, and ends without an incumbent and
    # without touching the budget: every other branch reaches 2 exactly.
    graph = GraphSpec(3, 0, mg.DIRECTED, (0, 1, 2),
                      (Clique((0,)), Clique((1,)), Clique((0, 1)), Clique((0, 2)), Clique((1, 2))))
    weights = WeightVector(np.array([0.0, 0.5, 0.5, 0.5, -0.5]), lam=1.0)
    x = np.zeros(0)
    single = bb_infer(graph, weights, x, BBConfig(cutoff=2, max_states=3))
    assert single.status == STATUS_FALLBACK
    assert single.states_visited == 3
    # the doubled-cutoff retry has no states left
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2, max_states=3, escalate=True))
    assert res.status == STATUS_BUDGET
    assert res.states_visited == 3
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 2.0


def test_suffix_bound_slack_absorbs_rounding_of_the_bound():
    # nodes 1 and 2 cost 2^-53 each: the leaf's sequential total
    # 1 + 2^-53 + 2^-53 rounds to 1.0, under the cutoff 1 + 2^-52, but the
    # root prefix plus the suffix bound, 1 + fl(2^-53 + 2^-53), equals the
    # cutoff; only the relative slack keeps the root from being pruned
    graph = mg.build_independent_graph(3, 0, mg.DIRECTED)
    weights = WeightVector(np.array([0.0, 1 - 2**-53, 1 - 2**-53]), lam=1.0)
    res = bb_infer(graph, weights, np.zeros(0), BBConfig(cutoff=1 + 2**-52))
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 1.0
    assert res.labels.tolist() == [1, 1, 1]


def test_exhaustive_breaks_ties_towards_positive_labels():
    graph, weights, x = zero_model(3)
    res = exhaustive_infer(graph, weights, x)
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 3.0
    # no node can reach margin 1, so the zero-loss pass prunes both values
    # of label 0 and every assignment is enumerated
    assert res.states_visited == 2 + 8
    assert res.status == STATUS_OPTIMAL


def test_bb_config_validation():
    # one cutoff rule, for the search's config and for the budget formula
    for check in (lambda S: BBConfig(cutoff=S), lambda S: branch_budget(4, S)):
        for bad in (0.5, 0, -math.inf, math.nan):
            with pytest.raises(DataError, match=f"^cutoff must be at least 1, got {bad}$"):
                check(bad)
        for bad in ("3", None):
            with pytest.raises(DataError, match=f"^cutoff must be a number, got {bad!r}$"):
                check(bad)
    with pytest.raises(DataError):
        BBConfig(max_states=0)
    with pytest.raises(DataError, match=r"max_states must be an integer, got 2\.5$"):
        BBConfig(max_states=2.5)


def test_bb_rejects_undirected_graphs():
    graph = mg.build_chain_graph(3, 0, mg.UNDIRECTED)
    weights = WeightVector(np.zeros(graph.n_cliques), lam=1.0)
    with pytest.raises(GraphError):
        bb_infer(graph, weights, np.zeros(0), BBConfig())


def test_exhaustive_rejects_oversized_graphs():
    graph = mg.build_independent_graph(26, 0, mg.DIRECTED)
    weights = WeightVector(np.zeros(graph.n_cliques), lam=1.0)
    with pytest.raises(CapabilityError):
        exhaustive_infer(graph, weights, np.zeros(0))


def test_bb_objective_matches_exhaustive_on_random_models():
    rng = np.random.default_rng(17)
    for _ in range(100):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=10)
        bb = bb_infer(graph, weights, x, BBConfig(cutoff=1e9))
        ex = exhaustive_infer(graph, weights, x)
        assert bb.status == STATUS_OPTIMAL
        assert bb.objective == ex.objective
        assert bb.states_visited >= graph.n_outputs


def test_reported_objective_equals_loss_of_returned_labels():
    rng = np.random.default_rng(19)
    for _ in range(40):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=8)
        for config in (BBConfig(cutoff=1e9), BBConfig(cutoff=1.5),
                       BBConfig(cutoff=10, max_states=3)):
            res = bb_infer(graph, weights, x, config)
            lb = mg.joint_loss(graph, weights, Instance(x, res.labels))
            assert abs(res.objective - lb.total) <= 1e-9


def test_states_visited_respects_the_combinatorial_budget():
    # with cutoff S, proving optimality takes at most
    # K * sum_{i < S} C(K, i) branch assignments
    rng = np.random.default_rng(99)
    for _ in range(100):
        K = int(rng.integers(2, 11))
        graph = mg.build_full_graph(K, int(rng.integers(0, 4)), mg.DIRECTED)
        weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
        x = rng.standard_normal(graph.n_inputs)
        for cutoff in (1, 2, 4):
            res = bb_infer(graph, weights, x, BBConfig(cutoff=cutoff))
            assert res.states_visited <= branch_budget(K, cutoff)


def test_budget_formula_values():
    assert branch_budget(15, 1) == 15            # the single left-descent path
    assert branch_budget(15, 2) == 15 * (1 + 15)
    assert branch_budget(3, 1e9) == 3 * 8        # full tree when S is huge
    assert branch_budget(4, 2.5) == 4 * (1 + 4 + 6)
    assert branch_budget(4, math.inf) == 4 * 16


def test_icm_keeps_the_global_optimum_fixed():
    rng = np.random.default_rng(21)
    for _ in range(30):
        graph, weights, x = random_model(rng, mg.UNDIRECTED, max_outputs=7)
        ex = exhaustive_infer(graph, weights, x)
        res = icm_infer(graph, weights, x, ex.labels)
        assert np.array_equal(res.labels, ex.labels)
        assert res.objective == ex.objective


def test_icm_never_beats_the_exhaustive_optimum():
    rng = np.random.default_rng(23)
    for _ in range(50):
        graph, weights, x = random_model(rng, mg.UNDIRECTED, max_outputs=8)
        ex = exhaustive_infer(graph, weights, x)
        y0 = random_labels(rng, 1, graph.n_outputs)[0]
        res = icm_infer(graph, weights, x, y0)
        assert res.objective >= ex.objective - 1e-12
        lb = mg.joint_loss(graph, weights, Instance(x, res.labels))
        assert abs(res.objective - lb.total) <= 1e-9


def test_icm_statuses():
    graph, weights, x = zero_model(3, mg.UNDIRECTED)
    y0 = np.array([1, -1, 1], dtype=np.int8)
    res = icm_infer(graph, weights, x, y0)
    assert res.status == STATUS_LOCAL            # converged, several labels
    assert res.labels.tolist() == y0.tolist()    # no strict improvement possible
    assert res.objective == 3.0
    g1, w1, x1 = zero_model(1, mg.UNDIRECTED)
    res1 = icm_infer(g1, w1, x1, np.array([1], dtype=np.int8))
    assert res1.status == STATUS_OPTIMAL         # single label: local is global


def test_icm_input_validation():
    graph, weights, x = zero_model(2, mg.UNDIRECTED)
    with pytest.raises(DataError):
        icm_infer(graph, weights, x, np.array([1, 0], dtype=np.int8))
    with pytest.raises(DataError):
        icm_infer(graph, weights, x, np.array([1], dtype=np.int8))
    with pytest.raises(DataError):
        icm_infer(graph, weights, x, np.array([1, 1], dtype=np.int8), max_sweeps=0)
    with pytest.raises(DataError, match=r"max_sweeps must be an integer, got 2\.5$"):
        icm_infer(graph, weights, x, np.array([1, 1], dtype=np.int8), max_sweeps=2.5)
    res = icm_infer(graph, weights, x, np.array([1, 1], dtype=np.int8), max_sweeps=np.int64(1))
    assert res.labels.tolist() == [1, 1]
    # labels are checked before the int8 cast, which would truncate, accept
    # strings or overflow; exact 1.0 and -1.0 stay labels
    for bad in ([1.7, -1.2], ["1", "-1"], [1, 300]):
        with pytest.raises(DataError, match=r"labels must be \+1 or -1"):
            icm_infer(graph, weights, x, bad)
    res = icm_infer(graph, weights, x, [1.0, -1.0], max_sweeps=1)
    assert res.labels.dtype == np.int8 and res.labels.tolist() == [1, -1]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 8),
    D=st.integers(0, 3),
    zeroed=st.sampled_from([0.0, 0.5, 1.0]),
    max_sweeps=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_icm_matches_the_full_rescoring_reference(kind, topology, K, D, zeroed, max_sweeps, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, kind)
    # zeroed weights make exact ties, which a strict-improvement flip must refuse
    w = rng.normal(0.0, 1.0, graph.n_cliques)
    weights = WeightVector(np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w), lam=1.0)
    x = rng.standard_normal(D)
    y0 = random_labels(rng, 1, K)[0]
    labels, objective, states, status = reference_icm(graph, weights, x, y0, max_sweeps)
    got = icm_infer(graph, weights, x, y0, max_sweeps=max_sweeps)
    assert got.labels.dtype == np.int8
    assert got.labels.tolist() == labels.tolist()
    assert got.objective == objective
    assert got.states_visited == states
    assert got.status == status


def test_bb_handles_single_node_graphs():
    graph, weights, x = zero_model(1)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2))
    assert res.status == STATUS_OPTIMAL
    assert res.labels.tolist() == [1]
    assert res.objective == 1.0
    assert res.states_visited == 1


# ---------------------------------------------------------------------------
# Slow reference: the search on NumPy arrays with a separate scalar node score
# and a separate greedy descent, kept to pin the list-based search to it.


def reference_node_score(scorer, i, y):
    s = float(scorer.const[i])
    for w_eff, others in scorer.terms[i]:
        parity = 1
        for k in others:
            if y[k] < 0:
                parity = -parity
        s += w_eff if parity > 0 else -w_eff
    return s


def reference_greedy_descent(scorer, order):
    y = np.zeros(scorer.n_outputs, dtype=np.int8)
    total = 0.0
    for node in order:
        s = reference_node_score(scorer, node, y)
        y[node] = 1 if s >= 0.0 else -1
        a = s if s >= 0.0 else -s
        total += max(0.0, 1.0 - a)
    return y, total


def reference_suffix(scorer, order):
    """suffix[p] = sum over q >= p of max(0, 1 - M_q), M_q = |const| plus the
    |w_eff| of node order[q]'s terms, summed in term order."""
    K = scorer.n_outputs
    suffix = [0.0] * (K + 1)
    for p in range(K - 1, -1, -1):
        m = abs(float(scorer.const[order[p]]))
        for w_eff, _ in scorer.terms[order[p]]:
            m += abs(w_eff)
        suffix[p] = suffix[p + 1] + max(0.0, 1.0 - m)
    return suffix


def reference_frontiers(scorer, order):
    """F_p for p = 0..K: the nodes before position p that position p or a
    later one reads through a term, listed by position."""
    K = len(order)
    pos = {node: p for p, node in enumerate(order)}
    frontiers = []
    for p in range(K + 1):
        read = {k for q in range(p, K) for _, others in scorer.terms[order[q]] for k in others}
        frontiers.append(tuple(sorted((k for k in read if pos[k] < p), key=pos.get)))
    return frontiers


def reference_cost_to_go(scorer, order, frontiers):
    """h[p][labels of F_p]: the least cost of positions p.. by a backward DP
    over label tuples, each cost max(0, 1 - y * s) from the scalar score."""
    K = len(order)
    h = [{} for _ in range(K)] + [{(): 0.0}]
    for p in range(K - 1, -1, -1):
        node = order[p]
        for labels in itertools.product((1, -1), repeat=len(frontiers[p])):
            y = np.zeros(K, dtype=np.int8)
            y[list(frontiers[p])] = labels
            s = reference_node_score(scorer, node, y)
            totals = []
            for label in (1, -1):
                y[node] = label
                after = tuple(int(y[k]) for k in frontiers[p + 1])
                totals.append(max(0.0, 1.0 - label * s) + h[p + 1][after])
            h[p][labels] = min(totals)
    return h


def reference_search(scorer, order, cutoff, budget, bound="static", h=None):
    """One pass.  With h (from reference_cost_to_go) it prunes on the
    cost-to-go tables; without, bound="static" is the search before the
    tables and "none" the search before any bound on the cost to come."""
    K = scorer.n_outputs
    suffix = reference_suffix(scorer, order) if bound != "none" else [0.0] * (K + 1)
    frontiers = reference_frontiers(scorer, order)
    slack = 1.0 + 4 * K * 2.0**-52
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

    def enter(p):
        s = reference_node_score(scorer, order[p], y)
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
            label, cost = left_label[p], left_cost[p]
        else:
            label, cost = -left_label[p], right_cost[p]
        total = partial[p] + cost
        if h is None:
            rest = suffix[p + 1]
        else:
            rest = h[p + 1][tuple(int(label) if k == order[p] else int(y[k]) for k in frontiers[p + 1])]
        if total >= upper or (bound != "none" and total + rest >= upper * slack):
            continue
        if budget is not None and states >= budget:
            hit_budget = True
            break
        states += 1
        y[order[p]] = label
        if p == K - 1:
            upper = total
            incumbent = y.copy()
            incumbent_obj = total
            continue
        p += 1
        partial[p] = total
        enter(p)
    return incumbent, incumbent_obj, states, hit_budget


def reference_bb_infer(graph, weights, x, config, bound="tables"):
    """bound="tables": cost-to-go tables, built once before the first pass,
    when config.cost_to_go and every frontier is within the width cap, and
    the static bound otherwise; "static" or "none" as in reference_search."""
    scorer = compile_scorer(graph, weights, x)
    order = graph.order
    h = None
    if bound == "tables":
        bound = "static"
        frontiers = reference_frontiers(scorer, order)
        if config.cost_to_go and max(map(len, frontiers)) <= graphs._FRONTIER_MAX_WIDTH:
            h = reference_cost_to_go(scorer, order, frontiers)
    cutoff = float(config.cutoff)
    total_states = 0
    for _ in range(_ESCALATE_CAP + 1):
        remaining = None
        if config.max_states is not None:
            remaining = config.max_states - total_states
            if remaining <= 0:
                y, obj = reference_greedy_descent(scorer, order)
                return y, obj, total_states, STATUS_BUDGET
        incumbent, obj, states, hit_budget = reference_search(scorer, order, cutoff, remaining, bound, h)
        total_states += states
        if incumbent is not None and not hit_budget:
            return incumbent, obj, total_states, STATUS_OPTIMAL
        if hit_budget:
            if incumbent is None:
                y, obj = reference_greedy_descent(scorer, order)
                return y, obj, total_states, STATUS_BUDGET
            return incumbent, obj, total_states, STATUS_BUDGET
        if not config.escalate:
            break
        cutoff *= 2.0
    y, obj = reference_greedy_descent(scorer, order)
    return y, obj, total_states, STATUS_FALLBACK


def check_against_the_references(graph, weights, x, config):
    """bb_infer against the reference with the same bound; without a state
    budget, also against the static and the prune-free search, which take
    every state it takes.  Returns bb_infer's result."""
    got = bb_infer(graph, weights, x, config)
    labels, objective, states, status = reference_bb_infer(graph, weights, x, config)
    assert got.labels.dtype == np.int8
    assert got.labels.tolist() == labels.tolist()
    assert got.objective == objective
    assert got.states_visited == states
    assert got.status == status
    if config.max_states is None:
        for bound in ("static", "none"):
            labels, objective, states, status = reference_bb_infer(graph, weights, x, config, bound)
            assert got.labels.tolist() == labels.tolist()
            assert got.objective == objective
            assert got.status == status
            assert got.states_visited <= states
    return got


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 8),
    D=st.integers(0, 3),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    zeroed=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_search_matches_the_array_reference_on_coupled_graphs(topology, K, D, scale, zeroed, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, mg.DIRECTED)
    # zeroed weights make exact score ties, which go to the +1 label
    w = rng.normal(0.0, scale, graph.n_cliques)
    weights = WeightVector(np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w), lam=1.0)
    x = rng.standard_normal(D)
    optimum = exhaustive_infer(graph, weights, x).objective
    # cutoffs below the optimum force the fallback (or escalation); at the
    # optimum nothing lies strictly under the bound
    for cutoff in sorted({1.0, max(1.0, 0.5 * optimum), max(1.0, optimum), max(1.0, optimum + 0.5), 1e9}):
        for escalate in (False, True):
            unlimited = reference_bb_infer(graph, weights, x, BBConfig(cutoff, None, escalate))
            for max_states in sorted({1, max(1, unlimited[2])}) + [None]:
                for cost_to_go in (True, False):
                    config = BBConfig(cutoff, max_states, escalate, cost_to_go)
                    check_against_the_references(graph, weights, x, config)
    scorer = compile_scorer(graph, weights, x)
    y = random_labels(rng, 1, K)[0]
    for i in range(K):
        assert mg.node_margin(graph, weights, x, y, i) == float(y[i]) * reference_node_score(scorer, i, y)


def narrow_graph(rng, topology, K, D):
    """A directed chain in a random order, or one with extra coupled
    cliques, whose frontiers are all within the tables' width cap (None if
    the coupled draw is wider)."""
    if topology == "chain":
        graph = mg.build_chain_graph(K, D, mg.DIRECTED, order=tuple(int(i) for i in rng.permutation(K)))
    else:
        graph = coupled_graph(rng, "chain", K, D, mg.DIRECTED)
    return graph if graph.frontier_codes is not None else None


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    topology=st.sampled_from(["chain", "coupled"]),
    K=st.integers(1, 16),
    D=st.integers(0, 3),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**16),
)
def test_cost_to_go_tables_keep_every_answer_of_the_static_search(topology, K, D, scale, seed):
    rng = np.random.default_rng(seed)
    graph = narrow_graph(rng, topology, K if topology == "chain" else min(K, 8), D)
    assume(graph is not None)
    weights = WeightVector(rng.normal(0.0, scale, graph.n_cliques), lam=1.0)
    x = rng.standard_normal(D)
    exact = exhaustive_infer(graph, weights, x)
    for cutoff in (1.0, 2.0, 1e9):
        for escalate in (False, True):
            for max_states in (None, 3 * K):
                config = BBConfig(cutoff=cutoff, max_states=max_states, escalate=escalate)
                got = check_against_the_references(graph, weights, x, config)
                if max_states is None:
                    static_config = BBConfig(cutoff, None, escalate, cost_to_go=False)
                    static = bb_infer(graph, weights, x, static_config)
                    assert got.labels.tolist() == static.labels.tolist()
                    assert got.objective == static.objective
                    assert got.status == static.status
                    assert got.states_visited <= static.states_visited
                if got.status == STATUS_OPTIMAL:
                    # continuous weights: the minimizer is unique
                    assert got.labels.tolist() == exact.labels.tolist()
                    assert got.objective == exact.objective


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    topology=st.sampled_from(["chain", "coupled"]),
    K=st.integers(1, 10),
    D=st.integers(0, 3),
    zeroed=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_cost_to_go_tables_bound_the_static_suffix_and_the_optimum(topology, K, D, zeroed, seed):
    rng = np.random.default_rng(seed)
    graph = narrow_graph(rng, topology, K, D)
    assume(graph is not None)
    w = rng.normal(0.0, 1.0, graph.n_cliques)
    weights = WeightVector(np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w), lam=1.0)
    x = rng.standard_normal(D)
    scorer = compile_scorer(graph, weights, x)
    codes = graph.frontier_codes
    h = inference._cost_to_go(scorer, codes)
    suffix = reference_suffix(scorer, graph.order)
    frontiers = reference_frontiers(scorer, graph.order)
    assert graph.frontiers == tuple(frontiers)
    reference = reference_cost_to_go(scorer, graph.order, frontiers)
    for p in range(K + 1):
        for f in range(1 << len(frontiers[p])):
            entry = h[2 * (codes.offset[p] + f)]
            labels = tuple(-1 if f >> b & 1 else 1 for b in range(len(frontiers[p])))
            # the same bits as the scalar DP, never below the static bound
            assert entry == reference[p][labels]
            assert entry >= suffix[p]
    # the backward sum of the optimum is within the slack of its forward sum
    optimum = exhaustive_infer(graph, weights, x).objective
    slack = 1.0 + 4 * K * 2.0**-52
    assert h[0] <= optimum * slack and optimum <= h[0] * slack


def test_cost_to_go_slack_absorbs_the_backward_rounding():
    # a chain 0 -> 1 -> 2 whose best path costs 1, 2^-53 and 2^-53: the leaf's
    # forward total 1 + 2^-53 + 2^-53 rounds to 1.0, under the cutoff
    # 1 + 2^-52, but the root plus the table below it, 1 + (2^-53 + 2^-53),
    # equals the cutoff.  The static bound sees only 2^-53 there (node 2's
    # |const| + |w| is 2), so only the relative slack keeps the tables from
    # cutting the optimum.
    graph = mg.build_chain_graph(3, 0, mg.DIRECTED)
    weights = WeightVector(np.array([0.0, 0.5 - 2**-54, 1.5, 0.5 - 2**-54, -(0.5 + 2**-53)]), lam=1.0)
    x = np.zeros(0)
    cutoff = 1 + 2**-52
    scorer = compile_scorer(graph, weights, x)
    h = inference._cost_to_go(scorer, graph.frontier_codes)
    codes = graph.frontier_codes
    below_root = h[codes.step[0]]  # position 1 after labelling node 0 +1
    assert 1.0 + below_root == cutoff
    assert 1.0 + reference_suffix(scorer, graph.order)[1] < cutoff
    for config in (BBConfig(cutoff=cutoff), BBConfig(cutoff=cutoff, cost_to_go=False)):
        res = bb_infer(graph, weights, x, config)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == 1.0
        assert res.labels.tolist() == [1, 1, 1]
    assert exhaustive_infer(graph, weights, x).objective == 1.0


def test_escalation_builds_the_tables_once_per_call(monkeypatch):
    # static bounds of 0 and every completion of a root label costing at
    # least 1 (see the budget test above): the tables are built before the
    # pass under cutoff 2, which finds nothing; the retry under cutoff 4
    # reuses them
    graph = GraphSpec(3, 0, mg.DIRECTED, (0, 1, 2),
                      (Clique((0,)), Clique((1,)), Clique((0, 1)), Clique((0, 2)), Clique((1, 2))))
    weights = WeightVector(np.array([0.0, 0.5, 0.5, 0.5, -0.5]), lam=1.0)
    builds, passes = [], []
    build, search = inference._cost_to_go, inference._search
    monkeypatch.setattr(inference, "_cost_to_go", lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(inference, "_search", lambda *a: passes.append(1) or search(*a))
    res = bb_infer(graph, weights, np.zeros(0), BBConfig(cutoff=2, escalate=True))
    assert res.status == STATUS_OPTIMAL and res.objective == 2.0
    # two passes and the greedy dive is not run; one build
    assert len(passes) == 2
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# Exhaustive enumeration on the label grid against the per-row sign matrix.


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 12),
    D=st.integers(0, 3),
    zeroed=st.sampled_from([0.0, 0.5, 1.0]),
    chunk_bits=st.sampled_from([2, 4, 9, 16]),
    seed=st.integers(0, 2**16),
)
def test_label_grid_matches_the_sign_matrix_reference(kind, topology, K, D, zeroed, chunk_bits, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, kind)
    # zeroed weights make exact ties, which go to the first minimizer
    w = rng.normal(0.0, 1.0, graph.n_cliques)
    weights = WeightVector(np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w), lam=1.0)
    x = rng.standard_normal(D)
    scorer = compile_scorer(graph, weights, x)
    reference = reference_losses(scorer, K, 0, 1 << K)
    # small chunks put labels on high bits (scalars) and the argmin across chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_GRID_CHUNK", 1 << chunk_bits)
        starts = []
        for start, totals in scorer.grid_sums():
            starts.append(start)
            expected = reference[start : start + len(totals)]
            assert totals.dtype == np.float64
            assert totals.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert starts == list(range(0, 1 << K, 1 << min(K, chunk_bits)))
        got = exhaustive_infer(graph, weights, x)
    first = int(np.argmin(reference))
    assert got.labels.tolist() == signs_from_index(K, first).tolist()
    assert got.objective == reference[first]
    if kind == mg.DIRECTED:
        assert bb_infer(graph, weights, x).objective == got.objective


# ---------------------------------------------------------------------------
# The zero-loss pass against the grid argmin.


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["chain", "full"]),
    K=st.sampled_from(range(1, 12)),
    D=st.integers(0, 3),
    zeroed=st.sampled_from([0.0, 0.3, 0.7]),
    scale=st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0]),
    tilt=st.sampled_from([0.0, 2.0, 5.0]),
    seed=st.integers(0, 2**16),
)
def test_exhaustive_matches_the_grid_argmin_reference(kind, topology, K, D, zeroed, scale, tilt, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, kind)
    # zeroed weights make exact ties; tilted biases (the builders' first K
    # cliques) plant a zero-loss assignment, so that about half the rows
    # stop in the pass and half are enumerated
    w = rng.normal(0.0, scale, graph.n_cliques)
    w = np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w)
    w[:K] += tilt * scale * np.where(rng.random(K) < 0.5, 1.0, -1.0)
    weights = WeightVector(w, lam=1.0)
    x = rng.standard_normal(D)
    labels, objective = reference_exhaustive(graph, weights, x)
    enumerated = []
    grid_sums = model.NodeScorer.grid_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model.NodeScorer, "grid_sums", lambda self: enumerated.append(1) or grid_sums(self))
        got = exhaustive_infer(graph, weights, x)
    assert got.labels.tolist() == labels.tolist()
    assert got.objective == objective
    assert got.status == STATUS_OPTIMAL
    assert (got.states_visited > 1 << K) == bool(enumerated)
    assert got.states_visited <= inference._pass_budget(K) + (len(enumerated) << K)
    if not enumerated:
        assert got.objective == 0.0


def test_the_pass_keeps_a_zero_leaf_whose_margin_is_one_in_term_order():
    # node 0 owns cliques (0, 2) and (0, 1), in that term order: its score
    # at the first leaf, all +1, sums (0.2 + 0.1) + 0.7 == 1.0, a margin of
    # exactly 1, but the pass adds the terms as their last partners are
    # set, (0.2 + 0.7) + 0.1 < 1.0; only the slack keeps the leaf
    graph = GraphSpec(3, 0, mg.DIRECTED, (1, 2, 0),
                      (Clique((0,)), Clique((1,)), Clique((2,)), Clique((0, 2)), Clique((0, 1))))
    weights = WeightVector(np.array([0.2, 2.0, 2.0, 0.1, 0.7]), lam=1.0)
    assert (0.2 + 0.1) + 0.7 == 1.0 and (0.2 + 0.7) + 0.1 < 1.0
    res = exhaustive_infer(graph, weights, np.zeros(0))
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 0.0
    # found by the first dive, not by enumeration
    assert res.states_visited == 3


def test_the_pass_stops_at_its_budget_on_a_frustrated_graph():
    # every pair coupled at -0.5: node i's margin is -0.5 y_i times the sum
    # of the other labels, so a margin of 1 needs two more labels of the
    # opposite sign among the others, which no split gives every node; yet
    # the bounds prune little until deep in the tree (the unbounded pass
    # sets 1342 labels).  With edges at -1 a balanced split has every margin
    # exactly 1, and the pass finds it.
    K = 12
    graph = mg.build_full_graph(K, 0, mg.UNDIRECTED)
    weights = WeightVector(np.where(np.diff(graph.cliques.indptr) == 2, -0.5, 0.0), lam=1.0)
    res = exhaustive_infer(graph, weights, np.zeros(0))
    budget = inference._pass_budget(K)
    assert budget == 128
    assert res.states_visited == budget + 4096
    labels, objective = reference_exhaustive(graph, weights, np.zeros(0))
    assert objective > 0.0
    assert res.labels.tolist() == labels.tolist()
    assert res.objective == objective


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_exhaustive_memory_is_bounded_per_chunk(kind):
    # 2^20 assignments in 16 chunks: the traced peak read 2.9 MB (directed)
    # and 2.2 MB (undirected) on the label grid, against 31 MB for the
    # per-row (2^16, 20) sign matrix; the bound is the larger peak plus 8 MB.
    tracemalloc.start()
    try:
        graph = mg.build_full_graph(20, 1, kind)
        weights = WeightVector(np.random.default_rng(0).normal(0.0, 1.0, graph.n_cliques), lam=1.0)
        exhaustive_infer(graph, weights, np.array([0.5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20
