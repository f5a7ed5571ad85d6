"""Branch-and-bound search for both model kinds, and the exhaustive oracle."""

import dataclasses
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
from margraph.errors import CapabilityError, DataError
from margraph.inference import (
    STATUS_BUDGET,
    STATUS_FALLBACK,
    STATUS_OPTIMAL,
    bb_infer,
    bb_infer_chunk,
    exhaustive_infer,
    exhaustive_infer_chunk,
)
from margraph.model import compile_scorer, signs_of_indices

from _helpers import (
    compiled_chunk,
    coupled_graph,
    random_labels,
    random_model,
    reference_exhaustive,
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


def test_escalation_searches_once_with_no_cutoff():
    graph, weights, x = zero_model(3)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2, escalate=True))
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 3.0
    # the first dive takes 3 states to a leaf of loss 3; 4 more reach node 2
    # by other paths, where every leaf ties that loss and is cut
    assert res.states_visited == 7
    unbounded = bb_infer(graph, weights, x, BBConfig(cutoff=math.inf))
    assert res.labels.tolist() == unbounded.labels.tolist()
    assert (res.objective, res.states_visited, res.status) == (
        unbounded.objective, unbounded.states_visited, unbounded.status)


def test_exhausted_state_budget_reports_budget_status():
    graph, weights, x = zero_model(3)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=10, max_states=2))
    assert res.status == STATUS_BUDGET
    assert res.states_visited <= 2
    assert res.objective == 3.0  # greedy completion still answers


def test_escalation_spends_the_budget_in_one_pass_with_no_cutoff():
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
    # with no cutoff the first dive reaches (+1, +1, +1) at loss 2 in 3
    # states, and the pass proves it optimal with one more
    for max_states, status in ((3, STATUS_BUDGET), (4, STATUS_OPTIMAL)):
        res = bb_infer(graph, weights, x, BBConfig(cutoff=2, max_states=max_states, escalate=True))
        assert res.status == status
        assert res.states_visited == max_states
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


def test_bb_searches_undirected_graphs():
    # a frustrated triangle: every pair coupled at -1 with biases 0.5, 0.2
    # and -0.3, so no assignment has every margin 1 (the optimum, (+1, +1,
    # -1), costs 1.3); the index-order search proves the optimum that
    # enumeration finds, and under cutoff 1 it returns its greedy dive:
    # label 0 by its bias, label 1 by 0.2 - y_0 and label 2 by
    # -0.3 - y_0 - y_1, each sign in turn
    graph = mg.build_full_graph(3, 0, mg.UNDIRECTED)
    weights = WeightVector(np.array([0.5, 0.2, -0.3, -1.0, -1.0, -1.0]), lam=1.0)
    x = np.zeros(0)
    ex = exhaustive_infer(graph, weights, x)
    assert ex.labels.tolist() == [1, 1, -1]
    res = bb_infer(graph, weights, x)
    assert res.status == STATUS_OPTIMAL
    assert res.objective == ex.objective
    assert res.labels.tolist() == ex.labels.tolist()
    low = bb_infer(graph, weights, x, BBConfig(cutoff=1))
    assert low.status == STATUS_FALLBACK
    assert low.labels.tolist() == [1, -1, -1]
    assert low.objective == mg.joint_loss(graph, weights, Instance(x, low.labels)).total > ex.objective


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
    the static bound otherwise; "static" or "none" as in reference_search.

    With ``escalate`` this is the loop escalation once ran: passes under S,
    2S, 4S, ... (61 at most) until one finds a leaf.  The one pass with no
    cutoff that replaced it returns the same labels, objective and status,
    though not the same states, so the loop is their reference; it never
    ran under a state budget here."""
    assert not (config.escalate and config.max_states is not None)
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
    for _ in range(61):
        incumbent, obj, states, hit_budget = reference_search(scorer, order, cutoff, config.max_states, bound, h)
        total_states += states
        if incumbent is not None:
            return incumbent, obj, total_states, STATUS_BUDGET if hit_budget else STATUS_OPTIMAL
        if hit_budget:
            y, obj = reference_greedy_descent(scorer, order)
            return y, obj, total_states, STATUS_BUDGET
        if not config.escalate:
            break
        cutoff *= 2.0
    y, obj = reference_greedy_descent(scorer, order)
    return y, obj, total_states, STATUS_FALLBACK


def one_pass(config):
    """The config of the one pass bb_infer runs: escalation drops the cutoff."""
    return dataclasses.replace(config, cutoff=math.inf, escalate=False) if config.escalate else config


def check_against_the_references(graph, weights, x, config):
    """bb_infer against the reference with the same bound, escalation as one
    pass with no cutoff; without a state budget, also against the static and
    the prune-free search, which take every state it takes, and against the
    reference's escalation loop.  Returns bb_infer's result."""
    got = bb_infer(graph, weights, x, config)
    single = one_pass(config)
    labels, objective, states, status = reference_bb_infer(graph, weights, x, single)
    assert got.labels.dtype == np.int8
    assert got.labels.tolist() == labels.tolist()
    assert got.objective == objective
    assert got.states_visited == states
    assert got.status == status
    if config.max_states is None:
        references = [(single, "static"), (single, "none")]
        if config.escalate:
            references.append((config, "tables"))
        for reference, bound in references:
            labels, objective, states, status = reference_bb_infer(graph, weights, x, reference, bound)
            assert got.labels.tolist() == labels.tolist()
            assert got.objective == objective
            assert got.status == status
            if reference is single:
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
    # cutoffs below the optimum force the fallback (unless escalated); at
    # the optimum nothing lies strictly under the bound
    for cutoff in sorted({1.0, max(1.0, 0.5 * optimum), max(1.0, optimum), max(1.0, optimum + 0.5), 1e9}):
        for escalate in (False, True):
            unlimited = reference_bb_infer(graph, weights, x, one_pass(BBConfig(cutoff, None, escalate)))
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
    [h] = inference._cost_to_go(codes, *compiled_chunk(graph, weights, x[None])[:2])
    suffix = reference_suffix(scorer, graph.order)
    frontiers = reference_frontiers(scorer, graph.order)
    # entries run by position, then by frontier code, so a wrong frontier
    # shifts the numbering of every later entry
    offset = np.cumsum([0] + [1 << len(f) for f in frontiers]).tolist()
    assert len(codes.node) == offset[K]
    reference = reference_cost_to_go(scorer, graph.order, frontiers)
    for p in range(K + 1):
        for f in range(1 << len(frontiers[p])):
            entry = h[2 * (offset[p] + f)]
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
    codes = graph.frontier_codes
    [h] = inference._cost_to_go(codes, *compiled_chunk(graph, weights, x[None])[:2])
    below_root = h[codes.step[0]]  # position 1 after labelling node 0 +1
    assert 1.0 + below_root == cutoff
    assert 1.0 + reference_suffix(scorer, graph.order)[1] < cutoff
    for config in (BBConfig(cutoff=cutoff), BBConfig(cutoff=cutoff, cost_to_go=False)):
        res = bb_infer(graph, weights, x, config)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == 1.0
        assert res.labels.tolist() == [1, 1, 1]
    assert exhaustive_infer(graph, weights, x).objective == 1.0


@pytest.mark.parametrize("cost_to_go", [True, False])
@pytest.mark.parametrize("escalate, cutoffs, status", [
    (True, [math.inf], STATUS_OPTIMAL),
    (False, [2.0, math.inf], STATUS_FALLBACK),
])
def test_bb_infer_builds_the_tables_once_per_call(monkeypatch, cost_to_go, escalate, cutoffs, status):
    # bb_infer is a chunk of one row: one cost-to-go build for the chunk,
    # or one static table for its row
    # static bounds of 0 and every completion of a root label costing at
    # least 1 (see the budget test above): the table is built before the
    # pass.  Under cutoff 2 the pass finds nothing and the greedy fallback
    # reads the same table; escalated, the one pass has no cutoff.
    graph = GraphSpec(3, 0, mg.DIRECTED, (0, 1, 2),
                      (Clique((0,)), Clique((1,)), Clique((0, 1)), Clique((0, 2)), Clique((1, 2))))
    weights = WeightVector(np.array([0.0, 0.5, 0.5, 0.5, -0.5]), lam=1.0)
    built = {"_cost_to_go": [], "_static_table": []}
    tables = []

    def counted(name):
        helper = getattr(inference, name)
        return lambda *a: built[name].append(helper(*a)) or built[name][-1]

    for name in built:
        monkeypatch.setattr(inference, name, counted(name))
    search = inference._search
    passes = []
    monkeypatch.setattr(inference, "_search", lambda *a: passes.append(a[3]) or tables.append(a[5]) or search(*a))
    config = BBConfig(cutoff=2, escalate=escalate, cost_to_go=cost_to_go)
    res = bb_infer(graph, weights, np.zeros(0), config)
    assert res.status == status
    if escalate:
        assert res.objective == 2.0
    else:
        y, obj = reference_greedy_descent(compile_scorer(graph, weights, np.zeros(0)), graph.order)
        assert res.labels.tolist() == y.tolist() and res.objective == obj
    # one pass, or one pass and the greedy dive; one build, read by both
    assert passes == cutoffs
    assert all(table is tables[0] for table in tables)
    assert len(built["_cost_to_go"]) == int(cost_to_go)
    assert len(built["_static_table"]) == int(not cost_to_go)
    if cost_to_go:
        [[h]] = built["_cost_to_go"]
        assert tables[0] == (graph.frontier_codes.step, [h[k] for k in graph.frontier_codes.step])
    else:
        assert tables[0] is built["_static_table"][0]


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
    assert got.labels.tolist() == signs_of_indices(K, [first])[0].tolist()
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


# ---------------------------------------------------------------------------
# The index-order search on undirected graphs against enumeration.


def reference_greedy_dive(graph, scorer):
    """The index-order search's first dive: label k takes the sign of A_k,
    node k's constant plus its terms whose partners are all among labels
    0..k-1, each added when its last partner is set (``GraphSpec.closing``),
    +1 on a tie."""
    a = scorer.const.tolist()
    y = [0] * graph.n_outputs
    for k, (closed, _) in enumerate(graph.closing):
        y[k] = 1 if a[k] >= 0.0 else -1
        for i, t in closed:
            w_eff, partners = scorer.terms[i][t]
            a[i] += w_eff * math.prod(y[j] for j in partners)
    return y


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    topology=st.sampled_from(["independent", "chain", "full"]),
    K=st.integers(1, 10),
    D=st.integers(0, 2),
    zeroed=st.sampled_from([0.0, 0.5]),
    cutoff=st.sampled_from([1.0, 2.0, 4.0, 1e9]),
    escalate=st.booleans(),
    max_states=st.sampled_from([None, 5, 50]),
    seed=st.integers(0, 2**16),
)
def test_undirected_bb_matches_enumeration(topology, K, D, zeroed, cutoff, escalate, max_states, seed):
    rng = np.random.default_rng(seed)
    if topology == "independent":
        graph = mg.build_independent_graph(K, D, mg.UNDIRECTED)
    else:
        graph = coupled_graph(rng, topology, K, D, mg.UNDIRECTED)
    # coupled cliques at scale 3 frustrate the labels; zeroed weights make ties
    sizes = np.diff(graph.cliques.indptr)
    w = rng.normal(0.0, 1.0, graph.n_cliques) * np.where(sizes > 1, 3.0, 1.0)
    weights = WeightVector(np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w), lam=1.0)
    x = rng.standard_normal(D)
    scorer = compile_scorer(graph, weights, x)
    losses = reference_losses(scorer, K, 0, 1 << K)
    ex = exhaustive_infer(graph, weights, x)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=cutoff, escalate=escalate, max_states=max_states))
    assert res.objective == mg.joint_loss(graph, weights, Instance(x, res.labels)).total
    assert res.objective >= ex.objective
    if max_states is not None:
        assert res.states_visited <= max_states
    if res.status == STATUS_OPTIMAL:
        assert res.objective == ex.objective
        if np.count_nonzero(losses == ex.objective) == 1:
            assert res.labels.tolist() == ex.labels.tolist()
    if res.status == STATUS_FALLBACK:
        assert res.labels.tolist() == reference_greedy_dive(graph, scorer)
    if escalate and max_states is None:
        assert res.status == STATUS_OPTIMAL


def test_undirected_low_cutoff_returns_the_greedy_dive_unless_escalated():
    graph, weights, x = zero_model(3, mg.UNDIRECTED)
    # every assignment has loss 3, so nothing beats cutoff 2
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2))
    assert res.status == STATUS_FALLBACK
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 3.0
    # the one pass with no cutoff takes the whole tree: 2 + 4 + 8 labels, as
    # a leaf of loss 3 ties and never lowers the bound
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2, escalate=True))
    assert res.status == STATUS_OPTIMAL
    assert res.objective == 3.0
    assert res.states_visited == 14
    # one label: both values are tried, as loss 1 does not end the search
    res = bb_infer(*zero_model(1, mg.UNDIRECTED), BBConfig(cutoff=2))
    assert res.status == STATUS_OPTIMAL
    assert res.labels.tolist() == [1]
    assert res.objective == 1.0
    assert res.states_visited == 2


@pytest.mark.parametrize("max_states, states", [(3, 3), (2, 2)])
def test_undirected_budget_keeps_the_best_leaf_seen(max_states, states):
    # three states reach the first leaf, which is kept; two do not, and the
    # greedy dive answers; both report the budget
    graph, weights, x = zero_model(3, mg.UNDIRECTED)
    res = bb_infer(graph, weights, x, BBConfig(cutoff=10, max_states=max_states))
    assert res.status == STATUS_BUDGET
    assert res.states_visited == states
    assert res.labels.tolist() == [1, 1, 1]
    assert res.objective == 3.0


def test_undirected_search_ends_at_its_first_zero_loss_leaf():
    # biases -2, 3, -2, 3: the greedy dive sets each label once and lands on
    # loss 0; the exhaustive pass tries +1 first, which labels 0 and 2 prune
    graph = mg.build_independent_graph(4, 0, mg.UNDIRECTED)
    weights = WeightVector(np.array([-2.0, 3.0, -2.0, 3.0]), lam=1.0)
    x = np.zeros(0)
    res = bb_infer(graph, weights, x)
    assert res.status == STATUS_OPTIMAL
    assert res.labels.tolist() == [-1, 1, -1, 1]
    assert res.objective == 0.0
    assert res.states_visited == 4
    ex = exhaustive_infer(graph, weights, x)
    assert ex.labels.tolist() == [-1, 1, -1, 1]
    assert ex.states_visited == 6


def test_undirected_bb_ignores_cost_to_go():
    rng = np.random.default_rng(29)
    for _ in range(40):
        graph, weights, x = random_model(rng, mg.UNDIRECTED, max_outputs=8, scale=2.0)
        for cutoff, max_states in ((1.0, None), (2.0, 20), (1e9, None)):
            on = bb_infer(graph, weights, x, BBConfig(cutoff=cutoff, max_states=max_states))
            off = bb_infer(graph, weights, x, BBConfig(cutoff=cutoff, max_states=max_states, cost_to_go=False))
            assert on.labels.tolist() == off.labels.tolist()
            assert (on.objective, on.states_visited, on.status) == (off.objective, off.states_visited, off.status)


@pytest.mark.parametrize("escalate, cutoffs, status", [
    (True, [math.inf], STATUS_OPTIMAL),
    (False, [2.0, math.inf], STATUS_FALLBACK),
])
def test_undirected_bb_builds_the_table_once_per_call(monkeypatch, escalate, cutoffs, status):
    # cutoff 2 finds nothing on the zero model (every loss is 3), and the
    # greedy dive reads the table the pass read; escalated, the one pass has
    # no cutoff.  No directed table is built.
    graph, weights, x = zero_model(3, mg.UNDIRECTED)
    built = {"_closing_table": [], "_cost_to_go": [], "_static_table": []}
    tables = []

    def counted(name):
        helper = getattr(inference, name)
        return lambda *a, **kw: built[name].append(helper(*a, **kw)) or built[name][-1]

    for name in built:
        monkeypatch.setattr(inference, name, counted(name))
    search = inference._index_search
    passes = []
    monkeypatch.setattr(inference, "_index_search",
                        lambda *a: passes.append(a[3]) or tables.append(a[5]) or search(*a))
    res = bb_infer(graph, weights, x, BBConfig(cutoff=2, escalate=escalate))
    assert res.status == status
    assert res.objective == 3.0
    assert passes == cutoffs
    assert all(table is tables[0] for table in tables)
    assert len(built["_closing_table"]) == 1 and tables[0] == (built["_closing_table"][0][0], True)
    assert tables[0][0] is built["_closing_table"][0][0]
    assert built["_cost_to_go"] == [] and built["_static_table"] == []


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["independent", "chain", "full"]),
    K=st.integers(1, 8),
    D=st.integers(0, 3),
    scale=st.sampled_from([0.5, 1.5, 3.0]),
    cutoff=st.sampled_from([1.0, 2.0, 4.0]) | st.floats(1.0, 1e9),
    cost_to_go=st.booleans(),
    max_states=st.sampled_from([None, 1, 20]),
    seed=st.integers(0, 2**16),
)
def test_escalation_is_one_pass_with_no_cutoff(kind, topology, K, D, scale, cutoff, cost_to_go, max_states, seed):
    rng = np.random.default_rng(seed)
    if topology == "independent":
        graph = mg.build_independent_graph(K, D, kind)
    else:
        graph = coupled_graph(rng, topology, K, D, kind)
    sizes = np.diff(graph.cliques.indptr)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques) * np.where(sizes > 1, scale, 1.0), lam=1.0)
    x = rng.standard_normal(D)
    got = bb_infer(graph, weights, x, BBConfig(cutoff, max_states, True, cost_to_go))
    unbounded = bb_infer(graph, weights, x, BBConfig(math.inf, max_states, False, cost_to_go))
    assert got.labels.tolist() == unbounded.labels.tolist()
    assert (got.objective, got.states_visited, got.status) == (
        unbounded.objective, unbounded.states_visited, unbounded.status)
    if max_states is None:
        # the answers of the loop escalation once ran: passes under S, 2S,
        # 4S, ... until one finds a leaf
        res = bb_infer(graph, weights, x, BBConfig(cutoff, None, False, cost_to_go))
        while res.status == STATUS_FALLBACK:
            cutoff *= 2.0
            res = bb_infer(graph, weights, x, BBConfig(cutoff, None, False, cost_to_go))
        assert got.labels.tolist() == res.labels.tolist()
        assert (got.objective, got.status) == (res.objective, STATUS_OPTIMAL)


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


# ---------------------------------------------------------------------------
# Chunk decoding against per-row calls, and the chunk's bound tables against
# the scalar builds they replaced, kept here as references.


def reference_cost_to_go_table(scorer, codes):
    """h[2e] for one row by the scalar build: node scores from
    ``compile_scorer``'s tables on one row's arrays, then the backward DP."""
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


def reference_closing_needs(scorer, closing):
    """Every label's checks for one row by the scalar loop, flattened label
    by label: node i's margin bound 1 - slack_i - R_i, R_i its open |w_eff|
    once the label's terms are closed."""
    const = scorer.const.tolist()
    terms = scorer.terms
    open_sum = []
    floor = []
    for i in range(scorer.n_outputs):
        r = 0.0
        for w_eff, _ in terms[i]:
            r += abs(w_eff)
        m = abs(const[i]) + r
        open_sum.append(r)
        floor.append(1.0 - 4 * (len(terms[i]) + 1) * max(m, 1.0) * 2.0**-52)
    needs = []
    for closed, nodes in closing:
        for i, t in closed:
            open_sum[i] -= abs(terms[i][t][0])
        needs += [floor[i] - open_sum[i] for i in nodes]
    return needs


def outcome(res):
    return res.labels.dtype, res.labels.tolist(), res.objective, res.states_visited, res.status


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["independent", "chain", "full"]),
    K=st.integers(1, 9),
    D=st.integers(0, 3),
    n=st.sampled_from([1, 2, 9]),
    scale=st.sampled_from([0.3, 1.0, 3.0]),
    tilt=st.sampled_from([0.0, 4.0]),
    zeroed=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_a_chunk_decodes_as_its_rows(kind, topology, K, D, n, scale, tilt, zeroed, seed):
    """Every decoder on a chunk gives each row's per-row result, bit for
    bit: the directed search with and without cost-to-go tables, cutoff 1
    (below any coupled optimum at scale 0.3, so the greedy fallback), a
    budget of one state, escalation, undirected bb, and the exhaustive
    oracle, whose rows stop in the zero-loss pass (tilted biases) or are
    enumerated.  The chunk's tables equal the scalar builds entry by entry."""
    rng = np.random.default_rng(seed)
    if topology == "independent":
        graph = mg.build_independent_graph(K, D, kind)
    else:
        graph = coupled_graph(rng, topology, K, D, kind)
    w = rng.normal(0.0, scale, graph.n_cliques)
    w = np.where(rng.random(graph.n_cliques) < zeroed, 0.0, w)
    w[:K] += tilt * np.where(rng.random(K) < 0.5, 1.0, -1.0)
    weights = WeightVector(w, lam=1.0)
    X = rng.standard_normal((n, D))
    configs = [BBConfig(), BBConfig(cutoff=1.0), BBConfig(max_states=1), BBConfig(cutoff=1.0, escalate=True)]
    configs += [dataclasses.replace(c, cost_to_go=False) for c in configs]
    for config in configs:
        chunk = bb_infer_chunk(graph, weights, X, config)
        assert list(map(outcome, chunk)) == [outcome(bb_infer(graph, weights, x, config)) for x in X]
    chunk = exhaustive_infer_chunk(graph, weights, X)
    assert list(map(outcome, chunk)) == [outcome(exhaustive_infer(graph, weights, x)) for x in X]

    const, coupled, rows = compiled_chunk(graph, weights, X)
    needs = inference._closing_table(graph, const, coupled)
    codes = graph.frontier_codes if kind == mg.DIRECTED else None
    h = inference._cost_to_go(codes, const, coupled) if codes is not None else None
    for r, x in enumerate(X):
        scorer = compile_scorer(graph, weights, x)
        assert const[r].tolist() == rows[r][0] == scorer.const.tolist()
        assert rows[r][1] == [w_eff for node in scorer.terms for w_eff, _ in node]
        assert needs[r] == reference_closing_needs(scorer, graph.closing)
        if h is not None:
            assert h[r] == reference_cost_to_go_table(scorer, codes)


def test_the_chunk_compile_refuses_the_first_row_that_overflows():
    # row 1's input makes node 0's score reach past 2^1023: the chunk is
    # refused with compile_scorer's error for that row, before any search
    graph = mg.build_chain_graph(2, 1, mg.DIRECTED)
    weights = WeightVector(np.ones(graph.n_cliques), lam=1.0)
    X = np.array([[1.0], [1e308], [1e308]])
    with pytest.raises(DataError) as expected:
        compile_scorer(graph, weights, X[1])
    for decode in (bb_infer_chunk, exhaustive_infer_chunk):
        with pytest.raises(DataError) as got:
            decode(graph, weights, X)
        assert str(got.value) == str(expected.value)
    assert bb_infer_chunk(graph, weights, X[:0]) == []
