"""Branch-and-bound search, exhaustive oracle, and the flip-descent baseline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import BBConfig, Clique, GraphSpec, Instance, WeightVector, model
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

from _helpers import coupled_graph, random_labels, random_model, reference_icm, reference_losses


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
    assert ex.states_visited == 4


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
    assert res.states_visited == 8
    assert res.status == STATUS_OPTIMAL


def test_bb_config_validation():
    with pytest.raises(DataError):
        BBConfig(cutoff=0.5)
    with pytest.raises(DataError):
        BBConfig(max_states=0)


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


def reference_search(scorer, order, cutoff, budget, bound=True):
    """With bound=False, the search before it pruned on the cost still to come."""
    K = scorer.n_outputs
    suffix = reference_suffix(scorer, order) if bound else [0.0] * (K + 1)
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
        if total >= upper or (bound and total + suffix[p + 1] >= upper * slack):
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


def reference_bb_infer(graph, weights, x, config, bound=True):
    scorer = compile_scorer(graph, weights, x)
    order = graph.order
    cutoff = float(config.cutoff)
    total_states = 0
    for _ in range(_ESCALATE_CAP + 1):
        remaining = None
        if config.max_states is not None:
            remaining = config.max_states - total_states
            if remaining <= 0:
                y, obj = reference_greedy_descent(scorer, order)
                return y, obj, total_states, STATUS_BUDGET
        incumbent, obj, states, hit_budget = reference_search(scorer, order, cutoff, remaining, bound)
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
                config = BBConfig(cutoff=cutoff, max_states=max_states, escalate=escalate)
                labels, objective, states, status = reference_bb_infer(graph, weights, x, config)
                got = bb_infer(graph, weights, x, config)
                assert got.labels.dtype == np.int8
                assert got.labels.tolist() == labels.tolist()
                assert got.objective == objective
                assert got.states_visited == states
                assert got.status == status
                if max_states is None:
                    # the bound only prunes: same answer as the prune-free search
                    labels, objective, states, status = reference_bb_infer(graph, weights, x, config, bound=False)
                    assert got.labels.tolist() == labels.tolist()
                    assert got.objective == objective
                    assert got.status == status
                    assert got.states_visited <= states
    scorer = compile_scorer(graph, weights, x)
    y = random_labels(rng, 1, K)[0]
    for i in range(K):
        assert mg.node_margin(graph, weights, x, y, i) == float(y[i]) * reference_node_score(scorer, i, y)


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
