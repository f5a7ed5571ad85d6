"""Graph construction, clique validation, and ownership."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import Clique, Dataset, GraphSpec
from margraph.errors import GraphError
from margraph.training import clique_feature_matrix

from _helpers import (
    BUILDERS,
    ReferenceClique,
    coupled_graph,
    layout_terms,
    reference_graph_check,
    reference_routing,
)


def _one_clique_graph(*clique):
    return GraphSpec(4, 5, mg.DIRECTED, (0, 1, 2, 3), (Clique(*clique),))


def test_clique_sorts_and_dedupes_outputs():
    c = _one_clique_graph((3, 1, 3, 2)).cliques[0]
    assert c.outputs == (1, 2, 3)
    assert c.input_feature is None


def test_clique_keeps_input_feature():
    assert Clique((0,), 4).input_feature == 4
    assert _one_clique_graph((0,), 4).cliques[0].input_feature == 4


def test_clique_rejects_empty_outputs():
    with pytest.raises(GraphError):
        _one_clique_graph(())


def test_clique_rejects_negative_indices():
    with pytest.raises(GraphError):
        _one_clique_graph((-1, 2))
    with pytest.raises(GraphError):
        _one_clique_graph((0,), -2)


def test_clique_feature_is_label_parity_times_input():
    graph = GraphSpec(3, 2, mg.DIRECTED, (0, 1, 2), (Clique((0, 2), 1),))
    Y = np.array([[1, 1, 1], [-1, 1, 1], [-1, 1, -1]], dtype=np.int8)
    dataset = Dataset(np.tile([5.0, 3.0], (3, 1)), Y)
    assert clique_feature_matrix(graph, dataset)[:, 0].tolist() == [3.0, -3.0, 3.0]


def test_flipping_one_member_negates_the_feature():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        members = rng.choice(8, size=n, replace=False)
        c = Clique(tuple(int(k) for k in members))
        graph = GraphSpec(8, 0, mg.DIRECTED, tuple(range(8)), (c,))
        y = np.where(rng.random(8) < 0.5, 1, -1)
        y2 = y.copy()
        k = int(rng.choice(members))
        y2[k] = -y2[k]
        F = clique_feature_matrix(graph, Dataset(np.zeros((2, 0)), np.stack([y, y2])))
        assert F[1, 0] == -F[0, 0]


def test_graph_requires_order_permutation():
    with pytest.raises(GraphError):
        GraphSpec(2, 0, mg.DIRECTED, (0, 0), (Clique((0,)),))
    with pytest.raises(GraphError):
        GraphSpec(2, 0, mg.DIRECTED, (0,), (Clique((0,)),))


@pytest.mark.parametrize("args, message", [
    ((0, 0, mg.DIRECTED, (), ()), "need at least one output"),
    ((1, -1, mg.DIRECTED, (0,), ()), "negative input dimension"),
    ((2, 0, mg.DIRECTED, (0, 1), (Clique((0,)), (0, 1))), "not a clique"),
    ((99999999999999, 0, mg.DIRECTED, (0, 1), ()), "permutation"),
])
def test_graph_checks_name_the_fault(args, message):
    with pytest.raises(GraphError, match=message):
        GraphSpec(*args)


@pytest.mark.parametrize("build, value", [
    (lambda: GraphSpec(2, 0, mg.DIRECTED, (0, 1), (Clique((0.7, 1.2)),)), "0.7"),
    (lambda: GraphSpec(2, 1, mg.DIRECTED, (0.2, 1.9), (Clique((0,)),)), "0.2"),
    (lambda: GraphSpec(2.5, 0, mg.DIRECTED, (0, 1), ()), "2.5"),
    (lambda: mg.build_chain_graph(3, 1.0, mg.DIRECTED), "1.0"),
], ids=["clique-member", "order-entry", "output-count", "builder-input-dimension"])
def test_a_non_integer_index_is_refused_not_truncated(build, value):
    with pytest.raises(GraphError, match=rf"must be an integer, got {value}$"):
        build()


def test_integer_numpy_scalars_and_bools_are_indices():
    g = GraphSpec(np.int64(2), True, mg.DIRECTED, np.array([1, 0]), (Clique((np.int32(1), False), np.int8(0)),))
    assert (g.n_outputs, g.n_inputs, g.order) == (2, 1, (1, 0))
    assert all(type(v) is int for v in (g.n_outputs, g.n_inputs, *g.order))
    assert list(g.cliques) == [Clique((0, 1), 0)]
    assert mg.build_full_graph(np.int64(3), np.int64(1), mg.DIRECTED) == mg.build_full_graph(3, 1, mg.DIRECTED)


def test_graph_rejects_bad_kind():
    with pytest.raises(GraphError):
        GraphSpec(1, 0, "sideways", (0,), (Clique((0,)),))


def test_graph_rejects_duplicate_cliques():
    with pytest.raises(GraphError):
        GraphSpec(2, 0, mg.DIRECTED, (0, 1), (Clique((0, 1)), Clique((1, 0))))


def test_graph_rejects_out_of_range_clique():
    with pytest.raises(GraphError):
        GraphSpec(2, 0, mg.DIRECTED, (0, 1), (Clique((0, 5)),))
    with pytest.raises(GraphError):
        GraphSpec(2, 1, mg.DIRECTED, (0, 1), (Clique((0,), 1),))


def test_directed_owner_is_latest_member_in_order():
    g = GraphSpec(
        3, 0, mg.DIRECTED, (2, 0, 1),
        (Clique((0,)), Clique((0, 1)), Clique((0, 2)), Clique((1, 2))),
    )
    # positions: node2 first, node0 second, node1 last, so the owners of
    # the four cliques are nodes 0, 1, 0, 1
    assert g.contributing == ((0, 2), (1, 3), ())


def test_undirected_clique_contributes_to_every_member():
    g = GraphSpec(
        3, 0, mg.UNDIRECTED, (0, 1, 2),
        (Clique((0,)), Clique((0, 1)), Clique((1, 2))),
    )
    assert g.contributing == ((0, 1), (1, 2), (2,))


def test_directed_every_clique_feeds_exactly_one_node():
    rng = np.random.default_rng(1)
    for _ in range(20):
        K = int(rng.integers(1, 7))
        g = mg.build_full_graph(K, int(rng.integers(0, 3)), mg.DIRECTED,
                                order=rng.permutation(K))
        counts = [0] * g.n_cliques
        for feeds in g.contributing:
            for j in feeds:
                counts[j] += 1
        assert counts == [1] * g.n_cliques


def test_builder_clique_counts():
    K, D = 4, 3
    gi = mg.build_independent_graph(K, D, mg.DIRECTED)
    assert gi.n_cliques == K + K * D
    gc = mg.build_chain_graph(K, D, mg.DIRECTED)
    assert gc.n_cliques == K + K * D + (K - 1)
    gf = mg.build_full_graph(K, D, mg.DIRECTED)
    assert gf.n_cliques == K + K * D + K * (K - 1) // 2


# K=3, D=2: each node's bias clique, then each node's input cliques node by
# node, then the pair cliques
_UNARY_3_2 = [
    ((0,), None), ((1,), None), ((2,), None),
    ((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1), ((2,), 0), ((2,), 1),
]


@pytest.mark.parametrize("build, order, pairs", [
    (mg.build_independent_graph, (0, 1, 2), []),
    (mg.build_chain_graph, (1, 2, 0), [(1, 2), (0, 2)]),
    (mg.build_full_graph, (2, 0, 1), [(0, 1), (0, 2), (1, 2)]),
])
@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_builder_clique_lists(build, order, pairs, kind):
    g = build(3, 2, kind, order=order)
    assert (g.n_outputs, g.n_inputs, g.kind, g.order) == (3, 2, kind, order)
    assert [(c.outputs, c.input_feature) for c in g.cliques] == _UNARY_3_2 + [(p, None) for p in pairs]


def test_independent_graph_defaults_to_directed_in_index_order():
    g = mg.build_independent_graph(2, 0)
    assert (g.kind, g.order) == (mg.DIRECTED, (0, 1))


def test_chain_pairs_follow_the_given_order():
    g = mg.build_chain_graph(3, 0, mg.DIRECTED, order=(2, 0, 1))
    pairs = [c.outputs for c in g.cliques if len(c.outputs) == 2]
    assert pairs == [(0, 2), (0, 1)]


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_routing_matches_the_owner_chain_reference(kind):
    rng = np.random.default_rng(12)
    for _ in range(200):
        K = int(rng.integers(1, 8))
        D = int(rng.integers(0, 4))
        topology = str(rng.choice(list(BUILDERS)))
        if topology != "independent" and rng.random() < 0.5:
            graph = coupled_graph(rng, topology, K, D, kind)
        else:
            order = tuple(int(i) for i in rng.permutation(K))
            graph = BUILDERS[topology](K, D, kind, order=order)
        contributing, feeds, coupled, *unary = reference_routing(graph)
        layout = graph.layout
        assert graph.contributing == contributing
        assert layout_terms(graph) == (feeds, coupled)
        got = (layout.unary_clique, layout.unary_column, layout.unary_node)
        for a, b in zip(got, unary):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        # the coupled terms' cliques and columns, flat and node by node
        assert layout.coupled_clique.dtype == layout.coupled_column.dtype == np.intp
        assert layout.coupled_clique.tolist() == [j for terms in coupled for j, _, _ in terms]
        assert layout.coupled_column.tolist() == [col for terms in coupled for _, col, _ in terms]


def test_frontiers_hold_the_earlier_labels_the_rest_of_the_order_reads():
    chain = mg.build_chain_graph(4, 1, mg.DIRECTED, order=(2, 0, 3, 1))
    assert chain.frontiers == ((), (2,), (0,), (3,), ())
    full = mg.build_full_graph(4, 0, mg.DIRECTED, order=(3, 1, 0, 2))
    assert full.frontiers == ((), (3,), (3, 1), (3, 1, 0), ())
    # a clique read only by the last node keeps node 0 live over node 1
    skip = GraphSpec(3, 0, mg.DIRECTED, (0, 1, 2), (Clique((0,)), Clique((1,)), Clique((0, 2))))
    assert skip.frontiers == ((), (0,), (0,), ())
    codes = chain.frontier_codes
    assert codes.offset == (0, 1, 3, 5, 7)
    # node 0 at position 1 reads node 2, bit 0 of its frontier code
    assert codes.node.tolist() == [2, 0, 0, 3, 3, 1, 1]
    assert codes.sign.tolist() == [[1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]]
    # labelling position 1's node 0 -1 steps to position 2's code 1
    assert codes.step[2 * 1 + 1] == 2 * (3 + 1)
    # frontiers wider than four labels get no codes
    assert mg.build_full_graph(5, 0, mg.DIRECTED).frontier_codes is not None
    assert mg.build_full_graph(6, 0, mg.DIRECTED).frontier_codes is None
    with pytest.raises(GraphError, match="directed"):
        mg.build_chain_graph(3, 0, mg.UNDIRECTED).frontier_codes


def test_closing_lists_each_coupled_term_under_its_last_partner():
    # undirected: every clique feeds each of its members
    graph = GraphSpec(4, 0, mg.UNDIRECTED, (3, 1, 0, 2),
                      (Clique((0,)), Clique((1, 2)), Clique((0, 2)), Clique((0, 1, 3))))
    assert graph.layout.partners == (((2,), (1, 3)), ((2,), (0, 3)), ((1,), (0,)), ((0, 1),))
    # node 2's second term, partner 0, closes when label 0 is set; labels
    # in index order, whatever the graph's order
    assert graph.closing == (
        (((2, 1),), (0, 2)),
        (((2, 0), (3, 0)), (1, 2, 3)),
        (((0, 0), (1, 0)), (0, 1, 2)),
        (((0, 1), (1, 1)), (0, 1, 3)),
    )
    rng = np.random.default_rng(3)
    for kind in (mg.DIRECTED, mg.UNDIRECTED):
        for _ in range(20):
            graph = coupled_graph(rng, "full", int(rng.integers(1, 8)), 1, kind)
            seen = []
            for k, (terms, nodes) in enumerate(graph.closing):
                assert all(max(graph.layout.partners[i][t]) == k for i, t in terms)
                assert nodes == tuple(sorted({k, *(i for i, _ in terms)}))
                seen += terms
            assert sorted(seen) == [(i, t) for i, terms in enumerate(graph.layout.partners) for t in range(len(terms))]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    data=st.data(),
    K=st.integers(1, 5),
    D=st.integers(0, 3),
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    faults=st.sampled_from(["none", "members", "inputs", "both"]),
)
def test_graph_check_matches_the_per_clique_reference(data, K, D, kind, faults):
    """Random clique lists, with unsorted and repeated members, members and
    inputs out of range on either side, and cliques repeated in another
    member order: the array check accepts what the per-clique reference
    accepts, with the same canonical cliques and layout, and refuses the
    rest with the same error."""
    member = st.integers(-2, K + 1) if faults in ("members", "both") else st.integers(0, K - 1)
    feature = st.integers(-2, D + 1) if faults in ("inputs", "both") else st.integers(0, max(D - 1, 0))
    feature = st.none() if D == 0 and faults in ("none", "members") else st.one_of(st.none(), feature)
    drawn = data.draw(st.lists(st.tuples(st.lists(member, min_size=1, max_size=4), feature), max_size=8))
    if data.draw(st.sampled_from([False] * 9 + [True]), label="one in ten has an empty clique"):
        drawn.insert(data.draw(st.integers(0, len(drawn)), label="empty at"), ([], None))
    for _ in range(data.draw(st.integers(0, 2), label="repeats") if drawn else 0):
        members, d = data.draw(st.sampled_from(drawn), label="repeated")
        drawn.append((data.draw(st.permutations(members), label="reordered"), d))
    order = tuple(data.draw(st.permutations(range(K)), label="order"))
    try:
        expected = reference_graph_check(K, D, kind, order, [ReferenceClique(tuple(m), d) for m, d in drawn])
    except GraphError as exc:
        expected = exc
    try:
        graph = GraphSpec(K, D, kind, order, [Clique(tuple(m), d) for m, d in drawn])
    except GraphError as exc:
        assert isinstance(expected, GraphError), exc
        assert str(exc) == str(expected)
        return
    assert not isinstance(expected, GraphError), expected
    assert [(c.outputs, c.input_feature) for c in graph.cliques] == expected[1]
    reference = SimpleNamespace(n_outputs=K, kind=kind, order=order, cliques=[ReferenceClique(*c) for c in expected[1]])
    contributing, feeds, coupled, *unary = reference_routing(reference)
    assert (graph.contributing, layout_terms(graph)) == (contributing, (feeds, coupled))
    got = (graph.layout.unary_clique, graph.layout.unary_column, graph.layout.unary_node)
    for a, b in zip(got, unary):
        assert a.dtype == b.dtype and np.array_equal(a, b)
