"""Graph construction, clique validation, ownership, and regularizer rules."""

import numpy as np
import pytest

import margraph as mg
from margraph import Clique, Dataset, GraphSpec
from margraph.errors import GraphError
from margraph.training import clique_feature_matrix

from _helpers import BUILDERS, coupled_graph, reference_routing


def test_clique_sorts_and_dedupes_outputs():
    c = Clique((3, 1, 3, 2))
    assert c.outputs == (1, 2, 3)
    assert c.input_feature is None


def test_clique_keeps_input_feature():
    assert Clique((0,), 4).input_feature == 4


def test_clique_rejects_empty_outputs():
    with pytest.raises(GraphError):
        Clique(())


def test_clique_rejects_negative_indices():
    with pytest.raises(GraphError):
        Clique((-1, 2))
    with pytest.raises(GraphError):
        Clique((0,), -2)


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


def test_regularizer_multipliers_boost_undirected_pairs_only():
    gu = mg.build_chain_graph(3, 1, mg.UNDIRECTED)
    mult = gu.regularizer_multipliers(0.5)
    expect = [1.5 if len(c.outputs) >= 2 else 1.0 for c in gu.cliques]
    assert mult.tolist() == expect
    gd = mg.build_chain_graph(3, 1, mg.DIRECTED)
    assert gd.regularizer_multipliers(0.5).tolist() == [1.0] * gd.n_cliques
    with pytest.raises(GraphError):
        gu.regularizer_multipliers(-0.1)


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
        assert layout.feeds == feeds
        assert layout.coupled == coupled
        got = (layout.unary_clique, layout.unary_column, layout.unary_node)
        for a, b in zip(got, unary):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
