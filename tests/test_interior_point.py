"""The interior-point path of training: which solves take it, and coordinate
descent as its reference and fallback."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import TrainConfig, training
from margraph.training import duality_gap, dual_objective

from _helpers import coordinate_descent_only, coupled_graph, random_dataset, solve_duals


def _without_first_node(graph):
    """The graph less every clique that its first node in order owns
    (directed) or touches (undirected): a node with no clique at all."""
    first = graph.order[0]
    kept = [
        c for j, c in enumerate(graph.cliques)
        if j not in graph.contributing[first]
    ]
    return mg.GraphSpec(graph.n_outputs, graph.n_inputs, graph.kind, graph.order, kept)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    directed=st.booleans(),
    topology=st.sampled_from(["chain", "full"]),
    orphan=st.booleans(),
    K=st.integers(1, 4),
    D=st.integers(0, 3),
    N=st.integers(1, 25),
    lam=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    eta0=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
# coordinate descent certifies this undirected full graph only with
# shrinking: without it the gap is still 2e-3 after 100,000 epochs
@example(directed=False, topology="full", orphan=False, K=4, D=2, N=20, lam=1e-3, eta0=0.0, seed=14561)
def test_interior_point_and_coordinate_descent_certify_the_same_optimum(
    directed, topology, orphan, K, D, N, lam, eta0, seed
):
    # each solver is the other's reference: both certify every solve, and
    # each solve's dual objectives, both within the tolerance below the one
    # optimum, agree within twice it
    rng = np.random.default_rng(seed)
    kind = mg.DIRECTED if directed else mg.UNDIRECTED
    graph = coupled_graph(rng, topology, K, D, kind)
    if orphan:
        graph = _without_first_node(graph)
    dataset = random_dataset(rng, N, K, D)
    config = TrainConfig(lam=lam, eta0=eta0, tolerance=1e-6, max_epochs=100_000, shuffle_seed=seed)
    train = mg.train_lmsbn if directed else mg.train_lmbm
    interior = train(dataset, graph, config)
    with pytest.MonkeyPatch.context() as mp:
        coordinate_descent_only(mp)
        descent = train(dataset, graph, config)
    assert interior.converged and descent.converged
    assert all(r.newton_iterations >= 1 for r in interior.reports)
    assert all(r.newton_iterations == 0 for r in descent.reports)
    box = 1.0 / (lam * N)
    for result in (interior, descent):
        alpha = result.state.alpha
        assert alpha.min() >= 0.0 and alpha.max() <= box
        assert abs(duality_gap(result.state, dataset, config) - result.gap) <= 1e-9 * max(1.0, box)
    for a, b in zip(solve_duals(interior, dataset, config), solve_duals(descent, dataset, config)):
        assert abs(a - b) <= 2 * config.tolerance
    if orphan and directed:
        # the first node's margins are 0 whatever the weights: every dual at the box
        assert np.all(interior.state.alpha[graph.order[0]] == box)


@pytest.mark.parametrize("widths, n, path", [
    ([295], 200, "active set"),  # a scene-shaped node: Q can be definite
    ([295], 1211, "interior point"),  # more rows than columns
    ([13], 13, "active set"),  # the width boundary, N = width
    ([13], 14, "interior point"),  # N = width + 1
    ([13], 1448, "interior point"),  # more rows than columns
    ([1448], 1448, "active set"),  # N = width
    ([1449], 1449, "active set"),  # N = width: Q is no larger than the interior point's matrices
    ([12], 5000, "interior point"),  # narrow
    ([12], 12, "interior point"),  # narrow, N = width: tiny nodes are often singular
    ([0], 1, "interior point"),  # a node that owns no clique
    ([30, 30], 10, "interior point"),  # two groups never take the active set
])
def test_each_solve_is_routed_by_its_widths_and_rows(widths, n, path):
    assert training._route(widths, n) == path


def test_every_node_of_a_directed_model_takes_the_interior_point_from_any_start():
    # node 0 starts cold and node 1 from duals in the box: both narrow
    # solves take the interior point, which starts at the centre of the box
    rng = np.random.default_rng(2)
    graph = mg.build_full_graph(2, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 30, 2, 2)
    config = TrainConfig(lam=0.05)
    alpha = np.zeros((2, 30))
    alpha[1] = 0.5 / (config.lam * 30)
    start = mg.DualState(graph, alpha, mg.WeightVector(np.zeros(graph.n_cliques), lam=config.lam))
    warm = mg.train_lmsbn(dataset, graph, config, start=start)
    cold = mg.train_lmsbn(dataset, graph, config)
    assert warm.reports == cold.reports
    for r in warm.reports:
        assert r.converged and r.newton_iterations == r.epochs >= 1 and r.steps == 30 * r.epochs


def test_a_wide_node_with_more_rows_than_columns_takes_the_interior_point_cold_and_warm():
    # full-graph nodes of 21 to 23 columns over 60 rows: too many rows for
    # the active set, so each solve takes the interior point from any start
    rng = np.random.default_rng(12)
    graph = mg.build_full_graph(3, 20, mg.DIRECTED)
    dataset = random_dataset(rng, 60, 3, 20)
    config = TrainConfig(lam=0.05)
    box = 1.0 / (config.lam * 60)
    weights = mg.WeightVector(np.zeros(graph.n_cliques), lam=config.lam)
    start = mg.DualState(graph, rng.uniform(0.0, box, (3, 60)), weights)
    for result in (mg.train_lmsbn(dataset, graph, config), mg.train_lmsbn(dataset, graph, config, start=start)):
        for r, cols in zip(result.reports, graph.contributing):
            assert training._route([len(cols)], 60) == "interior point"
            assert r.converged and 1 <= r.newton_iterations == r.epochs


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_a_fit_from_zero_steps_through_the_interior_point_alone(kind):
    # every cold solve certifies from its snapped duals: an iteration is an
    # epoch and a visit to each of the solve's duals, and no dual lies
    # within the snap distance of a bound without being on it
    rng = np.random.default_rng(6)
    K, N = 4, 60
    graph = mg.build_full_graph(K, 2, kind)
    dataset = random_dataset(rng, N, K, 2)
    config = TrainConfig(lam=0.02, eta0=0.5)
    result = (mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm)(dataset, graph, config)
    duals = N if kind == mg.DIRECTED else K * N
    for r in result.reports:
        assert r.converged and 1 <= r.newton_iterations == r.epochs <= 40
        assert r.steps == r.epochs * duals
    box = 1.0 / (config.lam * N)
    alpha = result.state.alpha
    near = ((alpha > 0.0) & (alpha <= training._SNAP * box)) | ((alpha < box) & (alpha >= box - training._SNAP * box))
    assert not near.any()
    assert (alpha == 0.0).any() and (alpha == box).any()


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_duals_that_do_not_certify_fall_back_to_coordinate_descent(monkeypatch, kind):
    # a snap of a quarter box moves duals far from the optimum, so the
    # certificate fails and coordinate descent continues from the snapped
    # duals within the epochs left
    rng = np.random.default_rng(8)
    K, N = 3, 40
    graph = mg.build_chain_graph(K, 2, kind)
    dataset = random_dataset(rng, N, K, 2)
    config = TrainConfig(lam=0.05, max_epochs=500)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    exact = train(dataset, graph, config)
    monkeypatch.setattr(training, "_SNAP", 0.25)
    result = train(dataset, graph, config)
    assert result.converged
    assert all(1 <= r.newton_iterations < r.epochs <= config.max_epochs for r in result.reports)
    for r, e in zip(result.reports, exact.reports):
        assert r.newton_iterations == e.newton_iterations and r.steps > e.steps
    assert abs(dual_objective(result.state, dataset, config) - dual_objective(exact.state, dataset, config)) <= (
        2 * config.tolerance * len(result.reports)
    )


def test_a_factor_that_fails_falls_back_to_coordinate_descent(monkeypatch):
    def failing(blocks, D, width):
        return np.full((len(D), width, width), np.nan), np.ones(len(D), dtype=bool)

    monkeypatch.setattr(training, "_factor", failing)
    rng = np.random.default_rng(9)
    graph = mg.build_chain_graph(3, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 40, 3, 2)
    config = TrainConfig(lam=0.05)
    result = mg.train_lmsbn(dataset, graph, config)
    # the stack is left at the first factor, before any iteration
    assert result.converged and all(r.newton_iterations == 0 and r.epochs >= 1 for r in result.reports)


def test_the_epoch_cap_counts_interior_point_iterations():
    # a cap below the iterations a solve needs stops it there, uncertified,
    # with every epoch spent by the interior point
    rng = np.random.default_rng(10)
    graph = mg.build_full_graph(3, 2, mg.UNDIRECTED)
    dataset = random_dataset(rng, 50, 3, 2)
    [report] = mg.train_lmbm(dataset, graph, TrainConfig(lam=0.05, max_epochs=3)).reports
    assert (report.epochs, report.newton_iterations, report.steps, report.converged) == (3, 3, 3 * 150, False)


@pytest.mark.parametrize("d", [1, 5, training._TRIANGLE_BLOCK, 2 * training._TRIANGLE_BLOCK + 3])
def test_the_blocked_triangular_solves_match_a_dense_solve(d):
    rng = np.random.default_rng(d)
    A = rng.standard_normal((2, d, d))
    M = A @ A.transpose(0, 2, 1) + d * np.eye(d)
    L = np.linalg.cholesky(M)
    b = rng.standard_normal((2, d))
    forward = training._triangular_solve(L, b, lower=True)
    y = training._triangular_solve(L.transpose(0, 2, 1), forward, lower=False)
    assert np.allclose(np.einsum("bij,bj->bi", L, forward), b, rtol=0, atol=1e-10)
    assert np.allclose(y, np.linalg.solve(M, b[..., None])[..., 0], rtol=1e-10, atol=1e-12)


def test_a_rising_dual_residual_ends_the_interior_point_at_a_large_box():
    # at box C = 1/(1e-4 * 27) = 370, roundoff takes over the Newton steps
    # near mu = 1e-13: the dual residual, which a step only shrinks, rises
    # and the problem leaves the stack instead of stalling until the cap
    graph = mg.build_full_graph(1, 2, mg.DIRECTED)
    dataset = random_dataset(np.random.default_rng(20), 27, 1, 2)
    config = TrainConfig(lam=1e-4, max_epochs=200)
    [report] = mg.train_lmsbn(dataset, graph, config).reports
    assert report.converged and 1 <= report.newton_iterations <= 20
    with pytest.MonkeyPatch.context() as mp:
        coordinate_descent_only(mp)
        [descent] = mg.train_lmsbn(dataset, graph, config).reports
    assert not descent.converged  # coordinate descent alone is far from done at the cap


def test_cold_directed_solves_run_in_equal_stacks_of_bounded_duals(monkeypatch):
    # ten cold node solves of 100 duals under a bound of 350: at most three
    # per stack, so four stacks, as equal as they can be
    rng = np.random.default_rng(11)
    graph = mg.build_chain_graph(10, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 100, 10, 2)
    config = TrainConfig(lam=0.05, tolerance=1e-6)
    one_stack = mg.train_lmsbn(dataset, graph, config)
    sizes = []
    solve = training._interior_point

    def recording(blocks, width, box, max_iterations):
        sizes.append(len(blocks[0][1]))
        return solve(blocks, width, box, max_iterations)

    monkeypatch.setattr(training, "_interior_point", recording)
    monkeypatch.setattr(training, "_IP_STACK", 350)
    stacked = mg.train_lmsbn(dataset, graph, config)
    assert sizes == [2, 3, 2, 3]
    assert stacked.converged and one_stack.converged
    assert all(r.newton_iterations == r.epochs for r in stacked.reports)
    for a, b in zip(solve_duals(stacked, dataset, config), solve_duals(one_stack, dataset, config)):
        assert abs(a - b) <= 2 * config.tolerance
