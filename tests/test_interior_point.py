"""The interior-point path of training: which solves take it, the proximal
active-set crossover from its duals, and that active set alone as its
reference."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import TrainConfig, training
from margraph.training import duality_gap, dual_objective

from _helpers import coupled_graph, proximal_active_set_only, random_dataset, record_newton_calls, solve_duals


def _without_first_node(graph):
    """The graph less every clique that its first node in order owns
    (directed) or touches (undirected): a node with no clique at all."""
    first = graph.order[0]
    kept = [
        c for j, c in enumerate(graph.cliques)
        if j not in graph.contributing[first]
    ]
    return mg.GraphSpec(graph.n_outputs, graph.n_inputs, graph.kind, graph.order, kept)


# The cross-check's problems: chain or full graphs of either kind with
# coupled cliques, optionally with a first node that has no clique
_INTERIOR_POINT_PROBLEMS = dict(
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


def _interior_point_problem(directed, topology, orphan, K, D, N, lam, eta0, seed):
    """(dataset, graph, train) of one draw of ``_INTERIOR_POINT_PROBLEMS``."""
    rng = np.random.default_rng(seed)
    kind = mg.DIRECTED if directed else mg.UNDIRECTED
    graph = coupled_graph(rng, topology, K, D, kind)
    if orphan:
        graph = _without_first_node(graph)
    dataset = random_dataset(rng, N, K, D)
    return dataset, graph, mg.train_lmsbn if directed else mg.train_lmbm


@settings(derandomize=True, deadline=None, max_examples=80)
@given(**_INTERIOR_POINT_PROBLEMS)
# an undirected full graph of 80 duals that is hard for first-order
# methods (dual coordinate descent took 14,170 to 43,144 epochs, with
# shrinking, to certify it); the proximal active set takes 141 iterations
@example(directed=False, topology="full", orphan=False, K=4, D=2, N=20, lam=1e-3, eta0=0.0, seed=14561)
def test_interior_point_and_the_proximal_active_set_certify_the_same_optimum(
    directed, topology, orphan, K, D, N, lam, eta0, seed
):
    # each solver is the other's reference: both certify every solve, and
    # each solve's dual objectives, both within the tolerance below the one
    # optimum, agree within twice it
    dataset, graph, train = _interior_point_problem(directed, topology, orphan, K, D, N, lam, eta0, seed)
    config = TrainConfig(lam=lam, eta0=eta0, tolerance=1e-6, max_epochs=100_000)
    interior = train(dataset, graph, config)
    with pytest.MonkeyPatch.context() as mp:
        proximal_active_set_only(mp)
        proximal = train(dataset, graph, config)
    assert interior.converged and proximal.converged
    assert all(r.epochs >= 1 for r in interior.reports)
    box = 1.0 / (lam * N)
    for result in (interior, proximal):
        alpha = result.state.alpha
        assert alpha.min() >= 0.0 and alpha.max() <= box
        assert duality_gap(result.state, dataset, config) == result.gap
    for a, b in zip(solve_duals(interior, dataset, config), solve_duals(proximal, dataset, config)):
        assert abs(a - b) <= 2 * config.tolerance
    if orphan and directed:
        # the first node's margins are 0 whatever the weights: every dual at the box
        assert np.all(interior.state.alpha[graph.order[0]] == box)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(**_INTERIOR_POINT_PROBLEMS, cap=st.sampled_from([1, 3, 6]))
def test_the_crossover_certifies_what_an_early_interior_point_leaves(
    directed, topology, orphan, K, D, N, lam, eta0, seed, cap
):
    # the interior point stopped after 1, 3 or 6 iterations, far from its
    # own stopping test: the crossover from its duals certifies every solve
    dataset, graph, train = _interior_point_problem(directed, topology, orphan, K, D, N, lam, eta0, seed)
    config = TrainConfig(lam=lam, eta0=eta0, tolerance=1e-6)
    solve = training._interior_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_interior_point",
                   lambda blocks, width, box, left: solve(blocks, width, box, np.minimum(left, cap)))
        result = train(dataset, graph, config)
    for r in result.reports:
        assert r.converged


@pytest.mark.parametrize("widths, n, path", [
    ([295], 200, "active set"),  # a scene-shaped node: Q can be definite
    ([295], 1211, "interior point"),  # more rows than columns
    ([13], 13, "active set"),  # the width boundary, N = width
    ([13], 14, "interior point"),  # N = width + 1
    ([13], 1448, "interior point"),  # more rows than columns
    ([1448], 1448, "active set"),  # N = width
    ([1449], 1449, "active set"),  # N = width: Q is no larger than the interior point's matrices
    ([12], 5000, "interior point"),  # narrow
    ([12], 12, "active set"),  # narrow, N = width: a singular one falls back to the interior point
    ([1], 1, "active set"),  # one column over one row
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
        assert r.converged and r.epochs >= 1


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
            assert r.converged and 1 <= r.epochs


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_a_fit_from_zero_steps_through_the_interior_point_alone(kind):
    # every cold solve certifies from its snapped duals within 40 epochs,
    # and no dual lies within the snap distance of a bound without being on it
    rng = np.random.default_rng(6)
    K, N = 4, 60
    graph = mg.build_full_graph(K, 2, kind)
    dataset = random_dataset(rng, N, K, 2)
    config = TrainConfig(lam=0.02, eta0=0.5)
    result = (mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm)(dataset, graph, config)
    for r in result.reports:
        assert r.converged and 1 <= r.epochs <= 40
    box = 1.0 / (config.lam * N)
    alpha = result.state.alpha
    near = ((alpha > 0.0) & (alpha <= training._SNAP * box)) | ((alpha < box) & (alpha >= box - training._SNAP * box))
    assert not near.any()
    assert (alpha == 0.0).any() and (alpha == box).any()


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_duals_that_do_not_certify_take_the_proximal_crossover(monkeypatch, kind):
    # a snap of a quarter box moves duals far from the optimum, so the
    # certificate fails; the proximal active set from the snapped duals,
    # with the epochs left, certifies, and its iterations count as Newton
    # iterations
    rng = np.random.default_rng(8)
    K, N = 3, 40
    graph = mg.build_chain_graph(K, 2, kind)
    dataset = random_dataset(rng, N, K, 2)
    config = TrainConfig(lam=0.05, max_epochs=500)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    exact = train(dataset, graph, config)
    monkeypatch.setattr(training, "_SNAP", 0.25)
    calls = record_newton_calls(monkeypatch)
    result = train(dataset, graph, config)
    assert result.converged
    [(method, _, iterations), *crossovers] = calls
    assert method == "interior point" and iterations == [e.epochs for e in exact.reports]
    assert [call[:2] for call in crossovers] == [("active set", True)] * len(exact.reports)
    for r, e, (_, _, more, cap, rho) in zip(result.reports, exact.reports, crossovers):
        assert cap == config.max_epochs - e.epochs and rho > 0.0
        assert 1 <= more and r.epochs == e.epochs + more
    assert abs(dual_objective(result.state, dataset, config) - dual_objective(exact.state, dataset, config)) <= (
        2 * config.tolerance * len(result.reports)
    )


def test_a_factor_that_fails_falls_back_to_the_crossover_from_the_box_centre(monkeypatch):
    def failing(blocks, D, width):
        return np.full((len(D), width, width), np.nan), np.ones(len(D), dtype=bool)

    monkeypatch.setattr(training, "_factor", failing)
    rng = np.random.default_rng(9)
    graph = mg.build_chain_graph(3, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 40, 3, 2)
    config = TrainConfig(lam=0.05)
    result = mg.train_lmsbn(dataset, graph, config)
    # the stack is left at the first factor, before any iteration, at the
    # centre of the box, and the crossover from there certifies
    assert result.converged and all(r.epochs >= 1 for r in result.reports)


def test_the_epoch_cap_counts_interior_point_iterations():
    # a cap below the iterations a solve needs stops it there, uncertified,
    # with every epoch spent by the interior point
    rng = np.random.default_rng(10)
    graph = mg.build_full_graph(3, 2, mg.UNDIRECTED)
    dataset = random_dataset(rng, 50, 3, 2)
    [report] = mg.train_lmbm(dataset, graph, TrainConfig(lam=0.05, max_epochs=3)).reports
    assert (report.epochs, report.converged) == (3, False)


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


def test_the_interior_point_stops_on_mu_at_a_large_box():
    # at box C = 1/(1e-4 * 27) = 370 the problem leaves the stack once mu
    # is below 1e-14 * C, a bound relative to the box, and certifies there,
    # long before the cap
    graph = mg.build_full_graph(1, 2, mg.DIRECTED)
    dataset = random_dataset(np.random.default_rng(20), 27, 1, 2)
    config = TrainConfig(lam=1e-4, max_epochs=200)
    [report] = mg.train_lmsbn(dataset, graph, config).reports
    assert report.converged and 1 <= report.epochs <= 20


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
    for a, b in zip(solve_duals(stacked, dataset, config), solve_duals(one_stack, dataset, config)):
        assert abs(a - b) <= 2 * config.tolerance


def _census_generator(state, inc, uinteger, has_uint32=1):
    """The PCG64 generator of ``tests/solve_census.py`` at the state it
    reaches within one training's draw: after the family and the sizes,
    before the graph."""
    rng = np.random.default_rng()
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    return rng


def test_a_small_lambda_joint_solve_certifies_by_newton_alone():
    # the census's seed 1, draw 776: an undirected full graph of 6 labels
    # over 18 inputs (x 0.1) and 17 rows at lambda 1.41e-4, eta0 1, whose
    # interior-point duals do not certify; the crossover certifies them
    rng = _census_generator(
        122049099215725591330415584781661390509, 194290289479364712180083596243593368443, 4119403291
    )
    graph = coupled_graph(rng, "full", 6, 18, mg.UNDIRECTED)
    dataset = random_dataset(rng, 17, 6, 18)
    dataset = mg.Dataset(0.1 * dataset.X, dataset.Y)
    config = TrainConfig(lam=0.00014101100613509002, eta0=1.0)
    [report] = mg.train_lmbm(dataset, graph, config).reports
    # as the census reads it: 12 interior-point iterations and 1 crossover one
    assert report.converged and report.epochs == 13


def test_a_small_lambda_node_solve_certifies_by_newton_alone():
    # the census's seed 3, draw 333: a directed independent graph of 5
    # labels over 17 inputs (x 0.1) and 18 rows at lambda 1.55e-3; node 4's
    # solve, which coordinate descent left uncertified at the cap,
    # certifies by the Newton methods, as every other node's does
    rng = _census_generator(
        171000192288101505665601680448105414422, 222003063171874261427395693950637096479, 816295302
    )
    graph = coupled_graph(rng, "independent", 5, 17, mg.DIRECTED)
    dataset = random_dataset(rng, 18, 5, 17)
    dataset = mg.Dataset(0.1 * dataset.X, dataset.Y)
    config = TrainConfig(lam=0.0015525493868549052)
    reports = mg.train_lmsbn(dataset, graph, config).reports
    # as the census reads them
    assert all(r.converged for r in reports)
    assert [r.epochs for r in reports] == [7, 7, 15, 6, 14]


def test_a_small_lambda_wide_node_solve_certifies_by_the_interior_point_alone():
    # the census's seed 2, draw 731: a directed full graph of 5 labels over
    # 23 inputs and 137 rows at lambda 1.11e-4 (box 65.7).  Coordinate
    # descent left node 1, of 29 weights, at gap 0.011 after 1000 epochs;
    # the interior point, run until mu falls below its bound, certifies it
    # alone, as every other node
    rng = _census_generator(
        92936366115223429697573962465004232563, 121863417007658695389390353187995180015, 1957556379, has_uint32=0
    )
    graph = coupled_graph(rng, "full", 5, 23, mg.DIRECTED)
    dataset = random_dataset(rng, 137, 5, 23)
    config = TrainConfig(lam=0.00011103582541252099, eta0=1.0)
    reports = mg.train_lmsbn(dataset, graph, config).reports
    assert len(graph.contributing[1]) == 29
    # as the census reads them
    assert all(r.converged for r in reports)
    assert [r.epochs for r in reports] == [14, 16, 13, 12, 14]
