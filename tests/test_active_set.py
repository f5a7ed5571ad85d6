"""The active-set path of training: single-group solves with no more rows
than columns, the interior point as its fallback, the proximal active set
of the crossover, and an enumeration of bound patterns as their reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import TrainConfig, training
from margraph.graphs import GRAPH_BUILDERS
from margraph.training import duality_gap

from _helpers import (
    coupled_graph,
    enumerated_solve_duals,
    interior_point_first,
    proximal_active_set_only,
    random_dataset,
    record_newton_calls,
    solve_duals,
)


def _warm_start(rng, graph, n, lam):
    """Random duals in the box, a quarter of them on each bound."""
    box = 1.0 / (lam * n)
    alpha = rng.uniform(0.0, box, (graph.n_outputs, n))
    pick = rng.random(alpha.shape)
    alpha[pick < 0.25] = 0.0
    alpha[pick > 0.75] = box
    return mg.DualState(graph, alpha, mg.WeightVector(np.zeros(graph.n_cliques), lam=lam))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    topology=st.sampled_from(["independent", "chain", "full"]),
    K=st.integers(1, 3),
    D=st.integers(12, 20),
    rows_short=st.integers(0, 12),
    duplicate=st.booleans(),
    warm=st.booleans(),
    lam=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_active_set_and_interior_point_first_certify_the_same_optimum(
    topology, K, D, rows_short, duplicate, warm, lam, seed
):
    # every node owns its bias and D input cliques, so each solve is one
    # group at least 13 wide; N <= that width routes it to the active set,
    # and the reference routes it to the interior point instead.  A
    # duplicated training row makes Q singular: the active set may then not
    # settle, and a later method finishes the solve
    rng = np.random.default_rng(seed)
    graph = GRAPH_BUILDERS[topology](K, D, mg.DIRECTED, order=tuple(int(i) for i in rng.permutation(K)))
    N = max(2, D + 1 - rows_short)
    dataset = random_dataset(rng, N, K, D)
    if duplicate:
        dataset = mg.Dataset(dataset.X[np.r_[0, 0, 2:N]], dataset.Y[np.r_[0, 0, 2:N]])
    for cols in graph.contributing:
        assert training._route([len(cols)], N) == "active set"
    config = TrainConfig(lam=lam, tolerance=1e-6, max_epochs=100_000)
    start = _warm_start(rng, graph, N, lam) if warm else None
    active = mg.train_lmsbn(dataset, graph, config, start=start)
    with pytest.MonkeyPatch.context() as mp:
        interior_point_first(mp)
        interior = mg.train_lmsbn(dataset, graph, config, start=start)
    assert active.converged and interior.converged
    for r in active.reports + interior.reports:
        assert r.epochs >= 1 or duplicate
    box = 1.0 / (lam * N)
    alpha = active.state.alpha
    assert alpha.min() >= 0.0 and alpha.max() <= box
    for a, b in zip(solve_duals(active, dataset, config), solve_duals(interior, dataset, config)):
        assert abs(a - b) <= 2 * config.tolerance


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    directed=st.booleans(),
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 3),
    D=st.integers(0, 6),
    N=st.integers(1, 8),
    duplicate=st.booleans(),
    lam=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    eta0=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_every_route_certifies_the_enumerated_optimum(directed, topology, K, D, N, duplicate, lam, eta0, seed):
    # solves of at most 8 duals, whose optimum the enumeration of bound
    # patterns finds without a production solver: the default route (the
    # active set first where N <= width), the interior point first, and the
    # proximal active set alone from zero each certify it.  A duplicated
    # training row makes Q singular
    rng = np.random.default_rng(seed)
    kind = mg.DIRECTED if directed else mg.UNDIRECTED
    N = N if directed else max(1, N // K)
    graph = coupled_graph(rng, topology, K, D, kind)
    dataset = random_dataset(rng, N, K, D)
    if duplicate and N >= 2:
        dataset = mg.Dataset(dataset.X[np.r_[0, 0, 2:N]], dataset.Y[np.r_[0, 0, 2:N]])
    config = TrainConfig(lam=lam, eta0=eta0, tolerance=1e-6, max_epochs=100_000)
    train = mg.train_lmsbn if directed else mg.train_lmbm
    optima = enumerated_solve_duals(dataset, graph, config)
    results = [train(dataset, graph, config)]
    for route in (interior_point_first, proximal_active_set_only):
        with pytest.MonkeyPatch.context() as mp:
            route(mp)
            results.append(train(dataset, graph, config))
    for result in results:
        assert result.converged
        for a, b in zip(solve_duals(result, dataset, config), optima):
            assert abs(a - b) <= 2 * config.tolerance


def test_scene_shaped_solves_settle_in_a_few_iterations():
    # a planted full model of six labels over 294 inputs, 200 rows: the
    # probe starts cold and the full model from its duals, and every solve
    # certifies by the active set alone
    K, D, N = 6, 294, 200
    graph, planted = mg.planted_model(K, D, kind=mg.DIRECTED, topology="full", seed=0, input_scale=0.1)
    dataset = mg.sample_sbn(mg.SynthConfig(graph, planted, N, seed=(0, 1)))
    config = TrainConfig(lam=0.01)
    probe = mg.train_lmsbn(dataset, mg.build_independent_graph(K, D, mg.DIRECTED), config)
    full = mg.train_lmsbn(dataset, graph, config, start=probe.state)
    for r in probe.reports + full.reports:
        assert r.converged and 1 <= r.epochs <= 10 and r.gap <= 1e-9
    # the first label owns only its unary cliques: its probe duals are optimal
    assert full.reports[0].epochs == 1


def _cycling_problem():
    """One node of 20 columns (bias and 19 inputs) over 20 rows at
    lambda = 0.1, whose Gram matrix is definite but not an M-matrix: from
    zero the active set revisits an earlier set after 9 iterations."""
    rng = np.random.default_rng(215)
    D = int(rng.integers(13, 20))
    N = int(rng.integers(D - 3, D + 2))
    dataset = random_dataset(rng, N, 1, D)
    return dataset, mg.build_independent_graph(1, D, mg.DIRECTED), TrainConfig(lam=0.1, max_epochs=500)


def test_a_cycling_active_set_falls_back_to_the_interior_point(monkeypatch):
    dataset, graph, config = _cycling_problem()
    N = dataset.n_instances
    blocks = [(np.arange(N), training.clique_feature_matrix(graph, dataset))]
    box = 1.0 / (config.lam * N)
    alpha, iterations = training._active_set(blocks, box, np.zeros((1, N)), config.max_epochs, 0.0, config.tolerance)
    assert (N, graph.n_cliques) == (20, 20) and 1 <= iterations < config.max_epochs
    # stopped on a repeated set, short of the cap, at duals that do not certify
    _, _, _, max_pg = training._box_objectives(blocks, box, alpha)
    assert max_pg > 0.1
    # the interior point takes over with the epochs left, and certifies
    calls = record_newton_calls(monkeypatch)
    [report] = mg.train_lmsbn(dataset, graph, config).reports
    [_, (_, caps, [more])] = calls
    assert caps == [config.max_epochs - iterations]
    assert report.converged and report.epochs == iterations + more
    monkeypatch.undo()
    # the proximal active set from zero, where the plain one cycles, certifies
    with pytest.MonkeyPatch.context() as mp:
        proximal_active_set_only(mp)
        [proximal] = mg.train_lmsbn(dataset, graph, config).reports
    assert proximal.converged and 1 <= proximal.epochs


def test_failed_linear_solves_leave_each_solve_uncertified_within_its_epochs(monkeypatch):
    # start at a certified optimum and make every linear solve return zeros:
    # the active set ends on a cycle, and the crossover from the interior
    # point's duals never certifies, so each solve spends its epochs and
    # reports the certificate of the duals it records, which fails.  A solve
    # that is not finite ends the active set before its first iteration, the
    # interior point after its first, whose step is not finite, and the
    # crossover before its first
    rng = np.random.default_rng(5)
    D, N = 20, 15
    graph = mg.build_independent_graph(2, D, mg.DIRECTED)
    dataset = random_dataset(rng, N, 2, D)
    config = TrainConfig(lam=0.05)
    optimum = mg.train_lmsbn(dataset, graph, config)
    assert optimum.converged
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
    result = mg.train_lmsbn(dataset, graph, config, start=optimum.state)
    for r in result.reports:
        assert not r.converged and r.epochs == config.max_epochs
    assert duality_gap(result.state, dataset, config) == result.gap
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    cold = mg.train_lmsbn(dataset, graph, config)
    assert all(not r.converged and r.epochs == 1 for r in cold.reports)
    assert duality_gap(cold.state, dataset, config) == cold.gap


def test_the_epoch_cap_counts_active_set_iterations():
    # a cap below the iterations a cold solve needs stops it there,
    # uncertified, with every epoch spent by the active set
    dataset, graph, _ = _cycling_problem()
    [report] = mg.train_lmsbn(dataset, graph, TrainConfig(lam=0.1, max_epochs=2)).reports
    assert (report.epochs, report.converged) == (2, False)


def _random_label_problem():
    """Scene-shaped rows whose labels carry no signal: 200 rows of 294
    N(0, 0.01) inputs with uniform random labels, at lambda = 0.01; the
    fscore probe over them, and the full graph in its order."""
    rng = np.random.default_rng(3)
    dataset = random_dataset(rng, 200, 6, 294)
    dataset = mg.Dataset(dataset.X * 0.1, dataset.Y)
    config = TrainConfig(lam=0.01)
    strategy = mg.make_order_strategy("fscore", dataset, config)
    return dataset, mg.build_full_graph(6, 294, mg.DIRECTED, order=strategy.order), config, strategy.probe


def test_warm_solves_whose_labels_carry_no_signal_certify_by_newton_methods():
    # from the probe's duals, five of the six full solves stop on a cycle;
    # each goes on to the interior point (one of them then to the
    # crossover) and certifies
    dataset, graph, config, probe = _random_label_problem()
    full = mg.train_lmsbn(dataset, graph, config, start=probe.state)
    for r in probe.reports + full.reports:
        assert r.converged and 1 <= r.epochs


def test_a_warm_active_set_run_that_cycles_falls_back_to_the_interior_point(monkeypatch):
    # node 0 starts from its probe duals, on which the active set cycles,
    # and the other nodes from zero, where it certifies: node 0 alone goes
    # on to the interior point, with the epochs left, and certifies there
    dataset, graph, config, probe = _random_label_problem()
    alpha = np.zeros_like(probe.state.alpha)
    alpha[0] = probe.state.alpha[0]
    calls = record_newton_calls(monkeypatch)
    result = mg.train_lmsbn(dataset, graph, config, start=mg.DualState(graph, alpha, probe.weights))
    assert [call[:2] for call in calls[:6]] == [("active set", True)] + [("active set", False)] * 5
    [(_, _, cycled, _, _), *_, (method, caps, [more])] = calls
    assert method == "interior point" and len(calls) == 7
    assert 1 <= cycled < config.max_epochs and caps == [config.max_epochs - cycled]
    report = result.reports[0]
    assert report.converged and report.epochs == cycled + more
