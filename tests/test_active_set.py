"""The active-set path of training: single-group solves wider than the
narrow cut-off with no more rows than columns, its restart from zero, and
coordinate descent as its reference and fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import TrainConfig, training
from margraph.graphs import GRAPH_BUILDERS
from margraph.training import dual_objective

from _helpers import coordinate_descent_only, random_dataset, solve_duals


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
def test_active_set_and_coordinate_descent_certify_the_same_optimum(
    topology, K, D, rows_short, duplicate, warm, lam, seed
):
    # every node owns its bias and D input cliques, so each solve is one
    # group at least 13 wide; N <= that width routes it to the active set.
    # A duplicated training row makes Q singular: the active set may then
    # not settle, and coordinate descent finishes the solve
    rng = np.random.default_rng(seed)
    graph = GRAPH_BUILDERS[topology](K, D, mg.DIRECTED, order=tuple(int(i) for i in rng.permutation(K)))
    N = max(2, D + 1 - rows_short)
    dataset = random_dataset(rng, N, K, D)
    if duplicate:
        dataset = mg.Dataset(dataset.X[np.r_[0, 0, 2:N]], dataset.Y[np.r_[0, 0, 2:N]])
    for cols in graph.contributing:
        assert training._route([len(cols)], N) == "active set"
    config = TrainConfig(lam=lam, tolerance=1e-6, max_epochs=100_000, shuffle_seed=seed)
    start = _warm_start(rng, graph, N, lam) if warm else None
    active = mg.train_lmsbn(dataset, graph, config, start=start)
    with pytest.MonkeyPatch.context() as mp:
        coordinate_descent_only(mp)
        descent = mg.train_lmsbn(dataset, graph, config, start=start)
    assert active.converged and descent.converged
    assert all(r.newton_iterations == 0 for r in descent.reports)
    for r in active.reports:
        assert r.newton_iterations >= 1 or duplicate
        assert r.steps >= r.newton_iterations * N
    box = 1.0 / (lam * N)
    alpha = active.state.alpha
    assert alpha.min() >= 0.0 and alpha.max() <= box
    for a, b in zip(solve_duals(active, dataset, config), solve_duals(descent, dataset, config)):
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
        assert r.converged and 1 <= r.newton_iterations == r.epochs <= 10
        assert r.steps == r.epochs * N and r.gap <= 1e-9
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


def test_a_cycling_active_set_falls_back_to_coordinate_descent():
    dataset, graph, config = _cycling_problem()
    N = dataset.n_instances
    F = training.clique_feature_matrix(graph, dataset)
    box = 1.0 / (config.lam * N)
    alpha, iterations = training._active_set(F @ F.T, box, np.zeros(N), config.max_epochs)
    assert (N, graph.n_cliques) == (20, 20) and 1 <= iterations < config.max_epochs
    # stopped on a repeated set, short of the cap, at duals that do not certify
    _, _, _, max_pg = training._box_objectives([(np.arange(N), F)], box, alpha[None])
    assert max_pg > 0.1
    [report] = mg.train_lmsbn(dataset, graph, config).reports
    assert report.converged and report.newton_iterations == iterations < report.epochs <= config.max_epochs
    with pytest.MonkeyPatch.context() as mp:
        coordinate_descent_only(mp)
        [descent] = mg.train_lmsbn(dataset, graph, config).reports
    assert descent.converged and descent.newton_iterations == 0


def test_a_failed_newton_solve_falls_back_from_the_better_duals(monkeypatch):
    # start at a certified optimum and make every Newton solve return zeros
    # for the free duals: the active set ends on a cycle, from the start and
    # again from zero, at duals whose dual objective is below the start's, so
    # coordinate descent continues from the start and certifies in one
    # epoch; a solve that is not finite ends the active set before its
    # first iteration
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
        assert r.converged and r.epochs == r.newton_iterations + 1 >= 2
    assert abs(dual_objective(result.state, dataset, config) - dual_objective(optimum.state, dataset, config)) <= (
        2 * config.tolerance
    )
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    cold = mg.train_lmsbn(dataset, graph, config)
    assert cold.converged and all(r.newton_iterations == 0 and r.epochs >= 1 for r in cold.reports)


def test_the_epoch_cap_counts_active_set_iterations():
    # a cap below the iterations a cold solve needs stops it there,
    # uncertified, with every epoch spent by the active set
    dataset, graph, _ = _cycling_problem()
    [report] = mg.train_lmsbn(dataset, graph, TrainConfig(lam=0.1, max_epochs=2)).reports
    assert (report.epochs, report.newton_iterations, report.steps, report.converged) == (2, 2, 2 * 20, False)


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


def test_warm_solves_whose_labels_carry_no_signal_certify_by_the_active_set():
    # from the probe's duals, five of the six full solves stop on a cycle;
    # each restarts from zero and settles, so no solve runs coordinate descent
    dataset, graph, config, probe = _random_label_problem()
    full = mg.train_lmsbn(dataset, graph, config, start=probe.state)
    for r in probe.reports + full.reports:
        assert r.converged and 1 <= r.newton_iterations == r.epochs
        assert r.steps == r.epochs * dataset.n_instances


def test_a_warm_active_set_run_that_cycles_restarts_once_from_zero(monkeypatch):
    # node 0 starts from its probe duals, on which the active set cycles,
    # and the other nodes from zero: node 0 calls the active set twice, the
    # second time from zero, and the others once
    dataset, graph, config, probe = _random_label_problem()
    alpha = np.zeros_like(probe.state.alpha)
    alpha[0] = probe.state.alpha[0]
    calls = []
    active_set = training._active_set

    def recording(Q, box, start, max_iterations):
        alpha, iterations = active_set(Q, box, start, max_iterations)
        calls.append((bool(start.any()), iterations, max_iterations))
        return alpha, iterations

    monkeypatch.setattr(training, "_active_set", recording)
    result = mg.train_lmsbn(dataset, graph, config, start=mg.DualState(graph, alpha, probe.weights))
    assert [warm for warm, _, _ in calls] == [True, False, False, False, False, False, False]
    (_, cycled, _), (_, restarted, left) = calls[:2]
    assert 1 <= cycled < config.max_epochs and left == config.max_epochs - cycled
    report = result.reports[0]
    assert report.converged and report.newton_iterations == report.epochs == cycled + restarted
