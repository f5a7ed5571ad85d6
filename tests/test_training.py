"""Dual training: closed forms, oracles, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import Clique, Dataset, GraphSpec, TrainConfig, WeightVector, bench, training
from margraph.bench import run_s_sweep
from margraph.errors import DataError, GraphError
from margraph.training import (
    box_primal_objective,
    clique_feature_matrix,
    dual_objective,
    duality_gap,
    mean_joint_loss,
    primal_objective,
)

from _helpers import coupled_graph, random_dataset, random_labels, record_newton_calls


def all_alpha_max_projected_gradient(graph, dataset, state, config):
    """Largest |projected gradient| over every dual variable, from scratch."""
    F = clique_feature_matrix(graph, dataset)
    w = state.weights.values
    box = 1.0 / (config.lam * dataset.n_instances)
    largest = 0.0
    for i, cols in enumerate(graph.contributing):
        cols = list(cols)
        if not cols:
            continue
        grad = F[:, cols] @ w[cols] - 1.0
        a = state.alpha[i]
        pg = np.where(a <= 0.0, np.minimum(grad, 0.0),
                      np.where(a >= box, np.maximum(grad, 0.0), grad))
        largest = max(largest, float(np.abs(pg).max()))
    return largest


def one_node_bias_problem():
    graph = GraphSpec(1, 0, mg.DIRECTED, (0,), (Clique((0,)),))
    dataset = Dataset(np.zeros((1, 0)), np.array([[1]], dtype=np.int8))
    return graph, dataset


def test_single_positive_instance_closed_form_box_one():
    # box bound C = 1/(lam*N) = 1: the optimum is w = 1, alpha = 1
    graph, dataset = one_node_bias_problem()
    result = mg.train_lmsbn(dataset, graph, TrainConfig(lam=1.0))
    assert result.converged
    assert result.weights.values[0] == pytest.approx(1.0, abs=1e-6)
    assert result.state.alpha.ravel()[0] == pytest.approx(1.0, abs=1e-6)
    # max(0, 1 - w) + (lam/2) w^2 is least at w = 1; primal_objective weighs
    # the penalty by lam, twice that, and reads less at w = 0.5
    assert primal_objective(dataset, graph, WeightVector([1.0], lam=1.0)) == 1.0
    assert primal_objective(dataset, graph, WeightVector([0.5], lam=1.0)) == 0.75


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_training_minimizes_mean_hinge_plus_half_lambda_penalty(kind):
    graph, planted = mg.planted_model(4, 3, kind=kind, topology="full", seed=1)
    sample = mg.sample_sbn if kind == mg.DIRECTED else mg.sample_bm
    dataset = sample(mg.SynthConfig(graph, planted, 150, seed=2))
    config = TrainConfig(lam=0.05, eta0=0.5, tolerance=1e-5, max_epochs=5000)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    result = train(dataset, graph, config)
    assert result.converged
    eta = training._regularizer_multipliers(graph, config.eta0)

    def objective(scale):
        w = scale * result.weights.values
        hinge = mean_joint_loss(dataset, graph, WeightVector(w, lam=config.lam))
        return hinge + 0.5 * config.lam * float(eta @ (w * w))

    assert objective(0.9) > objective(1.0) < objective(1.1)


def test_single_positive_instance_closed_form_box_half():
    # C = 0.5 clips the multiplier at the box: w = alpha = 0.5
    graph, dataset = one_node_bias_problem()
    result = mg.train_lmsbn(dataset, graph, TrainConfig(lam=2.0))
    assert result.weights.values[0] == pytest.approx(0.5, abs=1e-6)
    assert result.state.alpha.ravel()[0] == pytest.approx(0.5, abs=1e-6)


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(lam=0.0)
    with pytest.raises(DataError):
        TrainConfig(tolerance=0.0)
    with pytest.raises(DataError):
        TrainConfig(max_epochs=0)
    for field, value in (("lam", np.inf), ("lam", np.nan), ("eta0", np.inf), ("eta0", np.nan),
                         ("tolerance", np.inf), ("tolerance", np.nan)):
        with pytest.raises(DataError, match="finite"):
            TrainConfig(**{field: value})
    with pytest.raises(DataError, match="seed must be non-negative, got -1"):
        TrainConfig(shuffle_seed=-1)
    # a count or seed that is not an integer fails here, not later in range()
    # or in NumPy's generator; a bool or a NumPy integer is one
    with pytest.raises(DataError, match=r"max_epochs must be an integer, got 2\.5$"):
        TrainConfig(max_epochs=2.5)
    with pytest.raises(DataError, match=r"seed must be an integer, got 1\.5$"):
        TrainConfig(shuffle_seed=1.5)
    with pytest.raises(DataError, match=r"seed must be an integer, got np\.True_$"):
        TrainConfig(shuffle_seed=np.True_)
    # a float knob that is not a number fails naming it, not in a comparison
    for field, value, what in (("lam", None, "regularization strength"), ("eta0", "1", "regularizer boost"),
                               ("tolerance", "a", "tolerance")):
        with pytest.raises(DataError, match=f"{what} must be a number, got {value!r}$"):
            TrainConfig(**{field: value})
    config = TrainConfig(max_epochs=np.int64(2), shuffle_seed=True)
    dataset = random_dataset(np.random.default_rng(1), 10, 2, 1)
    assert mg.train_lmsbn(dataset, mg.build_independent_graph(2, 1), config).epochs <= 2


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
@pytest.mark.parametrize("snap", [training._SNAP, 0.25])
def test_the_shuffle_seed_changes_nothing(monkeypatch, kind, snap):
    # no solver draws a random number: two seeds give the same bits, for
    # solves that certify by the interior point and, from duals snapped a
    # quarter box away, by the crossover
    monkeypatch.setattr(training, "_SNAP", snap)
    rng = np.random.default_rng(8)
    graph = mg.build_chain_graph(3, 2, kind)
    dataset = random_dataset(rng, 40, 3, 2)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    one, other = (train(dataset, graph, TrainConfig(lam=0.05, shuffle_seed=seed)) for seed in (0, 12345))
    assert one.converged and one.reports == other.reports
    assert np.array_equal(one.weights.values, other.weights.values)
    assert np.array_equal(one.state.alpha, other.state.alpha)


@pytest.mark.parametrize("train", [mg.train_lmsbn, mg.train_lmbm])
@pytest.mark.parametrize("lam", [1e308, 1e-320])
def test_box_bound_must_be_positive_and_finite(train, lam):
    # lambda * n overflows to inf (box 0), or 1/(lambda * n) does (box inf);
    # at box 0 every dual stays 0 and the relative gap divides by a 0 primal
    rng = np.random.default_rng(0)
    dataset = random_dataset(rng, 30, 2, 1)
    kind = mg.DIRECTED if train is mg.train_lmsbn else mg.UNDIRECTED
    graph = mg.build_full_graph(2, 1, kind)
    with pytest.raises(DataError, match="box bound"):
        train(dataset, graph, TrainConfig(lam=lam))


def test_kind_mismatch_is_rejected():
    graph, dataset = one_node_bias_problem()
    with pytest.raises(GraphError):
        mg.train_lmbm(dataset, graph, TrainConfig())
    gu = mg.build_independent_graph(1, 0, mg.UNDIRECTED)
    with pytest.raises(GraphError):
        mg.train_lmsbn(dataset, gu, TrainConfig())


def test_empty_and_mismatched_datasets_are_rejected():
    graph, _ = one_node_bias_problem()
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 0)), np.zeros((0, 1), dtype=np.int8))
    wrong = Dataset(np.zeros((2, 3)), np.ones((2, 2), dtype=np.int8))
    with pytest.raises(DataError):
        mg.train_lmsbn(wrong, graph, TrainConfig())


def test_a_directed_node_that_owns_no_clique_reports_its_real_gap():
    # node 0 owns no clique: its margins are 0 whatever the weights, so its
    # duals sit at the box C and its hinge is N * C in both primal and dual
    graph = GraphSpec(2, 0, mg.DIRECTED, (0, 1), (Clique((0, 1)),))
    dataset = Dataset(np.zeros((50, 0)), random_labels(np.random.default_rng(4), 50, 2))
    config = TrainConfig(lam=0.1)
    result = mg.train_lmsbn(dataset, graph, config)
    assert result.converged
    assert duality_gap(result.state, dataset, config) == result.gap
    assert np.all(result.state.alpha[0] == 1.0 / (config.lam * 50))
    assert result.reports[0].epochs >= 1


def test_single_output_directed_and_undirected_agree_bit_for_bit():
    graph_d = GraphSpec(1, 2, mg.DIRECTED, (0,),
                        (Clique((0,)), Clique((0,), 0), Clique((0,), 1)))
    graph_u = GraphSpec(1, 2, mg.UNDIRECTED, (0,), graph_d.cliques)
    rng = np.random.default_rng(3)
    dataset = Dataset(rng.standard_normal((9, 2)), random_labels(rng, 9, 1))
    config = TrainConfig(lam=0.3)
    w_directed = mg.train_lmsbn(dataset, graph_d, config).weights.values
    w_joint = mg.train_lmbm(dataset, graph_u, config).weights.values
    assert np.array_equal(w_directed, w_joint)


def test_edge_free_joint_solve_matches_independent_solves():
    rng = np.random.default_rng(5)
    gd = mg.build_independent_graph(3, 2, mg.DIRECTED)
    gu = mg.build_independent_graph(3, 2, mg.UNDIRECTED)
    dataset = random_dataset(rng, 12, 3, 2)
    config = TrainConfig(lam=0.1, tolerance=1e-8, max_epochs=5000)
    w_directed = mg.train_lmsbn(dataset, gd, config).weights.values
    w_joint = mg.train_lmbm(dataset, gu, config).weights.values
    assert np.abs(w_directed - w_joint).max() <= 1e-6


def test_two_node_coupling_matches_grid_searched_optimum():
    # bias on node 0 plus one coupling; perfectly correlated labels.  The
    # box-scaled primal optimum is exactly 0.5 (w = (0, 1) fits both
    # instances with margin 1 at squared norm 1), independent of lam.
    graph = GraphSpec(2, 0, mg.UNDIRECTED, (0, 1), (Clique((0,)), Clique((0, 1))))
    dataset = Dataset(np.zeros((2, 0)), np.array([[1, 1], [-1, -1]], dtype=np.int8))
    w0 = np.arange(-2.0, 2.0001, 1e-3)
    W0, W1 = np.meshgrid(w0, w0, indexing="ij")
    for lam in (0.1, 0.5, 1.0):
        config = TrainConfig(lam=lam, tolerance=1e-6, max_epochs=20000)
        result = mg.train_lmbm(dataset, graph, config)
        dual = dual_objective(result.state, dataset, config)
        hinge = lambda z: np.maximum(0.0, 1.0 - z)
        box = 1.0 / (lam * 2)
        total_hinge = (hinge(W0 + W1) + hinge(W1)      # instance (+1, +1)
                       + hinge(-W0 + W1) + hinge(W1))  # instance (-1, -1)
        grid_min = (0.5 * (W0**2 + W1**2) + box * total_hinge).min()
        assert abs(dual - 0.5) <= 1e-9
        assert grid_min >= dual - 1e-12          # the dual never overshoots
        assert grid_min - dual <= 1e-6           # and comes out tight
        assert duality_gap(result.state, dataset, config) <= 1e-6


def test_random_problem_battery_gap_box_stationarity():
    rng = np.random.default_rng(11)
    for trial in range(10):
        K = int(rng.integers(1, 5))
        D = int(rng.integers(0, 4))
        N = int(rng.integers(2, 13))
        kind = mg.DIRECTED if trial % 2 == 0 else mg.UNDIRECTED
        graph = mg.build_full_graph(K, D, kind)
        dataset = random_dataset(rng, N, K, D)
        config = TrainConfig(lam=float(rng.uniform(0.05, 1.0)),
                             eta0=float(rng.uniform(0.0, 1.0)),
                             tolerance=1e-5, max_epochs=20000)
        train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
        result = train(dataset, graph, config)
        assert result.converged
        assert duality_gap(result.state, dataset, config) <= 1e-4
        box = 1.0 / (config.lam * N)
        alpha = result.state.alpha
        assert alpha.min() >= 0.0 and alpha.max() <= box
        # the maintained weights satisfy stationarity against alpha exactly
        F = clique_feature_matrix(graph, dataset)
        eta = training._regularizer_multipliers(graph, config.eta0)
        w_from_alpha = np.zeros(graph.n_cliques)
        for i in range(K):
            cols = list(graph.contributing[i])
            if cols:
                w_from_alpha[cols] += F[:, cols].T @ alpha[i]
        w_from_alpha /= eta
        assert np.abs(w_from_alpha - result.weights.values).max() <= 1e-8


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
@pytest.mark.parametrize("n_inputs", [1, 16])
def test_gap_stays_non_negative_at_every_epoch_cap(kind, n_inputs):
    # one input gives node rows of 2 to 7 columns, sixteen give rows of 17 to
    # 23, so both Newton methods start solves; whatever the cap stops, the
    # duals it records lie below the primal
    rng = np.random.default_rng(17 + n_inputs)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    for trial in range(4):
        K = int(rng.integers(2, 5))
        graph = coupled_graph(rng, ("chain", "full")[trial % 2], K, n_inputs, kind)
        dataset = random_dataset(rng, int(rng.integers(5, 25)), K, n_inputs)
        settings_ = dict(lam=float(rng.uniform(0.02, 0.5)), eta0=float(rng.uniform(0.0, 1.0)),
                         tolerance=(1e-3, 1e-12)[trial // 2])
        for epochs in range(1, 13):
            config = TrainConfig(max_epochs=epochs, **settings_)
            state = train(dataset, graph, config).state
            assert box_primal_objective(state, dataset, config) - dual_objective(state, dataset, config) >= -1e-12


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_converged_solve_reports_the_all_alpha_projected_gradient(kind):
    # the certificate's gradient half is the one over all of alpha, taken at
    # the returned weights, not the last epoch's in-pass value
    rng = np.random.default_rng(3)
    graph = mg.build_chain_graph(3, 2, kind, order=(2, 0, 1))
    dataset = random_dataset(rng, 30, 3, 2)
    config = TrainConfig(lam=0.05)
    result = (mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm)(dataset, graph, config)
    assert result.converged
    reported = max(r.max_projected_gradient for r in result.reports)
    assert reported <= config.tolerance
    recomputed = all_alpha_max_projected_gradient(graph, dataset, result.state, config)
    assert abs(reported - recomputed) <= 1e-12


@pytest.mark.parametrize("n_outputs, n_inputs", [(3, 2), (1, 2), (2, 3)])
@pytest.mark.parametrize("measure", [
    mean_joint_loss,
    primal_objective,
    lambda dataset, graph, weights: run_s_sweep(graph, weights, dataset, [1.0]),
    lambda dataset, graph, weights: mg.train_lmsbn(dataset, graph, TrainConfig()),
], ids=["mean_joint_loss", "primal_objective", "run_s_sweep", "train"])
def test_a_dataset_of_other_dims_than_the_graph_is_refused(monkeypatch, measure, n_outputs, n_inputs):
    def no_search(*args):
        raise AssertionError("searched before checking the dataset")

    monkeypatch.setattr(bench, "bb_infer_chunk", no_search)
    graph = mg.build_chain_graph(2, 2, mg.DIRECTED)
    dataset = random_dataset(np.random.default_rng(3), 4, n_outputs, n_inputs)
    weights = WeightVector(np.ones(graph.n_cliques), lam=1.0)
    with pytest.raises(DataError, match=f"dataset dims \\({n_outputs} outputs, {n_inputs} inputs\\) "
                       "do not match graph \\(2, 2\\)"):
        measure(dataset, graph, weights)


def test_primal_objective_at_zero_weights_is_output_count():
    rng = np.random.default_rng(7)
    graph = mg.build_chain_graph(4, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 6, 4, 2)
    weights = WeightVector(np.zeros(graph.n_cliques), lam=1.0)
    assert primal_objective(dataset, graph, weights) == 4.0


def test_regularizer_multipliers_boost_undirected_pairs_only():
    gu = mg.build_chain_graph(3, 1, mg.UNDIRECTED)
    mult = training._regularizer_multipliers(gu, 0.5)
    expect = [1.5 if len(c.outputs) >= 2 else 1.0 for c in gu.cliques]
    assert mult.tolist() == expect
    gd = mg.build_chain_graph(3, 1, mg.DIRECTED)
    assert training._regularizer_multipliers(gd, 0.5).tolist() == [1.0] * gd.n_cliques
    full = mg.build_full_graph(3, 2, mg.UNDIRECTED)
    assert training._regularizer_multipliers(full, np.float32(0.5)).tolist() == [1.0] * 9 + [1.5] * 3


def test_eta0_increases_the_undirected_penalty_only():
    graph = mg.build_chain_graph(2, 0, mg.UNDIRECTED)
    values = np.ones(graph.n_cliques)
    base = primal_objective(
        Dataset(np.zeros((1, 0)), np.array([[1, 1]], dtype=np.int8)),
        graph, WeightVector(values, lam=1.0, eta0=0.0))
    boosted = primal_objective(
        Dataset(np.zeros((1, 0)), np.array([[1, 1]], dtype=np.int8)),
        graph, WeightVector(values, lam=1.0, eta0=1.0))
    # only the single pair clique gains an extra lam * eta0 * w^2 = 1
    assert boosted - base == pytest.approx(1.0, abs=1e-12)


def test_large_lam_shrinks_weights_and_loss_approaches_output_count():
    rng = np.random.default_rng(9)
    graph = mg.build_full_graph(3, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 10, 3, 2)
    result = mg.train_lmsbn(dataset, graph, TrainConfig(lam=1e6))
    assert np.abs(result.weights.values).max() <= 1e-4
    assert mean_joint_loss(dataset, graph, result.weights) == pytest.approx(3.0, abs=1e-3)


def test_smaller_lam_never_increases_training_loss():
    rng = np.random.default_rng(13)
    graph = mg.build_chain_graph(3, 2, mg.DIRECTED)
    dataset = random_dataset(rng, 20, 3, 2)
    losses = []
    for lam in (10.0, 1.0, 0.1, 0.01):
        result = mg.train_lmsbn(dataset, graph, TrainConfig(lam=lam, max_epochs=5000))
        losses.append(mean_joint_loss(dataset, graph, result.weights))
    assert all(a >= b - 1e-3 for a, b in zip(losses, losses[1:]))


def test_train_result_reports_one_entry_per_node_for_directed():
    rng = np.random.default_rng(15)
    graph = mg.build_chain_graph(3, 1, mg.DIRECTED)
    dataset = random_dataset(rng, 8, 3, 1)
    result = mg.train_lmsbn(dataset, graph, TrainConfig())
    assert [r.node for r in result.reports] == [0, 1, 2]
    assert result.epochs == max(r.epochs for r in result.reports)
    single = mg.train_lmbm(random_dataset(rng, 8, 3, 1),
                           mg.build_chain_graph(3, 1, mg.UNDIRECTED), TrainConfig())
    assert [r.node for r in single.reports] == [None]


def test_feature_matrix_columns_are_clique_features():
    graph = GraphSpec(2, 1, mg.DIRECTED, (0, 1), (Clique((0,), 0), Clique((0, 1))))
    dataset = Dataset(np.array([[2.0], [3.0]]),
                      np.array([[1, 1], [-1, 1]], dtype=np.int8))
    F = clique_feature_matrix(graph, dataset)
    assert F.tolist() == [[2.0, 1.0], [-3.0, -1.0]]


def test_tolerance_certifies_each_directed_solve_not_the_summed_model_gap(monkeypatch):
    # a case where every node solve converges to tol while the model's
    # duality gap, the sum of the node gaps, lies above tol (but within K * tol):
    # the interior point stops after one iteration, and the crossover ends
    # each solve at the first duals that certify
    K = 4
    graph = mg.build_full_graph(K, 1, mg.DIRECTED)
    dataset = random_dataset(np.random.default_rng(0), 25, K, 1)
    config = TrainConfig(lam=0.02, tolerance=1e-2)
    solve = training._interior_point
    monkeypatch.setattr(training, "_interior_point",
                        lambda blocks, width, box, left: solve(blocks, width, box, np.minimum(left, 1)))
    result = mg.train_lmsbn(dataset, graph, config)
    assert all(r.epochs > 1 for r in result.reports)
    assert result.converged and all(r.converged for r in result.reports)
    assert all(r.gap <= config.tolerance for r in result.reports)
    assert result.gap == sum(r.gap for r in result.reports)
    assert duality_gap(result.state, dataset, config) == result.gap
    assert config.tolerance < result.gap <= K * config.tolerance


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    directed=st.booleans(),
    K=st.integers(1, 4),
    D=st.integers(0, 3),
    N=st.integers(2, 30),
    lam=st.floats(0.02, 1.0),
    seed=st.integers(0, 2**16),
)
def test_converged_solves_certify_gap_and_projected_gradient(directed, K, D, N, lam, seed):
    rng = np.random.default_rng(seed)
    kind = mg.DIRECTED if directed else mg.UNDIRECTED
    graph = mg.build_full_graph(K, D, kind)
    dataset = random_dataset(rng, N, K, D)
    config = TrainConfig(lam=lam, max_epochs=20000)
    result = (mg.train_lmsbn if directed else mg.train_lmbm)(dataset, graph, config)
    assert result.converged
    # each solve certifies its own gap; a directed model's gap is the sum
    # over its independent node problems
    assert duality_gap(result.state, dataset, config) == result.gap
    assert all(r.gap <= config.tolerance for r in result.reports)
    assert all_alpha_max_projected_gradient(graph, dataset, result.state, config) <= config.tolerance


# ---------------------------------------------------------------------------
# starting duals


def stationary_weights(graph, dataset, alpha, eta0):
    """w = (1/eta) * sum over (node, instance) of alpha * clique features."""
    F = clique_feature_matrix(graph, dataset)
    w = np.zeros(graph.n_cliques)
    for i, cols in enumerate(graph.contributing):
        cols = list(cols)
        if cols:
            w[cols] += F[:, cols].T @ alpha[i]
    return w / training._regularizer_multipliers(graph, eta0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    directed=st.booleans(),
    K=st.integers(1, 5),
    D=st.integers(0, 3),
    N=st.integers(2, 12),
    lam=st.floats(0.05, 1.0),
    eta0=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_a_solve_started_from_the_probe_duals_certifies_the_cold_optimum(directed, K, D, N, lam, eta0, seed):
    # sizes as in test_criterion_05; the fscore probe's duals start the
    # full problem in the probe's order
    rng = np.random.default_rng(seed)
    kind = mg.DIRECTED if directed else mg.UNDIRECTED
    dataset = random_dataset(rng, N, K, D)
    config = TrainConfig(lam=lam, eta0=eta0, tolerance=1e-5)
    strategy = mg.make_order_strategy("fscore", dataset, config)
    probe_alpha = strategy.probe.state.alpha.copy()
    graph = mg.build_full_graph(K, D, kind, order=strategy.order)
    train = mg.train_lmsbn if directed else mg.train_lmbm
    warm = train(dataset, graph, config, start=strategy.probe.state)
    cold = train(dataset, graph, config)
    assert np.array_equal(strategy.probe.state.alpha, probe_alpha)  # the start is not written to
    assert warm.converged
    alpha = warm.state.alpha
    assert alpha.min() >= 0.0 and alpha.max() <= 1.0 / (lam * N)  # holds exactly
    w_from_alpha = stationary_weights(graph, dataset, alpha, eta0)
    assert np.abs(w_from_alpha - warm.weights.values).max() <= 1e-8
    assert all(r.gap <= config.tolerance for r in warm.reports)
    gap_warm = duality_gap(warm.state, dataset, config)
    gap_cold = duality_gap(cold.state, dataset, config)
    assert gap_warm <= len(warm.reports) * config.tolerance
    # both primals lie within their own gap above the one optimum; the
    # slack covers the rounding of the objectives, not of the solve
    p_warm = box_primal_objective(warm.state, dataset, config)
    p_cold = box_primal_objective(cold.state, dataset, config)
    assert abs(p_warm - p_cold) <= gap_warm + gap_cold + 1e-12 * max(1.0, abs(p_cold))


def test_the_first_node_in_fscore_order_ends_after_one_epoch():
    # it owns only its own unary cliques, so its full problem is its probe
    # problem; both take the active set (14 rows, at least 16 columns), and
    # from the probe's converged duals the first iteration settles
    rng = np.random.default_rng(5)
    dataset = random_dataset(rng, 14, 4, 15)
    config = TrainConfig(lam=0.05)
    strategy = mg.make_order_strategy("fscore", dataset, config)
    first = strategy.order[0]
    assert strategy.probe.reports[first].converged
    assert strategy.probe.reports[first].epochs > 1
    graph = mg.build_full_graph(4, 15, mg.DIRECTED, order=strategy.order)
    report = mg.train_lmsbn(dataset, graph, config, start=strategy.probe.state).reports[first]
    assert (report.epochs, report.converged) == (1, True)


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_a_start_at_zero_is_the_cold_start_bit_for_bit(kind):
    rng = np.random.default_rng(9)
    graph = mg.build_full_graph(3, 2, kind)
    dataset = random_dataset(rng, 20, 3, 2)
    config = TrainConfig(lam=0.1, eta0=0.5)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    cold = train(dataset, graph, config)
    zero = train(dataset, graph, config, start=mg.DualState(graph, np.zeros((3, 20)), cold.weights))
    assert zero.reports == cold.reports
    assert np.array_equal(zero.weights.values, cold.weights.values)
    assert np.array_equal(zero.state.alpha, cold.state.alpha)


def _probe_alpha_at(lam):
    """The fscore probe's duals, trained at lam."""
    def alpha(dataset, box):
        return mg.make_order_strategy("fscore", dataset, TrainConfig(lam=lam)).probe.state.alpha
    return alpha


def _alpha_with(value):
    """Duals inside the box but for one entry, value(box)."""
    def alpha(dataset, box):
        a = np.full((dataset.n_outputs, dataset.n_instances), box / 2)
        a[1, 2] = value(box)
        return a
    return alpha


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
@pytest.mark.parametrize("make_alpha, message", [
    (lambda dataset, box: np.zeros((2, 6)), r"shape \(2, 6\), need .* \(3, 6\)"),
    (lambda dataset, box: np.zeros((3, 7)), r"shape \(3, 7\)"),
    (lambda dataset, box: np.zeros((6, 3)), r"shape \(6, 3\)"),
    (lambda dataset, box: np.zeros(18), r"shape \(18,\)"),
    (lambda dataset, box: np.zeros((1, 3, 6)), r"shape \(1, 3, 6\)"),
    (lambda dataset, box: [[0.0] * 6, [0.0] * 5, [0.0] * 6], "not a numeric array"),
    (lambda dataset, box: np.full((3, 6), "x"), "not a numeric array"),
    (_alpha_with(lambda box: np.nan), "non-finite"),
    (_alpha_with(lambda box: np.inf), "non-finite"),
    (_alpha_with(lambda box: -np.inf), "non-finite"),
    (_alpha_with(lambda box: -5e-324), "outside the box"),
    (_alpha_with(lambda box: np.nextafter(box, np.inf)), "outside the box"),
    (_probe_alpha_at(0.05), "outside the box"),  # a probe at a tenth of the lambda
])
def test_starting_duals_that_cannot_start_a_solve_are_a_data_error(kind, make_alpha, message):
    rng = np.random.default_rng(4)
    graph = mg.build_full_graph(3, 2, kind)
    dataset = random_dataset(rng, 6, 3, 2)
    config = TrainConfig(lam=0.5)
    alpha = make_alpha(dataset, 1.0 / (config.lam * 6))
    start = mg.DualState(graph, alpha, WeightVector(np.zeros(graph.n_cliques), lam=0.5))
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    with pytest.raises(DataError, match=message):
        train(dataset, graph, config, start=start)


def _certificate_at_recorded_duals(result, dataset, config):
    """Each solve's (gap, largest projected gradient), recomputed by
    ``_box_objectives`` from that solve's recorded duals."""
    graph = result.state.graph
    eta = training._regularizer_multipliers(graph, config.eta0)
    box = training._box_bound(config.lam, dataset.n_instances)
    K = graph.n_outputs
    solves = [[i] for i in range(K)] if graph.kind == mg.DIRECTED else [list(range(K))]
    certificates = []
    for nodes in solves:
        _, blocks = training._blocks(graph, dataset, [graph.contributing[i] for i in nodes], eta, box)
        _, primal, dual, max_pg = training._box_objectives(blocks, box, result.state.alpha[nodes])
        certificates.append((primal - dual, max_pg))
    return certificates


def test_scene_shaped_reports_are_the_certificates_of_their_duals_bit_for_bit(monkeypatch):
    # a planted full model of six labels over 294 inputs, 200 rows, in
    # fscore order: step 1's active set certifies all twelve solves, and
    # each report holds the one certificate that decided it
    K, D, N = 6, 294, 200
    graph, planted = mg.planted_model(K, D, kind=mg.DIRECTED, topology="full", seed=0, input_scale=0.1)
    dataset = mg.sample_sbn(mg.SynthConfig(graph, planted, N, seed=(0, 1)))
    config = TrainConfig(lam=0.01)
    calls = record_newton_calls(monkeypatch)
    strategy = mg.make_order_strategy("fscore", dataset, config)
    full_graph = mg.build_full_graph(K, D, mg.DIRECTED, order=strategy.order)
    full = mg.train_lmsbn(dataset, full_graph, config, start=strategy.probe.state)
    assert [call[0] for call in calls] == ["active set"] * 12
    for result in (strategy.probe, full):
        assert result.converged
        assert [(r.gap, r.max_projected_gradient) for r in result.reports] == (
            _certificate_at_recorded_duals(result, dataset, config)
        )


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_interior_point_reports_are_the_certificates_of_their_duals_bit_for_bit(kind):
    rng = np.random.default_rng(6)
    graph = mg.build_full_graph(4, 2, kind)
    dataset = random_dataset(rng, 60, 4, 2)
    config = TrainConfig(lam=0.02, eta0=0.5)
    result = (mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm)(dataset, graph, config)
    assert result.converged
    assert [(r.gap, r.max_projected_gradient) for r in result.reports] == (
        _certificate_at_recorded_duals(result, dataset, config)
    )


@pytest.mark.parametrize("kind", [mg.DIRECTED, mg.UNDIRECTED])
def test_features_that_could_overflow_the_certificate_are_a_data_error(kind):
    # box 1/(0.01 * 3), over 3 rows per node solve or 6 of the joint one:
    # inputs of 1e70 put the rule's reach near 1e142-1e143 and train with no
    # floating-point warning; inputs of 1e80 reach 1e162-1e163, above
    # _FEATURE_REACH, and are refused by every solve and by the objectives
    # of a state
    graph = mg.build_chain_graph(2, 1, kind)
    labels = random_labels(np.random.default_rng(7), 3, 2)
    train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
    config = TrainConfig(lam=0.01)
    safe = Dataset(np.array([[1e70], [-1e70], [3e69]]), labels)
    with np.errstate(all="raise"):
        result = train(safe, graph, config)
    assert np.isfinite([r.gap for r in result.reports]).all()
    huge = Dataset(1e10 * safe.X, labels)
    with pytest.raises(DataError, match="the features make training overflow"):
        train(huge, graph, config)
    with pytest.raises(DataError, match="the features make training overflow"):
        duality_gap(result.state, huge, config)


def test_the_objectives_of_a_state_take_its_solves_one_by_one():
    # four independent nodes over 2 rows with inputs of 6.7e73, at box 50:
    # each node's solve reaches 9.0e149, within _FEATURE_REACH, where all
    # four nodes at once would reach 1.4e151; the objectives of the trained
    # state see each solve as training did, and its gap is training's
    graph = mg.build_independent_graph(4, 1, mg.DIRECTED)
    dataset = Dataset(np.array([[6.7e73], [-6.7e73]]), random_labels(np.random.default_rng(3), 2, 4))
    config = TrainConfig(lam=0.01)
    result = mg.train_lmsbn(dataset, graph, config)
    assert duality_gap(result.state, dataset, config) == result.gap
    assert np.isfinite([box_primal_objective(result.state, dataset, config),
                        dual_objective(result.state, dataset, config)]).all()
