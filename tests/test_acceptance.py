"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints one pass/fail line under ``pytest -v``.  The two checks that
need the public Scene dataset skip with an explicit reason when the files are
not present (they cannot be downloaded in an offline environment); everything
else runs unconditionally.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import margraph as mg
from margraph import BBConfig, Dataset, SynthConfig, TrainConfig, WeightVector, inference, training
from margraph.bench import branch_budget, run_k_sweep, run_s_sweep
from margraph.dataio import ModelFile, load_model, parse_multilabel_svmlight, save_model
from margraph.model import compile_scorer, surrogate_bound_check
from margraph.training import clique_feature_matrix

from _helpers import assignment_signs, random_dataset, random_model


# ---------------------------------------------------------------------------
# shared planted problem for the budget-guarantee and error-bound checks


def _strong_chain(n_outputs, n_inputs, seed):
    """A directed chain whose biases dominate: low-loss, highly prunable."""
    graph = mg.build_chain_graph(n_outputs, n_inputs, mg.DIRECTED)
    rng = np.random.default_rng(seed)
    values = np.empty(graph.n_cliques)
    for j, clique in enumerate(graph.cliques):
        sign = rng.choice([-1.0, 1.0])
        if len(clique.outputs) >= 2:
            values[j] = sign * rng.uniform(0.8, 1.2)
        elif clique.input_feature is not None:
            values[j] = sign * rng.uniform(0.2, 0.4)
        else:
            values[j] = sign * rng.uniform(3.5, 4.5)
    return graph, WeightVector(values, lam=1.0)


@pytest.fixture(scope="module")
def planted_problem():
    graph, planted = _strong_chain(15, 3, 42)
    train = mg.sample_sbn(SynthConfig(graph, planted, 800, seed=(42, 1)))
    test = mg.sample_sbn(SynthConfig(graph, planted, 2000, seed=(42, 2)))
    fitted = mg.train_lmsbn(train, graph, TrainConfig(lam=0.003)).weights
    mean_loss = mg.mean_joint_loss(test, graph, fitted)
    return {"graph": graph, "weights": fitted, "test": test, "mean_loss": mean_loss}


# ---------------------------------------------------------------------------
# 1. search equals enumeration


def test_criterion_01_search_matches_enumeration_on_1000_models():
    rng = np.random.default_rng(0)
    config = BBConfig(cutoff=1e9)
    started = time.perf_counter()
    for _ in range(1000):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=12, max_inputs=5)
        found = mg.bb_infer(graph, weights, x, config)
        truth = mg.exhaustive_infer(graph, weights, x)
        assert found.status == mg.STATUS_OPTIMAL
        assert found.objective == truth.objective  # exact tie, no tolerance
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 2. at most one assignment beats unit loss


def test_criterion_02_at_most_one_assignment_below_unit_loss():
    rng = np.random.default_rng(1)
    for _ in range(200):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=10)
        scorer = compile_scorer(graph, weights, x)
        losses = scorer.total_loss_column(
            assignment_signs(graph.n_outputs, 0, 1 << graph.n_outputs)
        )
        assert int((losses < 1.0).sum()) <= 1
        if losses.size > 1:
            second_smallest = np.partition(losses, 1)[1]
            assert second_smallest >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# 3. budget guarantee of the cutoff search


def test_criterion_03_optimality_fraction_beats_loss_over_cutoff_bound(planted_problem):
    graph = planted_problem["graph"]
    test = planted_problem["test"]
    records = run_s_sweep(graph, planted_problem["weights"], test, [1, 2, 4, 8])
    for record in records:
        sigma = math.sqrt(record.bound * (1.0 - record.bound) / test.n_instances)
        assert record.fraction_optimal >= record.bound - 3.0 * sigma, (
            f"S={record.cutoff}: fraction {record.fraction_optimal} "
            f"below bound {record.bound} - 3*{sigma}"
        )
        assert record.max_states <= branch_budget(graph.n_outputs, record.cutoff)


# ---------------------------------------------------------------------------
# 4. generalization: exact-match error under mean loss


def test_criterion_04_error_rate_is_at_most_mean_loss(planted_problem):
    graph = planted_problem["graph"]
    test = planted_problem["test"]
    config = BBConfig(cutoff=1e9)
    wrong = 0
    for l in range(test.n_instances):
        result = mg.bb_infer(graph, planted_problem["weights"], test.X[l], config)
        wrong += int(not np.array_equal(result.labels, test.Y[l]))
    error = wrong / test.n_instances
    sigma = math.sqrt(error * (1.0 - error) / test.n_instances)
    assert error <= planted_problem["mean_loss"] + 3.0 * sigma


# ---------------------------------------------------------------------------
# 5. solver correctness


def test_criterion_05_solver_gap_box_stationarity_and_closed_forms():
    # 1-D closed forms: one positive instance, bias-only model.
    graph1 = mg.build_independent_graph(1, 0, mg.DIRECTED)
    data1 = Dataset(np.zeros((1, 0)), np.array([[1]], dtype=np.int8))
    for lam, expected in ((1.0, 1.0), (2.0, 0.5)):
        fit = mg.train_lmsbn(data1, graph1, TrainConfig(lam=lam))
        assert fit.weights.values[0] == pytest.approx(expected, abs=1e-6)

    rng = np.random.default_rng(2)
    for trial in range(50):
        n_outputs = int(rng.integers(1, 6))
        n_inputs = int(rng.integers(0, 4))
        n_instances = int(rng.integers(2, 13))
        kind = mg.DIRECTED if trial % 2 == 0 else mg.UNDIRECTED
        graph = mg.build_full_graph(n_outputs, n_inputs, kind)
        dataset = random_dataset(rng, n_instances, n_outputs, n_inputs)
        config = TrainConfig(
            lam=float(rng.uniform(0.05, 1.0)),
            eta0=float(rng.uniform(0.0, 1.0)),
            tolerance=1e-5,
        )
        train = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
        result = train(dataset, graph, config)
        assert result.converged
        assert mg.duality_gap(result.state, dataset, config) <= 1e-4
        box = 1.0 / (config.lam * n_instances)
        alpha = result.state.alpha
        assert alpha.min() >= 0.0 and alpha.max() <= box  # holds exactly
        F = clique_feature_matrix(graph, dataset)
        eta = training._regularizer_multipliers(graph, config.eta0)
        w_from_alpha = np.zeros(graph.n_cliques)
        for i in range(n_outputs):
            cols = list(graph.contributing[i])
            if cols:
                w_from_alpha[cols] += F[:, cols].T @ alpha[i]
        w_from_alpha /= eta
        assert np.abs(w_from_alpha - result.weights.values).max() <= 1e-8


# ---------------------------------------------------------------------------
# 6. hinge-plus-offset dominates logistic loss


def test_criterion_06_hinge_plus_offset_dominates_log_loss_on_grid():
    z = np.arange(-20_000, 20_001, dtype=np.float64) * 1e-3  # [-20, 20] step 1e-3
    log_loss, hinge_plus_offset = surrogate_bound_check(z)
    assert z.size == 40_001
    assert float(np.min(hinge_plus_offset - log_loss)) >= -1e-12


# ---------------------------------------------------------------------------
# 7. probability tables normalize


def test_criterion_07_probability_tables_sum_to_one():
    rng = np.random.default_rng(3)
    for kind in (mg.DIRECTED, mg.UNDIRECTED):
        for _ in range(100):
            graph, weights, x = random_model(rng, kind, max_outputs=10)
            total = float(np.exp(mg.log_prob_table(graph, weights, x)).sum())
            assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# 8. trained models prune; random models do not


def test_criterion_08_trained_search_grows_slowly_random_search_does_not():
    records = run_k_sweep(range(5, 21), n_train=400, n_test=60, lam=0.01, seed=1)
    sizes = np.array([r.n_outputs for r in records], dtype=np.float64)
    log_trained = np.log2([r.trained_mean_states for r in records])
    slope = float(np.polyfit(sizes, log_trained, 1)[0])
    assert slope <= 0.5, f"trained search grows too fast: log2 slope {slope}"
    last = records[-1]
    assert last.n_outputs == 20
    assert last.random_mean_states >= 10.0 * last.trained_mean_states
    for record in records:
        assert record.exhaustive_states == 1 << record.n_outputs
    # the enumeration count is real, not definitional: a model whose optimum
    # is above 0 reports the zero-loss pass's label settings plus all 256
    # assignments, and a model whose first dive ends at a zero-loss
    # assignment reports that dive alone
    graph, weights, x = random_model(np.random.default_rng(4), mg.DIRECTED,
                                     max_outputs=8, min_outputs=8)
    above = mg.exhaustive_infer(graph, weights, x)
    assert above.objective > 0.0
    scorer = compile_scorer(graph, weights, x)
    table = inference._closing_table(scorer, graph.closing, greedy=False)
    labels, _, passed, _ = inference._index_search(scorer, math.ulp(0.0), inference._pass_budget(8), table)
    assert labels is None and 0 < passed <= inference._pass_budget(8)
    assert above.states_visited == passed + 256
    # the builders' first 8 cliques are the biases: at 100 every label is
    # +1 at a margin above 1, whatever the other terms add
    biased = mg.WeightVector(np.concatenate(([100.0] * 8, weights.values[8:])), lam=1.0)
    zero = mg.exhaustive_infer(graph, biased, x)
    assert zero.objective == 0.0 and zero.labels.tolist() == [1] * 8
    assert zero.states_visited == 8 < 256


# ---------------------------------------------------------------------------
# 9 and 11b. the public Scene benchmark (needs the dataset on disk)


def _scene_paths():
    root = Path(os.environ.get("SCENE_DIR", Path(__file__).resolve().parents[1] / "data" / "scene"))
    train, test = root / "scene_train", root / "scene_test"
    if not (train.exists() and test.exists()):
        pytest.skip(
            "Scene dataset not present: put scene_train and scene_test under "
            f"{root} (or set SCENE_DIR); it cannot be downloaded in this "
            "offline environment"
        )
    return train, test


def test_criterion_09_scene_coupled_model_beats_independent_baseline():
    train_path, test_path = _scene_paths()
    started = time.perf_counter()
    train = parse_multilabel_svmlight(train_path, n_outputs=6, n_inputs=294)
    test = parse_multilabel_svmlight(test_path, n_outputs=6, n_inputs=294)
    config = TrainConfig(lam=0.01)

    strategy = mg.make_order_strategy("fscore", train, config)
    coupled = mg.build_full_graph(6, 294, mg.DIRECTED, order=strategy.order)
    coupled_fit = mg.train_lmsbn(train, coupled, config).weights
    independent = mg.build_independent_graph(6, 294, mg.DIRECTED)
    independent_fit = mg.train_lmsbn(train, independent, config).weights

    bb = BBConfig(cutoff=1e9)
    coupled_preds = np.vstack(
        [mg.bb_infer(coupled, coupled_fit, x, bb).labels for x in test.X]
    )
    independent_preds = np.vstack(
        [mg.bb_infer(independent, independent_fit, x, bb).labels for x in test.X]
    )
    ours = mg.evaluate(test.Y, coupled_preds)
    base = mg.evaluate(test.Y, independent_preds)
    assert ours.exact_match > base.exact_match
    assert ours.f_sample > base.f_sample
    assert time.perf_counter() - started < 600.0


# ---------------------------------------------------------------------------
# 10. metric definitions


def test_criterion_10_metrics_hand_example_and_permutation_invariance():
    truths = [[1, -1, 1], [-1, -1, 1]]
    preds = [[1, -1, 1], [1, -1, -1]]
    report = mg.evaluate(truths, preds)
    assert report.exact_match == 0.5
    assert report.hamming == 1.0 / 3.0
    assert report.f_sample == 0.5
    assert report.f_macro == (2.0 / 3.0 + 1.0 + 2.0 / 3.0) / 3.0
    assert report.f_micro == 2.0 / 3.0

    rng = np.random.default_rng(5)
    T = np.where(rng.random((40, 7)) < 0.5, 1, -1)
    P = np.where(rng.random((40, 7)) < 0.5, 1, -1)
    base = mg.evaluate(T, P)
    rows = rng.permutation(40)
    cols = rng.permutation(7)
    # counts are permutation-invariant exactly; the f-score means only up to
    # floating accumulation order, hence the 1e-12 allowance
    for other in (mg.evaluate(T[rows], P[rows]), mg.evaluate(T[:, cols], P[:, cols])):
        assert other.exact_match == base.exact_match
        assert other.hamming == base.hamming
        assert other.f_micro == base.f_micro
        assert other.f_sample == pytest.approx(base.f_sample, abs=1e-12)
        assert other.f_macro == pytest.approx(base.f_macro, abs=1e-12)


# ---------------------------------------------------------------------------
# 11. persistence round-trip and the Scene file shapes


def test_criterion_11a_model_save_load_save_is_byte_identical(tmp_path, planted_problem):
    model = ModelFile(
        graph=planted_problem["graph"],
        weights=planted_problem["weights"],
        epochs=7,
        gap=1.25e-5,
        scale=(np.full(3, -0.25), np.full(3, 1.75)),
    )
    first, second = tmp_path / "a.model", tmp_path / "b.model"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_criterion_11b_scene_files_parse_to_documented_shapes():
    train_path, test_path = _scene_paths()
    train = parse_multilabel_svmlight(train_path, n_outputs=6, n_inputs=294)
    test = parse_multilabel_svmlight(test_path, n_outputs=6, n_inputs=294)
    assert train.n_instances == 1211
    assert test.n_instances == 1196
    assert train.n_inputs == test.n_inputs == 294
    assert train.n_outputs == test.n_outputs == 6
