"""Planted-model samplers: determinism and agreement with exact likelihoods."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import model, synth
from margraph.bench import run_k_sweep
from margraph import Clique, GraphSpec, SynthConfig, WeightVector
from margraph.errors import CapabilityError, DataError, GraphError
from margraph.graphs import GRAPH_BUILDERS
from margraph.model import TABLE_MAX_OUTPUTS, index_from_signs, log_prob_table, signs_of_indices
from margraph.synth import planted_model, sample_bm, sample_sbn
from margraph.training import mean_joint_loss

from _helpers import coupled_graph, reference_log_table


def single_edge_graph():
    return GraphSpec(2, 0, mg.UNDIRECTED, (0, 1), (Clique((0, 1)),))


def empirical_frequencies(dataset):
    idx = np.array([index_from_signs(y) for y in dataset.Y])
    return np.bincount(idx, minlength=1 << dataset.n_outputs) / dataset.n_instances


def test_same_seed_reproduces_the_dataset_bit_for_bit():
    graph, weights = planted_model(4, 2, kind=mg.DIRECTED, topology="chain", seed=13)
    a = sample_sbn(SynthConfig(graph, weights, 50, seed=20))
    b = sample_sbn(SynthConfig(graph, weights, 50, seed=20))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    gu, wu = planted_model(3, 0, kind=mg.UNDIRECTED, topology="full", seed=8)
    c = sample_bm(SynthConfig(gu, wu, 50, seed=21))
    d = sample_bm(SynthConfig(gu, wu, 50, seed=21))
    assert np.array_equal(c.X, d.X) and np.array_equal(c.Y, d.Y)


def test_a_graph_without_inputs_draws_nothing_for_them():
    # the labels' uniforms are the seed's first draws, as when no input
    # draw was made for a zero-input graph
    graph = single_edge_graph()
    weights = WeightVector(np.array([0.7]), lam=1.0)
    u = np.random.default_rng(4).random(300)
    cum = np.cumsum(np.exp(reference_log_table(graph, weights, np.zeros(0))))
    expected = np.minimum(np.searchsorted(cum, u, side="right"), 3)
    data = sample_bm(SynthConfig(graph, weights, 300, seed=4))
    assert data.X.shape == (300, 0)
    assert data.Y.tolist() == signs_of_indices(2, expected).tolist()


def test_zero_weight_network_labels_are_unbiased_coins():
    graph = mg.build_independent_graph(2, 0, mg.DIRECTED)
    weights = WeightVector(np.zeros(graph.n_cliques), lam=1.0)
    data = sample_sbn(SynthConfig(graph, weights, 10000, seed=1))
    marginals = (data.Y == 1).mean(axis=0)
    assert np.abs(marginals - 0.5).max() <= 3 * math.sqrt(0.25 / 10000)


def test_single_node_bias_matches_sigmoid_probability():
    graph = GraphSpec(1, 0, mg.DIRECTED, (0,), (Clique((0,)),))
    weights = WeightVector(np.array([3.0]), lam=1.0)
    data = sample_sbn(SynthConfig(graph, weights, 10000, seed=2))
    p = 1.0 / (1.0 + math.exp(-3.0))
    assert abs((data.Y == 1).mean() - p) <= 3 * math.sqrt(p * (1 - p) / 10000)


def test_directed_sample_frequencies_match_exact_likelihood():
    rng = np.random.default_rng(8)
    graph = mg.build_chain_graph(3, 0, mg.DIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    data = sample_sbn(SynthConfig(graph, weights, 40000, seed=5))
    freq = empirical_frequencies(data)
    probs = np.exp(log_prob_table(graph, weights, np.zeros(0)))
    tolerance = 4 * np.sqrt(probs * (1 - probs) / 40000) + 1e-4
    assert (np.abs(freq - probs) <= tolerance).all()


def test_undirected_sample_frequencies_match_exact_likelihood():
    rng = np.random.default_rng(8)
    rng.normal(0.0, 1.0, 6)  # keep the draw aligned with the directed test
    graph = mg.build_full_graph(3, 0, mg.UNDIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    data = sample_bm(SynthConfig(graph, weights, 40000, seed=7))
    freq = empirical_frequencies(data)
    probs = np.exp(log_prob_table(graph, weights, np.zeros(0)))
    tolerance = 4 * np.sqrt(probs * (1 - probs) / 40000) + 1e-4
    assert (np.abs(freq - probs) <= tolerance).all()


def test_single_coupling_agreement_rate_matches_closed_form():
    weights = WeightVector(np.array([1.0]), lam=1.0)
    data = sample_bm(SynthConfig(single_edge_graph(), weights, 10000, seed=6))
    agreement = (data.Y[:, 0] == data.Y[:, 1]).mean()
    p = math.e / (math.e + math.exp(-1.0))
    assert abs(agreement - p) <= 3 * math.sqrt(p * (1 - p) / 10000)


def test_zero_coupling_is_uniform_over_assignments():
    weights = WeightVector(np.array([0.0]), lam=1.0)
    data = sample_bm(SynthConfig(single_edge_graph(), weights, 20000, seed=9))
    freq = empirical_frequencies(data)
    assert np.abs(freq - 0.25).max() <= 4 * math.sqrt(0.25 * 0.75 / 20000)


def test_training_on_samples_beats_untrained_weights():
    graph, weights = planted_model(4, 2, kind=mg.DIRECTED, topology="chain",
                                   seed=13, bias_scale=2.0, edge_scale=1.0,
                                   input_scale=0.5)
    train = sample_sbn(SynthConfig(graph, weights, 400, seed=14))
    test = sample_sbn(SynthConfig(graph, weights, 400, seed=15))
    fitted = mg.train_lmsbn(train, graph, mg.TrainConfig(lam=0.01)).weights
    loss_fit = mean_joint_loss(test, graph, fitted)
    loss_zero = mean_joint_loss(test, graph, WeightVector(np.zeros(graph.n_cliques), lam=1.0))
    rng = np.random.default_rng(16)
    loss_rand = mean_joint_loss(test, graph,
                                WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0))
    assert loss_fit < loss_zero
    assert loss_fit < loss_rand


def test_planted_model_scales_go_to_the_right_clique_kinds():
    graph, weights = planted_model(3, 2, kind=mg.UNDIRECTED, topology="full",
                                   seed=0, bias_scale=100.0, input_scale=1e-6,
                                   edge_scale=0.0)
    for clique, w in zip(graph.cliques, weights.values):
        if len(clique.outputs) >= 2:
            assert w == 0.0
        elif clique.input_feature is not None:
            assert abs(w) < 1e-4
        else:
            assert abs(w) > 1.0


def test_synth_validation_errors():
    graph = single_edge_graph()
    weights = WeightVector(np.array([1.0]), lam=1.0)
    with pytest.raises(DataError):
        SynthConfig(graph, weights, 0)
    directed_chain = mg.build_chain_graph(2, 0, mg.DIRECTED)
    with pytest.raises(GraphError):
        sample_bm(SynthConfig(directed_chain,
                              WeightVector(np.zeros(directed_chain.n_cliques), lam=1.0), 5))
    with pytest.raises(GraphError):
        sample_sbn(SynthConfig(graph, weights, 5))
    big = mg.build_independent_graph(21, 0, mg.UNDIRECTED)
    with pytest.raises(CapabilityError):
        sample_bm(SynthConfig(big, WeightVector(np.zeros(big.n_cliques), lam=1.0), 5))
    with pytest.raises(DataError):
        planted_model(3, 0, kind=mg.DIRECTED, topology="ring")


@pytest.mark.parametrize("make, message", [
    (lambda: SynthConfig(single_edge_graph(), WeightVector(np.zeros(2), lam=1.0), 5), "2 weights for 1 cliques"),
    (lambda: planted_model(3, 1, bias_scale=-1.0), "bias scale must be finite and non-negative"),
    (lambda: planted_model(3, 1, input_scale=math.nan), "input scale must be finite and non-negative"),
    (lambda: planted_model(3, 1, edge_scale=math.inf), "edge scale must be finite and non-negative"),
    (lambda: planted_model(3, 2, bias_scale="1"), "bias scale must be a number, got '1'$"),
    (lambda: planted_model(3, 1, seed=-1), r"seed must be non-negative, got -1"),
    (lambda: planted_model(3, 1, seed=(5, 3, -1)), r"seed must be non-negative, got \(5, 3, -1\)"),
    (lambda: SynthConfig(*planted_model(3, 1), 5, seed=-2), "seed must be non-negative, got -2"),
    (lambda: SynthConfig(*planted_model(3, 1), 2.5), r"n_instances must be an integer, got 2\.5$"),
    (lambda: SynthConfig(*planted_model(3, 1), 5, seed=1.5), r"seed must be an integer, got 1\.5$"),
    (lambda: planted_model(3, 1, seed=1.5), r"seed must be an integer, got 1\.5$"),
    (lambda: planted_model(3, 1, seed=(5, 3.0, 1)), r"seed must be an integer, got 3\.0$"),
    (lambda: run_k_sweep([3], seed=1.5), r"seed must be an integer, got 1\.5$"),
    (lambda: run_k_sweep([3], n_train=2.5), r"n_train must be an integer, got 2\.5$"),
    (lambda: run_k_sweep([3], n_test=2.5), r"n_test must be an integer, got 2\.5$"),
    (lambda: run_k_sweep([3], lam="x"), "regularization strength must be a number, got 'x'$"),
])
def test_synth_config_checks_name_the_fault(make, message):
    with pytest.raises(DataError, match=message):
        make()


def test_planted_model_builds_each_named_topology_and_rejects_others():
    for name, build in GRAPH_BUILDERS.items():
        graph, _ = planted_model(4, 2, kind=mg.UNDIRECTED, topology=name, seed=3)
        assert graph == build(4, 2, mg.UNDIRECTED)
    with pytest.raises(DataError, match="unknown topology 'star'"):
        planted_model(4, 2, kind=mg.DIRECTED, topology="star")


def reference_sample_bm(config):
    """One table per row from the per-row margin reference, inverted at u."""
    graph = config.graph
    rng = np.random.default_rng(config.seed)
    n, D = config.n_instances, graph.n_inputs
    X = rng.standard_normal((n, D))
    u = rng.random(n)
    indices = []
    for x, u_row in zip(X, u):
        cum = np.cumsum(np.exp(reference_log_table(graph, config.weights, x)))
        indices.append(min(int(np.searchsorted(cum, u_row, side="right")), len(cum) - 1))
    return signs_of_indices(graph.n_outputs, indices)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 6),
    D=st.integers(0, 3),
    n=st.integers(1, 40),
    block_entries=st.sampled_from([1, 64, synth._BLOCK_ENTRIES]),
    parity_entries=st.sampled_from([4, model._PARITY_ENTRIES]),
    seed=st.integers(0, 2**16),
)
def test_block_sampler_matches_a_per_row_reference(topology, K, D, n, block_entries, parity_entries, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, mg.UNDIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    config = SynthConfig(graph, weights, n, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        # small blocks end on a partial block; small parity matrices chunk
        mp.setattr(synth, "_BLOCK_ENTRIES", block_entries)
        mp.setattr(model, "_PARITY_ENTRIES", parity_entries)
        data = sample_bm(config)
    assert data.Y.tolist() == reference_sample_bm(config).tolist()


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_inputs", [0, 1])
def test_table_sampling_memory_at_the_largest_k(n_inputs):
    # the per-row table sampler peaked at 48.5 MB (no inputs) and 56.5 MB
    # (one input) here, and the block sampler at 18.6 and 26.6 MB while it
    # kept each table's exp and cumsum beside it, then at 18.6 MB while
    # log_probs normalised through a shifted copy of the table; with the
    # log-sum-exp streamed over the parity chunks they peak at 10.8 and
    # 11.6 MB (the 8 MB table and the 2.5 MB parity matrix), bounded with
    # 2.4 MB to spare, well under one more table
    graph = mg.build_independent_graph(TABLE_MAX_OUTPUTS, n_inputs, mg.UNDIRECTED)
    weights = WeightVector(np.random.default_rng(0).normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    peak = traced_peak_mb(lambda: sample_bm(SynthConfig(graph, weights, 3, seed=1)))
    assert peak <= 14.0


def test_table_sampling_memory_on_a_k12_full_graph():
    # the shape of the benchmark's undirected workload; the per-row sampler
    # peaked at 1.6 MB here
    graph, weights = planted_model(12, 4, kind=mg.UNDIRECTED, topology="full", seed=1003,
                                   bias_scale=1.5, input_scale=1.5, edge_scale=1.5)
    peak = traced_peak_mb(lambda: sample_bm(SynthConfig(graph, weights, 800, seed=(201, 2))))
    assert peak < 8.0
