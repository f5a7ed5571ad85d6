"""The sweeps' knob checks: one rule per integer knob, all run before any work."""

import pytest

import margraph as mg
from margraph import bench
from margraph.bench import run_k_sweep, run_s_sweep
from margraph.dataio import parse_multilabel_svmlight
from margraph.errors import DataError, GraphError
from margraph.synth import SynthConfig, planted_model, sample_sbn
from margraph.training import TrainConfig


def _never(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} ran before the knobs were checked")

    return call


@pytest.mark.parametrize("make, knob, least, value", [
    (lambda: TrainConfig(max_epochs=0), "max_epochs", 1, 0),
    (lambda: mg.BBConfig(max_states=0), "max_states", 1, 0),
    (lambda: SynthConfig(*planted_model(3, 1), 0), "n_instances", 1, 0),
    (lambda: parse_multilabel_svmlight("unread.sv", n_outputs=0), "label count", 1, 0),
    (lambda: parse_multilabel_svmlight("unread.sv", n_inputs=-1), "input count", 0, -1),
    (lambda: run_k_sweep([3], n_train=0), "n_train", 1, 0),
    (lambda: run_k_sweep([3], n_test=0), "n_test", 1, 0),
])
def test_each_integer_knob_names_its_least_value(make, knob, least, value):
    with pytest.raises(DataError, match=f"^{knob} must be at least {least}, got {value}$"):
        make()


@pytest.mark.parametrize("kwargs, message", [
    ({"max_states": 0}, "max_states must be at least 1, got 0"),
    ({"max_states": 2.5}, r"max_states must be an integer, got 2\.5"),
    ({"n_test": 0}, "n_test must be at least 1, got 0"),
])
def test_size_sweep_checks_its_knobs_before_it_trains(monkeypatch, kwargs, message):
    monkeypatch.setattr(bench, "train_lmsbn", _never("train_lmsbn"))
    with pytest.raises(DataError, match=f"^{message}$"):
        run_k_sweep([4, 6], **{"n_train": 5, "n_test": 2, **kwargs})


@pytest.fixture
def no_search(monkeypatch):
    """Make the cutoff sweep's oracle and mean-loss passes fail if they run."""
    monkeypatch.setattr(bench, "bb_infer_chunk", _never("bb_infer_chunk"))
    monkeypatch.setattr(bench, "mean_joint_loss", _never("mean_joint_loss"))


@pytest.mark.parametrize("cutoffs, max_states, message", [
    ([1, 0.5], None, r"cutoff must be at least 1, got 0\.5"),
    ([1, 2], 0, "max_states must be at least 1, got 0"),
    ([1, 2], -3, "max_states must be at least 1, got -3"),
    ([1, 2], 2.5, r"max_states must be an integer, got 2\.5"),
    # above every budget (3 and 12 states at K = 3), so no search would be capped by it
    ([1, 2], 100.5, r"max_states must be an integer, got 100\.5"),
])
def test_cutoff_sweep_checks_its_knobs_before_it_searches(no_search, cutoffs, max_states, message):
    graph, weights = planted_model(3, 1, seed=4)
    dataset = sample_sbn(SynthConfig(graph, weights, 20, seed=5))
    with pytest.raises(DataError, match=f"^{message}$"):
        run_s_sweep(graph, weights, dataset, cutoffs, max_states)


def test_cutoff_sweep_refuses_an_undirected_graph_before_it_searches(no_search):
    # branch_budget and the 1 - loss/S bound hold for directed models only
    graph, weights = planted_model(3, 1, kind=mg.UNDIRECTED, seed=4)
    dataset = mg.sample_bm(SynthConfig(graph, weights, 20, seed=5))
    with pytest.raises(GraphError, match="^the cutoff sweep needs a directed graph$"):
        run_s_sweep(graph, weights, dataset, [1, 2])


def test_cutoff_sweep_with_no_cutoffs_does_no_work(no_search):
    graph, weights = planted_model(3, 1, seed=4)
    dataset = sample_sbn(SynthConfig(graph, weights, 20, seed=5))
    assert run_s_sweep(graph, weights, dataset, []) == []
