"""Benchmark sweeps for the branch-and-bound search.

Two experiments:

* cutoff sweep: for each initial upper bound S, how often does the search
  certify the exhaustive optimum within the combinatorial budget
  K * sum_{i<S} C(K, i), and how does that compare with the guarantee
  fraction >= 1 - mean_loss / S.
* size sweep: mean branches taken as the label count grows, on a model
  trained for the data versus an arbitrary random model, against the 2^K
  wall of exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .data import Dataset
from .errors import GraphError
from .graphs import DIRECTED, GraphSpec, _output_count
from .inference import STATUS_OPTIMAL, BBConfig, _check_cutoff, bb_infer
from .model import WeightVector, _check_int, _check_seed, batch_scorer
from .synth import SynthConfig, planted_model, sample_sbn
from .training import TrainConfig, mean_joint_loss, train_lmsbn

__all__ = [
    "BenchRecord",
    "KSweepRecord",
    "branch_budget",
    "run_s_sweep",
    "run_k_sweep",
    "s_sweep_csv",
    "k_sweep_csv",
    "S_SWEEP_HEADER",
    "K_SWEEP_HEADER",
    "K_SWEEP_MAX_STATES",
]

S_SWEEP_HEADER = "S,fraction_optimal,bound,mean_states,max_states,mean_loss"
K_SWEEP_HEADER = "K,trained_mean_states,random_mean_states,exhaustive_states"
# The size sweep's default cap on search states per row.
K_SWEEP_MAX_STATES = 200_000


@dataclass(frozen=True)
class BenchRecord:
    """One row of the cutoff sweep."""

    cutoff: float
    fraction_optimal: float
    bound: float
    mean_states: float
    max_states: int
    mean_loss: float


@dataclass(frozen=True)
class KSweepRecord:
    """One row of the size sweep."""

    n_outputs: int
    trained_mean_states: float
    random_mean_states: float
    exhaustive_states: int


def branch_budget(n_outputs: int, cutoff: float) -> int:
    """Branch evaluations that suffice to certify any optimum with loss < cutoff.

    Every path to such an optimum takes fewer than cutoff opposite-label
    branches (each costs at least 1), so the search stays within the paths
    having at most ceil(cutoff)-1 of them: sum_{i<cutoff} C(K, i) paths of K
    nodes each.  A cutoff above K, infinity included, allows all K * 2^K.
    """
    _check_cutoff(cutoff)
    top = n_outputs if cutoff > n_outputs else math.ceil(cutoff) - 1
    paths = sum(math.comb(n_outputs, i) for i in range(top + 1))
    return n_outputs * paths


def run_s_sweep(
    graph: GraphSpec,
    weights: WeightVector,
    dataset: Dataset,
    cutoffs,
    max_states: int | None = None,
) -> list[BenchRecord]:
    """Fraction of instances certified optimal within budget, per cutoff.

    The budget per instance is branch_budget(K, S), tightened further by
    max_states when given.  Each run is checked against the optimum from a
    search with no cap and no cutoff, which is exact at any K.  mean_loss is
    the model's mean joint hinge loss at the observed labels, the quantity
    the guarantee is stated in.  Every search keeps the static bound
    (``cost_to_go=False``): the sweep measures the search the guarantee is
    about, and an undirected graph, where neither bound holds, is a
    GraphError.  Every check comes before the first search, and an empty
    ``cutoffs`` does no work.
    """
    if graph.kind != DIRECTED:
        raise GraphError("the cutoff sweep needs a directed graph")
    cap = BBConfig(max_states=max_states).max_states or math.inf  # BBConfig checks the cap
    configs = [
        BBConfig(cutoff=S, max_states=min(branch_budget(graph.n_outputs, S), cap), cost_to_go=False)
        for S in cutoffs
    ]
    if not configs:
        return []
    exact = BBConfig(cutoff=math.inf, cost_to_go=False)
    mean_loss = mean_joint_loss(dataset, graph, weights)
    oracle = [bb_infer(graph, weights, x, exact).objective for x in dataset.X]
    records = []
    for config in configs:
        hits = 0
        states = []
        for l in range(dataset.n_instances):
            res = bb_infer(graph, weights, dataset.X[l], config)
            states.append(res.states_visited)
            if res.status == STATUS_OPTIMAL and res.objective == oracle[l]:
                hits += 1
        bound = min(1.0, max(0.0, 1.0 - mean_loss / config.cutoff))
        records.append(
            BenchRecord(
                cutoff=float(config.cutoff),
                fraction_optimal=hits / dataset.n_instances,
                bound=bound,
                mean_states=float(np.mean(states)),
                max_states=int(np.max(states)),
                mean_loss=mean_loss,
            )
        )
    return records


def run_k_sweep(
    k_list,
    *,
    n_train: int = 200,
    n_test: int = 30,
    lam: float = 0.01,
    seed: int = 0,
    max_states: int | None = K_SWEEP_MAX_STATES,
) -> list[KSweepRecord]:
    """Mean branches taken vs label count, trained model vs random model.

    Data comes from a planted directed chain over 3 inputs, with bias,
    input and edge weights drawn at scales 3.0, 0.5 and 1.0; the trained
    model is fit on a fresh sample from it.  The untrained comparison model
    draws clique weights from N(0,1) and rescales them so its mean absolute
    node score on the test data is 1: scores at the decision scale but
    unrelated to the data, the regime where pruning has nothing to work
    with.  Both models are searched from ``BBConfig``'s default initial
    bound, with at most ``max_states`` states per row (None for no cap), on
    the static bound alone (``cost_to_go=False``): exact cost-to-go tables
    would make the random model cheap too and hide the contrast.
    """
    _check_int(n_train, "n_train", 1)
    _check_int(n_test, "n_test", 1)
    _check_seed(seed)
    k_list = [_output_count(K) for K in k_list]  # K seeds its draws: check all, then train
    train_config = TrainConfig(lam=lam)
    config = BBConfig(max_states=max_states, cost_to_go=False)
    records = []
    for K in k_list:
        graph, planted = planted_model(
            K, 3, kind=DIRECTED, topology="chain", seed=(seed, K, 0),
            bias_scale=3.0, input_scale=0.5, edge_scale=1.0,
        )
        train = sample_sbn(SynthConfig(graph, planted, n_train, seed=(seed, K, 1)))
        test = sample_sbn(SynthConfig(graph, planted, n_test, seed=(seed, K, 2)))
        fitted = train_lmsbn(train, graph, train_config).weights
        raw = np.random.default_rng((seed, K, 3)).normal(0.0, 1.0, graph.n_cliques)
        raw_margins = batch_scorer(graph, WeightVector(raw, lam=lam), test.X).margin_block(test.Y)
        mean_abs = float(np.abs(raw_margins).mean())
        random_w = WeightVector(values=raw / mean_abs, lam=lam)
        trained_mean, random_mean = (
            float(np.mean([bb_infer(graph, w, x, config).states_visited for x in test.X]))
            for w in (fitted, random_w)
        )
        records.append(KSweepRecord(K, trained_mean, random_mean, exhaustive_states=1 << K))
    return records


def _csv(header: str, records) -> str:
    """The header, then one line per record: the repr of each field in order."""
    lines = [header] + [",".join(repr(v) for v in astuple(r)) for r in records]
    return "\n".join(lines) + "\n"


def s_sweep_csv(records) -> str:
    return _csv(S_SWEEP_HEADER, records)


def k_sweep_csv(records) -> str:
    return _csv(K_SWEEP_HEADER, records)
