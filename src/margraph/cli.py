"""Command-line interface: train, predict, eval, bench, synth."""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter

from .data import Dataset
from .dataio import (
    ModelFile,
    load_model,
    minmax_scale,
    parse_multilabel_svmlight,
    read_label_matrix,
    save_model,
    write_multilabel_svmlight,
    write_predictions,
)
from .errors import MargraphError
from .graphs import DIRECTED, GRAPH_BUILDERS, UNDIRECTED
from .inference import BBConfig, bb_infer_chunk, exhaustive_infer_chunk
from .metrics import evaluate
from .ordering import make_order_strategy
from .bench import K_SWEEP_MAX_STATES, k_sweep_csv, run_k_sweep, run_s_sweep, s_sweep_csv
from .synth import SynthConfig, planted_model, sample_bm, sample_sbn
from .training import TrainConfig, train_lmbm, train_lmsbn

__all__ = ["main", "build_parser"]


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a ``command``, only that subcommand's.

    A one-command parser parses that command's arguments, and words its
    usage errors, byte for byte as the full parser does: its usage line
    still lists every command.
    """
    parser = argparse.ArgumentParser(prog="margraph", description=__doc__)
    names = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names if command else None)

    if command in (None, "train"):
        p = sub.add_parser("train", help="fit a model on multi-label svmlight data")
        p.add_argument("--model", choices=["lmsbn", "lmbm"], required=True)
        p.add_argument("--graph", choices=list(GRAPH_BUILDERS), default="full")
        p.add_argument("--order", choices=["index", "fscore"], default="index")
        p.add_argument("--lambda", dest="lam", type=float, default=0.01)
        p.add_argument("--eta0", type=float, default=0.0)
        p.add_argument("--epochs", type=int, default=1000)
        p.add_argument("--tol", type=float, default=1e-4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scale", action="store_true", help="min-max scale features to [-1,1]")
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)

    if command in (None, "predict"):
        p = sub.add_parser("predict", help="predict labels with a saved model")
        p.add_argument("--model-file", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--infer", choices=["bb", "exhaustive"], default="bb")
        bound = p.add_mutually_exclusive_group()  # --escalate searches with no cutoff
        bound.add_argument("--S", dest="cutoff", type=float, default=1e9)
        bound.add_argument("--escalate", action="store_true")
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--out", required=True)

    if command in (None, "eval"):
        p = sub.add_parser("eval", help="score predictions against truth labels")
        p.add_argument("--pred", required=True)
        p.add_argument("--truth", required=True)

    if command in (None, "bench"):
        p = sub.add_parser("bench", help="cutoff sweep or size sweep for the search")
        p.add_argument("--model-file")
        p.add_argument("--data")
        p.add_argument("--S-list", dest="s_list")
        p.add_argument("--k-list", dest="k_list")
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--n-train", type=int, default=200)
        p.add_argument("--n-test", type=int, default=30)
        p.add_argument("--lambda", dest="lam", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")

    if command in (None, "synth"):
        p = sub.add_parser("synth", help="generate data from a planted model")
        p.add_argument("--kind", choices=["sbn", "bm"], required=True)
        p.add_argument("--graph", choices=list(GRAPH_BUILDERS), default="chain")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--d", type=int, default=3)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--bias-scale", type=float, default=1.5)
        p.add_argument("--input-scale", type=float, default=1.5)
        p.add_argument("--edge-scale", type=float, default=1.5)
        p.add_argument("--out", required=True)
        p.add_argument("--model-out")
    return parser


def _fail(msg: str) -> int:
    print(f"margraph: {msg}", file=sys.stderr)
    return 2


# one solve's report line, a probe's or the model's: who, then the SolveReport r
_REPORT = ("{}: epochs={r.epochs} gap={r.gap:.3e} rel_gap={r.rel_gap:.3e} "
           "max_pg={r.max_projected_gradient:.3e} converged={r.converged}")


def _cmd_train(args) -> int:
    dataset = parse_multilabel_svmlight(args.data)
    scale = (dataset.X.min(axis=0), dataset.X.max(axis=0)) if args.scale else None
    if scale is not None:
        dataset = Dataset(minmax_scale(dataset.X, *scale), dataset.Y)
    config = TrainConfig(
        lam=args.lam,
        eta0=args.eta0,
        max_epochs=args.epochs,
        tolerance=args.tol,
        shuffle_seed=args.seed,
    )
    strategy = make_order_strategy(args.order, dataset, config)
    probe = strategy.probe
    for r in probe.reports if probe else ():
        print(_REPORT.format(f"probe node {r.node}", r=r))
    kind = DIRECTED if args.model == "lmsbn" else UNDIRECTED
    graph = GRAPH_BUILDERS[args.graph](dataset.n_outputs, dataset.n_inputs, kind, order=strategy.order)
    trainer = train_lmsbn if kind == DIRECTED else train_lmbm
    # the probe's duals are feasible for every full problem over the same data: start there
    result = trainer(dataset, graph, config, start=probe.state if probe else None)
    for r in result.reports:
        print(_REPORT.format("joint" if r.node is None else f"node {r.node}", r=r))
    uncertified = [r for r in result.reports if not r.converged]
    if uncertified:
        advice = "; raise --epochs to run longer" if any(r.epochs == config.max_epochs for r in uncertified) else ""
        print(f"margraph: warning: {len(uncertified)} of {len(result.reports)} solves did not certify "
              f"(largest gap {max(r.gap for r in uncertified):.3e}){advice}", file=sys.stderr)
    model = ModelFile(
        graph=graph,
        weights=result.weights,
        epochs=result.epochs,
        gap=result.gap,
        scale=scale,
    )
    save_model(model, args.out)
    print(f"order: {' '.join(str(i) for i in strategy.order)}")
    print(f"wrote model to {args.out}")
    return 0


def _load(model_file, data):
    """The saved model, and the data read with its (K, D) and scaled as in training."""
    model = load_model(model_file)
    dataset = parse_multilabel_svmlight(data, model.graph.n_outputs, model.graph.n_inputs)
    return model, Dataset(model.apply_scale(dataset.X), dataset.Y)


def _cmd_predict(args) -> int:
    model, dataset = _load(args.model_file, args.data)
    graph, weights = model.graph, model.weights
    if args.infer == "bb":
        config = BBConfig(cutoff=args.cutoff, max_states=args.max_states, escalate=args.escalate)
        results = bb_infer_chunk(graph, weights, dataset.X, config)
    else:
        results = exhaustive_infer_chunk(graph, weights, dataset.X)
    write_predictions(args.out, results)
    statuses = " ".join(f"{s}={n}" for s, n in Counter(r.status for r in results).items())
    states = sum(r.states_visited for r in results)
    print(f"wrote {len(results)} predictions to {args.out} (states={states} {statuses})")
    return 0


def _cmd_eval(args) -> int:
    preds = read_label_matrix(args.pred)
    truths = read_label_matrix(args.truth, n_outputs=preds.shape[1])
    print(evaluate(truths, preds).format_line())
    return 0


def _cmd_bench(args) -> int:
    if bool(args.s_list) == bool(args.k_list):
        return _fail("bench needs exactly one of --S-list or --k-list")
    option, convert = ("--S-list", float) if args.s_list else ("--k-list", int)
    values = []
    for token in filter(None, (args.s_list or args.k_list).split(",")):
        try:
            values.append(convert(token))
            if math.isnan(values[-1]):
                raise ValueError(token)
        except ValueError:
            return _fail(f"{option}: not a number: {token!r}")
    if not values:
        return _fail(f"{option}: no values given")
    if args.s_list:
        if not args.model_file or not args.data:
            return _fail("--S-list bench needs --model-file and --data")
        model, dataset = _load(args.model_file, args.data)
        if model.graph.kind != DIRECTED:
            return _fail("the cutoff sweep's state budget and 1 - loss/S bound hold only for directed models")
        records = run_s_sweep(model.graph, model.weights, dataset, values, args.max_states)
        csv = s_sweep_csv(records)
    else:
        records = run_k_sweep(
            values,
            n_train=args.n_train,
            n_test=args.n_test,
            lam=args.lam,
            seed=args.seed,
            max_states=args.max_states if args.max_states is not None else K_SWEEP_MAX_STATES,
        )
        csv = k_sweep_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_synth(args) -> int:
    kind = DIRECTED if args.kind == "sbn" else UNDIRECTED
    graph, weights = planted_model(
        args.k,
        args.d,
        kind=kind,
        topology=args.graph,
        seed=args.seed,
        bias_scale=args.bias_scale,
        input_scale=args.input_scale,
        edge_scale=args.edge_scale,
    )
    config = SynthConfig(graph, weights, args.n, seed=args.seed)
    dataset = sample_sbn(config) if kind == DIRECTED else sample_bm(config)
    write_multilabel_svmlight(dataset, args.out)
    if args.model_out:
        save_model(ModelFile(graph=graph, weights=weights), args.model_out)
        print(f"wrote planted model to {args.model_out}")
    print(f"wrote {len(dataset)} instances to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only when it is needed: no command, an unknown one, or -h
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MargraphError, OSError) as exc:
        print(f"margraph: error: {exc}", file=sys.stderr)
        return 1
