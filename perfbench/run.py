"""Benchmark for margraph: one workload per run, seeded, checked, timed.

    python3 perfbench/run.py --workload scene6 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times the user's commands in-process through
``margraph.cli.main`` (``train`` and ``predict``; ``eval`` runs untimed for
the quality numbers) and reports the end-to-end metrics.  With
``--trace 1`` it also repeats the same work through the public function of
each layer, with a span around every call, and reports the per-layer
metrics, per-layer self time and the tracing overhead.  Either way every
output is checked (see checks.py) and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-spec PATH`` writes the BENCHMARK.json that describes these
metrics.  README.md in this directory documents workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs at least SETUP_MIN_REPS times, then again while the set-ups so
# far took under SETUP_BUDGET_S, up to SETUP_MAX_REPS times.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 9, 2.0
MIN_ITERATIONS = 2


def _load_program():
    """Import margraph from this checkout's sources, never from elsewhere."""
    if not (SRC / "margraph" / "__init__.py").is_file():
        print(f"perfbench: no margraph sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


_load_program()

import numpy as np  # noqa: E402

import margraph as mg  # noqa: E402
from margraph import cli  # noqa: E402
from margraph.dataio import (  # noqa: E402
    ModelFile,
    load_model,
    parse_multilabel_svmlight,
    read_predictions,
    save_model,
    write_predictions,
)
from margraph.training import box_primal_objective, clique_feature_matrix  # noqa: E402

from checks import check_predictions  # noqa: E402
from clock import Clock  # noqa: E402
from spans import NULL_TRACER, Tracer, descendants, duration, self_times  # noqa: E402
from spec import EXACT_COUNTS, END_TO_END, LAYERS, PER_LAYER, STATUSES, UNITS, benchmark_json  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402


def _median(values) -> float:
    return float(statistics.median(list(values)))


def _call_cli(argv: list[str], clock: Clock | None = None) -> tuple[int, Clock | None, str]:
    """Run one margraph command in-process, timed by ``clock`` if one is
    given; returns (exit code, the clock, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock or contextlib.nullcontext():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        print(f"perfbench: `margraph {' '.join(argv)}` exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, clock, out.getvalue()


class Run:
    """One benchmark run: the workload's files plus tallies of every operation."""

    def __init__(self, workload, workdir: Path, train_path: Path, test_paths: list[Path]):
        self.workload = workload
        self.workdir = workdir
        self.train_path = train_path
        self.test_paths = test_paths
        self.attempted = 0
        self.failed = 0
        self._checked: dict[bytes, int] = {}
        self.train: list[Clock] = []
        self.predict: list[Clock] = []
        self.cycle_s: list[float] = []
        self._next_chunk = 0
        self.chunk_quality: dict[int, dict[str, float]] = {}
        self.train_objective: float | None = None

    def next_chunks(self) -> list[int]:
        """The test chunks the next iteration predicts, in rotation."""
        n = len(self.test_paths)
        k = min(self.workload.chunks_per_train, n)
        chunks = [(self._next_chunk + i) % n for i in range(k)]
        self._next_chunk = (chunks[-1] + 1) % n
        return chunks

    @property
    def covered(self) -> bool:
        """Every test chunk has been predicted, evaluated and checked."""
        return len(self.chunk_quality) == len(self.test_paths)

    def quality(self, key: str) -> float:
        # Chunks are equal-sized, so the mean over chunks is the whole test set's score.
        return float(np.mean([q[key] for q in self.chunk_quality.values()]))

    def train_argv(self, out: Path) -> list[str]:
        return ["train", *self.workload.train_args, "--data", str(self.train_path), "--out", str(out)]

    def predict_argv(self, model: Path, data: Path, out: Path) -> list[str]:
        return ["predict", "--model-file", str(model), "--data", str(data),
                "--infer", self.workload.infer, "--out", str(out)]

    def pred_paths(self, tag: str) -> list[Path]:
        return [self.workdir / f"{tag}-{c:02d}.pred" for c in range(len(self.test_paths))]

    def check(self, model_path: Path, test_path: Path, pred_path: Path) -> None:
        """Check one prediction file; identical files were already checked."""
        key = model_path.read_bytes() + b"\0" + test_path.read_bytes() + b"\0" + pred_path.read_bytes()
        if key not in self._checked:
            result = check_predictions(model_path, test_path, pred_path, self.workload.oracle_check)
            if result.first_error:
                print(f"perfbench: {result.failed} of {result.attempted} predictions in "
                      f"{pred_path.name} fail: {result.first_error}", file=sys.stderr)
            self._checked[key] = result.failed
        self.attempted += self.workload.chunk_rows
        self.failed += self._checked[key]

    def _command(self, argv: list[str], clock: Clock | None = None) -> tuple[bool, Clock | None, str]:
        self.attempted += 1
        code, clock, out = _call_cli(argv, clock)
        if code != 0:
            self.failed += 1
        return code == 0, clock, out

    def cli_cycle(self, chunks: list[int]) -> bool:
        """Timed train and predicts back to back, then untimed evals and
        checks.  False on failure."""
        model = self.workdir / "cli.model"
        ok, train, _ = self._command(self.train_argv(model), Clock())
        if not ok:
            return False
        predicts = []
        pred_paths = self.pred_paths("cli")
        ref = train.ref_after
        for c in chunks:
            ok, clock, _ = self._command(self.predict_argv(model, self.test_paths[c], pred_paths[c]), Clock(ref))
            if not ok:
                return False
            predicts.append(clock)
            ref = clock.ref_after
        for c in chunks:
            test, preds = self.test_paths[c], pred_paths[c]
            ok, _, out = self._command(["eval", "--pred", str(preds), "--truth", str(test)])
            if not ok:
                return False
            self.chunk_quality[c] = {k: float(v) for k, v in (f.split("=") for f in out.strip().split(","))}
            self.check(model, test, preds)
        self.train.append(train)
        self.predict.extend(predicts)
        self.cycle_s.append(train.wall + sum(c.wall for c in predicts))
        if self.train_objective is None:
            saved = load_model(model)
            graph = saved.graph
            data = parse_multilabel_svmlight(self.train_path, graph.n_outputs, graph.n_inputs)
            data = mg.Dataset(saved.apply_scale(data.X), data.Y)
            self.train_objective = mg.primal_objective(data, graph, saved.weights)
        return True


def traced_cycle(run: Run, tracer: Tracer, chunks: list[int]) -> dict:
    """The CLI's train and predict work, made through each layer's public
    functions with a span around every call.  Returns what the per-layer
    metrics need beyond the spans."""
    model_path = run.workdir / "traced.model"
    targs = cli.build_parser().parse_args(run.train_argv(model_path))
    pred_paths = run.pred_paths("traced")
    pargs = cli.build_parser().parse_args(run.predict_argv(model_path, run.test_paths[0], pred_paths[0]))
    config = mg.TrainConfig(lam=targs.lam, eta0=targs.eta0, max_epochs=targs.epochs,
                            tolerance=targs.tol, shuffle_seed=targs.seed)
    kind = mg.DIRECTED if targs.model == "lmsbn" else mg.UNDIRECTED
    with tracer.span("bench.train"):
        with tracer.span("dataio.parse") as span:
            train = parse_multilabel_svmlight(run.train_path)
            span["bytes"] = run.train_path.stat().st_size
        with tracer.span("ordering.make_order_strategy"):
            strategy = mg.make_order_strategy(targs.order, train, config)
        with tracer.span("graphs.build"):
            build = getattr(mg, f"build_{targs.graph}_graph")
            graph = build(train.n_outputs, train.n_inputs, kind, order=strategy.order)
        with tracer.span("training.clique_feature_matrix"):
            clique_feature_matrix(graph, train)
        with tracer.span("training.train"):
            trainer = mg.train_lmsbn if kind == mg.DIRECTED else mg.train_lmbm
            result = trainer(train, graph, config)
        with tracer.span("dataio.save_model"):
            save_model(ModelFile(graph=graph, weights=result.weights, epochs=result.epochs,
                                 gap=result.gap), model_path)
    bb = mg.BBConfig(cutoff=pargs.cutoff, max_states=pargs.max_states, escalate=pargs.escalate)
    for c in chunks:
        test_path, pred_path = run.test_paths[c], pred_paths[c]
        with tracer.span("bench.predict"):
            with tracer.span("dataio.load_model"):
                model = load_model(model_path)
            with tracer.span("dataio.parse") as span:
                test = parse_multilabel_svmlight(test_path, model.graph.n_outputs, model.graph.n_inputs)
                span["bytes"] = test_path.stat().st_size
            X = model.apply_scale(test.X)
            results = []
            for l in range(len(test)):
                row = c * run.workload.chunk_rows + l
                with tracer.span("model.compile_scorer", instance=row):
                    mg.compile_scorer(model.graph, model.weights, X[l])
                if pargs.infer == "bb":
                    with tracer.span("inference.bb_infer", instance=row):
                        results.append(mg.bb_infer(model.graph, model.weights, X[l], bb))
                else:
                    with tracer.span("inference.exhaustive_infer", instance=row):
                        results.append(mg.exhaustive_infer(model.graph, model.weights, X[l]))
            with tracer.span("dataio.write_predictions"):
                write_predictions(pred_path, results)
        run.attempted += 1
        run.check(model_path, test_path, pred_path)
    run.attempted += 1
    return {"train": train, "result": result, "config": config, "order": targs.order}


def _sum(spans, name) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def per_layer_metrics(run: Run, tracer: Tracer, setups: list[int], iterations: list[int], last: dict) -> dict:
    spans = tracer.spans
    setup_spans = [descendants(spans, i) for i in setups]
    iter_spans = [descendants(spans, i) for i in iterations]
    m: dict[str, float] = {}

    def med(fn, groups):
        return _median([fn(g) for g in groups])

    m["synth.sample_s"] = med(lambda g: _sum(g, "synth.sample"), setup_spans)
    m["dataio.write_s"] = med(lambda g: _sum(g, "dataio.write"), setup_spans)
    m["dataio.parse_s"] = med(lambda g: _sum(g, "dataio.parse"), iter_spans)
    parses = [s for g in iter_spans for s in g if s["name"] == "dataio.parse"]
    m["dataio.parse_mb_per_s"] = sum(s["bytes"] for s in parses) / 1e6 / sum(map(duration, parses))
    m["dataio.model_io_s"] = med(lambda g: _sum(g, "dataio.save_model") + _sum(g, "dataio.load_model"), iter_spans)
    m["dataio.predictions_write_s"] = med(lambda g: _sum(g, "dataio.write_predictions"), iter_spans)

    # The probe is ordering's own training run; repeat it once, untimed, for
    # its solver counters (same data and config, so the same result).
    train, result, config = last["train"], last["result"], last["config"]
    m["ordering.probe_s"] = med(lambda g: _sum(g, "ordering.make_order_strategy"), iter_spans)
    if last["order"] == "fscore":
        probe_graph = mg.build_independent_graph(train.n_outputs, train.n_inputs, mg.DIRECTED)
        probe = mg.train_lmsbn(train, probe_graph, config)
        m["ordering.probe_epochs_max"] = probe.epochs
        m["ordering.probe_converged_frac"] = float(np.mean([r.converged for r in probe.reports]))
    else:
        m["ordering.probe_epochs_max"] = 0
        m["ordering.probe_converged_frac"] = 0.0

    graph = result.state.graph
    m["graphs.build_s"] = med(lambda g: _sum(g, "graphs.build"), iter_spans)
    m["graphs.n_cliques"] = graph.n_cliques

    features_s = med(lambda g: _sum(g, "training.clique_feature_matrix"), iter_spans)
    solve_s = med(lambda g: _sum(g, "training.train"), iter_spans) - features_s
    n = train.n_instances
    per_problem = n * (graph.n_outputs if graph.kind == mg.UNDIRECTED else 1)
    steps = sum(r.epochs for r in result.reports) * per_problem
    alpha = result.state.alpha
    box = 1.0 / (config.lam * n)
    m["training.features_s"] = features_s
    m["training.solve_s"] = solve_s
    m["training.coord_steps"] = steps
    m["training.steps_per_s"] = steps / solve_s
    m["training.epochs_max"] = result.epochs
    m["training.converged_frac"] = float(np.mean([r.converged for r in result.reports]))
    m["training.gap_max"] = max(r.gap for r in result.reports)
    m["training.gap_rel"] = result.gap / box_primal_objective(result.state, train, config)
    m["training.at_bound_frac"] = float(np.mean((alpha <= 0.0) | (alpha >= box)))

    flat = [s for g in iter_spans for s in g]
    compile_us = np.array([duration(s) for s in flat if s["name"] == "model.compile_scorer"]) * 1e6
    bb_us = np.array([duration(s) for s in flat if s["name"] == "inference.bb_infer"]) * 1e6
    enum_us = np.array([duration(s) for s in flat if s["name"] == "inference.exhaustive_infer"]) * 1e6
    infer_us = bb_us if len(bb_us) else enum_us
    m["model.compile_us_mean"] = float(compile_us.mean())
    m["model.compile_us_p50"] = float(np.percentile(compile_us, 50))
    m["model.compile_share"] = float(compile_us.mean() / infer_us.mean())

    # States and statuses are exact counts from the untraced run's file.
    read = [read_predictions(p) for p in run.pred_paths("cli")]
    states = np.concatenate([r[2] for r in read])
    statuses = [s for r in read for s in r[3]]
    if len(bb_us):
        search_us = float(bb_us.mean() - compile_us.mean())
        m["inference.bb_us_mean"] = float(bb_us.mean())
        m["inference.bb_us_p50"] = float(np.percentile(bb_us, 50))
        m["inference.bb_us_p99"] = float(np.percentile(bb_us, 99))
        m["inference.search_us_mean"] = search_us
        m["inference.states_mean"] = float(states.mean())
        m["inference.states_p99"] = float(np.percentile(states, 99))
        m["inference.states_max"] = int(states.max())
        m["inference.states_per_s"] = float(states.mean()) / search_us * 1e6
    else:
        for name in ("bb_us_mean", "bb_us_p50", "bb_us_p99", "search_us_mean", "states_mean",
                     "states_p99", "states_max", "states_per_s"):
            m[f"inference.{name}"] = 0.0
    for status in STATUSES:
        m[f"inference.status.{status}"] = statuses.count(status)
    if len(enum_us):
        m["inference.exhaustive_ms_mean"] = float(enum_us.mean()) / 1e3
        m["inference.enum_rows_per_s"] = (1 << graph.n_outputs) / float(enum_us.mean()) * 1e6
    else:
        m["inference.exhaustive_ms_mean"] = 0.0
        m["inference.enum_rows_per_s"] = 0.0

    # Self time of one set-up plus one train/predict cycle.
    setup_self = [self_times(g) for g in setup_spans]
    iter_self = [self_times(g) for g in iter_spans]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda t: t.get(layer, 0.0), setup_self)
                                + med(lambda t: t.get(layer, 0.0), iter_self))

    traced = _median([duration(spans[i]) for i in iterations])
    untraced = _median(run.cycle_s)
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_frac"] = (traced - untraced) / untraced
    return m


def end_to_end_metrics(run: Run, setups: list[Clock]) -> dict:
    return {
        "setup_s": _median(c.seconds if run.workload.scale_setup else c.cpu for c in setups),
        "train_s": _median(c.seconds for c in run.train),
        "predict_s": _median(c.seconds for c in run.predict),
        "train_objective": run.train_objective,
        "test_hamming": run.quality("H"),
        "test_subset_error": 1.0 - run.quality("E"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_PIN,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "exact_counts": EXACT_COUNTS,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--write-spec", metavar="PATH", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.write_spec is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        Path(args.write_spec).write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    workload = WORKLOADS[args.workload].sized(args.toy)
    workdir = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}{'-toy' if args.toy else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NULL_TRACER

    setup_clocks, setups = [], []
    while len(setup_clocks) < SETUP_MIN_REPS or (
        len(setup_clocks) < SETUP_MAX_REPS and sum(c.wall for c in setup_clocks) < SETUP_BUDGET_S
    ):
        with Clock() as clock, tracer.span("bench.setup") as span:
            train_path, test_paths = workload.generate(args.seed, workdir, tracer)
        setup_clocks.append(clock)
        if args.trace:
            setups.append(span["id"])
    try:
        workload.check_readback(train_path, test_paths)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1

    run = Run(workload, workdir, train_path, test_paths)
    iterations, last = [], None
    deadline = time.perf_counter() + args.seconds
    done = 0
    while done < MIN_ITERATIONS or not run.covered or time.perf_counter() < deadline:
        chunks = run.next_chunks()
        if not run.cli_cycle(chunks):
            break
        if args.trace:
            with tracer.span("bench.iteration") as span:
                last = traced_cycle(run, tracer, chunks)
            iterations.append(span["id"])
        done += 1

    env = environment(workload, args.seed)
    print("env " + json.dumps(env))
    complete = done >= MIN_ITERATIONS and run.covered
    metrics = {}
    if complete:
        e2e = end_to_end_metrics(run, setup_clocks)
        print(f"iterations {done}, set-ups {len(setup_clocks)}, predict commands {len(run.predict)}")
        for name, *_ in END_TO_END:
            print(f"  {name} = {e2e[name]!r} {UNITS[name]}")
        # For information, not metrics: the same medians in raw CPU and wall
        # seconds, and the median reference time the metrics are scaled by.
        for name, clocks in (("setup", setup_clocks), ("train", run.train), ("predict", run.predict)):
            for kind in ("cpu", "wall"):
                print(f"  {name}_{kind}_s = {_median(getattr(c, kind) for c in clocks)!r} s")
        print(f"  ref_cpu_s = {_median(c.ref for c in setup_clocks + run.train + run.predict)!r} s")
        if args.trace:
            layer = per_layer_metrics(run, tracer, setups, iterations, last)
            for name, *_ in PER_LAYER:
                print(f"  {name} = {layer[name]!r} {UNITS[name]}")
            tracer.write(workdir / "spans.json")
            metrics = layer
        else:
            metrics = e2e
    print(f"  failed_frac = {run.failed / max(run.attempted, 1)!r} ratio")
    result = {
        "correct": complete and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in metrics},
    }
    (workdir / "result.json").write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
