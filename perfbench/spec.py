"""Metric definitions of the benchmark and the BENCHMARK.json they produce.

This module is the single source of the metric names, units and bounds:
``run.py`` reports exactly these metrics and ``run.py --write-spec`` writes
BENCHMARK.json from them, so the two cannot drift apart.
"""

from __future__ import annotations

from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# (name, unit, better, bound).  Every value here is nonzero on every
# workload: the bound is a share of the parent's median.  Exact match is
# reported as its complement, the subset error, because it is ~0 on the
# 40-label chain.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("predict_s", "s", "lower", 0.25),
    ("train_objective", "objective", "lower", 0.25),
    ("test_hamming", "ratio", "lower", 0.25),
    ("test_subset_error", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ("synth", "dataio", "ordering", "graphs", "training", "model", "inference")
STATUSES = (
    "proven_optimal",
    "budget_exceeded",
    "no_solution_under_S_fallback",
    "local_optimum",
)

# (name, unit, better).  Metrics a workload bypasses read 0.
PER_LAYER = [
    ("synth.sample_s", "s", "lower"),
    ("dataio.write_s", "s", "lower"),
    ("dataio.parse_s", "s", "lower"),
    ("dataio.parse_mb_per_s", "MB/s", "higher"),
    ("dataio.model_io_s", "s", "lower"),
    ("dataio.predictions_write_s", "s", "lower"),
    ("ordering.probe_s", "s", "lower"),
    ("ordering.probe_epochs_max", "count", "lower"),
    ("ordering.probe_converged_frac", "ratio", "higher"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.n_cliques", "count", "lower"),
    ("training.features_s", "s", "lower"),
    ("training.solve_s", "s", "lower"),
    ("training.coord_steps", "count", "lower"),
    ("training.steps_per_s", "1/s", "higher"),
    ("training.epochs_max", "count", "lower"),
    ("training.converged_frac", "ratio", "higher"),
    ("training.gap_max", "objective", "lower"),
    ("training.gap_rel", "ratio", "lower"),
    ("training.at_bound_frac", "ratio", "higher"),
    ("model.compile_us_mean", "us", "lower"),
    ("model.compile_us_p50", "us", "lower"),
    ("model.compile_share", "ratio", "lower"),
    ("inference.bb_us_mean", "us", "lower"),
    ("inference.bb_us_p50", "us", "lower"),
    ("inference.bb_us_p99", "us", "lower"),
    ("inference.search_us_mean", "us", "lower"),
    ("inference.states_mean", "count", "lower"),
    ("inference.states_p99", "count", "lower"),
    ("inference.states_max", "count", "lower"),
    ("inference.states_per_s", "1/s", "higher"),
    *[(f"inference.status.{s}", "count", "higher" if s == "proven_optimal" else "lower") for s in STATUSES],
    ("inference.exhaustive_ms_mean", "ms", "lower"),
    ("inference.enum_rows_per_s", "1/s", "higher"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Counts that repeat exactly for a given workload and seed; a later change
# may rest a claim on these alone.
EXACT_COUNTS = [
    "training.coord_steps",
    "inference.states_mean",
    "inference.states_p99",
    "inference.states_max",
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The BENCHMARK.json document, keys in the order the format lists them."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
