"""End-to-end command-line workflows."""

import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margraph.cli import build_parser, main
from margraph import planted_model, training
from margraph.dataio import ModelFile, load_model, read_predictions, save_model


# every solve's report line, a probe's or the model's
REPORT = re.compile(
    r"(?P<who>probe node \d+|node \d+|joint): epochs=(?P<epochs>\d+) gap=(?P<gap>\S+) rel_gap=(?P<rel_gap>\S+) "
    r"max_pg=(?P<max_pg>\S+) converged=(?P<converged>True|False)"
)


def _overflow_file(path, E):
    """The 4-row, 2-input, 2-label file whose first input is E and -E on its
    first two rows."""
    path.write_text(f"1 1:{E} 2:1\n2 1:-{E} 2:2\n1,2 1:3 2:-1\n 1:1 2:5\n")
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directed-model workflow: synth -> train -> predict -> eval."""
    d = tmp_path_factory.mktemp("cli")
    assert main([
        "synth", "--kind", "sbn", "--graph", "chain", "--k", "4", "--d", "2",
        "--n", "60", "--seed", "3",
        "--out", str(d / "data.sv"), "--model-out", str(d / "planted.model"),
    ]) == 0
    assert main([
        "train", "--model", "lmsbn", "--graph", "chain", "--order", "fscore",
        "--lambda", "0.05", "--seed", "1",
        "--data", str(d / "data.sv"), "--out", str(d / "sbn.model"),
    ]) == 0
    assert main([
        "predict", "--model-file", str(d / "sbn.model"), "--data", str(d / "data.sv"),
        "--infer", "bb", "--out", str(d / "preds.txt"),
    ]) == 0
    return d


def test_training_reports_and_order_are_printed(workdir, capsys):
    main([
        "train", "--model", "lmsbn", "--graph", "chain", "--order", "index",
        "--data", str(workdir / "data.sv"), "--out", str(workdir / "again.model"),
    ])
    out = capsys.readouterr().out
    assert "node 0:" in out and "converged=True" in out
    assert "order: 0 1 2 3" in out


def test_report_lines_carry_epochs_and_relative_gap(workdir, capsys):
    assert main([
        "train", "--model", "lmsbn", "--graph", "chain",
        "--data", str(workdir / "data.sv"), "--out", str(workdir / "fields.model"),
    ]) == 0
    captured = capsys.readouterr()
    reports = [REPORT.fullmatch(line) for line in captured.out.splitlines() if line.startswith("node ")]
    assert len(reports) == 4
    for match in reports:
        assert match and int(match["epochs"]) >= 1 and float(match["rel_gap"]) >= 0.0
    assert "warning" not in captured.err


def test_epoch_cap_warns_on_stderr_and_still_succeeds(workdir, capsys):
    assert main([
        "train", "--model", "lmsbn", "--graph", "chain", "--epochs", "1", "--tol", "1e-12",
        "--data", str(workdir / "data.sv"), "--out", str(workdir / "capped.model"),
    ]) == 0
    captured = capsys.readouterr()
    assert "converged=False" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"margraph: warning: 4 of 4 solves did not certify \(largest gap (\S+)\); "
        r"raise --epochs to run longer",
        lines[0],
    )
    assert match
    largest = float(match.group(1))
    assert largest > 1e-12
    assert load_model(workdir / "capped.model").epochs == 1


def test_solves_that_stop_uncertified_before_the_cap_warn_without_naming_epochs(workdir, capsys, monkeypatch):
    # the interior point stops after one iteration and the crossover makes
    # none: every solve ends uncertified at 1 of 1000 epochs, so more epochs
    # are not the remedy the warning names
    solve = training._interior_point
    monkeypatch.setattr(training, "_interior_point",
                        lambda blocks, width, box, left: solve(blocks, width, box, np.minimum(left, 1)))
    monkeypatch.setattr(training, "_active_set", lambda blocks, box, start, cap, rho, tol: (start, 0))
    assert main([
        "train", "--model", "lmsbn", "--graph", "chain",
        "--data", str(workdir / "data.sv"), "--out", str(workdir / "stopped.model"),
    ]) == 0
    captured = capsys.readouterr()
    reports = [REPORT.fullmatch(line) for line in captured.out.splitlines() if line.startswith("node ")]
    assert [(m["epochs"], m["converged"]) for m in reports] == [("1", "False")] * 4
    [line] = captured.err.splitlines()
    match = re.fullmatch(r"margraph: warning: 4 of 4 solves did not certify \(largest gap (\S+)\)", line)
    assert match and float(match.group(1)) == max(float(m["gap"]) for m in reports)


def test_fscore_training_reports_the_probe_and_starts_from_its_duals(workdir, capsys):
    argv = ["train", "--model", "lmsbn", "--graph", "full", "--order", "fscore", "--lambda", "0.05",
            "--seed", "1", "--data", str(workdir / "data.sv"), "--out"]
    printed = []
    for name in ("warm-a.model", "warm-b.model"):
        assert main(argv + [str(workdir / name)]) == 0
        printed.append(capsys.readouterr().out.replace(name, "M").splitlines())
    assert (workdir / "warm-a.model").read_bytes() == (workdir / "warm-b.model").read_bytes()
    assert printed[0] == printed[1]
    lines = printed[0]
    order_at = next(k for k, line in enumerate(lines) if line.startswith("order: "))
    # the probe's solves start cold and certify, and so do the model's,
    # which start from the probe's duals; probe and model lines share one
    # format.  The first node in order, which owns only its unary cliques,
    # solves its probe problem again, from the centre of the box, in as many
    # iterations
    reports = [REPORT.fullmatch(line) for line in lines[:order_at]]
    assert [m["who"] for m in reports] == [f"probe node {i}" for i in range(4)] + [f"node {i}" for i in range(4)]
    assert all(m["converged"] == "True" for m in reports)
    probes, model = reports[:4], reports[4:]
    first = int(lines[order_at].split()[1])
    assert model[first]["epochs"] == probes[first]["epochs"]


def test_a_probe_solve_at_the_epoch_cap_is_reported(workdir, capsys):
    assert main([
        "train", "--model", "lmsbn", "--graph", "chain", "--order", "fscore", "--epochs", "1",
        "--tol", "1e-12", "--data", str(workdir / "data.sv"), "--out", str(workdir / "capped-probe.model"),
    ]) == 0
    captured = capsys.readouterr()
    probes = [REPORT.fullmatch(line) for line in captured.out.splitlines() if line.startswith("probe node ")]
    assert len(probes) == 4
    assert all(m["epochs"] == "1" and m["converged"] == "False" for m in probes)
    # the warning counts the model's solves, as before
    assert captured.err.startswith("margraph: warning: 4 of 4 solves did not certify")


def test_training_refuses_features_that_overflow_with_one_line(tmp_path):
    # inputs of 1e200 square to inf: the certificate cannot be finite, so
    # training refuses them before any solve, without a NumPy warning
    data = _overflow_file(tmp_path / "huge.sv", "1e200")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "margraph", "train", "--model", "lmsbn", "--graph", "chain",
         "--data", str(data), "--out", str(tmp_path / "huge.model")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("margraph: error: the features make training overflow")
    assert not (tmp_path / "huge.model").exists()


@pytest.mark.parametrize("scale", ["1e6", "1e8", "1e12"])
def test_large_but_safe_features_still_train_and_certify(tmp_path, scale):
    # far from unit scale, the interior point stops on mu relative to the
    # box, and every node certifies
    data = _overflow_file(tmp_path / "large.sv", scale)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "margraph", "train", "--model", "lmsbn", "--graph", "chain",
         "--data", str(data), "--out", str(tmp_path / "large.model")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    reports = [REPORT.fullmatch(line) for line in proc.stdout.splitlines() if line.startswith("node ")]
    assert [m["converged"] for m in reports] == ["True", "True"]


def test_predictions_file_is_well_formed(workdir):
    Y, losses, states, statuses = read_predictions(workdir / "preds.txt")
    assert Y.shape == (60, 4)
    assert np.isin(Y, (-1, 1)).all()
    assert (losses >= 0).all() and (states >= 1).all()
    assert set(statuses) == {"proven_optimal"}


def test_predict_summary_totals_states_and_statuses(workdir, capsys):
    out = workdir / "preds_tight.txt"
    assert main([
        "predict", "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
        "--infer", "bb", "--S", "1", "--max-states", "3", "--out", str(out),
    ]) == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(rf"wrote 60 predictions to {re.escape(str(out))} \((.*)\)", line)
    assert m
    fields = dict(kv.split("=") for kv in m.group(1).split())
    _, _, states, statuses = read_predictions(out)
    assert int(fields.pop("states")) == int(states.sum())
    # the tight cutoff and budget leave some instances unsolved
    assert len(fields) >= 2
    assert {k: int(v) for k, v in fields.items()} == {s: statuses.count(s) for s in set(statuses)}


def test_exhaustive_inference_gives_identical_predictions(workdir):
    assert main([
        "predict", "--model-file", str(workdir / "sbn.model"),
        "--data", str(workdir / "data.sv"),
        "--infer", "exhaustive", "--out", str(workdir / "preds_ex.txt"),
    ]) == 0
    bb = read_predictions(workdir / "preds.txt")
    ex = read_predictions(workdir / "preds_ex.txt")
    assert np.array_equal(bb[0], ex[0])
    assert np.array_equal(bb[1], ex[1])


def test_bb_on_undirected_model_matches_exhaustive(tmp_path):
    assert main([
        "synth", "--kind", "bm", "--k", "3", "--d", "1", "--n", "10", "--seed", "0",
        "--out", str(tmp_path / "d.sv"), "--model-out", str(tmp_path / "bm.model"),
    ]) == 0
    for infer in ("bb", "exhaustive"):
        assert main([
            "predict", "--model-file", str(tmp_path / "bm.model"), "--data", str(tmp_path / "d.sv"),
            "--infer", infer, "--out", str(tmp_path / f"{infer}.txt"),
        ]) == 0
    bb = read_predictions(tmp_path / "bb.txt")
    ex = read_predictions(tmp_path / "exhaustive.txt")
    assert np.array_equal(bb[1], ex[1])
    assert set(bb[3]) == {"proven_optimal"}


def test_eval_prints_metric_line(workdir, capsys):
    assert main([
        "eval", "--pred", str(workdir / "preds.txt"), "--truth", str(workdir / "data.sv"),
    ]) == 0
    line = capsys.readouterr().out.strip()
    parts = dict(kv.split("=") for kv in line.split(","))
    assert set(parts) == {"E", "H", "Fsam", "Fmac", "Fmic"}
    for v in parts.values():
        assert 0.0 <= float(v) <= 1.0


def test_eval_of_file_against_itself_is_perfect(workdir, capsys):
    assert main([
        "eval", "--pred", str(workdir / "data.sv"), "--truth", str(workdir / "data.sv"),
    ]) == 0
    assert capsys.readouterr().out.startswith("E=1.0,H=0.0,")


def test_scale_flag_is_stored_and_applied(workdir):
    assert main([
        "train", "--model", "lmsbn", "--graph", "independent", "--scale",
        "--data", str(workdir / "data.sv"), "--out", str(workdir / "scaled.model"),
    ]) == 0
    model = load_model(workdir / "scaled.model")
    assert model.scale is not None
    lo, hi = model.scale
    scaled = model.apply_scale(np.vstack([lo, hi]))
    span = hi > lo
    assert np.all(scaled[0][span] == -1.0) and np.all(scaled[1][span] == 1.0)


def test_bench_cutoff_sweep_writes_csv(workdir):
    out = workdir / "sweep.csv"
    assert main([
        "bench", "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
        "--S-list", "1,2,8", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "S,fraction_optimal,bound,mean_states,max_states,mean_loss"
    assert len(lines) == 4
    for line in lines[1:]:
        s, frac, bound, mean_states, max_states, mean_loss = line.split(",")
        assert 0.0 <= float(frac) <= 1.0 and 0.0 <= float(bound) <= 1.0
        assert float(mean_states) <= int(max_states) <= 4 * 2 ** 4
    # at a generous cutoff every instance is certified
    assert float(lines[3].split(",")[1]) == 1.0


def test_bench_max_states_tightens_every_cutoffs_budget(workdir, capsys):
    argv = ["bench", "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
            "--S-list", "1,8"]
    assert main(argv) == 0
    uncapped = [int(row.split(",")[4]) for row in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["--max-states", "3"]) == 0
    capped = [int(row.split(",")[4]) for row in capsys.readouterr().out.splitlines()[1:]]
    # a full dive takes K = 4 states, so the cap of 3 binds at both cutoffs
    assert min(uncapped) >= 4 and capped == [3, 3]


def test_bench_cutoff_sweep_runs_beyond_the_exhaustive_limit(tmp_path, capsys):
    # 30 labels: more than exhaustive enumeration takes, which the sweep no longer needs
    assert main([
        "synth", "--kind", "sbn", "--graph", "chain", "--k", "30", "--n", "20", "--seed", "0",
        "--out", str(tmp_path / "d.sv"), "--model-out", str(tmp_path / "m.model"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "bench", "--model-file", str(tmp_path / "m.model"), "--data", str(tmp_path / "d.sv"),
        "--S-list", "1,2,4",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S,fraction_optimal,bound,mean_states,max_states,mean_loss"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [1.0, 2.0, 4.0]
    assert all(row[1] >= row[2] for row in rows)


def test_bench_size_sweep_writes_csv(workdir, capsys):
    assert main([
        "bench", "--k-list", "3,4", "--n-train", "20", "--n-test", "4", "--seed", "2",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "K,trained_mean_states,random_mean_states,exhaustive_states"
    assert [row.split(",")[0] for row in lines[1:]] == ["3", "4"]
    assert [row.split(",")[-1] for row in lines[1:]] == ["8", "16"]


@pytest.mark.parametrize("k_list", ["-1", "3,-1", "3,0"])
def test_bench_size_sweep_checks_every_k_before_training(capsys, monkeypatch, k_list):
    # K goes into the planted model's seed tuple, so it is checked as a size first
    monkeypatch.setattr("margraph.bench.train_lmsbn", None)  # nothing may train
    assert main(["bench", "--k-list", k_list, "--n-train", "5", "--n-test", "2"]) == 1
    bad = k_list.split(",")[-1]
    assert capsys.readouterr() == ("", f"margraph: error: need at least one output, got {bad}\n")


def _never(*args, **kwargs):
    raise AssertionError("the sweep ran before its knobs were checked")


@pytest.mark.parametrize("argv, message", [
    (["--k-list", "4", "--max-states", "0"], "max_states must be at least 1, got 0"),
    (["--S-list", "1,0.5"], "cutoff must be at least 1, got 0.5"),
    (["--S-list", "1,2", "--max-states", "0"], "max_states must be at least 1, got 0"),
])
def test_bench_refuses_a_bad_knob_before_it_trains_or_searches(workdir, capsys, monkeypatch, argv, message):
    for name in ("train_lmsbn", "bb_infer_chunk", "mean_joint_loss"):
        monkeypatch.setattr(f"margraph.bench.{name}", _never)
    data = ["--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv")]
    assert main(["bench", *argv, *(data if "--S-list" in argv else [])]) == 1
    assert capsys.readouterr() == ("", f"margraph: error: {message}\n")


def test_synth_is_deterministic(tmp_path):
    for name in ("one.sv", "two.sv"):
        assert main([
            "synth", "--kind", "bm", "--graph", "full", "--k", "3", "--d", "0",
            "--n", "25", "--seed", "11", "--out", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "one.sv").read_bytes() == (tmp_path / "two.sv").read_bytes()


# ---------------------------------------------------------------------------
# failure paths


def test_bench_needs_exactly_one_sweep(workdir, capsys):
    assert main(["bench"]) == 2
    assert main([
        "bench", "--S-list", "1", "--k-list", "3",
        "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
    ]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("option, text, token", [
    ("--k-list", "a", "a"),
    ("--k-list", "3,1.5", "1.5"),
    ("--S-list", "2,x", "x"),
    ("--S-list", "nan", "nan"),
])
def test_bench_malformed_list_is_a_usage_error(workdir, capsys, option, text, token):
    code = main([
        "bench", option, text,
        "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"margraph: {option}: not a number: {token!r}\n"


@pytest.mark.parametrize("option", ["--S-list", "--k-list"])
def test_bench_list_with_no_values_is_a_usage_error(workdir, capsys, option):
    code = main([
        "bench", option, ",",
        "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
    ])
    assert code == 2
    assert capsys.readouterr() == ("", f"margraph: {option}: no values given\n")


@pytest.mark.parametrize("text", ["inf", "1e400"])
def test_bench_infinite_cutoff_allows_the_full_tree(workdir, capsys, text):
    assert main([
        "bench", "--S-list", text,
        "--model-file", str(workdir / "sbn.model"), "--data", str(workdir / "data.sv"),
    ]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:3] == ["inf", "1.0", "1.0"]


@pytest.mark.parametrize("model", ["lmsbn", "lmbm"])
@pytest.mark.parametrize("option, value, words", [
    ("--lambda", "inf", "regularization strength"),
    ("--lambda", "1e308", "box bound"),
    ("--eta0", "nan", "regularizer boost"),
    ("--tol", "inf", "tolerance"),
])
def test_non_finite_regularization_fails_with_one_line(workdir, capsys, model, option, value, words):
    out = workdir / f"bad-{model}.model"
    code = main([
        "train", "--model", model, option, value,
        "--data", str(workdir / "data.sv"), "--out", str(out),
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("margraph: error: ") and words in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--model", "lmsbn", "--data", "{data}", "--out", "{out}"],
    ["synth", "--kind", "sbn", "--k", "3", "--n", "5", "--out", "{out}"],
    ["bench", "--k-list", "3", "--n-train", "5", "--n-test", "2"],
])
def test_a_negative_seed_fails_with_one_line(workdir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(data=workdir / "data.sv", out=out) for a in argv]
    assert main([*argv, "--seed", "-1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["margraph: error: seed must be non-negative, got -1"]
    assert not out.exists()


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    code = main([
        "train", "--model", "lmsbn", "--data", str(tmp_path / "nope.sv"),
        "--out", str(tmp_path / "m.model"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1 100000000000000000000:1.0", "100000000000000000000 1:1.0"])
def test_an_id_too_large_for_an_array_fails_with_one_line(tmp_path, capsys, line):
    # NumPy rejects the dimension before allocating anything
    bad = tmp_path / "huge.sv"
    bad.write_text(line + "\n")
    code = main([
        "train", "--model", "lmsbn", "--data", str(bad), "--out", str(tmp_path / "m.model"),
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("margraph: error: ") and "cannot hold" in lines[0]


def test_corrupt_data_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.sv"
    bad.write_text("1 junk\n")
    code = main([
        "train", "--model", "lmsbn", "--data", str(bad), "--out", str(tmp_path / "m.model"),
    ])
    assert code == 1
    assert "expected idx:value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "predict", "eval"])
def test_a_file_that_is_not_utf8_fails_with_one_line(workdir, tmp_path, capsys, command):
    bad = tmp_path / "binary"
    bad.write_bytes(b"\xff\xfe\n")
    data, out = str(workdir / "data.sv"), str(tmp_path / "out")
    argv = {
        "train": ["train", "--model", "lmsbn", "--data", str(bad), "--out", out],
        "predict": ["predict", "--model-file", str(bad), "--data", data, "--out", out],
        "eval": ["eval", "--pred", str(bad), "--truth", data],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"margraph: error: {bad}: not a UTF-8 text file\n"


@pytest.mark.parametrize("field, words", [
    ("cliques", "unexpected end of model file"),
    ("outputs", "order must be a permutation"),
])
def test_a_count_the_model_file_cannot_back_fails_with_one_line(workdir, tmp_path, capsys, field, words):
    text = (workdir / "sbn.model").read_text()
    head, _, rest = text.partition(f"\n{field} ")
    # the cliques count is cut off right after its line; the outputs count keeps the rest
    tail = "\n" if field == "cliques" else rest[rest.index("\n"):]
    bad = tmp_path / "huge.model"
    bad.write_text(f"{head}\n{field} 99999999999999{tail}")
    code = main([
        "predict", "--model-file", str(bad), "--data", str(workdir / "data.sv"),
        "--out", str(tmp_path / "p.txt"),
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("margraph: error: ") and words in lines[0]


@pytest.mark.parametrize("infer", ["bb", "exhaustive"])
def test_an_input_that_overflows_a_score_fails_with_one_line(tmp_path, capsys, infer):
    graph, weights = planted_model(4, 2, topology="chain", seed=0, input_scale=5.0)
    save_model(ModelFile(graph, weights), tmp_path / "m.model")
    (tmp_path / "x.sv").write_text("1 1:1e308 2:-1e308\n")
    out = tmp_path / "p.txt"
    code = main([
        "predict", "--model-file", str(tmp_path / "m.model"), "--data", str(tmp_path / "x.sv"),
        "--infer", infer, "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("margraph: error: the input makes the scores overflow")
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--bias-scale", "-1"), ("--input-scale", "-0.5"), ("--edge-scale", "nan"),
])
def test_a_negative_or_non_finite_synth_scale_fails_with_one_line(tmp_path, capsys, option, value):
    out = tmp_path / "s.sv"
    code = main([
        "synth", "--kind", "sbn", "--k", "3", "--n", "5", option, value, "--out", str(out),
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    name = option[2:].replace("-", " ")
    assert lines == [f"margraph: error: {name} must be finite and non-negative, got {float(value)}"]
    assert not out.exists()


def test_bench_usage_errors_exit_2(workdir, tmp_path, capsys):
    assert main(["bench", "--S-list", "1", "--data", str(workdir / "data.sv")]) == 2
    assert "needs --model-file and --data" in capsys.readouterr().err
    assert main([
        "synth", "--kind", "bm", "--k", "3", "--d", "1", "--n", "10",
        "--out", str(tmp_path / "d.sv"), "--model-out", str(tmp_path / "bm.model"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "bench", "--S-list", "1", "--model-file", str(tmp_path / "bm.model"),
        "--data", str(tmp_path / "d.sv"),
    ]) == 2
    assert "state budget and 1 - loss/S bound hold only for directed models" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    """Valid 3-label, 2-input data, model and prediction files to edit."""
    d = tmp_path_factory.mktemp("fuzz")
    assert main([
        "synth", "--kind", "sbn", "--k", "3", "--d", "2", "--n", "8", "--seed", "4",
        "--out", str(d / "data.sv"),
    ]) == 0
    assert main([
        "train", "--model", "lmsbn", "--scale", "--data", str(d / "data.sv"),
        "--out", str(d / "model"),
    ]) == 0
    assert main([
        "predict", "--model-file", str(d / "model"), "--data", str(d / "data.sv"),
        "--out", str(d / "preds"),
    ]) == 0
    return d


# Digits can grow a declared count by at most three places, so no
# dimension read from an edited file goes past a few thousand.
_FUZZ_BYTES = b"0123456789\xff -.:,=e\n"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    data=st.data(),
    target=st.sampled_from(["data.sv", "model", "preds"]),
    infer=st.sampled_from(["bb", "exhaustive"]),
)
def test_edited_files_exit_0_1_or_2_and_never_raise(fuzzdir, data, target, infer):
    content = bytearray((fuzzdir / target).read_bytes())
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]) if content else st.just("insert"))
        # drawn from a range, so every position is as likely as the first
        at = data.draw(st.sampled_from(range(len(content) + (op == "insert"))), label="at")
        byte = data.draw(st.sampled_from(_FUZZ_BYTES), label="byte")
        if op == "insert":
            content[at:at] = bytes([byte])
        elif op == "delete":
            del content[at]
        else:
            content[at] = byte
    edited = fuzzdir / "edited"
    edited.write_bytes(bytes(content))
    path = {name: edited if name == target else fuzzdir / name for name in ("data.sv", "model", "preds")}
    assert main([
        "predict", "--model-file", str(path["model"]), "--data", str(path["data.sv"]),
        "--infer", infer, "--out", str(fuzzdir / "out"),
    ]) in (0, 1, 2)
    assert main(["eval", "--pred", str(path["preds"]), "--truth", str(path["data.sv"])]) in (0, 1, 2)


def test_unknown_arguments_exit_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "lmsbn", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    # unrecognized arguments are worded by the top-level parser, whose usage
    # line lists every command
    ["train", "--model", "lmsbn", "--data", "d", "--out", "o", "--bogus"],
    ["train", "--model", "svm", "--data", "d", "--out", "o"],
    ["predict", "--model-file", "m", "--data", "d", "--out", "o", "extra"],
    ["predict", "--model-file", "m", "--data", "d", "--out", "o", "--S", "3", "--escalate"],  # exclusive
    ["predict", "-h"],
    ["eval", "--pred", "p"],
    ["bench", "--max-states", "many"],
    ["synth", "--help"],
])
def test_a_one_command_parser_words_usage_and_help_as_the_full_one_does(capsys, argv):
    # main builds only the named command's parser
    seen = []
    for parser in (build_parser(), build_parser(argv[0])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        seen.append((exc.value.code, capsys.readouterr()))
    assert seen[0] == seen[1]


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "margraph",
         "synth", "--kind", "sbn", "--k", "3", "--d", "1", "--n", "5", "--seed", "0",
         "--out", str(tmp_path / "s.sv")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 5 instances" in proc.stdout
    assert (tmp_path / "s.sv").exists()


@pytest.mark.parametrize("argv, code, stream, words", [
    (["--help"], 0, "stdout", "usage: margraph"),
    (["predict"], 2, "stderr", "the following arguments are required"),
])
def test_module_entry_point_exits_with_the_command_line_status(argv, code, stream, words):
    proc = subprocess.run([sys.executable, "-m", "margraph", *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert words in getattr(proc, stream)


# ---------------------------------------------------------------------------
# README


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_blocks():
    return re.findall(r"^```(\w*)\n(.*?)^```", _readme(), flags=re.S | re.M)


def _run_readme_shell(block, capsys):
    """Run one README shell block in the current directory: margraph
    commands through main, ``head``/``tail -n N src > dst`` as line slices.
    Returns what each margraph command printed, as (stdout, stderr) pairs."""
    printed = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if not words:
            continue
        capsys.readouterr()
        if words[0] == "margraph":
            assert main(words[1:]) == 0, line
            captured = capsys.readouterr()
            printed.append((captured.out, captured.err))
        else:
            cmd, flag, n, src, redirect, dst = words
            assert cmd in ("head", "tail") and flag == "-n" and redirect == ">", line
            lines = Path(src).read_text(encoding="utf-8").splitlines(keepends=True)
            Path(dst).write_text("".join(lines[: int(n)] if cmd == "head" else lines[-int(n):]), encoding="utf-8")
    return printed


def test_readme_command_reference_names_exactly_the_parser_flags():
    section = _readme().split("\n## Command reference\n", 1)[1].split("\n## ", 1)[0]
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {flag for p in commands.choices.values() for a in p._actions for flag in a.option_strings}
    assert set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", section)) == {f for f in defined if f.startswith("--")} - {"--help"}


def test_readme_command_line_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # synth, the fscore probe, training, search, eval and the cutoff sweep's
    # mean loss all feed the outputs the README quotes
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks()
    quick_start, sweep = [body for lang, body in blocks if lang == "sh" and "margraph " in body]
    summary_line = next(body for _, body in blocks if body.startswith("wrote "))
    metric_line = next(body for _, body in blocks if body.startswith("E="))
    sweep_csv = next(body for _, body in blocks if body.startswith("S,"))
    _, (_, train_err), (predicted, _), (evaluated, _) = _run_readme_shell(quick_start, capsys)
    # every solve certifies, so training prints no warning
    assert train_err == ""
    assert predicted == summary_line
    assert evaluated == metric_line
    [(swept, _)] = _run_readme_shell(sweep, capsys)
    assert swept == sweep_csv


def test_readme_python_quick_start_runs_and_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # both Python blocks in order, in one namespace, as one session runs them
    monkeypatch.chdir(tmp_path)
    fit, by_hand = [body for lang, body in _readme_blocks() if lang == "python"]
    namespace: dict = {}
    exec(compile(fit, "README.md", "exec"), namespace)
    capsys.readouterr()
    exec(compile(by_hand, "README.md", "exec"), namespace)
    [shown] = [line.split("  # ", 1)[1] for line in by_hand.splitlines() if line.startswith("print(graph.cliques[1])")]
    assert shown == "Clique(outputs=(0, 2), input_feature=None)"
    assert capsys.readouterr().out == shown + "\n"
