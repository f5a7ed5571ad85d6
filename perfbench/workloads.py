"""The benchmark's workloads and the set-up step that writes their data.

Each workload fixes a planted model (its shape, scales and model seed are
part of the workload's definition), one training sample drawn from it, and
the train/predict commands a user would type.  The run's ``--seed`` draws
the test sample, so different seeds decode different rows with the same
trained model.

The training rows are fixed because the trained model, not the test rows,
sets most of the decoding cost: on chain40, five training draws of 600 rows
gave median search states from 979 to 1308 per row on one test set, and at
any size the time budget allows that spread would swamp the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import margraph as mg
from margraph.dataio import parse_multilabel_svmlight, write_multilabel_svmlight

# Seeds of every planted model and of every training sample; the run's
# --seed draws the test sample.
PLANTED_SEED = 1003
TRAIN_SEED = 0


class SetupError(RuntimeError):
    """The generated data does not read back as the planted problem."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_outputs: int
    n_inputs: int
    kind: str  # mg.DIRECTED samples with sample_sbn, mg.UNDIRECTED with sample_bm
    topology: str
    scales: tuple[float, float, float]  # bias, input, edge
    n_train: int
    n_test: int
    train_args: tuple[str, ...]
    infer: str
    # Test rows per `margraph predict` command.  Decoding cost per row is
    # heavy-tailed on chain40, so one command over the whole test set would
    # time a handful of rows; the median over many equal chunks is steady.
    chunk_rows: int
    # Compare every bb objective with exhaustive enumeration (K small enough).
    oracle_check: bool = False
    # Test chunks predicted after each training; a run predicts every chunk
    # at least once.  Fewer chunks per training give more training samples.
    chunks_per_train: int = 1
    # Report set-up at the reference speed (see clock.py), or in raw CPU
    # seconds when set-up is mostly vectorised NumPy, whose speed does not
    # follow the interpreted reference's.
    scale_setup: bool = True

    def sized(self, toy: bool) -> "Workload":
        """The workload at its toy size, for smoke tests, or unchanged."""
        return replace(self, n_train=60, n_test=self.chunk_rows) if toy else self

    def generate(self, seed: int, workdir: Path, tracer) -> tuple[Path, list[Path]]:
        """Plant the model, sample both splits and write them as svmlight:
        the training set as one file, the test set in chunk_rows-row files."""
        bias, inp, edge = self.scales
        with tracer.span("synth.planted_model"):
            graph, weights = mg.planted_model(
                self.n_outputs,
                self.n_inputs,
                kind=self.kind,
                topology=self.topology,
                seed=PLANTED_SEED,
                bias_scale=bias,
                input_scale=inp,
                edge_scale=edge,
            )
        sample = mg.sample_sbn if self.kind == mg.DIRECTED else mg.sample_bm
        with tracer.span("synth.sample"):
            train = sample(mg.SynthConfig(graph, weights, self.n_train, seed=(TRAIN_SEED, 1)))
            test = sample(mg.SynthConfig(graph, weights, self.n_test, seed=(seed, 2)))
        train_path = workdir / "train.sv"
        rows = self.chunk_rows
        test_paths = [workdir / f"test-{c:02d}.sv" for c in range(self.n_test // rows)]
        with tracer.span("dataio.write"):
            write_multilabel_svmlight(train, train_path)
            for c, path in enumerate(test_paths):
                write_multilabel_svmlight(test.subset(range(c * rows, (c + 1) * rows)), path)
        return train_path, test_paths

    def check_readback(self, train_path: Path, test_paths: list[Path]) -> None:
        """`margraph train` infers (K, D) from file maxima, so a label that
        never fires would silently train a smaller model.  Test chunks are
        read with the planted (K, D), as `margraph predict` reads them."""
        planted = (self.n_outputs, self.n_inputs)
        data = parse_multilabel_svmlight(train_path)
        if (data.n_outputs, data.n_inputs) != planted:
            raise SetupError(
                f"{train_path.name} reads back as (K, D) = {(data.n_outputs, data.n_inputs)}, planted {planted}"
            )
        for path in test_paths:
            if len(parse_multilabel_svmlight(path, *planted)) != self.chunk_rows:
                raise SetupError(f"{path.name} does not read back as {self.chunk_rows} rows")


_CLI_SCALES = (1.5, 1.5, 1.5)  # the `margraph synth` defaults

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scene6",
            why="Scene-shaped dense rows (K=6, D=294, full graph, fscore order): loads "
            "parsing, the ordering probe and the wide-row solver; prediction is compile-bound.",
            n_outputs=6,
            n_inputs=294,
            kind=mg.DIRECTED,
            topology="full",
            scales=(1.0, 0.1, 1.0),
            n_train=200,
            n_test=300,
            train_args=("--model", "lmsbn", "--graph", "full", "--order", "fscore", "--lambda", "0.01"),
            infer="bb",
            chunk_rows=50,
            oracle_check=True,
            chunks_per_train=2,
        ),
        Workload(
            name="chain40",
            why="40-label directed chain, D=3, index order: search-bound decoding with a "
            "heavy tail and 40 narrow node solves; ordering is bypassed.",
            n_outputs=40,
            n_inputs=3,
            kind=mg.DIRECTED,
            topology="chain",
            scales=_CLI_SCALES,
            n_train=600,
            n_test=1500,
            # At the default cap node solves take 4 to 1000 epochs and training
            # takes 5-15 s; a cap of 30 leaves the learned model's decoding
            # cost unchanged (mean search states 3699 against 3685 at a cap of
            # 100, on 300 rows) and training at ~1.4 s.
            train_args=("--model", "lmsbn", "--graph", "chain", "--order", "index", "--lambda", "0.01",
                        "--epochs", "30"),
            infer="bb",
            # Decoding cost per row spreads over orders of magnitude, so the
            # median chunk is steady across seeds only over many rows and
            # small chunks: over 16 test draws of 1800 rows, the median
            # 25-row chunk's search states spread 3% (quartiles over median),
            # the median 50-row chunk's 9% and the mean row's 10%.
            chunk_rows=25,
            chunks_per_train=10,
        ),
        Workload(
            name="lmbm12",
            why="Undirected full graph, K=12, D=4, eta0=1: one joint dual over shared "
            "cliques, 2^12 exhaustive decoding, exact table sampling; search is bypassed.",
            n_outputs=12,
            n_inputs=4,
            kind=mg.UNDIRECTED,
            topology="full",
            scales=_CLI_SCALES,
            n_train=600,
            n_test=800,
            # The joint dual hits any epoch cap here; 80 epochs over 600 rows
            # keep training near 1 s.
            train_args=("--model", "lmbm", "--graph", "full", "--eta0", "1", "--lambda", "0.01",
                        "--epochs", "80"),
            infer="exhaustive",
            chunk_rows=50,
            chunks_per_train=4,
            # Set-up is table sampling, 4096-entry vector operations per row,
            # and its time does not follow the reference's: eight set-ups in
            # a row took 2.75-3.49 s while the reference took 0.015-0.032 s.
            scale_setup=False,
        ),
    )
}
