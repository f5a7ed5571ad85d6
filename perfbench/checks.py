"""Correctness checks on the files the program writes, run outside timing.

Every predicted instance is one checked operation.  It fails when its
``loss=`` differs from ``joint_loss`` recomputed from the saved model by
more than 1e-9, when its status is not ``proven_optimal``, or, on a
workload with an oracle, when its objective is not exactly (``==``) the
``exhaustive_infer`` objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import margraph as mg
from margraph.dataio import load_model, parse_multilabel_svmlight, read_predictions

LOSS_TOL = 1e-9


@dataclass(frozen=True)
class Checked:
    attempted: int
    failed: int
    first_error: str | None


def check_predictions(model_path, test_path, pred_path, oracle: bool) -> Checked:
    model = load_model(model_path)
    graph, weights = model.graph, model.weights
    test = parse_multilabel_svmlight(test_path, n_outputs=graph.n_outputs, n_inputs=graph.n_inputs)
    X = model.apply_scale(test.X)
    Y, losses, _, statuses = read_predictions(pred_path)
    if Y.shape != test.Y.shape:
        return Checked(len(test), len(test), f"{Y.shape[0]} predictions of shape {Y.shape} for {test.Y.shape}")
    failed = 0
    first_error = None
    for l in range(len(test)):
        errors = []
        loss = mg.joint_loss(graph, weights, mg.Instance(X[l], Y[l])).total
        if abs(loss - losses[l]) > LOSS_TOL:
            errors.append(f"loss={losses[l]!r} but joint_loss={loss!r}")
        if statuses[l] != mg.STATUS_OPTIMAL:
            errors.append(f"status={statuses[l]}")
        if oracle:
            best = mg.exhaustive_infer(graph, weights, X[l]).objective
            if best != losses[l]:
                errors.append(f"objective {losses[l]!r} != exhaustive {best!r}")
        if errors:
            failed += 1
            first_error = first_error or f"instance {l}: " + "; ".join(errors)
    return Checked(len(test), failed, first_error)
