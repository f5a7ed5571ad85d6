"""Hinge-loss training via dual coordinate descent.

The training problem minimizes

    (1/N) sum_l joint_loss(x_l, y_l) + lam * sum_j eta_j * w_j^2

over clique weights w, where eta_j is 1 except for multi-output cliques of
an undirected graph, which get 1 + eta0.  Rescaled by 1/(2*lam), this is a
box-constrained SVM dual with per-constraint upper bound C = 1/(lam*N):
one constraint per (node, instance) pair, with feature row
f_j = clique parity * input value.  Margins come out as z_il = w . f(:,il)
because the parity includes the node's own label.

Directed graphs decompose into one independent problem per node (cliques
partition by owner); undirected graphs couple all nodes through shared
weights and are solved jointly.  Both cases run the same coordinate-descent
kernel: pick a constraint, compute the projected gradient, and move its dual
variable to the exact 1-d optimum clipped to [0, C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, GraphError
from .graphs import DIRECTED, UNDIRECTED, GraphSpec
from .model import WeightVector, batch_scorer

__all__ = [
    "TrainConfig",
    "SolveReport",
    "DualState",
    "TrainResult",
    "clique_feature_matrix",
    "train_lmsbn",
    "train_lmbm",
    "mean_joint_loss",
    "primal_objective",
    "box_primal_objective",
    "dual_objective",
    "duality_gap",
]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the dual coordinate descent solver."""

    lam: float = 0.01
    eta0: float = 0.0
    max_epochs: int = 1000
    tolerance: float = 1e-4
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.lam > 0):
            raise DataError(f"regularization strength must be positive, got {self.lam}")
        if self.eta0 < 0:
            raise DataError(f"regularizer boost must be non-negative, got {self.eta0}")
        if self.max_epochs < 1:
            raise DataError(f"need at least one epoch, got {self.max_epochs}")
        if not (self.tolerance > 0):
            raise DataError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class SolveReport:
    """Convergence record for one dual solve (one node, or None for joint)."""

    node: int | None
    epochs: int
    gap: float
    max_projected_gradient: float
    converged: bool


@dataclass(frozen=True)
class DualState:
    """Terminal dual variables alpha[node, instance] with the fitted weights."""

    graph: GraphSpec
    alpha: np.ndarray
    weights: WeightVector
    epoch: int


@dataclass(frozen=True)
class TrainResult:
    weights: WeightVector
    state: DualState
    reports: tuple[SolveReport, ...]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.reports)

    @property
    def epochs(self) -> int:
        return max(r.epochs for r in self.reports)

    @property
    def gap(self) -> float:
        return float(sum(r.gap for r in self.reports))


def clique_feature_matrix(graph: GraphSpec, dataset: Dataset) -> np.ndarray:
    """(N, n_cliques) matrix of clique features at the true labels."""
    if dataset.n_outputs != graph.n_outputs or dataset.n_inputs != graph.n_inputs:
        raise DataError(
            f"dataset dims ({dataset.n_outputs} outputs, {dataset.n_inputs} inputs) "
            f"do not match graph ({graph.n_outputs}, {graph.n_inputs})"
        )
    N = dataset.n_instances
    F = np.empty((N, graph.n_cliques), dtype=np.float64)
    for j, c in enumerate(graph.cliques):
        parity = np.prod(dataset.Y[:, list(c.outputs)], axis=1, dtype=np.int8)
        if c.input_feature is None:
            F[:, j] = parity
        else:
            F[:, j] = parity * dataset.X[:, c.input_feature]
    return F


def _blocks(F: np.ndarray, groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per constraint group: its clique columns and C-contiguous F[:, cols]."""
    cols_list = [np.asarray(cols, dtype=np.intp) for cols in groups]
    return [(cols, np.ascontiguousarray(F[:, cols])) for cols in cols_list]


def _box_objectives(blocks, eta, box, alpha) -> tuple[np.ndarray, float, float]:
    """Weights implied by alpha, and the box-scaled primal and dual there.

    Stationarity gives w_j = (1/eta_j) * sum over constraints touching clique
    j of alpha * f_j; the primal is 0.5*sum eta w^2 + box * total hinge and
    the dual is sum(alpha) - 0.5*sum eta w^2.
    """
    w = np.zeros(len(eta), dtype=np.float64)
    for (cols, block), a in zip(blocks, alpha):
        # BLAS sums in an order set by memory layout; a row-major block.T fixes it
        w[cols] += block.T.copy() @ a
    w /= eta
    reg = 0.5 * float(eta @ (w * w))
    hinge = 0.0
    for cols, block in blocks:
        hinge += float(np.maximum(0.0, 1.0 - block @ w[cols]).sum())
    return w, reg + box * hinge, float(alpha.sum()) - reg


def _solve_dual(F, groups, eta, box, rng, max_epochs, tol):
    """Coordinate descent over dual variables alpha[group, instance] in [0, box].

    Each step moves one alpha to the exact optimum of the dual restricted to
    that coordinate; the dual objective never decreases.  An epoch visits
    every constraint once in a fresh random order.  Terminates when a full
    pass moves no projected gradient beyond tol and the duality gap is at
    most tol.
    """
    N, n_w = F.shape
    G = len(groups)
    blocks = _blocks(F, groups)
    cols_list = [cols for cols, _ in blocks]
    identity = [len(c) == n_w and np.array_equal(c, np.arange(n_w)) for c in cols_list]
    Fg = [block for _, block in blocks]
    Fg_over_eta = [Fg[g] / eta[cols_list[g]] for g in range(G)]
    # Curvature of the dual in coordinate (g, l); zero rows make it linear.
    q = [np.einsum("ij,ij->i", Fg[g], Fg_over_eta[g]) for g in range(G)]
    alpha = np.zeros((G, N), dtype=np.float64)
    w = np.zeros(n_w, dtype=np.float64)
    epoch = 0
    gap = np.inf
    max_pg = np.inf
    converged = False
    dot = np.dot
    for epoch in range(1, max_epochs + 1):
        perm = rng.permutation(G * N)
        max_pg = 0.0
        for t in perm:
            g = t // N
            l = t - g * N
            row = Fg[g][l]
            grad = dot(row, w if identity[g] else w[cols_list[g]]) - 1.0
            a = alpha[g, l]
            if a <= 0.0:
                pg = grad if grad < 0.0 else 0.0
            elif a >= box:
                pg = grad if grad > 0.0 else 0.0
            else:
                pg = grad
            if pg != 0.0:
                apg = -pg if pg < 0.0 else pg
                if apg > max_pg:
                    max_pg = apg
                qa = q[g][l]
                if qa > 0.0:
                    na = a - grad / qa
                    if na < 0.0:
                        na = 0.0
                    elif na > box:
                        na = box
                else:
                    na = box if grad < 0.0 else 0.0
                if na != a:
                    if identity[g]:
                        w += (na - a) * Fg_over_eta[g][l]
                    else:
                        w[cols_list[g]] += (na - a) * Fg_over_eta[g][l]
                    alpha[g, l] = na
        # Refresh w from the stationarity identity to shed update drift,
        # then check the duality gap at this alpha.
        w, primal, dual = _box_objectives(blocks, eta, box, alpha)
        gap = primal - dual
        if max_pg <= tol and gap <= tol:
            converged = True
            break
    return w, alpha, epoch, float(gap), float(max_pg), converged


def _box_bound(lam: float, n: int) -> float:
    return 1.0 / (lam * n)


def train_lmsbn(dataset: Dataset, graph: GraphSpec, config: TrainConfig | None = None) -> TrainResult:
    """Fit a directed graph: one independent margin problem per node.

    Node i's problem sees only the cliques it owns, with the remaining
    labels fixed to their observed values.
    """
    if graph.kind != DIRECTED:
        raise GraphError("this trainer needs a directed graph")
    config = config or TrainConfig()
    F = clique_feature_matrix(graph, dataset)
    eta = graph.regularizer_multipliers(config.eta0)
    box = _box_bound(config.lam, dataset.n_instances)
    w = np.zeros(graph.n_cliques, dtype=np.float64)
    alpha = np.zeros((graph.n_outputs, dataset.n_instances), dtype=np.float64)
    reports = []
    for i in range(graph.n_outputs):
        cols = np.asarray(graph.contributing[i], dtype=np.intp)
        if len(cols) == 0:
            reports.append(SolveReport(i, 0, 0.0, 0.0, True))
            continue
        rng = np.random.default_rng((config.shuffle_seed, i))
        wi, ai, epochs, gap, max_pg, ok = _solve_dual(
            np.ascontiguousarray(F[:, cols]),
            [np.arange(len(cols))],
            eta[cols],
            box,
            rng,
            config.max_epochs,
            config.tolerance,
        )
        w[cols] = wi
        alpha[i] = ai[0]
        reports.append(SolveReport(i, epochs, gap, max_pg, ok))
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    state = DualState(graph, alpha, weights, max(r.epochs for r in reports))
    return TrainResult(weights=weights, state=state, reports=tuple(reports))


def train_lmbm(dataset: Dataset, graph: GraphSpec, config: TrainConfig | None = None) -> TrainResult:
    """Fit an undirected graph: one joint problem over all (node, instance) pairs."""
    if graph.kind != UNDIRECTED:
        raise GraphError("this trainer needs an undirected graph")
    config = config or TrainConfig()
    F = clique_feature_matrix(graph, dataset)
    eta = graph.regularizer_multipliers(config.eta0)
    box = _box_bound(config.lam, dataset.n_instances)
    rng = np.random.default_rng((config.shuffle_seed, 0))
    w, alpha, epochs, gap, max_pg, ok = _solve_dual(
        F,
        list(graph.contributing),
        eta,
        box,
        rng,
        config.max_epochs,
        config.tolerance,
    )
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    report = SolveReport(None, epochs, gap, max_pg, ok)
    state = DualState(graph, alpha, weights, epochs)
    return TrainResult(weights=weights, state=state, reports=(report,))


def mean_joint_loss(dataset: Dataset, graph: GraphSpec, weights: WeightVector) -> float:
    """Mean joint hinge loss at the observed labels."""
    Z = dataset.Y * batch_scorer(graph, weights, dataset.X).scores(dataset.Y)
    return float(np.maximum(0.0, 1.0 - Z).sum()) / dataset.n_instances


def primal_objective(
    dataset: Dataset,
    graph: GraphSpec,
    weights: WeightVector,
    config: TrainConfig | None = None,
) -> float:
    """Mean joint hinge loss plus the weighted quadratic penalty.

    Regularization constants default to the ones stored with the weights;
    pass a config to evaluate under different ones.
    """
    scale = config if config is not None else weights
    eta = graph.regularizer_multipliers(scale.eta0)
    w = weights.values
    return mean_joint_loss(dataset, graph, weights) + scale.lam * float(eta @ (w * w))


def _state_objectives(state: DualState, dataset: Dataset, config: TrainConfig | None):
    """(weights, box primal, dual) at the state's alpha, as the solver computes them."""
    scale = config if config is not None else state.weights
    graph = state.graph
    blocks = _blocks(clique_feature_matrix(graph, dataset), graph.contributing)
    eta = graph.regularizer_multipliers(scale.eta0)
    return _box_objectives(blocks, eta, _box_bound(scale.lam, dataset.n_instances), state.alpha)


def box_primal_objective(
    state: DualState, dataset: Dataset, config: TrainConfig | None = None
) -> float:
    """Primal value in the box scaling, 0.5*sum eta w^2 + C * total hinge, at
    the weights the state's alpha implies (a trained state's own weights)."""
    return _state_objectives(state, dataset, config)[1]


def dual_objective(state: DualState, dataset: Dataset, config: TrainConfig | None = None) -> float:
    """Dual value sum(alpha) - 0.5*sum eta w(alpha)^2 at the state's alpha."""
    return _state_objectives(state, dataset, config)[2]


def duality_gap(state: DualState, dataset: Dataset, config: TrainConfig | None = None) -> float:
    """Box-scaled primal minus dual at the state's alpha.

    Both sides are evaluated at the weights implied by alpha through the
    stationarity identity, so the gap is a pure function of alpha and is
    non-negative up to roundoff.
    """
    _, primal, dual = _state_objectives(state, dataset, config)
    return primal - dual
