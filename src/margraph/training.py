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
variable to the exact 1-d optimum clipped to [0, C].  The kernel shrinks its
active set (Hsieh et al., ICML 2008): constraints pinned at 0 or C with a
gradient outside the previous epoch's band are skipped until the band closes,
and convergence is only certified on the full set.  A solve whose constraint
groups are all narrow (at most ``_NARROW_WIDTH`` columns, like a directed
chain's nodes) steps on Python lists of floats; wider ones step on NumPy rows.
The weights are updated incrementally at each step and refreshed from alpha
through the stationarity identity only on epochs that can certify or stop:
those that meet no projected gradient above the tolerance, and the last.
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
    """Convergence record for one dual solve (one node, or None for joint).

    ``steps`` counts the coordinate visits actually made, summed over
    epochs; ``rel_gap`` is the gap divided by the box-scaled primal.
    """

    node: int | None
    epochs: int
    gap: float
    max_projected_gradient: float
    converged: bool
    steps: int = 0
    rel_gap: float = 0.0


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


# Widest constraint group whose coordinate steps run on Python floats.  On
# directed chains of 600 rows, a plain loop beat NumPy's per-call overhead by
# 40% at width 5 and 17% at width 12, and lost by 10% at width 16.
_NARROW_WIDTH = 12


# Projected gradients within this of 0 are roundoff, as at a free variable
# already at its optimum, and leave a shrink threshold off as an exact 0 does:
# otherwise shrinking would turn on or off with the last bit of a dot product,
# which differs between the narrow loop and BLAS.
_ROUNDOFF = 1e-12


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


def _max_projected_gradient(blocks, w, alpha, box) -> float:
    """Largest |projected gradient| over every dual variable at weights w."""
    largest = 0.0
    for (cols, block), a in zip(blocks, alpha):
        grad = block @ w[cols] - 1.0
        pg = np.where(a <= 0.0, np.minimum(grad, 0.0), np.where(a >= box, np.maximum(grad, 0.0), grad))
        largest = max(largest, float(np.abs(pg).max()))
    return largest


def _solve_dual(blocks, eta, box, rng, max_epochs, tol, node=None):
    """Coordinate descent over dual variables alpha[group, instance] in [0, box].

    ``blocks`` are the constraint groups from ``_blocks``; ``eta`` has one
    entry per weight.

    Each step moves one alpha to the exact optimum of the dual restricted to
    that coordinate and adds the change times the row's 1/eta-scaled copy to
    w; the dual objective never decreases.  An epoch visits every *active*
    constraint once in a fresh random order.  When every group is at most
    ``_NARROW_WIDTH`` columns wide, rows, update rows, columns and w are
    Python lists and a step is two plain loops of float arithmetic, which
    beats NumPy's per-call overhead on short rows; wider solves step on NumPy
    rows.  A wide group spanning all of w, like a directed node's only group,
    reads and updates w itself; any other indexes it through its column
    array.

    Shrinking (Hsieh et al., ICML 2008, as in LIBLINEAR): a constraint is
    dropped from the active set when its alpha sits at 0 with a gradient
    above the previous epoch's largest projected gradient, or at the box
    with a gradient below the previous epoch's smallest (thresholds are
    infinite when that value has the wrong sign or is roundoff, within
    ``_ROUNDOFF`` of 0).  A dropped constraint's projected gradient is
    exactly 0.  Once the largest absolute projected gradient met in an epoch
    is at most tol, every constraint is restored and the thresholds reset.

    Only an epoch that can certify or stop, one that met no projected
    gradient beyond tol or the last one, refreshes w from alpha through the
    stationarity identity (shedding update drift) and computes the duality
    gap there; other epochs carry the incrementally updated w into the next.
    The solve terminates when an epoch that started on the full set meets no
    projected gradient beyond tol and, at the refreshed weights, the duality
    gap and every projected gradient over all of alpha are at most tol.

    Returns (w, alpha, SolveReport) with the report filed under ``node``.
    """
    n_w = len(eta)
    N = len(blocks[0][1])
    G = len(blocks)
    Fg = [block for _, block in blocks]
    # Row l of Fg[g] scaled by 1/eta: the change in w per unit of alpha[g, l]
    # (the block itself where eta is 1, as x / 1.0 == x).
    Fg_over_eta = [b if np.all(eta[c] == 1.0) else b / eta[c] for c, b in blocks]
    # The dual's curvature in each coordinate (0 for a zero row, where it is
    # linear) and alpha, as flat Python floats indexed by t = g*N + l, which
    # keeps NumPy scalars out of the inner loop.
    curvature = [
        q for g in range(G) for q in np.einsum("ij,ij->i", Fg[g], Fg_over_eta[g]).tolist()
    ]
    # Per constraint t: its feature row, its update row and the columns of w
    # they touch, for this solve only.  A narrow solve holds them and w as
    # Python lists of floats, a wide one as NumPy row views and an index
    # into a NumPy w.
    narrow = max(len(cols) for cols, _ in blocks) <= _NARROW_WIDTH
    if narrow:
        rows = [r for b in Fg for r in b.tolist()]
        updates = [r for b in Fg_over_eta for r in b.tolist()]
        group_cols = [cols.tolist() for cols, _ in blocks]
        w = [0.0] * n_w
    else:
        rows = [r for b in Fg for r in b]
        updates = [r for b in Fg_over_eta for r in b]
        # None marks a group spanning all of w, which steps read and update whole
        group_cols = [None if np.array_equal(cols, np.arange(n_w)) else cols for cols, _ in blocks]
        w = np.zeros(n_w, dtype=np.float64)
    row_cols = [c for c in group_cols for _ in range(N)]
    alpha = [0.0] * (G * N)
    full_set = np.arange(G * N)
    active = full_set
    shrink_hi, shrink_lo = np.inf, -np.inf
    steps = 0
    converged = False
    dot = np.dot
    for epoch in range(1, max_epochs + 1):
        started_full = len(active) == len(full_set)
        perm = rng.permutation(active).tolist()
        steps += len(perm)
        kept = []
        keep = kept.append
        pg_hi = pg_lo = 0.0
        for t in perm:
            cols = row_cols[t]
            if narrow:
                grad = 0.0
                for f, j in zip(rows[t], cols):
                    grad += f * w[j]
                grad -= 1.0
            else:
                grad = float(dot(rows[t], w if cols is None else w[cols])) - 1.0
            a = alpha[t]
            if a <= 0.0:
                if grad > shrink_hi:
                    continue
                pg = grad if grad < 0.0 else 0.0
            elif a >= box:
                if grad < shrink_lo:
                    continue
                pg = grad if grad > 0.0 else 0.0
            else:
                pg = grad
            keep(t)
            if pg != 0.0:
                if pg > pg_hi:
                    pg_hi = pg
                elif pg < pg_lo:
                    pg_lo = pg
                qa = curvature[t]
                if qa > 0.0:
                    na = a - grad / qa
                    if na < 0.0:
                        na = 0.0
                    elif na > box:
                        na = box
                else:
                    na = box if grad < 0.0 else 0.0
                if na != a:
                    step = na - a
                    if narrow:
                        for u, j in zip(updates[t], cols):
                            w[j] += step * u
                    elif cols is None:
                        w += step * updates[t]
                    else:
                        w[cols] += step * updates[t]
                    alpha[t] = na
        max_pg = pg_hi if pg_hi > -pg_lo else -pg_lo
        if max_pg > tol and epoch < max_epochs:
            active = np.array(kept, dtype=np.intp)
            shrink_hi = pg_hi if pg_hi > _ROUNDOFF else np.inf
            shrink_lo = pg_lo if pg_lo < -_ROUNDOFF else -np.inf
            continue
        alpha_gn = np.array(alpha).reshape(G, N)
        w_refreshed, primal, dual = _box_objectives(blocks, eta, box, alpha_gn)
        gap = primal - dual
        pg_all = None
        if max_pg <= tol:
            if started_full and gap <= tol:
                pg_all = _max_projected_gradient(blocks, w_refreshed, alpha_gn, box)
                if pg_all <= tol:
                    converged = True
                    break
            active = full_set
            shrink_hi, shrink_lo = np.inf, -np.inf
        w = w_refreshed.tolist() if narrow else w_refreshed
    if pg_all is None:
        pg_all = _max_projected_gradient(blocks, w_refreshed, alpha_gn, box)
    return w_refreshed, alpha_gn, SolveReport(node, epoch, gap, pg_all, converged, steps, gap / primal)


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
            reports.append(SolveReport(i, 0, 0.0, 0.0, True, 0, 0.0))
            continue
        rng = np.random.default_rng((config.shuffle_seed, i))
        wi, ai, report = _solve_dual(
            _blocks(F[:, cols], [np.arange(len(cols))]),
            eta[cols],
            box,
            rng,
            config.max_epochs,
            config.tolerance,
            node=i,
        )
        w[cols] = wi
        alpha[i] = ai[0]
        reports.append(report)
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    state = DualState(graph, alpha, weights, max(r.epochs for r in reports))
    return TrainResult(weights=weights, state=state, reports=tuple(reports))


def train_lmbm(dataset: Dataset, graph: GraphSpec, config: TrainConfig | None = None) -> TrainResult:
    """Fit an undirected graph: one joint problem over all (node, instance) pairs."""
    if graph.kind != UNDIRECTED:
        raise GraphError("this trainer needs an undirected graph")
    config = config or TrainConfig()
    blocks = _blocks(clique_feature_matrix(graph, dataset), graph.contributing)
    eta = graph.regularizer_multipliers(config.eta0)
    box = _box_bound(config.lam, dataset.n_instances)
    rng = np.random.default_rng((config.shuffle_seed, 0))
    w, alpha, report = _solve_dual(
        blocks,
        eta,
        box,
        rng,
        config.max_epochs,
        config.tolerance,
    )
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    state = DualState(graph, alpha, weights, report.epochs)
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
