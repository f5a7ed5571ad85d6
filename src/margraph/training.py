"""Hinge-loss training via dual coordinate descent.

The training problem minimizes

    (1/N) sum_l joint_loss(x_l, y_l) + (lam/2) * sum_j eta_j * w_j^2

over clique weights w, where eta_j is 1 except for multi-output cliques of
an undirected graph, which get 1 + eta0 (``_regularizer_multipliers``).
Rescaled by 1/lam, it is 0.5 * sum eta w^2 + C * sum_l joint_loss, an SVM
primal whose dual is box-constrained, with per-constraint upper bound
C = 1/(lam*N): one constraint per (node, instance) pair, with feature row
f_j = clique parity * input value.  Margins come out as z_il = w . f(:,il)
because the parity includes the node's own label.

Both model kinds train through one loop of dual solves.  Directed graphs
decompose into one independent solve per node over the cliques it owns
(cliques partition by owner; a node that owns none still gets its solve,
with every dual at the box); undirected graphs couple all nodes through
shared weights and take one joint solve.  Each solve holds the features of
its own constraint groups only, and runs the same coordinate-descent
kernel: pick a constraint, compute the projected gradient, and move its dual
variable to the exact 1-d optimum clipped to [0, C].  The kernel shrinks its
active set (Hsieh et al., ICML 2008): constraints pinned at 0 or C with a
gradient outside the previous epoch's band are skipped until the band closes,
and convergence is only certified on the full set.  A step takes one of three
forms, chosen once per solve.  A solve whose constraint groups are all narrow
(at most ``_NARROW_WIDTH`` columns, like a directed chain's nodes) steps on
Python lists of floats, and a wider one on NumPy rows; both update the weights
incrementally at each step and refresh them from alpha through the
stationarity identity only on epochs that can certify or stop: those that
meet no projected gradient above the tolerance, and the last.  A wide solve
of one constraint group (every directed node solve wider than the cut-off)
whose Gram matrix Q = F F^T / eta holds at most ``_GRAM_ENTRIES`` entries
steps in the dual instead: a step's gradient is one dot of a row of Q with
alpha, (Q alpha)_t - 1, and a move writes alpha alone, so no weights are kept
between certificates.

A solve starts from zero duals, or from given ones (``start=``, a
``DualState``) and the weights they imply.  Any duals in [0, C] are
feasible, so the terminal duals of another problem over the same (node,
instance) constraints and box are a start, as the ordering probe's are for
the full directed problem (warm start: Hsieh et al., ICML 2008; Chu,
Zhuang and Lin, KDD 2015).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, GraphError
from .graphs import DIRECTED, UNDIRECTED, GraphSpec
from .model import WeightVector, _check_int, _check_real, _check_regularization, _check_seed, batch_scorer

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
        _check_regularization(self.lam, self.eta0)
        _check_seed(self.shuffle_seed)
        _check_int(self.max_epochs, "max_epochs")
        if self.max_epochs < 1:
            raise DataError(f"need at least one epoch, got {self.max_epochs}")
        _check_real(self.tolerance, "tolerance")
        if not (0 < self.tolerance < math.inf):
            raise DataError(f"tolerance must be positive and finite, got {self.tolerance}")


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
    steps: int
    rel_gap: float


@dataclass(frozen=True)
class DualState:
    """Terminal dual variables alpha[node, instance] with the fitted weights;
    a training run over the same data and lambda can start from them."""

    graph: GraphSpec
    alpha: np.ndarray
    weights: WeightVector


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
    return _features(graph, dataset, range(graph.n_cliques))


def _features(graph: GraphSpec, dataset: Dataset, cliques) -> np.ndarray:
    """(N, len(cliques)) C-contiguous features of the given cliques."""
    if dataset.n_outputs != graph.n_outputs or dataset.n_inputs != graph.n_inputs:
        raise DataError(
            f"dataset dims ({dataset.n_outputs} outputs, {dataset.n_inputs} inputs) "
            f"do not match graph ({graph.n_outputs}, {graph.n_inputs})"
        )
    F = np.empty((dataset.n_instances, len(cliques)), dtype=np.float64)
    cliques = np.array(cliques, dtype=np.intp).reshape(-1)
    start = graph.cliques.indptr[cliques]
    ends = graph.cliques.indptr[cliques + 1]
    inputs = graph.cliques.inputs[cliques]
    node = graph.cliques.members[start]
    # single-output input cliques: their features y_i * x_d come from one
    # product per node
    single = (ends - start == 1) & (inputs >= 0)
    for i in np.unique(node[single]).tolist():
        columns = np.flatnonzero(single & (node == i))
        F[:, columns] = dataset.Y[:, i : i + 1] * dataset.X[:, inputs[columns]]
    for k in np.flatnonzero(~single).tolist():
        parity = np.prod(dataset.Y[:, graph.cliques.members[start[k] : ends[k]]], axis=1, dtype=np.int8)
        F[:, k] = parity if inputs[k] < 0 else parity * dataset.X[:, inputs[k]]
    return F


# Widest constraint group whose coordinate steps run on Python floats.  On
# directed chains of 600 rows, a plain loop beat NumPy's per-call overhead by
# 40% at width 5 and 17% at width 12, and lost by 10% at width 16.
_NARROW_WIDTH = 12


# Largest Gram matrix, in entries (16 MiB of float64, N <= 1448 rows), that a
# wide single-group solve builds to step in the dual.  A moving step there is
# one dot of an N-wide row of Q, where a row step is a dot and a weight update
# on a D-wide row: the six node solves of a D = 294 probe took 0.54, 0.60 and
# 0.51 of the row form's CPU time at N = 200, 600 and 1211 (Q of 0.3, 2.9 and
# 11.7 MB), with BLAS on one thread.
_GRAM_ENTRIES = 1 << 21


# Projected gradients within this of 0 are roundoff, as at a free variable
# already at its optimum, and leave a shrink threshold off as an exact 0 does:
# otherwise shrinking would turn on or off with the last bit of a dot product,
# which differs between the narrow loop and BLAS.
_ROUNDOFF = 1e-12


def _regularizer_multipliers(graph: GraphSpec, eta0: float) -> np.ndarray:
    """Per-clique penalty multipliers eta: 1 + eta0 for an undirected graph's
    multi-output cliques, which appear in several node scores, and 1 for every
    other clique.  eta0 comes checked, from ``TrainConfig`` or ``WeightVector``."""
    eta = np.ones(graph.n_cliques, dtype=np.float64)
    if graph.kind == UNDIRECTED:
        eta[np.diff(graph.cliques.indptr) >= 2] = 1.0 + eta0
    return eta


def _blocks(graph: GraphSpec, dataset: Dataset, groups):
    """The cliques that constraint groups touch, sorted, which index the
    solve's weights; and per group, its columns among them with the features
    of its cliques.  A solve holds only its own groups' features."""
    cliques = sorted({j for g in groups for j in g})
    local = {j: k for k, j in enumerate(cliques)}
    blocks = [
        (np.array([local[j] for j in g], dtype=np.intp), _features(graph, dataset, g)) for g in groups
    ]
    return cliques, blocks


def _stationary_weights(blocks, eta, alpha) -> np.ndarray:
    """The weights alpha implies through the stationarity identity:
    w_j = (1/eta_j) * sum over constraints touching clique j of alpha * f_j."""
    w = np.zeros(len(eta), dtype=np.float64)
    for (cols, block), a in zip(blocks, alpha):
        # BLAS sums in an order set by memory layout; a row-major block.T fixes it
        w[cols] += block.T.copy() @ a
    w /= eta
    return w


def _box_objectives(blocks, eta, box, alpha) -> tuple[np.ndarray, float, float, float]:
    """The certificate at alpha: the weights it implies
    (``_stationary_weights``), the box-scaled primal and dual there, and the
    largest |projected gradient| over every dual variable.

    The primal is 0.5*sum eta w^2 + box * total hinge and the dual is
    sum(alpha) - 0.5*sum eta w^2.  Each group's margins w . f are taken once
    and give both its hinge terms, 1 - margin, and its gradients, margin - 1.
    """
    w = _stationary_weights(blocks, eta, alpha)
    reg = 0.5 * float(eta @ (w * w))
    hinge = max_pg = 0.0
    for (cols, block), a in zip(blocks, alpha):
        margin = block @ w[cols]
        hinge += float(np.maximum(0.0, 1.0 - margin).sum())
        grad = margin - 1.0
        pg = np.where(a <= 0.0, np.minimum(grad, 0.0), np.where(a >= box, np.maximum(grad, 0.0), grad))
        max_pg = max(max_pg, float(np.abs(pg).max()))
    return w, reg + box * hinge, float(alpha.sum()) - reg, max_pg


def _solve_dual(blocks, eta, box, rng, max_epochs, tol, node, start):
    """Coordinate descent over dual variables alpha[group, instance] in [0, box].

    ``blocks`` are the constraint groups from ``_blocks``; ``eta`` has one
    entry per weight.  The solve starts from the duals ``start`` (G, N), each
    in [0, box]; a cold start is all zeros.

    Each step moves one alpha to the exact optimum of the dual restricted to
    that coordinate; the dual objective never decreases.  An epoch visits
    every *active* constraint once in a fresh random order.  The gradient of
    coordinate t is (Q alpha)_t - 1 with Q = F F^T / eta, and a step reads it
    in one of three forms, chosen once per solve:

    - narrow, when every group is at most ``_NARROW_WIDTH`` columns wide:
      rows, update rows, columns and w are Python lists, the gradient is
      f_t . w and a move adds the change times the row's 1/eta-scaled copy
      to w, each a plain loop of float arithmetic, which beats NumPy's
      per-call overhead on short rows;
    - rows, for any other solve: the same on NumPy rows, each indexing w
      through its group's column array;
    - dual, for a wide solve of one group (a directed node's) whose Q holds
      at most ``_GRAM_ENTRIES`` entries: Q is built once, from the block as
      it is, the gradient is one dot of row t of Q with alpha as a NumPy
      vector, and a move writes alpha[t] alone.

    The row forms start from the weights the start implies
    (``_stationary_weights``; zero for a cold start) and carry them between
    certificates; the dual form keeps no weights.

    Shrinking (Hsieh et al., ICML 2008, as in LIBLINEAR): a constraint is
    dropped from the active set when its alpha sits at 0 with a gradient
    above the previous epoch's largest projected gradient, or at the box
    with a gradient below the previous epoch's smallest (thresholds are
    infinite when that value has the wrong sign or is roundoff, within
    ``_ROUNDOFF`` of 0).  A dropped constraint's projected gradient is
    exactly 0.  Once the largest absolute projected gradient met in an epoch
    is at most tol, every constraint is restored and the thresholds reset.

    Only an epoch that can certify or stop, one that met no projected
    gradient beyond tol or the last one, takes the certificate from
    ``_box_objectives`` at the weights alpha implies: the duality gap and the
    largest projected gradient over all of alpha.  The row forms continue
    from those weights (shedding update drift); other epochs carry the
    incrementally updated w into the next.  The solve terminates when an
    epoch that started on the full set meets no projected gradient beyond
    tol and both halves of the certificate are at most tol.

    Returns (w, alpha, SolveReport) with the report filed under ``node``; the
    report's gap and max_projected_gradient are the last certificate's.
    """
    G, N = start.shape
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
    # zeros share one float object, as in a list built as [0.0] * n: distinct
    # zero objects would cost memory and cache misses on every visit.  Steps
    # read alpha from this list; the dual form's dots read a NumPy copy.
    alpha = [a or 0.0 for a in start.ravel().tolist()]
    # Per constraint t: its feature row, its update row and the columns of w
    # they touch, for this solve only.  A narrow solve holds them and w as
    # Python lists of floats, a row solve as NumPy row views and an index
    # into a NumPy w; a dual solve holds only the rows of Q.
    narrow = max(len(cols) for cols, _ in blocks) <= _NARROW_WIDTH
    gram = not narrow and G == 1 and N * N <= _GRAM_ENTRIES
    if gram:
        rows = list(Fg[0] @ Fg_over_eta[0].T)
        alpha_vec = np.array(alpha)
    else:
        w = _stationary_weights(blocks, eta, start)
        if narrow:
            rows = [r for b in Fg for r in b.tolist()]
            updates = [r for b in Fg_over_eta for r in b.tolist()]
            group_cols = [cols.tolist() for cols, _ in blocks]
            w = w.tolist()
        else:
            rows = [r for b in Fg for r in b]
            updates = [r for b in Fg_over_eta for r in b]
            group_cols = [cols for cols, _ in blocks]
        row_cols = [c for c in group_cols for _ in range(N)]
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
            if gram:
                grad = float(dot(rows[t], alpha_vec)) - 1.0
            elif narrow:
                cols = row_cols[t]
                grad = 0.0
                for f, j in zip(rows[t], cols):
                    grad += f * w[j]
                grad -= 1.0
            else:
                cols = row_cols[t]
                grad = float(dot(rows[t], w[cols])) - 1.0
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
                    if gram:
                        alpha_vec[t] = na
                    elif narrow:
                        for u, j in zip(updates[t], cols):
                            w[j] += step * u
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
        w_refreshed, primal, dual, pg_all = _box_objectives(blocks, eta, box, alpha_gn)
        gap = primal - dual
        if max_pg <= tol:
            if started_full and gap <= tol and pg_all <= tol:
                converged = True
                break
            active = full_set
            shrink_hi, shrink_lo = np.inf, -np.inf
        if not gram:
            w = w_refreshed.tolist() if narrow else w_refreshed
    return w_refreshed, alpha_gn, SolveReport(node, epoch, gap, pg_all, converged, steps, gap / primal)


def _box_bound(lam: float, n: int) -> float:
    box = 1.0 / (lam * n)
    if not (0 < box < math.inf):
        raise DataError(f"box bound 1/(lambda*n) is {box} for lambda={lam}, n={n}; need a positive finite bound")
    return box


def train_lmsbn(
    dataset: Dataset,
    graph: GraphSpec,
    config: TrainConfig | None = None,
    start: DualState | None = None,
) -> TrainResult:
    """Fit a directed graph: one independent margin problem per node.

    Node i's problem sees only the cliques it owns, with the remaining
    labels fixed to their observed values.  ``start`` optionally gives the
    duals to start from (see ``_train``).
    """
    if graph.kind != DIRECTED:
        raise GraphError("this trainer needs a directed graph")
    return _train(dataset, graph, config or TrainConfig(), start)


def train_lmbm(
    dataset: Dataset,
    graph: GraphSpec,
    config: TrainConfig | None = None,
    start: DualState | None = None,
) -> TrainResult:
    """Fit an undirected graph: one joint problem over all (node, instance)
    pairs, optionally started from the duals of ``start`` (see ``_train``)."""
    if graph.kind != UNDIRECTED:
        raise GraphError("this trainer needs an undirected graph")
    return _train(dataset, graph, config or TrainConfig(), start)


def _start_alpha(start: DualState | None, shape: tuple[int, int], box: float) -> np.ndarray:
    """The duals a training run starts from: zeros without a start, else the
    start's alpha, which must be a finite (K, N) array inside [0, box]."""
    if start is None:
        return np.zeros(shape, dtype=np.float64)
    try:
        alpha = np.array(start.alpha, dtype=np.float64)  # a copy: training writes into it
    except (TypeError, ValueError) as exc:
        raise DataError(f"starting duals are not a numeric array: {exc}") from None
    if alpha.shape != shape:
        raise DataError(f"starting duals have shape {alpha.shape}, need (outputs, instances) = {shape}")
    if not np.all(np.isfinite(alpha)):
        raise DataError("starting duals contain non-finite values")
    if not (alpha.min() >= 0.0 and alpha.max() <= box):
        raise DataError(
            f"starting duals span [{alpha.min()!r}, {alpha.max()!r}], outside the box [0, {box!r}] "
            "(trained at another lambda or instance count?)"
        )
    return alpha


def _train(dataset: Dataset, graph: GraphSpec, config: TrainConfig, start: DualState | None) -> TrainResult:
    """One dual solve per directed node over the cliques it owns, or one
    joint solve over every node of an undirected graph.

    A solve's shuffle seed is (shuffle_seed, its first node): (seed, i) for
    directed node i, (seed, 0) for the joint solve.  Every solve starts from
    the duals of its nodes in ``start.alpha`` (K, N), or from zero without a
    start.  Any duals in the box [0, 1/(lam*N)] are feasible for every
    problem over the same (node, instance) constraints, such as those of a
    directed probe over the same data at the same lambda, whatever cliques
    each node owns.
    """
    eta = _regularizer_multipliers(graph, config.eta0)
    box = _box_bound(config.lam, dataset.n_instances)
    K = graph.n_outputs
    solves = [(i, [i]) for i in range(K)] if graph.kind == DIRECTED else [(None, list(range(K)))]
    w = np.zeros(graph.n_cliques, dtype=np.float64)
    alpha = _start_alpha(start, (K, dataset.n_instances), box)
    reports = []
    for node, nodes in solves:
        cliques, blocks = _blocks(graph, dataset, [graph.contributing[i] for i in nodes])
        rng = np.random.default_rng((config.shuffle_seed, nodes[0]))
        w_solve, alpha_solve, report = _solve_dual(
            blocks, eta[cliques], box, rng, config.max_epochs, config.tolerance, node, alpha[nodes]
        )
        w[cliques] = w_solve
        alpha[nodes] = alpha_solve
        reports.append(report)
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    return TrainResult(weights=weights, state=DualState(graph, alpha, weights), reports=tuple(reports))


def mean_joint_loss(dataset: Dataset, graph: GraphSpec, weights: WeightVector) -> float:
    """Mean joint hinge loss at the observed labels."""
    Z = batch_scorer(graph, weights, dataset.X).margin_block(dataset.Y)
    return float(np.maximum(0.0, 1.0 - Z).sum()) / dataset.n_instances


def primal_objective(
    dataset: Dataset,
    graph: GraphSpec,
    weights: WeightVector,
    config: TrainConfig | None = None,
) -> float:
    """Mean joint hinge loss plus lam * sum eta w^2: the penalty weighs twice
    its lam/2 in the objective training minimizes, so trained weights need not
    minimize this one.

    Regularization constants default to the ones stored with the weights;
    pass a config to evaluate under different ones.
    """
    scale = config if config is not None else weights
    eta = _regularizer_multipliers(graph, scale.eta0)
    w = weights.values
    return mean_joint_loss(dataset, graph, weights) + scale.lam * float(eta @ (w * w))


def _state_objectives(state: DualState, dataset: Dataset, config: TrainConfig | None):
    """The solver's certificate (weights, box primal, dual, max |pg|) at the state's alpha."""
    scale = config if config is not None else state.weights
    graph = state.graph
    _, blocks = _blocks(graph, dataset, graph.contributing)
    eta = _regularizer_multipliers(graph, scale.eta0)
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
    _, primal, dual, _ = _state_objectives(state, dataset, config)
    return primal - dual
