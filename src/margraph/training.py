"""Hinge-loss training by dual active-set and interior-point solves.

The training problem minimizes

    (1/N) sum_l joint_loss(x_l, y_l) + (lam/2) * sum_j eta_j * w_j^2

over clique weights w, where eta_j is 1 except for multi-output cliques of
an undirected graph, which get 1 + eta0 (``_regularizer_multipliers``).
Rescaled by 1/lam, it is 0.5 * sum eta w^2 + C * sum_l joint_loss.  In
v = eta^(1/2) * w, with each clique's features scaled by eta^(-1/2) once
(``_blocks``), that is a plain SVM primal, 0.5 * |v|^2 + C * total hinge,
whose dual is box-constrained, with per-constraint upper bound
C = 1/(lam*N): one constraint per (node, instance) pair, with feature row
f_j = clique parity * input value * eta_j^(-1/2).  Margins come out as
z_il = v . f(:,il) because the parity includes the node's own label.  Every
solver and the certificate work on v; each solve maps it back once.

Both model kinds train through one loop of dual solves.  Directed graphs
decompose into one independent solve per node over the cliques it owns
(cliques partition by owner; a node that owns none still gets its solve,
with every dual at the box); undirected graphs couple all nodes through
shared weights and take one joint solve.  Each solve holds the features of
its own constraint groups only, and every solve is certified the same way:
the duality gap and the largest projected gradient at the weights its duals
imply (``_box_objectives``), both at most the tolerance.

Every solve takes one order of methods, each only while the solve has not
certified and epochs are left (``_train``; each Newton iteration is an
epoch):

1. A solve of one constraint group with no more rows N than columns
   (``_route``) runs the primal-dual active-set method (``_active_set``)
   from its start: Newton steps on the Gram matrix Q = F F^T, each solving
   for the duals it predicts free, until a predicted set repeats.
2. Every other solve, and one whose active set did not certify, runs
   Mehrotra's predictor-corrector interior point (``_interior_point``) from
   the centre of the box, with one Cholesky factor of a d x d matrix per
   iteration for d weights.  The directed nodes of one call run in
   lockstep, in stacks of at most ``_IP_STACK`` duals, each leaving its
   stack at mu below 1e-14 * C, a failed factor or its cap.  Its duals are
   then snapped onto the bounds they lie within 1e-6 * C of.
3. Interior-point duals that do not certify start the active set again, a
   crossover (Megiddo, ORSA J. Comput. 1991; Mehrotra and Ye, Math.
   Programming 1993), with the epochs left.  It runs on proximal-point
   subproblems (Rockafellar, SIAM J. Control Optim. 1976), whose free
   systems are positive definite however many duals are free, and the
   solve records the duals it ends on.

A solve starts from zero duals, or from given ones (``start=``, a
``DualState``), which the active set of step 1 uses and the interior point
does not.  Any duals in [0, C] are feasible, so the terminal duals of
another problem over the same (node, instance) constraints and box are a
start, as the ordering probe's are for the full directed problem (warm
start: Hsieh et al., ICML 2008; Chu, Zhuang and Lin, KDD 2015).
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
    """Knobs for the dual solvers; ``max_epochs`` caps each solve's Newton
    iterations.  ``shuffle_seed`` is checked but changes nothing: no solver
    draws a random number."""

    lam: float = 0.01
    eta0: float = 0.0
    max_epochs: int = 1000
    tolerance: float = 1e-4
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        _check_regularization(self.lam, self.eta0)
        _check_seed(self.shuffle_seed)
        _check_int(self.max_epochs, "max_epochs", 1)
        _check_real(self.tolerance, "tolerance")
        if not (0 < self.tolerance < math.inf):
            raise DataError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class SolveReport:
    """Convergence record for one dual solve (one node, or None for joint).

    ``epochs`` counts Newton iterations (active-set, interior-point and
    crossover; 0 when every Newton method broke down before its first
    iteration); ``rel_gap`` is the gap divided by the box-scaled primal.
    """

    node: int | None
    epochs: int
    gap: float
    max_projected_gradient: float
    converged: bool
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


def _check_dims(graph: GraphSpec, dataset: Dataset) -> None:
    """A DataError unless the dataset's label and input counts are the graph's."""
    if dataset.n_outputs != graph.n_outputs or dataset.n_inputs != graph.n_inputs:
        raise DataError(
            f"dataset dims ({dataset.n_outputs} outputs, {dataset.n_inputs} inputs) "
            f"do not match graph ({graph.n_outputs}, {graph.n_inputs})"
        )


def _features(graph: GraphSpec, dataset: Dataset, cliques) -> np.ndarray:
    """(N, len(cliques)) C-contiguous features of the given cliques."""
    _check_dims(graph, dataset)
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


def _regularizer_multipliers(graph: GraphSpec, eta0: float) -> np.ndarray:
    """Per-clique penalty multipliers eta: 1 + eta0 for an undirected graph's
    multi-output cliques, which appear in several node scores, and 1 for every
    other clique.  eta0 comes checked, from ``TrainConfig`` or ``WeightVector``."""
    eta = np.ones(graph.n_cliques, dtype=np.float64)
    if graph.kind == UNDIRECTED:
        eta[np.diff(graph.cliques.indptr) >= 2] = 1.0 + eta0
    return eta


# Over a solve's m = G * N constraint rows f_l, of squared mass S = sum |f_l|^2,
# duals in [0, box] give |v| <= box * sum |f_l| <= box * sqrt(m S), margins
# |f_l . v| <= box * sqrt(m) * S and Gram entries at most S.  So at reach =
# box * m * max(1, S) <= _FEATURE_REACH, |v|^2 <= reach^2, sum(alpha) and each
# margin <= reach, and box * hinge <= reach * (1 + reach): every term of the
# certificate (``_box_objectives``) stays below ~1e300 < 2^1023.
_FEATURE_REACH = 1e150


def _blocks(graph: GraphSpec, dataset: Dataset, groups, eta: np.ndarray, box: float):
    """The cliques that constraint groups touch, sorted, which index the
    solve's weights; and per group, its columns among them with the features
    of its cliques times eta^(-1/2), one eta per clique of the graph (a group
    whose eta is all 1 keeps them as built, as x * 1.0 == x).  A DataError
    if duals in [0, box] could overflow the certificate (``_FEATURE_REACH``)."""
    cliques = sorted({j for g in groups for j in g})
    local = {j: k for k, j in enumerate(cliques)}
    blocks = []
    for g in groups:
        F, scale = _features(graph, dataset, g), eta[list(g)]
        if np.any(scale != 1.0):
            F *= 1.0 / np.sqrt(scale)
        blocks.append((np.array([local[j] for j in g], dtype=np.intp), F))
    with np.errstate(over="ignore"):  # an overflow reads inf, which the rule refuses
        mass = sum(float(np.einsum("ij,ij->", F, F)) for _, F in blocks)
        reach = box * len(groups) * dataset.n_instances * max(1.0, mass)
    if not reach <= _FEATURE_REACH:
        raise DataError(f"the features make training overflow: box * rows * max(1, sum of squared features) "
                        f"is {reach:.3e}, above {_FEATURE_REACH:.0e} (rescale the inputs)")
    return cliques, blocks


def _width(blocks) -> int:
    """The number of a solve's weights: every column of a solve is some
    group's, so the largest sets it."""
    return max((int(cols.max()) + 1 for cols, _ in blocks if cols.size), default=0)


def _stationary_weights(blocks, alpha) -> np.ndarray:
    """The weights alpha implies through the stationarity identity:
    v_j = sum over constraints touching clique j of alpha * f_j."""
    v = np.zeros(_width(blocks))
    for (cols, block), a in zip(blocks, alpha):
        # BLAS sums in an order set by memory layout; a row-major block.T fixes it
        v[cols] += block.T.copy() @ a
    return v


def _box_objectives(blocks, box, alpha) -> tuple[np.ndarray, float, float, float]:
    """The certificate at alpha: the weights v it implies
    (``_stationary_weights``), the box-scaled primal and dual there, and the
    largest |projected gradient| over every dual variable.

    The primal is 0.5*|v|^2 + box * total hinge and the dual is
    sum(alpha) - 0.5*|v|^2.  Each group's margins v . f are taken once
    and give both its hinge terms, 1 - margin, and its gradients, margin - 1.
    """
    v = _stationary_weights(blocks, alpha)
    reg = 0.5 * float(v @ v)
    hinge = max_pg = 0.0
    for (cols, block), a in zip(blocks, alpha):
        margin = block @ v[cols]
        hinge += float(np.maximum(0.0, 1.0 - margin).sum())
        grad = margin - 1.0
        pg = np.where(a <= 0.0, np.minimum(grad, 0.0), np.where(a >= box, np.maximum(grad, 0.0), grad))
        max_pg = max(max_pg, float(np.abs(pg).max()))
    return v, reg + box * hinge, float(alpha.sum()) - reg, max_pg


def _route(widths, n: int) -> str:
    """The routing rule: which Newton method a solve with constraint groups
    of these widths over n training rows runs first, whatever its start.

    - ``"active set"``: a single group with n no larger than its width: its
      n x n Gram matrix can then be positive definite, and is no larger than
      the interior point's matrices;
    - ``"interior point"``: every other solve.

    A solve whose active set does not certify goes on to the interior point.
    """
    if len(widths) == 1 and n <= widths[0]:
        return "active set"
    return "interior point"


def _rows(blocks, chosen: np.ndarray, width: int) -> np.ndarray:
    """The feature rows that the (G, N) mask ``chosen`` picks, group by
    group, each spread over the solve's ``width`` columns."""
    A = np.zeros((int(chosen.sum()), width), dtype=np.float64)
    end = 0
    for (cols, F), rows in zip(blocks, chosen):
        start, end = end, end + int(rows.sum())
        A[start:end, cols] = F[rows]
    return A


# The crossover's proximal weight r starts at _PROX_START * c, for c the
# mean of diag Q; an accepted trial divides it by ten, down to
# _PROX_FLOOR * c, and a rejected one multiplies it by ten.  Each trial takes
# at most _PROX_ITERATIONS Newton iterations.  On tests/solve_census.py a
# floor of 1e-3 * c raised the largest iteration count from 30 to 70 (1e-6
# and 1e-9 gave the same counts); without the cap on a trial's iterations,
# 4 of 602 solves whose interior point stopped after 1-6 iterations ended
# uncertified at 1000.
_PROX_START = 1e-3
_PROX_FLOOR = 1e-9
_PROX_ITERATIONS = 10


def _active_set(blocks, box: float, start: np.ndarray, max_iterations: int, rho: float, tol: float):
    """The primal-dual active-set method (Hintermueller, Ito and Kunisch,
    SIAM J. Optim. 2002; for box bounds, Kunisch and Rendl, SIAM J. Optim.
    2003) on min 0.5 alpha^T Q alpha - 1^T alpha over 0 <= alpha <= box,
    Q = F F^T for the features F of the constraint groups ``blocks`` of
    ``_blocks``, from the duals ``start`` (G, N).

    An iteration on Q + r I with linear term 1 + r * centre (r = 0 is the
    plain dual) predicts the bound sets from alpha - g/(c + r), with
    gradient g = Q alpha - 1 + r (alpha - centre) and c the mean of diag Q:
    a dual whose prediction is at most 0 is pinned to 0, one at least the
    box to the box, and the free duals (the set R) solve
    (Q_RR + r I) alpha_R = 1 + r centre_R - box * Q_RU 1 (U the duals at the
    box), by an LU solve (at N = 200 it takes half the time of NumPy's
    Cholesky factor alone).  Where G * N is at most the solve's width it
    forms Q once.  Otherwise it works in weight space: g is the margins at
    the weights alpha implies (``_stationary_weights``) less 1, and Q_RR is
    built from the free rows A_R alone, or, when more duals are free than
    there are weights, alpha_R = A_R y + e/r with e = 1 + r centre_R and
    (A_R^T A_R + r I) y = -v_pin - A_R^T e/r for the pinned duals' weights
    v_pin, which keeps the system within width^2 and solves the part of e
    outside the range of A_R exactly.

    The iterations stop when the predicted sets are the last iteration's,
    where alpha meets the optimality conditions up to roundoff, or an
    earlier one's (a cycle); when a solve fails or is not finite, keeping
    the last iterate; or at their cap.

    With ``rho`` = 0 (step 1 of ``_train``) it makes these iterations on
    the plain dual from the start, up to ``max_iterations``, and also stops
    when more duals are free than the solve has weights (Q_RR is then
    singular).  With ``rho`` > 0 it is a proximal-point method (Rockafellar,
    SIAM J. Control Optim. 1976), the crossover of step 3: r starts at
    rho * c, and each trial makes at most ``_PROX_ITERATIONS`` iterations
    on Q + r I centred at the last accepted duals, first the start.  A trial
    whose certificate (``_box_objectives``) meets ``tol`` ends the run; one
    that raises the dual objective or shrinks the gap is accepted, and r
    falls tenfold to no less than ``_PROX_FLOOR * c``; another leaves the
    centre, and r rises tenfold.

    Returns the duals (G, N) in the box, the last iterate clipped to it or,
    with ``rho`` > 0, the certified trial or else the last accepted centre,
    and the number of iterations, one per Newton solve.
    """
    G, N = start.shape
    width = _width(blocks)
    if G * N <= width:
        A = _rows(blocks, np.ones((G, N), dtype=bool), width)
        Q = A @ A.T
        c = float(np.trace(Q)) / len(Q)

        def margins(alpha):
            return (Q @ alpha.ravel()).reshape(G, N)

        def gram(free):
            free = free.ravel()
            return Q[np.ix_(free, free)]
    else:
        c = sum(float(np.einsum("ij,ij->", F, F)) for _, F in blocks) / (G * N)

        def lower(v):
            return np.array([F @ v[cols] for cols, F in blocks])

        def margins(alpha):
            return lower(_stationary_weights(blocks, alpha))

        def gram(free):
            A = _rows(blocks, free, width)
            return A @ A.T

    def solve_free(pinned, free, r, e):
        """The free duals' values alpha_R of an iteration, for the pinned
        duals ``pinned`` and linear term ``e`` (G, N)."""
        if free.sum() <= width:
            M = gram(free)
            M[np.diag_indices_from(M)] += r
            return np.linalg.solve(M, (e - margins(pinned))[free])
        # more free duals than weights: only at r > 0, and only in weight space
        M = np.zeros((width, width))
        M[np.diag_indices_from(M)] = r
        for (cols, F), rows in zip(blocks, free):
            F = F[rows]
            M[np.ix_(cols, cols)] += F.T @ F
        free_e = np.where(free, e, 0.0)
        y = np.linalg.solve(M, -_stationary_weights(blocks, pinned) - _stationary_weights(blocks, free_e) / r)
        return (lower(y) + e / r)[free]

    def newton(centre, r, cap):
        """Iterations on Q + r I with linear term 1 + r * centre, from
        centre: the last iterate, clipped, and their number."""
        alpha = centre
        e = 1.0 + r * centre
        seen = set()
        iterations = 0
        while iterations < cap:
            guess = alpha - (margins(alpha) - 1.0 + r * (alpha - centre)) / (c + r)
            upper = guess >= box
            free = ~upper & (guess > 0.0)
            sets = upper.tobytes() + free.tobytes()
            if sets in seen or (r == 0.0 and free.sum() > width):
                break
            seen.add(sets)
            pinned = np.where(upper, box, 0.0)
            if free.any():
                try:
                    x = solve_free(pinned, free, r, e)
                except np.linalg.LinAlgError:
                    break
                if not np.isfinite(x).all():
                    break
                pinned[free] = x
            alpha = pinned
            iterations += 1
        return np.clip(alpha, 0.0, box), iterations

    with np.errstate(all="ignore"):  # a breakdown keeps the last iterate, which is certified
        if rho == 0.0:
            return newton(start, 0.0, max_iterations)
        r = rho * c
        centre = start
        _, primal, dual, _ = _box_objectives(blocks, box, centre)
        iterations = 0
        while iterations < max_iterations:
            trial, more = newton(centre, r, min(_PROX_ITERATIONS, max_iterations - iterations))
            if not more:
                break
            iterations += more
            _, trial_primal, trial_dual, max_pg = _box_objectives(blocks, box, trial)
            if trial_primal - trial_dual <= tol and max_pg <= tol:
                return trial, iterations
            if trial_dual > dual or trial_primal - trial_dual < primal - dual:
                centre, primal, dual = trial, trial_primal, trial_dual
                r = max(r / 10.0, _PROX_FLOOR * c)
            else:
                r *= 10.0
        return centre, iterations


# A problem leaves the interior point once its mean complementarity product
# mu (alpha times a gradient-scale multiplier) is below _IP_MU * box, which
# scales with the box whatever the features' scale; the certificate judges
# its duals.  The Newton matrix spans about (box / mu)^2: one Scene-size
# node's factor failed at mu = 2e-16 box, and a node at box = 93 stalled
# below mu = 1e-14 where the same mu at box = 0.17 certified.
_IP_MU = 1e-14
# Fraction of the longest step to the boundary that an iteration takes.
_IP_STEP = 0.995
# Terminal duals within _SNAP * box of a bound are moved onto it.
_SNAP = 1e-6
# Rows per diagonal block of the triangular solves.  A forward and a back
# solve took, at blocks of 16/32/64/128 rows (BLAS on one thread): d = 126
# 0.29/0.22/0.24/0.39 ms, a stack of six d = 300 1.64/1.36/1.61/2.88 ms and
# d = 1785 3.5/2.8/3.0/4.4 ms.
_TRIANGLE_BLOCK = 32
# Most duals in one interior-point stack of several solves (64 KiB per array
# of them), which bounds its memory: an iteration holds about twenty such
# arrays.  As one stack, chain40's 40 x 600 duals raised its training's
# traced peak from 1.3 to 5.1 MB and the benchmark's peak RSS from 42.1 to
# 49.6 MB; in stacks of 10 nodes the peak is 1.5 MB, for ~10% more CPU time.
_IP_STACK = 1 << 13


def _stacked(problems, n: int):
    """The interior point's constraint groups for a stack of problems
    (``(cliques, blocks)`` pairs): per group, its columns among the solve's
    and its features, with a leading axis over the problems; and the number
    of columns.  One problem keeps its own groups, as views.  Several, each
    of one group (directed nodes), share one group zero-padded to the
    widest, each problem's features in its own columns."""
    if len(problems) == 1:
        [(cliques, blocks)] = problems
        return [(cols, block[None]) for cols, block in blocks], max(1, len(cliques))
    width = max(1, max(len(cliques) for cliques, _ in problems))
    F = np.zeros((len(problems), n, width), dtype=np.float64)
    for f, (cliques, [(cols, block)]) in zip(F, problems):
        f[:, cols] = block
    return [(np.arange(width), F)], width


def _lift(blocks, alpha, width: int) -> np.ndarray:
    """G^T alpha for each problem of a stack, (B, width), with G the stacked
    features of ``_stacked`` and alpha (B, groups, N)."""
    u = np.zeros((alpha.shape[0], width), dtype=np.float64)
    for (cols, F), a in zip(blocks, alpha.transpose(1, 0, 2)):
        u[:, cols] += np.matmul(a[:, None, :], F)[:, 0]
    return u


def _lower(blocks, u) -> np.ndarray:
    """G u for each problem of a stack, (B, groups, N)."""
    out = np.empty((len(u), len(blocks), blocks[0][1].shape[1]), dtype=np.float64)
    for g, (cols, F) in enumerate(blocks):
        np.matmul(F, u[:, cols, None], out=out[:, g, :, None])
    return out


def _factor(blocks, D, width: int):
    """Cholesky factors of I + G^T D^(-1) G for each problem of a stack,
    assembled group by group, and which ones failed (not positive definite,
    or not finite).  When the stacked factor fails, each problem's factor is
    written over its own matrix, all NaN where it fails, so the stack of
    d x d matrices is held once."""
    M = np.zeros((len(D), width, width), dtype=np.float64)
    M[:, np.arange(width), np.arange(width)] = 1.0
    for (cols, F), d in zip(blocks, D.transpose(1, 0, 2)):
        M[:, cols[:, None], cols] += np.matmul(F.transpose(0, 2, 1), F / d[:, :, None])
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        for m in M:
            try:
                m[...] = np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                m[...] = np.nan
        L = M
    return L, ~np.isfinite(L).all(axis=(1, 2))


def _triangular_solve(T, b, lower: bool):
    """x with T x = b for each triangular T (B, d, d) of a stack, b (B, d).
    NumPy has no triangular solve, so the rows are taken in blocks of
    ``_TRIANGLE_BLOCK``: each block's right side less the solved part, then
    an LU solve of its diagonal block, O(d^2) in all for d >> the block."""
    d = T.shape[-1]
    x = np.empty_like(b)
    starts = range(0, d, _TRIANGLE_BLOCK)
    for s in starts if lower else reversed(starts):
        e = min(s + _TRIANGLE_BLOCK, d)
        known = slice(0, s) if lower else slice(e, d)
        rest = b[:, s:e] - np.matmul(T[:, s:e, known], x[:, known, None])[..., 0]
        x[:, s:e] = np.linalg.solve(T[:, s:e, s:e], rest[..., None])[..., 0]
    return x


def _max_step(pairs) -> np.ndarray:
    """Per problem, the largest t with x + t dx >= 0 for every (x, dx) with
    x > 0: one over the largest -dx/x, or inf where none is positive."""
    rate = np.max([(-dx / x).max(axis=(1, 2)) for x, dx in pairs], axis=0)
    return np.divide(1.0, rate, out=np.full_like(rate, np.inf), where=rate > 0.0)


def _newton(blocks, L, D, width: int, rhs) -> np.ndarray:
    """d with (Q + diag D) d = rhs for each problem of a stack, Q = G G^T, by
    Sherman-Morrison-Woodbury: d = (rhs - G y) / D, where L L^T y = G^T (rhs / D)
    and L is the Cholesky factor of I + G^T D^(-1) G."""
    t = _triangular_solve(L, _lift(blocks, rhs / D, width), lower=True)
    y = _triangular_solve(L.transpose(0, 2, 1), t, lower=False)
    return (rhs - _lower(blocks, y)) / D


def _mehrotra_step(blocks, width: int, L, D, alpha, slack, z, v, r_d, r_p, mu, pairs: int) -> None:
    """One predictor-corrector step of each problem of a stack, in place,
    with the residuals r_d (dual) and r_p (alpha + slack - box), the mean
    complementarity mu and the factor L of ``_interior_point``."""
    # predictor: the affine step towards mu = 0
    da = _newton(blocks, L, D, width, v - z - r_d - v * r_p / slack)
    ds = -r_p - da
    dz = -z - z * da / alpha
    dv = -v - v * ds / slack
    t = np.minimum(1.0, _max_step([(alpha, da), (slack, ds), (z, dz), (v, dv)]))[:, None, None]
    mu_aff = (((alpha + t * da) * (z + t * dz)).sum(axis=(1, 2))
              + ((slack + t * ds) * (v + t * dv)).sum(axis=(1, 2))) / pairs
    sigma_mu = ((mu_aff / mu) ** 3 * mu)[:, None, None]
    # corrector: centre at sigma * mu and cancel the predictor's second-order term
    r_az = alpha * z + da * dz - sigma_mu
    r_sv = slack * v + ds * dv - sigma_mu
    del da, ds, dz, dv
    da = _newton(blocks, L, D, width, (r_sv - v * r_p) / slack - r_d - r_az / alpha)
    ds = -r_p - da
    dz = -(r_az + z * da) / alpha
    dv = -(r_sv + v * ds) / slack
    t = np.minimum(1.0, _IP_STEP * _max_step([(alpha, da), (slack, ds), (z, dz), (v, dv)]))[:, None, None]
    alpha += t * da
    slack += t * ds
    z += t * dz
    v += t * dv


def _interior_point(blocks, width: int, box: float, max_iterations: np.ndarray):
    """Mehrotra's predictor-corrector (SIAM J. Optim. 1992) on each problem
    of a stack: minimise 0.5 alpha^T Q alpha - 1^T alpha over 0 <= alpha <= box,
    Q = G G^T, G the features of ``_blocks`` as ``_stacked`` lays them out
    (``blocks`` and ``width``): the same plain dual as every other solver's.

    The variables are alpha, its upper slack s = box - alpha (its own
    variable: box - alpha cancels near the box), and the multipliers z of
    alpha >= 0 and v of s >= 0.  A Newton step solves (Q + D) d = r, with
    D = z/alpha + v/s, by Sherman-Morrison-Woodbury through one Cholesky
    factor of I + G^T D^(-1) G (Ferris and Munson, SIAM J. Optim. 2002),
    assembled group by group; the predictor and the corrector share it.
    It starts at the centre of the box with unit multipliers.  Each problem
    takes its own step lengths and mu, and leaves the stack on one of three
    conditions: mu below ``_IP_MU * box``, a failed factor, or its own cap
    of iterations, ``max_iterations`` (B,).  A problem that leaves takes its
    features out of ``blocks``.

    Returns the duals (B, groups, N) in [0, box], each within ``_SNAP * box``
    of a bound moved onto it, and each problem's iteration count.
    """
    B, N = blocks[0][1].shape[:2]
    G = len(blocks)
    pairs = 2 * G * N
    # the centre of the box, with unit multipliers: every pair starts at
    # the same product box/2 (gradients are margins less 1, of scale 1)
    alpha = np.full((B, G, N), 0.5 * box)
    slack = alpha.copy()
    z = np.ones_like(alpha)
    v = np.ones_like(alpha)
    final = np.empty_like(alpha)
    iterations = np.zeros(B, dtype=np.intp)
    live = np.arange(B)
    with np.errstate(all="ignore"):  # a problem that breaks down leaves; its duals are certified
        while live.size:
            r_d = _lower(blocks, _lift(blocks, alpha, width)) - 1.0 - z + v
            r_p = alpha + slack - box
            mu = ((alpha * z).sum(axis=(1, 2)) + (slack * v).sum(axis=(1, 2))) / pairs
            D = z / alpha + v / slack
            L, failed = _factor(blocks, D, width)
            leave = failed | (iterations[live] >= max_iterations[live]) | (mu < _IP_MU * box)
            if leave.any():
                # the rest take this iteration again, without the leavers
                final[live[leave]] = alpha[leave]
                keep = ~leave
                live = live[keep]
                blocks[:] = [(cols, F[keep]) for cols, F in blocks]
                alpha, slack, z, v = (x[keep] for x in (alpha, slack, z, v))
                continue
            iterations[live] += 1
            _mehrotra_step(blocks, width, L, D, alpha, slack, z, v, r_d, r_p, mu, pairs)
            del L  # d x d: the next factor need not meet this one
    final = np.clip(np.nan_to_num(final), 0.0, box)
    final[final <= _SNAP * box] = 0.0
    final[final >= box - _SNAP * box] = box
    return final, iterations


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


def _solves(graph: GraphSpec):
    """The dual solves a graph decomposes into, in order, as (node, nodes,
    constraint groups): one per directed node, or one joint solve (None)."""
    K = graph.n_outputs
    solves = [(i, [i]) for i in range(K)] if graph.kind == DIRECTED else [(None, list(range(K)))]
    return [(node, nodes, [graph.contributing[i] for i in nodes]) for node, nodes in solves]


def _train(dataset: Dataset, graph: GraphSpec, config: TrainConfig, start: DualState | None) -> TrainResult:
    """One dual solve per directed node over the cliques it owns, or one
    joint solve over every node of an undirected graph (``_solves``).

    Every solve starts from the duals of its nodes in ``start.alpha`` (K,
    N), feasible as the module docstring says, or from zero without a start.

    Every solve takes one order, each step only while it has not certified
    and epochs are left:

    1. the active set from the solve's start, where ``_route`` sends it;
    2. the interior point from the centre of the box, with the solve's
       epochs left, in stacks of at most ``_IP_STACK`` duals, or one solve;
    3. the proximal active set from the interior point's duals, a
       crossover, with the epochs left.

    The solve records the duals of its last step, certified or not, with
    the certificate that decided it: each step's duals are certified once.
    """
    eta = _regularizer_multipliers(graph, config.eta0)
    n = dataset.n_instances
    box = _box_bound(config.lam, n)
    solves = _solves(graph)
    w = np.zeros(graph.n_cliques, dtype=np.float64)
    alpha = _start_alpha(start, (graph.n_outputs, n), box)
    reports = [None] * len(solves)

    def certify(k, cliques, blocks, a, done):
        """Record solve k at the duals ``a`` that ``done`` Newton iterations
        reached, with their certificate, and return whether it certified; a
        later record of the solve replaces this one."""
        v, primal, dual, max_pg = _box_objectives(blocks, box, a)
        gap = primal - dual
        certified = gap <= config.tolerance and max_pg <= config.tolerance
        w[cliques], alpha[solves[k][1]] = v / np.sqrt(eta[cliques]), a  # v = eta^(1/2) w
        reports[k] = SolveReport(solves[k][0], done, gap, max_pg, certified, gap / primal)
        return certified

    interior = []
    for k, (_, nodes, groups) in enumerate(solves):
        done = 0
        if _route([len(g) for g in groups], n) == "active set":
            cliques, blocks = _blocks(graph, dataset, groups, eta, box)
            a, done = _active_set(blocks, box, alpha[nodes], config.max_epochs, 0.0, config.tolerance)
            if certify(k, cliques, blocks, a, done) or done == config.max_epochs:
                continue
        interior.append((k, groups, done))
    # the interior-point solves in equal stacks of at most _IP_STACK duals, or one solve
    per_stack = max(1, _IP_STACK // (n * len(solves[0][1])))
    stacks = math.ceil(len(interior) / per_stack)
    for j in range(stacks):
        stack = interior[j * len(interior) // stacks : (j + 1) * len(interior) // stacks]
        problems = [_blocks(graph, dataset, groups, eta, box) for _, groups, _ in stack]
        left = np.array([config.max_epochs - done for _, _, done in stack])
        ip_alpha, ip_iterations = _interior_point(*_stacked(problems, n), box, left)
        for (k, _, done), (cliques, blocks), a, more in zip(stack, problems, ip_alpha, ip_iterations.tolist()):
            done += more
            if not certify(k, cliques, blocks, a, done) and done < config.max_epochs:
                # step 3, whose duals stand certified or not
                a, more = _active_set(blocks, box, a, config.max_epochs - done, _PROX_START, config.tolerance)
                certify(k, cliques, blocks, a, done + more)
    weights = WeightVector(values=w, lam=config.lam, eta0=config.eta0)
    return TrainResult(weights=weights, state=DualState(graph, alpha, weights), reports=tuple(reports))


def mean_joint_loss(dataset: Dataset, graph: GraphSpec, weights: WeightVector) -> float:
    """Mean joint hinge loss at the observed labels."""
    _check_dims(graph, dataset)
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
    """The solver's box primal and dual at the state's alpha, per solve of
    its graph in order (``_solves``), each as training certifies it."""
    scale = config if config is not None else state.weights
    graph = state.graph
    box = _box_bound(scale.lam, dataset.n_instances)
    eta = _regularizer_multipliers(graph, scale.eta0)
    return [_box_objectives(_blocks(graph, dataset, groups, eta, box)[1], box, state.alpha[nodes])[1:3]
            for _, nodes, groups in _solves(graph)]


def box_primal_objective(
    state: DualState, dataset: Dataset, config: TrainConfig | None = None
) -> float:
    """Primal value in the box scaling, 0.5*sum eta w^2 + C * total hinge, at
    the weights the state's alpha implies (a trained state's own weights)."""
    return float(sum(primal for primal, _ in _state_objectives(state, dataset, config)))


def dual_objective(state: DualState, dataset: Dataset, config: TrainConfig | None = None) -> float:
    """Dual value sum(alpha) - 0.5*sum eta w(alpha)^2 at the state's alpha."""
    return float(sum(dual for _, dual in _state_objectives(state, dataset, config)))


def duality_gap(state: DualState, dataset: Dataset, config: TrainConfig | None = None) -> float:
    """Box-scaled primal minus dual at the state's alpha, summed over the
    solves in order, so a trained state's gap is its ``TrainResult.gap``.

    Both sides are evaluated at the weights implied by alpha through the
    stationarity identity, so the gap is a pure function of alpha and is
    non-negative up to roundoff.
    """
    return float(sum(primal - dual for primal, dual in _state_objectives(state, dataset, config)))
