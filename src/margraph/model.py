"""Scores, margins, hinge objective, and exact likelihoods.

Every node i has a linear score s_i: the sum, over cliques feeding that node,
of weight * input value * parity of the OTHER member labels.  The margin of
node i is z_i = y_i * s_i, and the joint hinge loss of an assignment is
sum_i max(0, 1 - z_i).

The score is defined once, by the graph's ``layout`` of per-node terms, and
read two ways.  ``compile_scorer`` folds one input into a ``NodeScorer``: its
vectorized columns, and the scalar score the branch-and-bound search computes
from the same tables, add terms in the same order, so a search and a
brute-force enumeration produce bit-identical objectives.
``batch_scorer`` scores many inputs at full assignments (sampling, training
losses, probes).

Undirected tables (``log_prob_table``, the partition sum of
``bm_log_likelihood``, ``synth.sample_bm``) read the same layout as a sum
over clique parities.  Node i's term (j, col, partners) is
w_j * xa[col] * parity(partners), and y_i * parity(partners) is the parity of
the set S = {i} | partners, so the energy is

    E(y) = (1/2) sum_i z_i(y) = sum_S coef_S(x) * parity_S(y),
    coef_S(x) = (1/2) sum of w_j * xa[col] over the terms with set S,

one matmul of the (rows, sets) coefficients with a (sets, assignments)
parity matrix.  That matrix covers only the low bits of the assignment
index; each chunk of higher bits flips the sign of every coefficient by the
parity of the set's labels on those bits, so memory stays bounded for every
K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Instance
from .errors import CapabilityError, DataError, GraphError
from .graphs import DIRECTED, UNDIRECTED, GraphSpec

__all__ = [
    "WeightVector",
    "LossBreakdown",
    "NodeScorer",
    "compile_scorer",
    "BatchScorer",
    "batch_scorer",
    "node_margin",
    "margins",
    "joint_loss",
    "sbn_log_likelihood",
    "bm_log_likelihood",
    "log_prob_table",
    "assignment_signs",
    "signs_of_indices",
    "signs_from_index",
    "index_from_signs",
    "surrogate_bound_check",
    "HINGE_LOG_OFFSET",
    "TABLE_MAX_OUTPUTS",
    "ENUM_MAX_OUTPUTS",
]

# Exact enumeration limits: streaming enumeration caps at 2^25 states,
# materialized probability tables at 2^20 entries.
ENUM_MAX_OUTPUTS = 25
TABLE_MAX_OUTPUTS = 20
_CHUNK = 1 << 16
# The undirected parity matrix holds at most this many entries (4 MB of
# float64); larger assignment spaces are walked in chunks of low bits.
_PARITY_ENTRIES = 1 << 19

# Offset that turns the hinge loss into an upper bound on logistic loss:
# log(1 + e^-z) <= max(0, 1 - z) + log(e + 1/e) for every real z.
HINGE_LOG_OFFSET = math.log(math.e + math.exp(-1.0))


@dataclass(frozen=True)
class WeightVector:
    """One weight per clique plus the regularization constants used to fit it."""

    values: np.ndarray
    lam: float
    eta0: float = 0.0

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise DataError(f"weights must be a vector, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DataError("weights contain non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if not (self.lam > 0):
            raise DataError(f"regularization strength must be positive, got {self.lam}")
        if self.eta0 < 0:
            raise DataError(f"regularizer boost must be non-negative, got {self.eta0}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-node hinge losses and their total for one assignment."""

    per_node: np.ndarray
    total: float


@dataclass(frozen=True)
class NodeScorer:
    """Per-node score tables for one fixed input vector.

    For node i, s_i = const[i] + sum over terms[i] of w_eff * parity(others),
    where const folds in all cliques whose parity part is empty once the
    node itself is removed (biases and input couplings).  Term order follows
    clique order, which keeps scalar and vectorized sums bit-identical.

    Every score is computed by one loop, ``_score``, over per-label sign
    operands: ±1 scalars or arrays that broadcast together.  The matrix
    methods pass the columns of an (n, K) sign matrix Y.  Exhaustive
    enumeration passes a label grid instead: a ±1 scalar for each label fixed
    across a chunk of assignments, a length-2 axis for each middle label, and
    one axis over the low index bits (``GraphSpec.low_signs``).  There s_i
    spans only the axes of the partners added so far, and each term is still
    one addition of ±w_eff in term order, so every entry gets the same
    floating-point operations as the matching row of Y.
    """

    const: np.ndarray
    terms: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]
    order: tuple[int, ...]

    @property
    def n_outputs(self) -> int:
        return len(self.const)

    def _score(self, i: int, signs):
        """s_i, broadcast over the sign operands of node i's partners."""
        s = self.const[i]
        for w_eff, others in self.terms[i]:
            term = w_eff
            for k in others:
                term = term * signs[k]
            s = s + term
        return s

    def _add_losses(self, signs, total: np.ndarray) -> np.ndarray:
        """Add each node's hinge loss max(0, 1 - y_i * s_i) to total in graph order."""
        for i in self.order:
            total += np.maximum(0.0, 1.0 - signs[i] * self._score(i, signs))
        return total

    def score_column(self, i: int, Y: np.ndarray) -> np.ndarray:
        """s_i for every row of the (n, K) sign matrix Y."""
        return np.full(Y.shape[0], self._score(i, Y.T), dtype=np.float64)

    def margin_block(self, Y: np.ndarray) -> np.ndarray:
        """(n, K) matrix of margins z_i = y_i * s_i for each row of Y."""
        Z = np.empty((Y.shape[0], self.n_outputs), dtype=np.float64)
        for i in range(self.n_outputs):
            Z[:, i] = Y[:, i] * self._score(i, Y.T)
        return Z

    def total_loss_column(self, Y: np.ndarray) -> np.ndarray:
        """Joint hinge loss per row, accumulated node by node in graph order."""
        return self._add_losses(Y.T, np.zeros(Y.shape[0], dtype=np.float64))


def _augmented(graph: GraphSpec, weights: WeightVector, X, ndim: int) -> np.ndarray:
    """Validated inputs (one vector or an (n, D) matrix) as [1 | X]."""
    if len(weights) != graph.n_cliques:
        raise DataError(f"{len(weights)} weights for {graph.n_cliques} cliques")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != graph.n_inputs:
        raise DataError(f"input shape {X.shape} does not match dimension {graph.n_inputs}")
    if not np.all(np.isfinite(X)):
        raise DataError("input contains non-finite values")
    return np.concatenate((np.ones(X.shape[:-1] + (1,)), X), axis=-1)


def compile_scorer(graph: GraphSpec, weights: WeightVector, x: np.ndarray) -> NodeScorer:
    """Fold one input vector into per-node score tables."""
    xa = _augmented(graph, weights, x, 1)
    w = weights.values
    layout = graph.layout
    const = np.bincount(
        layout.unary_node,
        weights=w[layout.unary_clique] * xa[layout.unary_column],
        minlength=graph.n_outputs,
    )
    terms = tuple(
        tuple((float(w[j] * xa[col]), partners) for j, col, partners in node)
        for node in layout.coupled
    )
    return NodeScorer(const=const, terms=terms, order=graph.order)


@dataclass(frozen=True)
class BatchScorer:
    """Node scores for a batch of inputs; column i adds node i's layout
    terms one by one in ``contributing`` order, starting from zero."""

    graph: GraphSpec
    weights: WeightVector
    Xa: np.ndarray

    def column(self, i: int, Y: np.ndarray) -> np.ndarray:
        """s_i for every row; only node i's partners in Y need be assigned."""
        w = self.weights.values
        s = np.zeros(self.Xa.shape[0], dtype=np.float64)
        for j, col, partners in self.graph.layout.feeds[i]:
            term = w[j] * self.Xa[:, col]
            for k in partners:
                term = term * Y[:, k]
            s += term
        return s

    def scores(self, Y: np.ndarray) -> np.ndarray:
        """(n, K) matrix of node scores s_i for each row of Y."""
        return np.stack([self.column(i, Y) for i in range(self.graph.n_outputs)], axis=1)


def batch_scorer(graph: GraphSpec, weights: WeightVector, X: np.ndarray) -> BatchScorer:
    """Bind the (n, D) inputs X for scoring against label matrices."""
    return BatchScorer(graph, weights, _augmented(graph, weights, X, 2))


def node_margin(graph: GraphSpec, weights: WeightVector, x, y, i: int) -> float:
    """Margin z_i = y_i * s_i; y may be partial with 0 meaning unassigned."""
    if not (0 <= i < graph.n_outputs):
        raise DataError(f"node index {i} out of range for {graph.n_outputs} outputs")
    y = np.asarray(y)
    if y.shape != (graph.n_outputs,):
        raise DataError(f"label shape {y.shape} does not match {graph.n_outputs} outputs")
    if not np.all(np.isin(y, (-1, 0, 1))):
        raise DataError("labels must be +1, -1, or 0 for unassigned")
    needed = {i}.union(*(partners for _, _, partners in graph.layout.feeds[i]))
    missing = sorted(k for k in needed if y[k] == 0)
    if missing:
        raise DataError(f"margin of node {i} needs labels for nodes {missing}")
    s_i = compile_scorer(graph, weights, x).score_column(i, y[None])[0]
    return float(y[i]) * float(s_i)


def margins(graph: GraphSpec, weights: WeightVector, x, y) -> np.ndarray:
    """All node margins for a full assignment."""
    y = np.asarray(y)
    if y.shape != (graph.n_outputs,):
        raise DataError(f"label shape {y.shape} does not match {graph.n_outputs} outputs")
    if not np.all(np.isin(y, (-1, 1))):
        raise DataError("margins need a full +1/-1 assignment")
    return compile_scorer(graph, weights, x).margin_block(y[None])[0]


def joint_loss(graph: GraphSpec, weights: WeightVector, instance: Instance) -> LossBreakdown:
    """Per-node hinge losses max(0, 1 - z_i) and their sum."""
    z = margins(graph, weights, instance.x, instance.y)
    per_node = np.maximum(0.0, 1.0 - z)
    total = 0.0
    for i in range(graph.n_outputs):
        total += per_node[i]
    per_node.flags.writeable = False
    return LossBreakdown(per_node=per_node, total=total)


def sbn_log_likelihood(graph: GraphSpec, weights: WeightVector, instance: Instance) -> float:
    """Log-likelihood under the sigmoid network: sum_i log sigmoid(z_i)."""
    if graph.kind != DIRECTED:
        raise GraphError("sigmoid-network likelihood needs a directed graph")
    z = margins(graph, weights, instance.x, instance.y)
    return float(-np.logaddexp(0.0, -z).sum())


def signs_of_indices(n_outputs: int, indices) -> np.ndarray:
    """Sign rows for arbitrary assignment indices.

    Index n assigns label k to +1 when bit (K-1-k) of n is 0, so ascending n
    walks assignments in lexicographic order with +1 sorting before -1.
    """
    idx = np.asarray(indices, dtype=np.int64)
    shifts = np.array([n_outputs - 1 - k for k in range(n_outputs)], dtype=np.int64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def assignment_signs(n_outputs: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the canonical sign-matrix enumeration."""
    return signs_of_indices(n_outputs, np.arange(start, stop, dtype=np.int64))


def signs_from_index(n_outputs: int, idx: int) -> np.ndarray:
    return assignment_signs(n_outputs, idx, idx + 1)[0]


def index_from_signs(y: np.ndarray) -> int:
    idx = 0
    for v in np.asarray(y):
        idx = (idx << 1) | (1 if v < 0 else 0)
    return idx


def _check_enum_size(n_outputs: int, cap: int, what: str) -> None:
    if n_outputs > cap:
        raise CapabilityError(f"{what} supports at most {cap} outputs, got {n_outputs}")


class _ParityEnergy:
    """Undirected energies sum_S coef_S(x) * parity_S(y), a chunk at a time.

    Built once per (graph, weights): ``M`` maps xa = [1 | x] to the
    coefficients of the distinct clique output sets, ``P`` holds their
    parities over the low ``bits`` of the assignment index, and
    ``flip[s, b]`` is -1 when set s holds the label at index bit b.  The
    chunk of assignments start .. start + 2^bits - 1 is then
    (coef * sign) @ P, where sign multiplies the flips of start's high bits.
    """

    def __init__(self, graph: GraphSpec, weights: WeightVector) -> None:
        K = graph.n_outputs
        w = weights.values
        sets: dict[int, int] = {}  # index bit mask of an output set -> its column
        terms = []
        for i, node in enumerate(graph.layout.feeds):
            for j, col, partners in node:
                mask = sum(1 << (K - 1 - k) for k in (i, *partners))
                terms.append((col, sets.setdefault(mask, len(sets)), j))
        self.M = np.zeros((graph.n_inputs + 1, len(sets)))
        for col, s, j in terms:
            self.M[col, s] += 0.5 * w[j]
        masks = np.array(list(sets), dtype=np.int64)
        self.flip = np.where((masks[:, None] >> np.arange(K)) & 1, -1.0, 1.0)
        self.bits = min(K, max(0, (_PARITY_ENTRIES // max(len(sets), 1)).bit_length() - 1))
        # Doubling: setting index bit b multiplies every set's parity by flip[:, b].
        self.P = np.empty((len(sets), 1 << self.bits))
        self.P[:, 0] = 1.0
        for b in range(self.bits):
            np.multiply(self.P[:, : 1 << b], self.flip[:, b : b + 1], out=self.P[:, 1 << b : 2 << b])
        self.graph = graph
        self.weights = weights

    def chunks(self, X: np.ndarray):
        """Yield (start, E): E[r, a] is the energy of row r of the (n, D)
        inputs X at assignment start + a."""
        coef = _augmented(self.graph, self.weights, X, 2) @ self.M
        K = self.graph.n_outputs
        for start in range(0, 1 << K, 1 << self.bits):
            high = [b for b in range(self.bits, K) if start >> b & 1]
            yield start, (coef * self.flip[:, high].prod(axis=1)) @ self.P

    def log_probs(self, X: np.ndarray) -> np.ndarray:
        """(n, 2^K) normalized log-probabilities, indexed like assignment_signs."""
        table = np.empty((len(X), 1 << self.graph.n_outputs))
        for start, E in self.chunks(X):
            table[:, start : start + E.shape[1]] = E
        m = table.max(axis=1, keepdims=True)
        shifted = table - m
        table -= m + np.log(np.exp(shifted, out=shifted).sum(axis=1, keepdims=True))
        return table


def bm_log_likelihood(graph: GraphSpec, weights: WeightVector, instance: Instance) -> float:
    """Exact log-likelihood under the pairwise energy model.

    log p(y|x) = (1/2) sum_i z_i(y) - log sum_y' exp((1/2) sum_i z_i(y')),
    with the partition sum streamed over all 2^K assignments in parity
    chunks (see the module docstring).
    """
    if graph.kind != UNDIRECTED:
        raise GraphError("energy-model likelihood needs an undirected graph")
    _check_enum_size(graph.n_outputs, ENUM_MAX_OUTPUTS, "exact likelihood")
    half = 0.5 * float(margins(graph, weights, instance.x, instance.y).sum())
    best = -math.inf
    acc = 0.0
    for _, E in _ParityEnergy(graph, weights).chunks(np.asarray(instance.x)[None]):
        m = float(E.max())
        if m > best:
            acc *= math.exp(best - m) if best > -math.inf else 0.0
            best = m
        acc += float(np.exp(E - best).sum())
    return half - (best + math.log(acc))


def log_prob_table(graph: GraphSpec, weights: WeightVector, x) -> np.ndarray:
    """Log-probability of every assignment, indexed like assignment_signs.

    Directed graphs return the sum of per-node log-sigmoids, which is
    normalized by construction; undirected graphs are normalized explicitly
    over their parity-chunk energies (see the module docstring).
    """
    _check_enum_size(graph.n_outputs, TABLE_MAX_OUTPUTS, "probability table")
    if graph.kind == UNDIRECTED:
        return _ParityEnergy(graph, weights).log_probs(np.asarray(x)[None])[0]
    scorer = compile_scorer(graph, weights, x)
    K = graph.n_outputs
    table = np.empty(1 << K, dtype=np.float64)
    for start in range(0, 1 << K, _CHUNK):
        stop = min(start + _CHUNK, 1 << K)
        Z = scorer.margin_block(assignment_signs(K, start, stop))
        table[start:stop] = -np.logaddexp(0.0, -Z).sum(axis=1)
    return table


def surrogate_bound_check(z):
    """Logistic loss and its hinge upper bound at margin z.

    Returns (log(1 + e^-z), max(0, 1 - z) + HINGE_LOG_OFFSET); the second
    component dominates the first for every real z.
    """
    z = np.asarray(z, dtype=np.float64)
    log_loss = np.logaddexp(0.0, -z)
    hinge_plus_offset = np.maximum(0.0, 1.0 - z) + HINGE_LOG_OFFSET
    if z.ndim == 0:
        return float(log_loss), float(hinge_plus_offset)
    return log_loss, hinge_plus_offset
