"""Scores, margins, hinge objective, and exact likelihoods.

Every node i has a linear score s_i: the sum, over cliques feeding that node,
of weight * input value * parity of the OTHER member labels.  The margin of
node i is z_i = y_i * s_i, and the joint hinge loss of an assignment is
sum_i max(0, 1 - z_i).

The score is defined once, by the graph's ``layout`` of per-node terms, and
summed by one loop, ``NodeScorer._score``.  ``compile_scorer`` folds one
input into a ``NodeScorer`` whose columns and the search's scalar score add
terms in the same order, so search and enumeration objectives agree to the
bit; ``batch_scorer`` folds many inputs so that each row's scores have the
bits of that row's ``compile_scorer`` (sampling, training losses, probes).

Only this module maps assignment indices to labels (``signs_of_indices``).
``NodeScorer.grid_sums`` walks all 2^K assignments in index order, up to
2^16 at a time on a broadcast label grid, and sums one per-node term in
graph order: the hinge loss for ``inference.exhaustive_infer``, the
log-sigmoid for the directed ``log_prob_table``.

Undirected tables (``log_prob_table``, the partition sum of
``bm_log_likelihood``, ``synth.sample_bm``) read the same terms, node by node
through ``contributing``, as a sum over clique parities.  Node i's term of
clique j is w_j * xa[col] * parity(partners), and y_i * parity(partners) is
the parity of the set S = {i} | partners, clique j's members, so the energy is

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
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Instance, as_sign_labels
from .errors import CapabilityError, DataError, GraphError
from .graphs import DIRECTED, UNDIRECTED, GraphSpec

__all__ = [
    "WeightVector",
    "LossBreakdown",
    "NodeScorer",
    "compile_scorer",
    "batch_scorer",
    "node_margin",
    "margins",
    "joint_loss",
    "sbn_log_likelihood",
    "bm_log_likelihood",
    "log_prob_table",
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
# The label grid scores at most this many assignments per chunk.
_GRID_CHUNK = 1 << 16
# The grid reads the labels on the lowest 8 index bits as one axis (sizes 4
# to 10 measured alike): [r, a] is the sign of the label on bit 7 - r when
# the index ends in a.  L < 8 low labels read the last L rows, 2^L columns.
_LOW_SIGNS = 1.0 - 2.0 * ((np.arange(256) >> np.arange(7, -1, -1)[:, None]) & 1)
_LOW_SIGNS.flags.writeable = False
# compile_scorer's limit on the sum over nodes of |const_i| + sum |w_eff|:
# half the largest double, so no score, cost or joint loss can overflow.
_SCORE_REACH = 2.0**1023
# The undirected parity matrix holds at most this many entries (4 MB of
# float64); larger assignment spaces are walked in chunks of low bits.
_PARITY_ENTRIES = 1 << 19

# Offset that turns the hinge loss into an upper bound on logistic loss:
# log(1 + e^-z) <= max(0, 1 - z) + log(e + 1/e) for every real z.
HINGE_LOG_OFFSET = math.log(math.e + math.exp(-1.0))


def _check_regularization(lam: float, eta0: float) -> None:
    _check_real(lam, "regularization strength")
    if not (0 < lam < math.inf):
        raise DataError(f"regularization strength must be positive and finite, got {lam}")
    _check_real(eta0, "regularizer boost")
    if not (0 <= eta0 < math.inf):
        raise DataError(f"regularizer boost must be non-negative and finite, got {eta0}")


def _check_int(value, what: str) -> None:
    """Refuse what is not an int, a bool or a NumPy integer, naming it, before
    range() or NumPy's generators raise a bare TypeError (on a NumPy bool too)."""
    if not isinstance(value, (int, np.integer)):
        raise DataError(f"{what} must be an integer, got {value!r}")


def _check_real(value, what: str) -> None:
    """Refuse what is not a ``numbers.Real`` (NumPy integers and floats are),
    naming it, before a comparison raises a bare TypeError."""
    if not isinstance(value, numbers.Real):
        raise DataError(f"{what} must be a number, got {value!r}")


def _check_seed(seed) -> None:
    """Refuse a seed, alone or in a tuple, that is not a non-negative integer."""
    for part in seed if isinstance(seed, tuple) else (seed,):
        _check_int(part, "seed")
        if part < 0:
            raise DataError(f"seed must be non-negative, got {seed!r}")


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
        _check_regularization(self.lam, self.eta0)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-node hinge losses and their total, summed in graph order like
    every search and enumeration objective, for one assignment."""

    per_node: np.ndarray
    total: float


def _hinge(z):
    return np.maximum(0.0, 1.0 - z)


@dataclass(frozen=True)
class NodeScorer:
    """Per-node score tables for one input vector (const (K,), float w_eff)
    or a batch of n (const (K, n), each w_eff an (n,) array, scored against
    row r of Y for input r); ``grid_sums`` and the search take one input only.

    For node i, s_i = const[i] + sum over terms[i] of w_eff * parity(others),
    where const folds in all cliques whose parity part is empty once the
    node itself is removed (biases and input couplings).  Term order follows
    clique order, which keeps scalar and vectorized sums bit-identical.

    Every score is computed by one loop, ``_score``, over per-label sign
    operands: ±1 scalars or arrays that broadcast together.  The matrix
    methods pass the columns of an (n, K) sign matrix Y.  ``grid_sums``
    passes a label grid instead: a ±1 scalar for each label fixed across a
    chunk of assignments, a length-2 axis for each middle label, and one axis
    over the low index bits (``_LOW_SIGNS``).  There s_i spans only the axes
    of the partners added so far, and each term is still one addition of
    ±w_eff in term order, so every entry gets the same floating-point
    operations as the matching row of Y.
    """

    const: np.ndarray
    terms: tuple[tuple[tuple[float | np.ndarray, tuple[int, ...]], ...], ...]
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

    def _add_losses(self, signs, total: np.ndarray, per_node=_hinge) -> np.ndarray:
        """Add each node's per_node(y_i * s_i), by default its hinge loss
        max(0, 1 - y_i * s_i), to total in graph order."""
        for i in self.order:
            total += per_node(signs[i] * self._score(i, signs))
        return total

    def grid_sums(self, per_node=_hinge):
        """Yield (start, totals): the sum over nodes of per_node(z_i) at
        assignments start, start + 1, ..., by default their joint hinge loss.

        Each chunk covers the 2^b assignments that share their K - b high
        index bits, b = min(K, log2 _GRID_CHUNK).  A label on a high bit is a
        ±1 scalar for the whole chunk, each middle label a length-2 axis (+1
        first), and the lowest labels, at most 8, share one axis read from
        ``_LOW_SIGNS``.  The grid's C-order flattening walks the chunk in
        index order.
        """
        K = self.n_outputs
        bits = min(K, _GRID_CHUNK.bit_length() - 1)
        n_low = min(bits, len(_LOW_SIGNS))
        n_mid = bits - n_low
        signs = [1.0] * K
        for a in range(n_mid):
            signs[K - bits + a] = np.array([1.0, -1.0]).reshape((2,) + (1,) * (n_mid - a))
        for r in range(n_low):
            signs[K - n_low + r] = _LOW_SIGNS[len(_LOW_SIGNS) - n_low + r, : 1 << n_low]
        shape = (2,) * n_mid + (1 << n_low,)
        for start in range(0, 1 << K, 1 << bits):
            for k in range(K - bits):
                signs[k] = -1.0 if start >> (K - 1 - k) & 1 else 1.0
            yield start, self._add_losses(signs, np.zeros(shape), per_node).reshape(-1)

    def score_column(self, i: int, Y: np.ndarray) -> np.ndarray:
        """s_i for every row of Y; only node i's partners need be assigned."""
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


def _check_weight_count(graph: GraphSpec, weights: WeightVector) -> None:
    """Refuse weights that do not hold one value per clique of the graph."""
    if len(weights) != graph.n_cliques:
        raise DataError(f"{len(weights)} weights for {graph.n_cliques} cliques")


def _label_vector(graph: GraphSpec, y) -> np.ndarray:
    """y as an array of one label per output, or a DataError naming its shape."""
    y = np.asarray(y)
    if y.shape != (graph.n_outputs,):
        raise DataError(f"label shape {y.shape} does not match {graph.n_outputs} outputs")
    return y


def _augmented(graph: GraphSpec, weights: WeightVector, X, ndim: int) -> np.ndarray:
    """Validated inputs (one vector or an (n, D) matrix) as [1 | X]."""
    _check_weight_count(graph, weights)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != graph.n_inputs:
        raise DataError(f"input shape {X.shape} does not match dimension {graph.n_inputs}")
    if not np.all(np.isfinite(X)):
        raise DataError("input contains non-finite values")
    return np.concatenate((np.ones(X.shape[:-1] + (1,)), X), axis=-1)


def compile_scorer(graph: GraphSpec, weights: WeightVector, x: np.ndarray) -> NodeScorer:
    """Fold one input vector into per-node score tables.

    Raises DataError when the input makes the scores too large to sum:
    node i's |s_i| is at most M_i = |const_i| + sum |w_eff| over its terms,
    and every hinge cost is at most 1 + M_i, so while the sum of all M_i
    stays under 2^1023 every score, cost and joint loss is finite.
    """
    xa = _augmented(graph, weights, x, 1)
    w = weights.values
    layout = graph.layout
    with np.errstate(all="ignore"):
        # bincount returns int64 zeros when no clique is unary
        const = np.bincount(
            layout.unary_node,
            weights=w[layout.unary_clique] * xa[layout.unary_column],
            minlength=graph.n_outputs,
        ).astype(np.float64, copy=False)
        coupled = (w[layout.coupled_clique] * xa[layout.coupled_column]).tolist()
    # summed on Python floats: a handful of values, where NumPy's per-call
    # cost would dominate
    reach = sum(map(abs, const.tolist())) + sum(map(abs, coupled))
    if not reach <= _SCORE_REACH:
        raise DataError(
            f"the input makes the scores overflow: |const| + sum |w_eff| summed over the nodes is {reach}"
        )
    values = iter(coupled)
    terms = tuple(tuple((next(values), others) for others in node) for node in layout.partners)
    return NodeScorer(const=const, terms=terms, order=graph.order)


def batch_scorer(graph: GraphSpec, weights: WeightVector, X: np.ndarray) -> NodeScorer:
    """Fold the (n, D) inputs X into batch tables, each entry summed as
    ``compile_scorer`` sums it for one row (unary terms in layout order from
    0.0, like its ``bincount``), so every row's scores have the same bits."""
    Xa = _augmented(graph, weights, X, 2)
    w = weights.values
    layout = graph.layout
    const = np.zeros((graph.n_outputs, len(Xa)))
    rows = list(const)  # one view per node, not a fresh const[i] view per term
    unary = zip(layout.unary_clique.tolist(), layout.unary_column.tolist(), layout.unary_node.tolist())
    for j, col, i in unary:
        rows[i] += w[j] * Xa[:, col]
    values = iter(w[layout.coupled_clique, None] * Xa.T[layout.coupled_column])
    terms = tuple(tuple((next(values), others) for others in node) for node in layout.partners)
    return NodeScorer(const=const, terms=terms, order=graph.order)


def node_margin(graph: GraphSpec, weights: WeightVector, x, y, i: int) -> float:
    """Margin z_i = y_i * s_i; y may be partial with 0 meaning unassigned."""
    if not (0 <= i < graph.n_outputs):
        raise DataError(f"node index {i} out of range for {graph.n_outputs} outputs")
    y = _label_vector(graph, y)
    if not np.all(np.isin(y, (-1, 0, 1))):
        raise DataError("labels must be +1, -1, or 0 for unassigned")
    needed = {i}.union(*graph.layout.partners[i])
    missing = sorted(k for k in needed if y[k] == 0)
    if missing:
        raise DataError(f"margin of node {i} needs labels for nodes {missing}")
    s_i = compile_scorer(graph, weights, x).score_column(i, y[None])[0]
    return float(y[i]) * float(s_i)


def margins(graph: GraphSpec, weights: WeightVector, x, y) -> np.ndarray:
    """All node margins for a full +1/-1 assignment."""
    y = as_sign_labels(_label_vector(graph, y))
    return compile_scorer(graph, weights, x).margin_block(y[None])[0]


def joint_loss(graph: GraphSpec, weights: WeightVector, instance: Instance) -> LossBreakdown:
    """Per-node hinge losses max(0, 1 - z_i) and their sum."""
    z = margins(graph, weights, instance.x, instance.y)
    per_node = _hinge(z)
    total = 0.0
    for i in graph.order:
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


def signs_from_index(n_outputs: int, idx: int) -> np.ndarray:
    return signs_of_indices(n_outputs, [idx])[0]


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
        members, indptr = graph.cliques.members.tolist(), graph.cliques.indptr.tolist()
        column = (graph.cliques.inputs + 1).tolist()
        sets: dict[int, int] = {}  # index bit mask of an output set -> its column
        terms = []
        for js in graph.contributing:
            for j in js:
                mask = sum(1 << (K - 1 - k) for k in members[indptr[j] : indptr[j + 1]])
                terms.append((column[j], sets.setdefault(mask, len(sets)), j))
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

    def log_partition(self, X: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
        """log sum over assignments of exp(E) for each row of the (n, D)
        inputs X, streamed chunk by chunk; each chunk's energies are also
        stored in ``table`` when one is given.

        Each row keeps its running maximum m and sum of exp(E - m), rescaled
        when a later chunk raises m, and ends at m + log(sum).  On a single
        chunk that is the usual shifted log-sum-exp, operation for operation.
        """
        best = np.full(len(X), -np.inf)
        acc = np.zeros(len(X))
        for start, E in self.chunks(X):
            if table is not None:
                table[:, start : start + E.shape[1]] = E
            m = np.maximum(best, E.max(axis=1))
            acc *= np.exp(best - m)
            E -= m[:, None]
            acc += np.exp(E, out=E).sum(axis=1)
            best = m
        return best + np.log(acc)

    def log_probs(self, X: np.ndarray) -> np.ndarray:
        """(n, 2^K) normalized log-probabilities, indexed like signs_of_indices."""
        table = np.empty((len(X), 1 << self.graph.n_outputs))
        log_z = self.log_partition(X, table)
        table -= log_z[:, None]
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
    return half - float(_ParityEnergy(graph, weights).log_partition(np.asarray(instance.x)[None])[0])


def log_prob_table(graph: GraphSpec, weights: WeightVector, x) -> np.ndarray:
    """Log-probability of every assignment, indexed like signs_of_indices.

    Directed graphs return the sum of per-node log-sigmoids over the label
    grid of ``NodeScorer.grid_sums``, normalized by construction; undirected
    graphs are normalized explicitly over their parity-chunk energies (see
    the module docstring).
    """
    _check_enum_size(graph.n_outputs, TABLE_MAX_OUTPUTS, "probability table")
    if graph.kind == UNDIRECTED:
        return _ParityEnergy(graph, weights).log_probs(np.asarray(x)[None])[0]
    table = np.empty(1 << graph.n_outputs, dtype=np.float64)
    scorer = compile_scorer(graph, weights, x)
    for start, totals in scorer.grid_sums(lambda z: -np.logaddexp(0.0, -z)):
        table[start : start + len(totals)] = totals
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
