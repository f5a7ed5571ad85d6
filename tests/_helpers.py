"""Shared builders for randomized test models."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import margraph as mg
from margraph import training
from margraph.dataio import MODEL_FORMAT_VERSION, ModelFile, _numbered_lines
from margraph.errors import DataError, GraphError, ModelFormatError
from margraph.graphs import GRAPH_BUILDERS
from margraph.model import _augmented, _compile, compile_scorer, signs_of_indices

BUILDERS = GRAPH_BUILDERS


def random_model(rng, kind, max_outputs=10, max_inputs=5, min_outputs=1, scale=1.0):
    """A random graph, N(0, scale) weights, and one random input vector."""
    n_outputs = int(rng.integers(min_outputs, max_outputs + 1))
    n_inputs = int(rng.integers(0, max_inputs + 1))
    build = BUILDERS[rng.choice(list(BUILDERS))]
    graph = build(n_outputs, n_inputs, kind)
    weights = mg.WeightVector(rng.normal(0.0, scale, graph.n_cliques), lam=1.0)
    x = rng.standard_normal(n_inputs)
    return graph, weights, x


def compiled_chunk(graph, weights, X):
    """The decoders' compile of the (n, D) inputs X: const (n, K), coupled
    (n, T) and each row's (const, w_eff) lists."""
    return _compile(graph, weights, _augmented(graph, weights, X, 2))


def random_labels(rng, n_instances, n_outputs):
    """Uniform random +1/-1 label matrix."""
    return np.where(rng.random((n_instances, n_outputs)) < 0.5, 1, -1).astype(np.int8)


def random_dataset(rng, n_instances, n_outputs, n_inputs):
    return mg.Dataset(
        rng.standard_normal((n_instances, n_inputs)),
        random_labels(rng, n_instances, n_outputs),
    )


def coupled_graph(rng, topology, K, D, kind):
    """A chain or full graph in a random order, plus input-coupled cliques of
    two to four members (at least one of three or more once K >= 3)."""
    base = BUILDERS[topology](K, D, kind, order=tuple(int(i) for i in rng.permutation(K)))
    cliques = {(c.outputs, c.input_feature): c for c in base.cliques}
    for n in range(int(rng.integers(1, K + 1)) if K >= 2 else 0):
        size = 3 if n == 0 and K >= 3 else int(rng.integers(2, min(K, 4) + 1))
        members = tuple(sorted(int(k) for k in rng.choice(K, size=size, replace=False)))
        feature = int(rng.integers(D)) if D and rng.random() < 0.7 else None
        c = mg.Clique(members, feature)
        cliques.setdefault((c.outputs, c.input_feature), c)
    return mg.GraphSpec(K, D, kind, base.order, tuple(cliques.values()))


def interior_point_first(mp):
    """Route every solve to the interior point, through a
    ``pytest.MonkeyPatch`` ``mp``: no solve runs the active set of step 1,
    and any that the interior point leaves uncertified take the crossover."""
    mp.setattr(training, "_route", lambda widths, n: "interior point")


def proximal_active_set_only(mp):
    """Make every solve skip step 1 and its interior point end after no
    iteration at zero duals, which never certify, through a
    ``pytest.MonkeyPatch`` ``mp``: every solve then runs the crossover's
    proximal active set alone, from zero, with all its epochs."""
    interior_point_first(mp)
    mp.setattr(
        training,
        "_interior_point",
        lambda blocks, width, box, max_iterations: (
            np.zeros((len(blocks[0][1]), len(blocks), blocks[0][1].shape[1])),
            np.zeros(len(blocks[0][1]), dtype=np.intp),
        ),
    )


def record_newton_calls(mp):
    """A list that records, through a ``pytest.MonkeyPatch`` ``mp``, each
    call of training's active set, as ("active set", warm, iterations, cap,
    rho), and of its interior point, as ("interior point", caps,
    iterations), in the order training makes them."""
    calls = []
    active_set, interior_point = training._active_set, training._interior_point

    def recording_active_set(blocks, box, start, max_iterations, rho, tol):
        alpha, iterations = active_set(blocks, box, start, max_iterations, rho, tol)
        calls.append(("active set", bool(start.any()), iterations, max_iterations, rho))
        return alpha, iterations

    def recording_interior_point(blocks, width, box, max_iterations):
        alpha, iterations = interior_point(blocks, width, box, max_iterations)
        calls.append(("interior point", max_iterations.tolist(), iterations.tolist()))
        return alpha, iterations

    mp.setattr(training, "_active_set", recording_active_set)
    mp.setattr(training, "_interior_point", recording_interior_point)
    return calls


def bound_pattern_optimum(Q, box):
    """The optimum of the dual max 1^T a - 0.5 a^T Q a over 0 <= a <= box,
    for at most 8 duals, by enumerating the 3^n bound patterns: each dual
    at 0, free, or at the box.  For each set of free duals R whose block
    Q_RR is nonsingular, one solve gives the free values of every 0/box
    pattern of the rest; a pattern counts if its free values lie in the box
    and its gradient Qa - 1 is 0 on R, at least 0 at 0 and at most 0 at the
    box, up to roundoff.  An optimum always has such a pattern (at a vertex
    of the optimal set the free rows are independent), so the best
    objective over the patterns that count is the optimum."""
    n = len(Q)
    assert n <= 8
    slack = 1e-9 * max(1.0, box) * max(1.0, float(np.abs(Q).max()))
    best = -math.inf
    for free in itertools.product([False, True], repeat=n):
        free = np.array(free, dtype=bool)
        R, P = np.flatnonzero(free), np.flatnonzero(~free)
        if R.size and np.linalg.matrix_rank(Q[np.ix_(R, R)]) < R.size:
            continue
        # one column per 0/box pattern of the pinned duals
        a = np.zeros((n, 2 ** P.size))
        a[P] = np.array(list(itertools.product([0.0, box], repeat=P.size))).reshape(2**P.size, P.size).T
        if R.size:
            a[R] = np.linalg.solve(Q[np.ix_(R, R)], 1.0 - Q[np.ix_(R, P)] @ a[P])
        g = Q @ a - 1.0
        at_zero, at_box = (a[P] == 0.0), (a[P] == box)
        ok = (
            np.all((a[R] >= -slack) & (a[R] <= box + slack) & (np.abs(g[R]) <= slack), axis=0)
            & np.all(~at_zero | (g[P] >= -slack), axis=0)
            & np.all(~at_box | (g[P] <= slack), axis=0)
        )
        if ok.any():
            dual = a.sum(axis=0) - 0.5 * np.einsum("ij,ij->j", a, Q @ a)
            best = max(best, float(dual[ok].max()))
    return best


def enumerated_solve_duals(dataset, graph, config):
    """Each solve's optimal dual objective by ``bound_pattern_optimum``, in
    the order of ``solve_duals``: a directed node's over the cliques it owns,
    or the joint solve's, with each feature of a multi-output undirected
    clique scaled by (1 + eta0)^(-1/2)."""
    F = training.clique_feature_matrix(graph, dataset)
    box = 1.0 / (config.lam * dataset.n_instances)
    if graph.kind == mg.DIRECTED:
        return [bound_pattern_optimum(F[:, list(cols)] @ F[:, list(cols)].T, box) for cols in graph.contributing]
    shared = np.array([len(c.outputs) >= 2 for c in graph.cliques], dtype=bool)
    F = F / np.sqrt(np.where(shared, 1.0 + config.eta0, 1.0))
    rows = []
    for cols in graph.contributing:
        A = np.zeros_like(F)
        A[:, list(cols)] = F[:, list(cols)]
        rows.append(A)
    A = np.concatenate(rows)
    return [bound_pattern_optimum(A @ A.T, box)]


def solve_duals(result, dataset, config):
    """Each solve's dual objective: a directed node's over the cliques it
    owns (eta is 1), or the joint solve's."""
    state = result.state
    if state.graph.kind == mg.UNDIRECTED:
        return [training.dual_objective(state, dataset, config)]
    w = result.weights.values
    return [
        float(state.alpha[i].sum()) - 0.5 * float(w[list(cols)] @ w[list(cols)])
        for i, cols in enumerate(state.graph.contributing)
    ]


def reference_routing(graph):
    """(contributing, feeds, coupled, unary clique, column, node) derived as
    before ``GraphSpec.layout`` routed cliques in one loop: node positions,
    then each clique's owner, then per-node clique lists, then the terms."""
    pos = [0] * graph.n_outputs
    for p, node in enumerate(graph.order):
        pos[node] = p
    owners = [max(c.outputs, key=lambda k: pos[k]) for c in graph.cliques]
    lists = [[] for _ in range(graph.n_outputs)]
    for j, c in enumerate(graph.cliques):
        for k in (owners[j],) if graph.kind == mg.DIRECTED else c.outputs:
            lists[k].append(j)
    contributing = tuple(tuple(f) for f in lists)
    feeds = []
    for i, js in enumerate(contributing):
        terms = []
        for j in js:
            c = graph.cliques[j]
            column = 0 if c.input_feature is None else c.input_feature + 1
            terms.append((j, column, tuple(k for k in c.outputs if k != i)))
        feeds.append(tuple(terms))
    unary = [(j, col, i) for i, f in enumerate(feeds) for j, col, partners in f if not partners]
    clique, column, node = np.array(unary, dtype=np.intp).reshape(-1, 3).T.copy()
    coupled = tuple(tuple(t for t in f if t[2]) for f in feeds)
    return contributing, tuple(feeds), coupled, clique, column, node


def layout_terms(graph):
    """(feeds, coupled) rebuilt from ``graph.layout``, in the form of
    ``reference_routing``: node i's (clique, column, partners) terms in
    clique order, and its coupled terms alone in layout order."""
    layout = graph.layout
    flat = zip(layout.coupled_clique.tolist(), layout.coupled_column.tolist())
    coupled = tuple(tuple((*next(flat), others) for others in node) for node in layout.partners)
    assert next(flat, None) is None
    feeds = [list(terms) for terms in coupled]
    for j, col, i in zip(layout.unary_clique.tolist(), layout.unary_column.tolist(), layout.unary_node.tolist()):
        feeds[i].append((j, col, ()))
    return tuple(tuple(sorted(f)) for f in feeds), coupled


def assignment_signs(n_outputs, start, stop):
    """Rows start..stop-1 of the (2^K, K) sign matrix, the reference the
    label grid of ``NodeScorer.grid_sums`` is checked against."""
    return signs_of_indices(n_outputs, np.arange(start, stop, dtype=np.int64))


def reference_losses(scorer, K, start, stop):
    """Joint losses of assignments start..stop-1 from the per-row sign matrix,
    the path exhaustive enumeration took before its label grid."""
    return scorer.total_loss_column(assignment_signs(K, start, stop))


def reference_exhaustive(graph, weights, x):
    """(labels, objective) of the first minimizer in index order, from the
    label grid's argmin over all 2^K assignments: ``exhaustive_infer`` as it
    was before it stopped at the first zero-loss assignment."""
    best_obj = np.inf
    best_idx = 0
    for start, totals in compile_scorer(graph, weights, x).grid_sums():
        i = int(np.argmin(totals))
        if totals[i] < best_obj:
            best_obj = float(totals[i])
            best_idx = start + i
    return signs_of_indices(graph.n_outputs, [best_idx])[0], best_obj


def reference_energies(graph, weights, x):
    """Undirected energies (1/2) sum_i z_i of every assignment, from the
    per-row margin_block of one compiled input."""
    K = graph.n_outputs
    Z = compile_scorer(graph, weights, x).margin_block(assignment_signs(K, 0, 1 << K))
    return 0.5 * Z.sum(axis=1)


def reference_log_table(graph, weights, x):
    """reference_energies normalized over all assignments."""
    table = reference_energies(graph, weights, x)
    m = float(table.max())
    return table - (m + math.log(float(np.exp(table - m).sum())))


def reference_write_svmlight(dataset, path):
    """The svmlight writer as it was before it read rows through ``tolist``:
    one NumPy index per label and per feature."""
    lines = []
    for r in range(dataset.n_instances):
        labels = ",".join(str(k + 1) for k in range(dataset.n_outputs) if dataset.Y[r, k] == 1)
        feats = [
            f"{d + 1}:{float(dataset.X[r, d])!r}"
            for d in range(dataset.n_inputs)
            if dataset.X[r, d] != 0.0
        ]
        if not labels and not feats:
            raise DataError(
                f"instance {r} has no positive labels and no nonzero features; "
                "it would serialize to a blank line"
            )
        lines.append((labels + " " + " ".join(feats)).strip() if labels else " " + " ".join(feats))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reference_label_field(field, n_outputs, path, ln):
    ids = []
    for piece in field.split(","):
        try:
            label = int(piece)
        except ValueError:
            raise DataError(f"{path}:{ln}: bad label {piece!r}") from None
        if label < 1:
            raise DataError(f"{path}:{ln}: label ids are 1-based, got {label}")
        if n_outputs is not None and label > n_outputs:
            raise DataError(f"{path}:{ln}: label {label} exceeds label count {n_outputs}")
        ids.append(label)
    return ids


def reference_parse_svmlight(path, n_outputs=None, n_inputs=None):
    """The svmlight reader as it was before it read a line at a time: one
    label and one idx:value token at a time, each checked as it is read,
    and one NumPy index per label and per feature."""
    path = str(path)
    rows = []
    max_label = 0
    max_feature = 0
    for ln, raw in _numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        labels = []
        start = 0
        if ":" not in tokens[0]:
            labels = _reference_label_field(tokens[0], n_outputs, path, ln)
            start = 1
        feats = {}
        for tok in tokens[start:]:
            idx_s, _, val_s = tok.partition(":")
            if not _:
                raise DataError(f"{path}:{ln}: expected idx:value, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"{path}:{ln}: bad feature token {tok!r}") from None
            if idx < 1:
                raise DataError(f"{path}:{ln}: feature ids are 1-based, got {idx}")
            if n_inputs is not None and idx > n_inputs:
                raise DataError(f"{path}:{ln}: feature {idx} exceeds input count {n_inputs}")
            if not math.isfinite(val):
                raise DataError(f"{path}:{ln}: non-finite feature value {val_s!r}")
            if idx in feats:
                raise DataError(f"{path}:{ln}: duplicate feature index {idx}")
            feats[idx] = val
        max_label = max(max_label, max(labels, default=0))
        max_feature = max(max_feature, max(feats, default=0))
        rows.append((labels, feats))
    if not rows:
        raise DataError(f"{path}: no data lines")
    K = n_outputs if n_outputs is not None else max_label
    if K < 1:
        raise DataError(f"{path}: no labels anywhere; pass an explicit label count")
    D = n_inputs if n_inputs is not None else max_feature
    try:
        X = np.zeros((len(rows), D), dtype=np.float64)
        Y = np.full((len(rows), K), -1, dtype=np.int8)
    except (ValueError, MemoryError) as exc:
        raise DataError(f"{path}: cannot hold {len(rows)} rows of {K} labels and {D} features: {exc}") from None
    for r, (labels, feats) in enumerate(rows):
        for label in labels:
            Y[r, label - 1] = 1
        for idx, val in feats.items():
            X[r, idx - 1] = val
    return mg.Dataset(X, Y)


@dataclass(frozen=True)
class ReferenceClique:
    """``Clique`` as it was when each clique checked and canonicalised
    itself on construction."""

    outputs: tuple
    input_feature: int | None = None

    def __post_init__(self):
        outs = tuple(map(int, self.outputs))
        if len(outs) != 1:
            outs = tuple(sorted(set(outs)))
        if not outs:
            raise GraphError("a clique needs at least one output variable")
        if outs[0] < 0:
            raise GraphError(f"negative output index in clique: {outs}")
        object.__setattr__(self, "outputs", outs)
        if self.input_feature is not None:
            d = int(self.input_feature)
            if d < 0:
                raise GraphError(f"negative input feature index: {d}")
            object.__setattr__(self, "input_feature", d)


def reference_graph_check(n_outputs, n_inputs, kind, order, cliques):
    """The graph check as it was before cliques were arrays: the
    dimensions, kind and order, then each ``ReferenceClique`` in turn (its
    largest member, its input, then a repeat of an earlier one).  Returns
    the order and the cliques as (outputs, input) pairs."""
    if n_outputs < 1:
        raise GraphError(f"need at least one output, got {n_outputs}")
    if n_inputs < 0:
        raise GraphError(f"negative input dimension: {n_inputs}")
    if kind not in (mg.DIRECTED, mg.UNDIRECTED):
        raise GraphError(f"kind must be {mg.DIRECTED!r} or {mg.UNDIRECTED!r}, got {kind!r}")
    order = tuple(int(i) for i in order)
    if len(order) != n_outputs or sorted(order) != list(range(n_outputs)):
        raise GraphError(f"order must be a permutation of 0..{n_outputs - 1}, got {order}")
    seen = set()
    for c in cliques:
        if c.outputs[-1] >= n_outputs:
            raise GraphError(f"clique {c.outputs} exceeds output count {n_outputs}")
        if c.input_feature is not None and c.input_feature >= n_inputs:
            raise GraphError(f"clique input feature {c.input_feature} exceeds input dimension {n_inputs}")
        key = (c.outputs, c.input_feature)
        if key in seen:
            raise GraphError(f"duplicate clique: outputs={c.outputs} input={c.input_feature}")
        seen.add(key)
    return order, [(c.outputs, c.input_feature) for c in cliques]


class _ReferenceCursor:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self):
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def take(self, key):
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ModelFormatError(f"line {self.pos}: expected {key!r}, got {head!r}")
        return rest

    def error(self, msg):
        return ModelFormatError(f"line {self.pos}: {msg}")


def reference_parse_model(text):
    """The model reader as it was before it read the clique lines in one
    loop: a cursor ``take`` and a self-checking clique per line, the graph
    check one clique at a time, and no check of the epoch count or the
    gap.  Like the reader, it refuses a scale_min above its scale_max."""
    cur = _ReferenceCursor(text)
    magic = cur.next().split()
    if len(magic) != 2 or magic[0] != "margraph-model":
        raise ModelFormatError("not a model file (bad magic line)")
    if magic[1] != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {magic[1]!r}")
    try:
        kind = cur.take("kind")
        n_outputs = int(cur.take("outputs"))
        n_inputs = int(cur.take("inputs"))
        order = tuple(int(t) for t in cur.take("order").split())
        lam = float(cur.take("lambda"))
        eta0 = float(cur.take("eta0"))
        epochs = int(cur.take("epochs"))
        gap = float(cur.take("gap"))
        scale = None
        line = cur.next()
        if line.startswith("scale_min "):
            lo = np.array([float(t) for t in line.split()[1:]], dtype=np.float64)
            hi = np.array([float(t) for t in cur.take("scale_max").split()], dtype=np.float64)
            if lo.shape != (n_inputs,) or hi.shape != (n_inputs,):
                raise cur.error("scale vectors do not match the input count")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise cur.error("scale vectors must be finite")
            if (lo > hi).any():
                raise cur.error(f"scale_min exceeds scale_max at input {int(np.argmax(lo > hi))}")
            scale = (lo, hi)
            line = cur.next()
        head, _, rest = line.partition(" ")
        if head != "cliques":
            raise cur.error(f"expected 'cliques', got {head!r}")
        n_cliques = int(rest)
        if n_cliques < 0:
            raise cur.error(f"negative clique count {n_cliques}")
        cliques, values = [], []
        for _ in range(n_cliques):
            parts = cur.take("clique").split()
            if len(parts) != 3:
                raise cur.error(f"clique line needs outputs, input, weight; got {parts!r}")
            outs = tuple(int(t) for t in parts[0].split(","))
            inp = None if parts[1] == "-" else int(parts[1])
            cliques.append(ReferenceClique(outs, inp))
            values.append(float(parts[2]))
        if cur.next() != "end":
            raise cur.error("missing 'end' sentinel (truncated file?)")
    except (ValueError, IndexError) as exc:
        raise ModelFormatError(f"line {cur.pos}: {exc}") from None
    order, pairs = reference_graph_check(n_outputs, n_inputs, kind, order, cliques)
    graph = mg.GraphSpec(n_outputs, n_inputs, kind, order, [mg.Clique(*pair) for pair in pairs])
    weights = mg.WeightVector(values=values, lam=lam, eta0=eta0)
    return ModelFile(graph=graph, weights=weights, epochs=epochs, gap=gap, scale=scale)
