"""Margins, joint hinge loss, exact likelihoods, and the surrogate bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import margraph as mg
from margraph import model
from margraph import Clique, GraphSpec, Instance, WeightVector
from margraph.errors import CapabilityError, DataError, GraphError
from margraph.model import (
    HINGE_LOG_OFFSET,
    TABLE_MAX_OUTPUTS,
    compile_scorer,
    index_from_signs,
    log_prob_table,
    signs_of_indices,
    surrogate_bound_check,
)

from _helpers import (
    assignment_signs,
    coupled_graph,
    random_labels,
    random_model,
    reference_energies,
    reference_log_table,
    reference_routing,
)


@pytest.fixture
def two_node_model():
    """Two labels, one input; an input-coupled bias on node 0 and a pair."""
    graph = GraphSpec(2, 1, mg.DIRECTED, (0, 1), (Clique((0,), 0), Clique((0, 1))))
    weights = WeightVector(np.array([1.0, 1.0]), lam=1.0)
    return graph, weights, np.array([2.0])


def test_margins_on_worked_example(two_node_model):
    graph, weights, x = two_node_model
    z = mg.margins(graph, weights, x, np.array([1, 1], dtype=np.int8))
    assert z.tolist() == [2.0, 1.0]
    assert mg.node_margin(graph, weights, x, np.array([1, 1], dtype=np.int8), 0) == 2.0
    assert mg.node_margin(graph, weights, x, np.array([1, 1], dtype=np.int8), 1) == 1.0


def test_joint_loss_on_worked_example(two_node_model):
    graph, weights, x = two_node_model
    lb = mg.joint_loss(graph, weights, Instance(x, np.array([1, 1], dtype=np.int8)))
    assert lb.per_node.tolist() == [0.0, 0.0] and lb.total == 0.0
    lb = mg.joint_loss(graph, weights, Instance(x, np.array([-1, 1], dtype=np.int8)))
    assert lb.per_node.tolist() == [3.0, 2.0] and lb.total == 5.0


def test_zero_weights_give_zero_margins_and_loss_k():
    rng = np.random.default_rng(2)
    for _ in range(10):
        graph, _, x = random_model(rng, mg.DIRECTED, max_outputs=6)
        weights = WeightVector(np.zeros(graph.n_cliques), lam=1.0)
        y = random_labels(rng, 1, graph.n_outputs)[0]
        assert mg.margins(graph, weights, x, y).tolist() == [0.0] * graph.n_outputs
        assert mg.joint_loss(graph, weights, Instance(x, y)).total == graph.n_outputs


def test_node_margin_requires_assigned_parents(two_node_model):
    graph, weights, x = two_node_model
    partial = np.array([0, 1], dtype=np.int8)  # node 0 unassigned
    with pytest.raises(DataError):
        mg.node_margin(graph, weights, x, partial, 1)
    # node 1 unassigned is fine for node 0 (it owns no clique involving 1)
    assert mg.node_margin(graph, weights, x, np.array([1, 0], dtype=np.int8), 0) == 2.0


def test_node_margin_rejects_bad_index(two_node_model):
    graph, weights, x = two_node_model
    y = np.array([1, 1], dtype=np.int8)
    with pytest.raises(DataError):
        mg.node_margin(graph, weights, x, y, 2)
    for i in (0.5, "0", None):
        with pytest.raises(DataError, match="node index must be an integer"):
            mg.node_margin(graph, weights, x, y, i)
    # a bool is an integer: True is node 1
    assert mg.node_margin(graph, weights, x, y, True) == mg.node_margin(graph, weights, x, y, 1) == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda g, w, x: mg.margins(g, w, x, np.array([1, 1, 1])), "label shape"),
    (lambda g, w, x: mg.node_margin(g, w, x, np.array([1]), 0), "label shape"),
    # one label-shape rule, checked before any value rule
    (lambda g, w, x: mg.margins(g, w, x, np.array([1, 0, 1])), r"^label shape \(3,\) does not match 2 outputs$"),
    # margins takes the +1/-1 rule of as_sign_labels; node_margin also allows 0
    (lambda g, w, x: mg.margins(g, w, x, np.array([1, 0])), r"^labels must be \+1 or -1, found values \[0, 1\]$"),
    (lambda g, w, x: mg.node_margin(g, w, x, np.array([1, 2]), 0), "0 for unassigned"),
    # True and False are not signs, nor is True alone
    (lambda g, w, x: mg.margins(g, w, x, np.array([True, True])), r"^labels must be \+1 or -1, got a boolean array$"),
    (lambda g, w, x: mg.node_margin(g, w, x, np.array([True, False]), 0), r"^labels must be \+1, -1, or 0 for"),
    (lambda g, w, x: WeightVector(np.ones((1, 2)), lam=1.0), "weights must be a vector"),
    # the weight-count rule that ModelFile and SynthConfig share (their own
    # tests in test_dataio and test_synth) also guards scoring
    (lambda g, w, x: compile_scorer(g, WeightVector(np.ones(3), lam=1.0), x), "^3 weights for 2 cliques$"),
    (lambda g, w, x: mg.batch_scorer(g, WeightVector(np.ones(1), lam=1.0), x[None]), "^1 weights for 2 cliques$"),
])
def test_label_and_weight_checks_name_the_fault(two_node_model, call, message):
    with pytest.raises(DataError, match=message):
        call(*two_node_model)


def test_weight_vector_validation():
    with pytest.raises(DataError):
        WeightVector(np.array([np.nan]), lam=1.0)
    with pytest.raises(DataError):
        WeightVector(np.array([1.0]), lam=0.0)
    with pytest.raises(DataError):
        WeightVector(np.array([1.0]), lam=1.0, eta0=-1.0)
    for lam, eta0 in ((np.inf, 0.0), (np.nan, 0.0), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(DataError, match="finite"):
            WeightVector(np.array([1.0]), lam=lam, eta0=eta0)
    with pytest.raises(DataError, match="regularization strength must be a number, got '1'$"):
        WeightVector(np.array([1.0]), lam="1")
    w = WeightVector(np.array([1.0, 2.0]), lam=np.float32(0.5), eta0=np.int64(0))
    with pytest.raises(ValueError):
        w.values[0] = 9.0  # read-only storage


def test_compile_scorer_validates_shapes(two_node_model):
    graph, weights, x = two_node_model
    with pytest.raises(DataError):
        compile_scorer(graph, WeightVector(np.array([1.0]), lam=1.0), x)
    with pytest.raises(DataError):
        compile_scorer(graph, weights, np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        compile_scorer(graph, weights, np.array([np.inf]))


def test_an_input_that_overflows_a_score_is_a_data_error():
    # finite inputs whose products with the weights overflow: node 0's
    # constant reads -inf.  No NumPy warning may escape (warnings are errors
    # here), and every decoder stops with the same DataError instead of
    # reporting a nan or inf loss.
    graph, weights = mg.planted_model(4, 2, topology="chain", seed=0, input_scale=5.0)
    x = np.array([1e308, -1e308])
    with pytest.raises(DataError, match="scores overflow"):
        compile_scorer(graph, weights, x)
    for decode in (mg.bb_infer, mg.exhaustive_infer):
        with pytest.raises(DataError, match="scores overflow"):
            decode(graph, weights, x)
    # a large input whose scores stay small enough to sum still compiles
    assert np.isfinite(compile_scorer(graph, weights, np.array([1e300, -1e300])).const).all()
    # every score finite, but two labels' costs near 1.5e308 would sum to
    # inf in the exhaustive oracle: refused too
    graph = mg.build_independent_graph(2, 1, mg.DIRECTED)
    weights = WeightVector(np.array([0.0, 0.0, 1.0, 1.0]), lam=1.0)
    with pytest.raises(DataError, match="scores overflow"):
        compile_scorer(graph, weights, np.array([1.5e308]))
    assert mg.exhaustive_infer(graph, weights, np.array([2.0**1021])).objective == 0.0


def test_flipping_a_label_negates_its_own_margin():
    rng = np.random.default_rng(3)
    for _ in range(30):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=7)
        y = random_labels(rng, 1, graph.n_outputs)[0]
        z = mg.margins(graph, weights, x, y)
        i = int(rng.integers(graph.n_outputs))
        y2 = y.copy()
        y2[i] = -y2[i]
        z2 = mg.margins(graph, weights, x, y2)
        assert z2[i] == -z[i]


def test_vectorized_scorer_matches_scalar_loop():
    rng = np.random.default_rng(4)
    for _ in range(20):
        graph, weights, x = random_model(rng, mg.DIRECTED, max_outputs=8)
        scorer = compile_scorer(graph, weights, x)
        Y = random_labels(rng, 16, graph.n_outputs)
        totals = scorer.total_loss_column(Y)
        for l in range(16):
            lb = mg.joint_loss(graph, weights, Instance(x, Y[l]))
            assert totals[l] == lb.total


def arbitrary_graph(rng, kind):
    """Random cliques of one to three members, some tied to an input, in a
    random order: shapes the graph builders never produce."""
    K = int(rng.integers(1, 7))
    D = int(rng.integers(0, 4))
    cliques = {}
    for _ in range(int(rng.integers(1, 4 * K + 1))):
        members = rng.choice(K, size=int(rng.integers(1, min(K, 3) + 1)), replace=False)
        feature = int(rng.integers(D)) if D and rng.random() < 0.5 else None
        c = Clique(tuple(sorted(int(k) for k in members)), feature)
        cliques[(c.outputs, c.input_feature)] = c
    order = tuple(int(i) for i in rng.permutation(K))
    return GraphSpec(K, D, kind, order, tuple(cliques.values()))


def reference_scorer(graph, weights, x):
    """One clique at a time: the per-node tables compile_scorer must reproduce."""
    w = weights.values
    const = np.zeros(graph.n_outputs)
    terms = [[] for _ in range(graph.n_outputs)]
    for i in range(graph.n_outputs):
        for j in graph.contributing[i]:
            c = graph.cliques[j]
            w_eff = float(w[j]) if c.input_feature is None else float(w[j] * x[c.input_feature])
            others = tuple(k for k in c.outputs if k != i)
            if others:
                terms[i].append((w_eff, others))
            else:
                const[i] += w_eff
    return const, tuple(tuple(t) for t in terms)


def test_compiled_scores_match_the_per_clique_reference_on_arbitrary_graphs():
    rng = np.random.default_rng(17)
    for trial in range(300):
        kind = mg.DIRECTED if trial % 2 == 0 else mg.UNDIRECTED
        graph = arbitrary_graph(rng, kind)
        weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
        X = rng.standard_normal((4, graph.n_inputs))
        Y = random_labels(rng, 4, graph.n_outputs)
        batch = mg.batch_scorer(graph, weights, X).margin_block(Y)
        for x, y, z in zip(X, Y, batch):
            scorer = compile_scorer(graph, weights, x)
            const, terms = reference_scorer(graph, weights, x)
            assert scorer.const.tolist() == const.tolist()
            assert scorer.terms == terms
            assert z.view(np.int64).tolist() == mg.margins(graph, weights, x, y).view(np.int64).tolist()
            if kind == mg.DIRECTED:
                found = mg.bb_infer(graph, weights, x)
                assert found.objective == mg.exhaustive_infer(graph, weights, x).objective


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    topology=st.sampled_from(["chain", "full"]),
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    K=st.integers(2, 7),
    D=st.integers(0, 3),
    rows=st.sampled_from([1, 2, 6, model._FOLD_LOOP_ROWS]),
    entries=st.sampled_from([1, 7, model._FOLD_ENTRIES]),
    seed=st.integers(0, 2**16),
)
def test_batch_margins_are_the_per_row_margins_bit_for_bit(topology, kind, K, D, rows, entries, seed):
    # coupled cliques come first, so a sum from 0.0 in clique order would
    # add them before the unary constant; every row must still read the bits
    # its own compiled scorer gives, whether the batch is summed by the
    # per-term loop (from _FOLD_LOOP_ROWS rows) or by bincount in blocks of
    # one row, of a few rows, or of all of them
    rng = np.random.default_rng(seed)
    base = coupled_graph(rng, topology, K, D, kind)
    cliques = sorted(base.cliques, key=lambda c: len(c.outputs) == 1)
    graph = GraphSpec(K, D, kind, base.order, tuple(cliques))
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    X = rng.standard_normal((rows, D))
    Y = random_labels(rng, rows, K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_FOLD_ENTRIES", entries)
        batch = mg.batch_scorer(graph, weights, X).margin_block(Y)
    for x, y, z in zip(X, Y, batch):
        single = compile_scorer(graph, weights, x).margin_block(y[None])[0]
        assert z.view(np.int64).tolist() == single.view(np.int64).tolist()


def test_sbn_log_likelihood_values(two_node_model):
    graph, weights, x = two_node_model
    got = mg.sbn_log_likelihood(graph, weights, Instance(x, np.array([1, 1], dtype=np.int8)))
    expect = math.log(1 / (1 + math.exp(-2))) + math.log(1 / (1 + math.exp(-1)))
    assert got == pytest.approx(expect, abs=1e-12)
    g3 = mg.build_independent_graph(3, 0, mg.DIRECTED)
    w0 = WeightVector(np.zeros(3), lam=1.0)
    got = mg.sbn_log_likelihood(g3, w0, Instance(np.zeros(0), np.array([1, -1, 1], dtype=np.int8)))
    assert got == pytest.approx(3 * math.log(0.5), abs=1e-12)


def test_sbn_log_likelihood_rejects_undirected():
    g = mg.build_independent_graph(2, 0, mg.UNDIRECTED)
    w = WeightVector(np.zeros(g.n_cliques), lam=1.0)
    with pytest.raises(GraphError):
        mg.sbn_log_likelihood(g, w, Instance(np.zeros(0), np.array([1, 1], dtype=np.int8)))


def test_bm_log_likelihood_values():
    g = GraphSpec(2, 0, mg.UNDIRECTED, (0, 1), (Clique((0, 1)),))
    w0 = WeightVector(np.array([0.0]), lam=1.0)
    y = np.array([1, -1], dtype=np.int8)
    assert mg.bm_log_likelihood(g, w0, Instance(np.zeros(0), y)) == math.log(0.25)
    # single coupling of strength 1: each agreeing assignment has
    # probability e / (2e + 2/e)
    w1 = WeightVector(np.array([1.0]), lam=1.0)
    agree = mg.bm_log_likelihood(g, w1, Instance(np.zeros(0), np.array([1, 1], dtype=np.int8)))
    assert agree == pytest.approx(1.0 - math.log(2 * math.e + 2 * math.exp(-1)), abs=1e-12)


def test_bm_log_likelihood_rejects_directed_and_large_k():
    g = mg.build_independent_graph(2, 0, mg.DIRECTED)
    w = WeightVector(np.zeros(g.n_cliques), lam=1.0)
    with pytest.raises(GraphError):
        mg.bm_log_likelihood(g, w, Instance(np.zeros(0), np.array([1, 1], dtype=np.int8)))
    big = mg.build_independent_graph(26, 0, mg.UNDIRECTED)
    wb = WeightVector(np.zeros(big.n_cliques), lam=1.0)
    yb = np.ones(26, dtype=np.int8)
    with pytest.raises(CapabilityError):
        mg.bm_log_likelihood(big, wb, Instance(np.zeros(0), yb))


def test_log_prob_table_matches_instance_likelihoods():
    rng = np.random.default_rng(5)
    for kind, ll in ((mg.DIRECTED, mg.sbn_log_likelihood), (mg.UNDIRECTED, mg.bm_log_likelihood)):
        for _ in range(5):
            graph, weights, x = random_model(rng, kind, max_outputs=5)
            table = log_prob_table(graph, weights, x)
            assert table.shape == (1 << graph.n_outputs,)
            for idx in range(table.shape[0]):
                y = signs_of_indices(graph.n_outputs, [idx])[0]
                assert table[idx] == pytest.approx(ll(graph, weights, Instance(x, y)), abs=1e-9)


def test_log_prob_table_rejects_large_k():
    big = mg.build_independent_graph(21, 0, mg.UNDIRECTED)
    wb = WeightVector(np.zeros(big.n_cliques), lam=1.0)
    with pytest.raises(CapabilityError):
        log_prob_table(big, wb, np.zeros(0))


def test_likelihoods_normalize_over_all_assignments():
    rng = np.random.default_rng(6)
    for kind in (mg.DIRECTED, mg.UNDIRECTED):
        for _ in range(10):
            graph, weights, x = random_model(rng, kind, max_outputs=8)
            table = log_prob_table(graph, weights, x)
            total = np.exp(table).sum()
            assert abs(total - 1.0) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 12),
    D=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_directed_table_matches_the_sign_matrix_reference(topology, K, D, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, mg.DIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    x = rng.standard_normal(D)
    Z = compile_scorer(graph, weights, x).margin_block(assignment_signs(K, 0, 1 << K))
    reference = -np.logaddexp(0.0, -Z).sum(axis=1)
    table = log_prob_table(graph, weights, x)
    assert table.dtype == np.float64
    assert np.abs(table - reference).max() <= 1e-12


def test_directed_table_memory_at_the_largest_k():
    # the per-chunk (2^16, 20) sign matrix and its margins peaked at 48.5 MB
    # here; the label grid peaks at 10.6 MB (the 8 MB table and a few
    # 0.5 MB chunk arrays), bounded with 3.4 MB to spare
    graph = mg.build_full_graph(TABLE_MAX_OUTPUTS, 1, mg.DIRECTED)
    weights = WeightVector(np.random.default_rng(0).normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    tracemalloc.start()
    try:
        log_prob_table(graph, weights, np.array([0.5]))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 14.0


def test_joint_loss_total_is_the_search_objective_in_any_order():
    # the total sums per-node losses in graph order, as every search and
    # enumeration does; summed in index order it differed from the search
    # objective in the last bit on some of these graphs
    rng = np.random.default_rng(11)
    for _ in range(400):
        K = int(rng.integers(2, 10))
        D = int(rng.integers(0, 4))
        graph = mg.build_full_graph(K, D, mg.DIRECTED, order=tuple(int(i) for i in rng.permutation(K)))
        weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
        x = rng.standard_normal(D)
        found = mg.bb_infer(graph, weights, x)
        truth = mg.exhaustive_infer(graph, weights, x)
        assert mg.joint_loss(graph, weights, Instance(x, found.labels)).total == found.objective
        assert mg.joint_loss(graph, weights, Instance(x, truth.labels)).total == truth.objective
    for _ in range(100):
        K = int(rng.integers(2, 9))
        graph = coupled_graph(rng, "full", K, 2, mg.UNDIRECTED)
        weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
        x = rng.standard_normal(2)
        truth = mg.exhaustive_infer(graph, weights, x)
        assert mg.joint_loss(graph, weights, Instance(x, truth.labels)).total == truth.objective


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 7),
    D=st.integers(0, 3),
    rows=st.integers(1, 4),
    parity_entries=st.sampled_from([1, 16, 256, model._PARITY_ENTRIES]),
    seed=st.integers(0, 2**16),
)
def test_parity_energies_match_the_per_row_margin_reference(topology, K, D, rows, parity_entries, seed):
    rng = np.random.default_rng(seed)
    graph = coupled_graph(rng, topology, K, D, mg.UNDIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    X = rng.standard_normal((rows, D))
    with pytest.MonkeyPatch.context() as mp:
        # small parity matrices split the assignments into sign-flipped chunks
        mp.setattr(model, "_PARITY_ENTRIES", parity_entries)
        energy = model._ParityEnergy(graph, weights)
        if parity_entries == 1:
            assert energy.bits == 0
        chunks = list(energy.chunks(X))
        assert [start for start, _ in chunks] == list(range(0, 1 << K, 1 << energy.bits))
        energies = np.concatenate([E for _, E in chunks], axis=1)
        tables = [log_prob_table(graph, weights, x) for x in X]
        y = random_labels(rng, 1, K)[0]
        likelihood = mg.bm_log_likelihood(graph, weights, Instance(X[0], y))
    for x, E, table in zip(X, energies, tables):
        assert np.abs(E - reference_energies(graph, weights, x)).max() <= 1e-12
        assert np.abs(table - reference_log_table(graph, weights, x)).max() <= 1e-12
    assert abs(likelihood - reference_log_table(graph, weights, X[0])[index_from_signs(y)]) <= 1e-12


def reference_parity_energy(graph, weights, bits):
    """(M, flip, chunks) of the undirected parity energies with the output
    sets numbered as they first occur in the per-node terms of
    ``reference_routing``, node by node, and each coefficient summed in that
    order: ``_ParityEnergy`` as it read those terms.  ``chunks(X)`` yields
    each chunk's energies over 2^bits assignments."""
    K = graph.n_outputs
    _, feeds, *_ = reference_routing(graph)
    sets = {}
    terms = []
    for i, node in enumerate(feeds):
        for j, col, partners in node:
            mask = sum(1 << (K - 1 - k) for k in (i, *partners))
            terms.append((col, sets.setdefault(mask, len(sets)), j))
    M = np.zeros((graph.n_inputs + 1, len(sets)))
    for col, s, j in terms:
        M[col, s] += 0.5 * weights.values[j]
    masks = np.array(list(sets), dtype=np.int64)
    flip = np.where((masks[:, None] >> np.arange(K)) & 1, -1.0, 1.0)
    P = np.ones((len(sets), 1 << bits))
    for b in range(bits):
        P[:, 1 << b : 2 << b] = P[:, : 1 << b] * flip[:, b : b + 1]

    def chunks(X):
        coef = np.concatenate((np.ones((len(X), 1)), X), axis=1) @ M
        for start in range(0, 1 << K, 1 << bits):
            high = [b for b in range(bits, K) if start >> b & 1]
            yield start, (coef * flip[:, high].prod(axis=1)) @ P

    return M, flip, chunks


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    topology=st.sampled_from(["independent", "chain", "full"]),
    K=st.integers(1, 7),
    D=st.integers(0, 3),
    rows=st.integers(1, 4),
    parity_entries=st.sampled_from([1, 16, 256, model._PARITY_ENTRIES]),
    seed=st.integers(0, 2**16),
)
def test_parity_sets_keep_the_per_node_term_order(topology, K, D, rows, parity_entries, seed):
    """The output sets, their coefficients and every chunk's energies have
    the bits of the per-node term walk, so the tables ``sample_bm`` draws
    from do not change with how the layout stores its terms."""
    rng = np.random.default_rng(seed)
    if topology == "independent":
        graph = mg.build_independent_graph(K, D, mg.UNDIRECTED, order=tuple(int(i) for i in rng.permutation(K)))
    else:
        graph = coupled_graph(rng, topology, K, D, mg.UNDIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    X = rng.standard_normal((rows, D))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_PARITY_ENTRIES", parity_entries)
        energy = model._ParityEnergy(graph, weights)
    M, flip, chunks = reference_parity_energy(graph, weights, energy.bits)
    assert energy.M.shape == M.shape and (energy.M == M).all()
    assert energy.flip.shape == flip.shape and (energy.flip == flip).all()
    got = list(energy.chunks(X))
    expected = list(chunks(X))
    assert [start for start, _ in got] == [start for start, _ in expected]
    for (_, E), (_, R) in zip(got, expected):
        assert E.shape == R.shape and (E == R).all()


def test_index_sign_conversions_roundtrip():
    for K in (1, 3, 6):
        for idx in range(1 << K):
            y = signs_of_indices(K, [idx])[0]
            assert set(np.unique(y)) <= {-1, 1}
            assert index_from_signs(y) == idx
    # index 0 is the all-positive assignment (ties prefer +1)
    assert signs_of_indices(3, [0])[0].tolist() == [1, 1, 1]


def test_surrogate_bound_check_values():
    assert surrogate_bound_check(0.0) == (math.log(2.0), 1.0 + HINGE_LOG_OFFSET)
    log_loss, hinge_b = surrogate_bound_check(1.0)
    assert log_loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-15)
    assert hinge_b == HINGE_LOG_OFFSET
    log_loss, hinge_b = surrogate_bound_check(-3.0)
    assert log_loss == pytest.approx(math.log(1 + math.exp(3)), abs=1e-12)
    assert hinge_b == 4.0 + HINGE_LOG_OFFSET


def test_surrogate_offset_matches_its_formula():
    assert HINGE_LOG_OFFSET == math.log(math.e + math.exp(-1.0))
    # slack log_loss vs hinge+offset is smallest at z = 1, where it equals
    # log(e + 1/e) - log(1 + 1/e) > 0
    log_loss, hinge_b = surrogate_bound_check(1.0)
    min_slack = HINGE_LOG_OFFSET - math.log(1 + math.exp(-1.0))
    assert hinge_b - log_loss == pytest.approx(min_slack, abs=1e-12)


def test_surrogate_bound_accepts_arrays():
    z = np.linspace(-5, 5, 101)
    log_loss, hinge_b = surrogate_bound_check(z)
    assert log_loss.shape == z.shape
    assert (hinge_b - log_loss >= -1e-12).all()
