"""File formats: svmlight-style data, model files, prediction files."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import margraph as mg
from margraph import BBConfig, Dataset, WeightVector
from margraph.dataio import (
    ModelFile,
    format_model,
    load_model,
    parse_model,
    parse_multilabel_svmlight,
    read_label_matrix,
    read_predictions,
    save_model,
    write_multilabel_svmlight,
    write_predictions,
)
from margraph.errors import DataError, GraphError, MargraphError, ModelFormatError
from margraph.inference import (
    STATUS_BUDGET,
    STATUS_FALLBACK,
    STATUS_LOCAL,
    STATUS_OPTIMAL,
    InferenceResult,
    bb_infer,
)
from margraph.model import signs_from_index

from _helpers import (
    coupled_graph,
    random_dataset,
    reference_parse_model,
    reference_parse_svmlight,
    reference_write_svmlight,
)


def write(tmp_path, text, name="data.sv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# parsing


def test_basic_line_grammar(tmp_path):
    p = write(tmp_path, "1,3 2:0.5 7:1.0\n")
    ds = parse_multilabel_svmlight(p, n_outputs=3, n_inputs=7)
    assert ds.Y.tolist() == [[1, -1, 1]]
    x = ds.X[0]
    assert x[1] == 0.5 and x[6] == 1.0
    assert x[[0, 2, 3, 4, 5]].tolist() == [0.0] * 5


def test_dimensions_default_to_file_maxima(tmp_path):
    p = write(tmp_path, "1,3 2:0.5 7:1.0\n2 1:4.0\n")
    ds = parse_multilabel_svmlight(p)
    assert ds.n_outputs == 3 and ds.n_inputs == 7
    assert ds.Y.tolist() == [[1, -1, 1], [-1, 1, -1]]


def test_empty_label_field_means_all_negative(tmp_path):
    p = write(tmp_path, "1 1:2.0\n 1:3.0\n")
    ds = parse_multilabel_svmlight(p)
    assert ds.Y.tolist() == [[1], [-1]]
    assert ds.X.ravel().tolist() == [2.0, 3.0]


def test_comments_and_blank_lines_are_skipped(tmp_path):
    p = write(tmp_path, "# header\n\n1 1:2.0 # trailing note\n   \n2 1:-1.0\n")
    ds = parse_multilabel_svmlight(p)
    assert ds.n_instances == 2
    assert ds.Y.tolist() == [[1, -1], [-1, 1]]


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("1 nonsense\n", "expected idx:value"),
        ("1 2:abc\n", "bad feature token"),
        ("x 1:1.0\n", "bad label"),
        ("0 1:1.0\n", "label ids are 1-based"),
        ("1 0:1.0\n", "feature ids are 1-based"),
        ("1 2:1.0 2:3.0\n", "duplicate feature index"),
        ("1 2:inf\n", "non-finite feature value"),
    ]
    for text, fragment in cases:
        p = write(tmp_path, "# comment\n" + text)
        with pytest.raises(DataError, match=fragment) as err:
            parse_multilabel_svmlight(p)
        assert ":2: " in str(err.value)  # the data line is line 2


def test_fixed_counts_are_enforced(tmp_path):
    p = write(tmp_path, "4 1:1.0\n")
    with pytest.raises(DataError, match="exceeds label count"):
        parse_multilabel_svmlight(p, n_outputs=3)
    p2 = write(tmp_path, "1 9:1.0\n")
    with pytest.raises(DataError, match="exceeds input count"):
        parse_multilabel_svmlight(p2, n_inputs=8)


def test_empty_file_and_no_labels_are_rejected(tmp_path):
    with pytest.raises(DataError, match="no data lines"):
        parse_multilabel_svmlight(write(tmp_path, "# only a comment\n"))
    with pytest.raises(DataError, match="no labels anywhere"):
        parse_multilabel_svmlight(write(tmp_path, " 1:1.0\n"))


# ---------------------------------------------------------------------------
# writing


def test_dataset_write_parse_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 20, 4, 5)
    ds.X[rng.random(ds.X.shape) < 0.2] = 0.0  # exercise sparsity
    ds.X[0, 0] = 0.1
    ds.X[1, 1] = 1e-17
    ds.X[2, 2] = -math.pi
    first = tmp_path / "first.sv"
    second = tmp_path / "second.sv"
    write_multilabel_svmlight(ds, first)
    parsed = parse_multilabel_svmlight(first, n_outputs=4, n_inputs=5)
    assert np.array_equal(parsed.X, ds.X) and np.array_equal(parsed.Y, ds.Y)
    write_multilabel_svmlight(parsed, second)
    assert first.read_bytes() == second.read_bytes()


FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 0.1, -math.pi, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # zeros and subnormals
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    K=st.integers(1, 5),
    D=st.sampled_from([0, 1, 3, 8, 300]),
)
def test_svmlight_write_then_parse_round_trips(tmp_path_factory, data, n, K, D):
    # the fill value repeats across a row, so D=300 writes wide rows
    X = data.draw(arrays(np.float64, (n, D), elements=FEATURE_VALUES, fill=FEATURE_VALUES))
    Y = data.draw(arrays(np.int8, (n, K), elements=st.sampled_from([-1, 1])))
    ds = Dataset(X, Y)
    path = tmp_path_factory.getbasetemp() / "roundtrip.sv"
    if ((Y == -1).all(axis=1) & (X == 0.0).all(axis=1)).any():
        with pytest.raises(DataError, match="blank line"):
            write_multilabel_svmlight(ds, path)
        return
    write_multilabel_svmlight(ds, path)
    parsed = parse_multilabel_svmlight(path, n_outputs=K, n_inputs=D)
    # -0.0 is a zero, which the sparse format leaves out, so it reads back as 0.0
    assert np.array_equal(parsed.X, X) and np.array_equal(parsed.Y, Y)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    K=st.integers(1, 5),
    D=st.sampled_from([0, 1, 3, 8, 300]),
)
def test_svmlight_writer_matches_the_indexing_reference(tmp_path_factory, data, n, K, D):
    # -0.0 and subnormals in X, rows with no positive label, and blank rows
    X = data.draw(arrays(np.float64, (n, D), elements=FEATURE_VALUES, fill=FEATURE_VALUES))
    Y = data.draw(arrays(np.int8, (n, K), elements=st.sampled_from([-1, 1])))
    ds = Dataset(X, Y)
    got = tmp_path_factory.getbasetemp() / "got.sv"
    expected = tmp_path_factory.getbasetemp() / "expected.sv"
    try:
        reference_write_svmlight(ds, expected)
    except DataError as err:
        with pytest.raises(DataError) as got_err:
            write_multilabel_svmlight(ds, got)
        assert str(got_err.value) == str(err)
        return
    write_multilabel_svmlight(ds, got)
    assert got.read_bytes() == expected.read_bytes()


def test_writer_rejects_unrepresentable_instance(tmp_path):
    ds = Dataset(np.zeros((1, 2)), np.array([[-1, -1]], dtype=np.int8))
    with pytest.raises(DataError, match="blank line"):
        write_multilabel_svmlight(ds, tmp_path / "bad.sv")


def test_writer_emits_all_negative_instances_with_leading_space(tmp_path):
    ds = Dataset(np.array([[1.5]]), np.array([[-1]], dtype=np.int8))
    p = tmp_path / "neg.sv"
    write_multilabel_svmlight(ds, p)
    assert p.read_text() == " 1:1.5\n"
    assert parse_multilabel_svmlight(p, n_outputs=1).Y.tolist() == [[-1]]


# ---------------------------------------------------------------------------
# model files


def fitted_model(scale=None):
    graph = mg.build_chain_graph(3, 2, mg.DIRECTED, order=(2, 0, 1))
    values = np.array([0.1, -2.5, 1e-17, math.pi, 0.1 + 0.2, -0.0,
                       5e-324, 1.0, 2.0, 3.0, 4.0])
    weights = WeightVector(values, lam=0.05, eta0=0.25)
    return ModelFile(graph=graph, weights=weights, epochs=12, gap=3.25e-5, scale=scale)


def test_model_save_load_save_is_byte_identical(tmp_path):
    for scale in (None, (np.array([-1.0, 0.5]), np.array([2.0, 0.5]))):
        model = fitted_model(scale)
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, a)
        loaded = load_model(a)
        save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()


def test_model_roundtrip_preserves_exact_doubles(tmp_path):
    model = fitted_model()
    loaded = parse_model(format_model(model))
    assert np.array_equal(loaded.weights.values, model.weights.values)
    assert loaded.weights.lam == model.weights.lam
    assert loaded.weights.eta0 == model.weights.eta0
    assert loaded.epochs == model.epochs and loaded.gap == model.gap
    assert loaded.graph == model.graph


def float_bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# finite doubles, with the awkward ones drawn often (-0.0 first, which
# hypothesis draws most)
awkward_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    kind=st.sampled_from([mg.DIRECTED, mg.UNDIRECTED]),
    topology=st.sampled_from(["chain", "full"]),
    K=st.integers(1, 6),
    D=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    lam=st.one_of(st.sampled_from([5e-324, 1e300]), st.floats(min_value=1e-300, max_value=1e300)),
    eta0=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300]), st.floats(min_value=0.0, max_value=1e300)),
    epochs=st.integers(0, 10**9),
    gap=awkward_floats,
    scaled=st.booleans(),
    data=st.data(),
)
def test_model_format_parse_format_round_trips(kind, topology, K, D, seed, lam, eta0, epochs, gap, scaled, data):
    graph = coupled_graph(np.random.default_rng(seed), topology, K, D, kind)
    values = data.draw(st.lists(awkward_floats, min_size=graph.n_cliques, max_size=graph.n_cliques))
    scale = None
    if scaled:
        scale = tuple(np.array(data.draw(st.lists(awkward_floats, min_size=D, max_size=D))) for _ in range(2))
    model = ModelFile(graph, WeightVector(np.array(values), lam=lam, eta0=eta0), epochs, gap, scale)
    text = format_model(model)
    loaded = parse_model(text)
    assert format_model(loaded).encode() == text.encode()
    assert loaded.graph == graph
    assert float_bits(loaded.weights.values) == float_bits(values)
    assert float_bits([loaded.weights.lam, loaded.weights.eta0]) == float_bits([lam, eta0])
    assert loaded.epochs == epochs and float_bits(loaded.gap) == float_bits(gap)
    if scale is None:
        assert loaded.scale is None
    else:
        assert [float_bits(v) for v in loaded.scale] == [float_bits(v) for v in scale]


def test_loaded_model_predicts_identically(tmp_path):
    rng = np.random.default_rng(3)
    graph = mg.build_full_graph(4, 2, mg.DIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    model = ModelFile(graph=graph, weights=weights)
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    x = rng.standard_normal(2)
    before = bb_infer(graph, weights, x, BBConfig(cutoff=1e9))
    after = bb_infer(loaded.graph, loaded.weights, x, BBConfig(cutoff=1e9))
    assert np.array_equal(before.labels, after.labels)
    assert before.objective == after.objective
    assert before.states_visited == after.states_visited


def test_apply_scale_maps_training_range_to_unit_interval():
    lo, hi = np.array([0.0, 5.0]), np.array([10.0, 5.0])
    model = ModelFile(graph=mg.build_independent_graph(1, 2, mg.DIRECTED),
                      weights=WeightVector(np.zeros(3), lam=1.0),
                      scale=(lo, hi))
    X = np.array([[0.0, 7.0], [10.0, 5.0], [5.0, 5.0]])
    scaled = model.apply_scale(X)
    # constant features collapse to zero; the rest map min->-1, max->+1
    assert scaled.tolist() == [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("n_weights", [0, 2, 7, 9])
def test_a_model_needs_one_weight_per_clique(n_weights):
    # format_model would write "cliques 8" and then n_weights clique lines,
    # a file parse_model refuses
    graph = mg.build_chain_graph(3, 1, mg.DIRECTED)
    assert graph.n_cliques == 8
    with pytest.raises(DataError, match=f"^{n_weights} weights for 8 cliques$"):
        ModelFile(graph, WeightVector(np.full(n_weights, 0.5), lam=1.0))


def test_model_parse_errors():
    with pytest.raises(ModelFormatError, match="bad magic"):
        parse_model("something else\n")
    with pytest.raises(ModelFormatError, match="version"):
        parse_model("margraph-model 99\n")
    good = format_model(fitted_model())
    truncated = "".join(good.splitlines(keepends=True)[:-2])
    with pytest.raises(ModelFormatError, match="line"):
        parse_model(truncated)
    swapped = good.replace("kind directed", "sort directed")
    with pytest.raises(ModelFormatError, match="expected 'kind'"):
        parse_model(swapped)
    bad_weight = good.replace("clique 0 - 0.1", "clique 0 - zero")
    with pytest.raises(ModelFormatError, match="line"):
        parse_model(bad_weight)


def _edited_model(old, new):
    good = format_model(fitted_model((np.array([-1.0, 0.5]), np.array([2.0, 0.5]))))
    assert old in good
    return good.replace(old, new).encode()


_NOT_UTF8 = b"\xff\xfe\n"


@pytest.mark.parametrize("read, content, exc, message", [
    (load_model, _edited_model("scale_min -1.0 0.5", "scale_min -1.0"), ModelFormatError,
     "scale vectors do not match the input count"),
    (load_model, _edited_model("scale_max 2.0", "scale_max nan"), ModelFormatError,
     "scale vectors must be finite"),
    (load_model, _edited_model("cliques 11", "clique 11"), ModelFormatError,
     "expected 'cliques', got 'clique'"),
    (load_model, _edited_model("clique 2 - 1e-17", "clique 2 1e-17"), ModelFormatError,
     "clique line needs outputs, input, weight"),
    (load_model, _edited_model("4.0\nend", "4.0\nfin"), ModelFormatError, "missing 'end' sentinel"),
    (load_model, _edited_model("cliques 11", "cliques -1"), ModelFormatError, "negative clique count -1"),
    (load_model, _edited_model("cliques 11", "cliques 99999999999999"), ModelFormatError,
     "expected 'clique', got 'end'"),
    (load_model, _edited_model("4.0\nend\n", "4.0\n"), ModelFormatError, "unexpected end of model file"),
    (load_model, _edited_model("4.0\nend", "4.0 5\nend"), ModelFormatError,
     r"line 23: clique line needs outputs, input, weight; got \['0,1', '-', '4.0', '5'\]"),
    (load_model, _edited_model("- 4.0\nend", "4.0\nend"), ModelFormatError,
     r"line 23: clique line needs outputs, input, weight; got \['0,1', '4.0'\]"),
    (load_model, _edited_model(" 0,2 - 3.0", "\t0,2 - 3.0"), ModelFormatError,
     r"line 22: expected 'clique', got 'clique\\t0,2'"),
    (load_model, _edited_model("clique 0,2", " clique 0,2"), ModelFormatError, "line 22: expected 'clique', got ''"),
    # a clique's own fault on an earlier line comes before a later line's bad token, and after an earlier one's
    (load_model, _edited_model("clique 0 - 0.1\nclique 1 - -2.5", "clique 2,-1,2 - 0.1\nclique 1 - x"), GraphError,
     r"^negative output index in clique: \(-1, 2\)$"),
    (load_model, _edited_model("clique 0 1 0.3", "clique 0 -1 0.3"), GraphError, "^negative input feature index: -1$"),
    (load_model, _edited_model("clique 0 - 0.1\nclique 1 - -2.5", "clique 0 - x\nclique -1 - -2.5"), ModelFormatError,
     "line 13: could not convert string to float: 'x'"),
    (load_model, _edited_model("epochs 12", "epochs -3"), ModelFormatError, "line 8: negative epoch count -3"),
    (load_model, _edited_model("gap 3.25e-05", "gap nan"), ModelFormatError, "line 9: non-finite gap nan"),
    (load_model, _edited_model("gap 3.25e-05", "gap -inf"), ModelFormatError, "line 9: non-finite gap -inf"),
    (read_predictions, b"\n  \n", DataError, "no prediction lines"),
    (read_predictions, b"1 -1 loss=nan states=3 status=proven_optimal\n", DataError,
     r"file\.txt:1: loss= must be finite and non-negative, got 'loss=nan'$"),
    (read_predictions, b"1 loss=0.0 states=1 status=proven_optimal\n-1 loss=-0.5 states=1 status=proven_optimal\n",
     DataError, r"file\.txt:2: loss= must be finite and non-negative, got 'loss=-0.5'$"),
    (read_predictions, b"1 loss=inf states=1 status=proven_optimal\n", DataError,
     r"file\.txt:1: loss= must be finite and non-negative, got 'loss=inf'$"),
    (read_predictions, b"1 loss=1.0 states=-4 status=local_optimum\n", DataError,
     r"file\.txt:1: negative states= field 'states=-4'$"),
    (read_predictions, b"1 loss=1.0 states=4 status=optimal\n", DataError,
     r"file\.txt:1: unknown status 'optimal', expected one of proven_optimal, budget_exceeded, "
     r"no_solution_under_S_fallback, local_optimum$"),
    (load_model, _NOT_UTF8, ModelFormatError, "not a UTF-8 text file"),
    (parse_multilabel_svmlight, _NOT_UTF8, DataError, "not a UTF-8 text file"),
    (read_predictions, _NOT_UTF8, DataError, "not a UTF-8 text file"),
    (read_label_matrix, _NOT_UTF8, DataError, "not a UTF-8 text file"),
], ids=lambda v: "file" if isinstance(v, bytes) else None)
def test_reader_errors_are_typed_and_name_the_fault(tmp_path, read, content, exc, message):
    path = tmp_path / "file.txt"
    path.write_bytes(content)
    with pytest.raises(exc, match=message):
        read(path)


# ---------------------------------------------------------------------------
# the readers against their one-token-at-a-time references

# digits and the bytes the readers split on, convert or skip
_EDIT_BYTES = b"0123456789\xff -+.:,#=e\n\t"

# dense rows (ids 1..n in order; 1e308 + 1e308 overflows a row's sum),
# sparse rows (ids out of order, with gaps, and one edit from a duplicate),
# comments, blank lines, an empty label field and a row of labels alone
_SVMLIGHT_TEXTS = (
    "1,3 1:0.5 2:-1 3:1e308 4:1e308\n2 1:3 2:-0.0 3:7 4:5e-324\n",
    "# header\n2 3:1.5 1:2\n\n1,2 12:0.25 2:1 21:3 # note\n   \n3 2:1e-300\n",
    " 1:3 2:4 3:1 4:2\n1 1:1 3:-2.5\n1,2,3\n",
)


def _undirected_model_text():
    graph = coupled_graph(np.random.default_rng(0), "full", 3, 2, mg.UNDIRECTED)
    weights = WeightVector(np.linspace(-1.0, 1.0, graph.n_cliques), lam=0.5, eta0=1.0)
    return format_model(ModelFile(graph, weights, epochs=7, gap=-2.5e-17))


# the last is short, and its gap is the largest double, so that many of
# its edits make the gap overflow to inf
_MODEL_TEXTS = (
    format_model(fitted_model((np.array([-1.0, 0.5]), np.array([2.0, 0.5])))),
    _undirected_model_text(),
    format_model(
        ModelFile(mg.build_independent_graph(1, 0), WeightVector([0.5], lam=1.0), epochs=7, gap=1.7976931348623157e308)
    ),
)


def _edited(data, content: bytes) -> bytes:
    """content after 1-3 byte inserts, deletes or replaces."""
    content = bytearray(content)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]) if content else st.just("insert"))
        # drawn from a range, so every position is as likely as the first
        at = data.draw(st.sampled_from(range(len(content) + (op == "insert"))), label="at")
        byte = data.draw(st.sampled_from(_EDIT_BYTES), label="byte")
        if op == "insert":
            content[at:at] = bytes([byte])
        elif op == "delete":
            del content[at]
        else:
            content[at] = byte
    return bytes(content)


def _outcome(read, *args):
    """What read(*args) returns, or the package error it raises."""
    try:
        return read(*args)
    except MargraphError as exc:
        return exc


def _reference_model_outcome(text):
    """reference_parse_model's outcome, with the epoch and gap checks it
    lacks applied wherever it read those lines (8 and 9) without a fault."""
    expected = _outcome(reference_parse_model, text)
    read_ok = math.inf
    if isinstance(expected, ModelFormatError):
        fault = re.match(r"line (\d+): ", str(expected))
        read_ok = int(fault.group(1)) - 1 if fault else 0
    lines = text.splitlines()
    if read_ok >= 8 and (epochs := int(lines[7].partition(" ")[2])) < 0:
        return ModelFormatError(f"line 8: negative epoch count {epochs}")
    if read_ok >= 9 and not math.isfinite(gap := float(lines[8].partition(" ")[2])):
        return ModelFormatError(f"line 9: non-finite gap {gap!r}")
    return expected


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    data=st.data(),
    text=st.sampled_from(_SVMLIGHT_TEXTS),
    counts=st.sampled_from([(None, None), (3, 4), (2, 3)]),
)
def test_svmlight_reader_matches_the_token_reference_on_edited_files(tmp_path_factory, data, text, counts):
    path = tmp_path_factory.getbasetemp() / "edited.sv"
    path.write_bytes(_edited(data, text.encode()))
    expected = _outcome(reference_parse_svmlight, path, *counts)
    got = _outcome(parse_multilabel_svmlight, path, *counts)
    if isinstance(expected, Dataset):
        assert isinstance(got, Dataset), got
        for a, b in ((got.X, expected.X), (got.Y, expected.Y)):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert float_bits(got.X.ravel()) == float_bits(expected.X.ravel())  # -0.0 stays -0.0
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data(), text=st.sampled_from(_MODEL_TEXTS))
def test_model_reader_matches_the_cursor_reference_on_edited_files(data, text):
    edited = _edited(data, text.encode()).decode("utf-8", errors="replace")
    expected = _reference_model_outcome(edited)
    got = _outcome(parse_model, edited)
    if isinstance(expected, ModelFile):
        assert isinstance(got, ModelFile), got
        assert format_model(got) == format_model(expected)
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))


# ---------------------------------------------------------------------------
# prediction files


def test_prediction_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    graph = mg.build_chain_graph(3, 1, mg.DIRECTED)
    weights = WeightVector(rng.normal(0.0, 1.0, graph.n_cliques), lam=1.0)
    results = [bb_infer(graph, weights, x, BBConfig(cutoff=1e9))
               for x in rng.standard_normal((6, 1))]
    path = tmp_path / "preds.txt"
    write_predictions(path, results)
    Y, losses, states, statuses = read_predictions(path)
    assert Y.tolist() == [r.labels.tolist() for r in results]
    assert losses.tolist() == [r.objective for r in results]
    assert states.tolist() == [r.states_visited for r in results]
    assert statuses == [r.status for r in results]
    first = path.read_text().splitlines()[0]
    assert first.split()[:3] == [f"{v:+d}" for v in results[0].labels]
    assert "loss=" in first and "states=" in first and "status=" in first


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), K=st.integers(1, 30))
def test_prediction_write_then_read_round_trips(tmp_path_factory, data, K):
    losses = st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308, 1e300]),
    )
    statuses = st.sampled_from([STATUS_OPTIMAL, STATUS_BUDGET, STATUS_FALLBACK, STATUS_LOCAL])
    rows = data.draw(
        st.lists(st.tuples(st.integers(0, 2**K - 1), losses, st.integers(0, 2**40), statuses), min_size=1, max_size=6)
    )
    results = [InferenceResult(signs_from_index(K, idx), obj, states, status) for idx, obj, states, status in rows]
    path = tmp_path_factory.getbasetemp() / "round-trip.pred"
    write_predictions(path, results)
    Y, got_losses, got_states, got_statuses = read_predictions(path)
    assert Y.dtype == np.int8
    assert Y.tolist() == [r.labels.tolist() for r in results]
    expected = np.array([r.objective for r in results], dtype=np.float64)
    assert got_losses.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert got_states.tolist() == [r.states_visited for r in results]
    assert got_statuses == [r.status for r in results]


def test_read_predictions_validation(tmp_path):
    p = write(tmp_path, "+1 0 loss=1.0 states=3 status=proven_optimal\n", "p.txt")
    with pytest.raises(DataError, match="must be"):
        read_predictions(p)
    p2 = write(tmp_path, "+1 loss=1.0 states=3\n", "p2.txt")
    with pytest.raises(DataError):
        read_predictions(p2)
    p3 = write(tmp_path,
               "+1 +1 loss=1.0 states=3 status=local_optimum\n+1 loss=1.0 states=3 status=local_optimum\n",
               "p3.txt")
    with pytest.raises(DataError, match="inconsistent label counts"):
        read_predictions(p3)


def test_read_label_matrix_sniffs_both_formats(tmp_path):
    data = write(tmp_path, "1 1:1.0\n2 1:2.0\n")
    assert read_label_matrix(data).tolist() == [[1, -1], [-1, 1]]
    preds = write(tmp_path, "+1 -1 loss=0.5 states=2 status=proven_optimal\n", "p.txt")
    assert read_label_matrix(preds).tolist() == [[1, -1]]


_PREDICTION = "+1 -1 loss=0.5 states=2 status=proven_optimal"


@pytest.mark.parametrize("edited, message", [
    (_PREDICTION.replace("loss=", ""), "missing loss= field, got '0.5'"),
    (_PREDICTION.replace("loss=", "loss"), "missing loss= field, got 'loss0.5'"),
])
def test_a_prediction_file_whose_first_line_lost_its_loss_key_is_still_read_as_one(tmp_path, edited, message):
    # svmlight tokens never hold '=', so the file is sniffed as predictions
    # and the damaged field is named, not parsed as svmlight features
    path = write(tmp_path, f"{edited}\n{_PREDICTION}\n", "p.pred")
    with pytest.raises(DataError, match=f"p.pred:1: {message}"):
        read_label_matrix(path)


@pytest.mark.parametrize("old, new, message", [
    ("loss=0.5", "loss0.5", "missing loss= field, got 'loss0.5'"),
    ("loss=0.5", "lost=0.5", "missing loss= field, got 'lost=0.5'"),
    ("loss=0.5", "loss=x", "malformed loss= field 'loss=x'"),
    ("states=2", "states2", "missing states= field, got 'states2'"),
    ("states=2", "states=2.5", "malformed states= field 'states=2.5'"),
    ("states=2", "states=", "malformed states= field 'states='"),
    ("status=proven_optimal", "proven_optimal", "missing status= field, got 'proven_optimal'"),
    ("loss=0.5 states=2", "states=2 loss=0.5", "missing loss= field, got 'states=2'"),
])
def test_read_predictions_names_a_missing_or_malformed_field(tmp_path, old, new, message):
    path = write(tmp_path, f"{_PREDICTION}\n{_PREDICTION.replace(old, new)}\n", "p.pred")
    with pytest.raises(DataError, match=f"p.pred:2: {message}$"):
        read_predictions(path)
