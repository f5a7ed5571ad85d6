"""File formats: multi-label svmlight data, model files, prediction files.

All floats are written with repr(), the shortest decimal that round-trips
to the exact double, so save/load/save cycles are byte-identical.

The svmlight reader works a line at a time: it splits a line once,
converts its labels, ids and values with ``map``, skips ``int()`` when
the ids read "1".."n" in order (a row that leaves out no zero), and checks
ranges, finiteness and duplicates once per line.  That is the only way a
line is accepted.  A line it refuses is read again one token at a time
(``_line_fault``) only to word the error, naming the first fault in token
order; that reading never accepts a line.  The matrices are then filled by
one indexed assignment each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import DataError, GraphError, MargraphError, ModelFormatError
from .graphs import Cliques, GraphSpec
from .inference import STATUS_BUDGET, STATUS_FALLBACK, STATUS_LOCAL, STATUS_OPTIMAL
from .model import WeightVector, _check_weight_count

__all__ = [
    "MODEL_FORMAT_VERSION",
    "ModelFile",
    "minmax_scale",
    "parse_multilabel_svmlight",
    "write_multilabel_svmlight",
    "format_model",
    "parse_model",
    "save_model",
    "load_model",
    "write_predictions",
    "read_predictions",
    "read_label_matrix",
]

MODEL_FORMAT_VERSION = 1
_MODEL_MAGIC = "margraph-model"


def _numbered_lines(path: str):
    """(line number, line) pairs of a text file; bytes that are not UTF-8
    are a DataError naming the file, not a UnicodeDecodeError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not a UTF-8 text file") from None


# ---------------------------------------------------------------------------
# multi-label svmlight: "l1,l2,...  idx:val idx:val ..." with 1-based ids


def _line_fault(path: str, ln: int, tokens: list[str], start: int, n_outputs, n_inputs) -> DataError:
    """The error of a line that ``parse_multilabel_svmlight`` refused,
    worded by reading the line one label and one token at a time.  This
    never accepts a line: one it finds no fault in is an internal error."""
    for piece in tokens[0].split(",") if start else ():
        try:
            label = int(piece)
        except ValueError:
            return DataError(f"{path}:{ln}: bad label {piece!r}")
        if label < 1:
            return DataError(f"{path}:{ln}: label ids are 1-based, got {label}")
        if n_outputs is not None and label > n_outputs:
            return DataError(f"{path}:{ln}: label {label} exceeds label count {n_outputs}")
    seen: set[int] = set()
    for tok in tokens[start:]:
        idx_s, colon, val_s = tok.partition(":")
        if not colon:
            return DataError(f"{path}:{ln}: expected idx:value, got {tok!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            return DataError(f"{path}:{ln}: bad feature token {tok!r}")
        if idx < 1:
            return DataError(f"{path}:{ln}: feature ids are 1-based, got {idx}")
        if n_inputs is not None and idx > n_inputs:
            return DataError(f"{path}:{ln}: feature {idx} exceeds input count {n_inputs}")
        if not math.isfinite(val):
            return DataError(f"{path}:{ln}: non-finite feature value {val_s!r}")
        if idx in seen:
            return DataError(f"{path}:{ln}: duplicate feature index {idx}")
        seen.add(idx)
    raise RuntimeError(f"{path}:{ln}: svmlight line refused without a fault")


def parse_multilabel_svmlight(path, n_outputs: int | None = None, n_inputs: int | None = None) -> Dataset:
    """Read a multi-label svmlight file into a dense dataset.

    Each data line is a comma-separated list of 1-based label ids (labels
    listed are +1, the rest -1; an empty list means all -1), followed by
    whitespace-separated 1-based idx:value feature pairs.  Blank lines are
    skipped and '#' starts a comment.  Label and feature counts are taken
    from the file's maxima unless given.
    """
    path = str(path)
    labels: list[int] = []  # every row's label ids, row after row
    label_counts: list[int] = []
    ids: list[int] = []  # every row's feature ids, row after row
    values: list[float] = []
    feature_counts: list[int] = []
    counting: tuple[str, ...] = ()  # "1", "2", ...: the ids of a row that leaves out no zero
    max_label = 0
    max_feature = 0
    for ln, raw in _numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        start = 0 if ":" in tokens[0] else 1
        n = len(tokens) - start
        row_values: list[float] = []
        row_ids = range(1, n + 1)
        sparse = False
        try:
            row_labels = list(map(int, tokens[0].split(","))) if start else []
            if n:
                heads, _, tails = zip(*map(str.partition, tokens[start:], repeat(":")))
                row_values = list(map(float, tails))
                if len(counting) < n:
                    counting = tuple(map(str, range(1, 2 * n + 1)))
                sparse = heads != counting[:n]
                if sparse:
                    row_ids = list(map(int, heads))
        except ValueError:
            raise _line_fault(path, ln, tokens, start, n_outputs, n_inputs) from None
        top_label = max(row_labels, default=0)
        top_feature = max(row_ids) if sparse else n
        if (
            (row_labels and min(row_labels) < 1)
            or (n_outputs is not None and top_label > n_outputs)
            or (sparse and (min(row_ids) < 1 or len(set(row_ids)) != n))
            or (n_inputs is not None and top_feature > n_inputs)
            # a finite sum has finite terms; an infinite one may only have overflowed
            or not (math.isfinite(sum(row_values)) or all(map(math.isfinite, row_values)))
        ):
            raise _line_fault(path, ln, tokens, start, n_outputs, n_inputs)
        labels += row_labels
        label_counts.append(len(row_labels))
        ids += row_ids
        values += row_values
        feature_counts.append(n)
        max_label = max(max_label, top_label)
        max_feature = max(max_feature, top_feature)
    if not feature_counts:
        raise DataError(f"{path}: no data lines")
    n_rows = len(feature_counts)
    K = n_outputs if n_outputs is not None else max_label
    if K < 1:
        raise DataError(f"{path}: no labels anywhere; pass an explicit label count")
    D = n_inputs if n_inputs is not None else max_feature
    try:
        X = np.zeros((n_rows, D), dtype=np.float64)
        Y = np.full((n_rows, K), -1, dtype=np.int8)
    except (ValueError, MemoryError) as exc:
        raise DataError(f"{path}: cannot hold {n_rows} rows of {K} labels and {D} features: {exc}") from None
    rows = np.arange(n_rows)
    Y[np.repeat(rows, label_counts), np.array(labels, dtype=np.intp) - 1] = 1
    X[np.repeat(rows, feature_counts), np.array(ids, dtype=np.intp) - 1] = values
    return Dataset(X, Y)


def write_multilabel_svmlight(dataset: Dataset, path) -> None:
    """Write a dataset in the format parse_multilabel_svmlight reads.

    Only nonzero features are written.  An instance with no positive labels
    and no nonzero features has no representation in this format and is
    rejected.
    """
    lines = []
    for r in range(dataset.n_instances):
        # one row at a time as Python scalars: no per-element NumPy indexing,
        # and no whole-matrix list alive at once
        labels = ",".join(str(k + 1) for k, v in enumerate(dataset.Y[r].tolist()) if v == 1)
        feats = [f"{d + 1}:{v!r}" for d, v in enumerate(dataset.X[r].tolist()) if v != 0.0]
        if not labels and not feats:
            raise DataError(
                f"instance {r} has no positive labels and no nonzero features; "
                "it would serialize to a blank line"
            )
        lines.append((labels + " " + " ".join(feats)).strip() if labels else " " + " ".join(feats))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# model files


@dataclass(frozen=True)
class ModelFile:
    """Everything needed to predict: graph, weights, and training metadata.

    ``scale`` optionally carries per-feature (min, max) vectors used to map
    inputs to [-1, 1] at training time; prediction applies the same map.
    The weights hold one value per clique of the graph.
    """

    graph: GraphSpec
    weights: WeightVector
    epochs: int = 0
    gap: float = 0.0
    scale: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        _check_weight_count(self.graph, self.weights)

    def apply_scale(self, X: np.ndarray) -> np.ndarray:
        return X if self.scale is None else minmax_scale(X, *self.scale)


def minmax_scale(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map each feature's [lo, hi] onto [-1, 1]; constant features map to 0."""
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, 2.0 * (X - lo) / safe - 1.0, 0.0)


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def format_model(model: ModelFile) -> str:
    g = model.graph
    lines = [
        f"{_MODEL_MAGIC} {MODEL_FORMAT_VERSION}",
        f"kind {g.kind}",
        f"outputs {g.n_outputs}",
        f"inputs {g.n_inputs}",
        "order " + " ".join(str(i) for i in g.order),
        f"lambda {float(model.weights.lam)!r}",
        f"eta0 {float(model.weights.eta0)!r}",
        f"epochs {model.epochs}",
        f"gap {float(model.gap)!r}",
    ]
    if model.scale is not None:
        lines.append("scale_min " + _fmt_floats(model.scale[0]))
        lines.append("scale_max " + _fmt_floats(model.scale[1]))
    lines.append(f"cliques {g.n_cliques}")
    members = list(map(str, g.cliques.members.tolist()))
    indptr = g.cliques.indptr.tolist()
    for j, (d, w) in enumerate(zip(g.cliques.inputs.tolist(), model.weights.values)):
        outs = ",".join(members[indptr[j] : indptr[j + 1]])
        lines.append(f"clique {outs} {'-' if d < 0 else d} {float(w)!r}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def take(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ModelFormatError(f"line {self.pos}: expected {key!r}, got {head!r}")
        return rest

    def error(self, msg: str) -> ModelFormatError:
        return ModelFormatError(f"line {self.pos}: {msg}")


def _read_cliques(cur: _Cursor, block: list[str]) -> tuple[Cliques, list[float]]:
    """The cliques and weights of the clique lines that follow the line at
    ``cur.pos``, read as one block: split once, converted with ``map``, and
    checked as arrays (``Cliques``).  That is the only way a block is
    accepted.  A refused block is read again one line at a time only to
    word its first fault, in line order (``_clique_fault``)."""
    text = "\n".join(block)
    tokens = text.split()
    n = len(block)
    # n lines that each start "clique ", in 4n tokens: a line of any other
    # length would put some line's "clique" in an outputs, input or weight
    # slot below, which no conversion accepts
    if ("\n" + text).count("\nclique ") != n or len(tokens) != 4 * n:
        raise _clique_fault(cur, block)
    outs, inputs, weights = tokens[1::4], tokens[2::4], tokens[3::4]
    try:
        members = list(map(int, ",".join(outs).split(","))) if n else []
        inputs = [None if d == "-" else int(d) for d in inputs]
        values = list(map(float, weights))
    except ValueError:
        raise _clique_fault(cur, block) from None
    sizes = [o.count(",") + 1 for o in outs]
    return Cliques(sizes, members, inputs), values


def _clique_fault(cur: _Cursor, block: list[str]) -> MargraphError:
    """The first fault of a clique block that ``_read_cliques`` refused, in
    line order: a line's tokens, then its clique's own faults (the one
    ``Cliques`` check, run on that clique alone), then its weight.  This
    never accepts a block: one it finds no fault in is an internal error."""
    first = cur.pos
    for cur.pos, line in enumerate(block, first + 1):
        head, _, rest = line.partition(" ")
        if head != "clique":
            return cur.error(f"expected 'clique', got {head!r}")
        parts = rest.split()
        if len(parts) != 3:
            return cur.error(f"clique line needs outputs, input, weight; got {parts!r}")
        outs, inp, weight = parts
        try:
            members = list(map(int, outs.split(",")))
            d = None if inp == "-" else int(inp)
            Cliques([len(members)], members, [d])
            float(weight)
        except ValueError as exc:
            return cur.error(str(exc))
        except GraphError as exc:
            return exc
    raise RuntimeError(f"line {first + 1}: clique block refused without a fault")


def parse_model(text: str) -> ModelFile:
    cur = _Cursor(text)
    magic = cur.next().split()
    if len(magic) != 2 or magic[0] != _MODEL_MAGIC:
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
        if epochs < 0:
            raise cur.error(f"negative epoch count {epochs}")
        gap = float(cur.take("gap"))
        if not math.isfinite(gap):
            raise cur.error(f"non-finite gap {gap!r}")
        scale = None
        line = cur.next()
        if line.startswith("scale_min "):
            lo = np.array([float(t) for t in line.split()[1:]], dtype=np.float64)
            hi = np.array([float(t) for t in cur.take("scale_max").split()], dtype=np.float64)
            if lo.shape != (n_inputs,) or hi.shape != (n_inputs,):
                raise cur.error("scale vectors do not match the input count")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise cur.error("scale vectors must be finite")
            scale = (lo, hi)
            line = cur.next()
        head, _, rest = line.partition(" ")
        if head != "cliques":
            raise cur.error(f"expected 'cliques', got {head!r}")
        n_cliques = int(rest)
        if n_cliques < 0:
            raise cur.error(f"negative clique count {n_cliques}")
        # a count the file cannot back ends at "unexpected end of model
        # file", not in an allocation
        block = cur.lines[cur.pos : cur.pos + n_cliques]
        cliques, values = _read_cliques(cur, block)
        cur.pos += len(block)
        if cur.next() != "end":
            raise cur.error("missing 'end' sentinel (truncated file?)")
    except (ValueError, IndexError) as exc:
        raise ModelFormatError(f"line {cur.pos}: {exc}") from None
    graph = GraphSpec(n_outputs=n_outputs, n_inputs=n_inputs, kind=kind, order=order, cliques=cliques)
    weights = WeightVector(values=values, lam=lam, eta0=eta0)
    return ModelFile(graph=graph, weights=weights, epochs=epochs, gap=gap, scale=scale)


def save_model(model: ModelFile, path) -> None:
    Path(path).write_text(format_model(model), encoding="utf-8")


def load_model(path) -> ModelFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ModelFormatError(f"{path}: not a UTF-8 text file") from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# prediction files: "+1 -1 ... loss=<float> states=<int> status=<word>"


def write_predictions(path, results) -> None:
    lines = []
    for res in results:
        labels = " ".join(f"{int(v):+d}" for v in res.labels)
        lines.append(
            f"{labels} loss={float(res.objective)!r} states={res.states_visited} status={res.status}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The key=value fields that end every prediction line, in this order, and
# the words a status may be.
_FIELDS = (("loss", float), ("states", int), ("status", str))
_STATUSES = (STATUS_OPTIMAL, STATUS_BUDGET, STATUS_FALLBACK, STATUS_LOCAL)


def read_predictions(path):
    """Returns (label matrix, losses, states, statuses) from a prediction file.

    A loss that is negative or not finite, a negative state count and a
    status other than the four words are DataErrors naming the line.
    """
    path = str(path)
    rows, losses, states, statuses = [], [], [], []
    for ln, raw in _numbered_lines(path):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise DataError(f"{path}:{ln}: truncated prediction line")
        try:
            rows.append([int(t) for t in tokens[:-3]])
        except ValueError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from None
        for token, (key, convert), out in zip(tokens[-3:], _FIELDS, (losses, states, statuses)):
            name, eq, value = token.partition("=")
            if name != key or not eq:
                raise DataError(f"{path}:{ln}: missing {key}= field, got {token!r}")
            try:
                out.append(convert(value))
            except ValueError:
                raise DataError(f"{path}:{ln}: malformed {key}= field {token!r}") from None
        if not 0.0 <= losses[-1] < math.inf:
            raise DataError(f"{path}:{ln}: loss= must be finite and non-negative, got {tokens[-3]!r}")
        if states[-1] < 0:
            raise DataError(f"{path}:{ln}: negative states= field {tokens[-2]!r}")
        if statuses[-1] not in _STATUSES:
            raise DataError(f"{path}:{ln}: unknown status {statuses[-1]!r}, expected one of {', '.join(_STATUSES)}")
    if not rows:
        raise DataError(f"{path}: no prediction lines")
    if len({len(r) for r in rows}) != 1:
        raise DataError(f"{path}: inconsistent label counts across lines")
    if any(v not in (-1, 1) for r in rows for v in r):
        raise DataError(f"{path}: prediction labels must be +1 or -1")
    Y = np.array(rows, dtype=np.int8)
    return Y, np.array(losses), np.array(states, dtype=np.int64), statuses


def read_label_matrix(path, n_outputs: int | None = None) -> np.ndarray:
    """Label matrix from either a prediction file or an svmlight data file."""
    path = str(path)
    for _, raw in _numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if line:
            # svmlight tokens never hold '=', every prediction line does
            if "=" in line:
                return read_predictions(path)[0]
            break
    return parse_multilabel_svmlight(path, n_outputs=n_outputs).Y
