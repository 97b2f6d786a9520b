"""The per-line LIBSVM reader and the list-walking writer against the
per-token reader and the row-by-row writer they replaced."""

import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco.datasets import dump_libsvm, parse_libsvm
from fcco.errors import LibsvmParseError


def reference_parse_libsvm(stream):
    """The per-token reader, kept verbatim as the reference."""
    labels, row_lines = [], []
    data, indices, indptr = [], [], [0]
    max_index = 0
    lines = io.StringIO(stream) if isinstance(stream, str) else stream
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise LibsvmParseError(line_no, f"non-numeric label {tokens[0]!r}")
        if not math.isfinite(labels[-1]):
            raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
        row_lines.append(line_no)
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_str, val_str = tok.split(":", 1)
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmParseError(line_no, f"malformed token {tok!r}")
            if idx < 1:
                raise LibsvmParseError(line_no, f"index {idx} must be >= 1")
            if idx <= prev:
                raise LibsvmParseError(line_no, f"indices not strictly increasing at {idx}")
            prev = idx
            indices.append(idx - 1)
            data.append(val)
            max_index = max(max_index, idx)
        indptr.append(len(indices))
    data = np.asarray(data, dtype=float)
    indptr = np.asarray(indptr, dtype=int)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise LibsvmParseError(row_lines[row], f"non-finite value at index {indices[bad[0]] + 1}")
    mat = sp.csr_matrix(
        (data, np.asarray(indices, dtype=int), indptr),
        shape=(len(labels), max_index),
    )
    return mat, np.asarray(labels)


def reference_dump_libsvm(features, labels, stream):
    """The row-by-row writer, kept verbatim as the reference."""
    mat = sp.csr_matrix(features)
    for i, label in enumerate(labels):
        row = mat.getrow(i)
        parts = [f"{label:.17g}"]
        parts += [f"{j + 1}:{v:.17g}" for j, v in zip(row.indices, row.data)]
        stream.write(" ".join(parts) + "\n")


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_parse(doc):
    """Both readers accept `doc` with bitwise-equal results, or both reject
    it the same way."""
    try:
        expected = reference_parse_libsvm(doc)
    except Exception as exc:  # noqa: BLE001 - whatever the reference raises
        with pytest.raises(type(exc)) as err:
            parse_libsvm(doc)
        if isinstance(exc, LibsvmParseError):
            assert err.value.line_no == exc.line_no
            assert str(err.value) == str(exc)
        return
    mat, labels = parse_libsvm(doc)
    ref_mat, ref_labels = expected
    assert mat.shape == ref_mat.shape
    assert _same_bits(labels, ref_labels)
    for field in ("data", "indices", "indptr"):
        assert _same_bits(getattr(mat, field), getattr(ref_mat, field)), field


HAND_PICKED_TOKENS = ["1:2:3", "1:", ":2", "5", "1.0:2", "a:b", "+3:1", "0:1", "-2:1",
                      "1:nan", "1:-inf", "2:1e400", "1_0:2", "3:1_5", "07:1"]


@pytest.mark.parametrize("tok", HAND_PICKED_TOKENS)
@pytest.mark.parametrize("where", ["alone", "first", "middle", "last"])
def test_parser_matches_reference_on_hand_picked_tokens(tok, where):
    rows = {"alone": [tok], "first": [tok, "20:1"], "middle": ["1:0.5", tok, "20:1"],
            "last": ["1:0.5", tok]}[where]
    assert_same_parse("+1 1:1 2:2\n\n-1 " + " ".join(rows) + "\n+1 4:1\n")


@pytest.mark.parametrize("doc", [
    "+1 3:1 2:5\n",
    "+1 1:1 1:2\n",
    "+1 5 1:2:3\n",
    "+1 1:1 7 8:9:10\n",
    "+1 2:3:4 5\n",
    "-1\t1:0.5\t\t3:2\n+1  2:1 \n",
    "+1 1:0.5 3:2\r\n-1 2:1\r\n\r\n",
    "\n\n  \t\n+1 1:1\n\n",
    "+1 1:1\rbad 2:1\n",
    "1:2 3:4\n",
    "nan 1:1\n",
    "+1\n-1\n",
    "+1 1:1 2:nan\n-1 1:x\n",
    "+1 1:1e-320 2:-0.0 3:0\n",
    "",
])
def test_parser_matches_reference_on_hand_picked_documents(doc):
    assert_same_parse(doc)


VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1_5", ".5", "5.", "x"]),
)
LABEL_TEXT = st.one_of(st.sampled_from(["+1", "-1", "1", "0", "0.5", "1e3", "nan", "x", "1:1"]),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
SEPARATOR = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def libsvm_line(draw):
    """One line: mostly well-formed, with a one-in-four chance of one or two
    tokens from the hand-picked list and of a swapped index pair."""
    idx = sorted(draw(st.lists(st.integers(1, 40), unique=True, max_size=6)))
    tokens = [f"{i}:{draw(VALUE_TEXT)}" for i in idx]
    if len(tokens) > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(tokens) - 2))
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    if draw(st.integers(0, 3)) == 0:
        for tok in draw(st.lists(st.sampled_from(HAND_PICKED_TOKENS), min_size=1, max_size=2)):
            tokens.insert(draw(st.integers(0, len(tokens))), tok)
    words = [draw(LABEL_TEXT)] + tokens
    line = words[0]
    for word in words[1:]:
        line += draw(SEPARATOR) + word
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def libsvm_document(draw):
    lines = draw(st.lists(st.one_of(libsvm_line(), st.sampled_from(["", "  ", "\t"])),
                          max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


@settings(max_examples=400, deadline=None)
@given(libsvm_document())
def test_parser_matches_reference_on_generated_documents(doc):
    assert_same_parse(doc)


@pytest.mark.parametrize("dtype", [float, np.float32, int])
def test_writer_matches_reference_bytes(dtype):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((60, 7)) * 10
    rows[rng.random(rows.shape) < 0.5] = 0.0
    rows[0] = 0.0  # an empty row
    rows = rows.astype(dtype)
    labels = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    for features in (rows, sp.csr_matrix(rows), sp.coo_matrix(rows)):
        got, expect = io.StringIO(), io.StringIO()
        dump_libsvm(features, labels, got)
        reference_dump_libsvm(features, labels, expect)
        assert got.getvalue() == expect.getvalue()
