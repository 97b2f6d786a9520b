"""Text ingestion and synthetic dataset generators."""

import io
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco.datasets import (
    LIBSVM_WRITE_BLOCK,
    GroupedDataset,
    PaucDataset,
    build_synthetic_gdro,
    build_synthetic_pauc,
    dump_libsvm,
    grouped_to_csv,
    load_grouped_csv,
    parse_libsvm,
)
from fcco.errors import DataError, InvalidParameterError, LibsvmParseError


# --- libsvm ---------------------------------------------------------------


def assert_same_bits(got, expected):
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()


def test_parse_libsvm_minimal_document():
    features, labels = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0\n")
    assert_same_bits(features, np.array([[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]]))
    assert labels.tolist() == [1.0, -1.0]


def test_parse_libsvm_empty_stream():
    features, labels = parse_libsvm("")
    assert_same_bits(features, np.zeros((0, 0)))
    assert labels.size == 0


def test_parse_libsvm_skips_blank_lines():
    features, labels = parse_libsvm("\n+1 1:1\n\n-1 1:2\n\n")
    assert_same_bits(features, np.array([[1.0], [2.0]]))


def test_parse_libsvm_error_line_numbers():
    with pytest.raises(LibsvmParseError) as exc:
        parse_libsvm("+1 1:1\nbogus x\n")
    assert exc.value.line_no == 2
    with pytest.raises(LibsvmParseError) as exc:
        parse_libsvm("+1 3:1 2:5\n")
    assert exc.value.line_no == 1
    with pytest.raises(LibsvmParseError):
        parse_libsvm("+1 0:1\n")
    with pytest.raises(LibsvmParseError):
        parse_libsvm("label 1:1\n")


def test_parse_libsvm_rejects_index_beyond_int64():
    # 2**63 does not fit the int64 index array; 2**63 - 1 does, but a dense
    # array that wide cannot be allocated
    for doc, line_no, token in (("+1 9223372036854775808:1\n", 1, "9223372036854775808:1"),
                                ("+1 1:1\n-1 2:1 99999999999999999999:3\n", 2,
                                 "99999999999999999999:3")):
        with pytest.raises(LibsvmParseError) as exc:
            parse_libsvm(doc)
        assert exc.value.line_no == line_no
        assert repr(token) in str(exc.value)
    with pytest.raises(DataError, match="^LIBSVM text: cannot allocate the 1x9223372036854775807 "):
        parse_libsvm("+1 9223372036854775807:1\n")


def test_parse_libsvm_rejects_non_finite_values():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(LibsvmParseError) as exc:
            parse_libsvm(f"+1 1:0.5\n\n-1 1:1 4:{bad}\n+1 2:1\n")
        assert exc.value.line_no == 3
        assert "non-finite" in str(exc.value)
    with pytest.raises(LibsvmParseError) as exc:
        parse_libsvm("+1 1:0.5\nnan 1:1\n")
    assert exc.value.line_no == 2


def test_libsvm_round_trip_random_rows():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((1000, 8))
    rows[rng.random((1000, 8)) < 0.6] = 0.0  # sparsify
    labels = np.where(rng.random(1000) < 0.5, -1.0, 1.0)
    buf = io.StringIO()
    dump_libsvm(rows, labels, buf)
    features, parsed_labels = parse_libsvm(io.StringIO(buf.getvalue()))
    assert parsed_labels.tolist() == labels.tolist()
    dense = np.zeros_like(rows)
    dense[:, : features.shape[1]] = features
    assert np.array_equal(dense, rows)


@pytest.mark.parametrize("n_rows, n_labels", [(3, 2), (2, 3)])
def test_dump_libsvm_rejects_a_label_count_unlike_the_row_count(n_rows, n_labels):
    buf = io.StringIO()
    with pytest.raises(DataError, match=f"^{n_labels} labels for {n_rows} feature rows$"):
        dump_libsvm(np.ones((n_rows, 2)), np.ones(n_labels), buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("row, label, value", [
    (1, np.inf, 1.0), (2, 1.0, np.nan), (0, -np.inf, -np.inf), (1, np.nan, 1.0),
    (LIBSVM_WRITE_BLOCK + 5, 1.0, np.nan)])  # past the first block of rows written
def test_dump_libsvm_rejects_non_finite_rows(row, label, value):
    # such a file would not read back: parse_libsvm refuses non-finite text
    n_rows = LIBSVM_WRITE_BLOCK + 8
    rows, labels = np.ones((n_rows, 3)), np.ones(n_rows)
    rows[row, 1], labels[row] = value, label
    rows[-1, 2] = np.nan  # a later bad row does not hide the first
    buf = io.StringIO()
    with pytest.raises(DataError, match=f"^row {row} holds a non-finite label or value$"):
        dump_libsvm(rows, labels, buf)
    assert buf.getvalue() == ""


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_rows():
    rng = np.random.default_rng(5)
    return rng.standard_normal((16800, 50)), np.where(rng.random(16800) < 0.5, -1.0, 1.0)


def test_dump_libsvm_memory_is_bounded_by_the_values():
    # numpy reports its buffers to tracemalloc.  The writer gathers a dense
    # input's entries one block of LIBSVM_WRITE_BLOCK rows at a time, so it
    # holds one block's rows, columns, values and text: about a quarter of
    # these values' bytes, and less as a share of a longer array.  Taking
    # the nonzero entries of the whole array at once holds 3x the values'
    # bytes, and formatting the whole document before one write about 14x.
    values, labels = _dense_rows()
    with open(os.devnull, "w", encoding="utf-8") as sink:
        _, peak = _traced_peak(lambda: dump_libsvm(values, labels, sink))
    assert peak <= values.nbytes / 2


def _whole_array_text(features, labels):
    """The LIBSVM text of every nonzero entry, from one np.nonzero over the
    whole array."""
    rows, cols = np.nonzero(features)
    lines = [["%.17g" % label] for label in labels]
    for r, c in zip(rows.tolist(), cols.tolist()):
        lines[r].append("%d:%.17g" % (c + 1, features[r, c]))
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("n_rows", [1, LIBSVM_WRITE_BLOCK, 2 * LIBSVM_WRITE_BLOCK + 7])
def test_dump_libsvm_blocks_write_the_whole_array_text(n_rows):
    # signed zeros are left out, as absent entries; rows with no entry and
    # with one entry fall on both sides of the block boundaries
    rng = np.random.default_rng(n_rows)
    features = rng.standard_normal((n_rows, 6))
    features[rng.random(features.shape) < 0.5] = 0.0
    features[rng.random(features.shape) < 0.2] = -0.0
    for r in range(0, n_rows, 3):
        features[r] = 0.0
        features[r, r % 6] = rng.standard_normal() if r % 2 else -0.0
    labels = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    buf = io.StringIO()
    dump_libsvm(features, labels, buf)
    assert buf.getvalue() == _whole_array_text(features, labels)


def test_parse_libsvm_memory_is_bounded_by_the_features(tmp_path):
    # per stored value the reader holds the value and its index in typed
    # buffers (16 bytes, plus their growth), the row offset added to the
    # index (8) and the dense result (8): about 4.25x the features' bytes
    # with the per-row labels and line numbers.  Keeping the values as
    # Python floats costs about 6.3x.
    path = tmp_path / "rows.libsvm"
    with open(path, "w", encoding="utf-8") as fh:
        dump_libsvm(*_dense_rows(), fh)
    with open(path, encoding="utf-8") as fh:
        (features, _), peak = _traced_peak(lambda: parse_libsvm(fh))
    assert features.shape == (16800, 50)
    assert peak <= 5 * features.nbytes


# --- grouped csv ------------------------------------------------------------


CSV = """f0,f1,label,group
0.5,1.0,1,a
-0.5,0.0,0,b
1.5,2.0,1,a
0.0,1.0,0,b
"""


def test_load_grouped_csv_basic():
    data = load_grouped_csv(CSV, group_column="group")
    assert data.n_groups == 2
    assert sum(len(rows) for rows in data.group_index) == 4
    # first-appearance order: 'a' is group 0
    assert data.group_of.tolist() == [0, 1, 0, 1]
    # {0,1} labels remapped to -1/+1
    assert sorted(np.unique(data.labels).tolist()) == [-1.0, 1.0]


def test_load_grouped_csv_missing_column():
    with pytest.raises(DataError):
        load_grouped_csv(CSV, group_column="nope")


def test_load_grouped_csv_rejects_non_finite_features():
    for bad in ("nan", "inf", "-inf"):
        text = f"f0,f1,label,group\n1.0,2.0,1,a\n3.0,{bad},-1,b\n"
        with pytest.raises(DataError, match=r"row 2: non-finite value in feature column 'f1'"):
            load_grouped_csv(text, group_column="group")


def test_load_grouped_csv_singleton_warns_and_threshold_drops():
    text = "f0,label,group\n1.0,1,a\n2.0,-1,a\n3.0,1,b\n"
    with pytest.warns(UserWarning):
        data = load_grouped_csv(text, group_column="group")
    assert data.n_groups == 2
    data = load_grouped_csv(text, group_column="group", min_group_size=2)
    assert data.n_groups == 1
    assert data.n_samples == 2
    with pytest.raises(DataError):
        load_grouped_csv(text, group_column="group", min_group_size=5)


def test_grouped_csv_round_trip():
    rng = np.random.default_rng(1)
    data = build_synthetic_gdro(3, 2, 5, 0.3, rng)
    buf = io.StringIO()
    grouped_to_csv(data, buf)
    back = load_grouped_csv(io.StringIO(buf.getvalue()), group_column="group")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.group_of, data.group_of)


FEATURE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                     1e-300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def grouped_datasets(draw):
    """A GroupedDataset of finite features (+-0.0, subnormals and extreme
    exponents among them) and +-1 labels, its groups numbered in order of
    first appearance, as load_grouped_csv numbers them."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    features = np.array(draw(st.lists(FEATURE_VALUES, min_size=n * d, max_size=n * d)),
                        dtype=float).reshape(n, d)
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    group_of = []
    for _ in range(n):
        group_of.append(draw(st.integers(0, max(group_of, default=-1) + 1)))
    return GroupedDataset(features=features, labels=labels, group_of=np.array(group_of),
                          n_groups=max(group_of) + 1)


@settings(max_examples=200, deadline=None)
@given(grouped_datasets())
def test_grouped_csv_round_trip_is_bitwise(data):
    buf = io.StringIO()
    grouped_to_csv(data, buf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # singleton groups warn
        back = load_grouped_csv(io.StringIO(buf.getvalue()), group_column="group")
    assert_same_bits(back.features, data.features)
    assert_same_bits(back.labels, data.labels)
    assert_same_bits(back.group_of, data.group_of)


# --- synthetic generators ----------------------------------------------------


def test_synthetic_gdro_shapes_and_partition():
    data = build_synthetic_gdro(4, 3, 10, 0.5, np.random.default_rng(0))
    assert data.features.shape == (40, 3)
    assert data.n_groups == 4
    assert all(len(rows) == 10 for rows in data.group_index)


def test_synthetic_gdro_deterministic_under_seed():
    a = build_synthetic_gdro(3, 2, 6, 0.7, np.random.default_rng(9))
    b = build_synthetic_gdro(3, 2, 6, 0.7, np.random.default_rng(9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_pauc_dataset():
    data = build_synthetic_pauc(20, 50, 4, 1.0, 0.5, np.random.default_rng(2))
    assert data.positives.shape == (20, 4)
    assert data.negatives.shape == (50, 4)


def test_dataset_validation():
    with pytest.raises(DataError):
        GroupedDataset(features=np.zeros((2, 1)), labels=np.array([1.0, 2.0]),
                       group_of=np.array([0, 0]), n_groups=1)
    with pytest.raises(InvalidParameterError):
        PaucDataset(positives=np.zeros((2, 1)), negatives=np.zeros((3, 1)), alpha=0.9)
    # no negative to rank a positive against: sampling one would fail later
    with pytest.raises(DataError, match="^pAUC data holds no negatives$"):
        PaucDataset(positives=np.zeros((4, 1)), negatives=np.zeros((0, 1)), alpha=0.5)


def test_pauc_dataset_refuses_positives_and_negatives_of_different_widths():
    # used to build, then fail with a matmul ValueError in the first step
    with pytest.raises(DataError, match=r"^positives \(4, 3\) and negatives \(5, 2\) "
                                        "differ in width$"):
        PaucDataset(positives=np.zeros((4, 3)), negatives=np.zeros((5, 2)), alpha=0.5)


@pytest.mark.parametrize("n_labels, n_group_of", [(8, 10), (10, 8), (8, 8)])
def test_grouped_dataset_refuses_columns_of_different_lengths(n_labels, n_group_of):
    # 10 feature rows with 8 labels used to build with n_samples 8, then
    # raise IndexError in a GDRO step
    with pytest.raises(DataError, match=rf"^features \(10, 2\), labels \({n_labels},\) and "
                                        rf"group_of \({n_group_of},\) differ in length$"):
        GroupedDataset(features=np.zeros((10, 2)), labels=np.ones(n_labels),
                       group_of=np.zeros(n_group_of, dtype=int), n_groups=1)
