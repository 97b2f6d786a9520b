"""Dataset containers, text-format ingestion, and synthetic generators."""

from __future__ import annotations

import csv
import io
import math
import operator
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DataError, InvalidParameterError, LibsvmParseError


@dataclass
class GroupedDataset:
    """Feature matrix with +-1 labels and a partition into groups, stated
    once by `group_of` (row i's group id): `n_groups` (the largest id plus
    one) and `group_index` (each group's rows) are derived from it."""

    features: np.ndarray
    labels: np.ndarray
    group_of: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        group_of = np.asarray(self.group_of)
        if group_of.dtype.kind == "f":  # a cast to int would truncate 1.9 to 1
            bad = np.flatnonzero(~np.isfinite(group_of) | (np.trunc(group_of) != group_of))
            if bad.size:
                raise DataError(f"group_of holds the non-integer group id {group_of[bad[0]]} "
                                f"at row {bad[0]}")
        self.group_of = np.asarray(group_of, dtype=int)
        if not len(self.features) == len(self.labels) == len(self.group_of):
            raise DataError(f"features {self.features.shape}, labels {self.labels.shape} and "
                            f"group_of {self.group_of.shape} differ in length")
        if not self.group_of.size:
            raise DataError("group_of is empty: a grouped dataset needs at least one row")
        if self.group_of.min() < 0:
            raise DataError(f"group_of holds the negative group id {self.group_of.min()}")
        sizes = np.bincount(self.group_of)
        if not sizes.all():
            raise DataError("grouped dataset contains an empty group: no row has group id "
                            f"{np.argmin(sizes)}")
        self.n_groups = len(sizes)
        self.group_index = [np.flatnonzero(self.group_of == g) for g in range(self.n_groups)]
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise DataError("labels must be +-1")

    @property
    def n_samples(self):
        return len(self.labels)


@dataclass
class PaucDataset:
    """Positive and negative feature matrices plus the TPR lower bound."""

    positives: np.ndarray
    negatives: np.ndarray
    alpha: float

    def __post_init__(self):
        self.positives = np.asarray(self.positives, dtype=float)
        self.negatives = np.asarray(self.negatives, dtype=float)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if len(self.positives) * (1.0 - self.alpha) < 1.0:
            raise InvalidParameterError("n_pos * (1 - alpha) must be at least 1")
        if len(self.negatives) == 0:
            raise DataError("pAUC data holds no negatives")
        if self.positives.shape[1:] != self.negatives.shape[1:]:
            raise DataError(f"positives {self.positives.shape} and negatives "
                            f"{self.negatives.shape} differ in width")


def _lines(stream):
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


# largest 1-based index a row may hold: the parser keeps the indices as int64
MAX_LIBSVM_INDEX = 2 ** 63 - 1


def _token_error(line_no, pairs):
    """Raise the error of the first bad 'idx:val' token on a line that
    failed the per-line checks in parse_libsvm."""
    prev = 0
    for tok in pairs:
        try:
            idx_str, val_str = tok.split(":", 1)
            idx = int(idx_str)
            float(val_str)
        except ValueError:
            raise LibsvmParseError(line_no, f"malformed token {tok!r}")
        if idx < 1:
            raise LibsvmParseError(line_no, f"index {idx} must be >= 1")
        if idx <= prev:
            raise LibsvmParseError(line_no, f"indices not strictly increasing at {idx}")
        if idx > MAX_LIBSVM_INDEX:
            raise LibsvmParseError(line_no, f"index in token {tok!r} does not fit int64")
        prev = idx
    raise AssertionError(f"line {line_no} failed its checks but has no bad token")


def parse_libsvm(stream):
    """Parse sparse 'label idx:val ...' text (1-based, strictly increasing
    indices per line, each at most MAX_LIBSVM_INDEX).  Returns (features,
    labels), `features` a dense float64 array as wide as the largest index.
    Blank lines are skipped; malformed input, including a non-finite label
    or value, raises with the offending line number, and a shape too large
    to allocate raises DataError naming the stream's file, if it has one.
    Each stored value is held as 8 bytes in a typed buffer, beside its
    8-byte index, until the dense array is filled."""
    labels, row_lines = [], []
    data, indices, indptr = array("d"), array("q"), array("q", [0])
    max_index = 0
    for line_no, raw in enumerate(_lines(stream), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise LibsvmParseError(line_no, f"non-numeric label {tokens[0]!r}")
        if not math.isfinite(labels[-1]):
            raise LibsvmParseError(line_no, f"non-finite label {tokens[0]!r}")
        row_lines.append(line_no)
        pairs = tokens[1:]
        if pairs:
            flat = ":".join(pairs).split(":")
            try:
                idxs = list(map(int, flat[0::2]))
                data.extend(map(float, flat[1::2]))  # a bad line raises below
            except ValueError:
                idxs = None
            # the pieces alternate index, value only if every token holds
            # exactly one ':'; the indices must then start at 1, increase and
            # fit the index dtype
            if (idxs is None or len(flat) != 2 * len(pairs)
                    or not all(map(str.__contains__, pairs, repeat(":")))
                    or idxs[0] < 1 or not all(map(operator.lt, idxs, idxs[1:]))
                    or idxs[-1] > MAX_LIBSVM_INDEX):
                _token_error(line_no, pairs)
            indices.extend(idxs)
            max_index = max(max_index, idxs[-1])
        indptr.append(len(indices))
    data = np.frombuffer(data, dtype=np.float64)
    indptr = np.frombuffer(indptr, dtype=np.int64)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise LibsvmParseError(row_lines[row], f"non-finite value at index {indices[bad[0]]}")
    try:
        features = np.zeros((len(labels), max_index))
    except (ValueError, MemoryError) as exc:
        raise DataError(f"{getattr(stream, 'name', 'LIBSVM text')}: cannot allocate the "
                        f"{len(labels)}x{max_index} feature array ({exc})") from exc
    if data.size:  # a labels-only document has max_index 0, no arange step
        # each entry's flat position, formed in the index buffer itself
        pos = np.frombuffer(indices, dtype=np.int64)
        pos -= 1
        pos += np.repeat(np.arange(0, len(labels) * max_index, max_index), np.diff(indptr))
        features.reshape(-1)[pos] = data
        # adding zero turns a stored -0.0 into +0.0, like an absent entry
        features += 0.0
    return features, np.asarray(labels)


# rows dump_libsvm formats per stream.write: the text of one block, not the
# whole document, is held in memory at a time
LIBSVM_WRITE_BLOCK = 256


def _stored_entries(features):
    """(n_rows, bad_row, entries) for the entries `scipy.sparse.csr_matrix
    (features)` would store.  `bad_row` is the first row that stores a
    non-finite value (n_rows if none does), and `entries(start, stop)`
    returns the entry count of each of rows start..stop-1 and their columns
    and values in row-major order.  A dense input is read LIBSVM_WRITE_BLOCK
    rows at a time, without loading scipy."""
    sp = sys.modules.get("scipy.sparse")  # a sparse input exists only once it is loaded
    if sp is not None and sp.issparse(features):
        mat = features.tocsr()  # sums duplicates, keeps explicitly stored zeros
        indptr = mat.indptr
        bad = np.flatnonzero(~np.isfinite(mat.data))
        bad_row = int(np.searchsorted(indptr, bad[0], side="right")) - 1 if bad.size else mat.shape[0]

        def entries(start, stop):
            lo, hi = indptr[start], indptr[stop]
            return np.diff(indptr[start:stop + 1]), mat.indices[lo:hi], mat.data[lo:hi]
        return mat.shape[0], bad_row, entries
    dense = np.atleast_2d(np.asarray(features))
    if dense.ndim != 2:
        raise DataError(f"features must be one row or a matrix, got shape {dense.shape}")
    bad_row = len(dense)
    for start in range(0, len(dense), LIBSVM_WRITE_BLOCK):
        bad = np.flatnonzero(~np.isfinite(dense[start:start + LIBSVM_WRITE_BLOCK]).all(axis=1))
        if bad.size:
            bad_row = start + int(bad[0])
            break

    def entries(start, stop):
        block = dense[start:stop]
        rows, cols = np.nonzero(block)  # NaN counts as nonzero, +-0.0 does not
        return np.bincount(rows, minlength=len(block)), cols, block[rows, cols]
    return len(dense), bad_row, entries


def dump_libsvm(features, labels, stream):
    """Serialize rows in the same sparse text format (17-digit floats).

    `features` is a dense array, an `np.matrix`, a nested list (a 1-D input
    is one row) or a scipy sparse matrix or array; a dense row writes its
    nonzero entries (NaN included, +-0.0 left out), a sparse row what its
    `tocsr()` stores.  `labels` holds one number per row.  Only a sparse
    input needs scipy.  Raises DataError when the label count differs from
    the row count, or when a label or value is not finite, which
    parse_libsvm would refuse to read back; nothing is written then.  The
    checks cover every row before the first write; the rows then go out in
    blocks of LIBSVM_WRITE_BLOCK, one write each, and a dense input's
    entries are gathered one block at a time."""
    n_rows, bad_row, entries = _stored_entries(features)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataError(f"labels must be one-dimensional, got shape {labels.shape}")
    if len(labels) != n_rows:
        raise DataError(f"{len(labels)} labels for {n_rows} feature rows")
    bad_labels = np.flatnonzero(~np.isfinite(labels))
    if bad_labels.size:
        bad_row = min(bad_row, int(bad_labels[0]))
    if bad_row < n_rows:
        raise DataError(f"row {bad_row} holds a non-finite label or value")
    # each row is "label idx:val ...", formatted by one template per entry count
    templates = {}
    for start in range(0, n_rows, LIBSVM_WRITE_BLOCK):
        stop = min(start + LIBSVM_WRITE_BLOCK, n_rows)
        counts, cols, values = entries(start, stop)
        pairs = [None] * (2 * len(values))
        pairs[0::2] = (cols + 1).tolist()
        pairs[1::2] = values.tolist()
        bounds = [0, *(2 * np.cumsum(counts)).tolist()]
        lines = []
        for label, k, a, b in zip(labels[start:stop].tolist(), counts.tolist(),
                                  bounds, bounds[1:]):
            template = templates.get(k)
            if template is None:
                template = templates[k] = "%.17g" + " %d:%.17g" * k + "\n"
            lines.append(template % (label, *pairs[a:b]))
        stream.write("".join(lines))


def load_libsvm(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh)


def load_grouped_csv(stream, group_column, label_column="label", min_group_size=1):
    """Read a header-bearing CSV into a GroupedDataset.

    The group column is categorical (first-appearance order); the label
    column must be +-1 or {0, 1} (remapped to -1/+1); every other column is
    a float feature.  A row with a missing or surplus field, or with a
    value that is not a number, raises DataError naming its line.  Groups
    smaller than `min_group_size` are discarded; singleton groups that
    survive trigger a warning."""
    reader = csv.DictReader(_lines(stream))
    if reader.fieldnames is None:
        raise DataError("empty CSV: no header row")
    for col in (group_column, label_column):
        if col not in reader.fieldnames:
            raise DataError(f"missing column {col!r}")
    feature_cols = [c for c in reader.fieldnames if c not in (group_column, label_column)]
    if not feature_cols:
        raise DataError("no feature columns")

    rows, labels, group_names = [], [], []
    name_to_id = {}
    group_of = []
    for row in reader:
        if None in row or None in row.values():  # DictReader's marks of surplus and missing fields
            raise DataError(f"line {reader.line_num}: field count differs from the header's")
        try:
            rows.append([float(row[c]) for c in feature_cols])
            labels.append(float(row[label_column]))
        except ValueError as exc:
            raise DataError(f"line {reader.line_num}: non-numeric value: {exc}") from exc
        name = row[group_column]
        if name not in name_to_id:
            name_to_id[name] = len(group_names)
            group_names.append(name)
        group_of.append(name_to_id[name])

    labels = np.asarray(labels)
    if set(np.unique(labels)) <= {0.0, 1.0}:
        labels = 2.0 * labels - 1.0
    elif not set(np.unique(labels)) <= {-1.0, 1.0}:
        raise DataError("labels must be +-1 or {0, 1}")

    features = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        row, col = bad[0]
        raise DataError(f"row {row + 1}: non-finite value in feature column {feature_cols[col]!r}")
    group_of = np.asarray(group_of, dtype=np.int64)
    sizes = np.bincount(group_of)
    kept = (sizes >= min_group_size)[group_of]
    if not kept.any():
        raise DataError("no group meets the minimum size")
    # ids count up in first-appearance order, so sorting the kept ones keeps it
    kept_ids, group_of = np.unique(group_of[kept], return_inverse=True)
    for g in kept_ids[sizes[kept_ids] == 1]:
        warnings.warn(f"group {group_names[g]!r} has a single sample", stacklevel=2)
    return GroupedDataset(features=features[kept], labels=labels[kept], group_of=group_of)


# label noise of build_synthetic_gdro: the logistic link's slope on the
# signed margin, and the share of labels flipped afterwards
GDRO_MARGIN_SCALE = 3.0
GDRO_FLIP_PROB = 0.02


def build_synthetic_gdro(n_groups, d, samples_per_group, heterogeneity, rng):
    """Per-group Gaussian feature clusters labeled by group-specific
    hyperplanes whose spread from a common direction scales with
    `heterogeneity` (0 = one shared hyperplane and identical clusters)."""
    if n_groups < 1 or d < 1 or samples_per_group < 1:
        raise InvalidParameterError("n_groups, d, samples_per_group must be positive")
    base_w = rng.standard_normal(d)
    base_w /= np.linalg.norm(base_w)
    feats, labels, group_of = [], [], []
    for g in range(n_groups):
        w_g = base_w + heterogeneity * rng.standard_normal(d)
        w_g /= np.linalg.norm(w_g)
        center = heterogeneity * rng.standard_normal(d)
        x = center + rng.standard_normal((samples_per_group, d))
        prob = 0.5 * (1.0 + np.tanh(0.5 * GDRO_MARGIN_SCALE * (x @ w_g)))
        y = np.where(rng.random(samples_per_group) < prob, 1.0, -1.0)
        flips = rng.random(samples_per_group) < GDRO_FLIP_PROB
        y[flips] = -y[flips]
        feats.append(x)
        labels.append(y)
        group_of.append(np.full(samples_per_group, g))
    return GroupedDataset(features=np.vstack(feats), labels=np.concatenate(labels),
                          group_of=np.concatenate(group_of))


def build_synthetic_pauc(n_pos, n_neg, d, separation, alpha, rng):
    """Gaussian positives shifted from negatives by `separation` along a
    random direction."""
    if n_pos < 1 or n_neg < 1 or d < 1:
        raise InvalidParameterError("n_pos, n_neg, d must be positive")
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    pos = separation * direction + rng.standard_normal((n_pos, d))
    neg = rng.standard_normal((n_neg, d))
    return PaucDataset(positives=pos, negatives=neg, alpha=alpha)


def grouped_to_csv(data, stream, group_names=None):
    """Inverse of load_grouped_csv for synthetic emission."""
    d = data.features.shape[1]
    writer = csv.writer(stream)
    writer.writerow([f"f{j}" for j in range(d)] + ["label", "group"])
    for i in range(data.n_samples):
        name = data.group_of[i] if group_names is None else group_names[data.group_of[i]]
        writer.writerow([f"{v:.17g}" for v in data.features[i]]
                        + [f"{data.labels[i]:.0f}", f"g{name}"])
