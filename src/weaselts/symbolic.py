"""Supervised symbolic quantization of Fourier features.

A window becomes a short word over a small alphabet in three steps:

1. rank spectrum columns by a one-way ANOVA F statistic on label groups
   and keep the ``word_length`` best ones (``select_coefficients``);
2. learn, per kept column, ``alphabet - 1`` bin boundaries that greedily
   maximize information gain of the label partition; the bins of all
   kept columns are learned in one pass (``fit_bins``);
3. map each window's column values to bin symbols (``transform_word``).

Both fitting steps see only label-disjoint windows; the transform is
applied to every sliding window. The unsupervised variants used by the
ablation harness (leading low-frequency columns, equi-depth bins) live
here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyPartitionError,
    InsufficientClassesError,
    InsufficientGroupsError,
    InvalidSplitError,
    ConfigError,
    ShapeError,
)
from .ts import DEFAULT_EPSILON, znormalize
from . import fourier


# ---------------------------------------------------------------------------
# label statistics


def entropy(labels) -> float:
    """Shannon entropy, in bits, of a label multiset."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyPartitionError("entropy of an empty label multiset is undefined")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(np.sum(-p * np.log2(p)))


def split_gain(values, labels, split_point: float) -> float:
    """Information gain of thresholding ``values <= split_point``.

    Both sides of the split must be nonempty. The result is clamped at
    zero so rounding can never push it negative; it is bounded above by
    ``entropy(labels)`` by construction.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ShapeError("values and labels must be parallel 1-D sequences")
    left = values <= split_point
    n_left = int(left.sum())
    if n_left == 0 or n_left == values.size:
        raise InvalidSplitError(f"split at {split_point} leaves an empty side")
    h = entropy(labels)
    w_left = n_left / values.size
    w_right = (values.size - n_left) / values.size
    split_h = w_left * entropy(labels[left]) + w_right * entropy(labels[~left])
    return max(0.0, h - split_h)


def anova_f(groups) -> float:
    """One-way ANOVA F statistic for two or more value groups.

    Returns ``inf`` when the within-group mean square vanishes while the
    between-group one does not, and ``0`` when the between-group mean
    square vanishes.
    """
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(groups) < 2:
        raise InsufficientGroupsError("anova_f needs at least two groups")
    if any(g.size == 0 for g in groups):
        raise EmptyPartitionError("anova_f groups must be nonempty")
    n_total = sum(g.size for g in groups)
    grand = sum(g.sum() for g in groups) / n_total
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    ms_between = ss_between / (len(groups) - 1)
    if ms_between == 0.0:
        return 0.0
    df_within = n_total - len(groups)
    if df_within == 0 or ss_within == 0.0:
        return float("inf")
    return float(ms_between / (ss_within / df_within))


def _f_statistics(matrix: np.ndarray, class_ids: np.ndarray, n_classes: int) -> np.ndarray:
    """Column-wise ANOVA F over rows grouped by ``class_ids``."""
    n_total = matrix.shape[0]
    counts = np.bincount(class_ids, minlength=n_classes).astype(np.float64)
    sums = np.zeros((n_classes, matrix.shape[1]))
    np.add.at(sums, class_ids, matrix)
    means = sums / counts[:, None]
    grand = matrix.mean(axis=0)
    ss_between = (counts[:, None] * (means - grand) ** 2).sum(axis=0)
    total_sq = (matrix * matrix).sum(axis=0)
    ss_within = np.maximum(total_sq - (counts[:, None] * means * means).sum(axis=0), 0.0)
    ms_between = ss_between / (n_classes - 1)
    df_within = n_total - n_classes
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ms_between / (ss_within / max(df_within, 1))
    f = np.where(ms_between == 0.0, 0.0, f)
    if df_within == 0:
        f = np.where(ms_between > 0.0, np.inf, 0.0)
    else:
        f = np.where((ss_within == 0.0) & (ms_between > 0.0), np.inf, f)
    return f


def select_coefficients(matrix: np.ndarray, labels, word_length: int):
    """Pick the ``word_length`` spectrum columns with the largest F.

    ``matrix`` holds one row per (disjoint) training window in
    interleaved real/imag column order. Ties are broken toward the lower
    coefficient index, real part before imaginary, which is exactly
    ascending column id. Returns ``(columns, f_values)`` in rank order.
    """
    labels = np.asarray(labels)
    if matrix.ndim != 2 or matrix.shape[0] != labels.shape[0]:
        raise ShapeError("matrix rows and labels must be parallel")
    classes, class_ids = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise InsufficientClassesError("coefficient selection needs >= 2 classes")
    if word_length > matrix.shape[1]:
        raise ConfigError(
            f"word length {word_length} exceeds {matrix.shape[1]} available columns"
        )
    f = _f_statistics(matrix, class_ids, classes.size)
    order = np.lexsort((np.arange(f.size), -f))
    chosen = order[:word_length]
    return chosen.astype(np.int64), f[chosen]


def leading_columns(word_length: int, m: int) -> np.ndarray:
    """Unsupervised fallback: the first columns after the DC pair."""
    if word_length > 2 * (m - 1):
        raise ConfigError(
            f"word length {word_length} exceeds {2 * (m - 1)} post-DC columns"
        )
    return np.arange(2, 2 + word_length, dtype=np.int64)


# ---------------------------------------------------------------------------
# binning


def _entropy_from_counts(counts: np.ndarray, totals) -> np.ndarray:
    # The class axis is last and contiguous, so each entropy is summed in
    # the same order whatever the shape of the batch around it.
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        terms = np.where(counts > 0, -p * np.log2(p), 0.0)
    return terms.sum(axis=-1)


def fit_bins(values, labels, alphabet_size: int) -> np.ndarray:
    """Learn ``alphabet_size - 1`` strictly increasing bin boundaries.

    ``values`` is one column of ``m`` values, or an ``(m, L)`` block whose
    ``L`` columns are binned independently against the same ``m``
    labels; the result has shape ``(alphabet_size - 1,)`` or
    ``(L, alphabet_size - 1)``. All columns are learned in one pass.

    Starting from a column's whole sorted value range, the partition
    holding the next split is chosen impure-first, then by descending
    size, then by position. Within it the candidate split, between two
    consecutive distinct values, that maximizes information gain wins;
    ties go to the split whose left side is closest to half the
    partition, then to the leftmost. Boundaries are midpoints between
    the straddling values. If a column runs out of distinct values
    before enough boundaries exist, the remainder is padded past its
    maximum in unit steps so the boundary count is always
    ``alphabet_size - 1``.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if (
        values.ndim not in (1, 2)
        or labels.ndim != 1
        or values.shape[0] != labels.size
        or values.size == 0
    ):
        raise ShapeError(
            "fit_bins expects nonempty (m,) or (m, L) values and m parallel labels"
        )
    if alphabet_size < 2:
        raise ConfigError(f"alphabet size must be >= 2, got {alphabet_size}")

    block = values.reshape(values.shape[0], -1)
    m, n_cols = block.shape
    order = np.argsort(block, axis=0, kind="stable")
    v = np.take_along_axis(block, order, axis=0)
    _, class_ids = np.unique(labels, return_inverse=True)
    y = class_ids[order]
    k = int(y.max()) + 1
    # prefix[i, j, c]: windows of class c among the i smallest of column j
    prefix = np.zeros((m + 1, n_cols, k))
    prefix[1:] = np.cumsum(y[:, :, None] == np.arange(k), axis=0)
    # A cut after the first c sorted rows, 0 < c < m, is a candidate
    # where the values on its two sides differ.
    cut = np.arange(1, m)[:, None]
    distinct = v[:-1] != v[1:]
    cols = np.arange(n_cols)

    found = np.full((n_cols, alphabet_size - 1), np.inf)
    n_found = np.zeros(n_cols, dtype=np.int64)
    # Row j holds the sorted cuts of column j; its partitions are
    # [cuts[p], cuts[p + 1]). A column that can split no further gets a
    # cut at m, which adds an empty partition.
    cuts = np.tile(np.array([0, m]), (n_cols, 1))
    for step in range(alphabet_size - 1):
        s, e = cuts[:, :-1], cuts[:, 1:]
        size = e - s
        ends_differ = v[np.minimum(s, m - 1), cols[:, None]] != v[e - 1, cols[:, None]]
        splittable = (size >= 2) & ends_differ
        counts = prefix[e, cols[:, None]] - prefix[s, cols[:, None]]
        impure = np.count_nonzero(counts, axis=-1) > 1
        rank = ((~impure) * (m + 1) + (m - size)) * (m + 1) + s
        part = np.argmin(np.where(splittable, rank, np.iinfo(np.int64).max), axis=1)
        active = splittable[cols, part]
        if not active.any():
            break
        ps, pe = s[cols, part], e[cols, part]
        psize = pe - ps
        h_parent = _entropy_from_counts(counts[cols, part], psize[:, None])

        n_left = (cut - ps).astype(np.float64)
        n_right = psize - n_left
        left = prefix[1:m] - prefix[ps, cols]
        right = prefix[pe, cols] - prefix[1:m]
        h_left = _entropy_from_counts(left, n_left[..., None])
        h_right = _entropy_from_counts(right, n_right[..., None])
        gain = np.maximum(
            0.0, h_parent - ((n_left / psize) * h_left + (n_right / psize) * h_right)
        )
        valid = distinct & (cut > ps) & (cut < pe) & active
        gain = np.where(valid, gain, -np.inf)
        dist = np.abs(n_left - psize / 2)
        dist = np.where(gain == gain.max(axis=0), dist, np.inf)
        pos = np.argmax(dist == dist.min(axis=0), axis=0)  # leftmost of the best

        hit = cols[active]
        found[hit, step] = (v[pos[hit], hit] + v[pos[hit] + 1, hit]) / 2.0
        n_found[hit] += 1
        cuts = np.sort(np.column_stack([cuts, np.where(active, pos + 1, m)]), axis=1)

    bounds = np.sort(found, axis=1)
    for t in range(alphabet_size - 1):
        pad_from = bounds[:, t - 1] if t else v[-1]
        bounds[:, t] = np.where(t < n_found, bounds[:, t], pad_from + 1.0)
    return bounds if values.ndim == 2 else bounds[0]


def equi_depth_bins(values, alphabet_size: int) -> np.ndarray:
    """Quantile boundaries; degenerate duplicates are padded upward."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError("equi_depth_bins expects a nonempty 1-D sequence")
    if alphabet_size < 2:
        raise ConfigError(f"alphabet size must be >= 2, got {alphabet_size}")
    qs = np.quantile(values, np.arange(1, alphabet_size) / alphabet_size)
    out = []
    for q in qs:
        out.append(q if not out or q > out[-1] else out[-1] + 1.0)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# the fitted per-window-length model


@dataclass(frozen=True, eq=False)
class SymbolicModel:
    """Column choice plus per-column bin boundaries for one window length."""

    w: int
    word_length: int
    alphabet_size: int
    columns: np.ndarray  # (word_length,) interleaved column ids
    boundaries: np.ndarray  # (word_length, alphabet_size - 1)

    @property
    def coefficient_indices(self):
        return [fourier.column_label(int(c)) for c in self.columns]


def fit_symbolic_model(
    ri_matrix: np.ndarray,
    window_labels,
    w: int,
    word_length: int,
    alphabet_size: int,
    supervised: bool = True,
) -> SymbolicModel:
    """Fit column selection and binning on disjoint-window spectra."""
    labels = np.asarray(window_labels)
    if supervised:
        cols, _ = select_coefficients(ri_matrix, labels, word_length)
    else:
        cols = leading_columns(word_length, ri_matrix.shape[1] // 2)
    if supervised:
        bounds = fit_bins(ri_matrix[:, cols], labels, alphabet_size)
    else:
        bounds = np.array(
            [equi_depth_bins(ri_matrix[:, col], alphabet_size) for col in cols]
        )
    return SymbolicModel(int(w), int(word_length), int(alphabet_size), cols, bounds)


def digitize_columns(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Map column values to bin symbols; a value equal to a boundary
    falls in the lower bin.

    The symbol is the number of the column's (increasing) boundaries
    below the value; a few whole-array comparisons count them faster
    than a binary search per column.
    """
    symbols = (values > boundaries[:, 0]).astype(np.int64)
    for t in range(1, boundaries.shape[1]):
        symbols += values > boundaries[:, t]
    return symbols


def transform_word(window_values, model: SymbolicModel, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Symbol sequence of one raw window under a fitted model."""
    x = np.asarray(window_values, dtype=np.float64)
    if x.ndim != 1 or x.size != model.w:
        raise ShapeError(f"expected a window of length {model.w}, got shape {x.shape}")
    fc = fourier.dft(znormalize(x, epsilon))
    values = fc.interleaved()[model.columns]
    return digitize_columns(values, model.boundaries)


def sliding_symbols(series_values, model: SymbolicModel, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Symbols for every sliding window of one series, shape (n-w+1, l),
    or of a stack of equal-length series, shape (N, n-w+1, l)."""
    vals = fourier.sliding_ri_columns(series_values, model.w, model.columns, epsilon)
    return digitize_columns(vals, model.boundaries)
