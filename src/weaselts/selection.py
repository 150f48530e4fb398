"""Chi-squared feature filtering and sparse vectorization.

Each candidate word key is scored with a 2 x k contingency table: the
key's per-class occurrence totals against the per-class totals of all
other words. Keys scoring at or above the threshold survive and are
assigned contiguous column indices in descending-score order (ties by
key value), which fixes the layout of the classifier's input space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import InsufficientClassesError
from .bop import BagOfPatterns

DEFAULT_CHI2_THRESHOLD = 2.0


def chi_squared_stats(observed: np.ndarray, class_totals: np.ndarray) -> np.ndarray:
    """Per-feature chi-squared statistics, vectorized over features.

    ``observed[c, f]`` counts feature ``f`` in class ``c``;
    ``class_totals[c]`` is the total word mass of class ``c``. Cells
    with zero expectation contribute nothing.
    """
    observed = np.asarray(observed, dtype=np.float64)
    class_totals = np.asarray(class_totals, dtype=np.float64)
    grand = class_totals.sum()
    feature_totals = observed.sum(axis=0)
    other_totals = grand - feature_totals
    stats = np.zeros(observed.shape[1])
    # One class row at a time, so every temporary is a single row.
    with np.errstate(divide="ignore", invalid="ignore"):
        for obs, total in zip(observed, class_totals):
            exp_feat = feature_totals * total / grand
            exp_other = other_totals * total / grand
            top = np.where(exp_feat > 0, (obs - exp_feat) ** 2 / exp_feat, 0.0)
            other = total - obs
            bottom = np.where(exp_other > 0, (other - exp_other) ** 2 / exp_other, 0.0)
            stats += top + bottom
    return stats


@dataclass(eq=False)
class FeatureDictionary:
    """Retained keys in column order, with their scores."""

    keys: np.ndarray
    chi2: np.ndarray
    n_candidates: int
    _sorted_keys: np.ndarray = field(init=False, repr=False)
    _sorted_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order = np.argsort(self.keys, kind="stable")
        self._sorted_keys = self.keys[order]
        self._sorted_cols = order

    def __len__(self) -> int:
        return int(self.keys.size)

    def column_of(self, key: int) -> int:
        """Column index of ``key`` or -1 when filtered out."""
        pos = np.searchsorted(self._sorted_keys, key)
        if pos < self._sorted_keys.size and self._sorted_keys[pos] == key:
            return int(self._sorted_cols[pos])
        return -1

    def lookup(self, keys: np.ndarray):
        """Columns for a key array; returns (mask, columns)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self._sorted_keys.size == 0:
            return np.zeros(keys.size, dtype=bool), np.zeros(keys.size, dtype=np.int64)
        pos = np.searchsorted(self._sorted_keys, keys)
        np.minimum(pos, self._sorted_keys.size - 1, out=pos)
        mask = self._sorted_keys[pos] == keys
        return mask, self._sorted_cols[pos]


def chi_squared_filter(bags, labels, threshold: float = DEFAULT_CHI2_THRESHOLD) -> FeatureDictionary:
    """Score every key across the training bags and keep the strong ones."""
    labels = np.asarray([str(lab) for lab in labels])
    classes, class_ids = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise InsufficientClassesError("chi-squared filtering needs >= 2 classes")
    if len(bags) != labels.size:
        raise ValueError("bags and labels must be parallel")

    # With the bags taken class by class (in their order within a class),
    # each class's entries form one slice, and no per-entry class array or
    # mask adds to the memory peak.
    order = np.argsort(class_ids, kind="stable")
    all_keys = np.concatenate([bags[i].keys for i in order])
    all_counts = np.concatenate([bags[i].counts for i in order])
    sizes = [len(b) for b in bags]
    ends = np.cumsum(np.bincount(class_ids, weights=sizes)).astype(np.int64)
    vocab, inverse = np.unique(all_keys, return_inverse=True)
    observed = np.zeros((classes.size, vocab.size))
    start = 0
    for cid, end in enumerate(ends):
        observed[cid] = np.bincount(
            inverse[start:end], weights=all_counts[start:end], minlength=vocab.size
        )
        start = end
    stats = chi_squared_stats(observed, observed.sum(axis=1))
    keep = stats >= threshold
    kept_keys = vocab[keep]
    kept_stats = stats[keep]
    order = np.lexsort((kept_keys, -kept_stats))
    return FeatureDictionary(kept_keys[order], kept_stats[order], int(vocab.size))


def vectorize(bag: BagOfPatterns, features: FeatureDictionary) -> sparse.csr_matrix:
    """Counts of the retained keys as a 1 x m sparse row.

    This is the row ``vectorize_all`` gives the bag, so a series scores
    the same alone and in a batch.
    """
    return vectorize_all([bag], features)


def vectorize_all(bags, features: FeatureDictionary) -> sparse.csr_matrix:
    """Counts of the retained keys, one sparse row per bag.

    The keys of all bags go through one dictionary lookup; each row's
    columns are in increasing order.
    """
    if not bags:
        return sparse.csr_matrix((0, len(features)))
    mask, cols = features.lookup(np.concatenate([b.keys for b in bags]))
    hit = np.flatnonzero(mask)
    rows = np.searchsorted(np.cumsum([len(b) for b in bags]), hit, side="right")
    cols = cols[hit]
    counts = np.concatenate([b.counts for b in bags])[hit]
    order = np.argsort(rows * len(features) + cols)  # (row, column) pairs are unique
    indptr = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(bags)), out=indptr[1:])
    return sparse.csr_matrix(
        (counts[order].astype(np.float64), cols[order], indptr),
        shape=(len(bags), len(features)),
    )
