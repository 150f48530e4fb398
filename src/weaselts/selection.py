"""Chi-squared feature filtering and sparse vectorization.

Both steps take a dataset's bags in the CSR layout of ``bop``: arrays
``keys`` and ``counts``, series ``i`` owning entries
``indptr[i]:indptr[i + 1]``. A key may repeat within a series (after
``bop.truncate_keys``); both steps add up its counts.

Each candidate word key is scored with a 2 x k contingency table: the
key's per-class occurrence totals against the per-class totals of all
other words. Keys scoring at or above the threshold survive, and their
increasing key order is the column order of the classifier's input
space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, InsufficientClassesError
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
    """Retained keys with their scores; column ``j`` holds ``keys[j]``.

    Keys strictly increase, so ``lookup`` finds a key's column with one
    binary search; ``ConfigError`` otherwise.
    """

    keys: np.ndarray
    chi2: np.ndarray
    n_candidates: int

    def __post_init__(self):
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ConfigError("feature keys do not strictly increase")

    def __len__(self) -> int:
        return int(self.keys.size)

    def lookup(self, keys: np.ndarray):
        """Columns for a key array; returns (mask, columns)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self.keys.size == 0:
            return np.zeros(keys.size, dtype=bool), np.zeros(keys.size, dtype=np.int64)
        cols = np.searchsorted(self.keys, keys)
        np.minimum(cols, self.keys.size - 1, out=cols)
        return self.keys[cols] == keys, cols


def chi_squared_filter(
    keys, counts, indptr, labels, threshold: float = DEFAULT_CHI2_THRESHOLD
) -> FeatureDictionary:
    """Score every key across the training bags and keep the strong ones."""
    labels = np.asarray([str(lab) for lab in labels])
    classes, class_ids = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise InsufficientClassesError("chi-squared filtering needs >= 2 classes")
    if len(indptr) != labels.size + 1:
        raise ValueError("bags and labels must be parallel")
    vocab, inverse = np.unique(keys, return_inverse=True)
    n = labels.size
    x = sparse.csr_matrix((counts, inverse, indptr), shape=(n, vocab.size))
    y = sparse.csr_matrix((np.ones(n), class_ids, np.arange(n + 1)), shape=(n, classes.size))
    # Sums of integer counts are exact, so the table does not depend on
    # the order of the entries.
    observed = (x.T @ y).T.toarray()
    stats = chi_squared_stats(observed, observed.sum(axis=1))
    keep = stats >= threshold
    return FeatureDictionary(vocab[keep], stats[keep], int(vocab.size))


def vectorize(bag: BagOfPatterns, features: FeatureDictionary) -> sparse.csr_matrix:
    """Counts of the retained keys as a 1 x m sparse row, the row
    ``vectorize_all`` gives the bag."""
    return vectorize_all(bag.keys, bag.counts, np.array([0, len(bag)]), features)


def vectorize_all(keys, counts, indptr, features: FeatureDictionary) -> sparse.csr_matrix:
    """Counts of the retained keys, one sparse row per bag, in canonical
    CSR form (columns increasing, a repeated key's counts added up).

    The keys of all bags go through one dictionary lookup. Columns follow
    key order, so the rows of increasing keys are canonical as built; only
    truncated keys, which repeat out of order, leave sorting and adding up
    to ``sum_duplicates``.
    """
    mask, cols = features.lookup(keys)
    hit = np.flatnonzero(mask)
    x = sparse.csr_matrix(
        (counts[hit].astype(np.float64), cols[hit], np.searchsorted(hit, indptr)),
        shape=(len(indptr) - 1, len(features)),
    )
    x.sum_duplicates()
    return x
