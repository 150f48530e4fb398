"""Time-series containers and z-normalization.

A window whose deviation is at or below ``DEFAULT_EPSILON`` (1e-8) is
flat: every z-normalization in the package maps it to all zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericInputError, ShapeError

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A univariate sequence of finite float64 values."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("a time series must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise NumericInputError("time series values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def __len__(self) -> int:
        return self.n


class LabeledDataset:
    """Parallel lists of series and string class labels."""

    def __init__(self, series, labels):
        series = list(series)
        labels = [str(lab) for lab in labels]
        if len(series) != len(labels):
            raise ValueError("series and labels must have equal length")
        if not series:
            raise ValueError("dataset must contain at least one sample")
        self.series = [s if isinstance(s, TimeSeries) else TimeSeries(s) for s in series]
        self.labels = labels

    @property
    def samples(self):
        return list(zip(self.series, self.labels))

    def classes(self):
        return sorted(set(self.labels))

    def lengths(self):
        return [s.n for s in self.series]

    def equal_length(self) -> bool:
        ns = self.lengths()
        return min(ns) == max(ns)

    def values_matrix(self) -> np.ndarray:
        if not self.equal_length():
            raise ValueError("dataset has ragged series lengths")
        return np.stack([s.values for s in self.series])

    def __len__(self) -> int:
        return len(self.series)


def znormalize_rows(mat: np.ndarray) -> np.ndarray:
    """Shift every row of a stack of equal-length windows to mean zero
    and scale it to unit standard deviation.

    The standard deviation is the population form (divide by the window
    length). A flat row, deviation at or below ``DEFAULT_EPSILON``, maps
    to all zeros instead of blowing up.
    """
    mu = mat.mean(axis=1, keepdims=True)
    sd = mat.std(axis=1, keepdims=True)
    flat = sd <= DEFAULT_EPSILON
    return np.where(flat, 0.0, (mat - mu) / np.where(flat, 1.0, sd))
