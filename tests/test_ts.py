import numpy as np
import pytest

from weaselts import (
    DEFAULT_EPSILON,
    LabeledDataset,
    NumericInputError,
    ShapeError,
    TimeSeries,
)
from weaselts.ts import znormalize_rows


def znormalize(x):
    """``znormalize_rows`` of one window."""
    return znormalize_rows(np.asarray(x, dtype=np.float64)[None, :])[0]


def test_time_series_copies_and_freezes():
    raw = np.array([1.0, 2.0, 3.0])
    ts = TimeSeries(raw)
    raw[0] = 99.0
    assert ts.values[0] == 1.0
    assert not ts.values.flags.writeable
    assert ts.n == 3
    assert len(ts) == 3


def test_time_series_rejects_bad_input():
    with pytest.raises(ShapeError):
        TimeSeries([])
    with pytest.raises(ShapeError):
        TimeSeries([[1.0, 2.0]])
    with pytest.raises(NumericInputError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(NumericInputError):
        TimeSeries([np.inf, 0.0])


def test_znormalize_basic():
    out = znormalize(np.array([1.0, 2.0, 3.0]))
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_znormalize_population_convention():
    np.testing.assert_allclose(znormalize(np.array([0.0, 10.0])), [-1.0, 1.0])


def test_znormalize_constant_window_is_zero():
    np.testing.assert_array_equal(
        znormalize(np.array([5.0, 5.0, 5.0, 5.0])), np.zeros(4)
    )
    # spread below the detection threshold counts as constant
    tiny = 5.0 + np.array([0.0, DEFAULT_EPSILON / 10])
    np.testing.assert_array_equal(znormalize(tiny), np.zeros(2))


def test_znormalize_idempotent_and_affine_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(2, 30)))
        z = znormalize(x)
        np.testing.assert_allclose(znormalize(z), z, atol=1e-9)
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(-10.0, 10.0))
        np.testing.assert_allclose(znormalize(a * x + b), z, atol=1e-9)


def test_znormalize_rows_matches_single():
    rng = np.random.default_rng(2)
    block = rng.standard_normal((5, 12))
    block[3] = 7.0  # one constant row
    rows = znormalize_rows(block)
    np.testing.assert_array_equal(rows[3], np.zeros(12))
    for i in (0, 1, 2, 4):
        x = block[i]
        np.testing.assert_allclose(rows[i], (x - x.mean()) / x.std(), atol=1e-12)


def test_labeled_dataset_helpers():
    ds = LabeledDataset([np.arange(4.0), np.arange(6.0)], ["b", "a"])
    assert ds.classes() == ["a", "b"]
    assert ds.lengths() == [4, 6]
    assert not ds.equal_length()
    with pytest.raises(ValueError):
        ds.values_matrix()
    assert len(ds) == 2


def test_labeled_dataset_matrix_and_samples():
    ds = LabeledDataset([np.arange(3.0), np.arange(3.0) + 1], ["x", "y"])
    mat = ds.values_matrix()
    assert mat.shape == (2, 3)
    pairs = ds.samples
    assert pairs[0][1] == "x" and pairs[1][1] == "y"


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset([np.arange(3.0)], ["a", "b"])
    with pytest.raises(ValueError):
        LabeledDataset([], [])
