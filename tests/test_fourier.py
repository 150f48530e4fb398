import math

import numpy as np
import pytest

from weaselts import (
    SelectionError,
    WindowLengthError,
    sliding_ri_columns,
    window_ri_matrix,
)


def direct_half_spectrum(x):
    """Plain O(w^2) summation oracle, independent of any FFT routine."""
    w = len(x)
    m = w // 2 + 1
    reals = np.empty(m)
    imags = np.empty(m)
    for k in range(m):
        re = im = 0.0
        for t in range(w):
            ang = -2.0 * math.pi * k * t / w
            re += x[t] * math.cos(ang)
            im += x[t] * math.sin(ang)
        reals[k] = re
        imags[k] = im
    return reals, imags


def test_window_ri_matrix_matches_per_window_transform():
    rng = np.random.default_rng(13)
    windows = rng.standard_normal((7, 10))
    windows[2] = 3.0  # constant row stays all zero
    mat = window_ri_matrix(windows)
    assert mat.shape == (7, 2 * 6)
    np.testing.assert_array_equal(mat[2], np.zeros(12))
    for i in (0, 1, 3, 4, 5, 6):
        x = windows[i]
        reals, imags = direct_half_spectrum((x - x.mean()) / x.std())
        ref = np.empty(12)
        ref[0::2], ref[1::2] = reals, imags
        ref[:2] = 0.0  # DC of a centered window
        ref[-1] = 0.0  # Nyquist imaginary part, w even
        np.testing.assert_allclose(mat[i], ref, atol=1e-9)


def test_window_ri_matrix_zero_structure_is_exact():
    rng = np.random.default_rng(18)
    for w in (8, 9, 16, 31):
        mat = window_ri_matrix(rng.standard_normal((40, w)) * 5.0 + 3.0)
        # the DC pair of a z-normalized window, and the Nyquist imaginary
        # part of an even-length one, are exact zeros, not rounding residue
        zero = [0, 1] + ([mat.shape[1] - 1] if w % 2 == 0 else [])
        assert np.all(mat[:, zero] == 0.0)
        live = np.setdiff1d(np.arange(mat.shape[1]), zero)
        assert np.all(mat[:, live] != 0.0)


def direct_window_columns(series, w, cols):
    """Z-normalize every sliding window on its own and sum each selected
    coefficient directly; no prefix sums and no FFT."""
    windows = np.lib.stride_tricks.sliding_window_view(series, w)
    centered = windows - windows.mean(axis=1, keepdims=True)
    z = centered / centered.std(axis=1, keepdims=True)
    t = np.arange(w)
    out = np.empty((windows.shape[0], len(cols)))
    for j, col in enumerate(cols):
        angle = -2.0 * np.pi * (col >> 1) * t / w
        out[:, j] = z @ (np.sin(angle) if col & 1 else np.cos(angle))
    return out


def test_sliding_columns_exact_far_from_zero_mean():
    # the transform contract (1e-6 against the direct transform) must hold
    # for a long series sitting at a large offset
    series = np.random.default_rng(19).standard_normal(4000)
    cols = [2, 3, 9, 30, 64, 65]
    ref = direct_window_columns(series, 64, cols)
    for offset in (-1e6, 1e3, 1e6):
        got = sliding_ri_columns(series + offset, 64, cols)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)


def test_sliding_columns_match_batch_transform():
    rng = np.random.default_rng(14)
    series = rng.standard_normal(80)
    for w in (8, 13, 16):
        cols = [2, 3, 4, 7]
        slid = sliding_ri_columns(series, w, cols)
        wins = np.lib.stride_tricks.sliding_window_view(series, w)
        ref = window_ri_matrix(np.ascontiguousarray(wins))[:, cols]
        assert slid.shape == ref.shape
        np.testing.assert_allclose(slid, ref, atol=1e-6)


def test_sliding_columns_stacked_input():
    rng = np.random.default_rng(15)
    block = rng.standard_normal((4, 40))
    cols = [2, 5]
    stacked = sliding_ri_columns(block, 9, cols)
    assert stacked.shape == (4, 32, 2)
    # every row of a stack is the single-series result, bit for bit
    for n, w, size in ((40, 9, 4), (300, 17, 7), (2048, 128, 3)):
        block = rng.standard_normal((size, n)) * 10.0 ** rng.integers(-2, 3, (size, 1))
        block += rng.uniform(-1e6, 1e6, (size, 1))
        block[0, 5:40] = block[0, 4]  # a flat stretch
        cols = list(rng.integers(0, 2 * (w // 2 + 1), 8))
        stacked = sliding_ri_columns(block, w, cols)
        for i in range(size):
            single = sliding_ri_columns(block[i], w, cols)
            assert stacked[i].tobytes() == np.ascontiguousarray(single).tobytes()


def test_sliding_columns_flat_windows_are_zero():
    series = np.concatenate([np.full(20, 2.0), np.random.default_rng(16).standard_normal(20)])
    out = sliding_ri_columns(series, 10, [2, 3])
    np.testing.assert_array_equal(out[:5], np.zeros((5, 2)))
    # also where centering leaves the flat stretch at an inexact value
    for offset in (0.1, 1e6):
        out = sliding_ri_columns(series + offset, 10, [2, 3, 4])
        np.testing.assert_array_equal(out[:11], np.zeros((11, 3)))
        assert np.all(out[11:] != 0.0)


def test_sliding_columns_zero_structure():
    rng = np.random.default_rng(17)
    series = rng.standard_normal(30)
    out = sliding_ri_columns(series, 8, [0, 1, 9])
    # DC pair of a centered window and the even-length Nyquist imaginary
    np.testing.assert_array_equal(out, np.zeros_like(out))


def test_sliding_columns_validation():
    series = np.arange(10.0)
    with pytest.raises(WindowLengthError):
        sliding_ri_columns(series, 11, [2])
    with pytest.raises(WindowLengthError):
        sliding_ri_columns(series, 1, [0])
    with pytest.raises(SelectionError):
        sliding_ri_columns(series, 8, [99])
