"""Discrete Fourier features for fixed-length windows.

The contract is the plain unnormalized forward transform

    X_k = sum_t x_t * exp(-2*pi*i*k*t/w),   k = 0 .. floor(w/2),

of a z-normalized window, of which only the non-redundant half spectrum
is kept. That sum, evaluated term by term in O(w^2) per window, is the
reference both forms below are checked against.

Two batched forms serve the classifier. ``window_ri_matrix`` returns the
whole spectrum of z-normalized windows that are already materialized;
it serves the fit on label-disjoint windows, which ranks every column.
``sliding_ri_columns`` evaluates only the selected columns for every
sliding window of a series, or of a stack of equal-length series,
through prefix sums, in O(n) per column instead of O(n * w); every bag
of words, in fitting and in prediction, is built from it. It must agree
with the direct transform to within 1e-6, also for series far from
zero mean. Both map a window whose deviation is at most
``ts.DEFAULT_EPSILON``, the package's one flat-window threshold, to an
all-zero row.

Real and imaginary parts are addressed as interleaved columns: column
``2k`` is the real part of coefficient ``k`` and column ``2k + 1`` the
imaginary part.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SelectionError, WindowLengthError
from .ts import DEFAULT_EPSILON, znormalize_rows


def window_ri_matrix(windows: np.ndarray) -> np.ndarray:
    """Z-normalize rows of ``windows`` and return interleaved spectra.

    Output has shape ``(rows, 2 * (floor(w/2) + 1))`` with interleaved
    columns. The DC pair and, for even ``w``, the Nyquist imaginary part
    are exactly zero, as in ``sliding_ri_columns``.
    """
    w = windows.shape[1]
    spec = np.fft.rfft(znormalize_rows(windows), axis=1)
    out = np.empty((windows.shape[0], 2 * spec.shape[1]))
    out[:, 0::2] = spec.real
    out[:, 1::2] = spec.imag
    out[:, :2] = 0.0  # a centered window has no DC term, only rounding residue
    if w % 2 == 0:
        out[:, -1] = 0.0
    return out


@lru_cache(maxsize=4096)
def _phase_atom(w: int, k: int) -> np.ndarray:
    """exp(-2*pi*i*k*t/w) for t = 0..w-1; cached, read-only."""
    t = np.arange(w)
    atom = np.exp(-2j * np.pi * k * t / w)
    atom.flags.writeable = False
    return atom


def _window_sums(arr: np.ndarray, w: int) -> np.ndarray:
    """Sums over every length-``w`` window along the last axis, as
    differences of prefix sums."""
    p = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), dtype=arr.dtype)
    np.cumsum(arr, axis=-1, out=p[..., 1:])
    return p[..., w:] - p[..., : p.shape[-1] - w]


def sliding_ri_columns(series, w: int, columns) -> np.ndarray:
    """Selected spectrum columns of every z-normalized sliding window.

    ``series`` may be one series ``(n,)`` or a stack ``(..., n)`` of
    equal-length series; the result has a matching leading shape with a
    trailing ``(n - w + 1, len(columns))`` block. Each series is
    transformed by the same row-wise operations whatever the stack
    around it, so a row of a stacked call equals the call on that row
    bit for bit.

    Per-window normalization is folded into the transform: subtracting
    the window mean leaves coefficients k >= 1 unchanged and zeroes
    coefficient 0, so each unnormalized coefficient is divided by the
    window deviation afterwards. The window sums of ``x_j * phase_j``
    come from prefix sums and are rotated back to each window's start.
    Each series is first centered on its own mean: that changes no
    normalized window, and it keeps the prefix sums of a series with a
    large offset from drowning its windows' variation in rounding. A
    flat window, deviation at most ``DEFAULT_EPSILON`` or all values
    equal, maps to an all-zero row.
    """
    raw = np.asarray(series, dtype=np.float64)
    n = raw.shape[-1]
    if not 2 <= w <= n:
        raise WindowLengthError(f"window length {w} invalid for series length {n}")
    nw = n - w + 1
    m = w // 2 + 1
    cols = [int(c) for c in columns]
    for col in cols:
        if not 0 <= col >> 1 < m:
            raise SelectionError(f"coefficient index {col >> 1} out of range for m={m}")

    x = raw - raw.sum(axis=-1, keepdims=True) / n
    # x and x^2 travel as the real and imaginary part of one complex row,
    # which numpy accumulates faster than two real rows.
    moments = np.empty(x.shape, dtype=np.complex128)
    moments.real = x
    np.multiply(x, x, out=moments.imag)
    sums = _window_sums(moments, w)
    mu = sums.real / w
    sd = np.sqrt(np.maximum(sums.imag / w - mu * mu, 0.0))
    flat = sd <= DEFAULT_EPSILON
    # A window of equal values is found exactly, by counting its changes
    # of value: the deviation from the sums above keeps a rounding residue
    # that would otherwise be scaled up to a nonzero row.
    same = raw[..., 1:] == raw[..., :-1]
    if same.any():
        flat |= _window_sums((~same).astype(np.int64), w - 1) == 0
    scale = 1.0 / np.where(flat, np.inf, sd)

    # Columns stay zero for the DC pair of a centered window and for the
    # Nyquist imaginary part.
    out = np.zeros(x.shape[:-1] + (len(cols), nw))
    t_mod_w = np.arange(n) % w
    for k in sorted({c >> 1 for c in cols} - {0}):
        phase = _phase_atom(w, k)[t_mod_w]
        # x is real, so each part of this product is one rounded real
        # product; the rotation below, times conj(phase[a]), is spelled
        # out in real arithmetic for the same reason.
        s = _window_sums(x * phase, w)
        p = phase[:nw]
        for j, col in enumerate(cols):
            if col >> 1 != k or (col & 1 and 2 * k == w):
                continue
            if col & 1:
                part = s.imag * p.real - s.real * p.imag
            else:
                part = s.real * p.real + s.imag * p.imag
            np.multiply(part, scale, out=out[..., j, :])
    return np.swapaxes(out, -1, -2)
