"""Bag-of-patterns construction over multiple window lengths.

Every word occurrence is kept (no numerosity reduction). A word is
packed into an integer key of at most 45 bits:

    bits  0..15  word symbols, two bits per symbol
    bits 16..31  predecessor word symbols (bigram keys only)
    bit     32   kind: 0 unigram, 1 bigram
    bits 33..44  window length

Injective for word lengths up to 8, alphabets up to 4, and window
lengths below 4096, so keys from all window lengths and both kinds can
share one bag.

``series_keys`` is the one place where sliding windows become keys, and
``build_bag`` the one place where keys become bags: it takes a stack of
equal-length series and gives one bag per row, for the fit and for
prediction alike.

The bags of a dataset travel in one CSR (compressed sparse row) layout:
arrays ``keys`` (int64) and ``counts``, where series ``i`` owns entries
``indptr[i]:indptr[i + 1]``. ``truncate_keys`` gives the keys of a
shorter word length with one bitmask over such a key array; the counts
stay, and a key may then repeat within a series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .symbolic import SymbolicModel, sliding_symbols

KIND_UNIGRAM = 0
KIND_BIGRAM = 1
_KIND_SHIFT = 32
_W_SHIFT = 33
_PREV_SHIFT = 16
MAX_WINDOW_LENGTH = 4095
MAX_WORD_LENGTH = 8
MAX_ALPHABET = 4
MIN_WINDOW_LENGTH = 8


def window_lengths(n: int, w_min: int = 8, w_max: int | None = None):
    """All window lengths from ``w_min`` up to ``min(w_max, n)``."""
    if w_min < MIN_WINDOW_LENGTH:
        raise ConfigError(f"minimum window length is {MIN_WINDOW_LENGTH}, got {w_min}")
    hi = n if w_max is None else min(w_max, n)
    if hi > MAX_WINDOW_LENGTH:
        raise ConfigError(f"window lengths above {MAX_WINDOW_LENGTH} cannot be packed")
    if w_min > hi:
        raise ConfigError(f"empty window-length range [{w_min}, {hi}]")
    return list(range(w_min, hi + 1))


def pack_words(symbols: np.ndarray) -> np.ndarray:
    """Pack symbol rows (..., l) into integers, two bits per symbol."""
    l = symbols.shape[-1]
    if l > MAX_WORD_LENGTH:
        raise ConfigError(f"cannot pack more than {MAX_WORD_LENGTH} symbols per word")
    weights = np.int64(1) << (2 * np.arange(l, dtype=np.int64))
    return symbols.astype(np.int64) @ weights


def unigram_keys(w: int, words: np.ndarray) -> np.ndarray:
    return (np.int64(w) << _W_SHIFT) | words


def bigram_keys(w: int, words: np.ndarray) -> np.ndarray:
    """Keys pairing each word with the one ``w`` offsets earlier.

    The predecessor window is the closest non-overlapping one, so only
    offsets ``a`` with ``a - w >= 1`` contribute; the result is empty
    when no window has such a predecessor.
    """
    if words.shape[-1] <= w:
        return np.empty(words.shape[:-1] + (0,), dtype=np.int64)
    head = (np.int64(w) << _W_SHIFT) | (np.int64(1) << _KIND_SHIFT)
    return head | (words[..., :-w] << _PREV_SHIFT) | words[..., w:]


def unpack_key(key: int):
    """Return (w, kind, word) or (w, kind, previous word, word)."""
    key = int(key)
    w = key >> _W_SHIFT
    kind = (key >> _KIND_SHIFT) & 1
    word = key & 0xFFFF
    if kind == KIND_UNIGRAM:
        return w, kind, word
    return w, kind, (key >> _PREV_SHIFT) & 0xFFFF, word


def truncate_keys(keys: np.ndarray, word_length: int) -> np.ndarray:
    """The keys these occurrences make when every word keeps only its
    first ``word_length`` symbols.

    Symbol ``j`` sits at bits ``2j`` of each word, so this keeps the low
    ``2 * word_length`` bits of a unigram word and of both halves of a
    bigram, and keeps the kind and window length. Keys that become equal
    are not merged; whoever counts them adds them up.
    """
    low = (1 << (2 * word_length)) - 1
    return keys & np.int64(-(1 << _KIND_SHIFT) | (low << _PREV_SHIFT) | low)


@dataclass(frozen=True, eq=False)
class BagOfPatterns:
    """Sparse key -> count map stored as parallel sorted arrays."""

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_key_stream(cls, keys: np.ndarray) -> "BagOfPatterns":
        uniq, counts = np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)
        return cls(uniq, counts.astype(np.int64))

    def __len__(self) -> int:
        return int(self.keys.size)


def series_keys(
    values: np.ndarray, model: SymbolicModel, bigrams: bool = True
) -> np.ndarray:
    """Unigram (and optionally bigram) keys of every sliding window at
    one length.

    ``values`` is one series ``(n,)`` or a stack ``(N, n)`` of
    equal-length series; the keys of each series fill the last axis,
    unigrams first. A row of a stack gets the keys its series gets alone,
    bit for bit, so batched and per-series bags agree.
    """
    words = pack_words(sliding_symbols(values, model))
    parts = [unigram_keys(model.w, words)]
    if bigrams:
        parts.append(bigram_keys(model.w, words))
    return np.concatenate(parts, axis=-1)


def build_bag(values: np.ndarray, models: dict, bigrams: bool = True) -> list:
    """One unified bag per row of a stack ``(N, n)`` of equal-length
    series, over every fitted window length up to ``n``. Keys are joined
    one row at a time, so no copy of the whole stack's keys is made."""
    # A one-row stack gets the same keys as its 1-D row, at less overhead.
    rows = values[0] if len(values) == 1 else values
    streams = [
        series_keys(rows, models[w], bigrams).reshape(len(values), -1)
        for w in sorted(models) if w <= values.shape[1]
    ]
    return [
        BagOfPatterns.from_key_stream(np.concatenate([s[i] for s in streams]))
        for i in range(len(values))
    ]
