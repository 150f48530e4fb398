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

``series_keys`` is the one place where sliding windows become keys: it
serves ``build_bag`` for one series and the batched bag builder of the
classifier for a stack of equal-length series alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WindowLengthError
from .ts import DEFAULT_EPSILON, TimeSeries
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


def window_lengths(n: int, w_min: int = 8, w_max: int | None = None, stride: int = 1):
    """All window lengths from ``w_min`` up to ``min(w_max, n)``."""
    if w_min < MIN_WINDOW_LENGTH:
        raise ConfigError(f"minimum window length is {MIN_WINDOW_LENGTH}, got {w_min}")
    if stride < 1:
        raise ConfigError(f"window-length stride must be >= 1, got {stride}")
    hi = n if w_max is None else min(w_max, n)
    if hi > MAX_WINDOW_LENGTH:
        raise ConfigError(f"window lengths above {MAX_WINDOW_LENGTH} cannot be packed")
    if w_min > hi:
        raise ConfigError(f"empty window-length range [{w_min}, {hi}]")
    return list(range(w_min, hi + 1, stride))


def pack_words(symbols: np.ndarray) -> np.ndarray:
    """Pack symbol rows (..., l) into integers, two bits per symbol."""
    l = symbols.shape[-1]
    if l > MAX_WORD_LENGTH:
        raise ConfigError(f"cannot pack more than {MAX_WORD_LENGTH} symbols per word")
    weights = np.int64(1) << (2 * np.arange(l, dtype=np.int64))
    return symbols.astype(np.int64) @ weights


def unpack_word(word: int, word_length: int) -> np.ndarray:
    shifts = 2 * np.arange(word_length, dtype=np.int64)
    return (np.int64(word) >> shifts) & 3


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


def key_window_length(keys) -> np.ndarray:
    return np.asarray(keys, dtype=np.int64) >> _W_SHIFT


def key_kind(keys) -> np.ndarray:
    return (np.asarray(keys, dtype=np.int64) >> _KIND_SHIFT) & 1


def unpack_key(key: int):
    """Return (w, kind, word) or (w, kind, previous word, word)."""
    key = int(key)
    w = key >> _W_SHIFT
    kind = (key >> _KIND_SHIFT) & 1
    word = key & 0xFFFF
    if kind == KIND_UNIGRAM:
        return w, kind, word
    return w, kind, (key >> _PREV_SHIFT) & 0xFFFF, word


@dataclass(frozen=True, eq=False)
class BagOfPatterns:
    """Sparse key -> count map stored as parallel sorted arrays."""

    keys: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_key_stream(cls, keys: np.ndarray) -> "BagOfPatterns":
        uniq, counts = np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)
        return cls(uniq, counts.astype(np.int64))

    def truncated(self, word_length: int) -> "BagOfPatterns":
        """The bag these occurrences make when every word keeps only its
        first ``word_length`` symbols.

        Symbol ``j`` sits at bits ``2j`` of each word, so this keeps the
        low ``2 * word_length`` bits of a unigram word and of both halves
        of a bigram, keeps the kind and window length, and merges the
        keys that become equal by summing their counts.
        """
        low = (1 << (2 * word_length)) - 1
        keep = np.int64(-(1 << _KIND_SHIFT) | (low << _PREV_SHIFT) | low)
        keys, inverse = np.unique(self.keys & keep, return_inverse=True)
        counts = np.bincount(inverse, weights=self.counts, minlength=keys.size)
        return BagOfPatterns(keys, counts.astype(np.int64))

    def get(self, key: int) -> int:
        pos = np.searchsorted(self.keys, key)
        if pos < self.keys.size and self.keys[pos] == key:
            return int(self.counts[pos])
        return 0

    def as_dict(self) -> dict:
        return {int(k): int(c) for k, c in zip(self.keys, self.counts)}

    def total(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.keys.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BagOfPatterns):
            return NotImplemented
        return np.array_equal(self.keys, other.keys) and np.array_equal(
            self.counts, other.counts
        )


def series_keys(
    values: np.ndarray,
    model: SymbolicModel,
    bigrams: bool = True,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Unigram (and optionally bigram) keys of every sliding window at
    one length.

    ``values`` is one series ``(n,)`` or a stack ``(N, n)`` of
    equal-length series; the keys of each series fill the last axis,
    unigrams first. A row of a stack gets the keys its series gets alone,
    bit for bit, so batched and per-series bags agree.
    """
    words = pack_words(sliding_symbols(values, model, epsilon))
    parts = [unigram_keys(model.w, words)]
    if bigrams:
        parts.append(bigram_keys(model.w, words))
    return np.concatenate(parts, axis=-1)


def build_bag(
    ts: TimeSeries,
    models: dict,
    bigrams: bool = True,
    lengths=None,
    epsilon: float = DEFAULT_EPSILON,
) -> BagOfPatterns:
    """One unified bag over the given window lengths.

    ``lengths`` defaults to every fitted length that fits the series. A
    requested length without a fitted model is a configuration error.
    """
    if lengths is None:
        lengths = [w for w in sorted(models) if w <= ts.n]
    streams = []
    for w in lengths:
        model = models.get(w)
        if model is None:
            raise ConfigError(f"no fitted symbolic model for window length {w}")
        if w > ts.n:
            raise WindowLengthError(f"window length {w} exceeds series length {ts.n}")
        streams.append(series_keys(ts.values, model, bigrams, epsilon))
    if not streams:
        raise ConfigError("no usable window length for this series")
    return BagOfPatterns.from_key_stream(np.concatenate(streams))
