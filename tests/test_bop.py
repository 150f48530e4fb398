from collections import Counter

import numpy as np
import pytest

from weaselts import (
    BagOfPatterns,
    ConfigError,
    TimeSeries,
    bigram_keys,
    build_bag,
    fit_symbolic_model,
    pack_words,
    sliding_symbols,
    unigram_keys,
    unpack_key,
    window_lengths,
    window_ri_matrix,
)
from weaselts.bop import (
    KIND_BIGRAM,
    KIND_UNIGRAM,
    series_keys,
    truncate_keys,
)


def fitted_model(w=8, word_length=4, alphabet=4, seed=40):
    rng = np.random.default_rng(seed)
    t = np.arange(w)
    rows, labels = [], []
    for i in range(24):
        f = 1 if i % 2 else 2
        rows.append(np.sin(2 * np.pi * f * t / w) + 0.1 * rng.standard_normal(w))
        labels.append("one" if i % 2 else "two")
    return fit_symbolic_model(window_ri_matrix(np.array(rows)), labels, w, word_length, alphabet)


# ---------------------------------------------------------------------------
# packing


def test_pack_words_little_endian_two_bits():
    assert pack_words(np.array([1, 0, 2, 3])) == 1 + 0 * 4 + 2 * 16 + 3 * 64
    np.testing.assert_array_equal(
        pack_words(np.array([[0, 0], [3, 3], [1, 2]])), [0, 15, 9]
    )


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        l = int(rng.integers(1, 9))
        symbols = rng.integers(0, 4, l)
        word = int(pack_words(symbols))
        np.testing.assert_array_equal((word >> (2 * np.arange(l))) & 3, symbols)


def test_pack_words_rejects_long_words():
    with pytest.raises(ConfigError):
        pack_words(np.zeros(9, dtype=np.int64))


def test_key_layout_and_unpack():
    uni = int(unigram_keys(10, np.array([37]))[0])
    assert uni == (10 << 33) | 37
    assert unpack_key(uni) == (10, KIND_UNIGRAM, 37)
    words = np.array([5, 9, 6])
    bi = bigram_keys(2, words)
    assert bi.shape == (1,)
    assert int(bi[0]) == (2 << 33) | (1 << 32) | (5 << 16) | 6
    assert unpack_key(int(bi[0])) == (2, KIND_BIGRAM, 5, 6)


def test_keys_injective_across_lengths_and_kinds():
    rng = np.random.default_rng(42)
    seen = set()
    for _ in range(500):
        w = int(rng.integers(8, 64))
        word = int(rng.integers(0, 1 << 16))
        if rng.random() < 0.5:
            seen.add(int(unigram_keys(w, np.array([word]))[0]))
        else:
            prev = int(rng.integers(0, 1 << 16))
            key = (w << 33) | (1 << 32) | (prev << 16) | word
            assert unpack_key(key) == (w, KIND_BIGRAM, prev, word)
            seen.add(key)
    # the same (w, kind, payload) always packs identically, so distinct
    # tuples must stay distinct for the shared bag to be sound
    tuples = {unpack_key(k) for k in seen}
    assert len(tuples) == len(seen)


def test_bigram_pairs_closest_non_overlapping_window():
    words = np.arange(10, dtype=np.int64)
    got = bigram_keys(4, words)
    assert got.shape == (6,)
    for i, key in enumerate(got):
        w, kind, prev, word = unpack_key(int(key))
        assert (w, kind, prev, word) == (4, KIND_BIGRAM, i, i + 4)
    assert bigram_keys(10, words).shape == (0,)
    assert bigram_keys(12, words).shape == (0,)


# ---------------------------------------------------------------------------
# window length enumeration


def test_window_lengths_ranges():
    assert window_lengths(16) == list(range(8, 17))
    assert window_lengths(100, 8, 12) == [8, 9, 10, 11, 12]
    assert window_lengths(10, 9) == [9, 10]
    # w_max past the series is clipped, not an error
    assert window_lengths(9, 8, 50) == [8, 9]


def test_window_lengths_validation():
    with pytest.raises(ConfigError):
        window_lengths(16, 7)
    with pytest.raises(ConfigError):
        window_lengths(5000)
    with pytest.raises(ConfigError):
        window_lengths(10, 12)


# ---------------------------------------------------------------------------
# bags


def test_bag_counts_match_counter_oracle():
    rng = np.random.default_rng(43)
    keys = rng.integers(0, 30, 200)
    bag = BagOfPatterns.from_key_stream(keys)
    expect = Counter(int(k) for k in keys)
    assert dict(zip(bag.keys.tolist(), bag.counts.tolist())) == dict(expect)
    assert bag.counts.sum() == 200
    assert len(bag) == len(expect)
    assert np.all(np.diff(bag.keys) > 0)


def test_truncated_bag_matches_counter_of_shorter_words():
    rng = np.random.default_rng(44)
    for alphabet in (2, 4):
        streams = []
        for w in (8, 9, 40):
            symbols = rng.integers(0, alphabet, (60, 8))
            streams.append((w, symbols))
        keys = np.concatenate(
            [unigram_keys(w, pack_words(s)) for w, s in streams]
            + [bigram_keys(w, pack_words(s)) for w, s in streams]
        )
        for l in range(1, 9):
            short = [(w, pack_words(s[:, :l])) for w, s in streams]
            expect = Counter(
                int(k)
                for w, words in short
                for k in np.concatenate([unigram_keys(w, words), bigram_keys(w, words)])
            )
            got = truncate_keys(keys, l)
            assert Counter(got.tolist()) == expect
            assert got.dtype == np.int64 and got.size == keys.size


def test_series_keys_counts_and_contents():
    model = fitted_model(w=8)
    rng = np.random.default_rng(44)
    series = rng.standard_normal(20)
    words = pack_words(sliding_symbols(series, model))
    got = series_keys(series, model)
    # 13 sliding windows, 5 of which have a non-overlapping predecessor
    assert got.shape == (18,)
    np.testing.assert_array_equal(got[:13], unigram_keys(8, words))
    expect_bi = [
        (8 << 33) | (1 << 32) | (int(words[i - 8]) << 16) | int(words[i])
        for i in range(8, 13)
    ]
    np.testing.assert_array_equal(got[13:], expect_bi)
    assert series_keys(series, model, bigrams=False).shape == (13,)


def test_series_keys_of_a_stack_equal_per_series_keys():
    rng = np.random.default_rng(52)
    for w, bigrams in ((8, True), (9, False), (10, True)):
        model = fitted_model(w, seed=53 + w)
        block = rng.standard_normal((5, 37)) + rng.uniform(-1e3, 1e3, (5, 1))
        got = series_keys(block, model, bigrams)
        assert got.shape == (5, series_keys(block[0], model, bigrams).size)
        for row, values in zip(got, block):
            assert row.tobytes() == series_keys(values, model, bigrams).tobytes()


def test_build_bag_totals_across_lengths():
    models = {8: fitted_model(8), 9: fitted_model(9, seed=45)}
    rng = np.random.default_rng(46)
    ts = TimeSeries(rng.standard_normal(20))
    bag = build_bag(ts, models)
    # per length: (n - w + 1) unigrams and max(0, n - 2w + 1) bigrams
    assert bag.counts.sum() == (13 + 5) + (12 + 3)
    uni_only = build_bag(ts, models, bigrams=False)
    assert uni_only.counts.sum() == 13 + 12


def test_build_bag_default_skips_lengths_past_series():
    models = {8: fitted_model(8), 16: fitted_model(16, seed=47)}
    rng = np.random.default_rng(48)
    ts = TimeSeries(rng.standard_normal(12))
    bag = build_bag(ts, models)
    assert set((bag.keys >> 33).tolist()) == {8}


def test_build_bag_validation():
    models = {8: fitted_model(8)}
    with pytest.raises(ConfigError):
        build_bag(TimeSeries(np.arange(4, dtype=np.float64)), models)


def test_build_bag_deterministic():
    models = {8: fitted_model(8), 10: fitted_model(10, seed=50)}
    rng = np.random.default_rng(51)
    ts = TimeSeries(rng.standard_normal(40))
    a, b = build_bag(ts, models), build_bag(ts, models)
    assert a.keys.tobytes() == b.keys.tobytes()
    assert a.counts.tobytes() == b.counts.tobytes()
