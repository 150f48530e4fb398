from collections import defaultdict

import numpy as np
import pytest

from oracles import bag_layout
from weaselts import (
    BagOfPatterns,
    ConfigError,
    FeatureDictionary,
    InsufficientClassesError,
    bigram_keys,
    chi_squared_filter,
    chi_squared_stats,
    pack_words,
    unigram_keys,
    vectorize_all,
)
from weaselts.bop import truncate_keys


def chi2_oracle(observed, class_totals):
    """Textbook independence chi-squared from table marginals.

    Builds each feature's 2 x k table explicitly and derives expected
    cells from row and column totals, a different route than the
    vectorized per-class expectation form.
    """
    observed = np.asarray(observed, dtype=np.float64)
    class_totals = np.asarray(class_totals, dtype=np.float64)
    grand = class_totals.sum()
    out = []
    for f in range(observed.shape[1]):
        table = np.stack([observed[:, f], class_totals - observed[:, f]], axis=1).T
        expect = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / grand
        with np.errstate(divide="ignore", invalid="ignore"):
            cells = np.where(expect > 0, (table - expect) ** 2 / expect, 0.0)
        out.append(cells.sum())
    return np.asarray(out)


def test_chi_squared_worked_example():
    # one feature seen 20 times in class a, never in class b, 100 words each
    got = chi_squared_stats(np.array([[20.0], [0.0]]), np.array([100.0, 100.0]))
    np.testing.assert_allclose(got, [200.0 / 9.0], atol=1e-12)


def test_chi_squared_matches_contingency_oracle():
    rng = np.random.default_rng(60)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        n_feat = int(rng.integers(1, 12))
        observed = rng.integers(0, 50, (k, n_feat)).astype(np.float64)
        class_totals = observed.sum(axis=1) + rng.integers(0, 100, k)
        got = chi_squared_stats(observed, class_totals)
        np.testing.assert_allclose(got, chi2_oracle(observed, class_totals), atol=1e-9)


def test_chi_squared_zero_expectation_cells():
    # an entirely absent feature scores zero rather than dividing by zero
    got = chi_squared_stats(np.array([[0.0], [0.0]]), np.array([10.0, 10.0]))
    assert got[0] == 0.0


def _biased_bags():
    """Two bags per class; key 1 is uniform, keys 2 and 3 are class pure."""
    bags = (np.array([1, 2, 1, 2, 1, 3, 1, 3]), np.full(8, 5), np.arange(0, 9, 2))
    return bags, ["a", "a", "b", "b"]


def _rows(bags):
    """Each bag of a CSR layout as a BagOfPatterns."""
    keys, counts, indptr = bags
    return [BagOfPatterns(keys[a:b], counts[a:b]) for a, b in zip(indptr, indptr[1:])]


def test_filter_drops_uniform_feature():
    bags, labels = _biased_bags()
    features = chi_squared_filter(*bags, labels, threshold=2.0)
    assert sorted(features.keys.tolist()) == [2, 3]
    assert features.n_candidates == 3
    assert len(features) == 2
    assert np.all(features.chi2 >= 2.0)


def test_filter_numbers_columns_in_key_order():
    # key 1 is near uniform, key 2 is pure to class a and key 3, more
    # often seen, pure to class b: scores rank the keys 3, 2, 1
    bags = (np.array([1, 2, 1, 2, 1, 3, 1, 3]), np.array([5, 2, 5, 2, 5, 8, 5, 8]),
            np.arange(0, 9, 2))
    features = chi_squared_filter(*bags, ["a", "a", "b", "b"], threshold=0.0)
    observed = np.array([[10, 4, 0], [10, 0, 16]])
    expect = chi_squared_stats(observed, observed.sum(axis=1))
    assert np.argsort(-expect).tolist() == [2, 1, 0]
    np.testing.assert_array_equal(features.keys, [1, 2, 3])
    assert features.chi2.tolist() == expect.tolist()


def test_filter_threshold_monotonicity():
    rng = np.random.default_rng(61)
    bags = bag_layout(rng.integers(0, 40, 60) for _ in range(18))
    labels = ["a", "b", "c"] * 6
    kept = [
        set(chi_squared_filter(*bags, labels, threshold=t).keys.tolist())
        for t in (0.0, 0.5, 2.0, 5.0, 20.0)
    ]
    for lo, hi in zip(kept[1:], kept[:-1]):
        assert lo <= hi
    assert len(kept[0]) == 40


def test_filter_invariant_to_bag_order():
    rng = np.random.default_rng(62)
    streams = [rng.integers(0, 25, 40) for _ in range(12)]
    labels = ["a", "b"] * 6
    base = chi_squared_filter(*bag_layout(streams), labels)
    perm = rng.permutation(12)
    shuffled = chi_squared_filter(
        *bag_layout(streams[i] for i in perm), [labels[i] for i in perm]
    )
    np.testing.assert_array_equal(base.keys, shuffled.keys)
    np.testing.assert_array_equal(base.chi2, shuffled.chi2)


def test_filter_validation():
    (keys, counts, indptr), _ = _biased_bags()
    with pytest.raises(InsufficientClassesError):
        chi_squared_filter(keys, counts, indptr, ["a", "a", "a", "a"])
    with pytest.raises(ValueError):
        chi_squared_filter(keys[:6], counts[:6], indptr[:4], ["a", "b"])


def test_feature_dictionary_lookup():
    features = FeatureDictionary(np.array([10, 20, 30]), np.array([4.0, 3.0, 5.0]), 7)
    mask, cols = features.lookup(np.array([10, 99, 30, 20, 5]))
    np.testing.assert_array_equal(mask, [True, False, True, True, False])
    np.testing.assert_array_equal(cols[mask], [0, 2, 1])


@pytest.mark.parametrize("keys", [[10, 20, 20], [10, 30, 20], [30, 20, 10]])
def test_feature_dictionary_needs_increasing_keys(keys):
    with pytest.raises(ConfigError, match="feature keys do not strictly increase"):
        FeatureDictionary(np.array(keys), np.ones(3), 7)


def test_feature_dictionary_empty():
    features = FeatureDictionary(np.empty(0, dtype=np.int64), np.empty(0), 4)
    assert len(features) == 0
    mask, _ = features.lookup(np.array([1, 2, 5]))
    assert not mask.any()
    row = vectorize_all(np.array([1]), np.array([3]), [0, 1], features)
    assert row.shape == (1, 0)


def test_vectorize_matches_column_lookup():
    bags, labels = _biased_bags()
    features = chi_squared_filter(*bags, labels)
    column_of = {int(k): c for c, k in enumerate(features.keys)}
    for bag in _rows(bags):
        expect = np.zeros(len(features))
        for key, count in zip(bag.keys.tolist(), bag.counts.tolist()):
            if key in column_of:
                expect[column_of[key]] = count
        row = vectorize_all(bag.keys, bag.counts, [0, len(bag)], features)
        np.testing.assert_array_equal(row.toarray()[0], expect)


def test_vectorize_all_equals_per_bag_rows_exactly():
    rng = np.random.default_rng(64)
    bags = bag_layout(rng.integers(0, 60, rng.integers(0, 40)) for _ in range(12))
    features = chi_squared_filter(*bags, ["a", "b", "c"] * 4, threshold=0.5)
    column_of = {int(k): c for c, k in enumerate(features.keys)}
    data, indices, indptr = [], [], [0]
    for bag in _rows(bags):  # the CSR arrays built row by row from a plain dict
        row = sorted((column_of[int(k)], int(n)) for k, n in zip(bag.keys, bag.counts)
                     if int(k) in column_of)
        indices += [c for c, _ in row]
        data += [float(n) for _, n in row]
        indptr.append(len(indices))
    x = vectorize_all(*bags, features)
    assert x.shape == (12, len(features))
    assert x.data.dtype == np.float64 and x.data.tolist() == data
    assert x.indices.tolist() == indices
    assert x.indptr.tolist() == indptr
    none = np.empty(0, dtype=np.int64)
    assert vectorize_all(none, none, [0], features).shape == (0, len(features))


def test_vectorize_all_stacks_single_rows():
    rng = np.random.default_rng(63)
    bags = bag_layout(rng.integers(0, 30, 50) for _ in range(10))
    labels = ["a", "b"] * 5
    features = chi_squared_filter(*bags, labels, threshold=0.5)
    stacked = vectorize_all(*bags, features).toarray()
    assert stacked.shape == (10, len(features))
    for i, bag in enumerate(_rows(bags)):
        row = vectorize_all(bag.keys, bag.counts, [0, len(bag)], features)
        np.testing.assert_array_equal(stacked[i], row.toarray()[0])


def test_truncated_keys_add_up_within_a_row():
    # truncated keys repeat within a bag; the filter and the rows must
    # count them as the bag of the truncated words does
    rng = np.random.default_rng(66)
    streams = []
    for _ in range(15):
        parts = []
        for w in (8, 9, 20):
            words = pack_words(rng.integers(0, 4, (int(rng.integers(0, 30)), 8)))
            parts += [unigram_keys(w, words), bigram_keys(w, words)]
        streams.append(np.concatenate(parts))
    labels = ["a", "b", "c"] * 5
    keys, counts, indptr = bag_layout(streams)
    for l in rng.integers(1, 9, 6):
        short = truncate_keys(keys, int(l))
        features = chi_squared_filter(short, counts, indptr, labels, threshold=0.5)
        merged = chi_squared_filter(
            *bag_layout(truncate_keys(s, int(l)) for s in streams), labels, threshold=0.5
        )
        assert features.keys.tolist() == merged.keys.tolist()
        assert features.chi2.tobytes() == merged.chi2.tobytes()
        assert features.n_candidates == merged.n_candidates
        column_of = {int(k): c for c, k in enumerate(features.keys)}
        data, indices, row_ptr = [], [], [0]
        for a, b in zip(indptr, indptr[1:]):  # the rows summed in a plain dict
            row = defaultdict(int)
            for k, n in zip(short[a:b].tolist(), counts[a:b].tolist()):
                if k in column_of:
                    row[column_of[k]] += n
            indices += sorted(row)
            data += [float(row[c]) for c in sorted(row)]
            row_ptr.append(len(indices))
        x = vectorize_all(short, counts, indptr, features)
        assert x.has_canonical_format
        assert x.data.tolist() == data
        assert x.indices.tolist() == indices
        assert x.indptr.tolist() == row_ptr
