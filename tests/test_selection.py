import numpy as np
import pytest

from weaselts import (
    BagOfPatterns,
    FeatureDictionary,
    InsufficientClassesError,
    chi_squared_filter,
    chi_squared_stats,
    vectorize,
    vectorize_all,
)


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
    a = BagOfPatterns(np.array([1, 2]), np.array([5, 5]))
    b = BagOfPatterns(np.array([1, 3]), np.array([5, 5]))
    return [a, a, b, b], ["a", "a", "b", "b"]


def test_filter_drops_uniform_feature():
    bags, labels = _biased_bags()
    features = chi_squared_filter(bags, labels, threshold=2.0)
    assert features.column_of(1) == -1
    assert features.column_of(2) >= 0
    assert features.column_of(3) >= 0
    assert features.n_candidates == 3
    assert len(features) == 2
    assert np.all(features.chi2 >= 2.0)


def test_filter_orders_by_score_then_key():
    bags, labels = _biased_bags()
    features = chi_squared_filter(bags, labels, threshold=2.0)
    # keys 2 and 3 have mirror-image tables, hence identical scores
    assert features.chi2[0] == features.chi2[1]
    np.testing.assert_array_equal(features.keys, [2, 3])


def test_filter_threshold_monotonicity():
    rng = np.random.default_rng(61)
    bags = [
        BagOfPatterns.from_key_stream(rng.integers(0, 40, 60)) for _ in range(18)
    ]
    labels = ["a", "b", "c"] * 6
    kept = [
        set(chi_squared_filter(bags, labels, threshold=t).keys.tolist())
        for t in (0.0, 0.5, 2.0, 5.0, 20.0)
    ]
    for lo, hi in zip(kept[1:], kept[:-1]):
        assert lo <= hi
    assert len(kept[0]) == 40


def test_filter_invariant_to_bag_order():
    rng = np.random.default_rng(62)
    bags = [BagOfPatterns.from_key_stream(rng.integers(0, 25, 40)) for _ in range(12)]
    labels = ["a", "b"] * 6
    base = chi_squared_filter(bags, labels)
    perm = rng.permutation(12)
    shuffled = chi_squared_filter([bags[i] for i in perm], [labels[i] for i in perm])
    np.testing.assert_array_equal(base.keys, shuffled.keys)
    np.testing.assert_array_equal(base.chi2, shuffled.chi2)


def test_filter_validation():
    bags, _ = _biased_bags()
    with pytest.raises(InsufficientClassesError):
        chi_squared_filter(bags, ["a", "a", "a", "a"])
    with pytest.raises(ValueError):
        chi_squared_filter(bags[:3], ["a", "b"])


def test_feature_dictionary_lookup():
    features = FeatureDictionary(np.array([30, 10, 20]), np.array([5.0, 4.0, 3.0]), 7)
    assert features.column_of(30) == 0
    assert features.column_of(10) == 1
    assert features.column_of(20) == 2
    assert features.column_of(99) == -1
    mask, cols = features.lookup(np.array([10, 99, 30]))
    np.testing.assert_array_equal(mask, [True, False, True])
    np.testing.assert_array_equal(cols[mask], [1, 0])


def test_feature_dictionary_empty():
    features = FeatureDictionary(np.empty(0, dtype=np.int64), np.empty(0), 4)
    assert len(features) == 0
    assert features.column_of(5) == -1
    mask, _ = features.lookup(np.array([1, 2]))
    assert not mask.any()
    row = vectorize(BagOfPatterns(np.array([1]), np.array([3])), features)
    assert row.shape == (1, 0)


def test_vectorize_matches_column_lookup():
    bags, labels = _biased_bags()
    features = chi_squared_filter(bags, labels)
    for bag in bags:
        expect = np.zeros(len(features))
        for key, count in bag.as_dict().items():
            col = features.column_of(key)
            if col >= 0:
                expect[col] = count
        np.testing.assert_array_equal(vectorize(bag, features).toarray()[0], expect)


def test_vectorize_all_equals_per_bag_rows_exactly():
    rng = np.random.default_rng(64)
    bags = [BagOfPatterns.from_key_stream(rng.integers(0, 60, rng.integers(0, 40)))
            for _ in range(12)]
    features = chi_squared_filter(bags, ["a", "b", "c"] * 4, threshold=0.5)
    data, indices, indptr = [], [], [0]
    for bag in bags:  # the CSR arrays built row by row from column_of
        cols = [features.column_of(int(k)) for k in bag.keys]
        row = sorted((c, int(n)) for c, n in zip(cols, bag.counts) if c >= 0)
        indices += [c for c, _ in row]
        data += [float(n) for _, n in row]
        indptr.append(len(indices))
    x = vectorize_all(bags, features)
    assert x.shape == (12, len(features))
    assert x.data.dtype == np.float64 and x.data.tolist() == data
    assert x.indices.tolist() == indices
    assert x.indptr.tolist() == indptr
    assert vectorize_all([], features).shape == (0, len(features))


def test_vectorize_all_stacks_single_rows():
    rng = np.random.default_rng(63)
    bags = [BagOfPatterns.from_key_stream(rng.integers(0, 30, 50)) for _ in range(10)]
    labels = ["a", "b"] * 5
    features = chi_squared_filter(bags, labels, threshold=0.5)
    stacked = vectorize_all(bags, features).toarray()
    assert stacked.shape == (10, len(features))
    for i, bag in enumerate(bags):
        np.testing.assert_array_equal(stacked[i], vectorize(bag, features).toarray()[0])
