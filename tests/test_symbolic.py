import numpy as np
import pytest

from weaselts import (
    ConfigError,
    EmptyPartitionError,
    InsufficientClassesError,
    InsufficientGroupsError,
    InvalidSplitError,
    ShapeError,
    anova_f,
    dft,
    entropy,
    equi_depth_bins,
    fit_bins,
    fit_symbolic_model,
    select_coefficients,
    sliding_symbols,
    split_gain,
    transform_word,
    window_ri_matrix,
    znormalize,
)
from weaselts.symbolic import _entropy_from_counts, digitize_columns, leading_columns


# ---------------------------------------------------------------------------
# entropy and information gain


def test_entropy_exact_values():
    assert entropy(["a", "a", "b", "b"]) == 1.0
    assert entropy(["a", "b", "c", "d"]) == 2.0
    assert entropy(["a", "a", "a"]) == 0.0
    assert abs(entropy(["a", "a", "b"]) - 0.9182958340544896) < 1e-15


def test_entropy_rejects_empty():
    with pytest.raises(EmptyPartitionError):
        entropy([])


def test_split_gain_perfect_split_equals_entropy():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array(["a", "a", "b", "b"])
    assert split_gain(values, labels, 2.5) == entropy(labels)


def test_split_gain_useless_split_is_zero():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array(["a", "b", "a", "b"])
    assert split_gain(values, labels, 2.5) == 0.0


def test_split_gain_boundary_value_goes_left():
    values = np.array([1.0, 2.0, 3.0])
    labels = np.array(["a", "a", "b"])
    # the value exactly at the threshold belongs to the left side
    assert split_gain(values, labels, 2.0) == entropy(labels)


def test_split_gain_empty_side_rejected():
    values = np.array([1.0, 2.0])
    labels = np.array(["a", "b"])
    with pytest.raises(InvalidSplitError):
        split_gain(values, labels, 0.5)
    with pytest.raises(InvalidSplitError):
        split_gain(values, labels, 2.0)


def test_split_gain_bounds_property():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        values = rng.standard_normal(n)
        labels = rng.integers(0, rng.integers(2, 5), n).astype(str)
        sp = float(rng.choice(values))
        if (values <= sp).all():
            continue
        gain = split_gain(values, labels, sp)
        assert 0.0 <= gain <= entropy(labels) + 1e-12


# ---------------------------------------------------------------------------
# ANOVA F


def hand_anova(groups):
    """Textbook two-step mean-squares computation, kept independent."""
    all_vals = np.concatenate(groups)
    grand = all_vals.mean()
    k = len(groups)
    ssb = sum(len(g) * (np.mean(g) - grand) ** 2 for g in groups)
    ssw = sum(((np.asarray(g) - np.mean(g)) ** 2).sum() for g in groups)
    dfb, dfw = k - 1, len(all_vals) - k
    msb = ssb / dfb
    if msb == 0.0:
        return 0.0
    if dfw == 0 or ssw == 0.0:
        return float("inf")
    return msb / (ssw / dfw)


def test_anova_worked_example():
    # groups {1,2,3} and {2,3,4}: SSB=1.5, MSW=1.0, F=1.5
    assert abs(anova_f([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]) - 1.5) < 1e-9


def test_anova_identical_groups():
    assert anova_f([[1.0, 2.0], [1.0, 2.0]]) == 0.0


def test_anova_zero_within_variance():
    assert anova_f([[1.0, 1.0], [2.0, 2.0]]) == float("inf")


def test_anova_matches_hand_computation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        groups = [rng.standard_normal(int(rng.integers(2, 12))) for _ in range(k)]
        expect = hand_anova(groups)
        np.testing.assert_allclose(anova_f(groups), expect, rtol=1e-9)


def test_anova_affine_invariance():
    rng = np.random.default_rng(22)
    for _ in range(50):
        groups = [rng.standard_normal(int(rng.integers(2, 10))) for _ in range(3)]
        base = anova_f(groups)
        a, b = float(rng.uniform(0.2, 4.0)), float(rng.uniform(-5.0, 5.0))
        moved = anova_f([a * g + b for g in groups])
        np.testing.assert_allclose(moved, base, rtol=1e-8)


def test_anova_group_validation():
    with pytest.raises(InsufficientGroupsError):
        anova_f([[1.0, 2.0]])
    with pytest.raises(EmptyPartitionError):
        anova_f([[1.0], []])


# ---------------------------------------------------------------------------
# coefficient selection


def test_select_prefers_separating_cosine_column():
    rng = np.random.default_rng(23)
    w = 16
    t = np.arange(w)
    rows, labels = [], []
    for i in range(40):
        amp = 1.0 if i % 2 else -1.0
        rows.append(amp * np.cos(2 * np.pi * t / w) + 0.01 * rng.standard_normal(w))
        labels.append("pos" if i % 2 else "neg")
    cols, fs = select_coefficients(window_ri_matrix(np.array(rows)), labels, 3)
    assert cols[0] == 2  # real part of the first harmonic
    assert fs[0] > 1e6
    assert fs[0] >= fs[1] >= fs[2]


def test_select_matches_per_column_anova():
    rng = np.random.default_rng(24)
    matrix = rng.standard_normal((30, 10))
    labels = np.array(["a", "b", "c"] * 10)
    cols, fs = select_coefficients(matrix, labels, 10)
    for col, f in zip(cols, fs):
        groups = [matrix[labels == c, col] for c in ("a", "b", "c")]
        np.testing.assert_allclose(f, hand_anova(groups), rtol=1e-9)
    # returned order is descending F
    assert all(fs[i] >= fs[i + 1] for i in range(len(fs) - 1))


def test_select_tie_breaks_toward_lower_column():
    rng = np.random.default_rng(25)
    labels = np.array(["a", "b"] * 10)
    col = np.where(labels == "a", 1.0, -1.0) + 0.1 * rng.standard_normal(20)
    matrix = np.column_stack([col, col, rng.standard_normal(20)])
    cols, fs = select_coefficients(matrix, labels, 2)
    assert cols[0] == 0 and cols[1] == 1
    assert fs[0] == fs[1]


def test_select_validation():
    matrix = np.random.default_rng(26).standard_normal((8, 4))
    with pytest.raises(InsufficientClassesError):
        select_coefficients(matrix, ["a"] * 8, 2)
    with pytest.raises(ConfigError):
        select_coefficients(matrix, ["a", "b"] * 4, 5)
    with pytest.raises(ShapeError):
        select_coefficients(matrix, ["a", "b"], 2)


def test_leading_columns_skip_dc_pair():
    np.testing.assert_array_equal(leading_columns(4, 5), [2, 3, 4, 5])
    with pytest.raises(ConfigError):
        leading_columns(9, 5)


# ---------------------------------------------------------------------------
# information-gain binning


def midpoint_candidates(values):
    v = np.unique(values)
    return (v[:-1] + v[1:]) / 2.0


def best_boundary_oracle(values, labels):
    """Exhaustive argmax of split_gain over all midpoint candidates.

    Ties prefer the candidate whose left side is closest to half the
    data, then the leftmost midpoint.
    """
    best = None
    n = len(values)
    for sp in midpoint_candidates(values):
        gain = split_gain(values, labels, sp)
        n_left = int((values <= sp).sum())
        entry = (-gain, abs(n_left - n / 2), sp)
        if best is None or entry < best:
            best = entry
    return best[2]


def test_fit_bins_two_symbol_matches_exhaustive_oracle():
    rng = np.random.default_rng(27)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        # duplicate-heavy draws exercise the tie handling
        values = np.round(rng.standard_normal(n), 1)
        if np.unique(values).size < 2:
            continue
        labels = rng.integers(0, rng.integers(2, 5), n).astype(str)
        got = fit_bins(values, labels, 2)
        assert got.shape == (1,)
        assert got[0] == best_boundary_oracle(values, labels)


def test_fit_bins_hand_cases():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array(["a", "a", "b", "b"])
    np.testing.assert_array_equal(fit_bins(values, labels, 2), [2.5])
    np.testing.assert_array_equal(fit_bins(values, labels, 4), [1.5, 2.5, 3.5])


def test_fit_bins_pads_when_values_run_out():
    np.testing.assert_array_equal(
        fit_bins([5.0, 5.0, 5.0], ["a", "b", "a"], 4), [6.0, 7.0, 8.0]
    )
    # one real split plus padding past it
    got = fit_bins([1.0, 2.0], ["a", "b"], 4)
    np.testing.assert_array_equal(got, [1.5, 2.5, 3.5])


def test_fit_bins_boundary_count_and_order_property():
    rng = np.random.default_rng(28)
    for _ in range(80):
        n = int(rng.integers(1, 50))
        values = np.round(rng.standard_normal(n) * rng.uniform(0.2, 3.0), 1)
        labels = rng.integers(0, 3, n).astype(str)
        for c in (2, 3, 4):
            bounds = fit_bins(values, labels, c)
            assert bounds.shape == (c - 1,)
            assert np.all(np.diff(bounds) > 0)


def test_fit_bins_validation():
    with pytest.raises(ShapeError):
        fit_bins([], [], 2)
    with pytest.raises(ShapeError):
        fit_bins([1.0, 2.0], ["a"], 2)
    with pytest.raises(ConfigError):
        fit_bins([1.0, 2.0], ["a", "b"], 1)
    with pytest.raises(ShapeError):
        fit_bins(np.ones((3, 2)), ["a", "b"], 2)  # rows, not columns, match labels
    with pytest.raises(ShapeError):
        fit_bins(np.ones((0, 2)), [], 2)
    with pytest.raises(ShapeError):
        fit_bins(np.ones((2, 2, 2)), ["a", "b"], 2)
    with pytest.raises(ShapeError):
        fit_bins(np.ones((2, 2)), [["a", "b"], ["a", "b"]], 2)
    with pytest.raises(ConfigError):
        fit_bins(np.ones((2, 2)), ["a", "b"], 1)


def greedy_bins_by_loop(values, labels, alphabet_size):
    """Reference binning of one column, one candidate split at a time.

    Same greedy order (impure partition first, then larger, then
    leftmost) and the same tie rules as ``fit_bins``, written as plain
    loops. The entropy arithmetic is the library's, so results must be
    bit-identical.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    _, y = np.unique(labels[order], return_inverse=True)
    k = int(y.max()) + 1
    prefix = np.zeros((v.size + 1, k))
    for i, c in enumerate(y):
        prefix[i + 1] = prefix[i]
        prefix[i + 1, c] += 1.0

    def h(counts, total):
        return float(_entropy_from_counts(counts, float(total)))

    bounds, partitions = [], [(0, v.size)]
    while len(bounds) < alphabet_size - 1:
        choices = [
            (np.count_nonzero(prefix[e] - prefix[s]) <= 1, -(e - s), s, e)
            for s, e in partitions
            if v[s] != v[e - 1]
        ]
        if not choices:
            break
        _, _, s, e = min(choices)
        size = e - s
        h_parent = h(prefix[e] - prefix[s], size)
        best = None
        for i in range(s, e - 1):
            if v[i] == v[i + 1]:
                continue
            n_left = float(i + 1 - s)
            n_right = size - n_left
            split_h = (n_left / size) * h(prefix[i + 1] - prefix[s], n_left) + (
                n_right / size
            ) * h(prefix[e] - prefix[i + 1], n_right)
            entry = (-max(0.0, h_parent - split_h), abs(n_left - size / 2), i)
            best = entry if best is None or entry < best else best
        i = best[2]
        bounds.append((v[i] + v[i + 1]) / 2.0)
        partitions.remove((s, e))
        partitions += [(s, i + 1), (i + 1, e)]
    bounds.sort()
    pad = bounds[-1] if bounds else float(v[-1])
    while len(bounds) < alphabet_size - 1:
        pad += 1.0
        bounds.append(pad)
    return np.asarray(bounds)


def test_fit_bins_matches_loop_reference_bit_for_bit():
    rng = np.random.default_rng(35)
    for _ in range(300):
        n = int(rng.integers(1, 70))
        values = np.round(rng.standard_normal(n) * rng.uniform(0.2, 3.0), 1)
        labels = rng.integers(0, rng.integers(2, 11), n).astype(str)
        for c in (2, 3, 4):
            got = fit_bins(values, labels, c)
            ref = greedy_bins_by_loop(values, labels, c)
            assert got.tobytes() == ref.tobytes()


def test_fit_bins_block_equals_column_fits_bit_for_bit():
    rng = np.random.default_rng(36)
    for _ in range(150):
        m, n_cols = int(rng.integers(1, 90)), int(rng.integers(1, 9))
        # few distinct values per column: many duplicates and tied gains
        block = np.round(rng.standard_normal((m, n_cols)), int(rng.integers(0, 2)))
        labels = rng.integers(0, rng.integers(2, 11), m).astype(str)
        for c in (2, 3, 4):
            got = fit_bins(block, labels, c)
            assert got.shape == (n_cols, c - 1)
            for j in range(n_cols):
                alone = fit_bins(block[:, j], labels, c)
                assert got[j].tobytes() == alone.tobytes()
                if c == 4:
                    ref = greedy_bins_by_loop(block[:, j], labels, c)
                    assert got[j].tobytes() == ref.tobytes()


def test_fit_bins_block_columns_match_exhaustive_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m, n_cols = int(rng.integers(2, 50)), int(rng.integers(1, 6))
        block = np.round(rng.standard_normal((m, n_cols)), 1)
        labels = rng.integers(0, rng.integers(2, 11), m).astype(str)
        got = fit_bins(block, labels, 2)
        for j in range(n_cols):
            if np.unique(block[:, j]).size < 2:
                assert got[j, 0] == block[:, j].max() + 1.0  # padded
            else:
                assert got[j, 0] == best_boundary_oracle(block[:, j], labels)


def test_equi_depth_bins():
    values = np.arange(100.0)
    bounds = equi_depth_bins(values, 4)
    assert bounds.shape == (3,)
    np.testing.assert_allclose(bounds, [24.75, 49.5, 74.25])
    # heavy duplication still yields strictly increasing boundaries
    degen = equi_depth_bins(np.zeros(10), 4)
    assert np.all(np.diff(degen) > 0)
    with pytest.raises(ShapeError):
        equi_depth_bins([], 3)
    with pytest.raises(ConfigError):
        equi_depth_bins([1.0], 1)


def test_digitize_boundary_values_fall_low():
    bounds = np.array([[2.0, 4.0]])
    vals = np.array([[1.9], [2.0], [2.0000001], [4.0], [4.1]])
    np.testing.assert_array_equal(
        digitize_columns(vals, bounds).ravel(), [0, 0, 1, 1, 2]
    )


def test_digitize_matches_per_column_binary_search():
    rng = np.random.default_rng(35)
    for alphabet in (2, 3, 4):
        bounds = np.sort(rng.standard_normal((6, alphabet - 1)), axis=1)
        # a third of the values sit exactly on a boundary
        vals = rng.standard_normal((5, 40, 6))
        on = rng.random(vals.shape) < 1 / 3
        pick = rng.integers(0, alphabet - 1, vals.shape)
        vals[on] = np.take_along_axis(
            np.broadcast_to(bounds, vals.shape[:-1] + bounds.shape), pick[..., None], -1
        )[..., 0][on]
        expect = np.empty(vals.shape, dtype=np.int64)
        for j in range(6):
            expect[..., j] = np.searchsorted(bounds[j], vals[..., j], side="left")
        got = digitize_columns(vals, bounds)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expect)


# ---------------------------------------------------------------------------
# the fitted symbolic model


def _toy_windows(rng, n_rows=30, w=16):
    t = np.arange(w)
    rows, labels = [], []
    for i in range(n_rows):
        f = 1 if i % 2 else 2
        rows.append(np.sin(2 * np.pi * f * t / w) + 0.05 * rng.standard_normal(w))
        labels.append("one" if i % 2 else "two")
    return np.array(rows), np.array(labels)


def test_fit_symbolic_model_supervised_shapes():
    rng = np.random.default_rng(29)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 4, 4)
    assert model.columns.shape == (4,)
    assert model.boundaries.shape == (4, 3)
    assert model.w == 16 and model.word_length == 4 and model.alphabet_size == 4
    kinds = model.coefficient_indices
    assert all(kind in ("real", "imag") for kind, _ in kinds)


def test_fit_symbolic_model_unsupervised_uses_leading_columns():
    rng = np.random.default_rng(30)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 4, 3, supervised=False)
    np.testing.assert_array_equal(model.columns, [2, 3, 4, 5])
    assert model.boundaries.shape == (4, 2)


def f_by_column(matrix, labels):
    groups = [matrix[labels == c] for c in np.unique(labels)]
    return np.array([anova_f([g[:, j] for g in groups]) for j in range(matrix.shape[1])])


def test_fit_picks_dc_column_only_when_nonzero_columns_run_out():
    rng = np.random.default_rng(36)
    rows, labels = _toy_windows(rng, n_rows=40, w=8)
    ri = window_ri_matrix(rows)
    _, f = select_coefficients(ri, labels, ri.shape[1])
    # the DC pair and the Nyquist imaginary part are exact zeros, so their
    # F is zero; at w=8 the other 7 columns all separate the classes a bit
    nonzero = np.flatnonzero(f_by_column(ri, labels) > 0)
    np.testing.assert_array_equal(nonzero, [2, 3, 4, 5, 6, 7, 8])
    assert np.all(f[-3:] == 0.0)
    for l in range(1, 8):
        model = fit_symbolic_model(ri, labels, 8, l, 4)
        assert 0 not in model.columns
    # an eighth symbol needs a zero column; the lowest index wins the tie
    model = fit_symbolic_model(ri, labels, 8, 8, 4)
    assert sorted(model.columns[:7]) == list(range(2, 9))
    assert model.columns[7] == 0


def test_transform_word_matches_manual_pipeline():
    rng = np.random.default_rng(31)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 4, 4)
    window = rng.standard_normal(16)
    word = transform_word(window, model)
    manual = dft(znormalize(window)).interleaved()[model.columns]
    np.testing.assert_array_equal(word, digitize_columns(manual, model.boundaries))
    assert word.dtype == np.int64
    assert np.all((0 <= word) & (word < 4))


def test_transform_word_affine_invariance():
    rng = np.random.default_rng(32)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 6, 4)
    window = rng.standard_normal(16)
    word = transform_word(window, model)
    np.testing.assert_array_equal(word, transform_word(3.0 * window + 11.0, model))


def test_transform_word_length_check():
    rng = np.random.default_rng(33)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 4, 4)
    with pytest.raises(ShapeError):
        transform_word(np.arange(10.0), model)


def test_sliding_symbols_agree_with_per_window_words():
    rng = np.random.default_rng(34)
    rows, labels = _toy_windows(rng)
    model = fit_symbolic_model(window_ri_matrix(rows), labels, 16, 4, 4)
    series = rng.standard_normal(50)
    stream = sliding_symbols(series, model)
    assert stream.shape == (35, 4)
    for a in range(35):
        np.testing.assert_array_equal(stream[a], transform_word(series[a : a + 16], model))
