"""End-to-end acceptance checks.

Each test covers one numbered claim about the library and prints a
single PASS or FAIL line with the measured quantities, so a test run
doubles as a readable scorecard. All expected values come from
independent oracles computed inside this module or in ``oracles.py``
(brute-force search, plain summation, contingency tables, stdlib math)
or from documented exact identities; nothing is copied from the
implementation under test. Each check runs the code the classifier
runs, private helpers included.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ablation import ABLATION_MATRIX, ablation_suite
from oracles import bag_layout, split_gain
from weaselts import (
    LabeledDataset,
    TimeSeries,
    WeaselConfig,
    chi_squared_filter,
    chi_squared_stats,
    fit_bins,
    fit_weasel,
    load_model,
    save_model,
    select_coefficients,
    serialize_model,
    sliding_ri_columns,
    window_ri_matrix,
)
from weaselts import synthetic
from weaselts.symbolic import _entropy_from_counts, _gain_from_counts
from weaselts.harness import nn_accuracy


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. learned bin boundary equals exhaustive search


def best_boundary_by_search(values, labels):
    """Try every midpoint between adjacent distinct values; ties prefer
    the most balanced left side, then the leftmost midpoint."""
    uniq = np.unique(values)
    best = None
    n = len(values)
    for sp in (uniq[:-1] + uniq[1:]) / 2.0:
        gain = split_gain(values, labels, sp)
        n_left = int((values <= sp).sum())
        entry = (-gain, abs(n_left - n / 2), sp)
        if best is None or entry < best:
            best = entry
    return best[2]


def test_criterion_01_binning_matches_exhaustive_search(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = mismatched = 0
    while checked < 200:
        n = int(rng.integers(2, 61))
        values = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        if rng.random() < 0.5:
            values = np.round(values, 1)  # force duplicate values and tied gains
        if np.unique(values).size < 2:
            continue
        labels = rng.integers(0, rng.integers(2, 5), n).astype(str)
        got = fit_bins(values[:, None], labels, 2)[0, 0]
        if got != best_boundary_by_search(values, labels):
            mismatched += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 1, "two-bin boundary equals brute force",
        mismatched == 0 and elapsed < 5.0,
        f"{checked} random sets, {mismatched} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. fourier transform against plain summation


def direct_half_spectrum(x):
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
    imags[0] = 0.0
    if w % 2 == 0:
        imags[-1] = 0.0
    return reals, imags


def test_criterion_02_transform_matches_direct_summation(capsys):
    # both transforms the classifier runs: whole spectra of materialized
    # windows, and every column of the sliding transform of a series that
    # is exactly one window long
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    windows = 0
    for w in (8, 16, 31, 64):
        all_columns = range(2 * (w // 2 + 1))
        for _ in range(25):
            x = rng.standard_normal(w)
            reals, imags = direct_half_spectrum((x - x.mean()) / x.std())
            ref = np.empty(2 * reals.size)
            ref[0::2], ref[1::2] = reals, imags
            ref[0] = 0.0  # a centered window has no DC term
            for got in (
                window_ri_matrix(x[None, :])[0],
                sliding_ri_columns(x, w, all_columns)[0],
            ):
                worst = max(worst, float(np.abs(got - ref).max()))
            windows += 1
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 2, "both transforms match O(w^2) summation",
        worst <= 1e-6 and elapsed < 1.0,
        f"{windows} windows, worst abs error {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. entropy and information gain identities


def test_criterion_03_entropy_and_gain_identities(capsys):
    # the class-count statistics fit_bins scores its cuts with
    aabb = np.array([2.0, 2.0])  # class counts of A A B B
    h_aabb = _entropy_from_counts(aabb, 4.0)
    exact = h_aabb == 1.0
    n_left = np.float64(2.0)  # cut 1 2 | 3 4
    perfect = _gain_from_counts(aabb, np.array([2.0, 0.0]), n_left) == h_aabb  # A A | B B
    useless = _gain_from_counts(aabb, np.array([1.0, 1.0]), n_left) == 0.0  # A B | A B

    rng = np.random.default_rng(103)
    violations = mismatches = 0
    trials = 0
    while trials < 1000:
        n = int(rng.integers(2, 50))
        values = rng.standard_normal(n)
        labels = rng.integers(0, rng.integers(2, 6), n).astype(str)
        sp = float(rng.choice(values))
        if (values <= sp).all():
            continue
        _, ids = np.unique(labels, return_inverse=True)
        parent = np.bincount(ids).astype(np.float64)
        left = np.bincount(ids[values <= sp], minlength=parent.size).astype(np.float64)
        gain = float(_gain_from_counts(parent, left, left.sum()))
        if not 0.0 <= gain <= _entropy_from_counts(parent, n) + 1e-12:
            violations += 1
        mismatches += gain != split_gain(values, labels, sp)
        trials += 1
    verdict(
        capsys, 3, "entropy and gain identities hold",
        exact and perfect and useless and violations == 0 and mismatches == 0,
        f"exact={exact} perfect={perfect} useless={useless} "
        f"bound violations {violations}/1000, "
        f"differ from the label-list oracle {mismatches}/1000",
    )


# ---------------------------------------------------------------------------
# 4. the F statistic


def selected_f(groups):
    """The F value ``select_coefficients`` ranks one column by, the column
    split into ``groups``."""
    column = np.concatenate(groups)[:, None]
    labels = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return float(select_coefficients(column, labels, 1)[1][0])


def test_criterion_04_f_statistic(capsys):
    worked = abs(selected_f([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]) - 1.5) <= 1e-9
    flat = selected_f([[1.0, 2.0], [1.0, 2.0]]) == 0.0

    rng = np.random.default_rng(104)
    worst_rel = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 5))
        groups = [rng.standard_normal(int(rng.integers(2, 12))) for _ in range(k)]
        base = selected_f(groups)
        a = float(rng.uniform(0.1, 10.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = float(rng.uniform(-20.0, 20.0))
        moved = selected_f([a * g + b for g in groups])
        worst_rel = max(worst_rel, abs(moved - base) / max(abs(base), 1e-30))
    verdict(
        capsys, 4, "F statistic worked example and invariance",
        worked and flat and worst_rel <= 1e-8,
        f"worked={worked} identical-groups-zero={flat} "
        f"worst affine rel drift {worst_rel:.2e} over 500 sets",
    )


# ---------------------------------------------------------------------------
# 5. chi-squared scoring and filtering


def chi2_contingency_oracle(observed, class_totals):
    observed = np.asarray(observed, dtype=np.float64)
    class_totals = np.asarray(class_totals, dtype=np.float64)
    grand = class_totals.sum()
    out = []
    for f in range(observed.shape[1]):
        table = np.stack([observed[:, f], class_totals - observed[:, f]], axis=1).T
        expect = (
            table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / grand
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            cells = np.where(expect > 0, (table - expect) ** 2 / expect, 0.0)
        out.append(cells.sum())
    return np.asarray(out)


def test_criterion_05_chi_squared_filtering(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 5))
        n_feat = int(rng.integers(1, 10))
        observed = rng.integers(0, 60, (k, n_feat)).astype(np.float64)
        totals = observed.sum(axis=1) + rng.integers(0, 120, k)
        got = chi_squared_stats(observed, totals)
        worst = max(worst, float(np.abs(got - chi2_contingency_oracle(observed, totals)).max()))

    # four bags in CSR layout: {1: 5, 2: 5} twice, then {1: 5, 3: 5} twice
    bags = (np.array([1, 2, 1, 2, 1, 3, 1, 3]), np.full(8, 5), np.arange(0, 9, 2))
    features = chi_squared_filter(*bags, ["a", "a", "b", "b"], threshold=2.0)
    uniform_removed = 1 not in features.keys and len(features) == 2

    rng2 = np.random.default_rng(106)
    rand_bags = bag_layout(rng2.integers(0, 40, 60) for _ in range(18))
    rand_labels = ["a", "b", "c"] * 6
    kept = [
        set(chi_squared_filter(*rand_bags, rand_labels, threshold=t).keys.tolist())
        for t in (0.0, 1.0, 2.0, 5.0, 20.0)
    ]
    nested = all(hi >= lo for hi, lo in zip(kept[:-1], kept[1:]))

    verdict(
        capsys, 5, "chi-squared scores and threshold behavior",
        worst <= 1e-9 and uniform_removed and nested,
        f"worst oracle gap {worst:.2e} over 500 tables, "
        f"uniform-removed={uniform_removed} nested-thresholds={nested}",
    )


# ---------------------------------------------------------------------------
# 6. the headline separation: windows beat whole-series distance


def test_criterion_06_burst_detection_beats_nearest_neighbor(capsys):
    train, test = synthetic.shift_invariance()
    t0 = time.perf_counter()
    baseline = nn_accuracy(train, test)
    model = fit_weasel(train)  # full default configuration
    pred = model.predict_many(test)
    acc = sum(p == t for p, t in zip(pred, test.labels)) / len(test.labels)
    elapsed = time.perf_counter() - t0
    verdict(
        capsys, 6, "random-offset bursts: words beat euclidean 1-NN",
        baseline <= 0.75 and acc >= 0.95 and elapsed < 120.0,
        f"1nn-ed {baseline:.3f} <= 0.75, model {acc:.3f} >= 0.95, "
        f"word length {model.word_length}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7 and 8. the ablation suite, shared between two criteria


@pytest.fixture(scope="module")
def suite_runs():
    runs = {}
    datasets = {}
    for name, (train, test), cfg in ablation_suite():
        datasets[name] = (train, test, cfg)
        for label, changes in ABLATION_MATRIX:
            model = fit_weasel(train, replace(cfg, **changes))
            pred = model.predict_many(test)
            acc = sum(p == t for p, t in zip(pred, test.labels)) / len(test.labels)
            runs[(name, label)] = SimpleNamespace(
                acc=acc,
                pre=model.features_pre,
                post=model.features_post,
                lengths=model.lengths,
                alphabet=model.config.alphabet,
                word_length=model.word_length,
            )
    return runs, datasets


def test_criterion_07_supervision_and_bigrams_earn_their_keep(capsys, suite_runs):
    runs, datasets = suite_runs
    names = [name for name, _, _ in ablation_suite()]
    means = {
        label: float(np.mean([runs[(n, label)].acc for n in names]))
        for label, _ in ABLATION_MATRIX
    }
    full = means["supervised+bigrams"]
    mean_ok = all(full >= m for m in means.values())

    margin = (
        runs[("bigram_order", "supervised+bigrams")].acc
        - runs[("bigram_order", "supervised+unigrams")].acc
    )
    margin_ok = margin >= 0.05

    train, test, cfg = datasets["multi_scale"]
    single_accs = {}
    for w in (10, 16, 32, 64):
        model = fit_weasel(train, replace(cfg, w_min=w, w_max=w))
        pred = model.predict_many(test)
        single_accs[w] = sum(p == t for p, t in zip(pred, test.labels)) / len(test.labels)
    multi = runs[("multi_scale", "supervised+bigrams")].acc
    multi_ok = multi >= max(single_accs.values())

    detail = (
        "means "
        + " ".join(f"{k}={v:.3f}" for k, v in means.items())
        + f"; order margin {margin:.2f} >= 0.05"
        + f"; multi-window {multi:.2f} vs best single {max(single_accs.values()):.2f}"
    )
    verdict(capsys, 7, "ablation ordering on the synthetic suite",
            mean_ok and margin_ok and multi_ok, detail)


def test_criterion_08_feature_space_is_bounded_and_pruned(capsys, suite_runs):
    runs, _ = suite_runs
    post_ok = all(r.post <= r.pre for r in runs.values())

    bound_ok = True
    for (name, label), r in runs.items():
        c, l = r.alphabet, r.word_length
        per_length = c ** l + (c ** (2 * l) if label.endswith("bigrams") else 0)
        if r.pre > per_length * len(r.lengths):
            bound_ok = False

    names = {name for name, _ in runs}
    pre_total = sum(runs[(n, "supervised+bigrams")].pre for n in names)
    post_total = sum(runs[(n, "supervised+bigrams")].post for n in names)
    removed = 1.0 - post_total / pre_total
    verdict(
        capsys, 8, "candidate bound holds and pruning bites",
        post_ok and bound_ok and removed >= 0.10,
        f"post<=pre {post_ok}, per-length bound {bound_ok}, "
        f"pooled removal {removed:.1%} >= 10%",
    )


# ---------------------------------------------------------------------------
# 9. determinism and serialization round trip


def test_criterion_09_refit_and_round_trip_are_faithful(capsys, tmp_path):
    train, _ = synthetic.cluster_blobs()
    cfg = WeaselConfig(word_lengths=(4, 6, 8), folds=3, seed=0)
    first = serialize_model(fit_weasel(train, cfg))
    model = fit_weasel(train, cfg)
    identical = serialize_model(model) == first

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(109)
    queries = [TimeSeries(rng.standard_normal(64)) for _ in range(100)]
    same = [model.predict(q) for q in queries] == [loaded.predict(q) for q in queries]
    verdict(
        capsys, 9, "byte-identical refits, faithful reload",
        identical and same,
        f"refit identical={identical} ({len(first)} bytes), "
        f"100 round-trip predictions identical={same}",
    )


# ---------------------------------------------------------------------------
# 10. prediction latency and scaling


def test_criterion_10_prediction_latency_scales_gently(capsys):
    rng = np.random.default_rng(110)
    lengths = (128, 256, 512)
    mean_ms = []
    for n in lengths:
        t = np.arange(n)
        rows, labels = [], []
        for i in range(20):
            x = 0.3 * rng.standard_normal(n)
            if i % 2:
                x = x + np.sin(2 * np.pi * t / 8)
            rows.append(x)
            labels.append("wave" if i % 2 else "noise")
        train = LabeledDataset(np.array(rows), labels)
        model = fit_weasel(train, WeaselConfig(word_lengths=(6,)))
        queries = [TimeSeries(0.3 * rng.standard_normal(n)) for _ in range(20)]
        model.predict(queries[0])  # warm caches before timing
        t0 = time.perf_counter()
        for q in queries:
            model.predict(q)
        mean_ms.append((time.perf_counter() - t0) * 1000.0 / len(queries))
    slope = float(np.polyfit(np.log(lengths), np.log(mean_ms), 1)[0])
    verdict(
        capsys, 10, "per-series latency and growth exponent",
        mean_ms[0] <= 100.0 and slope < 2.2,
        "mean ms "
        + " ".join(f"n={n}:{m:.1f}" for n, m in zip(lengths, mean_ms))
        + f"; fitted exponent {slope:.2f} < 2.2",
    )
