import json
from dataclasses import fields

import numpy as np
import pytest
from scipy import sparse

from weaselts import (
    ConfigError,
    InsufficientClassesError,
    LabeledDataset,
    TimeSeries,
    TooShortError,
    WeaselConfig,
    deserialize_model,
    fit_weasel,
    load_model,
    save_model,
    serialize_model,
    variant_name,
)
from oracles import bag_layout
from weaselts import cli, synthetic
from weaselts.bop import truncate_keys
from weaselts.linear import C, DEFAULT_TOLERANCE, loss_gradient
from weaselts.selection import vectorize_all
from weaselts.weasel import _dataset_bags, _fit_window_models, _predict_batch

# three classes told apart by which harmonics carry energy; every class
# shares the same total power so only the spectral shape is informative
MASKED_PROFILES = {
    "a": (1.0, 0.4, 1.0, 0.7),
    "b": (0.4, 1.0, 1.0, 0.7),
    "c": (0.4, 1.0, 0.7, 1.0),
}
# here the a/b contrast needs one fine boundary more than 6 symbols give
DEEP_PROFILES = {
    "a": (1.0, 0.4, 1.0, 0.7),
    "b": (0.4, 1.0, 0.7, 1.0),
    "c": (0.4, 1.0, 0.7, 0.75),
}


def tone_dataset(profiles, n_train=60, n_test=99, length=16, seed=0):
    rng = np.random.default_rng(seed)
    names = sorted(profiles)
    t = np.arange(length)

    def build(count):
        rows, labels = [], []
        for i in range(count):
            name = names[i % len(names)]
            x = 0.05 * rng.standard_normal(length)
            for k, c in enumerate(profiles[name], start=1):
                x = x + c * rng.uniform(0.92, 1.08) * np.cos(
                    2 * np.pi * k * t / length + np.pi / 4
                )
            rows.append(x)
            labels.append(name)
        return LabeledDataset(np.array(rows), labels)

    return build(n_train), build(n_test)


def accuracy(model, test):
    pred = model.predict_many(test)
    return sum(p == t for p, t in zip(pred, test.labels)) / len(test.labels)


CFG16 = dict(w_min=16, w_max=16, folds=5, alphabet=2)


@pytest.fixture(scope="module")
def masked_fit():
    train, test = tone_dataset(MASKED_PROFILES)
    model = fit_weasel(train, WeaselConfig(word_lengths=(4, 6, 8), **CFG16))
    return train, test, model


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        WeaselConfig(word_lengths=()).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(word_lengths=(9,)).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(alphabet=5).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(alphabet=1).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(chi_threshold=-0.5).validate()
    with pytest.raises(ConfigError, match="finite and nonnegative, got nan"):
        WeaselConfig(chi_threshold=float("nan")).validate()
    with pytest.raises(ConfigError, match="finite and nonnegative, got inf"):
        WeaselConfig(chi_threshold=float("inf")).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(folds=0).validate()
    with pytest.raises(ConfigError):
        WeaselConfig(w_min=16, w_max=12).validate()
    # a tiny window cannot supply 8 coefficient values
    with pytest.raises(ConfigError):
        WeaselConfig(word_lengths=(8,), w_min=4).validate()
    # nor can a fit use windows shorter than 8, whatever the word length
    with pytest.raises(ConfigError, match="minimum window length is 8, got 4"):
        WeaselConfig(word_lengths=(4,), w_min=4).validate()
    WeaselConfig().validate()


def test_variant_names():
    assert variant_name(WeaselConfig()) == "supervised+bigrams"
    assert variant_name(WeaselConfig(bigrams=False)) == "supervised+unigrams"
    assert variant_name(WeaselConfig(supervised=False)) == "unsupervised+bigrams"
    assert (
        variant_name(WeaselConfig(supervised=False, bigrams=False))
        == "unsupervised+unigrams"
    )
    assert variant_name(WeaselConfig(w_min=16, w_max=16)) == "supervised+bigrams+w16"


# ---------------------------------------------------------------------------
# fitting and the cross-validated word length


def test_cv_tie_breaks_to_smaller_word_length(masked_fit):
    _, test, model = masked_fit
    # word lengths 6 and 8 both classify this set perfectly, 4 cannot
    assert model.word_length == 6
    assert accuracy(model, test) >= 0.99


def test_cv_prefers_longer_word_when_needed():
    train, test = tone_dataset(DEEP_PROFILES)
    model = fit_weasel(train, WeaselConfig(word_lengths=(4, 6, 8), **CFG16))
    assert model.word_length == 8
    assert accuracy(model, test) >= 0.9


def test_single_candidate_skips_cross_validation():
    train, _ = tone_dataset(MASKED_PROFILES, n_train=12, n_test=3)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_weasel(train, WeaselConfig(word_lengths=(6,), **CFG16))
    assert model.word_length == 6


def test_fold_count_reduced_for_small_classes():
    train, _ = tone_dataset(MASKED_PROFILES, n_train=9, n_test=3)
    cfg = WeaselConfig(word_lengths=(4, 6), w_min=16, w_max=16, folds=10, alphabet=2)
    with pytest.warns(UserWarning, match="fold count reduced from 10 to 3"):
        fit_weasel(train, cfg)


def test_fit_validation_errors():
    rng = np.random.default_rng(80)
    one_class = LabeledDataset(rng.standard_normal((6, 20)), ["a"] * 6)
    with pytest.raises(InsufficientClassesError):
        fit_weasel(one_class)
    short = LabeledDataset(rng.standard_normal((6, 5)), ["a", "b"] * 3)
    with pytest.raises(TooShortError):
        fit_weasel(short)


def test_model_summary_properties(masked_fit):
    _, _, model = masked_fit
    assert model.lengths == [16]
    assert model.classes == ["a", "b", "c"]
    assert model.features_pre >= model.features_post > 0


def test_ragged_training_lengths():
    rng = np.random.default_rng(81)
    rows, labels = [], []
    for i in range(24):
        n = 20 if i % 2 else 26
        x = 0.3 * rng.standard_normal(n)
        if i % 4 < 2:
            x = x + np.sin(2 * np.pi * np.arange(n) / 4)
            labels.append("wave")
        else:
            labels.append("flat")
        rows.append(TimeSeries(x))
    train = LabeledDataset(rows, labels)
    model = fit_weasel(train, WeaselConfig(word_lengths=(4,), folds=3))
    assert set(model.lengths) == set(range(8, 27))
    pred = model.predict_many(rows)
    assert sum(p == t for p, t in zip(pred, labels)) >= 22


@pytest.mark.parametrize("supervised", [True, False])
@pytest.mark.parametrize("bigrams", [True, False])
def test_truncated_bags_equal_bags_of_shorter_fits(supervised, bigrams):
    train, _ = tone_dataset(MASKED_PROFILES, n_train=18, n_test=3, seed=3)
    cfg = WeaselConfig(supervised=supervised, bigrams=bigrams)
    series, labels = list(train.series), list(train.labels)
    lengths = list(range(8, 17))
    longest = _fit_window_models(series, labels, lengths, 8, cfg)
    keys, counts, indptr = _dataset_bags(series, longest, bigrams)
    for l in range(1, 8):
        models = _fit_window_models(series, labels, lengths, l, cfg)
        for w, model in models.items():
            np.testing.assert_array_equal(model.columns, longest[w].columns[:l])
        short = truncate_keys(keys, l)
        merged = bag_layout(
            np.repeat(short[a:b], counts[a:b]) for a, b in zip(indptr, indptr[1:])
        )
        assert_same_layout(merged, _dataset_bags(series, models, bigrams))


def test_cv_fit_equals_single_candidate_fit(masked_fit):
    train, _, model = masked_fit
    single = fit_weasel(
        train, WeaselConfig(word_lengths=(model.word_length,), **CFG16)
    )
    assert single.lengths == model.lengths
    for w in model.lengths:
        a, b = model.window_models[w], single.window_models[w]
        assert a.columns.tobytes() == b.columns.tobytes()
        assert a.boundaries.tobytes() == b.boundaries.tobytes()
    assert model.features.keys.tobytes() == single.features.keys.tobytes()
    assert model.features.chi2.tobytes() == single.features.chi2.tobytes()
    assert model.features_pre == single.features_pre
    assert model.linear.classes == single.linear.classes
    assert model.linear.weights.tobytes() == single.linear.weights.tobytes()
    assert model.linear.bias_weights.tobytes() == single.linear.bias_weights.tobytes()


def test_unsupervised_pipeline_runs(masked_fit):
    train, test, _ = masked_fit
    cfg = WeaselConfig(word_lengths=(6,), supervised=False, **CFG16)
    model = fit_weasel(train, cfg)
    assert accuracy(model, test) >= 0.5


# ---------------------------------------------------------------------------
# invariances of the fit; one candidate word length, so no fold
# assignment depends on the order or names of the training labels

INVARIANCE_CFG = WeaselConfig(word_lengths=(6,))


@pytest.fixture(scope="module")
def invariance_fits():
    """(train, test, model) on binary and 5-class data."""
    datasets = [synthetic.shift_invariance(40, 20, seed=s) for s in (1, 2, 3)]
    datasets += [synthetic.cluster_blobs(n_classes=5, seed=s) for s in (1, 2)]
    return [(train, test, fit_weasel(train, INVARIANCE_CFG)) for train, test in datasets]


def test_class_names_do_not_change_predictions(invariance_fits):
    for train, test, model in invariance_fits:
        classes = train.classes()
        # the last class sorts first now, so the solves run in reverse
        rename = {c: f"{len(classes) - i:02d}" for i, c in enumerate(classes)}
        back = {v: k for k, v in rename.items()}
        renamed = fit_weasel(
            LabeledDataset(train.series, [rename[lab] for lab in train.labels]),
            INVARIANCE_CFG,
        )
        assert renamed.classes == sorted(back)
        assert [back[p] for p in renamed.predict_many(test)] == model.predict_many(test)


def test_training_order_does_not_change_the_fit(invariance_fits):
    rng = np.random.default_rng(90)
    for train, test, model in invariance_fits:
        perm = rng.permutation(len(train))
        series = [train.series[i] for i in perm]
        permuted = fit_weasel(
            LabeledDataset(series, [train.labels[i] for i in perm]), INVARIANCE_CFG
        )
        assert permuted.features.keys.tolist() == model.features.keys.tolist()
        assert permuted.lengths == model.lengths
        for w in model.lengths:
            assert (permuted.window_models[w].columns.tolist()
                    == model.window_models[w].columns.tolist())
        assert permuted.predict_many(test) == model.predict_many(test)
        # the permuted weights solve the problem in the original order
        bags = _dataset_bags(train.series, permuted.window_models, INVARIANCE_CFG.bigrams)
        x = vectorize_all(*bags, permuted.features)
        xa = sparse.hstack([x, sparse.csr_matrix(np.ones((x.shape[0], 1)))], format="csr")
        for cls, w, b in zip(permuted.classes, permuted.linear.weights,
                             permuted.linear.bias_weights):
            y = np.where(np.asarray(train.labels) == cls, 1.0, -1.0)
            grad = loss_gradient(np.append(w, b), xa, y, C)[1]
            assert np.linalg.norm(grad) <= DEFAULT_TOLERANCE


def test_affine_training_data_give_the_same_fit(invariance_fits):
    for train, test, model in invariance_fits:
        moved = fit_weasel(
            LabeledDataset([3.7 * ts.values + 1e3 for ts in train.series], train.labels),
            INVARIANCE_CFG,
        )
        assert moved.lengths == model.lengths
        for w in model.lengths:
            assert (moved.window_models[w].columns.tolist()
                    == model.window_models[w].columns.tolist())
        assert len(moved.features) == len(model.features)
        assert moved.predict_many(test) == model.predict_many(test)


# ---------------------------------------------------------------------------
# prediction


def assert_same_layout(got, want):
    """Two CSR bag layouts (keys, counts, indptr) are equal bit for bit."""
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def assert_batching_invariant(model, series):
    """Each series gets alone the bag, scores and label it gets in a
    ragged batch, bit for bit."""
    cfg = model.config
    # the series interleaved with longer copies of themselves
    batch = [x for ts in series
             for x in (ts, TimeSeries(np.concatenate([ts.values, ts.values[:7]])))]
    keys, counts, indptr = bags = _dataset_bags(batch, model.window_models, cfg.bigrams)
    _, scores = _predict_batch(bags, model.features, model.linear)
    for i, ts in enumerate(batch):
        a, b = indptr[i], indptr[i + 1]
        assert_same_layout(
            _dataset_bags([ts], model.window_models, cfg.bigrams),
            (keys[a:b], counts[a:b], np.array([0, b - a])),
        )
        assert model.predict_scores(ts).tobytes() == scores[i].tobytes()
    assert model.predict_many(batch) == [model.predict(ts) for ts in batch]


def test_predict_many_matches_single_predictions(masked_fit):
    _, test, model = masked_fit
    assert_batching_invariant(model, test.series)
    scores = model.predict_scores(test.series[0])
    assert scores.shape == (3,)
    assert model.classes[int(np.argmax(scores))] == model.predict(test.series[0])
    # default fits on the benchmark's fit_cv data, on the seeds where
    # per-series and batched prediction once disagreed
    for seed in (104, 105, 108, 110):
        train, test = synthetic.shift_invariance(20, 100, length=48, seed=seed)
        assert_batching_invariant(fit_weasel(train), test.series)


def test_predictions_ignore_offset_and_scale_of_long_series():
    # what z-normalization promises, on series far longer than the
    # training series and far from zero mean
    train, _ = synthetic.shift_invariance(40, 1, length=64, seed=7)
    model = fit_weasel(train, WeaselConfig(word_lengths=(6,)))
    queries, _ = synthetic.shift_invariance(4, 1, length=2048, seed=8)
    cfg = model.config
    base = _dataset_bags(queries.series, model.window_models, cfg.bigrams)
    scores = [model.predict_scores(ts).tobytes() for ts in queries.series]
    labels = model.predict_many(queries)
    for a, b in ((1.0, 1e6), (0.5, -1e6), (3.0, 1e3), (1.0, -2.5)):
        moved = [TimeSeries(a * ts.values + b) for ts in queries.series]
        assert_same_layout(_dataset_bags(moved, model.window_models, cfg.bigrams), base)
        assert [model.predict_scores(ts).tobytes() for ts in moved] == scores
        assert model.predict_many(moved) == labels
        assert [model.predict(ts) for ts in moved] == labels


def test_predict_many_of_no_series_is_empty(masked_fit):
    _, _, model = masked_fit
    assert model.predict_many([]) == []


def test_predict_rejects_too_short_series(masked_fit):
    _, _, model = masked_fit
    with pytest.raises(TooShortError):
        model.predict(TimeSeries(np.arange(8, dtype=np.float64)))


# ---------------------------------------------------------------------------
# serialization


def test_refits_are_byte_identical():
    train, _ = tone_dataset(MASKED_PROFILES, n_train=30, n_test=3)
    cfg = WeaselConfig(word_lengths=(4, 6), **CFG16)
    first = serialize_model(fit_weasel(train, cfg))
    second = serialize_model(fit_weasel(train, cfg))
    assert first == second


def test_serialized_document_shape(masked_fit):
    _, _, model = masked_fit
    doc = json.loads(serialize_model(model))
    assert doc["format"] == "weaselts-model"
    assert doc["version"] == 5
    assert set(doc) == {"format", "version", "config", "features_pre", "window_models",
                        "features", "linear"}
    # the word length is the column count of the window models, the bias
    # feature the constant linear.BIAS
    assert set(doc["linear"]) == {"classes", "weights", "bias_weights"}
    # the per-feature arrays are hex strings of 8-byte values
    d, k = model.features_post, len(model.classes)
    assert len(doc["features"]["keys"]) == len(doc["features"]["chi2"]) == 16 * d
    assert len(doc["linear"]["weights"]) == 16 * k * d
    assert len(doc["linear"]["bias_weights"]) == k
    assert serialize_model(model).endswith("\n")


def test_round_trip_preserves_predictions(masked_fit, tmp_path):
    _, test, model = masked_fit
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    pairs = [
        (loaded.features.keys, model.features.keys),
        (loaded.features.chi2, model.features.chi2),
        (loaded.linear.weights, model.linear.weights),
        (loaded.linear.bias_weights, model.linear.bias_weights),
    ]
    for got, fitted in pairs:
        assert got.dtype == fitted.dtype and np.array_equal(got, fitted)
    # the decoded arrays are read-only views, and prediction only reads them
    assert not loaded.linear.weights.flags.writeable
    fitted_scores, loaded_scores = (
        _predict_batch(_dataset_bags(test.series, m.window_models, m.config.bigrams),
                       m.features, m.linear)[1]
        for m in (model, loaded)
    )
    assert loaded_scores.tobytes() == fitted_scores.tobytes()
    assert loaded.predict_many(test) == model.predict_many(test)
    assert serialize_model(loaded) == serialize_model(model)
    assert loaded.word_length == model.word_length
    assert loaded.features_pre == model.features_pre
    assert loaded.classes == model.classes


def test_round_trip_of_a_model_that_keeps_no_feature():
    train, test = synthetic.shift_invariance(10, 2, length=48, seed=1)
    model = fit_weasel(train, WeaselConfig(word_lengths=(4,), chi_threshold=1e9))
    assert model.linear.weights.shape == (2, 0)
    text = serialize_model(model)
    loaded = deserialize_model(text)
    assert loaded.linear.weights.shape == (2, 0)
    assert serialize_model(loaded) == text
    assert loaded.predict_many(test) == model.predict_many(test)


def test_deserialize_rejects_foreign_documents():
    with pytest.raises(ConfigError):
        deserialize_model(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ConfigError):
        deserialize_model(json.dumps({"format": "weaselts-model", "version": 99}))


def test_every_config_field_survives_a_round_trip():
    train, _ = tone_dataset(MASKED_PROFILES, n_train=12, n_test=3)
    args = cli.build_parser().parse_args([
        "fit", "--train", "train.txt", "--model", "model.json",
        "--word-lengths", "5", "--alphabet", "3", "--chi", "1.5",
        "--wmin", "12", "--wmax", "14", "--no-bigrams", "--unsupervised",
        "--folds", "3", "--seed", "7",
    ])
    cfg = cli._config_from(args)
    # a field added later fails here until a command-line flag can set it
    assert all(getattr(cfg, f.name) != f.default for f in fields(WeaselConfig))
    model = fit_weasel(train, cfg)
    text = serialize_model(model)
    assert deserialize_model(text).config == model.config == cfg
    # a missing field is an error, not a silent default
    doc = json.loads(text)
    del doc["config"]["alphabet"]
    with pytest.raises(ConfigError, match="alphabet"):
        deserialize_model(json.dumps(doc))
