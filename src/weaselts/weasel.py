"""End-to-end classifier: fit, cross-validated word-length choice,
prediction, and model serialization.

``fit_weasel`` fits, per window length, a supervised symbolic model on
label-disjoint windows, builds one unified unigram+bigram bag per
training series from all sliding windows, prunes the feature space with
the chi-squared filter, and trains one-vs-rest logistic weights on the
surviving counts. The word length is chosen by stratified k-fold
cross-validation over the configured candidates (ties favor the
smaller), then the whole pipeline is refit on the full training set.

Every bag, for the fit and for prediction, is built by
``bop.series_keys``, which transforms a stack of equal-length series at
once and computes only the selected columns of every sliding window
(``fourier.sliding_ri_columns``). ``predict`` and ``predict_many`` thus
run the same arithmetic, and a series gets the same bag, scores and
label alone as in a batch. Only the fit on label-disjoint windows takes
whole spectra of materialized windows (``fourier.window_ri_matrix``),
because it ranks every column.

The candidates share one symbolic fit per fold: the window models are
fitted and the bags built once, at the longest candidate word length,
and a shorter candidate's bags follow by truncating every word
(``BagOfPatterns.truncated``). This is exact, because the columns kept
for a shorter word are a prefix of those kept for a longer one, bins
are learned per column, and symbol ``j`` is packed at bits ``2j``. The
candidates differ only in the chi-squared filter and the linear solve.

Everything downstream of the seed is deterministic: fitting the same
data twice yields byte-identical serialized models.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import fourier

# pack_words and digitize_columns are not called here; they stay imported
# because the benchmark's tracer (perfbench/spans.py) wraps them by name in
# this module.
from .bop import (
    BagOfPatterns,
    MAX_ALPHABET,
    MAX_WORD_LENGTH,
    build_bag,
    pack_words,
    series_keys,
    window_lengths,
)
from .errors import ConfigError, InsufficientClassesError, TooShortError
from .linear import LinearModel, decision_scores, train_linear
from .selection import (
    DEFAULT_CHI2_THRESHOLD,
    FeatureDictionary,
    chi_squared_filter,
    vectorize,
    vectorize_all,
)
from .symbolic import SymbolicModel, digitize_columns, fit_symbolic_model
from .ts import DEFAULT_EPSILON, LabeledDataset, TimeSeries

MODEL_FORMAT = "weaselts-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class WeaselConfig:
    """Tunable pipeline settings; the defaults are the recommended
    operating point."""

    word_lengths: tuple = (4, 6, 8)
    alphabet: int = 4
    chi_threshold: float = DEFAULT_CHI2_THRESHOLD
    w_min: int = 8
    w_max: int | None = None
    w_stride: int = 1
    bigrams: bool = True
    supervised: bool = True
    folds: int = 10
    seed: int = 0
    reg_tradeoff: float = 1.0
    tolerance: float = 0.1
    bias: float = 1.0
    normalize_features: bool = False
    epsilon: float = DEFAULT_EPSILON

    def validate(self) -> None:
        if not self.word_lengths:
            raise ConfigError("at least one candidate word length is required")
        for l in self.word_lengths:
            if not 1 <= int(l) <= MAX_WORD_LENGTH:
                raise ConfigError(f"word length must be in 1..{MAX_WORD_LENGTH}, got {l}")
        if not 2 <= self.alphabet <= MAX_ALPHABET:
            raise ConfigError(f"alphabet size must be in 2..{MAX_ALPHABET}")
        if self.chi_threshold < 0:
            raise ConfigError("chi-squared threshold must be nonnegative")
        if self.folds < 1:
            raise ConfigError("fold count must be >= 1")
        if self.w_max is not None and self.w_max < self.w_min:
            raise ConfigError(f"w_max {self.w_max} below w_min {self.w_min}")
        available = (
            2 * (self.w_min // 2 + 1) if self.supervised else 2 * (self.w_min // 2)
        )
        if max(int(l) for l in self.word_lengths) > available:
            raise ConfigError(
                f"word length exceeds the {available} coefficient values of "
                f"window length {self.w_min}"
            )


def variant_name(config: WeaselConfig) -> str:
    """Harness label for an ablation configuration."""
    name = "supervised" if config.supervised else "unsupervised"
    name += "+bigrams" if config.bigrams else "+unigrams"
    if config.w_max is not None and config.w_max == config.w_min:
        name += f"+w{config.w_min}"
    return name


# ---------------------------------------------------------------------------
# batched transformation machinery


def _length_groups(series_list):
    by_n: dict[int, list[int]] = {}
    for i, s in enumerate(series_list):
        by_n.setdefault(s.n, []).append(i)
    return [
        (n, np.asarray(idx), np.stack([series_list[i].values for i in idx]))
        for n, idx in by_n.items()
    ]


def _fit_window_models(series_list, labels, lengths, word_length, cfg):
    groups = _length_groups(series_list)
    labels_arr = np.asarray(labels)
    models: dict[int, SymbolicModel] = {}
    for w in lengths:
        mats, labs = [], []
        for n, idx, mat in groups:
            if n < w:
                continue
            offsets = np.arange(n // w) * w
            windows = mat[:, offsets[:, None] + np.arange(w)[None, :]]
            mats.append(windows.reshape(-1, w))
            labs.append(np.repeat(labels_arr[idx], offsets.size))
        if not mats:
            continue
        window_labels = np.concatenate(labs)
        if np.unique(window_labels).size < 2:
            continue  # this length cannot be fitted on the data at hand
        ri = fourier.window_ri_matrix(np.vstack(mats), cfg.epsilon)
        models[w] = fit_symbolic_model(
            ri, window_labels, w, word_length, cfg.alphabet, cfg.supervised
        )
    if not models:
        raise ConfigError("no window length could be fitted on this dataset")
    return models


def _dataset_bags(series_list, models, bigrams, epsilon):
    """One bag per series over every fitted length that fits it.

    Equal-length series are transformed as one stack by ``series_keys``,
    the function ``build_bag`` uses for a single series, so each bag
    equals the one ``build_bag`` gives its series alone.
    """
    buffers: list[list[np.ndarray]] = [[] for _ in series_list]
    for n, idx, mat in _length_groups(series_list):
        for w in sorted(models):
            if w > n:
                continue
            keys = series_keys(mat, models[w], bigrams, epsilon)
            for row, i in enumerate(idx):
                buffers[i].append(keys[row])
    empty = np.empty(0, dtype=np.int64)
    return [
        BagOfPatterns.from_key_stream(np.concatenate(b) if b else empty)
        for b in buffers
    ]


def _normalize_rows(x):
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    scale = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    return x.multiply(scale[:, None]).tocsr()


def _fit_fixed(bags, labels, cfg):
    """Chi-squared filter and linear solve on the bags of one word length."""
    features = chi_squared_filter(bags, labels, cfg.chi_threshold)
    x = vectorize_all(bags, features)
    if cfg.normalize_features:
        x = _normalize_rows(x)
    lin = train_linear(x, labels, cfg.reg_tradeoff, cfg.tolerance, cfg.bias)
    return features, lin


def _predict_batch(bags, features, lin, cfg):
    x = vectorize_all(bags, features)
    if cfg.normalize_features:
        x = _normalize_rows(x)
    scores = decision_scores(lin, x)
    return [lin.classes[i] for i in np.argmax(scores, axis=1)], scores


# ---------------------------------------------------------------------------
# cross-validation driver


def _stratified_folds(labels, folds, seed):
    rng = np.random.default_rng(seed)
    labels_arr = np.asarray(labels)
    fold_of = np.empty(labels_arr.size, dtype=np.int64)
    for cls in np.unique(labels_arr):
        idx = np.nonzero(labels_arr == cls)[0]
        fold_of[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return fold_of


@dataclass(eq=False)
class WeaselModel:
    """A fully fitted pipeline ready for prediction or serialization."""

    config: WeaselConfig
    word_length: int
    window_models: dict
    features: FeatureDictionary
    linear: LinearModel
    features_pre: int

    @property
    def lengths(self):
        return sorted(self.window_models)

    @property
    def classes(self):
        return list(self.linear.classes)

    @property
    def features_post(self) -> int:
        return len(self.features)

    def _check_length(self, ts: TimeSeries) -> None:
        if ts.n < self.config.w_min:
            raise TooShortError(
                f"series length {ts.n} is below the minimum window "
                f"length {self.config.w_min}"
            )

    def predict_scores(self, ts: TimeSeries):
        """Per-class scores for one series, in ``classes`` order."""
        self._check_length(ts)
        usable = [w for w in self.lengths if w <= ts.n]
        bag = build_bag(
            ts, self.window_models, self.config.bigrams, usable, self.config.epsilon
        )
        x = vectorize(bag, self.features)
        if self.config.normalize_features:
            x = _normalize_rows(x)
        return decision_scores(self.linear, x)[0]

    def predict(self, ts: TimeSeries) -> str:
        scores = self.predict_scores(ts)
        return self.linear.classes[int(np.argmax(scores))]

    def predict_many(self, series) -> list:
        """Batched prediction for a dataset or list of series."""
        if isinstance(series, LabeledDataset):
            series = series.series
        for s in series:
            self._check_length(s)
        bags = _dataset_bags(
            series, self.window_models, self.config.bigrams, self.config.epsilon
        )
        labels, _ = _predict_batch(bags, self.features, self.linear, self.config)
        return labels

    def save(self, path) -> None:
        save_model(self, path)

    @classmethod
    def load(cls, path) -> "WeaselModel":
        return load_model(path)


def fit_weasel(train: LabeledDataset, config: WeaselConfig | None = None) -> WeaselModel:
    """Fit the full pipeline, selecting the word length by cross-validation."""
    cfg = config or WeaselConfig()
    cfg.validate()
    if len(train.classes()) < 2:
        raise InsufficientClassesError("training data must contain >= 2 classes")
    min_n = min(train.lengths())
    if min_n < cfg.w_min:
        raise TooShortError(
            f"shortest training series ({min_n}) is below w_min ({cfg.w_min})"
        )
    max_n = max(train.lengths())
    lengths = window_lengths(max_n, cfg.w_min, cfg.w_max, cfg.w_stride)

    candidates = sorted({int(l) for l in cfg.word_lengths})
    chosen = candidates[0]
    if len(candidates) > 1:
        counts = [train.labels.count(c) for c in train.classes()]
        folds = min(cfg.folds, min(counts))
        if folds < cfg.folds:
            warnings.warn(
                f"fold count reduced from {cfg.folds} to {folds} to respect "
                f"the smallest class", stacklevel=2,
            )
        if folds < 2:
            warnings.warn(
                "cross-validation impossible with a single fold; "
                "using the smallest candidate word length", stacklevel=2,
            )
        else:
            fold_of = _stratified_folds(train.labels, folds, cfg.seed)
            accs = {l: [] for l in candidates}
            for f in range(folds):
                tr = np.nonzero(fold_of != f)[0]
                va = np.nonzero(fold_of == f)[0]
                sub_series = [train.series[i] for i in tr]
                sub_labels = [train.labels[i] for i in tr]
                models = _fit_window_models(
                    sub_series, sub_labels, lengths, candidates[-1], cfg
                )
                train_bags = _dataset_bags(sub_series, models, cfg.bigrams, cfg.epsilon)
                val_bags = _dataset_bags(
                    [train.series[i] for i in va], models, cfg.bigrams, cfg.epsilon
                )
                truth = [train.labels[i] for i in va]
                for l in candidates:
                    if l < candidates[-1]:
                        tb = [b.truncated(l) for b in train_bags]
                        vb = [b.truncated(l) for b in val_bags]
                    else:
                        tb, vb = train_bags, val_bags
                    feats, lin = _fit_fixed(tb, sub_labels, cfg)
                    pred, _ = _predict_batch(vb, feats, lin, cfg)
                    accs[l].append(
                        sum(p == t for p, t in zip(pred, truth)) / len(truth)
                    )
            best_mean = -1.0
            for l in candidates:
                mean_acc = float(np.mean(accs[l]))
                if mean_acc > best_mean:
                    best_mean = mean_acc
                    chosen = l

    series, labels = list(train.series), list(train.labels)
    models = _fit_window_models(series, labels, lengths, chosen, cfg)
    bags = _dataset_bags(series, models, cfg.bigrams, cfg.epsilon)
    features, lin = _fit_fixed(bags, labels, cfg)
    return WeaselModel(cfg, chosen, models, features, lin, features.n_candidates)


def predict(model: WeaselModel, ts: TimeSeries) -> str:
    """Predicted class label for one series."""
    return model.predict(ts)


# ---------------------------------------------------------------------------
# serialization


def _model_document(model: WeaselModel) -> dict:
    cfg = model.config
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": {
            "word_lengths": [int(l) for l in cfg.word_lengths],
            "alphabet": cfg.alphabet,
            "chi_threshold": cfg.chi_threshold,
            "w_min": cfg.w_min,
            "w_max": cfg.w_max,
            "w_stride": cfg.w_stride,
            "bigrams": cfg.bigrams,
            "supervised": cfg.supervised,
            "folds": cfg.folds,
            "seed": cfg.seed,
            "reg_tradeoff": cfg.reg_tradeoff,
            "tolerance": cfg.tolerance,
            "bias": cfg.bias,
            "normalize_features": cfg.normalize_features,
            "epsilon": cfg.epsilon,
        },
        "word_length": model.word_length,
        "features_pre": model.features_pre,
        "window_models": [
            {
                "w": int(w),
                "columns": [int(c) for c in m.columns],
                "boundaries": [[float(b) for b in row] for row in m.boundaries],
            }
            for w, m in sorted(model.window_models.items())
        ],
        "features": {
            "keys": [int(k) for k in model.features.keys],
            "chi2": [float(v) for v in model.features.chi2],
        },
        "linear": {
            "classes": list(model.linear.classes),
            "weights": [[float(v) for v in row] for row in model.linear.weights],
            "bias_weights": [float(v) for v in model.linear.bias_weights],
            "bias": model.linear.bias,
        },
    }


def serialize_model(model: WeaselModel) -> str:
    """Canonical text form; equal models serialize to identical bytes."""
    return json.dumps(
        _model_document(model), sort_keys=True, separators=(",", ":"), allow_nan=False
    ) + "\n"


def save_model(model: WeaselModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def deserialize_model(text: str) -> WeaselModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(f"unsupported model version {doc.get('version')!r}")
    c = doc["config"]
    cfg = WeaselConfig(
        word_lengths=tuple(c["word_lengths"]),
        alphabet=c["alphabet"],
        chi_threshold=c["chi_threshold"],
        w_min=c["w_min"],
        w_max=c["w_max"],
        w_stride=c["w_stride"],
        bigrams=c["bigrams"],
        supervised=c["supervised"],
        folds=c["folds"],
        seed=c["seed"],
        reg_tradeoff=c["reg_tradeoff"],
        tolerance=c["tolerance"],
        bias=c["bias"],
        normalize_features=c["normalize_features"],
        epsilon=c["epsilon"],
    )
    word_length = int(doc["word_length"])
    models = {}
    for entry in doc["window_models"]:
        models[int(entry["w"])] = SymbolicModel(
            int(entry["w"]),
            word_length,
            cfg.alphabet,
            np.asarray(entry["columns"], dtype=np.int64),
            np.asarray(entry["boundaries"], dtype=np.float64),
        )
    features = FeatureDictionary(
        np.asarray(doc["features"]["keys"], dtype=np.int64),
        np.asarray(doc["features"]["chi2"], dtype=np.float64),
        int(doc["features_pre"]),
    )
    lin = LinearModel(
        [str(x) for x in doc["linear"]["classes"]],
        np.asarray(doc["linear"]["weights"], dtype=np.float64),
        np.asarray(doc["linear"]["bias_weights"], dtype=np.float64),
        float(doc["linear"]["bias"]),
    )
    return WeaselModel(cfg, word_length, models, features, lin, int(doc["features_pre"]))


def load_model(path) -> WeaselModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_model(fh.read())
