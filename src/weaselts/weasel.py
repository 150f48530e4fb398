"""End-to-end classifier: fit, cross-validated word-length choice,
prediction, and model serialization.

``fit_weasel`` fits, per window length, a supervised symbolic model on
label-disjoint windows, builds one unified unigram+bigram bag per
training series from all sliding windows, prunes the feature space with
the chi-squared filter, and trains one-vs-rest logistic weights on the
surviving counts. The word length is chosen by stratified k-fold
cross-validation over the configured candidates (ties favor the
smaller), then the whole pipeline is refit on the full training set.

There is one path from series to scores. ``_dataset_bags`` hands each
stack of equal-length series to ``bop.build_bag``, which computes only
the selected columns of every sliding window
(``fourier.sliding_ri_columns``) and gives one bag per series; the bags
travel in the CSR layout of ``bop`` (keys, counts and row pointers), and
``selection.vectorize_all`` turns them into feature columns for
training, cross-validation and prediction alike. ``predict`` is
``predict_many`` of one series, and a series gets the same bag, scores
and label alone as in any batch. Only the fit on label-disjoint windows
takes whole spectra of materialized windows
(``fourier.window_ri_matrix``), because it ranks every column.

The candidates share one symbolic fit per fold: the window models are
fitted and the bags built once, at the longest candidate word length,
and a shorter candidate's keys follow by masking every word
(``bop.truncate_keys``). This is exact, because the columns kept for a
shorter word are a prefix of those kept for a longer one, bins are
learned per column, and symbol ``j`` is packed at bits ``2j``. The
chi-squared filter and ``vectorize_all`` add up the keys that the mask
makes equal, so the candidates differ only in those two steps and the
linear solve.

Everything downstream of the seed is deterministic at a fixed BLAS
thread count: fitting the same data twice with the same number of BLAS
threads yields byte-identical serialized models. The solver's dot
products are summed in an order that depends on that count, so fits at
one and at two threads can differ in their last bits; ``weaselts
--single-thread`` pins one thread.

``WeaselConfig`` is the one statement of the config's types and ranges:
it checks them when it is built, and the fit, the model writer and
loader and the command line rely on that.
"""

from __future__ import annotations

import binascii
import json
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from . import fourier

from .bop import (
    _KIND_SHIFT,
    MAX_ALPHABET,
    MAX_WINDOW_LENGTH,
    MAX_WORD_LENGTH,
    MIN_WINDOW_LENGTH,
    build_bag,
    pack_words,
    truncate_keys,
    window_lengths,
)
from .errors import ConfigError, InsufficientClassesError, TooShortError
from .linear import LinearModel, decision_scores, train_linear
from .selection import (
    DEFAULT_CHI2_THRESHOLD,
    FeatureDictionary,
    chi_squared_filter,
    vectorize_all,
)
from .symbolic import SymbolicModel, digitize_columns, fit_symbolic_model
from .ts import LabeledDataset, TimeSeries

# pack_words, digitize_columns and vectorize (the retired per-series
# vectorizer, whose work vectorize_all does) are bound here only because the
# benchmark's tracer (perfbench/spans.py) wraps them by name; nothing calls them.
vectorize = vectorize_all

MODEL_FORMAT = "weaselts-model"
MODEL_VERSION = 5


# The type of each config field; a bool is no int, and word_lengths holds ints.
_CONFIG_TYPES = {
    "word_lengths": tuple, "alphabet": int, "chi_threshold": (int, float),
    "w_min": int, "w_max": (int, type(None)), "bigrams": bool,
    "supervised": bool, "folds": int, "seed": int,
}


def _typed(value, types) -> bool:
    return isinstance(value, types) and (type(value) is not bool or types is bool)


@dataclass(frozen=True)
class WeaselConfig:
    """Tunable pipeline settings, whose types and ranges are checked when
    built; the defaults are the recommended operating point."""

    word_lengths: tuple = (4, 6, 8)
    alphabet: int = 4
    chi_threshold: float = DEFAULT_CHI2_THRESHOLD
    w_min: int = 8
    w_max: int | None = None
    bigrams: bool = True
    supervised: bool = True
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        mistyped = [name for name, types in _CONFIG_TYPES.items()
                    if not _typed(getattr(self, name), types)]
        if mistyped or not all(_typed(l, int) for l in self.word_lengths):
            raise ConfigError(f"config fields of the wrong type: {mistyped or ['word_lengths']}")
        if not self.word_lengths:
            raise ConfigError("at least one candidate word length is required")
        for l in self.word_lengths:
            if not 1 <= l <= MAX_WORD_LENGTH:
                raise ConfigError(f"word length must be in 1..{MAX_WORD_LENGTH}, got {l}")
        if not 2 <= self.alphabet <= MAX_ALPHABET:
            raise ConfigError(f"alphabet size must be in 2..{MAX_ALPHABET}")
        if not 0 <= self.chi_threshold < np.inf:
            raise ConfigError(f"chi-squared threshold must be finite and nonnegative, "
                              f"got {self.chi_threshold}")
        if self.folds < 1:
            raise ConfigError("fold count must be >= 1")
        if self.w_min < MIN_WINDOW_LENGTH:
            raise ConfigError(f"minimum window length is {MIN_WINDOW_LENGTH}, got {self.w_min}")
        if self.w_max is not None and self.w_max < self.w_min:
            raise ConfigError(f"w_max {self.w_max} below w_min {self.w_min}")
        available = (
            2 * (self.w_min // 2 + 1) if self.supervised else 2 * (self.w_min // 2)
        )
        if max(self.word_lengths) > available:
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
        ri = fourier.window_ri_matrix(np.vstack(mats))
        models[w] = fit_symbolic_model(
            ri, window_labels, w, word_length, cfg.alphabet, cfg.supervised
        )
    if not models:
        raise ConfigError("no window length could be fitted on this dataset")
    return models


def _dataset_bags(series_list, models, bigrams):
    """The bags of a dataset, one per series over every fitted length that
    fits it, in CSR layout: ``(keys, counts, indptr)``.

    Equal-length series go to ``build_bag`` as one stack, and its bags
    are joined in input order. A series gets the same bag alone as in
    any batch, so ``predict`` is this on a batch of one.
    """
    bags = [None] * len(series_list)
    for _, idx, mat in _length_groups(series_list):
        for i, bag in zip(idx, build_bag(mat, models, bigrams)):
            bags[i] = bag
    empty = np.empty(0, dtype=np.int64)
    indptr = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in bags], out=indptr[1:])
    keys = np.concatenate([empty] + [b.keys for b in bags])
    return keys, np.concatenate([empty] + [b.counts for b in bags]), indptr


def _fit_fixed(bags, labels, cfg):
    """Chi-squared filter and linear solve on the bags of one word length."""
    features = chi_squared_filter(*bags, labels, cfg.chi_threshold)
    lin = train_linear(vectorize_all(*bags, features), labels)
    return features, lin


def _predict_batch(bags, features, lin):
    scores = decision_scores(lin, vectorize_all(*bags, features))
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
    window_models: dict
    features: FeatureDictionary
    linear: LinearModel

    @property
    def lengths(self):
        return sorted(self.window_models)

    @property
    def word_length(self) -> int:
        """The chosen word length: every window model keeps that many columns."""
        return len(next(iter(self.window_models.values())).columns)

    @property
    def features_pre(self) -> int:
        return self.features.n_candidates

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
        bags = _dataset_bags([ts], self.window_models, self.config.bigrams)
        return _predict_batch(bags, self.features, self.linear)[1][0]

    def predict(self, ts: TimeSeries) -> str:
        scores = self.predict_scores(ts)
        return self.linear.classes[int(np.argmax(scores))]

    def predict_many(self, series) -> list:
        """Batched prediction for a dataset or list of series."""
        if isinstance(series, LabeledDataset):
            series = series.series
        for s in series:
            self._check_length(s)
        bags = _dataset_bags(series, self.window_models, self.config.bigrams)
        labels, _ = _predict_batch(bags, self.features, self.linear)
        return labels


def fit_weasel(train: LabeledDataset, config: WeaselConfig | None = None) -> WeaselModel:
    """Fit the full pipeline, selecting the word length by cross-validation."""
    cfg = config or WeaselConfig()
    if len(train.classes()) < 2:
        raise InsufficientClassesError("training data must contain >= 2 classes")
    min_n = min(train.lengths())
    if min_n < cfg.w_min:
        raise TooShortError(
            f"shortest training series ({min_n}) is below w_min ({cfg.w_min})"
        )
    max_n = max(train.lengths())
    lengths = window_lengths(max_n, cfg.w_min, cfg.w_max)

    candidates = sorted(set(cfg.word_lengths))
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
                t_keys, *t_rest = _dataset_bags(sub_series, models, cfg.bigrams)
                v_keys, *v_rest = _dataset_bags(
                    [train.series[i] for i in va], models, cfg.bigrams
                )
                truth = [train.labels[i] for i in va]
                for l in candidates:
                    feats, lin = _fit_fixed((truncate_keys(t_keys, l), *t_rest), sub_labels, cfg)
                    pred, _ = _predict_batch((truncate_keys(v_keys, l), *v_rest), feats, lin)
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
    bags = _dataset_bags(series, models, cfg.bigrams)
    features, lin = _fit_fixed(bags, labels, cfg)
    return WeaselModel(cfg, models, features, lin)


# ---------------------------------------------------------------------------
# serialization


def _hex(values, dtype: str) -> str:
    """Lowercase hex of an array's bytes as ``dtype``, in row-major order."""
    return np.ascontiguousarray(values, dtype=dtype).tobytes().hex()


def _unhex(text, dtype: str) -> np.ndarray:
    """The read-only array of ``dtype`` whose bytes ``text`` spells in hex;
    odd-length or non-hex text raises ``binascii.Error``, a ``ValueError``."""
    if type(text) is not str:
        raise ConfigError(f"per-feature arrays must be hex strings, not {type(text).__name__}")
    raw = binascii.unhexlify(text)
    if len(raw) % 8:
        raise ConfigError(f"a per-feature array holds {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype=dtype)


def _model_document(model: WeaselModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
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
            "keys": _hex(model.features.keys, "<i8"),
            "chi2": _hex(model.features.chi2, "<f8"),
        },
        "linear": {
            "classes": list(model.linear.classes),
            "weights": _hex(model.linear.weights, "<f8"),
            "bias_weights": [float(v) for v in model.linear.bias_weights],
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
    """Rebuild a model from ``serialize_model`` text; a document that is
    not JSON, not a model document of this version, lacks a field, holds
    a config ``WeaselConfig`` refuses, an integer field or array entry of
    the wrong JSON type, a per-feature array that is not hex of 8-byte
    values, window lengths or arrays that do not fit together, fewer
    candidate features than kept ones, a class list ``train_linear``
    cannot write, or a weight or score that is not finite raises
    ``ConfigError``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(f"unsupported model version {doc.get('version')!r}")
    try:
        return _model_from_document(doc)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"model document lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from None


def _integer(value, name: str) -> int:
    if type(value) is not int:
        raise ConfigError(f"model field {name} is not an integer: {value!r}")
    return value


def _array(values, dtype, name: str) -> np.ndarray:
    """JSON lists, nested or not, as an array of ``dtype``; each entry must
    be a JSON integer for an integer dtype or a JSON number for a float one,
    and a bool is neither. A ragged block raises ``ValueError``."""
    array = np.asarray(values, dtype=dtype)
    kind, types = ("integer", {int}) if array.dtype.kind == "i" else ("number", {int, float})
    for _ in range(array.ndim - 1):
        values = chain.from_iterable(values)
    if not set(map(type, values)) <= types:
        raise ConfigError(f"model field {name} holds a value that is not a JSON {kind}")
    return array


def _model_from_document(doc: dict) -> WeaselModel:
    # Whole-array checks only, so that a large model loads in decoding time.
    c = doc["config"]
    names = [f.name for f in fields(WeaselConfig)]
    if not isinstance(c, dict) or not set(c) <= set(names):
        raise ConfigError(f"model config is not an object of the fields {names}")
    cfg = WeaselConfig(**{name: c[name] for name in names}
                       | {"word_lengths": tuple(c["word_lengths"])})
    entries = doc["window_models"]
    ws = [_integer(e["w"], "w") for e in entries]
    top = min(MAX_WINDOW_LENGTH, cfg.w_max or MAX_WINDOW_LENGTH)
    if ws[:1] != [cfg.w_min] or np.any(np.diff(ws) <= 0) or ws[-1] > top:
        raise ConfigError(f"window model lengths must strictly increase from "
                          f"w_min {cfg.w_min} to at most {top}")
    # The width of the columns block is the chosen word length.
    columns = _array([e["columns"] for e in entries], np.int64, "columns")
    bounds = _array([e["boundaries"] for e in entries], np.float64, "boundaries")
    word_length = columns.shape[1] if columns.ndim == 2 else -1
    in_spectrum = (columns >= 0) & (columns < 2 * (np.asarray(ws)[:, None] // 2 + 1))
    if word_length not in cfg.word_lengths or not in_spectrum.all():
        raise ConfigError(f"window models need in-spectrum columns, as many as one of "
                          f"the word lengths {list(cfg.word_lengths)}")
    if bounds.shape != (len(ws), word_length, cfg.alphabet - 1):
        raise ConfigError(f"window model boundaries shaped {bounds.shape[1:]}")
    if not (np.isfinite(bounds).all() and (np.diff(bounds) > 0).all()):
        raise ConfigError("window model boundaries do not strictly increase")
    models = {w: SymbolicModel(w, c, b) for w, c, b in zip(ws, columns, bounds)}
    keys = _unhex(doc["features"]["keys"], "<i8")
    chi2 = _unhex(doc["features"]["chi2"], "<f8")
    if chi2.shape != keys.shape:
        raise ConfigError(f"feature keys shaped {keys.shape} but scores {chi2.shape}")
    if not np.isfinite(chi2).all():
        raise ConfigError("feature scores are not all finite")
    if not cfg.bigrams and np.any(keys & (np.int64(1) << _KIND_SHIFT)):
        raise ConfigError("bigram feature keys in a model without bigrams")
    features_pre = _integer(doc["features_pre"], "features_pre")
    if features_pre < len(keys):
        raise ConfigError(f"model field features_pre {features_pre} is below the "
                          f"{len(keys)} kept features")
    features = FeatureDictionary(keys, chi2, features_pre)
    classes = doc["linear"]["classes"]  # as train_linear writes them: np.unique order
    if (type(classes) is not list or len(classes) < 2 or any(type(c) is not str for c in classes)
            or any(a >= b for a, b in zip(classes, classes[1:]))):
        raise ConfigError("model classes must be two or more distinct strings in increasing order")
    bias_weights = _array(doc["linear"]["bias_weights"], np.float64, "bias_weights")
    k, d = len(classes), len(features)
    # Rows of d weights each; a size that is no multiple of d cannot reshape.
    weights = _unhex(doc["linear"]["weights"], "<f8").reshape((-1, d) if d else (k, 0))
    if weights.shape != (k, d) or bias_weights.shape != (k,):
        raise ConfigError(f"weights shaped {weights.shape} and {bias_weights.shape} "
                          f"do not fit {k} classes and {d} features")
    if not (np.isfinite(weights).all() and np.isfinite(bias_weights).all()):
        raise ConfigError("weights or bias weights are not all finite")
    return WeaselModel(cfg, models, features, LinearModel(classes, weights, bias_weights))


def load_model(path) -> WeaselModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"model file is not UTF-8 text: {exc}") from None
    return deserialize_model(text)
