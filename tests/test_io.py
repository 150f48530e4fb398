import copy
import csv
import io
import json

import numpy as np
import pytest

from weaselts import (
    BenchRow,
    BenchmarkReport,
    ConfigError,
    LabeledDataset,
    ParseError,
    ShapeError,
    TimeSeries,
    WeaselConfig,
    fit_weasel,
    load_model,
    load_ucr,
    load_ucr_file,
    nn_accuracy,
    nn_euclidean,
    run_benchmark,
    serialize_model,
)
from ablation import ABLATION_MATRIX, ablation_suite
from weaselts.cli import main
from weaselts import synthetic


def write_ucr(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for label, values in rows:
            fh.write(",".join([str(label)] + [repr(float(v)) for v in values]) + "\n")


def sine_noise_rows(rng, count, length=20):
    rows = []
    t = np.arange(length)
    for i in range(count):
        x = 0.25 * rng.standard_normal(length)
        if i % 2:
            x = x + np.sin(2 * np.pi * t / 4)
            rows.append(("s", x))
        else:
            rows.append(("n", x))
    return rows


@pytest.fixture()
def bench_dir(tmp_path):
    rng = np.random.default_rng(90)
    d = tmp_path / "sine"
    d.mkdir()
    write_ucr(d / "sine_TRAIN.txt", sine_noise_rows(rng, 16))
    write_ucr(d / "sine_TEST.txt", sine_noise_rows(rng, 8))
    return d


# ---------------------------------------------------------------------------
# file parsing


def test_load_comma_file_keeps_labels_verbatim(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1,0.5,1.5,2.5\n1.0,3.0,4.0,5.0\n")
    data = load_ucr_file(p)
    assert data.labels == ["1", "1.0"]
    np.testing.assert_array_equal(data.series[0].values, [0.5, 1.5, 2.5])
    np.testing.assert_array_equal(data.series[1].values, [3.0, 4.0, 5.0])


def test_load_whitespace_and_tab_files(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("a\t1.0\t2.0\nb  3.0   4.0\n")
    data = load_ucr_file(p)
    assert data.labels == ["a", "b"]
    np.testing.assert_array_equal(data.series[1].values, [3.0, 4.0])


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("\na,1.0,2.0\n\n\nb,3.0,4.0\n\n")
    assert load_ucr_file(p).labels == ["a", "b"]


def test_parse_error_reports_line_and_field(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a,1.0,2.0\nb,1.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_ucr_file(p)
    assert err.value.line == 2
    assert "field 3" in str(err.value)
    assert str(p) in str(err.value)


def test_parse_rejects_non_finite_and_ragged(tmp_path):
    nan_file = tmp_path / "nan.txt"
    nan_file.write_text("a,1.0,nan\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_ucr_file(nan_file)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("a,1.0,2.0\nb,1.0\n")
    with pytest.raises(ParseError, match="earlier rows"):
        load_ucr_file(ragged)
    lonely = tmp_path / "lonely.txt"
    lonely.write_text("a\n")
    with pytest.raises(ParseError):
        load_ucr_file(lonely)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_ucr_file(empty)


def test_load_ucr_pair(bench_dir):
    train, test = load_ucr(bench_dir / "sine_TRAIN.txt", bench_dir / "sine_TEST.txt")
    assert len(train.labels) == 16 and len(test.labels) == 8
    assert train.classes() == ["n", "s"]


# ---------------------------------------------------------------------------
# nearest neighbor baseline


def test_nn_hand_table():
    train = LabeledDataset(
        np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), ["a", "b", "c"]
    )
    assert nn_euclidean(train, TimeSeries(np.array([0.9, 0.9]))) == "b"
    # equidistant between the first two rows: earliest index wins
    assert nn_euclidean(train, TimeSeries(np.array([0.5, 0.5]))) == "a"


def test_nn_rejects_length_mismatch():
    train = LabeledDataset(np.ones((2, 4)), ["a", "b"])
    with pytest.raises(ShapeError):
        nn_euclidean(train, TimeSeries(np.ones(3)))


def test_nn_separates_clean_clusters():
    train, test = synthetic.cluster_blobs()
    assert nn_accuracy(train, test) == 1.0


# ---------------------------------------------------------------------------
# report rows and CSV round trip


def test_bench_row_validation():
    with pytest.raises(ConfigError):
        BenchRow("d", "v", 1.5, 1.0, 1.0, 4, 10, 5)
    with pytest.raises(ConfigError):
        BenchRow("d", "v", 0.5, -1.0, 1.0, 4, 10, 5)


def read_report(text):
    """BenchRows from report CSV text, read with the csv module."""
    types = (str, str, float, float, float, int, int, int)
    return [BenchRow(*(t(v) for t, v in zip(types, f)))
            for f in list(csv.reader(io.StringIO(text)))[1:]]


def test_report_round_trip_is_exact():
    rows = [
        BenchRow("set1", "supervised+bigrams", 1 / 3, 123.456789, 0.0078125, 6, 900, 77),
        BenchRow("set2", "1nn-ed", 0.9875, 0.0, 3.3333333333333335, 0, 0, 0),
    ]
    report = BenchmarkReport(rows)
    text = report.emit()
    assert text.splitlines()[0] == (
        "dataset,variant,accuracy,train_ms,predict_ms_mean,"
        "chosen_l,features_pre,features_post"
    )
    assert read_report(text) == rows


def test_report_save(tmp_path):
    path = tmp_path / "report.csv"
    BenchmarkReport([BenchRow("d", "v", 0.5, 1.0, 2.0, 4, 10, 5)]).save(path)
    assert read_report(path.read_text())[0].dataset == "d"


# ---------------------------------------------------------------------------
# ablation plumbing


def test_ablation_matrix_and_suite_shape():
    assert [name for name, _ in ABLATION_MATRIX] == [
        "supervised+bigrams",
        "supervised+unigrams",
        "unsupervised+bigrams",
        "unsupervised+unigrams",
    ]
    suite = ablation_suite()
    assert [name for name, _, _ in suite] == [
        "shift_invariance",
        "fine_frequency",
        "bigram_order",
        "multi_scale",
        "pure_noise",
    ]
    for _, (train, test), cfg in suite:
        assert isinstance(train, LabeledDataset)
        assert isinstance(test, LabeledDataset)
        assert isinstance(cfg, WeaselConfig)


def test_synthetic_generators_are_deterministic():
    for gen in (
        synthetic.shift_invariance,
        synthetic.fine_frequency,
        synthetic.bigram_order,
        synthetic.multi_scale,
        synthetic.pure_noise,
        synthetic.cluster_blobs,
    ):
        a_train, a_test = gen()
        b_train, b_test = gen()
        np.testing.assert_array_equal(a_train.values_matrix(), b_train.values_matrix())
        assert a_train.labels == b_train.labels
        assert len(a_train.classes()) >= 2
        assert len(a_test.labels) > 0
    small_train, _ = synthetic.shift_invariance(n_train=10, n_test=4)
    assert len(small_train.labels) == 10


# ---------------------------------------------------------------------------
# benchmark driver


BENCH_CFG = WeaselConfig(word_lengths=(4,), folds=2)


def test_run_benchmark_produces_rows(bench_dir):
    report = run_benchmark([bench_dir], BENCH_CFG)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.dataset == "sine"
    assert row.variant == "supervised+bigrams"
    assert row.accuracy >= 0.75
    assert row.chosen_l == 4
    assert row.features_pre >= row.features_post >= 1
    assert row.train_ms > 0.0 and row.predict_ms_mean > 0.0
    # identical rerun: everything but wall time is reproducible
    again = run_benchmark([bench_dir], BENCH_CFG).rows[0]
    assert (again.accuracy, again.chosen_l, again.features_pre, again.features_post) == (
        row.accuracy,
        row.chosen_l,
        row.features_pre,
        row.features_post,
    )


def test_run_benchmark_baseline(bench_dir):
    row = run_benchmark([bench_dir], BENCH_CFG, baseline_ed=True).rows[0]
    assert row.variant == "1nn-ed"
    assert row.train_ms == 0.0
    assert row.chosen_l == 0 and row.features_pre == 0


def test_run_benchmark_continues_after_failure(bench_dir, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "only_TRAIN.txt").write_text("a,1.0,2.0\nb,3.0,4.0\n")
    messages = []
    report = run_benchmark([broken, bench_dir], BENCH_CFG, log=messages.append)
    assert [r.dataset for r in report.rows] == ["sine"]
    assert len(messages) == 1
    assert "broken" in messages[0]


# ---------------------------------------------------------------------------
# command line


def test_cli_fit_predict_eval(bench_dir, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    train = str(bench_dir / "sine_TRAIN.txt")
    test = str(bench_dir / "sine_TEST.txt")

    assert main(["fit", "--train", train, "--model", str(model_path),
                 "--word-lengths", "4", "--folds", "2"]) == 0
    out = capsys.readouterr().out
    assert "word length 4" in out and "features kept" in out
    assert model_path.exists()

    assert main(["predict", "--model", str(model_path), "--test", test]) == 0
    labels = capsys.readouterr().out.splitlines()
    assert len(labels) == 8
    assert set(labels) <= {"s", "n"}

    assert main(["eval", "--model", str(model_path), "--test", test]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accuracy 0.") or line == "accuracy 1.0000"

    assert main(["eval", "--train", train, "--test", test,
                 "--word-lengths", "4", "--folds", "2"]) == 0
    assert capsys.readouterr().out.startswith("accuracy ")

    assert main(["eval", "--baseline", "ed", "--train", train, "--test", test]) == 0
    assert capsys.readouterr().out.startswith("accuracy ")


def test_cli_flags_reach_the_model(bench_dir, tmp_path, capsys):
    model_path = tmp_path / "flagged.json"
    assert main(["fit", "--train", str(bench_dir / "sine_TRAIN.txt"),
                 "--model", str(model_path), "--word-lengths", "4",
                 "--single-window", "16", "--no-bigrams", "--unsupervised"]) == 0
    capsys.readouterr()
    model = load_model(model_path)
    assert model.config.w_min == 16 and model.config.w_max == 16
    assert not model.config.bigrams and not model.config.supervised


def test_cli_bench_to_csv(bench_dir, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    assert main(["bench", str(bench_dir), "--out", str(out_path),
                 "--word-lengths", "4", "--folds", "2"]) == 0
    capsys.readouterr()
    assert read_report(out_path.read_text())[0].dataset == "sine"

    assert main(["bench", str(bench_dir), "--word-lengths", "4",
                 "--folds", "2", "--baseline", "ed"]) == 0
    stdout = capsys.readouterr().out
    assert read_report(stdout)[0].variant == "1nn-ed"


def test_cli_bench_exit_code_when_nothing_ran(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 2
    captured = capsys.readouterr()
    assert "empty" in captured.err
    assert captured.out.startswith("dataset,variant")


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a,1.0,oops\nb,2.0,3.0\n")
    assert main(["fit", "--train", str(bad), "--model", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "oops" in err

    ok = tmp_path / "ok.txt"
    ok.write_text("a,1.0,2.0\nb,2.0,3.0\n")
    assert main(["eval", "--baseline", "ed", "--test", str(ok)]) == 1
    assert "needs --train" in capsys.readouterr().err

    assert main(["eval", "--test", str(ok)]) == 1
    assert "needs --model or --train" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"[]",
    b'{"format":"weaselts-model","version":1}',
    b"not json at all",
    b"\xa1\xff binary",
])
def test_cli_rejects_malformed_model_files(bench_dir, tmp_path, capsys, content):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    test = str(bench_dir / "sine_TEST.txt")
    assert main(["predict", "--model", str(model_path), "--test", test]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    with pytest.raises(ConfigError):
        load_model(model_path)


@pytest.fixture(scope="module")
def model_document(tmp_path_factory):
    """The document of a small fitted model, and a query file for it."""
    train, test = synthetic.shift_invariance(10, 2, length=48, seed=1)
    model = fit_weasel(train, WeaselConfig(word_lengths=(4,)))
    test_path = tmp_path_factory.mktemp("queries") / "test.txt"
    write_ucr(test_path, [(lab, ts.values) for ts, lab in test.samples])
    return json.loads(serialize_model(model)), str(test_path)


def predict_with(doc, tmp_path, test):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    return main(["predict", "--model", str(model_path), "--test", test])


def test_cli_rejects_version_1_model_files(model_document, tmp_path, capsys):
    doc, test = model_document
    assert predict_with(doc, tmp_path, test) == 0
    capsys.readouterr()
    # the previous format: version 1, with six more config fields
    old = copy.deepcopy(doc)
    old["version"] = 1
    old["config"].update(w_stride=1, reg_tradeoff=1.0, tolerance=0.1, bias=1.0,
                         normalize_features=False, epsilon=1e-8)
    assert predict_with(old, tmp_path, test) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unsupported model version 1")
    assert captured.out == ""
    # version 2 numbered feature columns by score, not by key; version 3
    # wrote the per-feature arrays as JSON lists of numbers; version 4 also
    # stored the chosen word length and the constant bias feature
    for version in (2, 3, 4):
        old = copy.deepcopy(doc)
        old["version"] = version
        assert predict_with(old, tmp_path, test) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unsupported model version {version}")
        assert captured.out == ""


def _first_window(doc):
    return doc["window_models"][0]  # window length 8: 10 spectrum columns


def _each_window(doc, change):
    for entry in doc["window_models"]:
        change(entry)


def _add_window(doc, w):
    entry = copy.deepcopy(doc["window_models"][-1])
    entry["w"] = w
    doc["window_models"].append(entry)


def _prepend_window(doc, w):
    entry = copy.deepcopy(doc["window_models"][0])
    entry.update(w=w, columns=list(range(len(entry["columns"]))))
    doc["window_models"].insert(0, entry)


HEX_DTYPES = {"keys": "<i8", "chi2": "<f8", "weights": "<f8"}


def _decode(doc, section, field):
    return np.frombuffer(bytes.fromhex(doc[section][field]), HEX_DTYPES[field])


def _edit_hex(section, field, edit):
    """A corruption that decodes a hex-encoded array, lets ``edit`` change
    a writable copy (weights shaped classes x features) or return a new
    array, and encodes the result back into the document."""
    def corrupt(doc):
        values = _decode(doc, section, field).copy()
        if field == "weights":
            values = values.reshape(len(doc["linear"]["classes"]), -1)
        edited = edit(values)
        edited = values if edited is None else edited
        doc[section][field] = edited.astype(HEX_DTYPES[field]).tobytes().hex()
    return corrupt


def _swap_first(values):
    values[[0, 1]] = values[[1, 0]]


def _one_class(doc):
    """The first class alone, with its weight row and bias weight."""
    _edit_hex("linear", "weights", lambda w: w[:1])(doc)
    del doc["linear"]["classes"][1:], doc["linear"]["bias_weights"][1:]


COLUMNS = "window models need in-spectrum columns, as many as one of the word lengths [4]"
CLASSES = "model classes must be two or more distinct strings in increasing order"
LENGTHS = "window model lengths must strictly increase from w_min 8 to at most"
MALFORMED = "malformed model document"
TYPE = "model config fields of the wrong type"


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda d: d.update(config=[]), "model config is not an object",
                 id="config-list"),
    pytest.param(lambda d: d["config"].update(epsilon=1e-8),
                 "model config is not an object", id="config-unknown-field"),
    pytest.param(lambda d: d["config"].update(alphabet=5),
                 "alphabet size must be in 2..4", id="config-invalid"),
    pytest.param(lambda d: d["config"].update(bigrams=0), TYPE, id="bigrams-zero"),
    pytest.param(lambda d: d["config"].update(bigrams=None), TYPE, id="bigrams-null"),
    pytest.param(lambda d: d["config"].update(bigrams="false"), TYPE, id="bigrams-string"),
    pytest.param(lambda d: d["config"].update(supervised=1), TYPE, id="supervised-one"),
    pytest.param(lambda d: d["config"].update(alphabet=4.0), TYPE, id="alphabet-float"),
    pytest.param(lambda d: d["config"].update(w_min=8.0), TYPE, id="w-min-float"),
    pytest.param(lambda d: d["config"].update(folds=True), TYPE, id="folds-bool"),
    pytest.param(lambda d: d["config"].update(seed="0"), TYPE, id="seed-string"),
    pytest.param(lambda d: d["config"].update(word_lengths=[4.5]), TYPE,
                 id="word-length-float"),
    pytest.param(lambda d: d["config"].update(w_max=48.0), TYPE, id="w-max-float"),
    pytest.param(lambda d: d["config"].update(chi_threshold=True), TYPE,
                 id="chi-threshold-bool"),
    pytest.param(lambda d: d["config"].update(chi_threshold=float("nan")),
                 "chi-squared threshold must be finite and nonnegative", id="chi-threshold-nan"),
    pytest.param(lambda d: d["config"].update(bigrams=False),
                 "bigram feature keys in a model without bigrams", id="bigram-keys-unigram-model"),
    pytest.param(lambda d: (d["config"].update(w_min=4), _prepend_window(d, 4)),
                 "minimum window length is 8, got 4", id="w-min-below-8"),
    pytest.param(lambda d: d.update(features_pre="12"),
                 "model field features_pre is not an integer", id="features-pre-string"),
    pytest.param(lambda d: _first_window(d).update(w=8.75), "model field w is not an integer",
                 id="window-w-float"),
    pytest.param(_edit_hex("linear", "weights", lambda w: w[:1]), "weights shaped",
                 id="weights-one-row"),
    pytest.param(lambda d: d["linear"]["bias_weights"].pop(), "weights shaped",
                 id="bias-weights-short"),
    pytest.param(lambda d: d["linear"].update(classes=d["linear"]["classes"][:1] * 2), CLASSES,
                 id="classes-repeated"),
    pytest.param(lambda d: d["linear"].update(classes=[1, 2]), CLASSES, id="classes-integers"),
    pytest.param(lambda d: d["linear"]["classes"].reverse(), CLASSES, id="classes-reversed"),
    pytest.param(_one_class, CLASSES, id="classes-one"),
    pytest.param(_edit_hex("linear", "weights", lambda w: w.ravel()[:-1]), MALFORMED,
                 id="weights-ragged"),
    pytest.param(lambda d: _each_window(d, lambda e: e["columns"].pop()), COLUMNS,
                 id="columns-short"),
    pytest.param(lambda d: _first_window(d)["columns"].__setitem__(0, 10), COLUMNS,
                 id="column-above-range"),
    pytest.param(lambda d: _first_window(d)["columns"].__setitem__(0, -1), COLUMNS,
                 id="column-negative"),
    pytest.param(lambda d: _first_window(d)["columns"].pop(), MALFORMED,
                 id="columns-ragged"),
    pytest.param(lambda d: _each_window(d, lambda e: e["boundaries"].pop()),
                 "window model boundaries shaped (3, 3)", id="boundaries-short"),
    pytest.param(lambda d: _first_window(d)["boundaries"][0].reverse(),
                 "window model boundaries do not strictly increase",
                 id="boundaries-unsorted"),
    pytest.param(lambda d: d["window_models"].insert(1, copy.deepcopy(_first_window(d))),
                 LENGTHS, id="window-length-repeated"),
    pytest.param(lambda d: d["window_models"].pop(0), LENGTHS, id="window-w-min-missing"),
    pytest.param(lambda d: _add_window(d, 5000), LENGTHS, id="window-length-unpackable"),
    pytest.param(lambda d: d["config"].update(w_max=40), LENGTHS,
                 id="window-length-above-w-max"),
    pytest.param(_edit_hex("features", "chi2", lambda c: c[:-1]), "feature keys shaped",
                 id="chi2-short"),
    pytest.param(_edit_hex("features", "keys", lambda k: k.__setitem__(1, k[0])),
                 "feature keys do not strictly increase", id="key-repeated"),
    pytest.param(_edit_hex("features", "keys", _swap_first),
                 "feature keys do not strictly increase", id="keys-descending"),
    pytest.param(_edit_hex("linear", "weights", lambda w: w.__setitem__((0, 0), np.nan)),
                 "weights or bias weights are not all finite", id="weight-nan"),
    pytest.param(lambda d: d["linear"]["bias_weights"].__setitem__(1, float("inf")),
                 "weights or bias weights are not all finite", id="bias-weight-infinity"),
    pytest.param(_edit_hex("features", "chi2", lambda c: c.__setitem__(0, np.nan)),
                 "feature scores are not all finite", id="chi2-nan"),
    pytest.param(lambda d: d["features"].update(keys="zz" + d["features"]["keys"][2:]),
                 MALFORMED, id="keys-non-hex"),
    pytest.param(lambda d: d["features"].update(chi2=d["features"]["chi2"][:-1]),
                 MALFORMED, id="chi2-odd-hex-length"),
    pytest.param(lambda d: d["linear"].update(weights=d["linear"]["weights"][:-2]),
                 "a per-feature array holds", id="weights-partial-value"),
    pytest.param(lambda d: d["features"].update(keys=_decode(d, "features", "keys").tolist()),
                 "per-feature arrays must be hex strings", id="keys-json-list"),
])
def test_cli_rejects_inconsistent_model_files(
    model_document, tmp_path, capsys, corrupt, message
):
    doc, test = model_document
    doc = copy.deepcopy(doc)
    corrupt(doc)
    assert predict_with(doc, tmp_path, test) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
