"""The benchmark's span tracer must find every library name it wraps.

``perfbench/spans.py`` patches module attributes of ``weaselts`` by name
and raises ``KeyError`` when one is gone, so a rename that would break a
traced benchmark run fails here first. The fit has two candidate word
lengths, so the cross-validation loop runs under the tracer too, and the
per-layer metrics must find the spans and counts they read. The test
only reads ``perfbench/``.
"""

from pathlib import Path

import scipy.optimize

import weaselts
from weaselts import synthetic
from weaselts.weasel import WeaselConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_span_hooks_install_trace_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    minimize = scipy.optimize.minimize
    fit_weasel = weaselts.weasel.fit_weasel
    train, test = synthetic.shift_invariance(10, 4, length=48, seed=5)
    tracer = spans.Tracer()
    spans.install(tracer, weaselts, scipy.optimize)
    try:
        model = weaselts.weasel.fit_weasel(
            train, WeaselConfig(word_lengths=(4, 6), folds=2)
        )
        model.predict(test.series[0])
        model.predict_many(test.series)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {
        "weasel.fit_weasel",
        "weasel.WeaselModel.predict",
        "weasel.WeaselModel.predict_many",
        "fourier.sliding_ri_columns",
        "linear.train_linear",
    } <= names
    assert tracer.counters["linear.solves"] >= 1
    assert scipy.optimize.minimize is minimize
    assert weaselts.weasel.fit_weasel is fit_weasel
    metrics = spans.layer_metrics(tracer, 1.0, 0.0)
    assert metrics["selection.vocab"] > 0 and metrics["selection.kept"] > 0
    assert metrics["bop.from_key_stream.keys"] > 0
    assert metrics["selection.vectorize_all.self_s"] > 0
    assert metrics["weasel.cv.fits"] == 2 * 2 + 1  # folds x candidates, then the refit
