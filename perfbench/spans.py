"""Span tracing of the weaselts layers, installed from outside the library.

A ``Tracer`` replaces module attributes of ``weaselts`` with wrappers
that record one span per call: name, start, end and parent span. The
wrappers are installed only around a traced round and removed after it,
so untraced measurements never run through them. Spans stay in memory
until the run writes them out.

Self time of a span is its duration minus the time covered by its
child spans; calls in one thread nest, so that is the sum of the child
durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs]
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, attrs=None):
        """Wrap ``owner.attr`` in a span called ``name``.

        ``attrs(args, result)`` may return a dict of counts stored on
        the span. Class methods keep their binding.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(owner, attr, classmethod(self._wrap(name, raw.__func__, attrs)))
        else:
            self._replace(owner, attr, self._wrap(name, raw, attrs))

    def count_minimize(self, optimize_module):
        """Count solver calls, iterations and failures of ``minimize``.

        No span is recorded, so the solver's time stays in the self time
        of the caller, ``linear.train_linear``.
        """
        minimize = optimize_module.minimize
        counters = self.counters

        @functools.wraps(minimize)
        def wrapper(*args, **kwargs):
            res = minimize(*args, **kwargs)
            counters["linear.solves"] += 1
            counters["linear.nit"] += int(res.nit)
            counters["linear.unconverged"] += not bool(res.success)
            return res

        self._replace(optimize_module, "minimize", wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total and self seconds, summed attrs."""
        out = defaultdict(lambda: defaultdict(float))
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (attrs or {}).items():
                entry[key] += value
        return out

    def covered_s(self):
        """Time covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


def install(tracer, weaselts, optimize_module):
    """Wrap the public functions each layer exposes to its callers.

    ``weasel`` imported most helpers by name, so those names are wrapped
    in the ``weasel`` namespace; helpers reached from inside another
    module (``fit_bins`` from ``fit_symbolic_model``, the per-series
    path through ``bop.series_keys``) are wrapped where they are looked
    up.
    """
    fourier, symbolic, bop, weasel = (
        weaselts.fourier, weaselts.symbolic, weaselts.bop, weaselts.weasel
    )

    def ri_attrs(args, result):
        rows, w = args[0].shape
        return {"rows": rows, "values": rows * w}

    def sliding_attrs(args, result):
        return {"windows": result.size // result.shape[-1]}

    def key_attrs(args, result):
        return {"keys": len(args[1])}

    def filter_attrs(args, result):
        return {"vocab": result.n_candidates, "kept": len(result)}

    tracer.patch(fourier, "window_ri_matrix", "fourier.window_ri_matrix", ri_attrs)
    tracer.patch(fourier, "sliding_ri_columns", "fourier.sliding_ri_columns", sliding_attrs)
    tracer.patch(fourier, "znormalize_rows", "ts.znormalize_rows")
    tracer.patch(symbolic, "fit_bins", "symbolic.fit_bins")
    tracer.patch(symbolic, "select_coefficients", "symbolic.select_coefficients")
    tracer.patch(symbolic, "digitize_columns", "symbolic.digitize_columns")
    tracer.patch(bop, "pack_words", "bop.pack_words")
    tracer.patch(bop.BagOfPatterns, "from_key_stream", "bop.from_key_stream", key_attrs)
    for attr, name, attrs in (
        ("pack_words", "bop.pack_words", None),
        ("build_bag", "bop.build_bag", None),
        ("digitize_columns", "symbolic.digitize_columns", None),
        ("fit_symbolic_model", "symbolic.fit_symbolic_model", None),
        ("chi_squared_filter", "selection.chi_squared_filter", filter_attrs),
        ("vectorize", "selection.vectorize", None),
        ("vectorize_all", "selection.vectorize_all", None),
        ("train_linear", "linear.train_linear", None),
        ("decision_scores", "linear.decision_scores", None),
        ("fit_weasel", "weasel.fit_weasel", None),
        ("_fit_fixed", "weasel._fit_fixed", None),
        ("_fit_window_models", "weasel._fit_window_models", None),
        ("_dataset_bags", "weasel._dataset_bags", None),
        ("_predict_batch", "weasel._predict_batch", None),
        ("load_model", "weasel.load_model", None),
        ("serialize_model", "weasel.serialize_model", None),
    ):
        tracer.patch(weasel, attr, name, attrs)
    tracer.patch(weasel.WeaselModel, "predict", "weasel.WeaselModel.predict")
    tracer.patch(weasel.WeaselModel, "predict_many", "weasel.WeaselModel.predict_many")
    tracer.count_minimize(optimize_module)


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    """Per-layer metric values named as in BENCHMARK.json."""
    s = tracer.summary()

    def get(span, key):
        return float(s[span][key]) if span in s else 0.0

    out = {}
    for span in (
        "fourier.window_ri_matrix", "fourier.sliding_ri_columns", "ts.znormalize_rows",
        "symbolic.fit_bins", "symbolic.select_coefficients", "symbolic.fit_symbolic_model",
        "symbolic.digitize_columns", "bop.pack_words", "bop.from_key_stream",
        "bop.build_bag", "selection.chi_squared_filter", "selection.vectorize",
        "selection.vectorize_all", "linear.train_linear", "linear.decision_scores",
        "weasel.fit_weasel", "weasel._fit_window_models", "weasel._dataset_bags",
        "weasel._predict_batch", "weasel.load_model",
    ):
        out[f"{span}.self_s"] = get(span, "self_s")
    out["fourier.window_ri_matrix.calls"] = get("fourier.window_ri_matrix", "calls")
    out["fourier.window_ri_matrix.rows"] = get("fourier.window_ri_matrix", "rows")
    out["fourier.window_ri_matrix.values"] = get("fourier.window_ri_matrix", "values")
    out["fourier.sliding_ri_columns.windows"] = get("fourier.sliding_ri_columns", "windows")
    out["symbolic.fit_bins.calls"] = get("symbolic.fit_bins", "calls")
    out["symbolic.fit_symbolic_model.calls"] = get("symbolic.fit_symbolic_model", "calls")
    out["bop.from_key_stream.keys"] = get("bop.from_key_stream", "keys")
    vocab = get("selection.chi_squared_filter", "vocab")
    kept = get("selection.chi_squared_filter", "kept")
    out["selection.vocab"] = vocab
    out["selection.kept"] = kept
    out["selection.keep_ratio"] = kept / vocab if vocab else 0.0
    for key in ("linear.solves", "linear.nit", "linear.unconverged"):
        out[key] = float(tracer.counters[key])
    out["weasel.cv.fits"] = get("weasel._fit_fixed", "calls")
    out["trace.coverage"] = tracer.covered_s() / traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
