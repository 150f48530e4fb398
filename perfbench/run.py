"""weaselts benchmark: one workload per invocation, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload fit_cv --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs the same fixed round of work three times (warm-up,
untraced, traced with span wrappers installed) and reports the per-layer
metrics. Every run checks its outputs: repeated fits and model loads must
serialize to the same sha256 digest, and a digest must match the one an
earlier run with the same seed and the same library sources recorded.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report,
the recorded digests and the spans of a traced run are written under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 3
MIN_PREDICT_SAMPLES = 100  # enough for ten samples beyond the 90th percentile
MIN_LOADS = 3
MIN_FITS = 3
MIN_BATCHES = 3  # and every batch at least once
# The timed part interleaves its phases in WINDOWS slices, so each metric
# samples the whole run rather than one stretch of it: on a shared host the
# speed drifts by a fifth over seconds. A fit starts every FIT_EVERY-th
# slice. In a slice a phase makes its part of the phase's minimum call
# count, then more calls while one more is expected to end within its
# share of the slice.
WINDOWS = 9
FIT_EVERY = 3
FIT_SHARES = {"fit": 0.5, "load": 0.05, "predict": 0.25, "many": 0.2}
PREDICT_SHARES = {"load": 0.1, "predict": 0.55, "many": 0.35}


class Ops:
    """Calls an operation, counting attempts and failures.

    A failure is logged with its traceback and returns None, so one bad
    query does not end the run; the run then reports itself incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def repeat(ops, fn, seconds, count, typical):
    """Call ``fn(i)`` ``count`` times, then again while a call taking
    ``typical`` seconds would end within ``seconds`` of the start."""
    durations, results = [], []
    start = time.perf_counter()
    while len(durations) < count or time.perf_counter() - start + typical <= seconds:
        t0 = time.perf_counter()
        results.append(ops(fn, len(durations)))
        durations.append(time.perf_counter() - t0)
    return durations, results


def peak_mb(fn, *args):
    """tracemalloc peak while ``fn`` runs, in MB, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "weaselts").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record_digest(key, digest):
    """Store ``digest`` under ``key``; False if a different one was stored."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return previous == digest


class Bench:
    """One workload on one seed: set-up, measurement and checks."""

    def __init__(self, weasel, workload, seed):
        self.W = weasel
        self.wl = workload
        self.seed = seed
        self.ops = Ops()
        self.problems = []
        self.digests = set()
        self.model_path = OUT / f"model-{workload.name}.json"

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def digest(self, model):
        self.digests.add(sha256(self.W.serialize_model(model)))

    def setup(self):
        """Make the inputs (and on predict_long fit and save the model)
        several times; returns the set-up and fit durations."""
        setup_s, fit_s = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.inputs = self.wl.make(self.seed)
            if self.wl.fit_in_setup:
                t1 = time.perf_counter()
                model = self.W.fit_weasel(self.inputs.train, self.wl.config)
                fit_s.append(time.perf_counter() - t1)
                self.W.save_model(model, self.model_path)
            setup_s.append(time.perf_counter() - t0)
            if self.wl.fit_in_setup:
                self.digests.add(hashlib.sha256(self.model_path.read_bytes()).hexdigest())
        q = self.inputs.queries
        size = self.wl.batch or len(q)
        self.batches = [q[i:i + size] for i in range(0, len(q), size)]
        # Per-series predictions cycle through the first queries; the two
        # paths are compared on these.
        self.singles = q[:MIN_PREDICT_SAMPLES]
        return setup_s, fit_s

    def check_predictions(self, singles, batched):
        """Repeats of a query or batch must agree; returns the per-query
        labels of the first pass of each path."""
        q, nb = len(self.singles), len(self.batches)
        self.check(all(p == singles[i % q] for i, p in enumerate(singles)),
                   "per-series predictions changed between repeats")
        self.check(all(p == batched[i % nb] for i, p in enumerate(batched)),
                   "batched predictions changed between repeats")
        first = []
        for batch, labels in zip(self.batches, batched):
            first.extend(labels if labels is not None else [None] * len(batch))
        return singles[:q], first

    def finish_checks(self, singles, many):
        labels = self.inputs.labels
        self.path_mismatch = sum(a != b for a, b in zip(singles, many))
        self.accuracy = sum(p == t for p, t in zip(many, labels)) / len(labels)
        valid = set(self.inputs.train.classes())
        self.check(all(p in valid for p in singles + many), "unknown class label predicted")
        self.check(len(self.digests) == 1, f"{len(self.digests)} distinct model digests")
        key = f"{self.wl.name}/seed{self.seed}/src-{source_digest()[:16]}"
        for d in self.digests:
            self.check(record_digest(key, d), f"digest differs from an earlier run of {key}")

    def measure(self, seconds, setup_fit_s):
        """The untraced run: end-to-end metrics except set-up time."""
        W, wl, ops = self.W, self.wl, self.ops
        train, queries, batches = self.inputs.train, self.inputs.queries, self.batches
        if wl.fit_in_setup:
            shares = PREDICT_SHARES
            model = W.load_model(self.model_path)
            model.predict(queries[0])  # warm caches before the memory pass
            model.predict_many(batches[0][:1])
            peak = max(peak_mb(model.predict, queries[0])[0],
                       peak_mb(model.predict_many, batches[0])[0])
        else:
            shares = FIT_SHARES
            # One pipeline fit on the whole training set, as the final
            # refit after CV does; fold fits run on subsets and free their
            # intermediates, so this bounds them. Tracing the CV loop too
            # would cost four fits' time.
            refit = replace(wl.config, word_lengths=(max(wl.config.word_lengths),))
            peak, _ = peak_mb(W.fit_weasel, train, refit)

        t = {"fit": list(setup_fit_s), "load": [], "predict": [], "many": []}
        fitted, loaded, singles, batched = [], [], [], []
        mins = {"load": MIN_LOADS, "predict": MIN_PREDICT_SAMPLES,
                "many": max(MIN_BATCHES, len(batches))}
        if not wl.fit_in_setup:
            mins["fit"] = MIN_FITS

        def phase(name, fn, out, i, n):
            """Slice ``i`` of ``n`` of phase ``name``."""
            count = mins[name] * (i + 1) // n - mins[name] * i // n
            typical = statistics.median(t[name]) if t[name] else 0.0
            durations, results = repeat(ops, fn, shares[name] * seconds / n, count, typical)
            t[name] += durations
            out += results

        for w in range(WINDOWS):
            if not wl.fit_in_setup and w % FIT_EVERY == 0:
                phase("fit", lambda i: W.fit_weasel(train, wl.config), fitted,
                      w // FIT_EVERY, WINDOWS // FIT_EVERY)
                if w == 0:
                    first = next(m for m in fitted if m is not None)
                    W.save_model(first, self.model_path)
                    first.predict(queries[0])  # warm caches before timing predictions
                    first.predict_many(batches[0][:2])
            phase("load", lambda i: W.load_model(self.model_path), loaded, w, WINDOWS)
            model = next(m for m in reversed(loaded) if m is not None)
            phase("predict", lambda i, k=len(singles): model.predict(
                self.singles[(k + i) % len(self.singles)]), singles, w, WINDOWS)
            phase("many", lambda i, k=len(batched): model.predict_many(
                batches[(k + i) % len(batches)]), batched, w, WINDOWS)

        for m in fitted + loaded[:1]:
            if m is not None:
                self.digest(m)
        self.finish_checks(*self.check_predictions(singles, batched))

        per_series = statistics.median(d / len(batches[i % len(batches)])
                                       for i, d in enumerate(t["many"]))
        predict_ms = [1000.0 * d for d in t["predict"]]
        self.samples = {name: len(d) for name, d in t.items()}
        return {
            "fit_s": statistics.median(t["fit"]),
            "predict_ms_p50": statistics.median(predict_ms),
            "predict_ms_p90": statistics.quantiles(predict_ms, n=10)[-1],
            "predict_many_series_per_s": 1.0 / per_series,
            "load_ms": 1000.0 * statistics.median(t["load"]),
            "peak_mb": peak,
            "accuracy": self.accuracy,
        }

    def one_round(self):
        """Fixed work for the traced comparison: (fit, save,) load, each
        query once per path."""
        W, ops = self.W, self.ops
        if not self.wl.fit_in_setup:
            model = ops(W.fit_weasel, self.inputs.train, self.wl.config)
            W.save_model(model, self.model_path)
        model = ops(W.load_model, self.model_path)
        singles = [ops(model.predict, q) for q in self.singles]
        batched = [ops(model.predict_many, b) for b in self.batches]
        return model, singles, batched

    def measure_traced(self, weaselts, optimize):
        import spans

        for _ in range(2):  # warm-up, then the untraced round
            t0 = time.perf_counter()
            model = self.one_round()[0]
            untraced = time.perf_counter() - t0
            self.digest(model)
        tracer = spans.Tracer()
        spans.install(tracer, weaselts, optimize)
        try:
            t0 = time.perf_counter()
            model, singles, batched = self.one_round()
            traced = time.perf_counter() - t0
        finally:
            tracer.restore()
        self.digest(model)
        self.finish_checks(*self.check_predictions(singles, batched))
        self.samples = {"spans": len(tracer.spans)}
        (OUT / f"spans-{self.wl.name}-seed{self.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"], "spans": tracer.spans}))
        metrics = spans.layer_metrics(tracer, traced, untraced)
        metrics["check.path_mismatch"] = self.path_mismatch
        return metrics


def environment(np, scipy):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "weaselts" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no weaselts sources to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import scipy
    import scipy.optimize
    import weaselts
    import weaselts.weasel
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    if Path(weaselts.__file__).resolve().parent != (SRC / "weaselts").resolve():
        print(f"error: imported weaselts from {weaselts.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    bench = Bench(weaselts.weasel, WORKLOADS[args.workload], args.seed)
    setup_s, setup_fit_s = bench.setup()
    if args.trace:
        values = bench.measure_traced(weaselts, scipy.optimize)
    else:
        values = bench.measure(args.seconds, setup_fit_s)
        values["setup_s"] = import_s + statistics.median(setup_s)

    if set(values) != set(wanted):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(wanted))} do not match BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in wanted.items()}
    ops = bench.ops
    correct = not bench.problems and ops.failed == 0
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(np, scipy), "samples": bench.samples,
        "import_s": import_s, "setup_runs_s": setup_s,
        "path_mismatch": bench.path_mismatch, "compared": len(bench.singles),
        "failed_ops": ops.failed / ops.attempted, "digests": sorted(bench.digests),
        "problems": bench.problems, "metrics": metrics,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"nproc {env['nproc']} (affinity {env['affinity']})  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  threads "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'path_mismatch':<40} {bench.path_mismatch:>14d} of {len(bench.singles)} queries")
    print(f"  {'failed_ops':<40} {report['failed_ops']:>14.6g} ({ops.failed} of {ops.attempted})")
    print(f"  model sha256 {', '.join(sorted(bench.digests))}")
    print(f"  samples {bench.samples}")
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
