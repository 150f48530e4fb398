"""Benchmark harness: nearest-neighbor baseline, timed runs, CSV reports.

Wall times use a monotonic clock and cover the full pipeline per run,
feature extraction included. Datasets are processed independently; a
failure is logged and the remaining datasets still run.
"""

import csv
import io
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .ts import LabeledDataset, TimeSeries
from .ucr import load_ucr
from .weasel import WeaselConfig, fit_weasel, variant_name

__all__ = [
    "nn_euclidean",
    "nn_accuracy",
    "BenchRow",
    "BenchmarkReport",
    "run_benchmark",
]


def nn_euclidean(train: LabeledDataset, query: TimeSeries) -> str:
    """Label of the training series nearest in squared Euclidean distance.

    Ties resolve to the earliest training index. All series must share
    the query's length.
    """
    if not train.equal_length() or train.series[0].n != query.n:
        raise ShapeError("nearest neighbor needs equal-length series")
    diffs = train.values_matrix() - query.values
    best = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
    return train.labels[best]


def nn_accuracy(train: LabeledDataset, test: LabeledDataset) -> float:
    hits = sum(nn_euclidean(train, ts) == lab for ts, lab in test.samples)
    return hits / len(test.labels)


@dataclass
class BenchRow:
    """One report row; the field order is the CSV column order."""

    dataset: str
    variant: str
    accuracy: float
    train_ms: float
    predict_ms_mean: float
    chosen_l: int
    features_pre: int
    features_post: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigError(f"accuracy out of range: {self.accuracy}")
        if self.train_ms < 0.0 or self.predict_ms_mean < 0.0:
            raise ConfigError("negative wall time")


@dataclass
class BenchmarkReport:
    rows: list

    def emit(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(BenchRow))
        writer.writerows(astuple(r) for r in self.rows)  # csv writes floats with repr
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.emit())


def _find_split(directory, tag):
    hits = sorted(p for p in directory.iterdir()
                  if p.is_file() and tag in p.name)
    if not hits:
        raise ConfigError(f"no {tag} file in {directory}")
    return hits[0]


def _timed_fit_eval(train, test, config):
    t0 = time.perf_counter()
    model = fit_weasel(train, config)
    train_ms = (time.perf_counter() - t0) * 1000.0
    hits = 0
    spent = 0.0
    for ts, lab in test.samples:
        t1 = time.perf_counter()
        pred = model.predict(ts)
        spent += time.perf_counter() - t1
        hits += pred == lab
    n = len(test.labels)
    row_acc = hits / n
    return model, row_acc, train_ms, spent * 1000.0 / n


def run_benchmark(dataset_dirs, config=None, baseline_ed=False,
                  log=None) -> BenchmarkReport:
    """Fit and score every dataset directory; emit one row per run.

    Each directory must hold one TRAIN and one TEST file in the text
    format of load_ucr. Errors are reported through `log` and skip
    only the affected dataset.
    """
    from pathlib import Path

    cfg = config if config is not None else WeaselConfig()
    rows = []
    for d in dataset_dirs:
        directory = Path(d)
        name = directory.name
        try:
            train, test = load_ucr(_find_split(directory, "TRAIN"),
                                   _find_split(directory, "TEST"))
            if baseline_ed:
                t0 = time.perf_counter()
                acc = nn_accuracy(train, test)
                spent = (time.perf_counter() - t0) * 1000.0
                rows.append(BenchRow(name, "1nn-ed", acc, 0.0,
                                     spent / len(test.labels), 0, 0, 0))
            else:
                model, acc, train_ms, pred_ms = _timed_fit_eval(train, test, cfg)
                rows.append(BenchRow(name, variant_name(cfg), acc, train_ms,
                                     pred_ms, model.word_length,
                                     model.features_pre,
                                     model.features_post))
        except Exception as exc:
            if log is not None:
                log(f"{name}: {type(exc).__name__}: {exc}")
    return BenchmarkReport(rows)
