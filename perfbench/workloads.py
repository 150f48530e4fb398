"""The three benchmark workloads and how their inputs follow from a seed.

See README.md in this directory for why each workload exists and which
metrics it is meant to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from weaselts import synthetic
from weaselts.weasel import WeaselConfig


@dataclass(frozen=True)
class Inputs:
    train: object  # LabeledDataset the model is fitted on
    queries: list  # TimeSeries to predict
    labels: list  # true labels of the queries


def _fit_cv(seed):
    train, test = synthetic.shift_invariance(20, 100, length=48, seed=seed)
    return Inputs(train, test.series, test.labels)


def _fit_multiclass(seed):
    train, test = synthetic.cluster_blobs(
        200, 200, length=64, n_classes=10, noise=1.0, seed=seed
    )
    return Inputs(train, test.series, test.labels)


def _predict_long(seed):
    train_seed, query_seed = np.random.SeedSequence(seed).generate_state(2)
    train, _ = synthetic.shift_invariance(100, 1, length=128, seed=int(train_seed))
    queries, _ = synthetic.shift_invariance(12, 1, length=2048, seed=int(query_seed))
    return Inputs(train, queries.series, queries.labels)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Inputs]  # seed -> inputs
    config: WeaselConfig
    fit_in_setup: bool  # fit once during set-up; the timed part only predicts
    batch: int | None  # predict_many batch size; None means all queries at once


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_cv", _fit_cv, WeaselConfig(), fit_in_setup=False, batch=None),
        Workload(
            "fit_multiclass", _fit_multiclass, WeaselConfig(word_lengths=(6,)),
            fit_in_setup=False, batch=None,
        ),
        Workload(
            "predict_long", _predict_long, WeaselConfig(word_lengths=(6,)),
            fit_in_setup=True, batch=4,
        ),
    )
}
