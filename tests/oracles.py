"""Plain label statistics used as oracles by the binning tests, and a
plain bag builder for the selection tests.

The statistics work on label lists and a split point, one split at a
time, unlike the count-based statistics the fit runs.
"""

from collections import Counter

import numpy as np


def entropy(labels):
    """Shannon entropy, in bits, of a nonempty label multiset."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    p = counts / counts.sum()
    return float(np.sum(-p * np.log2(p)))


def split_gain(values, labels, split_point):
    """Information gain of thresholding ``values <= split_point``,
    clamped at zero; both sides must be nonempty."""
    labels = np.asarray(labels)
    left = np.asarray(values) <= split_point
    n_left = int(left.sum())
    w_left = n_left / labels.size
    w_right = (labels.size - n_left) / labels.size
    split_h = w_left * entropy(labels[left]) + w_right * entropy(labels[~left])
    return max(0.0, entropy(labels) - split_h)


def bag_layout(streams):
    """The bags of key streams, one per stream and counted by ``Counter``,
    in the CSR layout ``(keys, counts, indptr)`` with each bag's keys in
    increasing order."""
    keys, counts, indptr = [], [], [0]
    for stream in streams:
        bag = sorted(Counter(int(k) for k in stream).items())
        keys += [k for k, _ in bag]
        counts += [n for _, n in bag]
        indptr.append(len(keys))
    return (np.array(keys, dtype=np.int64), np.array(counts, dtype=np.int64),
            np.array(indptr, dtype=np.int64))
