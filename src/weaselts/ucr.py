"""Loader for UCR-archive-style delimited files.

One series per line: the class label first, then the values. The
delimiter (comma versus whitespace) is detected per file; labels are
kept verbatim as strings so "1" and "1.0" stay distinct.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .ts import LabeledDataset, TimeSeries

# What the surrogateescape error handler makes of bytes that are not UTF-8.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _parse_line(path, lineno, line):
    fields = line.split(",") if "," in line else line.split()
    fields = [f.strip() for f in fields if f.strip()]
    if len(fields) < 2:
        raise ParseError(path, lineno, "expected a label and at least one value")
    label = fields[0]
    values = []
    for pos, tok in enumerate(fields[1:], start=2):
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(path, lineno, f"field {pos}: {tok!r} is not a number")
        if math.isnan(v) or math.isinf(v):
            raise ParseError(path, lineno, f"field {pos}: non-finite value {tok!r}")
        values.append(v)
    return label, values


def load_ucr_file(path) -> LabeledDataset:
    """Parse one file into a dataset, enforcing rectangular rows."""
    series, labels = [], []
    width = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if _UNDECODABLE.search(raw):
                raise ParseError(path, lineno, "line is not UTF-8 text")
            line = raw.strip()
            if not line:
                continue
            label, values = _parse_line(path, lineno, line)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ParseError(
                    path, lineno,
                    f"row has {len(values)} values where earlier rows have {width}",
                )
            labels.append(label)
            series.append(TimeSeries(values))
    if not series:
        raise ParseError(path, 1, "file contains no data rows")
    return LabeledDataset(series, labels)


def load_ucr(train_path, test_path):
    """Load a train/test pair of UCR-style files."""
    return load_ucr_file(train_path), load_ucr_file(test_path)
