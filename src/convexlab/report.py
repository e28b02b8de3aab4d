"""Canonical report serialization: JSON reports and per-sample CSV tables.

Output is byte-deterministic for identical inputs: keys are sorted, floats
use shortest round-trip repr, and wall-clock timing never enters the files
(it is kept on the in-memory report only).

A report's samples are one SampleTable of float64 columns.  The writers
take each column's texts with one C-level map of float.__repr__, fill one
template per row, and write CHUNK rows at a time.  Each float of a report
is formatted once for its report.json and samples.csv: the writer that runs
second takes the texts of the first from a one-slot memo, which holds at
most one table's texts and is emptied when they are taken.  The bytes are
those of canonical_json(report_to_dict(report)) and of csv.writer rows of
repr(float(v)) cells.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .experiments import VALUE_COLUMNS as CSV_VALUE_COLUMNS
from .experiments import ExperimentReport, SampleTable

CHUNK = 4096  # rows rendered at a time; bounds the writers' temporaries

# a sample object of a report's "samples" list, as canonical_json indents it:
# its fields, then its basis entries and extra fields one level deeper
_FIELD, _ITEM = "\n      ", "\n        "
_SAMPLE = ("{" + _FIELD + '"abs_diff": %s,' + _FIELD + '"basis": %s,%s' + _FIELD
           + '"id": %s,' + _FIELD + '"rel_diff": %s,' + _FIELD + '"stderr": %s,'
           + _FIELD + '"value_K": %s,' + _FIELD + '"value_L": %s\n    }')
_SAMPLES_SLOT = '\n  "samples": []'

_memo: list = []  # [(table, texts)] of the last table formatted, until taken


def _envelope(report: ExperimentReport) -> dict:
    """A report's JSON form with an empty samples list."""
    return {
        "experiment": report.experiment,
        "bodies": report.bodies,
        "parameters": report.parameters,
        "samples": [],
        "summary": report.summary,
    }


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON form of a report; runtime is deliberately omitted."""
    s = report.samples
    extra = {key: column.tolist() for key, column in s.extra.items()}
    return {**_envelope(report), "samples": [{
        "id": j,
        "basis": basis,
        "value_K": value_K,
        "value_L": value_L,
        "abs_diff": abs_diff,
        "rel_diff": rel_diff,
        "stderr": stderr,
        **({"extra": {key: column[j] for key, column in extra.items()}} if extra else {}),
    } for j, (basis, value_K, value_L, abs_diff, rel_diff, stderr) in enumerate(zip(
        s.basis.tolist(), *(getattr(s, c).tolist() for c in CSV_VALUE_COLUMNS)))]}


def canonical_json(data) -> str:
    """Sorted-key JSON text; floats (numpy float64 included) use float repr,
    and any other non-JSON value raises TypeError."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _require_finite(samples: SampleTable) -> None:
    """Raise ValueError, as canonical_json does, for a NaN or infinite value."""
    columns = [samples.basis, *(getattr(samples, c) for c in CSV_VALUE_COLUMNS),
               *samples.extra.values()]
    if not all(np.isfinite(column).all() for column in columns):
        raise ValueError("Out of range float values are not JSON compliant")


def _float_texts(column: np.ndarray) -> list[str]:
    return list(map(float.__repr__, column.tolist()))


def _texts(samples: SampleTable) -> tuple:
    """(basis columns, {value column: texts}, {extra key: texts} in key
    order): float.__repr__ of every value of samples.  A table formatted
    by the last call is not formatted again."""
    if _memo and _memo[0][0] is samples:
        return _memo.pop()[1]
    texts = ([_float_texts(column) for column in samples.basis.T],
             {c: _float_texts(getattr(samples, c)) for c in CSV_VALUE_COLUMNS},
             {key: _float_texts(samples.extra[key]) for key in sorted(samples.extra)})
    _memo[:] = [(samples, texts)]
    return texts


def write_report_json(path, report) -> Path:
    """Write canonical_json(report_to_dict(report)) (or of report itself,
    when it is a plain dict), rendering the samples by columns."""
    p = Path(path)
    if not isinstance(report, ExperimentReport):
        p.write_text(canonical_json(report), encoding="utf-8")
        return p
    samples = report.samples
    _require_finite(samples)
    basis, values, extra = _texts(samples)
    # canonical_json's text of a sample, its id and floats left as %s
    basis_slot = "[" + ",".join([_ITEM + "%s"] * len(basis)) + _FIELD + "]" if basis else "[]"
    extra_slot = (_FIELD + '"extra": {' + ",".join(
        _ITEM + json.dumps(key).replace("%", "%%") + ": %s" for key in extra) + _FIELD + "},"
        if extra else "")
    template = _SAMPLE % ("%s", basis_slot, extra_slot, "%s", "%s", "%s", "%s", "%s")
    rows = zip(values["abs_diff"], *basis, *extra.values(), map(str, range(len(samples))),
               values["rel_diff"], values["stderr"], values["value_K"], values["value_L"])
    head, tail = canonical_json(_envelope(report)).split(_SAMPLES_SLOT)
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(head)
        sep = '\n  "samples": [\n    '
        while chunk := list(map(template.__mod__, islice(rows, CHUNK))):
            fh.write(sep + ",\n    ".join(chunk))
            sep = ",\n    "
        fh.write((_SAMPLES_SLOT if len(samples) == 0 else "\n  ]") + tail)
    return p


def _csv_cell(text) -> str:
    """text as csv.writer writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_csv(path, header: list, rows) -> Path:
    """Write the header and rows, tuples of cell texts, CHUNK rows at a time."""
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(map(",".join, islice(rows, CHUNK))):
            fh.write("\n".join(chunk) + "\n")
    return p


def write_samples_csv(path, report: ExperimentReport) -> Path:
    """One row per sample: its id, one cell per basis entry, the values."""
    samples = report.samples
    _require_finite(samples)
    basis, values, _ = _texts(samples)
    header = ["id", *(f"basis_{j}" for j in range(len(basis))), *CSV_VALUE_COLUMNS]
    return _write_csv(path, header, zip(map(str, range(len(samples))), *basis,
                                        *values.values()))


def _suite_rows(name: str, samples: SampleTable):
    basis, values, _ = _texts(samples)
    packed = map(";".join, zip(*basis)) if basis else [""] * len(samples)
    return zip([_csv_cell(name)] * len(samples), map(str, range(len(samples))), packed,
               *values.values())


def write_suite_csv(path, named_reports) -> Path:
    """Aggregate CSV across experiments; the basis is one packed column
    because widths differ between experiments."""
    named_reports = list(named_reports)
    for _, report in named_reports:
        _require_finite(report.samples)
    rows = chain.from_iterable(_suite_rows(name, report.samples)
                               for name, report in named_reports)
    return _write_csv(path, ["experiment", "id", "basis", *CSV_VALUE_COLUMNS], rows)
