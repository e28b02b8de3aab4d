"""Canonical report serialization: JSON reports and per-sample CSV tables.

Output is byte-deterministic for identical inputs: keys are sorted, floats
use shortest round-trip repr, and wall-clock timing never enters the files
(it is kept on the in-memory report only).

The writers render samples a column at a time: each float column is one
C-level map of float.__repr__, and each sample fills a fixed template.
The bytes are those of canonical_json(report_to_dict(report)) and of
csv.writer rows of repr(float(v)) cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path

from .experiments import ExperimentReport

CSV_VALUE_COLUMNS = ("value_K", "value_L", "abs_diff", "rel_diff", "stderr")

CHUNK = 4096  # samples rendered at a time; bounds the writers' temporaries

# a sample object of a report's "samples" list, as canonical_json indents it:
# its fields, then its basis entries and extra fields one level deeper
_FIELD, _ITEM = "\n      ", "\n        "
_SAMPLE = ("{" + _FIELD + '"abs_diff": %s,' + _FIELD + '"basis": %s,%s' + _FIELD
           + '"id": %s,' + _FIELD + '"rel_diff": %s,' + _FIELD + '"stderr": %s,'
           + _FIELD + '"value_K": %s,' + _FIELD + '"value_L": %s\n    }')
_SAMPLES_SLOT = '\n  "samples": []'


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
    return {**_envelope(report), "samples": [{
        "id": s.id,
        "basis": list(s.basis),
        "value_K": s.value_K,
        "value_L": s.value_L,
        "abs_diff": s.abs_diff,
        "rel_diff": s.rel_diff,
        "stderr": s.stderr,
        **({"extra": s.extra} if s.extra else {}),
    } for s in report.samples]}


def canonical_json(data) -> str:
    """Sorted-key JSON text; floats (numpy float64 included) use float repr,
    and any other non-JSON value raises TypeError."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _float_texts(values) -> list[str]:
    """repr(float(v)) of each value, in one C-level pass over the column."""
    return list(map(float.__repr__, map(float, values)))


def _json_texts(values: list, indent: str) -> list[str]:
    """canonical_json's text of each value inside a report, where indent
    starts the lines of the object or list that holds the values.  json
    writes every float, subclasses such as np.float64 included, as
    float.__repr__ (and rejects NaN and +-inf), and every int but a bool as
    int.__repr__."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        if not all(map(math.isfinite, values)):
            raise ValueError("Out of range float values are not JSON compliant")
        return list(map(float.__repr__, values))
    if all(issubclass(t, int) and not issubclass(t, bool) for t in types):
        return list(map(int.__repr__, values))
    return [canonical_json(v)[:-1].replace("\n", indent) for v in values]


def _basis_texts(samples, render) -> list[list[str]]:
    """render's texts of all basis entries of samples, one list per sample."""
    texts = render(list(chain.from_iterable(s.basis for s in samples)))
    widths = [len(s.basis) for s in samples]
    return [texts[end - w:end] for end, w in zip(accumulate(widths), widths)]


def _column(samples, name: str) -> list:
    return list(map(attrgetter(name), samples))


def _extra_fields(samples) -> list[str]:
    """Each sample's '"extra": {...},' text, or '' when it has none.  Samples
    whose extra dicts share one key set are rendered one column per key."""
    texts = [""] * len(samples)
    by_keys = defaultdict(list)
    for j, s in enumerate(samples):
        if s.extra:
            by_keys[tuple(sorted(s.extra))].append(j)
    for keys, rows in by_keys.items():
        names = [_ITEM + json.dumps({key: 0}, allow_nan=False)[1:-4] + ": " for key in keys]
        columns = [_json_texts([samples[j].extra[key] for j in rows], _ITEM) for key in keys]
        for j, *values in zip(rows, *columns):
            texts[j] = (_FIELD + '"extra": {' + ",".join(map(str.__add__, names, values))
                        + _FIELD + "},")
    return texts


def _samples_json(samples) -> list[str]:
    """canonical_json's text of each sample object inside a report."""
    basis = ["[" + _ITEM + ("," + _ITEM).join(b) + _FIELD + "]" if b else "[]"
             for b in _basis_texts(samples, lambda v: _json_texts(v, _ITEM))]
    value = {c: _json_texts(_column(samples, c), _FIELD) for c in CSV_VALUE_COLUMNS}
    return list(map(_SAMPLE.__mod__, zip(
        value["abs_diff"], basis, _extra_fields(samples),
        _json_texts(_column(samples, "id"), _FIELD), value["rel_diff"],
        value["stderr"], value["value_K"], value["value_L"])))


def _chunks(samples):
    return (samples[lo:lo + CHUNK] for lo in range(0, len(samples), CHUNK))


def write_report_json(path, report) -> Path:
    """Write canonical_json(report_to_dict(report)) (or of report itself,
    when it is a plain dict), rendering the samples by columns."""
    p = Path(path)
    if not isinstance(report, ExperimentReport):
        p.write_text(canonical_json(report), encoding="utf-8")
        return p
    head, tail = canonical_json(_envelope(report)).split(_SAMPLES_SLOT)
    chunks = [",\n    ".join(_samples_json(chunk)) for chunk in _chunks(report.samples)]
    samples = (['\n  "samples": [\n    ', ",\n    ".join(chunks), "\n  ]"] if chunks
               else [_SAMPLES_SLOT])
    with open(p, "w", encoding="utf-8") as fh:
        fh.writelines([head, *samples, tail])
    return p


def _csv_cell(text) -> str:
    """text as csv.writer writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_rows(samples, lead: list, basis_sep: str | None) -> list[list[str]]:
    """CSV cells of each sample: lead, the id, the basis entries (one packed
    cell joined by basis_sep, or one cell each when it is None) and the
    value columns, every float as repr(float(v))."""
    basis = _basis_texts(samples, _float_texts)
    if basis_sep is not None:
        basis = [[basis_sep.join(b)] for b in basis]
    values = [_float_texts(_column(samples, c)) for c in CSV_VALUE_COLUMNS]
    return [[*lead, str(s.id), *b, *v] for s, b, *v in zip(samples, basis, *values)]


def _write_csv(path, header: list, row_chunks) -> Path:
    parts = [",".join(header) + "\n"]
    parts += ("\n".join(map(",".join, rows)) + "\n" for rows in row_chunks)
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(parts)
    return p


def _samples_header(samples) -> list[str]:
    width = max((len(s.basis) for s in samples), default=0)
    return ["id"] + [f"basis_{j}" for j in range(width)] + list(CSV_VALUE_COLUMNS)


def samples_csv_rows(report: ExperimentReport) -> list[list[str]]:
    return [_samples_header(report.samples)] + _csv_rows(report.samples, [], None)


def write_samples_csv(path, report: ExperimentReport) -> Path:
    return _write_csv(path, _samples_header(report.samples),
                      (_csv_rows(chunk, [], None) for chunk in _chunks(report.samples)))


def write_suite_csv(path, named_reports) -> Path:
    """Aggregate CSV across experiments; the basis is one packed column
    because widths differ between experiments."""
    return _write_csv(path, ["experiment", "id", "basis"] + list(CSV_VALUE_COLUMNS),
                      (_csv_rows(chunk, [_csv_cell(name)], ";")
                       for name, report in named_reports for chunk in _chunks(report.samples)))
