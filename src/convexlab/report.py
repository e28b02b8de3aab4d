"""Canonical report serialization: JSON reports and per-sample CSV tables.

Output is byte-deterministic for identical inputs: keys are sorted, floats
use shortest round-trip repr, and wall-clock timing never enters the files
(it is kept on the in-memory report only).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .experiments import ExperimentReport

CSV_VALUE_COLUMNS = ("value_K", "value_L", "abs_diff", "rel_diff", "stderr")


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON form of a report; runtime is deliberately omitted."""
    return {
        "experiment": report.experiment,
        "bodies": report.bodies,
        "parameters": report.parameters,
        "samples": [{
            "id": s.id,
            "basis": list(s.basis),
            "value_K": s.value_K,
            "value_L": s.value_L,
            "abs_diff": s.abs_diff,
            "rel_diff": s.rel_diff,
            "stderr": s.stderr,
            **({"extra": s.extra} if s.extra else {}),
        } for s in report.samples],
        "summary": report.summary,
    }


def canonical_json(data) -> str:
    """Sorted-key JSON text; floats (numpy float64 included) use float repr,
    and any other non-JSON value raises TypeError."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report_json(path, report) -> Path:
    data = report_to_dict(report) if isinstance(report, ExperimentReport) else report
    p = Path(path)
    p.write_text(canonical_json(data), encoding="utf-8")
    return p


def samples_csv_rows(report: ExperimentReport) -> list[list[str]]:
    width = max((len(s.basis) for s in report.samples), default=0)
    header = (["id"] + [f"basis_{j}" for j in range(width)]
              + list(CSV_VALUE_COLUMNS))
    rows = [header]
    for s in report.samples:
        rows.append([str(s.id)] + [repr(float(b)) for b in s.basis]
                    + [repr(float(getattr(s, c))) for c in CSV_VALUE_COLUMNS])
    return rows


def write_samples_csv(path, report: ExperimentReport) -> Path:
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(samples_csv_rows(report))
    return p


def write_suite_csv(path, named_reports) -> Path:
    """Aggregate CSV across experiments; the basis is one packed column
    because widths differ between experiments."""
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experiment", "id", "basis"] + list(CSV_VALUE_COLUMNS))
        for name, report in named_reports:
            for s in report.samples:
                packed = ";".join(repr(float(b)) for b in s.basis)
                w.writerow([name, str(s.id), packed]
                           + [repr(float(getattr(s, c))) for c in CSV_VALUE_COLUMNS])
    return p
