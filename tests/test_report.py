"""The report writers against their references: canonical_json of the report
dict, and csv.writer rows of repr(float(v)) cells."""

import csv
import math

import numpy as np
import pytest

from convexlab.experiments import ExperimentReport, SampleRecord
from convexlab.report import (CHUNK, CSV_VALUE_COLUMNS, canonical_json, report_to_dict,
                              write_report_json, write_samples_csv, write_suite_csv)

SPECIAL = (-0.0, 0.0, 5e-324, 2.0 ** -1074 * 3, 2.2250738585072014e-308 / 7, 1e16, 1e-7,
           1e22, 1.0, -1.5, 0.1, 1.0 / 3.0, 1.7976931348623157e308)


def reference_samples_csv(path, report):
    """The samples.csv writer this package shipped before rendering by columns."""
    width = max((len(s.basis) for s in report.samples), default=0)
    rows = [["id"] + [f"basis_{j}" for j in range(width)] + list(CSV_VALUE_COLUMNS)]
    for s in report.samples:
        rows.append([str(s.id)] + [repr(float(b)) for b in s.basis]
                    + [repr(float(getattr(s, c))) for c in CSV_VALUE_COLUMNS])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def reference_suite_csv(path, named_reports):
    """The suite samples.csv writer this package shipped before."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experiment", "id", "basis"] + list(CSV_VALUE_COLUMNS))
        for name, report in named_reports:
            for s in report.samples:
                packed = ";".join(repr(float(b)) for b in s.basis)
                w.writerow([name, str(s.id), packed]
                           + [repr(float(getattr(s, c))) for c in CSV_VALUE_COLUMNS])


def _value(gen, as_float64):
    kind = gen.integers(4)
    if kind == 0:
        x = float(SPECIAL[gen.integers(len(SPECIAL))])
    elif kind == 1:
        x = float(gen.standard_normal() * 10.0 ** gen.integers(-300, 300))
    elif kind == 2:
        x = float(gen.integers(-5, 5))
    else:
        x = float(gen.standard_normal())
    return np.float64(x) if as_float64 else x


def _report(seed, count, ragged=False):
    """A report of count samples: a basis width of 1 to 20 (per sample when
    ragged), values as float or np.float64, and an extra dict that is
    absent, one key or two keys."""
    gen = np.random.default_rng(seed)
    as_float64 = bool(gen.integers(2))
    width = int(gen.integers(1, 21))
    samples = []
    for j in range(count):
        w = int(gen.integers(0, 21)) if ragged else width
        keys = ("d_h", "a bé\"x")[:int(gen.integers(3))]
        samples.append(SampleRecord(
            j, tuple(_value(gen, as_float64) for _ in range(w)),
            *(_value(gen, as_float64) for _ in CSV_VALUE_COLUMNS),
            extra={k: _value(gen, as_float64) for k in keys} or None))
    return ExperimentReport(
        "lemma1", {"K": {"type": "ball", "n": 3}}, {"seed": seed, "samples": [count]},
        samples, {"pass": True, "max_rel_diff": 1e-17, "tolerance": 1e-8})


CASES = [(0, 0, False), (1, 1, False), (2, 1, True), (3, 7, True), (4, 40, False),
         (5, 40, True), (6, CHUNK + 904, False), (7, 3000, True)]


@pytest.mark.parametrize("seed, count, ragged", CASES)
def test_writers_equal_their_references(tmp_path, seed, count, ragged):
    rep = _report(seed, count, ragged)
    write_report_json(tmp_path / "r.json", rep)
    assert (tmp_path / "r.json").read_bytes() == canonical_json(report_to_dict(rep)).encode()

    write_samples_csv(tmp_path / "s.csv", rep)
    reference_samples_csv(tmp_path / "s_ref.csv", rep)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()

    named = [("lemma1-smooth", rep), ('odd, "quoted" name', _report(seed + 100, 5, True)),
             ("empty", _report(seed, 0))]
    write_suite_csv(tmp_path / "u.csv", named)
    reference_suite_csv(tmp_path / "u_ref.csv", named)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "u_ref.csv").read_bytes()


def _replace(rep, j, field, value):
    """rep with one value of sample j swapped: a value column, the first
    basis entry, or the extra dict (its d_h when value is not a dict)."""
    s = rep.samples[j]
    if field == "basis":
        s = SampleRecord(s.id, (value,) + s.basis[1:], s.value_K, s.value_L, s.abs_diff,
                         s.rel_diff, s.stderr, s.extra)
    elif field == "extra":
        s = SampleRecord(s.id, s.basis, s.value_K, s.value_L, s.abs_diff, s.rel_diff,
                         s.stderr, value if isinstance(value, dict) else {"d_h": value})
    else:
        s = SampleRecord(**{**s.__dict__, field: value})
    samples = list(rep.samples)
    samples[j] = s
    return ExperimentReport(rep.experiment, rep.bodies, rep.parameters, samples, rep.summary)


@pytest.mark.parametrize("field", ("basis", "extra") + CSV_VALUE_COLUMNS)
@pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (math.inf, ValueError),
                                        (-math.inf, ValueError), (np.float64("nan"), ValueError),
                                        (np.int64(3), TypeError)])
def test_json_writer_rejects_what_canonical_json_rejects(tmp_path, field, bad, error):
    rep = _replace(_report(11, 50), 37, field, bad)
    with pytest.raises(error):
        canonical_json(report_to_dict(rep))
    with pytest.raises(error):
        write_report_json(tmp_path / "r.json", rep)
    assert not (tmp_path / "r.json").exists()


def test_json_writer_renders_other_values_as_canonical_json(tmp_path):
    # ints, bools, None and nested values take canonical_json's own path
    rep = _report(12, 30, ragged=True)
    for j, value in ((3, 2), (4, True), (5, None), (6, [1.5, {"b": 2, "a": -0.0}])):
        rep = _replace(rep, j, "extra", value)
        rep = _replace(rep, j + 10, "value_L", value)
        rep = _replace(rep, j + 20, "basis", value)
    # a column of ints and bools alone: json writes the bools as true/false
    rep = _replace(_replace(rep, 7, "extra", {"count": 3}), 8, "extra", {"count": False})
    write_report_json(tmp_path / "r.json", rep)
    assert (tmp_path / "r.json").read_bytes() == canonical_json(report_to_dict(rep)).encode()
