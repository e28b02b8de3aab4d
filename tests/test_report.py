"""The report writers against their references: canonical_json of the report
dict, and csv.writer rows of repr(float(v)) cells; and the sample table's
rel_diff and verdict against the per-sample formulas they replaced."""

import csv
import math

import numpy as np
import pytest

from convexlab import report as report_module
from convexlab.experiments import ExperimentReport, SampleTable, _judge, _sample_table
from convexlab.report import (CHUNK, CSV_VALUE_COLUMNS, canonical_json, report_to_dict,
                              write_report_json, write_samples_csv, write_suite_csv)

SPECIAL = (-0.0, 0.0, 5e-324, 2.0 ** -1074 * 3, 2.2250738585072014e-308 / 7, 1e16, 1e-7,
           1e22, 1.0, -1.5, 0.1, 1.0 / 3.0, 1.7976931348623157e308)

EXTRA_KEYS = ("d_h", "a bé\"x")  # the second needs escaping in JSON and CSV alike


def reference_samples_csv(path, report):
    """The samples.csv writer this package shipped before rendering by columns."""
    rows = [["id"] + [f"basis_{j}" for j in range(report.samples.basis.shape[1])]
            + list(CSV_VALUE_COLUMNS)]
    for sample in report_to_dict(report)["samples"]:
        rows.append([str(sample["id"])] + [repr(float(b)) for b in sample["basis"]]
                    + [repr(float(sample[c])) for c in CSV_VALUE_COLUMNS])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def reference_suite_csv(path, named_reports):
    """The suite samples.csv writer this package shipped before."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["experiment", "id", "basis"] + list(CSV_VALUE_COLUMNS))
        for name, report in named_reports:
            for sample in report_to_dict(report)["samples"]:
                packed = ";".join(repr(float(b)) for b in sample["basis"])
                w.writerow([name, str(sample["id"]), packed]
                           + [repr(float(sample[c])) for c in CSV_VALUE_COLUMNS])


def _values(gen, shape):
    """float64 values of four kinds: SPECIAL ones, normals over 600 decades,
    small integers and standard normals."""
    kind = gen.integers(4, size=shape)
    special = np.array(SPECIAL)[gen.integers(len(SPECIAL), size=shape)]
    wide = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, size=shape)
    ints = gen.integers(-5, 5, size=shape).astype(float)
    return np.choose(kind, [special, wide, ints, gen.standard_normal(shape)])


def _report(seed, count, width=None, n_extra=None):
    """A report of count samples: a basis width of 0 to 20 and 0 to 2 extra
    columns, drawn from seed unless given."""
    gen = np.random.default_rng(seed)
    width = int(gen.integers(0, 21)) if width is None else width
    n_extra = int(gen.integers(3)) if n_extra is None else n_extra
    samples = SampleTable(_values(gen, (count, width)),
                          *(_values(gen, count) for _ in CSV_VALUE_COLUMNS),
                          {key: _values(gen, count) for key in EXTRA_KEYS[:n_extra]})
    return ExperimentReport(
        "lemma1", {"K": {"type": "ball", "n": 3}}, {"seed": seed, "samples": [count]},
        samples, {"pass": True, "max_rel_diff": 1e-17, "tolerance": 1e-8})


def _assert_writers_equal_references(tmp_path, rep, suite):
    write_report_json(tmp_path / "r.json", rep)
    assert (tmp_path / "r.json").read_bytes() == canonical_json(report_to_dict(rep)).encode()

    write_samples_csv(tmp_path / "s.csv", rep)
    reference_samples_csv(tmp_path / "s_ref.csv", rep)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()

    write_suite_csv(tmp_path / "u.csv", suite)
    reference_suite_csv(tmp_path / "u_ref.csv", suite)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "u_ref.csv").read_bytes()


# (seed, count, ragged): ragged suites mix reports of other basis widths
CASES = [(0, 0, False), (1, 1, False), (2, 1, True), (3, 7, True), (4, 40, False),
         (5, 40, True), (6, CHUNK + 904, False), (7, 3000, True), (8, CHUNK - 1, True),
         (9, CHUNK, False), (10, CHUNK + 1, True), (11, 2 * CHUNK + 3, False)]


@pytest.mark.parametrize("seed, count, ragged", CASES)
def test_writers_equal_their_references(tmp_path, seed, count, ragged):
    rep = _report(seed, count)
    width = rep.samples.basis.shape[1]
    others = [(width + 7) % 21, (width + 13) % 21] if ragged else [width, width]
    suite = [("lemma1-smooth", rep), ('odd, "quoted" name', _report(seed + 100, 5, others[0])),
             ("empty", _report(seed, 0, others[1]))]
    _assert_writers_equal_references(tmp_path, rep, suite)


@pytest.mark.parametrize("width", range(21))
def test_writers_equal_their_references_at_every_width(tmp_path, width):
    rep = _report(200 + width, 9, width, width % 3)
    _assert_writers_equal_references(tmp_path, rep, [("a", rep), ("b", _report(width, 3))])


def _replace(rep, j, field, value):
    """rep with one value of sample j swapped: a value column, the first
    basis entry, or the d_h column; a value that is not a float makes that
    column an object array."""
    s = rep.samples
    columns = {"basis": s.basis, **{c: getattr(s, c) for c in CSV_VALUE_COLUMNS},
               "extra": s.extra["d_h"]}
    column = columns[field].astype(float if isinstance(value, float) else object)
    column[(j, 0) if field == "basis" else j] = value
    columns[field] = column
    extra = {**s.extra, "d_h": columns.pop("extra")}
    return ExperimentReport(rep.experiment, rep.bodies, rep.parameters,
                            SampleTable(**columns, extra=extra), rep.summary)


@pytest.mark.parametrize("field", ("basis", "extra") + CSV_VALUE_COLUMNS)
@pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (math.inf, ValueError),
                                        (-math.inf, ValueError), (np.float64("nan"), ValueError),
                                        (np.int64(3), TypeError)])
def test_json_writer_rejects_what_canonical_json_rejects(tmp_path, field, bad, error):
    rep = _report(11, 50, 3, 1)
    data = report_to_dict(rep)
    sample = data["samples"][37]
    if field == "basis":
        sample["basis"][0] = bad
    elif field == "extra":
        sample["extra"]["d_h"] = bad
    else:
        sample[field] = bad
    with pytest.raises(error):
        canonical_json(data)
    if error is TypeError:
        # a table holds float64 columns only, so no writer ever sees the value
        with pytest.raises(TypeError):
            _replace(rep, 37, field, bad)
        return
    rep = _replace(rep, 37, field, bad)
    for write, path, target in ((write_report_json, "r.json", rep),
                                (write_samples_csv, "s.csv", rep),
                                (write_suite_csv, "u.csv", [("ok", _report(1, 3)), ("bad", rep)])):
        with pytest.raises(ValueError):
            write(tmp_path / path, target)
        assert not (tmp_path / path).exists()


def test_second_writer_formats_no_float_again(tmp_path, monkeypatch):
    formatted = []
    float_texts = report_module._float_texts
    monkeypatch.setattr(report_module, "_float_texts",
                        lambda column: formatted.append(len(column)) or float_texts(column))
    a, b = _report(30, 50, 4, 1), _report(31, 60, 2, 0)

    write_report_json(tmp_path / "a.json", a)
    assert formatted == [50] * (4 + 5 + 1)
    formatted.clear()
    write_samples_csv(tmp_path / "a.csv", a)
    assert formatted == []
    assert report_module._memo == []  # taken by the second writer

    # the memo keeps only the last table: b's texts replace a's
    write_report_json(tmp_path / "a.json", a)
    write_report_json(tmp_path / "b.json", b)
    assert len(report_module._memo) == 1 and report_module._memo[0][0] is b.samples
    formatted.clear()
    write_samples_csv(tmp_path / "b.csv", b)
    assert formatted == []
    write_samples_csv(tmp_path / "a.csv", a)
    assert formatted == [50] * (4 + 5 + 1)

    for rep, name in ((a, "a"), (b, "b")):
        assert ((tmp_path / f"{name}.json").read_bytes()
                == canonical_json(report_to_dict(rep)).encode())
        reference_samples_csv(tmp_path / "ref.csv", rep)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table_takes_float64_columns_only():
    ok = np.zeros(3)
    with pytest.raises(TypeError):
        SampleTable(np.zeros((3, 2)), ok, ok, ok, ok, np.zeros(3, dtype=np.int64))
    with pytest.raises(TypeError):
        SampleTable(np.zeros((3, 2)), ok, ok, ok, ok, ok, {"d_h": [0.0, 0.0, 0.0]})
    with pytest.raises(ValueError):
        SampleTable(np.zeros((3, 2)), ok, ok, ok, ok, np.zeros(4))
    table = SampleTable(np.zeros((3, 2)), ok, ok, ok, ok, ok)
    with pytest.raises(ValueError):
        table.value_K[0] = 1.0  # read-only views
    ok[0] = 2.0  # the caller's array stays writable


def reference_rel(diff, a, b):
    """The scalar rel_diff formula, one sample at a time."""
    scale = max(0.5 * (abs(a) + abs(b)), 1e-300)
    return diff / scale


def reference_judge(rows, tol):
    """_judge as it read one (rel_diff, abs_diff, stderr) row per sample."""
    rels = np.array([r for r, _, _ in rows])
    absd = np.array([d for _, d, _ in rows])
    errs = np.array([e for _, _, e in rows])
    ok = np.where(errs == 0.0, rels <= tol, absd <= 3.0 * errs + tol)
    rule = "exact-rel" if np.all(errs == 0.0) else (
        "mc-3sigma" if np.all(errs > 0.0) else "mixed")
    return {
        "max_rel_diff": float(rels.max()),
        "mean_rel_diff": float(rels.mean()),
        "max_abs_diff": float(absd.max()),
        "pass": bool(np.all(ok)),
        "tolerance": tol,
        "rule": rule,
    }


def test_rel_diff_equals_the_scalar_formula_bit_for_bit():
    # every (a, b) of SPECIAL and their negatives: both zero (the 1e-300
    # floor), subnormals, -0.0 and opposite signs; diff from SPECIAL too
    vals = np.array(SPECIAL + tuple(-x for x in SPECIAL))
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    for diff in (abs(x) for x in SPECIAL):
        d = np.full(a.size, diff)
        # |a| + |b| and diff / 1e-300 overflow to inf, as in the scalar formula
        with np.errstate(over="ignore"):
            table = _sample_table(np.zeros((a.size, 0)), a, b, d, np.zeros(a.size))
        expect = np.array([reference_rel(diff, x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert table.rel_diff.tobytes() == expect.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_judge_equals_the_list_based_judge(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 300))
    tol = float(10.0 ** gen.integers(-12, -4))
    errs = np.where(gen.random(m) < (0.0, 0.3, 1.0, 0.7)[seed % 4], 0.0,
                    np.abs(gen.standard_normal(m)) * tol)
    # odd seeds pass: every row within its bound, some rows on it
    spread = 1.0 if seed % 2 else 10.0
    rels = gen.random(m) * spread * tol
    absd = gen.random(m) * spread * (3.0 * errs + tol)
    rels[::7], absd[::5] = tol, 3.0 * errs[::5] + tol
    table = SampleTable(np.zeros((m, 2)), absd, absd, absd, rels, errs)
    rows = list(zip(rels.tolist(), absd.tolist(), errs.tolist()))
    expect = reference_judge(rows, tol)
    assert expect["pass"] == bool(seed % 2)
    assert _judge(table, tol) == expect
