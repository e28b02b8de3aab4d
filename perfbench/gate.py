"""Output checks of the correctness gate, run on the first pass of a run.

A command's output fails when its report.json is missing or does not
validate against the package schema, or, for `convexlab all`, when the
suite does not run and pass all 22 entries.  run.py adds the exit-status
check and the byte comparison of every later pass with the first.  The
gate also reads the verdict margin of every passing equality check: the
worst max-difference over the allowed difference, where 1 means the
verdict was about to flip.
"""

from __future__ import annotations

import json
from pathlib import Path

from jsonschema import Draft7Validator
from jsonschema.exceptions import best_match

from workloads import SUITE_ENTRIES

EQUALITY_EXPERIMENTS = ("lemma1", "sections", "slabs", "projections")


def verdict_margin(report: dict) -> float | None:
    """max |diff| / allowed |diff| of a passing equality check, else None."""
    summary = report["summary"]
    tol = summary.get("tolerance", 0.0)
    if report["experiment"] not in EQUALITY_EXPERIMENTS or not summary["pass"] or tol <= 0.0:
        return None
    if report["experiment"] == "lemma1":
        return max(summary.get("max_d_rho", 0.0), summary.get("max_d_h", 0.0)) / tol
    worst = 0.0
    for s in report["samples"]:  # the per-sample rule of experiments._judge
        if s["stderr"] == 0.0:
            worst = max(worst, s["rel_diff"] / tol)
        else:
            worst = max(worst, s["abs_diff"] / (3.0 * s["stderr"] + tol))
    return worst


class Gate:
    def __init__(self, schema_path: Path):
        self._validator = Draft7Validator(
            json.loads(schema_path.read_text(encoding="utf-8")))

    def _load(self, path: Path, problems: list) -> dict | None:
        if not path.is_file():
            problems.append(f"{path.name} missing")
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"{path.name} is not JSON: {exc}")
            return None
        error = best_match(self._validator.iter_errors(data))
        if error is not None:
            problems.append(f"{path.name} fails the schema: {error.message[:200]}")
            return None
        return data

    def inspect(self, out_dir: Path) -> tuple[list[str], list[float]]:
        """(problems, verdict margins) of one command's output directory."""
        problems: list[str] = []
        margins: list[float] = []
        report = self._load(out_dir / "report.json", problems)
        if report is None:
            return problems, margins
        if report.get("experiment") != "all":
            m = verdict_margin(report)
            return problems, margins if m is None else [m]
        entries = report["entries"]
        names = tuple(e["name"] for e in entries)
        if names != SUITE_ENTRIES:
            problems.append(f"suite ran entries {names}, expected {SUITE_ENTRIES}")
        ok = sum(1 for e in entries if e["ok"])
        if ok != len(SUITE_ENTRIES):
            problems.append(f"suite reports {ok}/{len(SUITE_ENTRIES)} entries ok")
        for e in entries:
            sub = self._load(out_dir / e["name"] / "report.json", problems)
            if sub is not None and e["expected_pass"]:
                m = verdict_margin(sub)
                if m is not None:
                    margins.append(m)
        return problems, margins
