"""Command line front end: parse body specs, run experiments, write reports.

Exit codes: 0 when the requested check passes, 2 when a mathematical check
fails, 1 on any error (bad arguments, invalid spec, I/O).  Partial output
files are removed on error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bodies import RevolutionBodySpec, build_polytope_pair, make_revolution_spec, oracle_of, profile
from .experiments import (
    PAIR_NAMES,
    BodyPair,
    certify_report,
    convergence_experiment,
    lemma1_check,
    make_pair,
    projections_experiment,
    sections_experiment,
    slab_experiment,
)
from .grassmann import RngStream, Subspace, sample_sphere
from .intrinsic import boundary_polyline
from .polykernel import section_polygon
from .report import canonical_json, write_report_json, write_samples_csv, write_suite_csv
from .svg import render_polygons_svg, render_scatter_svg, render_series_svg
from .transforms import section_oracle

FAIL, ERROR = 2, 1

DEFAULT_T_SEQUENCE = (0.4, 0.2, 0.1, 0.05)

_STREAM_OF = {"lemma1": 1, "sections": 2, "slabs": 3, "projections": 4,
              "convergence": 5}

_DEFAULT_SAMPLES = {"lemma1": 2000, "sections": 100, "slabs": 50,
                    "projections": 200}


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on usage errors, which this tool reserves for
    # failed mathematical checks
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# body specs


_REVOLUTION_FIELDS = frozenset({"type", "n", "epsilon", "delta", "variant"})
_POLYTOPE_FIELDS = frozenset({"type", "a", "u_signs", "v_signs", "lambda", "variant"})


def parse_body_spec(text: str):
    """JSON body description -> RevolutionBodySpec or HPolytope.

    Unknown fields are rejected by name; absent epsilon, delta, lambda fall
    back to their defaults.  Constraint violations surface the constructor
    diagnostics (for example "delta must lie in (0, 1/6)").
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON body spec: {exc}") from None
    if not isinstance(data, dict):
        raise CliError("body spec must be a JSON object")
    kind = data.get("type")
    if kind == "revolution":
        unknown = sorted(set(data) - _REVOLUTION_FIELDS)
        if unknown:
            raise CliError(f"unknown field '{unknown[0]}' in revolution body spec")
        return RevolutionBodySpec(
            n=int(data.get("n", 3)),
            epsilon=float(data.get("epsilon", 1e-3)),
            delta=float(data.get("delta", 0.1)),
            variant=str(data.get("variant", "K")),
        )
    if kind == "polytope":
        unknown = sorted(set(data) - _POLYTOPE_FIELDS)
        if unknown:
            raise CliError(f"unknown field '{unknown[0]}' in polytope body spec")
        if "a" not in data:
            raise CliError("polytope body spec requires field 'a' (box half-widths)")
        a = [float(x) for x in data["a"]]
        n = len(a)
        us = [int(x) for x in data.get("u_signs", [1] * n)]
        vs = [int(x) for x in data.get("v_signs", [1] * (n - 1) + [-1])]
        lam = data.get("lambda")
        variant = str(data.get("variant", "K"))
        if variant not in ("K", "L"):
            raise CliError("polytope body spec field 'variant' must be 'K' or 'L'")
        cons = build_polytope_pair(a, us, vs, None if lam is None else float(lam))
        return cons.body_K if variant == "K" else cons.body_L
    raise CliError("body spec field 'type' must be 'revolution' or 'polytope'")


def _resolve_pair(args) -> BodyPair:
    spec_k = getattr(args, "spec_k", None)
    spec_l = getattr(args, "spec_l", None)
    if spec_k or spec_l:
        if not (spec_k and spec_l):
            raise CliError("--spec-k and --spec-l must be given together")
        body_k = parse_body_spec(Path(spec_k).read_text(encoding="utf-8"))
        body_l = parse_body_spec(Path(spec_l).read_text(encoding="utf-8"))
        ok, ol = oracle_of(body_k), oracle_of(body_l)
        smooth = None
        if isinstance(body_k, RevolutionBodySpec) and isinstance(body_l, RevolutionBodySpec):
            smooth = (body_k, body_l)
        return BodyPair("custom", ok, ol,
                        {"K": ok.snapshot(), "L": ol.snapshot()},
                        expect_equal_values=True, expect_noncongruent=True,
                        smooth_specs=smooth)
    return make_pair(args.pair, args.n)


# ---------------------------------------------------------------------------
# defaults


def _is_exact_pair(pair: BodyPair) -> bool:
    return pair.oracle_K.kind == "polytope" and pair.oracle_L.kind == "polytope"


def _default_tol(command: str, pair: BodyPair, args) -> float:
    exact = _is_exact_pair(pair)
    if command == "lemma1":
        return 1e-11 if exact else 1e-8
    if command == "sections":
        if exact:
            return 1e-9
        return {1: 1e-8, 2: 1e-5}.get(args.k, 1e-4)
    if command == "slabs":
        return 1e-9 if exact else 1e-4
    if command == "projections":
        if args.k == 1:
            return 1e-8
        return 1e-9 if exact else 1e-4
    return 1e-9


# ---------------------------------------------------------------------------
# single-experiment runs


def _experiment(cmd: str, pair: BodyPair, rng: RngStream, samples=None, tol=None,
                k=None, i=None, t=None, **options):
    """Run one experiment command on a pair: the one dispatch behind single
    commands and suite entries.  An absent i or t takes the command's
    default; options go to the experiment function."""
    K, L, snaps = pair.oracle_K, pair.oracle_L, pair.snapshots
    if cmd == "lemma1":
        return lemma1_check(K, L, samples, tol, rng, snaps)
    if cmd == "sections":
        return sections_experiment(K, L, k, k if i is None else i, samples, rng,
                                   tol, snapshots=snaps, **options)
    if cmd == "slabs":
        return slab_experiment(K, L, t, K.dim if i is None else i, samples, rng,
                               tol, snapshots=snaps, **options)
    if cmd == "projections":
        return projections_experiment(K, L, k, samples, rng, tol, snapshots=snaps)
    if cmd == "convergence":
        return convergence_experiment(K, sample_sphere(K.dim, rng), i,
                                      t or DEFAULT_T_SEQUENCE, snapshots=snaps,
                                      **options)
    if cmd == "certify":
        return certify_report(pair)
    raise CliError(f"unknown command '{cmd}'")


def _run_single(args) -> tuple:
    pair = _resolve_pair(args)
    cmd = args.command
    tol = args.tol if args.tol is not None else _default_tol(cmd, pair, args)
    samples = getattr(args, "samples", None) or _DEFAULT_SAMPLES.get(cmd)
    t0 = time.perf_counter()
    report = _experiment(cmd, pair, RngStream(args.seed, _STREAM_OF.get(cmd, 0)),
                         samples, tol, k=getattr(args, "k", None),
                         i=getattr(args, "i", None), t=getattr(args, "t", None))
    report.runtime_seconds = time.perf_counter() - t0
    return report, pair


def _section_loop(oracle, sub) -> np.ndarray:
    if oracle.polytope is not None:
        return section_polygon(oracle.polytope, sub).vertices
    return boundary_polyline(section_oracle(oracle, sub), 512).vertices


def _write_report(out: Path, report, written: list) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rp, cp = out / "report.json", out / "samples.csv"
    written.extend([rp, cp])
    write_report_json(rp, report)
    write_samples_csv(cp, report)


def _write_profiles(path: Path, spec_k, spec_l, written: list) -> None:
    written.append(path)
    ts = np.linspace(-1.0, 1.0, 1025)
    render_series_svg(path, "generating profiles", [
        ("f (body K)", ts, profile(spec_k, ts)),
        ("g (body L)", ts, profile(spec_l, ts)),
    ])


def _emit_single(report, pair, args, out: Path, written: list) -> None:
    _write_report(out, report, written)
    if not args.svg:
        return
    if pair.smooth_specs is not None:
        _write_profiles(out / "profiles.svg", *pair.smooth_specs, written)
    sp = out / "rel_diff.svg"
    written.append(sp)
    render_scatter_svg(sp, f"{report.experiment}: per-sample rel_diff",
                       [s.id for s in report.samples],
                       [s.rel_diff for s in report.samples])
    if report.experiment == "sections" and args.k == 2 and pair.oracle_K.dim == 3:
        gp = out / "sections.svg"
        written.append(gp)
        polys = []
        for j in range(min(3, len(report.samples))):
            sub = Subspace(np.reshape(report.samples[j].basis, (3, 2)))
            polys.append((f"K section {j}", _section_loop(pair.oracle_K, sub)))
            polys.append((f"L section {j}", _section_loop(pair.oracle_L, sub)))
        render_polygons_svg(gp, "section overlays", polys)


# ---------------------------------------------------------------------------
# the aggregate suite


# (entry, pair, expected pass, command, stream index, arguments).  Controls
# are expected to FAIL their equality checks; the suite is wrong if they pass.
_SUITE = (
    ("lemma1-smooth", "smooth", True, "lemma1", 10, dict(samples=1000, tol=1e-8)),
    ("lemma1-polytope", "polytope", True, "lemma1", 11, dict(samples=1000, tol=1e-11)),
    ("lemma1-control-shifted", "control-shifted", False, "lemma1", 12,
     dict(samples=500, tol=1e-8)),
    ("sections-polytope-k2-i1", "polytope", True, "sections", 20,
     dict(k=2, i=1, samples=50, tol=1e-9)),
    ("sections-polytope-k2-i2", "polytope", True, "sections", 21,
     dict(k=2, i=2, samples=50, tol=1e-9)),
    ("sections-smooth-k2-i1", "smooth", True, "sections", 22,
     dict(k=2, i=1, samples=30, tol=1e-5)),
    ("sections-smooth-k2-i2", "smooth", True, "sections", 23,
     dict(k=2, i=2, samples=30, tol=1e-5)),
    ("sections-control-rotated-k2-i2", "control-rotated", False, "sections", 24,
     dict(k=2, i=2, samples=20, tol=1e-9)),
    ("sections-control-shifted-k2-i2", "control-shifted", False, "sections", 25,
     dict(k=2, i=2, samples=20, tol=1e-5)),
    ("slabs-polytope-i1", "polytope", True, "slabs", 30, dict(t=0.5, i=1, samples=25, tol=1e-9)),
    ("slabs-polytope-i2", "polytope", True, "slabs", 31, dict(t=0.5, i=2, samples=25, tol=1e-9)),
    ("slabs-polytope-i3", "polytope", True, "slabs", 32, dict(t=0.5, i=3, samples=25, tol=1e-9)),
    ("slabs-smooth-i3", "smooth", True, "slabs", 33,
     dict(t=0.5, i=3, samples=8, tol=1e-4, vol_nodes=50_000)),
    ("projections-smooth-k1", "smooth", True, "projections", 40, dict(k=1, samples=300, tol=1e-8)),
    ("projections-smooth-k2", "smooth", True, "projections", 41, dict(k=2, samples=30, tol=1e-4)),
    ("projections-polytope-k1", "polytope", True, "projections", 42,
     dict(k=1, samples=300, tol=1e-8)),
    ("projections-polytope-k2", "polytope", True, "projections", 43,
     dict(k=2, samples=50, tol=1e-9)),
    ("projections-control-shifted-k1", "control-shifted", True, "projections", 44,
     dict(k=1, samples=100, tol=1e-8)),
    ("convergence-polytope-i2", "polytope", True, "convergence", 50, dict(i=2)),
    ("convergence-smooth-i1", "smooth", True, "convergence", 51, dict(i=1, width_nodes=256)),
    ("certify-smooth", "smooth", True, "certify", 0, {}),
    ("certify-polytope", "polytope", True, "certify", 0, {}),
)


def _run_all(args, written: list) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    named_reports = []
    pairs: dict[str, BodyPair] = {}
    for name, pair_name, expected, cmd, stream, arguments in _SUITE:
        if pair_name not in pairs:
            pairs[pair_name] = make_pair(pair_name)
        t0 = time.perf_counter()
        report = _experiment(cmd, pairs[pair_name], RngStream(args.seed, stream),
                             **arguments)
        report.runtime_seconds = time.perf_counter() - t0
        actual = bool(report.summary["pass"])
        entries.append({
            "name": name,
            "experiment": report.experiment,
            "pair": pair_name,
            "expected_pass": expected,
            "actual_pass": actual,
            "ok": actual == expected,
            "summary": report.summary,
        })
        named_reports.append((name, report))
        _write_report(out / name, report, written)
    ok_count = sum(1 for e in entries if e["ok"])
    suite = {
        "experiment": "all",
        "parameters": {"seed": args.seed, "entries": len(entries)},
        "entries": entries,
        "summary": {
            "pass": ok_count == len(entries),
            "entries_total": len(entries),
            "entries_ok": ok_count,
        },
    }
    rp, cp = out / "report.json", out / "samples.csv"
    written.extend([rp, cp])
    write_report_json(rp, suite)
    write_suite_csv(cp, named_reports)
    if args.svg:
        spec_k = make_revolution_spec()
        _write_profiles(out / "profiles.svg", spec_k, spec_k.partner(), written)
    for e in entries:
        marker = "ok" if e["ok"] else "UNEXPECTED"
        expect = "pass" if e["expected_pass"] else "fail"
        actual = "pass" if e["actual_pass"] else "fail"
        print(f"[{marker}] {e['name']}: expected {expect}, got {actual}")
    return 0 if suite["summary"]["pass"] else FAIL


def _run_construct(args, written: list) -> int:
    if args.out is None or len(args.out) != 2:
        raise CliError("construct requires --out K_PATH L_PATH")
    snaps = make_pair(args.pair, args.n).snapshots
    for path_str, spec in zip(args.out, (snaps["K"], snaps["L"])):
        p = Path(path_str)
        if p.parent != Path(""):
            p.parent.mkdir(parents=True, exist_ok=True)
        written.append(p)
        p.write_text(canonical_json(spec), encoding="utf-8")
        parse_body_spec(p.read_text(encoding="utf-8"))
    print(f"wrote {args.out[0]} and {args.out[1]}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convexlab",
                     description="Numerical checks for noncongruent convex "
                                 "body pairs with matching section, slab, and "
                                 "projection intrinsic volumes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_samples=True):
        p.add_argument("--pair", choices=PAIR_NAMES, default="smooth",
                       help="named fixture pair (default: smooth)")
        p.add_argument("--spec-k", help="JSON body spec file for body K")
        p.add_argument("--spec-l", help="JSON body spec file for body L")
        p.add_argument("--n", type=int, default=3,
                       help="ambient dimension for named pairs (default: 3)")
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default: 0)")
        if with_samples:
            p.add_argument("--samples", type=_positive_int, default=None,
                           help="number of sampled directions/subspaces")
        p.add_argument("--tol", type=float, default=None,
                       help="override the pair-dependent default tolerance")
        p.add_argument("--out", default="convexlab-out",
                       help="output directory (default: convexlab-out)")
        p.add_argument("--svg", action="store_true",
                       help="also write SVG plots")

    pc = sub.add_parser("construct", help="write the body specs of a fixture pair")
    pc.add_argument("--pair", choices=("smooth", "polytope"), default="smooth")
    pc.add_argument("--n", type=int, default=3)
    pc.add_argument("--out", nargs=2, metavar=("K_PATH", "L_PATH"), required=True)

    common(sub.add_parser("lemma1", help="antipodal radial/support pairing check"))

    ps = sub.add_parser("sections", help="intrinsic volumes of k-plane sections")
    common(ps)
    ps.add_argument("--k", type=int, default=2, help="section dimension (default: 2)")
    ps.add_argument("--i", type=int, default=None,
                    help="intrinsic volume index (default: k)")

    pb = sub.add_parser("slabs", help="intrinsic volumes of central slabs")
    common(pb)
    pb.add_argument("--t", type=float, default=0.5, help="slab half-width (default: 0.5)")
    pb.add_argument("--i", type=int, default=None,
                    help="intrinsic volume index (default: dimension)")

    pp = sub.add_parser("projections", help="volumes of k-plane shadows")
    common(pp)
    pp.add_argument("--k", type=int, default=2,
                    help="projection dimension (default: 2)")

    pv = sub.add_parser("convergence", help="slab-to-section limit check")
    common(pv, with_samples=False)
    pv.add_argument("--t", type=float, action="append", default=None,
                    help="slab half-width; repeat for a decreasing sequence "
                         f"(default: {' '.join(str(t) for t in DEFAULT_T_SEQUENCE)})")
    pv.add_argument("--i", type=int, default=1,
                    help="intrinsic volume index (default: 1)")

    common(sub.add_parser("certify", help="noncongruence certificates"),
           with_samples=False)

    pa = sub.add_parser("all", help="full suite with default fixtures")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default="convexlab-out")
    pa.add_argument("--svg", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    written: list[Path] = []
    try:
        args = parser.parse_args(argv)
        if args.command == "construct":
            return _run_construct(args, written)
        if args.command == "all":
            return _run_all(args, written)
        report, pair = _run_single(args)
        _emit_single(report, pair, args, Path(args.out), written)
        passed = bool(report.summary["pass"])
        detail = report.summary.get("max_rel_diff")
        line = f"{report.experiment}: {'PASS' if passed else 'FAIL'}"
        if detail is not None:
            line += f" (max rel_diff {detail:.3e})"
        print(line)
        return 0 if passed else FAIL
    except Exception as exc:  # noqa: BLE001  (CLI boundary: any failure is exit 1)
        for p in written:
            try:
                if p.exists():
                    p.unlink()
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
