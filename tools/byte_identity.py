"""Compare what convexlab writes at a base revision with the working tree.

    python3 tools/byte_identity.py BASE_REV [--seed 7]
    python3 tools/byte_identity.py BASE_REV --oracles

Exports BASE_REV with `git archive` into a temporary directory and runs one
fixed command list under that tree and under the working tree, the two runs
of each command side by side, with CONVEXLAB_THREADS=1 and the same --seed.
Each command gets its own empty directory and a relative --out, so paths in
the output are the same on both sides.  The output trees, stdout, stderr and
exit codes are compared; every command that differs is printed with the
summary line, methods and first sample of both sides, and the exit status
is 1 if any does.  A second count names the commands whose verdict moved:
their exit code, or the summary's `pass` or `methods` in any report.json
of their output tree, differs.  A change that moves sampled values on
purpose should leave that count at 0.  DRAWN names the commands whose
verdict the draw decides: off-centre sections and slabs of the translated
pairs, which the paper's equalities do not cover.  There only a move of
`methods` counts; a moved exit code or `pass` prints as `verdict moved
(drawn)`.

The list is `all --svg`, every `polytope-exact` and `bulk` command of
perfbench/workloads.py, and EXTRA: a fixed set of commands outside the
suite and the benchmark that reach the smooth-body oracles (sections and
slabs of the smooth pair above and below n = 3, lemma1 at n = 2 and 5, and
k = 1 projections at n = 4), the profile quadrature of smooth sections and
projections above n = 3 (4-d sections in R^5 for i = 1 to 4, projections
with k = 3 in R^4 and k = 2 to 4 in R^5), the exact V_1 and V_2 of 3-d
polytope sections in R^4 and the hull of a polytope's projected vertices
(k = 2 projections in R^4, the one polytope projection row neither the
suite nor the benchmark reaches), the closed forms of the shifted ball (its
radial, exact-ball sections and projections: 3-d sections in R^4, k = 2
projections in R^3 and k = 3 in R^4, and the exact-ball slab volumes of
n = 3 slabs of `control-shifted` at i = 1 and 3 and of its convergence at
i = 1 and 2), or the work that samples share within one run (the stacked
axial integrals behind smooth slabs at i = 1 and 2 and smooth convergence
at i = 1 and 2, stacked k = 1 widths of the shifted ball and k = 1
segments of the smooth pair), and convergence on the polytope with
half-widths other than the default sequence, with sample counts kept
small; and polytope sections and slabs with hundreds to thousands of
samples, whose stacked vertex enumeration makes thousands of feasibility,
twin and incidence tests against thresholds.  Four commands cover the
sample tables the writers render: lemma1 in R^4 (basis width 4 plus the
d_h column across a CHUNK edge), smooth sections with thousands of samples
(basis width 6, a nonzero stderr on most rows, rule `mixed`), and --svg
runs of lemma1 and sections, whose rel_diff.svg and sections.svg read
sample columns (`all --svg` writes only profiles.svg).  Two commands sit
on the row blocks of grassmann.rowwise: lemma1 of the smooth pair with 820
samples (8,200 reflection probes, two blocks of 4,100) and lemma1 of
`control-shifted` with 5,000 samples (the translated ball's closed-form
radial across seven blocks; it exits 2, as a control should).  The
`control-shifted` slabs at i = 3 exit 2 on the V_3 closed form of a ball
against a translated ball: a slab control that fails as it should.  The
exact-ball rows of 4-d sections in R^5 run on `control-shifted`, which
exits 2.  Four translated pairs, the smooth pair and the 3-d polytope pair
each moved by SHIFT, the 4-d smooth pair moved by SHIFT and 0.05 and the
5-d smooth pair moved by SHIFT, 0.05 and -0.1, are given as spec files
(SPECS, written into each command's directory): `slabs --i 1` reaches the
axial integrals of a translated body of revolution at shifted levels,
`sections --k 2`, `projections --k 2` and `certify` the profile
quadrature of a translate's sections and its base's projections and the
polytope paths that a translated polytope takes, `sections --k 3 --i 1`
in R^4 and R^5 and `sections --k 4 --i 4` in R^5 the section ends of a
translate (roots of its section profile), and `projections --k 3` in R^4
the base's projection quadrature.

--oracles compares the smooth-body oracles themselves instead of the
commands.  One interpreter per tree imports its `convexlab` and evaluates
`revolution_radial`, `revolution_support` and `_revolution_member` for
n = 2..5, every (epsilon, delta) of ORACLE_PARAMS and both variants, on
ORACLE_RANDOM seeded random unit directions plus the poles, the equator,
near-pole rays and a meridian through both bumps, as one batch and again
row by row on the special directions and the first random ones.  Member
points are those directions scaled by seeded factors in [0.9, 1.1].  The
tool prints the count of values that differ in any bit for each function
and exits 1 if any count is nonzero.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

EXTRA = (
    "sections --pair smooth --n 4 --k 3 --i 1 --samples 2",
    "sections --pair smooth --n 4 --k 3 --i 2 --samples 1",
    "sections --pair smooth --n 5 --k 4 --i 4 --samples 2",
    "sections --pair smooth --n 5 --k 4 --i 1 --samples 2",
    "sections --pair smooth --n 5 --k 4 --i 2 --samples 2",
    "sections --pair smooth --n 5 --k 4 --i 3 --samples 2",
    "projections --pair smooth --n 4 --k 3 --samples 2",
    "projections --pair smooth --n 5 --k 2 --samples 2",
    "projections --pair smooth --n 5 --k 3 --samples 2",
    "projections --pair smooth --n 5 --k 4 --samples 2",
    "slabs --pair smooth --n 2 --i 1 --samples 10",
    "slabs --pair smooth --n 2 --i 2 --samples 10",
    "lemma1 --pair smooth --n 2 --samples 2000",
    "lemma1 --pair smooth --n 5 --samples 2000",
    "projections --pair smooth --n 4 --k 1 --samples 50",
    "sections --pair polytope --n 4 --k 3 --i 1 --samples 5",
    "sections --pair polytope --n 4 --k 3 --i 2 --samples 5",
    "projections --pair polytope --n 4 --k 2 --samples 20",
    "sections --pair control-shifted --n 4 --k 3 --i 1 --samples 2",
    "slabs --pair control-shifted --i 1 --samples 2",
    "slabs --pair smooth --i 1 --samples 2",
    "slabs --pair smooth --i 2 --samples 2",
    "convergence --pair smooth --i 1",
    "convergence --pair smooth --i 2",
    "convergence --pair control-shifted --i 1",
    "convergence --pair control-shifted --i 2",
    "convergence --pair polytope --i 2 --t 0.5 --t 0.3 --t 0.1",
    "projections --pair control-shifted --k 1 --samples 50",
    "projections --pair control-shifted --k 2",
    "projections --pair control-shifted --n 4 --k 3",
    "sections --pair smooth --k 1 --samples 50",
    "sections --pair polytope --k 2 --i 1 --samples 2000",
    "sections --pair polytope --n 4 --k 3 --i 3 --samples 300",
    "slabs --pair polytope --i 1 --samples 500",
    "slabs --pair polytope --i 3 --samples 500",
    "sections --pair control-rotated --n 4 --k 2 --samples 500",
    "lemma1 --pair polytope --n 4 --samples 5000",
    "sections --pair smooth --k 2 --i 2 --samples 4200",
    "lemma1 --pair smooth --samples 200 --svg",
    "sections --pair smooth --k 2 --samples 3 --svg",
    "lemma1 --pair smooth --samples 820",
    "lemma1 --pair control-shifted --samples 5000",
    "slabs --pair control-shifted --i 3 --samples 3",
    "sections --pair control-shifted --n 5 --k 4 --i 1 --samples 2",
) + tuple(f"{command} --spec-k {pair}-k.json --spec-l {pair}-l.json"
          for pair in ("translated-smooth", "translated-polytope")
          for command in ("slabs --i 1 --samples 2", "sections --k 2 --samples 3",
                          "projections --k 2 --samples 3", "certify")) + (
    "sections --n 4 --k 3 --i 1 --samples 3"
    " --spec-k translated-smooth-4-k.json --spec-l translated-smooth-4-l.json",
    "projections --k 3 --samples 3"
    " --spec-k translated-smooth-4-k.json --spec-l translated-smooth-4-l.json",
    "sections --k 3 --i 1 --samples 3"
    " --spec-k translated-smooth-5-k.json --spec-l translated-smooth-5-l.json",
    "sections --k 4 --i 4 --samples 2"
    " --spec-k translated-smooth-5-k.json --spec-l translated-smooth-5-l.json",)

DRAWN = {f"{command} --spec-k {pair}-k.json --spec-l {pair}-l.json"
         for pair in ("translated-smooth", "translated-polytope")
         for command in ("slabs --i 1 --samples 2", "sections --k 2 --samples 3")}

SHIFT = [0.1, -0.05, 0.2]
SPECS = {f"{pair}-{variant.lower()}.json": {"type": "derived", "transform": "translate",
                                             "base": {**base, "variant": variant},
                                             "shift": shift}
         for pair, base, shift in (
             ("translated-smooth", {"type": "revolution"}, SHIFT),
             ("translated-polytope", {"type": "polytope", "a": [1.0, 1.2, 1.5]}, SHIFT),
             ("translated-smooth-4", {"type": "revolution", "n": 4}, SHIFT + [0.05]),
             ("translated-smooth-5", {"type": "revolution", "n": 5}, SHIFT + [0.05, -0.1]))
         for variant in "KL"}

ORACLE_PARAMS = ((1e-3, 0.1), (0.0, 0.1), (4e-3, 0.16), (2e-3, 0.05), (1e-3, 0.155))
ORACLE_RANDOM = 100_000
ORACLE_SINGLE = 200  # random rows also evaluated one call each
ORACLE_WORKER = "import sys, byte_identity; byte_identity.oracle_values(sys.argv[1])"


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_convexlab_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def command_list() -> list[list[str]]:
    workloads = _workloads()
    argvs = [["all", "--svg"]]
    for name in ("polytope-exact", "bulk"):
        argvs += [list(c.argv) for c in workloads[name].commands]
    return argvs + [m.split() for m in EXTRA]


def export(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _start(tree: Path, argv: list[str], seed: int, cwd: Path) -> subprocess.Popen:
    cwd.mkdir(parents=True)
    for name, spec in SPECS.items():
        (cwd / name).write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, CONVEXLAB_THREADS="1", PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "convexlab.cli", *argv, "--seed", str(seed), "--out", "out"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _files(out: Path) -> dict[str, bytes]:
    if not out.exists():
        return {}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _describe(stdout: bytes, stderr: bytes, code: int, out: Path) -> str:
    lines = (stdout or stderr).decode().strip().splitlines()
    text = f"exit {code}: {lines[-1] if lines else ''}"
    report = out / "report.json"
    if report.exists():
        data = json.loads(report.read_text(encoding="utf-8"))
        if "methods" in data["summary"]:
            text += f" methods {data['summary']['methods']}"
        if data.get("samples"):
            first = data["samples"][0]
            text += (f"; sample 0 K {first['value_K']!r} L {first['value_L']!r}"
                     f" stderr {first['stderr']:.2g}")
    return text


def _verdicts(files: dict[str, bytes]) -> dict[str, tuple]:
    """(summary pass, summary methods) of every report.json of an output tree."""
    out = {}
    for name, data in files.items():
        if Path(name).name == "report.json":
            summary = json.loads(data)["summary"]
            out[name] = (summary.get("pass"), summary.get("methods"))
    return out


def compare(base: Path, head: Path, argv: list[str], seed: int,
            work: Path) -> tuple[list[str], bool]:
    """Run argv under both trees at once; the list of parts that differ,
    and whether the verdict moved outside DRAWN (see the module docstring)."""
    procs = [_start(tree, argv, seed, work / side)
             for tree, side in ((base, "base"), (head, "head"))]
    (b_out, b_err), (h_out, h_err) = (p.communicate() for p in procs)
    b_files, h_files = _files(work / "base" / "out"), _files(work / "head" / "out")
    parts = [name for name, b, h in (
        ("exit code", procs[0].returncode, procs[1].returncode),
        ("stdout", b_out, h_out), ("stderr", b_err, h_err)) if b != h]
    parts += [f"file {f}" for f in sorted(set(b_files) | set(h_files))
              if b_files.get(f) != h_files.get(f)]
    b_verdicts, h_verdicts = _verdicts(b_files), _verdicts(h_files)
    moved = procs[0].returncode != procs[1].returncode or b_verdicts != h_verdicts
    if moved and " ".join(argv) in DRAWN:  # only a move of the methods counts
        moved = ({k: m for k, (_, m) in b_verdicts.items()}
                 != {k: m for k, (_, m) in h_verdicts.items()})
        if not moved:
            parts.append("verdict moved (drawn)")
    if moved:
        parts.append("verdict moved")
    if parts:
        parts.append("base " + _describe(b_out, b_err, procs[0].returncode,
                                         work / "base" / "out"))
        parts.append("head " + _describe(h_out, h_err, procs[1].returncode,
                                         work / "head" / "out"))
    return parts, moved


def oracle_directions(n: int) -> np.ndarray:
    """Seeded random unit directions, then the special ones."""
    dirs = [np.random.default_rng([n, 0]).standard_normal((ORACLE_RANDOM, n))]
    for s in (1.0, -1.0):
        pole = np.zeros((1, n))
        pole[0, -1] = s
        p = 10.0 ** -np.arange(1.0, 16.5, 0.5)  # |theta'| from 0.1 to 1e-16
        near = np.zeros((p.size, n))
        near[:, 0], near[:, -1] = p, s * np.sqrt(1.0 - p * p)
        dirs += [pole, near]
    ts = np.linspace(-1.0, 1.0, 401)
    meridian = np.zeros((ts.size, n))
    meridian[:, 0], meridian[:, -1] = np.sqrt(1.0 - ts * ts), ts
    dirs.append(meridian)
    dirs = np.vstack(dirs)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def oracle_values(path: str) -> None:
    """Write every oracle value of the --oracles sweep to path (.npz)."""
    from convexlab.bodies import (_revolution_member, make_revolution_spec,
                                  revolution_radial, revolution_support)
    funcs = {"revolution_radial": revolution_radial,
             "revolution_support": revolution_support,
             "_revolution_member": _revolution_member}
    values = {name: [] for name in funcs}
    for n in range(2, 6):
        dirs = oracle_directions(n)
        scale = np.random.default_rng([n, 1]).uniform(0.9, 1.1, (dirs.shape[0], 1))
        single = np.r_[0:ORACLE_SINGLE, ORACLE_RANDOM:dirs.shape[0]]
        for epsilon, delta in ORACLE_PARAMS:
            for variant in "KL":
                spec = make_revolution_spec(n, epsilon, delta, variant)
                for name, fn in funcs.items():
                    rows = dirs * scale if name == "_revolution_member" else dirs
                    values[name].append(np.asarray(fn(spec, rows)))
                    values[name].append(np.array([fn(spec, rows[j]) for j in single]))
    np.savez(path, **{name: np.concatenate(v) for name, v in values.items()})


def compare_oracles(base: Path, work: Path) -> int:
    """Run the oracle sweep under both trees; the total mismatch count."""
    paths = {}
    for tree, side in ((base, "base"), (ROOT, "head")):
        paths[side] = work / f"{side}.npz"
        env = dict(os.environ, CONVEXLAB_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "tools")]))
        subprocess.run([sys.executable, "-c", ORACLE_WORKER, str(paths[side])],
                       env=env, check=True)
    with np.load(paths["base"]) as b, np.load(paths["head"]) as h:
        total = 0
        for name in b.files:
            bits_b, bits_h = b[name], h[name]
            if bits_b.dtype == np.float64:  # compare bits, so a NaN equals itself
                bits_b, bits_h = bits_b.view(np.uint64), bits_h.view(np.uint64)
            mismatches = int(np.count_nonzero(bits_b != bits_h))
            total += mismatches
            print(f"{name}: {mismatches} mismatches in {bits_b.size} values")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--oracles", action="store_true",
                        help="compare the smooth-body oracle values, not the commands")
    args = parser.parse_args(argv)
    differing = verdicts = 0
    with tempfile.TemporaryDirectory(prefix="convexlab-identity-") as tmp:
        tmp = Path(tmp)
        export(args.base_rev, tmp / "tree")
        if args.oracles:
            return 1 if compare_oracles(tmp / "tree", tmp) else 0
        for j, cmd in enumerate(command_list()):
            parts, moved = compare(tmp / "tree", ROOT, cmd, args.seed, tmp / f"run{j}")
            verdicts += moved
            label = " ".join(cmd + ["--seed", str(args.seed)])
            if parts:
                differing += 1
                print(f"DIFFERS {label}")
                for part in parts:
                    print(f"    {part}")
            else:
                print(f"same    {label}")
            sys.stdout.flush()
    print(f"{differing} command(s) differ")
    print(f"{verdicts} command(s) differ in a verdict")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
