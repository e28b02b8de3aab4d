"""Compare what convexlab writes at a base revision with the working tree.

    python3 tools/byte_identity.py BASE_REV [--seed 7]

Exports BASE_REV with `git archive` into a temporary directory and runs one
fixed command list under that tree and under the working tree, the two runs
of each command side by side, with CONVEXLAB_THREADS=1 and the same --seed.
Each command gets its own empty directory and a relative --out, so paths in
the output are the same on both sides.  The output trees, stdout, stderr and
exit codes are compared; every command that differs is printed with the
summary line, methods and first sample of both sides, and the exit status
is 1 if any does.

The list is `all --svg`, every `polytope-exact` and `bulk` command of
perfbench/workloads.py, and EXTRA: a fixed set of commands outside the
suite and the benchmark that reach the smooth-body oracles (sections and
slabs of the smooth pair above and below n = 3, lemma1 at n = 2 and 5, and
k = 1 projections at n = 4), with sample counts kept small.
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

ROOT = Path(__file__).resolve().parents[1]

EXTRA = (
    "sections --pair smooth --n 4 --k 3 --i 1 --samples 2",
    "sections --pair smooth --n 4 --k 3 --i 2 --samples 1",
    "sections --pair smooth --n 5 --k 4 --i 4 --samples 2",
    "slabs --pair smooth --n 2 --i 1 --samples 10",
    "slabs --pair smooth --n 2 --i 2 --samples 10",
    "lemma1 --pair smooth --n 2 --samples 2000",
    "lemma1 --pair smooth --n 5 --samples 2000",
    "projections --pair smooth --n 4 --k 1 --samples 50",
)


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


def compare(base: Path, head: Path, argv: list[str], seed: int, work: Path) -> list[str]:
    """Run argv under both trees at once; the list of parts that differ."""
    procs = [_start(tree, argv, seed, work / side)
             for tree, side in ((base, "base"), (head, "head"))]
    (b_out, b_err), (h_out, h_err) = (p.communicate() for p in procs)
    b_files, h_files = _files(work / "base" / "out"), _files(work / "head" / "out")
    parts = [name for name, b, h in (
        ("exit code", procs[0].returncode, procs[1].returncode),
        ("stdout", b_out, h_out), ("stderr", b_err, h_err)) if b != h]
    parts += [f"file {f}" for f in sorted(set(b_files) | set(h_files))
              if b_files.get(f) != h_files.get(f)]
    if parts:
        parts.append("base " + _describe(b_out, b_err, procs[0].returncode,
                                         work / "base" / "out"))
        parts.append("head " + _describe(h_out, h_err, procs[1].returncode,
                                         work / "head" / "out"))
    return parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="convexlab-identity-") as tmp:
        tmp = Path(tmp)
        export(args.base_rev, tmp / "tree")
        for j, cmd in enumerate(command_list()):
            parts = compare(tmp / "tree", ROOT, cmd, args.seed, tmp / f"run{j}")
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
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
