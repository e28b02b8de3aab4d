"""convexlab benchmark: one workload at one seed, one JSON result line.

    python3 perfbench/run.py --workload suite --seed 7 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` by absolute path, so nothing needs installing.  A run has phases:

1. set-up: SETUP_REPS fresh interpreters (after one uncounted warm-up) each
   import convexlab and build the workload's fixture pairs; setup_s is the
   median of their wall times.
2. passes: this interpreter imports convexlab once and runs the workload's
   commands through ``convexlab.cli.main(argv)``, pass after pass, until
   another pass would overrun --seconds (always at least one pass).  wall_s
   and cpu_s are per-pass medians; peak_rss_mb is the process high-water
   mark after the passes.
3. gate (gate.py): exit statuses, report schema, byte identity with the
   first pass, and 22/22 for the suite.  Every failure counts in `failed`.
4. --trace 1 only: one more pass with the span tracer installed (spans.py),
   then the oracle probes (probes.py).  This run reports the per-layer
   metrics; --trace 0 reports the end-to-end ones.

The last line of standard output is the result; the full record, with the
environment, is written to .perfbench_out/<run>/result.json.
"""

from __future__ import annotations

import os

# BLAS pools size themselves at the first numpy import: fix the cap first.
BLAS_THREADS = 1
for _var in ("CONVEXLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SUITE_ENTRIES, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
MAX_PASSES = 50
SETUP_CODE = """\
import sys
import convexlab.cli
from convexlab.experiments import make_pair
for arg in sys.argv[1:]:
    pair, n = arg.split(":")
    make_pair(pair, int(n))
"""


def tree_digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Pass:
    out_dir: Path
    wall_s: float
    cpu_s: float
    command_s: list[float]
    codes: list[int]
    digests: list[str]


def measure_setup(workload: Workload, env: dict) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE] + [f"{p}:{n}" for p, n in workload.fixtures]
    times = []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to
        # its polling step of up to 50 ms
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if rep:  # the first interpreter also compiles the bytecode cache
            times.append(time.perf_counter() - t0)
    return times


def command_dirs(workload: Workload, out_dir: Path) -> list[Path]:
    return [out_dir / f"{i:02d}-{c.slug}" for i, c in enumerate(workload.commands)]


def run_pass(cli, workload: Workload, seed: int, out_dir: Path, log) -> Pass:
    outs = command_dirs(workload, out_dir)
    argvs = [list(c.argv) + ["--seed", str(seed), "--out", str(o)]
             for c, o in zip(workload.commands, outs)]
    codes, secs = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with redirect_stdout(log), redirect_stderr(log):
        for argv in argvs:
            c0 = time.perf_counter()
            codes.append(cli.main(argv))
            secs.append(time.perf_counter() - c0)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    digests = [tree_digest(o) if o.is_dir() else "missing" for o in outs]
    return Pass(out_dir, wall, cpu, secs, codes, digests)


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC / "convexlab"),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "jsonschema": metadata.version("jsonschema"),
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes for about this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared_path = ROOT / "BENCHMARK.json"
    if not (SRC / "convexlab" / "cli.py").is_file() or not declared_path.is_file():
        print(f"perfbench: run from a convexlab checkout; no {SRC / 'convexlab'}"
              f" or {declared_path}", file=sys.stderr)
        return 2
    declared = json.loads(declared_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    run_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_times = measure_setup(workload, env)

    sys.path.insert(0, str(SRC))
    import convexlab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "convexlab").resolve():
        print(f"perfbench: imported convexlab from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    log = io.StringIO()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload, args.seed,
                               run_dir / f"pass{len(passes)}", log))
        if len(passes) > 1:  # the gate reads the first pass; later ones are digested
            shutil.rmtree(passes[-1].out_dir)
        elapsed = time.perf_counter() - start
        median_wall = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MAX_PASSES or elapsed + median_wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from gate import Gate

    gate = Gate(SRC / "convexlab" / "report.schema.json")
    inspected = [gate.inspect(d) for d in command_dirs(workload, passes[0].out_dir)]
    margins = [m for _, ms in inspected for m in ms]
    failures = []

    def judge(label, run: Pass):
        for i, cmd in enumerate(workload.commands):
            problems = list(inspected[i][0])
            if run.codes[i] != cmd.expect:
                problems.append(f"exit status {run.codes[i]}, expected {cmd.expect}")
            if run.digests[i] != passes[0].digests[i]:
                problems.append("report bytes differ from the first pass")
            if problems:
                failures.append({"pass": label, "command": " ".join(cmd.argv),
                                 "problems": problems})

    for k, p in enumerate(passes):
        judge(k, p)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    runs = list(passes)

    if args.trace:
        from probes import run_probes
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(cli, workload, args.seed, run_dir / "traced", log)
        runs.append(traced)
        judge("traced", traced)
        values.update(tracer.layer_metrics())
        entry_s = tracer.suite_entry_seconds() if workload.name == "suite" else []
        for k, name in enumerate(SUITE_ENTRIES):
            values[f"suite.{name}.s"] = entry_s[k] if k < len(entry_s) else 0.0
        values["verdict.margin_max"] = max(margins, default=0.0)
        values["trace.overhead_frac"] = traced.wall_s / values["wall_s"] - 1.0
        values.update(run_probes(args.seed))
        (run_dir / "trace.json").write_text(json.dumps(tracer.to_json()),
                                            encoding="utf-8")

    for p in runs:
        shutil.rmtree(p.out_dir, ignore_errors=True)
    (run_dir / "program_output.txt").write_text(log.getvalue(), encoding="utf-8")

    attempted = sum(len(p.codes) for p in runs)
    failed = len(failures)
    section = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "result": result,
        "environment": environment(args, len(passes)),
        "end_to_end": {k: values[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")},
        "fail_frac": failed / attempted,
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s": setup_times,
        "command_s": {" ".join(c.argv): [p.command_s[i] for p in passes]
                      for i, c in enumerate(workload.commands)},
        "verdict_margins": margins,
        "failures": failures,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace}")
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
        unit = next(m["unit"] for m in declared["end_to_end"] if m["name"] == name)
        print(f"  {name:<12} {values[name]:12.4f} {unit}")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} fraction "
          f"({failed} of {attempted} commands)")
    for f in failures:
        print(f"  FAILED [{f['pass']}] {f['command']}: {'; '.join(f['problems'])}")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
