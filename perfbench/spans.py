"""Span tracer that instruments convexlab from outside.

``Tracer.installed()`` replaces chosen convexlab functions with timing
wrappers in the namespace of every convexlab module that binds them, so a
call is traced whichever module makes it.  The oracle factories are wrapped
so that the oracles they return carry wrapped radial/support/member
callables.  Leaving the context puts every original back; the package
sources are never touched.

A span's self time is its duration minus the time of the traced spans it
called.  Fine-grained spans (oracles, estimators, kernels) are aggregated
by name as they close; coarse spans (command, experiment, report writer)
are also kept one by one, with their parent, for the per-entry breakdown.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ORACLE_KINDS = ("revolution", "polytope", "section", "slab", "translate", "ball")
ORACLE_METHODS = ("radial", "support", "member")
ORACLE_FACTORIES = (
    ("bodies", "oracle_of"), ("bodies", "ball_oracle"),
    ("transforms", "section_oracle"), ("transforms", "slab_oracle"),
    ("transforms", "translate_oracle"),
)
SPANNED = {
    "intrinsic": ("planar_metrics_from_oracle", "volume_radial", "mean_width_v1",
                  "hull_surface_v2", "area_from_support_2d",
                  "support_from_radial", "centroid_3d"),
    "polykernel": ("section_polygon", "poly3_intrinsic_volumes",
                   "enumerate_vertices", "convex_hull_2d", "projection_polygon"),
    "transforms": ("max_slab_halfwidth",),
    "grassmann": ("sample_haar_subspace",),
    "experiments": ("lemma1_check", "sections_experiment", "slab_experiment",
                    "projections_experiment", "convergence_experiment",
                    "certify_report"),
    "report": ("write_report_json", "write_samples_csv", "write_suite_csv"),
    "cli": ("main",),
}
COARSE_MODULES = ("cli", "experiments", "report")


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, rows, total_s, self_s]
        self.spans: list[list] = []       # [id, parent id, name, start, end, note]
        self.report_bytes = 0
        self._stack: list[list] = []      # open spans: [child_s, coarse id]
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, count_rows=False, coarse=False, after=None):
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapped(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if coarse:
                frame[1] = len(spans)
                record = [len(spans), parent, name, 0.0, 0.0,
                          args[0] if name == "cli.main" else None]
                spans.append(record)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[2] += dur
                stats[3] += dur - frame[0]
                if count_rows:
                    stats[1] += _rows(args[0])
                if coarse:
                    record[3], record[4] = t0, t1
            if after is not None:
                after(args)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_oracle(self, oracle):
        if oracle.kind not in ORACLE_KINDS or hasattr(oracle.radial, "__wrapped__"):
            return oracle  # e.g. polytope-slab reuses already wrapped callables
        return dataclasses.replace(oracle, **{
            m: self._wrap(f"oracle.{oracle.kind}.{m}", getattr(oracle, m),
                          count_rows=True)
            for m in ORACLE_METHODS})

    def _wrap_factory(self, fn):
        def factory(*args, **kwargs):
            return self._wrap_oracle(fn(*args, **kwargs))

        factory.__wrapped__ = fn
        return factory

    def _count_bytes(self, args):
        self.report_bytes += Path(args[0]).stat().st_size

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, modules, original, replacement):
        for module in modules:
            ns = vars(module)
            for attr, value in list(ns.items()):
                if value is original:
                    ns[attr] = replacement
                    self._patched.append((ns, attr, original))

    @contextmanager
    def installed(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "convexlab" or n.startswith("convexlab.")]
        pkg = {m.__name__.rpartition(".")[2]: m for m in modules}
        try:
            for mod, fname in ORACLE_FACTORIES:
                original = getattr(pkg[mod], fname)
                self._replace_everywhere(modules, original,
                                         self._wrap_factory(original))
            for mod, fnames in SPANNED.items():
                for fname in fnames:
                    original = getattr(pkg[mod], fname)
                    after = self._count_bytes if mod == "report" else None
                    wrapper = self._wrap(f"{mod}.{fname}", original,
                                         coarse=mod in COARSE_MODULES,
                                         after=after)
                    self._replace_everywhere(modules, original, wrapper)
            yield self
        finally:
            for ns, attr, original in reversed(self._patched):
                ns[attr] = original
            self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values keyed by metric name; absent spans read 0."""
        def get(name):
            return self.stats.get(name, [0, 0, 0.0, 0.0])

        out: dict[str, float] = {}
        for kind in ORACLE_KINDS:
            for method in ORACLE_METHODS:
                base = f"oracle.{kind}.{method}"
                calls, rows, _, self_s = get(base)
                out[f"{base}.calls"] = calls
                out[f"{base}.dirs"] = rows
                out[f"{base}.self_s"] = self_s
        for mod, fnames in SPANNED.items():
            for fname in fnames:
                name = f"{mod}.{fname}"
                calls, _, total, self_s = get(name)
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
                out[f"{name}.ms_per_call"] = 1e3 * total / calls if calls else 0.0
        out["report.bytes"] = self.report_bytes
        return out

    def suite_entry_seconds(self) -> list[float]:
        """Seconds of each `convexlab all` entry, in run order: from the
        start of its experiment call to the end of its samples.csv write."""
        mains = {s[0] for s in self.spans
                 if s[2] == "cli.main" and s[5] and s[5][0] == "all"}
        out, start = [], None
        for _, parent, name, t0, t1, _ in self.spans:
            if parent not in mains:
                continue
            if name.startswith("experiments."):
                start = t0
            elif name == "report.write_samples_csv" and start is not None:
                out.append(t1 - start)
                start = None
        return out

    def to_json(self) -> dict:
        return {
            "stats": {name: dict(zip(("calls", "rows", "total_s", "self_s"), v))
                      for name, v in sorted(self.stats.items())},
            "spans": [dict(zip(("id", "parent", "name", "start", "end", "argv"), s))
                      for s in self.spans],
            "report_bytes": self.report_bytes,
        }
