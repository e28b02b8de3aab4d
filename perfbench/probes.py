"""Oracle probes: microseconds per direction of single oracle callables at
batch sizes 1, 8192 and 200000, on the default smooth and polytope bodies.

They run in their own phase after every workload pass, so they never enter
a workload's end-to-end numbers.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCHES = (1, 8192, 200_000)
PROBE_BUDGET_S = 0.25  # timing budget per (oracle, batch); at least one call
MAX_CALLS = 2000


def _per_call_seconds(fn, x) -> float:
    times = []
    spent = 0.0
    while spent < PROBE_BUDGET_S and len(times) < MAX_CALLS:
        t0 = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, float]:
    from convexlab.experiments import make_pair

    smooth = make_pair("smooth").oracle_K
    poly = make_pair("polytope").oracle_K
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((max(BATCHES), 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = dirs * rng.uniform(0.0, 1.2, (dirs.shape[0], 1))
    targets = (
        ("revolution_radial", smooth.radial, dirs),
        ("revolution_support", smooth.support, dirs),
        ("revolution_member", smooth.member, points),
        ("polytope_radial", poly.radial, dirs),
        ("polytope_support", poly.support, dirs),
    )
    out = {}
    for name, fn, inputs in targets:
        for b in BATCHES:
            x = inputs[0] if b == 1 else inputs[:b]
            out[f"probe.{name}.us_per_dir.b{b}"] = 1e6 * _per_call_seconds(fn, x) / b
    return out
