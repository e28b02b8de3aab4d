"""The benchmark's workloads: which convexlab commands each one runs, the
exit status each command must return, and the fixture pairs it builds.

A workload is a closed loop of one client: the commands run one after the
other in a single interpreter, each through ``convexlab.cli.main(argv)``.
The workload seed is appended to every command as ``--seed``; the program
receives nothing else from the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

PASS, CHECK_FAILED = 0, 2  # convexlab exit statuses: 2 is a failed check


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # without --seed and --out, which the run appends
    expect: int = PASS

    @property
    def slug(self) -> str:
        return "_".join(a.lstrip("-") for a in self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: tuple[tuple[str, int], ...]  # (pair, n) that set-up builds
    commands: tuple[Command, ...]


def _cmds(*rows) -> tuple[Command, ...]:
    return tuple(Command(tuple(r.split())) if isinstance(r, str)
                 else Command(tuple(r[0].split()), r[1]) for r in rows)


WORKLOADS = {w.name: w for w in (
    Workload(
        "suite",
        (("smooth", 3), ("polytope", 3), ("control-rotated", 3),
         ("control-shifted", 3)),
        _cmds("all"),
    ),
    Workload(
        "polytope-exact",
        (("polytope", 3), ("polytope", 4), ("control-rotated", 3)),
        _cmds(
            "sections --pair polytope --k 2 --i 1",
            "sections --pair polytope --k 2 --i 2",
            "sections --pair polytope --n 4 --k 2",
            "sections --pair polytope --n 4 --k 3",
            "slabs --pair polytope --i 1",
            "slabs --pair polytope --i 2",
            "slabs --pair polytope --i 3",
            "projections --pair polytope --k 1",
            "projections --pair polytope --k 2",
            "projections --pair polytope --n 4 --k 3",
            "convergence --pair polytope",
            "certify --pair polytope",
            ("sections --pair control-rotated --k 2", CHECK_FAILED),
        ),
    ),
    Workload(
        "bulk",
        (("smooth", 3), ("polytope", 3), ("control-shifted", 3)),
        _cmds(
            "lemma1 --pair smooth --samples 20000",
            "lemma1 --pair polytope --samples 20000",
            "certify --pair control-shifted",
        ),
    ),
)}

# the entries of `convexlab all`, in the order the suite runs them
SUITE_ENTRIES = (
    "lemma1-smooth", "lemma1-polytope", "lemma1-control-shifted",
    "sections-polytope-k2-i1", "sections-polytope-k2-i2",
    "sections-smooth-k2-i1", "sections-smooth-k2-i2",
    "sections-control-rotated-k2-i2", "sections-control-shifted-k2-i2",
    "slabs-polytope-i1", "slabs-polytope-i2", "slabs-polytope-i3",
    "slabs-smooth-i3", "projections-smooth-k1", "projections-smooth-k2",
    "projections-polytope-k1", "projections-polytope-k2",
    "projections-control-shifted-k1", "convergence-polytope-i2",
    "convergence-smooth-i1", "certify-smooth", "certify-polytope",
)
