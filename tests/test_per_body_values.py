"""Experiments evaluate each body once for all their samples: k = 1 widths
and segments come from one stacked oracle call, the slabs of one run
share their parent's radial values on the fixed quadrature grids, the
slabs of a 3-d body of revolution come from stacked axial integrals,
the sections and slabs of a polytope (convergence runs included) are
enumerated in stacks, and each projection basis is checked once for both
bodies.  Every value must equal, with ==, the value its sample gets alone,
and the shared calls must not grow with the sample count."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from convexlab import grassmann, intrinsic, polykernel
from convexlab.experiments import (BodyPair, _body_value, _grid_slabs, _orthogonal_complement,
                                   body_from_record, convergence_experiment, make_pair,
                                   projections_experiment, sections_experiment,
                                   slab_experiment)
from convexlab.grassmann import RngStream, Subspace, rowwise, sample_haar_bases
from convexlab.transforms import SlabSpec, section_oracle, slab_oracle


def _slab_alone(body, xi, t, i):
    """(V_i, stderr, method) of body cap S_t(xi) from its estimator alone:
    the axial integrals of one slab for a 3-d body of revolution, else the
    estimator table on the slab's oracle."""
    if body.revolution is not None and body.dim == 3:
        return intrinsic.revolution_slab_volumes(body.revolution, xi[None], np.array([-t]),
                                                 np.array([t]), i)[0]
    return _body_value(slab_oracle(body, SlabSpec(xi, t)), i, 20_000, 512)


def _counting(oracle, method: str, rows: list):
    """oracle, with `method` recording the row count of every call."""
    fn = getattr(oracle, method)

    @rowwise
    def counted(x):
        rows.append(x.shape[0])
        return fn(x)

    return dataclasses.replace(oracle, **{method: counted})


@pytest.mark.parametrize("name, n", [("smooth", 3), ("smooth", 4), ("control-shifted", 3)])
def test_k1_projections_equal_one_direction_widths(name, n):
    pair = make_pair(name, n)
    rng = RngStream(7, 40)
    rep = projections_experiment(pair.oracle_K, pair.oracle_L, 1, 40, rng, 1e-8)
    us = sample_haar_bases(n, 1, 40, rng)[:, :, 0]
    for vk, vl, u in zip(rep.samples.value_K, rep.samples.value_L, us, strict=True):
        assert vk == pair.oracle_K.support(u) + pair.oracle_K.support(-u)
        assert vl == pair.oracle_L.support(u) + pair.oracle_L.support(-u)


def test_k1_sections_equal_one_direction_segments(smooth_pair):
    K, L = smooth_pair.oracle_K, smooth_pair.oracle_L
    rng = RngStream(7, 2)
    rep = sections_experiment(K, L, 1, 1, 40, rng, 1e-8)
    us = sample_haar_bases(3, 1, 40, rng)[:, :, 0]
    for vk, vl, u in zip(rep.samples.value_K, rep.samples.value_L, us, strict=True):
        assert vk == K.radial(u) + K.radial(-u)
        assert vl == L.radial(u) + L.radial(-u)


@pytest.mark.parametrize("name, n, i", [
    ("smooth", 2, 1), ("smooth", 2, 2), ("smooth", 3, 1), ("smooth", 3, 2),
    ("smooth", 3, 3), ("control-shifted", 3, 3), ("polytope", 3, 1), ("polytope", 3, 3)])
def test_slabs_equal_one_slab_values(name, n, i):
    pair = make_pair(name, n)
    rng = RngStream(7, 30 + i)
    rep = slab_experiment(pair.oracle_K, pair.oracle_L, 0.5, i, 3, rng, 1e-3,
                          vol_nodes=20_000)
    xis = sample_haar_bases(n, 1, 3, rng)[:, :, 0]
    s = rep.samples
    for vk_run, vl_run, err_run, xi in zip(s.value_K, s.value_L, s.stderr, xis, strict=True):
        vk, sk, _ = _slab_alone(pair.oracle_K, xi, 0.5, i)
        vl, sl, _ = _slab_alone(pair.oracle_L, xi, 0.5, i)
        assert (vk_run, vl_run, err_run) == (vk, vl, sk + sl)


@pytest.mark.parametrize("n, k, i", [(3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 3, 1), (4, 3, 3)])
def test_polytope_sections_equal_one_section_values(n, k, i):
    pair = make_pair("polytope", n)
    rng = RngStream(7, 20 + k)
    rep = sections_experiment(pair.oracle_K, pair.oracle_L, k, i, 60, rng, 1e-9)
    bases = sample_haar_bases(n, k, 60, rng)
    for vk_run, vl_run, basis in zip(rep.samples.value_K, rep.samples.value_L, bases,
                                     strict=True):
        vk = _body_value(section_oracle(pair.oracle_K, Subspace(basis)), i, None, 512)[0]
        vl = _body_value(section_oracle(pair.oracle_L, Subspace(basis)), i, None, 512)[0]
        assert (vk_run, vl_run) == (vk, vl)


@pytest.mark.parametrize("name, body", [("smooth", "K"), ("polytope", "K"),
                                        ("control-shifted", "K"), ("control-shifted", "L")])
@pytest.mark.parametrize("i", [1, 2])
def test_convergence_equals_one_slab_values(name, body, i):
    """Each slab value is the one its slab gets alone, and the
    section value the one its section gets alone from the same estimator:
    the closed form for a ball or translated ball, the profile quadrature
    for a body of revolution, else the section oracle's."""
    oracle = getattr(make_pair(name), "oracle_" + body)
    xi = sample_haar_bases(3, 1, 1, RngStream(7, 5))[0, :, 0]
    ts = (0.4, 0.2, 0.1)
    rep = convergence_experiment(oracle, xi, i, ts)
    for vk, t in zip(rep.samples.value_K, ts, strict=True):
        assert vk == _slab_alone(oracle, xi, t, i)[0]
    basis = _orthogonal_complement(xi)
    if oracle.ball is not None:
        section = intrinsic.ball_section_volumes(oracle.ball, basis[None], i)[0][0]
    elif oracle.revolution is not None:
        section = intrinsic.revolution_section_volumes(oracle, basis[None], i)[0][0]
    else:
        section = _body_value(section_oracle(oracle, Subspace(basis)), i, None, 512)[0]
    assert rep.summary["section_value"] == section
    assert list(rep.samples.value_L) == [section] * len(ts)


def test_k1_runs_make_one_oracle_call_per_body(smooth_pair):
    """Whatever the sample count: one stacked support call per body for
    k = 1 projections and one stacked radial call for k = 1 sections."""
    for samples in (3, 9):
        support, radial = [[], []], [[], []]
        pair = [_counting(_counting(o, "support", support[b]), "radial", radial[b])
                for b, o in enumerate((smooth_pair.oracle_K, smooth_pair.oracle_L))]
        projections_experiment(*pair, 1, samples, RngStream(7, 4), 1e-8)
        sections_experiment(*pair, 1, 1, samples, RngStream(7, 2), 1e-8)
        assert support == [[2 * samples]] * 2
        assert radial == [[2 * samples]] * 2


@pytest.mark.parametrize("n, i, grids", [
    (2, 1, {8192}),                 # the polyline's circle
    (3, 1, set()),                  # none: closed-form supports and inner radius
    (3, 2, {20_000, 10_000}),       # hull_surface_v2
    (3, 3, {4096, 2048}),           # volume_radial at vol_nodes = 4096
])
def test_slab_grid_calls_do_not_grow_with_samples(n, i, grids):
    """Nor does the memo, which keeps only shared grid blocks, so the
    traced peak stays put.

    The slabs of a 3-d body of revolution take no grid (the axial
    integrals), so n = 3 is counted on `control-shifted`, a ball and its
    translate, whose slabs go through the memo."""
    # a grid of more than BLOCK rows reaches the parent in rowwise's blocks:
    # 20,000 as 6,666 + 6,667 + 6,667 rows and 10,000 as 2 x 5,000
    sizes = {b - a for g in grids for a, b in grassmann.blocks(g)}
    pair = make_pair("smooth" if n == 2 else "control-shifted", n)
    counts, peaks = [], []
    for samples in (2, 5):
        rows = [[], []]
        K, L = (_counting(o, "radial", r) for o, r in zip((pair.oracle_K, pair.oracle_L), rows))
        tracemalloc.start()
        try:
            slab_experiment(K, L, 0.5, i, samples, RngStream(7, 3), 1e-2, vol_nodes=4096)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append([sorted(x for x in r if x in sizes) for r in rows])
    # at i = 2 the 10,000 rows are hull_surface_v2's N/2 grid
    assert counts[0] == counts[1]
    assert [set(c) for c in counts[0]] == [sizes, sizes]
    assert peaks[1] < peaks[0] + 1e6, peaks


def test_slab_grid_memo_answers_an_empty_stack(smooth_pair):
    xis, ts = np.eye(3)[:2], np.full(2, 0.5)
    for slab in _grid_slabs(smooth_pair.oracle_K, xis, ts):
        for _ in range(2):  # a miss, then a hit
            assert slab.radial(np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_smooth_slabs_make_one_stacked_solve_per_body(smooth_pair, monkeypatch, i):
    """The slabs of a body of revolution take one maximiser call and one
    rim-root solve per body for every PROFILE_CHUNK samples (V_1 one more
    solve, of the rims' widest chords), whatever the sample count, and never
    call the body's radial or support."""
    solves = []
    for name in ("_safeguarded_newton", "revolution_maximiser"):
        fn = getattr(intrinsic, name)
        monkeypatch.setattr(intrinsic, name, lambda *a, fn=fn, name=name, **k:
                            solves.append(name) or fn(*a, **k))
    for samples in (2, 5):
        solves.clear()
        calls = [[], [], [], []]
        K, L = (_counting(_counting(o, "support", calls[2 * b]), "radial", calls[2 * b + 1])
                for b, o in enumerate((smooth_pair.oracle_K, smooth_pair.oracle_L)))
        slab_experiment(K, L, 0.5, i, samples, RngStream(7, 3), 1e-2)
        # per body: the maximisers, the rim roots and, for V_1, the widest chords
        per_body = ["revolution_maximiser", "_safeguarded_newton"] + (
            ["_safeguarded_newton"] if i == 1 else [])
        assert solves == per_body * 2
        assert calls == [[], [], [], []]


@pytest.mark.parametrize("run", ["sections-k2", "sections-k3", "slabs", "convergence"])
def test_polytope_runs_enumerate_in_stacks(run, monkeypatch):
    """A polytope section or slab run of S samples makes ceil(S / CHUNK)
    stacked enumerations per body, CHUNK polytopes at most each; a
    convergence run makes one of its section and one of all its slabs; and
    no run enumerates a section or slab one at a time."""
    pair = make_pair("polytope", 4 if run == "sections-k3" else 3)
    stacks, singles = [], []
    enumerate_stack, enumerate_vertices = polykernel.enumerate_stack, polykernel.enumerate_vertices
    monkeypatch.setattr(polykernel, "enumerate_stack",
                        lambda nrm, off: stacks.append(len(nrm)) or enumerate_stack(nrm, off))
    monkeypatch.setattr(polykernel, "enumerate_vertices",
                        lambda poly: singles.append(poly) or enumerate_vertices(poly))
    chunk = polykernel.CHUNK
    K, L, rng = pair.oracle_K, pair.oracle_L, RngStream(7, 6)
    expected = [chunk, chunk, 3] * 2
    if run == "convergence":
        ts = (0.4, 0.2, 0.1, 0.05)
        convergence_experiment(K, sample_haar_bases(3, 1, 1, rng)[0, :, 0], 2, ts)
        expected = [1, len(ts)]
    elif run == "slabs":
        slab_experiment(K, L, 0.5, 2, 2 * chunk + 3, rng, 1e-9)
    else:
        sections_experiment(K, L, int(run[-1]), 2, 2 * chunk + 3, rng, 1e-9)
    assert stacks == expected
    assert singles == []


@pytest.mark.parametrize("name, k", [("polytope", 2), ("smooth", 2), ("polytope", 3),
                                     ("control-shifted", 2), ("translated-smooth", 2)])
def test_projection_bases_are_checked_once_per_experiment(name, k, monkeypatch):
    """One stacked check in sample_haar_bases, then one Subspace per basis,
    shared by K and L, for the support-based area of translated smooth
    bodies; the closed form of a ball and its translate, the profile
    quadrature of bodies of revolution and Cauchy's formula for polytopes
    (k = n - 1) read the checked stack and build none."""
    if name == "translated-smooth":
        shift = [0.1, -0.05, 0.2]
        pair = BodyPair.from_bodies(name, *(body_from_record(
            {"type": "derived", "base": {"type": "revolution", "variant": v},
             "transform": "translate", "shift": shift}) for v in "KL"))
    else:
        pair = make_pair(name, 4 if k == 3 else 3)
    checks = []
    check = grassmann._check_orthonormal
    monkeypatch.setattr(grassmann, "_check_orthonormal",
                        lambda bases: checks.append(len(bases)) or check(bases))
    projections_experiment(pair.oracle_K, pair.oracle_L, k, 7, RngStream(7, 8), 1e-6)
    assert checks == [7] + ([1] * 7 if name == "translated-smooth" else [])
