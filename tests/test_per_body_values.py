"""Experiments evaluate each body once for all their samples: k = 1 widths
and segments come from one stacked oracle call, the slabs of a 3-d body of
revolution come from stacked axial integrals and those of a 3-d ball from
closed forms, the sections and slabs of a polytope (convergence runs
included) are enumerated in stacks, and each projection basis is checked
once for both bodies.  Every value must equal, with ==, the value its
sample gets alone, and the shared calls must not grow with the sample
count."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from convexlab import grassmann, intrinsic, polykernel
from convexlab.bodies import ball_oracle, oracle_of
from convexlab.experiments import (BodyPair, _exact_values, _orthogonal_complement,
                                   _projection_values, body_from_record, convergence_experiment,
                                   kubota_intrinsic_volume, make_pair, projections_experiment,
                                   sections_experiment, slab_experiment)
from convexlab.grassmann import RngStream, Subspace, rowwise, sample_haar_bases
from convexlab.polykernel import HPolytope
from convexlab.transforms import SlabSpec, section_oracle, slab_oracle


def _slab_alone(body, xi, t, i):
    """(V_i, stderr, method) of body cap S_t(xi) from its estimator alone:
    the exact values of one clipped polytope, the axial integrals of one
    slab for a 3-d body of revolution, the closed forms of one slab for a
    3-d ball, the polyline of the slab oracle in the plane."""
    if body.polytope is not None:
        rows = _exact_values([slab_oracle(body, SlabSpec(xi, t)).polytope], i)
    elif body.revolution is not None and body.dim == 3:
        rows = intrinsic.revolution_slab_volumes(body.revolution, xi[None], np.array([-t]),
                                                 np.array([t]), i)
    elif body.ball is not None and body.dim == 3:
        rows = intrinsic.ball_slab_volumes(body.ball, xi[None], np.array([-t]), np.array([t]), i)
    else:
        est = intrinsic.planar_metrics_from_oracle(slab_oracle(body, SlabSpec(xi, t)))[i - 1]
        return est.value, est.stderr, est.method
    (value,), (err,), method = rows
    return value, err, method


def _section_alone(body, basis, i):
    """V_i of the polytope body cap span(basis), from its section oracle's
    polytope alone."""
    return _exact_values([section_oracle(body, Subspace(basis)).polytope], i)[0][0]


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
    rep = slab_experiment(pair.oracle_K, pair.oracle_L, 0.5, i, 3, rng, 1e-3)
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
        assert (vk_run, vl_run) == (_section_alone(pair.oracle_K, basis, i),
                                    _section_alone(pair.oracle_L, basis, i))


@pytest.mark.parametrize("name, body", [("smooth", "K"), ("polytope", "K"),
                                        ("control-shifted", "K"), ("control-shifted", "L")])
@pytest.mark.parametrize("i", [1, 2])
def test_convergence_equals_one_slab_values(name, body, i):
    """Each slab value is the one its slab gets alone, and the
    section value the one its section gets alone from the same estimator:
    the closed form for a ball or translated ball, the profile quadrature
    for a body of revolution, the exact polygon of a polytope's section."""
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
        section = _section_alone(oracle, basis, i)
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


@pytest.mark.parametrize("name, n, i, calls", [
    ("smooth", 2, 1, 1), ("smooth", 2, 2, 1),              # the polyline's circle, per slab
    ("control-shifted", 3, 1, 0), ("control-shifted", 3, 2, 0),
    ("control-shifted", 3, 3, 0)])                         # none: closed forms
def test_slab_radial_calls_are_the_polylines_of_planar_slabs(name, n, i, calls):
    """A planar slab takes the polyline of its own slab oracle: one radial
    call of its parent on the 8192-node circle per slab and body, so the
    calls grow with the samples and the traced peak does not.  The slabs of
    a ball and a translated ball take closed forms and no radial call."""
    pair = make_pair(name, n)
    peaks = []
    for samples in (2, 5):
        rows = [[], []]
        K, L = (_counting(o, "radial", r) for o, r in zip((pair.oracle_K, pair.oracle_L), rows))
        tracemalloc.start()
        try:
            slab_experiment(K, L, 0.5, i, samples, RngStream(7, 3), 1e-2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rows == [[intrinsic.POLYLINE_NODES] * calls * samples] * 2
    assert peaks[1] < peaks[0] + 1e6, peaks


def test_planar_slab_oracles_answer_an_empty_stack():
    pair = make_pair("smooth", 2)
    for xi in np.eye(2):
        slab = slab_oracle(pair.oracle_K, SlabSpec(xi, 0.5))
        assert slab.radial(np.empty((0, 2))).shape == (0,)


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
    """One stacked check in sample_haar_bases: the closed form of a ball and
    its translate, the profile quadrature of bodies of revolution and their
    translates and Cauchy's formula for polytopes (k = n - 1) read the
    checked stack and build no Subspace."""
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
    assert checks == [7]


def _kubota_bodies():
    """(name, body) of every body whose Kubota projections are checked:
    both bodies of the smooth, polytope and control-shifted pairs in R^3
    and R^4, a box, the 4-ball, 3-d sections of the 4-d smooth K and
    polytope K, and the smooth K in R^3 and R^4 translated off its axis."""
    for name, n in itertools.product(("smooth", "polytope", "control-shifted"), (3, 4)):
        pair = make_pair(name, n)
        yield f"{name}-{n}-K", pair.oracle_K
        yield f"{name}-{n}-L", pair.oracle_L
    yield "box", oracle_of(HPolytope.box([1.0, 1.2, 1.5]))
    yield "ball-4", ball_oracle(4)
    for name in ("smooth", "polytope"):
        sub = grassmann.sample_haar_subspace(4, 3, RngStream(7, 70))
        yield f"section-of-{name}-4", section_oracle(make_pair(name, 4).oracle_K, sub)
    for n in (3, 4):
        yield f"translated-smooth-{n}", body_from_record(
            {"type": "derived", "base": {"type": "revolution", "n": n},
             "transform": "translate", "shift": [0.1, -0.05, 0.2, 0.05][:n]})[0]


def test_stacked_kubota_is_the_per_basis_loop():
    """Kubota's Haar average takes its projection volumes from one
    _projection_values call on the whole stack; each equals, bit for bit,
    the value its basis gets alone, so the estimate is the one a loop over
    the bases gives, for every i < k with a projection row (a section of a
    smooth body has only its k = 1 widths)."""
    m, cases = 2 * intrinsic.PROFILE_CHUNK + 3, 0
    for name, body in _kubota_bodies():
        k = body.dim
        for i in range(1, 2 if body.kind == "section" else k):
            got = kubota_intrinsic_volume(body, k, i, m, RngStream(7, 71))
            bases = sample_haar_bases(k, i, m, RngStream(7, 71))
            vols = np.array([_projection_values(body, b[None])[0][0] for b in bases])
            c = intrinsic.flag_coefficient(k, i)
            assert got.value == c * float(vols.mean()), (name, i)
            assert got.stderr == c * float(vols.std(ddof=1) / math.sqrt(m)), (name, i)
            cases += 1
    assert cases == 43
