"""End-to-end experiment behavior on the fixture pairs and the controls."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from convexlab import bodies, polykernel
from convexlab.bodies import ConvexBodyOracle, ball_oracle
from convexlab.experiments import (_distance_signature, _harmonic_grid,
                                   _orthogonal_complement, _radial_energy_spectrum)
from convexlab.experiments import (BodyPair, ExperimentError, _projection_values,
                                   _section_values, _slab_values, kubota_intrinsic_volume,
                                   NoncongruenceCertificate, PAIR_NAMES, body_from_record,
                                   certify_report, convergence_experiment,
                                   lemma1_check, make_pair,
                                   noncongruence_certificates,
                                   projections_experiment, sections_experiment,
                                   slab_experiment)
from convexlab.grassmann import (RngStream, Subspace, embed, rowwise,
                                  sample_haar_bases, sample_haar_subspace, sample_sphere)
from convexlab.intrinsic import (area_from_support_2d, centroid_3d, mean_width_v1,
                                 planar_metrics_from_oracle, volume_radial)
from convexlab.report import (canonical_json, report_to_dict, write_report_json,
                              write_samples_csv, write_suite_csv)
from convexlab.transforms import section_oracle, translate_oracle


def test_make_pair_names():
    for name in PAIR_NAMES:
        pair = make_pair(name)
        assert pair.name == name
        assert pair.oracle_K.dim == pair.oracle_L.dim == 3
    assert make_pair("smooth").oracle_K.revolution is not None
    assert make_pair("polytope").oracle_K.vrep is not None
    assert not make_pair("control-rotated").expect_noncongruent
    assert not make_pair("control-shifted").expect_noncongruent
    with pytest.raises(ExperimentError, match="unknown pair"):
        make_pair("banana")


# The filled records of every fixture pair, written out by hand: the suite
# and spec tests rebuild bodies through the same code that makes them, so
# only a literal sees a change to a fixture itself.
_POLY3 = ('{"type": "polytope", "a": [1.0, 1.2, 1.5], "u_signs": [1, 1, 1], '
          '"v_signs": [1, 1, -1], "lambda": 0.5773502691896258, "variant": "%s"}')
_POLY4 = ('{"type": "polytope", "a": [1.0, 1.2, 1.5, 1.8], "u_signs": [1, 1, 1, 1], '
          '"v_signs": [1, 1, 1, -1], "lambda": 0.5, "variant": "%s"}')
_FIXTURE_RECORDS = {
    ("smooth", 3): ('{"type": "revolution", "n": 3, "epsilon": 0.001, "delta": 0.1, '
                    '"variant": "K"}',
                    '{"type": "revolution", "n": 3, "epsilon": 0.001, "delta": 0.1, '
                    '"variant": "L"}'),
    ("smooth", 4): ('{"type": "revolution", "n": 4, "epsilon": 0.001, "delta": 0.1, '
                    '"variant": "K"}',
                    '{"type": "revolution", "n": 4, "epsilon": 0.001, "delta": 0.1, '
                    '"variant": "L"}'),
    ("polytope", 3): (_POLY3 % "K", _POLY3 % "L"),
    ("polytope", 4): (_POLY4 % "K", _POLY4 % "L"),
    ("control-rotated", 3): (_POLY3 % "K", '{"type": "derived", "base": %s, '
                             '"transform": "rotate-quarter-turn"}' % (_POLY3 % "K")),
    ("control-rotated", 4): (_POLY4 % "K", '{"type": "derived", "base": %s, '
                             '"transform": "rotate-quarter-turn"}' % (_POLY4 % "K")),
    ("control-shifted", 3): ('{"type": "ball", "n": 3, "radius": 1.0}',
                             '{"type": "derived", "base": {"type": "ball", "n": 3, '
                             '"radius": 1.0}, "transform": "translate", '
                             '"shift": [0.3, 0.0, 0.0]}'),
    ("control-shifted", 4): ('{"type": "ball", "n": 4, "radius": 1.0}',
                             '{"type": "derived", "base": {"type": "ball", "n": 4, '
                             '"radius": 1.0}, "transform": "translate", '
                             '"shift": [0.3, 0.0, 0.0, 0.0]}'),
}


@pytest.mark.parametrize("name, n", sorted(_FIXTURE_RECORDS))
def test_fixture_records_are_pinned(name, n):
    assert sorted(key[0] for key in _FIXTURE_RECORDS) == sorted(PAIR_NAMES * 2)
    pair = make_pair(name, n)
    record_K, record_L = (json.loads(text) for text in _FIXTURE_RECORDS[name, n])
    assert pair.snapshots == {"K": record_K, "L": record_L}
    if name == "control-rotated":
        # the record names the turn; its direction is pinned here: e_{n-1} -> e_n
        turn = np.eye(n)
        turn[-2:, -2:] = [[0.0, -1.0], [1.0, 0.0]]
        np.testing.assert_array_equal(pair.oracle_L.polytope.normals,
                                      pair.oracle_K.polytope.normals @ turn.T)
    if name == "control-shifted":
        np.testing.assert_array_equal(pair.oracle_L.translate[1], [0.3] + [0.0] * (n - 1))


def test_make_pair_enumerates_each_polytope_once(monkeypatch):
    calls = []
    enumerate_vertices = polykernel.enumerate_vertices
    monkeypatch.setattr(polykernel, "enumerate_vertices",
                        lambda poly: calls.append(poly) or enumerate_vertices(poly))
    bodies._corner_cut_pair.cache_clear()
    pair = make_pair("polytope")
    assert len(calls) == 2
    assert pair.oracle_K.vrep is pair.oracle_K.polytope.vrep
    assert len(calls) == 2
    # the pair is built once per process; the rotated copy is a new polytope
    make_pair("control-rotated")
    assert len(calls) == 3


def test_make_pair_validates_each_revolution_spec_once():
    # K and L profiles are each checked once per process, so passes after
    # the first build the smooth pair without the 100,000-point check
    bodies.validate_revolution_spec.cache_clear()
    make_pair("smooth")
    make_pair("smooth")
    info = bodies.validate_revolution_spec.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_lemma1_constructed_pairs_are_exact(smooth_pair, polytope_pair):
    for pair, tol in ((smooth_pair, 1e-8), (polytope_pair, 1e-11)):
        rep = lemma1_check(pair.oracle_K, pair.oracle_L, 200, tol, RngStream(3, 0))
        assert rep.summary["pass"]
        assert rep.summary["max_d_rho"] <= 1e-12
        assert rep.summary["max_d_h"] <= 1e-11
        assert rep.summary["point_check_failures"] == 0
        assert len(rep.samples) == 200


def test_lemma1_self_pair_is_zero(smooth_pair):
    rep = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_K, 50, 1e-12,
                       RngStream(3, 1))
    assert rep.summary["max_d_rho"] == 0.0
    assert rep.summary["max_d_h"] == 0.0


def test_lemma1_rejects_shifted_control(shifted_pair):
    rep = lemma1_check(shifted_pair.oracle_K, shifted_pair.oracle_L, 200, 1e-8,
                       RngStream(3, 2))
    assert not rep.summary["pass"]
    assert rep.summary["max_d_rho"] > 0.25


def test_lemma1_dimension_mismatch():
    with pytest.raises(ExperimentError, match="share a dimension"):
        lemma1_check(ball_oracle(3), ball_oracle(2), 10, 1e-8, RngStream(3, 3))


@pytest.mark.parametrize("name", ["smooth", "polytope", "control-shifted"])
def test_lemma1_live_memory_is_bounded(name):
    """The 10 x n_dirs reflection probes are drawn and checked in rowwise's
    blocks, so no probe-sized array lives in full: the traced peak of
    5,000 directions stays under 6 MB (10 to 15 MB with one probe batch)."""
    pair = make_pair(name)
    lemma1_check(pair.oracle_K, pair.oracle_L, 10, 1e-8, RngStream(3, 4))  # warm caches
    tracemalloc.start()
    try:
        lemma1_check(pair.oracle_K, pair.oracle_L, 5000, 1e-8, RngStream(3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"{name}: {peak / 1e6:.1f} MB"


def test_sections_polytope_exact(polytope_pair):
    for i in (1, 2):
        rep = sections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                  2, i, 25, RngStream(4, i), 1e-9)
        assert rep.summary["pass"]
        assert rep.summary["rule"] == "exact-rel"
        assert rep.summary["methods"] == ["exact-polygon"]


def test_sections_smooth_quadrature(smooth_pair):
    rep = sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                              2, 2, 10, RngStream(4, 3), 1e-5)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["quadrature"]


def test_sections_k1_segments(smooth_pair):
    rep = sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                              1, 1, 50, RngStream(4, 4), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-segment"]


def test_sections_dimension_four_polytope():
    pair = make_pair("polytope", n=4)
    for i in (1, 2, 3):
        rep = sections_experiment(pair.oracle_K, pair.oracle_L, 3, i, 10,
                                  RngStream(4, 10 + i), 1e-9)
        assert rep.summary["pass"], f"i={i}: {rep.summary}"
        assert rep.summary["methods"] == ["exact-poly3"]


@pytest.mark.parametrize("i", [1, 2, 3])
def test_sections_dimension_four_smooth(i):
    # 3-d sections of a smooth pair take the profile quadrature
    pair = make_pair("smooth", n=4)
    rep = sections_experiment(pair.oracle_K, pair.oracle_L, 3, i, 2,
                              RngStream(4, 40 + i), 1e-4)
    assert rep.summary["pass"], rep.summary
    assert rep.summary["methods"] == ["quadrature"]


def test_sections_dimension_four_reject_shifted_control():
    pair = make_pair("control-shifted", n=4)
    rep = sections_experiment(pair.oracle_K, pair.oracle_L, 3, 2, 2,
                              RngStream(4, 44), 1e-4)
    assert not rep.summary["pass"]
    assert rep.summary["max_rel_diff"] > 1e-3


def test_section_mean_width_agrees_with_kubota():
    # Kubota's formula over 64 subspaces and the mean width of a section
    # oracle, two library estimators, agree
    oracle = make_pair("smooth", n=4).oracle_K
    sec = section_oracle(oracle, sample_haar_subspace(4, 3, RngStream(4, 45)))
    kubota = kubota_intrinsic_volume(sec, 3, 1, 64, RngStream(4, 46))
    width = mean_width_v1(sec, nodes=512)
    assert abs(kubota.value - width.value) <= 3.0 * (kubota.stderr + width.stderr)


def _translated_smooth(n: int) -> ConvexBodyOracle:
    """The smooth K in R^n translated off its axis: a body that is neither a
    polytope, a body of revolution nor a ball; its sections are bodies of
    revolution again, and its projections are its base's moved."""
    return translate_oracle(make_pair("smooth", n).oracle_K, [0.1, -0.05] + [0.2] * (n - 2))


_PREFIX_RUNS = [("lemma1", "smooth", 3, {}), ("lemma1", "polytope", 3, {}),
                ("sections", "smooth", 3, {"k": 2, "i": 1}),
                ("sections", "polytope", 3, {"k": 2, "i": 2}),
                ("sections", "smooth", 4, {"k": 3, "i": 1}),
                ("sections", "polytope", 4, {"k": 3, "i": 3}),
                ("slabs", "smooth", 3, {"t": 0.5, "i": 1}),
                ("slabs", "polytope", 3, {"t": 0.5, "i": 2}),
                ("projections", "smooth", 3, {"k": 1}), ("projections", "polytope", 3, {"k": 1}),
                ("projections", "smooth", 3, {"k": 2}), ("projections", "polytope", 3, {"k": 2})]


@pytest.mark.parametrize("command, pair, n, arguments", _PREFIX_RUNS)
def test_more_samples_keep_the_first_rows(command, pair, n, arguments):
    # sample j is row j of one draw, valued as it is alone: a run with 5
    # more samples repeats every column of the shorter run's rows
    from convexlab.cli import _experiment
    runs = [_experiment(command, make_pair(pair, n), RngStream(9, 3), samples=m, **arguments)
            for m in (6, 11)]
    short, long = (run.samples for run in runs)
    for name in ("basis", "value_K", "value_L", "abs_diff", "rel_diff", "stderr"):
        assert np.array_equal(getattr(long, name)[:6], getattr(short, name)), name
    assert short.extra.keys() == long.extra.keys()
    for name, column in short.extra.items():
        assert np.array_equal(long.extra[name][:6], column), name


def test_sections_volume_of_a_translate_in_r5_is_the_profile_quadrature():
    # above dimension 3 the section volume of a translated body of
    # revolution is the profile quadrature, with a stderr near rounding, not
    # a Monte Carlo mean; a body against itself gives 0
    oracle = _translated_smooth(5)
    rep = sections_experiment(oracle, oracle, 4, 4, 1, RngStream(4, 47), 0.0)
    assert rep.summary["methods"] == ["quadrature"]
    assert rep.summary["max_abs_diff"] == 0.0
    assert rep.samples.stderr[0] <= 1e-12 * rep.samples.value_K[0]


def test_sections_of_a_translate_draw_only_their_subspaces(monkeypatch):
    # the root stream draws every subspace's Gaussian block in one draw, and
    # no row of a translated body of revolution draws more: no child stream,
    # no Monte Carlo volume
    def refuse(*args, **kwargs):
        raise AssertionError("a section row drew from a stream")

    monkeypatch.setattr(RngStream, "substream", refuse)
    monkeypatch.setattr("convexlab.intrinsic.volume_radial", refuse)
    oracle = _translated_smooth(5)
    rng = RngStream(4, 48)
    for k, i in ((4, 4), (4, 1), (3, 1), (2, 2)):
        rep = sections_experiment(oracle, oracle, k, i, 2, rng, 0.0)
        assert rep.summary["methods"] == ["quadrature"]


def test_a_body_outside_the_grammar_has_no_section_or_slab_row():
    """A body that is no polytope, ball, body of revolution or translate of
    one (a ball that lost its record) gets an ExperimentError that names its
    kind, at every k, not a search or a Monte Carlo stand-in."""
    odd = dataclasses.replace(ball_oracle(5), ball=None)
    for k, i in ((4, 1), (4, 4), (2, 2)):
        with pytest.raises(ExperimentError, match="no section estimator for a body of kind 'ball'"):
            sections_experiment(odd, odd, k, i, 2, RngStream(4, 49), 1e-4)
    odd3 = dataclasses.replace(ball_oracle(3), ball=None)
    with pytest.raises(ExperimentError, match="no slab estimator for a body of kind 'ball' in R"):
        _slab_values(odd3, np.eye(3)[:1], np.array([0.5]), 1)


_SWEEP_SHIFT = [0.1, -0.05, 0.2, 0.05, -0.1]
_SWEEP_BASES = {  # the polytope grammar builds boxes of dimension 2 to 4
    "polytope": lambda n, v: {"type": "polytope", "a": [1.0, 1.2, 1.5, 1.8][:n],
                              "lambda": 0.3, "variant": v},
    "ball": lambda n, v: {"type": "ball", "n": n},
    "revolution": lambda n, v: {"type": "revolution", "n": n, "variant": v},
}
_ROW_OF = {"sections": "section", "slabs": "slab", "projections": "projection"}


def _sweep_runs(n):
    """Every (command, arguments) of the row-picking commands at n."""
    runs = [("sections", dict(k=k, i=i)) for k in range(1, n) for i in range(1, k + 1)]
    runs += [("slabs", dict(t=0.5, i=i)) for i in range(1, n + 1)]
    runs += [("projections", dict(k=k)) for k in range(1, n)]
    return runs + ([("convergence", dict(i=i)) for i in (1, 2)] if n == 3 else [])


_SWEEP_FAMILIES = [(f"{moved}{base}", n) for moved in ("", "translated-") for base in _SWEEP_BASES
                   for n in range(2, 5 if base == "polytope" else 6)]


def _sweep_pair(family: str, n: int) -> BodyPair:
    """The K and L of a sweep family in R^n, from their records."""
    base = _SWEEP_BASES[family.removeprefix("translated-")]
    records = [base(n, v) for v in "KL"]
    if family.startswith("translated-"):
        records = [{"type": "derived", "base": r, "transform": "translate",
                    "shift": _SWEEP_SHIFT[:n]} for r in records]
    return BodyPair.from_bodies(family, *map(body_from_record, records))


@pytest.mark.parametrize("family, n", _SWEEP_FAMILIES)
def test_every_run_the_cli_accepts_has_rows_or_names_its_gap(family, n):
    """Every (command, k, i) of sections, slabs, projections and convergence
    on each grammar family at n = 2 to 5, through the CLI's dispatch, gives
    a row per sample or an ExperimentError naming the functional, the
    body's kind and n; never a PolytopeError or an IndexError from a row
    that was not built for the body.  The only gaps today are the slabs of
    every body above R^3."""
    from convexlab.cli import _experiment
    pair = _sweep_pair(family, n)
    kind = pair.oracle_K.kind
    for cmd, arguments in _sweep_runs(n):
        gap = cmd == "slabs" and n >= 4
        try:
            rep = _experiment(cmd, pair, RngStream(7, 9), samples=2, **arguments)
        except ExperimentError as exc:
            assert gap, (cmd, arguments, exc)
            assert str(exc) == f"no {_ROW_OF[cmd]} estimator for a body of kind '{kind}' in R^{n}"
        else:
            assert not gap, (cmd, arguments)
            assert len(rep.samples) == (4 if cmd == "convergence" else 2)
            assert np.all(np.isfinite(rep.samples.value_K)), (cmd, arguments)


@pytest.mark.parametrize("family, n", _SWEEP_FAMILIES)
def test_every_row_function_gives_two_float64_columns_and_a_method(family, n):
    """_section_values, _slab_values and _projection_values give (values,
    stderrs, method): two float64 arrays with one entry per basis or normal
    of the stack, and the method's name, on K and L of every sweep family
    for every (k, i) of its sections, slabs (up to R^3) and projections,
    with stacks of 3 and of none."""
    pair = _sweep_pair(family, n)
    rng = RngStream(7, 10)
    for cmd, arguments in _sweep_runs(n):
        if cmd == "convergence" or (cmd == "slabs" and n >= 4):
            continue
        for count in (3, 0):
            bases = sample_haar_bases(n, arguments.get("k", 1), count, rng)
            for body in (pair.oracle_K, pair.oracle_L):
                if cmd == "sections":
                    rows = _section_values(body, bases, arguments["i"])
                elif cmd == "slabs":
                    rows = _slab_values(body, bases[:, :, 0], np.full(count, arguments["t"]),
                                        arguments["i"])
                else:
                    rows = _projection_values(body, bases)
                assert type(rows) is tuple and len(rows) == 3, (cmd, arguments)
                assert isinstance(rows[2], str), (cmd, arguments)
                for column in rows[:2]:
                    assert isinstance(column, np.ndarray), (cmd, arguments)
                    assert column.dtype == np.float64 and column.shape == (count,), (cmd, arguments)


def test_sections_reject_controls(rotated_pair, shifted_pair):
    rep = sections_experiment(rotated_pair.oracle_K, rotated_pair.oracle_L,
                              2, 2, 15, RngStream(4, 20), 1e-9)
    assert not rep.summary["pass"]
    assert rep.summary["max_rel_diff"] > 1e-3
    rep = sections_experiment(shifted_pair.oracle_K, shifted_pair.oracle_L,
                              2, 2, 15, RngStream(4, 21), 1e-5)
    assert not rep.summary["pass"]
    assert rep.summary["max_rel_diff"] > 1e-3


# the relative deficit (2 pi / N)^2 / 6 of an N-gon inscribed in a circle,
# to leading order, at the polyline's N = 8192 nodes: it bounds the bias of
# the polyline's area and perimeter, and of the support-based area, whose
# centered differences have the same step
POLYLINE_BIAS = (2.0 * math.pi / 8192) ** 2 / 6.0


def _ball_and_generic(n: int, seed: int):
    """The control-shifted L in R^n (seed 0), else a translate of a ball
    of random radius by a random interior shift; and the same body built
    without its `ball` record, whose translate takes the bracketed secant,
    for the library estimators on its section oracles and supports."""
    if seed == 0:
        exact = make_pair("control-shifted", n).oracle_L
        radius, shift = exact.ball[0], exact.translate[1]
    else:
        draw = np.random.default_rng([n, seed])
        radius = draw.uniform(0.5, 2.0)
        shift = draw.standard_normal(n)
        shift *= 0.6 * radius * draw.uniform() / np.linalg.norm(shift)
        exact = translate_oracle(ball_oracle(n, radius), shift)
    generic = translate_oracle(dataclasses.replace(ball_oracle(n, radius), ball=None), shift)
    return exact, generic


@pytest.mark.parametrize("n, k, i", [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_ball_sections_agree_with_the_section_oracle(n, k, i, seed):
    """The closed-form section rows of a translated ball against the
    polyline (k = 2) and the polar volume (k = 3) of the section oracle:
    within that estimator's stderr plus the polyline bias."""
    exact, generic = _ball_and_generic(n, seed)
    bases = sample_haar_bases(n, k, 2, RngStream(11, seed))
    values, errs, method = _section_values(exact, bases, i)
    assert method == "exact-ball" and np.array_equal(errs, np.zeros(len(bases)))
    for value, basis in zip(values.tolist(), bases, strict=True):
        sec = section_oracle(generic, Subspace(basis))
        ref = planar_metrics_from_oracle(sec)[i - 1] if k == 2 else volume_radial(sec, k)
        assert ref.method == ("polyline" if k == 2 else "quadrature")
        assert abs(value - ref.value) <= ref.stderr + POLYLINE_BIAS * value


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_ball_projections_agree_with_the_support_area(n, seed):
    """The closed-form k = 2 projection rows of a translated ball against
    the support-based area (area_from_support_2d) of its supports, which
    reports no stderr: within the bias of its centered differences."""
    exact, generic = _ball_and_generic(n, seed)
    bases = sample_haar_bases(n, 2, 3, RngStream(12, seed))
    values, errs, method = _projection_values(exact, bases)
    radius = exact.ball[0]
    assert method == "exact-ball" and np.array_equal(errs, np.zeros(len(bases)))
    assert np.array_equal(values, np.full(len(bases), math.pi * radius ** 2))
    for value, basis in zip(values.tolist(), bases, strict=True):
        sub = Subspace(basis)
        ref = area_from_support_2d(lambda d: generic.support(embed(sub, d)), 8192)
        assert abs(value - ref) <= POLYLINE_BIAS * value


def test_sections_validation(smooth_pair):
    with pytest.raises(ExperimentError, match="need 1 <= i <= k <= n-1"):
        sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                            3, 1, 5, RngStream(4, 30), 1e-9)
    with pytest.raises(ExperimentError, match="need 1 <= i <= k <= n-1"):
        sections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                            2, 0, 5, RngStream(4, 31), 1e-9)


def test_slabs_polytope_exact(polytope_pair):
    for i in (1, 2, 3):
        rep = slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                              0.5, i, 10, RngStream(5, i), 1e-9)
        assert rep.summary["pass"]
        assert rep.summary["methods"] == ["exact-poly3"]


def test_slab_halfwidth_out_of_range(polytope_pair):
    with pytest.raises(ExperimentError, match="max admissible"):
        slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                        5.0, 2, 5, RngStream(5, 9), 1e-9)
    with pytest.raises(ExperimentError, match="need 1 <= i <= n"):
        slab_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                        0.5, 4, 5, RngStream(5, 10), 1e-9)


def test_slabs_smooth_quadrature(smooth_pair):
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 3, 3, RngStream(5, 20), 1e-4)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["axial-gl"]


def test_slabs_smooth_width_and_hull(smooth_pair):
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 1, 2, RngStream(5, 21), 1e-4)
    assert rep.summary["pass"], rep.summary
    rep = slab_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                          0.5, 2, 2, RngStream(5, 22), 1e-3)
    assert rep.summary["pass"], rep.summary


@pytest.mark.parametrize("i", [1, 2])
def test_slabs_planar_smooth_polyline(i):
    pair = make_pair("smooth", n=2)
    rep = slab_experiment(pair.oracle_K, pair.oracle_L, 0.5, i, 4,
                          RngStream(5, 30 + i), 1e-4)
    assert rep.summary["pass"], rep.summary
    assert rep.summary["methods"] == ["polyline"]


def test_projections_smooth(smooth_pair):
    rep = projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                                 1, 100, RngStream(6, 0), 1e-8)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-width"]
    rep = projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                                 2, 8, RngStream(6, 1), 1e-4)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["quadrature"]


def test_projections_polytope(polytope_pair):
    rep = projections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                 1, 100, RngStream(6, 2), 1e-9)
    assert rep.summary["pass"]
    rep = projections_experiment(polytope_pair.oracle_K, polytope_pair.oracle_L,
                                 2, 10, RngStream(6, 3), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-cauchy"]


def test_projections_dimension_four_hull():
    # the k = 3 shadows in R^4 come from Cauchy's formula, not a hull
    pair = make_pair("polytope", n=4)
    rep = projections_experiment(pair.oracle_K, pair.oracle_L, 3, 5,
                                 RngStream(6, 4), 1e-9)
    assert rep.summary["pass"]
    assert rep.summary["methods"] == ["exact-cauchy"]


def test_projections_controls(rotated_pair, shifted_pair):
    # widths are translation invariant, so the shifted control passes k=1
    rep = projections_experiment(shifted_pair.oracle_K, shifted_pair.oracle_L,
                                 1, 50, RngStream(6, 5), 1e-8)
    assert rep.summary["pass"]
    # a rotated box projects to different shadows
    rep = projections_experiment(rotated_pair.oracle_K, rotated_pair.oracle_L,
                                 2, 10, RngStream(6, 6), 1e-9)
    assert not rep.summary["pass"]


def test_projections_validation(smooth_pair):
    with pytest.raises(ExperimentError, match="need 1 <= k <= n-1"):
        projections_experiment(smooth_pair.oracle_K, smooth_pair.oracle_L,
                               3, 5, RngStream(6, 7), 1e-8)


def test_convergence_polytope(polytope_pair):
    xi = np.array([0.0, 0.0, 1.0])
    for i in (1, 2):
        rep = convergence_experiment(polytope_pair.oracle_K, xi, i,
                                     (0.4, 0.2, 0.1, 0.05))
        assert rep.summary["pass"], rep.summary
        assert rep.summary["monotone"]
        diffs = rep.summary["diffs"]
        assert diffs[-1] <= diffs[0]


def test_convergence_smooth(smooth_pair):
    xi = sample_sphere(3, RngStream(7, 0))
    rep = convergence_experiment(smooth_pair.oracle_K, xi, 1, (0.4, 0.2, 0.1, 0.05))
    assert rep.summary["pass"], rep.summary


def test_convergence_validation(smooth_pair):
    xi = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ExperimentError, match="strictly decreasing"):
        convergence_experiment(smooth_pair.oracle_K, xi, 1, (0.1, 0.2))
    with pytest.raises(ExperimentError, match="exceeds max admissible"):
        convergence_experiment(smooth_pair.oracle_K, xi, 1, (5.0, 0.1))
    with pytest.raises(ExperimentError, match="need 1 <= i <= n-1"):
        convergence_experiment(smooth_pair.oracle_K, xi, 3, (0.2, 0.1))
    with pytest.raises(ExperimentError, match="supports n = 3"):
        convergence_experiment(ball_oracle(2), np.array([1.0, 0.0]), 1, (0.2, 0.1))


@pytest.mark.parametrize("xi", [(1.2, 0.0, 1.6), (math.nan, 0.0, 1.0)])
@pytest.mark.parametrize("name, i", [("smooth", 1), ("smooth", 2), ("polytope", 2),
                                     ("control-shifted", 1)])
def test_convergence_rejects_a_normal_that_is_not_unit(name, i, xi):
    """A length-2 or NaN normal raises one ExperimentError for every body,
    before the body's radial function is called."""
    oracle = make_pair(name).oracle_K
    calls = []
    probe = dataclasses.replace(oracle, radial=lambda d: calls.append(d) or oracle.radial(d))
    with pytest.raises(ExperimentError, match="slab normal must be a finite unit vector"):
        convergence_experiment(probe, np.array(xi), i, (0.4, 0.2, 0.1, 0.05))
    assert calls == []


def test_certificate_verdict_follows_the_statistic():
    # one-way: only a statistic above the threshold is conclusive, and NaN
    # never is
    for statistic, verdict in ((1.0, "noncongruent"), (1e-6, "inconclusive"),
                               (1e-9, "inconclusive"), (math.nan, "inconclusive")):
        cert = NoncongruenceCertificate("vertex-distance-multiset", statistic, 1e-6, ())
        assert cert.verdict == verdict


def _dipole_oracle(a: float, axis) -> ConvexBodyOracle:
    """rho(u) = 1 + a sqrt(3 / 4 pi) <u, axis>: a_00 = sqrt(4 pi), and the
    degree-1 coefficients have total energy a^2 about any unit axis."""
    axis = np.asarray(axis, dtype=float)

    @rowwise
    def radial(d):
        return 1.0 + a * math.sqrt(3.0 / (4.0 * math.pi)) * (d @ axis)

    def unused(_):
        raise AssertionError("the spectrum reads radial values only")

    return ConvexBodyOracle(dim=3, radial=radial, support=unused, member=unused,
                            eval_tol=1e-15, kind="dipole")


def _spectrum(oracle, degree=16, n_theta=256, n_phi=512):
    dirs, _, legendre = _harmonic_grid(degree, n_theta, n_phi)
    return _radial_energy_spectrum(oracle, dirs, legendre)


def test_spectrum_of_the_unit_ball():
    e = _spectrum(ball_oracle(3))
    assert e[0] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert np.all(e[1:] < 1e-20)


def test_spectrum_of_a_dipole_is_rotation_invariant():
    a = 0.1
    e = _spectrum(_dipole_oracle(a, [0.0, 0.0, 1.0]))
    assert e[0] == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert e[1] == pytest.approx(a * a, rel=1e-12)
    assert np.all(e[2:] < 1e-20)

    axis = sample_sphere(3, RngStream(41, 0))
    turned = _spectrum(_dipole_oracle(a, axis))
    assert turned[:2] == pytest.approx(e[:2], rel=1e-12)
    assert np.all(turned[2:] < 1e-20)


def test_spectrum_matches_scipy_spherical_harmonics(smooth_pair):
    # scipy stays out of the package; its sph_harm_y is the reference here
    from scipy.special import sph_harm_y

    degree, n_theta, n_phi = 8, 32, 64
    oracle_K = smooth_pair.oracle_K
    dirs, weights, legendre = _harmonic_grid(degree, n_theta, n_phi)
    centered = translate_oracle(oracle_K, centroid_3d(oracle_K, dirs, weights))
    fast = _radial_energy_spectrum(centered, dirs, legendre)

    z, w = np.polynomial.legendre.leggauss(n_theta)
    assert np.array_equal(dirs[::n_phi, 2], z)
    assert np.array_equal(weights[::n_phi], w * (2.0 * np.pi / n_phi))
    theta, phi = np.meshgrid(np.arccos(z), 2.0 * np.pi * np.arange(n_phi) / n_phi,
                             indexing="ij")
    rho = centered.radial(dirs).reshape(n_theta, n_phi)
    weighted = rho * (w[:, None] * (2.0 * np.pi / n_phi))
    ref = np.zeros(degree + 1)
    for ell in range(degree + 1):
        for m in range(ell + 1):
            coeff = np.sum(weighted * np.conj(sph_harm_y(ell, m, theta, phi)))
            ref[ell] += (1.0 if m == 0 else 2.0) * abs(coeff) ** 2
    assert np.max(np.abs(fast - ref)) < 1e-13
    assert ref[0] > 12.0 and ref[2:].max() > 1e-9


def test_certify_constructed_pairs(smooth_pair, polytope_pair):
    rep = certify_report(smooth_pair)
    assert rep.summary["pass"] and rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["profile-mismatch"]
    eps = smooth_pair.oracle_K.revolution.epsilon
    assert certs[0]["statistic"] == pytest.approx(eps * math.exp(-1.0), abs=1e-9)

    rep = certify_report(polytope_pair)
    assert rep.summary["pass"] and rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["vertex-distance-multiset"]
    assert certs[0]["statistic"] > 1e-6


def test_certify_controls(rotated_pair, shifted_pair):
    rep = certify_report(rotated_pair)
    assert rep.summary["pass"] and not rep.summary["noncongruent"]
    assert [c["method"] for c in rep.summary["certificates"]] == [
        "vertex-distance-multiset"]

    rep = certify_report(shifted_pair)
    assert rep.summary["pass"] and not rep.summary["noncongruent"]
    certs = rep.summary["certificates"]
    assert [c["method"] for c in certs] == ["harmonic-spectrum"]
    assert certs[0]["statistic"] < 1e-6


def test_certify_polytope_self_pair(polytope_pair):
    self_pair = BodyPair("self", polytope_pair.oracle_K, polytope_pair.oracle_K,
                         {}, expect_noncongruent=False)
    certs = noncongruence_certificates(self_pair)
    assert all(c.verdict == "inconclusive" for c in certs)
    assert certify_report(self_pair).summary["pass"]


def test_certificates_need_a_method():
    pair = BodyPair("none", ball_oracle(2), ball_oracle(2), {},
                    expect_noncongruent=False)
    with pytest.raises(ExperimentError, match="no certificate method"):
        noncongruence_certificates(pair)


def test_report_serialization_round_trip(tmp_path, smooth_pair):
    rep = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_L, 20, 1e-8,
                       RngStream(8, 0))
    again = lemma1_check(smooth_pair.oracle_K, smooth_pair.oracle_L, 20, 1e-8,
                         RngStream(8, 0))
    d = report_to_dict(rep)
    assert canonical_json(d) == canonical_json(report_to_dict(again))
    assert "runtime_seconds" not in canonical_json(d)
    assert d["samples"][0]["extra"]["d_h"] >= 0.0

    p = write_report_json(tmp_path / "r.json", rep)
    assert p.read_text(encoding="utf-8") == canonical_json(d)

    rows = write_samples_csv(tmp_path / "s.csv", rep).read_text(encoding="utf-8").splitlines()
    assert len(rows) == 21
    assert rows[0].split(",")[:4] == ["id", "basis_0", "basis_1", "basis_2"]

    suite_path = write_suite_csv(tmp_path / "suite.csv", [("a", rep), ("b", again)])
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 41
    assert lines[1].split(",")[2].count(";") == 2  # packed 3-vector basis

    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})


def test_canonical_json_writes_float64_as_float():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -1074, 1e300, -0.0, 8.881784197001252e-16):
        assert canonical_json({"v": [np.float64(x)]}) == canonical_json({"v": [x]})


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.array([0.5])])
def test_canonical_json_rejects_other_numpy_values(value):
    # reports are built from plain values; anything else is a bug, not data
    with pytest.raises(TypeError):
        canonical_json({"v": value})


def test_numpy_replacements_equal_scipy_bitwise():
    # the suite avoids importing scipy.linalg and scipy.spatial; these two
    # helpers stand in for null_space and pdist with identical bytes
    from scipy.linalg import null_space
    from scipy.spatial.distance import pdist

    gen = RngStream(26, 0).generator()
    for _ in range(500):
        n = int(gen.integers(2, 6))
        xi = gen.standard_normal(n) * gen.uniform(0.1, 10.0)
        u = xi / np.linalg.norm(xi)
        assert np.array_equal(_orthogonal_complement(u), null_space(u.reshape(1, -1)))
        verts = gen.standard_normal((int(gen.integers(2, 30)), n))
        centered = verts - verts.mean(axis=0)
        assert np.array_equal(_distance_signature(verts), np.sort(pdist(centered)))


def test_sample_j_is_row_j_of_the_root_draw(polytope_pair, monkeypatch):
    """Sample j of sections/projections gets row j of the stream's Haar
    draw, sample j of slabs and lemma1 the direction of row j, and Kubota's
    j-th subspace is row j too, all in one projection call per estimate."""
    from convexlab import experiments
    K, L = polytope_pair.oracle_K, polytope_pair.oracle_L
    rng = RngStream(13, 2)
    for k in (1, 2):
        for rep in (sections_experiment(K, L, k, 1, 4, rng, 1e-9),
                    projections_experiment(K, L, k, 4, rng, 1e-9)):
            assert len(rep.samples) == 4
            for j, basis in enumerate(rep.samples.basis):
                expect = sample_haar_bases(3, k, 4, rng)[j]
                assert basis.tolist() == expect.flatten().tolist()
    rep = slab_experiment(K, L, 0.5, 3, 4, rng, 1e-9)
    for j, basis in enumerate(rep.samples.basis):
        assert basis.tolist() == sample_haar_bases(3, 1, 4, rng)[j, :, 0].tolist()
    rep = lemma1_check(K, L, 5, 1e-9, rng)
    assert len(rep.samples) == 5
    for j, basis in enumerate(rep.samples.basis):
        assert basis.tolist() == sample_haar_bases(3, 1, 5, rng)[j, :, 0].tolist()

    seen = []

    def record(body, bases):
        seen.append(bases)
        return np.ones(len(bases)), np.zeros(len(bases)), "recorded"

    monkeypatch.setattr(experiments, "_projection_values", record)
    for k, i in ((3, 1), (3, 2), (4, 2)):
        seen.clear()
        kubota_intrinsic_volume(ball_oracle(k), k, i, 6, rng)
        [bases] = seen
        assert bases.shape == (6, k, i)
        assert bases.tobytes() == sample_haar_bases(k, i, 6, rng).tobytes()


def test_projections_of_a_translate_are_its_base_projections():
    # a translate of a body of revolution projects as its base does, moved:
    # every k >= 2 takes the base's profile quadrature, bit for bit
    oracle = _translated_smooth(4)
    base = oracle.translate[0]
    for k in (2, 3):
        rep = projections_experiment(oracle, base, k, 3, RngStream(0), 0.0)
        assert rep.summary["methods"] == ["quadrature"]
        assert rep.summary["max_abs_diff"] == 0.0
