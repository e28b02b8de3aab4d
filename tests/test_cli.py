"""CLI behavior: exit codes, output files, spec parsing, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convexlab
from convexlab import bodies, cli, intrinsic, polykernel
from convexlab.bodies import RevolutionBodySpec
from convexlab.cli import CliError, build_parser, main, parse_body_spec
from convexlab.experiments import (PAIR_NAMES, BodyPair, ExperimentError, body_from_record,
                                   make_pair)
from convexlab.grassmann import RngStream
from convexlab.polykernel import HPolytope
from convexlab.report import canonical_json

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "convexlab"
     / "report.schema.json").read_text(encoding="utf-8"))


def _validate(path: Path):
    import jsonschema

    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), SCHEMA)


def test_parse_body_spec():
    oracle, record = parse_body_spec('{"type": "revolution", "variant": "L"}')
    spec = oracle.revolution
    assert isinstance(spec, RevolutionBodySpec)
    assert spec.variant == "L" and spec.n == 3
    assert record == spec.snapshot()

    oracle, record = parse_body_spec('{"type": "polytope", "a": [1.0, 1.2, 1.5]}')
    assert isinstance(oracle.polytope, HPolytope)
    assert oracle.polytope.num_facets == 8
    assert record["type"] == "polytope" and record["variant"] == "K"
    assert parse_body_spec(canonical_json(record))[1] == record

    oracle, record = parse_body_spec('{"type": "derived", "base": {"type": "ball"}, '
                                     '"transform": "translate", "shift": [0, 0.2, 0]}')
    assert oracle.kind == "translate"
    assert record == {"type": "derived", "base": {"type": "ball", "n": 3, "radius": 1.0},
                      "transform": "translate", "shift": [0.0, 0.2, 0.0]}
    assert parse_body_spec(canonical_json(record))[1] == record

    with pytest.raises(CliError, match="malformed JSON"):
        parse_body_spec("{nope")
    with pytest.raises(ExperimentError, match="JSON object"):
        parse_body_spec("[1, 2]")
    with pytest.raises(ExperimentError, match="'revolution', 'polytope', 'ball' or 'derived'"):
        parse_body_spec('{"type": "orb"}')
    with pytest.raises(ExperimentError, match="'revolution', 'polytope', 'ball' or 'derived'"):
        parse_body_spec('{"type": ["ball"]}')
    with pytest.raises(ExperimentError, match="unknown field 'bogus'"):
        parse_body_spec('{"type": "revolution", "bogus": 1}')
    with pytest.raises(ExperimentError, match="unknown field 'wild'"):
        parse_body_spec('{"type": "polytope", "a": [1, 1.2, 1.5], "wild": 0}')
    with pytest.raises(ExperimentError, match="requires field 'a'"):
        parse_body_spec('{"type": "polytope"}')
    with pytest.raises(ExperimentError, match="'K' or 'L'"):
        parse_body_spec('{"type": "polytope", "a": [1, 1.2, 1.5], "variant": "Z"}')


def test_construct_writes_control_pairs(tmp_path, capsys):
    # a control's L is a derived record: its base is K's record
    for pair in ("control-rotated", "control-shifted"):
        k, l = tmp_path / f"{pair}-k.json", tmp_path / f"{pair}-l.json"
        assert main(["construct", "--pair", pair, "--out", str(k), str(l)]) == 0
        dk = json.loads(k.read_text(encoding="utf-8"))
        dl = json.loads(l.read_text(encoding="utf-8"))
        assert dl["type"] == "derived" and dl["base"] == dk
        assert not BodyPair.from_bodies(pair, body_from_record(dk),
                                        body_from_record(dl)).expect_noncongruent


def test_construct_round_trip(tmp_path, capsys):
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", "polytope",
                 "--out", str(k), str(l)]) == 0
    assert "wrote" in capsys.readouterr().out
    dk = json.loads(k.read_text(encoding="utf-8"))
    dl = json.loads(l.read_text(encoding="utf-8"))
    assert dk["variant"] == "K" and dl["variant"] == "L"
    assert dk["a"] == dl["a"] == [1.0, 1.2, 1.5]
    assert isinstance(parse_body_spec(k.read_text(encoding="utf-8"))[0].polytope, HPolytope)

    ks, ls = tmp_path / "ks.json", tmp_path / "ls.json"
    assert main(["construct", "--out", str(ks), str(ls)]) == 0
    assert json.loads(ks.read_text(encoding="utf-8"))["type"] == "revolution"


def test_each_polytope_spec_is_built_once(tmp_path, capsys, monkeypatch):
    # construct builds the pair and reads both files back; a spec-file run
    # parses K and L of one construction: each enumerates the 2 bodies once
    calls = []
    enumerate_vertices = polykernel.enumerate_vertices

    def counting(poly):
        calls.append(poly)
        return enumerate_vertices(poly)

    monkeypatch.setattr(polykernel, "enumerate_vertices", counting)
    bodies._corner_cut_pair.cache_clear()
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", "polytope", "--out", str(k), str(l)]) == 0
    assert len(calls) == 2

    calls.clear()
    bodies._corner_cut_pair.cache_clear()
    assert main(["lemma1", "--spec-k", str(k), "--spec-l", str(l), "--samples", "20",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 2

    # a cached construction cannot be changed through the arrays it exposes
    cons = bodies.build_polytope_pair([1.0, 1.2, 1.5], [1, 1, 1], [1, 1, -1])
    assert cons is bodies.build_polytope_pair((1.0, 1.2, 1.5), [1, 1, 1], [1, 1, -1])
    assert not any(x.flags.writeable for x in (cons.a, cons.u_signs, cons.v_signs))


def test_lemma1_cli_pass(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["lemma1", "--pair", "smooth", "--samples", "50",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "lemma1: PASS" in capsys.readouterr().out
    assert (out / "report.json").exists()
    assert len((out / "samples.csv").read_text(encoding="utf-8").splitlines()) == 51
    _validate(out / "report.json")


def test_math_failure_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sections", "--pair", "control-rotated", "--samples", "10",
                 "--out", str(out)])
    assert code == 2
    assert "sections: FAIL" in capsys.readouterr().out
    _validate(out / "report.json")  # failing reports still serialize


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["lemma1", "--pair", "banana"]) == 1
    assert main(["lemma1", "--frobnicate"]) == 1
    assert main(["construct", "--pair", "control-rotated"]) == 1  # --out is required
    err = capsys.readouterr().err
    assert "error:" in err


def test_invalid_slab_width_exits_1_without_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["slabs", "--pair", "polytope", "--t", "9.9", "--samples", "5",
                 "--out", str(out)])
    assert code == 1
    assert "max admissible" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["lemma1", "--pair", "smooth", "--samples", "0"],
     "error: argument --samples: must be at least 1, got 0\n"),
    (["lemma1", "--pair", "smooth", "--samples", "-3"],
     "error: argument --samples: must be at least 1, got -3\n"),
    (["sections", "--pair", "polytope", "--n", "2"],
     "error: pair 'polytope' supports n = 3 or 4, got n=2\n"),
    (["sections", "--pair", "control-rotated", "--n", "2"],
     "error: pair 'control-rotated' supports n = 3 or 4, got n=2\n"),
    (["slabs", "--n", "4"],
     "error: no slab estimator for a body of kind 'revolution' in R^4\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "epsilon": 0.5}',
      "--spec-l", '{"type": "revolution", "epsilon": 0.5, "variant": "L"}'],
     "error: revolution profile is not concave and positive: max f'' = 386.4, "
     "min f = 0.001414\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "epsilon": NaN}',
      "--spec-l", '{"type": "revolution", "variant": "L"}'],
     "error: epsilon must be finite\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "n": 3.7}',
      "--spec-l", '{"type": "revolution", "variant": "L"}'],
     "error: body spec field 'n' takes integers, got 3.7\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, 1.5], '
      '"u_signs": [1.5, 1, 1]}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'u_signs' takes integers, got 1.5\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [NaN, 1.2, 1.5]}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: box half-widths a must be finite\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, Infinity]}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: box half-widths a must be finite\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, 1.5], '
      '"lambda": Infinity}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: cut depth lambda must be finite\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "delta": "0.12"}',
      "--spec-l", '{"type": "revolution", "variant": "L"}'],
     "error: body spec field 'delta' takes numbers, got \"0.12\"\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "epsilon": false}',
      "--spec-l", '{"type": "revolution", "variant": "L"}'],
     "error: body spec field 'epsilon' takes numbers, got false\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": ["1.0", 1.2, 1.5]}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'a' takes numbers, got \"1.0\"\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, 1.5], '
      '"lambda": true}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'lambda' takes numbers, got true\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": 5}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'a' takes a list, got 5\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": "123"}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'a' takes a list, got \"123\"\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, 1.5], '
      '"u_signs": null}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'u_signs' takes a list, got null\n"),
    (["lemma1", "--spec-k", '{"type": "polytope", "a": [1.0, 1.2, 1.5], '
      '"v_signs": {"0": 1}}',
      "--spec-l", '{"type": "polytope", "a": [1.0, 1.2, 1.5], "variant": "L"}'],
     "error: body spec field 'v_signs' takes a list, got {\"0\": 1}\n"),
    (["lemma1", "--pair", "polytope", "--samples", "5", "--tol", "-1"],
     "error: argument --tol: must be at least 0, got -1.0\n"),
    (["lemma1", "--pair", "polytope", "--samples", "5", "--tol", "nan"],
     "error: argument --tol: must be finite, got nan\n"),
    (["sections", "--pair", "polytope", "--samples", "5", "--tol", "inf"],
     "error: argument --tol: must be finite, got inf\n"),
    (["convergence", "--pair", "polytope", "--i", "2", "--t", "nan", "--t", "0.1"],
     "error: argument --t: must be finite, got nan\n"),
    (["slabs", "--pair", "polytope", "--samples", "5", "--t", "0"],
     "error: argument --t: must be above 0, got 0.0\n"),
    (["slabs", "--pair", "polytope", "--samples", "5", "--t", "-0.5"],
     "error: argument --t: must be above 0, got -0.5\n"),
    (["lemma1", "--spec-k", '{"type": "revolution", "n": 2}',
      "--spec-l", '{"type": "revolution", "n": 3}'],
     "error: oracles must share a dimension\n"),
    (["sections", "--spec-k", '{"type": "revolution", "n": 2}',
      "--spec-l", '{"type": "revolution", "n": 3}', "--k", "1", "--i", "1"],
     "error: oracles must share a dimension\n"),
    (["projections", "--spec-k", '{"type": "revolution", "n": 2}',
      "--spec-l", '{"type": "revolution", "n": 3}', "--k", "1"],
     "error: oracles must share a dimension\n"),
    (["slabs", "--spec-k", '{"type": "revolution", "n": 2}',
      "--spec-l", '{"type": "revolution", "n": 3}'],
     "error: oracles must share a dimension\n"),
    # RngStream keeps 64 bits of a seed: any other would alias a valid one
    (["lemma1", "--pair", "smooth", "--samples", "5", "--seed", "-1"],
     "error: argument --seed: must be in [0, 2^64), got -1\n"),
    (["lemma1", "--pair", "smooth", "--samples", "5", "--seed", "18446744073709551621"],
     "error: argument --seed: must be in [0, 2^64), got 18446744073709551621\n"),
    (["all", "--seed", "18446744073709551616"],
     "error: argument --seed: must be in [0, 2^64), got 18446744073709551616\n"),
    (["all", "--seed", "-5"], "error: argument --seed: must be in [0, 2^64), got -5\n"),
    (["all", "--seed", "7.5"], "error: argument --seed: invalid int value: '7.5'\n"),
    # ball and derived records, nested bases included
    (["lemma1", "--spec-k", '{"type": "ball", "radius": 0}', "--spec-l", '{"type": "ball"}'],
     "error: ball needs a positive dimension and radius, got n=3, radius=0.0\n"),
    (["lemma1", "--spec-k", '{"type": "ball", "radius": -2.5}', "--spec-l", '{"type": "ball"}'],
     "error: ball needs a positive dimension and radius, got n=3, radius=-2.5\n"),
    (["lemma1", "--spec-k", '{"type": "ball", "radius": Infinity}', "--spec-l", '{"type": "ball"}'],
     "error: ball needs a positive dimension and radius, got n=3, radius=inf\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, "transform": "translate", '
      '"shift": 0.3}'],
     "error: body spec field 'shift' takes a list, got 0.3\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, "transform": "translate", '
      '"shift": [0.3, 0.0]}'],
     "error: shift dimension must match the body\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, "transform": "translate", '
      '"shift": [1.5, 0.0, 0.0]}'],
     "error: shift must be interior with margin 1e-9 (margin -5.000e-01)\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, "transform": "translate"}'],
     "error: derived body spec takes transform 'rotate-quarter-turn', "
     "or 'translate' with a field 'shift'\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, '
      '"transform": "rotate-quarter-turn"}'],
     "error: rotate-quarter-turn takes a polytope base, got ball\n"),
    (["lemma1", "--spec-k", '{"type": "revolution"}',
      "--spec-l", '{"type": "derived", "base": {"type": "revolution"}, '
      '"transform": "rotate-quarter-turn"}'],
     "error: rotate-quarter-turn takes a polytope base, got revolution\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball"}, "transform": "reflect"}'],
     "error: derived body spec takes transform 'rotate-quarter-turn', "
     "or 'translate' with a field 'shift'\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "transform": "translate", "shift": [0.3, 0.0, 0.0]}'],
     "error: derived body spec requires field 'base' (a body spec object)\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": [1, 2, 3], "transform": "translate", '
      '"shift": [0.3, 0.0, 0.0]}'],
     "error: derived body spec requires field 'base' (a body spec object)\n"),
    (["lemma1", "--spec-k", '{"type": "ball"}',
      "--spec-l", '{"type": "derived", "base": {"type": "ball", "colour": "red"}, '
      '"transform": "translate", "shift": [0.3, 0.0, 0.0]}'],
     "error: unknown field 'colour' in ball body spec\n"),
])
def test_bad_input_exits_1_naming_the_problem(tmp_path, capsys, argv, message):
    # a JSON body spec in argv stands for a spec file holding it
    argv = list(argv)
    for j, arg in enumerate(argv):
        if arg.startswith("{"):
            argv[j] = str(tmp_path / f"spec{j}.json")
            Path(argv[j]).write_text(arg, encoding="utf-8")
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_projections_k3_of_a_translated_smooth_body_are_its_base_projections(tmp_path,
                                                                             capsys):
    # a translate of a body of revolution projects as its base does, moved,
    # so its k = 3 rows are the base's profile quadrature
    spec = tmp_path / "l.json"
    spec.write_text('{"type": "derived", "base": {"type": "revolution", "n": 4}, '
                    '"transform": "translate", "shift": [0.1, 0.0, 0.0, 0.0]}', encoding="utf-8")
    base = tmp_path / "k.json"
    base.write_text('{"type": "revolution", "n": 4}', encoding="utf-8")
    out = tmp_path / "o"
    code = main(["projections", "--spec-k", str(base), "--spec-l", str(spec), "--k", "3",
                 "--samples", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["methods"] == ["quadrature"]
    assert summary["max_abs_diff"] == 0.0


def test_projections_k3_of_the_shifted_control_are_exact(tmp_path, capsys):
    # a ball and its translate project to the same 3-ball
    out = tmp_path / "o"
    code = main(["projections", "--pair", "control-shifted", "--n", "4", "--k", "3",
                 "--samples", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["methods"] == ["exact-ball"]
    assert summary["max_abs_diff"] == 0.0


def test_sections_k4_of_the_shifted_control_fail_on_exact_ball_rows(tmp_path, capsys):
    # a ball and a translated ball have a row for every i < k, so the
    # control runs and fails, as a control should
    out = tmp_path / "o"
    code = main(["sections", "--pair", "control-shifted", "--n", "5", "--k", "4", "--i", "1",
                 "--samples", "2", "--out", str(out)])
    assert code == 2
    assert "sections: FAIL" in capsys.readouterr().out
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["methods"] == ["exact-ball"]


def _translated_smooth_specs(tmp_path, n: int) -> list[str]:
    """--spec-k/--spec-l arguments of the smooth pair in R^n, each body
    translated by (0.1, -0.05, 0.2, 0.05, ...)."""
    shift = ([0.1, -0.05, 0.2] + [0.05] * n)[:n]
    argv = []
    for flag, variant in (("--spec-k", "K"), ("--spec-l", "L")):
        path = tmp_path / f"translated-{n}-{variant}.json"
        path.write_text(json.dumps({"type": "derived", "transform": "translate", "shift": shift,
                                    "base": {"type": "revolution", "n": n, "variant": variant}}),
                        encoding="utf-8")
        argv += [flag, str(path)]
    return argv


@pytest.mark.parametrize("k, i", [(3, 1), (4, 1), (4, 4)])
def test_codimension_2_sections_of_a_translated_smooth_body_take_the_profile(tmp_path, capsys,
                                                                            k, i):
    # a section of a translate is again a body of revolution, whatever its
    # codimension: 3-d and 4-d sections in R^5 take the profile quadrature
    out = tmp_path / "o"
    code = main(["sections", *_translated_smooth_specs(tmp_path, 5), "--k", str(k),
                 "--i", str(i), "--samples", "3", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["methods"] == ["quadrature"]


def test_hyperplane_sections_of_a_translated_smooth_body_take_the_profile(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sections", *_translated_smooth_specs(tmp_path, 4), "--k", "3", "--i", "1",
                 "--samples", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["methods"] == ["quadrature"]


@pytest.mark.parametrize("n_args", [["--n", "5"], ["--n", "4"], []])
def test_n_with_spec_files_must_be_their_dimension(tmp_path, capsys, n_args):
    # --n sets a named pair's dimension; with spec files it is theirs, and
    # a different --n is an error that writes nothing
    out = tmp_path / "o"
    code = main(["sections", *_translated_smooth_specs(tmp_path, 4), *n_args, "--k", "3",
                 "--i", "1", "--samples", "2", "--out", str(out)])
    if n_args == ["--n", "5"]:
        assert code == 1
        assert capsys.readouterr().err == "error: --n 5 differs from the specs' dimension 4\n"
        assert not out.exists()
    else:
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["parameters"]["dimension"] == 4


def test_no_command_runs_a_sphere_search(tmp_path, capsys, monkeypatch):
    """With the grid-and-zoom search made to raise in every module that
    binds it, every entry of `all` runs, and so do the sections, slabs and
    convergence of translated smooth bodies."""
    def search(*args, **kwargs):
        raise AssertionError("a sphere search ran")

    searches = [getattr(intrinsic, name)
                for name in ("support_from_radial", "_zoom_extremum", "sphere_grid")]
    for module in [m for name, m in sys.modules.items() if name.startswith("convexlab")]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in searches):
                monkeypatch.setattr(module, attr, search)
    assert main(["all", "--out", str(tmp_path / "all")]) == 0
    runs = [(4, ["sections", "--k", "3", "--i", "1", "--samples", "2"])] + [
        (3, ["slabs", "--i", i, "--samples", "2"]) for i in "123"] + [
        (3, ["convergence", "--i", "1"]), (3, ["convergence", "--i", "2"])]
    for j, (n, argv) in enumerate(runs):
        code = main(argv + _translated_smooth_specs(tmp_path, n) + ["--out", str(tmp_path / str(j))])
        assert code in (0, 2), (argv, capsys.readouterr().err)


def test_partial_outputs_are_removed_on_error(tmp_path, capsys):
    k = tmp_path / "k.json"
    blocked = tmp_path / "blocked"
    blocked.mkdir()  # write_text on a directory fails after K was written
    assert main(["construct", "--out", str(k), str(blocked)]) == 1
    assert not k.exists()


def test_spec_file_pair(tmp_path, capsys):
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--out", str(k), str(l)]) == 0
    out = tmp_path / "o"
    code = main(["lemma1", "--spec-k", str(k), "--spec-l", str(l),
                 "--samples", "40", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["bodies"]["K"]["type"] == "revolution"

    assert main(["lemma1", "--spec-k", str(k), "--out", str(out)]) == 1
    assert "given together" in capsys.readouterr().err


@pytest.mark.parametrize("pair, method", [("smooth", "profile-mismatch"),
                                          ("polytope", "vertex-distance-multiset"),
                                          ("control-rotated", "vertex-distance-multiset"),
                                          ("control-shifted", "harmonic-spectrum")])
def test_certify_spec_file_pair(tmp_path, capsys, pair, method):
    # a control's files certify as congruent by construction, as --pair does
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", pair, "--out", str(k), str(l)]) == 0
    out = tmp_path / "o"
    assert main(["certify", "--spec-k", str(k), "--spec-l", str(l),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    control = pair.startswith("control-")
    assert summary["expected_noncongruent"] is not control and summary["pass"] is True
    assert [c["method"] for c in summary["certificates"]] == [method]
    assert summary["certificates"][0]["verdict"] == (
        "inconclusive" if control else "noncongruent")


_POLY3_RECORD = {"type": "polytope", "a": [1.0, 1.2, 1.5]}
_SMOOTH3_RECORD = {"type": "revolution", "n": 3}


def _turned(base):
    return {"type": "derived", "base": base, "transform": "rotate-quarter-turn"}


def _moved(base, shift):
    return {"type": "derived", "base": base, "transform": "translate", "shift": shift}


@pytest.mark.parametrize("records", [
    (_turned(_POLY3_RECORD), _POLY3_RECORD),
    (_moved({"type": "ball", "n": 3}, [0.3, 0.0, 0.0]), {"type": "ball", "n": 3}),
    (_moved(_SMOOTH3_RECORD, [0.1, -0.05, 0.2]), _SMOOTH3_RECORD),
    (_moved(_SMOOTH3_RECORD, [0.1, -0.05, 0.2]), _moved(_SMOOTH3_RECORD, [-0.2, 0.0, 0.1])),
], ids=["control-rotated", "control-shifted", "translated-smooth", "two-translates"])
def test_congruent_by_construction_in_either_order(tmp_path, capsys, records):
    """Two records that agree once their derived layers (quarter turns and
    translates, both isometries) are stripped make a congruent pair,
    whichever body is K.  certify then expects no conclusive certificate
    and exits 0 in both orders; two translates take the harmonic
    certificate as a translate and its base do, so they skip its 1 s run."""
    for order, pair in enumerate((records, records[::-1])):
        assert not BodyPair.from_bodies("custom", *map(body_from_record, pair)).expect_noncongruent
        if records[0]["type"] == records[1]["type"] == "derived":
            continue
        paths = [tmp_path / f"{order}-{side}.json" for side in "kl"]
        for path, record in zip(paths, pair):
            path.write_text(json.dumps(record), encoding="utf-8")
        out = tmp_path / f"o{order}"
        assert main(["certify", "--spec-k", str(paths[0]), "--spec-l", str(paths[1]),
                     "--out", str(out)]) == 0, order
        summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
        assert summary["expected_noncongruent"] is False and summary["pass"] is True


def test_derived_layers_keep_the_pairs_noncongruent():
    """A quarter turn or a translate of K against L, in either order, is
    still a noncongruent pair."""
    for k, l in ((_turned(_POLY3_RECORD), {**_POLY3_RECORD, "variant": "L"}),
                 (_moved(_SMOOTH3_RECORD, [0.1, 0.0, 0.0]), {**_SMOOTH3_RECORD, "variant": "L"})):
        for order in ((k, l), (l, k)):
            assert BodyPair.from_bodies("custom", *map(body_from_record, order)).expect_noncongruent


def test_sections_spec_file_pair_writes_profiles(tmp_path, capsys):
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--out", str(k), str(l)]) == 0
    out = tmp_path / "o"
    assert main(["sections", "--spec-k", str(k), "--spec-l", str(l),
                 "--samples", "2", "--svg", "--out", str(out)]) == 0
    text = (out / "profiles.svg").read_text(encoding="utf-8")
    assert "<svg" in text and "f (body K)" in text


def test_spec_constraint_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "revolution", "delta": 0.2}', encoding="utf-8")
    good = tmp_path / "good.json"
    good.write_text('{"type": "revolution"}', encoding="utf-8")
    code = main(["lemma1", "--spec-k", str(bad), "--spec-l", str(good),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "(0, 1/6)" in capsys.readouterr().err


def test_svg_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sections", "--pair", "smooth", "--samples", "2", "--svg",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    for name in ("profiles.svg", "rel_diff.svg", "sections.svg"):
        text = (out / name).read_text(encoding="utf-8")
        assert "<svg" in text and "</svg>" in text


def test_rerun_is_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["lemma1", "--pair", "polytope", "--samples", "25",
                     "--seed", "11", "--out", str(out)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["lemma1", "--pair", "smooth", "--samples", "3"],
    ["lemma1", "--pair", "control-shifted", "--samples", "3"],
    ["sections", "--pair", "polytope", "--samples", "2"],
    ["slabs", "--pair", "polytope", "--samples", "2"],
    ["projections", "--pair", "control-rotated", "--samples", "2"],
    ["convergence", "--pair", "polytope", "--i", "2", "--t", "0.4", "--t", "0.2"],
    ["certify", "--pair", "smooth"],
])
def test_single_commands_record_the_pair_snapshots(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) in (0, 2)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["bodies"] == make_pair(argv[2]).snapshots


@pytest.mark.parametrize("pair", PAIR_NAMES)
def test_spec_file_report_records_the_specs(tmp_path, capsys, pair):
    # a report's bodies are the construct files, so a run can be repeated
    # from its own report (the controls fail lemma1, with exit 2)
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", pair, "--out", str(k), str(l)]) == 0
    argv = ["lemma1", "--samples", "20", "--seed", "5"]
    out = tmp_path / "o"
    code = main(argv + ["--spec-k", str(k), "--spec-l", str(l), "--out", str(out)])
    assert code == (2 if pair.startswith("control-") else 0)
    bodies = json.loads((out / "report.json").read_text(encoding="utf-8"))["bodies"]
    k2, l2 = tmp_path / "k2.json", tmp_path / "l2.json"
    for path, record in ((k2, bodies["K"]), (l2, bodies["L"])):
        path.write_text(canonical_json(record), encoding="utf-8")
    assert k2.read_bytes() == k.read_bytes() and l2.read_bytes() == l.read_bytes()
    rerun = tmp_path / "rerun"
    assert main(argv + ["--spec-k", str(k2), "--spec-l", str(l2), "--out", str(rerun)]) == code
    for name in ("report.json", "samples.csv"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


_SPEC_RUNS = {
    "lemma1": ["--samples", "6"],
    "sections": ["--k", "2", "--i", "1", "--samples", "2"],
    "slabs": ["--i", "3", "--samples", "2"],
    "projections": ["--k", "1", "--samples", "4"],
    "convergence": ["--i", "1", "--t", "0.4", "--t", "0.2"],
    "certify": [],
}


@pytest.mark.parametrize("pair", PAIR_NAMES)
@pytest.mark.parametrize("command", list(_SPEC_RUNS))
def test_construct_files_run_as_the_named_pair(tmp_path, capsys, pair, command):
    # the files construct writes are the pair: the same report bytes as
    # --pair, except certify's parameters.pair, which is "custom"
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", pair, "--out", str(k), str(l)]) == 0
    argv = [command, *_SPEC_RUNS[command], "--seed", "3"]
    named, spec = tmp_path / "named", tmp_path / "spec"
    code = main(argv + ["--pair", pair, "--out", str(named)])
    assert code in (0, 2)
    assert main(argv + ["--spec-k", str(k), "--spec-l", str(l), "--out", str(spec)]) == code
    reports = [json.loads((out / "report.json").read_text(encoding="utf-8"))
               for out in (named, spec)]
    if command == "certify":
        assert [r["parameters"] for r in reports] == [{"pair": pair}, {"pair": "custom"}]
        reports[1]["parameters"] = reports[0]["parameters"]
        assert reports[0] == reports[1]
        return
    for name in ("report.json", "samples.csv"):
        assert (spec / name).read_bytes() == (named / name).read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_verdicts_hold_at_other_seeds(tmp_path, capsys, seed):
    # every verdict is a property of its pair, not of one seed's draw
    out = tmp_path / "all"
    assert main(["all", "--seed", str(seed), "--out", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert (summary["entries_ok"], summary["entries_total"]) == (22, 22)


def test_every_suite_entry_reruns_from_its_recorded_bodies(tmp_path, capsys):
    # each entry of `all` records its bodies; read back, they give the same
    # pair, and the entry's run on it gives the same files
    out = tmp_path / "all"
    assert main(["all", "--seed", "7", "--out", str(out)]) == 0
    for name, pair_name, _, command, stream, arguments in cli._SUITE:
        records = json.loads((out / name / "report.json").read_text(encoding="utf-8"))["bodies"]
        bodies = [body_from_record(records[side]) for side in ("K", "L")]
        assert [record for _, record in bodies] == [records["K"], records["L"]]
        pair = BodyPair.from_bodies(pair_name, *bodies)
        assert pair.expect_noncongruent == make_pair(pair_name).expect_noncongruent
        report = cli._experiment(command, pair, RngStream(7, stream), **arguments)
        cli._write_report(tmp_path / "rerun" / name, report, [])
        for file in ("report.json", "samples.csv"):
            assert ((tmp_path / "rerun" / name / file).read_bytes()
                    == (out / name / file).read_bytes()), (name, file)


def test_convergence_and_certify_cli(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["convergence", "--pair", "polytope", "--i", "2",
                 "--t", "0.4", "--t", "0.2", "--t", "0.1", "--out", str(out)])
    assert code == 0
    _validate(out / "report.json")

    out2 = tmp_path / "z"
    assert main(["certify", "--pair", "polytope", "--out", str(out2)]) == 0
    _validate(out2 / "report.json")
    report = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    assert report["summary"]["certificates"][0]["verdict"] == "noncongruent"

    # a congruent control certifies as inconclusive, which counts as a pass
    assert main(["certify", "--pair", "control-rotated",
                 "--out", str(tmp_path / "r")]) == 0


def _child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this convexlab."""
    env = os.environ.copy()
    pkg_root = str(Path(convexlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(extra)
    return env


def test_polytope_runs_do_not_import_scipy_linalg_spatial_or_optimize(tmp_path):
    code = (
        "import sys\n"
        "from convexlab.cli import main\n"
        "runs = [['convergence'], ['certify'],\n"
        "        ['sections', '--n', '4', '--k', '3', '--samples', '2'],\n"
        "        ['projections', '--k', '2'], ['projections', '--n', '4', '--k', '3'],\n"
        "        ['slabs', '--i', '2']]\n"
        "for j, run in enumerate(runs):\n"
        "    out = sys.argv[1] + '/' + str(j)\n"
        "    code = main(run + ['--pair', 'polytope', '--out', out])\n"
        "    assert code == 0, run\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial', 'scipy.optimize')\n"
        "             if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_main_calls_in_one_process_give_the_bytes_of_fresh_interpreters(tmp_path):
    """The parser is built once per process; a second main call must not
    see the first one's arguments, such as the values of an append action."""
    runs = [["convergence", "--pair", "polytope", "--t", "0.4", "--t", "0.2"],
            ["convergence", "--pair", "polytope"]]
    code = (
        "import json, sys\n"
        "from convexlab.cli import main\n"
        "for j, run in enumerate(json.loads(sys.argv[2])):\n"
        "    print(main(run + ['--out', sys.argv[1] + '/shared/' + str(j)]))\n")
    shared = subprocess.run([sys.executable, "-c", code, str(tmp_path), json.dumps(runs)],
                            env=_child_env(), capture_output=True, text=True, cwd=str(tmp_path))
    assert shared.returncode == 0, shared.stderr
    fresh = []
    for j, run in enumerate(runs):
        proc = subprocess.run([sys.executable, "-m", "convexlab.cli", *run,
                               "--out", str(tmp_path / "fresh" / str(j))],
                              env=_child_env(), capture_output=True, text=True,
                              cwd=str(tmp_path))
        fresh += [proc.stdout, f"{proc.returncode}\n"]
    assert shared.stdout == "".join(fresh)
    for j in range(len(runs)):
        for name in ("report.json", "samples.csv"):
            assert ((tmp_path / "shared" / str(j) / name).read_bytes()
                    == (tmp_path / "fresh" / str(j) / name).read_bytes())
    report = json.loads((tmp_path / "shared" / "1" / "report.json").read_text(encoding="utf-8"))
    assert report["parameters"]["t_sequence"] == [0.4, 0.2, 0.1, 0.05]


def test_harmonic_certificate_does_not_import_scipy_special(tmp_path):
    code = (
        "import sys\n"
        "from convexlab.cli import main\n"
        "code = main(['certify', '--pair', 'control-shifted', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          env=_child_env(), capture_output=True, text=True,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert [c["method"] for c in report["summary"]["certificates"]] == [
        "harmonic-spectrum"]
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_convexlab_threads_overrides_exported_blas_variables(tmp_path):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    code = ("import os, convexlab\n"
            f"print([os.environ.get(v) for v in {names!r}])\n")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(OPENBLAS_NUM_THREADS="1", CONVEXLAB_THREADS="2"),
        capture_output=True, text=True, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["2"] * len(names))


def test_reports_carry_runtime(tmp_path, monkeypatch, capsys):
    args = build_parser().parse_args(["certify", "--pair", "polytope",
                                      "--out", str(tmp_path / "one")])
    report, _ = cli._run_single(args)
    assert report.runtime_seconds > 0.0

    made = []
    experiment = cli._experiment

    def recording(*args, **kwargs):
        made.append(experiment(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "_experiment", recording)
    monkeypatch.setattr(cli, "_SUITE",
                        (("certify-polytope", "polytope", True, "certify", 0, {}),))
    out = tmp_path / "suite"
    assert main(["all", "--out", str(out)]) == 0
    assert made[0].runtime_seconds > 0.0
    for path in (out / "report.json", out / "certify-polytope" / "report.json"):
        assert "runtime" not in path.read_text(encoding="utf-8")


def test_parser_defaults():
    args = build_parser().parse_args(["sections"])
    assert args.k == 2 and args.i is None and args.pair == "smooth" and args.n is None
    args = build_parser().parse_args(["slabs"])
    assert args.t == 0.5 and args.i is None
    args = build_parser().parse_args(["convergence"])
    assert args.t is None and args.i == 1
    with pytest.raises(CliError):
        build_parser().parse_args(["lemma1", "--samples", "abc"])
    for argv in (["lemma1"], ["all"]):
        assert build_parser().parse_args(argv + ["--seed", str(2**64 - 1)]).seed == 2**64 - 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_byte_identity_commands_parse():
    """Every command tools/byte_identity.py runs, its EXTRA list included,
    parses as the tool passes it."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"
    spec = importlib.util.spec_from_file_location("_convexlab_byte_identity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argvs = tool.command_list()
    assert [a for a in argvs if " ".join(a) in tool.EXTRA] == [m.split() for m in tool.EXTRA]
    for argv in argvs:
        args = build_parser().parse_args(argv + ["--seed", "7", "--out", "out"])
        assert args.command == argv[0]
