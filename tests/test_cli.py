"""CLI behavior: exit codes, output files, spec parsing, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convexlab
from convexlab import cli
from convexlab.bodies import RevolutionBodySpec
from convexlab.cli import CliError, build_parser, main, parse_body_spec
from convexlab.polykernel import HPolytope

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "convexlab"
     / "report.schema.json").read_text(encoding="utf-8"))


def _validate(path: Path):
    import jsonschema

    jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), SCHEMA)


def test_parse_body_spec():
    spec = parse_body_spec('{"type": "revolution", "variant": "L"}')
    assert isinstance(spec, RevolutionBodySpec)
    assert spec.variant == "L" and spec.n == 3

    poly = parse_body_spec('{"type": "polytope", "a": [1.0, 1.2, 1.5]}')
    assert isinstance(poly, HPolytope)
    assert poly.num_facets == 8

    with pytest.raises(CliError, match="malformed JSON"):
        parse_body_spec("{nope")
    with pytest.raises(CliError, match="JSON object"):
        parse_body_spec("[1, 2]")
    with pytest.raises(CliError, match="'revolution' or 'polytope'"):
        parse_body_spec('{"type": "orb"}')
    with pytest.raises(CliError, match="unknown field 'bogus'"):
        parse_body_spec('{"type": "revolution", "bogus": 1}')
    with pytest.raises(CliError, match="unknown field 'wild'"):
        parse_body_spec('{"type": "polytope", "a": [1, 1.2, 1.5], "wild": 0}')
    with pytest.raises(CliError, match="requires field 'a'"):
        parse_body_spec('{"type": "polytope"}')
    with pytest.raises(CliError, match="'K' or 'L'"):
        parse_body_spec('{"type": "polytope", "a": [1, 1.2, 1.5], "variant": "Z"}')


def test_construct_pair_specs_rejects_controls():
    # control pairs are derived at run time and have no writable spec
    with pytest.raises(CliError, match="invalid choice: 'control-rotated'"):
        build_parser().parse_args(["construct", "--pair", "control-rotated",
                                   "--out", "k.json", "l.json"])


def test_construct_round_trip(tmp_path, capsys):
    k, l = tmp_path / "k.json", tmp_path / "l.json"
    assert main(["construct", "--pair", "polytope",
                 "--out", str(k), str(l)]) == 0
    assert "wrote" in capsys.readouterr().out
    dk = json.loads(k.read_text(encoding="utf-8"))
    dl = json.loads(l.read_text(encoding="utf-8"))
    assert dk["variant"] == "K" and dl["variant"] == "L"
    assert dk["a"] == dl["a"] == [1.0, 1.2, 1.5]
    assert isinstance(parse_body_spec(k.read_text(encoding="utf-8")), HPolytope)

    ks, ls = tmp_path / "ks.json", tmp_path / "ls.json"
    assert main(["construct", "--out", str(ks), str(ls)]) == 0
    assert json.loads(ks.read_text(encoding="utf-8"))["type"] == "revolution"


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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["lemma1", "--pair", "banana"]) == 1
    assert main(["lemma1", "--frobnicate"]) == 1
    assert main(["construct", "--pair", "control-rotated",
                 "--out", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
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
    (["slabs", "--n", "4"], "error: no slab estimator for n=4, i=4\n"),
    (["sections", "--pair", "smooth", "--n", "5", "--k", "4", "--i", "1"],
     "error: no section estimator for n=5, k=4, i=1\n"),
])
def test_bad_input_exits_1_naming_the_problem(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_projections_k3_on_smooth_n4_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["projections", "--pair", "smooth", "--n", "4", "--k", "3",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: no projection-volume path for k=3 on revolution\n")
    assert not out.exists()


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
        "        ['sections', '--n', '4', '--k', '3', '--samples', '2']]\n"
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
    assert args.k == 2 and args.i is None and args.pair == "smooth"
    args = build_parser().parse_args(["slabs"])
    assert args.t == 0.5 and args.i is None
    args = build_parser().parse_args(["convergence"])
    assert args.t is None and args.i == 1
    with pytest.raises(CliError):
        build_parser().parse_args(["lemma1", "--samples", "abc"])
