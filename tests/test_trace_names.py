"""The benchmark's span tracer looks convexlab names up with getattr, so a
renamed or deleted function would break `perfbench/run.py --trace 1` without
any other test failing.  These checks load the tracer by file path."""

import importlib
import importlib.util
from pathlib import Path

from convexlab import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("_convexlab_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans_module()
    names = list(spans.ORACLE_FACTORIES)
    names += [(mod, fname) for mod, fnames in spans.SPANNED.items() for fname in fnames]
    for mod, fname in names:
        module = importlib.import_module(f"convexlab.{mod}")
        assert callable(getattr(module, fname, None)), f"{mod}.{fname}"


def test_tracer_counts_oracle_calls(tmp_path, capsys):
    tracer = _spans_module().Tracer()
    with tracer.installed():
        code = cli.main(["projections", "--pair", "smooth", "--k", "1",
                         "--samples", "2", "--out", str(tmp_path / "o")])
    assert code == 0
    assert tracer.layer_metrics()["oracle.revolution.support.calls"] >= 1
    # leaving the context restores every original
    assert not hasattr(cli.main, "__wrapped__")
