"""The names that the benchmark's span tracer looks up in the package.

`perfbench/spans.py` wraps functions and methods by name (`PadicApprox`'s
operators and `_split_at_one` among them), so a rename or deletion in
`src/` breaks `perfbench/run.py --trace 1` with a KeyError or
AttributeError at install time.  Installing the tracer here turns that into
a failing test.
"""

import importlib.util
import io
from pathlib import Path

import padic_cf
import padic_cf.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    modules = [padic_cf, padic_cf.padic_core, padic_cf.lft, padic_cf.cfsystems,
               padic_cf.ergodics, padic_cf.cli]
    classes = [padic_cf.PadicApprox, padic_cf.Ball, padic_cf.ProductCylinder]
    return [dict(vars(ns)) for ns in modules + classes]


def test_tracer_installs_and_uninstalls():
    before = _namespaces()
    tracer = _load_spans().Tracer()
    try:
        tracer.install(padic_cf)
        out = io.StringIO()
        argv = ["branches", "--p", "2", "--system", "schneider", "--bound", "2^3"]
        assert padic_cf.cli.main(argv, out=out) == 0
        assert len(out.getvalue().splitlines()) == 3
        assert "lft.iota" in {layer for layer, _ in tracer.layer_stats()}
    finally:
        tracer.uninstall()
    assert _namespaces() == before
