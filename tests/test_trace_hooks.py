"""The names that the benchmark's span tracer looks up in the package.

`perfbench/spans.py` wraps functions and methods by name (`PadicApprox`'s
operators and `_split_at_one` among them), so a rename or deletion in
`src/` breaks `perfbench/run.py --trace 1` with a KeyError or
AttributeError at install time.  Installing the tracer here turns that into
a failing test.
"""

import importlib.util
import io
import sys
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


def test_traced_convergents_round_trip_matches_untraced(monkeypatch):
    # expand, then convergents --point on its output, as the convergents
    # workload runs them: the tracer swaps cli.json for a namespace of its
    # own, so a json attribute that namespace lacks would break only here
    flags = ["--p", "3", "--system", "jacobi-perron", "--m", "2", "--seed", "6"]

    def round_trip():
        digits, rows = io.StringIO(), io.StringIO()
        assert padic_cf.cli.main(["expand", *flags, "random:40", "--steps", "20"], out=digits) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(digits.getvalue()))
        argv = ["convergents", *flags, "-", "--point", "random:40"]
        assert padic_cf.cli.main(argv, out=rows) == 0
        return digits.getvalue() + rows.getvalue()

    before = _namespaces()
    untraced = round_trip()
    tracer = _load_spans().Tracer()
    try:
        tracer.install(padic_cf)
        traced = round_trip()
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    assert traced == untraced and len(untraced.splitlines()) > 20
    spans = {}
    for (layer, _), (count, _) in tracer.layer_stats().items():
        spans[layer] = spans.get(layer, 0) + count
    assert spans.get("cli.parse", 0) > 0 and spans.get("cli.format", 0) > 0
    assert tracer.counts()["cli.out_bytes"] == len(untraced.encode())


def test_tracer_installed_after_a_run_wraps_argparse():
    # the CLI caches its parser; a tracer installed after an untraced run
    # must still see parse_args, which perfbench's traced pass relies on
    argv = ["branches", "--p", "2", "--system", "schneider", "--bound", "2^3"]
    assert padic_cf.cli.main(argv, out=io.StringIO()) == 0
    before = _namespaces()
    tracer = _load_spans().Tracer()
    try:
        tracer.install(padic_cf)
        assert padic_cf.cli.main(argv, out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    stats = tracer.layer_stats().items()
    assert sum(count for (layer, _), (count, _) in stats if layer == "cli.parse") > 0
