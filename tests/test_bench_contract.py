"""The benchmark's workloads still build and pass against the package.

`perfbench/workloads.py` calls the package by module attribute and by CLI
argv (`pkg.ergodics.digit_mean_reports`, `pkg.cli.main([...])`, ...), so a
rename or signature change in `src/` breaks `perfbench/run.py` at run time.
Building each workload and running and judging its first call turns that
into a failing test.  The names themselves are checked as well: every
attribute chain rooted at `pkg` in `perfbench/run.py` and
`perfbench/workloads.py` must resolve, the primitive sweep's included, which
runs only under `--trace 1`.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import padic_cf
import padic_cf.cli  # the convergents workload calls pkg.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BUILDERS = _load_workloads().BUILDERS


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_first_call_of_each_workload_passes_its_oracle(name):
    workload = BUILDERS[name](padic_cf, 1)
    assert workload.calls
    call, state = workload.calls[0], {}
    verdict = call.judge(call.run(state), state)
    assert verdict.ok, verdict.record[:200]


def _package_chains(source: str) -> set[str]:
    """Every attribute chain rooted at the name `pkg` in source, each prefix
    of a longer chain included: 'cfsystems' and 'cfsystems.step' for
    pkg.cfsystems.step(spec, x)."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id == "pkg":
            chains.add(".".join(reversed(attrs)))
    return chains


CHAINS = sorted(
    set().union(
        *(_package_chains((PERFBENCH / name).read_text(encoding="utf-8"))
          for name in ("run.py", "workloads.py"))
    )
)


def test_the_chains_cover_the_sweep_and_the_workloads():
    assert _package_chains("pkg.a.b(pkg.c)\nx.pkg.d") == {"a", "a.b", "c"}
    assert {"haar_sample", "cfsystems.step", "SystemSpec.schneider", "cli.main"} <= set(CHAINS)


@pytest.mark.parametrize("chain", CHAINS)
def test_each_name_perfbench_reads_resolves(chain):
    obj = padic_cf
    for attr in chain.split("."):
        obj = getattr(obj, attr)
