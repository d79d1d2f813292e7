"""The benchmark's workloads still build and pass against the package.

`perfbench/workloads.py` calls the package by module attribute and by CLI
argv (`pkg.ergodics.digit_mean_reports`, `pkg.cli.main([...])`, ...), so a
rename or signature change in `src/` breaks `perfbench/run.py` at run time.
Building each workload and running and judging its first call turns that
into a failing test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import padic_cf
import padic_cf.cli  # the convergents workload calls pkg.cli.main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
