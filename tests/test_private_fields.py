"""PadicApprox's integers stay behind padic_core.

`padic_core._digit_form` is the one reader of an int, Fraction or PadicApprox
into digit form (ord, unit, abs_prec, den).  Every other module reads an
approximation through it or through PadicApprox's public accessors, so this
test parses each module of `src/padic_cf` and fails on any access to the
private fields `_lo`, `_unit`, `_prec` or `_exact` outside `padic_core.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "padic_cf"
PRIVATE = {"_lo", "_unit", "_prec", "_exact"}
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "padic_core.py")


def _private_reads(source: str) -> list[tuple[int, str]]:
    """(line, field) of every attribute access to a private PadicApprox field."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    )


def test_the_guard_sees_a_private_read():
    source = "def f(c, x0):\n    return (c._lo, c._unit * x0, c._prec), c.is_exact_zero\n"
    assert _private_reads(source) == [(2, "_lo"), (2, "_prec"), (2, "_unit")]
    assert _private_reads("b._clo, b._cunit, x.lo") == []


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"cfsystems.py", "cli.py", "ergodics.py", "lft.py"}


def test_the_test_oracles_read_no_private_field():
    # tests/reference.py reads a PadicApprox through its public operators too
    assert _private_reads((Path(__file__).parent / "reference.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_field_read_outside_padic_core(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []
