"""Every module of `src/padic_cf` parses at the Python floor that
`pyproject.toml` declares (`requires-python = ">=X.Y"`), so syntax newer than
the floor (`except*`, say, at a 3.10 floor) fails here even though the suite
runs on a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "padic_cf").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def test_the_floor_refuses_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
    ast.parse(source, feature_version=(3, 11))


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"cfsystems.py", "cli.py", "padic_core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())
