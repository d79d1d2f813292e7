"""Every definition in the runtime package earns its place there.

A module-level function or class of `src/padic_cf` (outside `__init__.py`)
must be reached in one of three ways:

* another top-level statement of `src/padic_cf` references it, as a name,
  an attribute or an identifier string (`getattr`, a patch target);
* `perfbench/*.py` references it, so the benchmark can look it up;
* `padic_cf` exports it and `README.md` names it in backticks.

Anything else is reached only from the tests, and belongs in
`tests/reference.py` or in the test that uses it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "padic_cf"


def _references(node) -> set[str]:
    """Names, attribute names and identifier string constants under node."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def _unreached(sources: dict[str, str], bench: set[str], documented: set[str]) -> list[str]:
    """module.name of each top-level def or class in sources (a module name
    -> source text map; '__init__' is read but defines nothing checked) that
    no other top-level statement of sources references and that is in
    neither bench nor documented."""
    statements = [
        (module, stmt) for module, text in sources.items() for stmt in ast.parse(text).body
    ]
    refs = [_references(stmt) for _, stmt in statements]
    out = []
    for idx, (module, stmt) in enumerate(statements):
        if module == "__init__" or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name in bench or name in documented:
            continue
        if not any(name in r for j, r in enumerate(refs) if j != idx):
            out.append(f"{module}.{name}")
    return out


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {
        name
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }


def test_the_guard_sees_an_unreached_definition():
    sources = {
        "__init__": "from .a import shown, hidden\n",
        "a": (
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "def patched():\n    pass\n\n"
            "def timed():\n    pass\n\n"
            "def shown():\n    pass\n\n"
            "def hidden():\n    pass\n\n"
            "class Lonely:\n    pass\n"
        ),
        "b": "import a\nHOOK = 'patched'\nVALUE = a.used()\n",
    }
    # used and helper are referenced, patched by a string; recursive only by
    # itself; hidden is exported but undocumented
    got = _unreached(sources, bench={"timed"}, documented={"shown"})
    assert got == ["a.recursive", "a.hidden", "a.Lonely"]


def test_every_runtime_definition_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert {"cfsystems", "cli", "ergodics", "lft", "padic_core"} <= set(sources)
    bench = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _references(ast.parse(path.read_text(encoding="utf-8")))
    documented = _exported() & _readme_names()
    assert _unreached(sources, bench, documented) == []
