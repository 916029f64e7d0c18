"""Every import of a covkit module is used by that module.

No linter runs in CI, so this parses each module with `ast` and fails on
a name an import binds that nothing in the module reads.  A name counts
as read when it appears as a Name node anywhere, annotations included;
`__init__.py` re-exports by design and is left out; instead its
`__all__` must list exactly the names it imports, each resolving.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "covkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom numpy import pi as PI, e\n"
              "def f(x: PI) -> float:\n    return math.sqrt(x)\n")
    assert unused_imports(source) == ["e (line 4)", "os (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_all_lists_exactly_what_the_package_imports():
    # a stale entry would break `from covkit import *`, a missing one
    # would leave a public name out of it
    import covkit
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    listed = [name for name in covkit.__all__ if name != "__version__"]
    assert len(set(covkit.__all__)) == len(covkit.__all__)
    assert sorted(listed) == sorted(imported)
    namespace = {}
    exec("from covkit import *", namespace)
    assert set(covkit.__all__) <= set(namespace)
