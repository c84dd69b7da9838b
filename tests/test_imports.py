"""No module of the package imports a name it never uses.

There is no linter among the package's dependencies, so this walks each
module's syntax tree: every name bound by an import must be read somewhere
in the module.  ``__init__.py`` re-exports by design and is skipped, as are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rwlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_unused_import_is_reported():
    source = "from os import path, sep\nimport sys\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "sys")]
