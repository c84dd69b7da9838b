"""Every ``lru_cache`` in the package has a finite ``maxsize``.

A cache without a bound grows with every distinct argument, so long-running
use would grow memory without limit.  This walks each module's syntax tree
and reports each ``lru_cache`` decorator whose ``maxsize`` is missing or
``None``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rwlab"
MODULES = sorted(SRC.glob("*.py"))


def _name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def unbounded_caches(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        for deco in getattr(node, "decorator_list", ()):
            call = deco if isinstance(deco, ast.Call) else None
            if _name(call.func if call else deco) != "lru_cache":
                continue
            sizes = []
            if call is not None:
                sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
            if not sizes or (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                out.append((node.lineno, node.name))
    return out


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_lru_cache_is_bounded(module):
    assert unbounded_caches(module.read_text()) == []


def test_unbounded_cache_is_reported():
    source = (
        "import functools\nfrom functools import lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef f(x): return x\n\n"
        "@functools.lru_cache\ndef g(x): return x\n\n"
        "@functools.lru_cache(None)\ndef h(x): return x\n\n"
        "@lru_cache(maxsize=CAP)\ndef k(x): return x\n\n"
        "@lru_cache(64)\ndef m(x): return x\n"
    )
    assert unbounded_caches(source) == [(5, "f"), (8, "g"), (11, "h")]
