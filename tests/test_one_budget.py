"""One work budget: ``rewrite.ENUMERATION_CAP`` governs every bounded sweep.

Setting that one binding to a small value must stop each sweep before it
starts its work, and no other module may hold a copy of the cap: a copy
made by ``from .rewrite import ENUMERATION_CAP`` or by assignment would no
longer follow the binding.
"""

import ast
from pathlib import Path

import pytest

from rwlab import casestudy, completion, rewrite, structure
from rwlab.casestudy import preset, verify_figure2, verify_identities
from rwlab.completion import critical_peaks, equivalence_classes
from rwlab.core import RwlabError, parse_presentation
from rwlab.rewrite import enumerate_normal_forms
from rwlab.structure import isometry_check

SRC = Path(__file__).resolve().parent.parent / "src" / "rwlab"
CAP = 10
ONE_LETTER = parse_presentation("letters a\norder a")


def _work(*args, **kwargs):
    raise AssertionError("the work began before the budget check")


@pytest.mark.parametrize(
    "call, module, work",
    [
        (lambda: enumerate_normal_forms(preset("Qbar"), 2), rewrite, "words_over"),
        # 6 words of length <= 5 over one letter, with 15 letters
        (lambda: enumerate_normal_forms(ONE_LETTER, 5), rewrite, "words_over"),
        (lambda: equivalence_classes(preset("Q"), 2), completion, "_UnionFind"),
        (lambda: critical_peaks(preset("Qbar"), 2), completion, "instantiate_schema"),
        (lambda: critical_peaks(preset("Qbar"), 0), completion, "CriticalPeak"),  # 4 instances
        (lambda: verify_figure2(1, 1, samples=0), casestudy, "build_ct_circuit"),
        (lambda: verify_identities(1, samples=0), casestudy, "build_C_path"),
        (lambda: isometry_check(preset("M4"), preset("N4"), 1), structure, "shortlex_key"),
    ],
    ids=["words", "letters", "classes", "instances", "peaks", "figure2", "identities", "isometry"],
)
def test_the_one_cap_stops_every_sweep_before_its_work(call, module, work, monkeypatch):
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", CAP)
    monkeypatch.setattr(module, work, _work)
    with pytest.raises(RwlabError, match=rf"more than {CAP}\b"):
        call()


def cap_copies(source: str) -> list:
    """Lines that bind ``ENUMERATION_CAP`` outside ``rewrite``: an
    assignment to the name or to an attribute of that name, or an import of
    it by name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [getattr(t, "id", getattr(t, "attr", "")) for t in targets]
        else:
            continue
        if "ENUMERATION_CAP" in names:
            out.append(node.lineno)
    return out


@pytest.mark.parametrize(
    "module",
    sorted(m for m in SRC.glob("*.py") if m.name != "rewrite.py"),
    ids=lambda p: p.name,
)
def test_only_rewrite_binds_the_cap(module):
    assert cap_copies(module.read_text()) == []


def test_a_copy_of_the_cap_is_reported():
    source = (
        "from .rewrite import ENUMERATION_CAP\n"
        "from . import rewrite\n"
        "ENUMERATION_CAP = 10\n"
        "ENUMERATION_CAP: int = 10\n"
        "rewrite.ENUMERATION_CAP = 10\n"
        "from .rewrite import (\n    check_budget,\n    ENUMERATION_CAP as CAP,\n)\n"
    )
    assert cap_copies(source) == [1, 3, 4, 5, 6]
