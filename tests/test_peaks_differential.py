"""``critical_peaks`` against the former enumeration over every rule pair.

``tests/reference_completion.py`` keeps the former ``critical_peaks``, which
called ``_peaks_for_pair`` on every ordered pair of the rule universe.  The
lists must be equal, order included: sorted by source under an ordering, in
rule-pair order without one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_completion as ref
from rwlab import completion, rewrite
from rwlab.casestudy import PRESETS, m4_uncompleted, preset
from rwlab.completion import critical_peaks
from rwlab.core import Alphabet, OrderingSpec, Presentation, Rule, RwlabError


def listing(peaks) -> list:
    return [(k.kind, k.rule1, k.rule2, k.gamma1, k.gamma2, k.source) for k in peaks]


def assert_same_peaks(p: Presentation, bound: int = 0) -> None:
    assert listing(critical_peaks(p, bound)) == listing(ref.critical_peaks(p, bound))


@pytest.mark.parametrize("name", PRESETS + ("M4-uncompleted",))
@pytest.mark.parametrize("bound", range(4))
def test_preset_peaks_match_the_reference(name, bound):
    p = m4_uncompleted() if name == "M4-uncompleted" else preset(name)
    assert_same_peaks(p, bound)


@st.composite
def plain_presentations(draw):
    """1-3 letters, lhs and rhs of 0-3 letters, repeated left-hand sides,
    names in a drawn order, and no ordering in some draws."""
    letters = ("a", "b", "c")[: draw(st.integers(1, 3))]
    side = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        repeat = pairs and draw(st.booleans())
        lhs = draw(st.sampled_from(pairs))[0] if repeat else draw(side)
        rhs = draw(side)
        if lhs != rhs and (rhs, lhs) not in pairs:
            pairs.append((lhs, rhs))
    names = draw(st.permutations([f"r{i}" for i in range(len(pairs))]))
    rules = tuple(Rule(name, lhs, rhs) for name, (lhs, rhs) in zip(names, pairs))
    ordering = draw(st.none() | st.permutations(letters).map(OrderingSpec))
    return Presentation(Alphabet(letters), rules, (), ordering)


@settings(max_examples=300, deadline=None)
@given(p=plain_presentations())
def test_drawn_presentations_match_the_reference(p):
    assert_same_peaks(p)


def test_unordered_peaks_are_in_rule_pair_order():
    p = Presentation(
        Alphabet(("a", "b")),
        (Rule("r0", ("b", "a"), ("a",)), Rule("r1", ("a", "b"), ())),
    )
    assert [k.describe() for k in critical_peaks(p)] == [
        "peak b a b [r0,r1]",
        "peak a b a [r1,r0]",
    ]


class _Instantiated(Exception):
    """Raised in place of the first schema instance."""


def test_instance_budget_counts_exactly_the_bounded_instances(monkeypatch):
    p, bound = preset("Qbar"), 2
    instances = len(p.schemas) * (1 + 4 + 16)  # four letters in every range

    def instantiate(*args):
        raise _Instantiated

    monkeypatch.setattr(completion, "instantiate_schema", instantiate)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", instances - 1)
    with pytest.raises(RwlabError, match=f"more than {instances - 1} schema instances at bound 2"):
        critical_peaks(p, bound)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", instances)
    with pytest.raises(_Instantiated):  # the budget passed
        critical_peaks(p, bound)


def test_peak_budget_counts_exactly_the_peaks(monkeypatch):
    p, bound = preset("Qbar"), 2
    peaks = len(critical_peaks(p, bound))
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", peaks - 1)
    with pytest.raises(RwlabError, match=f"more than {peaks - 1} critical peaks at bound 2"):
        critical_peaks(p, bound)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", peaks)
    assert len(critical_peaks(p, bound)) == peaks
