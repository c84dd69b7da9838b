"""One search per leftmost step, against the compiled loop kept in
``reference_rewrite.compiled_leftmost_steps``.

A compiled matcher searches one ``re`` alternation, its ranked plain lhs
and then its schema patterns, so that at a position the first ranked lhs
wins, then the first declared schema with its shortest variable.  Every
step that does not resume a schema's search at its own position searches
from the start of the string; the resume is entered only when no schema
redex can start before the rewrite (``_Matcher._clear``).  That guard is
read from the rewrite's own stretch of the string, so the drawn systems
give their schemas different ranges, some holding another schema's prefix
letter: there, whether a redex can start before the rewrite does not
follow from one shared range.  A cold reduction of h·w·a·b on Qbar takes
quadratically many steps but makes linearly many full searches.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import rewrite
from rwlab.casestudy import preset
from rwlab.core import (
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    parse_presentation,
    word,
)
from test_compiled_search import compiled, uncompiled
from test_rewrite_differential import MIXED, long_word


def compiled_copy(p):
    """A copy of ``p`` with empty caches whose matcher has compiled its
    joint alternation."""
    q = dataclasses.replace(p)
    q.__dict__["_matcher"] = compiled(rewrite._matcher(q))
    return q


def uncompiled_copy(p):
    """A copy of ``p`` with empty caches whose matcher never compiles."""
    q = dataclasses.replace(p)
    q.__dict__["_matcher"] = uncompiled(rewrite._matcher(q))
    return q


def steps_of(w, q):
    m = rewrite.check_orientation(q)
    steps = rewrite._leftmost_steps(w, m.mirror(w), m)
    return [(i, j, x.name, m.word(t)) for t, i, j, a, b, x in steps]


def reference_steps(w, p):
    return [(i, j, x.name, u) for u, i, j, x, v in ref.compiled_leftmost_steps(w, p)]


def steps_match(p, words, copy=compiled_copy) -> bool:
    """Whether ``copy(p)`` takes the reference steps on every word."""
    q = copy(p)
    return all(steps_of(w, q) == reference_steps(w, p) for w in words)


# S1 deletes the b after h a¹⁶ at 1, which makes g h a¹⁶ d a redex of S2 at
# 0: S2's range holds h, S1's prefix letter, so a schema redex can start
# before the rewrite and the resume at 1 must not be entered.
GUARDED = parse_presentation(
    """
    letters g h a b d
    order g h a b d
    schema S1 ( X : a ) : h X b -> h X
    schema S2 ( Y : a h ) : g Y d -> g Y
    """
)
GUARDED_WORD = word("g h " + "a " * 16 + "b d")

# Qbar's swap h a b -> h b a is the plain rule C_pp and, with an empty
# variable, the instance of schema Cb_pp: the plain rule wins.
PLAIN_FIRST_WORDS = (word("h a b"), word("h a' b' a b"), word("a h a b b'"))


def test_a_range_holding_a_prefix_letter_keeps_the_resume_out():
    m = rewrite._matcher(dataclasses.replace(GUARDED))
    s = m.mirror(word("g h " + "a " * 16 + "d"))  # after S1's rewrite at 1
    assert not m._clear(s, 1, 18)
    for copy in (compiled_copy, uncompiled_copy):
        steps = [step[:3] for step in steps_of(GUARDED_WORD, copy(GUARDED))]
        assert steps == [(1, 19, "S1"), (0, 19, "S2")]
    assert steps_match(GUARDED, [GUARDED_WORD], uncompiled_copy)
    assert steps_match(GUARDED, [GUARDED_WORD], compiled_copy)


def test_the_plain_lhs_come_before_the_schemas_in_the_joint_alternation():
    q = compiled_copy(preset("Qbar"))
    assert steps_of(word("h a b"), q)[0][2] == "C_pp"
    assert steps_match(preset("Qbar"), PLAIN_FIRST_WORDS)


def test_a_compiled_leftmost_makes_one_search():
    m = compiled(rewrite._matcher(dataclasses.replace(preset("Qbar"))))
    search, calls = m.search, []
    m.search = lambda *args: calls.append(args) or search(*args)
    rng = random.Random(3)
    for _ in range(40):
        s = m.mirror(long_word(rng, "hwab", rng.randint(3, 30)))
        calls.clear()
        m.leftmost(s)
        assert len(calls) == 1


# ε -> a at every position: an empty lhs at the end of the word is no redex.
EMPTY_SCHEMA = Presentation(
    Alphabet(("a", "b")),
    (Rule("r", ("a", "b"), ("b",)),),
    (RuleSchema("e", "X", ("a",), (), (), (), ("a",)),),
)


def test_the_joint_search_finds_what_the_two_searches_find_from_every_start():
    rng = random.Random(8)
    for p in (preset("Qbar"), preset("M4"), MIXED, GUARDED, EMPTY_SCHEMA):
        fast = compiled(rewrite._matcher(dataclasses.replace(p)))
        slow = uncompiled(rewrite._matcher(dataclasses.replace(p)))
        letters = p.alphabet.letters
        for _ in range(30):
            s = fast.mirror(tuple(rng.choice(letters) for _ in range(rng.randint(0, 14))))
            for lo in range(len(s) + 2):
                assert fast.leftmost(s, lo) == slow.leftmost(s, lo)
                for hi in range(lo, len(s) + 2):  # past a schema's match too
                    assert fast._plain(s, lo, hi) == ref.table_scan(slow, s, lo, hi)
    m = compiled(rewrite._matcher(EMPTY_SCHEMA))
    assert m.leftmost("") is None and m.leftmost("AB", 2) is None
    assert m.leftmost("B")[:2] == (0, 0)


def test_a_cold_hwab_reduction_makes_linearly_many_full_searches(monkeypatch):
    # a search from 0 at every step would make one per step, 11 496 here
    n = 300
    rng = random.Random(n)
    w = ("h",) + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(n)) + ("a", "b")
    calls, leftmost = [], rewrite._Matcher.leftmost
    monkeypatch.setattr(
        rewrite._Matcher, "leftmost", lambda m, *args: calls.append(1) or leftmost(m, *args)
    )
    p = dataclasses.replace(preset("Qbar"))
    m = rewrite.check_orientation(p)
    steps = sum(1 for _ in rewrite._leftmost_steps(w, m.mirror(w), m))
    assert steps > n * n / 10
    assert len(calls) <= n
    calls.clear()
    rewrite.normalize(w, dataclasses.replace(preset("Qbar")))
    assert len(calls) <= n


ORDER = ("h", "g", "a", "b", "c")  # earlier letters are greater
SUFFIX = ("a", "b", "c")


@st.composite
def schema_system(draw):
    """Two to four schemas with prefix h, g or none, each over a range of
    its own drawn from all five letters, to which half of them add an
    earlier schema's prefix and range, so that ranges differ and some hold
    another schema's prefix letter; each keeps its prefix and drops a suffix
    letter or swaps two suffix letters to a smaller order, or rewrites its
    prefix letter to c.  Up to two plain rules delete the first letter of a
    two-letter lhs."""
    schemas = []
    for k in range(draw(st.integers(2, 4))):
        pre = draw(st.sampled_from(((), ("h",), ("g",))))
        rng = draw(st.sets(st.sampled_from(ORDER), min_size=1, max_size=3))
        if schemas and draw(st.booleans()):
            inner = draw(st.sampled_from(schemas))
            rng |= {*inner.lhs_prefix, *inner.variable_range}
        rng = tuple(sorted(rng))
        kind = draw(st.sampled_from(("drop", "swap", "prefix") if pre else ("drop", "swap")))
        if kind == "swap":
            x, y = sorted(draw(st.sets(st.sampled_from(SUFFIX), min_size=2, max_size=2)))
            suf, rpre, rsuf = (x, y), pre, (y, x)
        else:
            suf = tuple(draw(st.lists(st.sampled_from(SUFFIX), min_size=1, max_size=2)))
            if kind == "drop":
                cut = draw(st.integers(0, len(suf) - 1))
                rpre, rsuf = pre, suf[:cut] + suf[cut + 1 :]
            else:
                rpre, rsuf = ("c",), suf
        schemas.append(RuleSchema(f"S{k}", "X", rng, pre, suf, rpre, rsuf))
    lhs = st.lists(st.sampled_from(ORDER), min_size=2, max_size=2).map(tuple)
    rules = tuple(Rule(f"r{k}", u, u[1:]) for k, u in enumerate(draw(st.lists(lhs, max_size=2))))
    return Presentation(Alphabet(ORDER), rules, tuple(schemas), OrderingSpec(ORDER))


# runs of one letter, long enough for a variable of _RESUME_MIN letters
runs = st.lists(st.tuples(st.sampled_from(ORDER), st.integers(1, 18)), min_size=1, max_size=5).map(
    lambda blocks: tuple(x for x, count in blocks for _ in range(count))
)


@st.composite
def nested_redexes(draw, p):
    """The lhs prefixes of one to three of ``p``'s schemas, a run of 12 to
    20 times one letter of the last one's range, and their lhs suffixes in
    reverse order, with up to three letters put in at one place: the
    rewrite of an inner redex can make an outer one, which starts before
    it."""
    chosen = draw(st.lists(st.sampled_from(p.schemas), min_size=1, max_size=3))
    w = (draw(st.sampled_from(chosen[-1].variable_range)),) * draw(st.integers(12, 20))
    for s in reversed(chosen):
        w = s.lhs_prefix + w + s.lhs_suffix
    at = draw(st.integers(0, len(w)))
    return w[:at] + tuple(draw(st.lists(st.sampled_from(ORDER), max_size=3))) + w[at:]


@settings(max_examples=600, deadline=None)
@given(p=schema_system(), data=st.data())
def test_drawn_schema_systems_take_the_reference_steps(p, data):
    assert rewrite._matcher(p).unoriented is None
    w = data.draw(st.one_of(runs, nested_redexes(p)))
    expected = reference_steps(w, p)
    assert steps_of(w, uncompiled_copy(p)) == expected
    assert steps_of(w, compiled_copy(p)) == expected
