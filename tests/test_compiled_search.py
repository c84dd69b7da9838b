"""The compiled plain-rule search against the table scan it replaces once a
matcher has scanned enough, kept in ``reference_rewrite.table_scan``.

A matcher scans its table of plain rules position by position and counts
the positions; at ``_COMPILE_AFTER`` per lhs it compiles its lhs, ranked by
their first rules, into one ``re`` alternation.  Both searches must give
the same redex over every window ``[lo, hi)``, on drawn tables and on the
tables that Knuth-Bendix derives, whose ranks have gaps and whose lhs need
not sit in rank order.  A derived matcher counts from zero, so a run
compiles only the matchers that search much.
"""

import dataclasses
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import completion, rewrite
from rwlab.casestudy import m4_uncompleted, preset
from rwlab.core import Alphabet, OrderingSpec, Presentation, Rule, word
from test_completion_differential import _outcome, reference_knuth_bendix
from test_rewrite_differential import assert_same


def _clone(m, scanned):
    """A copy of the matcher ``m`` with its count set to ``scanned`` and
    nothing compiled."""
    c = object.__new__(rewrite._Matcher)
    for name in rewrite._Matcher.__slots__:
        setattr(c, name, getattr(m, name))
    c.scanned, c.search = scanned, None
    return c


def compiled(m):
    c = _clone(m, 0)
    c._compile()
    return c


def uncompiled(m):
    return _clone(m, -(10**9))  # never reaches the threshold


def windows_match(m, s) -> bool:
    """Whether the compiled and the uncompiled search of ``m`` find the
    reference redex in every window of ``s``, ``hi`` up to one past its end
    (where a reduction that shortened the string searches)."""
    fast, slow = compiled(m), uncompiled(m)
    for lo in range(len(s) + 1):
        for hi in range(lo, len(s) + 2):
            expected = ref.table_scan(m, s, lo, hi)
            if fast._plain(s, lo, hi) != expected or slow._plain(s, lo, hi) != expected:
                return False
    return True


# abc, ab and a match at one position; ab's rule is declared after abc's,
# and a first rule r0 of ab, dropped, leaves ab first in the table but
# ranked after abc.  Lexicographic order puts ab before abc.
PREFIXED = Presentation(
    Alphabet(("a", "b", "c")),
    (
        Rule("r0", word("a b"), word("a")),
        Rule("r1", word("a b c"), word("c")),
        Rule("r2", word("a b"), word("b")),
        Rule("r3", word("c a"), word("a")),
        Rule("r4", word("a"), ()),
    ),
    (),
    OrderingSpec(("a", "b", "c")),
)
PREFIXED_STRINGS = ("ABC", "CABC", "CCAB", "ABCAB", "CAAC")


def prefixed_matchers():
    """PREFIXED's matcher and the one derived from it by dropping r0, each
    on a fresh presentation."""
    p = dataclasses.replace(PREFIXED)
    return rewrite._matcher(p), rewrite._matcher(rewrite._derived(p, 0))


def compiled_search_matches_the_table_scan() -> bool:
    return all(windows_match(m, s) for m in prefixed_matchers() for s in PREFIXED_STRINGS)


def counting_compiles(monkeypatch) -> list:
    """The plain-lhs counts of the matchers compiled from now on."""
    seen, compile_ = [], rewrite._Matcher._compile
    monkeypatch.setattr(
        rewrite._Matcher, "_compile", lambda m: (seen.append(len(m.plain)), compile_(m))[1]
    )
    return seen


def q_run_compiles(monkeypatch, args) -> list:
    seen = counting_compiles(monkeypatch)
    completion.knuth_bendix(dataclasses.replace(preset("Q")), *args)
    return seen


def test_the_prefixed_lhs_match_the_table_scan_in_every_window():
    fresh, derived = prefixed_matchers()
    assert fresh.ranked() == ["AB", "ABC", "CA", "A"]
    assert derived.ranked() == ["ABC", "AB", "CA", "A"]
    assert list(derived.plain)[0] == "AB" and sorted(derived.plain)[0] == "A"
    assert compiled_search_matches_the_table_scan()


@st.composite
def plain_tables(draw):
    """A matcher of 2-3 letters and up to 8 rules whose lhs extend a few
    drawn stems, so that lhs share prefixes, several match at one position
    and some are declared twice; its rhs are shorter, so it is oriented.  In
    some draws the matcher is derived from one by dropping, rewriting or
    appending rules, as Knuth-Bendix derives its systems; a dropped rule is
    the first of an lhs declared twice where there is one, which leaves the
    lhs where it was in the table but ranks it by its second rule."""
    letters = ("a", "b", "c")[: draw(st.integers(2, 3))]
    letter = st.sampled_from(letters)
    stems = draw(st.lists(st.lists(letter, min_size=1, max_size=3), min_size=1, max_size=3))
    tail = st.lists(letter, max_size=2)
    lhs = st.builds(lambda stem, tail: tuple(stem + tail), st.sampled_from(stems), tail)

    def shorter(u):
        return tuple(draw(st.lists(letter, max_size=len(u) - 1)))

    def rule(name):
        u = draw(lhs)
        return Rule(name, u, shorter(u))

    rules = tuple(rule(f"r{k}") for k in range(draw(st.integers(1, 8))))
    p = Presentation(Alphabet(letters), rules, (), OrderingSpec(letters))
    for k in range(draw(st.integers(0, 3))):
        change, n = draw(st.sampled_from(("drop", "rewrite", "append"))), len(p.rules)
        if change == "append" or not n:
            p = rewrite._derived(p, n, rule(f"new{k}"))
        elif change == "drop":  # often the first of two rules with one lhs
            sides = [r.lhs for r in p.rules]
            shared = [i for i, u in enumerate(sides) if u in sides[i + 1 :]]
            p = rewrite._derived(p, draw(st.sampled_from(shared or range(n))))
        else:
            i = draw(st.integers(0, n - 1))
            p = rewrite._derived(p, i, Rule(f"new{k}", p.rules[i].lhs, shorter(p.rules[i].lhs)))
    m = rewrite._matcher(p)
    pieces = st.sampled_from(list(m.plain) + [m.chars[x] for x in letters])
    s = "".join(draw(st.lists(pieces, max_size=8)))[:20]
    return m, s


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=plain_tables())
def test_drawn_tables_match_the_table_scan_in_every_window(case):
    m, s = case
    assert windows_match(m, s)


def test_a_matcher_compiles_when_its_count_reaches_the_threshold():
    m = rewrite._Matcher(preset("Qbar"))
    threshold = rewrite._COMPILE_AFTER * len(m.plain)
    s = m.mirror(word("a a b b a' a' b' b' a' a"))  # one plain redex, a' a at 8
    assert ref.table_scan(m, s, 0, 8) is None
    m.scanned = threshold - 9
    assert m._plain(s, 0, 8) is None and m.scanned == threshold - 1 and m.search is None
    assert m._plain(s, 8, len(s)) == ref.table_scan(m, s, 8, len(s)) != None
    # the scan found its redex, then compiled
    assert m.scanned == threshold and m.search is not None
    assert m._plain(s, 0, len(s)) == ref.table_scan(m, s, 0, len(s)) and m.scanned == threshold


def test_a_preset_compiles_once_after_enough_searches(monkeypatch):
    seen = counting_compiles(monkeypatch)
    p, oracle = dataclasses.replace(preset("Qbar")), dataclasses.replace(preset("Qbar"))
    rng = random.Random(5)
    letters = ("a", "a'", "b", "b'", "h")
    for _ in range(60):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
        assert rewrite.normalize(w, p) == ref.normalize(w, oracle)
    assert seen == [len(rewrite._matcher(p).plain)]
    assert rewrite._matcher(p).search is not None


def test_a_q_run_compiles_at_most_a_few_derived_matchers(monkeypatch):
    # each of the 20 derived matchers counts its own scan from zero; one
    # that took its parent's count would compile after a few searches
    assert len(q_run_compiles(monkeypatch, (20, 8))) <= 3


def _derivations_checked(p, args, monkeypatch, words_per_system=6):
    """Run ``knuth_bendix`` and check every derived system's compiled search
    on its new rule's lhs and on seeded words against the reference
    reduction; returns the outcome and the number of systems checked."""
    original = completion._derived
    checked = []
    rng = random.Random(len(p.rules))
    letters = p.alphabet.letters

    def watch(sys, i, new=None):
        q = original(sys, i, new)
        c = dataclasses.replace(q)  # fresh caches, the derived table compiled
        c.__dict__["_matcher"] = compiled(rewrite._matcher(q))
        words = [new.lhs] if new is not None else []
        for _ in range(words_per_system):
            words.append(tuple(rng.choice(letters) for _ in range(rng.randint(2, 10))))
        for w in words:
            assert_same(w, c)
        checked.append(q)
        return q

    monkeypatch.setattr(completion, "_derived", watch)
    outcome = _outcome(completion.knuth_bendix(p, *args))
    return outcome, len(checked)


def test_q_derivations_reduce_alike_compiled(monkeypatch):
    p = dataclasses.replace(preset("Q"))
    outcome, checked = _derivations_checked(p, (30, 8), monkeypatch)
    assert checked >= 30
    assert outcome == _outcome(reference_knuth_bendix(p, 30, 8))


def test_m4_replay_derivations_reduce_alike_compiled(monkeypatch):
    p = m4_uncompleted()
    outcome, checked = _derivations_checked(p, (40, 8, 1), monkeypatch)
    assert checked > 10
    assert outcome == _outcome(reference_knuth_bendix(p, 40, 8, 1))


def test_a_run_that_compiles_every_matcher_completes_as_the_reference(monkeypatch):
    expected = _outcome(reference_knuth_bendix(dataclasses.replace(preset("Q")), 30, 8))
    monkeypatch.setattr(rewrite, "_COMPILE_AFTER", 0)  # compile on the first scan
    seen = counting_compiles(monkeypatch)
    assert _outcome(completion.knuth_bendix(dataclasses.replace(preset("Q")), 30, 8)) == expected
    assert len(seen) > 20
