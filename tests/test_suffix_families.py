"""Suffix families normalized in one pass against per-word normalization.

``completion.normalize_suffixes`` takes a word the cache misses from the
normal form of its longest proper suffix in the family, but only on an
ambient that ``completion.is_complete`` knows to be complete.  Here its
normal forms, and Φ and ∂ built on it, are compared with per-word
``normalize`` and with ``tests/reference_*``: on P, which is complete; on
Qbar, M4 and N4 (schemas) and Q (not confluent), which take the per-word
fallback; on a plain non-confluent system where splicing would give a
different word; and on an unoriented ambient and foreign letters, where the
error must be the reference's.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_invariant as ref
import reference_rewrite as ref_rewrite
from rwlab import completion, rewrite
from rwlab.casestudy import build_C_path, build_ct_circuit, preset
from rwlab.core import Alphabet, OrderingSpec, Presentation, Rule, RwlabError, word
from rwlab.invariant import A_LETTERS, CASE_STUDY_WEIGHTS, CtParams, partial_derivation, phi_path
from rwlab.ring import format_ring


def fresh(name):
    """A copy of a preset with empty caches and no verdict yet."""
    return dataclasses.replace(preset(name))


def rand_word(rng, n, letters=A_LETTERS):
    return tuple(rng.choice(letters) for _ in range(n))


def assert_cache_whole(p):
    """Each key is in the order once, and the order holds the cache's keys."""
    order = list(p._nf_order)
    assert len(order) == len(set(order)) == len(p._nf_cache)
    assert set(order) == set(p._nf_cache)


def outcome(f, *args):
    """The printed value and term order of ``f(*args)``, or the class and
    message of the error it raises."""
    try:
        x = f(*args)
    except RwlabError as exc:
        return type(exc), str(exc)
    return format_ring(x), list(x.terms.items())


def recording(monkeypatch):
    """The words passed to ``normalize`` by the pass, from now on."""
    calls = []
    normalize = completion.normalize
    monkeypatch.setattr(completion, "normalize", lambda w, p: (calls.append(w), normalize(w, p))[1])
    return calls


# ---------------------------------------------------------------------------
# P: complete, so words start from their suffixes
# ---------------------------------------------------------------------------


def test_the_verdicts_of_the_presets():
    assert completion.is_complete(fresh("P"))
    for name in ("Q", "Qbar", "M4", "N4"):
        assert not completion.is_complete(fresh(name))


def test_the_verdict_is_taken_once(monkeypatch):
    p = fresh("P")
    assert completion.is_complete(p)
    monkeypatch.setattr(completion, "is_confluent_bounded", None)  # a second call would raise
    assert completion.is_complete(p)


@settings(max_examples=150, deadline=None)
@given(
    w=st.lists(st.sampled_from(A_LETTERS), max_size=40).map(tuple),
    data=st.data(),
)
def test_drawn_suffix_families_on_P_match_per_word_normalize(w, data):
    cuts = data.draw(st.lists(st.integers(0, len(w)), max_size=len(w) + 1))
    family = [w[k:] for k in cuts]
    warm = data.draw(st.lists(st.integers(0, len(w)), max_size=3))
    p, oracle = fresh("P"), fresh("P")
    for k in warm:  # some members may be cached already
        rewrite.normalize(w[k:], p)
    got = completion.normalize_suffixes(family, p)
    assert got == [rewrite.normalize(u, oracle) for u in family]
    assert got == [ref_rewrite.normalize(u, oracle) for u in family]
    assert all(p._nf_cache[u] == nf for u, nf in zip(family, got))  # each word is kept
    assert_cache_whole(p)


def test_eviction_keeps_the_cache_whole(monkeypatch):
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 7)
    rng = random.Random(7)
    p = fresh("P")
    for n in range(0, 60, 3):
        w = rand_word(rng, n)
        family = [w[k:] for k in range(len(w) + 1)]
        rng.shuffle(family)
        got = completion.normalize_suffixes(family, p)
        assert got == [ref_rewrite.normalize(u, p) for u in family]
        assert len(p._nf_order) <= 7
        assert_cache_whole(p)


def test_a_cached_word_costs_one_lookup(monkeypatch):
    p = fresh("P")
    w = word("a b a' b' a a b")
    family = [w[k:] for k in range(len(w))]
    first = completion.normalize_suffixes(family, p)
    calls = recording(monkeypatch)
    assert completion.normalize_suffixes(family, p) == first
    assert calls == []


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 40, 60, 80])
def test_swap_path_contexts_on_P_match_the_reference(P, n):
    rng = random.Random(n)
    for eps, delta in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for _ in range(3):
            path = build_C_path(rand_word(rng, n), eps, delta)
            ambient = fresh("P")
            got = phi_path(path, CASE_STUDY_WEIGHTS, ambient)
            want = ref.phi_path(path, CASE_STUDY_WEIGHTS, P)
            assert got == want and format_ring(got) == format_ring(want)
            assert list(got.terms.items()) == list(want.terms.items())
            assert_cache_whole(ambient)


def test_long_circuits_on_P_match_the_reference(P):
    rng = random.Random(11)
    for n in (8, 16, 30):
        w = rand_word(rng, n)
        cut = rng.randint(0, n)
        for params in (
            CtParams("CT1", x=rng.choice(A_LETTERS), w1=w[:cut], w2=w[cut:], eps=1, delta=-1),
            CtParams("CT4", w=w, eps=-1, delta=1),
            CtParams("CT5", x=rng.choice(A_LETTERS), w=w, eps=1, delta=1),
            CtParams("CT7", w1=w[:cut], eps1=1, delta1=-1, w2=w[cut:], eps2=-1, delta2=-1),
        ):
            circuit = build_ct_circuit(params)
            assert outcome(phi_path, circuit, CASE_STUDY_WEIGHTS, fresh("P")) == outcome(
                ref.phi_path, circuit, CASE_STUDY_WEIGHTS, P
            )


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20, 40, 60, 80])
def test_derivations_on_P_match_the_reference(P, n):
    rng = random.Random(100 + n)
    for _ in range(6):
        w = rand_word(rng, n)
        ambient = fresh("P")
        assert outcome(partial_derivation, w, ambient) == outcome(ref.partial_derivation, w, P)
        assert_cache_whole(ambient)


# ---------------------------------------------------------------------------
# The fallback: no known complete ambient, each word on its own
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["Q", "Qbar", "M4", "N4"])
def test_other_presets_take_the_per_word_fallback(monkeypatch, name):
    rng = random.Random(name)
    letters = preset(name).alphabet.letters
    for n in (3, 12, 30):
        w = ("h",) + rand_word(rng, n, letters)
        family = [w[k:] for k in range(len(w) + 1)]
        p, oracle = fresh(name), fresh(name)
        calls = recording(monkeypatch)
        got = completion.normalize_suffixes(family, p)
        monkeypatch.undo()
        assert calls == family  # a cold cache: every word is normalized as it is
        assert got == [ref_rewrite.normalize(u, oracle) for u in family]


@pytest.mark.parametrize("name", ["Q", "Qbar", "M4", "N4"])
def test_phi_and_derivation_on_other_presets_match_the_reference(name):
    rng = random.Random(name)
    for n in (0, 4, 15):
        w = rand_word(rng, n)
        path = build_C_path(w, 1, -1)
        assert outcome(phi_path, path, CASE_STUDY_WEIGHTS, fresh(name)) == outcome(
            ref.phi_path, path, CASE_STUDY_WEIGHTS, fresh(name)
        )
        assert outcome(partial_derivation, w, fresh(name)) == outcome(
            ref.partial_derivation, w, fresh(name)
        )


# ab -> z and xa -> y overlap in x a b, which the two sides leave as y b and
# x z: the system is not confluent, and nf(x·nf(ab)) = xz is not nf(xab) = yb
NON_CONFLUENT = Presentation(
    Alphabet(("a", "b", "x", "y", "z")),
    (Rule("r", ("a", "b"), ("z",)), Rule("s", ("x", "a"), ("y",))),
    ordering=OrderingSpec(("a", "b", "x", "y", "z")),
)

# the same overlap over the letters of ∂: a b -> b' and a' a -> b leave
# a' a b as b b and a' b', so ∂(a a' a b) would change if its suffix a' a b
# started from nf(a b) = b'
NON_CONFLUENT_FREE = Presentation(
    Alphabet(A_LETTERS),
    (Rule("r", ("a", "b"), ("b'",)), Rule("s", ("a'", "a"), ("b",))),
    ordering=OrderingSpec(A_LETTERS),
)


def test_a_non_confluent_system_takes_the_fallback(monkeypatch):
    p = dataclasses.replace(NON_CONFLUENT)
    assert not completion.is_complete(p)
    family = [word("x a b"), word("a b")]
    calls = recording(monkeypatch)
    assert completion.normalize_suffixes(family, p) == [word("y b"), word("z")]
    assert calls == family


def test_splicing_on_the_non_confluent_system_would_be_wrong(monkeypatch):
    # what the pass would give there, were the verdict wrong
    monkeypatch.setattr(completion, "is_complete", lambda p: True)
    got = completion.normalize_suffixes([word("x a b"), word("a b")], dataclasses.replace(NON_CONFLUENT))
    assert got == [word("x z"), word("z")]


def test_derivation_on_a_non_confluent_system_matches_the_reference():
    w = word("a a' a b")
    p = dataclasses.replace(NON_CONFLUENT_FREE)
    assert not completion.is_complete(p)
    got = outcome(partial_derivation, w, p)
    assert got == outcome(ref.partial_derivation, w, dataclasses.replace(NON_CONFLUENT_FREE))
    assert got[0] == "- b b - b + b'"  # -nf(a' a b) + nf(a b) - nf(b)


# ---------------------------------------------------------------------------
# Errors: the reference's class and message, in the reference's order
# ---------------------------------------------------------------------------

UNORIENTED = Presentation(
    Alphabet(A_LETTERS),
    (Rule("R", ("a",), ("b", "b")),),
    ordering=OrderingSpec(A_LETTERS),
)
NO_INVERSES = Presentation(  # a' and b' are foreign letters here
    Alphabet(("a", "b")), (Rule("R", ("a", "b"), ("b",)),), ordering=OrderingSpec(("a", "b"))
)
UNORIENTED_NO_INVERSES = Presentation(
    Alphabet(("a", "b")), (Rule("R", ("a",), ("b", "b")),), ordering=OrderingSpec(("a", "b"))
)
ERROR_AMBIENTS = (UNORIENTED, NO_INVERSES, UNORIENTED_NO_INVERSES)
ERROR_WORDS = ("a", "a' a", "a b'", "b' a b", "a b' a'", "b a b a'", "a h", "h a'", "b' b")


@pytest.mark.parametrize("ambient", ERROR_AMBIENTS, ids=("unoriented", "foreign", "both"))
def test_errors_match_the_reference(ambient):
    seen = set()
    for text in ERROR_WORDS:
        w = word(text)
        got = outcome(partial_derivation, w, dataclasses.replace(ambient))
        assert got == outcome(ref.partial_derivation, w, dataclasses.replace(ambient))
        seen.add(got[0] if isinstance(got[0], type) else None)
        if "h" in w:
            continue
        for eps, delta in ((1, 1), (-1, -1)):
            path = build_C_path(w, eps, delta)
            got = outcome(phi_path, path, CASE_STUDY_WEIGHTS, dataclasses.replace(ambient))
            want = outcome(ref.phi_path, path, CASE_STUDY_WEIGHTS, dataclasses.replace(ambient))
            assert got == want
            seen.add(got[0] if isinstance(got[0], type) else None)
    assert len(seen) >= 2  # the words reach more than one outcome
