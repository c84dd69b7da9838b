"""The one-accumulation ``commutator`` and ``Witness.evaluate``, and the
right action by the empty word, against their former code, kept in
``reference_invariant``: the same terms in the same order from
``commutator`` and ``right_mul``, an equal value from ``evaluate``, and the
same error class and message on an ambient missing a letter and on an
unoriented one.  The identity and the units of ``closed_form_ct``, kept
once per ambient, must raise there as the former per-call ones did, on the
first call and on every later one, and stay with their own ambient."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_invariant as ref
from rwlab import invariant, obstruction, ring
from rwlab.casestudy import ct_parameter_sweep, preset
from rwlab.completion import normal_form
from rwlab.core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RwlabError,
    formal_inverse,
    word,
)
from rwlab.invariant import A_LETTERS, CT_FAMILIES, REQUIRED_SLOTS, WORD_SLOTS, CtParams
from rwlab.obstruction import ONE_MINUS_A, Witness, WitnessTerm, XGenRef
from rwlab.rewrite import OrientationError
from rwlab.ring import AmbientMismatch, RingElement

P = preset("P")
UNORIENTED_P = Presentation(P.alphabet, P.rules, P.schemas, None)
# the free group on a alone: b and b' are missing
A_ONLY = Presentation(
    Alphabet(("a", "a'"), (("a", "a'"),)),
    (Rule("I_a", ("a", "a'"), ()), Rule("I_a'", ("a'", "a"), ())),
    (),
    OrderingSpec(("a", "a'")),
)
SIGNS = (1, -1)
PAIRS = tuple((eps, delta) for eps in SIGNS for delta in SIGNS)


def words(max_size, letters=A_LETTERS):
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


def terms_of(call, *args):
    """The terms of ``call(*args)`` in order, or the class and message of
    the error it raises."""
    try:
        return list(call(*args).terms.items())
    except RwlabError as exc:
        return type(exc), str(exc)


def value_of(call, *args):
    """``call(*args)``, or the class and message of the error it raises."""
    try:
        return call(*args)
    except RwlabError as exc:
        return type(exc), str(exc)


@st.composite
def elements(draw, ambient, w, eps, delta):
    """A sum of ``c · u`` over drawn words, zero among them.  A drawn term
    may come with its own negation, written longer, or with a partner ``v``
    whose ``v·w·aᵉbᵈ`` is ``u·w·bᵈaᵉ``, so that the two tails cancel."""
    ab, ba = invariant.swap_pair(eps, delta)
    letters = ambient.alphabet.letters
    x = ring.zero(ambient)
    for c, u in draw(st.lists(st.tuples(st.integers(-3, 3), words(6, letters)), max_size=5)):
        x = ring.add(x, ring.scale(c, ring.from_word(u, ambient)))
        shape = draw(st.sampled_from(("alone", "negated", "partner")))
        if shape == "negated":
            detour = letters[:1] + formal_inverse(letters[:1], ambient.alphabet)
            x = ring.sub(x, ring.scale(c, ring.from_word(u + detour, ambient)))
        elif shape == "partner" and ambient is P:
            v = u + w + ba + formal_inverse(w + ab, ambient.alphabet)
            x = ring.add(x, ring.scale(c, ring.from_word(v, ambient)))
    return x


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_commutator_and_right_mul_match_the_reference(data):
    w = data.draw(words(30))
    eps, delta = data.draw(st.sampled_from(PAIRS))
    x = data.draw(elements(P, w, eps, delta))
    for e, d in PAIRS:
        assert terms_of(invariant.commutator, x, w, e, d) == terms_of(ref.commutator, x, w, e, d)
    for u in (EMPTY, w):
        assert terms_of(ring.right_mul, x, u) == terms_of(ref.right_mul, x, u)


def commutator_cases_match():
    """Whether the commutator gives the reference's terms where tails
    cancel: ``1 + b a b' a'`` times ``b a − a b`` has ``b a`` in both."""
    x = ring.add(ring.from_word(EMPTY, P), ring.from_word(word("b a b' a'"), P))
    cases = [(x, EMPTY, 1, 1), (x, word("a b'"), -1, 1), (ring.zero(P), word("a"), 1, -1)]
    return all(
        terms_of(invariant.commutator, *case) == terms_of(ref.commutator, *case)
        for case in cases
    )


def test_cancelling_tails_match_the_reference():
    assert commutator_cases_match()
    x = ring.add(ring.from_word(EMPTY, P), ring.from_word(word("b a b' a'"), P))
    got = invariant.commutator(x, EMPTY, 1, 1)
    assert list(got.terms.items()) == [(word("b a b' a' b a"), 1), (word("a b"), -1)]


# b is idempotent and a' a b is b a: right multiplication merges words
MERGING = Presentation(
    Alphabet(A_LETTERS),
    (Rule("Bb", ("b", "b"), ("b",)), Rule("R", ("a'", "a", "b"), ("b", "a"))),
    (),
    OrderingSpec(A_LETTERS),
)


def test_a_key_cancelled_in_the_first_tail_comes_after_its_survivors():
    # b a cancels between ε·b a and b·b a, and comes back from a'·a b
    x = RingElement({EMPTY: 1, word("b"): -1, word("a'"): 1}, MERGING)
    got = terms_of(invariant.commutator, x, EMPTY, 1, 1)
    assert got == terms_of(ref.commutator, x, EMPTY, 1, 1)
    assert got == [(word("a' b a"), 1), (word("a b"), -1), (word("b a b"), 1), (word("b a"), -1)]


@st.composite
def ct_params(draw):
    family = draw(st.sampled_from(CT_FAMILIES))
    slots = {}
    for slot in REQUIRED_SLOTS[family]:
        if slot == "x":
            slots[slot] = draw(st.sampled_from(A_LETTERS))
        elif slot in WORD_SLOTS:
            slots[slot] = draw(words(6))
        else:
            slots[slot] = draw(st.sampled_from(SIGNS))
    return CtParams(family, **slots)


SOURCES = st.one_of(
    ct_params(),
    st.builds(XGenRef, words(6), st.sampled_from(SIGNS), st.sampled_from(SIGNS)),
    st.just(ONE_MINUS_A),
)
WITNESS_TERMS = st.lists(
    st.builds(WitnessTerm, SOURCES, st.one_of(st.just(EMPTY), words(6)), st.integers(-2, 2)),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(terms=WITNESS_TERMS)
def test_evaluate_matches_the_reference(terms):
    witness = Witness(tuple(terms), ring.zero(P))
    assert value_of(witness.evaluate) == value_of(ref.evaluate, witness)


@pytest.mark.parametrize("multiplier", (EMPTY, word("b a'")), ids=("empty", "non-empty"))
def test_every_source_kind_evaluates_like_the_reference(multiplier):
    families = set()
    for params in ct_parameter_sweep(1, 1):
        families.add(params.family)
        terms = (
            WitnessTerm(params, multiplier, 1),
            WitnessTerm(XGenRef(word("a b'"), 1, -1), multiplier, -1),
            WitnessTerm(ONE_MINUS_A, multiplier, 1),
        )
        witness = Witness(terms, ring.zero(P))
        assert witness.evaluate() == ref.evaluate(witness)
    assert families == set(CT_FAMILIES)


# ---------------------------------------------------------------------------
# Errors: an ambient missing a letter, an unoriented ambient
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_missing_letter_raises_like_the_reference(data):
    # A_ONLY lacks b and b', which every commutator tail holds
    w = data.draw(words(8))
    eps, delta = data.draw(st.sampled_from(PAIRS))
    x = data.draw(elements(A_ONLY, w, eps, delta))
    got = terms_of(invariant.commutator, x, w, eps, delta)
    assert got == terms_of(ref.commutator, x, w, eps, delta)
    assert got[0] is AmbientMismatch
    for u in (EMPTY, w):
        assert terms_of(ring.right_mul, x, u) == terms_of(ref.right_mul, x, u)
    witness = Witness(tuple(data.draw(WITNESS_TERMS)), ring.zero(A_ONLY))
    assert value_of(witness.evaluate) == value_of(ref.evaluate, witness)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_unoriented_ambient_raises_like_the_reference(data):
    # its terms are P's normal forms, since from_word rejects the ambient
    drawn = data.draw(st.lists(st.tuples(words(6), st.integers(-3, 3)), max_size=4))
    terms = {normal_form(u, P): c for u, c in drawn if c}
    x = RingElement(terms, UNORIENTED_P)
    w = data.draw(words(8))
    for eps, delta in PAIRS:
        got = terms_of(invariant.commutator, x, w, eps, delta)
        assert got == terms_of(ref.commutator, x, w, eps, delta)
        if terms:
            assert got[0] is OrientationError
        else:
            assert got == []
    witness = Witness(tuple(data.draw(WITNESS_TERMS)), ring.zero(UNORIENTED_P))
    assert value_of(witness.evaluate) == value_of(ref.evaluate, witness)


# ---------------------------------------------------------------------------
# The identity and the closed-form units, kept once per ambient
# ---------------------------------------------------------------------------


def former_target(w, eps, delta, ambient):
    """The target the former ``commutator_witness`` built first, from an
    identity built on each call."""
    return ref.commutator(ring.from_word(EMPTY, ambient), w, eps, delta)


@pytest.mark.parametrize("ambient", (A_ONLY, UNORIENTED_P), ids=("lacking b", "unoriented"))
def test_kept_constants_raise_like_the_reference_on_every_call(ambient):
    # a fresh copy for each instance, so that its first call is the first
    # on the ambient, and one copy for the whole sweep
    sweep, oracle = dataclasses.replace(ambient), dataclasses.replace(ambient)
    raised = 0
    for params in ct_parameter_sweep(1, 1):
        want = value_of(ref.closed_form_ct, params, oracle)
        raised += isinstance(want, tuple)
        for fresh in (dataclasses.replace(ambient), sweep):
            for _ in range(2):  # the first call, then a repeated one
                assert value_of(invariant.closed_form_ct, params, fresh) == want
    assert raised
    for w in (EMPTY, word("a"), word("a' a'")):
        for eps, delta in PAIRS:
            want = value_of(former_target, w, eps, delta, oracle)
            assert isinstance(want, tuple)  # every target has b in it
            fresh = dataclasses.replace(ambient)
            for _ in range(2):
                assert value_of(obstruction.commutator_witness, w, eps, delta, fresh) == want


def constants_stay_with_their_ambient():
    """Whether ``closed_form_ct`` over P and over MERGING, called in
    alternation on the same instances, gives each ambient the reference's
    value on it, over that ambient, and keeps each ambient's identity."""
    p, merging = dataclasses.replace(P), dataclasses.replace(MERGING)
    oracles = ((p, dataclasses.replace(P)), (merging, dataclasses.replace(MERGING)))
    for params in ct_parameter_sweep(1, 1):
        for ambient, oracle in oracles:
            got = value_of(invariant.closed_form_ct, params, ambient)
            if got != ref.closed_form_ct(params, oracle) or got.ambient is not ambient:
                return False
    return ring.identity(p).ambient is p and ring.identity(merging).ambient is merging


def test_two_ambients_in_alternation_share_no_constant():
    assert constants_stay_with_their_ambient()
    p = dataclasses.replace(P)
    assert ring.identity(p) is ring.identity(p)  # built once
    assert invariant.closed_form_ct(CtParams("CT6", x="a"), p) is invariant.closed_form_ct(
        CtParams("CT6", x="a"), p
    )
