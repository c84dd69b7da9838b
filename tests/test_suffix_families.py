"""Normal forms by whole-word passes against leftmost normalization.

``completion.normal_form`` reduces a word the cache misses by whole-word
passes (``_Matcher.passes``: every occurrence of each rule rewritten at
once), but only on an ambient that ``completion.is_complete`` knows to be
complete; ``normalize`` called alone stays leftmost.  Here its normal forms,
and Φ and ∂ built on it, are compared with leftmost ``normalize`` and with
``tests/reference_*``: on P, which is complete; on Qbar, M4 and N4
(schemas) and Q (not confluent), which take the leftmost path; on a plain
non-confluent system where passes would give a different word; and on an
unoriented ambient and foreign letters, where the error must be the
reference's.  A word with a letter P does not declare is rejected before
any pass.  The file is named after the suffix families that the passes
replaced; the name stays so that its test ids stay the same.
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
from rwlab.core import Alphabet, OrderingSpec, Presentation, Rule, RwlabError, ValidationError, word
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
    """The ``(word, by_passes)`` of each call ``completion`` makes to
    ``normalize`` (False) or ``normalize_by_passes`` (True), from now on."""
    calls = []

    def record(name, by_passes):
        f = getattr(completion, name)

        def recorded(w, p):
            calls.append((w, by_passes))
            return f(w, p)

        monkeypatch.setattr(completion, name, recorded)

    record("normalize", False)
    record("normalize_by_passes", True)
    return calls


def no_passes(monkeypatch):
    """Make any whole-word pass fail the test."""

    def fail(self, s):
        raise AssertionError(f"passes over {s!r}")

    monkeypatch.setattr(rewrite._Matcher, "passes", fail)


# ---------------------------------------------------------------------------
# P: complete, so words are reduced by whole-word passes
# ---------------------------------------------------------------------------


def test_the_verdicts_of_the_presets():
    assert completion.is_complete(fresh("P"))
    for name in ("Q", "Qbar", "M4", "N4"):
        assert not completion.is_complete(fresh(name))


def test_the_verdict_is_taken_once(monkeypatch):
    p = fresh("P")
    assert completion.is_complete(p)
    monkeypatch.setattr(completion, "resolve_peaks", None)  # a second call would raise
    assert completion.is_complete(p)


def test_the_verdict_stops_at_the_first_unresolved_peak(monkeypatch):
    p = fresh("Q")
    resolved = []
    resolve_peak = completion.resolve_peak
    monkeypatch.setattr(
        completion, "resolve_peak", lambda peak, q: resolved.append(peak) or resolve_peak(peak, q)
    )
    assert not completion.is_complete(p)
    assert 0 < len(resolved) < len(completion.critical_peaks(fresh("Q")))
    assert isinstance(resolve_peak(resolved[-1], fresh("Q")), completion.UnresolvedPeak)


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.lists(st.sampled_from(A_LETTERS), max_size=80).map(tuple), max_size=6),
    warm=st.lists(st.integers(0, 5), max_size=3),
)
def test_drawn_words_on_P_match_leftmost_normalize(words, warm):
    p, oracle = fresh("P"), fresh("P")
    for k in warm:  # some words may be cached already
        if k < len(words):
            rewrite.normalize(words[k], p)
    got = [completion.normal_form(w, p) for w in words]
    assert got == [rewrite.normalize(w, oracle) for w in words]
    assert got == [ref_rewrite.normalize(w, oracle) for w in words]
    m = rewrite._matcher(p)
    assert all(p._nf_cache[m.mirror(w)] == nf for w, nf in zip(words, got))  # each word is kept
    assert_cache_whole(p)


def test_a_nested_cancellation_takes_one_pass_per_level():
    p = fresh("P")
    m = rewrite.check_orientation(p)
    s = m.mirror(word("a b b' a'"))
    assert [m.word(t) for t in m.passes(s)] == [word("a a'"), ()]
    assert completion.normal_form(word("a b b' a'"), p) == ()


def test_a_derived_matcher_passes_by_its_own_rules():
    p = fresh("P")
    assert rewrite._matcher(p).replacements  # built before the derivations
    for i, new in ((0, None), (len(p.rules), Rule("S", ("a", "b"), ("b", "a")))):
        q = rewrite._derived(p, i, new)
        assert dict(rewrite._matcher(q).replacements) == dict(rewrite._Matcher(q).replacements)


def test_passes_store_only_the_final_string():
    p = fresh("P")
    m = rewrite.check_orientation(p)
    w, v = word("a b b' a' b"), word("b' b b")  # both normalize to b
    assert completion.normal_form(w, p) == word("b")
    assert list(p._nf_order) == [m.mirror(w), m.mirror(word("b"))]
    assert completion.normal_form(v, p) == word("b")  # its final string was stored
    assert list(p._nf_order)[2:] == [m.mirror(v)]
    assert p._nf_cache[m.mirror(v)] is p._nf_cache[m.mirror(w)]
    assert_cache_whole(p)


def test_passes_key_words_by_their_mirror_alone():
    p = fresh("P")
    rng = random.Random(29)
    words = [rand_word(rng, n) for n in (0, 1, 2, 5, 12, 30, 60) for _ in range(4)]
    words += [word("a b b' a' b"), word("b' b b"), word("b")]  # both normalize to b, which is new
    added = []
    for w in words + words[::3]:  # some words again, as hits
        before = len(p._nf_cache)
        assert completion.normal_form(w, p) == ref_rewrite.normalize(w, fresh("P"))
        added.append(len(p._nf_cache) - before)
    assert max(added) == 2 and 0 in added  # at most the input's mirror and the new normal form
    assert not any(isinstance(k, tuple) for k in p._nf_cache)
    assert_cache_whole(p)
    for w in (words[-1], word("a a b' a b b'")):  # met by the passes, and new
        assert rewrite.normalize(w, p) == ref_rewrite.normalize(w, fresh("P"))
        assert w in p._nf_cache  # the leftmost branch still keys its input tuple
    assert_cache_whole(p)


@pytest.mark.parametrize("cap", [2, 7, 2**17])
@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(st.lists(st.sampled_from(A_LETTERS), max_size=60).map(tuple), min_size=1, max_size=5),
    calls=st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=12),
)
def test_interleaved_passes_and_leftmost_calls_match_the_reference(cap, pool, calls):
    p, oracle = fresh("P"), fresh("P")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(rewrite, "NF_CACHE_CAP", cap)
        for by_passes, k in calls:
            w = pool[k % len(pool)]
            got = completion.normal_form(w, p) if by_passes else rewrite.normalize(w, p)
            assert got == ref_rewrite.normalize(w, oracle)
            assert_cache_whole(p)
            if by_passes:  # the same input again runs no pass
                with pytest.MonkeyPatch.context() as again:
                    no_passes(again)
                    assert completion.normal_form(w, p) == got
                assert_cache_whole(p)


def test_normalize_alone_stays_leftmost(monkeypatch):
    p = fresh("P")
    assert completion.is_complete(p)
    no_passes(monkeypatch)
    w = word("a b b' a' b a")
    assert rewrite.normalize(w, p) == ref_rewrite.normalize(w, p)


def test_undeclared_letters_are_rejected():
    p = fresh("P")
    w = word("a b h b' a' h a a'")  # h is no letter of P
    with pytest.raises(ValidationError, match="^undeclared letter h$"):
        completion.normal_form(w, p)
    assert not p._nf_cache and not p._nf_order


def test_eviction_keeps_the_cache_whole(monkeypatch):
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 7)
    rng = random.Random(7)
    p = fresh("P")
    for n in range(0, 60, 3):
        w = rand_word(rng, n)
        words = [w[k:] for k in range(len(w) + 1)] + [rand_word(rng, n // 2) for _ in range(3)]
        rng.shuffle(words)
        got = [completion.normal_form(u, p) for u in words]
        assert got == [ref_rewrite.normalize(u, p) for u in words]
        assert len(p._nf_order) <= 7
        assert_cache_whole(p)


def test_a_cached_word_costs_one_lookup(monkeypatch):
    p = fresh("P")
    w = word("a b a' b' a a b")
    words = [w[k:] for k in range(len(w))]
    first = [completion.normal_form(u, p) for u in words]
    no_passes(monkeypatch)
    monkeypatch.setattr(rewrite, "_leftmost_steps", None)  # a leftmost step would raise
    monkeypatch.setattr(completion, "is_complete", None)  # taking the verdict again would raise
    assert [completion.normal_form(u, p) for u in words] == first


def test_a_complete_ambient_mirrors_a_word_once_and_keeps_the_matcher(monkeypatch):
    p = fresh("P")
    assert completion.is_complete(p)
    completion.normal_form(word("a b"), p)  # warm-up: builds the matcher's pass table
    w = word("a b b' a' b a")
    want = ref_rewrite.normalize(w, fresh("P"))
    m = rewrite._matcher(p)
    state = {name: getattr(m, name) for name in m.__slots__}  # a matcher has no __dict__
    mirrors = []
    mirror = rewrite._mirror

    def counted(chars, w):
        mirrors.append(w)
        return mirror(chars, w)

    monkeypatch.setattr(rewrite, "_mirror", counted)
    assert completion.normal_form(w, p) == want  # a miss
    assert mirrors == [w]
    mirrors.clear()
    assert completion.normal_form(w, p) == want  # a hit
    assert mirrors == [w]
    assert {name: getattr(m, name) for name in m.__slots__} == state


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
# The fallback: no known complete ambient, each word reduced leftmost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["Q", "Qbar", "M4", "N4"])
def test_other_presets_take_the_per_word_fallback(monkeypatch, name):
    rng = random.Random(name)
    letters = preset(name).alphabet.letters
    for n in (3, 12, 30):
        w = ("h",) + rand_word(rng, n, letters)
        words = [w[k:] for k in range(len(w) + 1)]
        p, oracle = fresh(name), fresh(name)
        calls = recording(monkeypatch)
        no_passes(monkeypatch)
        got = [completion.normal_form(u, p) for u in words]
        monkeypatch.undo()
        assert calls == [(u, False) for u in words]  # a cold cache: each word leftmost
        assert got == [ref_rewrite.normalize(u, oracle) for u in words]


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
# x z: the system is not confluent, and a pass that rewrites a b first gives
# x z where the leftmost strategy gives y b
NON_CONFLUENT = Presentation(
    Alphabet(("a", "b", "x", "y", "z")),
    (Rule("r", ("a", "b"), ("z",)), Rule("s", ("x", "a"), ("y",))),
    ordering=OrderingSpec(("a", "b", "x", "y", "z")),
)

# the same overlap over the letters of ∂: a b -> b' and a' a -> b leave
# a' a b as b b and a' b', so ∂(a a' a b) would change if its suffix a' a b
# were reduced by passes
NON_CONFLUENT_FREE = Presentation(
    Alphabet(A_LETTERS),
    (Rule("r", ("a", "b"), ("b'",)), Rule("s", ("a'", "a"), ("b",))),
    ordering=OrderingSpec(A_LETTERS),
)


def test_a_non_confluent_system_takes_the_fallback(monkeypatch):
    p = dataclasses.replace(NON_CONFLUENT)
    assert not completion.is_complete(p)
    words = [word("x a b"), word("a b")]
    calls = recording(monkeypatch)
    assert [completion.normal_form(u, p) for u in words] == [word("y b"), word("z")]
    assert calls == [(u, False) for u in words]


def test_passes_on_the_non_confluent_system_would_be_wrong(monkeypatch):
    # what the passes would give there, were the verdict wrong
    p = dataclasses.replace(NON_CONFLUENT)
    m = rewrite.check_orientation(p)
    assert [m.word(t) for t in m.passes(m.mirror(word("x a b")))] == [word("x z")]
    monkeypatch.setattr(completion, "is_complete", lambda p: True)
    assert completion.normal_form(word("x a b"), p) == word("x z")
    assert ref_rewrite.normalize(word("x a b"), dataclasses.replace(NON_CONFLUENT)) == word("y b")


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
