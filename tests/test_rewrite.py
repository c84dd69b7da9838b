import random

import pytest

from rwlab import rewrite
from rwlab.completion import equivalence_classes
from rwlab.core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RwlabError,
    word,
    words_over,
)
from rwlab.casestudy import is_case_study_nf
from rwlab.rewrite import (
    OrientationError,
    RewriteError,
    compare_shortlex,
    enumerate_normal_forms,
    find_redexes,
    format_trace,
    is_irreducible,
    normalize,
    reduction_path,
    rewrite_at,
)
from rwlab.squier import Edge


def names_at(w, p):
    return [(len(e.left), e.rule.name) for e in find_redexes(word(w), p)]


def test_find_redexes_examples(Q):
    assert names_at("a a'", Q) == [(0, "I_a")]
    assert names_at("h h a", Q) == [(0, "Z_a")]
    assert names_at("a h", Q) == [(0, "K_a")]


def test_find_redexes_order_and_schema_dedup(Qbar):
    # plain swap rule matches at 0; the schema instance with empty variable
    # duplicates it and is suppressed
    redexes = names_at("h a b", Qbar)
    assert redexes == [(0, "C_pp")]
    # a genuine schema match appears with the shortest variable
    redexes = names_at("h b' a b", Qbar)
    assert redexes == [(0, "Cb_pp[b']")]


def test_rewrite_at_examples(Q):
    w = word("a a' b")
    e = find_redexes(w, Q)[0]
    assert rewrite_at(w, e) == word("b")
    # reverse step: the rhs (empty word) occurs at position 0 of "b"
    back = Edge(EMPTY, Q.rule_named("I_a"), -1, word("b"))
    assert rewrite_at(word("b"), back) == word("a a' b")
    e = find_redexes(word("h a b"), Q)[0]
    assert rewrite_at(word("h a b"), e) == word("h b a")


def test_rewrite_at_rejects_bad_position(Q):
    with pytest.raises(RewriteError):
        rewrite_at(word("b a"), Edge(EMPTY, Q.rule_named("I_a"), 1, word("b a")))
    # the matched side is right but the contexts are another word's
    with pytest.raises(RewriteError):
        rewrite_at(word("a a' b"), Edge(EMPTY, Q.rule_named("I_a"), 1, word("a")))


def test_normalize_examples(Qbar):
    assert normalize(word("a a' b"), Qbar) == word("b")
    assert normalize(word("a h b a"), Qbar) == word("h b a a")
    assert normalize(word("b a h h"), Qbar) == word("h h")


def test_normalize_agrees_with_equivalence_oracle(Q, Qbar):
    # every word of length <= 4 must normalize into its own closure class,
    # and normal forms must separate the classes
    classof = equivalence_classes(Q, 6)
    class_to_nf = {}
    nf_to_class = {}
    for w in words_over(Q.alphabet.letters, 4):
        cls, nf = classof(w), normalize(w, Qbar)
        assert class_to_nf.setdefault(cls, nf) == nf
        assert nf_to_class.setdefault(nf, cls) == cls


def test_normalize_idempotent_random(Qbar):
    rng = random.Random(5)
    letters = Qbar.alphabet.letters
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
        nf = normalize(w, Qbar)
        assert normalize(nf, Qbar) == nf
        assert is_irreducible(nf, Qbar)
        assert compare_shortlex(nf, w, Qbar.ordering) <= 0


def test_reduction_path_witnesses_normalization(Qbar):
    w = word("a h b a")
    path = reduction_path(w, Qbar)
    assert path.iota == w
    assert path.tau == normalize(w, Qbar)
    assert path.is_positive
    trace = format_trace(path)
    assert trace.splitlines()[0].startswith("a h b a --K_a@0-->")


def test_normalize_rejects_unoriented():
    p = Presentation(
        alphabet=Alphabet(("a", "b")),
        rules=(Rule("R", ("a",), ("b", "b")),),
        ordering=OrderingSpec(("a", "b")),
    )
    with pytest.raises(OrientationError):
        normalize(word("a"), p)


# (message, presentation, a word with one redex, where that redex starts)
UNORIENTED = [
    (
        "rule R is not oriented; termination not guaranteed",
        Presentation(
            alphabet=Alphabet(("a", "b")),
            rules=(Rule("R", ("a",), ("b", "b")),),
            ordering=OrderingSpec(("a", "b")),
        ),
        word("b a b"),
        1,
    ),
    (
        "presentation has no ordering; termination not guaranteed",
        Presentation(alphabet=Alphabet(("a", "b")), rules=(Rule("R", ("b", "b"), ("a",)),)),
        word("a a b b"),
        2,
    ),
]


@pytest.mark.parametrize("message, p, w, i", UNORIENTED)
def test_unoriented_presentations_reduce_nothing_but_show_redexes(message, p, w, i):
    calls = (
        lambda: normalize(w, p),
        lambda: reduction_path(w, p),
        lambda: enumerate_normal_forms(p, 2),
        lambda: rewrite.check_orientation(p),
    )
    for call in calls * 2:  # the second round reads the memoized verdict
        with pytest.raises(OrientationError) as exc:
            call()
        assert str(exc.value) == message
    assert names_at(" ".join(w), p) == [(i, "R")]
    assert not is_irreducible(w, p)


def test_step_cap_stops_normalize_and_reduction_path(Qbar, monkeypatch):
    # a fresh copy has an empty normal-form cache, so every step is taken
    p = Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    two, four = word("a h b"), word("a a h b")
    assert len(reduction_path(two, p)) == 2 and len(reduction_path(four, p)) == 4
    monkeypatch.setattr(rewrite, "STEP_CAP", 2)
    assert normalize(two, p) == reduction_path(two, p).tau == word("h b a")
    messages = []
    for reduce in (normalize, reduction_path):
        with pytest.raises(RewriteError) as exc:
            reduce(four, p)
        messages.append(str(exc.value))
    assert messages == ["step cap exceeded while reducing a a h b"] * 2


def test_compare_shortlex_examples(Qbar):
    o = Qbar.ordering
    assert compare_shortlex(word("a a'"), EMPTY, o) > 0
    assert compare_shortlex(word("a h"), word("h a"), o) > 0
    assert compare_shortlex(word("h a b"), word("h b a"), o) > 0
    assert compare_shortlex(word("h a b"), word("h a b"), o) == 0
    assert compare_shortlex(word("h"), word("a"), o) < 0


def test_enumerate_normal_forms_counts(Qbar):
    assert enumerate_normal_forms(Qbar, 0) == [EMPTY]
    one = enumerate_normal_forms(Qbar, 1)
    assert len(one) == 6 and EMPTY in one
    two = enumerate_normal_forms(Qbar, 2)
    assert len(two) == 23
    # cross-check against the brute filter: no redex anywhere
    brute = {w for w in words_over(Qbar.alphabet.letters, 2) if not find_redexes(w, Qbar)}
    assert set(two) == brute
    # the length-2 forms with h: h a, h a', h b, h b', h h
    with_h = sorted(w for w in two if "h" in w and len(w) == 2)
    assert with_h == [("h", "a"), ("h", "a'"), ("h", "b"), ("h", "b'"), ("h", "h")]


def test_enumeration_cap_is_checked_before_enumerating(Qbar, monkeypatch):
    # five letters give 1 + 5 + 25 = 31 words of length <= 2 and 156 of length <= 3;
    # the 31 words have 5 + 2·25 = 55 letters
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", 31)
    with pytest.raises(RwlabError, match="5 letters give more than 31 words of length <= 3"):
        enumerate_normal_forms(Qbar, 3)
    with pytest.raises(RwlabError, match="more than 31 letters in the words of length <= 2"):
        enumerate_normal_forms(Qbar, 2)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", 55)
    assert len(enumerate_normal_forms(Qbar, 2)) == 23
    monkeypatch.undo()
    # the counts are bounded sums, so a huge length is rejected at once
    with pytest.raises(RwlabError, match="words of length <= 1000000000"):
        enumerate_normal_forms(Qbar, 10**9)
    x = Presentation(Alphabet(("x",)), (Rule("X", ("x", "x"), EMPTY),), (), OrderingSpec(("x",)))
    with pytest.raises(RwlabError, match="1 letters give more than"):
        enumerate_normal_forms(x, 10**9)


def test_normal_forms_are_sorted_shortlex(Qbar):
    from rwlab.core import shortlex_key

    nfs = enumerate_normal_forms(Qbar, 3)
    keys = [shortlex_key(w, Qbar.ordering) for w in nfs]
    assert keys == sorted(keys)


def test_long_words_normalize_into_case_study_shapes(Qbar):
    # lengths 7 and 8 sampled; the exhaustive sweep up to 6 runs in acceptance
    rng = random.Random(8)
    letters = Qbar.alphabet.letters
    for _ in range(2000):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(7, 8)))
        assert is_case_study_nf(normalize(w, Qbar))


def test_nf_cache_stays_at_its_cap(Qbar, monkeypatch):
    rng = random.Random(11)
    letters = ("a", "a'", "b", "b'")
    words = [tuple(rng.choice(letters) for _ in range(48)) for _ in range(10**4)]
    words[::10] = [("h",) + w[:15] for w in words[::10]]
    fresh = lambda: Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    uncapped = fresh()
    expected = [normalize(w, uncapped) for w in words]
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 100)
    p = fresh()
    for w, nf in zip(words, expected):
        assert normalize(w, p) == nf
        assert len(p._nf_cache) <= 100
    assert len(p._nf_cache) == 100
    assert list(p._nf_cache) == list(p._nf_order)  # the oldest entries went first
    assert words[-1] in p._nf_cache and words[0] not in p._nf_cache
    assert len(uncapped._nf_cache) > 100
