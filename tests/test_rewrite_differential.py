"""The compiled leftmost-redex matcher against the former search, kept in
``reference_rewrite``: the same steps, normal forms and redexes on every
preset and on a presentation whose rules and schemas differ in shape."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import rewrite
from rwlab.casestudy import preset
from rwlab.core import Presentation, ValidationError, parse_presentation, word
from rwlab.rewrite import RewriteError

# Plain lhs of lengths 2 and 3 that match at one position, with the longer
# declared first; two rules sharing an lhs; schemas with an empty prefix,
# suffixes of lengths 1 and 2 and different ranges; and q, in no range, whose
# deletion joins a schema's variable to its suffix.
MIXED = parse_presentation(
    """
    letters a b c d e q
    order q e d c b a
    rule r_abc : a b c -> c
    rule r_ab : a b -> b
    rule r_ab2 : a b -> a
    rule r_dd : d d -> d
    rule r_qq : q q -> ε
    schema s_cdd ( v : a b ) : c v d d -> c v d
    schema s_ee ( v : a c ) : v e e -> v e
    schema s_ea ( v : b c d ) : e v a -> e v
    """
)

NAMES = ("P", "Q", "Qbar", "M4", "N4", "mixed")


def presentation(name):
    return MIXED if name == "mixed" else preset(name)


def steps(path):
    return [(len(e.left), e.rule.name, e.target) for e in path.edges]


def assert_same(w, p):
    expected = ref.reduction_path(w, p)
    path = rewrite.reduction_path(w, p)
    assert steps(path) == steps(expected)
    assert path == expected
    assert rewrite.normalize(w, p) == expected.tau
    assert rewrite.find_redexes(w, p) == ref.find_redexes(w, p)
    assert rewrite.is_irreducible(w, p) == ref.is_irreducible(w, p)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_short_words_match_the_reference(name, data):
    p = presentation(name)
    letters = st.sampled_from(p.alphabet.letters)
    assert_same(tuple(data.draw(st.lists(letters, max_size=24))), p)


A = ("a", "a'", "b", "b'")


def long_word(rng, shape, n):
    """Words shaped like the benchmark's: h·w·a·b, one h, several h, a z."""
    if shape == "hwab":
        w = [rng.choice(A) for _ in range(n - 3)]
        return ("h", *w, rng.choice(("a", "a'")), rng.choice(("b", "b'")))
    inserted = {"noh": (), "oneh": ("h",), "multih": ("h",) * 3, "z": ("z",)}[shape]
    letters = A + ("h",) if shape == "z" else A
    w = [rng.choice(letters) for _ in range(n - len(inserted))]
    for x in inserted:
        w.insert(rng.randint(0, len(w)), x)
    return tuple(w)


LONG = [
    ("Qbar", "hwab", 112),
    ("M4", "hwab", 112),
    ("N4", "oneh", 128),
    ("Qbar", "oneh", 96),
    ("M4", "multih", 192),
    ("N4", "multih", 96),
    ("Qbar", "noh", 200),
    ("M4", "z", 200),
    ("N4", "z", 200),
    ("Q", "multih", 200),
    ("P", "noh", 200),
]


@pytest.mark.parametrize("name, shape, n", LONG, ids=lambda x: str(x))
def test_long_words_match_the_reference(name, shape, n):
    rng = random.Random(f"{name}-{shape}-{n}")
    for _ in range(2):
        assert_same(long_word(rng, shape, n), preset(name))


@pytest.mark.parametrize(
    "name, w",
    [
        ("Qbar", "a a h b a' b b' a a b"),
        ("M4", "h b' a b a' b a z a b"),
        ("mixed", "c a b d d d e e a c e e"),
    ],
)
def test_step_cap_message_matches_the_reference(name, w, monkeypatch):
    p, w = presentation(name), word(w)
    n = len(ref.reduction_path(w, p).edges)
    assert n >= 3
    fresh = Presentation(p.alphabet, p.rules, p.schemas, p.ordering)  # empty nf cache
    for cap in (1, n - 1, n):
        monkeypatch.setattr(rewrite, "STEP_CAP", cap)
        outcomes = []
        for reduce in (ref.reduction_path, rewrite.reduction_path, ref.normalize, rewrite.normalize):
            try:
                outcomes.append(reduce(w, fresh))
            except RewriteError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]
        assert (cap < n) == isinstance(outcomes[1], str) == isinstance(outcomes[3], str)


@pytest.mark.parametrize(
    "w, first, second",
    [
        # deleting q q at 4 makes c·aa·dd at 1 a redex: the variable starts
        # at 4 - |dd|, so the search must resume at 1
        ("d c a a q q d d", (4, "r_qq"), (1, "s_cdd[a a]")),
        # deleting q q at 3 makes e·bc·a at 0 a redex
        ("e b c q q a", (3, "r_qq"), (0, "s_ea[b c]")),
    ],
)
def test_search_resumes_early_enough_after_a_deletion(w, first, second):
    path = rewrite.reduction_path(word(w), MIXED)
    assert [(len(e.left), e.rule.name) for e in path.edges[:2]] == [first, second]
    assert_same(word(w), MIXED)


def test_words_with_undeclared_letters_are_rejected():
    p = preset("Qbar")
    entries = (rewrite.reduction_path, rewrite.normalize, rewrite.find_redexes, rewrite.is_irreducible)
    for w in ("q h a b", "h a q b", "a a' q", "h q"):
        for reduce in entries:
            with pytest.raises(ValidationError, match="^undeclared letter q$"):
                reduce(word(w), p)
