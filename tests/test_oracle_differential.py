"""The equivalence oracles of ``rwlab.completion`` against the former ones.

``tests/reference_completion.py`` keeps the former BFS, which scanned every
rule at every position, and the former classes, which matched left-hand
sides through a first-letter table.  Partitions are compared as sets of word
sets: ``classof`` returns a representative index, and only equality between
indices means anything.  The reference classes crash on an empty lhs and on
a step that leaves the universe, so the drawn presentations keep every lhs
non-empty and every rhs no longer than its lhs.  The later closure, which
built each word's one-step neighbours, takes every plain presentation, so the
partitions are also compared with it on the presets up to bound 7 and on
presentations with empty left-hand sides, lengthening rules, rules beside
their mirror images and one letter.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_completion as ref
from rwlab.casestudy import preset
from rwlab.completion import bfs_equivalence_oracle, equivalence_classes
from rwlab.core import Alphabet, Presentation, Rule, word, words_over


def partition(classof, letters, bound) -> set:
    classes: dict = {}
    for w in words_over(letters, bound):
        classes.setdefault(classof(w), set()).add(w)
    return {frozenset(c) for c in classes.values()}


def assert_same_partition(p: Presentation, bound: int) -> None:
    letters = p.alphabet.letters
    assert partition(equivalence_classes(p, bound), letters, bound) == partition(
        ref.equivalence_classes(p, bound), letters, bound
    )


@pytest.mark.parametrize("name", ["P", "Q"])
@pytest.mark.parametrize("bound", range(6))
def test_partitions_match_the_reference(name, bound):
    assert_same_partition(preset(name), bound)


def random_pairs(p: Presentation, rng: random.Random, count: int, bound: int):
    """Pairs of words of length <= bound - 1: half drawn independently, half
    a word and the end of a short walk of one-step neighbours from it."""
    letters = p.alphabet.letters
    rules = list(p.rules)
    for k in range(count):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, bound - 1)))
        if k % 2:
            v = tuple(rng.choice(letters) for _ in range(rng.randint(0, bound - 1)))
        else:
            v = u
            for _ in range(rng.randint(1, 3)):
                v = rng.choice(ref._one_step_neighbors(v, rules, bound) or [v])
        yield u, v


@pytest.mark.parametrize("name", ["P", "Q"])
def test_bfs_answers_match_the_reference(name):
    p, bound = preset(name), 5
    for u, v in random_pairs(p, random.Random(9), 150, bound):
        assert bfs_equivalence_oracle(u, v, p, bound) == ref.bfs_equivalence_oracle(
            u, v, p, bound
        ), (u, v)


@st.composite
def plain_presentations(draw):
    letters = ("a", "b", "c")[: draw(st.integers(2, 3))]
    rules = []
    seen = set()
    for _ in range(draw(st.integers(1, 4))):
        lhs = tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
        rhs = tuple(draw(st.lists(st.sampled_from(letters), max_size=len(lhs))))
        if lhs != rhs and (lhs, rhs) not in seen and (rhs, lhs) not in seen:
            seen.add((lhs, rhs))
            rules.append(Rule(f"r{len(rules)}", lhs, rhs))
    return Presentation(Alphabet(letters), tuple(rules))


@settings(max_examples=60, deadline=None)
@given(p=plain_presentations(), bound=st.integers(0, 4), data=st.data())
def test_drawn_presentations_match_the_reference(p, bound, data):
    assert_same_partition(p, bound)
    words = list(words_over(p.alphabet.letters, bound))
    for _ in range(5):
        u, v = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
        assert bfs_equivalence_oracle(u, v, p, bound) == ref.bfs_equivalence_oracle(
            u, v, p, bound
        )


def assert_same_partition_as_the_neighbour_closure(p: Presentation, bound: int) -> None:
    letters = p.alphabet.letters
    assert partition(equivalence_classes(p, bound), letters, bound) == partition(
        ref.equivalence_classes_by_neighbours(p, bound), letters, bound
    )


@pytest.mark.parametrize("name", ["P", "Q"])
@pytest.mark.parametrize("bound", range(8))
def test_partitions_match_the_neighbour_closure(name, bound):
    assert_same_partition_as_the_neighbour_closure(preset(name), bound)


def plain_presentation(letters, pairs) -> Presentation:
    return Presentation(
        Alphabet(tuple(letters)),
        tuple(Rule(f"r{i}", lhs, rhs) for i, (lhs, rhs) in enumerate(pairs)),
    )


def presentation(letters: str, *rules: str) -> Presentation:
    """``presentation("a b", "a -> b b")``: plain rules over the letters."""
    pairs = [tuple(word(side) for side in rule.split("->")) for rule in rules]
    return plain_presentation(letters.split(), pairs)


@pytest.mark.parametrize(
    "p",
    [
        presentation("a b", "ε -> a b"),  # an empty lhs inserts at every position
        presentation("a b", "a -> b b"),  # a lengthening rule, leaving the universe
        presentation("a b", "a b b -> a", "b b a -> a"),  # a mirrored pair
        presentation("a", "a a a -> ε"),
        presentation("a", "ε -> a a"),
    ],
    ids=["empty-lhs", "lengthening", "mirrored", "one-letter", "one-letter-empty-lhs"],
)
@pytest.mark.parametrize("bound", range(6))
def test_plain_shapes_the_first_letter_table_cannot_take(p, bound):
    assert_same_partition_as_the_neighbour_closure(p, bound)


def test_one_letter_at_a_long_bound():
    # with one letter every split of a context is the same word
    assert_same_partition_as_the_neighbour_closure(
        presentation("a", "a a a a a -> a a", "a a a -> a a a a a a a"), 200
    )


@st.composite
def any_plain_presentations(draw):
    """Plain presentations of any shape: one to three letters, sides of zero
    to three letters either way round, and sometimes every rule beside its
    mirror image, both sides read backwards.  A rule whose reverse is
    already there is dropped, since a presentation must be anti-symmetric."""
    letters = ("a", "b", "c")[: draw(st.integers(1, 3))]
    side = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    pairs = draw(st.lists(st.tuples(side, side), min_size=1, max_size=4))
    if draw(st.booleans()):
        pairs += [(lhs[::-1], rhs[::-1]) for lhs, rhs in pairs]
    kept: dict = {}
    for lhs, rhs in pairs:
        if lhs != rhs and (rhs, lhs) not in kept:
            kept[lhs, rhs] = None
    return plain_presentation(letters, kept)


@settings(max_examples=100, deadline=None)
@given(p=any_plain_presentations(), bound=st.integers(0, 5))
def test_drawn_presentations_of_any_shape_match_the_neighbour_closure(p, bound):
    assert_same_partition_as_the_neighbour_closure(p, bound)
