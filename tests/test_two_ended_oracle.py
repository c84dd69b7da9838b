"""The BFS oracle, which searches from both ends, against the one-sided BFS.

``tests/reference_completion.py`` keeps the one-sided BFS, which stepped
through the same replacement table from ``u`` alone, and the former BFS,
which scanned every rule at every position.  The answers of all three are
compared on drawn presentations of any shape, on equal words, on pairs at
the length bound and on pairs whose components differ greatly in size.  The
work is counted in words expanded, calls of ``_one_step_neighbors``, and
not in wall clock.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_completion as ref
from rwlab import completion
from rwlab.casestudy import _random_word, preset
from rwlab.completion import bfs_equivalence_oracle, equivalence_classes
from rwlab.core import EMPTY, ValidationError, word, words_over
from test_oracle_differential import any_plain_presentations, presentation

# c occurs in no rule, so its component is c alone; a b a b a b lies in a
# component of the a-b words that the one-sided search expands in full
ISOLATED = presentation("a b c", "a b -> b a", "a a a -> a")
NEIGHBOURS = completion._one_step_neighbors


def answers(u, v, p, bound):
    """The oracle's answer, the one-sided BFS's and the former BFS's."""
    return (
        bfs_equivalence_oracle(u, v, p, bound),
        ref.bfs_equivalence_oracle_one_sided(u, v, p, bound),
        ref.bfs_equivalence_oracle(u, v, p, bound),
    )


def expanded(monkeypatch, search, *args):
    """The answer of ``search(*args)`` and the number of words it expanded."""
    calls = []

    def counted(*step):
        calls.append(step[0])
        return NEIGHBOURS(*step)

    monkeypatch.setattr(completion, "_one_step_neighbors", counted)
    monkeypatch.setattr(ref, "_table_neighbors", counted)
    return search(*args), len(calls)


@settings(max_examples=100, deadline=None)
@given(p=any_plain_presentations(), bound=st.integers(0, 5), data=st.data())
def test_drawn_presentations_answer_as_both_references(p, bound, data):
    letters = p.alphabet.letters
    words = list(words_over(letters, bound))
    longest = [w for w in words if len(w) == bound]
    for _ in range(4):
        u, v = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
        assert len(set(answers(u, v, p, bound))) == 1, (u, v)
    u, v = data.draw(st.sampled_from(longest)), data.draw(st.sampled_from(longest))
    assert len(set(answers(u, v, p, bound))) == 1, (u, v)


@pytest.mark.parametrize("bound", range(5))
def test_a_word_is_equivalent_to_itself_without_a_search(bound, monkeypatch):
    for w in words_over(ISOLATED.alphabet.letters, bound):
        assert expanded(monkeypatch, bfs_equivalence_oracle, w, w, ISOLATED, bound) == (True, 0)


def table(p):
    """The replacement table of the oracle: every rule both ways round."""
    forward = [(r.lhs, r.rhs) for r in p.rules]
    return completion._replacement_table(forward + [(dst, src) for src, dst in forward])


@pytest.mark.parametrize("name", ["P", "Q"])
def test_pairs_at_the_length_bound(name):
    p, bound = preset(name), 5
    letters = p.alphabet.letters
    rng, steps = random.Random(name), table(p)
    for k in range(40):
        u = tuple(rng.choice(letters) for _ in range(bound))
        v = u
        if k % 2:  # a short walk inside the bound, or an unrelated word
            for _ in range(3):
                v = rng.choice(completion._one_step_neighbors(v, steps, bound) or [v])
        else:
            v = tuple(rng.choice(letters) for _ in range(bound))
        assert len(set(answers(u, v, p, bound))) == 1, (u, v)


@pytest.mark.parametrize("first", ["small", "large"])
def test_the_smaller_component_closes_the_search(first, monkeypatch):
    small, large = word("c"), word("a b a b a b")
    u, v = (small, large) if first == "small" else (large, small)
    answer, work = expanded(monkeypatch, bfs_equivalence_oracle, u, v, ISOLATED, 8)
    # one level of each side at most: the singleton's frontier empties at once
    assert not answer and work <= 2
    # from the large end alone, the whole component of a b a b a b
    one_sided = ref.bfs_equivalence_oracle_one_sided
    assert expanded(monkeypatch, one_sided, large, small, ISOLATED, 8) == (False, 80)


def test_the_prop31_spot_check_expands_at_most_60_percent_of_the_one_sided_search(
    Q, monkeypatch
):
    # the 20 pairs of ``verify_prop31``'s spot check at its default bound 8
    rng = random.Random(31)
    letters = preset("Qbar").alphabet.letters
    sample = [_random_word(rng, letters, 4) for _ in range(40)]
    pairs = list(zip(sample[::2], sample[1::2]))

    def run(search):
        return [search(u, v, Q, 8) for u, v in pairs]

    got, work = expanded(monkeypatch, run, bfs_equivalence_oracle)
    expected, one_sided = expanded(monkeypatch, run, ref.bfs_equivalence_oracle_one_sided)
    assert got == expected
    assert one_sided == 54855  # no pair is equivalent: each u's whole component
    assert work <= 0.6 * one_sided


def test_the_oracles_reject_an_undeclared_letter(Q):
    def rejects(call):
        with pytest.raises(ValidationError) as info:
            call()
        return str(info.value)

    q = ("q",)
    assert rejects(lambda: equivalence_classes(Q, 3)(q)) == "undeclared letter q"
    # before the shortcut for equal words, and whichever side holds the letter
    assert rejects(lambda: bfs_equivalence_oracle(q, q, Q, 3)) == "undeclared letter q"
    assert rejects(lambda: bfs_equivalence_oracle(q, word("a"), Q, 3)) == "undeclared letter q"
    assert rejects(lambda: bfs_equivalence_oracle(word("a"), q, Q, 3)) == "undeclared letter q"
    # the first undeclared letter of u, then of v
    classof = equivalence_classes(Q, 3)
    assert rejects(lambda: classof(word("a x q"))) == "undeclared letter x"
    assert rejects(lambda: bfs_equivalence_oracle(word("a q"), word("x"), Q, 3)) == (
        "undeclared letter q"
    )
    assert classof(word("a a'")) == classof(EMPTY)
