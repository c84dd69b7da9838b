import random

import pytest

from rwlab.core import EMPTY, word
from rwlab.casestudy import preset
from rwlab.ring import (
    AmbientMismatch,
    add,
    format_ring,
    from_word,
    negate,
    right_mul,
    scale,
    sub,
    zero,
)


@pytest.fixture(scope="module")
def ZG():
    return preset("P")


@pytest.fixture(scope="module")
def ZM():
    return preset("Qbar")


def test_from_word_examples(ZG, ZM):
    assert from_word(word("a a'"), ZG).terms == {EMPTY: 1}
    assert from_word(word("a h b"), ZM).terms == {word("h b a"): 1}
    assert from_word(word("h h a"), ZM).terms == {word("h h"): 1}


def test_additive_group(ZG):
    a = from_word(word("a"), ZG)
    b = from_word(word("b"), ZG)
    assert add(sub(a, b), b) == a
    assert add(a, negate(a)) == zero(ZG)
    assert scale(2, a).terms == {word("a"): 2}
    assert scale(0, a) == zero(ZG)


def test_ambient_mismatch(ZG, ZM):
    with pytest.raises(AmbientMismatch):
        add(from_word(EMPTY, ZG), from_word(EMPTY, ZM))


def test_right_mul_examples(ZG, ZM):
    one_minus_a = sub(from_word(EMPTY, ZG), from_word(word("a"), ZG))
    assert right_mul(one_minus_a, word("b")) == sub(
        from_word(word("b"), ZG), from_word(word("a b"), ZG)
    )
    assert right_mul(from_word(word("a"), ZG), word("a'")) == from_word(EMPTY, ZG)
    assert right_mul(from_word(word("h b"), ZM), word("a b")) == from_word(
        word("h b b a"), ZM
    )


def test_right_action_is_associative(ZG):
    rng = random.Random(23)
    letters = ZG.alphabet.letters
    for _ in range(50):
        x = zero(ZG)
        for _ in range(rng.randint(0, 3)):
            coeff = rng.randint(-3, 3)
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            x = add(x, scale(coeff, from_word(w, ZG)))
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        assert right_mul(right_mul(x, u), v) == right_mul(x, u + v)


def test_right_mul_distributes(ZG):
    rng = random.Random(29)
    letters = ZG.alphabet.letters
    for _ in range(50):
        x = from_word(tuple(rng.choice(letters) for _ in range(3)), ZG)
        y = scale(rng.randint(-2, 2), from_word(tuple(rng.choice(letters) for _ in range(2)), ZG))
        w = tuple(rng.choice(letters) for _ in range(2))
        assert right_mul(add(x, y), w) == add(right_mul(x, w), right_mul(y, w))


def test_right_mul_rejects_foreign_letters(ZG):
    with pytest.raises(AmbientMismatch):
        right_mul(from_word(word("a"), ZG), word("h"))


def test_format_examples(ZG):
    ab_minus_ba = sub(from_word(word("a b"), ZG), from_word(word("b a"), ZG))
    assert format_ring(ab_minus_ba) == "+ a b - b a"
    assert format_ring(zero(ZG)) == "0"
    assert format_ring(scale(2, from_word(word("a"), ZG))) == "+ 2 a"
    assert (
        format_ring(sub(from_word(word("a'"), ZG), from_word(EMPTY, ZG)))
        == "+ a' - ε"
    )


def test_format_is_injective(ZG):
    rng = random.Random(31)
    letters = ZG.alphabet.letters
    seen = {}
    for _ in range(300):
        x = zero(ZG)
        for _ in range(rng.randint(0, 3)):
            x = add(
                x,
                scale(
                    rng.randint(-2, 2),
                    from_word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))), ZG),
                ),
            )
        s = format_ring(x)
        assert seen.setdefault(s, x) == x


def test_big_coefficients_are_exact(ZG):
    x = scale(10**30, from_word(word("a"), ZG))
    y = scale(-(10**30), from_word(word("a"), ZG))
    assert add(x, y) == zero(ZG)
    assert add(x, x).terms == {word("a"): 2 * 10**30}
