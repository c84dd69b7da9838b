"""Ring elements held as dicts against the former sorted-tuple ring, kept in
``reference_ring``: the same printed form and the same terms for every
operation, over P and over Qbar with words that contain h."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ring as ref
from rwlab import ring
from rwlab.casestudy import preset
from rwlab.obstruction import CosetVector, b_exponent, basepoint_apply


def element(lib, recipe, ambient):
    """The sum of ``c · w`` over the recipe, built with ``lib``'s add."""
    x = lib.zero(ambient)
    for c, w in recipe:
        x = lib.add(x, lib.scale(c, lib.from_word(w, ambient)))
    return x


def assert_same(got, want):
    assert ring.format_ring(got) == ref.format_ring(want)
    assert dict(got.terms) == dict(want.terms)


def recipes(letters):
    words = st.lists(st.sampled_from(letters), max_size=6).map(tuple)
    return st.lists(st.tuples(st.integers(-3, 3), words), max_size=5)


@pytest.mark.parametrize("name", ("P", "Qbar"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_operations_match_the_reference(name, data):
    p = preset(name)
    letters = p.alphabet.letters
    rx, ry, rz = (data.draw(recipes(letters)) for _ in range(3))
    n = data.draw(st.integers(-3, 3))
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
    x, y, z = (element(ring, r, p) for r in (rx, ry, rz))
    fx, fy, fz = (element(ref, r, p) for r in (rx, ry, rz))
    assert_same(x, fx)
    for a, b, fa, fb in ((x, y, fx, fy), (x, x, fx, fx)):
        assert_same(ring.add(a, b), ref.add(fa, fb))
        assert_same(ring.sub(a, b), ref.sub(fa, fb))
    assert_same(ring.negate(x), ref.negate(fx))
    assert_same(ring.scale(n, x), ref.scale(n, fx))
    assert_same(ring.total((x, y, z), p), ref.total((fx, fy, fz), p))
    assert_same(ring.right_mul(x, w), ref.right_mul(fx, w))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_basepoint_apply_on_two_letter_words(data):
    # a two-letter word unpacks as a (word, coefficient) pair, so iterating
    # the terms mapping itself would not fail loudly here
    p = preset("P")
    two = st.tuples(st.sampled_from(p.alphabet.letters), st.sampled_from(p.alphabet.letters))
    recipe = data.draw(st.lists(st.tuples(st.integers(-3, 3), two), max_size=5))
    acc = {}
    for w, c in element(ref, recipe, p).terms:
        acc[b_exponent(w)] = acc.get(b_exponent(w), 0) + c
    assert basepoint_apply(element(ring, recipe, p)) == CosetVector.of(acc)
