"""Properties of normalization and rule applications on the complete
presets, the composition laws of paths, the ring laws, and Φ summed through
``ring.total`` against an edge-by-edge fold."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwlab.casestudy import build_ct_circuit, preset, random_ct_params
from rwlab.invariant import (
    A_LETTERS,
    CASE_STUDY_WEIGHTS,
    CtParams,
    WeightSpec,
    commutator,
    phi_path,
)
from rwlab.rewrite import find_redexes, normalize, reduction_path, rewrite_at
from rwlab.ring import add, from_word, right_mul, scale, total, zero
from rwlab.squier import compose, invert

from tests_helpers_paths import random_mixed_path

COMPLETE_PRESETS = ("Qbar", "M4", "N4")
MAX_WORD_LEN = 12

properties = settings(max_examples=60, deadline=None)


def draw_word(data, p, max_len=MAX_WORD_LEN):
    letters = st.sampled_from(p.alphabet.letters)
    return tuple(data.draw(st.lists(letters, max_size=max_len)))


@pytest.mark.parametrize("name", COMPLETE_PRESETS)
@properties
@given(data=st.data())
def test_normalize_is_idempotent(name, data):
    p = preset(name)
    nf = normalize(draw_word(data, p), p)
    assert normalize(nf, p) == nf
    assert not find_redexes(nf, p)


@pytest.mark.parametrize("name", COMPLETE_PRESETS)
@properties
@given(data=st.data())
def test_normal_form_of_a_product(name, data):
    p = preset(name)
    u, v = draw_word(data, p, MAX_WORD_LEN // 2), draw_word(data, p, MAX_WORD_LEN // 2)
    assert normalize(u + v, p) == normalize(normalize(u, p) + normalize(v, p), p)


@pytest.mark.parametrize("name", COMPLETE_PRESETS)
@properties
@given(data=st.data())
def test_reduction_path_ends_at_the_normal_form(name, data):
    p = preset(name)
    w = draw_word(data, p)
    path = reduction_path(w, p)
    assert path.iota == w
    assert path.is_positive
    assert path.tau == normalize(w, p)


@pytest.mark.parametrize("name", COMPLETE_PRESETS)
@properties
@given(data=st.data())
def test_find_redexes_yields_applicable_edges(name, data):
    p = preset(name)
    w = draw_word(data, p)
    for e in find_redexes(w, p):
        assert e.sign == 1
        assert e.source == w
        assert rewrite_at(w, e) == e.target


def draw_path(data, p, start=None):
    """A random mixed path over ``p``'s plain rules, from ``start`` if given."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    return random_mixed_path(p, rng, max_edges=6, start=start)


@properties
@given(data=st.data())
def test_compose_is_associative(data):
    q = preset("Q")
    p1 = draw_path(data, q)
    p2 = draw_path(data, q, start=p1.tau)
    p3 = draw_path(data, q, start=p2.tau)
    assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))


@properties
@given(data=st.data())
def test_invert_is_an_involution_that_reverses_composition(data):
    q = preset("Q")
    p1 = draw_path(data, q)
    p2 = draw_path(data, q, start=p1.tau)
    assert invert(invert(p1)) == p1
    assert invert(compose(p1, p2)) == compose(invert(p2), invert(p1))


RING_AMBIENTS = ("P", "Qbar")


def draw_ring_element(data, ambient, max_terms=4, max_word_len=4):
    word_st = st.lists(st.sampled_from(ambient.alphabet.letters), max_size=max_word_len)
    terms = data.draw(st.lists(st.tuples(word_st, st.integers(-3, 3)), max_size=max_terms))
    return total((scale(c, from_word(tuple(w), ambient)) for w, c in terms), ambient)


@pytest.mark.parametrize("name", RING_AMBIENTS)
@properties
@given(data=st.data())
def test_ring_add_is_associative_and_commutative(name, data):
    ambient = preset(name)
    x, y, z = (draw_ring_element(data, ambient) for _ in range(3))
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, y) == add(y, x)


@pytest.mark.parametrize("name", RING_AMBIENTS)
@properties
@given(data=st.data())
def test_right_mul_distributes_and_composes(name, data):
    ambient = preset(name)
    x, y = draw_ring_element(data, ambient), draw_ring_element(data, ambient)
    u, v = draw_word(data, ambient, 4), draw_word(data, ambient, 4)
    assert right_mul(add(x, y), u) == add(right_mul(x, u), right_mul(y, u))
    assert right_mul(right_mul(x, u), v) == right_mul(x, u + v)


@pytest.mark.parametrize("name", RING_AMBIENTS)
@properties
@given(data=st.data())
def test_commutator_absorbs_a_prefix_of_its_word(name, data):
    ambient = preset(name)
    x = draw_ring_element(data, ambient)
    u, v = draw_word(data, ambient, 4), draw_word(data, ambient, 4)
    eps, delta = data.draw(st.sampled_from((1, -1))), data.draw(st.sampled_from((1, -1)))
    assert commutator(x, u + v, eps, delta) == commutator(right_mul(x, u), v, eps, delta)


def phi_path_by_add(path, weights: WeightSpec, ambient):
    """Reference Φ: one ``ring.add`` per weighted edge, in path order."""
    acc = zero(ambient)
    for e in path.edges:
        wt = weights.get(e.rule.name)
        if wt:
            acc = add(acc, scale(e.sign * wt, from_word(e.right, ambient)))
    return acc


def test_phi_path_matches_the_add_fold_on_ct_circuits():
    ambient = preset("P")
    rng = random.Random(2718)
    params = [CtParams(f, x=x) for f in ("CT2", "CT6") for x in A_LETTERS]
    params += [random_ct_params(rng, 3, 2) for _ in range(150)]
    for prm in params:
        circuit = build_ct_circuit(prm)
        want = phi_path_by_add(circuit, CASE_STUDY_WEIGHTS, ambient)
        assert phi_path(circuit, CASE_STUDY_WEIGHTS, ambient) == want


def test_phi_path_matches_the_add_fold_on_mixed_paths(Q, Qbar):
    rng = random.Random(3141)
    # the case-study weights plus weights on rules that move no h
    weights = [CASE_STUDY_WEIGHTS, WeightSpec.of({"K_a": 2, "I_b": -1, "C_pm": 3, "Z_h": 1})]
    for _ in range(150):
        path = random_mixed_path(Q, rng, max_edges=8)
        for wt in weights:
            assert phi_path(path, wt, Qbar) == phi_path_by_add(path, wt, Qbar)
