"""Properties of normalization and rule applications on the complete
presets, and Φ summed through ``ring.total`` against an edge-by-edge fold."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwlab.casestudy import build_ct_circuit, preset, random_ct_params
from rwlab.invariant import A_LETTERS, CASE_STUDY_WEIGHTS, CtParams, WeightSpec, phi_path
from rwlab.rewrite import find_redexes, normalize, reduction_path, rewrite_at
from rwlab.ring import add, from_word, scale, zero

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
