"""The circuits written over Q against the former lift-based construction,
kept in ``reference_casestudy``: the same start word and the same edges, by
``repr``, on long random slots, since the pin in ``test_circuit_pin`` covers
slots of at most two letters only."""

import itertools
import random

import pytest

import reference_casestudy as ref
from rwlab.casestudy import SIGNS, build_C_path, build_ct_circuit, random_ct_params
from rwlab.core import words_over
from rwlab.invariant import A_LETTERS


def same(path, expected):
    assert repr((path.start, path.edges)) == repr((expected.start, expected.edges))


@pytest.mark.parametrize("block", range(4))
def test_long_slot_circuits_match_the_lifted_ones(block):
    for k in range(500 * block, 500 * (block + 1)):
        params = random_ct_params(random.Random(k), 40, 40)
        same(build_ct_circuit(params), ref.build_ct_circuit(params))
        ref.build_C_path.cache_clear()  # long slots: keep the reference's memory small


def test_swap_paths_match_the_validated_ones_up_to_forty_letters():
    rng = random.Random(40)
    words = list(words_over(A_LETTERS, 3))
    words += [tuple(rng.choice(A_LETTERS) for _ in range(n)) for n in range(4, 41)]
    for w, (eps, delta) in itertools.product(words, itertools.product(SIGNS, repeat=2)):
        same(build_C_path(w, eps, delta), ref.build_C_path(w, eps, delta))
    ref.build_C_path.cache_clear()
