"""Φ summed from a path's steps against the former per-edge Φ, kept in
``reference_invariant``, over the same path's edges built on demand.

Circuits and swap paths are built from steps, and ``phi_path`` cuts the
right context of each weighted step from the words it splices in its own
loop over the steps, without building an edge.  Here the steps must be the
ones the public constructor reads off the edges, and every value, and every
error class and message, must be the one the reference gives on the edges.
"""

import random

import pytest

import reference_invariant as ref
from rwlab.casestudy import build_C_path, build_ct_circuit, ct_parameter_sweep, random_ct_params
from rwlab.core import Alphabet, OrderingSpec, Presentation, RwlabError, word
from rwlab.invariant import (
    A_LETTERS,
    CASE_STUDY_WEIGHTS,
    CT_FAMILIES,
    CtParams,
    WeightSpec,
    closed_form_ct,
    phi_path,
)
from rwlab.rewrite import reduction_path, trace_lines
from rwlab.ring import format_ring, zero
from rwlab.squier import Edge, Path, act, compose, invert, lift_path
from test_squier import _swap_realization

SIGNS = (1, -1)


def outcome(phi, path, weights, ambient):
    """Φ's printed value, or the class and message of the error it raises."""
    try:
        return format_ring(phi(path, weights, ambient))
    except RwlabError as exc:
        return type(exc), str(exc)


def assert_steps_match_edges(path, ambient, weights=CASE_STUDY_WEIGHTS):
    got = outcome(phi_path, path, weights, ambient)  # before any edge is built
    assert got == outcome(ref.phi_path, path, weights, ambient)
    plain = Path(path.start, path.edges)  # the walk checks that the edges chain
    assert path.steps == plain.steps and path.tau == plain.tau
    assert got == outcome(phi_path, plain, weights, ambient)


def test_the_small_sweep_matches_the_reference(P):
    for params in ct_parameter_sweep(2, 2):
        assert_steps_match_edges(build_ct_circuit(params), P)


def test_long_random_circuits_match_the_reference(P):
    rng = random.Random(40)
    for _ in range(2000):
        assert_steps_match_edges(build_ct_circuit(random_ct_params(rng, 40, 40)), P)


def test_swap_paths_match_the_reference(P, Qbar):
    rng = random.Random(4)
    words = [w for n in range(5) for w in _words(n)]
    words += [tuple(rng.choice(A_LETTERS) for _ in range(n)) for n in (12, 25, 40, 80)]
    for w in words:
        for eps in SIGNS:
            for delta in SIGNS:
                for ambient in (P, Qbar):
                    assert_steps_match_edges(build_C_path(w, eps, delta), ambient)


def _words(n):
    if n == 0:
        return [()]
    return [w + (x,) for w in _words(n - 1) for x in A_LETTERS]


def test_other_weights_match_the_reference(Q, P):
    # every rule of Q weighted, so the swap and I steps count as well
    weights = WeightSpec.of({r.name: (i % 5) - 2 for i, r in enumerate(Q.rules)})
    rng = random.Random(7)
    for _ in range(200):
        assert_steps_match_edges(build_ct_circuit(random_ct_params(rng, 6, 6)), P, weights)


# ---------------------------------------------------------------------------
# Errors: the first weighted step in edge order decides
# ---------------------------------------------------------------------------

A_ONLY = Presentation(Alphabet(("a", "a'"), (("a", "a'"),)), (), (), OrderingSpec(("a", "a'")))


@pytest.fixture(scope="module")
def unoriented_P(P):
    return Presentation(P.alphabet, P.rules, P.schemas, None)


def test_foreign_letters_raise_what_the_edges_raise(P):
    # contexts over b and b' are foreign to an ambient of a and a' alone
    errors = 0
    for params in ct_parameter_sweep(1, 1):
        path = build_ct_circuit(params)
        got = outcome(phi_path, path, CASE_STUDY_WEIGHTS, A_ONLY)
        assert got == outcome(ref.phi_path, path, CASE_STUDY_WEIGHTS, A_ONLY)
        errors += isinstance(got, tuple)
    assert errors > 100


def test_an_unoriented_ambient_raises_what_the_edges_raise(unoriented_P):
    errors = 0
    for params in ct_parameter_sweep(1, 1):
        path = build_ct_circuit(params)
        got = outcome(phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P)
        assert got == outcome(ref.phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P)
        errors += isinstance(got, tuple)
    assert errors > 100
    path = build_C_path(("a", "b"), 1, -1)
    assert outcome(phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P) == outcome(
        ref.phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P
    )


# ---------------------------------------------------------------------------
# Work: Φ of a circuit, and the path operations, build no edge
# ---------------------------------------------------------------------------


def test_phi_of_a_circuit_builds_no_edge(monkeypatch, P, Qbar):
    rng = random.Random(11)
    params = [random_ct_params(rng, 12, 12) for _ in range(100)]
    params += [CtParams("CT2", x=x) for x in A_LETTERS] + [CtParams("CT6", x=x) for x in A_LETTERS]
    assert {p.family for p in params} == set(CT_FAMILIES)

    def no_edge(*args):
        raise AssertionError("an edge was built")

    # a reduction path over Qbar whose swap steps lift to swap paths
    reduced = reduction_path(word("h a b' a' a b"), Qbar)
    monkeypatch.setattr(Edge, "__new__", no_edge)
    for p in params:
        circuit = build_ct_circuit(p)
        assert phi_path(circuit, CASE_STUDY_WEIGHTS, P) == closed_form_ct(p, P)
        assert circuit.is_closed and circuit.tau == circuit.start
        loop = act(word("a"), compose(circuit, invert(circuit)), word("b'"))
        assert loop.is_closed and len(loop) == 2 * len(circuit)
        assert phi_path(loop, CASE_STUDY_WEIGHTS, P) == zero(P)
    phi_path(build_C_path(("a", "b'", "a'"), -1, 1), CASE_STUDY_WEIGHTS, P)
    lifted = lift_path(invert(reduced), _swap_realization)
    assert (lifted.start, lifted.tau) == (reduced.tau, reduced.start) and len(lifted) > len(reduced)
    assert len(list(trace_lines(lifted))) == len(lifted)
    with pytest.raises(AssertionError, match="an edge was built"):
        build_ct_circuit(params[0]).edges
