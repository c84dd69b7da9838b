"""The one-pass Φ against the former per-edge Φ, kept in ``reference_invariant``:
the same element on every circuit family and swap path, the same element or
the same error on random mixed paths, each distinct surviving context
normalized exactly once, and, on the complete P, every context reduced by
whole-word passes, at most |context| // 2 + 2 of them, with no leftmost step."""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_invariant as ref
import reference_rewrite as ref_rewrite
from rwlab import completion, rewrite
from rwlab.casestudy import build_C_path, build_ct_circuit, ct_parameter_sweep, preset
from rwlab.core import EMPTY, Presentation, RwlabError, word, words_over
from rwlab.invariant import A_LETTERS, CASE_STUDY_WEIGHTS, CtParams, WeightSpec, phi_path
from rwlab.rewrite import OrientationError
from rwlab.ring import AmbientMismatch, format_ring
from rwlab.squier import Edge, Path, act, compose, invert
from test_suffix_families import recording
from tests_helpers_paths import random_mixed_path


def outcome(phi, path, weights, ambient):
    """Φ's printed value, or the class and message of the error it raises."""
    try:
        return format_ring(phi(path, weights, ambient))
    except RwlabError as exc:
        return type(exc), str(exc)


def assert_same_phi(path, weights, ambient):
    got = phi_path(path, weights, ambient)
    want = ref.phi_path(path, weights, ambient)
    assert got == want
    assert format_ring(got) == format_ring(want)


def test_every_ct_family_instance_matches_the_reference(P):
    for params in ct_parameter_sweep(2, 2):
        assert_same_phi(build_ct_circuit(params), CASE_STUDY_WEIGHTS, P)


def test_every_short_swap_path_matches_the_reference(P, Qbar):
    for w in words_over(A_LETTERS, 4):
        for eps in (1, -1):
            for delta in (1, -1):
                path = build_C_path(w, eps, delta)
                assert_same_phi(path, CASE_STUDY_WEIGHTS, P)
                assert_same_phi(path, CASE_STUDY_WEIGHTS, Qbar)


def mixed_paths(q):
    """A random mixed path over Q: alone, translated by random words, or
    followed by a part whose edges cancel in pairs (its own inverse, or a
    continuation and that continuation's inverse)."""

    @st.composite
    def draw(draw):
        rng = random.Random(draw(st.integers(0, 2**32)))
        p = random_mixed_path(q, rng, max_edges=6)
        shape = draw(st.sampled_from(("alone", "inverse", "detour", "acted")))
        if shape == "inverse":
            p = compose(p, invert(p))
        elif shape == "detour":
            d = random_mixed_path(q, rng, max_edges=4, start=p.tau)
            p = compose(p, compose(d, invert(d)))
        elif shape == "acted":
            x, y = (
                tuple(rng.choice(q.alphabet.letters) for _ in range(rng.randint(0, 3)))
                for _ in range(2)
            )
            p = act(x, p, y)
        return p

    return draw()


def weight_specs(q):
    names = [r.name for r in q.rules]
    weights = st.dictionaries(st.sampled_from(names), st.integers(-2, 2), min_size=1)
    return weights.map(WeightSpec.of)


@pytest.mark.parametrize("name", ("Qbar", "M4", "P"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_mixed_paths_match_the_reference(name, data):
    q, ambient = preset("Q"), preset(name)
    path = data.draw(mixed_paths(q))
    weights = data.draw(weight_specs(q))
    # over P, a weighted context containing h raises in both
    assert outcome(phi_path, path, weights, ambient) == outcome(
        ref.phi_path, path, weights, ambient
    )


# ---------------------------------------------------------------------------
# Errors: the first weighted edge in path order decides
# ---------------------------------------------------------------------------


def there_and_back(e: Edge) -> Path:
    return Path(e.source, (e, e.inverse()))


@pytest.fixture(scope="module")
def unoriented_P(P):
    return Presentation(P.alphabet, P.rules, P.schemas, None)


def test_foreign_letter_in_a_cancelled_context_raises(Q, M4, P):
    # the first foreign letter of the context is named
    for q, context, letter in ((Q, "b h", "h"), (M4, "b z h", "z")):
        path = there_and_back(Edge(EMPTY, q.rule_named("K_a"), 1, word(context)))
        message = f"^letter {letter} is not in the ambient alphabet$"
        for phi in (phi_path, ref.phi_path):
            with pytest.raises(AmbientMismatch, match=message):
                phi(path, CASE_STUDY_WEIGHTS, P)


def test_unoriented_ambient_raises_when_every_context_cancels(Q, unoriented_P):
    path = there_and_back(Edge(EMPTY, Q.rule_named("K_a"), 1, word("b a")))
    for phi in (phi_path, ref.phi_path):
        with pytest.raises(OrientationError, match="no ordering"):
            phi(path, CASE_STUDY_WEIGHTS, unoriented_P)


def test_zero_weight_edge_never_touches_its_context(Q, P):
    e = Edge(EMPTY, Q.rule_named("I_a"), 1, word("h"))
    for phi in (phi_path, ref.phi_path):
        assert phi(Path(e.source, (e,)), CASE_STUDY_WEIGHTS, P).is_zero()


def test_first_weighted_edge_decides_between_the_two_errors(Q, unoriented_P):
    # three edges out of a h a h b: K_a at 0 and at 2, and a weightless I_a
    k_a, i_a = Q.rule_named("K_a"), Q.rule_named("I_a")
    foreign = Edge(EMPTY, k_a, 1, word("a h b"))
    clean = Edge(word("a h"), k_a, 1, word("b"))
    silent = Edge(EMPTY, i_a, -1, word("a h a h b"))
    for first, second, error in (
        (foreign, clean, AmbientMismatch),
        (clean, foreign, OrientationError),
    ):
        loops = (there_and_back(e) for e in (silent, first, second))
        path = functools.reduce(compose, loops)
        assert outcome(phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P)[0] is error
        assert outcome(phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P) == outcome(
            ref.phi_path, path, CASE_STUDY_WEIGHTS, unoriented_P
        )


# ---------------------------------------------------------------------------
# Work: each distinct surviving context is normalized once, by passes
# ---------------------------------------------------------------------------


def counting_passes(monkeypatch):
    """``(|string|, passes)`` of each reduction by whole-word passes from
    now on; the pass that changes nothing counts."""
    runs = []
    passes = rewrite._Matcher.passes

    def counted(self, s):
        runs.append([len(s), 1])
        for t in passes(self, s):
            runs[-1][1] += 1
            yield t

    monkeypatch.setattr(rewrite._Matcher, "passes", counted)
    return runs


@pytest.mark.parametrize(
    "params",
    (
        CtParams("CT1", x="a", w1=word("a b"), w2=word("b' a"), eps=1, delta=-1),
        CtParams("CT7", w1=word("a b'"), eps1=1, delta1=1, w2=word("a' b"), eps2=-1, delta2=1),
    ),
    ids=("CT1", "CT7"),
)
def test_each_surviving_context_is_normalized_once(monkeypatch, P, params):
    circuit = build_ct_circuit(params)
    net, weighted = {}, 0
    for e in circuit.edges:
        wt = CASE_STUDY_WEIGHTS.get(e.rule.name)
        if wt:
            weighted += 1
            net[e.right] = net.get(e.right, 0) + e.sign * wt
    surviving = [right for right, c in net.items() if c]
    cancelled = [right for right, c in net.items() if not c]
    assert surviving and cancelled  # contexts are shared and some cancel

    ambient = dataclasses.replace(P)  # cold caches: every context misses
    assert completion.is_complete(ambient)
    calls = recording(monkeypatch)
    runs = counting_passes(monkeypatch)
    value = phi_path(circuit, CASE_STUDY_WEIGHTS, ambient)
    monkeypatch.undo()
    # on P, which is complete, one call per surviving context, by passes
    assert sorted(calls) == sorted((right, True) for right in surviving)
    assert not {w for w, _ in calls} & set(cancelled)
    assert len(runs) == len(surviving)
    assert all(k <= n // 2 + 2 for n, k in runs)
    assert value == ref.phi_path(circuit, CASE_STUDY_WEIGHTS, P)


@pytest.mark.parametrize("n", (0, 1, 10, 20, 40, 80))
def test_phi_of_a_swap_path_takes_linear_steps(monkeypatch, P, n):
    # on a cold P the contexts w[k+1:]·aᵉbᵈ of a swap path are reduced by
    # whole-word passes, not leftmost steps, and a context of n letters
    # takes at most n // 2 + 2 passes: each pass that changes it cancels
    # one pair at least
    steps = rewrite._leftmost_steps

    def counted(*args):
        for step in steps(*args):
            taken.append(step)
            yield step

    rng = random.Random(n)
    for eps, delta in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        w = tuple(rng.choice(A_LETTERS) for _ in range(n))
        path = build_C_path(w, eps, delta)
        ambient = dataclasses.replace(P)
        assert completion.is_complete(ambient)  # the verdict takes steps of its own
        taken = []
        monkeypatch.setattr(rewrite, "_leftmost_steps", counted)
        runs = counting_passes(monkeypatch)
        value = phi_path(path, CASE_STUDY_WEIGHTS, ambient)
        monkeypatch.undo()
        assert taken == []
        assert all(k <= m // 2 + 2 for m, k in runs)
        assert value == ref.phi_path(path, CASE_STUDY_WEIGHTS, P)
