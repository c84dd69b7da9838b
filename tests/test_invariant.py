import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_invariant as ref

from rwlab.casestudy import (
    build_C_path,
    build_ct_circuit,
    preset,
    verify_figure2,
    verify_identities,
)
from rwlab.core import EMPTY, RwlabError, word, words_over
from rwlab.invariant import (
    A_LETTERS,
    CT_FAMILIES,
    REQUIRED_SLOTS,
    SLOTS,
    WORD_SLOTS,
    CtParams,
    CASE_STUDY_WEIGHTS,
    WeightSpec,
    a_pow,
    b_pow,
    closed_form_ct,
    commutator,
    partial_derivation,
    phi_edge,
    phi_path,
)
from rwlab.ring import add, format_ring, from_word, negate, right_mul, scale, sub, zero
from rwlab.squier import Edge, Path, act, compose, interchange_square, invert

SIGNS = (1, -1)


@pytest.fixture(scope="module")
def ZG():
    return preset("P")


@pytest.fixture(scope="module")
def ZM():
    return preset("Qbar")


@pytest.fixture(scope="module")
def q():
    return preset("Q")


def test_partial_derivation_examples(ZG):
    assert partial_derivation(EMPTY, ZG) == zero(ZG)
    assert partial_derivation(word("a"), ZG) == scale(-1, from_word(EMPTY, ZG))
    assert partial_derivation(word("a' b a"), ZG) == sub(
        from_word(word("b a"), ZG), from_word(EMPTY, ZG)
    )


def test_partial_derivation_rejects_h(ZG):
    with pytest.raises(RwlabError):
        partial_derivation(word("a h"), ZG)


def test_phi_edge_examples(q, ZG, ZM):
    e = Edge(word("b"), q.rule_named("K_a"), 1, word("a b"))
    assert phi_edge(e, CASE_STUDY_WEIGHTS, ZG) == from_word(word("a b"), ZG)
    e = Edge(EMPTY, q.rule_named("I_a"), 1, word("a b"))
    assert phi_edge(e, CASE_STUDY_WEIGHTS, ZG) == zero(ZG)
    e = Edge(EMPTY, q.rule_named("K_a'"), -1, word("b"))
    assert phi_edge(e, CASE_STUDY_WEIGHTS, ZG) == from_word(word("b"), ZG)
    # a context containing h needs the monoid ring
    e = Edge(EMPTY, q.rule_named("K_a"), 1, word("h h b"))
    assert phi_edge(e, CASE_STUDY_WEIGHTS, ZM) == from_word(word("h h"), ZM)


def test_phi_path_examples(ZG):
    assert phi_path(Path(word("a")), CASE_STUDY_WEIGHTS, ZG) == zero(ZG)
    # the three-edge swap path for w = a
    value = phi_path(build_C_path(word("a"), 1, 1), CASE_STUDY_WEIGHTS, ZG)
    assert value == sub(from_word(word("b a"), ZG), from_word(word("a b"), ZG))
    # the cancellation-commutation circuit at x = a
    circ = build_ct_circuit(CtParams("CT6", x="a"))
    value = phi_path(circ, CASE_STUDY_WEIGHTS, ZG)
    assert value == sub(from_word(word("a'"), ZG), from_word(EMPTY, ZG))
    assert format_ring(value) == "+ a' - ε"


def test_closed_form_examples(ZG):
    assert closed_form_ct(CtParams("CT4", w=EMPTY, eps=1, delta=1), ZG) == sub(
        from_word(word("a b"), ZG), from_word(word("b a"), ZG)
    )
    assert closed_form_ct(
        CtParams("CT1", x="b", w1=EMPTY, w2=word("a"), eps=1, delta=1), ZG
    ) == zero(ZG)
    got = closed_form_ct(
        CtParams("CT7", w1=EMPTY, eps1=1, delta1=1, w2=EMPTY, eps2=1, delta2=1), ZG
    )
    expected = add(
        sub(from_word(word("b b a"), ZG), from_word(word("b a b"), ZG)),
        sub(from_word(word("a b"), ZG), from_word(word("b a"), ZG)),
    )
    assert got == expected


def test_ct_params_validation():
    with pytest.raises(RwlabError):
        CtParams("CT8", x="a")
    with pytest.raises(RwlabError):
        CtParams("CT4", eps=1, delta=1)  # missing w
    with pytest.raises(RwlabError):
        CtParams("CT2", x="h")
    with pytest.raises(RwlabError):
        CtParams("CT2", x="a", w=EMPTY)  # extraneous slot
    with pytest.raises(RwlabError):
        CtParams("CT4", w=EMPTY, eps=2, delta=1)


ANY_VALUE = st.one_of(
    st.sampled_from(("a", "a'", "b", "b'", "h", "", 1, -1, 0, 2, True)),
    st.lists(st.sampled_from(("a", "a'", "b", "b'", "h", "z")), max_size=3).map(tuple),
    st.lists(st.sampled_from(("a", "b", 1)), max_size=2),
)


def _slot_value(slot):
    """Most often a value that ``slot`` takes, else one near it or any
    value, so that every check is reached and fails now and then."""
    if slot == "x":
        valid, near = st.sampled_from(A_LETTERS), st.sampled_from(("h", "", "a b", "A"))
    elif slot in WORD_SLOTS:
        valid = st.lists(st.sampled_from(A_LETTERS), max_size=3).map(tuple)
        near = st.lists(st.sampled_from(A_LETTERS + ("h",)), min_size=1, max_size=3).map(tuple)
    else:
        valid, near = st.sampled_from((1, -1)), st.one_of(st.integers(-2, 2), st.booleans())
    return st.one_of(valid, valid, near, ANY_VALUE)


@st.composite
def slot_assignments(draw):
    """A family name, most often a real one, and the slots set for it:
    mostly the ones it requires, now and then one missing or one more."""
    family = draw(st.sampled_from(CT_FAMILIES * 3 + ("CT8", "")))
    required = REQUIRED_SLOTS.get(family, ())
    slots = {}
    for slot in SLOTS:
        if (slot in required) != (draw(st.integers(0, 29)) == 0):
            slots[slot] = draw(_slot_value(slot))
    return family, slots


def _raised(make):
    """The type and message of what ``make()`` raises, or None."""
    try:
        make()
    except Exception as exc:  # noqa: BLE001  (the two validators must raise alike)
        return type(exc), str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(case=slot_assignments())
def test_ct_params_raise_what_the_former_validator_raises(case):
    family, slots = case
    # the former validator reads the drawn slots off a namespace, unset ones None
    former = SimpleNamespace(family=family, **{**dict.fromkeys(SLOTS), **slots})
    assert _raised(lambda: CtParams(family, **slots)) == _raised(
        lambda: ref.validate_ct_params(former)
    )


def test_ct_params_slots_and_describe():
    assert SLOTS == ("x", "w", "w1", "w2", "eps", "delta", "eps1", "delta1", "eps2", "delta2")
    params = CtParams("CT1", x="a'", w1=EMPTY, w2=word("a b"), eps=1, delta=-1)
    assert params.describe() == "CT1(x=a',w1=ε,w2=a b,eps=+1,delta=-1)"
    # mismatch details in verify_figure2 print the dataclass repr, not describe()
    assert repr(params).startswith("CtParams(family='CT1', x=\"a'\", w=None, w1=()")


def test_commutator_matches_the_hand_written_difference(ZG):
    """commutator(1, w, ε, δ) against the spelled-out w·bᵈaᵉ − w·aᵉbᵈ."""
    one = from_word(EMPTY, ZG)
    for w in words_over(A_LETTERS, 3):
        for eps, delta in itertools.product(SIGNS, repeat=2):
            want = sub(
                from_word(w + b_pow(delta) + a_pow(eps), ZG),
                from_word(w + a_pow(eps) + b_pow(delta), ZG),
            )
            assert commutator(one, w, eps, delta) == want


def expected_swap_image(w, eps, delta, ZG):
    dw = partial_derivation(w, ZG)
    return negate(
        sub(
            right_mul(dw, b_pow(delta) + a_pow(eps)),
            right_mul(dw, a_pow(eps) + b_pow(delta)),
        )
    )


def test_identity_i(q, ZG):
    for x, val in (("a", -1), ("a'", 1), ("b", 0), ("b'", 0)):
        e = Edge(EMPTY, q.rule_named(f"K_{x}"), 1, EMPTY)
        assert phi_edge(e, CASE_STUDY_WEIGHTS, ZG) == negate(partial_derivation((x,), ZG))
        assert phi_edge(e, CASE_STUDY_WEIGHTS, ZG) == scale(-val, from_word(EMPTY, ZG))


def test_identity_ii_small(ZG):
    letters = ("a", "a'", "b", "b'")
    for n in range(4):
        for w in itertools.product(letters, repeat=n):
            for eps, delta in itertools.product(SIGNS, repeat=2):
                got = phi_path(build_C_path(w, eps, delta), CASE_STUDY_WEIGHTS, ZG)
                assert got == expected_swap_image(w, eps, delta, ZG)


def test_identities_iii_iv_at_bound_six(ZG):
    # the prefix-splitting equations on |x w| <= 6 and |w1 w2| <= 6, sampled
    rng = random.Random(41)
    letters = ("a", "a'", "b", "b'")
    comm = lambda w, eps, delta: sub(
        from_word(w + b_pow(delta) + a_pow(eps), ZG),
        from_word(w + a_pow(eps) + b_pow(delta), ZG),
    )
    for _ in range(150):
        total = rng.randint(0, 6)
        cut = rng.randint(0, total)
        w = tuple(rng.choice(letters) for _ in range(total))
        w1, w2 = w[:cut], w[cut:]
        eps, delta = rng.choice(SIGNS), rng.choice(SIGNS)
        lhs = phi_path(build_C_path(w, eps, delta), CASE_STUDY_WEIGHTS, ZG)
        dw1 = partial_derivation(w1, ZG)
        shift = sub(
            right_mul(dw1, w2 + b_pow(delta) + a_pow(eps)),
            right_mul(dw1, w2 + a_pow(eps) + b_pow(delta)),
        )
        rhs = sub(phi_path(build_C_path(w2, eps, delta), CASE_STUDY_WEIGHTS, ZG), shift)
        assert lhs == rhs
        if w:
            x, w_rest = w[0], w[1:]
            val = -1 if x == "a" else 1 if x == "a'" else 0
            lhs2 = phi_path(build_C_path(w, eps, delta), CASE_STUDY_WEIGHTS, ZG)
            rhs2 = sub(
                phi_path(build_C_path(w_rest, eps, delta), CASE_STUDY_WEIGHTS, ZG),
                scale(val, comm(w_rest, eps, delta)),
            )
            assert lhs2 == rhs2


def test_action_compatibility(q, ZM):
    # moving a path in context multiplies its image by the right context
    rng = random.Random(43)
    letters = q.alphabet.letters
    from tests_helpers_paths import random_mixed_path

    for _ in range(40):
        p = random_mixed_path(q, rng)
        alpha = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        beta = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        assert phi_path(act(alpha, p, beta), CASE_STUDY_WEIGHTS, ZM) == right_mul(
            phi_path(p, CASE_STUDY_WEIGHTS, ZM), beta
        )


def test_cancellation_property(q, ZM):
    rng = random.Random(47)
    from tests_helpers_paths import random_mixed_path

    for _ in range(40):
        p = random_mixed_path(q, rng)
        loop = compose(p, invert(p))
        assert phi_path(loop, CASE_STUDY_WEIGHTS, ZM) == zero(ZM)


def test_interchange_squares_vanish(q, ZM):
    rng = random.Random(53)
    from tests_helpers_paths import random_disjoint_edges

    for _ in range(60):
        e1, e2 = random_disjoint_edges(q, rng)
        sq = interchange_square(e1, e2)
        assert phi_path(sq, CASE_STUDY_WEIGHTS, ZM) == zero(ZM)


def test_phi_constant_under_cancellation_insertion(q, ZM):
    # inserting r ∘ r⁻¹ in front of p yields a parallel path with equal image
    rng = random.Random(59)
    from tests_helpers_paths import random_mixed_path

    for _ in range(40):
        p = random_mixed_path(q, rng)
        r = random_mixed_path(q, rng, max_edges=3, start=p.iota)
        padded = compose(compose(r, invert(r)), p)
        assert padded.iota == p.iota and padded.tau == p.tau
        assert phi_path(padded, CASE_STUDY_WEIGHTS, ZM) == phi_path(p, CASE_STUDY_WEIGHTS, ZM)


def test_phi_is_additive_along_composition(q, ZM):
    rng = random.Random(67)
    from tests_helpers_paths import random_mixed_path
    from rwlab.squier import Path
    from rwlab.ring import total

    for _ in range(40):
        whole = random_mixed_path(q, rng, max_edges=6)
        if len(whole.edges) < 2:
            continue
        cut = rng.randint(1, len(whole.edges) - 1)
        front = Path(whole.iota, whole.edges[:cut])
        back = Path(front.tau, whole.edges[cut:])
        assert phi_path(whole, CASE_STUDY_WEIGHTS, ZM) == total(
            [phi_path(front, CASE_STUDY_WEIGHTS, ZM), phi_path(back, CASE_STUDY_WEIGHTS, ZM)],
            ZM,
        )


def test_figure2_small_sweep():
    report = verify_figure2(2, 2, samples=50)
    assert report.passed


def test_figure2_sampled_at_word_bound_five(ZG):
    from rwlab.casestudy import random_ct_params

    rng = random.Random(61)
    for _ in range(150):
        params = random_ct_params(rng, 5, 5)
        got = phi_path(build_ct_circuit(params), CASE_STUDY_WEIGHTS, ZG)
        assert got == closed_form_ct(params, ZG)


def test_figure2_catches_corrupted_weights():
    both_plus = WeightSpec.of({"K_a": 1, "K_a'": 1})
    report = verify_figure2(1, 1, weights=both_plus, samples=0)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "figure2 CT6" in failed


def test_identities_driver_small():
    assert verify_identities(3, samples=100).passed
