"""Paths and edges against the former ``squier`` code, kept in
``reference_squier``: the outputs of ``compose``, ``invert``, ``act`` and
``lift_path``, which are built from steps without the validating walk, pass
that walk and have the start, edges and end of the former edge-building
operations; the tuple-based ``Edge`` behaves as the former frozen
dataclass."""

import copy
import pickle
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_squier as ref
from rwlab.casestudy import build_ct_circuit, ct_parameter_sweep, preset
from rwlab.core import EMPTY, word
from rwlab.invariant import A_LETTERS, swap_pair
from rwlab.squier import Edge, Path, PathError, act, compose, invert, lift_path
from test_properties import draw_path, draw_word
from test_squier import _swap_realization
from tests_helpers_paths import random_mixed_path


def assert_valid(p: Path) -> None:
    ref.check_path(p)
    assert Path(p.start, p.edges) == p


def looping_realization(p, rules):
    """Each rule of ``rules`` realized by its edge, then a detour that
    inserts a a' in front of its rhs and takes it out again: a three-edge
    path from its lhs to its rhs that is not its own reversed inverse."""
    insert = p.rule_named("I_a")

    def realize(rule):
        if rule not in rules:
            return None
        e = Edge(EMPTY, rule, 1, EMPTY)
        f = Edge(EMPTY, insert, -1, rule.rhs)
        return Path(rule.lhs, (e, f, f.inverse()))

    return realize


@pytest.mark.parametrize("name", ("Q", "M4"))
def test_operations_on_random_mixed_paths_stay_valid(request, name):
    p_ = request.getfixturevalue(name)
    letters = p_.alphabet.letters
    rng = random.Random(23)
    for _ in range(200):
        p = random_mixed_path(p_, rng, max_edges=6)
        cut = rng.randint(0, len(p.edges))
        p1 = Path(p.iota, p.edges[:cut])
        p2 = Path(p1.tau, p.edges[cut:])
        x, y = (tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in range(2))
        rules = {r for r in p_.rules if rng.random() < 0.5}
        outputs = (
            compose(p1, p2),
            compose(p, invert(p)),
            invert(p),
            act(x, p, y),
            act(x, invert(p), y),
            lift_path(p, looping_realization(p_, rules)),
            lift_path(invert(act(x, p, y)), looping_realization(p_, rules)),
        )
        for out in outputs:
            assert_valid(out)
        assert compose(p1, p2) == p


def test_every_figure2_family_stays_valid():
    rng = random.Random(29)
    pads = (EMPTY, word("a"), word("b' h"))
    for params in ct_parameter_sweep(2, 2):
        circuit = build_ct_circuit(params)  # the output of lift_path
        back = invert(circuit)
        x, y = rng.choice(pads), rng.choice(pads)
        for out in (circuit, back, act(x, circuit, y), compose(circuit, back)):
            assert_valid(out)


def assert_like(got: Path, want: Path) -> None:
    assert (got.start, got.edges, got.tau) == (want.start, want.edges, want.tau)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_operations_match_the_edge_operations(data):
    q = preset("Q")
    p1 = draw_path(data, q)
    p2 = draw_path(data, q, start=p1.tau)
    x, y = draw_word(data, q, 3), draw_word(data, q, 3)
    assert_like(compose(p1, p2), ref.compose(p1, p2))
    assert_like(invert(p1), ref.invert(p1))
    assert_like(act(x, p1, y), ref.act(x, p1, y))
    assert_like(act(x, compose(p1, p2), y), ref.act(x, ref.compose(p1, p2), y))
    assert_like(act(x, invert(p2), y), ref.act(x, ref.invert(p2), y))
    assert_like(invert(act(x, p1, y)), ref.invert(ref.act(x, p1, y)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lifted_swap_paths_match_the_edge_lift(data):
    # a start h w aᵉ bᵈ v, so that the drawn path often applies a swap schema
    qbar = preset("Qbar")
    eps, delta = data.draw(st.sampled_from((1, -1))), data.draw(st.sampled_from((1, -1)))
    w = tuple(data.draw(st.lists(st.sampled_from(A_LETTERS), max_size=3)))
    start = ("h",) + w + swap_pair(eps, delta)[0] + draw_word(data, qbar, 2)
    p = draw_path(data, qbar, start=start)
    x, y = draw_word(data, qbar, 2), draw_word(data, qbar, 2)
    for path in (p, invert(p), act(x, p, y), invert(act(x, p, y))):
        lifted = lift_path(path, _swap_realization)
        assert_like(lifted, ref.lift_path(path, _swap_realization))
        ref.check_path(lifted)
    assert_like(
        act(x, lift_path(invert(p), _swap_realization), y),
        ref.act(x, ref.lift_path(ref.invert(p), _swap_realization), y),
    )


def test_drawn_paths_apply_swap_schemas():
    # the lift test above would test little if its paths held no swap edge
    rng = random.Random(31)
    qbar = preset("Qbar")
    lifted = 0
    for _ in range(100):
        eps, delta = rng.choice((1, -1)), rng.choice((1, -1))
        start = ("h", rng.choice(A_LETTERS)) + swap_pair(eps, delta)[0]
        p = random_mixed_path(qbar, rng, max_edges=6, start=start)
        lifted += any(_swap_realization(e.rule) is not None for e in p.edges)
    assert lifted > 20


def test_public_constructor_still_walks_every_edge(Q):
    e = Edge(EMPTY, Q.rule_named("K_a"), 1, word("b"))
    with pytest.raises(PathError, match="edge 1 starts at"):
        Path(e.source, (e, e))
    with pytest.raises(PathError, match="cannot compose"):
        compose(Path(e.source, (e,)), Path(e.source, (e,)))


# ---------------------------------------------------------------------------
# The tuple-based Edge against the former frozen dataclass
# ---------------------------------------------------------------------------


def test_edge_is_immutable(Q):
    e = Edge(word("b"), Q.rule_named("K_a"), 1, EMPTY)
    # the former dataclass raised FrozenInstanceError, a subclass
    for target in (e, ref.Edge(e.left, e.rule, e.sign, e.right)):
        with pytest.raises(AttributeError):
            target.sign = -1
        with pytest.raises(AttributeError):
            target.extra = 0
        with pytest.raises(AttributeError):
            del target.left
    assert e.sign == 1


def test_edge_equality_and_hash_follow_the_four_fields(Q):
    k_a, k_b = Q.rule_named("K_a"), Q.rule_named("K_b")
    fields = (word("b"), k_a, 1, word("a"))
    e = Edge(*fields)
    assert e == Edge(*fields) and hash(e) == hash(Edge(*fields))
    assert hash(e) == hash(ref.Edge(*fields))
    for other in (
        (EMPTY, k_a, 1, word("a")),
        (word("b"), k_b, 1, word("a")),
        (word("b"), k_a, -1, word("a")),
        (word("b"), k_a, 1, EMPTY),
    ):
        assert e != Edge(*other)
    assert len({e, Edge(*fields), e.inverse().inverse()}) == 1
    # an edge is not its field tuple, in either order, and not the former class
    assert e != fields and fields != e
    assert e != ref.Edge(*fields)


def test_edge_repr_and_sign_error_are_unchanged(Q):
    fields = (word("b"), Q.rule_named("C_pm"), -1, word("a h"))
    assert repr(Edge(*fields)) == repr(ref.Edge(*fields))
    for sign in (0, 2, -2):
        with pytest.raises(PathError) as got:
            Edge(EMPTY, Q.rule_named("K_a"), sign, EMPTY)
        with pytest.raises(PathError) as want:
            ref.Edge(EMPTY, Q.rule_named("K_a"), sign, EMPTY)
        assert str(got.value) == str(want.value) == f"edge sign must be +1 or -1, got {sign}"


def test_edge_copies_and_pickles(Q):
    e = Edge(word("b"), Q.rule_named("K_a"), -1, word("a"))
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and twin.source == e.source


# ---------------------------------------------------------------------------
# What the tuple base must keep and what it must not inherit
# ---------------------------------------------------------------------------


def test_make_and_replace_keep_the_sign_check(Q):
    e = Edge(word("b"), Q.rule_named("K_a"), 1, word("a"))
    with pytest.raises(PathError) as made:
        Edge._make((e.left, e.rule, 0, e.right))
    with pytest.raises(PathError) as replaced:
        e._replace(sign=2)
    assert str(made.value) == "edge sign must be +1 or -1, got 0"
    assert str(replaced.value) == "edge sign must be +1 or -1, got 2"
    assert e._replace(sign=-1) == e.inverse() and type(Edge._make(e)) is Edge


def test_an_edge_equals_no_tuple_with_its_fields(Q):
    e = Edge(word("b"), Q.rule_named("K_a"), 1, word("a"))
    assert e != tuple(e) and tuple(e) != e
    assert not e == tuple(e) and not tuple(e) == e
    # a foreign namedtuple compares first by its own tuple equality, so only
    # the edge's side of the comparison is the edge's to decide
    twin = namedtuple("Edge", "left rule sign right")(*e)
    assert e != twin and not e == twin
    assert e == Edge(*twin) and not e != Edge(*twin)
