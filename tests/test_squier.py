import random

import pytest

from rwlab.casestudy import build_C_path, c_bar_rule, preset
from rwlab.core import EMPTY, word
from rwlab.invariant import LETTER_EXPONENTS
from rwlab.squier import (
    Edge,
    Path,
    PathError,
    act,
    compose,
    interchange_square,
    invert,
    lift_path,
)
from tests_helpers_paths import random_mixed_path


@pytest.fixture(scope="module")
def q():
    return preset("Q")


def test_edge_endpoints_examples(q):
    e = Edge(word("b"), q.rule_named("K_a"), 1, EMPTY)
    assert (e.source, e.target) == (word("b a h"), word("b h a"))
    e = Edge(EMPTY, q.rule_named("I_a"), -1, word("b"))
    assert (e.source, e.target) == (word("b"), word("a a' b"))
    e = Edge(EMPTY, q.rule_named("C_pp"), 1, word("a"))
    assert (e.source, e.target) == (word("h a b a"), word("h b a a"))


def test_compose_identity_and_mismatch(q):
    e = Edge(EMPTY, q.rule_named("K_a"), 1, word("b"))
    p = Path(e.source, (e,))
    assert compose(Path(p.iota), p) == p
    assert compose(p, Path(p.tau)) == p
    with pytest.raises(PathError):
        compose(p, p)  # tau != iota


def test_compose_two_steps(q):
    # a h b -> h a b -> h b a
    e1 = Edge(EMPTY, q.rule_named("K_a"), 1, word("b"))
    e2 = Edge(EMPTY, q.rule_named("C_pp"), 1, EMPTY)
    p = compose(Path(e1.source, (e1,)), Path(e2.source, (e2,)))
    assert p.iota == word("a h b")
    assert p.tau == word("h b a")
    assert len(p) == 2
    assert str(p) == "a h b --(K_a,+1)@0--> h a b --(C_pp,+1)@0--> h b a"


def test_invert_basics(q):
    w = word("a b")
    assert invert(Path(w)) == Path(w)
    e = Edge(EMPTY, q.rule_named("K_a"), 1, word("b"))
    assert invert(Path(e.source, (e,))).edges[0] == Edge(EMPTY, q.rule_named("K_a"), -1, word("b"))


def test_invert_is_an_involution(q):
    rng = random.Random(11)
    for _ in range(30):
        p = random_mixed_path(q, rng)
        assert invert(invert(p)) == p
        assert invert(p).iota == p.tau and invert(p).tau == p.iota


def test_act_examples(q):
    e = Edge(EMPTY, q.rule_named("K_b"), 1, EMPTY)
    p = Path(e.source, (e,))
    assert act(EMPTY, p, EMPTY) == p
    moved = act(word("a"), p, EMPTY)
    assert moved.edges[0] == Edge(word("a"), q.rule_named("K_b"), 1, EMPTY)
    assert moved.iota == word("a b h")


def test_act_composes(q):
    rng = random.Random(13)
    letters = q.alphabet.letters
    for _ in range(20):
        p = random_mixed_path(q, rng, max_edges=3)
        x = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        x2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        y = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        y2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        assert act(x, act(x2, p, y2), y) == act(x + x2, p, y2 + y)


def test_act_distributes_over_compose_and_invert(q):
    rng = random.Random(17)
    for _ in range(20):
        p = random_mixed_path(q, rng, max_edges=4)
        cut = len(p.edges) // 2
        p1 = Path(p.iota, p.edges[:cut])
        p2 = Path(p1.tau, p.edges[cut:])
        x, y = word("a"), word("b")
        assert act(x, compose(p1, p2), y) == compose(act(x, p1, y), act(x, p2, y))
        assert act(x, invert(p), y) == invert(act(x, p, y))


def test_interchange_square_examples(q):
    # I_a on the prefix, I_b on the suffix of a a' b b'
    e1 = Edge(EMPTY, q.rule_named("I_a"), 1, word("b b'"))
    e2 = Edge(word("a a'"), q.rule_named("I_b"), 1, EMPTY)
    sq = interchange_square(e1, e2)
    assert sq.is_closed
    assert sq.iota == word("a a' b b'")
    assert len(sq) == 4
    # K_a on a h, I_b to its right
    e1 = Edge(EMPTY, q.rule_named("K_a"), 1, word("b b'"))
    e2 = Edge(word("a h"), q.rule_named("I_b"), 1, EMPTY)
    sq = interchange_square(e1, e2)
    assert sq.is_closed and sq.iota == word("a h b b'")
    # order of arguments does not matter for well-formedness
    sq2 = interchange_square(e2, e1)
    assert sq2.is_closed and sq2.iota == word("a h b b'")


def test_interchange_square_rejects_overlap(q):
    # both edges touch the shared letter a' in a a' a
    e1 = Edge(EMPTY, q.rule_named("I_a"), 1, word("a"))
    e2 = Edge(word("a"), q.rule_named("I_a'"), 1, EMPTY)
    with pytest.raises(PathError):
        interchange_square(e1, e2)


def test_interchange_square_rejects_different_words(q):
    e1 = Edge(EMPTY, q.rule_named("I_a"), 1, EMPTY)
    e2 = Edge(word("b b'"), q.rule_named("I_b"), 1, EMPTY)
    with pytest.raises(PathError):
        interchange_square(e1, e2)


def _swap_realization(rule):
    if rule.origin is not None and rule.origin.schema.name.startswith("Cb_"):
        x, y = rule.origin.schema.lhs_suffix
        eps, delta = LETTER_EXPONENTS[x][0], LETTER_EXPONENTS[y][1]
        return build_C_path(rule.origin.variable, eps, delta)
    return None


def test_lift_path_identity_on_plain_rules(q):
    e = Edge(EMPTY, q.rule_named("K_a"), 1, word("b"))
    p = Path(e.source, (e,))
    assert lift_path(p, _swap_realization) == p


def test_lift_path_single_schema_edge():
    inst = c_bar_rule(word("a"), 1, 1)
    e = Edge(word("b"), inst, 1, word("a'"))
    lifted = lift_path(Path(e.source, (e,)), _swap_realization)
    assert len(lifted) == 3
    assert lifted.iota == e.source and lifted.tau == e.target
    assert all(edge.rule.origin is None for edge in lifted.edges)


def test_lift_path_inverse_edge():
    inst = c_bar_rule(word("b a"), -1, 1)
    e = Edge(EMPTY, inst, -1, EMPTY)
    lifted = lift_path(Path(e.source, (e,)), _swap_realization)
    forward = lift_path(Path(e.target, (e.inverse(),)), _swap_realization)
    assert lifted == invert(forward)


def test_lift_path_is_functorial():
    inst1 = c_bar_rule(word("a"), 1, 1)
    inst2 = c_bar_rule(EMPTY, 1, 1)
    q = preset("Q")
    # h a a b -> h a b a (schema), then swap the new pair after h
    e1 = Edge(EMPTY, inst1, 1, EMPTY)
    e2 = Edge(EMPTY, inst2, 1, word("a"))
    p = compose(Path(e1.source, (e1,)), Path(e2.source, (e2,)))
    assert lift_path(p, _swap_realization) == compose(
        lift_path(Path(e1.source, (e1,)), _swap_realization),
        lift_path(Path(e2.source, (e2,)), _swap_realization),
    )


def test_lift_path_validates_each_output_edge_a_bounded_number_of_times(monkeypatch):
    inst = c_bar_rule(word("a b"), 1, -1)
    e = Edge(word("b'"), inst, 1, word("a"))
    bare = Path(e.source, (e, e.inverse()) * 3)
    validated = []
    post_init = Path.__post_init__
    monkeypatch.setattr(
        Path, "__post_init__", lambda self: (validated.append(len(self.edges)), post_init(self))[1]
    )
    lifted = lift_path(bare, _swap_realization)
    monkeypatch.undo()
    assert len(lifted) == 6 * 5 and lifted.is_closed
    # each realizing path is built once, then the result once
    assert sum(validated) <= 3 * len(lifted)


def test_path_validation_rejects_gaps(q):
    e1 = Edge(EMPTY, q.rule_named("I_a"), 1, EMPTY)
    e2 = Edge(EMPTY, q.rule_named("I_b"), 1, EMPTY)
    with pytest.raises(PathError):
        Path(e1.source, (e1, e2))
