import dataclasses
import itertools
import random

import pytest

from rwlab import rewrite, structure
from rwlab.casestudy import preset, verify_isometry
from rwlab.core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RwlabError,
    shortlex_key,
    word,
)
from rwlab.rewrite import enumerate_normal_forms, normalize
from rwlab.structure import (
    HClass,
    cayley_ball,
    classify,
    d_A,
    isometry_check,
    sigma_equal,
)


def test_classify_examples(Qbar):
    assert classify(word("a b"), Qbar) == HClass.UNITS
    assert classify(word("b h a"), Qbar) == HClass.HH
    assert classify(word("h a h"), Qbar) == HClass.ZERO


def test_classify_matches_h_count_on_short_words(Qbar):
    for n in range(4):
        for w in itertools.product(Qbar.alphabet.letters, repeat=n):
            count = normalize(w, Qbar).count("h")
            assert count in (0, 1, 2)
            tag = classify(w, Qbar)
            assert tag == (HClass.UNITS, HClass.HH, HClass.ZERO)[count]


def test_classify_respects_ideal_order(Qbar):
    # once the zero class is reached it absorbs; products never drop class
    order = {HClass.UNITS: 0, HClass.HH: 1, HClass.ZERO: 2}
    nfs = enumerate_normal_forms(Qbar, 3)
    for u in nfs:
        for v in nfs:
            cu, cv, cuv = classify(u, Qbar), classify(v, Qbar), classify(u + v, Qbar)
            assert order[cuv] >= max(order[cu], order[cv])


def test_classify_puts_z_in_the_zero_class(M4, N4):
    for p in (M4, N4):
        assert classify(word("z"), p) == HClass.ZERO
        assert classify(word("a z b'"), p) == HClass.ZERO
        assert classify(word("h z"), p) == HClass.ZERO
    assert classify(word("h h"), M4) == HClass.ZERO  # h h -> z
    assert classify(word("h h"), N4) == HClass.HH  # h is idempotent in N4
    assert classify(word("a h b"), M4) == HClass.HH
    assert classify(word("a b"), N4) == HClass.UNITS


def test_classify_rejects_normal_forms_outside_the_case_study_shapes():
    # no rules: h h h is its own normal form
    p = Presentation(Alphabet(("a", "h")), (), (), OrderingSpec(("a", "h")))
    assert classify(word("a h h"), p) == HClass.ZERO
    with pytest.raises(RwlabError, match="normal form with 3 h letters"):
        classify(word("h h h"), p)


def test_sigma_examples(Qbar):
    assert sigma_equal(word("a b"), word("b a"), Qbar)
    assert not sigma_equal(word("a"), word("b"), Qbar)
    assert sigma_equal(word("a b a' b'"), EMPTY, Qbar)


def exponent_vector(w):
    a = sum(1 if l == "a" else -1 if l == "a'" else 0 for l in w)
    b = sum(1 if l == "b" else -1 if l == "b'" else 0 for l in w)
    return (a, b)


def test_sigma_is_exponent_vector_equality(Qbar):
    letters = ("a", "a'", "b", "b'")
    words = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
    by_nf = {}
    by_vec = {}
    for w in words:
        nf = normalize(("h",) + w, Qbar)
        vec = exponent_vector(w)
        assert by_nf.setdefault(nf, vec) == vec
        assert by_vec.setdefault(vec, nf) == nf
    # plus direct calls on a sample of pairs
    rng = random.Random(11)
    for _ in range(60):
        u, v = rng.choice(words), rng.choice(words)
        assert sigma_equal(u, v, Qbar) == (exponent_vector(u) == exponent_vector(v))


def test_cayley_ball_examples(Qbar):
    ball = cayley_ball(Qbar, EMPTY, 1)
    assert ball.distances == {
        EMPTY: 0,
        ("a",): 1,
        ("a'",): 1,
        ("b",): 1,
        ("b'",): 1,
        ("h",): 1,
    }
    ball = cayley_ball(Qbar, word("h h"), 3)
    assert ball.distances == {word("h h"): 0}
    ball = cayley_ball(Qbar, EMPTY, 2)
    assert ball.distances[word("h h")] == 2


def test_ball_dump_format(Qbar):
    lines = cayley_ball(Qbar, EMPTY, 1).dump_lines(Qbar.ordering)
    assert lines[0] == "0\tε"
    # within one distance, ascending shortlex: h is the least letter
    assert lines[1] == "1\th"
    assert lines[-1] == "1\ta"


def test_d_A_examples(Qbar):
    assert d_A(Qbar, word("a"), EMPTY, 2) == 1
    assert d_A(Qbar, word("h h"), EMPTY, 4) is None
    assert d_A(Qbar, EMPTY, word("h b a"), 4) == 3


def test_d_A_triangle_inequality(Qbar):
    verts = sorted(cayley_ball(Qbar, EMPTY, 2).distances)
    balls = {x: cayley_ball(Qbar, x, 4).distances for x in verts}
    for x, y, z in itertools.product(verts, repeat=3):
        dxy, dyz, dxz = balls[x].get(y), balls[y].get(z), balls[x].get(z)
        if dxy is None or dyz is None or dxy + dyz > 4:
            continue  # z may legitimately sit outside the radius-4 ball of x
        assert dxz is not None and dxz <= dxy + dyz


def test_generator_steps_have_distance_one(Qbar):
    ball = cayley_ball(Qbar, EMPTY, 2)
    for u in ball.distances:
        for g in Qbar.alphabet.letters:
            v = normalize(u + (g,), Qbar)
            d = d_A(Qbar, u, v, 1)
            assert d is not None and d <= 1


def test_stabilizer_grid(Qbar):
    # multiplying the middle class by a free-group letter stays in the class
    for j in range(-5, 6):
        for k in range(-5, 6):
            base = (
                ("h",)
                + (("b",) * j if j >= 0 else ("b'",) * (-j))
                + (("a",) * k if k >= 0 else ("a'",) * (-k))
            )
            for x in ("a", "a'", "b", "b'"):
                nf = normalize(base + (x,), Qbar)
                assert classify(nf, Qbar) == HClass.HH


def test_isometry_examples(M4, N4):
    assert isometry_check(M4, N4, 3).passed
    report = isometry_check(M4, N4, 2, center=word("h"))
    assert report.passed


def test_isometry_rejects_different_vertex_sets(Q, P):
    report = isometry_check(Q, P, 2)
    assert not report.vertex_sets_match
    assert not report.passed
    assert any("FAIL" in line for line in report.lines())


def test_isometry_driver_small():
    assert verify_isometry(radius=2, h_radius=2, nf_len=4).passed


def test_cayley_ball_rejects_negative_radius():
    # x x -> ε presents a two-element monoid, so even an unchecked search ends
    p = Presentation(Alphabet(("x",)), (Rule("X", ("x", "x"), EMPTY),), (), OrderingSpec(("x",)))
    with pytest.raises(RwlabError, match="non-negative"):
        cayley_ball(p, EMPTY, -1)


def test_cayley_ball_stops_past_the_vertex_cap(Qbar, monkeypatch):
    # the Qbar balls around ε of radius 2 and 3 have 23 and 67 vertices
    monkeypatch.setattr(structure, "BALL_VERTEX_CAP", 23)
    assert len(cayley_ball(Qbar, EMPTY, 2).distances) == 23
    with pytest.raises(RwlabError, match="Cayley ball around ε exceeds 23 vertices"):
        cayley_ball(Qbar, EMPTY, 3)


def test_isometry_check_stops_past_the_pair_cap(M4, N4, monkeypatch):
    balls, ball = [], structure._ball

    def counted_ball(*args):
        balls.append(args)
        return ball(*args)

    monkeypatch.setattr(structure, "_ball", counted_ball)
    vertices = len(cayley_ball(M4, EMPTY, 2).distances)
    balls.clear()
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", vertices**2 - 1)
    with pytest.raises(RwlabError, match=f"gives {vertices**2} ordered pairs, more than"):
        isometry_check(M4, N4, 2)
    assert len(balls) == 2  # the two balls around the center, none per vertex
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", vertices**2)
    assert isometry_check(M4, N4, 2).pair_count == vertices**2


def skewed_p():
    """A fresh P with ``b' b -> b'`` in place of ``I_b'``: around ε its balls
    of radius 1 and 2 hold the same normal forms as P's, at other distances."""
    p = preset("P")
    rules = tuple(Rule("B", word("b' b"), word("b'")) if r.name == "I_b'" else r for r in p.rules)
    return Presentation(p.alphabet, rules, (), p.ordering)


def fresh_ball_report(p1, p2, radius):
    """The pair count and violations of ``isometry_check(p1, p2, radius)``
    from a fresh ``cayley_ball`` per vertex, on fresh presentations."""
    p1, p2 = dataclasses.replace(p1), dataclasses.replace(p2)
    ball = cayley_ball(p1, EMPTY, radius).distances
    vertices = sorted(ball, key=lambda w: shortlex_key(w, p1.ordering))
    violations = []
    for u in vertices:
        du1, du2 = cayley_ball(p1, u, radius).distances, cayley_ball(p2, u, radius).distances
        violations += [(u, v, du1.get(v), du2.get(v)) for v in vertices if du1.get(v) != du2.get(v)]
    return len(vertices) ** 2, violations


@pytest.mark.parametrize(
    "first, second, radius, violations",
    [("M4", "N4", r, 0) for r in (1, 2, 3)] + [("P", "skewed", 1, 1), ("P", "skewed", 2, 18)],
)
def test_shared_successor_tables_give_the_distances_of_fresh_balls(
    first, second, radius, violations, monkeypatch
):
    p1, p2 = (skewed_p() if name == "skewed" else preset(name) for name in (first, second))
    balls, ball = [], structure._ball

    def recorded_ball(*args):
        balls.append((*args[:3], ball(*args)))
        return balls[-1][-1]

    monkeypatch.setattr(structure, "_ball", recorded_ball)
    report = isometry_check(p1, p2, radius)
    monkeypatch.undo()
    assert (report.pair_count, report.violations) == fresh_ball_report(p1, p2, radius)
    assert len(report.violations) == violations
    # the two balls around the center, then two per vertex
    assert len(balls) == 2 + 2 * len(balls[0][-1].distances)
    for p, center, r, got in balls:
        assert got.distances == cayley_ball(dataclasses.replace(p), center, r).distances
