"""Green-class tags, congruence tests, Cayley-ball semimetrics, isometry.

The case-study monoid has exactly three H-classes, read off from the count
of h in a word's normal form (0, 1 or 2): the group of units, the middle
class, and the zero.  In M4 and N4 the zero is the letter z, so a normal
form containing z is in the zero class whatever its h-count.  A generic
Green-relation explorer is deliberately not attempted (orbits are
infinite); the h-count shortcut is what the bundled normal-form shapes
justify.

Distances are directed: d(x, y) is the least length of a generator word w
with x·w = y, computed by breadth-first search over normal forms and
reported as "unreachable within radius" beyond the bound.  Each call is
single-threaded; Ball values are immutable once returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from .core import EMPTY, Presentation, RwlabError, ValidationError, Word, shortlex_key, word_str
from .rewrite import check_budget, normalize

BALL_VERTEX_CAP = 10**5


class HClass:
    UNITS = "Units"
    HH = "Hh"
    ZERO = "Zero"


def classify(w: Word, p: Presentation) -> str:
    """H-class tag by the h-count of the normal form (0/1/2); a normal form
    containing the zero z is in the zero class."""
    nf = normalize(w, p)
    count = 2 if "z" in nf else nf.count("h")
    if count > 2:
        raise RwlabError(f"normal form with {count} h letters is outside the case-study shapes")
    return (HClass.UNITS, HClass.HH, HClass.ZERO)[count]


def sigma_equal(w1: Word, w2: Word, p: Presentation) -> bool:
    """The stabilizer congruence on free-group words: h·w1 and h·w2 share a
    normal form.  ``ValidationError`` when ``p`` has no letter h."""
    if "h" not in p.alphabet:
        raise ValidationError("undeclared letter h")
    return normalize(("h",) + w1, p) == normalize(("h",) + w2, p)


@dataclass(frozen=True)
class Ball:
    center: Word
    radius: int
    distances: dict  # normal form -> least distance <= radius

    def dump_lines(self, ordering) -> List[str]:
        items = sorted(
            self.distances.items(), key=lambda kv: (kv[1], shortlex_key(kv[0], ordering))
        )
        return [f"{d}\t{word_str(w)}" for w, d in items]


def cayley_ball(p: Presentation, center: Word, radius: int) -> Ball:
    """Least right-multiplication distances from ``center`` up to ``radius``;
    ``RwlabError`` once the ball has more than ``BALL_VERTEX_CAP`` vertices.
    The successors ``normalize(u·g)`` are memoized by the normal-form cache."""
    if radius < 0:
        raise RwlabError(f"radius must be non-negative (got {radius})")
    start = normalize(center, p)
    distances = {start: 0}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        d = distances[u]
        if d == radius:
            continue
        for g in p.alphabet.letters:
            v = normalize(u + (g,), p)
            if v not in distances:
                distances[v] = d + 1
                frontier.append(v)
        if len(distances) > BALL_VERTEX_CAP:
            raise RwlabError(
                f"Cayley ball around {word_str(start)} exceeds {BALL_VERTEX_CAP} "
                f"vertices before radius {radius}"
            )
    return Ball(start, radius, distances)


def d_A(p: Presentation, x: Word, y: Word, radius: int) -> Optional[int]:
    """Directed distance, or None when unreachable within the radius.

    None only asserts unreachability inside the searched ball, not a global
    infinite distance.
    """
    return cayley_ball(p, x, radius).distances.get(normalize(y, p))


@dataclass
class IsometryReport:
    radius: int
    center: Word
    vertex_sets_match: bool
    pair_count: int = 0
    violations: list = field(default_factory=list)  # (u, v, d1, d2)

    @property
    def passed(self) -> bool:
        return self.vertex_sets_match and not self.violations

    def lines(self) -> List[str]:
        out = []
        status = "pass" if self.vertex_sets_match else "FAIL"
        out.append(f"vertex-sets\t{status}\tradius {self.radius} around {word_str(self.center)}")
        if self.vertex_sets_match:
            status = "pass" if not self.violations else "FAIL"
            detail = f"{self.pair_count} ordered pairs compared"
            if self.violations:
                u, v, d1, d2 = self.violations[0]
                detail += (
                    f"; first violation d({word_str(u)},{word_str(v)}) = {d1} vs {d2}"
                )
            out.append(f"distances\t{status}\t{detail}")
        return out


def isometry_check(
    p1: Presentation, p2: Presentation, radius: int, center: Word = EMPTY
) -> IsometryReport:
    """Compare the two systems' Cayley semimetrics on a common ball.

    The vertex sets (normal forms in the radius ball around ``center``) must
    coincide; then every ordered pair's bounded distance must agree, with
    "unreachable within radius" treated as a value.  ``RwlabError``, before
    any per-vertex ball is built, when there are more than
    ``rewrite.ENUMERATION_CAP`` ordered pairs.
    """
    ball1, ball2 = cayley_ball(p1, center, radius), cayley_ball(p2, center, radius)
    report = IsometryReport(radius, center, vertex_sets_match=set(ball1.distances) == set(ball2.distances))
    if not report.vertex_sets_match:
        return report
    pairs = len(ball1.distances) ** 2
    check_budget(
        [pairs],
        lambda cap: (
            f"radius {radius} around {word_str(center)} gives {pairs} ordered pairs, "
            f"more than {cap}"
        ),
    )
    vertices = sorted(ball1.distances, key=lambda w: shortlex_key(w, p1.ordering))
    for u in vertices:
        du1, du2 = cayley_ball(p1, u, radius).distances, cayley_ball(p2, u, radius).distances
        for v in vertices:
            report.pair_count += 1
            d1, d2 = du1.get(v), du2.get(v)
            if d1 != d2:
                report.violations.append((u, v, d1, d2))
    return report
