"""Derivation-graph edges and paths with the two-sided free-monoid action.

An edge is the 4-tuple (left context, rule, sign, right context); its source
is ``left · side · right`` where side is the rule's lhs for sign +1 and the
rhs for sign −1, and its target swaps the two sides.  A path is a start
word, a tuple of steps ``(i, j, rule, sign)`` and an end word, so the empty
path at a word is well-typed.  The operations on paths move steps and splice
no word; the words a path passes are spliced from its start by one walk,
``Path._walk``, which its edges, printing and traces read, while Φ
(``invariant.phi_path``) splices them in its own loop over the steps.
Everything here is immutable and pure.

Homotopy of paths is not decided anywhere in this package; this module only
constructs paths and the generating moves (interchange squares, pp⁻¹
cancellations) that invariance tests need.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

from .core import Rule, RwlabError, Word, word_str


class PathError(RwlabError):
    pass


class Edge(namedtuple("Edge", "left rule sign right")):
    """An immutable edge ``(left, rule, sign, right)``, equal to another edge
    with the same four fields and to nothing else: not to a bare tuple."""

    __slots__ = ()
    left: Word
    rule: Rule
    sign: int  # +1 or -1
    right: Word

    def __new__(cls, left: Word, rule: Rule, sign: int, right: Word):
        if sign not in (+1, -1):
            raise PathError(f"edge sign must be +1 or -1, got {sign}")
        return tuple.__new__(cls, (left, rule, sign, right))

    @classmethod
    def _make(cls, fields) -> "Edge":
        return cls(*fields)

    def __eq__(self, other):
        return type(other) is Edge and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def source(self) -> Word:
        side = self.rule.lhs if self.sign == 1 else self.rule.rhs
        return self.left + side + self.right

    @property
    def target(self) -> Word:
        side = self.rule.rhs if self.sign == 1 else self.rule.lhs
        return self.left + side + self.right

    def inverse(self) -> "Edge":
        return Edge(self.left, self.rule, -self.sign, self.right)

    def __str__(self):
        return f"({word_str(self.left)}, {self.rule.name}, {self.sign:+d}, {word_str(self.right)})"


@dataclass(frozen=True, eq=False)
class Path:
    """A composable sequence of edges starting at ``start``.

    A path keeps ``start``, its ``steps`` and its ``end`` word.  A step
    ``(i, j, rule, sign)`` rewrites ``[i:j]`` of the word before it, which
    holds the rule's lhs (sign +1) or rhs (sign −1), into the other side.
    ``Path(start, edges)`` checks that each edge starts where the one before
    it ends and reads the steps off the edges; every other path is built
    from steps, and builds its edges the first time they are read.  Start
    and steps fix the edges and are fixed by them, so a path equals and
    hashes on ``(start, steps)``, and it prints and pickles as the path
    given its edges.
    """

    start: Word
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        at, steps = self.start, []
        for i, e in enumerate(self.edges):
            if e.source != at:
                raise PathError(
                    f"edge {i} starts at {word_str(e.source)}, expected {word_str(at)}"
                )
            steps.append((len(e.left), len(at) - len(e.right), e.rule, e.sign))
            at = e.target
        self.__dict__.update(steps=tuple(steps), end=at)

    @classmethod
    def _of_steps(cls, start: Word, steps: tuple, end: Word, positive: bool = False) -> "Path":
        """The path of ``steps`` from ``start``, which must end at ``end``:
        the constructor without the walk of ``__post_init__``, building no
        edge.  ``positive`` says that every step has sign +1, and is then
        ``is_positive`` without a walk of the steps."""
        p = object.__new__(cls)
        p.__dict__.update(start=start, steps=steps, end=end)
        if positive:
            p.__dict__["is_positive"] = True
        return p

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks, which is the
        # edges of a path built from steps until they are first read
        if name != "edges":
            raise AttributeError(name)
        edges = tuple(
            Edge(tuple(u[:i]), rule, sign, tuple(u[j:]))
            for (i, j, rule, sign), u in zip(self.steps, self._walk())
        )
        self.__dict__["edges"] = edges
        return edges

    def __reduce__(self):
        return Path, (self.start, self.edges)

    def __eq__(self, other):
        if other.__class__ is not Path:
            return NotImplemented
        return self.start == other.start and self.steps == other.steps

    def __hash__(self):
        return hash((self.start, self.steps))

    def _walk(self) -> Iterator[list]:
        """``start``, then the word after each step: the one walk that
        edges, printing and traces read.  It yields one list, spliced in
        place at each step, so a reader takes what it needs of a word before
        it asks for the next."""
        u = list(self.start)
        yield u
        for i, j, rule, sign in self.steps:
            u[i:j] = rule.rhs if sign == 1 else rule.lhs
            yield u

    @property
    def iota(self) -> Word:
        return self.start

    @property
    def tau(self) -> Word:
        return self.end

    @cached_property
    def is_positive(self) -> bool:
        return all(step[3] == 1 for step in self.steps)

    @property
    def is_closed(self) -> bool:
        return self.iota == self.tau

    def __len__(self):
        return len(self.steps)

    def __str__(self):
        words = map(word_str, self._walk())
        parts = [next(words)]
        for (i, _, rule, sign), after in zip(self.steps, words):
            parts.append(f" --({rule.name},{sign:+d})@{i}--> {after}")
        return "".join(parts)


def _shifted(steps: tuple, n: int) -> tuple:
    """``steps`` applied n letters further right."""
    if not n:
        return steps
    return tuple([(i + n, j + n, rule, sign) for i, j, rule, sign in steps])


def compose(p: Path, *rest: Path) -> Path:
    """``p``, then each path of ``rest`` in turn; all are valid paths, so
    only the junctions are checked."""
    if not rest:
        return p
    steps, last = p.steps, p
    for q in rest:
        if last.tau != q.iota:
            raise PathError(
                f"cannot compose: {word_str(last.tau)} != {word_str(q.iota)}"
            )
        steps += q.steps
        last = q
    return Path._of_steps(p.start, steps, last.end)


def invert(p: Path) -> Path:
    """``p`` backwards: each step, last first, puts back the side it took
    out."""
    steps = [
        (i, i + len(rule.rhs if sign == 1 else rule.lhs), rule, -sign)
        for i, _, rule, sign in reversed(p.steps)
    ]
    return Path._of_steps(p.end, tuple(steps), p.start)


def act(x: Word, p: Path, y: Word) -> Path:
    """Two-sided action: x in front of and y behind every word of the path."""
    if not x and not y:
        return p
    return Path._of_steps(x + p.start + y, _shifted(p.steps, len(x)), x + p.end + y)


def _span(e: Edge) -> tuple:
    side = e.rule.lhs if e.sign == 1 else e.rule.rhs
    return (len(e.left), len(e.left) + len(side))


def interchange_square(e1: Edge, e2: Edge) -> Path:
    """The closed 4-edge path around two rule applications on disjoint factors.

    Both edges must be applications inside the same word with disjoint
    matched regions; the square applies them in the two possible orders and
    closes up.
    """
    if e1.source != e2.source:
        raise PathError("edges must act on a common word")
    a1, b1 = _span(e1)
    a2, b2 = _span(e2)
    if not (b1 <= a2 or b2 <= a1):
        raise PathError("matched regions overlap")
    if b2 <= a1:
        e1, e2 = e2, e1
        a1, b1, a2, b2 = a2, b2, a1, b1
    w = e1.source
    mid = w[b1:a2]
    other1 = e1.rule.rhs if e1.sign == 1 else e1.rule.lhs
    other2 = e2.rule.rhs if e2.sign == 1 else e2.rule.lhs
    second = Edge(e1.left + other1 + mid, e2.rule, e2.sign, e2.right)
    third = Edge(e1.left, e1.rule, e1.sign, mid + other2 + e2.right)
    return Path(w, (e1, second, third.inverse(), e2.inverse()))


Realization = Callable[[Rule], Optional[Path]]


def lift_path(p: Path, realize: Realization) -> Path:
    """Replace each edge whose rule has a realization by the realizing path.

    ``realize(rule)`` returns a path from ``rule.lhs`` to ``rule.rhs`` (or
    None to keep the edge as is).  The realizing steps move to the edge's
    position, reversed for a backward edge, so endpoints are preserved and
    lifting commutes with composition and inversion.  A realization with the
    rule's endpoints, so moved, runs from the edge's source to its target,
    and the result is built without a walk.
    """
    steps = []
    for step in p.steps:
        i, _, rule, sign = step
        base = realize(rule)
        if base is None:
            steps.append(step)
            continue
        if base.iota != rule.lhs or base.tau != rule.rhs:
            raise PathError(
                f"realization of {rule.name} has endpoints "
                f"{word_str(base.iota)} -> {word_str(base.tau)}, expected rule sides"
            )
        steps.extend(_shifted((base if sign == 1 else invert(base)).steps, i))
    return Path._of_steps(p.start, tuple(steps), p.end)
