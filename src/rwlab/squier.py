"""Derivation-graph edges and paths with the two-sided free-monoid action.

An edge is the 4-tuple (left context, rule, sign, right context); its source
is ``left · side · right`` where side is the rule's lhs for sign +1 and the
rhs for sign −1, and its target swaps the two sides.  Paths are composable
edge sequences that remember their start word, so the empty path at a word
is well-typed.  A path may instead keep its pieces, each a short path placed
in a left and right context, or the chain of cached cells of a reduction,
and build its edges only when they are read.  Everything here is immutable
and pure.

Homotopy of paths is not decided anywhere in this package; this module only
constructs paths and the generating moves (interchange squares, pp⁻¹
cancellations) that invariance tests need.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

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


@dataclass(frozen=True)
class Path:
    """A composable sequence of edges starting at ``start``.

    A path built by ``Path._of_pieces`` keeps its ``pieces``, and one built
    by ``Path._of_chain`` its ``chain``; either builds its edges the first
    time they are read.  It equals, hashes, prints and pickles as the path
    given those edges.
    """

    start: Word
    edges: tuple = field(default_factory=tuple)

    # ``(left, w, steps, sign, right)`` per piece, or None for a path given its
    # edges.  A piece runs steps ``(i, rule, s, tail)`` over the word w, each
    # the edge ``(w[:i], rule, s, w[i+1:] + tail)``, forwards (sign +1) or last
    # to first (sign −1), in the outer contexts ``left`` and ``right``: in
    # place, a step is the edge ``(left + w[:i], rule, s·sign, w[i+1:] + tail
    # + right)``.  A one-edge piece has w = ε and the one step (0, rule, s, ε).
    pieces = None

    # The first cell of a positive path's chain, or None.  A cell ``(i, j,
    # rule, next)`` rewrites ``[i:j]`` of its word by ``rule`` into the word
    # whose cell is ``next``; the terminal cell ``(end,)`` holds the word the
    # path ends at, which the path also keeps as ``end``.  The cells are
    # those of ``rewrite.reduction_path``'s cache and are never changed, so
    # a path holds its chain after the cache evicts it.
    chain = None

    def __post_init__(self):
        at = self.start
        for i, e in enumerate(self.edges):
            if e.source != at:
                raise PathError(
                    f"edge {i} starts at {word_str(e.source)}, expected {word_str(at)}"
                )
            at = e.target

    @classmethod
    def _trusted(cls, start: Word, edges: tuple) -> "Path":
        """A path whose edges are known to compose from ``start``: the
        constructor without the walk of ``__post_init__``."""
        p = object.__new__(cls)
        p.__dict__.update(start=start, edges=edges)
        return p

    @classmethod
    def _of_pieces(cls, pieces: tuple) -> "Path":
        """The path of ``pieces``, which must chain by construction; its start
        is the source of the first step, and no edge is built."""
        left, w, steps, sign, right = pieces[0]
        i, rule, s, tail = steps[0] if sign == 1 else steps[-1]
        side = rule.lhs if s * sign == 1 else rule.rhs
        p = object.__new__(cls)
        p.__dict__.update(start=left + w[:i] + side + w[i + 1 :] + tail + right, pieces=pieces)
        return p

    @classmethod
    def _of_chain(cls, start: Word, chain: tuple, end: Word) -> "Path":
        """The positive path from ``start`` along ``chain``, which ends at
        ``end``; no edge is built."""
        p = object.__new__(cls)
        p.__dict__.update(start=start, chain=chain, end=end)
        return p

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks, which is the
        # edges of a path of pieces or of a chain until they are first read
        if name != "edges":
            raise AttributeError(name)
        if self.pieces is not None:
            edges = tuple(_piece_edges(self.pieces))
        elif self.chain is not None:
            edges = tuple(_served(self.start, self.chain))
        else:
            raise AttributeError(name)
        self.__dict__["edges"] = edges
        return edges

    def __getstate__(self):
        return {"start": self.start, "edges": self.edges}

    def weighted_contexts(self, weights: Mapping[str, int]) -> Iterator[Tuple[int, Word]]:
        """``(sign · weight, right context)`` of each edge whose rule has a
        nonzero weight in ``weights`` (by rule name), in path order.  A path
        of pieces is read step by step without building an edge, and a
        step's right context is built only when its rule has a weight."""
        weight = weights.get
        if self.pieces is None:
            for e in self.edges:
                wt = weight(e.rule.name, 0)
                if wt:
                    yield e.sign * wt, e.right
            return
        for left, w, steps, sign, right in self.pieces:
            for i, rule, s, tail in steps if sign == 1 else reversed(steps):
                wt = weight(rule.name, 0)
                if wt:
                    yield s * sign * wt, w[i + 1 :] + tail + right

    @property
    def iota(self) -> Word:
        return self.start

    @property
    def tau(self) -> Word:
        if self.chain is not None:
            return self.end
        return self.edges[-1].target if self.edges else self.start

    @property
    def is_positive(self) -> bool:
        return self.chain is not None or all(e.sign == 1 for e in self.edges)

    @property
    def is_closed(self) -> bool:
        return self.iota == self.tau

    def __len__(self):
        return len(self.edges)

    def __str__(self):
        parts = [word_str(self.start)]
        for e in self.edges:
            parts.append(f" --({e.rule.name},{e.sign:+d})@{len(e.left)}--> {word_str(e.target)}")
        return "".join(parts)


def _piece_edges(pieces: tuple) -> Iterator[Edge]:
    """The edges of ``pieces`` in path order (see ``Path.pieces``)."""
    for left, w, steps, sign, right in pieces:
        for i, rule, s, tail in steps if sign == 1 else reversed(steps):
            yield Edge(left + w[:i], rule, s * sign, w[i + 1 :] + tail + right)


def _served(u: Word, cell: tuple) -> List[Edge]:
    """The edges of the chain from ``cell`` (see ``Path.chain``), each
    spliced from the word before it, ``u`` first."""
    edges = []
    while len(cell) > 1:
        i, j, rule, cell = cell
        edges.append(Edge(u[:i], rule, 1, u[j:]))
        u = u[:i] + rule.rhs + u[j:]
    return edges


def compose(p: Path, q: Path) -> Path:
    """``p`` then ``q``; both are valid paths, so only the junction is checked."""
    if p.tau != q.iota:
        raise PathError(
            f"cannot compose: {word_str(p.tau)} != {word_str(q.iota)}"
        )
    return Path._trusted(p.start, p.edges + q.edges)


def invert(p: Path) -> Path:
    return Path._trusted(p.tau, tuple(e.inverse() for e in reversed(p.edges)))


def act(x: Word, p: Path, y: Word) -> Path:
    """Two-sided action: extend every edge's contexts by x on the left, y on the right."""
    return Path._trusted(
        x + p.start + y,
        tuple(Edge(x + e.left, e.rule, e.sign, e.right + y) for e in p.edges),
    )


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
    None to keep the edge as is).  Contexts and signs are transported, so
    endpoints are preserved and lifting commutes with composition and
    inversion.  A realization with the rule's endpoints, transported, runs
    from the edge's source to its target, so the result is built without a
    second walk.
    """
    edges = []
    for e in p.edges:
        base = realize(e.rule)
        if base is None:
            edges.append(e)
            continue
        if base.iota != e.rule.lhs or base.tau != e.rule.rhs:
            raise PathError(
                f"realization of {e.rule.name} has endpoints "
                f"{word_str(base.iota)} -> {word_str(base.tau)}, expected rule sides"
            )
        steps = base.edges if e.sign == 1 else reversed(base.edges)
        edges.extend(Edge(e.left + b.left, b.rule, b.sign * e.sign, b.right + e.right) for b in steps)
    return Path._trusted(p.start, tuple(edges))
