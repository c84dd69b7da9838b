"""Former code of ``rwlab.squier``, kept as the reference.

``Edge`` is the former frozen dataclass, unchanged: its ``repr``, hash and
sign check are what the tuple-based ``rwlab.squier.Edge`` must reproduce.

``check_path`` is the former ``Path.__post_init__`` walk, unchanged but for
taking the path as an argument: every edge must start where the previous
one ended.  ``compose``, ``invert``, ``act`` and ``lift_path`` are the
former operations, which built every edge of their results with its full
contexts, here through the public ``Path(start, edges)`` and so its walk,
which the former code skipped.  The step-based operations of
``rwlab.squier`` build their results without the walk; the differential
tests re-run it on them and compare their start, edges and end with these.
"""

from __future__ import annotations

from dataclasses import dataclass

from rwlab.core import Rule, Word, word_str
from rwlab.squier import Edge as PathEdge
from rwlab.squier import Path, PathError


@dataclass(frozen=True)
class Edge:
    left: Word
    rule: Rule
    sign: int  # +1 or -1
    right: Word

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise PathError(f"edge sign must be +1 or -1, got {self.sign}")


def check_path(path) -> None:
    at = path.start
    for i, e in enumerate(path.edges):
        if e.source != at:
            raise PathError(
                f"edge {i} starts at {word_str(e.source)}, expected {word_str(at)}"
            )
        at = e.target


def compose(p: Path, q: Path) -> Path:
    if p.tau != q.iota:
        raise PathError(f"cannot compose: {word_str(p.tau)} != {word_str(q.iota)}")
    return Path(p.start, p.edges + q.edges)


def invert(p: Path) -> Path:
    return Path(p.tau, tuple(e.inverse() for e in reversed(p.edges)))


def act(x: Word, p: Path, y: Word) -> Path:
    return Path(
        x + p.start + y,
        tuple(PathEdge(x + e.left, e.rule, e.sign, e.right + y) for e in p.edges),
    )


def lift_path(p: Path, realize) -> Path:
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
        edges.extend(
            PathEdge(e.left + b.left, b.rule, b.sign * e.sign, b.right + e.right) for b in steps
        )
    return Path(p.start, tuple(edges))
