"""The former redex search of ``rwlab.rewrite``, kept as the reference oracle.

``_schema_match_at``, ``_redexes_at`` and ``_first_redex`` are the former
library functions, unchanged except that ``Presentation.rules_by_first``
became the memoized ``rules_by_first(p)``.  ``leftmost_steps`` is the former
``_leftmost_steps`` loop, which rescans from position 0 after every rewrite
and probes every schema letter by letter at every position.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Optional

from rwlab import rewrite
from rwlab.core import Presentation, Rule, RuleSchema, Word, instantiate_schema, word_str
from rwlab.rewrite import RewriteError, check_orientation
from rwlab.squier import Edge, Path


@functools.lru_cache(maxsize=None)
def rules_by_first(p: Presentation) -> dict:
    table: dict = {}
    for r in p.rules:
        table.setdefault(r.lhs[0] if r.lhs else None, []).append(r)
    return table


def _schema_match_at(w: Word, i: int, s: RuleSchema) -> Optional[Rule]:
    """Shortest instantiation of schema ``s`` whose lhs matches ``w`` at ``i``."""
    lp, ls = s.lhs_prefix, s.lhs_suffix
    if w[i : i + len(lp)] != lp:
        return None
    rng = s._range_set
    j = i + len(lp)
    end = len(w) - len(ls)
    while j <= end:
        if w[j : j + len(ls)] == ls:
            return instantiate_schema(s, w[i + len(lp) : j])
        if w[j] not in rng:
            return None
        j += 1
    return None


def _redexes_at(w: Word, i: int, p: Presentation) -> Iterator[Edge]:
    seen = set()
    for r in rules_by_first(p).get(w[i], ()):
        if w[i : i + len(r.lhs)] == r.lhs:
            seen.add((r.lhs, r.rhs))
            yield Edge(w[:i], r, 1, w[i + len(r.lhs) :])
    for s in p.schemas:
        inst = _schema_match_at(w, i, s)
        if inst is not None and (inst.lhs, inst.rhs) not in seen:
            seen.add((inst.lhs, inst.rhs))
            yield Edge(w[:i], inst, 1, w[i + len(inst.lhs) :])


def find_redexes(w: Word, p: Presentation) -> List[Edge]:
    out: List[Edge] = []
    for i in range(len(w)):
        out.extend(_redexes_at(w, i, p))
    return out


def _first_redex(w: Word, p: Presentation) -> Optional[Edge]:
    for i in range(len(w)):
        for e in _redexes_at(w, i, p):
            return e
    return None


def leftmost_steps(w: Word, p: Presentation) -> Iterator[Edge]:
    check_orientation(p)
    e = _first_redex(w, p)
    for _ in range(rewrite.STEP_CAP):
        if e is None:
            return
        yield e
        e = _first_redex(e.target, p)
    if e is not None:
        raise RewriteError(f"step cap exceeded while reducing {word_str(w)}")


def reduction_path(w: Word, p: Presentation) -> Path:
    return Path(w, tuple(leftmost_steps(w, p)))


def normalize(w: Word, p: Presentation) -> Word:
    """The last word of the leftmost reduction; no cache."""
    nf = w
    for e in leftmost_steps(w, p):
        nf = e.target
    return nf


def is_irreducible(w: Word, p: Presentation) -> bool:
    return _first_redex(w, p) is None
