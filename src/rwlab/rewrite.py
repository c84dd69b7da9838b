"""Rule applications as edges, single-step rewriting, normalization, shortlex order.

Reduction strategy: leftmost redex, plain rules before schema matches at a
position, ties broken by declaration order.  On a confluent system the
normal form is strategy-independent; the fixed strategy just makes traces
reproducible.  Termination is enforced by checking that every rule and
schema orients lhs > rhs under the presentation's shortlex ordering; a hard
step cap is a backstop.
"""

from __future__ import annotations

import weakref
from typing import Iterator, List, Optional

from .core import (
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    Word,
    instantiate_schema,
    shortlex_key,
    word_str,
    words_over,
)
from .squier import Edge, Path

STEP_CAP = 10**6
ENUMERATION_CAP = 10**6  # words that enumerate_normal_forms may test


class RewriteError(RwlabError):
    pass


class OrientationError(RewriteError):
    pass


def compare_shortlex(u: Word, v: Word, ordering: OrderingSpec) -> int:
    """Return -1, 0 or +1 as u is shortlex-less, equal, or greater than v.

    Shorter words are smaller; at equal length the first differing letter
    decides, where earlier precedence means greater.
    """
    ku, kv = shortlex_key(u, ordering), shortlex_key(v, ordering)
    return (ku > kv) - (ku < kv)


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
    for r in p.rules_by_first.get(w[i], ()):
        if w[i : i + len(r.lhs)] == r.lhs:
            seen.add((r.lhs, r.rhs))
            yield Edge(w[:i], r, 1, w[i + len(r.lhs) :])
    for s in p.schemas:
        inst = _schema_match_at(w, i, s)
        if inst is not None and (inst.lhs, inst.rhs) not in seen:
            seen.add((inst.lhs, inst.rhs))
            yield Edge(w[:i], inst, 1, w[i + len(inst.lhs) :])


def find_redexes(w: Word, p: Presentation) -> List[Edge]:
    """All rule applications to ``w``, as positive edges with source ``w``:
    per position, plain rules first then the shortest schema instantiation
    per schema; schema matches that duplicate a plain rule's rewrite at the
    same position are dropped."""
    out: List[Edge] = []
    for i in range(len(w)):
        out.extend(_redexes_at(w, i, p))
    return out


def _first_redex(w: Word, p: Presentation) -> Optional[Edge]:
    for i in range(len(w)):
        for e in _redexes_at(w, i, p):
            return e
    return None


def rewrite_at(w: Word, e: Edge) -> Word:
    """Apply the rule application ``e`` to ``w``, which must be its source.

    A negative edge is a reverse step: the rule's rhs is replaced by its lhs.
    """
    if e.source != w:
        raise RewriteError(
            f"invalid redex: {e.rule.name} does not match {word_str(w)} at {len(e.left)}"
        )
    return e.target


def _schema_oriented(s: RuleSchema, ordering: OrderingSpec) -> bool:
    """Conservatively decide lhs > rhs for every instantiation.

    Safe cases: the fixed part strictly shrinks; or it keeps length with
    equal prefixes and a shortlex-greater lhs suffix; or it keeps length and
    the prefixes already differ in favour of the lhs.
    """
    fixed_l = len(s.lhs_prefix) + len(s.lhs_suffix)
    fixed_r = len(s.rhs_prefix) + len(s.rhs_suffix)
    if fixed_l > fixed_r:
        return True
    if fixed_l != fixed_r:
        return False
    if s.lhs_prefix == s.rhs_prefix:
        return (
            len(s.lhs_suffix) == len(s.rhs_suffix)
            and compare_shortlex(s.lhs_suffix, s.rhs_suffix, ordering) > 0
        )
    rank = ordering.rank
    for x, y in zip(s.lhs_prefix, s.rhs_prefix):
        if x != y:
            return rank[x] < rank[y]
    return False


_orientation_ok = weakref.WeakKeyDictionary()  # presentation -> True once checked


def check_orientation(p: Presentation) -> None:
    """Raise unless every rule and schema orients lhs > rhs under shortlex.

    The outcome is memoized per presentation; presentations are immutable.
    """
    if _orientation_ok.get(p):
        return
    if p.ordering is None:
        raise OrientationError("presentation has no ordering; termination not guaranteed")
    for r in p.rules:
        if compare_shortlex(r.lhs, r.rhs, p.ordering) <= 0:
            raise OrientationError(
                f"rule {r.name} is not oriented; termination not guaranteed"
            )
    for s in p.schemas:
        if not _schema_oriented(s, p.ordering):
            raise OrientationError(
                f"schema {s.name} is not oriented; termination not guaranteed"
            )
    _orientation_ok[p] = True


def _leftmost_steps(w: Word, p: Presentation) -> Iterator[Edge]:
    """The leftmost-redex edges reducing ``w`` to an irreducible word.

    The orientation check guarantees termination; ``STEP_CAP`` steps are a
    backstop, past which a further redex raises.
    """
    check_orientation(p)
    e = _first_redex(w, p)
    for _ in range(STEP_CAP):
        if e is None:
            return
        yield e
        e = _first_redex(e.target, p)
    if e is not None:
        raise RewriteError(f"step cap exceeded while reducing {word_str(w)}")


def normalize(w: Word, p: Presentation) -> Word:
    """Reduce ``w`` to an irreducible word by the leftmost-redex strategy.

    Every word met on the way is cached with the result, and the reduction
    stops at the first word already cached.
    """
    cache = p._nf_cache
    nf = cache.get(w)
    if nf is not None:
        return nf
    passed = [w]
    nf = w
    for e in _leftmost_steps(w, p):
        nf = e.target
        hit = cache.get(nf)
        if hit is not None:
            nf = hit
            break
        passed.append(nf)
    for u in passed:
        cache[u] = nf
    return nf


def reduction_path(w: Word, p: Presentation) -> Path:
    """The positive path witnessing ``w ->* normalize(w)`` under the strategy."""
    return Path(w, tuple(_leftmost_steps(w, p)))


def format_trace(path: Path) -> str:
    """One rewrite step per line: ``<word> --<rule>@<pos>--> <word>``."""
    lines = []
    for e in path.edges:
        lines.append(
            f"{word_str(e.source)} --{e.rule.name}@{len(e.left)}--> {word_str(e.target)}"
        )
    return "\n".join(lines)


def is_irreducible(w: Word, p: Presentation) -> bool:
    return _first_redex(w, p) is None


def enumerate_normal_forms(p: Presentation, max_len: int) -> List[Word]:
    """All irreducible words of length <= max_len, in ascending shortlex order;
    ``RwlabError``, before any word is tested, when there are more than
    ``ENUMERATION_CAP`` words of length <= max_len."""
    k, count = len(p.alphabet.letters), 0
    for n in range(min(max_len, ENUMERATION_CAP) + 1):
        count += k**n
        if count > ENUMERATION_CAP:
            raise RwlabError(
                f"{k} letters give more than {ENUMERATION_CAP} words of length <= {max_len}"
            )
    check_orientation(p)
    out = [w for w in words_over(p.alphabet.letters, max_len) if is_irreducible(w, p)]
    out.sort(key=lambda w: shortlex_key(w, p.ordering))
    return out
