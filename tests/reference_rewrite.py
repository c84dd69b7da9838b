"""The former redex search of ``rwlab.rewrite``, kept as the reference oracle.

``_schema_match_at``, ``_redexes_at`` and ``_first_redex`` are the former
library functions, unchanged except that ``Presentation.rules_by_first``
became the memoized ``rules_by_first(p)``.  ``leftmost_steps`` is the former
``_leftmost_steps`` loop, which rescans from position 0 after every rewrite
and probes every schema letter by letter at every position.

``compiled_leftmost_steps`` and ``compiled_normalize`` are the compiled loop
that replaced it, before the normalizer ran on one mirror string.
"""

from __future__ import annotations

import functools
import re
import weakref
from collections import deque
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


# ---------------------------------------------------------------------------
# The compiled loop before the normalizer ran on one mirror string: one
# matcher per presentation searching the mirror with ``pattern.search`` from
# a restart bound, the word spliced as a tuple in lockstep with its mirror,
# and a normal-form cache keyed by tuples.
# ---------------------------------------------------------------------------


class _Mirror(dict):
    def __missing__(self, letter):
        return "\0"


def _mirror(chars: _Mirror, w: Word) -> str:
    return "".join(map(chars.__getitem__, w))


class _CompiledMatcher:
    def __init__(self, p: Presentation):
        self.chars = _Mirror((x, chr(0x41 + k)) for k, x in enumerate(p.alphabet.letters))
        mirror = self.mirror
        entries, patterns, runs = [], [], set()
        for k, s in enumerate(p.schemas):
            rng = "".join(sorted(set(mirror(s.variable_range))))
            var = f"([{re.escape(rng)}]*?)" if rng else "()"
            patterns.append(
                re.compile(re.escape(mirror(s.lhs_prefix)) + var + re.escape(mirror(s.lhs_suffix)))
            )
            entries.append(
                (k, s, s.rhs_prefix, mirror(s.rhs_prefix), s.rhs_suffix, mirror(s.rhs_suffix))
            )
            runs.add((len(s.lhs_prefix), len(s.lhs_suffix), rng))
        self.schemas, self.runs = tuple(entries), tuple(runs)
        self.pattern = re.compile("|".join(pat.pattern for pat in patterns)) if patterns else None
        self.plain: dict = {}
        for k, r in enumerate(p.rules):
            if r.lhs:
                entry = (k, r, r.rhs, mirror(r.rhs), (), "")
                self.plain.setdefault(mirror(r.lhs), []).append(entry)
        self.lengths = sorted({len(lhs) for lhs in self.plain})
        self.maxlhs = max(self.lengths, default=0)
        self.cache: dict = {}
        self.order: deque = deque()

    def mirror(self, w: Word) -> str:
        return _mirror(self.chars, w)

    def leftmost(self, s: str, plain_from: int = 0, schema_from: int = 0):
        n = len(s)
        m = self.pattern.search(s, schema_from) if self.pattern is not None else None
        if m is not None and m.start() == n:
            m = None
        stop = n if m is None else m.start() + 1
        plain, lengths = self.plain, self.lengths
        for i in range(plain_from, stop):
            best = j = None
            for length in lengths:
                if i + length > n:
                    break
                hit = plain.get(s[i : i + length])
                if hit is not None and (best is None or hit[0][0] < best[0]):
                    best, j = hit[0], i + length
            if best is not None:
                return i, j, j, j, best
        if m is None:
            return None
        k = m.lastindex - 1
        a, b = m.span(k + 1)
        return m.start(), m.end(), a, b, self.schemas[k]

    def restart(self, s: str, i: int):
        schema_from = i
        for lp, ls, rng in self.runs:
            schema_from = min(schema_from, len(s[: max(0, i - ls)].rstrip(rng)) - lp)
        return max(0, i - self.maxlhs + 1), max(0, schema_from)


_compiled = weakref.WeakKeyDictionary()  # presentation -> its _CompiledMatcher


def _compiled_matcher(p: Presentation) -> _CompiledMatcher:
    m = _compiled.get(p)
    if m is None:
        m = _compiled[p] = _CompiledMatcher(p)
    return m


def compiled_leftmost_steps(w: Word, p: Presentation) -> Iterator[tuple]:
    """``(target, i, j, rule or schema, variable)`` per step, the tuple and
    its mirror spliced in lockstep."""
    check_orientation(p)
    m = _compiled_matcher(p)
    u, s = w, m.mirror(w)
    found = m.leftmost(s)
    for _ in range(rewrite.STEP_CAP):
        if found is None:
            return
        i, j, a, b, (_, x, pre, pre_s, suf, suf_s) = found
        v = u[a:b]
        u = u[:i] + pre + v + suf + u[j:]
        s = s[:i] + pre_s + s[a:b] + suf_s + s[j:]
        yield u, i, j, x, v
        found = m.leftmost(s, *m.restart(s, i))
    if found is not None:
        raise RewriteError(f"step cap exceeded while reducing {word_str(w)}")


def compiled_normalize(w: Word, p: Presentation) -> Word:
    """The tuple-keyed normalize: every word passed is cached as a tuple, the
    reduction stops at the first cached word, and past ``NF_CACHE_CAP``
    entries the oldest go first.  The cache is the reference matcher's own."""
    m = _compiled_matcher(p)
    cache = m.cache
    nf = cache.get(w)
    if nf is not None:
        return nf
    passed = [w]
    nf = w
    for step in compiled_leftmost_steps(w, p):
        nf = step[0]
        hit = cache.get(nf)
        if hit is not None:
            nf = hit
            break
        passed.append(nf)
    for u in passed:
        cache[u] = nf
    m.order.extend(passed)
    while len(m.order) > rewrite.NF_CACHE_CAP:
        del cache[m.order.popleft()]
    return nf
