"""Rule applications as edges, single-step rewriting, normalization, shortlex order.

Reduction strategy: leftmost redex, plain rules before schema matches at a
position, ties broken by declaration order.  On a confluent system the
normal form is strategy-independent; the fixed strategy just makes traces
reproducible.  Termination is enforced by checking that every rule and
schema orients lhs > rhs under the presentation's shortlex ordering; a hard
step cap is a backstop.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
import weakref
from typing import Callable, Iterable, Iterator, List, Optional

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
NF_CACHE_CAP = 2**17  # normal-form cache entries per presentation
ENUMERATION_CAP = 10**6  # words, schema instances, peaks, sweep instances or pairs a call may take


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


class _Mirror(dict):
    """Letter -> character; a letter outside the alphabet gets a character
    that no rule or schema uses."""

    def __missing__(self, letter):
        return "\0"


def _mirror(chars: _Mirror, w: Word) -> str:
    return "".join(map(chars.__getitem__, w))


_declared = operator.itemgetter(0)  # the declaration index of a table entry
_target = operator.itemgetter(0)  # the string a step leads to
_UNKNOWN = 0  # a frontier that knows nothing: ``_resume`` lifts it to the variable start
_FAR = sys.maxsize  # a position past the end of every string
_RESUME_MIN = 16  # a shorter variable is found again faster by the full search


def _range_class(rng: str) -> str:
    """A character class of the characters outside ``rng``."""
    return f"[^{re.escape(rng)}]" if rng else "(?s:.)"


@functools.lru_cache(maxsize=64)
def _schema_part(letters: tuple, schemas: tuple) -> tuple:
    """The letter mirror and the schema matching data of a presentation:
    the same for every presentation that completion rebuilds from it."""
    chars = _Mirror((x, chr(0x41 + k)) for k, x in enumerate(letters))
    mirror = functools.partial(_mirror, chars)
    # (declaration index, schema, rhs prefix string, rhs suffix string, keeps its prefix)
    entries = []
    alts = []  # (lhs prefix string, |lhs prefix|, lhs suffix string, |lhs suffix|, outside the range)
    patterns = []
    ranges = {}  # range characters -> (index, a match up to the last character outside them)
    runs = set()  # (|lhs prefix|, |lhs suffix|, range index)
    for k, s in enumerate(schemas):
        rng = "".join(sorted(set(mirror(s.variable_range))))
        var = f"([{re.escape(rng)}]*?)" if rng else "()"
        pre, suf = mirror(s.lhs_prefix), mirror(s.lhs_suffix)
        patterns.append(re.compile(re.escape(pre) + var + re.escape(suf)))
        keep = s.lhs_prefix == s.rhs_prefix
        entries.append((k, s, mirror(s.rhs_prefix), mirror(s.rhs_suffix), keep))
        alts.append((pre, len(pre), suf, len(suf), re.compile(_range_class(rng))))
        r = ranges.setdefault(rng, (len(ranges), re.compile(f"(?s:.)*{_range_class(rng)}")))[0]
        runs.add((len(pre), len(suf), r))
    pattern = re.compile("|".join(pat.pattern for pat in patterns)) if patterns else None
    lastout = tuple(last for _, last in ranges.values())
    back = {c: x for x, c in chars.items()}  # the mirror read back
    return chars, back, tuple(entries), tuple(alts), tuple(patterns), pattern, tuple(runs), lastout


class _Matcher:
    """The leftmost-redex search of one presentation, over a string that
    mirrors the word one character per letter.

    Plain rules sit in a table keyed by lhs.  Schemas share one compiled
    alternation ``lhs_prefix([range]*?)lhs_suffix``: the lazy repeat gives
    each schema's shortest instantiation, and the order of the alternatives
    gives declaration order.  Only the schemas are compiled, so completion,
    which rebuilds the rules but keeps the schemas, compiles nothing new.
    """

    def __init__(self, p: Presentation):
        self.unoriented = _orientation_error(p)  # None, or why reducing raises
        (
            self.chars,
            self.letters,
            self.schemas,
            self.alts,
            self.patterns,
            self.pattern,
            self.runs,
            self.lastout,
        ) = _schema_part(p.alphabet.letters, p.schemas)
        # lhs string -> [(declaration index, rule, rhs string, "", None)]
        self.plain: dict = {}
        for k, r in enumerate(p.rules):
            if r.lhs:
                entry = (k, r, self.mirror(r.rhs), "", None)
                self.plain.setdefault(self.mirror(r.lhs), []).append(entry)
        self.lengths = sorted({len(lhs) for lhs in self.plain})
        self.maxlhs = max(self.lengths, default=0)

    def mirror(self, w: Word) -> str:
        return _mirror(self.chars, w)

    def word(self, s: str) -> Word:
        """The word a mirror without undeclared letters stands for."""
        return tuple(map(self.letters.__getitem__, s))

    def leftmost(self, s: str, plain_from: int = 0, schema_from: int = 0):
        """The leftmost redex of ``s`` as ``(i, j, a, b, entry)``: the lhs
        is ``s[i:j]``, the schema variable ``s[a:b]`` (empty for a plain
        rule), and the result is ``entry``'s rhs prefix, the variable and
        its rhs suffix.  At a position the first declared plain rule wins,
        then the first declared schema.  No plain redex may start before
        ``plain_from`` and no schema redex before ``schema_from``."""
        n = len(s)
        m = self.pattern.search(s, schema_from) if self.pattern is not None else None
        if m is not None and m.start() == n:
            m = None  # an empty lhs at the end of the word is no redex
        found = self._plain(s, plain_from, n if m is None else m.start() + 1)
        if found is not None or m is None:
            return found
        k = m.lastindex - 1
        a, b = m.span(k + 1)
        return m.start(), m.end(), a, b, self.schemas[k]

    def _plain(self, s: str, lo: int, hi: int):
        """The first plain redex starting in ``[lo, hi)``, as ``leftmost``
        gives it."""
        n, plain, lengths = len(s), self.plain, self.lengths
        for i in range(lo, hi):
            best = j = None
            for length in lengths:
                if i + length > n:
                    break
                hit = plain.get(s[i : i + length])
                if hit is not None and (best is None or hit[0][0] < best[0]):
                    best, j = hit[0], i + length
            if best is not None:
                return i, j, j, j, best
        return None

    def _front(self, k: int, b: int) -> tuple:
        """The frontiers ``(F, V, N, Q)`` of the schema alternatives at the
        start of a redex of schema ``k`` with variable end ``b`` that the
        full search found.

        For an alternative with variable start ``v0``: no suffix occurrence
        ``t`` in ``[v0, F)`` has ``s[v0:t]`` all range characters, ``s[v0:V]``
        has them, and the suffix occurs nowhere at or after ``N``.  ``Q``
        holds the cuts of rewrites that skipped alternatives: the lowest
        ``c`` of ``_resume`` not yet applied to alternative ``k`` is the
        least of ``Q[:k + 1]`` (``_FAR`` when there is none).  The
        alternatives before ``k`` have no valid occurrence at all (``F`` is
        ``_FAR``), ``k`` has none before ``b``, and nothing is known of the
        later ones.
        """
        n = len(self.alts)
        rest = n - k - 1
        F = [_FAR] * k + [b] + [_UNKNOWN] * rest
        V = [_UNKNOWN] * k + [b] + [_UNKNOWN] * rest
        return F, V, [_FAR] * n, [_FAR] * n

    def _resume(self, s: str, p: int, c: int, j: int, d: int, front: tuple):
        """The first declared schema matching at ``p`` after a rewrite that
        left ``s[:c]`` as it was and moved the tail from ``j`` on to ``d``,
        with its shortest variable, or None; the frontiers (see ``_front``)
        are brought up to date.

        An occurrence that ends by ``c`` and a range character before ``c``
        are as they were, so frontiers cut to ``c - |lhs_suffix| + 1`` and
        ``c`` still hold: only suffix occurrences that overlap the rewrite
        can be new.  A suffix absent from ``N <= j`` on is absent from ``d``
        on.  The first occurrence at or after the frontier is the shortest
        variable if the variable's characters up to it are all in the range;
        otherwise the range ends before it, and so before every later
        occurrence.  The alternatives are tried in declaration order, and
        those after the one that matches keep the cut for later.
        """
        F, V, N, Q = front
        low = _FAR  # the lowest cut skipped by the alternatives so far
        for k, (pre, lp, suf, ls, outside) in enumerate(self.alts):
            start, f, v, g = p + lp, F[k], V[k], N[k]
            if Q[k] < low:
                low = Q[k]
            if low < _FAR:  # rewrites passed k by: cut to the lowest, forget N
                Q[k] = g = _FAR
                cut = low if low < c else c
            else:
                cut = c
                g = d if g <= j else g + d - j  # _FAR stays past every end
            if f > cut - ls:
                f = cut - ls + 1
            if v > cut:
                v = cut
            if f < start:
                f = start
            if v < start:
                v = start
            if s.startswith(pre, p):
                t = s.find(suf, f, g + ls - 1)
                if t >= 0:
                    out = outside.search(s, v, t)
                    if out is None:
                        F[k], V[k], N[k] = t, v if v > t else t, g
                        if k + 1 < len(Q):
                            Q[k + 1] = min(Q[k + 1], low, c)
                        return p, t + ls, start, t, self.schemas[k]
                    v = out.start()
                else:
                    g = f
                f = _FAR
            F[k], V[k], N[k] = f, v, g
        return None

    def redexes(self, w: Word) -> Iterator[Edge]:
        """Every redex of ``w``; see ``find_redexes``."""
        s = self.mirror(w)
        n = len(s)
        for i in range(n):
            hits = []
            for length in self.lengths:
                if i + length > n:
                    break
                hits += self.plain.get(s[i : i + length], ())
            hits.sort(key=_declared)
            for _, r, *_ in hits:
                yield Edge(w[:i], r, 1, w[i + len(r.lhs) :])
            if not self.schemas:
                continue
            seen = {(r.lhs, r.rhs) for _, r, *_ in hits}
            for pat, (_, schema, *_) in zip(self.patterns, self.schemas):
                m = pat.match(s, i)
                if m is not None:
                    inst = instantiate_schema(schema, w[slice(*m.span(1))])
                    if (inst.lhs, inst.rhs) not in seen:
                        seen.add((inst.lhs, inst.rhs))
                        yield Edge(w[:i], inst, 1, w[m.end() :])


_matchers: dict = {}  # id(presentation) -> (a weak reference to it, its _Matcher)


def _matcher(p: Presentation) -> _Matcher:
    """The matcher of ``p``, kept while ``p`` lives; an identity lookup, so
    a hit costs no hash or comparison of the presentation."""
    key = id(p)
    entry = _matchers.get(key)
    if entry is None or entry[0]() is not p:
        forget = lambda _, key=key: _matchers.pop(key, None)
        entry = _matchers[key] = (weakref.ref(p, forget), _Matcher(p))
    return entry[1]


def find_redexes(w: Word, p: Presentation) -> List[Edge]:
    """All rule applications to ``w``, as positive edges with source ``w``:
    per position, plain rules first then the shortest schema instantiation
    per schema; schema matches that duplicate a plain rule's rewrite at the
    same position are dropped."""
    return list(_matcher(p).redexes(w))


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


def _orientation_error(p: Presentation) -> Optional[str]:
    """None when every rule and schema orients lhs > rhs under shortlex,
    otherwise why termination is not guaranteed."""
    if p.ordering is None:
        return "presentation has no ordering; termination not guaranteed"
    for r in p.rules:
        if compare_shortlex(r.lhs, r.rhs, p.ordering) <= 0:
            return f"rule {r.name} is not oriented; termination not guaranteed"
    for s in p.schemas:
        if not _schema_oriented(s, p.ordering):
            return f"schema {s.name} is not oriented; termination not guaranteed"
    return None


def check_orientation(p: Presentation) -> _Matcher:
    """Raise unless every rule and schema orients lhs > rhs under shortlex;
    otherwise return the matcher of ``p``, which memoizes the verdict
    (presentations are immutable)."""
    m = _matcher(p)
    if m.unoriented is not None:
        raise OrientationError(m.unoriented)
    return m


def _leftmost_steps(w: Word, s: str, m: _Matcher) -> Iterator[tuple]:
    """The leftmost-redex steps reducing ``s``, the mirror of ``w``, under
    the oriented matcher ``m``, each as ``(t, i, j, a, b, x)``: the rule or
    schema ``x`` rewrote ``[i:j]`` of the previous string (``s`` first),
    with the variable at ``[a:b]``, into ``t``.  The orientation check
    guarantees termination; ``STEP_CAP`` steps are a backstop, past which a
    further redex raises.

    After a rewrite at ``i`` that leaves the string unchanged before
    ``c`` (``c = i``, or the variable's end for a schema that keeps its
    prefix), a redex that is new must reach ``c``; every other redex
    already existed, so it starts at ``i`` or later.  So no plain redex starts
    before ``c - max|lhs| + 1``, and no schema redex before the start of
    its range run up to ``c - |lhs_suffix| + 1``, less ``|lhs_prefix|``.
    Each range keeps a span ``[r, e)`` of range characters, with
    ``r = 0`` or a character outside the range at ``r - 1``, across steps:
    a rewrite at ``c >= r`` only cuts ``e`` to ``c``, so the run starts
    come from short scans, not from a copy of the prefix.

    After a schema rewrite at ``p`` with no schema redex possible before
    ``p``, the leftmost redex is a plain one in ``[c - max|lhs| + 1, p]``
    (a plain redex at ``p`` wins over a schema), or else a schema redex at
    ``p`` (see ``_resume``), or else lies after ``p``.  Every other step,
    a schema redex that does not start at ``p`` again, and a variable
    shorter than ``_RESUME_MIN`` fall back to the full search of
    ``leftmost``; ``_front`` starts the frontiers from the schema redex it
    finds.  So each step is the leftmost-start, first-declared,
    shortest-variable redex that a search from 0 would find.
    """
    found = m.leftmost(s)
    if found is None:
        return
    leftmost, maxlhs, runs, lastout = m.leftmost, m.maxlhs, m.runs, m.lastout
    spans = [[0, 0] for _ in lastout]  # per range: [r, e)
    front = None  # the frontiers of a schema redex's start, once resumed from
    for _ in range(STEP_CAP):
        i, j, a, b, (k, x, rpre, rsuf, keep) = found
        d = j - len(s)  # where the tail s[j:] starts after the rewrite, less the new length
        s = s[:i] + rpre + s[a:b] + rsuf + s[j:]
        d += len(s)
        yield s, i, j, a, b, x
        c = b if keep else i
        for span in spans:
            if c < span[0]:
                span[0] = span[1] = 0
            elif c < span[1]:
                span[1] = c
        schema_from = i
        for lp, ls, r in runs:
            span, to = spans[r], c - ls + 1
            if to > span[1]:
                out = lastout[r].match(s, span[1], to)
                if out is not None:
                    span[0] = out.end()
                span[1] = to
            elif to < span[0]:
                out = lastout[r].match(s, 0, to) if to > 0 else None
                span[0], span[1] = 0 if out is None else out.end(), max(0, to)
            if span[0] - lp < schema_from:
                schema_from = max(0, span[0] - lp)
        found = None
        if keep is not None and schema_from == i and b - a >= _RESUME_MIN:
            lo = c - maxlhs + 1
            if lo <= i:
                found = m._plain(s, max(0, lo), i + 1)
            if found is None:
                if front is None:  # the full search found this redex
                    front = m._front(k, b)
                found = m._resume(s, i, c, j, d, front)
                if found is None:
                    found, front = leftmost(s, i + 1, i + 1), None
        else:
            found, front = leftmost(s, max(0, min(i, c - maxlhs + 1)), schema_from), None
        if found is None:
            return
    raise RewriteError(f"step cap exceeded while reducing {word_str(w)}")


def _spliced(w: Word, steps: Iterable[tuple]) -> Iterator[Word]:
    """The word after each step, spliced from ``w``."""
    for _, i, j, a, b, x in steps:
        rhs = x.rhs if isinstance(x, Rule) else x.rhs_prefix + w[a:b] + x.rhs_suffix
        w = w[:i] + rhs + w[j:]
        yield w


def normalize(w: Word, p: Presentation) -> Word:
    """Reduce ``w`` to an irreducible word by the leftmost-redex strategy.

    ``w`` is cached with the result, and so is every word met on the way,
    keyed by its mirror string; the reduction stops at the first word
    already cached.  A word with an undeclared letter mirrors to a string
    that another word shares, so its words are keyed by their tuples.  Past
    ``NF_CACHE_CAP`` entries the oldest are evicted.
    """
    cache = p._nf_cache
    nf = cache.get(w)
    if nf is not None:
        return nf
    m = check_orientation(p)
    s = _mirror(m.chars, w)
    if "\0" in s:
        passed, words = [w], _spliced(w, _leftmost_steps(w, s, m))
    elif s in cache:  # an earlier reduction passed w
        passed, words, nf = [w], (), cache[s]
    else:
        passed, words = [w, s], map(_target, _leftmost_steps(w, s, m))
    for u in words:
        nf = cache.get(u)
        if nf is not None:
            break
        passed.append(u)
    if nf is None:  # no word on the way was cached: the last one is the normal form
        nf = passed[-1]
        if isinstance(nf, str):
            nf = w if nf is s else m.word(nf)
    for u in passed:
        cache[u] = nf
    order = p._nf_order
    order.extend(passed)
    while len(order) > NF_CACHE_CAP:
        del cache[order.popleft()]
    return nf


def reduction_path(w: Word, p: Presentation) -> Path:
    """The positive path witnessing ``w ->* normalize(w)`` under the strategy."""
    m = check_orientation(p)
    edges, source = [], w
    for _, i, j, a, b, x in _leftmost_steps(w, m.mirror(w), m):
        rule = x if isinstance(x, Rule) else instantiate_schema(x, source[a:b])
        edges.append(Edge(source[:i], rule, 1, source[j:]))
        source = source[:i] + rule.rhs + source[j:]
    return Path._trusted(w, tuple(edges))


def format_trace(path: Path) -> str:
    """One rewrite step per line: ``<word> --<rule>@<pos>--> <word>``."""
    lines = []
    for e in path.edges:
        lines.append(
            f"{word_str(e.source)} --{e.rule.name}@{len(e.left)}--> {word_str(e.target)}"
        )
    return "\n".join(lines)


def is_irreducible(w: Word, p: Presentation) -> bool:
    m = _matcher(p)
    return m.leftmost(m.mirror(w)) is None


def check_budget(sizes: Iterable[int], message: Callable[[int], str]) -> None:
    """``RwlabError(message(cap))`` once the running total of ``sizes``, summed
    lazily, passes ``ENUMERATION_CAP``; the message is formatted only then."""
    if any(total > ENUMERATION_CAP for total in itertools.accumulate(sizes)):
        raise RwlabError(message(ENUMERATION_CAP))


def check_enumeration_budget(k: int, max_len: int) -> None:
    """``RwlabError`` when ``k`` letters give more than ``ENUMERATION_CAP``
    words of length <= max_len."""
    check_budget(
        (k**n for n in range(max_len + 1 if k else 1)),  # no letters: the empty word alone
        lambda cap: f"{k} letters give more than {cap} words of length <= {max_len}",
    )


def enumerate_normal_forms(p: Presentation, max_len: int) -> List[Word]:
    """All irreducible words of length <= max_len, in ascending shortlex order;
    ``RwlabError``, before any word is tested, when there are more than
    ``ENUMERATION_CAP`` words of length <= max_len."""
    check_enumeration_budget(len(p.alphabet.letters), max_len)
    m = check_orientation(p)
    out = [w for w in words_over(p.alphabet.letters, max_len) if m.leftmost(m.mirror(w)) is None]
    out.sort(key=lambda w: shortlex_key(w, p.ordering))
    return out
