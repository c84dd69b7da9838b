"""Rule applications as edges, single-step rewriting, normalization, shortlex order.

Reduction strategy: leftmost redex, plain rules before schema matches at a
position, ties broken by declaration order.  On a confluent system the
normal form is strategy-independent; the fixed strategy just makes traces
reproducible.  Whole-word passes, which reach the same normal form only on
a complete system, are a function of their own, ``normalize_by_passes``,
that ``completion.normal_form`` alone calls.  Termination is enforced by
checking that every rule and schema orients lhs > rhs under the
presentation's shortlex ordering; a hard step cap is a backstop.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from typing import Callable, Iterable, Iterator, List, Optional

from .core import (
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    ValidationError,
    Word,
    instantiate_schema,
    shortlex_key,
    word_str,
    words_over,
)
from .squier import Edge, Path

STEP_CAP = 10**6
NF_CACHE_CAP = 2**17  # entries per cache of a presentation; one normalize stores at most 2·|w| + 2
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


def _mirror(chars: dict, w: Word) -> str:
    """The string of ``w``, one character per letter; ``ValidationError``
    naming the first letter of ``w`` that ``chars`` does not declare."""
    try:
        return "".join(map(chars.__getitem__, w))
    except KeyError as exc:
        raise ValidationError(f"undeclared letter {exc.args[0]}") from None


_declared = operator.itemgetter(0)  # the declaration index of a table entry
_target = operator.itemgetter(0)  # the string a step leads to
_UNKNOWN = 0  # a frontier that knows nothing: ``_resume`` lifts it to the variable start
_FAR = sys.maxsize  # a position past the end of every string
_RESUME_MIN = 16  # a shorter variable is found again faster by the full search
# positions the table scan covers per plain lhs before a matcher compiles its
# lhs: compiling costs 6-10 µs per lhs and the scan 0.4-0.56 µs per position
# (Qbar, M4, N4; CPython 3.11), so 16 is the break-even
_COMPILE_AFTER = 16


def _range_class(rng: str) -> str:
    """A character class of the characters outside ``rng``."""
    return f"[^{re.escape(rng)}]" if rng else "(?s:.)"


@functools.lru_cache(maxsize=64)
def _schema_part(letters: tuple, schemas: tuple) -> tuple:
    """The letter mirror and the schema matching data of a presentation:
    the same for every presentation that completion rebuilds from it."""
    chars = {x: chr(0x41 + k) for k, x in enumerate(letters)}
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


# the matcher attributes _schema_part builds, which derived matchers share
_SCHEMA_PART = ("chars", "letters", "schemas", "alts", "patterns", "pattern", "runs", "lastout")


class _Matcher:
    """The leftmost-redex search of one presentation, over a string that
    mirrors the word one character per letter.

    Plain rules sit in a table keyed by lhs, which the search scans
    position by position until it has covered ``_COMPILE_AFTER`` positions
    per lhs; then the lhs are compiled into one ``re`` alternation, ranked
    by their first rules, and searched in one call (``_plain``).  Schemas
    share one compiled alternation ``lhs_prefix([range]*?)lhs_suffix``: the
    lazy repeat gives each schema's shortest instantiation, and the order
    of the alternatives gives declaration order.  Completion, which changes
    one rule at a time and keeps the schemas, derives each system's matcher
    from the last one's (``_derived``): the schema part is shared, and the
    derived matcher scans its table from a count of its own, so only the
    matchers that search much compile their lhs.
    """

    # set one by one by __init__ and _derived: a matcher has no __dict__
    __slots__ = _SCHEMA_PART + (
        "unoriented", "top", "plain", "lengths", "maxlhs", "replacements", "scanned", "search"
    )

    def __init__(self, p: Presentation):
        self.unoriented = _orientation_error(p)  # None, or why reducing raises
        self.top = len(p.rules) - 1  # the highest declaration rank
        for name, value in zip(_SCHEMA_PART, _schema_part(p.alphabet.letters, p.schemas)):
            setattr(self, name, value)
        self.plain: dict = {}  # lhs string -> [entry], by rank
        for k, r in enumerate(p.rules):
            if r.lhs:
                self.plain.setdefault(self.mirror(r.lhs), []).append(self._entry(k, r))
        self._index()

    def _index(self) -> None:
        """Sets the lhs lengths, the longest, and each lhs's first rhs
        (passes); the table is not compiled, and no position scanned."""
        plain = self.plain
        self.lengths = sorted({len(lhs) for lhs in plain})
        self.maxlhs = max(self.lengths, default=0)
        self.replacements = [(lhs, entries[0][2]) for lhs, entries in plain.items()]
        self.scanned, self.search = 0, None

    def ranked(self) -> List[str]:
        """The plain lhs by the rank of their first rules: at a position, the
        first of them that matches is the first declared rule."""
        plain = self.plain
        return sorted(plain, key=lambda lhs: plain[lhs][0][0])

    def _compile(self) -> None:
        """Compiles the ranked lhs into the one alternation ``_plain``
        searches; with no plain rule, into a pattern that never matches."""
        self.search = re.compile("|".join(map(re.escape, self.ranked())) or "(?!)").search

    def _entry(self, rank: int, r: Rule) -> tuple:
        """The table entry of ``r``: its declaration rank, the rule, its rhs
        string, and the schema fields ``leftmost`` reads, empty."""
        return rank, r, self.mirror(r.rhs), "", None

    def _derived(
        self, old: Optional[Rule], new: Optional[Rule], ordering: OrderingSpec
    ) -> "_Matcher":
        """The matcher of this one's presentation with ``old`` dropped
        (``new`` None), ``new`` in ``old``'s place with ``old``'s lhs, or
        ``new`` appended (``old`` None), as ``Presentation._derived`` makes it.

        This matcher must be oriented.  The plain table is copied and only
        the list of the changed lhs is built anew, so this one's table is
        never written.  An entry keeps its declaration rank and a rule put
        in ``old``'s place takes its rank; an appended rule ranks above all
        others, so ties still break in list order.  The schema part is
        shared.  ``new`` is the one rule checked: its orientation, which
        guards termination, becomes ``unoriented``, and mirroring its sides
        raises ``ValidationError`` on an undeclared letter.
        """
        m = object.__new__(_Matcher)
        for name in _SCHEMA_PART:
            setattr(m, name, getattr(self, name))
        plain = m.plain = dict(self.plain)
        m.top = self.top
        if old is None:
            key = self.mirror(new.lhs)
            entries = plain.get(key, [])
            at = cut = len(entries)
            rank = m.top = self.top + 1
        else:
            key = self.mirror(old.lhs)
            entries = plain[key]
            at = next(n for n, e in enumerate(entries) if e[1] is old)
            cut, rank = at + 1, entries[at][0]
        put = [] if new is None else [self._entry(rank, new)]
        entries = entries[:at] + put + entries[cut:]
        if entries:
            plain[key] = entries
        else:
            del plain[key]
        m._index()
        m.unoriented = None if new is None else _rule_orientation_error(new, ordering)
        return m

    def mirror(self, w: Word) -> str:
        return _mirror(self.chars, w)

    def word(self, s: str) -> Word:
        """The word a mirror string stands for."""
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
        gives it.

        A compiled matcher searches its ranked alternation over
        ``s[lo:hi + maxlhs - 1]``, where every lhs starting before ``hi``
        ends; the search gives the leftmost start and there the first
        ranked lhs.  Otherwise the table is probed at each position for
        each lhs length, and the positions probed are counted: the table is
        compiled once they reach ``_COMPILE_AFTER`` per lhs."""
        search = self.search
        if search is not None:
            m = search(s, lo, hi + self.maxlhs - 1)
            if m is None or m.start() >= hi:
                return None
            i, j = m.span()
            return i, j, j, j, self.plain[m.group()][0]
        n, plain, lengths = len(s), self.plain, self.lengths
        found, end = None, hi
        for i in range(lo, hi):
            best = j = None
            for length in lengths:
                if i + length > n:
                    break
                hit = plain.get(s[i : i + length])
                if hit is not None and (best is None or hit[0][0] < best[0]):
                    best, j = hit[0], i + length
            if best is not None:
                found, end = (i, j, j, j, best), i + 1
                break
        if end > lo:
            self.scanned += end - lo
            if self.scanned >= _COMPILE_AFTER * len(plain):
                self._compile()
        return found

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

    def passes(self, s: str) -> Iterator[str]:
        """The string after each whole-word pass over ``s`` that changes it.

        A pass takes the plain rules in the order their lhs were first
        declared and rewrites every occurrence of each lhs at once by
        ``str.replace``; the occurrences one replace rewrites do not
        overlap, so a pass is a rewriting sequence.  Every step shrinks the
        string under the oriented shortlex order, so the passes end, at an
        irreducible string; ``STEP_CAP`` passes are a backstop.  Schemas
        are not matched and the strategy is not leftmost, so the last
        string is the leftmost normal form only on a complete system
        without schemas."""
        rules = self.replacements
        start = s
        for _ in range(STEP_CAP):
            t = s
            for lhs, rhs in rules:
                t = t.replace(lhs, rhs)
            if t == s:
                return
            yield t
            s = t
        raise RewriteError(f"step cap exceeded while reducing {word_str(self.word(start))}")

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


def _matcher(p: Presentation) -> _Matcher:
    """The matcher of ``p``, kept in ``p.__dict__`` beside its normal-form
    cache, so it lives and dies with ``p``; a hit costs no hash or
    comparison of the presentation."""
    m = p.__dict__.get("_matcher")
    if m is None:
        m = p.__dict__["_matcher"] = _Matcher(p)
    return m


def _derived(p: Presentation, i: int, new: Optional[Rule] = None) -> Presentation:
    """``p._derived(i, new)``, with its matcher derived from the matcher of
    ``p``, which must be oriented.  The presentation checks nothing; the
    matcher checks ``new``'s orientation and letters."""
    q = p._derived(i, new)
    old = p.rules[i] if i < len(p.rules) else None
    q.__dict__["_matcher"] = _matcher(p)._derived(old, new, p.ordering)
    return q


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


def _rule_orientation_error(r: Rule, ordering: OrderingSpec) -> Optional[str]:
    if compare_shortlex(r.lhs, r.rhs, ordering) <= 0:
        return f"rule {r.name} is not oriented; termination not guaranteed"
    return None


def _orientation_error(p: Presentation) -> Optional[str]:
    """None when every rule and schema orients lhs > rhs under shortlex,
    otherwise why termination is not guaranteed."""
    if p.ordering is None:
        return "presentation has no ordering; termination not guaranteed"
    for r in p.rules:
        error = _rule_orientation_error(r, p.ordering)
        if error is not None:
            return error
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


def normalize(w: Word, p: Presentation) -> Word:
    """Reduce ``w`` to an irreducible word by the leftmost-redex strategy.

    ``w`` is cached with the result, and so is its mirror string; the
    reduction looks up every word it meets, keyed by its mirror, and stops
    at the first one already cached.  A reduction of at most ``2·|w|`` steps
    caches every word it passes: other calls' inputs meet them, as a Cayley
    ball's successor ``u·g`` meets ``u``'s, and ``u·h`` takes up to about
    ``2·|u|`` steps, as h crosses ``u`` and the letters it crossed are sorted.
    A longer one caches only its ends, ``w``, its mirror and the normal form's
    string: the Θ(|w|²) swap steps of Qbar's h·w to h·bʲ·aᵏ would cost Θ(|w|³)
    letters together.  Steps never lengthen a word, so a call stores at most
    ``(2·|w| + 2)·|w|`` letters.  Past ``NF_CACHE_CAP`` entries the oldest
    are evicted.  ``ValidationError`` for a word with an undeclared letter,
    which leaves the cache as it was.
    """
    cache = p._nf_cache
    nf = cache.get(w)
    if nf is not None:
        return nf
    m = check_orientation(p)
    s = _mirror(m.chars, w)
    nf = cache.get(s)
    if nf is not None:  # an earlier reduction passed w; an irreducible w shares nf's tuple
        _store(p, [nf if nf == w else w], nf)
        return nf
    passed, last = [w, s], s  # the keys to store; the last word reached
    cap = 2 * len(w) + 2  # the most keys a reduction keeps
    for last in map(_target, _leftmost_steps(w, s, m)):
        nf = cache.get(last)
        if nf is not None:
            break
        if len(passed) < cap:
            passed.append(last)
        elif cap:  # a long reduction: keep its ends alone
            del passed[2:]
            cap = 0
    if nf is None:  # no word on the way was cached: the last one is the normal form
        nf = w if last is s else m.word(last)
        if not cap and last is not s:
            passed.append(last)
    _store(p, passed, nf)
    return nf


def normalize_by_passes(w: Word, p: Presentation) -> Word:
    """Reduce ``w`` by whole-word passes (``_Matcher.passes``), which reach
    ``normalize``'s normal form only on a complete ``p``.  Only their ends
    are met, so only they are kept, keyed by their mirrors alone: ``w``'s,
    and the last string's unless an earlier call reached it.  Eviction and
    ``ValidationError`` as for ``normalize``."""
    m = check_orientation(p)
    cache = p._nf_cache
    nf = cache.get(s := _mirror(m.chars, w))
    if nf is not None:
        return nf
    last = s
    for last in m.passes(s):
        pass
    nf = w if last is s else cache.get(last)  # an irreducible w, or a form reached before
    keys = [s] if nf is not None else [s, last]
    if nf is None:
        nf = m.word(last)
    _store(p, keys, nf)
    return nf


def _store(p: Presentation, keys: List, nf: Word) -> None:
    """Cache ``nf`` under each of ``keys``, none of them cached yet, and
    evict the oldest entries past ``NF_CACHE_CAP``.  ``normalize`` passes
    its input, its mirror and the words a short reduction passed, or the
    normal form's string for a long one; ``normalize_by_passes`` stores no
    tuple."""
    cache = p._nf_cache
    for u in keys:
        cache[u] = nf
    order = p._nf_order
    order.extend(keys)
    while len(order) > NF_CACHE_CAP:
        del cache[order.popleft()]


def reduction_path(w: Word, p: Presentation) -> Path:
    """The positive path witnessing ``w ->* normalize(w)`` under the strategy.

    Every word a reduction reaches by a step is cached with a cell
    ``(step, next_cell)``: its next step ``(i, j, rule, 1)`` rewrites
    ``[i:j]`` by ``rule`` into the word whose cell is ``next_cell``; a
    normal form's cell is ``(nf,)``, and so every chain ends in its normal
    form.  Keys are mirror strings, as for ``normalize``.  The caller's
    ``w`` is looked up but not stored.  The search records each step's
    positions and rule and stops at the first cached word, whose cell
    continues the chain with no redex search; each step takes the leftmost
    redex of the current word alone, so the cells give the steps the search
    would find.  The schema instances that cells use are shared, one per
    schema and variable.  Past ``NF_CACHE_CAP`` entries, words and instances
    together, the oldest are evicted.

    The path keeps ``w``, the chain's steps, the very tuples of its cells,
    and its normal form, is positive without a walk of its steps, and
    builds no edge.  A chain longer than ``STEP_CAP`` steps raises here,
    served or not.  ``ValidationError`` for a word with an undeclared
    letter, which leaves the caches as they were.
    """
    m = check_orientation(p)
    cache, rules, order = p._path_cache, p._path_rules, p._path_order
    s = _mirror(m.chars, w)
    head = cache.get(s)
    if head is None:
        steps, stored = [], []  # steps: (key of the word stepped from, i, j, rule); w's key is None
        source, prev, key = w, s, None
        for t, i, j, a, b, x in _leftmost_steps(w, s, m):
            if isinstance(x, Rule):
                rule = x
            else:
                shared = x.name, prev[a:b]
                rule = rules.get(shared)
                if rule is None:
                    rule = instantiate_schema(x, source[a:b])
                    if key is not None:
                        rules[shared] = rule
                        order.append(shared)
            steps.append((key, i, j, rule))
            source = source[:i] + rule.rhs + source[j:]
            key = prev = t
            head = cache.get(key)
            if head is not None:
                break
        else:
            head = (source,)  # the last word reached is the normal form
            if key is not None:
                stored.append((key, head))
        for key, i, j, rule in reversed(steps):
            head = ((i, j, rule, 1), head)
            if key is not None:
                stored.append((key, head))
        # first reached first: eviction then takes a reduction's first words,
        # to which its later cells do not link
        stored.reverse()
        cache.update(stored)
        order.extend(key for key, _ in stored)
        # word keys are strings and instance keys tuples, so a key in the
        # order stands for the one entry under it in one of the dicts
        while len(order) > NF_CACHE_CAP:
            key = order.popleft()
            if cache.pop(key, None) is None:
                del rules[key]
    taken = []
    while len(head) > 1:
        step, head = head
        taken.append(step)
    if len(taken) > STEP_CAP:
        raise RewriteError(f"step cap exceeded while reducing {word_str(w)}")
    return Path._of_steps(w, tuple(taken), head[0], positive=True)


def trace_lines(path: Path) -> Iterator[str]:
    """The lines of ``format_trace(path)``, one at a time: each word is
    spliced by the path's walk and formatted once, and no edge is built."""
    words = itertools.pairwise(map(word_str, path._walk()))
    for (i, _, rule, _), (before, after) in zip(path.steps, words):
        yield f"{before} --{rule.name}@{i}--> {after}"


def format_trace(path: Path) -> str:
    """One rewrite step per line: ``<word> --<rule>@<pos>--> <word>``."""
    return "\n".join(trace_lines(path))


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
    ``ENUMERATION_CAP`` words of length <= max_len, or more than
    ``ENUMERATION_CAP`` letters in those words together."""
    k = len(p.alphabet.letters)
    check_enumeration_budget(k, max_len)
    check_budget(  # one letter alone gives (max_len + 1) words, but max_len² / 2 letters
        (n * k**n for n in range(max_len + 1 if k else 1)),
        lambda cap: f"{k} letters give more than {cap} letters in the words of length <= {max_len}",
    )
    m = check_orientation(p)
    out = [w for w in words_over(p.alphabet.letters, max_len) if m.leftmost(m.mirror(w)) is None]
    out.sort(key=lambda w: shortlex_key(w, p.ordering))
    return out
