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
import weakref
from typing import Callable, Iterable, Iterator, List, Optional

from .core import (
    EMPTY,
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


@functools.lru_cache(maxsize=64)
def _schema_part(letters: tuple, schemas: tuple) -> tuple:
    """The letter mirror and the schema matching data of a presentation:
    the same for every presentation that completion rebuilds from it."""
    chars = _Mirror((x, chr(0x41 + k)) for k, x in enumerate(letters))
    mirror = functools.partial(_mirror, chars)
    entries = []  # (declaration index, schema, rhs prefix, string, suffix, string)
    patterns = []
    runs = set()  # (|lhs prefix|, |lhs suffix|, range characters)
    for k, s in enumerate(schemas):
        rng = "".join(sorted(set(mirror(s.variable_range))))
        var = f"([{re.escape(rng)}]*?)" if rng else "()"
        patterns.append(
            re.compile(re.escape(mirror(s.lhs_prefix)) + var + re.escape(mirror(s.lhs_suffix)))
        )
        entries.append(
            (k, s, s.rhs_prefix, mirror(s.rhs_prefix), s.rhs_suffix, mirror(s.rhs_suffix))
        )
        runs.add((len(s.lhs_prefix), len(s.lhs_suffix), rng))
    pattern = re.compile("|".join(pat.pattern for pat in patterns)) if patterns else None
    return chars, tuple(entries), tuple(patterns), pattern, tuple(runs)


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
        self.chars, self.schemas, self.patterns, self.pattern, self.runs = _schema_part(
            p.alphabet.letters, p.schemas
        )
        # lhs string -> [(declaration index, rule, rhs, rhs string, (), "")]
        self.plain: dict = {}
        for k, r in enumerate(p.rules):
            if r.lhs:
                entry = (k, r, r.rhs, self.mirror(r.rhs), EMPTY, "")
                self.plain.setdefault(self.mirror(r.lhs), []).append(entry)
        self.lengths = sorted({len(lhs) for lhs in self.plain})
        self.maxlhs = max(self.lengths, default=0)

    def mirror(self, w: Word) -> str:
        return _mirror(self.chars, w)

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
        """Where the search may resume after a rewrite at ``i``, as
        ``(plain_from, schema_from)``: a new redex must reach position ``i``,
        and a new schema redex's variable must run over range letters back
        from ``i - |lhs_suffix|``."""
        schema_from = i
        for lp, ls, rng in self.runs:
            schema_from = min(schema_from, len(s[: max(0, i - ls)].rstrip(rng)) - lp)
        return max(0, i - self.maxlhs + 1), max(0, schema_from)

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


_matchers = weakref.WeakKeyDictionary()  # presentation -> its _Matcher


def _matcher(p: Presentation) -> _Matcher:
    m = _matchers.get(p)
    if m is None:
        m = _matchers[p] = _Matcher(p)
    return m


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


def _leftmost_steps(w: Word, p: Presentation) -> Iterator[tuple]:
    """The leftmost-redex steps reducing ``w`` to an irreducible word, as
    ``(target, i, j, rule or schema, variable)``: each step replaces
    ``[i:j]`` of the previous target (of ``w`` first).

    The word and its mirror are spliced in lockstep, and after a rewrite at
    ``i`` the search resumes where a new redex could start.  The orientation
    check guarantees termination; ``STEP_CAP`` steps are a backstop, past
    which a further redex raises.
    """
    m = check_orientation(p)
    u, s = w, m.mirror(w)
    found = m.leftmost(s)
    for _ in range(STEP_CAP):
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


def normalize(w: Word, p: Presentation) -> Word:
    """Reduce ``w`` to an irreducible word by the leftmost-redex strategy.

    Every word met on the way is cached with the result, and the reduction
    stops at the first word already cached.  Past ``NF_CACHE_CAP`` entries
    the oldest are evicted.
    """
    cache = p._nf_cache
    nf = cache.get(w)
    if nf is not None:
        return nf
    passed = [w]
    nf = w
    for step in _leftmost_steps(w, p):
        nf = step[0]
        hit = cache.get(nf)
        if hit is not None:
            nf = hit
            break
        passed.append(nf)
    for u in passed:
        cache[u] = nf
    order = p._nf_order
    order.extend(passed)
    while len(order) > NF_CACHE_CAP:
        del cache[order.popleft()]
    return nf


def reduction_path(w: Word, p: Presentation) -> Path:
    """The positive path witnessing ``w ->* normalize(w)`` under the strategy."""
    edges, source = [], w
    for target, i, j, x, v in _leftmost_steps(w, p):
        rule = x if isinstance(x, Rule) else instantiate_schema(x, v)
        edges.append(Edge(source[:i], rule, 1, source[j:]))
        source = target
    return Path(w, tuple(edges))


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
