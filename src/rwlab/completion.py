"""Critical peaks, bounded confluence checking, completion, word problem.

A peak between two rule applications inside one word is either an inclusion
(one lhs a factor of the other) or a left-overlap (a proper suffix of one
lhs equals a proper prefix of the other); disjoint configurations are not
peaks.  Peaks involving schemas are enumerated through bounded
instantiation of the variable, which realizes every peak family needed at
desk scale; normalization during resolution matches schemas unboundedly.

An unresolved peak is an analytic outcome, not an error: it is reported as
data and feeds completion as a candidate rule.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .core import (
    EMPTY,
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
from .rewrite import (
    _derived,
    _leftmost_steps,
    _matcher,
    check_budget,
    check_enumeration_budget,
    check_orientation,
    compare_shortlex,
    find_redexes,
    normalize,
    normalize_by_passes,
    reduction_path,
)
from .squier import Edge, Path, compose, invert


@dataclass(frozen=True)
class CriticalPeak:
    """An inclusion or left-overlap between two rule applications.

    Inclusion: ``lhs2 = gamma1 · lhs1 · gamma2`` (rule1 inside rule2).
    Overlap:   ``lhs1 · gamma1 = gamma2 · lhs2`` with the shared part proper.
    ``source`` is the common ancestor word, result1/result2 the two
    one-step descendants.
    """

    kind: str  # "inclusion" | "overlap"
    rule1: Rule
    rule2: Rule
    gamma1: Word
    gamma2: Word
    source: Word

    def __post_init__(self):
        if self.kind == "inclusion":
            ok = self.gamma1 + self.rule1.lhs + self.gamma2 == self.rule2.lhs == self.source
        elif self.kind == "overlap":
            ok = (
                self.rule1.lhs + self.gamma1 == self.gamma2 + self.rule2.lhs == self.source
                and 0 < len(self.gamma2) < len(self.rule1.lhs)
                and len(self.gamma1) > 0
            )
        else:
            ok = False
        if not ok:
            raise RwlabError(f"malformed {self.kind} peak at {word_str(self.source)}")

    @property
    def result1(self) -> Word:
        if self.kind == "inclusion":
            return self.gamma1 + self.rule1.rhs + self.gamma2
        return self.rule1.rhs + self.gamma1

    @property
    def result2(self) -> Word:
        if self.kind == "inclusion":
            return self.rule2.rhs
        return self.gamma2 + self.rule2.rhs

    def edge1(self) -> Edge:
        if self.kind == "inclusion":
            return Edge(self.gamma1, self.rule1, 1, self.gamma2)
        return Edge(EMPTY, self.rule1, 1, self.gamma1)

    def edge2(self) -> Edge:
        if self.kind == "inclusion":
            return Edge(EMPTY, self.rule2, 1, EMPTY)
        return Edge(self.gamma2, self.rule2, 1, EMPTY)

    def describe(self) -> str:
        return f"peak {word_str(self.source)} [{self.rule1.name},{self.rule2.name}]"


@dataclass(frozen=True)
class CriticalCircuit:
    """A resolved peak: positive paths from both results to a common word."""

    peak: CriticalPeak
    p1: Path
    p2: Path

    def __post_init__(self):
        if not (self.p1.is_positive and self.p2.is_positive):
            raise RwlabError("resolution paths must be positive")
        if self.p1.tau != self.p2.tau:
            raise RwlabError("resolution paths must end at a common word")

    def circuit(self) -> Path:
        """The closed path p1⁻¹ ∘ (peak) ∘ p2, based at the common endpoint."""
        peak = Path(self.peak.result1, (self.peak.edge1().inverse(), self.peak.edge2()))
        return compose(invert(self.p1), peak, self.p2)


@dataclass(frozen=True)
class UnresolvedPeak:
    peak: CriticalPeak
    nf1: Word
    nf2: Word

    @property
    def pair(self) -> tuple:
        return (self.nf1, self.nf2)


def _schema_instances(p: Presentation, schema_var_bound: int) -> List[Rule]:
    """The schema instances with |variable| <= bound, minus instances that
    repeat an earlier instance's rewrite."""
    instances = []
    seen = set()
    for s in p.schemas:
        for v in words_over(s.variable_range, schema_var_bound):
            inst = instantiate_schema(s, v)
            if (inst.lhs, inst.rhs) not in seen:
                seen.add((inst.lhs, inst.rhs))
                instances.append(inst)
    return instances


def _rule_universe(p: Presentation, schema_var_bound: int) -> List[Rule]:
    """Plain rules plus schema instances with |variable| <= bound, minus
    instances that duplicate a plain rule's rewrite."""
    rules = list(p.rules)
    seen = {(r.lhs, r.rhs) for r in rules}
    instances = _schema_instances(p, schema_var_bound)
    return rules + [r for r in instances if (r.lhs, r.rhs) not in seen]


def _check_peak_budget(peaks: int, schema_var_bound: int) -> None:
    check_budget([peaks], lambda cap: f"more than {cap} critical peaks at bound {schema_var_bound}")


def _configurations(rules: List[Rule], schema_var_bound: int) -> List[tuple]:
    """The peaks among ``rules`` as ``(i1, i2, 0, s)`` for an inclusion of
    ``lhs1`` at ``s`` in ``lhs2`` and ``(i1, i2, 1, ell)`` for an overlap of
    length ``ell``, in rule-pair order."""
    by_lhs: Dict[Word, List[int]] = {}
    by_prefix: Dict[Word, List[int]] = {}  # proper prefixes only
    for i, r in enumerate(rules):
        by_lhs.setdefault(r.lhs, []).append(i)
        for ell in range(1, len(r.lhs)):
            by_prefix.setdefault(r.lhs[:ell], []).append(i)

    found = []
    for i2, r2 in enumerate(rules):
        l2 = r2.lhs
        for s in range(len(l2) + 1):
            for e in range(s, len(l2) + 1):
                for i1 in by_lhs.get(l2[s:e], ()):
                    r1 = rules[i1]
                    # for identical lhs, keep one orientation
                    if r1 is not r2 and not (r1.lhs == l2 and r1.name > r2.name):
                        found.append((i1, i2, 0, s))
        _check_peak_budget(len(found), schema_var_bound)
    for i1, r1 in enumerate(rules):
        l1 = r1.lhs
        for ell in range(1, len(l1)):
            for i2 in by_prefix.get(l1[len(l1) - ell :], ()):
                found.append((i1, i2, 1, ell))
        _check_peak_budget(len(found), schema_var_bound)
    found.sort()  # rule-pair order
    return found


def _peak(r1: Rule, r2: Rule, overlap: int, k: int) -> CriticalPeak:
    """The inclusion of ``lhs1`` at ``k`` in ``lhs2``, or the overlap of
    length ``k`` of a suffix of ``lhs1`` with a prefix of ``lhs2``."""
    l1, l2 = r1.lhs, r2.lhs
    if overlap:
        return CriticalPeak("overlap", r1, r2, l2[k:], l1[: len(l1) - k], l1 + l2[k:])
    return CriticalPeak("inclusion", r1, r2, l2[:k], l2[k + len(l1) :], l2)


def _peak_key(peak: CriticalPeak, ordering: OrderingSpec) -> tuple:
    """The order of ``critical_peaks`` under an ordering: by source first."""
    return (
        shortlex_key(peak.source, ordering),
        peak.kind,
        peak.rule1.name,
        peak.rule2.name,
        len(peak.gamma1),
    )


def critical_peaks(
    p: Presentation, schema_var_bound: int = 0, *, _live: Optional[_LivePeaks] = None
) -> List[CriticalPeak]:
    """All inclusion and overlap peaks among plain rules and bounded schema
    instances, each geometric configuration once.  With an ordering they are
    sorted by source; without one they are in rule-pair order (rule1, then
    rule2, in universe order; inclusions by position, then overlaps by
    length), not sorted by source.

    Peaks come from two indexes of the left-hand sides, not from testing
    every rule pair: an inclusion is a factor of ``lhs2`` that is some
    ``lhs1`` (the empty factor once per position), an overlap a proper
    suffix of ``lhs1`` that is a proper prefix of some ``lhs2``.
    ``RwlabError`` before any schema is instantiated when the schemas have
    more than ``rewrite.ENUMERATION_CAP`` instances at the bound, and once
    more than ``rewrite.ENUMERATION_CAP`` peaks are found.

    ``_live`` is private to ``knuth_bendix``: the live peak index of one
    completion run (``_LivePeaks``), which the call brings up to ``p`` and
    which then lists the same peaks in the same order as a call without it.
    The index builds its universe and first peaks once, by the enumeration
    above, and afterwards looks only at the rules that changed: an added
    lhs's factors among the left-hand sides, the left-hand sides that
    contain it, its proper suffixes among the proper prefixes and its
    proper prefixes among the proper suffixes.  Ties of the sort key fall to
    universe order, as the stable sort over rule-pair order has them.  The
    call without ``_live`` builds neither the suffix index nor anything else
    that only the live index needs.
    """
    check_budget(  # the instances of each schema, by |variable|, none generated
        (
            len(s.variable_range) ** n
            for s in p.schemas
            for n in range(schema_var_bound + 1 if s.variable_range else 1)
        ),
        lambda cap: f"more than {cap} schema instances at bound {schema_var_bound}",
    )
    if _live is not None:
        return _live.update(p)
    rules = _rule_universe(p, schema_var_bound)
    found = _configurations(rules, schema_var_bound)
    peaks = [_peak(rules[i1], rules[i2], overlap, k) for i1, i2, overlap, k in found]
    ordering = p.ordering
    if ordering is not None:
        peaks.sort(key=lambda k: _peak_key(k, ordering))
    return peaks


def resolve_peak(peak: CriticalPeak, p: Presentation):
    """Reduce both descendants; a common irreducible yields a circuit,
    otherwise the distinct pair is reported as data (a completion candidate).

    The two reductions are ``reduction_path``s, so a descendant whose
    reduction joins a word that an earlier peak's reduction reached on ``p``
    takes the rest of its path from ``p``'s path cache.  Each path keeps its
    steps and its normal form, so the comparison and the ``CriticalCircuit``
    checks build no edge."""
    p1, p2 = reduction_path(peak.result1, p), reduction_path(peak.result2, p)
    if p1.tau != p2.tau:
        return UnresolvedPeak(peak, p1.tau, p2.tau)
    return CriticalCircuit(peak, p1, p2)


@dataclass
class ConfluenceReport:
    presentation: Presentation
    schema_var_bound: int
    resolutions: list = field(default_factory=list)  # (peak, CriticalCircuit|UnresolvedPeak)

    @property
    def unresolved(self) -> List[UnresolvedPeak]:
        return [r for _, r in self.resolutions if isinstance(r, UnresolvedPeak)]

    @property
    def confluent(self) -> bool:
        return not self.unresolved

    def lines(self) -> List[str]:
        return [resolution_line(res) for _, res in self.resolutions]


def resolution_line(res) -> str:
    """``<peak> -> resolved``, or ``<peak> -> UNRESOLVED(<nf1>,<nf2>)``."""
    if isinstance(res, UnresolvedPeak):
        return f"{res.peak.describe()} -> UNRESOLVED({word_str(res.nf1)},{word_str(res.nf2)})"
    return f"{res.peak.describe()} -> resolved"


def resolve_peaks(p: Presentation, schema_var_bound: int = 0) -> Iterator[tuple]:
    """``(peak, resolution)`` for every critical peak at the bound, resolved
    one at a time.

    The peaks share ``p``'s path cache: on Qbar at bound 3, 9 677 of the
    31 714 steps of the 3 138 resolutions are searched, and the rest are
    served from cells that earlier peaks stored.  No edge is built."""
    check_orientation(p)
    for peak in critical_peaks(p, schema_var_bound):
        yield peak, resolve_peak(peak, p)


def is_confluent_bounded(p: Presentation, schema_var_bound: int = 0) -> ConfluenceReport:
    """Resolve every critical peak at the bound and report the outcomes."""
    return ConfluenceReport(p, schema_var_bound, list(resolve_peaks(p, schema_var_bound)))


# ---------------------------------------------------------------------------
# Normal forms on a complete ambient
# ---------------------------------------------------------------------------


def is_complete(p: Presentation) -> bool:
    """Whether ``p`` is known complete: it has no schemas, it is oriented,
    and ``resolve_peaks(p, 0)`` resolves every critical peak, so that it
    terminates and is locally confluent, hence confluent (Newman).  A
    peak budget exceeded (``RwlabError``) leaves it not known complete.
    The verdict stops at the first unresolved peak, and is kept in
    ``p.__dict__`` as the orientation verdict is (presentations are immutable)."""
    verdict = p.__dict__.get("_complete")
    if verdict is None:
        verdict = p.__dict__["_complete"] = _complete(p)
    return verdict


def _complete(p: Presentation) -> bool:
    if p.schemas or _matcher(p).unoriented is not None:
        return False
    try:
        return all(isinstance(res, CriticalCircuit) for _, res in resolve_peaks(p, 0))
    except RwlabError:
        return False


def normal_form(w: Word, p: Presentation) -> Word:
    """The normal form of ``w`` in ``p``: ``normalize_by_passes(w, p)`` when
    ``p`` is known complete, else ``normalize(w, p)``.

    The verdict is read from ``p`` once it is kept, and ``is_complete(p)``
    takes it before.  On a known complete ``p`` every word has one normal
    form, whatever order its redexes are rewritten in, so passes that
    rewrite every occurrence of each rule at once (``_Matcher.passes``) end
    at the very word the leftmost strategy reaches.  On any other ``p`` the
    word is reduced leftmost.
    """
    complete = p.__dict__.get("_complete")  # the kept verdict, if taken yet
    if complete is None:
        complete = is_complete(p)
    return normalize_by_passes(w, p) if complete else normalize(w, p)


# ---------------------------------------------------------------------------
# Knuth-Bendix completion
# ---------------------------------------------------------------------------


@dataclass
class CompletionReport:
    status: str  # "completed" | "bounded-out"
    added: list = field(default_factory=list)   # rules added, in discovery order
    removed: list = field(default_factory=list)  # rules dropped by interreduction

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class _Member:
    """A rule of the live universe: a plain rule, or a schema instance that
    no plain rule shadows.  ``rank`` is its place in universe order, plain
    rules in list order before the instances; ``entries`` are its peaks."""

    __slots__ = ("rule", "lhs", "text", "rank", "entries")

    def __init__(self, rule: Rule, text: str, rank: tuple):
        self.rule, self.lhs, self.text, self.rank = rule, rule.lhs, text, rank
        self.entries: Dict["_Entry", None] = {}


class _Entry:
    """A peak of the live index, between the members ``first`` and
    ``second`` as ``_peak`` places them, with its sort key."""

    __slots__ = ("key", "first", "second", "overlap", "k", "peak")

    def __init__(self, first: _Member, second: _Member, overlap: int, k: int, ordering):
        self.first, self.second, self.overlap, self.k = first, second, overlap, k
        self.peak = _peak(first.rule, second.rule, overlap, k)
        self.key = _peak_key(self.peak, ordering) + (first.rank, second.rank)
        first.entries[self] = second.entries[self] = None


_entry_key = operator.attrgetter("key")


class _LivePeaks:
    """The critical peaks of one ``knuth_bendix`` run, brought up to date
    at each search from the rules that changed since the last one, and the
    certificates of the peaks that searches resolved.

    A certificate is the mirror strings of every word on the peak's two
    reductions, newline-joined, and the names of the plain rules they used;
    ``users`` files the certified peaks under each of those names."""

    def __init__(self, p: Presentation, schema_var_bound: int):
        self.bound, self.ordering = schema_var_bound, p.ordering
        self.mirror = check_orientation(p).mirror  # the same for every rebuilt system
        self.plain: Dict[str, _Member] = {}  # by name, in list order
        self.shadowed: Dict[tuple, _Member] = {}  # (lhs, rhs) -> the instance a plain twin hides
        self.members: Dict[_Member, None] = {}  # the live universe
        self.by_lhs: Dict[Word, Dict[_Member, None]] = {}
        self.by_prefix: Dict[Word, Dict[_Member, None]] = {}  # proper prefixes
        self.by_suffix: Dict[Word, Dict[_Member, None]] = {}  # proper suffixes
        self.entries: List[_Entry] = []  # in critical_peaks order
        self.certified: Dict[_Entry, Tuple[str, set]] = {}  # entry -> its certificate
        self.users: Dict[str, Dict[_Entry, None]] = {}  # rule name -> certified entries using it
        self.cells: Dict[str, tuple] = {}  # see _reduce
        self.ranks = itertools.count()
        self.built = False

    def update(self, sys: Presentation) -> List[CriticalPeak]:
        """Bring the index up to ``sys`` and list its peaks."""
        if self.built:
            self._sync(sys)
        else:
            self._build(sys)
        _check_peak_budget(len(self.entries), self.bound)
        self.cells = {}  # their steps were taken under the last search's system
        return [e.peak for e in self.entries]

    def _member(self, rule: Rule, rank: tuple) -> _Member:
        return _Member(rule, self.mirror(rule.lhs), rank)

    def _index(self, m: _Member) -> None:
        lhs = m.lhs
        self.members[m] = None
        self.by_lhs.setdefault(lhs, {})[m] = None
        for ell in range(1, len(lhs)):
            self.by_prefix.setdefault(lhs[:ell], {})[m] = None
            self.by_suffix.setdefault(lhs[len(lhs) - ell :], {})[m] = None

    def _build(self, sys: Presentation) -> None:
        """The first universe, and its peaks by the two-index enumeration."""
        self.built = True
        plain = {(r.lhs, r.rhs) for r in sys.rules}
        universe = []
        for r in sys.rules:
            self.plain[r.name] = m = self._member(r, (0, next(self.ranks)))
            universe.append(m)
        for j, inst in enumerate(_schema_instances(sys, self.bound)):
            m = self._member(inst, (1, j))
            if (inst.lhs, inst.rhs) in plain:
                self.shadowed[inst.lhs, inst.rhs] = m
            else:
                universe.append(m)
        for m in universe:
            self._index(m)
        found = _configurations([m.rule for m in universe], self.bound)
        self.entries = [
            _Entry(universe[i1], universe[i2], overlap, k, self.ordering)
            for i1, i2, overlap, k in found
        ]
        self.entries.sort(key=_entry_key)

    def _add(self, m: _Member) -> List[_Entry]:
        """Index ``m`` and list the peaks it takes part in, in both roles."""
        self._index(m)
        lhs, text, name, n = m.lhs, m.text, m.rule.name, len(m.lhs)
        new = []
        for s in range(n + 1):  # m as rule2: its factors among the left-hand sides
            for e in range(s, n + 1):
                for o in self.by_lhs.get(lhs[s:e], ()):
                    if o is not m and not (o.lhs == lhs and o.rule.name > name):
                        new.append((o, m, 0, s))
        for o in self.members:  # m as rule1: the left-hand sides that contain it
            if o is not m and not (o.lhs == lhs and name > o.rule.name):
                s = o.text.find(text)
                while s >= 0:
                    new.append((m, o, 0, s))
                    s = o.text.find(text, s + 1)
        for ell in range(1, n):
            for o in self.by_prefix.get(lhs[n - ell :], ()):  # m as rule1, itself included
                new.append((m, o, 1, ell))
            for o in self.by_suffix.get(lhs[:ell], ()):  # m as rule2
                if o is not m:
                    new.append((o, m, 1, ell))
        return [_Entry(*c, self.ordering) for c in new]

    def _remove(self, m: _Member) -> None:
        lhs = m.lhs
        del self.members[m]
        del self.by_lhs[lhs][m]
        for ell in range(1, len(lhs)):
            del self.by_prefix[lhs[:ell]][m]
            del self.by_suffix[lhs[len(lhs) - ell :]][m]
        for e in m.entries:
            other = e.second if e.first is m else e.first
            if other is not m:  # a self-overlap is in m's entries alone
                del other.entries[e]
            self._void(e)
            e.peak = None  # gone from the list at the end of the sync
        m.entries.clear()

    def _sync(self, sys: Presentation) -> None:
        """Drop, rebuild and add peaks for the plain rules that changed, and
        void the certificates that a change can reach."""
        current = {r.name: r for r in sys.rules}
        gone = set()  # rewrites that plain rules gave up
        stale = {}  # peaks of rewritten rules
        dropped = False
        for name, m in list(self.plain.items()):
            r = current.get(name)
            if r is m.rule:
                continue
            for e in list(self.users.get(name, ())):  # a step it took may change
                self._void(e)
            gone.add((m.rule.lhs, m.rule.rhs))
            if r is None:
                del self.plain[name]
                self._remove(m)
                dropped = True
            else:
                m.rule = r
                stale.update(m.entries)
        new = []
        for r in sys.rules:
            if r.name not in self.plain:
                self.plain[r.name] = m = self._member(r, (0, next(self.ranks)))
                # a word on the way with the new lhs in it may step elsewhere
                for e in [e for e, (words, _) in self.certified.items() if m.text in words]:
                    self._void(e)
                new += self._add(m)
        # An instance rejoins once no plain rule carries its rewrite.  None
        # leaves: an added lhs is irreducible, so it is no instance's lhs,
        # and a rule with an instance's lhs and another rhs is dropped at
        # its first test, before any rewrite.
        for pair in gone.difference((r.lhs, r.rhs) for r in sys.rules):
            inst = self.shadowed.pop(pair, None)
            if inst is not None:
                new += self._add(inst)
        for e in stale:
            if e.peak is not None:
                e.peak = _peak(e.first.rule, e.second.rule, e.overlap, e.k)
                self._void(e)
        if dropped:
            self.entries = [e for e in self.entries if e.peak is not None]
        for e in new:
            bisect.insort(self.entries, e, key=_entry_key)

    def _void(self, e: _Entry) -> None:
        """Forget the certificate of ``e``, if it has one."""
        cert = self.certified.pop(e, None)
        if cert is not None:
            for name in cert[1]:
                del self.users[name][e]

    def resolve(self, peak: CriticalPeak, e: _Entry, sys: Presentation) -> Tuple[Word, Word]:
        """The normal forms of ``peak``'s two results under ``sys``; when
        they agree, its entry ``e`` keeps the reductions as its certificate."""
        m = check_orientation(sys)
        words, names = [], set()
        nf1, nf2 = (self._reduce(w, m, words, names) for w in (peak.result1, peak.result2))
        if nf1 == nf2:
            self.certified[e] = ("\n".join(words), names)
            for name in names:
                self.users.setdefault(name, {})[e] = None
        return m.word(nf1), m.word(nf2)

    def _reduce(self, w: Word, m, words: List[str], names: set) -> str:
        """The mirror of the normal form of ``w``; the mirror of each word on
        the way goes to ``words`` and the name of each plain rule used to
        ``names``.  A word that the search met before takes its steps from
        ``cells``: the next word and plain rule name of each word met, or
        None at a normal form."""
        cells = self.cells
        s = m.mirror(w)
        if s not in cells:
            prev = s
            for t, _, _, _, _, x in _leftmost_steps(w, s, m):
                cells[prev] = (t, None if isinstance(x, RuleSchema) else x.name)
                if t in cells:
                    break
                prev = t
            else:
                cells[prev] = None
        while True:
            words.append(s)
            cell = cells[s]
            if cell is None:
                return s
            s, name = cell
            if name is not None:
                names.add(name)


def knuth_bendix(
    p: Presentation,
    max_new_rules: int,
    max_lhs_len: int,
    schema_var_bound: int = 2,
) -> Tuple[Presentation, CompletionReport]:
    """Bounded Knuth-Bendix completion under the presentation's shortlex order.

    Unresolved peak pairs are oriented into new rules, smallest source
    first, with one interreduction pass after every addition (right sides
    are kept normalized; a rule whose lhs becomes reducible by another rule
    is dropped and its equation pushed on a stack of pending equations,
    which are oriented before the next peak is sought).  Stops when no
    unresolved peaks remain ("completed") or when a bound trips
    ("bounded-out").  Identical pairs are discarded; shortlex is total, so
    no pair is unorientable.

    Each rule is tested against the live system ``sys``, itself included: a
    rule never rewrites its own rhs, since every word met while reducing the
    rhs is shortlex-below the lhs and so cannot contain it.  A pass fixes a
    failing rule and tests the same index again (after its rhs changes, a
    schema instance or rule with the old rewrite reduces its lhs); dropping
    a rule or normalizing a rhs keeps earlier rules passing, so one pass
    makes the changes that restarting at the first rule would.

    Four mechanisms keep a search from redoing the work of the last one;
    none changes an outcome:

    - **One live system.**  Each dropped, rewritten or added rule derives
      the next system and its matcher from the last one
      (``rewrite._derived``).  The derived matcher checks the changed
      rule's orientation, which guards termination, and rejects an
      undeclared letter as it mirrors the rule's sides; the presentation
      checks nothing.  The first system is ``p``, validated on
      construction and oriented by the check above.  Dropping a rule can
      fail no check.  An added or rewritten rule is oriented by
      construction (``lhs`` is the shortlex-greater side, a new rhs a
      normal form of the old one), so no system holds a rule and its
      reverse; ``names`` skips every name of ``p`` and a rewritten rule
      keeps its own, so no name repeats.  ``tests/test_completion_live.py``
      rebuilds every derived system through ``Presentation``, which runs
      every check.  The matcher's table is copied, never written, so
      ``p`` and its matcher end the call as they began it.
    - **One live peak index** (``_LivePeaks``) for the whole call.  Each
      search still gets its list from ``critical_peaks``, which brings the
      index up to the current system: an added rule brings only the peaks
      it takes part in, a dropped rule takes its peaks away, a rewritten
      rule's peaks are rebuilt around the new rule with the same sort keys,
      and a schema instance leaves and rejoins the universe as its plain
      twin comes and goes.  The list equals the one from scratch.
    - **Candidate-only interreduction.**  The first pass tests every rule;
      each later pass follows one added rule ``u -> v`` and tests only the
      rules with ``u`` in their lhs or rhs, and a rule again after its rhs
      changed.  This is exact: ``u`` is irreducible under the system before
      it, reducibility depends only on the left-hand sides and the schemas,
      dropping a rule or rewriting a rhs adds no lhs, and a rule that shared
      a rewrite with a rule rewritten in the pass has that rule's rhs, so
      it contains ``u`` too.
    - **Resolution certificates.**  A peak a search resolved keeps the
      words of both leftmost reductions and the plain rules they used, and
      later searches skip it until a change can reach it: an added lhs that
      occurs in one of its words, a rule it used dropped or rewritten, or
      its own rules rewritten.  Otherwise every step keeps its leftmost
      redex (rules keep their relative order, an added rule comes last and
      its lhs occurs nowhere, the schemas are fixed), so both reductions
      still end at one irreducible word.  The search still walks the peaks
      in source order and stops at the first unresolved one, so it picks
      the peak a search from scratch picks.  Certificates live as long as
      the call, at most one per peak.
    """
    mirror = check_orientation(p).mirror
    report = CompletionReport("completed")
    texts = [f"{mirror(r.lhs)} {mirror(r.rhs)}" for r in p.rules]  # both sides of sys.rules[i]
    sys = p
    taken = {r.name for r in p.rules} | {s.name for s in p.schemas}
    names = (name for name in map("kb{}".format, itertools.count(1)) if name not in taken)
    pending: List[Tuple[Word, Word]] = []  # dropped equations, used as a stack
    live = _LivePeaks(p, schema_var_bound)
    added = None  # the mirror of the lhs added last; None before the first pass

    while True:
        dropped = []
        i, fixed = 0, None
        while i < len(sys.rules):
            r = sys.rules[i]
            if added is not None and r is not fixed and added not in texts[i]:
                i += 1  # neither side contains the added lhs: the rule still passes
                continue
            # The rule's own edge, or a schema instance carrying the very same
            # rewrite, does not count: it is the same rule, not a simplification.
            if any(
                e.left or e.rule.lhs != r.lhs or e.rule.rhs != r.rhs
                for e in find_redexes(r.lhs, sys)
            ):
                sys = _derived(sys, i)
                del texts[i]
                report.removed.append(r)
                dropped.append((r.lhs, r.rhs))
            else:
                rhs = normalize(r.rhs, sys)
                if rhs == r.rhs:
                    i += 1
                    continue
                fixed = Rule(r.name, r.lhs, rhs, r.origin)
                sys = _derived(sys, i, fixed)
                texts[i] = f"{mirror(r.lhs)} {mirror(rhs)}"
        pending.extend(reversed(dropped))

        while True:
            if pending:
                u, v = pending.pop()
            else:
                peaks = critical_peaks(sys, schema_var_bound, _live=live)
                for peak, entry in zip(peaks, live.entries):
                    if entry in live.certified:
                        continue  # resolved, and no change since reaches its reductions
                    u, v = live.resolve(peak, entry, sys)
                    if u != v:
                        break  # critical_peaks is already source-sorted
                else:
                    return sys, report
            u, v = normalize(u, sys), normalize(v, sys)
            c = compare_shortlex(u, v, p.ordering)
            if c:
                break
        lhs, rhs = (u, v) if c > 0 else (v, u)
        if len(lhs) > max_lhs_len or len(report.added) >= max_new_rules:
            report.status = "bounded-out"
            return sys, report
        rule = Rule(next(names), lhs, rhs)
        sys = _derived(sys, len(sys.rules), rule)
        added = mirror(lhs)
        texts.append(f"{added} {mirror(rhs)}")
        report.added.append(rule)


# ---------------------------------------------------------------------------
# Word problem and the independent equivalence oracle
# ---------------------------------------------------------------------------


def word_problem_equal(u: Word, v: Word, p_complete: Presentation) -> bool:
    """Decide u = v by comparing normal forms.

    The caller is responsible for having verified completeness of
    ``p_complete`` (e.g. via is_confluent_bounded); orientation is checked.
    """
    return normalize(u, p_complete) == normalize(v, p_complete)


def _replacement_table(pairs) -> List[Tuple[int, Dict[Word, List[Word]]]]:
    """src -> dsts in pair order, grouped by src length: one lookup per length.

    The step table of ``bfs_equivalence_oracle``; ``equivalence_classes``
    ranks its steps by arithmetic and uses no table."""
    by_len: Dict[int, Dict[Word, List[Word]]] = {}
    for src, dst in pairs:
        by_len.setdefault(len(src), {}).setdefault(src, []).append(dst)
    return sorted(by_len.items())


def _one_step_neighbors(w: Word, table, max_len: int) -> List[Word]:
    """Every word one replacement away from ``w`` whose length is at most
    ``max_len``; an empty src inserts its dst at every position."""
    out = []
    n = len(w)
    for length, dsts_of in table:
        for i in range(n - length + 1):
            for dst in dsts_of.get(w[i : i + length], ()):
                if n - length + len(dst) <= max_len:
                    out.append(w[:i] + dst + w[i + length :])
    return out


def bfs_equivalence_oracle(u: Word, v: Word, p: Presentation, max_len: int) -> bool:
    """Decide u ↔* v inside the length-bounded universe by a breadth-first
    search from both ends at once, under rule applications in both
    directions.

    The table holds every rule both ways round, and a step inside the bound
    stays inside it read backwards, so the one-step relation is symmetric:
    a word reached from both ends joins them.  Each round expands one whole
    level of the side whose frontier is smaller.  The answer is True as soon
    as a neighbour is in the other side's seen set, and False as soon as a
    frontier is empty: that side's component inside the bound is then
    closed, and the other word is not in it.

    Independent of normalization: no ordering, no strategy, no schemas
    beyond the presentation's plain rules.  ``ValidationError`` naming the
    first letter of ``u`` or ``v`` that ``p`` does not declare.
    """
    if len(u) > max_len or len(v) > max_len:
        raise RwlabError("oracle inputs must respect the length bound")
    if p.schemas:
        raise RwlabError("the oracle only handles plain-rule presentations")
    for x in u + v:
        if x not in p.alphabet:
            raise ValidationError(f"undeclared letter {x}")
    if u == v:
        return True
    forward = [(r.lhs, r.rhs) for r in p.rules]
    table = _replacement_table(forward + [(dst, src) for src, dst in forward])
    frontier, seen = [u], {u}
    other_frontier, other_seen = [v], {v}
    while frontier:
        level = []
        for w in frontier:
            for nxt in _one_step_neighbors(w, table, max_len):
                if nxt in other_seen:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    level.append(nxt)
        frontier = level
        if len(frontier) > len(other_frontier):
            frontier, seen, other_frontier, other_seen = other_frontier, other_seen, frontier, seen
    return False


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]  # path halving
        return i

    def union(self, first: int, first_step: int, second: int, second_step: int, count: int) -> None:
        """Join ``first + t * first_step`` with ``second + t * second_step``
        for every ``t < count``.  The smaller root becomes the parent, so
        each class is rooted at its least index; for Q at bound 8 that
        takes 1.7 M find steps where always linking the second root under
        the first took 2.8 M."""
        parent = self.parent
        for i, j in zip(
            range(first, first + count * first_step, first_step),
            range(second, second + count * second_step, second_step),
        ):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j


def equivalence_classes(p: Presentation, max_len: int):
    """Partition the whole length-bounded universe by ↔*.

    Equivalent to running the BFS oracle on every pair: within the bounded
    universe every backward step is some forward step read the other way, so
    the components of the one-step graph are exactly the oracle's relation.
    The steps are enumerated by rule and context, not by word: a word's rank
    is its length's offset plus its base-k value, so for a rule ``l -> r``
    and a context ``x · _ · y`` inside the bound both ends of the step
    ``x l y -> x r y`` are ranked by arithmetic: for fixed x the suffixes y
    sweep two runs of k^|y| consecutive ranks side by side, and for fixed y
    the prefixes x sweep two arithmetic progressions.  No word is built.
    Returns ``classof(word) -> representative index``; ``RwlabError``,
    before anything is allocated, when the universe has more than
    ``rewrite.ENUMERATION_CAP`` words.  ``classof`` raises
    ``ValidationError`` naming the first letter of its word that ``p`` does
    not declare.
    """
    if p.schemas:
        raise RwlabError("the oracle only handles plain-rule presentations")
    letters = list(p.alphabet.letters)
    k = len(letters)
    check_enumeration_budget(k, max_len)
    idx = {letter: i for i, letter in enumerate(letters)}
    top = max_len if k else 0  # no letters: the empty word alone
    offsets = [0]
    for n in range(top + 1):
        offsets.append(offsets[-1] + k**n)
    uf = _UnionFind(offsets[-1])

    def value(w: Word) -> int:
        val = 0
        for x in w:
            val = val * k + idx[x]
        return val

    for r in p.rules:
        lhs_len, rhs_len = len(r.lhs), len(r.rhs)
        lhs_val, rhs_val = value(r.lhs), value(r.rhs)
        for context in range(top - max(lhs_len, rhs_len) + 1):
            # one letter: every split of the context gives the same word
            for suffix in range(context + 1) if k > 1 else (0,):
                block, prefixes = k**suffix, k ** (context - suffix)
                left = offsets[context + lhs_len] + lhs_val * block
                right = offsets[context + rhs_len] + rhs_val * block
                left_step, right_step = k**lhs_len * block, k**rhs_len * block
                # each union call sweeps the longer side of the prefix-suffix grid
                if block >= prefixes:  # per prefix, the suffixes in a run
                    for x in range(prefixes):
                        uf.union(left + x * left_step, 1, right + x * right_step, 1, block)
                else:  # per suffix, the prefixes at a stride
                    for t in range(block):
                        uf.union(left + t, left_step, right + t, right_step, prefixes)

    def classof(w: Word) -> int:
        try:
            return uf.find(offsets[len(w)] + value(w))
        except KeyError as exc:
            raise ValidationError(f"undeclared letter {exc.args[0]}") from None

    return classof
