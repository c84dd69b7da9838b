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

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .core import (
    EMPTY,
    Presentation,
    Rule,
    RwlabError,
    Word,
    instantiate_schema,
    shortlex_key,
    word_str,
    words_over,
)
from .rewrite import (
    check_budget,
    check_enumeration_budget,
    check_orientation,
    compare_shortlex,
    find_redexes,
    normalize,
    reduction_path,
)
from .squier import Edge, Path


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
        back = tuple(e.inverse() for e in reversed(self.p1.edges))
        peak = (self.peak.edge1().inverse(), self.peak.edge2())
        return Path(self.p1.tau, back + peak + self.p2.edges)


@dataclass(frozen=True)
class UnresolvedPeak:
    peak: CriticalPeak
    nf1: Word
    nf2: Word

    @property
    def pair(self) -> tuple:
        return (self.nf1, self.nf2)


def _rule_universe(p: Presentation, schema_var_bound: int) -> List[Rule]:
    """Plain rules plus schema instances with |variable| <= bound, minus
    instances that duplicate a plain rule's rewrite."""
    rules = list(p.rules)
    seen = {(r.lhs, r.rhs) for r in rules}
    for s in p.schemas:
        for v in words_over(s.variable_range, schema_var_bound):
            inst = instantiate_schema(s, v)
            if (inst.lhs, inst.rhs) not in seen:
                seen.add((inst.lhs, inst.rhs))
                rules.append(inst)
    return rules


def critical_peaks(p: Presentation, schema_var_bound: int = 0) -> List[CriticalPeak]:
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
    """
    check_budget(  # the instances of each schema, by |variable|, none generated
        (
            len(s.variable_range) ** n
            for s in p.schemas
            for n in range(schema_var_bound + 1 if s.variable_range else 1)
        ),
        lambda cap: f"more than {cap} schema instances at bound {schema_var_bound}",
    )
    rules = _rule_universe(p, schema_var_bound)
    by_lhs: Dict[Word, List[int]] = {}
    by_prefix: Dict[Word, List[int]] = {}  # proper prefixes only
    for i, r in enumerate(rules):
        by_lhs.setdefault(r.lhs, []).append(i)
        for ell in range(1, len(r.lhs)):
            by_prefix.setdefault(r.lhs[:ell], []).append(i)

    found = []  # (i1, i2, 0, s) for inclusions, (i1, i2, 1, ell) for overlaps
    too_many_peaks = lambda cap: f"more than {cap} critical peaks at bound {schema_var_bound}"
    for i2, r2 in enumerate(rules):
        l2 = r2.lhs
        for s in range(len(l2) + 1):
            for e in range(s, len(l2) + 1):
                for i1 in by_lhs.get(l2[s:e], ()):
                    r1 = rules[i1]
                    # for identical lhs, keep one orientation
                    if r1 is not r2 and not (r1.lhs == l2 and r1.name > r2.name):
                        found.append((i1, i2, 0, s))
        check_budget([len(found)], too_many_peaks)
    for i1, r1 in enumerate(rules):
        l1 = r1.lhs
        for ell in range(1, len(l1)):
            for i2 in by_prefix.get(l1[len(l1) - ell :], ()):
                found.append((i1, i2, 1, ell))
        check_budget([len(found)], too_many_peaks)
    found.sort()  # rule-pair order

    peaks: List[CriticalPeak] = []
    for i1, i2, overlap, k in found:
        r1, r2 = rules[i1], rules[i2]
        l1, l2 = r1.lhs, r2.lhs
        if overlap:
            peaks.append(
                CriticalPeak("overlap", r1, r2, l2[k:], l1[: len(l1) - k], l1 + l2[k:])
            )
        else:
            peaks.append(CriticalPeak("inclusion", r1, r2, l2[:k], l2[k + len(l1) :], l2))
    ordering = p.ordering
    if ordering is not None:
        peaks.sort(
            key=lambda k: (
                shortlex_key(k.source, ordering),
                k.kind,
                k.rule1.name,
                k.rule2.name,
                len(k.gamma1),
            )
        )
    return peaks


def resolve_peak(peak: CriticalPeak, p: Presentation):
    """Reduce both descendants; a common irreducible yields a circuit,
    otherwise the distinct pair is reported as data (a completion candidate).

    The two reductions are ``reduction_path``s, so a descendant whose
    reduction joins a word that an earlier peak's reduction reached on ``p``
    takes the rest of its path from ``p``'s path cache."""
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
        out = []
        for peak, res in self.resolutions:
            if isinstance(res, UnresolvedPeak):
                out.append(
                    f"{peak.describe()} -> UNRESOLVED({word_str(res.nf1)},{word_str(res.nf2)})"
                )
            else:
                out.append(f"{peak.describe()} -> resolved")
        return out


def is_confluent_bounded(p: Presentation, schema_var_bound: int = 0) -> ConfluenceReport:
    """Resolve every critical peak at the bound and report the outcomes.

    The peaks share ``p``'s path cache: on Qbar at bound 3, 9 677 of the
    31 714 steps of the 3 138 resolutions are searched, and the rest are
    spliced from cells that earlier peaks stored."""
    check_orientation(p)
    report = ConfluenceReport(p, schema_var_bound)
    for peak in critical_peaks(p, schema_var_bound):
        report.resolutions.append((peak, resolve_peak(peak, p)))
    return report


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
    """
    check_orientation(p)
    report = CompletionReport("completed")
    rules: List[Rule] = list(p.rules)
    sys = p
    taken = {r.name for r in rules} | {s.name for s in p.schemas}
    names = (name for name in map("kb{}".format, itertools.count(1)) if name not in taken)
    pending: List[Tuple[Word, Word]] = []  # dropped equations, used as a stack

    while True:
        dropped = []
        i = 0
        while i < len(rules):
            r = rules[i]
            # The rule's own edge, or a schema instance carrying the very same
            # rewrite, does not count: it is the same rule, not a simplification.
            if any(
                e.left or e.rule.lhs != r.lhs or e.rule.rhs != r.rhs
                for e in find_redexes(r.lhs, sys)
            ):
                del rules[i]
                report.removed.append(r)
                dropped.append((r.lhs, r.rhs))
            else:
                rhs = normalize(r.rhs, sys)
                if rhs == r.rhs:
                    i += 1
                    continue
                rules[i] = Rule(r.name, r.lhs, rhs, r.origin)
            sys = Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)
        pending.extend(reversed(dropped))

        while True:
            if pending:
                u, v = pending.pop()
            else:
                for peak in critical_peaks(sys, schema_var_bound):
                    u, v = normalize(peak.result1, sys), normalize(peak.result2, sys)
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
        rules.append(rule)
        report.added.append(rule)
        sys = Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)


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
    """Decide u ↔* v inside the length-bounded universe by breadth-first
    closure under rule applications in both directions.

    Independent of normalization: no ordering, no strategy, no schemas
    beyond the presentation's plain rules.
    """
    if len(u) > max_len or len(v) > max_len:
        raise RwlabError("oracle inputs must respect the length bound")
    if p.schemas:
        raise RwlabError("the oracle only handles plain-rule presentations")
    if u == v:
        return True
    forward = [(r.lhs, r.rhs) for r in p.rules]
    table = _replacement_table(forward + [(dst, src) for src, dst in forward])
    seen = {u}
    frontier = deque([u])
    while frontier:
        w = frontier.popleft()
        for nxt in _one_step_neighbors(w, table, max_len):
            if nxt == v:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
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
    ``rewrite.ENUMERATION_CAP`` words.
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
        return uf.find(offsets[len(w)] + value(w))

    return classof
