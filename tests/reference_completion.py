"""Former code of ``rwlab.completion``, kept as the reference.

``_peaks_for_pair`` and ``critical_peaks`` are the former peak enumeration,
unchanged: it calls ``_peaks_for_pair`` on every ordered pair of the rule
universe and, with an ordering, sorts the peaks stably by source.

``_one_step_neighbors``, ``bfs_equivalence_oracle`` and ``equivalence_classes``
are the former equivalence oracles, unchanged: the BFS scans every rule in both
directions at every position, and the classes match left-hand sides through
a table keyed by their first letter.  The classes crash on a rule with an
empty lhs (``lhs[0]``) and on a step that leaves the length-bounded universe;
the differential tests keep to presentations on which they do not.

``equivalence_classes_by_neighbours`` is the later closure, unchanged: it
walks every word of the universe in rank order, builds each one-step
neighbour through the replacement table the BFS still uses, and ranks it
again.  It handles an empty lhs and a step out of the universe, so it is the
reference for every plain presentation.  Both closures use ``_UnionFind``,
the former union-find, unchanged: one pair per union, full path compression.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List

from rwlab.completion import CriticalPeak, _replacement_table, _rule_universe
from rwlab.completion import _one_step_neighbors as _table_neighbors
from rwlab.core import Presentation, Rule, RwlabError, Word, shortlex_key, words_over
from rwlab.rewrite import check_enumeration_budget


def _peaks_for_pair(r1: Rule, r2: Rule) -> List[CriticalPeak]:
    peaks = []
    l1, l2 = r1.lhs, r2.lhs
    # inclusions of l1 inside l2 (for identical lhs, keep one orientation)
    if len(l1) <= len(l2) and r1 is not r2 and not (l1 == l2 and r1.name > r2.name):
        for s in range(len(l2) - len(l1) + 1):
            if l2[s : s + len(l1)] == l1:
                peaks.append(
                    CriticalPeak("inclusion", r1, r2, l2[:s], l2[s + len(l1) :], l2)
                )
    # proper left-overlaps: a suffix of l1 is a prefix of l2
    for ell in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - ell :] == l2[:ell]:
            peaks.append(
                CriticalPeak(
                    "overlap", r1, r2, l2[ell:], l1[: len(l1) - ell], l1 + l2[ell:]
                )
            )
    return peaks


def critical_peaks(p: Presentation, schema_var_bound: int = 0) -> List[CriticalPeak]:
    """All inclusion and overlap peaks among plain rules and bounded schema
    instances, each geometric configuration once, sorted by source."""
    rules = _rule_universe(p, schema_var_bound)
    peaks: List[CriticalPeak] = []
    for r1, r2 in itertools.product(rules, repeat=2):
        peaks.extend(_peaks_for_pair(r1, r2))
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


def _one_step_neighbors(w: Word, rules: List[Rule], max_len: int) -> List[Word]:
    out = []
    n = len(w)
    for r in rules:
        for src, dst in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
            if n - len(src) + len(dst) > max_len:
                continue
            for i in range(n - len(src) + 1):
                if w[i : i + len(src)] == src:
                    out.append(w[:i] + dst + w[i + len(src) :])
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
    rules = list(p.rules)
    seen = {u}
    frontier = deque([u])
    while frontier:
        w = frontier.popleft()
        for nxt in _one_step_neighbors(w, rules, max_len):
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
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def equivalence_classes(p: Presentation, max_len: int):
    """Partition the whole length-bounded universe by ↔*.

    Equivalent to running the BFS oracle on every pair: within the bounded
    universe every backward step is some forward step read the other way, so
    the components of the one-step graph are exactly the oracle's relation.
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
    offsets = [0]
    for n in range(max_len + 1):
        offsets.append(offsets[-1] + k**n)
    total = offsets[max_len + 1]
    uf = _UnionFind(total)

    rules = [
        (tuple(idx[x] for x in r.lhs), tuple(idx[x] for x in r.rhs)) for r in p.rules
    ]
    by_first: Dict[int, list] = {}
    for lhs, rhs in rules:
        by_first.setdefault(lhs[0], []).append((lhs, rhs))

    def rank(w) -> int:
        val = 0
        for d in w:
            val = val * k + d
        return offsets[len(w)] + val

    for n in range(max_len + 1):
        base = offsets[n]
        val = 0
        for w in itertools.product(range(k), repeat=n):
            me = base + val
            val += 1
            for i in range(n):
                for lhs, rhs in by_first.get(w[i], ()):
                    L = len(lhs)
                    if i + L <= n and w[i : i + L] == lhs:
                        uf.union(me, rank(w[:i] + rhs + w[i + L :]))

    def classof(w: Word) -> int:
        return uf.find(rank(tuple(idx[x] for x in w)))

    return classof


def equivalence_classes_by_neighbours(p: Presentation, max_len: int):
    """Partition the whole length-bounded universe by ↔*.

    Equivalent to running the BFS oracle on every pair: within the bounded
    universe every backward step is some forward step read the other way, so
    the components of the one-step graph are exactly the oracle's relation.
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
    offsets = [0]
    for n in range(max_len + 1 if k else 1):  # no letters: the empty word alone
        offsets.append(offsets[-1] + k**n)
    uf = _UnionFind(offsets[-1])

    def digits(w: Word) -> tuple:
        return tuple(idx[x] for x in w)

    table = _replacement_table((digits(r.lhs), digits(r.rhs)) for r in p.rules)

    def rank(w) -> int:
        val = 0
        for d in w:
            val = val * k + d
        return offsets[len(w)] + val

    for me, w in enumerate(words_over(range(k), max_len)):  # in rank order
        for nxt in _table_neighbors(w, table, max_len):
            uf.union(me, rank(nxt))

    def classof(w: Word) -> int:
        return uf.find(rank(digits(w)))

    return classof
