"""Differential test of Knuth-Bendix completion against the former loop.

``reference_knuth_bendix`` is the completion loop as it stood before it was
rewritten around one live system: it rebuilds a presentation without the
rule for every rule in every interreduction pass, restarts the pass at the
first rule after each change, and lets adding and interreducing call each
other.  It is kept here, unchanged, as the oracle for the added and removed
rules, the status and the final rule list.
"""

import itertools
import random
from collections import deque
from typing import List, Optional, Tuple

import pytest

from reference_completion import critical_peaks
from rwlab import completion
from rwlab.casestudy import m4_uncompleted, preset
from rwlab.completion import CompletionReport, knuth_bendix
from rwlab.core import Alphabet, OrderingSpec, Presentation, Rule, Word, word
from rwlab.rewrite import check_orientation, compare_shortlex, find_redexes, normalize


def _orient(u: Word, v: Word, p: Presentation) -> Optional[Tuple[Word, Word]]:
    c = compare_shortlex(u, v, p.ordering)
    if c == 0:
        return None
    return (u, v) if c > 0 else (v, u)


def reference_knuth_bendix(
    p: Presentation,
    max_new_rules: int = 100,
    max_lhs_len: int = 12,
    schema_var_bound: int = 2,
) -> Tuple[Presentation, CompletionReport]:
    check_orientation(p)
    report = CompletionReport("completed")
    rules: List[Rule] = list(p.rules)
    taken = {r.name for r in rules} | {s.name for s in p.schemas}
    counter = itertools.count(1)

    def fresh_name() -> str:
        while True:
            name = f"kb{next(counter)}"
            if name not in taken:
                taken.add(name)
                return name

    def current() -> Presentation:
        return Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)

    def add_rule(u: Word, v: Word) -> bool:
        """Orient and add u = v; returns False when the budget is exhausted."""
        sys = current()
        u, v = normalize(u, sys), normalize(v, sys)
        oriented = _orient(u, v, p)
        if oriented is None:
            return True
        lhs, rhs = oriented
        if len(lhs) > max_lhs_len or len(report.added) >= max_new_rules:
            report.status = "bounded-out"
            return False
        rule = Rule(fresh_name(), lhs, rhs)
        rules.append(rule)
        report.added.append(rule)
        return interreduce()

    def lhs_reducible(r: Rule, others: Presentation) -> bool:
        return any(
            e.left or e.rule.lhs != r.lhs or e.rule.rhs != r.rhs
            for e in find_redexes(r.lhs, others)
        )

    def interreduce() -> bool:
        requeue: deque = deque()
        changed = True
        while changed:
            changed = False
            for i, r in enumerate(rules):
                others = Presentation(
                    p.alphabet, tuple(rules[:i] + rules[i + 1 :]), p.schemas, p.ordering
                )
                if lhs_reducible(r, others):
                    rules.pop(i)
                    report.removed.append(r)
                    requeue.append((r.lhs, r.rhs))
                    changed = True
                    break
                new_rhs = normalize(r.rhs, others)
                if new_rhs != r.rhs:
                    rules[i] = Rule(r.name, r.lhs, new_rhs, r.origin)
                    changed = True
                    break
        while requeue:
            u, v = requeue.popleft()
            if not add_rule(u, v):
                return False
        return True

    if not interreduce():
        return current(), report

    while True:
        sys = current()
        unresolved = []
        for peak in critical_peaks(sys, schema_var_bound):
            nf1 = normalize(peak.result1, sys)
            nf2 = normalize(peak.result2, sys)
            if nf1 != nf2:
                unresolved.append((peak, nf1, nf2))
        if not unresolved:
            return sys, report
        peak, nf1, nf2 = unresolved[0]
        if not add_rule(nf1, nf2):
            return current(), report


def _permuted(p: Presentation, seed: int) -> Presentation:
    rules = list(p.rules)
    random.Random(seed).shuffle(rules)
    return Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)


def _duplicated_rewrite() -> Presentation:
    # d1 and d3 carry the same rewrite x x -> y, whose rhs is reducible:
    # once d1's rhs is normalized, d3 reduces d1's lhs.  A pass that moved
    # on to the next rule after that change would drop d3 instead of d1.
    return Presentation(
        Alphabet(("x", "y", "z")),
        (
            Rule("d1", word("x x"), word("y")),
            Rule("d2", word("y"), word("z")),
            Rule("d3", word("x x"), word("y")),
        ),
        (),
        OrderingSpec(("x", "y", "z")),
    )


def _fighting_pair() -> Presentation:
    return Presentation(
        Alphabet(("x", "y")),
        (Rule("r1", word("x y"), word("x")), Rule("r2", word("y x"), word("y"))),
        (),
        OrderingSpec(("x", "y")),
    )


CASES = {
    "Q-5": (lambda: preset("Q"), (5, 6)),
    "Q-20": (lambda: preset("Q"), (20, 6)),
    "Q-50": (lambda: preset("Q"), (50, 6)),
    "M4-replay": (m4_uncompleted, (40, 8, 1)),
    "Qbar": (lambda: preset("Qbar"), (10, 8, 3)),
    "duplicated-rewrite": (_duplicated_rewrite, (10, 6)),
    "fighting-pair": (_fighting_pair, (20, 6)),
}
for _seed in (1, 2, 3):
    CASES[f"Q-perm{_seed}"] = (lambda s=_seed: _permuted(preset("Q"), s), (20, 8))
    CASES[f"M4-perm{_seed}"] = (lambda s=_seed: _permuted(m4_uncompleted(), s), (40, 8, 1))


def _outcome(result):
    completed, report = result
    return report.status, report.added, report.removed, completed.rules


@pytest.mark.parametrize("case", sorted(CASES))
def test_knuth_bendix_matches_the_reference(case, monkeypatch):
    make, args = CASES[case]
    p = make()
    expected = _outcome(reference_knuth_bendix(p, *args))

    builds = itertools.count()
    post_init = Presentation.__post_init__
    monkeypatch.setattr(
        Presentation, "__post_init__", lambda self: (next(builds), post_init(self))[1]
    )
    rules_made = itertools.count()  # added rules and rewritten right sides
    monkeypatch.setattr(
        completion, "Rule", lambda *a, **k: (next(rules_made), Rule(*a, **k))[1]
    )
    got = _outcome(knuth_bendix(p, *args))
    monkeypatch.undo()

    assert got == expected
    _, _, removed, _ = got
    assert next(builds) <= next(rules_made) + len(removed)

