"""The live peak index of ``knuth_bendix`` against enumeration from scratch.

At every search of a run, the list that ``critical_peaks`` returns through
the live index must equal ``critical_peaks`` from scratch on the same
system: the same peaks, every field equal, in the same order.  Every peak
that the index holds as resolved must still reduce as its certificate says:
both leftmost reductions under the current system pass exactly the words it
recorded and end at one normal form.  The outcome of each run must equal
that of ``reference_knuth_bendix``, the oracle of
``tests/test_completion_differential.py``.

After every rule change of a run, the system that ``knuth_bendix`` derives
from the last one, with its matcher, must equal a system built from scratch
from the changed rule list, and the caller's presentation and its matcher
must end the run as they began it.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwlab import completion, rewrite
from rwlab.casestudy import m4_uncompleted, preset
from rwlab.completion import knuth_bendix
from rwlab.core import (
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    words_over,
)
from rwlab.rewrite import check_orientation, compare_shortlex, reduction_path
from test_completion_differential import CASES, _outcome, reference_knuth_bendix


def _permuted(p: Presentation, seed: int) -> Presentation:
    rules = list(p.rules)
    random.Random(seed).shuffle(rules)
    return Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)


def _reduction(w, sys) -> list:
    """The mirror strings of the words on the leftmost reduction of ``w``."""
    m = check_orientation(sys)
    return [m.mirror(w)] + [m.mirror(e.target) for e in reduction_path(w, sys).edges]


def certificate_faults(live, sys) -> list:
    """The certified peaks whose reductions under ``sys`` differ from their
    certificate or end at two normal forms."""
    faults = []
    for e, (words, _) in live.certified.items():
        one, two = _reduction(e.peak.result1, sys), _reduction(e.peak.result2, sys)
        if words != "\n".join(one + two) or one[-1] != two[-1]:
            faults.append(e.peak)
    return faults


def watched_run(p, args, check_certificates=True):
    """Run ``knuth_bendix`` with every search checked; returns the outcome,
    and the number of searches whose list differs from scratch or holds a
    broken certificate."""
    original = completion.critical_peaks
    bad = []

    def watch(sys, bound=0, **kwargs):
        peaks = original(sys, bound, **kwargs)
        live = kwargs["_live"]
        if peaks != original(sys, bound) or (
            check_certificates and certificate_faults(live, sys)
        ):
            bad.append(sys)
        return peaks

    completion.critical_peaks = watch
    try:
        completed, report = completion.knuth_bendix(p, *args)
    finally:
        completion.critical_peaks = original
    return _outcome((completed, report)), len(bad)


def live_lists_match(p, args) -> bool:
    return watched_run(p, args, check_certificates=False)[1] == 0


def certificates_hold(p, args) -> bool:
    return watched_run(p, args)[1] == 0


def _table(m) -> tuple:
    """What a matcher's search reads of its plain rules: each lhs's entries
    without their ranks, in their order, the rules ranked across the table,
    and the lhs in the order the compiled search tries them; with
    ``lengths``, ``maxlhs``, ``unoriented`` and the rhs string each lhs is
    replaced by in a pass."""
    by_lhs = {lhs: [e[1:] for e in entries] for lhs, entries in m.plain.items()}
    ranked = [e[1] for e in sorted(e for entries in m.plain.values() for e in entries)]
    return by_lhs, ranked, m.ranked(), m.lengths, m.maxlhs, m.unoriented, dict(m.replacements)


def _snapshot(p) -> tuple:
    """Copies of ``p`` and its matcher's table."""
    m = rewrite._matcher(p)
    table = {lhs: list(entries) for lhs, entries in m.plain.items()}
    return dataclasses.replace(p), table, _table(m)


def derived_run(p, args):
    """Run ``knuth_bendix`` with every derived system checked against one
    built from scratch; returns the outcome, the number of derivations that
    differ from scratch (or of runs that changed ``p``), and the kinds of
    change made."""
    original = completion._derived
    bad, kinds = [], set()

    def watch(sys, i, new=None):
        q = original(sys, i, new)
        rules = list(sys.rules)
        kinds.add("drop" if new is None else "append" if i == len(rules) else "rewrite")
        if new is None:
            del rules[i]
        else:
            rules[i : i + 1] = [new]
        fresh = Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)
        derived = q, hash(q), _table(rewrite._matcher(q))
        if derived != (fresh, hash(fresh), _table(rewrite._Matcher(fresh))):
            bad.append((sys, i, new))
        return q

    before = _snapshot(p)
    completion._derived = watch
    try:
        result = completion.knuth_bendix(p, *args)
    finally:
        completion._derived = original
    if _snapshot(p) != before:
        bad.append(p)
    return _outcome(result), len(bad), kinds


def derivations_match(p, args) -> bool:
    """Whether every derivation of the run equals the system from scratch.
    A run stopped by a check does not: a rule list that ``Presentation``
    rejects, or an unoriented rule that the derived matcher keeps."""
    try:
        return derived_run(p, args)[1] == 0
    except RwlabError:
        return False


RUNS = dict(CASES)
for _seed in range(100, 103):
    RUNS[f"Q-perm{_seed}-60-10"] = (lambda s=_seed: _permuted(preset("Q"), s), (60, 10))
for _seed in range(200, 206):
    RUNS[f"M4-replay-perm{_seed}"] = (lambda s=_seed: _permuted(m4_uncompleted(), s), (40, 8, 1))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_search_lists_the_peaks_from_scratch(run):
    make, args = RUNS[run]
    p = make()
    outcome, bad = watched_run(p, args)
    assert bad == 0
    assert outcome == _outcome(reference_knuth_bendix(p, *args))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_derived_system_equals_one_from_scratch(run):
    make, args = RUNS[run]
    _, bad, kinds = derived_run(make(), args)
    assert bad == 0
    if run == "duplicated-rewrite":
        assert kinds == {"drop", "rewrite", "append"}


def test_q_at_500_rules_and_lhs_10_derives_the_systems_from_scratch():
    outcome, bad, _ = derived_run(dataclasses.replace(preset("Q")), (500, 10))
    assert bad == 0
    status, added, removed, rules = outcome
    assert (status, len(added), removed, len(rules)) == ("bounded-out", 252, [], 269)


def test_q_at_500_rules_and_lhs_8_lists_the_peaks_from_scratch():
    # the certificates are checked in the smaller runs; here every list is
    outcome, bad = watched_run(preset("Q"), (500, 8), check_certificates=False)
    assert bad == 0
    status, added, removed, rules = outcome
    assert (status, len(added), removed, len(rules)) == ("bounded-out", 140, [], 157)


@st.composite
def small_systems(draw):
    """2-3 letters, oriented plain rules of up to 4 letters a side in a
    drawn order, and in some draws a shrinking schema, sometimes with a
    plain twin of one of its instances."""
    letters = ("a", "b", "c")[: draw(st.integers(2, 3))]
    ordering = OrderingSpec(tuple(draw(st.permutations(letters))))
    side = st.lists(st.sampled_from(letters), max_size=4).map(tuple)
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        u, v = draw(side), draw(side)
        c = compare_shortlex(u, v, ordering)
        if c:
            pairs.append((u, v) if c > 0 else (v, u))
    schemas = ()
    if draw(st.booleans()):
        pick = st.lists(st.sampled_from(letters), min_size=1, max_size=2).map(tuple)
        prefix = draw(st.lists(st.sampled_from(letters), max_size=1).map(tuple))
        suffix = draw(pick)
        rng = tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=2, unique=True)))
        schema = RuleSchema("s", "X", rng, prefix, suffix, prefix, suffix[: len(suffix) - 1])
        schemas = (schema,)
        if draw(st.booleans()):
            v = draw(st.sampled_from(list(words_over(rng, 1))))
            pairs.append((prefix + v + suffix, prefix + v + suffix[:-1]))
    pairs = draw(st.permutations(pairs))
    rules = tuple(Rule(f"r{i}", lhs, rhs) for i, (lhs, rhs) in enumerate(pairs))
    return Presentation(Alphabet(letters), rules, schemas, ordering)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(p=small_systems(), bound=st.integers(0, 2))
def test_drawn_systems_match_scratch_and_the_reference(p, bound):
    args = (6, 5, bound)
    outcome, bad = watched_run(p, args)
    assert bad == 0
    assert outcome == _outcome(reference_knuth_bendix(p, *args))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(p=small_systems(), bound=st.integers(0, 2))
def test_drawn_systems_derive_the_systems_from_scratch(p, bound):
    assert derived_run(p, (6, 5, bound))[1] == 0


def test_derived_matchers_set_every_attribute_a_fresh_one_sets(monkeypatch):
    # along an M4 replay; derived_run compares what the attributes hold
    seen, original = [], rewrite._Matcher._derived
    monkeypatch.setattr(
        rewrite._Matcher, "_derived", lambda m, *args: seen.append(original(m, *args)) or seen[-1]
    )
    outcome, bad, kinds = derived_run(m4_uncompleted(), (40, 8, 1))
    assert bad == 0 and kinds == {"drop", "append"} and len(seen) > 10
    for m in seen + [rewrite._Matcher(preset("M4"))]:
        assert not hasattr(m, "__dict__")
        assert all(hasattr(m, name) for name in rewrite._Matcher.__slots__)


def test_one_matcher_is_built_from_scratch_per_run(monkeypatch):
    p = dataclasses.replace(preset("Q"))  # no matcher yet
    built, checked, validated = [], [], []
    init, orientation = rewrite._Matcher.__init__, rewrite._orientation_error
    post_init = Presentation.__post_init__
    monkeypatch.setattr(rewrite._Matcher, "__init__", lambda m, q: (built.append(q), init(m, q))[1])
    monkeypatch.setattr(
        rewrite, "_orientation_error", lambda q: (checked.append(q), orientation(q))[1]
    )
    monkeypatch.setattr(
        Presentation, "__post_init__", lambda q: (validated.append(q), post_init(q))[1]
    )
    _, report = knuth_bendix(p, 500, 8)
    assert len(report.added) == 140
    assert built == [p] and checked == [p]
    assert validated == []  # each system is derived from the last one


def test_the_bulk_universe_is_built_once_per_run(monkeypatch):
    p = m4_uncompleted()
    instances = sum(len(s.variable_range) ** n for s in p.schemas for n in range(2))
    made = []
    instantiate = completion.instantiate_schema
    monkeypatch.setattr(
        completion, "instantiate_schema", lambda s, v: (made.append(v), instantiate(s, v))[1]
    )
    _, report = knuth_bendix(p, 40, 8, 1)
    assert report.removed  # rules left, and instances may have rejoined
    assert len(made) == instances


def test_later_passes_test_only_the_rules_the_added_lhs_reaches(monkeypatch):
    p = preset("Q")
    calls = []
    find_redexes = completion.find_redexes
    monkeypatch.setattr(
        completion, "find_redexes", lambda w, sys: (calls.append((w, sys)), find_redexes(w, sys))[1]
    )
    _, report = knuth_bendix(p, 50, 6)
    assert len(report.added) == 50

    def contains(w, u):
        return any(w[i : i + len(u)] == u for i in range(len(w) - len(u) + 1))

    first = [w for w, _ in calls[: len(p.rules)]]
    assert first == [r.lhs for r in p.rules]  # the first pass tests every rule
    later = calls[len(p.rules) :]
    for k, (w, sys) in enumerate(later):
        u = max((r for r in sys.rules if r.name.startswith("kb")), key=lambda r: int(r.name[2:])).lhs
        (r,) = [r for r in sys.rules if r.lhs == w]
        retest = k and later[k - 1][0] == w  # the same rule again, after its rhs changed
        assert contains(r.lhs, u) or contains(r.rhs, u) or retest
    assert len(later) < len(report.added) * len(p.rules) // 4
