import itertools

import pytest

from rwlab import completion, rewrite
from rwlab.casestudy import c_bar_rule, classify_peak, m4_uncompleted
from rwlab.completion import (
    CriticalCircuit,
    UnresolvedPeak,
    bfs_equivalence_oracle,
    critical_peaks,
    equivalence_classes,
    is_confluent_bounded,
    knuth_bendix,
    resolve_peak,
    word_problem_equal,
)
from rwlab.core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RwlabError,
    word,
    word_str,
    words_over,
)
from rwlab.rewrite import normalize


def restricted(p, names):
    return Presentation(
        p.alphabet, tuple(r for r in p.rules if r.name in names), (), p.ordering
    )


def test_peaks_of_inverse_pair(P):
    peaks = critical_peaks(restricted(P, {"I_a", "I_a'"}))
    at_source = [k for k in peaks if k.source == word("a a' a")]
    assert len(at_source) == 1
    assert at_source[0].kind == "overlap"
    # the mirrored configuration is the only other peak
    assert {word_str(k.source) for k in peaks} == {"a a' a", "a' a a'"}


def test_peak_of_swap_against_cancellation(Qbar):
    peaks = critical_peaks(restricted(Qbar, {"C_pp", "I_b"}))
    assert len(peaks) == 1
    assert peaks[0].source == word("h a b b'")
    assert peaks[0].kind == "overlap"


def test_no_peaks_for_disjoint_rules(P):
    assert critical_peaks(restricted(P, {"I_a", "I_b"})) == []


def test_resolve_inverse_peak(P):
    (peak,) = [
        k for k in critical_peaks(P) if k.source == word("a a' a")
    ]
    res = resolve_peak(peak, P)
    assert isinstance(res, CriticalCircuit)
    circuit = res.circuit()
    assert circuit.is_closed and circuit.iota == word("a")
    assert normalize(peak.result1, P) == word("a")
    assert normalize(peak.result2, P) == word("a")


def test_resolve_cancellation_commutation_peak(Q):
    (peak,) = [k for k in critical_peaks(Q) if k.source == word("a a' h")]
    res = resolve_peak(peak, Q)
    assert isinstance(res, CriticalCircuit)
    # one side is already at h; the other walks a h a' -> h a a' -> h
    sides = {peak.result1, peak.result2}
    assert word("h") in sides and word("a h a'") in sides
    longer = res.p1 if peak.result1 == word("a h a'") else res.p2
    vertices = [longer.iota] + [e.target for e in longer.edges]
    assert vertices == [word("a h a'"), word("h a a'"), word("h")]
    assert res.circuit().is_closed


def test_unresolved_pair_under_q_only(Q):
    (peak,) = [k for k in critical_peaks(Q) if k.source == word("b h a b")]
    res = resolve_peak(peak, Q)
    assert isinstance(res, UnresolvedPeak)
    assert set(res.pair) == {word("h b a b"), word("h b b a")}
    # both sides are irreducible under Q
    from rwlab.rewrite import find_redexes

    assert not find_redexes(word("h b a b"), Q)
    assert not find_redexes(word("h b b a"), Q)


def test_free_group_system_is_confluent(P):
    report = is_confluent_bounded(P)
    assert report.confluent
    assert all(classify_peak(k) == "CT2" for k, _ in report.resolutions)
    assert len(report.resolutions) == 4


def test_qbar_is_confluent_at_bound(Qbar):
    report = is_confluent_bounded(Qbar, 2)
    assert report.confluent
    # every resolution is a genuinely closed circuit with positive legs
    for _, res in report.resolutions:
        circuit = res.circuit()
        assert circuit.is_closed
        assert res.p1.is_positive and res.p2.is_positive


def test_q_alone_is_not_confluent(Q):
    report = is_confluent_bounded(Q)
    assert not report.confluent
    pairs = [set(u.pair) for u in report.unresolved]
    assert {word("h b a b"), word("h b b a")} in pairs
    assert "peak b h a b [K_b,C_pp] -> UNRESOLVED(h b a b,h b b a)" in report.lines()
    assert any(line.endswith("-> resolved") for line in report.lines())


def test_knuth_bendix_leaves_free_group_alone(P):
    completed, report = knuth_bendix(P, 10, 6)
    assert report.completed
    assert report.added == []
    assert {(r.lhs, r.rhs) for r in completed.rules} == {(r.lhs, r.rhs) for r in P.rules}


def _swap_instance_lhs(lhs):
    if len(lhs) < 3 or lhs[0] != "h":
        return None
    a_, b_ = lhs[-2], lhs[-1]
    if a_ not in ("a", "a'") or b_ not in ("b", "b'"):
        return None
    eps = 1 if a_ == "a" else -1
    delta = 1 if b_ == "b" else -1
    return lhs[1:-2], eps, delta


def test_knuth_bendix_on_q_discovers_swap_instances(Q, Qbar):
    completed, report = knuth_bendix(Q, 50, 6)
    assert report.status == "bounded-out"
    assert len(report.added) == 50
    pairs = {(r.lhs, r.rhs) for r in report.added}
    assert (word("h b a b"), word("h b b a")) in pairs
    for rule in report.added:
        parsed = _swap_instance_lhs(rule.lhs)
        assert parsed is not None, f"{rule} is not a swap instance"
        w, eps, delta = parsed
        inst = c_bar_rule(w, eps, delta)
        assert inst.lhs == rule.lhs
        # discovered right side is the fully reduced form of the instance's
        assert normalize(inst.rhs, Qbar) == rule.rhs


def test_knuth_bendix_with_schemas_already_complete(Qbar):
    completed, report = knuth_bendix(Qbar, 10, 8, schema_var_bound=3)
    assert report.completed
    assert report.added == []


def test_knuth_bendix_completes_the_extended_zero_system(M4):
    completed, report = knuth_bendix(m4_uncompleted(), 40, 8, schema_var_bound=1)
    assert report.completed
    assert {(r.lhs, r.rhs) for r in completed.rules} == {
        (r.lhs, r.rhs) for r in M4.rules
    }
    assert is_confluent_bounded(completed, 2).confluent


def test_word_problem_examples(Qbar):
    assert not word_problem_equal(word("a b"), word("b a"), Qbar)
    assert word_problem_equal(word("h a b"), word("h b a"), Qbar)
    assert word_problem_equal(word("h h a b"), word("h h"), Qbar)


def test_oracle_examples(Q):
    assert bfs_equivalence_oracle(word("a a'"), EMPTY, Q, 4)
    assert bfs_equivalence_oracle(word("h a b"), word("h b a"), Q, 5)
    assert not bfs_equivalence_oracle(word("a"), word("b"), Q, 6)


def test_oracle_partition_matches_direct_bfs(Q):
    import itertools
    import random

    classof = equivalence_classes(Q, 5)
    rng = random.Random(3)
    letters = Q.alphabet.letters
    for _ in range(25):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        assert bfs_equivalence_oracle(u, v, Q, 5) == (classof(u) == classof(v))


def test_oracle_bound_insensitivity_on_small_words(Q, Qbar):
    # answers for length <= 3 pairs stabilize across bounds 7 and 8; compare
    # through normal forms, which the acceptance run pins at bound 8
    import itertools

    words3 = [
        w
        for n in range(4)
        for w in itertools.product(Q.alphabet.letters, repeat=n)
    ]
    for bound in (7, 8):
        classof = equivalence_classes(Q, bound)
        class_to_nf = {}
        nf_to_class = {}
        for w in words3:
            cls, nf = classof(w), normalize(w, Qbar)
            assert class_to_nf.setdefault(cls, nf) == nf
            assert nf_to_class.setdefault(nf, cls) == cls


def test_equivalence_classes_refuse_a_universe_past_the_cap(Q, monkeypatch):
    # Q has 5 letters: 2 441 406 words of length <= 9, 488 281 of length <= 8
    with pytest.raises(RwlabError, match="5 letters give more than 1000000 words of length <= 9"):
        equivalence_classes(Q, 9)
    # the budget is checked before the union-find allocates its universe
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", 31)  # 1 + 5 + 25 words at bound 2
    assert equivalence_classes(Q, 2)(word("a a'")) == equivalence_classes(Q, 2)(EMPTY)
    monkeypatch.setattr(completion, "_UnionFind", None)
    with pytest.raises(RwlabError, match="more than 31 words of length <= 3"):
        equivalence_classes(Q, 3)


def test_completed_output_passes_confluence():
    from rwlab.core import Rule

    # x fights y: xy -> x and yx -> y force a completion step on yxy/xyx
    p = Presentation(
        Alphabet(("x", "y")),
        (Rule("r1", ("x", "y"), ("x",)), Rule("r2", ("y", "x"), ("y",))),
        (),
        OrderingSpec(("x", "y")),
    )
    completed, report = knuth_bendix(p, 20, 6)
    assert report.completed
    assert is_confluent_bounded(completed).confluent


@pytest.mark.parametrize("rule", [("ε", "a"), ("a", "b b")])
def test_equivalence_classes_agree_with_the_bfs_off_the_plain_shape(rule):
    # an empty lhs, and a step from the bound-3 universe to a 4-letter word
    p = Presentation(Alphabet(("a", "b")), (Rule("r", word(rule[0]), word(rule[1])),))
    classof = equivalence_classes(p, 3)
    words = list(words_over(p.alphabet.letters, 3))
    for u, v in itertools.product(words, repeat=2):
        assert (classof(u) == classof(v)) == bfs_equivalence_oracle(u, v, p, 3), (u, v)


def test_the_closure_builds_no_words(Q, monkeypatch):
    # the closure ranks both ends of each step by arithmetic: it neither
    # enumerates the universe nor builds a neighbour word
    def build(*args):
        raise AssertionError("the closure built a word")

    monkeypatch.setattr(completion, "_one_step_neighbors", build)
    monkeypatch.setattr(completion, "words_over", build)
    classof = equivalence_classes(Q, 6)
    assert classof(word("h a b")) == classof(word("h b a")) == classof(word("a h b"))
    assert classof(word("a a'")) == classof(EMPTY) != classof(word("h"))
