import itertools
import random
from collections import Counter

import pytest

from rwlab import casestudy, rewrite
from rwlab.casestudy import (
    build_C_path,
    build_ct_circuit,
    build_presentations,
    classify_peak,
    ct_parameter_sweep,
    is_case_study_nf,
    random_ct_params,
    verify_figure2,
    verify_identities,
    verify_prop31,
)
from rwlab.completion import critical_peaks
from rwlab.core import EMPTY, RwlabError, word
from rwlab.invariant import CtParams
from rwlab.rewrite import normalize


def test_preset_shapes():
    ps = build_presentations()
    assert len(ps["P"].rules) == 4 and not ps["P"].schemas
    assert len(ps["Q"].rules) == 17 and not ps["Q"].schemas
    assert len(ps["Qbar"].rules) == 17 and len(ps["Qbar"].schemas) == 4
    assert len(ps["M4"].alphabet.letters) == 6
    assert len(ps["N4"].alphabet.letters) == 6


def test_m4_contains_the_oriented_zero_relations(M4):
    pairs = {(r.lhs, r.rhs) for r in M4.rules}
    assert (word("h h"), word("z")) in pairs
    assert (word("z a"), word("z")) in pairs
    assert (word("a z"), word("z")) in pairs
    assert (word("h z"), word("z")) in pairs
    assert (word("z z"), word("z")) in pairs


def test_n4_contains_the_absorption_rules(N4):
    pairs = {(r.lhs, r.rhs) for r in N4.rules}
    assert (word("h h"), word("h")) in pairs
    for u in ("a", "a'", "b", "b'", "h"):
        assert (word(f"z {u}"), word("z")) in pairs
        assert (word(f"{u} z"), word("z")) in pairs
    assert (word("z z"), word("z")) in pairs


def test_section4_orderings_put_z_last(M4, N4):
    assert M4.ordering.precedence[-1] == "z"
    assert N4.ordering.precedence[-1] == "z"


def test_build_C_path_examples():
    p = build_C_path(EMPTY, 1, 1)
    assert len(p) == 1 and p.edges[0].rule.name == "C_pp"
    p = build_C_path(word("a"), 1, 1)
    assert len(p) == 3
    assert p.edges[0].rule.name == "K_a" and p.edges[0].sign == -1
    assert p.edges[1].left == word("a")
    assert p.edges[2].rule.name == "K_a" and p.edges[2].sign == 1
    p = build_C_path(word("b a"), -1, 1)
    assert len(p) == 5
    assert p.iota == word("h b a a' b")
    assert p.tau == word("h b a b a'")


def test_build_C_path_endpoints_sweep():
    import random

    from rwlab.invariant import a_pow, b_pow

    letters = ("a", "a'", "b", "b'")
    rng = random.Random(19)
    cases = [w for n in range(4) for w in itertools.product(letters, repeat=n)]
    cases += [
        tuple(rng.choice(letters) for _ in range(n)) for n in (4, 5, 6) for _ in range(20)
    ]
    for w in cases:
        for eps, delta in itertools.product((1, -1), repeat=2):
            p = build_C_path(w, eps, delta)
            assert len(p) == 2 * len(w) + 1
            assert p.iota == ("h",) + w + a_pow(eps) + b_pow(delta)
            assert p.tau == ("h",) + w + b_pow(delta) + a_pow(eps)
            assert p.is_positive is (len(w) == 0)


def test_build_ct_circuit_examples(Q):
    c = build_ct_circuit(CtParams("CT2", x="a"))
    assert c.is_closed and len(c) == 2
    assert {e.source for e in c.edges} | {c.iota} >= {word("a a' a")}
    c = build_ct_circuit(CtParams("CT6", x="b"))
    assert c.is_closed and len(c) == 4
    assert c.iota == word("b b' h")
    c = build_ct_circuit(CtParams("CT5", x="a", w=EMPTY, eps=1, delta=1))
    assert c.is_closed
    assert c.iota == word("a h a b")
    rule_names = {e.rule.name for e in c.edges}
    assert "K_a" in rule_names and "C_pp" in rule_names


def test_circuits_are_closed_and_over_plain_rules(Q):
    q_rules = set(Q.rules)
    for params in ct_parameter_sweep(2, 2):
        c = build_ct_circuit(params)
        assert c.is_closed
        assert all(e.rule in q_rules for e in c.edges)


def test_peak_inventory_classifies_into_families(Qbar):
    peaks = critical_peaks(Qbar, 3)
    fams = Counter(classify_peak(k) for k in peaks)
    assert "unclassified" not in fams
    low_h = {f: n for f, n in fams.items() if f != "Z"}
    assert set(low_h) == {"CT1", "CT2", "CT3", "CT4", "CT5", "CT6", "CT7"}
    assert low_h["CT2"] == 4 and low_h["CT6"] == 4
    # every peak with at most one h is in a family; every family occurs
    for k in peaks:
        assert (classify_peak(k) == "Z") == (k.source.count("h") >= 2)


def test_is_case_study_nf():
    assert is_case_study_nf(EMPTY)
    assert is_case_study_nf(word("a b a"))
    assert not is_case_study_nf(word("a a'"))
    assert is_case_study_nf(word("h b b a'"))
    assert is_case_study_nf(word("h"))
    assert not is_case_study_nf(word("h a b"))
    assert is_case_study_nf(word("h h"))
    assert not is_case_study_nf(word("h h a"))
    assert not is_case_study_nf(word("h b a b"))
    assert not is_case_study_nf(word("h b b' a"))


def test_reducible_word_maps_into_normal_forms(Qbar):
    # h a b is not itself a normal form; its normal form is
    assert not is_case_study_nf(word("h a b"))
    assert normalize(word("h a b"), Qbar) == word("h b a")
    assert is_case_study_nf(word("h b a"))


def test_prop31_driver_small():
    report = verify_prop31(4)
    assert report.passed


def test_figure2_driver_zero_bound():
    report = verify_figure2(0, 0, samples=0)
    assert report.passed


def test_section4_normal_forms_coincide(M4, N4):
    from rwlab.rewrite import enumerate_normal_forms

    assert enumerate_normal_forms(M4, 4) == enumerate_normal_forms(N4, 4)


def _branching_ct_params(rng, max_word_len, ct7_word_len):
    """The former per-family draws of random_ct_params, kept as a reference."""
    letters = ("a", "a'", "b", "b'")
    family = rng.choice(("CT1", "CT3", "CT4", "CT5", "CT7"))

    def rand_word(bound):
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, bound)))

    def e():
        return rng.choice((1, -1))

    if family == "CT1":
        return CtParams(
            "CT1", x=rng.choice(letters), w1=rand_word(max_word_len),
            w2=rand_word(max_word_len), eps=e(), delta=e(),
        )
    if family == "CT7":
        return CtParams(
            "CT7", w1=rand_word(ct7_word_len), eps1=e(), delta1=e(),
            w2=rand_word(ct7_word_len), eps2=e(), delta2=e(),
        )
    if family == "CT5":
        return CtParams("CT5", x=rng.choice(letters), w=rand_word(max_word_len), eps=e(), delta=e())
    return CtParams(family, w=rand_word(max_word_len), eps=e(), delta=e())


def test_random_ct_params_draws_like_the_per_family_branches():
    for seed in range(4):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(250):
            assert random_ct_params(ours, 4, 2) == _branching_ct_params(reference, 4, 2)


class _Built(Exception):
    """Raised in place of the first path a driver builds."""


@pytest.mark.parametrize(
    "driver, bound", [(verify_figure2, 2), (verify_identities, 3)]
)
def test_sweep_budget_counts_exactly_the_deterministic_instances(driver, bound, monkeypatch):
    counts = [int(detail.split()[0]) for _, _, detail in driver(bound, samples=0).checks]
    instances = sum(counts)

    def build(*args):
        raise _Built

    monkeypatch.setattr(casestudy, "build_ct_circuit", build)
    monkeypatch.setattr(casestudy, "build_C_path", build)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", instances - 1)
    with pytest.raises(RwlabError, match=f"more than {instances - 1} instances"):
        driver(bound, samples=0)
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", instances)
    with pytest.raises(_Built):  # the budget passed
        driver(bound, samples=0)
