"""Acceptance suite: every criterion at its stated bound and tolerance.

All comparisons are exact (symbolic equality of ring elements, exact word
equality); there are no numeric tolerances anywhere.  Each test prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

from rwlab.casestudy import (
    c_bar_rule,
    classify_peak,
    is_case_study_nf,
    preset,
    verify_figure2,
    verify_identities,
    verify_isometry,
    verify_obstruction,
    verify_prop31,
)
from rwlab.completion import is_confluent_bounded, knuth_bendix
from rwlab.core import word, words_over
from rwlab.invariant import A_LETTERS, CASE_STUDY_WEIGHTS, phi_path
from rwlab.rewrite import compare_shortlex, normalize
from rwlab.ring import zero
from rwlab.squier import compose, interchange_square, invert
from rwlab.structure import HClass, classify

from tests_helpers_paths import random_disjoint_edges, random_mixed_path

SIGNS = (1, -1)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_figure2_reproduction():
    start = time.time()
    rep = verify_figure2(max_word_len=4, ct7_word_len=3)
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 30
    report(1, "figure2 closed forms", ok, f"{elapsed:.1f}s, {len(rep.checks)} families")


def test_criterion_02_derivation_identities():
    rep = verify_identities(exhaust_len=5, samples=1000)
    report(2, "derivation identities (i)-(iv)", rep.passed)


def test_criterion_03_normal_forms_and_oracle():
    start = time.time()
    rep = verify_prop31(max_len=6, schema_var_bound=3)
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 60
    report(3, "normal forms and oracle agreement", ok, f"{elapsed:.1f}s")


def test_criterion_04_confluence_and_peak_families():
    qbar, q = preset("Qbar"), preset("Q")
    conf = is_confluent_bounded(qbar, 3)
    families = {classify_peak(k) for k, _ in conf.resolutions}
    families_ok = families == {"CT1", "CT2", "CT3", "CT4", "CT5", "CT6", "CT7", "Z"}
    every_low_h_classified = all(
        classify_peak(k) != "unclassified" for k, _ in conf.resolutions
    )
    q_report = is_confluent_bounded(q)
    q_pairs = [set(u.pair) for u in q_report.unresolved]
    q_ok = (not q_report.confluent) and {word("h b a b"), word("h b b a")} in q_pairs
    ok = conf.confluent and families_ok and every_low_h_classified and q_ok
    report(
        4,
        "bounded confluence and peak families",
        ok,
        f"{len(conf.resolutions)} peaks resolve; families {sorted(families)}",
    )


def test_criterion_05_termination_orientation():
    qbar = preset("Qbar")
    exceptions = 0
    checked = 0
    for r in qbar.rules:
        checked += 1
        if compare_shortlex(r.lhs, r.rhs, qbar.ordering) <= 0:
            exceptions += 1
    from rwlab.core import instantiate_schema

    for s in qbar.schemas:
        for v in words_over(s.variable_range, 4):
            inst = instantiate_schema(s, v)
            checked += 1
            if compare_shortlex(inst.lhs, inst.rhs, qbar.ordering) <= 0:
                exceptions += 1
    report(
        5,
        "shortlex orientation",
        exceptions == 0,
        f"{checked} rules checked, {exceptions} exceptions",
    )


def test_criterion_06_completion_discovers_swap_rules():
    q, qbar = preset("Q"), preset("Qbar")
    _, rep = knuth_bendix(q, max_new_rules=50, max_lhs_len=6)
    ok = rep.status == "bounded-out" and len(rep.added) == 50
    bad = []
    for rule in rep.added:
        lhs = rule.lhs
        matches = False
        if len(lhs) >= 3 and lhs[0] == "h" and lhs[-2] in ("a", "a'") and lhs[-1] in ("b", "b'"):
            eps = 1 if lhs[-2] == "a" else -1
            delta = 1 if lhs[-1] == "b" else -1
            inst = c_bar_rule(lhs[1:-2], eps, delta)
            matches = inst.lhs == lhs and normalize(inst.rhs, qbar) == rule.rhs
        if not matches:
            bad.append(rule)
    report(
        6,
        "completion discovers swap instances",
        ok and not bad,
        f"{len(rep.added)} rules discovered, {len(bad)} non-matching",
    )


def test_criterion_07_invariance_generators():
    q = preset("Q")
    ambient = preset("Qbar")
    z = zero(ambient)
    rng = random.Random(77)
    bad_squares = 0
    for _ in range(500):
        e1, e2 = random_disjoint_edges(q, rng)
        if phi_path(interchange_square(e1, e2), CASE_STUDY_WEIGHTS, ambient) != z:
            bad_squares += 1
    bad_loops = 0
    for _ in range(500):
        p = random_mixed_path(q, rng)
        if phi_path(compose(p, invert(p)), CASE_STUDY_WEIGHTS, ambient) != z:
            bad_loops += 1
    report(
        7,
        "invariance generators vanish",
        bad_squares == 0 and bad_loops == 0,
        f"500 squares, 500 cancellation loops",
    )


def test_criterion_08_structure():
    qbar = preset("Qbar")
    letters = qbar.alphabet.letters
    tags = (HClass.UNITS, HClass.HH, HClass.ZERO)
    bad = 0
    for n in range(6):
        for w in itertools.product(letters, repeat=n):
            count = normalize(w, qbar).count("h")
            if count > 2 or classify(w, qbar) != tags[count]:
                bad += 1
    classify_ok = bad == 0

    def exponent_vector(w):
        a = sum(1 if l == "a" else -1 if l == "a'" else 0 for l in w)
        b = sum(1 if l == "b" else -1 if l == "b'" else 0 for l in w)
        return (a, b)

    by_nf, by_vec = {}, {}
    sigma_ok = True
    for w in words_over(A_LETTERS, 5):
        nf = normalize(("h",) + w, qbar)
        vec = exponent_vector(w)
        if by_nf.setdefault(nf, vec) != vec or by_vec.setdefault(vec, nf) != nf:
            sigma_ok = False

    grid_ok = True
    for j in range(-5, 6):
        for k in range(-5, 6):
            base = (
                ("h",)
                + (("b",) * j if j >= 0 else ("b'",) * (-j))
                + (("a",) * k if k >= 0 else ("a'",) * (-k))
            )
            for x in ("a", "a'", "b", "b'"):
                nf = normalize(base + (x,), qbar)
                if nf.count("h") != 1 or not is_case_study_nf(nf):
                    grid_ok = False
    report(
        8,
        "three-class structure",
        classify_ok and sigma_ok and grid_ok,
        f"classify<=5: {'ok' if classify_ok else 'bad'}, "
        f"congruence<=5: {'ok' if sigma_ok else 'bad'}, stabilizer grid: {'ok' if grid_ok else 'bad'}",
    )


def test_criterion_09_obstruction_chain():
    rep = verify_obstruction(
        commutator_len=5, witness_word_len=3, kill_len=6, coset_powers=10
    )
    report(9, "obstruction chain", rep.passed)


def test_criterion_10_isometry():
    start = time.time()
    rep = verify_isometry(radius=4, h_radius=3, nf_len=6)
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 30
    report(10, "section-4 isometry", ok, f"{elapsed:.1f}s")
