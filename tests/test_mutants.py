"""A kill matrix: named faults, each paired with the cheapest check that must
catch it.

Each fault is injected by monkeypatch into every ``rwlab`` module that binds
the patched name, since several modules import their helpers by name.  A
fault inside a function's body is a copy of the function compiled from its
source, in its own module's namespace, with one piece of it replaced.  The
paired check runs at a small bound, first on the intact code, where it must
pass, then with the fault in place, where it must fail; it calls the faulty
name through its module, since a test module's own by-name import is not
patched, and it works on fresh presentations where a fault could leave a
wrong result in a shared cache.  A fault that survives its check fails the
suite.
"""

import __future__
import dataclasses
import inspect
import sys
import textwrap
from collections import deque

import pytest

import reference_completion as ref
import reference_rewrite as ref_rewrite
import rwlab
import test_compiled_search as compiled_search
import test_phi_differential as phi
import test_suffix_families as suffix
from rwlab import casestudy, completion, invariant, obstruction, rewrite, ring, squier, structure
from rwlab.casestudy import (
    build_C_path,
    m4_uncompleted,
    preset,
    verify_figure2,
    verify_identities,
    verify_prop31,
)
from rwlab.core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    word,
)
from rwlab.invariant import CtParams
from rwlab.rewrite import OrientationError
from rwlab.ring import from_word, scale, sub, total
from rwlab.squier import Path
from rwlab.structure import HClass
from test_circuit_pin import CIRCUITS_DIGEST, circuits_digest
from test_completion_differential import _duplicated_rewrite, _outcome, reference_knuth_bendix
from test_completion_live import certificates_hold, derivations_match, live_lists_match
from test_declared_letters import assert_rejects
from test_rewrite import UNORIENTED
from test_rewrite_differential import assert_same
from test_rewrite_one_string import CUT_RUN, CUT_RUN_WORD
from test_squier_differential import assert_valid
from test_suffix_families import NON_CONFLUENT
from test_witness_differential import commutator_cases_match, constants_stay_with_their_ambient


def _patch_everywhere(monkeypatch, module, name, fault):
    """Replace ``module.name`` by ``fault`` in every rwlab module bound to it."""
    original = getattr(module, name)
    modules = [m for key, m in sys.modules.items() if key == "rwlab" or key.startswith("rwlab.")]
    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, fault)


def _mutated(owner, name, old, new):
    """``owner.name``, a function of an rwlab module or a method of one of
    its classes, compiled again from its source with ``old`` replaced by
    ``new``, in the namespace of the module that defines it."""
    original = getattr(owner, name)
    module = sys.modules[original.__module__]
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}"
    flags = __future__.annotations.compiler_flag
    scope = {}
    code = compile(source.replace(old, new), module.__file__, "exec", flags)
    exec(code, vars(module), scope)
    return scope[name]


def phi_drops_the_last_edge(monkeypatch):
    phi_path = invariant.phi_path

    def fault(p, weights, ambient):
        return phi_path(Path(p.start, p.edges[:-1]), weights, ambient)

    _patch_everywhere(monkeypatch, invariant, "phi_path", fault)


def completeness_verdict_always_true(monkeypatch):
    _patch_everywhere(monkeypatch, completion, "is_complete", lambda p: True)


def commutator_on_the_wrong_side(monkeypatch):
    def left_mul(x, w):  # w · x where the right action x · w belongs
        return total((scale(c, from_word(w + u, x.ambient)) for u, c in x.terms.items()), x.ambient)

    def fault(x, w, eps, delta):
        ab, ba = invariant.swap_pair(eps, delta)
        return sub(left_mul(x, w + ba), left_mul(x, w + ab))

    _patch_everywhere(monkeypatch, invariant, "commutator", fault)


def commutator_keeps_a_zero_coefficient(monkeypatch):
    fault = _mutated(invariant, "commutator", "acc.items() if c}", "acc.items()}")
    _patch_everywhere(monkeypatch, invariant, "commutator", fault)


def evaluate_ignores_the_multiplier(monkeypatch):
    fault = _mutated(
        obstruction.Witness,
        "evaluate",
        "right_mul(source_value(t.source, ambient), t.multiplier)",
        "source_value(t.source, ambient)",
    )
    monkeypatch.setattr(obstruction.Witness, "evaluate", fault)


# the swap paths of build_C_path and of every circuit are written by _swap_steps


def swap_path_flips_delta(monkeypatch):
    swap_steps = casestudy._swap_steps

    def fault(w, eps, delta, *placed):
        return swap_steps(w, eps, -delta, *placed)

    _patch_everywhere(monkeypatch, casestudy, "_swap_steps", fault)


def swap_path_loses_its_reverse_signs(monkeypatch):
    swap_steps = casestudy._swap_steps

    def fault(*args):
        return [(i, j, rule, 1) for i, j, rule, _ in swap_steps(*args)]

    _patch_everywhere(monkeypatch, casestudy, "_swap_steps", fault)


def left_descent_goes_in_first_piece_first(monkeypatch):
    fault = _mutated(casestudy, "build_ct_circuit", "(-1, left[::-1])", "(-1, left)")
    _patch_everywhere(monkeypatch, casestudy, "build_ct_circuit", fault)


def phi_context_is_cut_short(monkeypatch):
    fault = _mutated(invariant, "phi_path", "tuple(u[j:])", "tuple(u[j:-1])")
    _patch_everywhere(monkeypatch, invariant, "phi_path", fault)


def the_identity_is_kept_for_every_ambient_at_once(monkeypatch):
    fault = _mutated(ring, "identity", "kept = ambient.__dict__", "kept = identity.__dict__")
    _patch_everywhere(monkeypatch, ring, "identity", fault)


def the_units_are_kept_for_every_ambient_at_once(monkeypatch):
    fault = _mutated(
        invariant, "closed_form_ct", "units = ambient.__dict__", "units = closed_form_ct.__dict__"
    )
    _patch_everywhere(monkeypatch, invariant, "closed_form_ct", fault)


def edges_drop_the_first_letter_of_the_left_context(monkeypatch):
    fault = _mutated(squier.Path, "__getattr__", "Edge(tuple(u[:i])", "Edge(tuple(u[1:i])")
    monkeypatch.setattr(squier.Path, "__getattr__", fault)


def act_leaves_positions_unshifted(monkeypatch):
    fault = _mutated(squier, "act", "_shifted(p.steps, len(x))", "p.steps")
    _patch_everywhere(monkeypatch, squier, "act", fault)


def closure_forgets_I_a(monkeypatch):
    # K_a, C_pp and Z_a follow from the other rules through words at most two
    # letters longer, so forgetting one changes no class among words of up to
    # the closure's bound less two letters, and prop31 compares words of up to
    # its bound less four; I_a does not follow from the others
    equivalence_classes = completion.equivalence_classes

    def fault(p, max_len):
        rules = tuple(r for r in p.rules if r.name != "I_a")
        return equivalence_classes(dataclasses.replace(p, rules=rules), max_len)

    _patch_everywhere(monkeypatch, completion, "equivalence_classes", fault)


def reduction_path_drops_its_last_step(monkeypatch):
    fault = _mutated(rewrite, "reduction_path", "tuple(taken)", "tuple(taken[:-1])")
    _patch_everywhere(monkeypatch, rewrite, "reduction_path", fault)


def terminal_cell_keeps_the_word_before_the_last_step(monkeypatch):
    fault = _mutated(
        rewrite,
        "reduction_path",
        "head = (source,)",
        "head = (source[:i] + rule.lhs + source[i + len(rule.rhs) :] if steps else source,)",
    )
    _patch_everywhere(monkeypatch, rewrite, "reduction_path", fault)
    # the fault is in the cells a search stores, and the check reduces on the
    # shared Qbar preset: it gets empty path caches while the fault is in
    # place, so the check searches again and the wrong cells go with them
    qbar = vars(preset("Qbar"))
    for name, empty in (("_path_cache", {}), ("_path_rules", {}), ("_path_order", deque())):
        monkeypatch.setitem(qbar, name, empty)


def dropped_equations_pushed_in_order(monkeypatch):
    fault = _mutated(
        completion, "knuth_bendix", "pending.extend(reversed(dropped))", "pending.extend(dropped)"
    )
    _patch_everywhere(monkeypatch, completion, "knuth_bendix", fault)


def added_rule_takes_a_name_already_held(monkeypatch):
    fault = _mutated(completion, "knuth_bendix", " if name not in taken)", ")")
    _patch_everywhere(monkeypatch, completion, "knuth_bendix", fault)


def added_rule_oriented_the_wrong_way(monkeypatch):
    fault = _mutated(
        completion, "knuth_bendix", "(u, v) if c > 0 else (v, u)", "(v, u) if c > 0 else (u, v)"
    )
    _patch_everywhere(monkeypatch, completion, "knuth_bendix", fault)


def peaks_drop_the_empty_factor(monkeypatch):
    fault = _mutated(
        completion,
        "_configurations",
        "for e in range(s, len(l2) + 1):",
        "for e in range(s + 1, len(l2) + 1):",
    )
    monkeypatch.setattr(completion, "_configurations", fault)


def certificate_survives_an_added_lhs(monkeypatch):
    fault = _mutated(completion._LivePeaks, "_sync", "if m.text in words]", "if False]")
    monkeypatch.setattr(completion._LivePeaks, "_sync", fault)


def live_index_keeps_dropped_peaks(monkeypatch):
    fault = _mutated(completion._LivePeaks, "_remove", "e.peak = None", "pass")
    monkeypatch.setattr(completion._LivePeaks, "_remove", fault)


def derived_matcher_keeps_a_dropped_entry(monkeypatch):
    fault = _mutated(
        rewrite._Matcher,
        "_derived",
        "cut, rank = at + 1, entries[at][0]",
        "cut, rank = at + (new is not None), entries[at][0]",
    )
    monkeypatch.setattr(rewrite._Matcher, "_derived", fault)


def derived_matcher_keeps_the_old_rhs(monkeypatch):
    fault = _mutated(
        rewrite._Matcher,
        "_derived",
        "[self._entry(rank, new)]",
        "[self._entry(rank, new)[:2] + self._entry(rank, old or new)[2:]]",
    )
    monkeypatch.setattr(rewrite._Matcher, "_derived", fault)


def derivation_splices_the_base_lists(monkeypatch):
    fault = _mutated(
        rewrite._Matcher,
        "_derived",
        "entries = entries[:at] + put + entries[cut:]",
        "entries[at:cut] = put",
    )
    monkeypatch.setattr(rewrite._Matcher, "_derived", fault)


def the_alternation_is_in_table_order(monkeypatch):
    fault = _mutated(
        rewrite._Matcher, "ranked", "sorted(plain, key=lambda lhs: plain[lhs][0][0])", "list(plain)"
    )
    monkeypatch.setattr(rewrite._Matcher, "ranked", fault)


def the_alternation_is_in_lexicographic_order(monkeypatch):
    fault = _mutated(
        rewrite._Matcher, "ranked", "sorted(plain, key=lambda lhs: plain[lhs][0][0])", "sorted(plain)"
    )
    monkeypatch.setattr(rewrite._Matcher, "ranked", fault)


def the_compiled_search_accepts_a_match_at_hi(monkeypatch):
    fault = _mutated(rewrite._Matcher, "_plain", "m.start() >= hi", "m.start() > hi")
    monkeypatch.setattr(rewrite._Matcher, "_plain", fault)


def a_derived_matcher_inherits_its_parents_count(monkeypatch):
    fault = _mutated(
        rewrite._Matcher, "_derived", "m._index()", "m._index(); m.scanned = self.scanned"
    )
    monkeypatch.setattr(rewrite._Matcher, "_derived", fault)


def invert_keeps_the_edge_order(monkeypatch):
    fault = _mutated(squier, "invert", "in reversed(p.steps)", "in p.steps")
    _patch_everywhere(monkeypatch, squier, "invert", fault)


def normalize_skips_the_orientation_check(monkeypatch):
    fault = _mutated(rewrite, "normalize", "m = check_orientation(p)", "m = _matcher(p)")
    _patch_everywhere(monkeypatch, rewrite, "normalize", fault)


def a_long_reduction_reads_its_normal_form_from_the_kept_words(monkeypatch):
    fault = _mutated(
        rewrite,
        "normalize",
        "nf = w if last is s else m.word(last)",
        "nf = w if passed[-1] is s else m.word(passed[-1])",
    )
    _patch_everywhere(monkeypatch, rewrite, "normalize", fault)


def the_complete_branch_keeps_no_key_for_its_input(monkeypatch):
    fault = _mutated(
        rewrite,
        "normalize_by_passes",
        "[s] if nf is not None else [s, last]",
        "[] if nf is not None else [last]",
    )
    _patch_everywhere(monkeypatch, rewrite, "normalize_by_passes", fault)


def the_complete_branch_keys_its_input_tuple_again(monkeypatch):
    fault = _mutated(
        rewrite,
        "normalize_by_passes",
        "[s] if nf is not None else [s, last]",
        "[w, s] if nf is not None else [w, s, last]",
    )
    _patch_everywhere(monkeypatch, rewrite, "normalize_by_passes", fault)


def normal_form_reduces_leftmost_on_a_complete_ambient(monkeypatch):
    fault = _mutated(
        completion,
        "normal_form",
        "normalize_by_passes(w, p) if complete else normalize(w, p)",
        "normalize(w, p)",
    )
    _patch_everywhere(monkeypatch, completion, "normal_form", fault)


def undeclared_letter_mirrors_to_a_shared_character(monkeypatch):
    # the former mirror, which gave every undeclared letter the character "\0"
    fault = _mutated(
        rewrite,
        "_mirror",
        '"".join(map(chars.__getitem__, w))',
        '"".join(chars.get(x, "\\0") for x in w)',
    )
    _patch_everywhere(monkeypatch, rewrite, "_mirror", fault)


def a_failed_alternative_keeps_its_frontiers(monkeypatch):
    fault = _mutated(rewrite._Matcher, "_resume", "v = out.start()", "v = out.start(); continue")
    monkeypatch.setattr(rewrite._Matcher, "_resume", fault)


def a_pass_stops_after_its_first_round(monkeypatch):
    fault = _mutated(rewrite._Matcher, "passes", "s = t", "return")
    monkeypatch.setattr(rewrite._Matcher, "passes", fault)


def schema_matches_one_letter_too_far(monkeypatch):
    fault = _mutated(
        rewrite._Matcher,
        "leftmost",
        "return m.start(), m.end(), a, b,",
        "return m.start(), m.end() + 1, a, b,",
    )
    monkeypatch.setattr(rewrite._Matcher, "leftmost", fault)


def classify_ignores_z(monkeypatch):
    fault = _mutated(
        structure, "classify", 'count = 2 if "z" in nf else nf.count("h")', 'count = nf.count("h")'
    )
    _patch_everywhere(monkeypatch, structure, "classify", fault)


def isometry_skips_the_last_vertex(monkeypatch):
    fault = _mutated(structure, "isometry_check", "for u in vertices:", "for u in vertices[:-1]:")
    _patch_everywhere(monkeypatch, structure, "isometry_check", fault)


def passes(assertion):
    """A check that holds when ``assertion()`` raises nothing."""

    def check():
        try:
            assertion()
        except (AssertionError, RwlabError):
            return False
        return True

    return check


def phi_to_x_witness_holds(params):
    return passes(lambda: obstruction.phi_to_x_witness(params, preset("P")))


def figure2(bound):
    return lambda: verify_figure2(bound, bound, samples=0).passed


def identities(bound):
    return lambda: verify_identities(bound, samples=0).passed


def prop31(bound):
    return lambda: verify_prop31(bound, schema_var_bound=0).passed


# An empty lhs is inside every lhs, once per position.
EMPTY_LHS = Presentation(
    Alphabet(("a", "b")), (Rule("e", (), ("a",)), Rule("r", ("a", "b"), ("b",)))
)

# The first search resolves the peak of r0 and the instance a a -> a, then
# adds a -> ε: its lhs occurs in that peak's words, and it drops r0, whose
# peaks leave the index.
SMALL = Presentation(
    Alphabet(("a", "b", "c")),
    (Rule("r0", ("a", "b"), ()),),
    (RuleSchema("s", "X", ("a",), (), ("a", "a"), (), ("a",)),),
    OrderingSpec(("b", "a", "c")),
)


# The fighting pair with its first rule named kb1: a run adds kb2 and kb3.
HOLDS_KB1 = Presentation(
    Alphabet(("x", "y")),
    (Rule("kb1", word("x y"), word("x")), Rule("r2", word("y x"), word("y"))),
    (),
    OrderingSpec(("x", "y")),
)


def peaks_match_the_reference(p):
    return lambda: completion.critical_peaks(p) == ref.critical_peaks(p)


def peak_paths_match_the_reference(name, bound):
    # one presentation for all peaks, so that later results take served tails
    def check():
        p, oracle = dataclasses.replace(preset(name)), dataclasses.replace(preset(name))
        for peak in completion.critical_peaks(p, bound):
            res = completion.resolve_peak(peak, p)
            if (res.p1, res.p2) != (
                ref_rewrite.reduction_path(peak.result1, oracle),
                ref_rewrite.reduction_path(peak.result2, oracle),
            ):
                return False
        return True

    return check


def inverse_walks(p):
    # the reference walk of the former ``Path`` constructor
    return passes(lambda: assert_valid(squier.invert(p)))


def acted_walks(x, p, y):
    # the reference walk of the former ``Path`` constructor
    return passes(lambda: assert_valid(squier.act(x, p, y)))


def same_reduction_on_a_fresh_qbar(w):
    # a fresh presentation, so that no cache serves what the intact run stored
    return passes(lambda: assert_same(word(w), dataclasses.replace(preset("Qbar"))))


def normalize_rejects(case):
    _, p, w, _ = case  # message, unoriented presentation, word, redex start

    def check():
        try:
            # a fresh copy: the fault must not leave its result in p's cache
            rewrite.normalize(w, dataclasses.replace(p))
        except OrientationError:
            return True
        return False

    return check


def a_cached_word_costs_one_lookup():
    # the test patches is_complete to None, so a repeated word that misses raises TypeError
    with pytest.MonkeyPatch.context() as patched:
        try:
            suffix.test_a_cached_word_costs_one_lookup(patched)
        except (AssertionError, TypeError):
            return False
    return True


def swap_paths_take_no_leftmost_step(n):
    def check():
        with pytest.MonkeyPatch.context() as patched:
            phi.test_phi_of_a_swap_path_takes_linear_steps(patched, preset("P"), n)

    return passes(check)


def rejects_the_undeclared_letter(entry, w, letter):
    # a fresh Qbar each time: what the faulty run stores must not reach a later check
    return passes(lambda: assert_rejects(entry, word(w), dataclasses.replace(preset("Qbar")), letter))


def normal_forms_match_the_reference(p, words):
    # a fresh copy each time: a wrong normal form must not stay in p's cache
    def check():
        q, oracle = dataclasses.replace(p), dataclasses.replace(p)
        got = [completion.normal_form(w, q) for w in words]
        return got == [ref_rewrite.normalize(w, oracle) for w in words]

    return check


def z_is_zero(name):
    return lambda: structure.classify(word("z"), preset(name)) == HClass.ZERO


def isometry_counts_pairs(radius, pairs):
    return lambda: structure.isometry_check(preset("M4"), preset("N4"), radius).pair_count == pairs


def few_compiles_in_a_q_run():
    with pytest.MonkeyPatch.context() as patched:
        return len(compiled_search.q_run_compiles(patched, (20, 8))) <= 3


def completes_like_the_reference(make, *args):
    def check():
        p = make()
        got = completion.knuth_bendix(p, *args)
        return _outcome(got) == _outcome(reference_knuth_bendix(p, *args))

    return check


# the smallest bound of the cheaper check that catches each fault
KILL_MATRIX = {
    "phi drops the last edge": (phi_drops_the_last_edge, identities(1)),
    "commutator multiplies on the wrong side": (commutator_on_the_wrong_side, figure2(0)),
    # nf(x a b) = y b there, but a pass that rewrites a b first gives x z
    "the completeness verdict is always true": (
        completeness_verdict_always_true,
        normal_forms_match_the_reference(NON_CONFLUENT, [word("x a b"), word("a b")]),
    ),
    # a b b' a' leaves a a' after one pass, and ε after two
    "a pass stops after its first round": (
        a_pass_stops_after_its_first_round,
        normal_forms_match_the_reference(preset("P"), [word("a b b' a'")]),
    ),
    # 1 + b a b' a' times b a - a b: the b a of the two tails cancels
    "commutator keeps a zero coefficient": (
        commutator_keeps_a_zero_coefficient,
        commutator_cases_match,
    ),
    # both X terms of a CT1 with x = a carry a non-empty multiplier, w·bᵈaᵉ
    "evaluate ignores a non-empty multiplier": (
        evaluate_ignores_the_multiplier,
        phi_to_x_witness_holds(CtParams("CT1", x="a", w1=EMPTY, w2=word("b a"), eps=1, delta=-1)),
    ),
    "the swap path flips delta": (swap_path_flips_delta, figure2(0)),
    "the swap path loses its reverse steps' sign": (swap_path_loses_its_reverse_signs, figure2(0)),
    "a left descent goes in first piece first": (left_descent_goes_in_first_piece_first, figure2(0)),
    "phi's right context is cut short": (phi_context_is_cut_short, figure2(0)),
    "the identity is kept for every ambient at once": (
        the_identity_is_kept_for_every_ambient_at_once,
        constants_stay_with_their_ambient,
    ),
    "the units are kept for every ambient at once": (
        the_units_are_kept_for_every_ambient_at_once,
        constants_stay_with_their_ambient,
    ),
    "built-on-demand edges drop the first letter of the left context": (
        edges_drop_the_first_letter_of_the_left_context,
        lambda: circuits_digest() == CIRCUITS_DIGEST,
    ),
    # circuits do not call act, so the check walks an acted swap path
    "act leaves the positions of the steps unshifted": (
        act_leaves_positions_unshifted,
        acted_walks(word("a"), build_C_path(word("a b"), 1, 1), word("b")),
    ),
    "the closure forgets rule I_a": (closure_forgets_I_a, prop31(4)),
    "a reduction path drops its last step": (
        reduction_path_drops_its_last_step,
        peak_paths_match_the_reference("Qbar", 0),
    ),
    "the terminal cell keeps the word before the last step": (
        terminal_cell_keeps_the_word_before_the_last_step,
        prop31(2),
    ),
    "knuth_bendix pushes dropped equations in order": (
        dropped_equations_pushed_in_order,
        completes_like_the_reference(m4_uncompleted, 40, 8, 1),
    ),
    # Presentation rejects the rebuilt rule list, with two rules named kb1
    "knuth_bendix names an added rule with a name the input holds": (
        added_rule_takes_a_name_already_held,
        lambda: derivations_match(HOLDS_KB1, (20, 6)),
    ),
    # the derived matcher keeps the unoriented rule, and the next reduction raises
    "knuth_bendix orients an added rule the wrong way": (
        added_rule_oriented_the_wrong_way,
        lambda: derivations_match(_duplicated_rewrite(), (10, 6)),
    ),
    "critical_peaks drops the empty factor": (
        peaks_drop_the_empty_factor,
        peaks_match_the_reference(EMPTY_LHS),
    ),
    "a certificate survives an added lhs that occurs in its words": (
        certificate_survives_an_added_lhs,
        lambda: certificates_hold(SMALL, (6, 5, 0)),
    ),
    "the live index keeps a dropped rule's peaks": (
        live_index_keeps_dropped_peaks,
        lambda: live_lists_match(SMALL, (6, 5, 0)),
    ),
    # d1's rhs is rewritten on the caller's presentation, then d1 is dropped
    "a derived matcher keeps a dropped rule's entry": (
        derived_matcher_keeps_a_dropped_entry,
        lambda: derivations_match(_duplicated_rewrite(), (10, 6)),
    ),
    "a rewritten rule keeps its old rhs string in the derived table": (
        derived_matcher_keeps_the_old_rhs,
        lambda: derivations_match(_duplicated_rewrite(), (10, 6)),
    ),
    "a derivation splices the base's lists in place, changing the caller's presentation": (
        derivation_splices_the_base_lists,
        lambda: derivations_match(_duplicated_rewrite(), (10, 6)),
    ),
    # at a b c the first ranked lhs is a b before r0 is dropped, a b c after
    "the plain alternation is in table order": (
        the_alternation_is_in_table_order,
        compiled_search.compiled_search_matches_the_table_scan,
    ),
    # a sorts before a b and a b c, and its rule is declared last
    "the plain alternation is in lexicographic order": (
        the_alternation_is_in_lexicographic_order,
        compiled_search.compiled_search_matches_the_table_scan,
    ),
    # c a b c has a b at 1, outside the window [0, 1)
    "the compiled search accepts a match that starts at hi": (
        the_compiled_search_accepts_a_match_at_hi,
        compiled_search.compiled_search_matches_the_table_scan,
    ),
    # Q's matcher has scanned 72 positions when the run derives its first
    # matcher; carried along, the count compiles 11 of the run's 20
    "a derived matcher inherits its parent's count": (
        a_derived_matcher_inherits_its_parents_count,
        few_compiles_in_a_q_run,
    ),
    "invert keeps the edge order": (
        invert_keeps_the_edge_order,
        inverse_walks(build_C_path(word("a b"), 1, 1)),
    ),
    "normalize skips the orientation check": (
        normalize_skips_the_orientation_check,
        normalize_rejects(UNORIENTED[0]),
    ),
    # a a b h h takes 11 steps, one more than twice its letters, so the
    # reduction keeps only its input and its mirror
    "a long reduction reads its normal form from the kept words": (
        a_long_reduction_reads_its_normal_form_from_the_kept_words,
        same_reduction_on_a_fresh_qbar("a a b h h"),
    ),
    # the suffixes of a b a' b' a a b again, with the verdict unreadable
    "the complete branch keeps no key for its input": (
        the_complete_branch_keeps_no_key_for_its_input,
        a_cached_word_costs_one_lookup,
    ),
    "the complete branch keys its input tuple again": (
        the_complete_branch_keys_its_input_tuple_again,
        passes(suffix.test_passes_key_words_by_their_mirror_alone),
    ),
    # the contexts of the swap paths of 10 letters on a cold P take leftmost
    # steps; at 1 letter every context is irreducible
    "normal_form reduces leftmost on a complete ambient": (
        normal_form_reduces_leftmost_on_a_complete_ambient,
        swap_paths_take_no_leftmost_step(10),
    ),
    # the former mirror gives h a q x b a path where the error belongs
    "an undeclared letter mirrors to a shared character": (
        undeclared_letter_mirrors_to_a_shared_character,
        rejects_the_undeclared_letter(rewrite.reduction_path, "h a q x b", "q"),
    ),
    # s0 fails on the e that s1 wrote into its run, then s2 cuts past it
    "a failed alternative keeps its frontiers from before the rewrite": (
        a_failed_alternative_keeps_its_frontiers,
        normal_forms_match_the_reference(CUT_RUN, [CUT_RUN_WORD]),
    ),
    "a schema matches one letter too far": (
        schema_matches_one_letter_too_far,
        same_reduction_on_a_fresh_qbar("h a' b' a b"),
    ),
    "classify ignores z": (classify_ignores_z, z_is_zero("M4")),
    # the 7 vertices of the radius-1 ball in ordered pairs, as the
    # `verify isometry --radius 1` output pins them
    "isometry_check skips the last vertex": (
        isometry_skips_the_last_vertex,
        isometry_counts_pairs(1, 49),
    ),
}


@pytest.mark.parametrize("fault", KILL_MATRIX)
def test_the_paired_check_catches_the_fault(fault, monkeypatch):
    inject, check = KILL_MATRIX[fault]
    assert check(), "the check must pass on the intact code"
    inject(monkeypatch)
    assert not check(), f"fault survived: {fault}"


def test_patch_everywhere_reaches_the_by_name_imports(monkeypatch):
    fault = object()
    _patch_everywhere(monkeypatch, invariant, "phi_path", fault)
    assert invariant.phi_path is fault and casestudy.phi_path is fault and rwlab.phi_path is fault
