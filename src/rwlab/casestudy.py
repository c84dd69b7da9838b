"""Builders for the bundled case-study systems and end-to-end verifiers.

Presets
-------
P     free-group system over a, a', b, b' (the four cancellation rules)
Q     P plus h: commutation of A-letters past h, the pair swaps after a
      single h, and absorption after h h
Qbar  Q extended by the four swap schemas ``h w aᵉ bᵈ -> h w bᵈ aᵉ``,
      a complete system whose irreducible words are the normal forms
M4    Q with a redundant generator z and h h = z, as a completed system
      (the z-absorption rules are exactly what completion discovers; a
      test replays the completion and checks the rule sets coincide)
N4    the companion system where h is idempotent and z is a genuine zero

The verification drivers sweep the operations over bounded parameter
ranges and return line-oriented reports; sweeps are deterministic and
single-process.  Each per-instance sweep goes through ``Report.check``, which
counts the instances and names the first one that fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .core import (
    EMPTY,
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    Word,
    instantiate_schema,
    is_freely_reduced,
    word_str,
    words_over,
)
from .completion import (
    CriticalCircuit,
    bfs_equivalence_oracle,
    critical_peaks,
    equivalence_classes,
    resolve_peak,
)
from .invariant import (
    A_LETTERS,
    CT_FAMILIES,
    LETTER_EXPONENTS,
    REQUIRED_SLOTS,
    WORD_SLOTS,
    CtParams,
    CASE_STUDY_WEIGHTS,
    WeightSpec,
    a_pow,
    b_pow,
    closed_form_ct,
    commutator,
    partial_derivation,
    phi_edge,
    phi_path,
    swap_pair,
)
from .obstruction import (
    ONE_MINUS_A,
    XGenRef,
    basepoint_apply,
    commutator_witness,
    phi_to_x_witness,
    source_value,
)
from .rewrite import check_budget, enumerate_normal_forms, normalize
from .ring import RingElement, from_word, identity, negate, scale, sub
from .squier import Edge, Path
from .structure import isometry_check

_EXP = {1: "p", -1: "m"}


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _i_rules() -> List[Rule]:
    return [Rule(f"I_{x}", (x, _A_ALPHABET.involution[x]), EMPTY) for x in A_LETTERS]


def _k_rules() -> List[Rule]:
    return [Rule(f"K_{x}", (x, "h"), ("h", x)) for x in A_LETTERS]


def _c_rules() -> List[Rule]:
    out = []
    for eps, delta in itertools.product((1, -1), repeat=2):
        ab, ba = swap_pair(eps, delta)
        out.append(Rule(f"C_{_EXP[eps]}{_EXP[delta]}", ("h",) + ab, ("h",) + ba))
    return out


def _z_rules() -> List[Rule]:
    return [Rule(f"Z_{y}", ("h", "h", y), ("h", "h")) for y in A_LETTERS + ("h",)]


def _c_schemas() -> List[RuleSchema]:
    out = []
    for eps, delta in itertools.product((1, -1), repeat=2):
        ab, ba = swap_pair(eps, delta)
        out.append(
            RuleSchema(
                name=f"Cb_{_EXP[eps]}{_EXP[delta]}",
                variable="w",
                variable_range=A_LETTERS,
                lhs_prefix=("h",),
                lhs_suffix=ab,
                rhs_prefix=("h",),
                rhs_suffix=ba,
            )
        )
    return out


_INVERSES = (("a", "a'"), ("b", "b'"))
_A_ALPHABET = Alphabet(A_LETTERS, _INVERSES)
_B_ALPHABET = Alphabet(A_LETTERS + ("h",), _INVERSES)
_BZ_ALPHABET = Alphabet(A_LETTERS + ("h", "z"), _INVERSES)
_HZ = Rule("Hz", ("h", "h"), ("z",))


def _z_system(extra_rules: List[Rule], base: List[Rule]) -> Presentation:
    """Q's letters plus z: the rules ``base`` then ``extra_rules``, and the swap schemas."""
    order = OrderingSpec(A_LETTERS + ("h", "z"))
    return Presentation(_BZ_ALPHABET, tuple(base + extra_rules), tuple(_c_schemas()), order)


PRESETS = ("P", "Q", "Qbar", "M4", "N4")


@lru_cache(maxsize=len(PRESETS))
def preset(name: str) -> Presentation:
    """The named built-in presentation, one of ``PRESETS``."""
    if name == "P":
        return Presentation(_A_ALPHABET, tuple(_i_rules()), (), OrderingSpec(A_LETTERS))
    if name == "Q":
        return Presentation(
            _B_ALPHABET,
            tuple(_i_rules() + _k_rules() + _c_rules() + _z_rules()),
            (),
            OrderingSpec(A_LETTERS + ("h",)),
        )
    if name == "Qbar":
        q = preset("Q")
        return Presentation(q.alphabet, q.rules, tuple(_c_schemas()), q.ordering)
    if name in ("M4", "N4"):
        # M4 sends h h to z, in N4 h is idempotent; z is the zero of both
        h_square = _HZ if name == "M4" else Rule("Hh", ("h", "h"), ("h",))
        letters = A_LETTERS + ("h",)
        zero_rules = (
            [Rule(f"Zl_{y}", ("z", y), ("z",)) for y in letters]
            + [Rule(f"Zr_{y}", (y, "z"), ("z",)) for y in letters]
            + [Rule("Zz", ("z", "z"), ("z",))]
        )
        return _z_system([h_square] + zero_rules, _i_rules() + _k_rules() + _c_rules())
    raise RwlabError(f"unknown preset {name} (expected P, Q, Qbar, M4 or N4)")


def build_presentations() -> Dict[str, Presentation]:
    return {name: preset(name) for name in PRESETS}


def m4_uncompleted() -> Presentation:
    """Q plus the redundant generator z and h h -> z, before completion.

    Running knuth_bendix on this system discovers the z-absorption rules of
    the M4 preset; M4 itself ships the completed rule set so that loading it
    is cheap and deterministic.
    """
    return _z_system([_HZ], list(preset("Q").rules))


# ---------------------------------------------------------------------------
# Swap paths and the critical-circuit families
# ---------------------------------------------------------------------------


def c_bar_rule(w: Word, eps: int, delta: int) -> Rule:
    """The swap rule ``h w aᵉ bᵈ -> h w bᵈ aᵉ``: the plain rule when w is
    empty, otherwise the schema instance carrying its variable."""
    if not w:
        return preset("Q").rule_named(f"C_{_EXP[eps]}{_EXP[delta]}")
    return instantiate_schema(preset("Qbar").schema_named(f"Cb_{_EXP[eps]}{_EXP[delta]}"), w)


@lru_cache(maxsize=4)
def _swap_rules(eps: int, delta: int) -> tuple:
    """The two sides ``(aᵉ bᵈ, bᵈ aᵉ)`` of the pair swap, its rule of Q, and
    Q's commutation rule ``K_x`` of each letter x."""
    q = preset("Q")
    k_rules = {x: q.rule_named(f"K_{x}") for x in A_LETTERS}
    return swap_pair(eps, delta), q.rule_named(f"C_{_EXP[eps]}{_EXP[delta]}"), k_rules


def _swap_steps(w: Word, eps: int, delta: int, at: int = 0, sign: int = 1) -> list:
    """The steps ``(i, j, rule, sign)`` of the swap path from ``h w aᵉ bᵈ``
    to ``h w bᵈ aᵉ`` over Q, with h at ``at``, backwards for ``sign`` −1.

    Each letter of w is carried out in front of h by a reverse commutation
    step, the bare pair swap happens in the middle, and the letters are
    carried back; 2|w| + 1 steps in total, each starting where the one
    before it ends.  The rules' sides have equal lengths and the carrying
    steps are symmetric, so backwards only the pair swap's sign flips.
    Every swap path, alone or in a circuit, is written here.
    """
    _, c_rule, k_rules = _swap_rules(eps, delta)
    k = [k_rules[x] for x in w]  # x h -> h x: both sides have two letters
    n = len(k)
    steps = [(at + i, at + i + 2, k[i], -1) for i in range(n)]
    steps.append((at + n, at + n + 3, c_rule, sign))  # h aᵉ bᵈ -> h bᵈ aᵉ
    steps += [(at + i, at + i + 2, k[i], 1) for i in range(n - 1, -1, -1)]
    return steps


def build_C_path(w: Word, eps: int, delta: int) -> Path:
    """The swap path from ``h w aᵉ bᵈ`` to ``h w bᵈ aᵉ`` over Q: the swap
    rule ``c_bar_rule(w, eps, delta)`` realized by 2|w| + 1 edges of Q.

    The path is the steps of ``_swap_steps``; Φ reads them, and the edges
    are built only when read."""
    (tail_l, tail_r), _, _ = _swap_rules(eps, delta)
    hw = ("h",) + w
    return Path._of_steps(hw + tail_l, tuple(_swap_steps(w, eps, delta)), hw + tail_r)


def build_ct_circuit(params: CtParams) -> Path:
    """The closed path of the named family over Q, each swap written as its
    swap path.

    The circuit starts at the peak source, descends the right-hand side of
    the diagram, and climbs back up the left-hand side, which is the left
    descent inverted.  A descent lists pieces at their offsets in the word:
    ``(v, eps, delta, at)`` for the swap path of ``v`` with h at ``at``,
    ``(name, at)`` for one Q rule.  One loop writes the steps of the whole
    circuit into one list: the right descent's pieces in order, then the
    left descent's last first, each backwards, a rule as ``(at, at + |rhs|,
    rule, −1)``.  The pieces chain by construction, so no walk validates
    them, and no edge is built until a caller reads the edges.
    """
    f, x, xinv = params.family, params.x, _A_ALPHABET.involution.get(params.x)
    w, w1, w2, eps, delta = params.w, params.w1, params.w2, params.eps, params.delta
    if f == "CT1":
        tail_l, _ = swap_pair(eps, delta)
        i_x, at = f"I_{x}", 1 + len(w1)
        start = ("h",) + w1 + (x, xinv) + w2 + tail_l
        right = [(w1 + (x, xinv) + w2, eps, delta, 0), (i_x, at)]
        left = [(i_x, at), (w1 + w2, eps, delta, 0)]
    elif f == "CT2":
        start, right, left = (x, xinv, x), [(f"I_{xinv}", 1)], [(f"I_{x}", 0)]
    elif f == "CT6":
        start = (x, xinv, "h")
        right = [(f"K_{xinv}", 1), (f"K_{x}", 0), (f"I_{x}", 1)]
        left = [(f"I_{x}", 0)]
    elif f == "CT3":
        i_b, n = "I_b" if delta == 1 else "I_b'", 1 + len(w)
        start = ("h",) + w + a_pow(eps) + b_pow(delta) + b_pow(-delta)
        right = [(w, eps, delta, 0), (w + b_pow(delta), eps, -delta, 0), (i_b, n)]
        left = [(i_b, n + 1)]
    elif f == "CT4":
        i_a, n = "I_a" if eps == -1 else "I_a'", 1 + len(w)
        start = ("h",) + w + a_pow(-eps) + a_pow(eps) + b_pow(delta)
        right = [(w + a_pow(-eps), eps, delta, 0), (w, -eps, delta, 0), (i_a, n + 1)]
        left = [(i_a, n)]
    elif f == "CT5":
        tail_l, _ = swap_pair(eps, delta)
        start = (x, "h") + w + tail_l
        right = [(f"K_{x}", 0), ((x,) + w, eps, delta, 0)]
        left = [(w, eps, delta, 1), (f"K_{x}", 0)]
    elif f == "CT7":
        e1, d1, e2, d2 = params.eps1, params.delta1, params.eps2, params.delta2
        t1l, t1r = swap_pair(e1, d1)
        t2l, _ = swap_pair(e2, d2)
        start = ("h",) + w1 + t1l + w2 + t2l
        right = [(w1 + t1l + w2, e2, d2, 0), (w1, e1, d1, 0)]
        left = [(w1, e1, d1, 0), (w1 + t1r + w2, e2, d2, 0)]
    else:
        raise RwlabError(f"unknown circuit family {f}")
    rule_named, steps = preset("Q").rule_named, []
    for sign, pieces in ((1, right), (-1, left[::-1])):
        for piece in pieces:
            if len(piece) == 2:
                name, at = piece
                rule = rule_named(name)
                steps.append((at, at + len(rule.lhs if sign == 1 else rule.rhs), rule, sign))
            else:
                steps += _swap_steps(*piece, sign)
    return Path._of_steps(start, tuple(steps), start)


# ---------------------------------------------------------------------------
# Reports and verification drivers
# ---------------------------------------------------------------------------


@dataclass
class Report:
    checks: list = field(default_factory=list)  # (name, ok, detail)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def check(self, name: str, instances: Iterable, holds: Callable, detail: Callable) -> None:
        """Test ``holds`` on every instance and add one line for the sweep.

        An instance fails when ``holds`` returns false or raises
        ``RwlabError``.  The line reads ``detail(n, failed)``, followed by
        the first failing instance when any fail.
        """
        n, failures = 0, []
        for n, instance in enumerate(instances, 1):
            try:
                ok = holds(instance)
            except RwlabError:
                ok = False
            if not ok:
                failures.append(instance)
        text = detail(n, len(failures))
        if failures:
            text += f"; first mismatch {failures[0]!r}"
        self.add(name, not failures, text)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def n_pass(self) -> int:
        return sum(1 for _, ok, _ in self.checks if ok)

    def lines(self) -> List[str]:
        out = [
            f"{name}\t{'pass' if ok else 'FAIL'}\t{detail}"
            for name, ok, detail in self.checks
        ]
        out.append(f"summary: {self.n_pass}/{len(self.checks)}")
        return out

    def machine_lines(self) -> List[str]:
        out = [
            f"check={name}\tstatus={'pass' if ok else 'FAIL'}\tdetail={detail}"
            for name, ok, detail in self.checks
        ]
        out.append(f"summary={self.n_pass}/{len(self.checks)}")
        return out


def reduced_a_words(max_len: int) -> List[Word]:
    return [w for w in words_over(A_LETTERS, max_len) if is_freely_reduced(w, _A_ALPHABET)]


def word_splits(max_total: int) -> Iterator[Tuple[Word, Word]]:
    """All pairs (w1, w2) with |w1| + |w2| <= max_total."""
    for w in words_over(A_LETTERS, max_total):
        for cut in range(len(w) + 1):
            yield w[:cut], w[cut:]


SIGNS = (1, -1)


def ct_parameter_sweep(
    max_word_len: int, ct7_word_len: Optional[int] = None
) -> Iterator[CtParams]:
    """Deterministic sweep of all families.

    Single-word families sweep their slot to ``max_word_len``; the
    two-slot families (CT1, CT7) sweep all splits with total slot length
    bounded by ``max_word_len`` (CT7: ``ct7_word_len``), which covers every
    one-slot-at-a-time combination at the same bound.
    """
    if ct7_word_len is None:
        ct7_word_len = max_word_len
    for x in A_LETTERS:
        yield CtParams("CT2", x=x)
        yield CtParams("CT6", x=x)
    for w in words_over(A_LETTERS, max_word_len):
        for eps, delta in itertools.product(SIGNS, repeat=2):
            yield CtParams("CT3", w=w, eps=eps, delta=delta)
            yield CtParams("CT4", w=w, eps=eps, delta=delta)
            for x in A_LETTERS:
                yield CtParams("CT5", x=x, w=w, eps=eps, delta=delta)
    for w1, w2 in word_splits(max_word_len):
        for x in A_LETTERS:
            for eps, delta in itertools.product(SIGNS, repeat=2):
                yield CtParams("CT1", x=x, w1=w1, w2=w2, eps=eps, delta=delta)
    for w1, w2 in word_splits(ct7_word_len):
        for e1, d1, e2, d2 in itertools.product(SIGNS, repeat=4):
            yield CtParams(
                "CT7", w1=w1, eps1=e1, delta1=d1, w2=w2, eps2=e2, delta2=d2
            )


def _random_word(rng: random.Random, letters, bound: int) -> Word:
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, bound)))


def random_ct_params(rng: random.Random, max_word_len: int, ct7_word_len: int) -> CtParams:
    """One draw per slot of a random family, in ``REQUIRED_SLOTS`` order;
    CT7's words are bounded by ``ct7_word_len``."""
    family = rng.choice(("CT1", "CT3", "CT4", "CT5", "CT7"))
    bound = ct7_word_len if family == "CT7" else max_word_len

    def draw(slot: str):
        if slot == "x":
            return rng.choice(A_LETTERS)
        if slot in WORD_SLOTS:
            return _random_word(rng, A_LETTERS, bound)
        return rng.choice(SIGNS)

    return CtParams(family, **{slot: draw(slot) for slot in REQUIRED_SLOTS[family]})


def verify_figure2(
    max_word_len: int = 4,
    ct7_word_len: Optional[int] = None,
    weights: WeightSpec = CASE_STUDY_WEIGHTS,
    samples: int = 1000,
) -> Report:
    """Compare the path computation of Φ with the closed forms over the full
    deterministic sweep plus randomized tuples with independent slot lengths."""
    if ct7_word_len is None:
        ct7_word_len = min(max_word_len, 3)
    k = len(A_LETTERS)
    check_budget(  # the parts of ct_parameter_sweep, by word length
        chain(
            [2 * k],  # CT2, CT6
            (4 * (2 + k + k * (n + 1)) * k**n for n in range(max_word_len + 1)),  # CT3-5, CT1
            (16 * (n + 1) * k**n for n in range(ct7_word_len + 1)),  # CT7
        ),
        lambda cap: f"figure2 sweep at bound {max_word_len}: more than {cap} instances",
    )
    ambient = preset("P")
    rng = random.Random(2024)
    instances = list(ct_parameter_sweep(max_word_len, ct7_word_len))
    instances += [random_ct_params(rng, max_word_len, ct7_word_len) for _ in range(samples)]
    report = Report()
    for family in CT_FAMILIES:
        report.check(
            f"figure2 {family}",
            (params for params in instances if params.family == family),
            lambda params: phi_path(build_ct_circuit(params), weights, ambient)
            == closed_form_ct(params, ambient),
            lambda n, failed: f"{n} instances",
        )
    return report


def is_case_study_nf(w: Word) -> bool:
    """Membership in the normal-form set: reduced free-group words, words
    h bʲ aᵏ, and h h."""
    hs = w.count("h")
    if hs == 0:
        return all(l in A_LETTERS for l in w) and is_freely_reduced(w, _A_ALPHABET)
    if hs == 1:
        if not w or w[0] != "h":
            return False
        rest = w[1:]
        i = 0
        for pair in (("b", "b'"), ("a", "a'")):  # a run of one b letter, then of one a letter
            if i < len(rest) and rest[i] in pair:
                run = rest[i]
                while i < len(rest) and rest[i] == run:
                    i += 1
        return i == len(rest)
    return w == ("h", "h")


def verify_prop31(max_len: int = 6, schema_var_bound: int = 3) -> Report:
    """Normal-form shapes, bounded confluence, and oracle agreement."""
    qbar, q = preset("Qbar"), preset("Q")
    letters = qbar.alphabet.letters
    agreement_len, oracle_bound = max(max_len - 2, 0), max_len + 2
    classof = equivalence_classes(q, oracle_bound)  # first, as it checks its budget
    report = Report()
    report.check(
        "prop31 normal-form shapes",
        words_over(letters, max_len),
        lambda w: is_case_study_nf(normalize(w, qbar)),
        lambda n, failed: f"{n} words of length <= {max_len}, {failed} bad normal forms",
    )
    report.check(
        "prop31 bounded confluence",
        critical_peaks(qbar, schema_var_bound),
        lambda peak: isinstance(resolve_peak(peak, qbar), CriticalCircuit),
        lambda n, failed: f"{n} peaks at schema bound {schema_var_bound}, {failed} unresolved",
    )

    class_to_nf: Dict[int, Word] = {}
    nf_to_class: Dict[Word, int] = {}

    def agrees(w: Word) -> bool:
        cls, nf = classof(w), normalize(w, qbar)
        return class_to_nf.setdefault(cls, nf) == nf and nf_to_class.setdefault(nf, cls) == cls

    report.check(
        "prop31 oracle agreement",
        words_over(letters, agreement_len),
        agrees,
        lambda n, failed: f"{n} words of length <= {agreement_len} against the closure at "
        f"bound {oracle_bound}; {failed} partition disagreements",
    )
    rng = random.Random(31)
    sample_words = [_random_word(rng, letters, agreement_len) for _ in range(40)]
    report.check(
        "prop31 oracle spot-check",
        zip(sample_words[::2], sample_words[1::2]),
        lambda uv: bfs_equivalence_oracle(*uv, q, oracle_bound)
        == (classof(uv[0]) == classof(uv[1])),
        lambda n, failed: f"batched closure vs direct BFS on {n} pairs",
    )
    return report


def verify_identities(exhaust_len: int = 5, samples: int = 1000) -> Report:
    """The four derivation identities for the swap paths, exhaustively at the
    bound plus randomized tuples."""
    k = len(A_LETTERS)
    check_budget(  # the exhaustive parts of checks (i) to (iv), by word length
        chain(
            [k],
            (4 * (n + 2) * k**n for n in range(exhaust_len + 1)),  # (ii), (iv)
            (4 * k * k**n for n in range(exhaust_len)),  # (iii)
        ),
        lambda cap: f"identities sweep at bound {exhaust_len}: more than {cap} instances",
    )
    ambient = preset("P")
    signs = list(itertools.product(SIGNS, repeat=2))
    rng = random.Random(7)
    draws = [  # w1, w2, x, eps, delta, drawn in that order
        (
            _random_word(rng, A_LETTERS, exhaust_len),
            _random_word(rng, A_LETTERS, exhaust_len),
            rng.choice(A_LETTERS),
            rng.choice(SIGNS),
            rng.choice(SIGNS),
        )
        for _ in range(samples)
    ]

    phis: Dict[tuple, RingElement] = {}  # Φ of each swap path met in this sweep

    def phi_swap(w: Word, eps: int, delta: int) -> RingElement:
        value = phis.get((w, eps, delta))
        if value is None:
            value = phis[w, eps, delta] = phi_path(
                build_C_path(w, eps, delta), CASE_STUDY_WEIGHTS, ambient
            )
        return value

    def base_value(x: str) -> bool:
        e = Edge(EMPTY, preset("Q").rule_named(f"K_{x}"), 1, EMPTY)
        image = negate(partial_derivation((x,), ambient))
        return phi_edge(e, CASE_STUDY_WEIGHTS, ambient) == image

    def swap_image(w: Word, eps: int, delta: int) -> bool:
        image = negate(commutator(partial_derivation(w, ambient), EMPTY, eps, delta))
        return phi_swap(w, eps, delta) == image

    def letter_prefix(x: str, w: Word, eps: int, delta: int) -> bool:
        shift = scale(-LETTER_EXPONENTS[x][0], commutator(identity(ambient), w, eps, delta))
        return phi_swap((x,) + w, eps, delta) == sub(phi_swap(w, eps, delta), shift)

    def word_prefix(w1: Word, w2: Word, eps: int, delta: int) -> bool:
        shift = commutator(partial_derivation(w1, ambient), w2, eps, delta)
        return phi_swap(w1 + w2, eps, delta) == sub(phi_swap(w2, eps, delta), shift)

    def swap_instances(max_len: int) -> Iterator[tuple]:
        return ((w,) + s for w in words_over(A_LETTERS, max_len) for s in signs)

    def mixed(n: int, failed: int) -> str:
        return f"{n - samples} exhaustive + {samples} randomized instances"

    report = Report()
    report.check(
        "identity (i) base values", A_LETTERS, base_value, lambda n, failed: f"{n} letters"
    )
    report.check(
        "identity (ii) swap image",
        swap_instances(exhaust_len),
        lambda t: swap_image(*t),
        lambda n, failed: f"{n} instances",
    )
    report.check(
        "identity (iii) letter prefix",
        chain(
            ((x,) + t for x in A_LETTERS for t in swap_instances(exhaust_len - 1)),
            ((x, w2, eps, delta) for _, w2, x, eps, delta in draws),
        ),
        lambda t: letter_prefix(*t),
        mixed,
    )
    report.check(
        "identity (iv) word prefix",
        chain(
            (split + s for split in word_splits(exhaust_len) for s in signs),
            ((w1, w2, eps, delta) for w1, w2, _, eps, delta in draws),
        ),
        lambda t: word_prefix(*t),
        mixed,
    )
    return report


def verify_obstruction(
    commutator_len: int = 5,
    witness_word_len: int = 3,
    kill_len: int = 6,
    coset_powers: int = 10,
) -> Report:
    """Witness constructions and the basepoint computation.  A witness is
    ring-verified as it is built, so an instance holds when it can be built."""
    ambient = preset("P")
    signs = list(itertools.product(SIGNS, repeat=2))

    def ring_verified(n: int, failed: int) -> str:
        return f"{n - failed} ring-verified"

    report = Report()
    report.check(
        "obstruction commutator witnesses",
        ((w,) + s for w in reduced_a_words(commutator_len) for s in signs),
        lambda t: commutator_witness(*t, ambient) is not None,
        ring_verified,
    )
    report.check(
        "obstruction image-to-X witnesses",
        ct_parameter_sweep(witness_word_len, witness_word_len),
        lambda params: phi_to_x_witness(params, ambient) is not None,
        ring_verified,
    )
    report.check(
        "obstruction basepoint kills generators",
        chain(
            [ONE_MINUS_A], (XGenRef(w, *s) for w in reduced_a_words(kill_len) for s in signs)
        ),
        lambda source: basepoint_apply(source_value(source, ambient)).is_zero(),
        lambda n, failed: f"(1-a) and {n - 1} X generators",
    )
    vectors = {
        basepoint_apply(sub(identity(ambient), from_word(("b",) * k, ambient)))
        for k in range(1, coset_powers + 1)
    }
    report.add(
        "obstruction basepoint separates b-powers",
        len(vectors) == coset_powers and not any(v.is_zero() for v in vectors),
        f"{len(vectors)} distinct nonzero coset vectors",
    )
    return report


def verify_isometry(radius: int = 4, h_radius: int = 3, nf_len: int = 6) -> Report:
    """Identical normal forms and matching bounded distances for M4 and N4."""
    m4, n4 = preset("M4"), preset("N4")
    report = Report()
    nfs_m = enumerate_normal_forms(m4, nf_len)
    nfs_n = enumerate_normal_forms(n4, nf_len)
    report.add(
        "isometry normal-form sets",
        nfs_m == nfs_n,
        f"{len(nfs_m)} vs {len(nfs_n)} normal forms of length <= {nf_len}",
    )
    for center, r in ((EMPTY, radius), (("h",), h_radius)):
        result = isometry_check(m4, n4, r, center)
        report.add(
            f"isometry ball radius {r} around {word_str(center)}",
            result.passed,
            f"{result.pair_count} ordered pairs"
            + ("" if result.passed else f"; {len(result.violations)} violations"),
        )
    return report


# ---------------------------------------------------------------------------
# Peak classification into the circuit families
# ---------------------------------------------------------------------------


def _rule_kind(rule: Rule) -> str:
    if rule.origin is not None and rule.origin.schema.name.startswith("Cb_"):
        return "C"
    head = rule.name.split("_")[0].split("[")[0]
    return {"I": "I", "K": "K", "C": "C", "Z": "Z"}.get(head, "?")


def classify_peak(peak) -> str:
    """Family tag of a critical peak of Qbar, or "Z" for the zero component."""
    if peak.source.count("h") >= 2:
        return "Z"
    k1, k2 = _rule_kind(peak.rule1), _rule_kind(peak.rule2)
    if peak.kind == "overlap":
        if (k1, k2) == ("I", "I"):
            return "CT2"
        if (k1, k2) == ("I", "K"):
            return "CT6"
        if (k1, k2) == ("K", "C"):
            return "CT5"
        if (k1, k2) == ("C", "I"):
            return "CT3"
    else:
        if (k1, k2) == ("I", "C"):
            return "CT4" if len(peak.gamma2) == 1 else "CT1"
        if (k1, k2) == ("C", "C"):
            return "CT7"
    return "unclassified"
