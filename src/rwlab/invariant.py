"""The ∂ derivation on free-group words and the Φ invariant on paths.

Φ is parameterized by an integer weight per rule name: an edge maps to
``sign · weight(rule) · [right context]`` in the ambient monoid ring, and a
path maps to the sum of its edges.  The case-study instance weights K_a by
+1 and K_a' by −1 and everything else 0; with those weights the closed
forms of the seven critical-circuit families CT1..CT7 are implemented here
and are checked against the path computation by the verification drivers.

Left contexts never matter; right contexts may contain h (the invariant
then lands in the full monoid ring), although the circuit families only
ever produce free-group contexts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple

from .core import EMPTY, Presentation, RwlabError, Word, word_str
from .completion import normal_form
from .rewrite import check_orientation
from .ring import RingElement, check_letters, from_word, identity, scale, sub, zero
from .squier import Edge, Path

A_LETTERS = ("a", "a'", "b", "b'")

# (a-exponent, b-exponent) of each free-group letter
LETTER_EXPONENTS = {"a": (1, 0), "a'": (-1, 0), "b": (0, 1), "b'": (0, -1)}


@dataclass(frozen=True)
class WeightSpec:
    """Finitely supported integer weights, keyed by rule name."""

    entries: Dict[str, int]  # rule name -> nonzero weight

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "WeightSpec":
        return WeightSpec({k: v for k, v in mapping.items() if v != 0})

    def get(self, name: str) -> int:
        return self.entries.get(name, 0)


# +1 per leftward commutation of a past h, -1 per commutation of a'; all
# other rules are weightless.  This is the instance under which the seven
# circuit families below have the stated closed forms.
CASE_STUDY_WEIGHTS = WeightSpec.of({"K_a": 1, "K_a'": -1})


def partial_derivation(w: Word, ambient: Presentation) -> RingElement:
    """∂w, by the recursion ∂(x·w') = (∂x)·w' + ∂w' with ∂a = −1, ∂a' = +1,
    ∂b = ∂b' = 0 and ∂ε = 0, evaluated in the free-group ring.

    The terms are ``−e · [w[i+1:]]`` for each letter ``w[i]`` of nonzero
    a-exponent ``e``.  Their suffixes nest, so the longest one holds every
    letter the others do: its letters are checked, then the ambient's
    orientation, and each suffix is normalized by
    ``completion.normal_form``, which on a complete ambient rewrites it by
    whole-word passes and on any other by the leftmost strategy.
    """
    for letter in w:
        if letter not in LETTER_EXPONENTS:
            raise RwlabError(
                f"derivation is only defined on letters a, a', b, b' (got {letter})"
            )
    suffixes, coefficients = [], []
    for i, x in enumerate(w):
        if LETTER_EXPONENTS[x][0]:
            suffixes.append(w[i + 1 :])
            coefficients.append(-LETTER_EXPONENTS[x][0])
    if suffixes:
        check_letters(suffixes[0], ambient)  # the longest suffix
        check_orientation(ambient)
    acc: Dict[Word, int] = {}
    for c, u in zip(coefficients, suffixes):
        nf = normal_form(u, ambient)
        acc[nf] = acc.get(nf, 0) + c
    return RingElement({u: c for u, c in acc.items() if c}, ambient)


def phi_edge(e: Edge, weights: WeightSpec, ambient: Presentation) -> RingElement:
    """sign · weight(rule) · [right context]; zero-weight rules contribute 0
    without touching the context."""
    wt = weights.get(e.rule.name)
    if wt == 0:
        return zero(ambient)
    return scale(e.sign * wt, from_word(e.right, ambient))


def phi_path(p: Path, weights: WeightSpec, ambient: Presentation) -> RingElement:
    """The sum of ``phi_edge`` over the edges of ``p``, in one pass: one
    loop splices the path's words in one list and sums ``sign · weight``
    per raw right context ``u[j:]`` of each weighted step, building no edge.

    Every distinct weighted context, cancelled or not, is checked in order
    of first appearance (its letters, then the ambient's orientation), so
    the error raised is the one the first faulty weighted edge would raise.
    A context with a nonzero net coefficient is normalized once, by
    ``completion.normal_form``: by whole-word passes on a complete ambient,
    where they end at its one normal form, else by the leftmost strategy.
    """
    weight = weights.entries.get
    net: Dict[Word, int] = {}
    u = list(p.start)
    for i, j, rule, sign in p.steps:
        wt = weight(rule.name)
        if wt:
            right = tuple(u[j:])
            net[right] = net.get(right, 0) + sign * wt
        u[i:j] = rule.rhs if sign == 1 else rule.lhs
    acc: Dict[Word, int] = {}
    for k, (right, c) in enumerate(net.items()):
        check_letters(right, ambient)
        if k == 0:
            check_orientation(ambient)  # the same verdict for every context
        if c:
            nf = normal_form(right, ambient)
            acc[nf] = acc.get(nf, 0) + c
    return RingElement({w: c for w, c in acc.items() if c}, ambient)


# ---------------------------------------------------------------------------
# Closed forms for the critical-circuit families
# ---------------------------------------------------------------------------

CT_FAMILIES = ("CT1", "CT2", "CT3", "CT4", "CT5", "CT6", "CT7")

# which parameter slots each family requires
REQUIRED_SLOTS = {
    "CT1": ("x", "w1", "w2", "eps", "delta"),
    "CT2": ("x",),
    "CT3": ("w", "eps", "delta"),
    "CT4": ("w", "eps", "delta"),
    "CT5": ("x", "w", "eps", "delta"),
    "CT6": ("x",),
    "CT7": ("w1", "eps1", "delta1", "w2", "eps2", "delta2"),
}


@dataclass(frozen=True)
class CtParams:
    """Parameters of one critical-circuit family instance.

    ``x`` is a single letter from a, a', b, b'; word slots are free-group
    words; exponent slots are ±1.  Only the slots the family uses may be
    set.
    """

    family: str
    x: Optional[str] = None
    w: Optional[Word] = None
    w1: Optional[Word] = None
    w2: Optional[Word] = None
    eps: Optional[int] = None
    delta: Optional[int] = None
    eps1: Optional[int] = None
    delta1: Optional[int] = None
    eps2: Optional[int] = None
    delta2: Optional[int] = None

    def __post_init__(self):
        """Reads each slot once, then checks: the family; its required slots
        set, in its order; no other slot set, in ``SLOTS`` order; then x, the
        exponents and the words, each in ``SLOTS`` order.  Once the first
        two checks pass, the set slots are the family's, so the last three
        visit those alone."""
        family = self.family
        if family not in CT_FAMILIES:
            raise RwlabError(f"unknown circuit family {family}")
        values = _slot_values(self)
        required, others, exponents, words = _CHECKED[family]
        for slot, k in required:
            if values[k] is None:
                raise RwlabError(f"{family} requires parameter {slot}")
        for slot, k in others:
            if values[k] is not None:
                raise RwlabError(f"{family} does not take parameter {slot}")
        x = values[0]  # SLOTS starts with x
        if x is not None and x not in A_LETTERS:
            raise RwlabError(f"x must be one of {A_LETTERS}")
        for slot, k in exponents:
            if values[k] not in (1, -1):
                raise RwlabError(f"{slot} must be +1 or -1")
        for slot, k in words:
            if not all(map(A_LETTERS.__contains__, values[k])):
                raise RwlabError(f"{slot} must be a word over a, a', b, b'")

    def describe(self) -> str:
        """``family(slot=value,...)`` over the set slots, words printed with ε
        and exponents signed."""
        slots = []
        for name in SLOTS:
            val = getattr(self, name)
            if val is None:
                continue
            if name in WORD_SLOTS:
                val = word_str(val)
            elif name in EXPONENT_SLOTS:
                val = f"{val:+d}"
            slots.append(f"{name}={val}")
        return f"{self.family}({','.join(slots)})"


# the parameter slots in declaration order: x, the word slots, the exponents
SLOTS = tuple(f.name for f in fields(CtParams) if f.name != "family")
WORD_SLOTS = tuple(s for s in SLOTS if s.startswith("w"))
EXPONENT_SLOTS = tuple(s for s in SLOTS if s.startswith(("eps", "delta")))
_slot_values = operator.attrgetter(*SLOTS)


def _checked_slots(family: str) -> tuple:
    """``(slot, position in SLOTS)`` pairs of the slots ``CtParams`` checks
    for ``family``: its required ones in its order, the others, and its
    exponents and its words in ``SLOTS`` order."""
    required = REQUIRED_SLOTS[family]
    at = {s: k for k, s in enumerate(SLOTS)}
    return (
        tuple((s, at[s]) for s in required),
        tuple((s, k) for k, s in enumerate(SLOTS) if s not in required),
        tuple((s, at[s]) for s in EXPONENT_SLOTS if s in required),
        tuple((s, at[s]) for s in WORD_SLOTS if s in required),
    )


_CHECKED = {f: _checked_slots(f) for f in CT_FAMILIES}


def a_pow(eps: int) -> Word:
    return ("a",) if eps == 1 else ("a'",)


def b_pow(delta: int) -> Word:
    return ("b",) if delta == 1 else ("b'",)


def swap_pair(eps: int, delta: int) -> Tuple[Word, Word]:
    """(a^ε b^δ, b^δ a^ε): the two sides of a pair swap."""
    return a_pow(eps) + b_pow(delta), b_pow(delta) + a_pow(eps)


def commutator(x: RingElement, w: Word, eps: int, delta: int) -> RingElement:
    """x · w · (b^δ a^ε − a^ε b^δ) in one accumulation over both tails, with
    the error and term order of ``right_mul(x, w·b^δa^ε) − right_mul(x,
    w·a^εb^δ)``: the first tail's letters are checked, and zeros are dropped
    after each tail."""
    ab, ba = swap_pair(eps, delta)
    check_letters(w + ba, x.ambient)
    acc: Dict[Word, int] = {}
    for tail, sign in ((w + ba, 1), (w + ab, -1)):
        for u, c in x.terms.items():
            nf = normal_form(u + tail, x.ambient)
            acc[nf] = acc.get(nf, 0) + sign * c
        acc = {u: c for u, c in acc.items() if c}
    return RingElement(acc, x.ambient)


def closed_form_ct(params: CtParams, ambient: Presentation) -> RingElement:
    """The Φ-image of a family instance as a closed-form ring expression; its
    identity and units are kept per ambient, built on first use in its order."""
    f = params.family
    if f in ("CT2", "CT3", "CT5"):
        return zero(ambient)
    one = identity(ambient)
    if f == "CT4":
        return scale(-params.eps, commutator(one, EMPTY, params.eps, params.delta))
    if f == "CT7":  # the unit b^δ1 − 1
        letter, e = b_pow(params.delta1), 1
    else:  # CT1 and CT6: the unit a^(−e) − 1 of x's a-exponent e, scaled by e
        e = LETTER_EXPONENTS[params.x][0]
        if not e:
            return zero(ambient)
        letter = a_pow(-e)
    units = ambient.__dict__.setdefault("_units", {})
    unit = units.get(letter)
    if unit is None:
        unit = units[letter] = scale(e, sub(from_word(letter, ambient), one))
    if f == "CT7":
        return scale(params.eps1, commutator(unit, params.w2, params.eps2, params.delta2))
    if f == "CT6":
        return unit
    return commutator(unit, params.w2, params.eps, params.delta)
