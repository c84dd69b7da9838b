"""Membership obstructions in the free-group ring.

The chain implemented here: X is the set {1−a} ∪ {1 − w·[aᵉ,bᵈ]·w⁻¹}; the
subgroup generated by a together with all conjugated commutators is
detected by the b-exponent sum (the abelianization of the free group is
Z², the subgroup covers the a-axis and the commutators die, so membership
is exactly "b-exponent zero"); the coset space of that subgroup is indexed
by the b-exponent, and applying a ring element to the basepoint coset
collapses it coordinatewise.  Witness objects express ring elements as
signed sums of right-multiplied generators and are verified by exact ring
arithmetic before they are returned, so a constructed witness is always
sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from .core import (
    EMPTY,
    Presentation,
    RwlabError,
    Word,
    formal_inverse,
    is_freely_reduced,
    word_str,
)
from .completion import normal_form
from .invariant import (
    LETTER_EXPONENTS,
    CtParams,
    a_pow,
    b_pow,
    closed_form_ct,
    commutator,
    swap_pair,
)
from .ring import RingElement, format_ring, from_word, identity, right_mul, sub


class WitnessError(RwlabError):
    pass


def b_exponent(w: Word) -> int:
    """(#b) − (#b')."""
    return sum(LETTER_EXPONENTS.get(l, (0, 0))[1] for l in w)


def hn_member(w: Word) -> bool:
    """Whether ``w`` lies in the subgroup generated by a and all conjugated
    commutators: equivalent to vanishing b-exponent sum."""
    return b_exponent(w) == 0


@dataclass(frozen=True)
class CosetVector:
    """Formal Z-combination of cosets, indexed by b-exponent; no zeros."""

    entries: tuple  # tuple[tuple[int, int], ...] sorted by index

    @staticmethod
    def of(mapping) -> "CosetVector":
        return CosetVector(tuple(sorted((k, v) for k, v in mapping.items() if v != 0)))

    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self):
        if not self.entries:
            return "0"
        return " ".join(f"{v:+d}·[{k}]" for k, v in self.entries)


def basepoint_apply(x: RingElement) -> CosetVector:
    """Apply ``x`` to the basepoint coset: each term lands on the coset
    indexed by its b-exponent, with the term's coefficient."""
    acc: dict = {}
    for w, c in x.terms.items():
        k = b_exponent(w)
        acc[k] = acc.get(k, 0) + c
    return CosetVector.of(acc)


def x_generator(w: Word, eps: int, delta: int, ambient: Presentation) -> RingElement:
    """1 − w·aᵉbᵈa⁻ᵉb⁻ᵈ·w⁻¹ over the free-group ring."""
    conj = (
        w
        + a_pow(eps)
        + b_pow(delta)
        + a_pow(-eps)
        + b_pow(-delta)
        + formal_inverse(w, ambient.alphabet)
    )
    return sub(identity(ambient), from_word(conj, ambient))


def x_generator_a(ambient: Presentation) -> RingElement:
    """The distinguished generator 1 − a."""
    return sub(identity(ambient), from_word(("a",), ambient))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

ONE_MINUS_A = "(1-a)"


@dataclass(frozen=True)
class XGenRef:
    w: Word
    eps: int
    delta: int

    def describe(self) -> str:
        return f"X(w={word_str(self.w)},eps={self.eps:+d},delta={self.delta:+d})"


Source = Union[CtParams, XGenRef, str]


@dataclass(frozen=True)
class WitnessTerm:
    source: Source
    multiplier: Word
    sign: int


def source_value(source: Source, ambient: Presentation) -> RingElement:
    """The ring value of a witness source: a circuit family's closed form,
    an X generator, or 1 − a."""
    if isinstance(source, CtParams):
        return closed_form_ct(source, ambient)
    if isinstance(source, XGenRef):
        return x_generator(source.w, source.eps, source.delta, ambient)
    if source == ONE_MINUS_A:
        return x_generator_a(ambient)
    raise WitnessError(f"unknown witness source {source!r}")


@dataclass(frozen=True)
class Witness:
    """A target expressed as a signed sum of right-multiplied generator
    values; ring-verified on construction."""

    terms: tuple  # tuple[WitnessTerm, ...]
    target: RingElement

    def evaluate(self) -> RingElement:
        ambient = self.target.ambient
        acc: Dict[Word, int] = {}
        for t in self.terms:
            for u, c in right_mul(source_value(t.source, ambient), t.multiplier).terms.items():
                acc[u] = acc.get(u, 0) + t.sign * c
        return RingElement({u: c for u, c in acc.items() if c}, ambient)

    def verified(self) -> bool:
        return self.evaluate() == self.target

    def lines(self) -> List[str]:
        out = [
            f"{'+' if t.sign > 0 else '-'} "
            f"{t.source if isinstance(t.source, str) else t.source.describe()} "
            f"* {word_str(t.multiplier)}"
            for t in self.terms
        ]
        out.append(f"target: {format_ring(self.target)}")
        out.append(f"verified: {'true' if self.verified() else 'false'}")
        return out


def _checked(terms: List[WitnessTerm], target: RingElement) -> Witness:
    w = Witness(tuple(terms), target)
    if not w.verified():
        raise WitnessError("witness failed ring verification")
    return w


def commutator_witness(w: Word, eps: int, delta: int, ambient: Presentation) -> Witness:
    """Express w·(bᵈaᵉ − aᵉbᵈ) as a signed sum of circuit-family images.

    Structural recursion on the reduced word w: the base case is a CT4
    image; a leading aᵉ letter is peeled with a CT1 image (whose w2 slot is
    the current suffix), a leading bᵉ letter with a CT7 image.
    """
    if not is_freely_reduced(w, ambient.alphabet):
        raise WitnessError("commutator_witness requires a reduced word")
    target = commutator(identity(ambient), w, eps, delta)
    terms: List[WitnessTerm] = []
    u = w
    while u:
        head, rest = u[0], u[1:]
        ea, eb = LETTER_EXPONENTS[head]
        if ea:
            params = CtParams("CT1", x=head, w1=EMPTY, w2=u, eps=eps, delta=delta)
            terms.append(WitnessTerm(params, EMPTY, -ea))
        else:
            params = CtParams(
                "CT7", w1=EMPTY, eps1=1, delta1=eb, w2=rest, eps2=eps, delta2=delta
            )
            terms.append(WitnessTerm(params, EMPTY, 1))
        u = rest
    terms.append(WitnessTerm(CtParams("CT4", w=EMPTY, eps=eps, delta=delta), EMPTY, -eps))
    return _checked(terms, target)


def _x_term(w: Word, eps: int, delta: int, sign: int) -> WitnessTerm:
    """A term realizing sign · w·(bᵈaᵉ − aᵉbᵈ) from an X generator:
    (1 − w[aᵉ,bᵈ]w⁻¹) · (w bᵈ aᵉ) equals w·(bᵈaᵉ − aᵉbᵈ)."""
    return WitnessTerm(XGenRef(w, eps, delta), w + swap_pair(eps, delta)[1], sign)


def phi_to_x_witness(params: CtParams, ambient: Presentation) -> Witness:
    """Express a family's closed-form image over the X generators."""
    target = closed_form_ct(params, ambient)
    f = params.family
    e = LETTER_EXPONENTS[params.x][0] if params.x else None  # the a-exponent of x
    if f in ("CT2", "CT3", "CT5") or e == 0:
        return _checked([], target)
    if f == "CT4":
        return _checked([_x_term(EMPTY, params.eps, params.delta, -params.eps)], target)
    if f == "CT6":
        return _checked([WitnessTerm(ONE_MINUS_A, ("a'",) if e == 1 else EMPTY, 1)], target)
    if f == "CT1":
        shifted, sign = normal_form(a_pow(-e) + params.w2, ambient), e
        eps, delta = params.eps, params.delta
    else:  # CT7
        shifted, sign = b_pow(params.delta1) + params.w2, params.eps1
        eps, delta = params.eps2, params.delta2
    terms = [_x_term(shifted, eps, delta, sign), _x_term(params.w2, eps, delta, -sign)]
    return _checked(terms, target)
