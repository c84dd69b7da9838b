"""Exact integer combinations of normal-form words (the monoid ring).

A RingElement is a finitely supported map from irreducible words of a fixed
complete ambient system to nonzero integers, held as a dict; the free-group
system is just the special case whose normal forms are the freely reduced
words.  Two elements are equal when their maps and ambients are; terms are
put in descending shortlex order only when printed.  Only the right action
by monoid elements is provided.  Coefficients are Python ints, so witness
arithmetic never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from .core import EMPTY, Presentation, RwlabError, Word, shortlex_key, word_str
from .completion import normal_form


class AmbientMismatch(RwlabError):
    pass


@dataclass(frozen=True)
class RingElement:
    terms: Dict[Word, int]  # normal form -> coefficient; no zeros
    ambient: Presentation

    def __str__(self):
        return format_ring(self)

    def __repr__(self):
        return f"<RingElement {format_ring(self)}>"

    def is_zero(self) -> bool:
        return not self.terms


def zero(ambient: Presentation) -> RingElement:
    return RingElement({}, ambient)


def check_letters(w: Word, ambient: Presentation) -> None:
    """``AmbientMismatch`` naming the first letter of ``w`` outside the ambient alphabet."""
    letters = ambient.alphabet._letter_set
    if not letters.issuperset(w):
        letter = next(x for x in w if x not in letters)
        raise AmbientMismatch(f"letter {letter} is not in the ambient alphabet")


def from_word(w: Word, ambient: Presentation) -> RingElement:
    """The single term ``1 · normalize(w)``, through ``completion.normal_form``."""
    check_letters(w, ambient)
    return RingElement({normal_form(w, ambient): 1}, ambient)


def identity(ambient: Presentation) -> RingElement:
    """``from_word(EMPTY, ambient)``, kept in ``ambient.__dict__`` once built."""
    kept = ambient.__dict__
    if "_identity" not in kept:
        kept["_identity"] = from_word(EMPTY, ambient)
    return kept["_identity"]


def add(x: RingElement, y: RingElement) -> RingElement:
    return total((x, y), x.ambient)


def negate(x: RingElement) -> RingElement:
    return scale(-1, x)


def sub(x: RingElement, y: RingElement) -> RingElement:
    """``x − y`` in one accumulation: the terms of ``x``, then those of ``y``
    with the sign flipped, in that order; terms that cancel are dropped."""
    if y.ambient is not x.ambient and y.ambient != x.ambient:
        raise AmbientMismatch("ring elements live over different ambient systems")
    acc = dict(x.terms)
    for w, c in y.terms.items():
        acc[w] = acc.get(w, 0) - c
    return RingElement({w: c for w, c in acc.items() if c}, x.ambient)


def scale(n: int, x: RingElement) -> RingElement:
    if n == 0:
        return zero(x.ambient)
    return RingElement({w: n * c for w, c in x.terms.items()}, x.ambient)


def total(elements: Iterable[RingElement], ambient: Presentation) -> RingElement:
    acc: Dict[Word, int] = {}
    for x in elements:
        if x.ambient is not ambient and x.ambient != ambient:
            raise AmbientMismatch("ring elements live over different ambient systems")
        for w, c in x.terms.items():
            acc[w] = acc.get(w, 0) + c
    return RingElement({w: c for w, c in acc.items() if c}, ambient)


def right_mul(x: RingElement, w: Word) -> RingElement:
    """Right action: concatenate ``w`` onto every term and renormalize,
    through ``completion.normal_form``; ``x`` itself for an empty ``w``."""
    check_letters(w, x.ambient)
    if not w:
        return x
    acc: Dict[Word, int] = {}
    for u, c in x.terms.items():
        key = normal_form(u + w, x.ambient)
        acc[key] = acc.get(key, 0) + c
    return RingElement({u: c for u, c in acc.items() if c}, x.ambient)


def format_ring(x: RingElement) -> str:
    """Canonical print: descending shortlex terms, explicit signs, coefficient
    omitted when ±1, ε for the identity.  Injective on elements."""
    if not x.terms:
        return "0"
    ordering = x.ambient.ordering
    parts = []
    for w in sorted(x.terms, key=lambda w: shortlex_key(w, ordering), reverse=True):
        c = x.terms[w]
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        body = word_str(w) if mag == 1 else f"{mag} {word_str(w)}"
        parts.append(f"{sign} {body}")
    return " ".join(parts)
