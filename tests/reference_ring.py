"""The former ``rwlab.ring``, kept as the reference oracle: unchanged except
that its imports are absolute.  Every element holds its terms as a tuple
sorted by descending shortlex, re-sorted after every sum.

Exact integer combinations of normal-form words (the monoid ring).

A RingElement is a finitely supported map from irreducible words of a fixed
complete ambient system to nonzero integers; the free-group system is just
the special case whose normal forms are the freely reduced words.  Only the
right action by monoid elements is provided.  Coefficients are Python ints,
so witness arithmetic never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from rwlab.core import Presentation, RwlabError, Word, shortlex_key, word_str
from rwlab.rewrite import normalize


class AmbientMismatch(RwlabError):
    pass


@dataclass(frozen=True)
class RingElement:
    # terms are sorted by descending shortlex, largest word first; no zeros
    terms: tuple  # tuple[tuple[Word, int], ...]
    ambient: Presentation

    def __str__(self):
        return format_ring(self)

    def __repr__(self):
        return f"<RingElement {format_ring(self)}>"

    def is_zero(self) -> bool:
        return not self.terms


def _make(terms: Dict[Word, int], ambient: Presentation) -> RingElement:
    items = [(w, c) for w, c in terms.items() if c != 0]
    items.sort(key=lambda item: shortlex_key(item[0], ambient.ordering), reverse=True)
    return RingElement(tuple(items), ambient)


def zero(ambient: Presentation) -> RingElement:
    return RingElement((), ambient)


def from_word(w: Word, ambient: Presentation) -> RingElement:
    """The single term ``1 · normalize(w)``."""
    for letter in w:
        if letter not in ambient.alphabet:
            raise AmbientMismatch(f"letter {letter} is not in the ambient alphabet")
    return RingElement(((normalize(w, ambient), 1),), ambient)


def _require_same_ambient(x: RingElement, y: RingElement) -> None:
    if x.ambient is not y.ambient and x.ambient != y.ambient:
        raise AmbientMismatch("ring elements live over different ambient systems")


def add(x: RingElement, y: RingElement) -> RingElement:
    _require_same_ambient(x, y)
    acc = dict(x.terms)
    for w, c in y.terms:
        acc[w] = acc.get(w, 0) + c
    return _make(acc, x.ambient)


def negate(x: RingElement) -> RingElement:
    return RingElement(tuple((w, -c) for w, c in x.terms), x.ambient)


def sub(x: RingElement, y: RingElement) -> RingElement:
    return add(x, negate(y))


def scale(n: int, x: RingElement) -> RingElement:
    if n == 0:
        return zero(x.ambient)
    return RingElement(tuple((w, n * c) for w, c in x.terms), x.ambient)


def total(elements: Iterable[RingElement], ambient: Presentation) -> RingElement:
    acc: Dict[Word, int] = {}
    for x in elements:
        if x.ambient is not ambient and x.ambient != ambient:
            raise AmbientMismatch("ring elements live over different ambient systems")
        for w, c in x.terms:
            acc[w] = acc.get(w, 0) + c
    return _make(acc, ambient)


def right_mul(x: RingElement, w: Word) -> RingElement:
    """Right action: concatenate ``w`` onto every term and renormalize."""
    for letter in w:
        if letter not in x.ambient.alphabet:
            raise AmbientMismatch(f"letter {letter} is not in the ambient alphabet")
    acc: Dict[Word, int] = {}
    for u, c in x.terms:
        key = normalize(u + w, x.ambient)
        acc[key] = acc.get(key, 0) + c
    return _make(acc, x.ambient)


def format_ring(x: RingElement) -> str:
    """Canonical print: descending shortlex terms, explicit signs, coefficient
    omitted when ±1, ε for the identity.  Injective on elements."""
    if not x.terms:
        return "0"
    parts = []
    for w, c in x.terms:
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        body = word_str(w) if mag == 1 else f"{mag} {word_str(w)}"
        parts.append(f"{sign} {body}")
    return " ".join(parts)
