"""Former code of ``rwlab.invariant``, kept as the reference.

``phi_edge`` and ``phi_path`` are the former per-edge Φ, unchanged: every
weighted edge normalizes its own right context through ``from_word``, which
checks the context's letters first, and the edge images are summed with
``total``.  ``partial_derivation`` is the former ∂, which normalizes each
suffix on its own through ``from_word`` in the same way.

``right_mul``, ``commutator`` and ``evaluate`` are the former right action,
commutator expansion and ``Witness.evaluate``: the right action
renormalizes every term, also for an empty word; the commutator is the
difference of two right actions; a witness is the ``total`` of its scaled,
right-multiplied source values, which come from the former commutator
through ``closed_form_ct`` and ``source_value`` below.

``validate_ct_params`` is the former ``CtParams.__post_init__``, which
read a slot by ``getattr`` for each check.
"""

from __future__ import annotations

from typing import Dict

from rwlab.completion import normal_form
from rwlab.core import EMPTY, Presentation, RwlabError, Word
from rwlab.invariant import (
    A_LETTERS,
    CT_FAMILIES,
    EXPONENT_SLOTS,
    LETTER_EXPONENTS,
    REQUIRED_SLOTS,
    SLOTS,
    WORD_SLOTS,
    CtParams,
    WeightSpec,
    a_pow,
    b_pow,
    swap_pair,
)
from rwlab.obstruction import (
    ONE_MINUS_A,
    Witness,
    WitnessError,
    XGenRef,
    x_generator,
    x_generator_a,
)
from rwlab.ring import RingElement, check_letters, from_word, scale, sub, total, zero
from rwlab.squier import Edge, Path


def validate_ct_params(self) -> None:
    """Raise ``RwlabError`` unless ``self``, anything with a ``family``
    and every slot of ``SLOTS`` as attributes, holds valid parameters."""
    if self.family not in CT_FAMILIES:
        raise RwlabError(f"unknown circuit family {self.family}")
    required = REQUIRED_SLOTS[self.family]
    for slot in required:
        if getattr(self, slot) is None:
            raise RwlabError(f"{self.family} requires parameter {slot}")
    for slot in SLOTS:
        if slot not in required and getattr(self, slot) is not None:
            raise RwlabError(f"{self.family} does not take parameter {slot}")
    if self.x is not None and self.x not in A_LETTERS:
        raise RwlabError(f"x must be one of {A_LETTERS}")
    for slot in EXPONENT_SLOTS:
        val = getattr(self, slot)
        if val is not None and val not in (1, -1):
            raise RwlabError(f"{slot} must be +1 or -1")
    for slot in WORD_SLOTS:
        val = getattr(self, slot)
        if val is not None and any(l not in A_LETTERS for l in val):
            raise RwlabError(f"{slot} must be a word over a, a', b, b'")


def phi_edge(e: Edge, weights: WeightSpec, ambient: Presentation) -> RingElement:
    """sign · weight(rule) · [right context]; zero-weight rules contribute 0
    without touching the context."""
    wt = weights.get(e.rule.name)
    if wt == 0:
        return zero(ambient)
    return scale(e.sign * wt, from_word(e.right, ambient))


def phi_path(p: Path, weights: WeightSpec, ambient: Presentation) -> RingElement:
    return total((phi_edge(e, weights, ambient) for e in p.edges), ambient)


def partial_derivation(w: Word, ambient: Presentation) -> RingElement:
    for letter in w:
        if letter not in LETTER_EXPONENTS:
            raise RwlabError(
                f"derivation is only defined on letters a, a', b, b' (got {letter})"
            )
    return total(
        (
            scale(-LETTER_EXPONENTS[x][0], from_word(w[i + 1 :], ambient))
            for i, x in enumerate(w)
            if LETTER_EXPONENTS[x][0]
        ),
        ambient,
    )


def right_mul(x: RingElement, w: Word) -> RingElement:
    """Right action: concatenate ``w`` onto every term and renormalize,
    through ``completion.normal_form``."""
    check_letters(w, x.ambient)
    acc: Dict[Word, int] = {}
    for u, c in x.terms.items():
        key = normal_form(u + w, x.ambient)
        acc[key] = acc.get(key, 0) + c
    return RingElement({u: c for u, c in acc.items() if c}, x.ambient)


def commutator(x: RingElement, w: Word, eps: int, delta: int) -> RingElement:
    """x · w · (b^δ a^ε − a^ε b^δ), expanded through the right action."""
    ab, ba = swap_pair(eps, delta)
    return sub(right_mul(x, w + ba), right_mul(x, w + ab))


def closed_form_ct(params: CtParams, ambient: Presentation) -> RingElement:
    f = params.family
    if f in ("CT2", "CT3", "CT5"):
        return zero(ambient)
    one = from_word(EMPTY, ambient)
    if f == "CT4":
        return scale(-params.eps, commutator(one, EMPTY, params.eps, params.delta))
    if f == "CT7":
        unit = sub(from_word(b_pow(params.delta1), ambient), one)
        return scale(params.eps1, commutator(unit, params.w2, params.eps2, params.delta2))
    e = LETTER_EXPONENTS[params.x][0]
    if not e:
        return zero(ambient)
    unit = scale(e, sub(from_word(a_pow(-e), ambient), one))
    if f == "CT6":
        return unit
    return commutator(unit, params.w2, params.eps, params.delta)


def source_value(source, ambient: Presentation) -> RingElement:
    if isinstance(source, CtParams):
        return closed_form_ct(source, ambient)
    if isinstance(source, XGenRef):
        return x_generator(source.w, source.eps, source.delta, ambient)
    if source == ONE_MINUS_A:
        return x_generator_a(ambient)
    raise WitnessError(f"unknown witness source {source!r}")


def evaluate(witness: Witness) -> RingElement:
    ambient = witness.target.ambient
    return total(
        (
            scale(t.sign, right_mul(source_value(t.source, ambient), t.multiplier))
            for t in witness.terms
        ),
        ambient,
    )
