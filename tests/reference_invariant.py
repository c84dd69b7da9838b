"""Former code of ``rwlab.invariant``, kept as the reference.

``phi_edge`` and ``phi_path`` are the former per-edge Φ, unchanged: every
weighted edge normalizes its own right context through ``from_word``, which
checks the context's letters first, and the edge images are summed with
``total``.  ``partial_derivation`` is the former ∂, which normalizes each
suffix on its own through ``from_word`` in the same way.
"""

from __future__ import annotations

from rwlab.core import Presentation, RwlabError, Word
from rwlab.invariant import LETTER_EXPONENTS, WeightSpec
from rwlab.ring import RingElement, from_word, scale, total, zero
from rwlab.squier import Edge, Path


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
