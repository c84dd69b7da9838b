"""Former code of ``rwlab.invariant``, kept as the reference.

``phi_edge`` and ``phi_path`` are the former per-edge Φ, unchanged: every
weighted edge normalizes its own right context through ``from_word``, which
checks the context's letters first, and the edge images are summed with
``total``.
"""

from __future__ import annotations

from rwlab.core import Presentation
from rwlab.invariant import WeightSpec
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
