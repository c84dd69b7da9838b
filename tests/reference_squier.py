"""Former code of ``rwlab.squier``, kept as the reference.

``Edge`` is the former frozen dataclass, unchanged: its ``repr``, hash and
sign check are what the tuple-based ``rwlab.squier.Edge`` must reproduce.

``check_path`` is the former ``Path.__post_init__`` walk, unchanged but for
taking the path as an argument: every edge must start where the previous
one ended.  ``compose``, ``invert``, ``act`` and ``lift_path`` now build
their results without it, and the differential tests re-run it on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from rwlab.core import Rule, Word, word_str
from rwlab.squier import PathError


@dataclass(frozen=True)
class Edge:
    left: Word
    rule: Rule
    sign: int  # +1 or -1
    right: Word

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise PathError(f"edge sign must be +1 or -1, got {self.sign}")


def check_path(path) -> None:
    at = path.start
    for i, e in enumerate(path.edges):
        if e.source != at:
            raise PathError(
                f"edge {i} starts at {word_str(e.source)}, expected {word_str(at)}"
            )
        at = e.target
