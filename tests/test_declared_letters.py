"""Words over declared letters only.

Every entry point of the normalizer rejects a word with a letter that its
presentation does not declare.  It raises the CLI's ``ValidationError``,
naming the first such letter of the word, and leaves the normal-form cache,
the path cache, the shared schema instances and their eviction orders as
they were.  Each presentation is warmed first, so that a stored entry
would show.
"""

import dataclasses
import random

import pytest

from rwlab import completion, rewrite
from rwlab.core import ValidationError, word
from test_rewrite_differential import presentation

ENTRY_POINTS = {
    "normalize": rewrite.normalize,
    "normal_form": completion.normal_form,
    "reduction_path": rewrite.reduction_path,
    "find_redexes": rewrite.find_redexes,
    "is_irreducible": rewrite.is_irreducible,
}

# the first letter of h a q x b that each presentation does not declare
FIRST_UNDECLARED = {"P": "h", "Qbar": "q", "M4": "q", "mixed": "h"}


def caches(p):
    """Copies of the caches of ``p`` and of their eviction orders."""
    return (
        dict(p._nf_cache),
        list(p._nf_order),
        dict(p._path_cache),
        dict(p._path_rules),
        list(p._path_order),
    )


def assert_rejects(entry, w, p, letter):
    """``entry(w, p)`` raises ``ValidationError("undeclared letter <letter>")``
    and changes no cache of ``p``."""
    before = caches(p)
    try:
        entry(w, p)
    except ValidationError as exc:
        assert str(exc) == f"undeclared letter {letter}"
    else:
        raise AssertionError(f"{entry.__name__} accepted {w}")
    assert caches(p) == before


def warmed(name):
    """A fresh copy of the presentation ``name`` whose caches hold the
    normal forms and paths of a few random words."""
    p = dataclasses.replace(presentation(name))
    rng = random.Random(name)
    letters = p.alphabet.letters
    for n in (0, 2, 5, 9, 16, 30):
        w = tuple(rng.choice(letters) for _ in range(n))
        assert completion.normal_form(w, p) == rewrite.reduction_path(w, p).tau
        rewrite.normalize(w[1:], p)
    assert p._nf_cache and p._path_cache
    return p


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("name", FIRST_UNDECLARED)
def test_every_entry_point_rejects_the_first_undeclared_letter(name, entry):
    assert_rejects(ENTRY_POINTS[entry], word("h a q x b"), warmed(name), FIRST_UNDECLARED[name])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_undeclared_letter_is_found_at_every_position(entry):
    p = warmed("Qbar")
    w = word("h a b' a' b b a")
    for k in range(len(w) + 1):
        assert_rejects(ENTRY_POINTS[entry], w[:k] + ("x",) + w[k:] + ("q",), p, "x")
