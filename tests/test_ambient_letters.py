"""One check of a word against the ambient alphabet, shared by the ring and Φ."""

import pytest

from rwlab.casestudy import CASE_STUDY_WEIGHTS
from rwlab.core import EMPTY, word
from rwlab.invariant import phi_path
from rwlab.ring import AmbientMismatch, check_letters, from_word, right_mul
from rwlab.squier import Edge, Path


@pytest.mark.parametrize("w, first", [("h z a", "h"), ("a z h", "z"), ("a b' h", "h")])
def test_every_site_names_the_first_foreign_letter(w, first, Q, P):
    message = f"^letter {first} is not in the ambient alphabet$"
    e = Edge(EMPTY, Q.rule_named("K_a"), 1, word(w))
    for call in (
        lambda: check_letters(word(w), P),
        lambda: from_word(word(w), P),
        lambda: right_mul(from_word(EMPTY, P), word(w)),
        lambda: phi_path(Path(e.source, (e,)), CASE_STUDY_WEIGHTS, P),
    ):
        with pytest.raises(AmbientMismatch, match=message):
            call()


def test_a_word_of_ambient_letters_passes(P):
    check_letters(word("a b' a'"), P)
    check_letters(EMPTY, P)
