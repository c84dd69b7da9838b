"""``sigma`` tests h·w1 against h·w2, so it needs a presentation with h.

Over a presentation without h it used to normalize the words with h as an
unknown letter and answer free-group equality; now it is a validation error,
which the CLI reports with exit 2.
"""

import hashlib

import pytest

from rwlab.casestudy import preset
from rwlab.cli import main
from rwlab.core import ValidationError, parse_presentation, word, words_over
from rwlab.invariant import A_LETTERS
from rwlab.structure import sigma_equal

# sigma over all pairs of words of length <= 2 as a bit string; the four
# presets agree on these short words
SIGMA_BITS_DIGEST = "c3b15dd1921c43e8678c04c8046e53131c07c3dd4c60e4241f480580070fa3fd"


@pytest.mark.parametrize("name", ["Q", "Qbar", "M4", "N4"])
def test_sigma_is_unchanged_over_the_presets_with_h(name):
    p = preset(name)
    words = list(words_over(A_LETTERS, 2))
    bits = "".join("1" if sigma_equal(u, v, p) else "0" for u in words for v in words)
    assert hashlib.sha256(bits.encode()).hexdigest() == SIGMA_BITS_DIGEST


def test_sigma_rejects_a_presentation_without_h():
    no_h = parse_presentation("letters a b\norder a b\n")
    for p in (preset("P"), no_h):
        with pytest.raises(ValidationError, match="^undeclared letter h$"):
            sigma_equal(word("a"), word("b"), p)
        with pytest.raises(ValidationError, match="^undeclared letter h$"):
            sigma_equal(word("a"), word("a"), p)


@pytest.mark.parametrize("w2", ["a", "b"])
def test_sigma_verb_exits_2_without_h(w2, capsys):
    code = main(["sigma", "--preset", "P", "a", w2])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "rwlab: undeclared letter h\n")
