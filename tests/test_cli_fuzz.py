"""A fuzz gate for the command line: small random presentation files, well
formed or not, through ``cli.main`` over the verbs that rewrite.

Every call must end with exit code 0, 1 or 2: an exact answer, a
non-confluent system, or a clean error.  An exception that escapes
``main`` is a traceback and fails the test.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwlab.cli import main
from rwlab.core import EPSILON, OrderingSpec, shortlex_key

JUNK = (
    "rule r : a",
    "rule r : a b",
    "schema s ( X ) : a X -> X",
    "schema s ( X : a ) : X -> X",
    "inverse a",
    "letters",
    "frob a b",
)


def _side(w) -> str:
    return " ".join(w) if w else EPSILON


@st.composite
def presentation_files(draw):
    """The text of a presentation file over up to three letters, and the
    tokens words are drawn from: mostly oriented rules under a drawn order,
    sometimes an unoriented rule, a duplicate name, an undeclared letter, a
    missing or partial order, a schema or a malformed line."""
    letters = draw(st.lists(st.sampled_from(("a", "b", "c", "a'")), min_size=1, max_size=3, unique=True))
    # the rare cases are drawn at a middle value, which Hypothesis favours least
    foreign = draw(st.integers(0, 9)) == 5
    tokens = st.sampled_from(letters + ["z"] if foreign else letters)  # z is never declared
    lines = ["letters " + " ".join(letters)]
    if "a" in letters and "a'" in letters and draw(st.booleans()):
        lines.append("inverse a a'")
    precedence = tuple(draw(st.permutations(letters)))
    shape = draw(st.integers(0, 9))  # 4: no order, 5: a partial one
    if shape != 4:
        lines.append("order " + " ".join(precedence[: len(precedence) - (shape == 5)]))
    ordering = OrderingSpec(precedence)
    for _ in range(draw(st.integers(0, 4))):
        u = tuple(draw(st.lists(tokens, max_size=3)))
        v = tuple(draw(st.lists(tokens, max_size=3)))
        if u == v:
            continue
        if "z" not in u + v and shortlex_key(u, ordering) < shortlex_key(v, ordering):
            u, v = v, u
        if draw(st.integers(0, 15)) == 5:
            u, v = v, u
        name = "r1" if draw(st.integers(0, 15)) == 5 else f"r{len(lines)}"
        lines.append(f"rule {name} : {_side(u)} -> {_side(v)}")
    if draw(st.integers(0, 2)) == 0:
        rng = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=2, unique=True))
        prefix = draw(st.lists(tokens, max_size=1))
        suffix = draw(st.lists(tokens, min_size=1, max_size=2))
        rhs = suffix[:-1] if draw(st.integers(0, 3)) else draw(st.lists(tokens, max_size=2))
        lhs_seq, rhs_seq = " ".join(prefix + ["X"] + suffix), " ".join(prefix + ["X"] + rhs)
        lines.append(f"schema s ( X : {' '.join(rng)} ) : {lhs_seq} -> {rhs_seq}")
    if draw(st.integers(0, 9)) == 5:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK)))
    return "\n".join(lines) + "\n", tokens


@st.composite
def calls(draw):
    text, tokens = draw(presentation_files())
    words = [_side(draw(st.lists(tokens, max_size=5))) for _ in range(3)]
    trace = ["--trace"] if draw(st.booleans()) else []
    return text, [
        ["reduce", "-w", words[0]] + trace,
        ["nf", "--max-len", "3"],
        ["peaks", "--schema-bound", "1"],
        ["confluence", "--schema-bound", "1"],
        ["complete", "--max-rules", "3", "--max-lhs-len", "4", "--schema-bound", "1"],
        ["equal", words[1], words[2]],
    ]


@settings(
    max_examples=150,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=calls())
def test_random_presentation_files_exit_cleanly(case, tmp_path_factory):
    text, argvs = case
    path = tmp_path_factory.getbasetemp() / "fuzz.pres"
    path.write_text(text)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([argv[0], "-p", str(path)] + argv[1:])
            except SystemExit as exc:  # a usage error from argparse
                code = exc.code
        assert code in (0, 1, 2), (argv, text, err.getvalue())
