"""The normalizer on one mirror string against the compiled loop it
replaced, kept in ``reference_rewrite`` as ``compiled_leftmost_steps`` and
``compiled_normalize``: the same steps and normal forms, with the schema
search resumed after a schema rewrite; the string keys of the normal-form
cache; and ``reduction_path`` built without the validating walk."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import rewrite
from rwlab.casestudy import preset
from rwlab.core import (
    Alphabet,
    OrderingSpec,
    Presentation,
    Rule,
    RuleSchema,
    RwlabError,
    parse_presentation,
    word,
)
from rwlab.squier import Path
from test_rewrite_differential import MIXED, NAMES, long_word, presentation


def fresh(p):
    """An equal presentation with an empty normal-form cache."""
    return Presentation(p.alphabet, p.rules, p.schemas, p.ordering)


def new_steps(w, p):
    m = rewrite.check_orientation(p)
    s = m.mirror(w)
    return [(i, j, x.name, t) for t, i, j, a, b, x in rewrite._leftmost_steps(w, s, m)]


def assert_same_as_compiled(w, p):
    m = rewrite.check_orientation(p)
    expected = [(i, j, x.name, u) for u, i, j, x, v in ref.compiled_leftmost_steps(w, p)]
    got = new_steps(w, p)
    assert [step[:3] for step in got] == [step[:3] for step in expected]
    assert [m.word(t) for *_, t in got] == [u for *_, u in expected]
    nf = expected[-1][3] if expected else w
    assert rewrite.normalize(w, fresh(p)) == nf == ref.compiled_normalize(w, fresh(p))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_short_words_take_the_compiled_steps(name, data):
    p = presentation(name)
    letters = st.sampled_from(p.alphabet.letters)
    assert_same_as_compiled(tuple(data.draw(st.lists(letters, max_size=40))), p)


def run_heavy(rng, shape, k):
    """``c (a b)ᵏ d…``, ``e (b c d)ᵏ a…`` or ``(a c)ᵏ e…``, each with up to
    two ``q q`` spliced into the run."""
    if shape == "cabd":
        body = ["c"] + ["a", "b"] * k + ["d"] * rng.randint(2, 5)
    elif shape == "ebcda":
        body = ["e"] + ["b", "c", "d"] * k + ["a"] * rng.randint(1, 4)
    else:
        body = ["a", "c"] * k + ["e"] * rng.randint(2, 5)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(1, 2 * k)
        body[at:at] = ["q", "q"]
    return tuple(body)


SHAPES = ("cabd", "ebcda", "acee")


@pytest.mark.parametrize("shape", SHAPES)
def test_run_heavy_words_take_the_compiled_steps(shape):
    rng = random.Random(shape)
    for _ in range(30):
        assert_same_as_compiled(run_heavy(rng, shape, rng.randint(8, 40)), MIXED)


def test_run_heavy_words_reach_the_resume_path(monkeypatch):
    # every schema shape (empty prefix, suffix of length 1 and 2) is found
    # again by a resume, also once a plain deletion joined its run
    resumed, current = set(), []
    resume = rewrite._Matcher._resume

    def counted(self, s, *args):
        found = resume(self, s, *args)
        if found is not None:
            resumed.add((found[4][1].name, "q" in current[-1] and "q" not in s))
        return found

    monkeypatch.setattr(rewrite._Matcher, "_resume", counted)
    rng = random.Random(5)
    for shape in SHAPES:
        for _ in range(30):
            w = run_heavy(rng, shape, rng.randint(8, 40))
            current.append(w)
            assert rewrite.normalize(w, fresh(MIXED)) == ref.normalize(w, MIXED)
    assert {name for name, _ in resumed} == {"s_cdd", "s_ee", "s_ea"}
    assert any(joined for _, joined in resumed)


@pytest.mark.parametrize(
    "name, shape, n",
    [("Qbar", "hwab", 200), ("M4", "multih", 240), ("N4", "oneh", 200), ("Qbar", "multih", 160)],
    ids=str,
)
def test_long_words_take_the_compiled_steps(name, shape, n):
    rng = random.Random(f"one-string-{name}-{shape}-{n}")
    for _ in range(3):
        assert_same_as_compiled(long_word(rng, shape, n), preset(name))


LETTERS = ("a", "b", "c", "d")


def random_presentation(rng):
    """Up to five schemas over one alphabet, most with prefix h, with random
    ranges and suffixes: some shorten their suffix, some reverse part of it,
    a few rewrite h to another letter; and up to three plain deletions."""
    schemas = []
    for k in range(rng.randint(2, 5)):
        rng_letters = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
        pre = ("h",) if rng.random() < 0.8 else ()
        kind = rng.random()
        if kind < 0.15 and pre:
            suf = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 1)))
            rpre, rsuf = (rng.choice(LETTERS),), suf
        else:
            suf = tuple(rng.choice(LETTERS) for _ in range(rng.randint(1, 2)))
            cut = rng.randint(0, len(suf) - 1)
            rpre = pre
            rsuf = suf[:cut] + suf[cut + 1 :] if kind < 0.8 else tuple(reversed(suf[1:]))
        try:
            schemas.append(RuleSchema(f"S{k}", "v", rng_letters, pre, suf, rpre, rsuf))
        except RwlabError:
            pass
    letters = ("h",) + LETTERS
    rules = []
    for k in range(rng.randint(0, 3)):
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(2, 3)))
        rules.append(Rule(f"r{k}", lhs, lhs[1:]))
    try:
        return Presentation(Alphabet(letters), tuple(rules), tuple(schemas), OrderingSpec(letters))
    except RwlabError:
        return None


def test_random_presentations_take_the_compiled_steps():
    # schemas that share a prefix but not a range, so one schema's rewrite
    # can cut or join another's run; long runs put the variable past the
    # length at which the search resumes
    rng = random.Random(14)
    checked = 0
    while checked < 200:
        p = random_presentation(rng)
        if p is None or rewrite._matcher(p).unoriented is not None:
            continue
        checked += 1
        for _ in range(3):
            run = rng.sample(LETTERS, rng.randint(1, 3))
            w = [rng.choice(run) for _ in range(rng.randint(16, 90))]
            for _ in range(rng.randint(0, 3)):
                w.insert(rng.randint(0, len(w)), rng.choice(("h",) + LETTERS))
            tail = tuple(rng.choice(LETTERS) for _ in range(rng.randint(1, 6)))
            assert_same_as_compiled(("h",) + tuple(w) + tail, p)


def test_a_long_plain_rule_made_by_a_resumed_step_wins():
    # the swap at the end of h a¹⁶ b makes the 18-letter plain lhs at 0,
    # which starts before the schema's next match would
    p = parse_presentation(
        f"""
        letters h b d a
        order h b d a
        rule long : h {"a " * 16}d -> h
        schema s ( v : a ) : h v b -> h v d
        """
    )
    w = word("h " + "a " * 16 + "b b")
    assert [(i, name) for i, _, name, _ in new_steps(w, p)] == [(0, "s"), (0, "long"), (0, "s")]
    assert_same_as_compiled(w, p)


def test_undeclared_letters_do_not_share_a_cache_key():
    # every undeclared letter mirrors to "\0": q h a b and x h a b share a
    # mirror, so a string key would hand one the other's normal form
    p = fresh(preset("Qbar"))
    for w in ("q h a b", "x h a b", "h a q b", "h a x b"):
        assert rewrite.normalize(word(w), p) == ref.normalize(word(w), p)
    assert all(isinstance(key, tuple) for key in p._nf_cache)


def test_cache_keys_passed_words_by_their_mirror(monkeypatch):
    rng = random.Random(200)
    w = ("h",) + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(200)) + ("a", "b")
    p = fresh(preset("Qbar"))
    nf = rewrite.normalize(w, p)
    cache, order = p._nf_cache, p._nf_order
    assert w in cache  # the input keeps its tuple key: a repeat is one lookup
    assert all(isinstance(key, str) for key in cache if key is not w)
    assert list(cache) == list(order)
    assert len(set(order)) == len(order)  # a duplicate would make eviction raise
    keys = [key for key in cache if isinstance(key, str)]
    assert len(keys) > 1000 and set(cache.values()) == {nf}
    midway = rewrite.check_orientation(p).word(keys[len(keys) // 2])

    def no_reduction(*args):
        raise AssertionError("a cached word was reduced again")

    monkeypatch.setattr(rewrite, "_leftmost_steps", no_reduction)
    assert rewrite.normalize(midway, p) == nf
    assert list(cache)[-1] == midway and list(cache) == list(order)


def test_reduction_path_skips_the_validating_walk(monkeypatch):
    rng = random.Random(9)
    words = [("Qbar", long_word(rng, "hwab", 60)), ("M4", long_word(rng, "multih", 60))]
    words += [("mixed", run_heavy(rng, shape, 12)) for shape in SHAPES]
    words += [(name, word(w)) for name, w in (("Qbar", "h a q b"), ("Q", "b a h h a'"))]
    paths = []
    with monkeypatch.context() as patched:

        def walk(self):
            raise AssertionError("reduction_path validated its own edges")

        patched.setattr(Path, "__post_init__", walk)
        for name, w in words:
            paths.append(rewrite.reduction_path(w, presentation(name)))
    for (name, w), path in zip(words, paths):
        assert path == Path(w, path.edges) == ref.reduction_path(w, presentation(name))
