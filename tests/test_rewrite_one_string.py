"""The normalizer on one mirror string against the compiled loop it
replaced, kept in ``reference_rewrite`` as ``compiled_leftmost_steps`` and
``compiled_normalize``: the same steps and normal forms, with the schema
search resumed after a schema rewrite; the string keys of the normal-form
cache, which keeps every word a short reduction passes but only the ends of
a long one, and never changes a normal form by what it keeps; and
``reduction_path`` built without the validating walk."""

import functools
import random
from unittest import mock

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
    ValidationError,
    parse_presentation,
    shortlex_key,
    word,
)
from rwlab.squier import Path
from test_rewrite_differential import MIXED, NAMES, long_word, presentation
from test_suffix_families import NON_CONFLUENT


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


# s0 rewrites h a¹⁶ b b a¹⁶ c at 0, and the resumed search goes on at 0:
# s0 meets d before its next c and fails, and s1 writes e into s0's run.
# Resumed again, s0 meets that e, which is outside its range, and s2, whose
# range holds e, rewrites with its variable end past it.  A run of s0 kept
# past the e would let s0 rewrite h a¹⁶ e a¹⁶ c, where no rule applies.
CUT_RUN = parse_presentation(
    """
    letters h a b c d e
    order h a b c d e
    schema s0 ( v : a b ) : h v c -> h v
    schema s1 ( v : a b ) : h v b b -> h v e
    schema s2 ( v : a e ) : h v d -> h v
    """
)
CUT_RUN_WORD = word("h " + "a " * 16 + "b b " + "a " * 16 + "c d c")


def test_a_run_cut_by_a_later_alternative_stays_cut():
    w = CUT_RUN_WORD
    steps = [(i, name) for i, _, name, _ in new_steps(w, CUT_RUN)]
    assert steps == [(0, "s0"), (0, "s1"), (0, "s2")]
    assert rewrite.normalize(w, fresh(CUT_RUN)) == word("h " + "a " * 16 + "e " + "a " * 16 + "c")
    assert_same_as_compiled(w, CUT_RUN)


def test_undeclared_letters_do_not_share_a_cache_key():
    # no word takes a key: each is rejected, naming its own letter
    p = fresh(preset("Qbar"))
    for w, letter in (("q h a b", "q"), ("x h a b", "x"), ("h a q b", "q"), ("h a x b", "x")):
        with pytest.raises(ValidationError, match=f"^undeclared letter {letter}$"):
            rewrite.normalize(word(w), p)
    assert not p._nf_cache and not p._nf_order


def no_reduction(*args):
    raise AssertionError("a cached word was reduced again")


def test_a_long_reduction_caches_its_ends_alone():
    rng = random.Random(200)
    w = ("h",) + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(200)) + ("a", "b")
    p = fresh(preset("Qbar"))
    nf = rewrite.normalize(w, p)
    m = rewrite.check_orientation(p)
    assert nf == ref.normalize(w, p)
    # the input keeps its tuple key (a repeat is one lookup), then its mirror
    # and the normal form's, each mapped to the one normal form tuple
    assert list(p._nf_cache) == list(p._nf_order) == [w, m.mirror(w), m.mirror(nf)]
    assert all(value is nf for value in p._nf_cache.values())
    assert rewrite.normalize(nf, p) is nf  # served by the normal form's string


@pytest.mark.parametrize(
    "w, steps",
    [("a a h b h", 10), ("a a b h h", 11), ("h a' b' a b b", 7), ("h a b", 1), ("h b a", 0)],
)
def test_a_reduction_of_at_most_twice_its_length_in_steps_caches_every_word(
    w, steps, monkeypatch
):
    w = word(w)
    p = fresh(preset("Qbar"))
    m = rewrite.check_orientation(p)
    passed = [e.target for e in ref.leftmost_steps(w, p)]
    assert len(passed) == steps
    nf = rewrite.normalize(w, p)
    assert nf == (passed[-1] if passed else w)
    kept = passed if steps <= 2 * len(w) else passed[-1:]
    assert list(p._nf_order) == [w, m.mirror(w), *map(m.mirror, kept)]
    monkeypatch.setattr(rewrite, "_leftmost_steps", no_reduction)
    for u in kept:
        assert rewrite.normalize(u, p) == nf
    assert list(p._nf_cache) == list(p._nf_order)
    assert list(p._nf_order)[len(p._nf_order) - len(kept) :] == kept


@pytest.mark.parametrize("name", NAMES)
def test_a_call_caches_at_most_twice_its_length_squared_letters(name):
    rng = random.Random(41)
    q = presentation(name)
    letters = q.alphabet.letters
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 30))) for _ in range(40)]
    if name in ("Qbar", "M4", "N4"):
        words += [long_word(rng, "hwab", n) for n in (20, 60, 120)]
    for w in words:
        p = fresh(q)
        rewrite.normalize(w, p)
        assert sum(map(len, p._nf_cache)) <= (2 * len(w) + 2) * len(w)


def test_a_long_reduction_stops_at_an_earlier_input(monkeypatch):
    rng = random.Random(4)
    w = long_word(rng, "hwab", 80)
    p = fresh(preset("Qbar"))
    m = rewrite.check_orientation(p)
    passed = [e.target for e in ref.leftmost_steps(w, p)]
    assert len(passed) > 2 * len(w)
    k = len(passed) // 2
    nf = rewrite.normalize(passed[k], p)
    steps = rewrite._leftmost_steps
    taken = []

    def counted(*args):
        for step in steps(*args):
            taken.append(step)
            yield step

    monkeypatch.setattr(rewrite, "_leftmost_steps", counted)
    assert rewrite.normalize(w, p) == nf == ref.normalize(w, p)
    assert len(taken) == k + 1  # the step that reached the earlier input was the last
    assert list(p._nf_order)[3:] == [w, m.mirror(w)]


def oriented_rules(data, letters, count):
    """The swap ``a b -> b a`` and up to ``count`` more plain rules, each a
    two- or three-letter lhs against its reverse or a shorter word, every
    rule oriented shortlex-greater to smaller.  The swaps give reductions
    longer than twice their word, and many sets overlap without resolving,
    so many systems are not confluent."""
    ordering = OrderingSpec(letters)
    pairs = [(("a", "b"), ("b", "a"))]
    for _ in range(data.draw(st.integers(0, count))):
        u = tuple(data.draw(st.lists(st.sampled_from(letters), min_size=2, max_size=3)))
        shorter = st.lists(st.sampled_from(letters), max_size=len(u) - 1).map(tuple)
        v = data.draw(st.one_of(st.just(u[::-1]), shorter))
        if u != v:
            pairs.append((u, v))
    key = functools.partial(shortlex_key, ordering=ordering)
    rules = [Rule(f"r{k}", *sorted(pair, key=key, reverse=True)) for k, pair in enumerate(pairs)]
    return Presentation(Alphabet(letters), tuple(rules), ordering=ordering)


def oriented_schema_presentation(seed):
    """The first oriented ``random_presentation`` from ``seed`` on."""
    rng = random.Random(seed)
    while True:
        p = random_presentation(rng)
        if p is not None and rewrite._matcher(p).unoriented is None:
            return p


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_the_cache_policy_never_changes_a_normal_form(data):
    # calls in a random order over one shared cache, with the words their
    # reductions pass among them, each against a cold cache and the reference
    kind = data.draw(st.sampled_from(("mixed", "non-confluent", "Qbar", "plain", "schemas")))
    if kind in ("mixed", "Qbar"):
        p = presentation(kind)
    elif kind == "non-confluent":
        p = NON_CONFLUENT
    elif kind == "plain":
        p = oriented_rules(data, ("a", "b", "c"), 3)
    else:
        p = oriented_schema_presentation(data.draw(st.integers(0, 10**6)))
    letters = st.sampled_from(p.alphabet.letters)
    # a run of a before a run of b takes a quadratic number of steps under
    # the drawn swaps and on Qbar after an h; a drawn word is preceded by
    # an h, where there is one, half the time
    head = ("h",) if "h" in p.alphabet.letters else ()
    k = data.draw(st.integers(1, 8))
    words = data.draw(st.lists(st.lists(letters, max_size=24).map(tuple), max_size=3))
    words.append(("a",) * k + ("b",) * k)
    calls = []
    for w in words:
        w = head + w if head and data.draw(st.booleans()) else w
        calls.append(w)
        passed = [e.target for e in ref.leftmost_steps(w, p)]
        if passed:
            calls += data.draw(st.lists(st.sampled_from(passed), max_size=3))
    calls = data.draw(st.permutations(calls))
    cap = data.draw(st.sampled_from((rewrite.NF_CACHE_CAP, 2, 7)))
    shared = fresh(p)
    with mock.patch.object(rewrite, "NF_CACHE_CAP", cap):
        got = [rewrite.normalize(w, shared) for w in calls]
        assert len(shared._nf_cache) <= cap
    assert got == [rewrite.normalize(w, fresh(p)) for w in calls]
    assert got == [ref.normalize(w, p) for w in calls]


def test_reduction_path_skips_the_validating_walk(monkeypatch):
    rng = random.Random(9)
    words = [("Qbar", long_word(rng, "hwab", 60)), ("M4", long_word(rng, "multih", 60))]
    words += [("mixed", run_heavy(rng, shape, 12)) for shape in SHAPES]
    words += [(name, word(w)) for name, w in (("Qbar", "h a b' b"), ("Q", "b a h h a'"))]
    paths = []
    with monkeypatch.context() as patched:

        def walk(self):
            raise AssertionError("reduction_path validated its own edges")

        patched.setattr(Path, "__post_init__", walk)
        for name, w in words:
            paths.append(rewrite.reduction_path(w, presentation(name)))
    for (name, w), path in zip(words, paths):
        assert path == Path(w, path.edges) == ref.reduction_path(w, presentation(name))


def test_a_rewrite_before_a_run_resets_the_run():
    # r0 makes h h h a, then S0 rewrites h a at 2 and at 1; the rewrite at
    # 1 lands before the start of the range run the step at 2 left, and a
    # search that trusted that run would miss the last match, at 0, and
    # stop at h a d d
    p = parse_presentation(
        """
        letters h a b c d
        order h a b c d
        rule r0 : b -> ε
        schema S0 ( v : a d b ) : h a v -> a d v
        """
    )
    w = word("h h b h a")
    assert rewrite.normalize(w, fresh(p)) == word("a d d d") == ref.compiled_normalize(w, fresh(p))
    assert_same_as_compiled(w, p)


def random_empty_suffix_presentation(rng):
    """Two to four schemas with an empty suffix, whose prefix is h or h and
    a letter and is rewritten to as many letters without h; and up to two
    plain deletions of one letter."""
    schemas = []
    for k in range(rng.randint(2, 4)):
        rng_letters = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
        pre = ("h",) + tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 1)))
        rpre = tuple(rng.choice(LETTERS) for _ in pre)
        schemas.append(RuleSchema(f"S{k}", "v", rng_letters, pre, (), rpre, ()))
    rules = [Rule(f"r{k}", (x,), ()) for k, x in enumerate(rng.sample(LETTERS, rng.randint(0, 2)))]
    letters = ("h",) + LETTERS
    return Presentation(Alphabet(letters), tuple(rules), tuple(schemas), OrderingSpec(letters))


def h_runs(rng):
    """One to four blocks, each a run of one to four h and up to four letters."""
    w = ()
    for _ in range(rng.randint(1, 4)):
        w += ("h",) * rng.randint(1, 4) + tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 4)))
    return w


def test_random_empty_suffix_schemas_take_the_compiled_steps():
    # with no suffix, where a schema's run of range letters starts decides
    # its redex, and a rewrite before that start must reset the run; runs
    # of h make prefixes that a rewrite turns into new redexes to their left
    rng = random.Random(15)
    for _ in range(300):
        p = random_empty_suffix_presentation(rng)
        for _ in range(4):
            assert_same_as_compiled(h_runs(rng), p)
