"""Reduction paths against the reference paths of their edges.

``reduction_path`` returns a path that keeps its start, the steps of its
cached chain and its normal form, and builds its edges only when they are
read.  Here the steps must be the ones the public constructor reads off the
reference edges, ``tau``, ``iota`` and ``is_positive`` are read before any
edge, and then the edges, ``len``, equality, hash, repr and pickle must be
those of ``reference_rewrite.reduction_path``, a ``Path(w, edges)`` built by
the former search on a fresh presentation.
"""

import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import rewrite
from rwlab.casestudy import PRESETS, preset
from rwlab.completion import CriticalCircuit, critical_peaks, resolve_peak
from rwlab.core import OrderingSpec, Presentation, Rule, RwlabError, ValidationError, word
from rwlab.squier import Edge, Path
from test_peaks_differential import plain_presentations
from test_rewrite_differential import MIXED


def fresh(p):
    """An equal presentation with empty caches."""
    return Presentation(p.alphabet, p.rules, p.schemas, p.ordering)


def assert_like_the_reference(path, expected):
    """``path``, a reduction path whose edges were never read, against
    ``expected``, a path given its edges."""
    assert path.steps == expected.steps  # as the public constructor reads them off the edges
    assert (path.iota, path.tau, path.is_positive) == (expected.iota, expected.tau, True)
    assert path.is_closed == expected.is_closed
    assert path.edges == expected.edges
    assert len(path) == len(expected)
    assert path == expected and expected == path
    assert hash(path) == hash(expected)
    assert repr(path) == repr(expected) and str(path) == str(expected)
    # the same bytes as the path given the same edge objects; the reference's
    # edges hold equal but distinct schema instances, which pickle apart
    assert pickle.dumps(path) == pickle.dumps(Path(path.start, path.edges))
    twin = pickle.loads(pickle.dumps(path))
    assert twin == expected and twin.tau == expected.tau and twin.steps == expected.steps


def assert_paths_match(words, p):
    oracle = fresh(p)
    for w in words:
        assert_like_the_reference(rewrite.reduction_path(w, p), ref.reduction_path(w, oracle))


@pytest.mark.parametrize("name", PRESETS + ("mixed",))
def test_every_preset_matches_the_reference(name):
    p = fresh(MIXED if name == "mixed" else preset(name))
    rng = random.Random(41)
    letters = p.alphabet.letters
    # short words repeat, so many paths are served whole or in part
    words = [tuple(rng.choice(letters) for _ in range(rng.randrange(12))) for _ in range(600)]
    words += [tuple(rng.choice(letters) for _ in range(40)) for _ in range(5)]
    assert_paths_match(words, p)


@settings(max_examples=200, deadline=None)
@given(p=plain_presentations(), data=st.data())
def test_drawn_presentations_match_the_reference(p, data):
    assume(p.ordering is not None)
    # the strategy draws the precedence as a list, which does not hash
    ordering = OrderingSpec(tuple(p.ordering.precedence))
    # each rule turned to shrink, so that few draws are thrown away (a rule
    # and its reverse are never both drawn, so no two rules become inverse)
    rules = tuple(
        r if rewrite.compare_shortlex(r.lhs, r.rhs, ordering) > 0 else Rule(r.name, r.rhs, r.lhs)
        for r in p.rules
    )
    p = Presentation(p.alphabet, rules, (), ordering)
    assert rewrite._matcher(p).unoriented is None
    letters = st.sampled_from(p.alphabet.letters)
    words = data.draw(st.lists(st.lists(letters, max_size=8).map(tuple), max_size=8))
    assert_paths_match(words + words, p)


def test_words_with_undeclared_letters_are_rejected(Qbar):
    p = fresh(Qbar)
    for w, letter in (("q a h b", "q"), ("x a h b", "x"), ("a q h b a", "q"), ("q", "q")):
        with pytest.raises(ValidationError, match=f"^undeclared letter {letter}$"):
            rewrite.reduction_path(word(w), p)
    assert not p._path_cache and not p._path_rules and not p._path_order


def test_paths_read_after_their_cells_were_evicted(Qbar, monkeypatch):
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 30)
    p, oracle = fresh(Qbar), fresh(Qbar)
    rng = random.Random(43)
    words = [word("h") + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(n)) + word("a b")
             for n in (4, 8, 12, 16, 20)]
    paths = [rewrite.reduction_path(w, p) for w in words]
    assert len(p._path_order) <= 30
    # most of the first paths' cells are gone from the cache, but not from the paths
    m = rewrite.check_orientation(p)
    first = ref.reduction_path(words[0], oracle)
    assert sum(m.mirror(e.target) not in p._path_cache for e in first.edges) > len(first) // 2
    for w, path in zip(words, paths):
        assert_like_the_reference(path, ref.reduction_path(w, oracle))


def test_the_step_cap_is_raised_at_the_call(Qbar, monkeypatch):
    p = fresh(Qbar)
    w = word("a a h b")  # four steps
    searched = rewrite.reduction_path(w, p)
    monkeypatch.setattr(rewrite, "STEP_CAP", 3)
    for q in (fresh(Qbar), p):  # searched, then joining the cached chain after a step
        with pytest.raises(rewrite.RewriteError, match="^step cap exceeded while reducing a a h b$"):
            rewrite.reduction_path(w, q)
    monkeypatch.setattr(rewrite, "STEP_CAP", 4)
    served = rewrite.reduction_path(w, p)
    monkeypatch.setattr(rewrite, "STEP_CAP", 0)  # a path past the call never raises
    assert len(served.edges) == 4 and served == searched
    assert rewrite.format_trace(served).count("\n") == 3


def test_the_trace_of_a_chain_builds_no_edge(Qbar, monkeypatch):
    p = fresh(Qbar)
    rng = random.Random(47)
    words = [word("h") + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(n)) + word("a b")
             for n in (0, 3, 30)]
    paths = [rewrite.reduction_path(w, p) for w in words]
    expected = [rewrite.format_trace(Path(path.start, path.edges)) for path in paths]
    paths = [rewrite.reduction_path(w, p) for w in words]  # served, edges unread

    def no_edge(*args):
        raise AssertionError("an edge was built")

    monkeypatch.setattr(Edge, "__new__", no_edge)
    assert [rewrite.format_trace(path) for path in paths] == expected
    assert [line.count("\n") + 1 for line in expected] == [len(path.steps) for path in paths]


def test_resolving_every_qbar_peak_builds_no_edge(Qbar, monkeypatch):
    peaks = critical_peaks(Qbar, 3)
    assert len(peaks) == 3138
    p = fresh(Qbar)

    def no_edge(*args):
        raise AssertionError("an edge was built")

    with monkeypatch.context() as patched:
        patched.setattr(Edge, "__new__", no_edge)
        resolutions = [resolve_peak(peak, p) for peak in peaks]
        assert all(isinstance(res, CriticalCircuit) for res in resolutions)
        with pytest.raises(AssertionError, match="an edge was built"):
            resolutions[0].circuit()
    oracle = fresh(Qbar)
    for peak, res in zip(peaks[::97], resolutions[::97]):
        assert res.p1 == ref.reduction_path(peak.result1, oracle)
        assert res.p2 == ref.reduction_path(peak.result2, oracle)


def test_a_path_holds_the_step_tuples_of_its_cells(Qbar):
    # a path's steps are the tuples its cells hold, not copies of them; the
    # caller's own word is not stored, so its first step is searched again
    p = fresh(Qbar)
    w = word("h a b' a' b a b")
    searched, served = rewrite.reduction_path(w, p), rewrite.reduction_path(w, p)
    assert len(searched) > 3 and searched == served
    assert all(a is b for a, b in zip(searched.steps[1:], served.steps[1:]))
    cell = p._path_cache[rewrite.check_orientation(p).mirror(searched.edges[0].target)]
    assert cell[0] is searched.steps[1]


def test_a_reduction_path_is_positive_without_a_walk(Qbar, monkeypatch):
    p = fresh(Qbar)
    w = word("h a b' a' b a b")
    searched, served = rewrite.reduction_path(w, p), rewrite.reduction_path(w, p)
    # reading is_positive walks no step: the steps of these paths are never read
    monkeypatch.setattr(Path, "steps", property(lambda path: 1 / 0), raising=False)
    assert searched.is_positive and served.is_positive
    monkeypatch.undo()
    # any other path walks its steps, and a resolution that is not positive
    # raises as before
    peak, p1 = next(
        (peak, path)
        for peak in critical_peaks(Qbar)
        for path in [rewrite.reduction_path(peak.result1, p)]
        if len(path)
    )
    walked = Path(p1.start, p1.edges)
    assert "is_positive" not in vars(walked) and walked.is_positive
    back = Path(p1.tau, tuple(e.inverse() for e in reversed(p1.edges)))
    assert not back.is_positive
    with pytest.raises(RwlabError, match="^resolution paths must be positive$"):
        CriticalCircuit(peak, back, rewrite.reduction_path(peak.result2, p))
