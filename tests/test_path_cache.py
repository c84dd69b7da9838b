"""``reduction_path`` against the reference search, with its cache of next
steps warm: a served path, whole or as the tail of a fresh one, is the path
the reference finds, edge for edge, and the cache stays within its cap.

The oracle is ``reference_rewrite.reduction_path`` on a fresh presentation,
which rescans every word from the start and caches nothing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rewrite as ref
from rwlab import rewrite
from rwlab.casestudy import preset
from rwlab.completion import CriticalCircuit, critical_peaks, resolve_peak
from rwlab.core import Presentation, ValidationError, word

COMPLETE_PRESETS = ("Qbar", "M4", "N4")


def fresh(p):
    """An equal presentation with empty caches."""
    return Presentation(p.alphabet, p.rules, p.schemas, p.ordering)


def test_shuffled_peaks_on_one_presentation_match_the_reference(Qbar):
    peaks = critical_peaks(Qbar, 3)
    assert len(peaks) == 3138
    random.Random(17).shuffle(peaks)
    p, oracle = fresh(Qbar), fresh(Qbar)
    m, served = rewrite.check_orientation(p), 0
    for peak in peaks:
        served += sum(m.mirror(w) in p._path_cache for w in (peak.result1, peak.result2))
        res = resolve_peak(peak, p)
        assert isinstance(res, CriticalCircuit)
        assert res.p1 == ref.reduction_path(peak.result1, oracle)
        assert res.p2 == ref.reduction_path(peak.result2, oracle)
    assert served > 1000  # many results were whole served paths


def test_the_cache_stays_at_its_cap_and_evicts_the_oldest(Qbar, monkeypatch):
    rng = random.Random(23)
    letters = ("a", "a'", "b", "b'", "h")
    words = [tuple(rng.choice(letters) for _ in range(rng.randrange(4, 20))) for _ in range(10**4)]
    oracle = fresh(Qbar)
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 100)
    p = fresh(Qbar)
    cache, rules, order = p._path_cache, p._path_rules, p._path_order
    for w in words:
        words_before, rules_before = list(cache), list(rules)
        assert rewrite.reduction_path(w, p) == ref.reduction_path(w, oracle)
        assert len(order) == len(cache) + len(rules) <= 100
        # the entries gone are the oldest of each dict, in insertion order
        for before, now in ((words_before, cache), (rules_before, rules)):
            gone = [key for key in before if key not in now]
            assert gone == before[: len(gone)]
    assert len(order) == 100 and rules
    # every word key is a string and every instance key a tuple, so the order
    # splits into the insertion orders of the two dicts
    assert list(cache) == [key for key in order if isinstance(key, str)]
    assert list(rules) == [key for key in order if isinstance(key, tuple)]


def test_a_reduction_past_the_cap_keeps_its_last_words(Qbar, monkeypatch):
    rng = random.Random(29)
    w = ("h",) + tuple(rng.choice(("a", "a'", "b", "b'")) for _ in range(60)) + ("a", "b")
    monkeypatch.setattr(rewrite, "NF_CACHE_CAP", 100)
    p = fresh(Qbar)
    path = rewrite.reduction_path(w, p)
    assert len(path) > 200 and path == ref.reduction_path(w, fresh(Qbar))
    m, kept = rewrite.check_orientation(p), len(p._path_cache)
    assert kept + len(p._path_rules) == 100
    assert list(p._path_cache) == [m.mirror(e.target) for e in path.edges[-kept:]]


def test_two_undeclared_letters_do_not_share_an_entry(Qbar):
    # neither word takes an entry: each is rejected, naming its own letter
    p = fresh(Qbar)
    for w, letter in (("q a h b", "q"), ("x a h b", "x"), ("a q h b a", "q"), ("a x h b a", "x")):
        with pytest.raises(ValidationError, match=f"^undeclared letter {letter}$"):
            rewrite.reduction_path(word(w), p)
    assert not p._path_cache and not p._path_rules and not p._path_order


def test_a_served_path_takes_no_redex_search(Qbar, monkeypatch):
    p = fresh(Qbar)
    w = word("a b a' a a h b b a")
    path = rewrite.reduction_path(w, p)
    tail = path.edges[2].source  # a word the reduction reached by a step
    joined = word("b b'") + tail  # a word whose reduction joins that tail

    def no_search(*args):
        raise AssertionError("a cached word was searched for redexes")

    served = rewrite.reduction_path(tail, p)
    with monkeypatch.context() as patched:
        patched.setattr(rewrite, "_leftmost_steps", no_search)
        assert rewrite.reduction_path(tail, p) == served
    spliced = rewrite.reduction_path(joined, p)
    assert served.edges == path.edges[2:]
    assert spliced == ref.reduction_path(joined, fresh(Qbar))
    assert spliced.edges[1:] == served.edges


def test_a_served_path_keeps_the_step_cap(Qbar, monkeypatch):
    p = fresh(Qbar)
    assert len(rewrite.reduction_path(word("a a h b"), p)) == 4
    reached = word("a h a b")  # three steps from its normal form, all cached
    monkeypatch.setattr(rewrite, "STEP_CAP", 2)
    with pytest.raises(rewrite.RewriteError, match="^step cap exceeded while reducing a h a b$"):
        rewrite.reduction_path(reached, p)
    monkeypatch.setattr(rewrite, "STEP_CAP", 3)
    assert rewrite.reduction_path(reached, p) == ref.reduction_path(reached, fresh(Qbar))


@pytest.fixture(scope="module")
def warmed():
    """Each complete preset with its cache warmed by 2 000 words."""
    rng = random.Random(5)
    out = {}
    for name in COMPLETE_PRESETS:
        p = fresh(preset(name))
        for _ in range(2000):
            rewrite.reduction_path(tuple(rng.choice(p.alphabet.letters) for _ in range(10)), p)
        out[name] = p, fresh(p)
    return out


@pytest.mark.parametrize("name", COMPLETE_PRESETS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_paths_on_a_warm_cache_match_the_reference(warmed, name, data):
    p, oracle = warmed[name]
    w = tuple(data.draw(st.lists(st.sampled_from(p.alphabet.letters), max_size=12)))
    assert rewrite.reduction_path(w, p) == ref.reduction_path(w, oracle)
