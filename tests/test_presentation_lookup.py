"""``Presentation.rule_named`` and ``schema_named`` by dict lookup against
the former linear scans, and the rewriting matcher kept on its presentation."""

import gc
import weakref

import pytest

from rwlab import rewrite
from rwlab.casestudy import PRESETS, preset
from rwlab.core import Presentation, Rule


def scan(items, name):
    for x in items:
        if x.name == name:
            return x
    raise KeyError(name)


@pytest.mark.parametrize("name", PRESETS)
def test_lookup_matches_the_scan_on_every_preset(name):
    p = preset(name)
    for r in p.rules:
        assert p.rule_named(r.name) is scan(p.rules, r.name)
    for s in p.schemas:
        assert p.schema_named(s.name) is scan(p.schemas, s.name)


@pytest.mark.parametrize("name", PRESETS)
def test_unknown_names_raise_the_same_key_error(name):
    p = preset(name)
    for lookup, items in ((p.rule_named, p.rules), (p.schema_named, p.schemas)):
        for missing in ("nope", "K_", *(s.name for s in p.schemas if items is p.rules)):
            with pytest.raises(KeyError) as got:
                lookup(missing)
            with pytest.raises(KeyError) as want:
                scan(items, missing)
            assert got.value.args == want.value.args == (missing,)


def test_first_declared_rule_wins_on_a_duplicate_name(Q):
    # the constructor rejects duplicate names, so build one around it
    first, second = Rule("K_a", ("a", "h"), ("h", "a")), Rule("K_a", ("b", "h"), ("h", "b"))
    p = object.__new__(Presentation)
    p.__dict__.update(alphabet=Q.alphabet, rules=(first, second), schemas=(), ordering=Q.ordering)
    assert p.rule_named("K_a") is first


def test_lookup_tables_stay_out_of_equality(Qbar):
    used = Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    fresh = Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    used.rule_named("K_a"), used.schema_named(used.schemas[0].name)
    assert "_rules_by_name" in vars(used) and "_rules_by_name" not in vars(fresh)
    assert fresh == used and hash(fresh) == hash(used)


def test_each_presentation_keeps_its_own_matcher(Qbar):
    p = Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    twin = Presentation(Qbar.alphabet, Qbar.rules, Qbar.schemas, Qbar.ordering)
    assert p == twin and rewrite._matcher(p) is not rewrite._matcher(twin)
    assert rewrite._matcher(p) is rewrite._matcher(p) is vars(p)["_matcher"]
    assert rewrite.normalize(("h", "a", "b"), p) == ("h", "b", "a")
    gone = weakref.ref(p)
    del p
    gc.collect()
    assert gone() is None
