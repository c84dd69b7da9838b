"""Alphabets, words, rules, rule schemas, and presentation files.

Words are plain tuples of letter tokens; the empty word is ``()``.  Letters
are whitespace-separated tokens (``a'`` denotes the formal inverse of ``a``),
never single characters, so inverse letters stay unambiguous.  All values in
this module are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

Word = tuple  # tuple[str, ...]

EMPTY: Word = ()

EPSILON = "ε"  # rendering of the empty word in files and output


class RwlabError(Exception):
    """Base class for errors raised by this package."""


class ParseError(RwlabError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(RwlabError):
    pass


def word(text: str) -> Word:
    """Parse a whitespace-separated word; ``ε`` (or '') is the empty word."""
    text = text.strip()
    if not text or text == EPSILON:
        return EMPTY
    return tuple(text.split())


def word_str(w: Word) -> str:
    return " ".join(w) if w else EPSILON


@dataclass(frozen=True)
class Alphabet:
    """Ordered letters plus a partial involution marking formal inverses."""

    letters: tuple
    inverse_pairs: tuple = ()

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ValidationError("alphabet letters must be distinct")
        for x, y in self.inverse_pairs:
            if x not in self.letters or y not in self.letters:
                raise ValidationError(f"inverse pair ({x}, {y}) uses undeclared letters")
            if x == y:
                raise ValidationError(f"letter {x} cannot be its own formal inverse")
        seen = [l for pair in self.inverse_pairs for l in pair]
        if len(set(seen)) != len(seen):
            raise ValidationError("a letter may appear in at most one inverse pair")

    @cached_property
    def involution(self) -> dict:
        table = {}
        for x, y in self.inverse_pairs:
            table[x] = y
            table[y] = x
        return table

    def __contains__(self, letter) -> bool:
        return letter in self._letter_set

    @cached_property
    def _letter_set(self) -> frozenset:
        return frozenset(self.letters)


def is_freely_reduced(w: Word, alphabet: Alphabet) -> bool:
    """Whether no letter of ``w`` is followed by its declared formal inverse."""
    inv = alphabet.involution
    return all(inv.get(x) != y for x, y in zip(w, w[1:]))


def formal_inverse(w: Word, alphabet: Alphabet) -> Word:
    """Reverse ``w`` and swap each letter for its involution partner.

    No free reduction is performed.  Letters without a declared partner
    (such as ``h``) are rejected.
    """
    inv = alphabet.involution
    out = []
    for letter in reversed(w):
        if letter not in inv:
            raise ValidationError(f"letter {letter} has no declared inverse")
        out.append(inv[letter])
    return tuple(out)


@dataclass(frozen=True)
class OrderingSpec:
    """Shortlex ordering data: precedence lists every letter, greatest first."""

    precedence: tuple

    def __post_init__(self):
        if len(set(self.precedence)) != len(self.precedence):
            raise ValidationError("ordering precedence letters must be distinct")

    @cached_property
    def rank(self) -> dict:
        # rank 0 is the greatest letter
        return {letter: i for i, letter in enumerate(self.precedence)}


def shortlex_key(w: Word, ordering: OrderingSpec):
    """Sort key: ascending order of the key is ascending shortlex order."""
    rank = ordering.rank
    n = len(ordering.precedence)
    return (len(w), tuple(n - 1 - rank[letter] for letter in w))


@dataclass(frozen=True)
class SchemaOrigin:
    schema: "RuleSchema"
    variable: Word


@dataclass(frozen=True)
class Rule:
    """An oriented replacement ``lhs -> rhs``.

    Rules produced by instantiating a schema carry their origin so that
    later stages can dispatch on the instantiating word.
    """

    name: str
    lhs: Word
    rhs: Word
    origin: Optional[SchemaOrigin] = None

    def __post_init__(self):
        if self.lhs == self.rhs:
            raise ValidationError(f"rule {self.name}: sides must differ")

    def __str__(self):
        return f"{self.name}: {word_str(self.lhs)} -> {word_str(self.rhs)}"


@dataclass(frozen=True)
class RuleSchema:
    """A rule family with one word-valued variable per side.

    Both pattern sides have the shape ``prefix · VAR · suffix`` with the
    variable at the same relative position (equal prefix lengths), so any
    instantiation of the variable over ``variable_range`` yields a rule.
    """

    name: str
    variable: str
    variable_range: tuple
    lhs_prefix: Word
    lhs_suffix: Word
    rhs_prefix: Word
    rhs_suffix: Word

    def __post_init__(self):
        if len(self.lhs_prefix) != len(self.rhs_prefix):
            raise ValidationError(
                f"schema {self.name}: variable must sit at the same relative position"
            )
        if self.lhs_prefix + self.lhs_suffix == self.rhs_prefix + self.rhs_suffix:
            raise ValidationError(f"schema {self.name}: sides must differ")

    @cached_property
    def _range_set(self) -> frozenset:
        return frozenset(self.variable_range)


def instantiate_schema(schema: RuleSchema, v: Word) -> Rule:
    """Substitute ``v`` for the schema variable, producing a named rule."""
    bad = [letter for letter in v if letter not in schema._range_set]
    if bad:
        raise ValidationError(
            f"schema {schema.name}: letter {bad[0]} outside the variable range"
        )
    return Rule(
        name=f"{schema.name}[{word_str(v)}]",
        lhs=schema.lhs_prefix + v + schema.lhs_suffix,
        rhs=schema.rhs_prefix + v + schema.rhs_suffix,
        origin=SchemaOrigin(schema, v),
    )


@dataclass(frozen=True)
class Presentation:
    """A monoid presentation: alphabet, oriented rules, schemas, ordering."""

    alphabet: Alphabet
    rules: tuple = ()
    schemas: tuple = ()
    ordering: Optional[OrderingSpec] = None

    def __post_init__(self):
        taken: set = set()
        # in sorted order the first name already taken is the least duplicate
        for name in sorted([r.name for r in self.rules] + [s.name for s in self.schemas]):
            if name in taken:
                raise ValidationError(f"duplicate rule/schema name: {name}")
            taken.add(name)
        letters = self.alphabet._letter_set
        for r in self.rules:
            if not (letters.issuperset(r.lhs) and letters.issuperset(r.rhs)):
                bad = next(x for x in r.lhs + r.rhs if x not in letters)
                raise ValidationError(f"rule {r.name}: undeclared letter {bad}")
        for s in self.schemas:
            fixed = s.lhs_prefix + s.lhs_suffix + s.rhs_prefix + s.rhs_suffix
            if not letters.issuperset(fixed):
                bad = next(x for x in fixed if x not in letters)
                raise ValidationError(f"schema {s.name}: undeclared letter {bad}")
            if not letters.issuperset(s.variable_range):
                bad = next(x for x in s.variable_range if x not in letters)
                raise ValidationError(f"schema {s.name}: range letter {bad} undeclared")
        pairs = {(r.lhs, r.rhs) for r in self.rules}
        for r in self.rules:
            if (r.rhs, r.lhs) in pairs:
                raise ValidationError(
                    f"rule set is not anti-symmetric: {word_str(r.lhs)} <-> {word_str(r.rhs)}"
                )
        if self.ordering is not None:
            if set(self.ordering.precedence) != set(self.alphabet.letters):
                raise ValidationError("ordering precedence must list every letter exactly once")

    def _derived(self, i: int, new: Optional[Rule] = None) -> "Presentation":
        """This presentation with rule ``i`` dropped (``new`` None) or
        replaced by ``new``, or with ``new`` appended (``i == len(rules)``).

        Nothing is checked, and the caches start empty.  The caller builds
        ``new`` valid: ``completion.knuth_bendix`` names an added rule apart
        from every name of its input and a rewritten one keeps its own name,
        and orients each rule it builds, so that no rule meets its reverse.
        The derived matcher (``rewrite._derived``) checks ``new``'s
        orientation and rejects an undeclared letter of ``new``.
        """
        put = () if new is None else (new,)
        q = object.__new__(Presentation)  # the fields as __init__ sets them, unchecked
        q.__dict__.update(
            alphabet=self.alphabet,
            rules=self.rules[:i] + put + self.rules[i + 1 :],
            schemas=self.schemas,
            ordering=self.ordering,
        )
        return q

    # -- caches shared by the rewriting machinery (not part of equality);
    # rewrite._matcher keeps the compiled matcher beside them, as "_matcher" --

    @cached_property
    def _nf_cache(self) -> dict:
        return {}

    @cached_property
    def _nf_order(self) -> deque:
        return deque()  # the keys of _nf_cache, oldest first

    @cached_property
    def _path_cache(self) -> dict:
        return {}  # word key -> next-step cell, see rewrite.reduction_path

    @cached_property
    def _path_rules(self) -> dict:
        return {}  # (schema name, variable mirror) -> the shared instance

    @cached_property
    def _path_order(self) -> deque:
        return deque()  # the keys of _path_cache and _path_rules, oldest first

    @cached_property
    def _rules_by_name(self) -> dict:
        return {r.name: r for r in reversed(self.rules)}  # the first declared wins

    @cached_property
    def _schemas_by_name(self) -> dict:
        return {s.name: s for s in reversed(self.schemas)}

    def rule_named(self, name: str) -> Rule:
        return self._rules_by_name[name]

    def schema_named(self, name: str) -> RuleSchema:
        return self._schemas_by_name[name]


def words_over(letters: Iterable, max_len: int) -> Iterator[Word]:
    """All words over ``letters`` of length 0..max_len, shortest first."""
    letters = tuple(letters)
    for n in range(max_len + 1 if letters else 1):  # no letters: the empty word alone
        for combo in itertools.product(letters, repeat=n):
            yield combo


# ---------------------------------------------------------------------------
# Presentation file format (line oriented, '#' starts a comment)
# ---------------------------------------------------------------------------


def _parse_side(tokens, declared, line=None) -> Word:
    if tokens == [EPSILON]:
        return EMPTY
    for t in tokens:
        if t not in declared:
            raise ParseError(f"undeclared letter {t}", line)
    return tuple(tokens)


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file grammar.

    Directives::

        letters <tok> ...
        inverse <tok> <tok>
        order <tok> ...
        rule <name> : <tok>*|ε -> <tok>*|ε
        schema <name> ( <var> : <tok>+ ) : <seq> -> <seq>
    """
    letters: list = []
    pairs: list = []
    order: Optional[tuple] = None
    rules: list = []
    schemas: list = []
    declared: set = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "letters":
            if len(tokens) < 2:
                raise ParseError("letters directive needs at least one token", lineno)
            letters.extend(tokens[1:])
            declared.update(tokens[1:])
        elif head == "inverse":
            if len(tokens) != 3:
                raise ParseError("inverse directive needs exactly two tokens", lineno)
            if tokens[1] not in declared or tokens[2] not in declared:
                raise ParseError("inverse pair uses undeclared letters", lineno)
            pairs.append((tokens[1], tokens[2]))
        elif head == "order":
            order = tuple(tokens[1:])
        elif head == "rule":
            if len(tokens) < 5 or tokens[2] != ":":
                raise ParseError("malformed rule (expected `rule <name> : lhs -> rhs`)", lineno)
            name = tokens[1]
            try:
                arrow = tokens.index("->")
            except ValueError:
                raise ParseError("rule is missing `->`", lineno) from None
            lhs = _parse_side(tokens[3:arrow], declared, line=lineno)
            rhs = _parse_side(tokens[arrow + 1 :], declared, line=lineno)
            if not tokens[3:arrow] or not tokens[arrow + 1 :]:
                raise ParseError("rule sides may be ε but not absent", lineno)
            try:
                rules.append(Rule(name, lhs, rhs))
            except ValidationError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "schema":
            # schema <name> ( <var> : <tok>+ ) : <seq> -> <seq>
            try:
                name = tokens[1]
                if tokens[2] != "(" or tokens[4] != ":":
                    raise IndexError
                var = tokens[3]
                close = tokens.index(")")
                rng = tokens[5:close]
                if not rng or tokens[close + 1] != ":":
                    raise IndexError
                rest = tokens[close + 2 :]
                arrow = rest.index("->")
                lhs_seq, rhs_seq = rest[:arrow], rest[arrow + 1 :]
            except (IndexError, ValueError):
                raise ParseError("malformed schema directive", lineno) from None
            if var in declared:
                raise ParseError(f"schema variable {var} collides with a letter", lineno)
            for t in rng:
                if t not in declared:
                    raise ParseError(f"undeclared range letter {t}", lineno)
            if lhs_seq.count(var) != 1 or rhs_seq.count(var) != 1:
                raise ParseError("schema variable must occur exactly once per side", lineno)
            li, ri = lhs_seq.index(var), rhs_seq.index(var)
            lhs_prefix = _parse_side(lhs_seq[:li], declared, line=lineno)
            lhs_suffix = _parse_side(lhs_seq[li + 1 :], declared, line=lineno)
            rhs_prefix = _parse_side(rhs_seq[:ri], declared, line=lineno)
            rhs_suffix = _parse_side(rhs_seq[ri + 1 :], declared, line=lineno)
            try:
                schemas.append(
                    RuleSchema(name, var, tuple(rng), lhs_prefix, lhs_suffix, rhs_prefix, rhs_suffix)
                )
            except ValidationError as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unknown directive {head}", lineno)

    try:
        alphabet = Alphabet(tuple(letters), tuple(pairs))
        ordering = OrderingSpec(order) if order is not None else None
        return Presentation(alphabet, tuple(rules), tuple(schemas), ordering)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def pretty_print(p: Presentation) -> str:
    """Serialize a presentation; ``parse_presentation`` inverts this."""
    lines = ["letters " + " ".join(p.alphabet.letters)]
    for x, y in p.alphabet.inverse_pairs:
        lines.append(f"inverse {x} {y}")
    if p.ordering is not None:
        lines.append("order " + " ".join(p.ordering.precedence))
    for r in p.rules:
        lines.append(f"rule {r.name} : {word_str(r.lhs)} -> {word_str(r.rhs)}")
    for s in p.schemas:
        lhs = " ".join(s.lhs_prefix + (s.variable,) + s.lhs_suffix)
        rhs = " ".join(s.rhs_prefix + (s.variable,) + s.rhs_suffix)
        rng = " ".join(s.variable_range)
        lines.append(f"schema {s.name} ( {s.variable} : {rng} ) : {lhs} -> {rhs}")
    return "\n".join(lines) + "\n"
