"""Random derivation-graph data shared by invariance tests."""

from rwlab.rewrite import find_redexes
from rwlab.squier import Edge, Path


def random_mixed_path(p, rng, max_edges=5, max_len=9, start=None):
    """A random path with forward and backward steps over plain rules.

    With ``start`` given, the path begins there (and may be empty when the
    word admits no step); otherwise a start word is sampled until a
    nonempty path exists.
    """
    letters = p.alphabet.letters
    while True:
        w = start if start is not None else tuple(
            rng.choice(letters) for _ in range(rng.randint(1, 6))
        )
        edges = []
        cur = w
        for _ in range(rng.randint(1, max_edges)):
            candidates = find_redexes(cur, p)
            for rule in p.rules:
                L = len(rule.rhs)
                for i in range(len(cur) - L + 1):
                    if cur[i : i + L] == rule.rhs and len(cur) - L + len(rule.lhs) <= max_len:
                        candidates.append(Edge(cur[:i], rule, -1, cur[i + L :]))
            if not candidates:
                break
            e = rng.choice(candidates)
            edges.append(e)
            cur = e.target
        if edges or start is not None:
            return Path(w, tuple(edges))


def random_disjoint_edges(p, rng, max_pad=2):
    """Two rule applications on disjoint factors of one common word."""
    letters = p.alphabet.letters

    def pad():
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_pad)))

    r1, r2 = rng.choice(p.rules), rng.choice(p.rules)
    s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
    side1 = r1.lhs if s1 == 1 else r1.rhs
    side2 = r2.lhs if s2 == 1 else r2.rhs
    left, mid, right = pad(), pad(), pad()
    e1 = Edge(left, r1, s1, mid + side2 + right)
    e2 = Edge(left + side1 + mid, r2, s2, right)
    return e1, e2
