"""Independent reference answers for the benchmark's checks.

Nothing here calls the library's rewriting engine.  The normal forms follow
from the shapes the case-study systems are known to have:

* Qbar: a word without ``h`` reduces to its free reduction; a word with one
  ``h`` to ``h bʲ aᵏ`` (``j``, ``k`` its b- and a-exponent sums); a word with
  two or more ``h`` to ``h h``.
* M4: as Qbar, except that ``z`` anywhere, or two or more ``h``, give ``z``.
* N4: ``z`` anywhere gives ``z``; otherwise all ``h`` merge into one and the
  word reduces as in Qbar.

Ring elements over the free group are plain ``{reduced word: coefficient}``
dicts with no zero coefficients.
"""

from __future__ import annotations

INV = {"a": "a'", "a'": "a", "b": "b'", "b'": "b"}
A_LETTERS = ("a", "a'", "b", "b'")


def free_reduce(w):
    out = []
    for x in w:
        if out and INV.get(out[-1]) == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def exponents(w):
    """(a-exponent sum, b-exponent sum) of the A-letters of ``w``."""
    ea = eb = 0
    for x in w:
        if x == "a":
            ea += 1
        elif x == "a'":
            ea -= 1
        elif x == "b":
            eb += 1
        elif x == "b'":
            eb -= 1
    return ea, eb


def _one_h_form(w):
    ea, eb = exponents(w)
    b = ("b",) * eb if eb >= 0 else ("b'",) * -eb
    a = ("a",) * ea if ea >= 0 else ("a'",) * -ea
    return ("h",) + b + a


def nf_qbar(w):
    hs = w.count("h")
    if hs == 0:
        return free_reduce(w)
    if hs == 1:
        return _one_h_form(w)
    return ("h", "h")


def nf_m4(w):
    if "z" in w or w.count("h") >= 2:
        return ("z",)
    return nf_qbar(w)


def nf_n4(w):
    if "z" in w:
        return ("z",)
    return nf_qbar(w) if "h" not in w else _one_h_form(w)


NF = {"Qbar": nf_qbar, "M4": nf_m4, "N4": nf_n4}


def h_class(w):
    """Units, Hh or Zero by the h-count of the Qbar normal form."""
    return ("Units", "Hh", "Zero")[nf_qbar(w).count("h")]


def sigma_equal(w1, w2):
    """h·w1 and h·w2 share a normal form iff the exponent sums agree."""
    return exponents(w1) == exponents(w2)


# -- the free-group ring ----------------------------------------------------


def ring_add(acc, w, c):
    """acc += c·[w] in place, with ``w`` freely reduced first."""
    key = free_reduce(w)
    val = acc.get(key, 0) + c
    if val:
        acc[key] = val
    else:
        acc.pop(key, None)
    return acc


def ring_right_mul(x, w):
    out = {}
    for u, c in x.items():
        ring_add(out, u + w, c)
    return out


def ring_sub(x, y):
    out = dict(x)
    for u, c in y.items():
        ring_add(out, u, -c)
    return out


WEIGHTS = {"K_a": 1, "K_a'": -1}


def phi(edges):
    """Φ of a path as a free-group ring dict: Σ sign·weight·[right context]."""
    acc = {}
    for e in edges:
        wt = WEIGHTS.get(e.rule.name, 0)
        if wt:
            ring_add(acc, e.right, e.sign * wt)
    return acc


def a_pow(eps):
    return ("a",) if eps == 1 else ("a'",)


def b_pow(delta):
    return ("b",) if delta == 1 else ("b'",)


def _letter_value(x):
    return {"a": -1, "a'": 1}.get(x, 0)


def partial(w):
    """∂w = Σ_i ∂(w_i)·[w_{i+1..}] with ∂a = −1, ∂a' = +1, ∂b = ∂b' = 0."""
    acc = {}
    for i, x in enumerate(w):
        val = _letter_value(x)
        if val:
            ring_add(acc, w[i + 1 :], val)
    return acc


def swap_image(w, eps, delta):
    """Φ of the swap path: −(∂w·bᵈaᵉ − ∂w·aᵉbᵈ)."""
    dw = partial(w)
    diff = ring_sub(
        ring_right_mul(dw, b_pow(delta) + a_pow(eps)),
        ring_right_mul(dw, a_pow(eps) + b_pow(delta)),
    )
    return {u: -c for u, c in diff.items()}


def commutator_target(w, eps, delta):
    """w·(bᵈaᵉ − aᵉbᵈ)."""
    out = {}
    ring_add(out, w + b_pow(delta) + a_pow(eps), 1)
    ring_add(out, w + a_pow(eps) + b_pow(delta), -1)
    return out


def ring_dict(x):
    """A library RingElement as a plain dict, for comparison."""
    return dict(x.terms)


def is_swap_instance(lhs, rhs):
    """``lhs`` is ``h w aᵉ bᵈ`` and ``rhs`` its Qbar normal form."""
    if len(lhs) < 3 or lhs[0] != "h" or lhs.count("h") != 1:
        return False
    if lhs[-2] not in ("a", "a'") or lhs[-1] not in ("b", "b'"):
        return False
    return rhs == nf_qbar(lhs)


def ball(preset, center, radius):
    """Least right-multiplication distances from ``center`` in M4 or N4."""
    nf = NF[preset]
    start = nf(center)
    dist = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        nxt = []
        for u in frontier:
            for g in A_LETTERS + ("h", "z"):
                v = nf(u + (g,))
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist
