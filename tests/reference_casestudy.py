"""Former code of ``rwlab.casestudy``, kept as the reference.

``build_ct_circuit`` is the former lift-based construction, unchanged: each
swap is written as one ``C_…`` or ``Cb_…[w]`` edge over Qbar, the Qbar
circuit is walked by ``Path``, and ``lift_path`` replaces every swap edge by
its swap path through ``_realize_c_bar``, which decodes the exponents from
the schema's suffix.  ``build_C_path`` is the former validated, cached swap
path; a caller that draws many long slots should ``cache_clear`` it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from rwlab.casestudy import _A_ALPHABET, _EXP, c_bar_rule, preset
from rwlab.core import EMPTY, Rule, RuleSchema, RwlabError, Word
from rwlab.invariant import LETTER_EXPONENTS, CtParams, a_pow, b_pow, swap_pair
from rwlab.squier import Edge, Path, lift_path


def schema_exponents(schema: RuleSchema) -> Tuple[int, int]:
    return LETTER_EXPONENTS[schema.lhs_suffix[0]][0], LETTER_EXPONENTS[schema.lhs_suffix[1]][1]


C_PATH_CACHE_CAP = 2**15  # swap paths kept; the default figure2 sweep builds 18 149


@lru_cache(maxsize=C_PATH_CACHE_CAP)
def build_C_path(w: Word, eps: int, delta: int) -> Path:
    """The swap path from ``h w aᵉ bᵈ`` to ``h w bᵈ aᵉ`` over Q.

    Each letter of w is carried out in front of h by a reverse commutation
    step, the bare pair swap happens in the middle, and the letters are
    carried back; 2|w| + 1 edges in total.
    """
    q = preset("Q")
    tail_l, tail_r = swap_pair(eps, delta)
    front, back = [], []
    for i, x in enumerate(w):
        k_rule = q.rule_named(f"K_{x}")
        front.append(Edge(w[:i], k_rule, -1, w[i + 1 :] + tail_l))
        back.append(Edge(w[:i], k_rule, 1, w[i + 1 :] + tail_r))
    middle = Edge(w, q.rule_named(f"C_{_EXP[eps]}{_EXP[delta]}"), 1, EMPTY)
    edges = tuple(front) + (middle,) + tuple(reversed(back))
    return Path(("h",) + w + tail_l, edges)


def _realize_c_bar(rule: Rule) -> Optional[Path]:
    if rule.origin is not None and rule.origin.schema.name.startswith("Cb_"):
        eps, delta = schema_exponents(rule.origin.schema)
        return build_C_path(rule.origin.variable, eps, delta)
    return None


def build_ct_circuit(params: CtParams) -> Path:
    """The closed path of the named family, with swap edges realized as
    swap paths over Q.

    The circuit starts at the peak source, descends the right-hand side of
    the diagram, and climbs back up the left-hand side.
    """
    q = preset("Q")

    def swap(w: Word, eps: int, delta: int, right: Word = EMPTY) -> Edge:
        return Edge(EMPTY, c_bar_rule(w, eps, delta), 1, right)

    def step(name: str, left: Word, right: Word = EMPTY) -> Edge:
        return Edge(left, q.rule_named(name), 1, right)

    f, x = params.family, params.x
    w, w1, w2, eps, delta = params.w, params.w1, params.w2, params.eps, params.delta
    if f == "CT1":
        tail_l, tail_r = swap_pair(eps, delta)
        i_x = f"I_{x}"
        xx = (x, _A_ALPHABET.involution[x])
        right = [swap(w1 + xx + w2, eps, delta), step(i_x, ("h",) + w1, w2 + tail_r)]
        left = [step(i_x, ("h",) + w1, w2 + tail_l), swap(w1 + w2, eps, delta)]
    elif f in ("CT2", "CT6"):
        xinv = _A_ALPHABET.involution[x]
        if f == "CT2":
            right = [step(f"I_{xinv}", (x,))]
            left = [step(f"I_{x}", EMPTY, (x,))]
        else:
            right = [
                step(f"K_{xinv}", (x,)),
                step(f"K_{x}", EMPTY, (xinv,)),
                step(f"I_{x}", ("h",)),
            ]
            left = [step(f"I_{x}", EMPTY, ("h",))]
    elif f == "CT3":
        i_b = "I_b" if delta == 1 else "I_b'"
        right = [
            swap(w, eps, delta, b_pow(-delta)),
            swap(w + b_pow(delta), eps, -delta),
            step(i_b, ("h",) + w, a_pow(eps)),
        ]
        left = [step(i_b, ("h",) + w + a_pow(eps))]
    elif f == "CT4":
        i_a = "I_a" if eps == -1 else "I_a'"
        right = [
            swap(w + a_pow(-eps), eps, delta),
            swap(w, -eps, delta, a_pow(eps)),
            step(i_a, ("h",) + w + b_pow(delta)),
        ]
        left = [step(i_a, ("h",) + w, b_pow(delta))]
    elif f == "CT5":
        tail_l, tail_r = swap_pair(eps, delta)
        right = [step(f"K_{x}", EMPTY, w + tail_l), swap((x,) + w, eps, delta)]
        left = [Edge((x,), c_bar_rule(w, eps, delta), 1, EMPTY), step(f"K_{x}", EMPTY, w + tail_r)]
    elif f == "CT7":
        e1, d1, e2, d2 = params.eps1, params.delta1, params.eps2, params.delta2
        t1l, t1r = swap_pair(e1, d1)
        t2l, t2r = swap_pair(e2, d2)
        right = [swap(w1 + t1l + w2, e2, d2), swap(w1, e1, d1, w2 + t2r)]
        left = [swap(w1, e1, d1, w2 + t2l), swap(w1 + t1r + w2, e2, d2)]
    else:
        raise RwlabError(f"unknown circuit family {f}")
    up_left = tuple(e.inverse() for e in reversed(left))
    return lift_path(Path(right[0].source, tuple(right) + up_left), _realize_c_bar)
