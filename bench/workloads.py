"""The four benchmark workloads: seeded inputs, the ops, and their checks.

Each workload has an input generator and a runner.  The generator draws
everything from its ``random.Random`` (the library only ever sees the
generated inputs).  Lengths and counts are fixed per workload, so two seeds
give different inputs of the same size mix; ``signature`` lists that mix.
The runner drives the ops one by one through the public library API, via
module attributes so that a traced run sees every call, and checks every
result against ``reference``.

Why these four (each loads a different layer):

* circuits   - Φ of long critical circuits, swap-path identities and ring
               witnesses: paths (squier), the ring and the invariant carry the
               time; normalization is mostly cache hits.
* words      - unique words normalized once each: the normalizer and its
               cache memory, with a cache hit ratio near zero.
* completion - Knuth-Bendix runs and peak-by-peak confluence: rewriting
               against freshly built presentations with cold caches, plus
               presentation rebuilds and peak enumeration.
* structure  - many short overlapping words, the union-find and BFS oracles
               and Cayley balls.
"""

from __future__ import annotations

import itertools
import math
import random

import reference as ref

A = ref.A_LETTERS
AH = A + ("h",)
SIGNS = (1, -1)


def stratified_lengths(lo: int, hi: int, n: int):
    """``n`` lengths spread log-uniformly over [lo, hi], the same every seed."""
    span = math.log(hi) - math.log(lo)
    return [round(math.exp(math.log(lo) + (i + 0.5) / n * span)) for i in range(n)]


def linear_lengths(lo: int, hi: int, n: int):
    return [lo + round(i * (hi - lo) / max(n - 1, 1)) for i in range(n)]


def rand_word(rng, n, letters=A):
    return tuple(rng.choice(letters) for _ in range(n))


def rand_reduced(rng, n):
    out = []
    while len(out) < n:
        x = rng.choice(A)
        if not out or ref.INV[out[-1]] != x:
            out.append(x)
    return tuple(out)


def insert_at(rng, w, letters):
    w = list(w)
    for x in letters:
        w.insert(rng.randint(0, len(w)), x)
    return tuple(w)


def shuffled(rng, w):
    w = list(w)
    rng.shuffle(w)
    return tuple(w)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

CT_SLOT_MAX = 40  # the acceptance sweep stops at 4
CT_PER_FAMILY = 60
SWAP_IDENTITIES = 150
SWAP_MAX = 40
COMMUTATORS = 80
COMMUTATOR_MAX = 24
PHI_TO_X = 70
PHI_TO_X_MAX = 16


def _ct_params(rng, family, total):
    cut = rng.randint(0, total)
    w = rand_word(rng, total)
    e = lambda: rng.choice(SIGNS)
    if family == "CT1":
        return dict(family="CT1", x=rng.choice(A), w1=w[:cut], w2=w[cut:], eps=e(), delta=e())
    if family == "CT7":
        return dict(family="CT7", w1=w[:cut], eps1=e(), delta1=e(), w2=w[cut:], eps2=e(), delta2=e())
    if family == "CT5":
        return dict(family="CT5", x=rng.choice(A), w=w, eps=e(), delta=e())
    if family in ("CT2", "CT6"):
        return dict(family=family, x=rng.choice(A))
    return dict(family=family, w=w, eps=e(), delta=e())


def circuits_inputs(rng):
    items = []
    for family in ("CT1", "CT3", "CT4", "CT5", "CT7"):
        for n in linear_lengths(0, CT_SLOT_MAX, CT_PER_FAMILY):
            items.append(("ct", n, _ct_params(rng, family, n)))
    for family in ("CT2", "CT6"):
        for _ in range(4):
            items.append(("ct", 0, _ct_params(rng, family, 0)))
    for n in linear_lengths(0, SWAP_MAX, SWAP_IDENTITIES):
        items.append(("swap", n, (rand_word(rng, n), rng.choice(SIGNS), rng.choice(SIGNS))))
    for n in linear_lengths(0, COMMUTATOR_MAX, COMMUTATORS):
        items.append(("commutator", n, (rand_reduced(rng, n), rng.choice(SIGNS), rng.choice(SIGNS))))
    families = ("CT1", "CT2", "CT3", "CT4", "CT5", "CT6", "CT7")
    for i, n in enumerate(linear_lengths(0, PHI_TO_X_MAX, PHI_TO_X)):
        family = families[i % len(families)]
        items.append(("phi2x", n, _ct_params(rng, family, n)))
    rng.shuffle(items)
    return items


def circuits_run(lib, presets, items, timer):
    P = presets["P"]
    inv, cs, ob = lib.invariant, lib.casestudy, lib.obstruction
    W = inv.CASE_STUDY_WEIGHTS
    for kind, _, args in items:
        if kind == "ct":
            params = inv.CtParams(**args)

            def op(params=params):
                circuit = cs.build_ct_circuit(params)
                return circuit, inv.phi_path(circuit, W, P), inv.closed_form_ct(params, P)

            def check(r):
                circuit, got, want = r
                return (circuit.is_closed and got == want
                        and ref.ring_dict(got) == ref.phi(circuit.edges))
        elif kind == "swap":
            w, eps, delta = args

            def op(w=w, eps=eps, delta=delta):
                got = inv.phi_path(cs.build_C_path(w, eps, delta), W, P)
                dw = inv.partial_derivation(w, P)
                want = lib.ring.negate(lib.ring.sub(
                    lib.ring.right_mul(dw, ref.b_pow(delta) + ref.a_pow(eps)),
                    lib.ring.right_mul(dw, ref.a_pow(eps) + ref.b_pow(delta)),
                ))
                return got, want

            def check(r, w=w, eps=eps, delta=delta):
                got, want = r
                return got == want and ref.ring_dict(got) == ref.swap_image(w, eps, delta)
        elif kind == "commutator":
            w, eps, delta = args

            def op(w=w, eps=eps, delta=delta):
                return ob.commutator_witness(w, eps, delta, P)

            def check(r, w=w, eps=eps, delta=delta):
                return r.verified() and ref.ring_dict(r.target) == ref.commutator_target(w, eps, delta)
        else:
            params = inv.CtParams(**args)

            def op(params=params):
                return ob.phi_to_x_witness(params, P)

            def check(r, params=params):
                circuit = cs.build_ct_circuit(params)
                return r.verified() and ref.ring_dict(r.target) == ref.phi(circuit.edges)
        timer.op(op, check)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

# shape: (shortest, longest, presets).  The h-bearing shapes stop lower
# because their normalization cost grows about cubically with length.
WORD_SHAPES = {
    "noh": (2, 320, ("Qbar", "M4", "N4")),
    "hwab": (3, 112, ("Qbar", "M4", "N4")),
    "oneh": (2, 128, ("Qbar", "M4", "N4")),
    "multih": (3, 192, ("Qbar", "M4", "N4")),
    "z": (2, 320, ("M4", "N4")),
}
WORDS_PER_SHAPE = 60


def make_word(rng, shape, n):
    if shape == "noh":
        return rand_word(rng, n)
    if shape == "hwab":
        return ("h",) + rand_word(rng, n - 3) + ref.a_pow(rng.choice(SIGNS)) + ref.b_pow(rng.choice(SIGNS))
    if shape == "oneh":
        return insert_at(rng, rand_word(rng, n - 1), ("h",))
    if shape == "multih":
        k = min(rng.choice((2, 3)), n - 1)  # keep an A-letter, so shuffles differ
        return insert_at(rng, rand_word(rng, n - k), ("h",) * k)
    return insert_at(rng, rand_word(rng, n - 1, AH), ("z",))


def _equal_partner(rng, shape, w):
    """Another word with the same normal form: a cancelling pair inserted
    into an h-free word; the letters shuffled otherwise (the normal form
    depends only on the exponent sums and the h and z counts)."""
    if shape == "noh":
        x = rng.choice(A)
        i = rng.randint(0, len(w))
        return w[:i] + (x, ref.INV[x]) + w[i:]
    return shuffled(rng, w)


def words_inputs(rng):
    seen = set()

    def fresh(make):
        for _ in range(1000):
            w = make()
            if w not in seen:
                seen.add(w)
                return w
        raise RuntimeError("could not draw an unused word")

    items = []
    for shape, (lo, hi, presets) in WORD_SHAPES.items():
        for i, n in enumerate(stratified_lengths(lo, hi, WORDS_PER_SHAPE)):
            p = presets[i % len(presets)]
            u = fresh(lambda: make_word(rng, shape, n))
            if i % 10 == 3:
                if i % 20 == 3:
                    v = fresh(lambda: _equal_partner(rng, shape, u))
                else:
                    v = fresh(lambda: make_word(rng, shape, n))
                items.append(("equal", shape, p, n, (u, v)))
            elif i % 10 == 7 and shape != "z":
                items.append(("classify", shape, "Qbar", n, u))
            else:
                items.append(("normalize", shape, p, n, u))
    rng.shuffle(items)
    return items


def words_run(lib, presets, items, timer):
    rw, co, st = lib.rewrite, lib.completion, lib.structure
    for kind, _, pname, _, arg in items:
        p, nf = presets[pname], ref.NF[pname]
        if kind == "normalize":
            timer.op(lambda w=arg, p=p: rw.normalize(w, p), lambda r, w=arg, nf=nf: r == nf(w))
        elif kind == "equal":
            u, v = arg
            timer.op(lambda u=u, v=v, p=p: co.word_problem_equal(u, v, p),
                     lambda r, u=u, v=v, nf=nf: r == (nf(u) == nf(v)))
        else:
            timer.op(lambda w=arg, p=p: st.classify(w, p), lambda r, w=arg: r == ref.h_class(w))


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

PEAK_SCHEMA_BOUND = 3
Q_RULE_BUDGET = 20
M4_REPLAYS = 2


def completion_inputs(rng):
    """Each item carries the seed of its peak or rule order."""
    return [
        ("peaks", PEAK_SCHEMA_BOUND, rng.randrange(2**32)),
        ("kb_q", Q_RULE_BUDGET, rng.randrange(2**32)),
    ] + [("m4_replay", 40, rng.randrange(2**32)) for _ in range(M4_REPLAYS)]


def _permuted(core, p, seed):
    rules = list(p.rules)
    random.Random(seed).shuffle(rules)
    return core.Presentation(p.alphabet, tuple(rules), p.schemas, p.ordering)


def completion_run(lib, presets, items, timer):
    co, core = lib.completion, lib.core
    qbar, m4 = presets["Qbar"], presets["M4"]
    for kind, bound, arg in items:
        if kind == "peaks":
            peaks = timer.stage(lambda: co.critical_peaks(qbar, bound))
            random.Random(arg).shuffle(peaks)
            for peak in peaks:
                timer.op(lambda peak=peak: co.resolve_peak(peak, qbar), _resolved_ok)
        elif kind == "kb_q":
            p = _permuted(core, presets["Q"], arg)

            def bad_q(result, n_ops, bound=bound):
                _, report = result
                bad = sum(not ref.is_swap_instance(r.lhs, r.rhs) for r in report.added)
                return bad + (len(report.added) != bound)

            timer.marked(lambda p=p, bound=bound: co.knuth_bendix(p, bound, 8), co, "critical_peaks", bad_q)
        else:
            p = _permuted(core, lib.casestudy.m4_uncompleted(), arg)

            def bad_m4(result, n_ops):
                completed, report = result
                same = {(r.lhs, r.rhs) for r in completed.rules} == {(r.lhs, r.rhs) for r in m4.rules}
                return 0 if report.completed and same else n_ops

            timer.marked(lambda p=p, bound=bound: co.knuth_bendix(p, bound, 8, schema_var_bound=1),
                         co, "critical_peaks", bad_m4)


def _resolved_ok(res):
    if type(res).__name__ != "CriticalCircuit":
        return False
    nf1, nf2 = ref.nf_qbar(res.peak.result1), ref.nf_qbar(res.peak.result2)
    return nf1 == nf2 == res.p1.tau and res.p1.iota == res.peak.result1


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

EXHAUSTIVE_LEN = 4
CLASSES_BOUND = 6  # partitions of words up to EXHAUSTIVE_LEN agree at this bound
ORACLE_LEN, ORACLE_BOUND, ORACLE_PAIRS = 3, 5, 120
CLASSIFY_WORDS, CLASSIFY_MAX = 300, 32
SIGMA_PAIRS, SIGMA_MAX = 200, 24
BALLS = 24
ISOMETRIES, ISOMETRY_RADIUS = 3, 3


def _ball_center(rng):
    """A center with the same element in M4 and N4: no z and at most one h,
    or a z."""
    n = rng.randint(0, 3)
    w = rand_word(rng, n)
    extra = rng.choice(((), ("h",), ("z",)))
    return insert_at(rng, w, extra)


def structure_inputs(rng):
    items = [("exhaustive", len(w), w)
             for n in range(EXHAUSTIVE_LEN + 1) for w in itertools.product(AH, repeat=n)]
    by_nf = {}
    for n in range(ORACLE_LEN + 1):
        for w in itertools.product(AH, repeat=n):
            by_nf.setdefault(ref.nf_qbar(w), []).append(w)
    groups = list(by_nf.values())
    for i in range(ORACLE_PAIRS):
        group = rng.choice(groups)
        u = rng.choice(group)
        if i % 2 == 0:
            v = rng.choice(group)
        else:
            v = rng.choice(rng.choice([g for g in groups if g is not group]))
        items.append(("oracle", i % 2, (u, v)))
    for n in linear_lengths(0, CLASSIFY_MAX, CLASSIFY_WORDS):
        items.append(("classify", n, insert_at(rng, rand_word(rng, n), ("h",) * rng.choice((0, 1, 1, 2, 3)))))
    for i, n in enumerate(linear_lengths(0, SIGMA_MAX, SIGMA_PAIRS)):
        u = rand_word(rng, n)
        v = shuffled(rng, u) if i % 2 == 0 else rand_word(rng, n)
        items.append(("sigma", n, (u, v)))
    for i in range(BALLS):
        items.append(("ball", 4 + i % 3, ("M4", "N4")[i % 2], _ball_center(rng)))
    for _ in range(ISOMETRIES):
        items.append(("isometry", ISOMETRY_RADIUS, _ball_center(rng)))
    rng.shuffle(items)
    return items


def structure_run(lib, presets, items, timer):
    co, st, rw = lib.completion, lib.structure, lib.rewrite
    Q, qbar = presets["Q"], presets["Qbar"]
    classof = timer.stage(lambda: co.equivalence_classes(Q, CLASSES_BOUND))
    class_to_nf, nf_to_class = {}, {}

    def agrees(r, w):
        nf, cls = r
        return (nf == ref.nf_qbar(w)
                and class_to_nf.setdefault(cls, nf) == nf
                and nf_to_class.setdefault(nf, cls) == cls)

    for item in items:
        kind = item[0]
        if kind == "exhaustive":
            w = item[2]
            timer.op(lambda w=w: (rw.normalize(w, qbar), classof(w)), lambda r, w=w: agrees(r, w))
        elif kind == "oracle":
            u, v = item[2]
            timer.op(lambda u=u, v=v: co.bfs_equivalence_oracle(u, v, Q, ORACLE_BOUND),
                     lambda r, u=u, v=v: r == (ref.nf_qbar(u) == ref.nf_qbar(v)))
        elif kind == "classify":
            w = item[2]
            timer.op(lambda w=w: st.classify(w, qbar), lambda r, w=w: r == ref.h_class(w))
        elif kind == "sigma":
            u, v = item[2]
            timer.op(lambda u=u, v=v: st.sigma_equal(u, v, qbar),
                     lambda r, u=u, v=v: r == ref.sigma_equal(u, v))
        elif kind == "ball":
            _, radius, pname, center = item
            timer.op(lambda p=presets[pname], c=center, r=radius: st.cayley_ball(p, c, r),
                     lambda b, pname=pname, c=center, r=radius: b.distances == ref.ball(pname, c, r))
        else:
            _, radius, center = item
            timer.op(lambda c=center: st.isometry_check(presets["M4"], presets["N4"], radius, c),
                     lambda rep, c=center: rep.passed
                     and rep.pair_count == len(ref.ball("M4", c, radius)) ** 2)


WORKLOADS = {
    "circuits": (circuits_inputs, circuits_run),
    "words": (words_inputs, words_run),
    "completion": (completion_inputs, completion_run),
    "structure": (structure_inputs, structure_run),
}


def signature(items):
    """The size mix of an input list: each item without its random payload,
    which is always the last field."""
    return sorted(repr(item[:-1]) for item in items)
