"""Span tracing installed from outside the library, at run time.

``Tracer.install()`` rebinds each traced function's name in every ``rwlab``
module that holds it (``normalize`` is bound in ``rewrite`` and imported by
``casestudy``, ``ring``, ``structure``, ``completion`` and ``obstruction``),
and patches ``Presentation.__post_init__`` and ``Path.__post_init__`` on the
class.  ``uninstall()`` puts every original back.  No library file changes.

Two kinds of wrapper:

* span wrappers record ``(name, start, end, parent, op id)`` in memory;
* count wrappers only bump a counter.  They sit on the hottest functions
  (``shortlex_key``, ``rewrite_at``, ``from_word``...), where a span per
  call would cost more than the call; their time stays in the caller's
  self time.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import math
import sys
import time
from collections import defaultdict

# (module, function, kind); kind is "span" or "count".
TRACED = (
    ("rewrite", "normalize", "span"),
    ("rewrite", "reduction_path", "span"),
    ("rewrite", "rewrite_at", "count"),
    ("core", "instantiate_schema", "count"),
    ("core", "shortlex_key", "count"),
    ("squier", "compose", "span"),
    ("squier", "lift_path", "span"),
    ("ring", "add", "span"),
    ("ring", "right_mul", "span"),
    ("ring", "from_word", "count"),
    ("invariant", "phi_path", "span"),
    ("invariant", "closed_form_ct", "span"),
    ("invariant", "partial_derivation", "span"),
    ("obstruction", "commutator_witness", "span"),
    ("obstruction", "phi_to_x_witness", "span"),
    ("casestudy", "build_ct_circuit", "span"),
    ("casestudy", "build_C_path", "count"),
    ("completion", "knuth_bendix", "span"),
    ("completion", "critical_peaks", "span"),
    ("completion", "resolve_peak", "span"),
    ("completion", "equivalence_classes", "span"),
    ("completion", "bfs_equivalence_oracle", "span"),
    ("completion", "word_problem_equal", "span"),
    ("structure", "cayley_ball", "span"),
    ("structure", "isometry_check", "span"),
    ("structure", "classify", "count"),
    ("structure", "sigma_equal", "span"),
)

# (module, class, method, kind)
TRACED_METHODS = (
    ("core", "Presentation", "__post_init__", "span"),
    ("squier", "Path", "__post_init__", "count"),
)

# Work counters read off a traced function's arguments and result.
MEASURES = {
    "rewrite.reduction_path": (("edges", lambda a, r: len(r.edges)),),
    "squier.lift_path": (("edges", lambda a, r: len(r.edges)),),
    "invariant.phi_path": (("edges", lambda a, r: len(a[0].edges)),),
    "casestudy.build_ct_circuit": (("edges", lambda a, r: len(r.edges)),),
    "ring.add": (("terms", lambda a, r: len(a[0].terms) + len(a[1].terms)),),
    "completion.knuth_bendix": (
        ("rules_added", lambda a, r: len(r[1].added)),
        ("rules_removed", lambda a, r: len(r[1].removed)),
    ),
    "completion.critical_peaks": (("peaks", lambda a, r: len(r)),),
    "completion.resolve_peak": (
        ("unresolved", lambda a, r: type(r).__name__ == "UnresolvedPeak"),),
    "completion.equivalence_classes": (
        ("universe", lambda a, r: sum(len(a[0].alphabet.letters) ** n for n in range(a[1] + 1))),),
    "structure.cayley_ball": (("vertices", lambda a, r: len(r.distances)),),
    "structure.isometry_check": (("pairs", lambda a, r: r.pair_count),),
}

MODULES = (
    "core", "rewrite", "squier", "ring", "invariant", "obstruction",
    "casestudy", "completion", "structure",
)

# Lengths below this are dominated by fixed per-call cost, not by the
# rewriting itself, so the length slope ignores them.
SLOPE_MIN_LEN = 16


PACKAGE = "rwlab"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.counts = defaultdict(int)
        for modname, fname, _ in TRACED:
            self.counts[f"{modname}.{fname}.calls"] = 0
        for name, measured in MEASURES.items():
            for suffix, _ in measured:
                self.counts[f"{name}.{suffix}"] = 0
        for key in ("rewrite.normalize.cache_hits", "core.Presentation.calls",
                    "squier.Path.builds", "squier.Path.validated_edges"):
            self.counts[key] = 0
        self.op_id = -1
        self.active = True  # off while the benchmark checks a result
        self._stack = []
        self._installed = False
        self._bindings = []  # (owner, attribute, original) of every rebinding
        self._one_h = []  # (word length, span index) of one-h normalize calls

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            idx = len(spans)
            spans.append(None)
            if before is not None:
                before(idx, args)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name):
        """Before/after hooks that take counters from arguments and results."""
        c = self.counts
        if name == "rewrite.normalize":
            def before(idx, args):
                w, p = args[0], args[1]
                cache = p.__dict__.get("_nf_cache")
                if cache is not None and w in cache:
                    c["rewrite.normalize.cache_hits"] += 1
                if w.count("h") == 1 and len(w) >= SLOPE_MIN_LEN:
                    self._one_h.append((len(w), idx))
            return before, None
        if name not in MEASURES:
            return None, None
        measured = MEASURES[name]

        def after(args, result):
            for suffix, measure in measured:
                c[f"{name}.{suffix}"] += measure(args, result)
        return None, after

    # -- install / uninstall -----------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(prefix))]

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        mods = self._modules()
        for modname, fname, kind in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            name = f"{modname}.{fname}"
            if kind == "span":
                before, after = self._hooks(name)
                wrapper = self._span(name, original, before, after)
            else:
                wrapper = self._count(name, original)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._bindings.append((m, attr, original))
                        setattr(m, attr, wrapper)
        for modname, cls_name, meth, kind in TRACED_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], cls_name)
            original = cls.__dict__[meth]
            name = f"{modname}.{cls_name}"
            if kind == "span":
                wrapper = self._span(name, original)
            else:
                wrapper = self._path_counter(name, original)
            self._bindings.append((cls, meth, original))
            setattr(cls, meth, wrapper)

    def _path_counter(self, name, original):
        c = self.counts

        def wrapper(path_self):
            if self.active:
                c[name + ".builds"] += 1
                c[name + ".validated_edges"] += len(path_self.edges)
            return original(path_self)

        wrapper.__wrapped__ = original
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._installed = False

    def restored(self) -> bool:
        """True when every name the tracer rebound holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._bindings)

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")

    def metrics(self, op_seconds: float) -> dict:
        """Per-layer metrics of the recorded spans and counters."""
        selfs = self_times(self.spans)
        by_name = defaultdict(float)
        for (name, *_), s in zip(self.spans, selfs):
            by_name[name] += s
        out = {}
        for modname, fname, kind in TRACED:
            name = f"{modname}.{fname}"
            if kind == "span":
                out[name + ".self_s"] = by_name[name]
        out["core.Presentation.self_s"] = by_name["core.Presentation"]
        out.update(self.counts)
        out["core.Presentation.builds"] = self.counts["core.Presentation.calls"]
        module_self = defaultdict(float)
        for name, s in by_name.items():
            module_self[name.split(".", 1)[0]] += s
        attributed = 0.0
        for mod in MODULES:
            out[f"{mod}.self_s"] = module_self[mod]
            attributed += module_self[mod]
        # op time spent outside every traced function
        out["unattributed.self_s"] = max(op_seconds - attributed, 0.0)
        c = self.counts
        calls = c["rewrite.normalize.calls"]
        out["rewrite.normalize.cache_hit_ratio"] = c["rewrite.normalize.cache_hits"] / calls if calls else 0.0
        lifted = c["squier.lift_path.edges"]
        out["squier.validated_per_output_edge"] = (
            c["squier.Path.validated_edges"] / lifted if lifted else 0.0)
        added = c["completion.knuth_bendix.rules_added"]
        out["completion.knuth_bendix.kept_ratio"] = (
            (added - c["completion.knuth_bendix.rules_removed"]) / added if added else 0.0)
        peaks = c["completion.resolve_peak.calls"]
        out["completion.resolve_peak.unresolved_ratio"] = (
            c["completion.resolve_peak.unresolved"] / peaks if peaks else 0.0)
        out["rewrite.normalize.len_slope"] = log_slope(
            [(n, self.spans[i][2] - self.spans[i][1]) for n, i in self._one_h])
        out["rewrite.nf_cache.entries"] = nf_cache_entries()
        return out


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append(t1 - t0 - covered)
    return out


def log_slope(points):
    """Least-squares slope of log(duration) against log(length)."""
    pts = [(math.log(n), math.log(d)) for n, d in points if n > 0 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def nf_cache_entries() -> int:
    """Entries in the normal-form caches of every live presentation."""
    from rwlab.core import Presentation

    return sum(len(o.__dict__.get("_nf_cache", ()))
               for o in gc.get_objects() if isinstance(o, Presentation))
