"""One benchmark round, run by ``run.py`` in a fresh interpreter.

A fresh interpreter per round starts every round the way a ``rwlab`` CLI
call starts: the ``preset`` and ``build_C_path`` lru caches and every
presentation's normal-form cache are empty.

Usage: python3 bench/worker.py --workload W --seed N --round R --trace 0|1

Prints one JSON object: the monotonic-clock time of the first timed call,
each op's latency, the timed wall time, op counts, the peak resident set,
the host-speed samples and, when traced, the per-layer metrics.

Host speed.  The host shares its cores with other machines and its speed
swings by up to 1.7x, in phases from a fraction of a second to minutes: a
fixed pure-Python loop took 0.23 s in fast phases and 0.43 s in slow ones
on the 2-core host the benchmark was defined on.  So between ops, about
every ``SPEED_SAMPLE_EVERY_S`` of timed time, the round times
``speed_kernel``, a fixed piece of pure-Python work that shares no code
with rwlab, and reports each sample with the number of ops timed before
it.  ``run.py`` scales each op's time by the samples around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
SPEED_SAMPLE_EVERY_S = 0.025

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_KERNEL_WORD = tuple(random.Random(0).choice("aAbB") for _ in range(400))


def speed_kernel() -> float:
    """Seconds taken by a fixed amount of word work (free reduction and
    factor counting, the kind of work rwlab does) written here, so that no
    change to rwlab changes it.  The collector is off while it runs, so the
    size of the library's heap does not change its cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        factors = {}
        for _ in range(12):
            stack = []
            for x in _KERNEL_WORD:
                if stack and stack[-1] == _INV[x]:
                    stack.pop()
                else:
                    stack.append(x)
            for i in range(len(_KERNEL_WORD) - 3):
                f = _KERNEL_WORD[i:i + 3]
                factors[f] = factors.get(f, 0) + 1
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def monotonic() -> float:
    """A clock shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Timer:
    """Times ops one by one and checks each result outside the timed span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.first_timed_at = None
        self.errors = []
        self.speed_s = []
        self.speed_at = []
        self._next_sample = 0.0

    def sample_speed(self, force=False):
        """Time the speed kernel between ops, once per
        ``SPEED_SAMPLE_EVERY_S`` of timed time."""
        if force or self.wall >= self._next_sample:
            self.speed_s.append(speed_kernel())
            self.speed_at.append(len(self.latencies))
            self._next_sample = self.wall + SPEED_SAMPLE_EVERY_S

    def _start(self):
        if self.first_timed_at is None:
            self.first_timed_at = monotonic()
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        return time.perf_counter()

    def _checked(self, check, *args):
        """Run a check with tracing paused, so that it adds no spans."""
        if self.tracer is None:
            return check(*args)
        self.tracer.active = False
        try:
            return check(*args)
        finally:
            self.tracer.active = True

    def _fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(exc))

    def op(self, fn, check):
        t0 = self._start()
        try:
            result = fn()
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, exc
        else:
            error = None
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.wall += dt
        self.attempted += 1
        self.sample_speed()
        if error is not None:
            self._fail(error)
        elif not self._checked(check, result):
            self._fail(AssertionError("result disagrees with the reference"))

    def stage(self, fn):
        """A timed call that feeds later ops but is not an op itself."""
        t0 = self._start()
        result = fn()
        self.wall += time.perf_counter() - t0
        self.sample_speed()
        return result

    def marked(self, fn, owner, attr, count_bad):
        """Time ``fn`` as one op per call of ``owner.attr`` inside it.

        Knuth-Bendix enumerates the critical peaks once per iteration of its
        completion loop, so timestamps taken at those calls split a run into
        its iterations (each adds a rule or finds none to add).  The marker
        costs one clock read per iteration.  ``count_bad(result, n_ops)``
        returns how many of the ops failed their check.
        """
        original = getattr(owner, attr)
        marks = []

        def marker(*args, **kwargs):
            marks.append(time.perf_counter())
            return original(*args, **kwargs)

        setattr(owner, attr, marker)
        try:
            t0 = self._start()
            try:
                result = fn()
            except Exception as exc:
                result, error = None, exc
            else:
                error = None
            t1 = time.perf_counter()
        finally:
            setattr(owner, attr, original)
        bounds = [t0] + marks[1:] + [t1]
        segments = [b - a for a, b in zip(bounds, bounds[1:])]
        self.latencies.extend(segments)
        self.wall += t1 - t0
        self.attempted += len(segments)
        self.sample_speed()
        n = len(segments)
        bad = n if error is not None else min(self._checked(count_bad, result, n), n)
        for _ in range(bad):
            self._fail(error or AssertionError("completion result disagrees with the reference"))


def load_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rwlab  # noqa: F401  (binds every submodule)
    from types import SimpleNamespace

    src = os.path.join(ROOT, "src", "rwlab")
    if os.path.dirname(os.path.abspath(rwlab.__file__)) != src:
        raise SystemExit(f"rwlab imported from {rwlab.__file__}, not from {src}")
    names = ("core", "rewrite", "squier", "ring", "invariant", "obstruction",
             "casestudy", "completion", "structure")
    return SimpleNamespace(**{n: sys.modules[f"rwlab.{n}"] for n in names})


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, BENCH)
    lib = load_library()
    import tracing
    import workloads

    presets = lib.casestudy.build_presentations()
    make_inputs, run = workloads.WORKLOADS[args.workload]
    items = make_inputs(round_rng(args.workload, args.seed, args.round))

    tracer = tracing.Tracer() if args.trace else None
    timer = Timer(tracer)
    if tracer is not None:
        tracer.install()
    try:
        run(lib, presets, items, timer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    timer.sample_speed(force=True)
    result = {
        "first_timed_at": timer.first_timed_at,
        "latencies": timer.latencies,
        "wall": timer.wall,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "errors": timer.errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_at": timer.speed_at,
        "speed_s": timer.speed_s,
    }
    if tracer is not None:
        if not tracer.restored():
            raise SystemExit("tracing left a wrapped name behind")
        result["layers"] = tracer.metrics(timer.wall)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.round}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
