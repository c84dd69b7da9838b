"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that the seed changes the inputs but not their size mix, that the
words workload never repeats a word, that self time is computed correctly
on a synthetic span tree, that op times are scaled by the speed samples
around them, and that a traced run restores every name it wrapped.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def test_seeds():
    for name, (make_inputs, _) in workloads.WORKLOADS.items():
        a = make_inputs(worker.round_rng(name, 1, 0))
        again = make_inputs(worker.round_rng(name, 1, 0))
        b = make_inputs(worker.round_rng(name, 2, 0))
        check(a == again, f"{name}: the same seed gave different inputs")
        check(a != b, f"{name}: two seeds gave the same inputs")
        check(workloads.signature(a) == workloads.signature(b),
              f"{name}: two seeds gave different size mixes")


def test_words_unique():
    items = workloads.words_inputs(worker.round_rng("words", 3, 0))
    words = []
    for kind, *_, arg in items:
        words.extend(arg if kind == "equal" else (arg,))
    check(len(words) == len(set(words)), "a word repeats within the words workload")


def test_self_time():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 7]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("other", 11.0, 12.0, -1, 1),
    ]
    check(tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0],
          f"self times {tracing.self_times(spans)}")
    check(abs(tracing.log_slope([(n, 2.0 * n**3) for n in (4, 8, 16, 32)]) - 3.0) < 1e-9,
          "log-log slope of a cubic is not 3")


def test_speed_scale():
    # samples after ops 0..5 (1 to 6 ops timed); the host is twice as slow
    # from the fourth sample on
    k = run.KERNEL_REF_S
    at, samples = [1, 2, 3, 4, 5, 6], [k, k, k, 2 * k, 2 * k, 2 * k]
    scale = run.speed_scale(at, samples, 6)
    check(scale[0] == 1.0 and scale[-1] == 0.5,
          f"speed scale {scale} does not follow the samples around each op")
    check(run.speed_scale([], [2 * k], 1) == [0.5], "a round's last sample was not used")


def test_restored():
    lib = worker.load_library()
    before = {m.__name__: {k: v for k, v in vars(m).items() if callable(v)}
              for m in lib.__dict__.values()}
    methods = (lib.core.Presentation.__dict__["__post_init__"],
               lib.squier.Path.__dict__["__post_init__"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(lib.rewrite.normalize is not before["rwlab.rewrite"]["normalize"],
              "normalize was not wrapped")
        qbar = lib.casestudy.preset("Qbar")
        lib.ring.from_word(("a", "h", "b"), qbar)
    finally:
        tracer.uninstall()
    check(tracer.restored(), "a wrapped name was not restored")
    for m in lib.__dict__.values():
        for attr, value in before[m.__name__].items():
            check(vars(m)[attr] is value, f"{m.__name__}.{attr} changed after tracing")
    check((lib.core.Presentation.__dict__["__post_init__"],
           lib.squier.Path.__dict__["__post_init__"]) == methods,
          "a patched __post_init__ was not restored")
    names = {s[0] for s in tracer.spans}
    check("rewrite.normalize" in names and tracer.counts["ring.from_word.calls"] == 1,
          "the traced call left no span or count")


def main() -> int:
    for test in (test_seeds, test_words_unique, test_self_time, test_speed_scale, test_restored):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
