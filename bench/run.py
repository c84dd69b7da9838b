"""The rwlab benchmark: one workload, measured end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload circuits|words|completion|structure \\
        --seed N --seconds S --trace 0|1

The run repeats rounds for about ``--seconds`` seconds (at least
``MIN_ROUNDS`` rounds, or one untraced/traced pair with ``--trace 1``).
Each round is a fresh interpreter (``bench/worker.py``) that imports rwlab
from ``src/``, builds the presets, generates its inputs from the seed and
the round number, times every op on its own and checks every result
against an independent reference (``bench/reference.py``).  All rounds of a
workload have the same size mix, so their figures pool.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* setup_s      median time from interpreter start to the first timed call
* ops_per_s    ops completed per second of timed wall time
* op_p50_ms    median op latency over all rounds
* op_p99_ms    99th-percentile op latency (a run times >= 1000 ops)
* peak_rss_mb  median peak resident set of a round's process

Every time is taken at the host's reference speed, because the host's
own speed swings by up to 1.7x (see ``worker.py``): each op's latency is
multiplied by ``KERNEL_REF_S`` over the median time of the
``2 * SPEED_WINDOW`` speed-kernel samples taken nearest to it, and a
round's set-up time by the same factor for its first op.  A program that
gets slower still reads slower, since the kernel shares no code with it;
a host phase that slows the kernel and the program alike does not.  The
unscaled wall-clock figures are printed beside them, under ``wall_clock``
in the detail line.

``fail_ratio`` (ops disagreeing with the reference over ops attempted) is
printed with them and carried by the ``failed``/``attempted`` fields; it is
zero on a correct program, so it is not a regression metric.

``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics (the median over traced rounds) plus
``tracing.overhead_ratio``, traced over untraced timed wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with sample counts, the seed and the environment, is also written to
``.bench_out/result-<workload>-trace<0|1>.json``; traced rounds write their
spans to ``.bench_out/spans-<workload>-<round>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("circuits", "words", "completion", "structure")
MIN_ROUNDS = 3
# The speed kernel's median time in a fast phase of the 2-core host the
# benchmark was defined on; it sets the speed that scaled times refer to.
KERNEL_REF_S = 0.0015
SPEED_WINDOW = 3
RUN_LIMIT_S = 170  # every run ends well inside three minutes


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_commit": git_commit(ROOT),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_round(workload: str, seed: int, index: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, "-I", WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--trace", str(trace)]
    spawned = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} failed ({proc.returncode}):\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_timed_at"] - spawned
    result["scale"] = speed_scale(result["speed_at"], result["speed_s"], len(result["latencies"]))
    return result


def speed_scale(at, samples, n_ops) -> list:
    """Per op, ``KERNEL_REF_S`` over the median of the speed samples nearest
    to it: ``SPEED_WINDOW`` taken before its end and as many after.
    ``at[i]`` is the number of ops timed before sample ``i``."""
    scale, i = [], 0
    for op in range(n_ops):
        while i < len(at) and at[i] <= op:
            i += 1
        near = samples[max(i - SPEED_WINDOW, 0):i + SPEED_WINDOW]
        scale.append(KERNEL_REF_S / statistics.median(near))
    return scale


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds, scaled=True) -> tuple:
    """The end-to-end metrics, at the reference speed unless ``scaled`` is
    false."""
    lat, wall, setup = [], 0.0, []
    for r in rounds:
        ks = r["scale"] if scaled else [1.0] * len(r["latencies"])
        lat_r = [x * k for x, k in zip(r["latencies"], ks)]
        # timed calls that feed ops but are not ops themselves
        staged = r["wall"] - sum(r["latencies"])
        lat.extend(lat_r)
        wall += sum(lat_r) + staged * statistics.median(ks)
        setup.append(r["setup_s"] * ks[0])
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / wall,
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
    }
    samples = {
        "setup_s": len(rounds),
        "ops_per_s": n,
        "op_p50_ms": {"samples": n, "beyond": n // 2},
        "op_p99_ms": {"samples": n, "beyond": n - int(0.99 * n)},
        "peak_rss_mb": len(rounds),
    }
    return metrics, samples


def per_layer(pairs) -> dict:
    traced = [t for _, t in pairs]
    names = traced[0]["layers"].keys()
    metrics = {k: statistics.median(t["layers"][k] for t in traced) for k in names}
    metrics["tracing.overhead_ratio"] = statistics.median(t["wall"] / u["wall"] for u, t in pairs)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rwlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (spec_path, os.path.join(ROOT, "src", "rwlab", "__init__.py")):
        if not os.path.exists(needed):
            print(f"bench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    env = environment(args.seed)
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    rounds, pairs = [], []
    index = 0
    min_rounds = 1 if args.trace else MIN_ROUNDS
    try:
        while True:
            elapsed = monotonic() - start
            # stop once another round would likely end more than half a round
            # past the target
            if index >= min_rounds and elapsed + elapsed / index / 2 >= args.seconds:
                break
            if args.trace:
                pairs.append((run_round(args.workload, args.seed, index, 0, deadline),
                              run_round(args.workload, args.seed, index, 1, deadline)))
                rounds.extend(pairs[-1])
            else:
                rounds.append(run_round(args.workload, args.seed, index, 0, deadline))
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values, samples = per_layer(pairs), {"traced_rounds": len(pairs)}
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(rounds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, m in metrics.items():
        print(f"{args.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{args.workload}\tfail_ratio\t{failed / attempted:.6g}\tratio")
    for err in sorted({e for r in rounds for e in r["errors"]}):
        print(f"{args.workload}\terror\t{err}", file=sys.stderr)
    per_round = [{"ops": r["attempted"], "wall_s": r["wall"], "setup_s": r["setup_s"],
                  "op_p50_ms": statistics.median(r["latencies"]) * 1e3,
                  "peak_rss_mb": r["maxrss_kb"] / 1024,
                  "kernel_ms": statistics.median(r["speed_s"]) * 1e3,
                  "speed_samples": len(r["speed_s"])} for r in rounds]
    detail = {"workload": args.workload, "trace": args.trace, "env": env,
              "rounds": per_round, "samples": samples, "fail_ratio": failed / attempted}
    if not args.trace:
        detail["wall_clock"] = end_to_end(rounds, scaled=False)[0]
    print(json.dumps(detail))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
