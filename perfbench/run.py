#!/usr/bin/env python3
"""Benchmark of ``hog``: build, marker and query metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dna-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke       # every workload at small size, seconds
    python3 perfbench/run.py --self-test   # corrupted outputs must count as failures

One run generates the workload's inputs, starts a fresh process that
generates them again and runs one build (``peak_rss_mb``, and a second set of
work counters that must equal this process's), makes one untimed reference
pass with every output check, and then repeats rounds for ``--seconds``
seconds.  Every round times one set-up (input generation, ``normalize`` and
``QueryEngine`` construction), one product-path build and one query slice.
With ``--trace 0`` it also times the four markers, and the run reports the
end-to-end metrics.  With ``--trace 1`` it also times a build with spans
around each call into a layer, and the run reports the per-layer metrics and
the tracing overhead.  Every timed output is compared with the reference
pass.  Timings are scaled to a reference CPU speed (see ``CAL_S``).  The last
line of standard output is one JSON object; the lines before it are a table
of every metric with its sample count.

Everything runs in one thread; ``tracemalloc`` is off in every timed run and
in the process that measures peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hog  # noqa: E402
from hog.baselines import build_suffix_lists  # noqa: E402
from hog.queries import QueryEngine  # noqa: E402
from hog.trie import leaf_intervals  # noqa: E402

from pipeline import (  # noqa: E402
    MARKERS,
    Checks,
    answer,
    build,
    check_answers_brute,
    check_markers,
    reference,
    same_trie,
)
from tracing import Tracer, quantile, tail  # noqa: E402
from workloads import SIZES, WORKLOADS, generate, query_batch  # noqa: E402

WARM_QUERIES = 20
CHILD_TIMEOUT_S = 120  # the child takes seconds; a run must end within 180 s
OPS = ("O", "A", "R", "C", "T")


# The host's CPU speed drifts by up to 1.5x within seconds, and every timing
# drifts with it.  So a fixed pure-Python loop is timed before and after
# every block of samples, and the block's timings are scaled by CAL_S over the
# loop's mean time: they are reported in seconds on a reference machine where
# the loop takes CAL_S.  The loop does the kinds of work ``hog`` does (a dict
# trie over fixed strings, then scattered reads from an int array), because
# that tracked hog's slow-downs better than plain arithmetic did.  The table
# also gives each timing as measured.
CAL_S = 4.0e-3
CAL_SIZE = 1 << 18


@functools.cache
def _cal_input():
    rng = random.Random(0)
    words = [bytes(rng.choice(b"ACGT") for _ in range(24)) for _ in range(300)]
    cells = array("i", range(CAL_SIZE))
    rng.shuffle(cells)
    return words, cells


def _spin():
    words, cells = _cal_input()
    root, nodes = {}, 0
    for w in words:
        node = root
        for c in w:
            nxt = node.get(c)
            if nxt is None:
                nxt = node[c] = {}
                nodes += 1
            node = nxt
    mask, acc = CAL_SIZE - 1, 0
    for i in range(8_000):
        j = cells[(i * 2654435761) & mask]
        acc += j if j & 1 else -1
    return nodes, acc


def loop_s():
    """Time of the calibration loop now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - t0)
    return best


class Samples:
    """Timings of one metric, as measured and scaled to the reference."""

    def __init__(self):
        self.wall = []
        self.ref = []

    def add(self, raw, loop_before, loop_after):
        scale = 2 * CAL_S / (loop_before + loop_after)
        self.wall += raw
        self.ref += [x * scale for x in raw]


def query_slice(ref, budget, lat, checks, tracer):
    """Closed loop, one client: answer the whole batch, in order, until
    ``budget`` seconds of query time are spent, so that every slice runs
    the batch's exact mix.  Adds each operation's latencies to ``lat``."""
    engine = ref.engine
    gc.collect()
    for q in ref.batch[:WARM_QUERIES]:  # refill caches the build evicted
        answer(engine, q)
    out = {op: [] for op in OPS}
    before = loop_s()
    spent = 0.0
    while spent < budget:
        for q, expected in zip(ref.batch, ref.answers):
            with tracer.span("queries." + q[0]):
                t0 = time.perf_counter()
                ans = answer(engine, q)
                dt = time.perf_counter() - t0
            out[q[0]].append(dt)
            spent += dt
            checks.expect(ans == expected, f"query {q} answered differently")
    after = loop_s()
    for op, xs in out.items():
        lat[op].add(xs, before, after)


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def start_child(workload, seed, size_name):
    env = dict(os.environ)
    env.pop("PYTHONTRACEMALLOC", None)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--rss-child",
         "--workload", workload, "--seed", str(seed), "--size", size_name],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def finish_child(child, checks, counts):
    """Wait for the RSS process; its work counters must equal ours."""
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"peak-RSS process exited with {child.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    checks.attempted += res["attempted"]
    checks.failed += res["failed"]
    checks.notes += res["notes"]
    differ = sorted(k for k in counts if res["counts"].get(k) != counts[k])
    checks.expect(not differ, f"work counters differ between same-seed runs: {differ}")
    return res["rss_mb"]


def run(workload, seed, seconds, trace, size_name):
    """One benchmark run; returns the JSON result, ``(name, value, unit,
    samples, wall)`` rows for every metric reported (``wall``: a scaled
    timing's value as measured, else None), and the failed checks."""
    size = SIZES[size_name]
    tracer = Tracer(enabled=trace)
    untraced = Tracer(enabled=False)
    checks = Checks()

    raw, ss = generate(workload, seed, size, untraced)
    child = start_child(workload, seed, size_name)
    try:
        counters = {}
        b = build(ss, counters=counters)
        ref = reference(ss, raw, query_batch(ss, seed), size, checks, b, counters)
        del b
    except BaseException:
        child.kill()
        child.wait()
        raise
    rss_mb = finish_child(child, checks, ref.counts)

    def setup():
        with tracer.span("setup"):
            _, fresh = generate(workload, seed, size, tracer)
            with tracer.span("queries.engine_init"):
                QueryEngine(ref.build.minimal)
        return fresh

    setup_t, build_t, traced_t = Samples(), Samples(), Samples()
    mark_t = {name: Samples() for name, _ in MARKERS}
    lat = {op: Samples() for op in OPS}
    start = last = time.perf_counter()
    round_s = 0.0
    # a round starts only if one as long as the last still ends in time
    while not build_t.wall or last + round_s <= start + seconds:
        before = loop_s()
        fresh, dt = timed(setup)
        setup_t.add([dt], before, loop_s())
        checks.expect(fresh.strings == ss.strings and fresh.orig_to_sorted == ss.orig_to_sorted,
                      "set-up made different inputs")
        del fresh
        # in a traced run the untraced build runs first in even rounds and
        # second in odd ones, so that the order does not bias the overhead
        order = (False, True) if len(build_t.wall) % 2 == 0 else (True, False)
        for traced in order if trace else (False,):
            before = loop_s()
            b, dt = timed(build, ss, tracer if traced else untraced)
            (traced_t if traced else build_t).add([dt], before, loop_s())
            checks.expect(same_trie(b.minimal, ref.build.minimal), "build output differs")
            if traced:
                with tracer.span("trie.leaf_intervals"):
                    leaf_intervals(b.act)
            del b
        if trace:
            with tracer.span("baselines.build_suffix_lists"):
                build_suffix_lists(ref.cmp)
        else:
            for name, fn in MARKERS:
                before, times = loop_s(), []
                while sum(times) < size.marker_slice_s:
                    marks, dt = timed(fn, ref.cmp)
                    times.append(dt)
                    checks.expect(marks == ref.cmp_marks, f"{name} marks differ")
                mark_t[name].add(times, before, loop_s())
        query_slice(ref, size.query_slice_s, lat, checks, tracer)
        now = time.perf_counter()
        round_s, last = now - last, now
    checks.expect(ref.engine.scratch_is_clean(), "query scratch not clean after the run")

    def p99(xs):
        return quantile(xs, 0.99)

    def timing(name, samples, stat=median, unit="s"):
        """A row for a scaled timing, with the same statistic as measured."""
        k = 1e6 if unit == "us" else 1.0
        return (name, stat(samples.ref) * k, unit, samples.ref, stat(samples.wall) * k)

    table = []
    if trace:
        self_t = tracer.self_times()
        for name in ("datasets.generate", "datasets.normalize", "trie.build_act",
                     "trie.leaf_intervals", "trie.contract_extended",
                     "trie.contract_minimal", "ehog.mark_ehog", "marking.precompute_fav",
                     "marking.mark_new", "baselines.build_suffix_lists",
                     "queries.engine_init"):
            table.append((name + "_s", median(self_t[name]), "s", self_t[name], None))
        unit = {k: "ratio" if k.endswith("ratio") else "bytes" if ".bytes_" in k else "count"
                for k in ref.counts}
        table += [(k, v, unit[k], 1, None) for k, v in ref.counts.items()]
        for op in OPS:
            table.append(timing(f"queries.{op}_p50_us", lat[op], unit="us"))
            table.append(timing(f"queries.{op}_p99_us", lat[op], p99, "us"))
        # each traced build is paired with the untraced build of its round
        overhead = [t - u for t, u in zip(traced_t.wall, build_t.wall)]
        table.append(("trace.overhead_s", median(overhead), "s", overhead, None))
    else:
        all_lat = Samples()
        for xs in lat.values():
            all_lat.wall += xs.wall
            all_lat.ref += xs.ref
        n_lat = len(all_lat.ref)
        table += [
            timing("setup_s", setup_t),
            timing("build_s", build_t),
            ("peak_rss_mb", rss_mb, "MB", 1, None),
        ]
        table += [timing(f"mark_{n}_s", ts) for n, ts in mark_t.items()]
        table += [
            ("queries_per_s", n_lat / sum(all_lat.ref), "1/s", n_lat,
             n_lat / sum(all_lat.wall)),
            timing("query_p50_us", all_lat, unit="us"),
            timing("query_p99_us", all_lat, p99, "us"),
        ]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _, _ in table},
    }
    table.append(("failed_frac", checks.failed / checks.attempted, "ratio",
                  checks.attempted, None))
    return result, table, checks.notes


def render(workload, seed, trace, table, notes):
    """The metric table.  A timing scaled to the reference speed also shows
    its value as measured, after ``wall=``."""
    lines = [f"# hog benchmark: workload={workload} seed={seed} trace={int(trace)}",
             f"# {'metric':<32} {'value':>14} {'unit':<6} samples  tail"]
    for name, value, unit, samples, wall in table:
        n, extra = samples, ""
        if isinstance(samples, list):
            n = len(samples)
            t = tail(samples)
            if t is not None:
                extra = f"{t[0]}={t[1] * (1e6 if unit == 'us' else 1.0):.6g} "
        if wall is not None:
            extra += f"wall={wall:.6g}"
        lines.append(f"  {name:<32} {value:>14.6g} {unit:<6} {n:>7}  {extra}")
    lines += [f"# check failed: {note}" for note in notes]
    return "\n".join(lines)


def rss_child(workload, seed, size_name):
    """Generate, build once, record peak RSS; then recompute the counters."""
    size = SIZES[size_name]
    raw, ss = generate(workload, seed, size, Tracer(enabled=False))
    counters = {}
    b = build(ss, counters=counters)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = Checks()
    ref = reference(ss, raw, query_batch(ss, seed), size, checks, b, counters)
    print(json.dumps({"rss_mb": rss_mb, "counts": ref.counts, "attempted": checks.attempted,
                      "failed": checks.failed, "notes": checks.notes}))


def self_test() -> bool:
    """A corrupted mark vector and wrong query answers count as failures."""
    size = SIZES["smoke"]
    raw, ss = generate("reads", 7, size, Tracer(enabled=False))
    batch = query_batch(ss, 7)
    clean = Checks()
    counters = {}
    ref = reference(ss, raw, batch, size, clean, build(ss, counters=counters), counters)
    cases = [("clean reference pass", clean, 0)]

    bad = bytearray(ref.cmp_marks)
    bad[-1] ^= 1
    c = Checks()
    check_markers(c, {"new": ref.cmp_marks, "khan": bytes(bad), "cazaux": ref.cmp_marks},
                  "self-test")
    cases.append(("one flipped mark", c, 1))

    wrong = list(ref.answers)
    o = next(i for i, q in enumerate(batch) if q[0] == "O")
    a = next(i for i, q in enumerate(batch) if q[0] == "A")
    wrong[o] = (wrong[o][0] + 1, wrong[o][1])
    wrong[a] = [d + 1 for d in wrong[a]]
    c = Checks()
    check_answers_brute(c, ss, batch, wrong)
    cases.append(("one wrong O and one wrong A answer", c, 2))

    c = Checks()
    query_slice(dataclasses.replace(ref, answers=wrong), 1e-9, {op: Samples() for op in OPS}, c,
                Tracer(enabled=False))
    cases.append(("the same two answers in a timed query slice", c, 2))

    ok = True
    for what, c, want in cases:
        passed = c.failed == want
        ok &= passed
        print(f"self-test {'ok  ' if passed else 'FAIL'} {what}: "
              f"{c.failed} of {c.attempted} checks failed, expected {want}")
    return ok


def smoke() -> bool:
    """Every workload's code path at small size; every metric is emitted,
    with the unit ``BENCHMARK.json`` gives it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = self_test()
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, table, notes = run(workload, 3, 0.2, trace, "smoke")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            passed = got == want[trace] and result["correct"]
            ok &= passed
            print(f"smoke {'ok  ' if passed else 'FAIL'} {workload} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} checks, "
                  f"{result['failed']} failed, {time.perf_counter() - t0:.1f}s")
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                print(f"  differs from BENCHMARK.json: {sorted(diff)}")
            for note in notes:
                print(f"  check failed: {note}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--smoke", action="store_true", help="run every workload at small size")
    ap.add_argument("--self-test", action="store_true",
                    help="check that corrupted outputs count as failures")
    ap.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hog.__file__).resolve().parents:
        print(f"hog imported from {hog.__file__}, not from {src}", file=sys.stderr)
        return 2
    if tracemalloc.is_tracing():
        tracemalloc.stop()

    if args.smoke:
        return 0 if smoke() else 1
    if args.self_test:
        return 0 if self_test() else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.rss_child:
        rss_child(args.workload, args.seed, args.size)
        return 0
    result, table, notes = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(render(args.workload, args.seed, args.trace, table, notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
