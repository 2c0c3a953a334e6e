"""Benchmark harness: timed builds, algorithm comparison, parameter sweeps.

Timing conventions: structure-build time covers the extended stages of
:func:`~hog.ehog.build_ehog` (prefix trie, suffix-path marking, contraction);
marking time covers one marking algorithm on the extended structure,
including its own preprocessing (suffix lists, fav shortcuts, cover tree).
Every algorithm gets one untimed warmup run — checked against the build's
``new`` marks, and traced — and one more untimed, untraced run that fills its
work counters, followed by ``reps`` timed runs reported as median and mean.  Points run serially:
parallel timing in one interpreter would contend on the GIL and lie.

Peak memory is the traced-allocation peak of the warmup run (portable and
repeatable), which keeps no counters, so it is the algorithm's own.  The CSV
schema is frozen as :data:`CSV_HEADER`.
"""

from __future__ import annotations

import csv
import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

from .baselines import get_marker
from .datasets import SplitMix64, StringSet, generate_random
from .ehog import EhogBuild, build_ehog
from .marking import MarkTimeout
from .trie import MarkVector, OverlapTrie

SWEEP_MODES = ("fix_n_vary_k", "fix_k_vary_n")


class BenchError(RuntimeError):
    """Raised when compared algorithms disagree, or a run cannot proceed."""


def measure_peak_memory(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` under the allocation tracer.

    Returns ``(result, peak_traced_bytes)``: the traced peak during the call
    above what was traced when it began.  The traced figure counts
    Python-level allocations only and is portable and repeatable.  Tracing
    that was on already (``PYTHONTRACEMALLOC``, or a caller's own
    ``tracemalloc.start()``) stays on, and what it traced before the call
    does not count.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


@dataclass
class MarkingRun:
    """One algorithm's measured marking runs on one structure."""

    algo: str
    times: list[float] = field(default_factory=list)
    median_s: float = 0.0
    mean_s: float = 0.0
    marks: MarkVector | None = None
    counters: dict[str, int] = field(default_factory=dict)
    peak_alloc: int = 0
    timed_out: bool = False


def run_marking(
    trie: OverlapTrie,
    algo: str,
    reps: int = 3,
    timeout_s: float | None = None,
) -> MarkingRun:
    """Warmup (traced) + ``reps`` timed runs of one marking algorithm.

    The traced warmup passes no ``counters``, so the peak is the marker's
    own: ``new``'s counters hold a list of one int per string.  One more
    call, neither timed nor traced, fills ``run.counters``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    marker = get_marker(algo)
    run = MarkingRun(algo=algo)

    def deadline() -> float | None:
        return None if timeout_s is None else time.monotonic() + timeout_s

    try:
        result, peak = measure_peak_memory(lambda: marker(trie, deadline=deadline()))
        marker(trie, counters=run.counters, deadline=deadline())
    except MarkTimeout:
        run.timed_out = True
        return run
    run.marks = result
    run.peak_alloc = peak
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            marker(trie, deadline=deadline())
            run.times.append(time.perf_counter() - t0)
    except MarkTimeout:
        run.timed_out = True
        return run
    run.median_s = statistics.median(run.times)
    run.mean_s = statistics.fmean(run.times)
    return run


@dataclass
class BenchReport:
    """Everything measured for one dataset point."""

    dataset: str
    seed: int | None
    build: EhogBuild
    runs: list[MarkingRun]


CSV_HEADER = (
    "dataset,k,n,nodes_act,nodes_ehog,nodes_hog,t_ehog_s,algo,t_mark_s,"
    "peak_bytes,suffix_hops,count_updates,seed,rep"
)


def write_csv(reports: list[BenchReport], path: str) -> int:
    """Write the header and one row per finished run of ``reports`` as UTF-8,
    and return the number of rows.

    Timed-out runs get no row (the schema has no status column), and the
    op counters are filled for ``new`` only.  A field holding a comma or
    quote is quoted.
    """
    rows = []
    for report in reports:
        build = report.build
        for run in report.runs:
            if run.timed_out:
                continue
            new = run.algo == "new"
            rows.append([
                report.dataset, build.trie.k, build.trie.strings.n, build.nodes_act,
                build.trie.n_nodes, build.minimal.n_nodes, f"{build.seconds:.6f}", run.algo,
                f"{run.median_s:.6f}", run.peak_alloc,
                run.counters.get("suffix_hops") if new else None,
                run.counters.get("count_updates") if new else None,
                report.seed, len(run.times),
            ])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return len(rows)


def bench_point(
    ss: StringSet,
    algos: list[str],
    reps: int = 3,
    timeout_s: float | None = None,
    dataset: str = "dataset",
    seed: int | None = None,
) -> BenchReport:
    """Build the structure once, run every algorithm on it, compare marks.

    Every successful algorithm must produce the build's ``new`` mark vector
    bit for bit; a mismatch raises :class:`BenchError` naming the first
    differing node.  Timed-out algorithms are reported as such;
    :func:`write_csv` gives them no row.
    """
    build = build_ehog(ss)
    trie, want = build.trie, build.marks
    runs = [run_marking(trie, algo, reps=reps, timeout_s=timeout_s) for algo in algos]
    for run in runs:
        if run.timed_out or run.marks == want:
            continue
        v = next(v for v in range(trie.n_nodes) if run.marks[v] != want[v])
        raise BenchError(
            f"mark vectors differ: new vs {run.algo} first "
            f"disagree at node {v} (path string {trie.node_string(v)!r}, "
            f"depth {trie.depth[v]})"
        )
    if all(run.timed_out for run in runs):
        raise BenchError(f"every algorithm timed out on {dataset}")
    return BenchReport(dataset=dataset, seed=seed, build=build, runs=runs)


def sweep(
    mode: str,
    fixed: int,
    grid: list[int],
    algos: list[str],
    seed: int,
    reps: int = 3,
    timeout_s: float | None = 600.0,
    alphabet: bytes = b"ACGT",
    progress: Callable[[str], None] | None = None,
) -> list[BenchReport]:
    """Run :func:`bench_point` over a grid of generated datasets.

    ``fix_n_vary_k`` grids over k at fixed total length n; ``fix_k_vary_n``
    grids over n at fixed k.  Point seeds derive deterministically from the
    master seed through a :class:`SplitMix64` stream, so the same arguments
    reproduce the same datasets (and the same non-timing CSV columns)
    exactly.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r} (valid: {', '.join(SWEEP_MODES)})")
    if not grid:
        raise ValueError("sweep grid is empty")
    gen = SplitMix64(seed)
    reports: list[BenchReport] = []
    for value in grid:
        point_seed = gen.next_u64() >> 1  # keep it comfortably in a signed 64-bit
        k, n = (value, fixed) if mode == "fix_n_vary_k" else (fixed, value)
        name = f"random-k{k}-n{n}"
        if progress:
            progress(f"[sweep] {name} seed={point_seed} generating...")
        ss = generate_random(k, n, alphabet, point_seed)
        report = bench_point(
            ss, algos, reps=reps, timeout_s=timeout_s, dataset=name, seed=point_seed
        )
        reports.append(report)
        if progress:
            done = ", ".join(
                f"{r.algo}={'timeout' if r.timed_out else format(r.median_s, '.3f') + 's'}"
                for r in report.runs
            )
            progress(
                f"[sweep] {name}: |A|={report.build.nodes_act} |E|={report.build.trie.n_nodes} "
                f"|H|={report.build.minimal.n_nodes} T(E)={report.build.seconds:.3f}s {done}"
            )
    return reports


def _fmt_bytes(b: int | None) -> str:
    if b is None:
        return "-"
    if b >= 1 << 20:
        return f"{b / (1 << 20):.1f}MiB"
    if b >= 1 << 10:
        return f"{b / (1 << 10):.1f}KiB"
    return f"{b}B"


def render_report(report: BenchReport, reps: int) -> str:
    """Human-readable comparison table, wall times relative to the fastest."""
    build = report.build
    lines = [
        f"dataset {report.dataset}: k={build.trie.k} n={build.trie.strings.n}",
        f"  nodes: full-trie={build.nodes_act} extended={build.trie.n_nodes} "
        f"minimal={build.minimal.n_nodes}",
        f"  structure build: {build.seconds:.4f}s",
        f"  marking ({reps} reps, median):",
    ]
    finished = [r for r in report.runs if not r.timed_out]
    fastest = min((r.median_s for r in finished), default=0.0)
    for run in report.runs:
        if run.timed_out:
            lines.append(f"    {run.algo:<8} TIMED OUT")
            continue
        rel = run.median_s / fastest if fastest > 0 else 1.0
        extra = ""
        if run.algo == "new" and run.counters:
            extra = (
                f"  hops={run.counters.get('suffix_hops', 0)}"
                f" updates={run.counters.get('count_updates', 0)}"
            )
        lines.append(
            f"    {run.algo:<8} {run.median_s:.4f}s (mean {run.mean_s:.4f}s, "
            f"{rel:.2f}x, peak {_fmt_bytes(run.peak_alloc)})" + extra
        )
    return "\n".join(lines)
