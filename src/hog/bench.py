"""Benchmark harness: timed builds, algorithm comparison, parameter sweeps.

Timing conventions: structure-build time covers the full pipeline (prefix
trie, suffix-path marking, contraction); marking time covers one marking
algorithm on the built structure, including its own preprocessing (suffix
lists, fav shortcuts, cover tree).  Every algorithm gets one untimed warmup
run — reused for mark-vector equality checks, counters, and the allocation
trace — followed by ``reps`` timed runs reported as median and mean.
Points run serially: parallel timing in one interpreter would contend on
the GIL and lie.

Peak memory is the traced-allocation peak of the warmup run (portable and
repeatable); the OS-level peak RSS is reported alongside when the platform
exposes it, but never lands in the CSV, whose schema is frozen as
:data:`CSV_HEADER`.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

try:
    import resource
except ImportError:  # non-POSIX
    resource = None  # type: ignore[assignment]

from .baselines import get_marker
from .datasets import SplitMix64, StringSet, generate_random
from .ehog import EhogBuild, build_ehog
from .marking import MarkTimeout
from .trie import MarkVector, OverlapTrie

CSV_HEADER = (
    "dataset,k,n,nodes_act,nodes_ehog,nodes_hog,t_ehog_s,algo,t_mark_s,"
    "peak_bytes,suffix_hops,count_updates,seed,rep"
)

SWEEP_MODES = ("fix_n_vary_k", "fix_k_vary_n")


class BenchError(RuntimeError):
    """Raised when compared algorithms disagree, or a run cannot proceed."""


def measure_peak_memory(fn: Callable[[], Any]) -> tuple[Any, int, int | None]:
    """Run ``fn`` under the allocation tracer.

    Returns ``(result, peak_traced_bytes, peak_rss_bytes_or_None)``.  The
    traced figure counts Python-level allocations only and is the portable,
    repeatable number; RSS is the OS high-water mark of the whole process
    (monotone over its lifetime, so only informative on first touch).
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rss = None
    if resource is not None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return result, peak, rss


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
    peak_rss: int | None = None
    timed_out: bool = False


def run_marking(
    trie: OverlapTrie,
    algo: str,
    reps: int = 3,
    timeout_s: float | None = None,
) -> MarkingRun:
    """Warmup (traced) + ``reps`` timed runs of one marking algorithm."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    marker = get_marker(algo)
    run = MarkingRun(algo=algo)

    def deadline() -> float | None:
        return None if timeout_s is None else time.monotonic() + timeout_s

    try:
        result, peak, rss = measure_peak_memory(
            lambda: marker(trie, counters=run.counters, deadline=deadline())
        )
    except MarkTimeout:
        run.timed_out = True
        return run
    run.marks = result
    run.peak_alloc = peak
    run.peak_rss = rss
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


def first_mark_mismatch(a: MarkVector, b: MarkVector) -> int:
    """Index of the first differing flag (-1 when identical)."""
    if bytes(a) == bytes(b):
        return -1
    for v in range(min(len(a), len(b))):
        if a[v] != b[v]:
            return v
    return min(len(a), len(b))


@dataclass
class BenchRow:
    """One CSV row: one (dataset point, algorithm) pair."""

    dataset: str
    k: int
    n: int
    nodes_act: int
    nodes_ehog: int
    nodes_hog: int
    t_ehog_s: float
    algo: str
    t_mark_s: float
    peak_bytes: int
    suffix_hops: int | None
    count_updates: int | None
    seed: int | None
    rep: int

    def csv_line(self) -> str:
        def opt(x: int | None) -> str:
            return "" if x is None else str(x)

        return (
            f"{self.dataset},{self.k},{self.n},{self.nodes_act},{self.nodes_ehog},"
            f"{self.nodes_hog},{self.t_ehog_s:.6f},{self.algo},{self.t_mark_s:.6f},"
            f"{self.peak_bytes},{opt(self.suffix_hops)},{opt(self.count_updates)},"
            f"{opt(self.seed)},{self.rep}"
        )


def write_csv(rows: list[BenchRow], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")


@dataclass
class BenchReport:
    """Everything measured for one dataset point."""

    dataset: str
    seed: int | None
    build: EhogBuild
    runs: list[MarkingRun]
    nodes_hog: int
    rows: list[BenchRow]


def bench_point(
    ss: StringSet,
    algos: list[str],
    reps: int = 3,
    timeout_s: float | None = None,
    dataset: str = "dataset",
    seed: int | None = None,
) -> BenchReport:
    """Build the structure once, run every algorithm on it, compare marks.

    Any two successful algorithms must produce bit-identical mark vectors;
    a mismatch raises :class:`BenchError` naming the first differing node.
    Timed-out algorithms are reported as such and excluded from the CSV
    rows (the schema has no status column).
    """
    build = build_ehog(ss)
    trie = build.trie
    runs = [run_marking(trie, algo, reps=reps, timeout_s=timeout_s) for algo in algos]

    reference: MarkingRun | None = None
    for run in runs:
        if run.timed_out or run.marks is None:
            continue
        if reference is None:
            reference = run
            continue
        v = first_mark_mismatch(reference.marks, run.marks)
        if v != -1:
            raise BenchError(
                f"mark vectors differ: {reference.algo} vs {run.algo} first "
                f"disagree at node {v} (path string {trie.node_string(v)!r}, "
                f"depth {trie.depth[v]})"
            )
    if reference is None:
        raise BenchError(f"every algorithm timed out on {dataset}")

    nodes_hog = sum(reference.marks)
    rows = []
    for run in runs:
        if run.timed_out:
            continue
        rows.append(
            BenchRow(
                dataset=dataset,
                k=ss.k,
                n=ss.n,
                nodes_act=build.nodes_act,
                nodes_ehog=build.nodes_ehog,
                nodes_hog=nodes_hog,
                t_ehog_s=build.seconds,
                algo=run.algo,
                t_mark_s=run.median_s,
                peak_bytes=run.peak_alloc,
                suffix_hops=run.counters.get("suffix_hops") if run.algo == "new" else None,
                count_updates=run.counters.get("count_updates") if run.algo == "new" else None,
                seed=seed,
                rep=len(run.times),
            )
        )
    return BenchReport(
        dataset=dataset, seed=seed, build=build, runs=runs, nodes_hog=nodes_hog, rows=rows
    )


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
) -> tuple[list[BenchRow], list[BenchReport]]:
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
    rows: list[BenchRow] = []
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
        rows.extend(report.rows)
        reports.append(report)
        if progress:
            done = ", ".join(
                f"{r.algo}={'timeout' if r.timed_out else format(r.median_s, '.3f') + 's'}"
                for r in report.runs
            )
            progress(
                f"[sweep] {name}: |A|={report.build.nodes_act} |E|={report.build.nodes_ehog} "
                f"|H|={report.nodes_hog} T(E)={report.build.seconds:.3f}s {done}"
            )
    return rows, reports


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
        f"  nodes: full-trie={build.nodes_act} extended={build.nodes_ehog} "
        f"minimal={report.nodes_hog}",
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
