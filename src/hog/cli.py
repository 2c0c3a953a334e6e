"""Command-line interface: build, compare, sweep, query, verify.

Datasets come either from a file (``--input``, one string per line or
FASTA) or a seeded generator (``--random K N``).  All subcommands print
human-oriented reports to stdout; machine-oriented output goes to the
frozen-schema CSV (``--csv``) or a ``--serialize`` text dump.  ``verify``
only drives the oracle suite in :mod:`hog.verify`.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from typing import Callable

from .baselines import algorithm_names, get_marker
from .bench import (
    BenchError,
    BenchReport,
    bench_point,
    render_report,
    sweep,
    write_csv,
    SWEEP_MODES,
)
from .datasets import StringSet, generate_random, load_fasta, load_lines, normalize
from .ehog import build_ehog
from .queries import QueryEngine, parse_batch, run_batch
from .trie import KIND_EHOG, KIND_HOG, to_text
from .verify import instances, verify_instance


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    g.add_argument("--input", metavar="PATH", help="read strings from a file")
    g.add_argument(
        "--format",
        choices=("lines", "fasta"),
        default="lines",
        help="input file format (default: lines)",
    )
    g.add_argument(
        "--filter",
        metavar="ALPHABET",
        help="FASTA only: drop records containing bytes outside this set",
    )
    g.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("K", "N"),
        help="generate K random strings of total length N",
    )
    # None tells a flag given with --input, which is an error, from none
    g.add_argument("--alphabet", help="alphabet for --random (default: ACGT)")
    g.add_argument("--seed", type=int, help="generator seed (default: 42)")


def _load_dataset(args: argparse.Namespace) -> tuple[StringSet, str, int | None]:
    if args.input and args.random:
        raise ValueError("choose one of --input or --random, not both")
    if args.input:
        for flag, value in (("--alphabet", args.alphabet), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} only applies to --random")
        if args.format == "fasta":
            filt = None if args.filter is None else args.filter.encode("latin-1")
            ss = load_fasta(args.input, filter_alphabet=filt)
        else:
            if args.filter is not None:
                raise ValueError("--filter only applies to --format fasta")
            ss = load_lines(args.input)
        return ss, os.path.basename(args.input), None
    if args.random:
        if args.format == "fasta":
            raise ValueError("--format fasta only applies to --input")
        if args.filter is not None:
            raise ValueError("--filter only applies to --input with --format fasta")
        k, n = args.random
        alphabet = "ACGT" if args.alphabet is None else args.alphabet
        seed = 42 if args.seed is None else args.seed
        ss = generate_random(k, n, alphabet.encode("latin-1"), seed)
        return ss, f"random-k{k}-n{n}", seed
    raise ValueError("no dataset given: use --input PATH or --random K N")


def _parse_algos(spec: str) -> list[str]:
    names = [a.strip() for a in spec.split(",") if a.strip()]
    if not names:
        raise ValueError("empty algorithm list")
    for i, a in enumerate(names):
        get_marker(a)  # raises on unknown names
        if a in names[:i]:
            raise ValueError(f"algorithm {a!r} is listed twice")
    return names


def _check_timeout(seconds: float | None) -> None:
    # nan compares false with everything, so it would mean no deadline at all
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"--timeout must be a positive number of seconds, got {seconds}")


def _check_reps(reps: int) -> None:
    # checked before the build, which can take seconds, not after it
    if reps < 1:
        raise ValueError(f"--reps must be at least 1, got {reps}")


# -- subcommands -------------------------------------------------------------


def _bench(
    args: argparse.Namespace, algos: list[str], then: Callable[[BenchReport], None]
) -> int:
    """``build`` and ``compare``: measure one dataset, print its report, pass
    it to ``then``, and write the CSV."""
    _check_timeout(args.timeout)
    _check_reps(args.reps)
    ss, name, seed = _load_dataset(args)
    report = bench_point(
        ss, algos, reps=args.reps, timeout_s=args.timeout, dataset=name, seed=seed
    )
    print(render_report(report, args.reps))
    then(report)
    if args.csv:
        rows = write_csv([report], args.csv)
        print(f"  wrote {rows} row(s) -> {args.csv}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    def serialize(report: BenchReport) -> None:
        if args.serialize:
            with open(args.serialize, "w", encoding="ascii") as fh:
                fh.write(to_text(report.build.minimal))
            print(f"  serialized minimal structure -> {args.serialize}")

    return _bench(args, [args.algo], serialize)


def _print_agreement(report: BenchReport) -> None:
    timed_out = [run.algo for run in report.runs if run.timed_out]
    finished = len(report.runs) - len(timed_out)
    if finished < 2:
        raise BenchError(
            f"nothing to compare: {', '.join(timed_out)} timed out, "
            f"so fewer than two algorithms finished"
        )
    if timed_out:
        print(f"  mark vectors: {finished} of {len(report.runs)} compared, all agree "
              f"({', '.join(timed_out)} timed out)")
    else:
        print("  mark vectors: all algorithms agree")


def cmd_compare(args: argparse.Namespace) -> int:
    algos = _parse_algos(args.algos)
    if len(algos) < 2:
        raise ValueError("compare needs at least two algorithms")
    return _bench(args, algos, _print_agreement)


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_timeout(args.timeout)
    _check_reps(args.reps)
    algos = _parse_algos(args.algos)
    grid = [int(x) for x in args.grid.split(",") if x.strip()]
    if args.mode == "fix_n_vary_k":
        if args.n is None:
            raise ValueError("fix_n_vary_k needs --n (the fixed total length)")
        if args.k is not None:
            raise ValueError("--k does not apply to fix_n_vary_k: --grid lists its k values")
        fixed = args.n
    else:
        if args.k is None:
            raise ValueError("fix_k_vary_n needs --k (the fixed string count)")
        if args.n is not None:
            raise ValueError("--n does not apply to fix_k_vary_n: --grid lists its n values")
        fixed = args.k
    reports = sweep(
        args.mode,
        fixed,
        grid,
        algos,
        seed=args.seed,
        reps=args.reps,
        timeout_s=args.timeout,
        alphabet=args.alphabet.encode("latin-1"),
        progress=print,
    )
    rows = write_csv(reports, args.csv)
    print(f"wrote {rows} row(s) -> {args.csv}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    ss, name, _ = _load_dataset(args)
    # read and parsed before the build, which can take seconds, not after it
    if args.batch == "-":
        text = sys.stdin.read()
    else:
        with open(args.batch, "r", encoding="ascii") as fh:
            text = fh.read()
    queries = parse_batch(text)
    build = build_ehog(ss)
    engine = QueryEngine(build.minimal if args.engine == KIND_HOG else build.trie)
    lines, latency = run_batch(engine, queries)
    for line in lines:
        print(line)
    print(f"# dataset {name}: k={ss.k} n={ss.n} engine={args.engine}")
    for op, times in latency.items():
        if not times:
            continue
        print(
            f"# {op}: count={len(times)} "
            f"median={statistics.median(times) * 1e3:.3f}ms "
            f"mean={statistics.fmean(times) * 1e3:.3f}ms"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    failures = 0
    for idx, raw in zip(range(args.instances), instances(args.seed)):
        problems = verify_instance(normalize(raw))
        if problems:
            failures += 1
            print(f"FAIL instance {idx} ({raw!r}):")
            for check, msg in problems:
                print(f"  - {check}: {msg}")
    if failures:
        print(f"verify: {failures}/{args.instances} instance(s) FAILED")
        return 1
    print(f"verify: {args.instances} instance(s) ok (seed={args.seed})")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hog",
        description="Compact suffix-prefix overlap structures: build, compare, "
        "sweep, query, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build structures with one algorithm")
    _add_dataset_args(p)
    p.add_argument("--algo", choices=algorithm_names(), default="new")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions (default 3)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--csv", metavar="PATH", help="write measurement rows")
    p.add_argument("--serialize", metavar="PATH", help="write a text dump of the result")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("compare", help="run several algorithms and cross-check marks")
    _add_dataset_args(p)
    p.add_argument(
        "--algos",
        default=",".join(algorithm_names()),
        help="comma-separated algorithm list (default: all four)",
    )
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="grid of generated datasets -> CSV")
    p.add_argument("--mode", choices=SWEEP_MODES, required=True)
    p.add_argument("--n", type=int, help="fixed total length (fix_n_vary_k)")
    p.add_argument("--k", type=int, help="fixed string count (fix_k_vary_n)")
    p.add_argument("--grid", required=True, help="comma-separated varying values")
    p.add_argument("--algos", default="new,khan")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS")
    p.add_argument("--alphabet", default="ACGT")
    p.add_argument("--csv", default="sweep.csv", metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("query", help="answer a batch of overlap queries")
    _add_dataset_args(p)
    p.add_argument("--batch", required=True, metavar="PATH", help="'-' reads stdin")
    p.add_argument("--engine", choices=(KIND_HOG, KIND_EHOG), default=KIND_HOG)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument(
        "--instances",
        type=int,
        default=250,
        help="how many: the fixed cases, then the families, then random sets",
    )
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BenchError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
