"""Command-line interface: build, compare, sweep, query, verify.

Datasets come either from a file (``--input``, one string per line or
FASTA) or a seeded generator (``--random K N``).  All subcommands print
human-oriented reports to stdout; machine-oriented output goes to the
frozen-schema CSV (``--csv``) or a ``--serialize`` text dump.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import random as _random

from .baselines import (
    algorithm_names,
    brute_force_ov,
    get_marker,
    ov_length,
)
from .bench import (
    BenchError,
    bench_point,
    render_report,
    sweep,
    write_csv,
    SWEEP_MODES,
)
from .datasets import StringSet, generate_random, load_fasta, load_lines, normalize
from .ehog import build_ehog
from .queries import QueryEngine, parse_batch, run_batch
from .trie import (
    KIND_EHOG,
    KIND_HOG,
    build_act,
    contract,
    to_text,
    verify_structure,
)
from .ehog import mark_ehog


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
    g.add_argument(
        "--alphabet", default="ACGT", help="alphabet for --random (default: ACGT)"
    )
    g.add_argument(
        "--seed", type=int, default=42, help="generator seed (default: 42)"
    )


def _load_dataset(args: argparse.Namespace) -> tuple[StringSet, str, int | None]:
    if args.input and args.random:
        raise ValueError("choose one of --input or --random, not both")
    if args.input:
        if args.format == "fasta":
            filt = args.filter.encode("latin-1") if args.filter else None
            ss = load_fasta(args.input, filter_alphabet=filt)
        else:
            if args.filter:
                raise ValueError("--filter only applies to --format fasta")
            ss = load_lines(args.input)
        return ss, os.path.basename(args.input), None
    if args.random:
        k, n = args.random
        ss = generate_random(k, n, args.alphabet.encode("latin-1"), args.seed)
        return ss, f"random-k{k}-n{n}", args.seed
    raise ValueError("no dataset given: use --input PATH or --random K N")


def _parse_algos(spec: str, allow_oracle: bool = True) -> list[str]:
    names = [a.strip() for a in spec.split(",") if a.strip()]
    if not names:
        raise ValueError("empty algorithm list")
    for a in names:
        get_marker(a)  # raises on unknown names
        if a == "oracle" and not allow_oracle:
            raise ValueError("the oracle is not available for this command")
    return names


# -- subcommands -------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    ss, name, seed = _load_dataset(args)
    report = bench_point(
        ss, [args.algo], reps=args.reps, timeout_s=args.timeout, dataset=name, seed=seed
    )
    print(render_report(report, args.reps))
    run = report.runs[0]
    if run.marks is not None:
        hog = contract(report.build.trie, run.marks, KIND_HOG)
        if args.serialize:
            with open(args.serialize, "w", encoding="ascii") as fh:
                fh.write(to_text(hog))
            print(f"  serialized minimal structure -> {args.serialize}")
    elif args.serialize:
        raise BenchError("nothing to serialize: the marking pass timed out")
    if args.csv:
        write_csv(report.rows, args.csv)
        print(f"  wrote {len(report.rows)} row(s) -> {args.csv}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    algos = _parse_algos(args.algos)
    if len(algos) < 2:
        raise ValueError("compare needs at least two algorithms")
    ss, name, seed = _load_dataset(args)
    report = bench_point(
        ss, algos, reps=args.reps, timeout_s=args.timeout, dataset=name, seed=seed
    )
    print(render_report(report, args.reps))
    print("  mark vectors: all algorithms agree")
    if args.csv:
        write_csv(report.rows, args.csv)
        print(f"  wrote {len(report.rows)} row(s) -> {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    algos = _parse_algos(args.algos)
    grid = [int(x) for x in args.grid.split(",") if x.strip()]
    if args.mode == "fix_n_vary_k":
        if args.n is None:
            raise ValueError("fix_n_vary_k needs --n (the fixed total length)")
        fixed = args.n
    else:
        if args.k is None:
            raise ValueError("fix_k_vary_n needs --k (the fixed string count)")
        fixed = args.k
    rows, _ = sweep(
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
    write_csv(rows, args.csv)
    print(f"wrote {len(rows)} row(s) -> {args.csv}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    ss, name, _ = _load_dataset(args)
    build = build_ehog(ss)
    marker = get_marker(args.algo)
    marks = marker(build.trie)
    structure = build.trie if args.engine == "ehog" else contract(build.trie, marks, KIND_HOG)
    engine = QueryEngine(structure)
    if args.batch == "-":
        text = sys.stdin.read()
    else:
        with open(args.batch, "r", encoding="ascii") as fh:
            text = fh.read()
    queries = parse_batch(text)
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


# -- the oracle suite --------------------------------------------------------


def _brute_ehog_strings(strings: tuple[bytes, ...]) -> set[bytes]:
    """Independent node-set oracle for the extended structure: the empty
    string, every whole string, and every proper suffix of one string that
    is a prefix of another (self included)."""
    out: set[bytes] = {b""}
    out.update(strings)
    for p in strings:
        for drop in range(1, len(p)):
            s = p[drop:]
            if any(q.startswith(s) for q in strings):
                out.add(s)
    return out


def _random_instance(rng: _random.Random) -> list[bytes]:
    alpha = rng.choice((b"a", b"ab", b"ab", b"abcd", b"ACGT"))
    k = rng.randint(1, 9)
    raw: list[bytes] = []
    for _ in range(k):
        ln = rng.randint(1, 12)
        s = bytes(rng.choice(alpha) for _ in range(ln))
        raw.append(s)
    # sprinkle structure: borders, prefixes, duplicates
    if len(raw) >= 2 and rng.random() < 0.5:
        s = rng.choice(raw)
        m = rng.randint(1, len(s))
        raw.append(s + s[:m])
    if rng.random() < 0.4:
        s = rng.choice(raw)
        if len(s) > 1:
            raw.append(s[: rng.randint(1, len(s) - 1)])
    if rng.random() < 0.25:
        raw.append(rng.choice(raw))
    return raw


def verify_instance(ss: StringSet) -> list[str]:
    """Run every cross-check on one small string set; return failures."""
    problems: list[str] = []
    strings = ss.strings

    act = build_act(ss)
    for msg in verify_structure(act):
        problems.append(f"full trie: {msg}")

    emarks = mark_ehog(act)
    ehog = contract(act, emarks, KIND_EHOG)
    for msg in verify_structure(ehog):
        problems.append(f"extended structure: {msg}")
    want_e = _brute_ehog_strings(strings)
    got_e = {ehog.node_string(v) for v in range(ehog.n_nodes)}
    if got_e != want_e:
        problems.append(
            f"extended node set mismatch: extra={got_e - want_e!r} "
            f"missing={want_e - got_e!r}"
        )

    want_h = brute_force_ov(strings) | set(strings) | {b""}
    vectors = {}
    for algo in algorithm_names(include_oracle=True):
        vectors[algo] = get_marker(algo)(ehog)
    ref = vectors["oracle"]
    for algo, vec in vectors.items():
        if bytes(vec) != bytes(ref):
            v = next(i for i in range(len(ref)) if vec[i] != ref[i])
            problems.append(
                f"marks: {algo} disagrees with oracle at node {v} "
                f"({ehog.node_string(v)!r})"
            )
    hog = contract(ehog, ref, KIND_HOG)
    for msg in verify_structure(hog):
        problems.append(f"minimal structure: {msg}")
    got_h = {hog.node_string(v) for v in range(hog.n_nodes)}
    if got_h != want_h:
        problems.append(
            f"minimal node set mismatch: extra={got_h - want_h!r} "
            f"missing={want_h - got_h!r}"
        )

    # the same algorithms must select the same nodes on the full trie
    for algo in algorithm_names(include_oracle=False):
        amarks = get_marker(algo)(act)
        got = {act.node_string(v) for v in range(act.n_nodes) if amarks[v]}
        if got != want_h:
            problems.append(
                f"marks on full trie: {algo} selects wrong set "
                f"(extra={got - want_h!r} missing={want_h - got!r})"
            )

    # queries against the quadratic answer, on both structure kinds
    k = ss.k
    matrix = [
        [ov_length(ss.string(i), ss.string(j)) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    for structure in (hog, ehog):
        engine = QueryEngine(structure)
        for oi in range(1, ss.orig_count + 1):
            si = ss.orig_to_sorted[oi]
            if engine.one_to_all(oi) != matrix[si - 1]:
                problems.append(f"one_to_all({oi}) wrong on {structure.kind}")
            for oj in range(1, ss.orig_count + 1):
                d, s = engine.one_to_one(oi, oj)
                sj = ss.orig_to_sorted[oj]
                if d != matrix[si - 1][sj - 1] or s != ss.string(sj)[:d]:
                    problems.append(f"one_to_one({oi},{oj}) wrong on {structure.kind}")
            row = matrix[si - 1]
            for ml in (0, 1, 2, max(row, default=0)):
                want_idx = [j + 1 for j, d in enumerate(row) if d >= ml]
                if engine.report(oi, ml) != want_idx:
                    problems.append(f"report({oi},{ml}) wrong on {structure.kind}")
                if engine.count(oi, ml) != len(want_idx):
                    problems.append(f"count({oi},{ml}) wrong on {structure.kind}")
            for c in (0, 1, k, k + 3):
                got_top = engine.top(oi, c)
                want_top = [
                    j
                    for j, _ in sorted(
                        ((j + 1, d) for j, d in enumerate(row)),
                        key=lambda t: (-t[1], t[0]),
                    )[: min(c, k)]
                ]
                if got_top != want_top:
                    problems.append(f"top({oi},{c}) wrong on {structure.kind}")
        if not engine.scratch_is_clean():
            problems.append(f"query scratch dirty after batch on {structure.kind}")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    rng = _random.Random(args.seed)
    fixed: list[list[bytes]] = [
        [b"a"],
        [b"aa"],
        [b"aaaa", b"aaaa"],
        [b"ab", b"b"],
        [b"ab", b"ba"],
        [b"ab", b"abc"],
        [b"ab", b"zab"],
        [b"ab", b"abab", b"zaba"],
        [b"aabaa", b"aadbd", b"dbdaa"],
        [b"abababab", b"babababa"],
    ]
    failures = 0
    total = 0
    for idx in range(args.instances):
        raw = fixed[idx] if idx < len(fixed) else _random_instance(rng)
        ss = normalize(raw)
        problems = verify_instance(ss)
        total += 1
        if problems:
            failures += 1
            print(f"FAIL instance {idx} ({[bytes(s) for s in raw]!r}):")
            for msg in problems:
                print(f"  - {msg}")
    if failures:
        print(f"verify: {failures}/{total} instance(s) FAILED")
        return 1
    print(f"verify: {total} instance(s) ok (seed={args.seed})")
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
    p.add_argument("--algo", choices=algorithm_names(include_oracle=False), default="new")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions (default 3)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--csv", metavar="PATH", help="write measurement rows")
    p.add_argument("--serialize", metavar="PATH", help="write a text dump of the result")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("compare", help="run several algorithms and cross-check marks")
    _add_dataset_args(p)
    p.add_argument(
        "--algos",
        default=",".join(algorithm_names(include_oracle=False)),
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
    p.add_argument("--algo", choices=sorted(set(algorithm_names())), default="new")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--instances", type=int, default=250)
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
