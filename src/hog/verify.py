"""The quadratic oracle suite: one small string set's structures, mark
vectors and query answers, each checked against brute force.

:func:`verify_instance` is the one verification core.  ``hog verify`` runs
it over :func:`instances` (fixed cases, then :data:`FAMILIES`, then seeded
random sets) and the test suite runs it, or :func:`check_queries` alone, on
its own corpora.  Every check is quadratic or worse: small inputs only.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .baselines import algorithm_names, brute_force_ov, get_marker, ov_length
from .datasets import SplitMix64, StringSet, generate_random
from .ehog import mark_ehog
from .queries import QueryEngine
from .trie import (
    COLUMNS,
    KIND_ACT,
    KIND_EHOG,
    KIND_HOG,
    OverlapTrie,
    build_act,
    build_act_unchecked,
    contract,
    contract_unchecked,
    verify_structure,
)

#: failure kinds reported by :func:`verify_instance`
CHECKS = ("structure", "sets", "vectors", "queries")


def _fibonacci_word(length: int) -> bytes:
    a, b = b"a", b"ab"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def _random_bytes(seed: int, k: int) -> list[bytes]:
    rng = random.Random(seed)
    pool = [0x00, 0xFF, rng.randrange(1, 255)]  # a tiny pool, so pairs overlap
    return [
        bytes(rng.choice(pool) if p else rng.randrange(256) for _ in range(rng.randint(1, 12)))
        for p in (rng.random() < 0.8 for _ in range(k))
    ]


_ACGT = bytes(b"ACGT"[b % 4] for b in range(256))


def _sampled_reads(seed: int, genome_len: int, k: int, lo: int, hi: int) -> list[bytes]:
    """``k`` reads of ``lo..hi`` bytes at seeded positions of one ACGT genome."""
    rng = SplitMix64(seed)
    genome = bytes(rng.byte_block(genome_len)).translate(_ACGT)
    reads = []
    for _ in range(k):
        length = lo + rng.next_u64() % (hi - lo + 1)
        p = rng.next_u64() % (genome_len - length + 1)
        reads.append(genome[p : p + length])
    return reads


#: Named string sets that random instances rarely reach: periodic, unary and
#: Fibonacci strings, nested prefixes, duplicates, the full byte range, and
#: long overlaps (reads of one short genome).
FAMILIES: dict[str, list[bytes]] = {
    "unary": [b"a" * i for i in range(1, 41)],
    "periodic-ab": [b"ab" * i for i in range(1, 21)],
    "periodic-aab": [b"aab" * i for i in range(1, 14)],
    "fibonacci-prefixes": [_fibonacci_word(i) for i in range(1, 41)],
    "single": [b"abracadabra"],
    "nested-prefixes": [bytes(range(65, 65 + m)) for m in range(1, 41)],
    "duplicated": [b"ab", b"aba", b"ab", b"ba", b"bab", b"aba", b"b", b"b"],
    "full-bytes": [bytes((b + i) % 256 for i in range(6)) for b in range(256)]
    + [b"\x00", b"\xff\xff", bytes(range(256))],
    "bytes-0-255-a": _random_bytes(1, 40),
    "bytes-0-255-b": _random_bytes(2, 40),
    "sampled-reads": _sampled_reads(1, 300, 100, 20, 200),
    # the benchmark's random-DNA shape, small
    "random-acgt": list(generate_random(60, 2_400, b"ACGT", 1).strings),
}

FIXED: list[list[bytes]] = [
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


def _random_instance(rng: random.Random) -> list[bytes]:
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


def instances(seed: int) -> Iterator[list[bytes]]:
    """The fixed cases, then every family, then random sets without end."""
    yield from FIXED
    yield from FAMILIES.values()
    rng = random.Random(seed)
    while True:
        yield _random_instance(rng)


def brute_ehog_strings(strings: tuple[bytes, ...]) -> set[bytes]:
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


def check_queries(ss: StringSet, *structures: OverlapTrie) -> list[str]:
    """All five query operations on each structure against ``ov_length``.

    For every original index: ``one_to_all``; ``one_to_one`` onto every
    index; ``report`` and ``count`` at every threshold 0..max+1; ``top`` in
    the exact ``(-ov, j)`` order at every c in 0..k+3.  The engine's state
    fingerprint must not change.  Each structure's check stops after the
    first index that fails.
    """
    k = ss.k
    matrix = [
        [ov_length(ss.string(i), ss.string(j)) for j in range(1, k + 1)]
        for i in range(1, k + 1)
    ]
    problems: list[str] = []
    for structure in structures:
        engine = QueryEngine(structure)
        before = engine.state_fingerprint()
        on = f"on {structure.kind}"
        failed = len(problems)
        for oi in range(1, ss.orig_count + 1):
            row = matrix[ss.orig_to_sorted[oi] - 1]
            if engine.one_to_all(oi) != row:
                problems.append(f"one_to_all({oi}) wrong {on}")
            for oj in range(1, ss.orig_count + 1):
                sj = ss.orig_to_sorted[oj]
                d = row[sj - 1]
                if engine.one_to_one(oi, oj) != (d, ss.string(sj)[:d]):
                    problems.append(f"one_to_one({oi},{oj}) wrong {on}")
            for lo in range(max(row) + 2):
                want = [j for j, d in enumerate(row, 1) if d >= lo]
                if engine.report(oi, lo) != want:
                    problems.append(f"report({oi},{lo}) wrong {on}")
                if engine.count(oi, lo) != len(want):
                    problems.append(f"count({oi},{lo}) wrong {on}")
            ranked = sorted(range(1, k + 1), key=lambda j: (-row[j - 1], j))
            for c in range(k + 4):
                if engine.top(oi, c) != ranked[:c]:
                    problems.append(f"top({oi},{c}) wrong {on}")
            if len(problems) > failed:
                break
        if engine.state_fingerprint() != before:
            problems.append(f"query engine state changed {on}")
    return problems


def _differing(a: OverlapTrie, b: OverlapTrie, what: str) -> list[tuple[str, str]]:
    """One ``structure`` problem per stored column in which ``a`` and ``b``
    differ, ``what`` followed by the column's name."""
    return [("structure", f"{what} {c}") for c in COLUMNS if getattr(a, c) != getattr(b, c)]


def verify_instance(ss: StringSet) -> list[tuple[str, str]]:
    """Run every cross-check on one small string set.

    Returns one ``(check, message)`` pair per failure, ``check`` one of
    :data:`CHECKS`: ``structure`` (audits of the full, extended and minimal
    graphs, minimal ⊆ extended ⊆ full as string sets, the same full-trie
    columns from both of ``build_act``'s ways of filling suffix links, and
    the same minimal columns from both of ``contract``'s ways of taking the
    kept nodes),
    ``sets`` (node and marked sets against their oracles), ``vectors`` (one
    of the four markers differs, on the full trie or the extended graph,
    from the oracle's vector: the nodes whose strings are in the brute-force
    target set) or ``queries`` (:func:`check_queries` on the minimal and the
    extended graph).
    """
    problems: list[tuple[str, str]] = []
    strings = ss.strings
    want_h = brute_force_ov(strings) | set(strings) | {b""}

    act = build_act(ss)
    # build_act fills suffix links by rows or by the chase; both ways must
    # build the same columns
    problems += _differing(
        build_act_unchecked(ss, True), build_act_unchecked(ss, False),
        "act: the two ways of filling suffix links differ in",
    )
    ehog = contract(act, mark_ehog(act), KIND_EHOG)
    for t in (act, ehog):
        ref = bytes(t.node_string(v) in want_h for v in range(t.n_nodes))
        for algo in algorithm_names():
            vec = bytes(get_marker(algo)(t))
            if vec != ref:
                v = next(v for v in range(t.n_nodes) if vec[v] != ref[v])
                problems.append((
                    "vectors",
                    f"{algo} disagrees with oracle on {t.kind} at node {v} "
                    f"({t.node_string(v)!r})",
                ))
        got = {t.node_string(v) for v in range(t.n_nodes) if ref[v]}
        if got != want_h:
            problems.append((
                "sets",
                f"marks on {t.kind}: extra={got - want_h!r} missing={want_h - got!r}",
            ))
    hog = contract(ehog, ref, KIND_HOG)
    # contract takes the kept nodes by runs or one by one; both ways must
    # build the same columns
    problems += _differing(
        contract_unchecked(ehog, ref, KIND_HOG, True),
        contract_unchecked(ehog, ref, KIND_HOG, False),
        "hog: the two ways of taking kept nodes differ in",
    )

    nodes = {}
    for t, want in ((act, None), (ehog, brute_ehog_strings(strings)), (hog, want_h)):
        for msg in verify_structure(t):
            problems.append(("structure", f"{t.kind}: {msg}"))
        got = nodes[t.kind] = {t.node_string(v) for v in range(t.n_nodes)}
        if want is not None and got != want:
            problems.append((
                "sets",
                f"{t.kind} node set: extra={got - want!r} missing={want - got!r}",
            ))
    if not nodes[KIND_HOG] <= nodes[KIND_EHOG] <= nodes[KIND_ACT]:
        problems.append(("structure", "minimal ⊆ extended ⊆ full does not hold"))

    problems.extend(("queries", msg) for msg in check_queries(ss, hog, ehog))
    return problems
