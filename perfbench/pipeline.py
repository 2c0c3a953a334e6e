"""Calls into ``hog``'s layers, the output checks and the work counters.

Everything here calls the public functions of ``hog``'s modules directly;
the ``bench`` and ``cli`` front ends are not used, because
``bench.run_marking`` runs a ``tracemalloc`` warmup that would be measured
along with the markers.
"""

from __future__ import annotations

from dataclasses import dataclass

from hog.baselines import (
    mark_hog_cazaux,
    mark_hog_khan,
    mark_hog_parkcpr,
    ov_length,
)
from hog.datasets import StringSet, normalize
from hog.ehog import build_ehog, mark_ehog
from hog.marking import mark_hog_new, precompute_fav
from hog.queries import QueryEngine
from hog.trie import KIND_EHOG, KIND_HOG, OverlapTrie, build_act, contract, verify_structure

from tracing import Tracer
from workloads import Size

_NULL = Tracer(enabled=False)

# Markers in the order they run; each includes its own preprocessing (fav
# arrays, suffix lists, cover tree), as ``hog compare`` times them.
MARKERS = (
    ("new", mark_hog_new),
    ("khan", mark_hog_khan),
    ("parkcpr", mark_hog_parkcpr),
    ("cazaux", mark_hog_cazaux),
)

# Columns of a trie that two equal builds must hold identically.
_COLUMNS = ("parent", "depth", "suffix_link", "first_child", "next_sibling",
            "edge_byte", "string_of", "start", "end", "leaf_of")


@dataclass
class Build:
    """The product path's graphs and mark vectors."""

    act: OverlapTrie | None
    ext: OverlapTrie
    minimal: OverlapTrie
    ehog_marks: bytearray
    hog_marks: bytearray


def build(ss: StringSet, tracer: Tracer = _NULL, counters: dict | None = None) -> Build:
    """StringSet -> minimal graph on the product path.

    ``counters`` (when given) receives the ``mark_ehog`` counters under
    ``"ehog"`` and the ``mark_hog_new`` counters under ``"new"``.
    """
    span = tracer.span
    ehog_c = new_c = None
    if counters is not None:
        ehog_c = counters.setdefault("ehog", {})
        new_c = counters.setdefault("new", {})
    with span("build"):
        with span("trie.build_act"):
            act = build_act(ss)
        with span("ehog.mark_ehog"):
            em = mark_ehog(act, ehog_c)
        with span("trie.contract_extended"):
            ext = contract(act, em, KIND_EHOG)
        with span("marking.precompute_fav"):
            fav = precompute_fav(ext)
        with span("marking.mark_new"):
            hm = mark_hog_new(ext, new_c, fav=fav)
        with span("trie.contract_minimal"):
            minimal = contract(ext, hm, KIND_HOG)
    return Build(act, ext, minimal, em, hm)


def trie_bytes(t: OverlapTrie) -> int:
    """Bytes held by the trie's columns, computed as length x itemsize."""
    return sum(len(a) * a.itemsize for a in (getattr(t, c) for c in _COLUMNS))


def same_trie(a: OverlapTrie, b: OverlapTrie) -> bool:
    return a.kind == b.kind and all(getattr(a, c) == getattr(b, c) for c in _COLUMNS)


def answer(engine: QueryEngine, q: tuple):
    op = q[0]
    if op == "O":
        return engine.one_to_one(q[1], q[2])
    if op == "A":
        return engine.one_to_all(q[1])
    if op == "R":
        return engine.report(q[1], q[2])
    if op == "C":
        return engine.count(q[1], q[2])
    return engine.top(q[1], q[2])


def answer_size(q: tuple, ans) -> int:
    """Indices an answer returns (``O``: 1 when the pair overlaps; ``A``:
    the strings with a nonzero overlap; ``C``: the count itself)."""
    op = q[0]
    if op == "O":
        return 1 if ans[0] else 0
    if op == "A":
        return sum(1 for d in ans if d)
    if op == "C":
        return ans
    return len(ans)


class Checks:
    """Output checks: how many were made and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def check_build(checks: Checks, b: Build, k: int) -> None:
    """The minimal graph is sound and node counts agree across layers."""
    problems = verify_structure(b.minimal)
    checks.expect(not problems, f"verify_structure: {problems[:3]}")
    n_full = b.act.n_nodes
    checks.expect(
        n_full == len(b.ehog_marks)
        and sum(b.ehog_marks) == b.ext.n_nodes == len(b.hog_marks)
        and sum(b.hog_marks) == b.minimal.n_nodes
        and n_full >= b.ext.n_nodes >= b.minimal.n_nodes >= k + 1,
        f"node counts disagree: full {n_full}, extended {b.ext.n_nodes}, "
        f"minimal {b.minimal.n_nodes}, marks {sum(b.ehog_marks)}/{sum(b.hog_marks)}",
    )


def check_markers(checks: Checks, marks: dict[str, bytes], where: str) -> None:
    """Every marker's vector is bit-identical to ``new``'s."""
    ref = marks["new"]
    for name, m in marks.items():
        if name != "new":
            checks.expect(m == ref, f"{name} marks differ from new on {where}")


BRUTE_A = 2  # A answers checked per run: each costs k ov_length calls


def check_answers_brute(
    checks: Checks, ss: StringSet, batch: list[tuple], answers: list
) -> None:
    """Every O answer and the first ``BRUTE_A`` A answers equal brute-force
    ``ov_length``."""
    def text(i: int) -> bytes:
        return ss.strings[ss.orig_to_sorted[i] - 1]

    n_a = BRUTE_A
    for q, ans in zip(batch, answers):
        if q[0] == "O":
            p, s = text(q[1]), text(q[2])
            d = ov_length(p, s)
            checks.expect(ans == (d, s[:d]), f"O {q[1]} {q[2]}: {ans[0]} != {d}")
        elif q[0] == "A" and n_a > 0:
            n_a -= 1
            p = text(q[1])
            checks.expect(
                ans == [ov_length(p, s) for s in ss.strings], f"A {q[1]}: wrong vector"
            )


@dataclass
class Reference:
    """One untimed pass over a workload: outputs the timed rounds must
    reproduce, and the work counters."""

    build: Build
    cmp: OverlapTrie
    cmp_marks: bytes
    engine: QueryEngine
    batch: list[tuple]
    answers: list
    counts: dict[str, float]


def reference(
    ss: StringSet,
    raw: list[bytes],
    batch: list[tuple],
    size: Size,
    checks: Checks,
    b: Build,
    counters: dict,
) -> Reference:
    """Check build ``b`` (made with ``counters``), then mark and query once
    with counters on and check those outputs too.

    The four markers are compared on the extended graph of the first
    ``size.cmp_strings`` input strings (all of them on ``dna-long`` and
    ``reads``); where that is a smaller graph, ``new`` is also checked
    against ``khan`` on the full extended graph.
    """
    check_build(checks, b, ss.k)
    counts: dict[str, float] = {
        "trie.nodes_full": b.act.n_nodes,
        "trie.nodes_extended": b.ext.n_nodes,
        "trie.nodes_minimal": b.minimal.n_nodes,
        "trie.bytes_full": trie_bytes(b.act),
        "trie.bytes_extended": trie_bytes(b.ext),
        "trie.bytes_minimal": trie_bytes(b.minimal),
        "ehog.suffix_hops": counters["ehog"]["suffix_hops"],
        "ehog.keep_ratio": b.ext.n_nodes / b.act.n_nodes,
        "marking.suffix_hops": counters["new"]["suffix_hops"],
        "marking.count_updates": counters["new"]["count_updates"],
        "marking.keep_ratio": b.minimal.n_nodes / b.ext.n_nodes,
    }
    b.act = None  # the full trie is the largest structure; keep only its counts

    if len(raw) > size.cmp_strings:
        cmp = build_ehog(normalize(raw[:size.cmp_strings])).trie
        checks.expect(
            mark_hog_khan(b.ext) == b.hog_marks, "khan marks differ from new on the full graph"
        )
    else:
        cmp = b.ext
    marks, mc = {}, {}
    for name, fn in MARKERS:
        mc[name] = {}
        marks[name] = bytes(fn(cmp, mc[name]))
    check_markers(checks, marks, "the comparison graph")
    counts["baselines.suffix_list_total"] = mc["cazaux"]["suffix_list_total"]
    counts["baselines.ancestor_scans"] = mc["khan"]["ancestor_scans"]
    counts["baselines.interval_queries"] = mc["parkcpr"]["interval_queries"]
    counts["baselines.scan_ops"] = mc["cazaux"]["scan_ops"]

    engine = QueryEngine(b.minimal)
    answers = [answer(engine, q) for q in batch]
    checks.expect(engine.scratch_is_clean(), "query scratch not clean after the batch")
    check_answers_brute(checks, ss, batch, answers)
    counts["queries.answers"] = sum(answer_size(q, a) for q, a in zip(batch, answers))
    return Reference(b, cmp, marks["new"], engine, batch, answers, counts)
