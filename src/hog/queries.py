"""Pairwise suffix-prefix overlap queries over a contracted structure.

A :class:`QueryEngine` wraps a minimal (``hog``) structure — the extended
(``ehog``) kind works too and answers identically, just with longer walks.
Lookups rest on one fact: walking the suffix-link path from string ``i``'s
node, the nodes whose sorted-index interval contains ``j`` are exactly the
suffix-prefix matches of the pair ``(i, j)``, and the deepest of them is the
maximal overlap ``ov(i, j)`` — except that ``j``'s own node must be skipped,
since an overlap has to be a *proper* prefix of string ``j``.

One-against-all queries walk that path deepest node first, keeping the
answered indices as sorted, disjoint runs.  Trie intervals are laminar and
path depths fall, so a node's interval contains every earlier run it touches
or misses them all: one ``bisect`` finds the contained runs, the gaps between
them are the indices the node answers, and the runs merge into one.  A
whole-string node ``v`` spells the first string of its interval
(``leaf_of[start[v]] == v``) and no deeper path node covers that string, so
skipping it trims the range to ``start[v] + 1 .. end[v]``.  Answers are read
from the runs with slice work, never one Python step per index, and no state
outlives a query.

Query inputs are 1-based *original* (pre-deduplication) string positions;
answer vectors and reported indices live in sorted-index space, because
that is the space intervals are defined over (duplicated inputs share one
sorted index).
"""

from __future__ import annotations

import time
import zlib
from bisect import bisect_left, bisect_right

from .trie import KIND_EHOG, KIND_HOG, OverlapTrie


class QueryEngine:
    """Overlap queries over one structure; reusable across many queries."""

    __slots__ = ("t",)

    def __init__(self, t: OverlapTrie) -> None:
        if t.kind not in (KIND_HOG, KIND_EHOG):
            raise ValueError(
                f"query engine needs a contracted structure, got kind={t.kind!r}"
            )
        self.t = t

    # -- plumbing ---------------------------------------------------------

    def _orig(self, i: int) -> int:
        o2s = self.t.strings.orig_to_sorted
        if not 1 <= i < len(o2s):
            raise IndexError(f"string position {i} out of range 1..{len(o2s) - 1}")
        return o2s[i]

    def scratch_is_clean(self) -> bool:
        """Always true: no scratch outlives a query."""
        return True

    def state_fingerprint(self) -> int:
        """CRC of the columns queries read; equal before and after any query
        because queries never write to the structure."""
        t = self.t
        crc = 0
        for col in (t.depth, t.suffix_link, t.start, t.end, t.leaf_of):
            crc = zlib.crc32(col.tobytes(), crc)
        return crc

    def _walk(
        self, si: int, min_depth: int, cap: int, new: list | None
    ) -> tuple[list[int], list[int], int]:
        """Answered runs of string ``si`` (ascending starts, inclusive ends)
        and the count of indices in them, over suffix-path nodes of depth ≥
        ``min_depth``, stopping after the node that reaches ``cap``.  When
        ``new`` is a list, each node's newly answered pieces go into it as
        ``(lo, hi, depth)``, in walk order and ascending within a node.
        """
        t = self.t
        sl = t.suffix_link
        depth = t.depth
        start = t.start
        end = t.end
        leaf_of = t.leaf_of
        los: list[int] = []
        his: list[int] = []
        n = 0
        v = sl[leaf_of[si]]
        while True:
            d = depth[v]
            if d < min_depth:
                break
            lo = start[v]
            if leaf_of[lo] == v:
                lo += 1
            hi = end[v]
            if lo <= hi:
                a = bisect_left(los, lo)
                if a == len(los) or los[a] > hi:
                    los.insert(a, lo)
                    his.insert(a, hi)
                    n += hi - lo + 1
                    if new is not None:
                        new.append((lo, hi, d))
                else:
                    b = bisect_right(los, hi, a)
                    ilo = los[a:b]
                    ihi = his[a:b]
                    n += hi - lo + 1 - (sum(ihi) - sum(ilo) + b - a)
                    if new is not None:
                        g0 = lo
                        for g1, h in zip(ilo, ihi):
                            if g0 < g1:
                                new.append((g0, g1 - 1, d))
                            g0 = h + 1
                        if g0 <= hi:
                            new.append((g0, hi, d))
                    los[a:b] = (lo,)
                    his[a:b] = (hi,)
                if n >= cap:
                    break
            if v == 0:
                break
            v = sl[v]
        return los, his, n

    # -- queries ----------------------------------------------------------

    def one_to_one(self, i: int, j: int) -> tuple[int, bytes]:
        """Maximal overlap of the ordered pair ``(i, j)``: length and string."""
        si = self._orig(i)
        sj = self._orig(j)
        t = self.t
        own_node = t.leaf_of[sj]
        sl = t.suffix_link
        start = t.start
        end = t.end
        v = sl[t.leaf_of[si]]
        while v:
            if start[v] <= sj <= end[v] and v != own_node:
                return t.depth[v], t.node_string(v)
            v = sl[v]
        return 0, b""

    def one_to_all(self, i: int) -> list[int]:
        """Vector of maximal overlap lengths from ``i`` to every string, in
        sorted-index order (entry ``j - 1`` is ``ov(i, j)``)."""
        k = self.t.k
        vec = [0] * k
        new: list[tuple[int, int, int]] = []
        self._walk(self._orig(i), 1, k, new)
        for lo, hi, d in new:
            vec[lo - 1:hi] = [d] * (hi - lo + 1)
        return vec

    def report(self, i: int, min_len: int) -> list[int]:
        """Ascending sorted indices ``j`` with ``ov(i, j) ≥ min_len``.

        With ``min_len`` 0 this is every index (any pair overlaps at least
        trivially); the walk stops before any node shallower than
        ``min_len``, so the cost scales with the answer, not with k.
        """
        if min_len < 0:
            raise ValueError("min_len must be non-negative")
        los, his, n = self._walk(self._orig(i), min_len, self.t.k, None)
        if n == len(los):  # every run is one index
            return los
        return [j for lo, hi in zip(los, his) for j in range(lo, hi + 1)]

    def count(self, i: int, min_len: int) -> int:
        """How many ``j`` satisfy ``ov(i, j) ≥ min_len``."""
        if min_len < 0:
            raise ValueError("min_len must be non-negative")
        return self._walk(self._orig(i), min_len, self.t.k, None)[2]

    def top(self, i: int, c: int) -> list[int]:
        """Sorted indices of the ``min(c, k)`` largest overlaps from ``i``,
        in non-increasing overlap order (ties broken by ascending index);
        zero-overlap indices pad the tail when fewer than ``c`` overlaps are
        positive, and ``c > k`` clamps to ``k``."""
        if c < 0:
            raise ValueError("c must be non-negative")
        cap = min(c, self.t.k)
        new: list[tuple[int, int, int]] = []
        if self._walk(self._orig(i), 0, cap, new)[2] == len(new):  # one index per piece
            return [lo for lo, _, _ in new[:cap]]
        out: list[int] = []
        for lo, hi, _ in new:
            out += range(lo, min(hi + 1, lo + cap - len(out)))
        return out


# -- batch format -----------------------------------------------------------

_BATCH_ARITY = {"O": 2, "A": 1, "R": 2, "C": 2, "T": 2}


def parse_batch(text: str) -> list[tuple]:
    """Parse batch query lines: ``O i j | A i | R i l | C i l | T i c``.

    Blank lines and ``#`` comments are ignored.  Raises ``ValueError`` with
    the offending line number on malformed input.
    """
    queries: list[tuple] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        op = parts[0]
        arity = _BATCH_ARITY.get(op)
        if arity is None:
            raise ValueError(f"batch line {ln}: unknown op {op!r}")
        if len(parts) != arity + 1:
            raise ValueError(
                f"batch line {ln}: {op} takes {arity} argument(s), got {len(parts) - 1}"
            )
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"batch line {ln}: non-integer argument") from None
        queries.append((op, *args))
    return queries


def run_batch(
    engine: QueryEngine, queries: list[tuple]
) -> tuple[list[str], dict[str, list[float]]]:
    """Answer parsed queries; returns one text line per query plus raw
    per-op latencies (seconds) keyed by op letter.

    Formats: ``O`` → ``<len> <string>`` (just ``0`` for no overlap); ``A`` →
    space-separated vector; ``R`` → ascending indices; ``C`` → count; ``T``
    → indices in rank order.
    """
    lines: list[str] = []
    latency: dict[str, list[float]] = {op: [] for op in _BATCH_ARITY}
    for q in queries:
        op = q[0]
        t0 = time.perf_counter()
        if op == "O":
            d, s = engine.one_to_one(q[1], q[2])
            out = f"{d} {s.decode('latin-1')}" if d else "0"
        elif op == "A":
            out = " ".join(map(str, engine.one_to_all(q[1])))
        elif op == "R":
            out = " ".join(map(str, engine.report(q[1], q[2])))
        elif op == "C":
            out = str(engine.count(q[1], q[2]))
        else:  # T
            out = " ".join(map(str, engine.top(q[1], q[2])))
        latency[op].append(time.perf_counter() - t0)
        lines.append(out)
    return lines, latency
