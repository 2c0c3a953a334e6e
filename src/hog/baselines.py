"""Reference overlap-marking algorithms and the brute-force oracle.

Three published-style alternatives to the lazy-blackening marker, all
producing bit-identical mark vectors on the same trie:

``cazaux``
    Per-node suffix lists plus an upward ancestor scan from every
    whole-string node, deduplicating with a timestamp array.  Simple, but
    carries the quadratic-flavor Σ|suffix lists on ancestors| term — kept
    deliberately unoptimized as the slow baseline.
``parkcpr``
    Walks each suffix-link path and decides "does this subtree still contain
    an unclaimed target?" with a segment tree over sorted string indices:
    one walk per path node covers the node's range and reports how many
    positions it newly covered, and a journal rolls each string back.
``khan``
    One Euler tour of the trie maintaining, per string id, a stack of the
    suffix-list nodes currently on the root path; at every whole-string node
    an upward scan marks the ancestors that are some id's deepest live node.

``oracle`` marks nodes by literal string comparison against the quadratic
brute-force overlap set — tiny inputs only, used for verification.

All five markers, ``new`` included, share one contract: ``f(t,
counters=None, deadline=None)`` returns ``t``'s mark vector, writes the
marker's work counters into ``counters`` when given, and raises
:class:`~hog.marking.MarkTimeout` once ``time.monotonic()`` has passed
``deadline``.  Each checks the deadline at one point of its outer loop: after
each string (``new``, ``parkcpr``, ``cazaux``), at each whole-string node
(``khan``) and at each node (``oracle``), so a marker can overrun its
deadline by one string's work.  The one extra is ``new``'s ``fav=``, a
precomputed :class:`~hog.marking.FavStructure`.  :data:`MARKERS` lists them
in canonical order; :func:`get_marker` looks one up by name.
"""

from __future__ import annotations

import time
from array import array
from itertools import islice
from typing import Callable, Sequence

from .marking import MarkTimeout, mark_hog_new
from .trie import KIND_ACT, KIND_EHOG, MarkVector, OverlapTrie


def ov_length(p: bytes, q: bytes) -> int:
    """Length of the longest proper suffix of ``p`` that is a proper prefix
    of ``q`` (0 when only the empty string qualifies)."""
    for ln in range(min(len(p), len(q)) - 1, 0, -1):
        if p[len(p) - ln :] == q[:ln]:
            return ln
    return 0


def brute_force_ov(strings: Sequence[bytes]) -> set[bytes]:
    """All distinct maximal pairwise overlaps, by direct slice comparison.

    Ordered pairs, self-pairs included; the empty string appears whenever
    some pair only overlaps trivially.  Quadratic in every direction —
    oracle use only.
    """
    out: set[bytes] = set()
    for p in strings:
        for q in strings:
            out.add(q[: ov_length(p, q)])
    return out


def mark_hog_oracle(
    t: OverlapTrie,
    counters: dict[str, int] | None = None,
    deadline: float | None = None,
) -> MarkVector:
    """Mark by membership of each node's path string in the brute-force
    overlap set.  Exact by construction; cost is O(nodes × depth) plus the
    quadratic pair scan."""
    targets = brute_force_ov(t.strings.strings)
    marks = bytearray(t.n_nodes)
    marks[0] = 1
    string_of = t.string_of
    for v in range(1, t.n_nodes):
        if string_of[v] != -1 or t.node_string(v) in targets:
            marks[v] = 1
        if deadline is not None and time.monotonic() > deadline:
            raise MarkTimeout(f"oracle marking passed its deadline at node {v}")
    return marks


def build_suffix_lists(t: OverlapTrie) -> list[list[int]]:
    """Per-node lists of string ids: ``lists[v]`` holds every ``i`` such
    that node ``v``'s path string is a *proper* suffix of string ``i``; the
    root's list is empty.  Built by walking each string's suffix-link path,
    recording the string id at every node strictly between the string's own
    node and the root."""
    if t.kind not in (KIND_ACT, KIND_EHOG):
        raise ValueError(f"suffix lists are built on act/ehog structures, got {t.kind!r}")
    lists: list[list[int]] = [[] for _ in range(t.n_nodes)]
    sl = t.suffix_link
    leaf_of = t.leaf_of
    for i in range(1, t.k + 1):
        v = sl[leaf_of[i]]
        while v:
            lists[v].append(i)
            v = sl[v]
    return lists


def mark_hog_cazaux(
    t: OverlapTrie,
    counters: dict[str, int] | None = None,
    deadline: float | None = None,
) -> MarkVector:
    """Suffix-list ancestor scan with a per-string timestamp "found" array.

    For each whole-string node (by ascending sorted index j), ascend the
    parent chain; at each ancestor, every suffix-list id ``i`` not yet seen
    during pass ``j`` marks the ancestor as ``ov(i, j)`` — the first (=
    deepest) occurrence wins, later ones are skipped via the timestamp.
    Scans start at the whole-string node itself so ids whose deepest live
    node *is* that node are consumed there (the node is a whole string, so
    the mark itself is redundant but harmless).
    """
    lists = build_suffix_lists(t)
    n = t.n_nodes
    k = t.k
    marks = bytearray(n)
    marks[0] = 1
    parent = t.parent
    leaf_of = t.leaf_of
    found = array("i", bytes(4 * (k + 1)))  # last pass j that consumed id i
    ops = 0
    for j in range(1, k + 1):
        u = leaf_of[j]
        marks[u] = 1
        while u:
            fresh = False
            for i in lists[u]:
                if found[i] != j:
                    found[i] = j
                    fresh = True
            ops += len(lists[u])
            if fresh:
                marks[u] = 1
            u = parent[u]
        if deadline is not None and time.monotonic() > deadline:
            raise MarkTimeout(f"suffix-list scan passed its deadline at string {j}/{k}")
    if counters is not None:
        counters["scan_ops"] = ops
        counters["suffix_list_total"] = sum(map(len, lists))
    return marks


class IntervalCoverTree:
    """Segment tree over positions ``1..k``: cover a range and report how
    many of its positions were uncovered, and roll everything back to a
    checkpoint.

    Covering is "assign zero" with pruning: a subtree whose uncovered count
    is already 0 is never entered, which (with the journal) keeps each
    string's pass linear in what it actually touches.  The journal records
    ``(index, previous value)`` pairs; :meth:`rollback` pops to a
    checkpoint, so nesting follows stack discipline.
    """

    __slots__ = ("size", "uncov", "journal")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("need at least one position")
        size = 1
        while size < k:
            size <<= 1
        self.size = size
        self.uncov = uncov = array("i", bytes(4 * 2 * size))
        uncov[size : size + k] = array("i", [1]) * k
        for node in range(size - 1, 0, -1):
            uncov[node] = uncov[2 * node] + uncov[2 * node + 1]
        self.journal: list[tuple[int, int]] = []

    def cover(self, lo: int, hi: int) -> int:
        """Mark every position in ``[lo, hi]`` (1-based, inclusive) covered,
        journaled, and return how many of them were uncovered before."""
        return self._cover(1, 1, self.size, lo, hi)

    def _cover(self, node: int, nlo: int, nhi: int, lo: int, hi: int) -> int:
        uncov = self.uncov
        u = uncov[node]
        if u == 0 or hi < nlo or nhi < lo:
            return 0
        if lo <= nlo and nhi <= hi:
            # zero at an internal node doubles as a "fully covered" flag:
            # cover prunes on it, so stale child values are never observed
            # while it is in force, and rollback restores it
            self.journal.append((node, u))
            uncov[node] = 0
            return u
        mid = (nlo + nhi) // 2
        got = self._cover(2 * node, nlo, mid, lo, hi) + self._cover(
            2 * node + 1, mid + 1, nhi, lo, hi
        )
        # a nonzero count always equals its children's sum, so this is
        # their sum after the cover
        if got:
            self.journal.append((node, u))
            uncov[node] = u - got
        return got

    def checkpoint(self) -> int:
        return len(self.journal)

    def rollback(self, mark: int) -> None:
        """Undo journaled writes back to (and excluding) ``mark``."""
        journal = self.journal
        uncov = self.uncov
        while len(journal) > mark:
            node, old = journal.pop()
            uncov[node] = old


def mark_hog_parkcpr(
    t: OverlapTrie,
    counters: dict[str, int] | None = None,
    deadline: float | None = None,
) -> MarkVector:
    """Suffix-path walk deciding marks with an :class:`IntervalCoverTree`.

    Each path node covers its sorted-index interval, and is marked iff that
    cover reports a newly covered position, so deeper path nodes (visited
    first) shadow shallower ones exactly as maximality requires.  Each
    string's covers are rolled back before the next string starts.
    """
    if t.kind not in (KIND_ACT, KIND_EHOG):
        raise ValueError(f"marking runs on act/ehog structures, got {t.kind!r}")
    n = t.n_nodes
    k = t.k
    marks = bytearray(n)
    marks[0] = 1
    sl = t.suffix_link
    leaf_of = t.leaf_of
    start = t.start
    end = t.end
    tree = IntervalCoverTree(k)
    queries = 0
    for j in range(1, k + 1):
        cp = tree.checkpoint()
        x = leaf_of[j]
        marks[x] = 1
        v = sl[x]
        while v:
            queries += 1
            if tree.cover(start[v], end[v]):
                marks[v] = 1
            v = sl[v]
        tree.rollback(cp)
        if deadline is not None and time.monotonic() > deadline:
            raise MarkTimeout(f"cover-tree marking passed its deadline at string {j}/{k}")
    if counters is not None:
        counters["interval_queries"] = queries
    return marks


def mark_hog_khan(
    t: OverlapTrie,
    counters: dict[str, int] | None = None,
    deadline: float | None = None,
) -> MarkVector:
    """Euler-tour marking with per-string-id stacks of live list nodes.

    Entering a node pushes it on the stack of every id in its suffix list
    (deactivating that id's previous top); leaving pops it and reactivates
    the previous tops.  A node that is left never returns to the root path,
    so its own count is not read again and is not reset.  A node is
    "active" while it is some id's stack top, i.e. the deepest node on the
    current root path whose path string is a proper suffix of that id's
    string.  At each whole-string node, a scan over its strict ancestors
    marks the active ones — each is the maximal overlap for the pairs whose
    ids it currently tops.

    Ids are in pre-order, so the tour is one pass over ``0..n-1`` and meets
    the whole strings in ``leaf_of`` order: before entering a node, the open
    nodes are left until the top of the root path is the node's parent.
    """
    lists = build_suffix_lists(t)
    n = t.n_nodes
    k = t.k
    marks = bytearray(n)
    marks[0] = 1
    parent = t.parent
    wholes = islice(t.leaf_of, 1, None)
    whole = next(wholes)
    active = array("i", bytes(4 * n))
    tops: list[list[int]] = [[] for _ in range(k + 1)]
    path = [0]  # the open nodes; the root's suffix list is empty
    scans = 0
    for u in range(1, n):
        p = parent[u]
        while path[-1] != p:
            w = path.pop()
            for i in reversed(lists[w]):
                st = tops[i]
                st.pop()
                if st:
                    active[st[-1]] += 1
        for i in lists[u]:
            st = tops[i]
            if st:
                active[st[-1]] -= 1
            st.append(u)
            active[u] += 1
        if u == whole:
            whole = next(wholes, -1)
            marks[u] = 1
            for a in path:  # the root is never active, and is marked anyway
                if active[a]:
                    marks[a] = 1
            scans += len(path) - 1
            if deadline is not None and time.monotonic() > deadline:
                raise MarkTimeout(f"euler-tour marking passed its deadline at node {u}")
        path.append(u)
    if counters is not None:
        counters["ancestor_scans"] = scans
    return marks


MarkFn = Callable[..., MarkVector]

#: every marker by name, in canonical order (the oracle last)
MARKERS: dict[str, MarkFn] = {
    "new": mark_hog_new,
    "khan": mark_hog_khan,
    "parkcpr": mark_hog_parkcpr,
    "cazaux": mark_hog_cazaux,
    "oracle": mark_hog_oracle,
}


def get_marker(name: str) -> MarkFn:
    try:
        return MARKERS[name]
    except KeyError:
        valid = ", ".join(sorted(MARKERS))
        raise ValueError(f"unknown algorithm {name!r} (valid: {valid})") from None


def algorithm_names() -> list[str]:
    """The four real markers' names in canonical order (no oracle)."""
    return [name for name in MARKERS if name != "oracle"]
