"""Array-backed overlap tries: build, contract, inspect.

One class serves all three structure kinds used in this package:

``act``
    The full prefix trie of a sorted string set, one character per edge,
    augmented with suffix links (an Aho–Corasick-style automaton skeleton).
    At most ``n + 1`` nodes for total input length ``n``.  Each string's
    fresh nodes get consecutive ids, so most columns are built as whole-column
    copies, and its suffix links are filled by walking down that run of ids,
    not breadth-first (by automaton runs in C below the deepest branching
    node, where those nodes' transition rows are cheap enough).
``ehog``
    The contraction of the ``act`` to the root, the whole strings, and every
    node reachable by walking suffix links from a whole-string node (a
    superset of all pairwise suffix-prefix overlaps).
``hog``
    The further contraction to the root, the whole strings, and exactly the
    pairwise-overlap nodes.

Nodes are identified by dense integer ids in DFS pre-order (the root is 0,
parents precede children, children ascend lexicographically).  Six
attributes are stored in parallel ``array('i')`` columns: five per node
(20 bytes per node) and ``leaf_of``, one per string.  ``build_act`` fills
the suffix links one of two ways.  By rows, it holds one Aho–Corasick
transition row per node down to a depth chosen so that the rows take at
most 7 bytes per node (about ``8 * (σ + 13)`` bytes a row, for σ distinct
bytes) and nothing per node beside the columns: a traced peak of 20.7 bytes
per node plus the rows, 26.9 on random DNA of 100-byte strings and 21.4 on
reads.  By the chase, one link per step, it holds 7 more bytes per node
(``next_sibling``, a 2-byte first-child label and the 1-byte edge labels)
and a table of the root's children: about 27 to 30.  It
takes the rows where few links are expected deeper than them, and the chase
otherwise, as with short strings.  Child lists and edge bytes are not stored: in pre-order they
follow from ``parent`` (a node's children are the ids whose parent it is,
in ascending order), and ``OverlapTrie`` derives them on request; so is
``string_of``, the inverse of ``leaf_of``.  A string sorts first among those
it prefixes, so ``v`` spells a string exactly when ``leaf_of[start[v]] == v``.

Edge labels are never copied: the label of ``v`` is
``string(start[v])[depth[parent[v]]:depth[v]]``, a slice of one retained
input string.

Leaf intervals are set by ``build_act`` during the sorted insertion and
carried through by ``contract``; ``leaf_intervals`` recomputes them
independently, for ``verify_structure``'s audit.

``contract`` maps parents and suffix links the same way whatever drops;
only how it takes the kept nodes follows the share of unmarked nodes.  Where
few drop (the minimal step on reads; none on random text, a plain copy) it
copies the kept runs of ids; where many drop (the extended step) it takes
the kept nodes one by one, by a byte search and chunked ``itemgetter`` reads.

Where ints become columns: no column is filled through ``array``'s per-item
converter (about 60 ns an int from an iterator, 32 from a list); the
helpers of :mod:`hog.columns` pack ints made in C with ``struct.pack``, a
chunk at a time (about 17 ns an int), and copy runs of ids as bytes.  So
are made the lcps, lengths and first ids of ``build_act``'s pass 1 and its
pass 2 joins of ``depth``, ``start`` and edge bytes over chunks of nodes,
the rows way's automaton runs, and ``contract``'s gathers and kept ids.

Public API
----------
OverlapTrie        container with navigation helpers and derived child lists
COLUMNS            names of its six stored per-node ``array('i')`` columns
build_act          sorted strings -> ``act`` trie, intervals included
build_act_unchecked ``build_act`` with its way of filling suffix links forced,
                   for verification
leaf_intervals     recompute per-node [start, end] ranges (audit only)
contract           (trie, mark vector) -> contracted trie
contract_unchecked ``contract``'s body unchecked, taking the kept nodes by runs
                   or one by one (chunked gathers), for verification
verify_structure   exhaustive invariant audit, returns violation messages
to_text            stable line-oriented dump for golden tests / --serialize

A ``MarkVector`` is a plain ``bytearray`` with one 0/1 flag per node id.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, getitem, itemgetter, sub

from .columns import ID, gather, iota, lcp, misses, neighbour_lcps, packed, write_run, write_tails
from .datasets import StringSet

MarkVector = bytearray

KIND_ACT = "act"
KIND_EHOG = "ehog"
KIND_HOG = "hog"

_INT_MAX = 2**31 - 1


@dataclass(slots=True, eq=False, repr=False)
class OverlapTrie:
    """A trie over a :class:`StringSet` with suffix links and leaf intervals.

    Attributes (all per-node columns are indexed by node id):

    - ``kind``: one of ``"act" | "ehog" | "hog"``.
    - ``strings``: the underlying :class:`StringSet` (labels point into it).
    - ``parent``: parent id; ``-1`` for the root.
    - ``depth``: length in bytes of the node's path string.
    - ``suffix_link``: id of the node holding the longest proper suffix of
      the node's path string that exists in this trie; the root links to
      itself.
    - ``start`` / ``end``: the node's subtree covers exactly the sorted
      string indices ``start..end`` (1-based, inclusive); a node that *is*
      string ``j`` includes ``j`` in its own range.
    - ``leaf_of``: for each ``j`` in ``1..k``, the node whose path string is
      string ``j`` (despite the name this node may be internal when one
      input string is a prefix of another); entry 0 is unused.

    ``first_child``, ``next_sibling``, ``edge_byte`` and ``string_of`` are
    derived read-only columns: each read builds a fresh array.
    """

    kind: str
    strings: StringSet
    parent: array
    depth: array
    suffix_link: array
    start: array
    end: array
    leaf_of: array

    # -- navigation ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def k(self) -> int:
        return self.strings.k

    @property
    def first_child(self) -> array:
        """Per node, its first child in label order, or ``-1`` at a leaf: in
        pre-order that is the next id, when its parent is the node."""
        parent = self.parent
        out = array("i", [-1]) * len(parent)
        for c in compress(count(1), map(eq, islice(parent, 1, None), count())):
            out[c - 1] = c
        return out

    @property
    def next_sibling(self) -> array:
        """Per node, the next child of its parent in label order (the next
        id with the same parent), or ``-1`` after the last."""
        parent = self.parent
        n = len(parent)
        out = array("i", [-1]) * n
        head = array("i", [-1]) * n  # head[p]: p's lowest child seen so far
        for c in range(n - 1, 0, -1):
            p = parent[c]
            out[c] = head[p]
            head[p] = c
        return out

    @property
    def edge_byte(self) -> array:
        """Per node, the first byte of its incoming edge label (``-1`` at
        the root)."""
        strings = self.strings.strings
        depth = self.depth
        out = array("i", [-1])
        out.extend(
            strings[s - 1][depth[p]]
            for s, p in zip(islice(self.start, 1, None), islice(self.parent, 1, None))
        )
        return out

    @property
    def string_of(self) -> array:
        """Per node, the sorted index ``j`` of the string it spells, or
        ``-1``: the inverse of ``leaf_of``."""
        out = array("i", [-1]) * len(self.parent)
        for j, v in enumerate(islice(self.leaf_of, 1, None), 1):
            out[v] = j
        return out

    def edge_label(self, v: int) -> bytes:
        """Incoming edge label of ``v`` (empty for the root).  Copies lazily."""
        if v == 0:
            return b""
        return self.strings.string(self.start[v])[
            self.depth[self.parent[v]] : self.depth[v]
        ]

    def node_string(self, v: int) -> bytes:
        """Full path string of ``v`` (the root yields ``b""``)."""
        if v == 0:
            return b""
        return self.strings.string(self.start[v])[: self.depth[v]]


#: the stored per-node columns, in declaration order (every field after
#: ``strings``)
COLUMNS = tuple(f.name for f in fields(OverlapTrie))[2:]


def build_act(ss: StringSet) -> OverlapTrie:
    """Build the one-character-per-edge trie of all prefixes, with suffix links.

    Because ``ss.strings`` is sorted, string ``j``'s fresh nodes are its
    characters past its longest common prefix (lcp) with string ``j - 1``, and
    they get consecutive ids: no child searches, and ids come out in DFS
    pre-order.  The insertion takes two passes, so that per-node work happens
    only in C-level copies.  The first computes every lcp
    (:func:`~hog.columns.neighbour_lcps`, from the XOR of each neighbour
    pair's first ``LCP_WIDTH`` bytes read as big-endian ints) and tail, hence
    the node count, and fills whole columns as they are inside a tail (the
    parent is the node before, no sibling, no whole string).  The second
    writes ``depth``, ``start`` and the chase's edge bytes as joins of whole
    tails (:func:`~hog.columns.write_tails`) into columns sized by the first,
    so no column grows by reallocation; then it walks the path to the
    previous string and mends what the joins cannot write: each tail head's
    parent, the ``end`` runs and the sibling links.  A fresh node's leaf
    interval starts at the string that created it and ends at the last string
    inserted before it leaves the path; the nodes that leave together form
    one run of consecutive ids per tail on the path, so ``end`` is set one run
    at a time.  The ints of pass 1 and of the rows way's runs become columns
    through ``struct.pack``, a chunk at a time, not ``array``'s per-item
    converter (see :mod:`hog.columns`).

    Suffix links are then filled one of two ways, to the same values.  By
    rows (:func:`_links_by_rows`), each node down to a depth ``top`` gets its
    Aho–Corasick transition row, and each string's nodes below depth
    ``top + 1`` are filled by automaton runs in C.  ``top`` is the deepest
    depth, up to the largest lcp of sorted neighbours ``L`` (below which no
    node branches), whose rows fit in ``_ROWS_MAX_BYTES_PER_NODE`` (7) bytes
    per node, counted as ``8 * (σ + 13)`` bytes a row for σ distinct bytes
    and 40 a string.  This way makes no ``labels``, ``kid`` or
    ``next_sibling``, so the rows take the place of their 7 bytes per node.
    By the chase (:func:`_links_by_chase`), the links are found one node per
    step from ``labels`` (1 byte per node, each node's edge byte), ``kid``
    (2) and ``next_sibling`` (4), held beside the output columns, and a
    256-entry table of the root's children.  The rows
    are taken where some string runs more than one byte past depth ``L``
    and at most ``_ROWS_MAX_DEEP_SHARE`` of the links are expected deeper
    than ``top`` (the nodes of depth ``top + 1`` among the σ ** (top + 1)
    strings of that length), since each such link costs the runs some
    Python steps; the chase otherwise, as with 20,000 random strings of 10
    bytes.  Either way a node whose link waits for one not filled yet is
    parked by depth and resumed once every shallower link is final.  Below
    the rows, where links climb down the first-child chain of a deep node,
    the rest of that run is found with one byte-level lcp and copied with
    one slice of ``parent``.
    """
    return build_act_unchecked(ss, None)


#: ``build_act``'s rows take at most this many bytes per trie node, counted
#: as ``8 * (σ + 13)`` bytes a row for σ distinct bytes (the list, its
#: entries, its id and its slot in the list of all rows) and 40 a string
#: (its lcp, length and first id, and its entries in one level's lists).
#: The chase's working arrays take 7: with rows at this budget, the rows
#: way's traced peak read 25.5-27.3 bytes per node against the chase's
#: 27.2-27.4, on random DNA of 1,000 to 10,000 strings of 40 to 100 bytes
_ROWS_MAX_BYTES_PER_NODE = 7

#: ``build_act`` fills suffix links by rows when at most this share of them
#: is expected deeper than the rows (each such link costs the runs some
#: Python steps): on random DNA, rows took 0.80 of the chase's time at an
#: expected share of 0.030, 0.94 at 0.059 and 1.15 at 0.074
_ROWS_MAX_DEEP_SHARE = 0.05


def build_act_unchecked(ss: StringSet, by_rows: bool | None) -> OverlapTrie:
    """:func:`build_act` with its way of filling suffix links forced: by rows
    (``True``) or by the chase (``False``), whatever their cost; ``None``
    chooses as ``build_act`` does.  Both give the same columns."""
    k = ss.k
    if not k:
        raise ValueError("cannot build a trie over an empty string set")
    strings = ss.strings
    # pass 1, per string: string j's tail of fresh nodes is firsts[j - 1]
    # up to firsts[j] - 1, its characters past the lcp with string j - 1
    lens = packed(map(len, strings))
    lcps = neighbour_lcps(strings, lens)
    firsts = packed(accumulate(map(sub, lens, lcps), initial=1))
    n_nodes = firsts[-1]
    # no node deeper than the largest lcp branches
    branched = max(lcps)
    alphabet = b""
    top = 0
    if by_rows or by_rows is None and max(lens) > branched + 1:
        alphabet = _alphabet(strings)
        sigma = len(alphabet)
        # the deepest depth up to the largest lcp whose rows fit the budget,
        # by bisection
        budget = _ROWS_MAX_BYTES_PER_NODE * n_nodes - 40 * k
        hi = branched
        while top < hi:
            mid = (top + hi + 1) // 2
            if _nodes_to_depth(lcps, lens, mid) * 8 * (sigma + 13) <= budget:
                top = mid
            else:
                hi = mid - 1
        if by_rows is None:
            # the share of links deeper than top expected of random text: the
            # nodes of depth top + 1 among all strings of that length
            deep = _nodes_to_depth(lcps, lens, top + 1) - _nodes_to_depth(lcps, lens, top)
            by_rows = deep / sigma ** (top + 1) <= _ROWS_MAX_DEEP_SHARE
    by_rows = bool(by_rows)
    # whole columns, as they are inside a tail; pass 2 mends its two ends.
    # parent[v] is v - 1 there.  The ids are a temporary one longer than a
    # column, freed at once: glibc then raises its mmap threshold past a
    # column's size, so the columns made next come from the heap and reuse
    # its free memory (fresh-process peak RSS on dna-short 24.96 MB, against
    # 25.24 with parent built in place)
    ids = iota(n_nodes + 1)
    parent = array("i", [-1]) + ids[: n_nodes - 1]
    del ids
    end = array("i", [k]) * n_nodes  # nodes still on the path at the end
    leaf_of = packed(map((-1).__add__, firsts))  # a tail's last node
    leaf_of[0] = -1
    depth = array("i", [0]) * n_nodes
    start = array("i", [1]) * n_nodes
    # the chase's sibling links and edge bytes (labels[v - 1]: node v's)
    next_sibling = None if by_rows else array("i", [-1]) * n_nodes
    labels = None if by_rows else bytearray(n_nodes - 1)
    write_tails(strings, lcps, lens, firsts, depth, start, labels)

    # pass 2, path bookkeeping: the path to the previous string is one run
    # of consecutive ids per tail on it, runs[i] the depth where run i
    # begins and shifts[i] its ids minus their depths, so the nodes that
    # leave it get their end one run at a time, and it holds no id per node
    runs = [0]
    shifts = [0]
    path = 0  # the path's depth
    width = ID.size
    with memoryview(end) as ends, ends.cast("B") as end_octets:
        for j, lcp, node, length in zip(count(1), lcps, firsts, lens):
            # sorted and distinct, so string j extends past the lcp: its
            # tail has at least one node
            if path > lcp:
                last_run = ID.pack(j - 1)
                while runs[-1] > lcp:
                    a = runs.pop()
                    shift = shifts.pop()
                    lo, hi = a + shift, path + shift + 1
                    end_octets[width * lo : width * hi] = last_run * (hi - lo)
                    path = a - 1
                if path > lcp:
                    shift = shifts[-1]
                    lo, hi = lcp + 1 + shift, path + shift + 1
                    end_octets[width * lo : width * hi] = last_run * (hi - lo)
                # the path's node at depth lcp + 1 is the last child so far
                # of its node at depth lcp; the tail follows it
                if next_sibling is not None:
                    next_sibling[lcp + 1 + shift] = node
            parent[node] = lcp + shifts[-1]
            runs.append(lcp + 1)
            shifts.append(node - lcp - 1)
            path = length
    if by_rows:
        suffix_link = _links_by_rows(
            strings, lcps, lens, firsts, top, branched, alphabet, parent, depth, start, leaf_of
        )
    else:
        del lcps, lens, firsts
        suffix_link = _links_by_chase(labels, next_sibling, parent, depth, start, leaf_of)
    return OverlapTrie(
        kind=KIND_ACT,
        strings=ss,
        parent=parent,
        depth=depth,
        suffix_link=suffix_link,
        start=start,
        end=end,
        leaf_of=leaf_of,
    )


def _nodes_to_depth(lcps: array, lens: array, d: int) -> int:
    """The number of trie nodes no deeper than ``d``: string ``j`` makes one
    at each depth from its lcp + 1 to its length."""
    return 1 + sum(map(min, lens, repeat(d))) - sum(map(min, lcps, repeat(d)))


def _alphabet(strings: tuple[bytes, ...]) -> bytes:
    """The distinct bytes of ``strings``, ascending; each string is searched
    in C for a byte not seen before."""
    alphabet = b""
    for s in strings:
        if s.translate(None, alphabet):
            alphabet = bytes(sorted(set(alphabet).union(s)))
    return alphabet


def _agree(s: bytes, i: int, t: bytes, j: int) -> int:
    """Length of the common prefix of ``s[i:]`` and ``t[j:]``, read in
    widths doubling from 8 bytes, so that a short one costs one small
    ``lcp``."""
    run = 0
    width = 8
    while True:
        got = lcp(s[i + run : i + run + width], t[j + run : j + run + width])
        run += got
        if got < width:  # a mismatch, or the end of s or t
            return run
        width *= 2


def _copy_run(suffix_link: array, parent: array, c: int, x: int, run: int) -> None:
    """Link ``c + 1 .. c + run`` to ``x + 1 .. x + run``, the first-child
    chain below the rows way's deep link ``x``: along it each node's parent
    is the id before it, so the ids are a slice of ``parent`` (the last
    written alone: ``x + run`` may be the last id).  ``suffix_link`` may be
    exporting its buffer, so no empty slice is written: that would resize
    it."""
    if run > 1:
        suffix_link[c + 1 : c + run] = parent[x + 2 : x + 1 + run]
    suffix_link[c + run] = x + run


def _node_of(strings: tuple[bytes, ...], leaf_of: array, key: bytes) -> int:
    """The node that spells ``key``, or ``-1``: the first of the sorted
    strings that start with ``key`` made it, fresh past its lcp."""
    j = bisect_left(strings, key)
    if j == len(strings) or not strings[j].startswith(key):
        return -1
    return leaf_of[j + 1] - len(strings[j]) + len(key)


class _Parked:
    """Nodes whose suffix link waits for one not filled yet, by depth.

    A node is parked at its own depth, and with it the rest of its string's
    tail, which hangs below it.  :meth:`resumed` gives them back in ascending
    depth, when every shallower link is final, so a resumed tail parks only
    deeper.  A bucket is made only for a depth that gets a node.
    """

    def __init__(self) -> None:
        self.buckets: dict[int, array] = {}
        self.depths: list[int] = []  # a heap of the buckets' depths

    def park(self, c: int, d: int) -> None:
        bucket = self.buckets.get(d)
        if bucket is None:
            bucket = self.buckets[d] = array("i")
            heappush(self.depths, d)
        bucket.append(c)

    def resumed(self, leaf_of: array, start: array) -> Iterator[tuple[int, int]]:
        """Each parked node with the last node of its tail, its string's."""
        while self.depths:
            for c in self.buckets.pop(heappop(self.depths)):
                yield c, leaf_of[start[c]]


def _links_by_chase(
    labels: bytearray,
    next_sibling: array,
    parent: array,
    depth: array,
    start: array,
    leaf_of: array,
) -> array:
    """Suffix links by the classic fallback chase over the parent's link,
    one link per step, walking the nodes in id order: string by string, each
    string's tail of fresh nodes top-down.

    A target's first child costs one read of ``kid`` and only its later
    children a sibling walk; the root's child by a byte is one read of
    ``at_root``, so a chase that falls back to the root walks no siblings.
    A chase that meets a link not yet filled (a later string's tail) parks
    its node and skips the rest of that tail.  Along a tail the link's depth
    grows by at most one a step and falls with each climb, so the climbs are
    linear in the input's length, if slower on a periodic string than the
    rows way's run copies.
    """
    n_nodes = len(parent)
    # kid[w]: the edge byte of w's first child w + 1, or -1 at a leaf.  Each
    # label byte goes to the low byte of its short through a byte view, with
    # no Python int per node; then the leaves are set to -1: each is a
    # string's last node that the next string does not extend, or the last id
    kid = array("h", [0]) * n_nodes
    with memoryview(kid) as shorts, shorts.cast("B") as octets:
        octets[0 if sys.byteorder == "little" else 1 : 2 * n_nodes - 2 : 2] = labels
    kid[-1] = -1
    for v in islice(leaf_of, 1, len(leaf_of) - 1):
        if parent[v + 1] != v:
            kid[v] = -1
    # at_root[b]: the root's child by byte b, or the root itself
    at_root = array("i", [0]) * 256
    x = 1
    while x != -1:
        at_root[labels[x - 1]] = x
        x = next_sibling[x]

    suffix_link = array("i", [-1]) * n_nodes  # -1: not resolved yet
    suffix_link[0] = 0
    parked = _Parked()
    park = parked.park

    for c, last in chain([(1, n_nodes - 1)], parked.resumed(leaf_of, start)):
        while c <= last:
            u = parent[c]
            if u:
                b = labels[c - 1]
                w = suffix_link[u]
                while w > 0:
                    e = kid[w]
                    if e == b:
                        x = w + 1
                        break
                    x = -1 if e == -1 else next_sibling[w + 1]
                    while x != -1 and labels[x - 1] != b:
                        x = next_sibling[x]
                    if x != -1:
                        break
                    w = suffix_link[w]
                else:
                    if w:
                        # resume c once every shallower link is final; the
                        # rest of its string's tail hangs below it
                        park(c, depth[c])
                        c = leaf_of[start[c]] + 1
                        continue
                    x = at_root[b]
            else:
                x = 0
            suffix_link[c] = x
            c += 1
    return suffix_link


def _links_by_rows(
    strings: tuple[bytes, ...],
    lcps: array,
    lens: array,
    firsts: array,
    top: int,
    branched: int,
    alphabet: bytes,
    parent: array,
    depth: array,
    start: array,
    leaf_of: array,
) -> array:
    """Suffix links from Aho–Corasick transition rows of the nodes no deeper
    than ``top``, and runs of the automaton below; no node deeper than
    ``branched`` branches.

    A row is a list: entry ``a`` is the node reached by the byte of code
    ``a`` (the row's node's child, else its suffix link's entry), as that
    node's row, or ``()`` for a node deeper than ``top``; the last entry is
    the row's node id.  Rows are made level by level, each a copy of its
    node's link's row with the node's children written over it.

    A run starts at the row of the link of a node's parent: ``accumulate``
    reads the string's codes in C, and each state's id is the next node's
    link; :func:`~hog.columns.write_run` collects the ids with
    ``list.extend`` and packs them into ``suffix_link``'s bytes, one slice
    write per ``CHUNK`` ids.  It stops at ``()``, a node of depth ``top +
    1``, found among the sorted strings.  From a deep link ``x``, the links follow ``x``'s
    first-child chain while the two strings agree, then ``x``'s other child
    if it branches, then the chase goes on through deep links until a
    shallow one starts the next run.  A deep link not filled yet parks the
    node.
    """
    n_nodes = len(parent)
    sigma = len(alphabet)
    table = bytearray(256)  # byte -> code
    for code, b in enumerate(alphabet):
        table[b] = code
    table = bytes(table)
    suffix_link = array("i", [-1]) * n_nodes  # -1: not filled yet
    suffix_link[0] = 0

    # the nodes of each depth 1 .. top + 1, in id order
    levels = [array("i") for _ in range(top + 2)]
    for f, lcp, m in zip(firsts, lcps, lens):
        for d, c in zip(range(lcp + 1, min(m, top + 1) + 1), count(f)):
            levels[d].append(c)

    root = [None] * (sigma + 1)
    root[:sigma] = [root] * sigma
    root[sigma] = 0
    made = [root]  # every row, to break their cycles at the end
    # the level above: its ids, their rows and their suffix links' rows
    up_ids, up_rows, up_links = array("i", [0]), [root], [root]
    for d in range(1, top + 2):
        ids = levels[d]
        levels[d] = None
        rows = []
        links = []
        i = 0
        for c in ids:
            p = parent[c]
            while up_ids[i] != p:  # parents ascend with their children
                i += 1
            a = table[strings[start[c] - 1][d - 1]]
            link = up_links[i][a] if p else root
            suffix_link[c] = link[sigma]
            if d > top:
                up_rows[i][a] = ()
                continue
            # filled once this level is written into the level above, which
            # may hold the row of c's link
            rows.append(row := [None] * (sigma + 1))
            links.append(link)
            up_rows[i][a] = row
        for c, row, link in zip(ids, rows, links):
            row[:] = link
            row[sigma] = c
        made += rows
        up_ids, up_rows, up_links = ids, rows, links
    del levels, up_ids, up_rows, up_links, rows, links

    at_id = itemgetter(sigma)
    parked = _Parked()
    # each string's first fresh node below depth top + 1, and its last node
    heads = (
        (leaf - m + max(top + 2, lcp + 1), leaf)
        for leaf, m, lcp in zip(islice(leaf_of, 1, None), lens, lcps)
        if m > top + 1
    )
    with memoryview(suffix_link) as links, links.cast("B") as octets:
        for c, last in chain(heads, parked.resumed(leaf_of, start)):
            s = strings[start[c] - 1]
            codes = memoryview(s.translate(table))
            d = depth[c]  # c's edge byte is s[d - 1]
            x = suffix_link[parent[c]]
            while True:
                if x == -1:
                    parked.park(c, d)
                    break
                dx = depth[x]
                if dx > top:
                    # x's first child is x + 1, on x's own string t
                    t = strings[start[x] - 1]
                    if dx < len(t) and t[dx] == s[d - 1]:
                        run = _agree(s, d - 1, t, dx)
                        _copy_run(suffix_link, parent, c - 1, x, run)
                        c += run
                        if c > last:
                            break
                        d += run
                        x += run
                        dx += run
                    # no deeper than the largest lcp, x may have other children
                    y = -1 if dx > branched else _node_of(strings, leaf_of, s[d - 1 - dx : d])
                    if y != -1:
                        x = suffix_link[c] = y
                        c += 1
                        if c > last:
                            break
                        d += 1
                    else:
                        x = suffix_link[x]
                    continue
                # x spells the dx bytes before c's edge byte
                row = reduce(getitem, codes[d - 1 - dx : d - 1], root)
                states = accumulate(codes[d - 1 :], getitem, initial=row)
                got = write_run(octets, c, islice(map(at_id, states), 1, None))
                c += got
                if c > last:
                    break
                # the run stopped at a deep state, ``()``: c's link is the node
                # of depth top + 1 that ends at c's edge byte
                d += got
                x = suffix_link[c] = _node_of(strings, leaf_of, s[d - 1 - top : d])
                c += 1
                if c > last:
                    break
                d += 1
    # rows point at each other: clear them, so that they are freed now
    for row in made:
        row.clear()
    return suffix_link


def leaf_intervals(t: OverlapTrie) -> tuple[array, array]:
    """Recompute per-node [start, end] sorted-index ranges from the tree shape.

    The builder sets intervals during insertion; this independent
    recomputation is what ``verify_structure`` checks them against.  A
    single reverse-id sweep folds each node's range into its parent, which
    is correct because parents always precede children in id order (a
    parent that does not raises ``ValueError``, as does a ``leaf_of`` entry
    that names no node).  The node ``leaf_of[j]`` seeds its range with ``j``.
    """
    n = t.n_nodes
    start = array("i", [_INT_MAX]) * n if n else array("i")
    end = array("i", [-1]) * n if n else array("i")
    for j, v in enumerate(islice(t.leaf_of, 1, None), 1):
        if not 0 <= v < n:
            raise ValueError(f"string {j}: leaf_of names node {v}, out of range")
        start[v] = j
        end[v] = j
    parent = t.parent
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if not 0 <= p < v:
            raise ValueError(f"node {v}: parent {p} does not precede it")
        if start[v] < start[p]:
            start[p] = start[v]
        if end[v] > end[p]:
            end[p] = end[v]
    for v in range(n):
        if start[v] == _INT_MAX:
            raise ValueError(f"node {v} has no whole-string descendant")
    return start, end


#: ``contract`` takes the kept nodes as runs of consecutive ids when at most
#: this share of the nodes drops, and one by one otherwise: on scattered
#: drops from the extended graphs of 20,000 short random strings and of 400
#: reads, the two ways cost the same at about 0.26 and 0.31
_RUNS_MAX_DROP_SHARE = 0.3


def contract(t: OverlapTrie, marks: MarkVector, new_kind: str) -> OverlapTrie:
    """Contract ``t`` to its marked nodes, concatenating edge labels.

    Every marked node's new parent is its nearest marked proper ancestor, and
    its new suffix link the first marked node on its old suffix chain.  Marks
    are 0 or 1, and 1 at the root and all whole-string nodes: anything else
    would break the structure's contracts and raises ``ValueError``.
    Ids stay in ascending old-id order, preserving DFS pre-order and the
    lexicographic child ordering.

    With no unmarked node the result is a column-by-column copy; otherwise
    :func:`contract_unchecked` builds it, taking the kept nodes by runs when
    at most ``_RUNS_MAX_DROP_SHARE`` of the nodes drop.
    """
    n = t.n_nodes
    if len(marks) != n:
        raise ValueError(f"mark vector has {len(marks)} flags for {n} nodes")
    drops = marks.count(0)
    if drops + marks.count(1) != n:
        v = next(v for v, m in enumerate(marks) if m > 1)
        raise ValueError(f"contract: node {v} has mark {marks[v]}, not 0 or 1")
    if not drops:
        # the same columns, copied so that the two structures stay independent
        return replace(t, kind=new_kind, **{c: getattr(t, c)[:] for c in COLUMNS})
    if not marks[0]:
        raise ValueError("contract: root is not marked")
    leaf_of = t.leaf_of
    # leaf_of ascends with j (pre-order), so the first miss is the lowest id
    if not all(map(marks.__getitem__, islice(leaf_of, 1, None))):
        j = next(j for j in range(1, t.k + 1) if not marks[leaf_of[j]])
        raise ValueError(f"contract: node of whole string {j} is not marked")
    return contract_unchecked(t, marks, new_kind, drops <= _RUNS_MAX_DROP_SHARE * n)


def _chase_to_kept(w: int, suffix_link: array, newid: array) -> int:
    """The new id of the first kept node on old node ``w``'s suffix chain.

    ``newid`` holds each kept node's new id and ``-1`` for an unmarked node
    not yet resolved; it doubles as the memo, each unmarked node passed being
    set to the target, so all chases together are linear.
    """
    trail = []
    while newid[w] == -1:
        trail.append(w)
        w = suffix_link[w]
    tgt = newid[w]
    for x in trail:
        newid[x] = tgt
    return tgt


def contract_unchecked(
    t: OverlapTrie, marks: MarkVector, new_kind: str, by_runs: bool
) -> OverlapTrie:
    """:func:`contract` without its checks and its copy for no unmarked node.

    ``by_runs`` chooses only how the kept nodes are numbered and their
    columns taken, and which of them climb to find their parent: by runs of
    consecutive kept ids, one slice per run, where few nodes drop, and then
    only a node whose parent dropped climbs; or one by one from the list of
    kept ids, where many do, and then every node climbs.  That list comes
    from a C search of the marks for byte 1, with nothing made per dropped
    node, packed by :func:`~hog.columns.packed`, and columns are read
    through it by the chunked :func:`~hog.columns.gather`.  Both build the
    same columns.

    Ids are mapped through ``newid``, also by ``gather``; it is ``-1`` at
    an unmarked node and at the extra entry ``n`` (so the root's parent stays
    ``-1``).  A climber finds its nearest kept ancestor from the kept node
    before it, through the new parents: leaf intervals are laminar, so a node
    on that chain that is not an ancestor ends before the climber starts, and
    no later node passes it again.  A suffix link whose target dropped is
    chased to the first kept node on its old suffix chain, memoized in
    ``newid``, so the parents are mapped first.  The marks are not checked.
    """
    n = t.n_nodes
    newid = array("i", [-1]) * (n + 1)
    if by_runs:
        runs = []  # [a, b) of each run of kept ids
        a = 0
        while (b := marks.find(0, a)) != -1:
            runs.append((a, b))
            a = b + 1
        runs.append((a, n))
        ids = iota(n)
        for i, (a, b) in enumerate(runs):  # the run after i drops
            newid[a:b] = ids[a - i : b - i]

        def take(column: array) -> array:
            out = array("i")
            for a, b in runs:
                out += column[a:b]
            return out

        # only a kept node whose parent dropped climbs
        new_parent = gather(newid, take(t.parent))
        climbers = misses(new_parent, 1)
    else:
        kept = packed(map(re.Match.start, re.finditer(b"\x01", marks)))
        for nv, v in enumerate(kept):
            newid[v] = nv

        def take(column: array) -> array:
            return gather(column, kept)

        new_parent = array("i", [-1]) * len(kept)
        climbers = range(1, len(kept))

    new_start = take(t.start)
    new_end = take(t.end)
    for nv in climbers:
        s = new_start[nv]
        p = nv - 1
        while new_end[p] < s:
            p = new_parent[p]
        new_parent[nv] = p

    suffix_link = t.suffix_link
    old_sl = take(suffix_link)
    new_sl = gather(newid, old_sl)
    for nv in misses(new_sl):
        new_sl[nv] = _chase_to_kept(old_sl[nv], suffix_link, newid)

    return OverlapTrie(
        kind=new_kind,
        strings=t.strings,
        parent=new_parent,
        depth=take(t.depth),
        suffix_link=new_sl,
        start=new_start,
        end=new_end,
        leaf_of=gather(newid, t.leaf_of),
    )


_SMALL_AUDIT_NODES = 4000  # full suffix-link maximality audit below this size


def verify_structure(t: OverlapTrie) -> list[str]:
    """Audit every structural invariant; return human-readable violations.

    An empty list means the structure passed; a corrupted one yields
    violations, not an exception.  Checks cover tree shape, depth/label
    consistency, child ordering, suffix-link validity, interval exactness
    and the string map.  Child lists are built from the parents that
    pass the shape check, so every node is in exactly one of them, and a
    node's strings are read only where its ``start`` names a string.
    Suffix-link *maximality* (no longer proper suffix exists as a node)
    needs all node strings, so it runs only on structures up to
    ``_SMALL_AUDIT_NODES`` nodes; the suffix *property* itself is always
    checked.
    """
    out: list[str] = []
    n = t.n_nodes
    k = t.k
    ss = t.strings

    if n < 1:
        return ["trie has no nodes"]
    if t.parent[0] != -1:
        out.append(f"root parent is {t.parent[0]}, expected -1")
    if t.depth[0] != 0:
        out.append(f"root depth is {t.depth[0]}, expected 0")
    if t.suffix_link[0] != 0:
        out.append(f"root suffix link is {t.suffix_link[0]}, expected 0 (itself)")
    if n > 1 and (t.start[0] != 1 or t.end[0] != k):
        out.append(f"root interval is [{t.start[0]},{t.end[0]}], expected [1,{k}]")

    # node_string and edge_label read string(start[v]); the root reads none
    spelled = bytearray(1 <= j <= k for j in t.start)
    spelled[0] = 1
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = t.parent[v]
        if not 0 <= p < v:
            out.append(f"node {v}: parent {p} does not precede it")
            continue
        children[p].append(v)
        lab_len = t.depth[v] - t.depth[p]
        if lab_len < 1:
            out.append(f"node {v}: depth {t.depth[v]} not deeper than parent {p}")
        if t.kind == KIND_ACT and lab_len != 1:
            out.append(f"node {v}: act edge label has length {lab_len}")
        u = t.suffix_link[v]
        if not 0 <= u < n:
            out.append(f"node {v}: suffix link {u} out of range")
        elif t.depth[u] >= t.depth[v]:
            out.append(f"node {v}: suffix link {u} is not shallower")
        elif spelled[v] and spelled[u]:
            s = t.node_string(v)
            if t.node_string(u) != s[len(s) - t.depth[u] :]:
                out.append(f"node {v}: suffix link {u} is not a suffix of it")
        if not 1 <= t.start[v] <= t.end[v] <= k:
            out.append(f"node {v}: interval [{t.start[v]},{t.end[v]}] malformed")
        elif not (t.start[p] <= t.start[v] and t.end[v] <= t.end[p]):
            out.append(f"node {v}: interval escapes parent {p}'s interval")

    # child lists: ascending labels, disjoint ascending intervals; a child
    # whose start names no string was reported as malformed above
    for v in range(n):
        prev_lab: bytes | None = None
        prev_end = 0
        for c in children[v]:
            if not spelled[c]:
                continue
            lab = t.edge_label(c)
            if prev_lab is not None and lab <= prev_lab:
                out.append(f"node {v}: children out of lexicographic order at {c}")
            if t.start[c] <= prev_end:
                out.append(f"node {v}: child intervals overlap/regress at {c}")
            prev_lab = lab
            prev_end = t.end[c]

    # the string map: k distinct nodes, each first in its interval; all leaves
    named = bytearray(n)
    for j, v in enumerate(islice(t.leaf_of, 1, None), 1):
        if not 0 <= v < n:
            out.append(f"string {j}: leaf_of names node {v}, out of range")
            continue
        if named[v]:
            out.append(f"string {j}: node {v} is named by an earlier string too")
        named[v] = 1
        if t.start[v] != j:
            out.append(f"string {j}: node {v} starts its interval at {t.start[v]}")
        elif t.node_string(v) != ss.string(j):
            out.append(f"string {j}: node {v} spells a different string")
    for v in range(n):
        if not children[v] and not named[v]:
            out.append(f"node {v}: leaf without a whole string")

    # interval exactness against a fresh recomputation
    try:
        fresh_start, fresh_end = leaf_intervals(t)
    except ValueError as exc:
        out.append(str(exc))
    else:
        if fresh_start != t.start or fresh_end != t.end:
            for v in range(n):
                if fresh_start[v] != t.start[v] or fresh_end[v] != t.end[v]:
                    out.append(
                        f"node {v}: stored interval [{t.start[v]},{t.end[v]}] != "
                        f"recomputed [{fresh_start[v]},{fresh_end[v]}]"
                    )
                    break

    # suffix-link maximality (exhaustive, small structures only, and only
    # where every node spells a string)
    if n <= _SMALL_AUDIT_NODES and all(spelled):
        by_string = {t.node_string(v): v for v in range(n)}
        for v in range(1, n):
            s = t.node_string(v)
            expect = 0
            for drop in range(1, len(s) + 1):
                hit = by_string.get(s[drop:])
                if hit is not None:
                    expect = hit
                    break
            if t.suffix_link[v] != expect:
                out.append(
                    f"node {v}: suffix link {t.suffix_link[v]} is not the longest "
                    f"proper suffix node ({expect})"
                )
    return out


def _fmt_label(lab: bytes) -> str:
    # ascii() of a bytes literal, minus the b prefix: quoted, fully escaped
    return ascii(lab)[1:]


def to_text(t: OverlapTrie) -> str:
    """Stable, human-readable dump: one node per line in id (DFS) order."""
    lines = [f"# kind={t.kind} nodes={t.n_nodes} k={t.k} n={t.strings.n}"]
    lines.append("# id\tparent\tdepth\tlabel\tsuffix_link\tstart\tend\tstring_of")
    string_of = t.string_of
    for v in range(t.n_nodes):
        lines.append(
            f"{v}\t{t.parent[v]}\t{t.depth[v]}\t{_fmt_label(t.edge_label(v))}\t"
            f"{t.suffix_link[v]}\t{t.start[v]}\t{t.end[v]}\t{string_of[v]}"
        )
    return "\n".join(lines) + "\n"
