"""Array-backed overlap tries: build, contract, inspect.

One class serves all three structure kinds used in this package:

``act``
    The full prefix trie of a sorted string set, one character per edge,
    augmented with suffix links (an Aho–Corasick-style automaton skeleton).
    At most ``n + 1`` nodes for total input length ``n``.
``ehog``
    The contraction of the ``act`` to the root, the whole strings, and every
    node reachable by walking suffix links from a whole-string node (a
    superset of all pairwise suffix-prefix overlaps).
``hog``
    The further contraction to the root, the whole strings, and exactly the
    pairwise-overlap nodes.

Nodes are identified by dense integer ids in DFS pre-order (the root is 0,
parents precede children, children ascend lexicographically).  All per-node
attributes live in parallel ``array('i')`` columns, which keeps the ``act``
for megabyte-scale inputs within a few machine words per character.

Edge labels are never copied: the label of ``v`` is
``string(start[v])[depth[parent[v]]:depth[v]]``, a slice of one retained
input string.

Leaf intervals are set by ``build_act`` during the sorted insertion and
carried through by ``contract``; ``leaf_intervals`` recomputes them
independently, for ``verify_structure``'s audit.

Public API
----------
OverlapTrie        container with navigation helpers
build_act          sorted strings -> ``act`` trie, intervals included
leaf_intervals     recompute per-node [start, end] ranges (audit only)
contract           (trie, mark vector) -> contracted trie
verify_structure   exhaustive invariant audit, returns violation messages
to_text            stable line-oriented dump for golden tests / --serialize

A ``MarkVector`` is a plain ``bytearray`` with one 0/1 flag per node id.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from typing import Iterator

from .datasets import StringSet

MarkVector = bytearray

KIND_ACT = "act"
KIND_EHOG = "ehog"
KIND_HOG = "hog"

_INT_MAX = 2**31 - 1


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
    - ``first_child`` / ``next_sibling``: children as intrusive linked
      lists, in ascending label order (equivalent to a per-node sorted
      child list).
    - ``edge_byte``: first byte of the incoming edge label (``-1`` at root).
    - ``string_of``: sorted string index ``j`` if the node's path string is
      exactly string ``j``, else ``-1``.
    - ``start`` / ``end``: the node's subtree covers exactly the sorted
      string indices ``start..end`` (1-based, inclusive); a node that *is*
      string ``j`` includes ``j`` in its own range.
    - ``leaf_of``: for each ``j`` in ``1..k``, the node whose path string is
      string ``j`` (despite the name this node may be internal when one
      input string is a prefix of another); entry 0 is unused.
    """

    __slots__ = (
        "kind",
        "strings",
        "parent",
        "depth",
        "suffix_link",
        "first_child",
        "next_sibling",
        "edge_byte",
        "string_of",
        "start",
        "end",
        "leaf_of",
    )

    def __init__(
        self,
        kind: str,
        strings: StringSet,
        parent: array,
        depth: array,
        suffix_link: array,
        first_child: array,
        next_sibling: array,
        edge_byte: array,
        string_of: array,
        start: array,
        end: array,
        leaf_of: array,
    ) -> None:
        self.kind = kind
        self.strings = strings
        self.parent = parent
        self.depth = depth
        self.suffix_link = suffix_link
        self.first_child = first_child
        self.next_sibling = next_sibling
        self.edge_byte = edge_byte
        self.string_of = string_of
        self.start = start
        self.end = end
        self.leaf_of = leaf_of

    # -- navigation ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def k(self) -> int:
        return self.strings.k

    def children(self, v: int) -> Iterator[int]:
        """Yield the child ids of ``v`` in ascending label order."""
        c = self.first_child[v]
        while c != -1:
            yield c
            c = self.next_sibling[c]

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

    def find_node(self, s: bytes) -> int:
        """Return the id of the node whose path string equals ``s``, or -1.

        Linear scan over child lists; meant for tests and small lookups,
        not hot paths.
        """
        v, pos = 0, 0
        while pos < len(s):
            nxt = -1
            for c in self.children(v):
                lab = self.edge_label(c)
                if s[pos : pos + len(lab)] == lab:
                    nxt = c
                    pos += len(lab)
                    break
            if nxt == -1:
                return -1
            v = nxt
        return v if pos == len(s) else -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OverlapTrie(kind={self.kind!r}, nodes={self.n_nodes}, "
            f"k={self.k}, n={self.strings.n})"
        )


def build_act(ss: StringSet) -> OverlapTrie:
    """Build the one-character-per-edge trie of all prefixes, with suffix links.

    Because ``ss.strings`` is sorted, each string is inserted by finding the
    longest common prefix with its predecessor (kept as a node path) and
    appending its fresh tail of nodes with one C-level copy per column — no
    child searches, and node ids come out in DFS pre-order.  Leaf intervals
    are set during the insertion: a fresh node starts at the string that
    created it, and ends at the last string inserted before it leaves the
    path.  Suffix links are then filled in breadth-first order by the
    classic fallback chase over the parent's link.
    """
    k = ss.k
    if not k:
        raise ValueError("cannot build a trie over an empty string set")
    # fill sources: every column extend below copies a slice of these
    iota = array("i", range(ss.n + 2))
    longest = max(map(len, ss.strings))
    minus_one = array("i", [-1]) * longest
    all_k = array("i", [k]) * longest
    parent = array("i", [-1])
    depth = array("i", [0])
    edge_byte = array("i", [-1])
    first_child = array("i", [-1])
    next_sibling = array("i", [-1])
    string_of = array("i", [-1])
    start = array("i", [1])
    end = array("i", [k])  # the root stays on the path to the end
    leaf_of = array("i", [-1] + [0] * k)

    prev = b""
    path = [0]  # path[d] = node at depth d on the previously inserted string
    for j, s in enumerate(ss.strings, 1):
        # lcp with prev: the highest differing bit of the common-length
        # prefixes, read big-endian, falls in the first differing byte
        m = min(len(s), len(prev))
        diff = int.from_bytes(s[:m], "big") ^ int.from_bytes(prev[:m], "big")
        lcp = m - 1 - (diff.bit_length() - 1) // 8 if diff else m
        # sorted and distinct, so s extends past the lcp: tail >= 1 node
        v = path[lcp]
        node = len(parent)
        if len(path) > lcp + 1:
            # path[lcp + 1] is v's last child so far; the tail follows it
            next_sibling[path[lcp + 1]] = node
            for x in path[lcp + 1 :]:
                end[x] = j - 1
            del path[lcp + 1 :]
        else:
            first_child[v] = node
        tail = len(s) - lcp
        last = node + tail - 1
        parent.append(v)
        parent += iota[node:last]
        depth += iota[lcp + 1 : len(s) + 1]
        edge_byte.extend(s[lcp:])
        first_child += iota[node + 1 : last + 1]
        first_child.append(-1)
        next_sibling += minus_one[:tail]
        string_of += minus_one[: tail - 1]
        string_of.append(j)
        start += iota[j : j + 1] * tail
        end += all_k[:tail]  # nodes still on the path at the end
        path += iota[node : last + 1]
        leaf_of[j] = last
        prev = s

    n_nodes = len(parent)
    suffix_link = array("i", bytes(4 * n_nodes))  # zero-filled: root -> root
    queue = array("i", [0])
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        c = first_child[u]
        while c != -1:
            queue.append(c)
            if u != 0:
                b = edge_byte[c]
                w = suffix_link[u]
                while True:
                    x = first_child[w]
                    while x != -1 and edge_byte[x] != b:
                        x = next_sibling[x]
                    if x != -1:
                        suffix_link[c] = x
                        break
                    if w == 0:
                        break  # stays 0 (root)
                    w = suffix_link[w]
            c = next_sibling[c]

    return OverlapTrie(
        kind=KIND_ACT,
        strings=ss,
        parent=parent,
        depth=depth,
        suffix_link=suffix_link,
        first_child=first_child,
        next_sibling=next_sibling,
        edge_byte=edge_byte,
        string_of=string_of,
        start=start,
        end=end,
        leaf_of=leaf_of,
    )


def leaf_intervals(t: OverlapTrie) -> tuple[array, array]:
    """Recompute per-node [start, end] sorted-index ranges from the tree shape.

    The builder sets intervals during insertion; this independent
    recomputation is what ``verify_structure`` checks them against.  A
    single reverse-id sweep folds each node's range into its parent, which
    is correct because parents always precede children in id order.  A node
    that is itself string ``j`` seeds its own range with ``j``.
    """
    n = t.n_nodes
    start = array("i", [_INT_MAX]) * n if n else array("i")
    end = array("i", [-1]) * n if n else array("i")
    string_of = t.string_of
    for v in range(n):
        j = string_of[v]
        if j != -1:
            start[v] = j
            end[v] = j
    parent = t.parent
    for v in range(n - 1, 0, -1):
        p = parent[v]
        if start[v] < start[p]:
            start[p] = start[v]
        if end[v] > end[p]:
            end[p] = end[v]
    for v in range(n):
        if start[v] == _INT_MAX:
            raise ValueError(f"node {v} has no whole-string descendant")
    return start, end


def contract(t: OverlapTrie, marks: MarkVector, new_kind: str) -> OverlapTrie:
    """Contract ``t`` to its marked nodes, concatenating edge labels.

    Every marked node's new parent is its nearest marked proper ancestor,
    found with a stack over the kept nodes in pre-order: leaf intervals are
    laminar, so a stacked node that is not an ancestor ends before the next
    kept node starts.  Suffix links are re-resolved by chasing old links
    until a marked node is hit (memoized in the id map, so the chase is
    linear overall).  The root and all whole-string nodes must be marked —
    anything else would break the structure's contracts — and violations
    raise ``ValueError``.

    The Python-level work is O(kept nodes + unmarked nodes on suffix chases);
    the only passes over all ``n`` nodes are C-level scans of the mark
    vector.  Ids stay in ascending old-id order, preserving DFS pre-order
    and the lexicographic child ordering.
    """
    n = t.n_nodes
    if len(marks) != n:
        raise ValueError(f"mark vector has {len(marks)} flags for {n} nodes")
    if not marks[0]:
        raise ValueError("contract: root is not marked")
    leaf_of = t.leaf_of
    # leaf_of ascends with j (pre-order), so the first miss is the lowest id
    if not all(map(marks.__getitem__, islice(leaf_of, 1, None))):
        j = next(j for j in range(1, t.k + 1) if not marks[leaf_of[j]])
        raise ValueError(f"contract: node of whole string {j} is not marked")

    kept = array("i", compress(range(n), marks))  # old ids, ascending
    m = len(kept)
    newid = array("i", [-1]) * n
    for nv, v in enumerate(kept):
        newid[v] = nv

    new_depth = array("i", map(t.depth.__getitem__, kept))
    new_string_of = array("i", map(t.string_of.__getitem__, kept))
    new_start = array("i", map(t.start.__getitem__, kept))
    new_end = array("i", map(t.end.__getitem__, kept))
    new_parent = array("i", [-1]) * m
    new_edge_byte = array("i", [-1]) * m
    new_first = array("i", [-1]) * m
    new_next = array("i", [-1]) * m

    # stack[i + 1]'s new parent is stack[i]; the last node popped before v's
    # parent surfaces is that parent's previous child
    strings = t.strings.strings
    stack = [0]
    for nv in range(1, m):
        s = new_start[nv]
        prev_child = -1
        while new_end[stack[-1]] < s:
            prev_child = stack.pop()
        p = stack[-1]
        new_parent[nv] = p
        new_edge_byte[nv] = strings[s - 1][new_depth[p]]
        if prev_child == -1:
            new_first[p] = nv
        else:
            new_next[prev_child] = nv
        stack.append(nv)

    # suffix links: chase old links to the first marked node; newid doubles
    # as the memo, resolving each unmarked node on a chase to its target
    suffix_link = t.suffix_link
    new_sl = array("i", bytes(4 * m))
    trail: list[int] = []
    for nv in range(1, m):
        w = suffix_link[kept[nv]]
        while newid[w] == -1:
            trail.append(w)
            w = suffix_link[w]
        tgt = newid[w]
        for x in trail:
            newid[x] = tgt
        trail.clear()
        new_sl[nv] = tgt

    new_leaf_of = array("i", [-1])
    new_leaf_of.extend(map(newid.__getitem__, islice(leaf_of, 1, None)))

    return OverlapTrie(
        kind=new_kind,
        strings=t.strings,
        parent=new_parent,
        depth=new_depth,
        suffix_link=new_sl,
        first_child=new_first,
        next_sibling=new_next,
        edge_byte=new_edge_byte,
        string_of=new_string_of,
        start=new_start,
        end=new_end,
        leaf_of=new_leaf_of,
    )


_SMALL_AUDIT_NODES = 4000  # full suffix-link maximality audit below this size


def verify_structure(t: OverlapTrie) -> list[str]:
    """Audit every structural invariant; return human-readable violations.

    An empty list means the structure passed.  Checks cover tree shape,
    depth/label consistency, child ordering, suffix-link validity, interval
    exactness and the string/leaf maps.  Suffix-link *maximality* (no longer
    proper suffix exists as a node) needs all node strings, so it runs only
    on structures up to ``_SMALL_AUDIT_NODES`` nodes; the suffix *property*
    itself is always checked.
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

    for v in range(1, n):
        p = t.parent[v]
        if not 0 <= p < v:
            out.append(f"node {v}: parent {p} does not precede it")
            continue
        lab_len = t.depth[v] - t.depth[p]
        if lab_len < 1:
            out.append(f"node {v}: depth {t.depth[v]} not deeper than parent {p}")
        if t.kind == KIND_ACT and lab_len != 1:
            out.append(f"node {v}: act edge label has length {lab_len}")
        lab = t.edge_label(v)
        if lab_len >= 1 and t.edge_byte[v] != lab[0]:
            out.append(f"node {v}: edge_byte {t.edge_byte[v]} != label byte {lab[0]}")
        u = t.suffix_link[v]
        if not 0 <= u < n:
            out.append(f"node {v}: suffix link {u} out of range")
        elif t.depth[u] >= t.depth[v]:
            out.append(f"node {v}: suffix link {u} is not shallower")
        else:
            s = t.node_string(v)
            if t.node_string(u) != s[len(s) - t.depth[u] :]:
                out.append(f"node {v}: suffix link {u} is not a suffix of it")
        if not 1 <= t.start[v] <= t.end[v] <= k:
            out.append(f"node {v}: interval [{t.start[v]},{t.end[v]}] malformed")
        elif not (t.start[p] <= t.start[v] and t.end[v] <= t.end[p]):
            out.append(f"node {v}: interval escapes parent {p}'s interval")

    # child chains: ascending labels, disjoint ascending intervals, parent consistency
    seen_child = bytearray(n)
    for v in range(n):
        prev_lab: bytes | None = None
        prev_end = 0
        for c in t.children(v):
            if seen_child[c]:
                out.append(f"node {c}: appears in two child chains")
            seen_child[c] = 1
            if t.parent[c] != v:
                out.append(f"node {c}: in child chain of {v} but parent is {t.parent[c]}")
            lab = t.edge_label(c)
            if prev_lab is not None and lab <= prev_lab:
                out.append(f"node {v}: children out of lexicographic order at {c}")
            if t.start[c] <= prev_end:
                out.append(f"node {v}: child intervals overlap/regress at {c}")
            prev_lab = lab
            prev_end = t.end[c]
    for v in range(1, n):
        if not seen_child[v]:
            out.append(f"node {v}: missing from its parent's child chain")

    # string and leaf maps
    for j in range(1, k + 1):
        v = t.leaf_of[j]
        if not 0 <= v < n or t.string_of[v] != j:
            out.append(f"string {j}: leaf_of/string_of mismatch at node {v}")
        elif t.node_string(v) != ss.string(j):
            out.append(f"string {j}: node {v} spells a different string")
    for v in range(n):
        if t.first_child[v] == -1 and t.string_of[v] == -1:
            out.append(f"node {v}: leaf without a whole string")
        j = t.string_of[v]
        if j != -1 and t.leaf_of[j] != v:
            out.append(f"node {v}: string_of={j} but leaf_of[{j}]={t.leaf_of[j]}")

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

    # suffix-link maximality (exhaustive, small structures only)
    if n <= _SMALL_AUDIT_NODES:
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
    for v in range(t.n_nodes):
        lines.append(
            f"{v}\t{t.parent[v]}\t{t.depth[v]}\t{_fmt_label(t.edge_label(v))}\t"
            f"{t.suffix_link[v]}\t{t.start[v]}\t{t.end[v]}\t{t.string_of[v]}"
        )
    return "\n".join(lines) + "\n"
