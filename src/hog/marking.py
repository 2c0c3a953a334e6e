"""Overlap-node marking by lazy subtree blackening (the fast algorithm).

Marks, on an ``act`` or ``ehog`` trie, exactly the nodes of the minimal
overlap structure: the root, every whole string, and every node that is the
longest suffix-prefix overlap of some ordered string pair.  Feeding the
result to :func:`hog.trie.contract` yields the ``hog``.

How it works, in brief: for each string ``p`` (by ascending sorted index),
walk the suffix-link path from ``p``'s node toward the root.  A path node
``v`` is the overlap of ``(p, q)`` for precisely the strings ``q`` in ``v``'s
subtree interval that were not already claimed by a deeper path node.  So the
walk marks ``v`` exactly when ``v``'s subtree still contains an unclaimed
("white") target, then blackens the whole subtree — and both operations are
O(1) amortized thanks to two precomputed shortcuts, each filled by one slice
write per run of unfavoured ids (``v`` is unfavoured exactly when ``v + 1``
has its leaf interval):

- ``fav_desc[v]``: the top of every maximal unary non-string chain is
  redirected to the chain's bottom ("favoured") node, so a subtree's
  whiteness is readable from one counter;
- ``fav_panc[u]``: favoured-ancestor links let a blackening charge its
  parent-unit removals only along favoured nodes.

``count[f]`` for a favoured node ``f`` is the number of ``f``'s units (one
per child subtree, counted one by one, plus one for ``f`` itself when it is
a whole string) that still contain white targets.  A journal of touched
counters restores state between strings, so the whole pass over all strings
does O(total length) work on an ``act`` (and O(structure size + total
suffix-path length) on an ``ehog``).

A walk also stops early.  Each node has one state byte: unmarked, marked,
or done.  A node is done only when it and every node on its suffix path are
marked; marks only grow, so a walk that reaches a done node can mark nothing
more.  After each walk, the done state is written from the suffix link of
the walk's shallowest node that was unmarked on arrival (the string's own
node if there is none) up to the first done node: every node after it was
marked on arrival, so each done node is one that a walk has reached twice.
On unary and periodic inputs this cuts the walked hops from Θ(n) to Θ(k).
The ``suffix_hops`` and ``count_updates`` counters count the walked hops
only, not whole suffix paths.
"""

from __future__ import annotations

import re
import sys
import time
from array import array
from dataclasses import dataclass
from itertools import compress, islice

from .columns import iota
from .trie import KIND_ACT, KIND_EHOG, MarkVector, OverlapTrie


class MarkTimeout(RuntimeError):
    """Raised by a marking algorithm that ran past its cooperative deadline."""


@dataclass(slots=True)
class FavStructure:
    """Precomputed shortcuts for lazy blackening on one trie; a marking
    pass only reads them."""

    base_count: array
    fav_desc: array
    fav_panc: array


_FLAG_CHUNK = 1024  # nodes per big-int comparison, so no temporary grows with n
_ONE_AT_ZERO = b"\x01" + bytes(255)  # translates the flags to the unfavoured nodes' counts
_UNFAVOURED_RUNS = re.compile(b"\x00+")


def _unfavoured_flags(start: array, end: array) -> bytearray:
    """Per node, 0 exactly when the next node has its leaf interval: each column
    of 4-byte ids as a big int, XORed with itself shifted one id, bytes ORed."""
    n = len(start)
    flags = bytearray()
    for a in range(0, n - 1, _FLAG_CHUNK):
        m = min(_FLAG_CHUNK, n - 1 - a)
        x, y = (int.from_bytes(c[a : a + m + 1].tobytes(), "little") for c in (start, end))
        d = (x ^ x >> 32) | (y ^ y >> 32)
        flags += (d | d >> 8 | d >> 16 | d >> 24).to_bytes(4 * m + 4, "little")[: 4 * m : 4]
    flags.append(1)  # the last node is a leaf
    return flags


def precompute_fav(t: OverlapTrie) -> FavStructure:
    """Build :class:`FavStructure` for ``t``, one Python step per run of
    unfavoured nodes, per child of a favoured node and per string.

    A node is *favoured* when it has ≥ 2 children or is a whole string.  As
    ``v + 1`` is ``v``'s only possible first child, ``v`` is unfavoured
    exactly when ``v + 1`` has its leaf interval.  In a maximal unfavoured
    run ``[a, b)``, ``fav_desc`` is ``b`` and ``fav_panc[a + 1 : b + 1]`` is
    ``fav_panc[a]``, the parent of ``a`` (or the root); elsewhere, the node
    and its parent.  ``base_count`` (children, plus 1 at a whole string; at
    most 257) is 1 at an unfavoured node; favoured nodes' children, the ids
    ``f + 1`` of favoured ``f``, are counted one by one.
    """
    if t.kind not in (KIND_ACT, KIND_EHOG):
        raise ValueError(f"marking runs on act/ehog structures, got {t.kind!r}")
    n = t.n_nodes
    flags = _unfavoured_flags(t.start, t.end)
    base = array("H", [0]) * n
    memoryview(base).cast("B")[sys.byteorder == "big" :: 2] = flags.translate(_ONE_AT_ZERO)
    for p in compress(islice(t.parent, 1, None), flags):
        base[p] += 1
    for v in islice(t.leaf_of, 1, None):
        base[v] += 1
    fav_desc = iota(n)
    fav_panc = t.parent[:]
    fav_panc[0] = 0
    for run in _UNFAVOURED_RUNS.finditer(flags):
        a, b = run.span()
        if b - a == 1:
            fav_desc[a] = b
            fav_panc[b] = fav_panc[a]
        else:
            fav_desc[a:b] = array("i", [b]) * (b - a)
            fav_panc[a + 1 : b + 1] = array("i", [fav_panc[a]]) * (b - a)
    return FavStructure(base, fav_desc, fav_panc)


def mark_hog_new(
    t: OverlapTrie,
    counters: dict[str, int] | None = None,
    deadline: float | None = None,
    fav: FavStructure | None = None,
) -> MarkVector:
    """Mark overlap nodes on ``t`` by lazy subtree blackening.

    Returns a mark vector whose set bits are the root, all whole-string
    nodes, and all pairwise-overlap nodes: bit 0 of each node's state byte.
    Each string's walk stops at the first done node, whose whole suffix
    path is already marked (see the module docstring).  ``counters`` (when
    given) is filled with ``suffix_hops`` (suffix-path nodes walked across
    all strings), ``count_updates`` (counter writes on those walks, journal
    restores included) and ``vm_lengths`` (per-string journal lengths, for
    bound checks).
    """
    if t.kind not in (KIND_ACT, KIND_EHOG):
        raise ValueError(f"marking runs on act/ehog structures, got {t.kind!r}")
    if fav is None:
        fav = precompute_fav(t)
    state = bytearray(t.n_nodes)  # bit 0: marked; bit 1: done, so done is 3
    state[0] = 3
    sl = t.suffix_link
    leaf_of = t.leaf_of
    base = fav.base_count
    count = array("H", base)  # live counts; the journal vm restores them
    fdesc = fav.fav_desc
    fpanc = fav.fav_panc
    vm: list[int] = []
    hops = 0
    updates = 0
    vm_lengths: list[int] | None = [] if counters is not None else None

    for j in range(1, t.k + 1):
        x = leaf_of[j]
        if not state[x]:  # a marked or done node keeps its state
            state[x] = 1
        last = x
        v = sl[x]
        while (s := state[v]) != 3:
            hops += 1
            if not s:
                last = v
            fd = fdesc[v]
            if count[fd]:
                state[v] = 1
                vm.append(fd)
                count[fd] = 0
                u = fpanc[fd]
                while u:
                    vm.append(u)
                    c = count[u] - 1
                    count[u] = c
                    if c > 0:
                        break
                    u = fpanc[u]
            v = sl[v]
        v = sl[last]
        while state[v] != 3:
            state[v] = 3
            v = sl[v]
        updates += 2 * len(vm)  # every journaled write is paired with a restore
        if vm_lengths is not None:
            vm_lengths.append(len(vm))
        for w in vm:
            count[w] = base[w]
        vm.clear()
        if deadline is not None and time.monotonic() > deadline:
            raise MarkTimeout(f"lazy marking passed its deadline at string {j}/{t.k}")

    if counters is not None:
        counters["suffix_hops"] = hops
        counters["count_updates"] = updates
        counters["vm_lengths"] = vm_lengths
    return state.translate(bytes(range(2)) * 128)  # each state's bit 0
