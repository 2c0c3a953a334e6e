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
O(1) amortized thanks to two precomputed shortcuts:

- ``fav_desc[v]``: the top of every maximal unary non-string chain is
  redirected to the chain's bottom ("favoured") node, so a subtree's
  whiteness is readable from one counter;
- ``fav_panc[u]``: favoured-ancestor links let a blackening charge its
  parent-unit removals only along favoured nodes.

``count[f]`` for a favoured node ``f`` is the number of ``f``'s units (one
per child subtree, plus one for ``f`` itself when it is a whole string) that
still contain white targets.  A journal of touched counters restores state
between strings, so the whole pass over all strings does O(total length)
work on an ``act`` (and O(structure size + total suffix-path length) on an
``ehog``).

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

import time
from array import array
from dataclasses import dataclass
from itertools import chain, islice

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


def precompute_fav(t: OverlapTrie) -> FavStructure:
    """Build :class:`FavStructure` for ``t`` in three linear sweeps.

    A node is *favoured* when it has ≥ 2 children or is a whole string
    (leaves are whole strings, so every chain bottoms out at a favoured
    node).  ``base_count[v]`` = number of children, plus 1 if ``v`` is a
    whole string — the extra unit stands for ``v`` itself as an overlap
    target, and is what lets a string node report "still white" even when
    all its child subtrees are blackened.  So ``v`` is favoured exactly when
    ``base_count[v] != 1`` or it has no child (a childless count of 1 is the
    string itself); in pre-order ``v``'s only possible first child is
    ``v + 1``, so that is ``parent[v + 1] != v``.  A count is at most the
    alphabet size plus one, 257, so the counts are ``array('H')``.
    """
    if t.kind not in (KIND_ACT, KIND_EHOG):
        raise ValueError(f"marking runs on act/ehog structures, got {t.kind!r}")
    n = t.n_nodes
    parent = t.parent
    base = array("H", [0]) * n
    for p in islice(parent, 1, None):
        base[p] += 1
    for v in islice(t.leaf_of, 1, None):
        base[v] += 1

    fav_desc = array("i", [0]) * n
    f = n
    for v, b, p in zip(range(n - 1, -1, -1), reversed(base), chain((-1,), reversed(parent))):
        # p is parent[v + 1] (-1 past the last node): with a count of 1, v is
        # either a childless whole string (favoured) or has one child, v + 1
        if b != 1 or p != v:
            f = v
        fav_desc[v] = f

    # u + 1 opens a chain when u is favoured, and its parent is then its
    # nearest favoured ancestor (or the root); the rest of the chain, down
    # to its favoured bottom, shares that value
    fav_panc = array("i", [0]) * n
    panc = 0
    for u, p, bottom in zip(range(n), islice(parent, 1, None), fav_desc):
        if bottom == u:
            panc = p
        fav_panc[u + 1] = panc

    return FavStructure(
        base_count=base,
        fav_desc=fav_desc,
        fav_panc=fav_panc,
    )


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
