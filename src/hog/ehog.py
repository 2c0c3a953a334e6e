"""Building the extended overlap structure, then the minimal one.

The extended structure keeps the root, every whole string, and every node on
any suffix-link path from a whole-string node — a superset of all pairwise
overlaps that is computable in one linear sweep.  It is both a useful
structure in its own right and the springboard for the minimal one: all
overlap-marking algorithms in this package run much faster on it than on the
full prefix trie, because suffix-link paths are short there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .datasets import StringSet
from .marking import mark_hog_new
from .trie import KIND_EHOG, KIND_HOG, MarkVector, OverlapTrie, build_act, contract


def mark_ehog(act: OverlapTrie, counters: dict[str, int] | None = None) -> MarkVector:
    """Mark the root, whole strings, and all suffix-path nodes of ``act``.

    A marked node's whole suffix path is already marked, so every path
    short-circuits at the first marked node — mandatory, since without it
    the total walk length is quadratic on inputs like k copies of a highly
    periodic string.  With it, each node is marked by at most one hop, so
    the hop count is bounded by (number of strings + number of nodes).
    """
    marks = bytearray(act.n_nodes)
    marks[0] = 1
    sl = act.suffix_link
    leaf_of = act.leaf_of
    hops = 0
    for j in range(1, act.k + 1):
        x = leaf_of[j]
        marks[x] = 1
        v = sl[x]
        hops += 1
        while not marks[v]:
            marks[v] = 1
            v = sl[v]
            hops += 1
    if counters is not None:
        counters["suffix_hops"] = hops
    return marks


@dataclass(frozen=True)
class EhogBuild:
    """Result of :func:`build_ehog`: the extended graph (``trie``), ``new``'s
    marks on it, the minimal graph and accounting; no full trie, as sweeps
    hold every build."""

    trie: OverlapTrie
    marks: MarkVector
    minimal: OverlapTrie
    nodes_act: int
    seconds: float


def build_ehog(ss: StringSet) -> EhogBuild:
    """Build ``ss``'s pipeline: full trie, suffix-path marking, contraction to
    the extended graph, then ``new``'s marks and contraction to the minimal
    graph.  ``seconds`` times the extended stages only."""
    t0 = time.perf_counter()
    act = build_act(ss)
    nodes_act = act.n_nodes
    ehog = contract(act, mark_ehog(act), KIND_EHOG)
    seconds = time.perf_counter() - t0
    del act  # the largest graph; marking needs only the extended one
    marks = mark_hog_new(ehog)
    return EhogBuild(ehog, marks, contract(ehog, marks, KIND_HOG), nodes_act, seconds)
