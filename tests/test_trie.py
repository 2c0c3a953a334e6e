"""Full prefix trie, contraction, and the structural audit."""

import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import mark_hog_oracle
from hog.bench import measure_peak_memory
from hog.datasets import StringSet, generate_random, normalize
from hog.ehog import build_ehog, mark_ehog
from hog.marking import mark_hog_new
import hog.trie
import hog.verify
from hog.columns import CHUNK, LCP_WIDTH, gather, iota, lcp, misses, neighbour_lcps
from hog.trie import (
    COLUMNS,
    KIND_ACT,
    KIND_EHOG,
    KIND_HOG,
    build_act,
    build_act_unchecked,
    contract,
    contract_unchecked,
    leaf_intervals,
    to_text,
    verify_structure,
)
from hog.verify import FAMILIES, FIXED, _fibonacci_word, verify_instance

FIG1_ACT_STRINGS = {
    b"", b"a", b"aa", b"aab", b"aaba", b"aabaa",
    b"aad", b"aadb", b"aadbd",
    b"d", b"db", b"dbd", b"dbda", b"dbdaa",
}

#: every per-node name of a trie: the stored columns, then the derived ones
NAMES = COLUMNS + ("first_child", "next_sibling", "edge_byte", "string_of")

small_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=8).map(str.encode),
    min_size=1,
    max_size=8,
)


def node_strings(t):
    return {t.node_string(v) for v in range(t.n_nodes)}


# -- full trie ----------------------------------------------------------------

def test_act_fig1_node_set():
    act = build_act(normalize([b"aabaa", b"aadbd", b"dbdaa"]))
    assert act.n_nodes == 14
    assert node_strings(act) == FIG1_ACT_STRINGS
    assert verify_structure(act) == []


def test_act_single_string():
    act = build_act(normalize([b"a"]))
    assert act.n_nodes == 2
    assert act.kind == KIND_ACT
    assert verify_structure(act) == []


def test_act_rejects_empty_string_set():
    empty = StringSet(strings=(), orig_to_sorted=(0,))
    with pytest.raises(ValueError):
        build_act(empty)


def test_act_shared_prefixes_are_merged():
    act = build_act(normalize([b"ab", b"abc"]))
    # e, a, ab, abc
    assert act.n_nodes == 4


def test_find_node_and_path_strings():
    act = build_act(normalize([b"ab", b"b"]))
    assert [act.node_string(v) for v in range(act.n_nodes)] == [b"", b"a", b"ab", b"b"]


def test_leaf_intervals_cover_whole_string_nodes():
    ss = normalize([b"aabaa", b"aadbd", b"dbdaa"])
    act = build_act(ss)
    for j in range(1, ss.k + 1):
        v = act.leaf_of[j]
        assert act.start[v] <= j <= act.end[v]
        assert act.node_string(v) == ss.string(j)
    assert act.start[0] == 1 and act.end[0] == ss.k


def test_leaf_intervals_rejects_childless_non_string_node():
    ss = normalize([b"ab"])
    act = build_act(ss)
    names = [act.node_string(u) for u in range(act.n_nodes)]
    act.leaf_of[1] = names.index(b"a")  # now the leaf "ab" covers no string
    with pytest.raises(ValueError, match="no whole-string descendant"):
        leaf_intervals(act)


@pytest.mark.parametrize("v", [-1, 3, 99])
def test_leaf_intervals_rejects_a_leaf_map_entry_out_of_range(v):
    # verify_structure catches ValueError only, so no IndexError may escape
    act = build_act(normalize([b"ab"]))
    act.leaf_of[1] = v
    with pytest.raises(ValueError, match="out of range"):
        leaf_intervals(act)


@given(small_sets)
@settings(max_examples=150, deadline=None)
def test_act_size_bound_and_audit(raw):
    ss = normalize(raw)
    act = build_act(ss)
    assert act.n_nodes <= ss.n + 1  # distinct prefixes + root
    assert verify_structure(act) == []
    assert node_strings(act) == {p[:i] for p in ss.strings for i in range(len(p) + 1)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_act_families_audit_and_mark(family):
    ss = normalize(FAMILIES[family])
    act = build_act(ss)
    assert verify_structure(act) == []  # includes the interval recomputation
    assert node_strings(act) == {p[:i] for p in ss.strings for i in range(len(p) + 1)}
    assert act.suffix_link == bfs_suffix_links(act)
    ext = contract(act, mark_ehog(act), KIND_EHOG)
    assert verify_structure(ext) == []
    assert mark_hog_new(ext) == mark_hog_oracle(ext)


def test_suffix_links_point_to_longest_proper_suffix():
    act = build_act(normalize([b"abab", b"bab"]))
    strings = node_strings(act)
    for v in range(1, act.n_nodes):
        s = act.node_string(v)
        want = next(s[i:] for i in range(1, len(s) + 1) if s[i:] in strings)
        assert act.node_string(act.suffix_link[v]) == want


# -- suffix links against the breadth-first construction ----------------------

def bfs_suffix_links(t):
    """Reference: Aho–Corasick's breadth-first fill, every parent's link
    final before its children's chase."""
    first_child, next_sibling, edge_byte = t.first_child, t.next_sibling, t.edge_byte
    suffix_link = array("i", bytes(4 * t.n_nodes))
    queue = [0]
    for u in queue:
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
                        break
                    w = suffix_link[w]
            c = next_sibling[c]
    return suffix_link


@st.composite
def sampled_reads(draw):
    """Long, heavily overlapping reads of a short random genome, with
    duplicates and reads that are prefixes of other reads."""
    alphabet = draw(st.sampled_from(["ab", "acgt"]))
    genome = draw(st.text(alphabet=alphabet, min_size=2, max_size=150)).encode()
    length = draw(st.integers(1, len(genome)))
    starts = st.integers(0, len(genome) - length)
    reads = [genome[p : p + length] for p in draw(st.lists(starts, min_size=1, max_size=25))]
    reads += draw(st.lists(st.sampled_from(reads), max_size=3))
    for r in reads[: draw(st.integers(0, 4))]:
        reads.append(r[: draw(st.integers(1, len(r)))])
    return reads


full_byte_sets = st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=12)


@st.composite
def equal_length_acgt_sets(draw):
    """Random DNA of one length, the benchmark's shape: branching nodes
    everywhere, so most links come from sibling walks and deferrals."""
    length = draw(st.integers(1, 12))
    return draw(st.lists(st.text(alphabet="ACGT", min_size=length, max_size=length)
                         .map(str.encode), min_size=1, max_size=40))


@st.composite
def self_overlapping_sets(draw):
    """Periodic, Fibonacci and unary strings, cut at random offsets: long
    self-overlaps, whose deep links wait for other deep links."""
    unit = draw(st.sampled_from(["a", "ab", "aab", "abaab", "fib"]))
    text = (_fibonacci_word(300) if unit == "fib" else unit.encode() * 300)
    cuts = st.tuples(st.integers(0, 12), st.integers(1, 150))
    return [text[a : a + m] for a, m in draw(st.lists(cuts, min_size=1, max_size=12))]


#: long strings over all 256 bytes: rows of 257 entries
wide_sets = st.lists(st.binary(min_size=20, max_size=200), min_size=1, max_size=5)


@st.composite
def run_to_the_last_id(draw):
    """``b"ab" + w`` links down the chain of ``b"b" + w``, the last string,
    whose last node is the last id."""
    w = draw(st.binary(min_size=1, max_size=40))
    return [b"ab" + w, b"b" + w] + draw(st.lists(st.binary(max_size=3).map(b"a".__add__), max_size=3))


@st.composite
def mostly_shallow_sets(draw):
    """Many short strings and one to three long ones: the long tails run
    deep, but the rows that fit the budget stop above many short strings'
    links."""
    short = st.text(alphabet="ACGT", min_size=2, max_size=6).map(str.encode)
    long = st.text(alphabet="ab", min_size=40, max_size=150).map(str.encode)
    return draw(st.lists(short, min_size=20, max_size=60)) + draw(st.lists(long, min_size=1, max_size=3))


@given(
    sampled_reads() | full_byte_sets | equal_length_acgt_sets() | self_overlapping_sets()
    | wide_sets | run_to_the_last_id() | mostly_shallow_sets()
)
@settings(max_examples=400, deadline=None)
def test_suffix_links_match_breadth_first(raw):
    ss = normalize(raw)
    act = build_act(ss)
    want = bfs_suffix_links(act)
    assert act.suffix_link == want
    # either way of filling the links, whichever build_act chose
    for by_rows in (True, False):
        t = build_act_unchecked(ss, by_rows)
        for c in COLUMNS:
            assert getattr(t, c) == getattr(act, c), (by_rows, c)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_suffix_link_ways_agree_on_families(family):
    ss = normalize(FAMILIES[family])
    by_rows = build_act_unchecked(ss, True)
    by_chase = build_act_unchecked(ss, False)
    for c in COLUMNS:
        assert getattr(by_rows, c) == getattr(by_chase, c), c
    assert by_rows.suffix_link == bfs_suffix_links(by_rows)


def routes_taken(monkeypatch, ss):
    """How ``build_act`` filled ``ss``'s suffix links: ``("rows", depth of the
    deepest rows)`` or ``("chase",)``."""
    taken = []
    rows, chase = hog.trie._links_by_rows, hog.trie._links_by_chase
    monkeypatch.setattr(hog.trie, "_links_by_rows", lambda *a: taken.append(("rows", a[4])) or rows(*a))
    monkeypatch.setattr(hog.trie, "_links_by_chase", lambda *a: taken.append(("chase",)) or chase(*a))
    act = build_act(ss)
    assert act.suffix_link == bfs_suffix_links(act)
    return taken


def largest_lcp(ss):
    """The depth of the deepest branching node: the largest lcp of sorted
    neighbours."""
    return max(map(lcp, ss.strings, (b"",) + ss.strings))


def row_plan(ss):
    """The rows ``build_act`` may make, from the full trie: the deepest depth,
    up to the largest lcp, whose nodes' rows (``8 * (σ + 13)`` bytes each,
    and 40 a string) fit in ``_ROWS_MAX_BYTES_PER_NODE`` bytes per node, and
    the share of links expected deeper: the nodes one deeper among all
    strings of that length."""
    act = build_act(ss)
    branched = largest_lcp(ss)
    sigma = len(set(b"".join(ss.strings)))
    budget = hog.trie._ROWS_MAX_BYTES_PER_NODE * act.n_nodes - 40 * ss.k
    top = max(d for d in range(branched + 1)
              if d == 0 or sum(e <= d for e in act.depth) * 8 * (sigma + 13) <= budget)
    return top, Fraction(act.depth.count(top + 1), sigma ** (top + 1))


def test_build_act_takes_the_chase_where_no_string_runs_past_the_branching(monkeypatch):
    # 10-byte strings and a largest lcp of 9: no node below the deepest
    # branching node has a child, so runs would have next to nothing to fill
    ss = generate_random(2_000, 20_000, b"ACGT", 1)
    assert largest_lcp(ss) + 1 >= 10
    assert routes_taken(monkeypatch, ss) == [("chase",)]


def test_build_act_takes_rows_where_few_links_run_deeper(monkeypatch):
    # 60-byte random DNA: rows to depth 6, short of the largest lcp (9), and
    # a link deeper than them for about 1 node in 40
    ss = generate_random(400, 24_000, b"ACGT", 7)
    top, share = row_plan(ss)
    assert top < largest_lcp(ss)
    assert share <= hog.trie._ROWS_MAX_DEEP_SHARE
    assert routes_taken(monkeypatch, ss) == [("rows", top)]
    # the share is the limit: at the expected share rows, just under it the
    # chase
    monkeypatch.setattr(hog.trie, "_ROWS_MAX_DEEP_SHARE", share)
    assert routes_taken(monkeypatch, ss) == [("rows", top)]
    monkeypatch.setattr(hog.trie, "_ROWS_MAX_DEEP_SHARE", share * Fraction(999, 1000))
    assert routes_taken(monkeypatch, ss) == [("chase",)]


def test_build_act_takes_rows_down_to_the_largest_lcp(monkeypatch):
    # 100-byte random DNA, the benchmark's long shape: rows for about 5% of
    # the nodes reach the largest lcp (8), and a link deeper than them for
    # about 1 node in 200
    ss = generate_random(400, 40_000, b"ACGT", 7)
    top, share = row_plan(ss)
    assert top == largest_lcp(ss)
    assert share <= hog.trie._ROWS_MAX_DEEP_SHARE
    assert routes_taken(monkeypatch, ss) == [("rows", top)]
    # random strings do not repeat, so the share decides
    monkeypatch.setattr(hog.trie, "_ROWS_MAX_DEEP_SHARE", 0)
    assert routes_taken(monkeypatch, ss) == [("chase",)]
    # a smaller budget makes shallower rows
    monkeypatch.setattr(hog.trie, "_ROWS_MAX_DEEP_SHARE", 1)
    monkeypatch.setattr(hog.trie, "_ROWS_MAX_BYTES_PER_NODE", 2)
    shallower = row_plan(ss)[0]
    assert shallower < top
    assert routes_taken(monkeypatch, ss) == [("rows", shallower)]


def test_build_act_takes_rows_deep_over_all_256_bytes(monkeypatch):
    # a shared prefix of 150 bytes: rows down to depth 129 fit the budget,
    # and 256 ** 130 is past the float range
    rng = random.Random(3)
    prefix = bytes(rng.randrange(256) for _ in range(150))
    raw = [prefix + bytes(rng.randrange(256) for _ in range(20_000)) for _ in range(2)]
    ss = normalize(raw)
    top, share = row_plan(ss)
    assert top == 129 and share < 1e-300
    assert routes_taken(monkeypatch, ss) == [("rows", top)]
    assert build_act(ss).suffix_link == build_act_unchecked(ss, False).suffix_link


def test_verify_reports_suffix_link_ways_that_differ(monkeypatch):
    # the rows way's trie is the one verify audits and marks on, so the
    # chase's is the one skewed: the difference is then the only problem
    def skewed(ss, by_rows):
        t = build_act_unchecked(ss, by_rows)
        if not by_rows:
            t.suffix_link[-1] = 0
        return t

    monkeypatch.setattr(hog.verify, "build_act_unchecked", skewed)
    problems = verify_instance(normalize([b"abab", b"bab"]))
    assert problems == [
        ("structure", "act: the two ways of filling suffix links differ in suffix_link")
    ]


def test_build_act_takes_the_chase_where_many_links_run_deeper(monkeypatch):
    # 3,000 short strings and two long ones: the long tails run deep, but
    # rows fit the budget only to a depth whose links the short strings
    # overrun
    rng = random.Random(2)
    raw = [bytes(rng.choice(b"ACGT") for _ in range(rng.randint(3, 8))) for _ in range(3_000)]
    raw += [bytes(rng.choice(b"ab") for _ in range(500)) for _ in range(2)]
    ss = normalize(raw)
    assert row_plan(ss)[1] > hog.trie._ROWS_MAX_DEEP_SHARE
    assert routes_taken(monkeypatch, ss) == [("chase",)]


#: the periodic strings of CI's pinned full trie (14,500 nodes)
PERIODIC = [b"ab" * 3000, b"ba" * 2000, b"aab" * 1500]


@pytest.mark.parametrize("raw", [[b"ab" * 5_000], PERIODIC], ids=["ab", "three"])
def test_build_act_takes_rows_on_periodic_strings(monkeypatch, raw):
    # the rows reach the largest lcp and the strings repeat, so every deeper
    # link lies on a long first-child chain, which the runs copy by slices
    # (the expected share of deep links, 0.5 for one "ab" string, assumes
    # random text)
    ss = normalize(raw)
    top, share = row_plan(ss)
    assert top == largest_lcp(ss)
    assert share > hog.trie._ROWS_MAX_DEEP_SHARE
    assert routes_taken(monkeypatch, ss) == [("rows", top)]
    act, by_chase = build_act(ss), build_act_unchecked(ss, False)
    for c in COLUMNS:
        assert getattr(act, c) == getattr(by_chase, c), c


@pytest.mark.parametrize("k, n", [(1, 200_000), (10, 100_000)])
def test_build_act_takes_the_chase_on_long_random_strings(monkeypatch, k, n):
    # the rows reach the largest lcp, but random text does not repeat: the
    # runs would stop at about one node in four (k = 1), and rows took about
    # 3 times as long as the chase
    ss = generate_random(k, n, b"ACGT", 1)
    top, share = row_plan(ss)
    assert top == largest_lcp(ss)
    assert share > hog.trie._ROWS_MAX_DEEP_SHARE
    assert routes_taken(monkeypatch, ss) == [("chase",)]


@pytest.mark.parametrize("s, repeats", [
    (b"ab" * 5, True),
    (b"ab" * 5 + b"a", True),
    (b"aab" * 3, True),
    (b"abcab", True),  # period 3, half of 5 rounded up
    (b"abcdab", False),  # period 4
    (b"abcabd", False),
    (b"ab" * 5 + b"b", False),
    (_fibonacci_word(1_000), False),
])
def test_repeats(s, repeats):
    assert hog.trie._repeats(s) is repeats
    # the same as asking for the smallest period
    period = next(p for p in range(1, len(s) + 1) if s[p:] == s[:-p])
    assert (period <= -(-len(s) // 2)) is repeats


def chase_line_events(ss):
    """The full trie of ``ss`` by the chase, and the Python lines run inside
    ``_links_by_chase`` to fill its suffix links."""
    lines = 0

    def in_chase(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return in_chase

    def on_call(frame, event, arg):
        return in_chase if frame.f_code.co_name == "_links_by_chase" else None

    sys.settrace(on_call)
    try:
        act = build_act_unchecked(ss, False)
    finally:
        sys.settrace(None)
    return act, lines


@pytest.mark.parametrize("raw", [[b"ab" * 5_000], [b"a" * 10_000]], ids=["ab", "unary"])
def test_chase_is_linear_on_one_periodic_string(raw):
    # each link is the first child of the parent's link, so each node takes
    # about 12 lines; a chase that climbed from the root would take
    # thousands per node here
    act, lines = chase_line_events(normalize(raw))
    assert act.n_nodes == 10_001
    assert act.suffix_link == bfs_suffix_links(act)
    assert lines <= 20 * act.n_nodes


def test_chase_reads_the_root_children_from_a_table(monkeypatch):
    # 20-byte strings over all 256 bytes: most links are the root or one of
    # its children, found in one step (about 16 lines a node) where a walk
    # of the root's 256 children took over 200
    ss = generate_random(300, 6_000, bytes(range(256)), 1)
    assert routes_taken(monkeypatch, ss) == [("chase",)]
    act, lines = chase_line_events(ss)
    assert act.suffix_link == bfs_suffix_links(act)
    assert lines <= 40 * act.n_nodes


def test_suffix_links_where_a_string_prefixes_the_next():
    # "ACG" and "CG" each end at a node that the next string extends, so
    # that node is a string's last node and has a child
    raw = [b"ACG", b"ACGTA", b"ACGTT", b"CG", b"CGTAC", b"GTA", b"TAC"]
    act = build_act(normalize(raw))
    assert act.suffix_link == bfs_suffix_links(act)
    assert not verify_structure(act)
    assert_insertion_matches_naive(raw)


def large_read_set():
    """Reads of one genome, with halves of five reads and three duplicates:
    an act of over 20,000 nodes."""
    rng = random.Random(5)
    genome = bytes(rng.choice(b"ACGT") for _ in range(3000))
    reads = []
    for _ in range(70):
        p = rng.randrange(len(genome) - 400)
        reads.append(genome[p : p + rng.randrange(300, 400)])
    return reads + [r[: len(r) // 2] for r in reads[:5]] + reads[:3]


def test_large_read_set_suffix_links_match_breadth_first():
    # verify_structure's maximality audit stops at 4,000 nodes, so at this
    # size only the reference checks the links
    act = build_act(normalize(large_read_set()))
    assert act.n_nodes >= 20_000
    assert act.suffix_link == bfs_suffix_links(act)


def test_random_dna_suffix_links_match_breadth_first():
    # random text has few long runs, so this reaches the sibling walks and
    # deferral buckets at scale where the read set reaches the run copies
    ss = generate_random(250, 25_000, b"ACGT", 3)
    act = build_act(ss)
    assert act.n_nodes >= 20_000
    assert act.suffix_link == bfs_suffix_links(act)
    assert_insertion_matches_naive(ss.strings)


def test_build_act_traced_peak_per_node():
    # 100-byte strings: the links are filled by rows, about 6 bytes per
    # node, beside the output columns; the chase would hold next_sibling (4
    # bytes per node), kid (2) and labels (1); the returned trie holds 20
    ss = generate_random(400, 40_000, b"ACGT", 7)
    build_act(ss)  # the first call pays one-time allocations
    act, peak = measure_peak_memory(lambda: build_act(ss))
    assert act.n_nodes == 38_601
    assert peak / act.n_nodes <= 30


def test_build_act_traced_peak_per_node_on_one_long_string():
    # no deferral bucket is made for a depth that gets no node, and the path
    # to the previous string is kept as runs, not one id per node
    ss = generate_random(1, 200_000, b"ACGT", 1)
    build_act(ss)
    act, peak = measure_peak_memory(lambda: build_act(ss))
    assert act.n_nodes == 200_001
    assert peak / act.n_nodes <= 30


def test_build_act_traced_peak_per_node_by_the_chase():
    # dna-short's shape, 20,000 strings of 10 bytes, whose links come from
    # the chase: pass 2 joins the tails of at most TAIL_CHUNK nodes at a
    # time (29.6 bytes per node when it wrote three slices per string)
    ss = generate_random(20_000, 200_000, b"ACGT", 1)
    build_act(ss)
    act, peak = measure_peak_memory(lambda: build_act(ss))
    assert act.n_nodes == 73_799
    assert peak / act.n_nodes <= 32


def test_audit_traced_peak_per_node():
    # one pass holds a 4-byte last child and a flag byte per node, then the
    # recomputed intervals take 8; a Python list of children per node took
    # 138 bytes per node
    act = build_act(generate_random(2_000, 200_000, b"ACGT", 1))
    verify_structure(act)
    problems, peak = measure_peak_memory(lambda: verify_structure(act))
    assert problems == []
    assert act.n_nodes == 190_721
    assert peak / act.n_nodes <= 20


def test_contract_extended_traced_peak_per_kept_node():
    # the extended step on dna-short's shape takes the kept nodes one by one:
    # the gathers and the kept ids are packed a chunk at a time
    ss = generate_random(20_000, 200_000, b"ACGT", 1)
    act = build_act(ss)
    marks = mark_ehog(act)
    contract(act, marks, KIND_EHOG)
    ext, peak = measure_peak_memory(lambda: contract(act, marks, KIND_EHOG))
    assert ext.n_nodes == 39_598
    assert peak / ext.n_nodes <= 45


# -- the string map -------------------------------------------------------------

def assert_string_map(t):
    """``leaf_of`` names each string's node, in ascending ids, first in its
    interval; ``string_of`` is its inverse, and ``leaf_of[start[v]] == v``
    tells the nodes that spell a string."""
    ss = t.strings
    leaf_of, start, string_of = t.leaf_of, t.start, t.string_of
    assert len(leaf_of) == ss.k + 1 and leaf_of[0] == -1
    assert all(start[leaf_of[j]] == j for j in range(1, ss.k + 1))
    assert all(a < b for a, b in zip(leaf_of[1:], leaf_of[2:]))
    index = {s: j for j, s in enumerate(ss.strings, 1)}
    assert list(string_of) == [index.get(t.node_string(v), -1) for v in range(t.n_nodes)]
    assert [leaf_of[start[v]] == v for v in range(t.n_nodes)] == [j != -1 for j in string_of]


def assert_string_map_on_all_graphs(raw):
    ss = normalize(raw)
    b = build_ehog(ss)
    for t in (build_act(ss), b.trie, b.minimal):
        assert_string_map(t)


@given(small_sets | sampled_reads() | full_byte_sets)
@settings(max_examples=150, deadline=None)
def test_string_map_invariant(raw):
    assert_string_map_on_all_graphs(raw)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_string_map_invariant_on_families(family):
    assert_string_map_on_all_graphs(FAMILIES[family])


# -- the insertion against a dict trie ------------------------------------------

def naive_columns(ss):
    """Reference for build_act's insertion: a dict trie of every prefix,
    numbered by a recursive pre-order walk with children by ascending byte.
    Returns every name in ``NAMES`` but ``suffix_link``."""
    root = {}
    for s in ss.strings:
        node = root
        for b in s:
            node = node.setdefault(b, {})
    index = {s: j for j, s in enumerate(ss.strings, 1)}
    cols = {c: array("i") for c in NAMES if c != "suffix_link"}
    cols["leaf_of"] = array("i", [-1]) * (ss.k + 1)

    def visit(children, x, p):
        v = len(cols["parent"])
        covered = [j for j, s in enumerate(ss.strings, 1) if s.startswith(x)]
        j = index.get(x, -1)
        if j != -1:
            cols["leaf_of"][j] = v
        for c, value in (
            ("parent", p), ("depth", len(x)), ("first_child", -1), ("next_sibling", -1),
            ("edge_byte", x[-1] if x else -1), ("string_of", j),
            ("start", covered[0]), ("end", covered[-1]),
        ):
            cols[c].append(value)
        before = -1
        for b in sorted(children):
            child = visit(children[b], x + bytes([b]), v)
            if before == -1:
                cols["first_child"][v] = child
            else:
                cols["next_sibling"][before] = child
            before = child
        return v

    visit(root, b"", -1)
    return cols


def assert_insertion_matches_naive(raw):
    act = build_act(normalize(raw))
    want = naive_columns(act.strings)
    for c, column in want.items():
        assert getattr(act, c) == column, c


@given(small_sets | sampled_reads() | full_byte_sets)
@settings(max_examples=300, deadline=None)
def test_insertion_matches_naive_trie(raw):
    assert_insertion_matches_naive(raw)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_insertion_matches_naive_trie_on_families(family):
    assert_insertion_matches_naive(FAMILIES[family])


def test_insertion_matches_naive_trie_on_a_large_read_set():
    # past the maximality audit's 4,000 nodes; the halves and duplicates
    # nest, so leaves gain a first child after their string is inserted
    assert_insertion_matches_naive(large_read_set())


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 64])
def test_lcp(m):
    a = bytes(range(m))
    assert lcp(a, a) == m
    assert lcp(a, a + b"x") == lcp(a + b"x", a) == m
    assert lcp(a + b"\x00", a + b"\x01") == m
    assert lcp(a + b"\xff" * 9, a + b"\xfe" * 9) == m
    assert lcp(b"", a) == 0


def lcps_by_pairs(strings):
    return array("i", map(lcp, strings, chain((b"",), strings)))


@st.composite
def neighbour_sets(draw):
    """Sorted distinct strings over all 256 bytes with some of their
    prefixes and extensions: neighbours that agree past ``LCP_WIDTH``
    bytes, or that differ only where one of them has ended."""
    base = draw(st.lists(st.binary(min_size=1, max_size=3 * LCP_WIDTH), min_size=1, max_size=20))
    more = [s[: draw(st.integers(1, len(s)))] for s in base]
    more += [s + draw(st.binary(max_size=2 * LCP_WIDTH)) for s in base]
    return tuple(sorted(set(base + more)))


@given(neighbour_sets())
@settings(max_examples=300, deadline=None)
def test_neighbour_lcps_match_lcp(strings):
    assert neighbour_lcps(strings, array("i", map(len, strings))) == lcps_by_pairs(strings)


@pytest.mark.parametrize(
    "strings",
    [
        (bytes(range(256)),),
        (b"a", b"a\x00", b"a\x00\x00", b"a ", b"a  x", b"a\xff"),
        tuple(bytes(range(i, 256)) for i in range(256)),
        tuple(sorted(bytes(range(m)) for m in range(1, 3 * LCP_WIDTH))),
        # every key agrees on all its bytes, at every chunk's first string
        tuple(b"\x00" * LCP_WIDTH + b"%06d" % i for i in range(3 * CHUNK + 1)),
    ],
    ids=["k=1", "pads", "all-bytes", "prefix-chain", "chunks"],
)
def test_neighbour_lcps_match_lcp_on_fixed_sets(strings):
    assert neighbour_lcps(strings, array("i", map(len, strings))) == lcps_by_pairs(strings)


def test_neighbour_lcps_on_one_long_string_among_short_ones():
    # the keys are cut to LCP_WIDTH bytes, not padded to the longest string:
    # the traced peak is O(k * W); the long string shares 20 bytes with one
    # short string, so that pair is read whole by lcp
    rng = random.Random(1)
    short = set()
    while len(short) < 1000:
        short.add(bytes(rng.choices(b"ACGT", k=rng.randint(1, 30))))
    stem = max(short, key=len)[:20]
    strings = tuple(sorted(short | {stem + bytes(rng.choices(b"ACGT", k=100_000 - 20))}))
    lens = array("i", map(len, strings))
    neighbour_lcps(strings, lens)
    got, peak = measure_peak_memory(lambda: neighbour_lcps(strings, lens))
    assert got == lcps_by_pairs(strings) and max(got) >= 20
    assert peak <= 8 * len(strings) * LCP_WIDTH
    ss = normalize(list(strings))
    by_rows, by_chase = build_act_unchecked(ss, True), build_act_unchecked(ss, False)
    for c in COLUMNS:
        assert getattr(by_rows, c) == getattr(by_chase, c), c


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 65535, 65536, 65537, 200003])
def test_iota_matches_range(n):
    assert iota(n) == array("i", range(n))


def test_iota_writes_the_fourth_byte_plane():
    # past 2**24 ids the highest byte is nonzero: compare a strided sample and
    # the tail, which crosses 2**24, not a second 64 MiB array
    n = 2**24 + 70_001
    ids = iota(n)
    assert len(ids) == n
    assert ids[::9973] == array("i", range(0, n, 9973))
    assert ids[-100_000:] == array("i", range(n - 100_000, n))


@pytest.mark.parametrize("seed", range(20))
def test_misses_finds_each_minus_one_among_near_misses(seed):
    # entries with three or four 0xff bytes next to a -1 entry: an all-ones
    # window that straddles two entries must not count
    rng = random.Random(seed)
    near = [-1, 0, 2**31 - 1, 0x00FFFFFF, 0xFFFF, 0x7FFFFF7F, -1 & 0x7FFFFFFF, 255]
    column = array("i", (rng.choice(near) for _ in range(rng.randint(0, 64))))
    i = rng.randint(0, len(column))
    assert list(misses(column, i)) == [v for v in range(i, len(column)) if column[v] == -1]


@pytest.mark.parametrize("m", [0, 1, 1023, 1024, 1025, 2049])
def test_gather_matches_one_read_per_id(m):
    # itemgetter of one id (m = 1, and the last chunk of 1,025) returns the
    # entry, not a tuple; id -1 reads the extra last entry, as in newid
    rng = random.Random(m)
    column = array("i", (rng.randrange(-1, 5000) for _ in range(3000))) + array("i", [-1])
    ids = array("i", [-1][:m] + [rng.randrange(-1, len(column)) for _ in range(m - 1)])
    assert gather(column, ids) == array("i", map(column.__getitem__, ids))


# -- contraction --------------------------------------------------------------

def test_contract_of_all_marked_is_an_independent_copy():
    ss = normalize([b"aabaa", b"aadbd", b"dbdaa"])
    act = build_act(ss)
    t = contract(act, bytearray(b"\x01") * act.n_nodes, KIND_EHOG)
    assert t.kind == KIND_EHOG
    assert t.strings is act.strings
    assert verify_structure(t) == []
    columns = ("parent", "depth", "suffix_link", "start", "end", "leaf_of")
    assert COLUMNS == columns
    before = {c: array("i", getattr(act, c)) for c in NAMES}
    for c in NAMES:
        assert getattr(t, c) == before[c]
    for c in columns:
        getattr(t, c)[-1] += 1
        assert getattr(act, c) == before[c]
    # a derived name is built afresh on every read
    for c in NAMES[len(columns):]:
        first = getattr(act, c)
        first[-1] += 1
        assert getattr(act, c) == before[c] != first


def test_contract_keeps_only_marked_nodes():
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    assert e.n_nodes == 8
    assert node_strings(e) == {
        b"", b"a", b"aa", b"d", b"dbd", b"aabaa", b"aadbd", b"dbdaa"
    }
    assert verify_structure(e) == []
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    assert h.n_nodes == 6
    assert node_strings(h) == {b"", b"aa", b"dbd", b"aabaa", b"aadbd", b"dbdaa"}
    assert verify_structure(h) == []


def test_contract_requires_root_and_whole_strings_marked():
    e = build_ehog(normalize([b"ab"])).trie
    marks = bytearray(e.n_nodes)
    marks[0] = 1  # whole-string node left unmarked
    with pytest.raises(ValueError):
        contract(e, marks, KIND_HOG)


def test_contracted_siblings_may_share_first_byte():
    # suffixes of neither string survive, so the root's children are the
    # two whole strings and both labels start with 'a'
    e = build_ehog(normalize([b"ab", b"ac"])).trie
    assert node_strings(e) == {b"", b"ab", b"ac"}
    labels = sorted(e.edge_label(c) for c in range(e.n_nodes) if e.parent[c] == 0)
    assert labels == [b"ab", b"ac"]
    assert verify_structure(e) == []


@given(small_sets)
@settings(max_examples=150, deadline=None)
def test_contraction_chain_audits_clean(raw):
    act = build_act(normalize(raw))
    e = contract(act, mark_ehog(act), KIND_EHOG)
    assert verify_structure(e) == []
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    assert verify_structure(h) == []
    # string-set containment along the chain
    assert node_strings(h) <= node_strings(e) <= node_strings(act)


edge_byte_sets = st.lists(
    st.lists(st.sampled_from(b"\x00\x01\xfe\xff"), min_size=1, max_size=10).map(bytes)
    | st.text(alphabet="ab", min_size=1, max_size=10).map(str.encode),
    min_size=1,
    max_size=10,
)


@st.composite
def act_and_marks(draw):
    """A full trie and a mark vector holding the root, every whole string and
    random other nodes; the marks need not be closed under suffix links.
    Half the vectors are mostly marked, so that ``contract`` takes runs."""
    raw = draw(edge_byte_sets)
    # add some proper prefixes so that strings nest
    raw += [s[: draw(st.integers(1, len(s)))] for s in raw[: draw(st.integers(0, 3))]]
    act = build_act(normalize(raw))
    n = act.n_nodes
    if draw(st.booleans()):
        marks = bytearray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        marks = bytearray(b"\x01") * n
        for v in draw(st.lists(st.integers(0, n - 1), max_size=max(1, n // 8))):
            marks[v] = 0
    marks[0] = 1
    for j in range(1, act.k + 1):
        marks[act.leaf_of[j]] = 1
    return act, marks


@given(act_and_marks())
@settings(max_examples=300, deadline=None)
def test_contract_matches_node_string_oracle(case):
    act, marks = case
    ss = act.strings
    assert verify_structure(act) == []
    kept = sorted(act.node_string(v) for v in range(act.n_nodes) if marks[v])
    ids = {x: v for v, x in enumerate(kept)}
    ups = [max((x[:i] for i in range(len(x)) if x[:i] in ids), key=len, default=None)
           for x in kept]
    for by_runs in (True, False):
        t = contract_unchecked(act, marks, KIND_HOG, by_runs)
        # pre-order with label-ordered children is lexicographic order
        assert [t.node_string(v) for v in range(t.n_nodes)] == kept
        first_child, next_sibling, edge_byte = t.first_child, t.next_sibling, t.edge_byte
        string_of = t.string_of
        assert next_sibling[0] == edge_byte[0] == -1
        for v, (x, up) in enumerate(zip(kept, ups)):
            down = [x[i:] for i in range(1, len(x) + 1) if x[i:] in ids]
            covered = [j for j in range(1, ss.k + 1) if ss.string(j).startswith(x)]
            assert t.parent[v] == (ids[up] if x else -1)
            assert t.suffix_link[v] == (ids[down[0]] if x else 0)
            assert t.depth[v] == len(x)
            assert (t.start[v], t.end[v]) == (covered[0], covered[-1])
            assert string_of[v] == (ss.strings.index(x) + 1 if x in ss.strings else -1)
            if x:
                assert edge_byte[v] == x[len(up)]
            # ascending ids = label order
            children = [c for c, y in enumerate(ups) if y == x]
            assert first_child[v] == (children[0] if children else -1)
            for c, after in zip(children, children[1:] + [-1]):
                assert next_sibling[c] == after
        assert list(t.leaf_of) == [-1] + [ids[s] for s in ss.strings]
        assert verify_structure(t) == []


# -- the two ways of taking the kept nodes -------------------------------------

def assert_routes_agree(t, marks, kind=KIND_HOG):
    by_runs = contract_unchecked(t, marks, kind, True)
    one_by_one = contract_unchecked(t, marks, kind, False)
    assert by_runs.kind == one_by_one.kind == kind
    for c in COLUMNS:
        assert getattr(by_runs, c) == getattr(one_by_one, c), c
    return by_runs


def sparse_marks(t, seed, share):
    """Keep the root, every whole string and all but about ``share`` of the
    other nodes."""
    rng = random.Random(seed)
    marks = bytearray(rng.random() >= share for _ in range(t.n_nodes))
    marks[0] = 1
    for j in range(1, t.k + 1):
        marks[t.leaf_of[j]] = 1
    return marks


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_contract_routes_agree_on_families(family):
    act = build_act(normalize(FAMILIES[family]))
    e = assert_routes_agree(act, mark_ehog(act), KIND_EHOG)
    assert_routes_agree(e, mark_hog_new(e))
    for seed, share in ((1, 0.02), (2, 0.2), (3, 0.6)):
        assert_routes_agree(act, sparse_marks(act, seed, share))
        assert_routes_agree(e, sparse_marks(e, seed, share))


def reads_shaped_set():
    """The size of the benchmark's reads workload: 400 reads of 500 bytes
    from a 5,000-byte genome."""
    rng = random.Random(7)
    genome = bytes(rng.choice(b"ACGT") for _ in range(5000))
    return [genome[p : p + 500] for p in (rng.randrange(4501) for _ in range(400))]


def test_contract_routes_agree_on_a_reads_shaped_set():
    # its minimal step drops a handful of nodes
    e = build_ehog(normalize(reads_shaped_set())).trie
    assert 15_000 <= e.n_nodes <= 17_000
    hm = mark_hog_new(e)
    assert 0 < hm.count(0) < e.n_nodes // 100
    assert verify_structure(assert_routes_agree(e, hm)) == []
    assert_routes_agree(e, sparse_marks(e, 4, 0.05))


def assert_matches_node_strings(t, kept, ss):
    """Every column of ``t`` against the sorted node strings ``kept``: the
    parent is the longest kept proper prefix, the suffix link the longest
    kept proper suffix, and the interval the strings that start with it."""
    ids = {x: v for v, x in enumerate(kept)}
    strings = ss.strings
    assert t.n_nodes == len(kept)
    for v, x in enumerate(kept):
        up = next((ids[x[:i]] for i in range(len(x) - 1, -1, -1) if x[:i] in ids), -1)
        down = next((ids[x[i:]] for i in range(1, len(x) + 1) if x[i:] in ids), 0)
        lo = bisect_left(strings, x)
        hi = lo
        while hi < len(strings) and strings[hi].startswith(x):
            hi += 1
        assert (t.parent[v], t.depth[v], t.suffix_link[v]) == (up, len(x), down), v
        assert (t.start[v], t.end[v]) == (lo + 1, hi), v
    assert list(t.leaf_of) == [-1] + [ids[s] for s in strings]


def test_contract_ways_agree_across_gather_chunks():
    # 6,000 extended nodes: the kept counts cross several chunks of gather
    act = build_act(generate_random(3000, 30_000, b"ACGT", 1))
    em = mark_ehog(act)
    e = contract_unchecked(act, em, KIND_EHOG, False)
    assert e.n_nodes > 5 * CHUNK
    kept = sorted(act.node_string(v) for v in range(act.n_nodes) if em[v])
    assert_matches_node_strings(e, kept, act.strings)
    for seed, share in enumerate((0.0, 0.1, 0.5, 0.9)):
        marks = sparse_marks(e, seed, share)
        kept = sorted(e.node_string(v) for v in range(e.n_nodes) if marks[v])
        assert len(kept) > 2 * CHUNK
        assert_matches_node_strings(assert_routes_agree(e, marks), kept, e.strings)


def test_contract_is_linear_when_a_wide_node_gains_many_children():
    # full-bytes: dropping the depth-1 nodes hands their children to the root
    e = build_ehog(normalize(FAMILIES["full-bytes"])).trie
    marks = bytearray(d != 1 or j != -1 for d, j in zip(e.depth, e.string_of))
    dropped = marks.count(0)
    assert dropped >= 250
    h = assert_routes_agree(e, marks)
    assert verify_structure(h) == []
    assert h.parent.count(0) > 250
    # Python lines run: about 9 per node here either way, while a walk of
    # the root's 257-child list per dropped node would take over 40 per node
    for by_runs in (True, False):
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return tracer

        sys.settrace(tracer)
        try:
            contract_unchecked(e, marks, KIND_HOG, by_runs)
        finally:
            sys.settrace(None)
        assert lines < 20 * e.n_nodes, by_runs


def test_contract_route_follows_the_drop_count(monkeypatch):
    e = build_ehog(normalize(FAMILIES["full-bytes"])).trie
    routes = []
    monkeypatch.setattr(
        hog.trie, "contract_unchecked",
        lambda t, marks, kind, by_runs: routes.append((by_runs, marks.count(0))),
    )
    n = e.n_nodes
    droppable = [v for v, j in enumerate(e.string_of) if v and j == -1]
    limit = int(hog.trie._RUNS_MAX_DROP_SHARE * n)
    assert limit < len(droppable)
    for drops in (0, 1, limit, limit + 1, len(droppable)):
        marks = bytearray(b"\x01") * n
        for v in droppable[:drops]:
            marks[v] = 0
        contract(e, marks, KIND_HOG)
    # with no drop, contract copies the columns and calls no body
    assert routes == [
        (True, 1), (True, limit), (False, limit + 1), (False, len(droppable)),
    ]


@pytest.mark.parametrize("share", [0.0, 0.02, 0.6])
def test_contract_rejects_marks_other_than_0_and_1(share):
    # no drop (the copy), a few drops (by runs) and most dropped (one by
    # one): each way would read a 2 its own way, so contract rejects it
    e = build_ehog(normalize(FAMILIES["full-bytes"])).trie
    marks = sparse_marks(e, 6, share)
    drops = marks.count(0)
    assert (drops == 0) == (share == 0.0)
    assert (drops <= hog.trie._RUNS_MAX_DROP_SHARE * e.n_nodes) == (share < 0.3)
    bad = max(v for v in range(e.n_nodes) if marks[v])
    marks[bad] = 2
    with pytest.raises(ValueError, match=f"node {bad} has mark 2"):
        contract(e, marks, KIND_HOG)


def test_contract_reports_lowest_unmarked_whole_string():
    act = build_act(normalize([b"a", b"ab", b"b"]))
    marks = bytearray(act.n_nodes)
    marks[0] = marks[act.leaf_of[1]] = 1
    with pytest.raises(ValueError, match="whole string 2 is"):
        contract(act, marks, KIND_HOG)
    marks[0] = 0
    with pytest.raises(ValueError, match="root is not marked"):
        contract(act, marks, KIND_HOG)


# -- the audit itself must catch planted defects ------------------------------

def fig1_act():
    return build_act(normalize([b"aabaa", b"aadbd", b"dbdaa"]))


def test_audit_catches_bad_suffix_link():
    act = fig1_act()
    v = [act.node_string(u) for u in range(act.n_nodes)].index(b"aabaa")
    act.suffix_link[v] = 0  # true target is the "aa" node
    assert any("suffix" in msg for msg in verify_structure(act))


def test_audit_catches_bad_interval():
    act = fig1_act()
    v = [act.node_string(u) for u in range(act.n_nodes)].index(b"d")
    act.start[v], act.end[v] = 1, 3  # claims to cover strings it does not
    assert verify_structure(act) != []


def test_audit_catches_bad_parent_depth():
    act = fig1_act()
    v = [act.node_string(u) for u in range(act.n_nodes)].index(b"aab")
    act.depth[v] = 7
    assert verify_structure(act) != []


@pytest.mark.parametrize("column, v, value", [
    ("parent", 5, 99),  # the interval recomputation would fold into node 99
    ("leaf_of", 1, 99),  # the string map and the intervals would read node 99
    ("start", 4, 0),  # the label checks would read string 0
])
def test_audit_reports_out_of_range_values(column, v, value):
    act = fig1_act()
    getattr(act, column)[v] = value
    assert verify_structure(act) != []


def test_audit_catches_wrong_leaf_map():
    act = fig1_act()
    act.leaf_of[1], act.leaf_of[2] = act.leaf_of[2], act.leaf_of[1]
    assert any("starts its interval" in msg for msg in verify_structure(act))


def test_audit_catches_a_leaf_map_entry_at_an_internal_node():
    act = fig1_act()
    names = [act.node_string(u) for u in range(act.n_nodes)]
    v = act.leaf_of[1] = names.index(b"aaba")  # its interval starts at string 1 too
    problems = verify_structure(act)
    assert f"string 1: node {v} spells a different string" in problems
    assert f"node {names.index(b'aabaa')}: leaf without a whole string" in problems


def test_audit_catches_a_node_named_twice():
    act = fig1_act()
    names = [act.node_string(u) for u in range(act.n_nodes)]
    act.leaf_of[2] = act.leaf_of[1]  # the leaf "aadbd" is left without a string
    problems = verify_structure(act)
    assert any("named by an earlier string" in msg for msg in problems)
    assert f"node {names.index(b'aadbd')}: leaf without a whole string" in problems


@pytest.mark.parametrize("column, v, value, msg", [
    ("parent", 5, 7, "node 5: parent 7 does not precede it"),
    ("leaf_of", 2, 99, "string 2: leaf_of names node 99, out of range"),
])
def test_audit_reports_a_fault_once(column, v, value, msg):
    # the interval recomputation would meet the same fault again
    act = fig1_act()
    getattr(act, column)[v] = value
    assert verify_structure(act).count(msg) == 1


def audited_graphs():
    """The full, extended and minimal graphs of every fixed case and family."""
    for raw in FIXED + list(FAMILIES.values()):
        ss = normalize(raw)
        b = build_ehog(ss)
        yield from (build_act(ss), b.trie, b.minimal)


def test_audit_of_random_corruptions_neither_raises_nor_repeats():
    graphs = list(audited_graphs())
    rng = random.Random(27)
    for _ in range(1_500):
        t = rng.choice(graphs)
        t = replace(t, **{c: getattr(t, c)[:] for c in COLUMNS})
        for _ in range(rng.choice((1, 1, 2, 3))):
            column = getattr(t, rng.choice(COLUMNS))
            v = rng.randrange(len(column))
            column[v] = rng.choice((
                rng.randint(-2, t.n_nodes + 2),  # near the ids
                column[rng.randrange(len(column))],  # another entry's value
                max(-2**31, min(2**31 - 1, column[v] + rng.choice((-1, 1)))),
                rng.choice((-2**31, 2**31 - 1, 0, -1, t.k, t.k + 1)),
            ))
        problems = verify_structure(t)
        assert len(set(problems)) == len(problems), problems


# -- serialization ------------------------------------------------------------

def test_to_text_golden():
    e = build_ehog(normalize([b"ab", b"b"])).trie
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    assert to_text(h) == (
        "# kind=hog nodes=3 k=2 n=3\n"
        "# id\tparent\tdepth\tlabel\tsuffix_link\tstart\tend\tstring_of\n"
        "0\t-1\t0\t''\t0\t1\t2\t-1\n"
        "1\t0\t2\t'ab'\t2\t1\t1\t1\n"
        "2\t0\t1\t'b'\t0\t2\t2\t2\n"
    )


def test_to_text_is_deterministic():
    a = build_ehog(normalize([b"abab", b"bab", b"ba"])).trie
    b = build_ehog(normalize([b"abab", b"bab", b"ba"])).trie
    assert to_text(a) == to_text(b)
