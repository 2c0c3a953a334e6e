"""The lazy-blackening marker: correctness, counters, and state restore."""

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import mark_hog_oracle
from hog.bench import measure_peak_memory
from hog.datasets import generate_random, normalize
from hog.ehog import build_ehog, mark_ehog
from hog.marking import MarkTimeout, mark_hog_new, precompute_fav
from hog.trie import KIND_EHOG, KIND_HOG, build_act, contract
from hog.verify import FAMILIES
from test_trie import full_byte_sets, reads_shaped_set, sampled_reads

string_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=10).map(str.encode),
    min_size=1,
    max_size=10,
)


def marked_strings(t, marks):
    return {t.node_string(v) for v in range(t.n_nodes) if marks[v]}


# -- marked sets on pinned instances -------------------------------------------

def test_fig1_marked_set():
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    marks = mark_hog_new(e)
    assert marked_strings(e, marks) == {
        b"", b"aa", b"dbd", b"aabaa", b"aadbd", b"dbdaa"
    }


def test_self_border_of_a_single_string():
    # ov(aa, aa) = "a": the unary chain through "a" must still be markable
    e = build_ehog(normalize([b"aa"])).trie
    assert marked_strings(e, mark_hog_new(e)) == {b"", b"a", b"aa"}
    e = build_ehog(normalize([b"aaa"])).trie
    assert marked_strings(e, mark_hog_new(e)) == {b"", b"aa", b"aaa"}


def test_every_node_marked_when_everything_overlaps():
    e = build_ehog(normalize([b"ab", b"ba"])).trie
    marks = mark_hog_new(e)
    assert marked_strings(e, marks) == {b"", b"a", b"b", b"ab", b"ba"}
    assert sum(marks) == e.n_nodes


def test_no_overlaps_marks_only_root_and_strings():
    e = build_ehog(normalize([b"ab", b"cd"])).trie
    assert marked_strings(e, mark_hog_new(e)) == {b"", b"ab", b"cd"}


# -- precomputed shortcut structure -------------------------------------------

def test_fav_structure_on_fig1():
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    fav = precompute_fav(e)
    by = {e.node_string(v): v for v in range(e.n_nodes)}

    base = {s: fav.base_count[v] for s, v in by.items()}
    assert base == {
        b"": 2, b"a": 1, b"aa": 2, b"d": 1, b"dbd": 1,
        b"aabaa": 1, b"aadbd": 1, b"dbdaa": 1,
    }
    # unary non-string chains point at their bottom
    assert fav.fav_desc[by[b"a"]] == by[b"aa"]
    assert fav.fav_desc[by[b"d"]] == by[b"dbdaa"]
    assert fav.fav_desc[by[b"dbd"]] == by[b"dbdaa"]
    assert fav.fav_desc[by[b"aa"]] == by[b"aa"]
    # favoured-ancestor links skip unfavoured interior nodes
    assert fav.fav_panc[by[b"aabaa"]] == by[b"aa"]
    assert fav.fav_panc[by[b"dbdaa"]] == 0
    assert fav.fav_panc[by[b"aa"]] == 0


def favoured_nodes(t):
    """Per node, whether it has ≥ 2 children or is a whole string, and the
    child counts, both from ``parent`` and ``string_of`` alone."""
    n = t.n_nodes
    children = [0] * n
    for v in range(1, n):
        children[t.parent[v]] += 1
    whole = [j != -1 for j in t.string_of]
    return [children[v] >= 2 or whole[v] for v in range(n)], children, whole


def assert_fav_matches_naive(t):
    """``precompute_fav`` against the definitions, node by node, in linear
    time: the next favoured node at or after each id is found by one
    backward scan, and the nearest favoured proper ancestor (the root when
    there is none) from the parent's own answer, since parents precede
    children."""
    n = t.n_nodes
    favoured, children, whole = favoured_nodes(t)
    fav = precompute_fav(t)
    assert list(fav.base_count) == [children[v] + whole[v] for v in range(n)]
    next_favoured = [0] * n
    nxt = None
    for v in range(n - 1, -1, -1):
        if favoured[v]:
            nxt = v
        next_favoured[v] = nxt
    assert list(fav.fav_desc) == next_favoured
    # up[u]: u itself when it is the root or favoured, else up[parent[u]]
    up = [0] * n
    for u in range(1, n):
        up[u] = u if favoured[u] else up[t.parent[u]]
    assert list(fav.fav_panc) == [0] + [up[t.parent[v]] for v in range(1, n)]


@given(string_sets | sampled_reads() | full_byte_sets)
@settings(max_examples=300, deadline=None)
def test_fav_structure_matches_naive(raw):
    act = build_act(normalize(raw))
    assert_fav_matches_naive(act)
    assert_fav_matches_naive(contract(act, mark_ehog(act), KIND_EHOG))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fav_structure_matches_naive_on_families(family):
    act = build_act(normalize(FAMILIES[family]))
    assert_fav_matches_naive(act)
    e = contract(act, mark_ehog(act), KIND_EHOG)
    assert_fav_matches_naive(e)
    if family == "full-bytes":
        assert max(precompute_fav(e).base_count) == 256  # the root's children


def test_fav_structure_matches_naive_on_a_reads_shaped_set():
    assert_fav_matches_naive(build_ehog(normalize(reads_shaped_set())).trie)


@pytest.mark.parametrize(
    "make",
    [
        # 6,000 nodes, so the interval flags cross several 1,024-node chunks
        lambda: build_ehog(generate_random(3000, 30_000, b"ACGT", 1)).trie,
        # one chain from the root, unfavoured but for its last node
        lambda: build_act(generate_random(1, 5000, b"ACGT", 1)),
        lambda: build_act(normalize([b"ab" * 2000])),
        # the root has one child, so its chain starts at id 0
        lambda: build_act(
            normalize([b"x" + s for s in generate_random(500, 10_000, b"AC", 1).strings])
        ),
    ],
    ids=["ext-3000-strings", "one-random-string", "one-periodic-string", "root-with-one-child"],
)
def test_fav_structure_matches_naive_across_flag_chunks(make):
    t = make()
    assert t.n_nodes > 4000
    assert_fav_matches_naive(t)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unfavoured_exactly_where_the_next_node_has_the_same_interval(family):
    act = build_act(normalize(FAMILIES[family]))
    for t in (act, contract(act, mark_ehog(act), KIND_EHOG)):
        favoured = favoured_nodes(t)[0]
        same = [
            (t.start[v], t.end[v]) == (t.start[v + 1], t.end[v + 1]) for v in range(t.n_nodes - 1)
        ]
        assert same == [not f for f in favoured[:-1]]
        assert favoured[-1]


def test_fav_base_count_of_a_whole_string_with_256_children():
    # the largest count: every byte extends b"a", which is itself a string
    act = build_act(normalize([b"a"] + [b"a" + bytes((b,)) for b in range(256)]))
    e = contract(act, mark_ehog(act), KIND_EHOG)
    for t in (act, e):
        assert_fav_matches_naive(t)
        assert max(precompute_fav(t).base_count) == 257


def test_terminal_string_node_counts_itself():
    e = build_ehog(normalize([b"ab", b"abc"])).trie
    fav = precompute_fav(e)
    v = [e.node_string(u) for u in range(e.n_nodes)].index(b"ab")
    assert fav.base_count[v] == 2  # one child subtree + itself as a target


def test_precompute_rejects_contracted_result_kind():
    e = build_ehog(normalize([b"ab"])).trie
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    with pytest.raises(ValueError):
        precompute_fav(h)
    with pytest.raises(ValueError):
        mark_hog_new(h)


# -- counters -------------------------------------------------------------------

def test_counters_single_string_trivial_path():
    e = build_ehog(normalize([b"a"])).trie
    c = {}
    mark_hog_new(e, counters=c)
    assert c["suffix_hops"] == 0
    assert c["count_updates"] == 0
    assert c["vm_lengths"] == [0]


def test_counters_fig1():
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    c = {}
    mark_hog_new(e, counters=c)
    # suffix paths: aabaa -> aa -> a; aadbd -> dbd -> d; dbdaa -> aa -> a
    assert c["suffix_hops"] == 6
    assert c["count_updates"] == 6
    assert c["vm_lengths"] == [1, 1, 1]


@given(string_sets)
@settings(max_examples=200, deadline=None)
def test_journal_bound_and_restore(raw):
    ss = normalize(raw)
    e = build_ehog(ss).trie
    fav = precompute_fav(e)
    before = [fav.base_count[:], fav.fav_desc[:], fav.fav_panc[:]]
    c = {}
    marks = mark_hog_new(e, counters=c, fav=fav)
    assert bytes(marks) == bytes(mark_hog_oracle(e))
    # a pass only reads the shared shortcuts: a second pass over the same
    # fav marks and counts the same
    assert [fav.base_count, fav.fav_desc, fav.fav_panc] == before
    again = {}
    assert bytes(mark_hog_new(e, counters=again, fav=fav)) == bytes(marks)
    assert again == c
    # each pass journals at most one counter per path node plus the
    # blackening charges, all bounded by the string's own length
    for j, vm_len in enumerate(c["vm_lengths"], start=1):
        assert vm_len <= 3 * len(ss.string(j))
    assert c["count_updates"] == 2 * sum(c["vm_lengths"])


@given(string_sets)
@settings(max_examples=100, deadline=None)
def test_same_marked_strings_on_full_and_extended(raw):
    ss = normalize(raw)
    act = build_act(ss)
    e = contract(act, mark_ehog(act), KIND_EHOG)
    on_act = marked_strings(act, mark_hog_new(act))
    on_ehog = marked_strings(e, mark_hog_new(e))
    assert on_act == on_ehog


# -- walks that stop where the rest of the suffix path is marked ----------------

def assert_marks_match_oracle(raw):
    act = build_act(normalize(raw))
    ext = contract(act, mark_ehog(act), KIND_EHOG)
    for t in (act, ext):
        assert bytes(mark_hog_new(t)) == bytes(mark_hog_oracle(t))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_match_oracle_on_full_and_extended(family):
    assert_marks_match_oracle(FAMILIES[family])


@given(sampled_reads())
@settings(max_examples=300, deadline=None)
def test_sampled_reads_match_oracle(raw):
    # overlapping reads make later walks join an already-flagged tail
    # partway down their suffix paths
    assert_marks_match_oracle(raw)


def test_unary_walks_are_linear_in_k():
    k = 2000
    act = build_act(normalize([b"a" * i for i in range(1, k + 1)]))
    for t in (act, contract(act, mark_ehog(act), KIND_EHOG)):
        c = {}
        marks = mark_hog_new(t, counters=c)
        assert sum(marks) == t.n_nodes == k + 1  # every node is a whole string
        # a walk that ran to the root would make k(k - 1) / 2 hops in all
        assert c["suffix_hops"] <= 2 * k


def test_a_string_node_stays_done_when_its_own_walk_marks_it():
    # b is done (ab's walk flags it) before its own walk starts, so cb's walk
    # stops at b at once; had b's own walk cleared the flag, it would hop b
    act = build_act(normalize([b"aab", b"ab", b"b", b"cb"]))
    ext = contract(act, mark_ehog(act), KIND_EHOG)
    for t, updates, vm_lengths in ((act, 8, [3, 1, 0, 0]), (ext, 6, [2, 1, 0, 0])):
        c = {}
        assert bytes(mark_hog_new(t, counters=c)) == bytes(mark_hog_oracle(t))
        assert c == {"suffix_hops": 3, "count_updates": updates, "vm_lengths": vm_lengths}


def test_lazy_marker_traced_peak_per_node():
    # the interval flags are compared 1,024 nodes at a time; whole columns
    # read as big ints would roughly double the peak.  Without counters, so
    # no list of journal lengths (8 bytes per string) counts
    ext = build_ehog(generate_random(20_000, 200_000, b"ACGT", 1)).trie
    _, peak = measure_peak_memory(lambda: mark_hog_new(ext))
    assert ext.n_nodes == 39_598
    assert peak / ext.n_nodes <= 15


def test_fav_structure_is_reusable_across_runs():
    e = build_ehog(normalize([b"abab", b"bab", b"ba"])).trie
    fav = precompute_fav(e)
    first = mark_hog_new(e, fav=fav)
    second = mark_hog_new(e, fav=fav)
    assert bytes(first) == bytes(second)


def test_deadline_aborts():
    # mark_hog_new checks the deadline after each string
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    with pytest.raises(MarkTimeout):
        mark_hog_new(e, deadline=0.0)
