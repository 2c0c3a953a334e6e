"""Full prefix trie, contraction, and the structural audit."""

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import mark_hog_oracle
from hog.datasets import StringSet, normalize
from hog.ehog import mark_ehog
from hog.marking import mark_hog_new
from hog.trie import (
    KIND_ACT,
    KIND_EHOG,
    KIND_HOG,
    build_act,
    contract,
    leaf_intervals,
    to_text,
    verify_structure,
)

FIG1_ACT_STRINGS = {
    b"", b"a", b"aa", b"aab", b"aaba", b"aabaa",
    b"aad", b"aadb", b"aadbd",
    b"d", b"db", b"dbd", b"dbda", b"dbdaa",
}

small_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=8).map(str.encode),
    min_size=1,
    max_size=8,
)


def node_strings(t):
    return {t.node_string(v) for v in range(t.n_nodes)}


def build_ehog_of(raw):
    act = build_act(normalize(raw))
    return contract(act, mark_ehog(act), KIND_EHOG)


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
    empty = StringSet(strings=(), orig_to_sorted=(0,), sorted_to_orig=(0,), alphabet=b"")
    with pytest.raises(ValueError):
        build_act(empty)


def test_act_shared_prefixes_are_merged():
    act = build_act(normalize([b"ab", b"abc"]))
    # e, a, ab, abc
    assert act.n_nodes == 4


def test_find_node_and_path_strings():
    act = build_act(normalize([b"ab", b"b"]))
    v = act.find_node(b"ab")
    assert act.node_string(v) == b"ab"
    assert act.find_node(b"") == 0
    assert act.find_node(b"zz") == -1


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
    act.string_of[act.find_node(b"ab")] = -1  # now "a"/"ab" cover no string
    with pytest.raises(ValueError):
        leaf_intervals(act)


@given(small_sets)
@settings(max_examples=150, deadline=None)
def test_act_size_bound_and_audit(raw):
    ss = normalize(raw)
    act = build_act(ss)
    assert act.n_nodes <= ss.n + 1  # distinct prefixes + root
    assert verify_structure(act) == []
    assert node_strings(act) == {p[:i] for p in ss.strings for i in range(len(p) + 1)}


def fibonacci_word(length):
    a, b = b"a", b"ab"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


ACT_FAMILIES = {
    "unary": [b"a" * i for i in range(1, 41)],
    "periodic-ab": [b"ab" * i for i in range(1, 16)],
    "periodic-aab": [b"aab" * i for i in range(1, 12)],
    "fibonacci-prefixes": [fibonacci_word(i) for i in range(1, 41)],
    "single": [b"abracadabra"],
    "nested-prefixes": [b"a", b"ab", b"abc"],
    "full-bytes": [bytes((b + i) % 256 for i in range(6)) for b in range(256)]
    + [b"\x00", b"\xff\xff", bytes(range(256))],
}


@pytest.mark.parametrize("family", sorted(ACT_FAMILIES))
def test_act_families_audit_and_mark(family):
    ss = normalize(ACT_FAMILIES[family])
    act = build_act(ss)
    assert verify_structure(act) == []  # includes the interval recomputation
    assert node_strings(act) == {p[:i] for p in ss.strings for i in range(len(p) + 1)}
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


# -- contraction --------------------------------------------------------------

def test_contract_keeps_only_marked_nodes():
    e = build_ehog_of([b"aabaa", b"aadbd", b"dbdaa"])
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
    e = build_ehog_of([b"ab"])
    marks = bytearray(e.n_nodes)
    marks[0] = 1  # whole-string node left unmarked
    with pytest.raises(ValueError):
        contract(e, marks, KIND_HOG)


def test_contracted_siblings_may_share_first_byte():
    # suffixes of neither string survive, so the root's children are the
    # two whole strings and both labels start with 'a'
    e = build_ehog_of([b"ab", b"ac"])
    assert node_strings(e) == {b"", b"ab", b"ac"}
    labels = sorted(e.edge_label(c) for c in e.children(0))
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
    random other nodes; the marks need not be closed under suffix links."""
    raw = draw(edge_byte_sets)
    # add some proper prefixes so that strings nest
    raw += [s[: draw(st.integers(1, len(s)))] for s in raw[: draw(st.integers(0, 3))]]
    act = build_act(normalize(raw))
    marks = bytearray(draw(st.lists(st.booleans(), min_size=act.n_nodes, max_size=act.n_nodes)))
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
    t = contract(act, marks, KIND_HOG)
    # pre-order with label-ordered children is lexicographic order
    assert [t.node_string(v) for v in range(t.n_nodes)] == kept
    ids = {x: v for v, x in enumerate(kept)}
    for v, x in enumerate(kept):
        up = [x[:i] for i in range(len(x)) if x[:i] in ids]
        down = [x[i:] for i in range(1, len(x) + 1) if x[i:] in ids]
        covered = [j for j in range(1, ss.k + 1) if ss.string(j).startswith(x)]
        assert t.parent[v] == (ids[up[-1]] if x else -1)
        assert t.suffix_link[v] == (ids[down[0]] if x else 0)
        assert t.depth[v] == len(x)
        assert (t.start[v], t.end[v]) == (covered[0], covered[-1])
        assert t.string_of[v] == (ss.strings.index(x) + 1 if x in ss.strings else -1)
        if x:
            assert t.edge_byte[v] == x[len(up[-1])]
        children = [c for c in range(t.n_nodes) if t.parent[c] == v]
        assert list(t.children(v)) == children  # ascending ids = label order
    assert list(t.leaf_of) == [-1] + [ids[s] for s in ss.strings]
    assert verify_structure(t) == []


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
    v = act.find_node(b"aabaa")
    act.suffix_link[v] = 0  # true target is the "aa" node
    assert any("suffix" in msg for msg in verify_structure(act))


def test_audit_catches_bad_interval():
    act = fig1_act()
    v = act.find_node(b"d")
    act.start[v], act.end[v] = 1, 3  # claims to cover strings it does not
    assert verify_structure(act) != []


def test_audit_catches_bad_parent_depth():
    act = fig1_act()
    v = act.find_node(b"aab")
    act.depth[v] = 7
    assert verify_structure(act) != []


def test_audit_catches_wrong_leaf_map():
    act = fig1_act()
    act.string_of[act.find_node(b"aabaa")] = 2
    act.string_of[act.find_node(b"aadbd")] = 1
    assert verify_structure(act) != []


# -- serialization ------------------------------------------------------------

def test_to_text_golden():
    e = build_ehog_of([b"ab", b"b"])
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    assert to_text(h) == (
        "# kind=hog nodes=3 k=2 n=3\n"
        "# id\tparent\tdepth\tlabel\tsuffix_link\tstart\tend\tstring_of\n"
        "0\t-1\t0\t''\t0\t1\t2\t-1\n"
        "1\t0\t2\t'ab'\t2\t1\t1\t1\n"
        "2\t0\t1\t'b'\t0\t2\t2\t2\n"
    )


def test_to_text_is_deterministic():
    a = build_ehog_of([b"abab", b"bab", b"ba"])
    b = build_ehog_of([b"abab", b"bab", b"ba"])
    assert to_text(a) == to_text(b)
