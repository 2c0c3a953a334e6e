"""The extended overlap structure: suffix-path marking + contraction, and
the build through to the minimal one."""

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import mark_hog_oracle
from hog.datasets import normalize
from hog.ehog import build_ehog, mark_ehog
from hog.trie import COLUMNS, KIND_EHOG, KIND_HOG, build_act, contract, verify_structure
from hog.verify import FAMILIES, brute_ehog_strings

string_sets = st.lists(
    st.text(alphabet="abd", min_size=1, max_size=9).map(str.encode),
    min_size=1,
    max_size=9,
)


def test_fig1_build():
    b = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"]))
    assert (b.nodes_act, b.trie.n_nodes, b.minimal.n_nodes) == (14, 8, 6)
    assert (b.trie.kind, b.minimal.kind) == (KIND_EHOG, KIND_HOG)
    assert b.seconds > 0


def test_singleton():
    b = build_ehog(normalize([b"a"]))
    assert (b.nodes_act, b.trie.n_nodes) == (2, 2)


def test_periodic_strings_stay_linear():
    # every suffix of "ababab.." that starts with 'a' is also a prefix, so
    # most of the full trie survives; the walk must still visit each node once
    counters = {}
    act = build_act(normalize([b"abababab", b"babababa"]))
    marks = mark_ehog(act, counters)
    assert counters["suffix_hops"] <= act.k + act.n_nodes
    e = contract(act, marks, KIND_EHOG)
    assert verify_structure(e) == []


def test_self_overlap_only():
    act = build_act(normalize([b"aaaa"]))
    e = contract(act, mark_ehog(act), KIND_EHOG)
    # all proper suffixes of "aaaa" are prefixes of it
    assert {e.node_string(v) for v in range(e.n_nodes)} == {
        b"", b"a", b"aa", b"aaa", b"aaaa"
    }


@given(string_sets)
@settings(max_examples=200, deadline=None)
def test_node_set_matches_independent_oracle(raw):
    ss = normalize(raw)
    act = build_act(ss)
    counters = {}
    marks = mark_ehog(act, counters)
    assert counters["suffix_hops"] <= ss.k + act.n_nodes
    e = contract(act, marks, KIND_EHOG)
    got = {e.node_string(v) for v in range(e.n_nodes)}
    assert got == brute_ehog_strings(ss.strings)
    assert verify_structure(e) == []


def assert_minimal_matches_oracle(raw):
    b = build_ehog(normalize(raw))
    want = mark_hog_oracle(b.trie)
    assert b.marks == want
    h = contract(b.trie, want, KIND_HOG)
    for c in COLUMNS:
        assert getattr(b.minimal, c) == getattr(h, c), c


@given(string_sets)
@settings(max_examples=200, deadline=None)
def test_build_marks_and_minimal_match_oracle(raw):
    assert_minimal_matches_oracle(raw)


@pytest.mark.parametrize("family", FAMILIES)
def test_build_marks_and_minimal_match_oracle_on_families(family):
    assert_minimal_matches_oracle(FAMILIES[family])
