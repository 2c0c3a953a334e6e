"""Reference markers and their support structures."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import (
    IntervalCoverTree,
    algorithm_names,
    brute_force_ov,
    build_suffix_lists,
    get_marker,
    mark_hog_cazaux,
    mark_hog_khan,
    mark_hog_oracle,
    mark_hog_parkcpr,
    ov_length,
)
from hog.datasets import normalize
from hog.ehog import build_ehog
from hog.marking import MarkTimeout
from hog.trie import KIND_HOG, build_act, contract

string_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=10).map(str.encode),
    min_size=1,
    max_size=10,
)


# -- brute force --------------------------------------------------------------

def test_ov_length_pins_proper_proper_semantics():
    assert ov_length(b"aabaa", b"aadbd") == 2
    assert ov_length(b"aadbd", b"dbdaa") == 3
    assert ov_length(b"aabaa", b"dbdaa") == 0
    assert ov_length(b"aa", b"aa") == 1       # longest proper border
    assert ov_length(b"a", b"a") == 0
    assert ov_length(b"zab", b"ab") == 0      # suffix == whole target is out
    assert ov_length(b"aab", b"ab") == 0      # ditto even mid-source
    assert ov_length(b"xab", b"abx") == 2     # proper on both sides


def test_brute_force_ov_fig1():
    assert brute_force_ov((b"aabaa", b"aadbd", b"dbdaa")) == {b"", b"aa", b"dbd"}


def test_brute_force_ov_self_pairs_and_trivial_pairs():
    # a lone self-bordered string never produces the empty overlap
    assert brute_force_ov((b"aa",)) == {b"a"}
    assert brute_force_ov((b"ab", b"cd")) == {b""}


# -- registry -----------------------------------------------------------------

def test_algorithm_registry():
    assert algorithm_names() == ["new", "khan", "parkcpr", "cazaux"]
    for name in [*algorithm_names(), "oracle"]:
        assert callable(get_marker(name))
    with pytest.raises(ValueError, match="unknown"):
        get_marker("dijkstra")


# -- suffix lists --------------------------------------------------------------

def test_suffix_lists_fig1():
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    lists = build_suffix_lists(e)
    by_string = {
        e.node_string(v): ids for v, ids in enumerate(lists) if ids
    }
    # node "aa" lies on the suffix paths of aabaa (1) and dbdaa (3), etc.
    assert by_string == {
        b"a": [1, 3], b"aa": [1, 3], b"d": [2], b"dbd": [2]
    }
    assert sum(map(len, lists)) == 6


def test_suffix_lists_reject_hog():
    e = build_ehog(normalize([b"ab"])).trie
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    with pytest.raises(ValueError):
        build_suffix_lists(h)
    with pytest.raises(ValueError):
        mark_hog_parkcpr(h)


# -- the interval cover tree ----------------------------------------------------

def uncovered(tree, lo, hi):
    """How many positions of ``[lo, hi]`` are uncovered, leaving ``tree`` as
    it was: cover the range, read the count, roll the cover back."""
    mark = tree.checkpoint()
    got = tree.cover(lo, hi)
    tree.rollback(mark)
    return got


def test_cover_tree_counts_and_rollback():
    tree = IntervalCoverTree(10)
    assert uncovered(tree, 1, 10) == 10
    baseline = bytes(tree.uncov)
    mark = tree.checkpoint()
    assert tree.cover(3, 7) == 5
    assert uncovered(tree, 1, 10) == 5
    assert uncovered(tree, 3, 7) == 0
    assert uncovered(tree, 1, 3) == 2
    assert tree.cover(1, 3) == 2  # overlapping cover
    assert uncovered(tree, 1, 10) == 3
    assert tree.cover(2, 5) == 0  # nothing left to cover
    tree.rollback(mark)
    assert uncovered(tree, 1, 10) == 10
    assert bytes(tree.uncov) == baseline


def test_cover_tree_nested_checkpoints():
    tree = IntervalCoverTree(6)
    outer = tree.checkpoint()
    assert tree.cover(1, 2) == 2
    inner = tree.checkpoint()
    assert tree.cover(4, 6) == 3
    assert uncovered(tree, 1, 6) == 1
    tree.rollback(inner)
    assert uncovered(tree, 1, 6) == 4
    tree.rollback(outer)
    assert uncovered(tree, 1, 6) == 6


def test_cover_tree_randomized_against_set_model():
    rng = random.Random(5)
    k = 37
    tree = IntervalCoverTree(k)
    for _ in range(40):
        mark = tree.checkpoint()
        covered = set()
        for _ in range(rng.randint(1, 8)):
            lo = rng.randint(1, k)
            hi = rng.randint(lo, k)
            fresh = set(range(lo, hi + 1)) - covered
            assert tree.cover(lo, hi) == len(fresh)
            covered |= fresh
            qlo = rng.randint(1, k)
            qhi = rng.randint(qlo, k)
            want = sum(1 for p in range(qlo, qhi + 1) if p not in covered)
            assert uncovered(tree, qlo, qhi) == want
        tree.rollback(mark)
        assert uncovered(tree, 1, k) == k


def test_cover_tree_validates_size():
    with pytest.raises(ValueError):
        IntervalCoverTree(0)


# -- marker equivalence ---------------------------------------------------------

@given(string_sets)
@settings(max_examples=200, deadline=None)
def test_all_markers_agree_with_oracle(raw):
    e = build_ehog(normalize(raw)).trie
    want = bytes(mark_hog_oracle(e))
    assert bytes(mark_hog_cazaux(e)) == want
    assert bytes(mark_hog_parkcpr(e)) == want
    assert bytes(mark_hog_khan(e)) == want


def test_parkcpr_reset_invariant(monkeypatch):
    # every string's covers must be rolled back before the next string
    e = build_ehog(normalize([b"abab", b"bab", b"ba", b"abba"])).trie
    clean = bytes(IntervalCoverTree(e.k).uncov)
    rollback = IntervalCoverTree.rollback
    resets = []

    def checked_rollback(tree, mark):
        rollback(tree, mark)
        resets.append(bytes(tree.uncov) == clean)

    monkeypatch.setattr(IntervalCoverTree, "rollback", checked_rollback)
    assert bytes(mark_hog_parkcpr(e)) == bytes(mark_hog_oracle(e))
    assert resets == [True] * e.k


def test_baseline_deadlines_abort():
    # each baseline checks the deadline once per string, whole-string node or
    # node, so even the three-string fig. 1 graph reaches a check
    e = build_ehog(normalize([b"aabaa", b"aadbd", b"dbdaa"])).trie
    for marker in (mark_hog_khan, mark_hog_parkcpr, mark_hog_cazaux, mark_hog_oracle):
        with pytest.raises(MarkTimeout):
            marker(e, deadline=0.0)


def test_markers_agree_on_the_full_trie_too():
    act = build_act(normalize([b"ab", b"abab", b"zaba"]))
    want = bytes(mark_hog_oracle(act))
    for name in algorithm_names():
        assert bytes(get_marker(name)(act)) == want
