"""Query engine: the five operations against brute force, plus batch I/O."""

import pytest
from hypothesis import given, settings, strategies as st

from hog.baselines import mark_hog_oracle
from hog.datasets import normalize
from hog.ehog import build_ehog
from hog.queries import QueryEngine, parse_batch, run_batch
from hog.trie import KIND_HOG, build_act, contract
from hog.verify import FAMILIES, check_queries

string_sets = st.lists(
    st.text(alphabet="ab", min_size=1, max_size=9).map(str.encode),
    min_size=1,
    max_size=9,
)


def structures_of(raw):
    e = build_ehog(normalize(raw)).trie
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    return e, h


def fig1_engine():
    _, h = structures_of([b"aabaa", b"aadbd", b"dbdaa"])
    return QueryEngine(h)


# -- pinned answers on the worked instance ------------------------------------

def test_one_to_one_fig1():
    eng = fig1_engine()
    assert eng.one_to_one(2, 3) == (3, b"dbd")
    assert eng.one_to_one(1, 3) == (0, b"")
    assert eng.one_to_one(3, 1) == (2, b"aa")
    assert eng.one_to_one(1, 1) == (2, b"aa")  # longest proper border


def test_one_to_all_fig1():
    eng = fig1_engine()
    assert eng.one_to_all(1) == [2, 2, 0]
    assert eng.one_to_all(2) == [0, 0, 3]
    assert eng.one_to_all(3) == [2, 2, 0]


def test_report_and_count_fig1():
    eng = fig1_engine()
    assert eng.report(1, 2) == [1, 2]
    assert eng.report(1, 3) == []
    assert eng.report(1, 0) == [1, 2, 3]
    assert eng.count(3, 1) == 2
    assert eng.count(1, 0) == 3


def test_top_fig1():
    eng = fig1_engine()
    assert eng.top(1, 0) == []
    assert eng.top(1, 1) == [1]       # 2-way tie at length 2 breaks by index
    assert eng.top(1, 2) == [1, 2]
    assert eng.top(1, 3) == [1, 2, 3]
    assert eng.top(1, 99) == [1, 2, 3]  # c > k clamps
    assert eng.top(2, 1) == [3]


def test_no_proper_self_overlap_for_single_letter():
    _, h = structures_of([b"a"])
    assert QueryEngine(h).one_to_one(1, 1) == (0, b"")


def test_whole_string_suffix_is_not_its_own_overlap():
    # "ab" is a suffix of "zab" and a *whole* other string; the overlap must
    # be a proper prefix of the target, so the pair has none
    _, h = structures_of([b"ab", b"zab"])
    eng = QueryEngine(h)
    assert eng.one_to_one(2, 1) == (0, b"")
    assert eng.one_to_all(2) == [0, 0]


def test_duplicated_inputs_share_canonical_answers():
    ss = normalize([b"ab", b"ab", b"ba"])
    e = build_ehog(ss).trie
    h = contract(e, mark_hog_oracle(e), KIND_HOG)
    eng = QueryEngine(h)
    assert ss.orig_count == 3
    assert eng.one_to_all(1) == eng.one_to_all(2)
    assert eng.one_to_one(1, 3) == eng.one_to_one(2, 3)


# -- engine state and input validation ----------------------------------------

def test_engine_requires_contracted_structure():
    act = build_act(normalize([b"ab"]))
    with pytest.raises(ValueError):
        QueryEngine(act)


def test_index_and_argument_validation():
    eng = fig1_engine()
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            eng.one_to_all(bad)
    with pytest.raises(IndexError):
        eng.one_to_one(1, 99)
    with pytest.raises(ValueError):
        eng.report(1, -1)
    with pytest.raises(ValueError):
        eng.count(1, -2)
    with pytest.raises(ValueError):
        eng.top(1, -1)


def test_scratch_unwinds_after_every_operation():
    eng = fig1_engine()
    before = eng.state_fingerprint()
    eng.one_to_one(1, 2)
    eng.one_to_all(2)
    eng.report(3, 1)
    eng.count(1, 2)
    eng.top(2, 2)
    assert eng.scratch_is_clean()
    assert eng.state_fingerprint() == before


# -- brute-force equivalence --------------------------------------------------

@given(string_sets)
@settings(max_examples=150, deadline=None)
def test_all_ops_match_brute_force_on_both_structures(raw):
    # inputs are original (pre-dedup) indices; answers are in sorted space
    assert check_queries(normalize(raw), *structures_of(raw)) == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_all_ops_match_brute_force_on_families(family):
    # nested intervals, whole strings inside other strings' intervals and
    # own-string exclusions at every depth, on both structure kinds
    raw = FAMILIES[family]
    assert check_queries(normalize(raw), *structures_of(raw)) == []


def test_unary_closed_form_at_scale():
    # a^1..a^K: ov(i, j) = min(i, j) - 1, and every path node's range
    # contains all the ranges answered before it
    K = 2000
    eng = QueryEngine(build_ehog(normalize([b"a" * i for i in range(1, K + 1)])).minimal)
    for i in (1, 2, 3, 999, K - 1, K):
        assert eng.one_to_all(i) == [min(i, j) - 1 for j in range(1, K + 1)]
        for lo in (0, 1, 2, 500, i - 1, i, K):
            want = list(range(lo + 1, K + 1)) if lo <= i - 1 else []
            assert eng.report(i, lo) == want
            assert eng.count(i, lo) == len(want)
        ranked = sorted(range(1, K + 1), key=lambda j: (-(min(i, j) - 1), j))
        assert eng.top(i, 10) == ranked[:10]


# -- batch format ---------------------------------------------------------------

def test_parse_batch_accepts_comments_and_blanks():
    text = "# header\n\nO 1 2\n A 3 \nR 1 0\nC 2 5\nT 3 2\n"
    assert parse_batch(text) == [
        ("O", 1, 2), ("A", 3), ("R", 1, 0), ("C", 2, 5), ("T", 3, 2)
    ]


def test_parse_batch_error_messages_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_batch("O 1 2\nX 1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_batch("O 1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_batch("# c\nA 1\nC one 2\n")


def test_run_batch_fig1_golden():
    eng = fig1_engine()
    queries = parse_batch("O 2 3\nO 1 3\nA 1\nR 3 2\nC 1 0\nT 1 2\n")
    lines, latency = run_batch(eng, queries)
    assert lines == ["3 dbd", "0", "2 2 0", "1 2", "3", "1 2"]
    assert len(latency["O"]) == 2
    assert all(dt >= 0 for ts in latency.values() for dt in ts)
