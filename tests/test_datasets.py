"""Dataset loading, normalization, and the seeded generator."""

import pytest
from hypothesis import given, strategies as st

from hog.datasets import (
    SplitMix64,
    generate_random,
    load_fasta,
    load_lines,
    normalize,
)


# -- splitmix64 ---------------------------------------------------------------
# Reference stream for seed 0 (public splitmix64 test vectors).

def test_splitmix64_reference_stream():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_byte_block_is_little_endian():
    # first word e220a8397b1dcdaf -> bytes af cd 1d 7b 39 a8 20 e2
    assert SplitMix64(0).byte_block(8).hex() == "afcd1d7b39a820e2"


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


# -- normalize ----------------------------------------------------------------

def test_normalize_sorts_and_dedups():
    ss = normalize([b"b", b"a", b"b"])
    assert ss.strings == (b"a", b"b")
    assert ss.k == 2
    assert ss.orig_count == 3
    assert ss.n == 2
    # original positions 1,2,3 -> sorted indices of b,a,b
    assert tuple(ss.orig_to_sorted[1:]) == (2, 1, 2)


def test_normalize_keeps_canonical_back_reference():
    ss = normalize([b"zz", b"aa", b"zz"])
    # sorted index 2 is "zz", and both of its input positions map to it
    assert ss.string(1) == b"aa"
    assert ss.string(2) == b"zz"
    assert ss.orig_to_sorted == (0, 2, 1, 2)


def test_normalize_rejects_empty_inputs():
    with pytest.raises(ValueError):
        normalize([])
    with pytest.raises(ValueError):
        normalize([b"a", b""])


def test_string_index_bounds():
    ss = normalize([b"ab"])
    with pytest.raises(IndexError):
        ss.string(0)
    with pytest.raises(IndexError):
        ss.string(2)


@given(st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=12))
def test_normalize_maps_are_consistent(raw):
    ss = normalize(raw)
    assert ss.strings == tuple(sorted(set(raw)))
    for pos, s in enumerate(raw, 1):
        assert ss.string(ss.orig_to_sorted[pos]) == s


# -- file loaders -------------------------------------------------------------

def test_load_lines_round_trip(tmp_path):
    ss = normalize([b"ACGT", b"AA", b"ACGT"])
    path = tmp_path / "strings.txt"
    path.write_bytes(b"".join(s + b"\n" for s in ss.strings))
    back = load_lines(path)
    assert back.strings == ss.strings


def test_load_lines_strips_crlf_and_trailing_newline(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"ab\r\ncd\r\nef\n")
    assert load_lines(path).strings == (b"ab", b"cd", b"ef")


def test_load_lines_interior_blank_line_is_an_error(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_bytes(b"ab\n\ncd\n")
    with pytest.raises(ValueError, match="empty string"):
        load_lines(path)


def test_load_lines_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        load_lines(path)


def test_load_fasta(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_bytes(b">r1 desc\nACG\nT\n>r2\nGGG\n")
    ss = load_fasta(path)
    assert ss.strings == (b"ACGT", b"GGG")


def test_load_fasta_filter_drops_foreign_records(tmp_path):
    path = tmp_path / "reads.fa"
    path.write_bytes(b">r1\nACGT\n>r2\nACGN\n>r3\nTT\n")
    ss = load_fasta(path, filter_alphabet=b"ACGT")
    assert ss.strings == (b"ACGT", b"TT")


def test_load_fasta_rejects_headerless_sequence(tmp_path):
    path = tmp_path / "bad.fa"
    path.write_bytes(b"ACGT\n>r1\nAA\n")
    with pytest.raises(ValueError):
        load_fasta(path)


# -- generator ----------------------------------------------------------------

def test_generate_random_shape():
    ss = generate_random(7, 100, b"ACGT", seed=1)
    assert ss.k == 7
    assert ss.n == 100
    lengths = sorted(len(s) for s in ss.strings)
    # floor(100/7)=14 with 100-7*14=2 strings one longer
    assert lengths == [14, 14, 14, 14, 14, 15, 15]
    assert set(b"".join(ss.strings)) <= set(b"ACGT")


def test_generate_random_is_deterministic():
    a = generate_random(20, 500, b"ab", seed=9)
    b = generate_random(20, 500, b"ab", seed=9)
    c = generate_random(20, 500, b"ab", seed=10)
    assert a.strings == b.strings
    assert a.strings != c.strings


def test_generate_random_strings_are_distinct():
    # unary alphabet forces collisions unless lengths differ; the generator
    # must redraw-or-fail, never silently return duplicates
    with pytest.raises(ValueError):
        generate_random(3, 3, b"a", seed=0)
    ss = generate_random(40, 2000, b"ab", seed=3)
    assert len(set(ss.strings)) == 40


def test_generate_random_argument_validation():
    with pytest.raises(ValueError):
        generate_random(0, 10, b"ab", seed=0)
    with pytest.raises(ValueError):
        generate_random(5, 4, b"ab", seed=0)
    with pytest.raises(ValueError):
        generate_random(1, 1, b"", seed=0)
