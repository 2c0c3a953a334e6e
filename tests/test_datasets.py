"""Dataset loading, normalization, and the seeded generator."""

import pytest
from hypothesis import given, settings, strategies as st

from hog.bench import measure_peak_memory
from hog.datasets import (
    _CHUNK,
    _MASK64,
    _MAX_REDRAWS,
    SplitMix64,
    StringSet,
    generate_random,
    load_fasta,
    load_lines,
    normalize,
)


# -- the sequential reference -------------------------------------------------
# The generator as first written: one next_u64 call per 8 bytes, and one
# pass over the strings that redraws each repeat in turn.  The library's
# chunked byte_block and generate_random must match it bit for bit.

def ref_byte_block(rng: SplitMix64, nbytes: int) -> bytearray:
    out = bytearray()
    for _ in range((nbytes + 7) // 8):
        out += rng.next_u64().to_bytes(8, "little")
    del out[nbytes:]
    return out


def ref_generate_random(k: int, n: int, alphabet: bytes, seed: int) -> StringSet:
    alphabet = bytes(sorted(set(alphabet)))
    table = bytes(alphabet[b % len(alphabet)] for b in range(256))
    base, extra = divmod(n, k)
    lengths = [base + 1] * extra + [base] * (k - extra)
    rng = SplitMix64(seed)
    block = ref_byte_block(rng, n).translate(table)
    raw: list[bytes] = []
    seen: set[bytes] = set()
    pos = 0
    for length in lengths:
        s = bytes(block[pos : pos + length])
        pos += length
        redraws = 0
        while s in seen:
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise ValueError(
                    f"cannot generate {k} distinct strings of length ~{base} "
                    f"over a {len(alphabet)}-letter alphabet"
                )
            s = bytes(ref_byte_block(rng, length).translate(table))
        seen.add(s)
        raw.append(s)
    return normalize(raw)


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


_BLOCK_LENGTHS = (0, 1, 7, 8, 9, 8 * _CHUNK - 1, 8 * _CHUNK, 8 * _CHUNK + 1, 16 * _CHUNK + 3)


@pytest.mark.parametrize("nbytes", _BLOCK_LENGTHS)
@pytest.mark.parametrize("seed", [0, 1, _MASK64, 1 << 64, 0x9E3779B97F4A7C15])
def test_byte_block_is_the_next_u64_stream(seed, nbytes):
    # lanes across chunk boundaries and partial chunks, and the state after
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    block = rng.byte_block(nbytes)
    assert type(block) is bytearray
    assert block == ref_byte_block(ref, nbytes)
    assert rng.next_u64() == ref.next_u64()


def test_byte_block_continues_the_stream():
    rng, ref = SplitMix64(5), SplitMix64(5)
    got = [rng.byte_block(m) for m in (3, 8 * _CHUNK + 5, 17, 0, 2)]
    assert got == [ref_byte_block(ref, m) for m in (3, 8 * _CHUNK + 5, 17, 0, 2)]
    assert rng.next_u64() == ref.next_u64()


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
    with pytest.raises(ValueError, match="string set is empty"):
        normalize([])
    with pytest.raises(ValueError, match="empty string at input position 2$"):
        normalize([b"a", b""])
    with pytest.raises(ValueError, match="empty string at input position 3$"):
        normalize([b"a", b"b", b"", b"c", b""])


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


def _outcome(gen, k, n, alphabet, seed):
    try:
        ss = gen(k, n, alphabet, seed)
    except ValueError as e:
        return str(e)
    return ss.strings, ss.orig_to_sorted


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 8),
    st.sampled_from([b"a", b"ab", b"abc", b"ACGT", bytes(range(256))]),
    st.sampled_from([0, _MASK64, 1 << 64]) | st.integers(0, _MASK64),
    st.data(),
)
def test_generate_random_matches_the_sequential_reference(k, scale, alphabet, seed, data):
    n = data.draw(st.integers(k, k * scale), label="n")
    assert _outcome(generate_random, k, n, alphabet, seed) == _outcome(
        ref_generate_random, k, n, alphabet, seed
    )


@pytest.mark.parametrize(
    "args",
    [
        (3, 6, b"ab", 16),  # a redraw equals a later string's first occurrence
        (4, 8, b"ab", 6),
        (3, 3, b"a", 0),  # fails after _MAX_REDRAWS redraws
        (40, 2000, b"ab", 3),
        (20_000, 200_000, b"ACGT", 1),  # 192 redraws
        # 19,109 and 4,790 positions redrawn, 4,882 and 149 of them because
        # their cut string equals what an earlier redraw produced
        (50_000, 400_000, b"ACGT", 5),
        (100_000, 1_000_000, b"ACGT", 42),
    ],
)
def test_generate_random_matches_the_reference_on_fixed_sets(args):
    assert _outcome(generate_random, *args) == _outcome(ref_generate_random, *args)


def test_generate_random_traced_peak():
    # cutting the strings from one block and freeing the block and the set
    # of kept strings before normalize: 3,655,638 bytes on Python 3.11.7;
    # the sequential generator peaked at 6,112,911.  Keeping the translated
    # block alive through normalize adds about 200 KB, the set about 2.1 MB.
    generate_random(20_000, 200_000, b"ACGT", 1)
    ss, peak = measure_peak_memory(lambda: generate_random(20_000, 200_000, b"ACGT", 1))
    assert ss.k == 20_000
    assert peak <= 3_800_000


def test_generate_random_traced_peak_per_input_byte():
    # the strings are cut from one 256 KiB piece of the stream at a time, so
    # beside the 4 MB of strings about two pieces are held (2.01 bytes per
    # input byte when the whole block was drawn at once)
    generate_random(1_000, 4_000_000, b"ACGT", 1)
    ss, peak = measure_peak_memory(lambda: generate_random(1_000, 4_000_000, b"ACGT", 1))
    assert ss.n == 4_000_000
    assert peak / ss.n <= 1.3


def test_generate_random_gives_up_after_the_redraw_budget(monkeypatch):
    # the second of three unary strings is drawn once and redrawn
    # _MAX_REDRAWS times, as the sequential reference does, before the error
    calls = []
    block = SplitMix64.byte_block
    monkeypatch.setattr(SplitMix64, "byte_block", lambda self, m: calls.append(m) or block(self, m))
    with pytest.raises(ValueError, match="cannot generate 3 distinct strings of length ~1"):
        generate_random(3, 3, b"a", seed=0)
    assert calls == [3] + [1] * _MAX_REDRAWS
