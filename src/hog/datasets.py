"""Loading, validation and deterministic generation of string sets.

Every structure in this package is built over a :class:`StringSet`: a
non-empty collection of distinct byte strings, held in lexicographically
sorted order.  Sorted order is load-bearing — the trie builder relies on it
to insert each string along the rightmost spine, and leaf intervals over the
sorted indices are what make interval-based marking and queries work.

Indices are 1-based throughout ("string j" means ``ss.string(j)`` with
``1 <= j <= k``), matching the interval convention ``[start, end] ⊆ [1, k]``
used by the trie layer.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import sub

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 pseudo-random generator (Steele, Lea & Flood 2014).

    Chosen because it is trivially portable: the whole state is one 64-bit
    integer and the output function is a fixed sequence of xor-shift-multiply
    steps, so the same seed yields the same stream on every platform and
    Python version.  Random byte strings are derived as follows: each 64-bit
    output is expanded to 8 bytes little-endian, and each byte ``b`` maps to
    ``alphabet[b % len(alphabet)]`` over the byte-sorted alphabet.  The
    modulo step is exactly uniform when the alphabet size divides 256 (in
    particular for sizes 1, 2 and 4) and carries a bias of at most 1/64 for
    other sizes ≤ 64.

    :meth:`byte_block` computes up to ``_CHUNK`` words at once, each in its
    own 128-bit lane of one Python int, so every xor-shift and multiply is
    one big-int operation over the chunk.  The lanes are exact: every lane
    is masked to 64 bits before each multiply, so each lane's product stays
    below 2**128 and no carry or shifted-in bit crosses into another lane's
    low 64 bits, which are all that is kept.  The words come out in stream
    order, so :meth:`byte_block` equals :meth:`next_u64` called once per
    8 bytes, and leaves the state where those calls would.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def byte_block(self, nbytes: int) -> bytearray:
        """Return the next ``nbytes`` bytes of the stream (little-endian per word)."""
        words = (nbytes + 7) // 8
        out = bytearray(8 * words)
        state = self._state
        with memoryview(out) as view, view.cast("Q") as dst:
            for a in range(0, words, _CHUNK):
                m = min(_CHUNK, words - a)
                ones, steps, low = _LANES
                if m < _CHUNK:
                    keep = (1 << 128 * m) - 1
                    ones, steps, low = ones & keep, steps & keep, low & keep
                # lane i holds the state after i + 1 steps, then its output
                z = (state * ones + steps) & low
                z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
                z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
                z ^= z >> 31
                # a lane's low 8 bytes are every other 8-byte item
                with memoryview(z.to_bytes(16 * m, "little")) as src, src.cast("Q") as lanes:
                    dst[a : a + m] = lanes[::2]
                state = (state + m * _GAMMA) & _MASK64
        self._state = state
        del out[nbytes:]
        return out


def _lanes(values: Iterable[int]) -> int:
    """One int holding ``values`` in consecutive 128-bit lanes, the first
    lowest; built from little-endian bytes, so it does not depend on
    ``sys.byteorder``."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


_CHUNK = 4096  # words per big-int step of SplitMix64.byte_block
# per lane i: 1, (i + 1) * gamma, and the 64-bit mask
_LANES = (
    _lanes([1] * _CHUNK),
    _lanes(range(_GAMMA, (_CHUNK + 1) * _GAMMA, _GAMMA)),
    _lanes([_MASK64] * _CHUNK),
)


@dataclass(frozen=True)
class StringSet:
    """Distinct byte strings in sorted order, plus original-order bookkeeping.

    Attributes
    ----------
    strings : tuple[bytes, ...]
        The k distinct strings, lexicographically ascending.  ``strings[0]``
        is string 1; prefer :meth:`string` which takes 1-based indices.
    k, n : int
        Number of strings and total length in bytes.
    orig_to_sorted : tuple[int, ...]
        1-based map from pre-deduplication input position to sorted index.
        Duplicated inputs map to the same sorted index.  Entry 0 is unused.
    """

    strings: tuple[bytes, ...]
    orig_to_sorted: tuple[int, ...]
    k: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", len(self.strings))
        object.__setattr__(self, "n", sum(map(len, self.strings)))

    def string(self, j: int) -> bytes:
        """Return string ``j`` (1-based sorted index)."""
        if not 1 <= j <= self.k:
            raise IndexError(f"string index {j} out of range 1..{self.k}")
        return self.strings[j - 1]

    @property
    def orig_count(self) -> int:
        """Number of input strings before deduplication."""
        return len(self.orig_to_sorted) - 1


def normalize(raw: list[bytes]) -> StringSet:
    """Sort, deduplicate and index-map raw input strings.

    Raises ``ValueError`` on an empty collection or on any empty string —
    the trie layer requires every string to be non-empty.
    """
    if not raw:
        raise ValueError("string set is empty")
    if not all(raw):
        raise ValueError(f"empty string at input position {raw.index(b'') + 1}")
    ordered = sorted(set(raw))
    rank = dict(zip(ordered, count(1)))
    return StringSet(
        strings=tuple(ordered),
        orig_to_sorted=(0, *map(rank.__getitem__, raw)),
    )


def load_lines(path: str | os.PathLike[str]) -> StringSet:
    """Load one string per line (LF or CRLF, raw bytes otherwise untouched)."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # trailing newline, not an empty record
    raw = [ln[:-1] if ln.endswith(b"\r") else ln for ln in lines]
    if not raw:
        raise ValueError(f"{os.fspath(path)!s}: no strings found")
    return normalize(raw)


def load_fasta(
    path: str | os.PathLike[str], filter_alphabet: bytes | None = None
) -> StringSet:
    """Load FASTA records; each record's concatenated sequence is one string.

    ``filter_alphabet`` (when given) drops any record containing a byte
    outside the allowed set.  It is an error for no records to survive.
    """
    records: list[bytes] = []
    current: list[bytes] | None = None
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(b">"):
                if current is not None:
                    records.append(b"".join(current))
                current = []
            else:
                if current is None:
                    raise ValueError(f"{os.fspath(path)!s}: sequence before first header")
                current.append(line)
    if current is not None:
        records.append(b"".join(current))
    if not records:
        raise ValueError(f"{os.fspath(path)!s}: no FASTA records found")
    if filter_alphabet is not None:
        allowed = frozenset(filter_alphabet)
        records = [r for r in records if allowed.issuperset(r)]
        if not records:
            raise ValueError(
                f"{os.fspath(path)!s}: no records left after alphabet filtering"
            )
    return normalize(records)


_MAX_REDRAWS = 100  # per-string redraw budget before giving up on distinctness


def generate_random(k: int, n: int, alphabet: bytes, seed: int) -> StringSet:
    """Generate ``k`` distinct random strings of total length ``n``.

    Lengths are balanced: the first ``n % k`` strings get ``n // k + 1``
    bytes, the rest ``n // k``.  Bytes come from a seeded :class:`SplitMix64`
    stream (see its docstring for the exact derivation, and for why its
    128-bit lanes give exactly the word-by-word stream), so results are
    reproducible bit-for-bit across platforms.  The strings are cut in order
    from the stream's first ``n`` bytes.  They are then checked in position
    order against the strings kept before them: a string equal to one of
    those is redrawn from the continuing stream, at most ``_MAX_REDRAWS``
    times, until it differs from every one, and is kept.  If ``k`` distinct
    strings cannot be produced (tiny alphabet, short lengths) a
    ``ValueError`` is raised rather than returning fewer.
    """
    if k <= 0 or n <= 0:
        raise ValueError("k and n must be positive")
    if n < k:
        raise ValueError(f"total length n={n} cannot cover k={k} non-empty strings")
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    return normalize(_random_strings(k, n, bytes(sorted(set(alphabet))), seed))


#: 8-byte words of the stream that ``generate_random`` translates and cuts
#: at a time: 256 KiB, so a set of up to that many bytes is one piece
_PIECE_WORDS = 1 << 15


def _random_strings(k: int, n: int, alphabet: bytes, seed: int) -> list[bytes]:
    """:func:`generate_random`'s strings in input order, for ``normalize``.

    The stream's first ``n`` bytes are drawn and cut one piece at a time:
    ``_PIECE_WORDS`` words, or as many as the next string needs, and what is
    left of ``n`` in the last piece, so the words drawn are those of one
    ``byte_block(n)`` (the one call for up to ``8 * _PIECE_WORDS`` bytes).
    Each piece is translated and cut into the strings that end within it;
    the bytes of a string that runs past it carry over to the next.  So
    beside the strings about two pieces are held.  A set without repeats is
    returned as cut; otherwise one pass in position order redraws each
    repeat, and the set of kept strings is freed on return.
    """
    table = bytes(alphabet[b % len(alphabet)] for b in range(256))
    base, extra = divmod(n, k)
    cut = extra * (base + 1)
    rng = SplitMix64(seed)

    def bounds() -> Iterator[int]:
        return chain(range(0, cut, base + 1), range(cut, n + 1, base))

    starts, ends = bounds(), islice(bounds(), 1, None)
    words = (n + 7) // 8
    raw: list[bytes] = []
    carry = b""  # the drawn bytes of string len(raw), which runs on
    drawn = 0  # bytes drawn, a whole number of words
    while len(raw) < k:
        i = len(raw)
        need = (i + 1) * base + min(i + 1, extra) - drawn  # to end string i
        m = min(words - drawn // 8, max(_PIECE_WORDS, (need + 7) // 8))
        piece = bytes(rng.byte_block(min(8 * m, n - drawn))).translate(table)
        buf = carry + piece if carry else piece
        del piece
        offset = drawn - len(carry)  # buf[0]'s place in the stream
        drawn += 8 * m
        # strings i .. j - 1 end within the drawn bytes
        reach = min(drawn, n)
        j = reach // (base + 1) if reach <= cut else extra + (reach - cut) // base
        los, his = (starts, ends) if j - i == k else (islice(starts, j - i), islice(ends, j - i))
        if offset:
            shift = repeat(offset)
            los, his = map(sub, los, shift), map(sub, his, shift)
        raw += map(buf.__getitem__, map(slice, los, his))
        carry = buf[j * base + min(j, extra) - offset :] if j < k else b""
        del buf
    if len(set(raw)) == k:
        return raw
    kept: set[bytes] = set()
    for pos, s in enumerate(raw):
        if s in kept:
            for _ in range(_MAX_REDRAWS):
                s = bytes(rng.byte_block(len(s))).translate(table)
                if s not in kept:
                    break
            else:
                raise ValueError(
                    f"cannot generate {k} distinct strings of length ~{base} "
                    f"over a {len(alphabet)}-letter alphabet"
                )
            raw[pos] = s
        kept.add(s)
    return raw
