"""Int columns at C speed: how the tries' ``array('i')`` columns are filled.

``array``'s per-item converter takes about 60 ns an int from an iterator
and 32 from a list.  Nothing here goes through it.  Ints made in C are
packed into bytes by ``struct.pack``, ``CHUNK`` at a time (about 17 ns an
int), and written as one slice per chunk: :func:`packed` for an iterator,
:func:`gather` for ``itemgetter`` reads, :func:`write_run` for an automaton
run.  Runs of ids are byte-level copies: :func:`iota`'s planes, and
:func:`write_tails`'s joins over chunks of ``TAIL_CHUNK`` nodes.  Every
temporary is bounded by such a chunk, or by one string.

:func:`neighbour_lcps` gives the lcp of each sorted string with the one
before it from fixed-width big-endian keys, so that only pairs that agree
on ``LCP_WIDTH`` bytes cost a Python call.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat
from operator import getitem, itemgetter, mul, sub, xor
from struct import Struct, pack

#: ints per ``struct.pack`` or ``itemgetter`` call: the chunk bounds the
#: tuple of ints each one holds
CHUNK = 1024

#: one id's bytes in a column
ID = Struct("i")


def lcp(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``.

    The highest differing bit of the common-length prefixes, read
    big-endian, falls in the first differing byte.
    """
    m = min(len(a), len(b))
    diff = int.from_bytes(a[:m], "big") ^ int.from_bytes(b[:m], "big")
    return m - 1 - (diff.bit_length() - 1) // 8 if diff else m


def packed(ints: Iterable[int]) -> array:
    """``array("i", ints)``, converted by ``struct.pack`` ``CHUNK`` ints at
    a time."""
    out = array("i")
    ints = iter(ints)
    while chunk := tuple(islice(ints, CHUNK)):
        out.frombytes(pack(f"{len(chunk)}i", *chunk))
    return out


#: :func:`neighbour_lcps` reads each string's first ``LCP_WIDTH`` bytes as
#: one big-endian int; only a pair that agrees on all of them takes ``lcp``
LCP_WIDTH = 16
#: the first differing byte of two such keys, by their XOR's bit length
_FIRST_DIFF = bytes((8 * LCP_WIDTH - b) // 8 for b in range(8 * LCP_WIDTH + 1))


def neighbour_lcps(strings: tuple[bytes, ...], lens: array) -> array:
    """``array("i", map(lcp, strings, chain((b"",), strings)))``, each
    string's lcp with the one before it, at C speed.

    Each string is cut or padded to ``LCP_WIDTH`` bytes and read as a
    big-endian int.  Two strings' keys first differ in the byte where the
    strings first differ, unless that is past the shorter one's end, in the
    padding; so the lcp is the least of the two lengths and that byte.  A
    pair whose keys are equal gets ``LCP_WIDTH``, and :func:`lcp` then reads
    it whole.  ``CHUNK`` strings are read at a time, so the keys and the
    packed chunk take O(``CHUNK`` · ``LCP_WIDTH``) bytes.
    """
    width = LCP_WIDTH
    cut = slice(width)
    out = array("i")
    key = m = 0  # the previous string's key and length: b"" has length 0
    for a in range(0, len(strings), CHUNK):
        part = strings[a : a + CHUNK]
        part_lens = lens[a : a + CHUNK]
        keys = [key]
        keys += map(
            int.from_bytes,
            map(bytes.ljust, map(getitem, part, repeat(cut)), repeat(width)),
            repeat("big"),
        )
        diffs = map(xor, islice(keys, 1, None), keys)
        firsts = map(_FIRST_DIFF.__getitem__, map(int.bit_length, diffs))
        got = map(min, part_lens, chain((m,), part_lens), firsts)
        got = array("i", pack(f"{len(part)}i", *got))
        # the first string's lcp is 0, so a + i >= 1 here
        i = 0
        try:
            while True:
                i = got.index(width, i)
                got[i] = lcp(part[i], strings[a + i - 1])
                i += 1
        except ValueError:
            pass
        out += got
        key = keys[-1]
        m = part_lens[-1]
    return out


#: bytes 0 and 1 of the ids ``0 .. 2**16 - 1``, one 64 KiB plane each
_LOW_PLANES = (bytes(range(256)) * 256, b"".join(bytes((b,)) * 256 for b in range(256)))


def iota(n: int) -> array:
    """``array("i", range(n))``, written one byte plane at a time.

    Byte ``p`` of id ``i`` is ``(i >> 8p) & 255``.  Over each block of 2**16
    ids the two low planes are the same two patterns, ``_LOW_PLANES``, and
    each higher plane is one constant.  So the first block's two low planes
    are strided copies into a byte view of a zeroed column; each later block
    starts as a copy of the first, and only its higher planes are strided
    copies (a zero plane is skipped).  No Python int is made per id, and no
    temporary exceeds 64 KiB.
    """
    out = array("i", [0]) * n
    width = out.itemsize
    block = 1 << 16
    with memoryview(out) as ints, ints.cast("B") as octets:
        for a in range(0, n, block):
            m = min(block, n - a)
            if a:
                octets[width * a : width * (a + m)] = octets[: width * m]
            for p in range(2, width) if a else range(2):
                if p < 2:
                    plane = _LOW_PLANES[p]
                elif (a >> 8 * p) & 255:
                    plane = bytes(((a >> 8 * p) & 255,)) * m
                else:
                    continue
                byte = p if sys.byteorder == "little" else width - 1 - p
                with memoryview(plane) as view:
                    octets[width * a + byte : width * (a + m) : width] = view[:m]
    return out


def gather(column: array, ids: array) -> array:
    """``array("i", map(column.__getitem__, ids))``, read in C by one
    ``itemgetter`` per ``CHUNK`` ids (one id alone gives no tuple), whose
    ints ``struct.pack`` converts into the column's bytes."""
    out = array("i")
    for a in range(0, len(ids), CHUNK):
        got = itemgetter(*ids[a : a + CHUNK])(column)
        out.frombytes(pack(f"{len(got)}i", *got) if type(got) is tuple else ID.pack(got))
    return out


def misses(column: array, i: int = 0) -> Iterator[int]:
    """The indices of ``column``'s ``-1`` entries from ``i`` on, each found
    by a C-level search of a copy of its bytes for an all-ones entry; an
    entry may be rewritten once it is yielded.

    Ids are at least ``-1``, so an entry other than ``-1`` has a top byte of
    at most 0x7f, and an all-ones window that straddles two entries holds a
    ``-1`` entry's top byte: the first match is that entry, at its own
    offset (little-endian) or at the next one (big-endian).
    """
    width = column.itemsize
    ones = b"\xff" * width
    octets = column.tobytes()
    while (at := octets.find(ones, width * i)) != -1:
        i = (at + width - 1) // width
        yield i
        i += 1


def write_run(octets: memoryview, c: int, steps: Iterator[int]) -> int:
    """Write the ints of ``steps`` into a column's byte view from index
    ``c`` on, ``CHUNK`` at a time, until ``steps`` ends or raises
    ``IndexError``; return how many it wrote.

    ``list.extend`` keeps the ints read before the ``IndexError``, and
    ``struct.pack`` converts them, so each chunk is one slice write.
    """
    width = ID.size
    got = 0
    while True:
        run = []
        try:
            run.extend(islice(steps, CHUNK))
        except IndexError:
            more = False
        else:
            more = len(run) == CHUNK
        m = len(run)
        octets[width * (c + got) : width * (c + got + m)] = pack(f"{m}i", *run)
        got += m
        if not more:
            return got


#: :func:`write_tails` joins the tails of at most this many nodes at a time,
#: or one longer tail alone
TAIL_CHUNK = 1024


def write_tails(
    strings: tuple[bytes, ...],
    lcps: array,
    lens: array,
    firsts: array,
    depth: array,
    start: array,
    labels: bytearray | None,
) -> None:
    """Write each sorted string's tail of fresh trie nodes into ``depth``,
    ``start`` and, when given, ``labels``, as joins over runs of whole tails
    of at most ``TAIL_CHUNK`` nodes.

    Tail ``j`` (0-based) is the nodes ``firsts[j]`` up to ``firsts[j + 1] -
    1``: their depths are the ids ``lcps[j] + 1`` up to ``lens[j]``, a slice
    of the ids up to the longest string's length; their start is ``j + 1``,
    one packed id repeated; their edge bytes (``labels[v - 1]``: node
    ``v``'s) are the string past its lcp.  Each join is written through a
    byte view of its column, so beside those ids the only temporaries are
    one chunk's parts and its join.
    """
    k = len(strings)
    ids = iota(max(lens) + 1)
    with memoryview(ids) as id_ints, id_ints[1:] as depths, \
            memoryview(depth) as depth_ints, depth_ints.cast("B") as depth_octets, \
            memoryview(start) as start_ints, start_ints.cast("B") as start_octets:
        width = depth_ints.itemsize
        a = 0
        while a < k:
            node = firsts[a]
            b = max(a + 1, bisect_right(firsts, node + TAIL_CHUNK, a + 1) - 1)
            end = firsts[b]
            part_lcps = lcps[a:b]
            part_lens = lens[a:b]
            depth_octets[width * node : width * end] = b"".join(
                map(depths.__getitem__, map(slice, part_lcps, part_lens))
            )
            start_octets[width * node : width * end] = b"".join(
                map(mul, map(ID.pack, range(a + 1, b + 1)), map(sub, part_lens, part_lcps))
            )
            if labels is not None:
                labels[node - 1 : end - 1] = b"".join(
                    map(getitem, strings[a:b], map(slice, part_lcps, repeat(None)))
                )
            a = b
