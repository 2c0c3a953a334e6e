"""Seeded inputs of the benchmark's workloads and their query batches.

``hog`` receives only the generated strings; the seed stays here.
"""

from __future__ import annotations

from dataclasses import dataclass

from hog.datasets import SplitMix64, StringSet, generate_random, normalize

from tracing import Tracer

WORKLOADS = ("dna-long", "dna-short", "reads")


@dataclass(frozen=True)
class Size:
    dna_long: tuple[int, int]  # (k, n) for generate_random
    dna_short: tuple[int, int]
    reads: tuple[int, int, int]  # (genome length, read count, read length)
    cmp_strings: int  # strings in the marker-comparison graph
    query_slice_s: float  # least query time per benchmark round
    marker_slice_s: float  # least time per marker per round: short ones repeat


SIZES = {
    "full": Size(
        dna_long=(2_000, 200_000),
        dna_short=(20_000, 200_000),
        reads=(5_000, 400, 500),
        cmp_strings=2_000,
        query_slice_s=0.1,
        marker_slice_s=0.05,
    ),
    "smoke": Size(
        dna_long=(100, 10_000),
        dna_short=(1_000, 10_000),
        reads=(1_000, 50, 100),
        cmp_strings=40,
        query_slice_s=0.01,
        marker_slice_s=0.01,
    ),
}

_ACGT = bytes(b"ACGT"[b % 4] for b in range(256))


def sample_reads(genome_len: int, count: int, length: int, seed: int) -> list[bytes]:
    """``count`` reads of ``length`` bytes at uniform positions of a random
    ACGT genome; duplicates are kept, as a sequencer would report them."""
    rng = SplitMix64(seed)
    genome = bytes(rng.byte_block(genome_len).translate(_ACGT))
    span = genome_len - length + 1
    return [
        genome[p : p + length]
        for p in (rng.next_u64() % span for _ in range(count))
    ]


def generate(
    workload: str, seed: int, size: Size, tracer: Tracer
) -> tuple[list[bytes], StringSet]:
    """Inputs of one workload: the raw strings in input order, and the
    normalized set.

    ``generate_random`` normalizes internally, so on the DNA workloads the
    traced run makes one extra ``normalize`` call on the raw strings to time
    that layer on its own.
    """
    if workload == "reads":
        with tracer.span("datasets.generate"):
            raw = sample_reads(*size.reads, seed)
        with tracer.span("datasets.normalize"):
            ss = normalize(raw)
        return raw, ss
    k, n = size.dna_long if workload == "dna-long" else size.dna_short
    with tracer.span("datasets.generate"):
        ss = generate_random(k, n, b"ACGT", seed)
    raw = [ss.strings[j - 1] for j in ss.orig_to_sorted[1:]]
    if tracer.enabled:
        with tracer.span("datasets.normalize"):
            normalize(raw)
    return raw, ss


# Query mix in percent; R and C use half the longest string as the minimum
# overlap, T asks for the 10 largest overlaps.
MIX = (("O", 40), ("T", 20), ("C", 15), ("R", 15), ("A", 10))
TOP_C = 10
BATCH = 1_000  # queries in a batch: enough that its latencies differ little by seed


def query_batch(ss: StringSet, seed: int) -> list[tuple]:
    """A seeded batch of ``BATCH`` queries over 1-based original string
    positions, each operation's share exactly as in ``MIX``, in shuffled
    order."""
    rng = SplitMix64(seed ^ 0x51554552595F4D49)
    k0 = ss.orig_count
    half = max(len(s) for s in ss.strings) // 2
    ops = [op for op, share in MIX for _ in range(share * BATCH // 100)]
    for i in range(len(ops) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        ops[i], ops[j] = ops[j], ops[i]
    batch: list[tuple] = []
    for op in ops:
        i = 1 + rng.next_u64() % k0
        if op == "O":
            batch.append((op, i, 1 + rng.next_u64() % k0))
        elif op == "A":
            batch.append((op, i))
        elif op == "T":
            batch.append((op, i, TOP_C))
        else:
            batch.append((op, i, half))
    return batch
