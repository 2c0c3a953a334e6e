"""Compact all-pairs suffix-prefix overlap structures.

Build the full prefix trie of a string set, contract it to the extended
overlap structure in linear time, then mark and contract again to the
minimal one with any of four interchangeable algorithms; query maximal
overlaps over the result and benchmark everything from a CLI (``hog``).
"""

from .baselines import (
    IntervalCoverTree,
    MARKERS,
    SuffixLists,
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
from .bench import (
    BenchError,
    BenchReport,
    BenchRow,
    CSV_HEADER,
    bench_point,
    measure_peak_memory,
    run_marking,
    sweep,
    write_csv,
)
from .datasets import (
    SplitMix64,
    StringSet,
    dump_lines,
    generate_random,
    load_fasta,
    load_lines,
    normalize,
)
from .ehog import EhogBuild, build_ehog, mark_ehog
from .marking import (
    FavStructure,
    MarkTimeout,
    mark_hog_new,
    precompute_fav,
)
from .queries import QueryEngine, parse_batch, run_batch
from .trie import (
    KIND_ACT,
    KIND_EHOG,
    KIND_HOG,
    MarkVector,
    OverlapTrie,
    build_act,
    contract,
    leaf_intervals,
    to_text,
    verify_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BenchError",
    "BenchReport",
    "BenchRow",
    "CSV_HEADER",
    "EhogBuild",
    "FavStructure",
    "IntervalCoverTree",
    "KIND_ACT",
    "KIND_EHOG",
    "KIND_HOG",
    "MARKERS",
    "MarkTimeout",
    "MarkVector",
    "OverlapTrie",
    "QueryEngine",
    "SplitMix64",
    "StringSet",
    "SuffixLists",
    "algorithm_names",
    "bench_point",
    "brute_force_ov",
    "build_act",
    "build_ehog",
    "build_suffix_lists",
    "contract",
    "dump_lines",
    "generate_random",
    "get_marker",
    "leaf_intervals",
    "load_fasta",
    "load_lines",
    "mark_ehog",
    "mark_hog_cazaux",
    "mark_hog_khan",
    "mark_hog_new",
    "mark_hog_oracle",
    "mark_hog_parkcpr",
    "measure_peak_memory",
    "normalize",
    "ov_length",
    "parse_batch",
    "precompute_fav",
    "run_batch",
    "run_marking",
    "sweep",
    "to_text",
    "verify_structure",
    "write_csv",
]
