"""Compact all-pairs suffix-prefix overlap structures.

Build the full prefix trie of a string set, contract it to the extended
overlap structure in linear time, then mark and contract again to the
minimal one with any of four interchangeable algorithms; query maximal
overlaps over the result and benchmark everything from a CLI (``hog``).
The package root holds only the version; import from the modules
(``hog.trie``, ``hog.queries`` and so on).
"""

__version__ = "0.1.0"
