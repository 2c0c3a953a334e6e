"""Exit 0 when generate_random still draws the pinned strings.

Two sets are pinned: one with 192 redraws, one over two letters.  Each dump
holds the sorted strings, one per line, then orig_to_sorted.  Any other
digest exits 1.  Usage: PYTHONPATH=src python generated_inputs_pinned.py
"""

import hashlib
import sys

from hog.datasets import generate_random

PINS = (
    ((20_000, 200_000, b"ACGT", 1), "eca37e802bd6facf921d96d792cc5b27a92be7b7378bcc8809a349ffb2b9be9d"),
    ((40, 2000, b"ab", 3), "4b9187ca1e09c8f70d353ad03d951dbec49ddebbb71249a5afbd07691acf800f"),
)

ok = True
for args, pin in PINS:
    ss = generate_random(*args)
    dump = b"".join(s + b"\n" for s in ss.strings)
    dump += " ".join(map(str, ss.orig_to_sorted[1:])).encode() + b"\n"
    same = hashlib.sha256(dump).hexdigest() == pin
    print(f"{args}: {'OK' if same else 'FAILED'}")
    ok &= same
sys.exit(not ok)
