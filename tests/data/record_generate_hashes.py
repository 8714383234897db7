"""Record ``generate_hashes.json``: the exhaustive corpora, pinned by hash.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/data/record_generate_hashes.py

For each ``n`` from 0 to 5 it writes the number of graphs in
``generate(n)`` and the SHA-256 of their ``serialize_graph`` texts, in
corpus order, each text followed by an empty line.  The representatives,
their vertex names and their storage order are all pinned this way, not
only the classes.  ``tests/test_verify.py`` regenerates the corpora and
compares.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from ribbongraph.io_text import serialize_graph
from ribbongraph.verify import generate

OUT = Path(__file__).resolve().parent / "generate_hashes.json"

MAX_EDGES = 5


def digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(serialize_graph(g).encode("utf-8") + b"\n")
    return h.hexdigest()


def record() -> dict:
    out = {}
    for n in range(MAX_EDGES + 1):
        graphs = generate(n).graphs
        out[str(n)] = {"graphs": len(graphs), "sha256": digest(graphs)}
    return out


if __name__ == "__main__":
    OUT.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
