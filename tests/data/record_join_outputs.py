"""Record ``join_cli_outputs.json``: the CLI outputs of join-heavy graphs.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/data/record_join_outputs.py

For each graph it writes the graph file's text, the edges of its first
prime factor, and the stdout of every pinned command, keyed by the
command's arguments after the file name.  ``relate --json`` relates the
graph to the recorded ``dual --edges`` output, its partial dual on that
factor.  ``tests/test_io_cli.py`` replays the commands and compares the
outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from ribbongraph import build_graph, single_vertex
from ribbongraph.cli import main
from ribbongraph.decomposition import prime_factorization
from ribbongraph.io_text import serialize_graph

OUT = Path(__file__).resolve().parent / "join_cli_outputs.json"

COMMANDS = (
    "factor",
    "factor --json",
    "spectrum --classes",
    "spectrum --classes --json",
    "spectrum --json --genus 0",
    "biseparations --json",
)


def _triangle_chain(k: int):
    """``k`` triangles in a row, each glued to the next at one vertex, with
    each triangle's ends on a contiguous arc of the shared rotation."""
    rot: dict[str, list[str]] = {f"x{i}": [] for i in range(k + 1)}
    for i in range(k):
        a, b, c = f"a{i}", f"b{i}", f"c{i}"  # x_i-x_(i+1), x_(i+1)-y_i, y_i-x_i
        rot[f"x{i}"] += [f"{c}.2", f"{a}.1"]
        rot[f"x{i + 1}"] += [f"{a}.2", f"{b}.1"]
        rot[f"y{i}"] = [f"{b}.2", f"{c}.1"]
    signs = {f"{x}{i}": "+" for i in range(k) for x in "abc"}
    return build_graph(rot, signs)


def _path(n: int):
    rot = {f"p{i}": [] for i in range(n + 1)}
    for i in range(n):
        rot[f"p{i}"].append(f"e{i}.1")
        rot[f"p{i + 1}"].insert(0, f"e{i}.2")
    return build_graph(rot, {f"e{i}": "+" for i in range(n)})


def graphs() -> dict:
    """The pinned graphs, by short name."""
    return {
        "triangles3": _triangle_chain(3),
        "path6": _path(6),
        "bouquet": single_vertex("a a b b c c"),
        # {a,b} interleaved (b twisted), c around {d,e}, d and e interleaved
        "loops": single_vertex("a b a b c d e d e c", "+-+++"),
        # a triangle u-v-w with the torus T1 joined on at u
        "cycle_t1": build_graph(
            {
                "u": ["c.2", "a.1", "d.1", "e.1", "d.2", "e.2"],
                "v": ["a.2", "b.1"],
                "w": ["b.2", "c.1"],
            },
            {"a": "+", "b": "+", "c": "+", "d": "+", "e": "+"},
        ),
    }


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def record() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, g in graphs().items():
            text = serialize_graph(g)
            path = Path(tmp) / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            edges = ",".join(sorted(prime_factorization(g).factors[0]))
            outputs = {c: _run([c.split()[0], str(path)] + c.split()[1:]) for c in COMMANDS}
            dual = outputs[f"dual --edges {edges}"] = _run(["dual", str(path), "--edges", edges])
            dual_path = Path(tmp) / f"{name}.dual.txt"
            dual_path.write_text(dual, encoding="utf-8")
            outputs["relate --json"] = _run(["relate", str(path), str(dual_path), "--json"])
            out[name] = {"graph": text, "factor_edges": edges, "outputs": outputs}
    return out


if __name__ == "__main__":
    OUT.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.exit(0)
