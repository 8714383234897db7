"""Text and structured formats for ribbon graphs and result types.

The line-oriented graph format::

    ribbon v1
    # comment
    name my-graph
    edge a +
    edge b -
    vertex u: a.1 b.1
    vertex w: a.2 b.2

and the arrow-presentation format::

    arrows v1
    cycle: >a <b >a >b

Labels match ``[A-Za-z0-9_]+``; rotations read clockwise; the twist sign
belongs to the edge, not to its ends.  ``parse(serialize(doc)) == doc``
holds bit-exactly for canonical serializations.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring  # the C string encoder when built
from typing import Iterable, Optional

from .core import (
    Arrow,
    ArrowPresentation,
    RibbonGraph,
    RibbonGraphError,
    build_graph,
    from_arrow_presentation,
)

_LABEL = r"[A-Za-z0-9_]+"
_LABEL_RE = re.compile(f"^{_LABEL}$")
_VERTEX_RE = re.compile(rf"^vertex\s+({_LABEL})\s*:\s*(.*)$")
_END_TOKEN_RE = re.compile(rf"^{_LABEL}\.[12]$")
_ARROW_TOKEN_RE = re.compile(rf"^[<>]{_LABEL}$")


class ParseError(RibbonGraphError):
    """A syntax error, reported with its line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class GraphDocument:
    """A parsed graph file: header kind, payload and optional metadata."""

    kind: str  # "ribbon" or "arrows"
    version: int = 1
    name: Optional[str] = None
    notes: list[str] = field(default_factory=list)
    edges: list[tuple[str, int]] = field(default_factory=list)
    vertices: list[tuple[str, list[str]]] = field(default_factory=list)
    cycles: list[list[tuple[str, bool]]] = field(default_factory=list)

    def graph(self) -> RibbonGraph:
        """Build (and validate) the ribbon graph this document describes."""
        if self.kind == "ribbon":
            return build_graph(
                [(n, rot) for n, rot in self.vertices],
                {lab: s for lab, s in self.edges},
            )
        cycles = [[Arrow(lab, fwd) for lab, fwd in cyc] for cyc in self.cycles]
        return from_arrow_presentation(ArrowPresentation(cycles))


def parse(text: str) -> GraphDocument:
    """Parse either graph format; syntax errors carry line positions."""
    doc: Optional[GraphDocument] = None
    labels: set[str] = set()  # edge labels seen so far
    names: set[str] = set()  # vertex names seen so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if doc is None:
            if words == ["ribbon", "v1"]:
                doc = GraphDocument(kind="ribbon")
            elif words == ["arrows", "v1"]:
                doc = GraphDocument(kind="arrows")
            else:
                raise ParseError(
                    f"expected header 'ribbon v1' or 'arrows v1', got {line!r}", lineno
                )
            continue
        keyword = words[0]
        if keyword == "name":
            if len(words) != 2:
                raise ParseError("name takes one token", lineno)
            doc.name = words[1]
        elif keyword == "note":
            doc.notes.append(line[len("note") :].strip())
        elif keyword == "edge":
            if doc.kind != "ribbon":
                raise ParseError("edge lines belong to the ribbon format", lineno)
            if len(words) != 3 or words[2] not in ("+", "-"):
                raise ParseError("expected: edge <label> <+|->", lineno)
            if not _LABEL_RE.match(words[1]):
                raise ParseError(f"bad label {words[1]!r}", lineno)
            if words[1] in labels:
                raise ParseError(f"duplicate edge label {words[1]!r}", lineno)
            labels.add(words[1])
            doc.edges.append((words[1], 1 if words[2] == "+" else -1))
        elif keyword == "vertex":
            if doc.kind != "ribbon":
                raise ParseError("vertex lines belong to the ribbon format", lineno)
            m = _VERTEX_RE.match(line)
            if not m:
                raise ParseError("expected: vertex <name>: <label>.<1|2> ...", lineno)
            name, rest = m.group(1), m.group(2)
            ends = []
            for tok in rest.split():
                if not _END_TOKEN_RE.match(tok):
                    raise ParseError(f"bad edge end {tok!r}", lineno)
                ends.append(tok)
            if name in names:
                raise ParseError(f"duplicate vertex name {name!r}", lineno)
            names.add(name)
            doc.vertices.append((name, ends))
        elif keyword == "cycle:" or keyword == "cycle":
            if doc.kind != "arrows":
                raise ParseError("cycle lines belong to the arrows format", lineno)
            rest = line.split(":", 1)
            if len(rest) != 2:
                raise ParseError("expected: cycle: [<|>]<label> ...", lineno)
            arrows = []
            for tok in rest[1].split():
                if not _ARROW_TOKEN_RE.match(tok):
                    raise ParseError(f"bad arrow {tok!r}", lineno)
                arrows.append((tok[1:], tok[0] == ">"))
            doc.cycles.append(arrows)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if doc is None:
        raise ParseError("empty document", 1)
    return doc


# -- serialization ---------------------------------------------------------------


def serialize(doc: GraphDocument) -> str:
    """Canonical text for a document: fixed field order, stable across runs."""
    lines = [f"{doc.kind} v1"]
    if doc.name:
        lines.append(f"name {doc.name}")
    for note in doc.notes:
        lines.append(f"note {note}")
    if doc.kind == "ribbon":
        for lab, s in doc.edges:
            lines.append(f"edge {lab} {'+' if s > 0 else '-'}")
        for name, ends in doc.vertices:
            lines.append(f"vertex {name}:" + ("" if not ends else " " + " ".join(ends)))
    else:
        for cyc in doc.cycles:
            toks = " ".join((">" if fwd else "<") + lab for lab, fwd in cyc)
            lines.append("cycle:" + ("" if not toks else " " + toks))
    return "\n".join(lines) + "\n"


def document_of(g: RibbonGraph, name: Optional[str] = None) -> GraphDocument:
    return GraphDocument(
        kind="ribbon",
        name=name,
        edges=[(lab, g.sign(lab)) for lab in g.edge_labels],
        vertices=[(n, [str(e) for e in rot]) for n, rot in zip(g.vertex_names, g.rotations)],
    )


def document_of_presentation(p: ArrowPresentation) -> GraphDocument:
    return GraphDocument(
        kind="arrows",
        cycles=[[(a.label, a.forward) for a in cyc] for cyc in p.cycles],
    )


def serialize_graph(g: RibbonGraph, name: Optional[str] = None) -> str:
    return serialize(document_of(g, name))


def document_json(doc: GraphDocument) -> dict:
    """Structured form mirroring the text 1:1."""
    out: dict = {"format": doc.kind, "version": doc.version}
    if doc.name:
        out["name"] = doc.name
    if doc.notes:
        out["notes"] = list(doc.notes)
    if doc.kind == "ribbon":
        out["edges"] = [{"label": lab, "sign": "+" if s > 0 else "-"} for lab, s in doc.edges]
        out["vertices"] = [{"name": n, "rotation": list(ends)} for n, ends in doc.vertices]
    else:
        out["cycles"] = [
            [{"label": lab, "direction": ">" if fwd else "<"} for lab, fwd in cyc]
            for cyc in doc.cycles
        ]
    return out


def document_from_json(data: dict) -> GraphDocument:
    kind = data.get("format")
    if kind == "ribbon":
        return GraphDocument(
            kind="ribbon",
            name=data.get("name"),
            notes=list(data.get("notes", [])),
            edges=[(e["label"], 1 if e["sign"] == "+" else -1) for e in data["edges"]],
            vertices=[(v["name"], list(v["rotation"])) for v in data["vertices"]],
        )
    if kind == "arrows":
        return GraphDocument(
            kind="arrows",
            name=data.get("name"),
            notes=list(data.get("notes", [])),
            cycles=[
                [(a["label"], a["direction"] == ">") for a in cyc]
                for cyc in data["cycles"]
            ],
        )
    raise RibbonGraphError(f"unknown document format {kind!r}")


# -- result rendering --------------------------------------------------------------


def stats_text(st) -> str:
    parts = [
        f"vertices={st.n_vertices}",
        f"edges={st.n_edges}",
        f"boundary={st.n_boundary}",
        f"components={st.n_components}",
        f"χ={st.euler_characteristic}",
        st.summary(),
    ]
    return " ".join(parts)


def stats_json(st) -> dict:
    return {
        "vertices": st.n_vertices,
        "edges": st.n_edges,
        "boundary_components": st.n_boundary,
        "connected_components": st.n_components,
        "euler_characteristic": st.euler_characteristic,
        "orientable": st.orientable,
        "euler_genus": st.euler_genus,
        "genus": st.genus,
        "surface": st.surface,
    }


def subset_text(sub) -> str:
    return "∅" if not sub else "{" + ",".join(sorted(sub)) + "}"


def write_spectrum_text(rows) -> None:
    """Write the rows of :func:`duality.spectrum_rows` to stdout as lines
    in chunks, or one empty line if there is no row."""
    write = sys.stdout.write
    flags = {True: "orientable", False: "non-orientable"}
    chunk: list[str] = []
    n = 0
    for n, (sub, gamma, orientable, text) in enumerate(rows, 1):
        extra = f"  {text}" if text else ""
        chunk.append(f"{subset_text(sub)} γ={gamma} {flags[orientable]}{extra}\n")
        if n % 512 == 0:
            write("".join(chunk))
            chunk.clear()
    write("".join(chunk) if n else "\n")


def polynomial_text(poly: dict) -> str:
    """One line per Euler genus reached: ``γ=k: n`` for ``n`` subsets."""
    return "\n".join(f"γ={k}: {n}" for k, n in sorted(poly.items()))


def _list_at(newline: str):
    """A writer of JSON lists whose items come already written, indented as
    ``json.dumps`` indents them: ``newline`` is the line break and indent
    of the list's own level, and an empty list is ``[]``.  A list of
    strings is one of their ``encode_basestring`` texts."""
    head, sep, tail = "[" + newline + "  ", "," + newline + "  ", newline + "]"

    def write(items: Iterable[str]) -> str:
        body = sep.join(items)
        return head + body + tail if body else "[]"

    return write


_ITEM_LIST = _list_at("\n      ")  # a list held by an item of the large list
_INNER_LIST = _list_at("\n          ")  # a list held by an item of such a list


def _write_rows(head: str, items: Iterable[str], tail: str) -> None:
    """Write a JSON document with one large list to stdout, in chunks.

    ``head`` is the document up to the list and ``tail`` the rest after it;
    the list is a value of the top-level object, so each item comes already
    written at an indent of four.  Only one chunk of items is held at a
    time, and an empty list is written ``[]``, as ``json.dumps`` writes it.
    """
    write = sys.stdout.write
    chunk = [head]
    sep = "[\n    "
    for item in items:
        chunk.append(sep + item)
        sep = ",\n    "
        if len(chunk) >= 512:
            write("".join(chunk))
            chunk.clear()
    chunk.append("[]" if sep == "[\n    " else "\n  ]")
    chunk.append(tail)
    write("".join(chunk))


def write_spectrum_json(rows) -> None:
    """Write ``{"command": "spectrum", "spectrum": ...}`` for the rows of
    :func:`duality.spectrum_rows` to stdout, row by row.

    A row has fixed keys, so it is one template filled with its genus and
    its ``encode_basestring`` pieces, with no dict built; the bytes are
    those of :func:`emit` for the whole document.
    """
    texts: dict[Optional[str], str] = {None: ""}

    def items():
        for sub, gamma, orientable, text in rows:
            klass = texts.get(text)
            if klass is None:
                klass = texts[text] = f'"biseparation": {encode_basestring(text)},\n      '
            yield (
                f'{{\n      {klass}"euler_genus": {gamma},\n      '
                f'"orientable": {"true" if orientable else "false"},\n      '
                f'"subset": {_ITEM_LIST(map(encode_basestring, sub))}\n    }}'
            )

    _write_rows('{\n  "command": "spectrum",\n  "spectrum": ', items(), "\n}\n")


def write_certificates_json(certs) -> None:
    """Write ``{"biseparations": [...], "command": "biseparations"}`` for
    the :class:`decomposition.BiseparationCertificate` values ``certs`` to
    stdout, one at a time.

    A certificate, each of its side components and each of its tree edges
    has fixed keys, so each is one template, its lists sorted and no dict
    built; the bytes are those of :func:`emit` for the whole document.
    """

    def component(c) -> str:
        return (
            f'{{\n          "edges": {_INNER_LIST(map(encode_basestring, sorted(c.edges)))},'
            f'\n          "euler_genus": {c.euler_genus},'
            f'\n          "orientable": {"true" if c.orientable else "false"},'
            f'\n          "side": {encode_basestring(c.side)},'
            f'\n          "vertices": {_INNER_LIST(map(encode_basestring, sorted(c.vertices)))}'
            f'\n        }}'
        )

    def tree_edge(i: int, j: int, v: str) -> str:
        return (
            f'{{\n          "components": {_INNER_LIST((str(i), str(j)))},'
            f'\n          "vertex": {encode_basestring(v)}\n        }}'
        )

    def items():
        for cert in certs:
            yield (
                f'{{\n      "class": {encode_basestring(cert.label)},'
                f'\n      "components": {_ITEM_LIST(map(component, cert.components))},'
                f'\n      "genus_sum": {cert.genus_sum},'
                f'\n      "subset": {_ITEM_LIST(map(encode_basestring, sorted(cert.subset)))},'
                f'\n      "tree": {_ITEM_LIST(tree_edge(*e) for e in cert.tree_edges)},'
                f'\n      "trivial": {"true" if cert.trivial else "false"}\n    }}'
            )

    _write_rows('{\n  "biseparations": ', items(), ',\n  "command": "biseparations"\n}\n')


def join_tree_text(tree) -> str:
    lines = [f"{tree.n_factors} prime factor(s)"]
    for i, f in enumerate(tree.factors):
        lines.append(f"  factor {i}: {subset_text(f)}")
    for v, owners in tree.joints:
        lines.append(f"  joined at {v}: factors {', '.join(map(str, owners))}")
    return "\n".join(lines)


def join_tree_json(tree) -> dict:
    return {
        "factors": [sorted(f) for f in tree.factors],
        "joints": [{"vertex": v, "factors": list(o)} for v, o in tree.joints],
    }


def move_trace_text(trace) -> str:
    if not trace.steps:
        return "already equivalent (empty move sequence)"
    lines = []
    for i, s in enumerate(trace.steps, start=1):
        lines.append(f"  step {i}: {s.kind} on {subset_text(s.edges)}")
    return "\n".join(lines)


def move_trace_json(trace) -> dict:
    return {
        "steps": [{"kind": s.kind, "edges": sorted(s.edges)} for s in trace.steps],
        "codes": list(trace.codes),
    }


def emit(data) -> str:
    """``data`` as a JSON document: keys sorted, two-space indent, non-ASCII
    characters kept, and a final newline."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
