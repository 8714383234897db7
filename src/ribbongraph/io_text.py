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
            m = re.match(rf"^vertex\s+({_LABEL})\s*:\s*(.*)$", line)
            if not m:
                raise ParseError("expected: vertex <name>: <label>.<1|2> ...", lineno)
            name, rest = m.group(1), m.group(2)
            ends = []
            for tok in rest.split():
                if not re.match(rf"^{_LABEL}\.[12]$", tok):
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
                if not re.match(rf"^[<>]{_LABEL}$", tok):
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


def _write_rows(head: str, items: Iterable[str], tail: str) -> None:
    """Write a JSON document with one large list to stdout, in chunks.

    ``head`` is the document up to the list and ``tail`` the rest after it;
    the list is a value of the top-level object, so each item comes already
    written at an indent of four.  Only one chunk of items is held at a
    time, and an empty list is written ``[]``, as :func:`emit` writes it.
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
    :func:`duality.spectrum_rows` to stdout, row by row; the bytes are
    those of :func:`emit` for the whole document.

    A row has fixed keys, so it is one template filled with its genus and
    its ``encode_basestring`` pieces, with no dict built.
    """
    texts: dict[Optional[str], str] = {None: ""}

    def items():
        for sub, gamma, orientable, text in rows:
            klass = texts.get(text)
            if klass is None:
                klass = texts[text] = f'"biseparation": {encode_basestring(text)},\n      '
            subset = (
                "[\n        " + ",\n        ".join(map(encode_basestring, sub)) + "\n      ]"
                if sub else "[]"
            )
            yield (
                f'{{\n      {klass}"euler_genus": {gamma},\n      '
                f'"orientable": {"true" if orientable else "false"},\n      '
                f'"subset": {subset}\n    }}'
            )

    _write_rows('{\n  "command": "spectrum",\n  "spectrum": ', items(), "\n}\n")


def write_certificates_json(certs) -> None:
    """Write ``{"biseparations": [...], "command": "biseparations"}`` for
    the certificates to stdout, one :func:`certificate_json` at a time;
    the bytes are those of :func:`emit` for the whole document."""

    def items():
        for cert in certs:
            out: list[str] = []
            _write_json(certificate_json(cert), out, "\n    ")
            yield "".join(out)

    _write_rows('{\n  "biseparations": ', items(), ',\n  "command": "biseparations"\n}\n')


def certificate_json(cert) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "subset": sorted(cert.subset),
        "trivial": cert.trivial,
        "class": cert.label,
        "genus_sum": cert.genus_sum,
        "components": [
            {
                "side": c.side,
                "vertices": sorted(c.vertices),
                "edges": sorted(c.edges),
                "euler_genus": c.euler_genus,
                "orientable": c.orientable,
            }
            for c in cert.components
        ],
        "tree": [
            {"components": [i, j], "vertex": v} for i, j, v in cert.tree_edges
        ],
    }


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
    characters kept, and a final newline.

    The bytes are those of ``json.dumps`` with ``sort_keys``, an indent of 2
    and ``ensure_ascii=False``, plus ``"\\n"``.  ``json`` drops from its C
    encoder to the pure-Python one whenever it indents; here one recursive
    writer fills one list, and strings go through ``json``'s C string
    encoder.  Keys are sorted on their original values, then written as
    ``json`` writes them (``1`` as ``"1"``, ``True`` as ``"true"``).  A value
    or key of another type raises :class:`TypeError`, as in ``json``; a
    reference cycle is not detected and ends in :class:`RecursionError`.
    """
    out: list[str] = []
    _write_json(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _json_key(k) -> str:
    """The text of a dict key that is not a string, checked in ``json``'s
    order: float, the singletons, int."""
    if isinstance(k, float):
        return '"' + _json_float(k) + '"'
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write_json(o, out: list, newline: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``newline`` is the line
    break and indent of ``o``'s own level.  A container writes its string,
    bool and int members in its own loop, without a call, as ``json``'s
    pure-Python encoder does."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for v in o:
            if isinstance(v, str):
                out.append(head + encode_basestring(v))
            elif v is True or v is False:
                out.append(head + ("true" if v else "false"))
            elif isinstance(v, int):
                out.append(head + int.__repr__(v))
            else:
                out.append(head)
                _write_json(v, out, inner)
            head = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            head = sep + (encode_basestring(k) if isinstance(k, str) else _json_key(k)) + ": "
            if isinstance(v, str):
                out.append(head + encode_basestring(v))
            elif v is True or v is False:
                out.append(head + ("true" if v else "false"))
            elif isinstance(v, int):
                out.append(head + int.__repr__(v))
            else:
                out.append(head)
                _write_json(v, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, str):
        out.append(encode_basestring(o))
    elif o is None:
        out.append("null")
    elif o is True or o is False:
        out.append("true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_json_float(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
