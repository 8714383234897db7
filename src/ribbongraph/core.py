"""Ribbon graphs as signed rotation systems.

A ribbon graph is a surface with boundary assembled from vertex discs and
edge bands.  We store it combinatorially: every vertex carries a cyclic
sequence of edge ends (its rotation, always read in a fixed chirality) and
every edge carries a twist sign, ``+1`` for an untwisted band and ``-1``
for a band with a half twist.

Conventions, fixed here once and validated by the calibration fixtures in
the test suite:

* The two ends of edge ``e`` are written ``e.1`` and ``e.2``.  A loop has
  both ends on one vertex, but they remain two distinct ends.
* The boundary circle of the band of ``e`` traverses the attachment arc of
  ``e.1`` in rotation direction, and the arc of ``e.2`` in rotation
  direction when the sign is ``+1`` and against it when the sign is ``-1``.
  Consequently an arrow presentation shows equal relative arrow directions
  for an untwisted edge and opposite directions for a twisted edge.
* Flipping a vertex reverses its rotation and toggles the sign of every
  non-loop edge with exactly one end there; loop signs are unchanged.
  Vertex flips, edge relabellings and storage-order changes generate
  equivalence of ribbon graphs (a global reflection is the flip of every
  vertex at once).

Everything in this module is immutable after construction; operations are
pure functions returning new values.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union


class RibbonGraphError(Exception):
    """Base class for errors raised by this package."""


class InvalidGraph(RibbonGraphError):
    """A rotation-system description violates a structural invariant."""


class UnknownEdge(RibbonGraphError):
    """An edge label does not name an edge of the host graph."""


class InvariantViolation(RibbonGraphError):
    """A property the package guarantees failed to hold: a defect in the
    package, not in its input."""


class End(NamedTuple):
    """One of the two ends of an edge, e.g. ``End('a', 1)`` for ``a.1``."""

    label: str
    slot: int

    def __str__(self) -> str:
        return f"{self.label}.{self.slot}"


class Mark(NamedTuple):
    """A directed labelled marking arrow sitting in a vertex rotation."""

    label: str
    forward: bool

    def __str__(self) -> str:
        return (">" if self.forward else "<") + self.label


class Arrow(NamedTuple):
    """A directed labelled arrow on an oriented cycle."""

    label: str
    forward: bool

    def __str__(self) -> str:
        return (">" if self.forward else "<") + self.label


_END_RE = re.compile(r"^([A-Za-z0-9_]+)\.([12])$")

EndLike = Union[End, str]
EdgeSubset = frozenset


def as_end(item: EndLike) -> End:
    """Coerce ``"a.1"`` or an :class:`End` to an :class:`End`."""
    if isinstance(item, End):
        if item.slot not in (1, 2):
            raise InvalidGraph(f"bad end slot in {item!r}")
        return item
    m = _END_RE.match(item)
    if not m:
        raise InvalidGraph(f"malformed edge end {item!r} (expected label.1 or label.2)")
    return End(m.group(1), int(m.group(2)))


def per_graph(fn):
    """Memoise ``fn(g)`` on the graph ``g``.

    A graph is immutable, so a value derived from it alone never goes
    stale.  Each graph has one declared memo slot, a dict keyed by the
    decorated function (which must not return ``None``); only values that
    callers really reuse are kept there, never one per edge subset.
    """

    @functools.wraps(fn)
    def memoised(g):
        value = g._memo.get(fn)
        if value is None:
            value = g._memo[fn] = fn(g)
        return value

    return memoised


def _bits(mask: int) -> list[int]:
    """The indices of the bits set in ``mask``, ascending, one step per set
    bit: for an edge mask, its edges in the order of their sorted labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _as_sign(value) -> int:
    if value in (1, +1, "+"):
        return 1
    if value in (-1, "-"):
        return -1
    raise InvalidGraph(f"bad twist sign {value!r} (expected + or -)")


class RibbonGraph:
    """An immutable ribbon graph given by a signed rotation system.

    ``vertices`` maps vertex names to rotations; a rotation is the cyclic
    sequence of edge ends at the vertex, stored in the package's fixed
    chirality.  ``signs`` maps each edge label to its twist sign.
    """

    __slots__ = ("_names", "_rots", "_signs", "_memo")

    def __init__(self, vertices, signs, _validate: bool = True):
        names = []
        rots = []
        for name, rotation in vertices.items() if isinstance(vertices, Mapping) else vertices:
            names.append(str(name))
            rots.append(tuple(as_end(x) for x in rotation))
        self._names = tuple(names)
        self._rots = tuple(rots)
        self._signs = {str(k): _as_sign(v) for k, v in dict(signs).items()}
        self._memo: dict = {}  # see per_graph
        if _validate:
            self._check()

    def _check(self) -> None:
        if len(set(self._names)) != len(self._names):
            dup = next(n for n in self._names if self._names.count(n) > 1)
            raise InvalidGraph(f"duplicate vertex name {dup!r}")
        seen: dict[End, str] = {}
        for name, rot in zip(self._names, self._rots):
            for e in rot:
                if e in seen:
                    raise InvalidGraph(
                        f"duplicate edge end {e} at vertex {name!r} (already at {seen[e]!r})"
                    )
                if e.label not in self._signs:
                    raise InvalidGraph(f"unknown edge end {e} at vertex {name!r}: no such edge")
                seen[e] = name
        for label in self._signs:
            for slot in (1, 2):
                if End(label, slot) not in seen:
                    raise InvalidGraph(f"missing end {label}.{slot} for edge {label!r}")

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self._names

    def rotation(self, name: str) -> tuple[End, ...]:
        try:
            return self._rots[self._names.index(name)]
        except ValueError:
            raise InvalidGraph(f"no vertex named {name!r}") from None

    @property
    def rotations(self) -> tuple[tuple[End, ...], ...]:
        return self._rots

    @property
    def edge_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._signs))

    def sign(self, label: str) -> int:
        try:
            return self._signs[label]
        except KeyError:
            raise UnknownEdge(f"unknown edge {label!r}") from None

    @property
    def signs(self) -> dict[str, int]:
        return dict(self._signs)

    @property
    def n_vertices(self) -> int:
        return len(self._names)

    @property
    def n_edges(self) -> int:
        return len(self._signs)

    def degree(self, name: str) -> int:
        return len(self.rotation(name))

    def ends_of(self, label: str) -> tuple[tuple[str, int], tuple[str, int]]:
        """Locate both ends of ``label`` as ``(vertex name, position)`` pairs."""
        self.sign(label)
        idx = self._indexed()
        d = 2 * idx.eindex[label]
        return (
            (self._names[idx.dart_vertex[d]], idx.dart_pos[d]),
            (self._names[idx.dart_vertex[d + 1]], idx.dart_pos[d + 1]),
        )

    def check_subset(self, edges: Iterable[str]) -> frozenset:
        """Validate an edge subset against this graph and freeze it."""
        sub = frozenset(edges)
        for label in sub:
            if label not in self._signs:
                raise UnknownEdge(f"unknown edge {label!r}")
        return sub

    def complement(self, edges: Iterable[str]) -> frozenset:
        return frozenset(self._signs) - self.check_subset(edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RibbonGraph):
            return NotImplemented
        return (
            self._names == other._names
            and self._rots == other._rots
            and self._signs == other._signs
        )

    def __hash__(self) -> int:
        return hash((self._names, self._rots, tuple(sorted(self._signs.items()))))

    def __repr__(self) -> str:
        parts = []
        for name, rot in zip(self._names, self._rots):
            parts.append(f"{name}:({' '.join(map(str, rot))})")
        sgn = "".join("+" if self._signs[k] > 0 else "-" for k in sorted(self._signs))
        return f"RibbonGraph({'; '.join(parts)}; signs {sgn or '-none-'})"

    # -- equivalence generators (used by tests and canonical form) ------

    def flipped(self, name: str) -> "RibbonGraph":
        """Flip one vertex disc over."""
        i = self._names.index(name)
        rots = list(self._rots)
        rots[i] = tuple(reversed(rots[i]))
        signs = dict(self._signs)
        counts = {}
        for e in self._rots[i]:
            counts[e.label] = counts.get(e.label, 0) + 1
        for label, c in counts.items():
            if c == 1:
                signs[label] = -signs[label]
        return RibbonGraph(zip(self._names, rots), signs, _validate=False)

    def reflected(self) -> "RibbonGraph":
        """Mirror image: every vertex flipped at once."""
        g = self
        for name in self._names:
            g = g.flipped(name)
        return g

    def rotated(self, name: str, k: int) -> "RibbonGraph":
        """Rotate the stored start of one rotation (no geometric effect)."""
        i = self._names.index(name)
        rots = list(self._rots)
        rot = rots[i]
        if rot:
            k %= len(rot)
            rots[i] = rot[k:] + rot[:k]
        return RibbonGraph(zip(self._names, rots), self._signs, _validate=False)

    def reordered(self, order: Sequence[str]) -> "RibbonGraph":
        """Permute vertex storage order (no geometric effect)."""
        if sorted(order) != sorted(self._names):
            raise InvalidGraph("reordering must permute the vertex names")
        rots = dict(zip(self._names, self._rots))
        return RibbonGraph([(n, rots[n]) for n in order], self._signs, _validate=False)

    def relabeled(self, mapping: Mapping[str, str]) -> "RibbonGraph":
        """Rename edges by the given injective mapping."""
        new = {mapping.get(k, k) for k in self._signs}
        if len(new) != len(self._signs):
            raise InvalidGraph("edge relabelling must be injective")
        rots = tuple(
            tuple(End(mapping.get(e.label, e.label), e.slot) for e in rot)
            for rot in self._rots
        )
        signs = {mapping.get(k, k): v for k, v in self._signs.items()}
        return RibbonGraph(zip(self._names, rots), signs, _validate=False)

    # -- memoised derived data ------------------------------------------

    @per_graph
    def _indexed(self) -> "_Indexed":
        return _Indexed.of(self)

    @per_graph
    def canonical_code(self) -> str:
        return canonical_form(self)


class _Indexed:
    """Integer view of a graph: edge ``i`` is ``labels[i]`` in sorted order,
    with darts ``2*i`` and ``2*i + 1`` for its ends 1 and 2, ``rot[v]`` the
    darts of vertex ``v`` in rotation order and ``sign[i]`` edge ``i``'s
    twist.  The constructor takes those arrays, so the enumeration's
    children and the partial duals (:func:`duality._dual_view`) are built
    and coded with no named graph; :meth:`named` names a view at the
    boundary, and :meth:`of`, a named graph's ends translated into darts,
    is the oracle every such view is checked against.

    Every count the package reads off a spanning subgraph comes from this
    view and an edge bitmask (bit ``i`` for edge ``labels[i]``), with no
    subgraph built.  :meth:`parts` finds the components of the spanning
    subgraph on a mask and their orientability in one traversal;
    :attr:`components` and :attr:`component_of` hold its answer for the
    whole graph.  :meth:`walk_arrows` runs the boundary walks: dart ``d``
    has the arc endpoints ``2*d`` (in) and ``2*d + 1`` (out), numbered as
    :func:`topology.trace_walks` reads them; the free corners of the
    rotations pair endpoints once and for all, and every edge adds either
    its band pairings or its free-arc pairings, by its bit in the mask.
    Each walk records the arrow of every band side and free arc it
    crosses: the walks are the vertices of the partial dual on the mask.
    :meth:`walk_homes` counts the same walks and places each in its
    component.
    """

    __slots__ = (
        "labels", "eindex", "nv", "ne", "rot", "dart_vertex", "dart_pos", "sign",
        "components", "component_of", "_pairings", "_arrows", "_homes",
    )

    def __init__(self, labels: list[str], rot: list[list[int]], sign: list[int]):
        self.labels = labels
        self.eindex = {lab: i for i, lab in enumerate(labels)}
        self.nv = len(rot)
        self.ne = len(labels)
        self.rot = rot
        self.sign = sign
        self.dart_vertex = dart_vertex = [0] * (2 * self.ne)
        self.dart_pos = dart_pos = [0] * (2 * self.ne)
        for v, darts in enumerate(rot):
            for pos, d in enumerate(darts):
                dart_vertex[d] = v
                dart_pos[d] = pos
        self.components, self.component_of = self.parts((1 << self.ne) - 1)
        self._pairings = None
        self._arrows = None
        self._homes: dict[int, tuple[int, ...]] = {}

    @classmethod
    def of(cls, g: RibbonGraph) -> "_Indexed":
        """The view of a named graph, its ends translated into darts."""
        labels = sorted(g.signs)
        eindex = {lab: i for i, lab in enumerate(labels)}
        return cls(
            labels,
            [[2 * eindex[e.label] + e.slot - 1 for e in rot] for rot in g.rotations],
            [g.sign(lab) for lab in labels],
        )

    def named(self) -> tuple[list, dict[str, int]]:
        """Vertex rows and signs naming this view for :class:`RibbonGraph`:
        vertex ``v`` is ``v{v}`` and dart ``d`` the end ``d % 2 + 1`` of
        edge ``labels[d // 2]``."""
        ends = [End(lab, slot) for lab in self.labels for slot in (1, 2)]
        rows = [(f"v{v}", tuple(ends[d] for d in darts)) for v, darts in enumerate(self.rot)]
        return rows, dict(zip(self.labels, self.sign))

    def _endpoint_pairings(self) -> tuple[list[int], list[int], list[int]]:
        """Partner of every arc endpoint across its free corner, across its
        band side, and along its own free arc."""
        if self._pairings is None:
            n = 4 * self.ne
            corner = [0] * n
            for darts in self.rot:
                for j, d in enumerate(darts):
                    nxt = darts[(j + 1) % len(darts)]
                    corner[2 * d + 1] = 2 * nxt
                    corner[2 * nxt] = 2 * d + 1
            band = [0] * n
            arc = [0] * n
            for i in range(self.ne):
                h_in, h_out, k_in, k_out = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
                if self.sign[i] > 0:
                    sides = ((h_out, k_in), (k_out, h_in))
                else:
                    sides = ((h_out, k_out), (k_in, h_in))
                for table, pairs in ((band, sides), (arc, ((h_in, h_out), (k_in, k_out)))):
                    for a, b in pairs:
                        table[a], table[b] = b, a
            self._pairings = (corner, band, arc)
        return self._pairings

    def parts(self, mask: int) -> tuple[list[tuple[list[int], int, bool]], list[int]]:
        """Components of the spanning subgraph on the edges in ``mask``.

        Returns each component as ``(vertex indices, edge mask, orientable)``,
        edgeless vertices included, in order of first vertex, and the
        component index of every vertex.  One traversal propagates vertex
        flip parities along the edges; a clash, a twisted loop included,
        makes the component non-orientable.
        """
        rot, dart_vertex, sign = self.rot, self.dart_vertex, self.sign
        comp = [-1] * self.nv
        parity = [0] * self.nv
        out = []
        for start in range(self.nv):
            if comp[start] >= 0:
                continue
            ci = len(out)
            comp[start] = ci
            parity[start] = 1
            stack = [start]
            members = [start]
            edges = 0
            orientable = True
            while stack:
                v = stack.pop()
                for d in rot[v]:
                    e = d >> 1
                    if not mask >> e & 1:
                        continue
                    edges |= 1 << e
                    w = dart_vertex[d ^ 1]
                    want = parity[v] * sign[e]
                    if comp[w] < 0:
                        comp[w] = ci
                        parity[w] = want
                        stack.append(w)
                        members.append(w)
                    elif parity[w] != want:
                        orientable = False
            out.append((members, edges, orientable))
        return out, comp

    def edge_set(self, mask: int) -> frozenset:
        """The edge labels whose bits are set in ``mask``."""
        return frozenset(self.labels[i] for i in _bits(mask))

    def mask(self, edges: Iterable[str]) -> int:
        """Bit mask of an edge subset (bit ``i`` for edge ``labels[i]``)."""
        m = 0
        for lab in edges:
            m |= 1 << self.eindex[lab]
        return m

    def _arrow_table(self) -> list[tuple[int, bool]]:
        """The arrow ``(edge index, forward)`` a walk records when it leaves
        arc endpoint ``q`` across a band side or a free arc.

        ``forward`` tells whether a walk leaving ``q`` along its free arc
        runs with the arc's arrow: end 1's points in rotation direction,
        from in to out, and end 2's the same way exactly when the edge is
        untwisted (the convention of :func:`to_arrow_presentation`).  A band
        side records the same flag.  An edge's sign compares its two arrows
        only, and those are both band sides or both free arcs, so the
        band's own sense, the opposite one, would give the same graph.
        """
        if self._arrows is None:
            self._arrows = [
                # leaving an in endpoint runs in rotation direction, which
                # end 2 of a twisted edge points against
                (q >> 2, (not q & 1) != (q & 2 > 0 and self.sign[q >> 2] < 0))
                for q in range(4 * self.ne)
            ]
        return self._arrows

    def walk_arrows(self, mask: int) -> list[tuple[int, list[tuple[int, bool]]]]:
        """Every boundary walk of the spanning subgraph on the edges in
        ``mask`` that meets an edge, as ``(vertex, arrows)``.

        Edges in the mask are bands, the others free arcs, exactly as in
        :func:`topology.trace_walks`.  A walk starts at the first corner it
        passes in storage order, a corner of ``vertex``, leaving the out
        endpoint of the end before it; walks are listed in that order.  Each
        band side or free arc crossed records the arrow ``(edge index,
        forward)`` of :meth:`_arrow_table`, so every edge is recorded twice.
        An edgeless vertex has no walk here.
        """
        corner, band, arc = self._endpoint_pairings()
        arrow = self._arrow_table()
        seen = bytearray(4 * self.ne)
        walks = []
        for v, darts in enumerate(self.rot):
            for d in darts:
                p = 2 * d + 1
                if seen[p]:
                    continue
                arrows = []
                while not seen[p]:
                    q = corner[p]
                    seen[p] = seen[q] = 1
                    p = band[q] if mask >> (q >> 2) & 1 else arc[q]
                    arrows.append(arrow[q])
                walks.append((v, arrows))
        return walks

    def walk_homes(self, mask: int) -> tuple[int, ...]:
        """Home vertex of every boundary walk of the spanning subgraph on the
        edges in ``mask``, one entry per walk, memoised per mask.

        The walks are those of :meth:`walk_arrows`, each homed at the vertex
        where it starts, and an edgeless vertex is one bare walk.  A walk
        never leaves a component of the spanning subgraph, so its home
        places it in that component.
        """
        homes = self._homes.get(mask)
        if homes is None:
            homes = self._homes[mask] = tuple(
                [v for v, darts in enumerate(self.rot) if not darts]
                + [v for v, _ in self.walk_arrows(mask)]
            )
        return homes


# -- construction ---------------------------------------------------------


def _keep_view(g: RibbonGraph, view: _Indexed, code: Optional[str] = None) -> RibbonGraph:
    """Return ``g``, named from ``view`` by :meth:`_Indexed.named`, with
    ``view`` kept as its integer view and ``code``, if given, as its
    canonical code, so that neither is computed again."""
    g._memo[RibbonGraph._indexed.__wrapped__] = view
    if code is not None:
        g._memo[RibbonGraph.canonical_code.__wrapped__] = code
    return g


def build_graph(vertices, signs) -> RibbonGraph:
    """Build and validate a ribbon graph from a rotation-system description.

    ``vertices`` is a mapping (or sequence of pairs) from vertex name to a
    rotation, each rotation a sequence of ends given as ``End`` values or
    strings like ``"a.1"``.  ``signs`` maps edge labels to ``+1``/``-1`` or
    ``"+"``/``"-"``.  Errors report the offending end and vertex.
    """
    return RibbonGraph(vertices, signs)


def single_vertex(rotation: str = "", signs: str = "") -> RibbonGraph:
    """One-vertex graph from a compact description.

    ``rotation`` lists edge labels in cyclic order, each appearing twice,
    e.g. ``"a b a b"``; ``signs`` gives one ``+``/``-`` per distinct label
    in order of first appearance.
    """
    items = rotation.split()
    order: list[str] = []
    seen: dict[str, int] = {}
    ends = []
    for lab in items:
        seen[lab] = seen.get(lab, 0) + 1
        if seen[lab] == 1:
            order.append(lab)
        ends.append(End(lab, seen[lab]))
    sign_map = {}
    cleaned = signs.replace(" ", "")
    for i, lab in enumerate(order):
        sign_map[lab] = cleaned[i] if i < len(cleaned) else "+"
    return RibbonGraph({"v": ends}, sign_map)


def disjoint_union(*graphs: RibbonGraph) -> RibbonGraph:
    """Disjoint union; vertex names and edge labels are prefixed per part."""
    vertices = []
    signs = {}
    for i, g in enumerate(graphs):
        p = f"g{i}." if len(graphs) > 1 else ""
        for name, rot in zip(g.vertex_names, g.rotations):
            vertices.append((p + name, [End(p + e.label, e.slot) for e in rot]))
        for lab, s in g.signs.items():
            signs[p + lab] = s
    return RibbonGraph(vertices, signs)


# -- subgraphs ------------------------------------------------------------


def induced_subgraph(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """The ribbon subgraph induced by an edge subset: those edges plus the
    vertices incident to them, rotations restricted in cyclic order."""
    sub = g.check_subset(edges)
    vertices = []
    for name, rot in zip(g.vertex_names, g.rotations):
        rot = tuple(e for e in rot if e.label in sub)
        if rot:
            vertices.append((name, rot))
    return RibbonGraph(vertices, {k: g.sign(k) for k in sub}, _validate=False)


def delete_edges(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Delete an edge subset, keeping every vertex (isolated ones included)."""
    sub = g.check_subset(edges)
    vertices = [
        (name, tuple(e for e in rot if e.label not in sub))
        for name, rot in zip(g.vertex_names, g.rotations)
    ]
    signs = {k: v for k, v in g.signs.items() if k not in sub}
    return RibbonGraph(vertices, signs, _validate=False)


# -- arrow presentations ----------------------------------------------------


class ArrowPresentation:
    """A set of oriented cycles with directed labelled arrows, exactly two
    arrows per label.  An edge-free encoding of a ribbon graph."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: Iterable[Iterable[Arrow]], validate: bool = True):
        self.cycles = tuple(tuple(Arrow(a.label, bool(a.forward)) for a in c) for c in cycles)
        if validate:
            counts: dict[str, int] = {}
            for c in self.cycles:
                for a in c:
                    counts[a.label] = counts.get(a.label, 0) + 1
            for lab, n in counts.items():
                if n != 2:
                    raise InvalidGraph(f"label {lab!r} carries {n} arrows (need exactly 2)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArrowPresentation):
            return NotImplemented
        return self.cycles == other.cycles

    def __repr__(self) -> str:
        inner = "; ".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)
        return f"ArrowPresentation[{inner}]"


def to_arrow_presentation(g: RibbonGraph) -> ArrowPresentation:
    """Encode ``g`` as marked vertex-boundary cycles, one cycle per vertex.

    End 1 of every edge becomes a forward arrow; end 2 follows the edge
    boundary orientation, so it is forward exactly when the edge is
    untwisted.
    """
    cycles = []
    for rot in g.rotations:
        cyc = []
        for e in rot:
            fwd = True if e.slot == 1 else g.sign(e.label) > 0
            cyc.append(Arrow(e.label, fwd))
        cycles.append(cyc)
    return ArrowPresentation(cycles, validate=False)


def from_arrow_presentation(p: ArrowPresentation) -> RibbonGraph:
    """Rebuild the ribbon graph of an arrow presentation.

    Cycles become vertices (named ``v0``, ``v1``, ...); the two arrows of a
    label become the edge's ends, twisted exactly when their directions
    relative to their cycles disagree.
    """
    counts: dict[str, int] = {}
    first_dir: dict[str, bool] = {}
    vertices = []
    signs: dict[str, int] = {}
    for i, cyc in enumerate(p.cycles):
        rot = []
        for a in cyc:
            counts[a.label] = counts.get(a.label, 0) + 1
            slot = counts[a.label]
            if slot == 1:
                first_dir[a.label] = a.forward
            elif slot == 2:
                signs[a.label] = 1 if a.forward == first_dir[a.label] else -1
            else:
                raise InvalidGraph(f"label {a.label!r} carries more than 2 arrows")
            rot.append(End(a.label, slot))
        vertices.append((f"v{i}", rot))
    for lab, n in counts.items():
        if n != 2:
            raise InvalidGraph(f"label {lab!r} carries {n} arrows (need exactly 2)")
    return RibbonGraph(vertices, signs)


# -- canonical form ---------------------------------------------------------

_SEP_VERTEX = -1
_SEP_SIGNS = -2


def _trace(idx: _Indexed, start_dart: int, start_flip: int, best, labelled: bool = False):
    """Breadth-first code of the component of ``start_dart``.

    Vertices are numbered in discovery order; each vertex's rotation is read
    from its arrival dart, forwards or backwards according to the vertex's
    flip state; flips propagate so that every tree edge normalises to an
    untwisted band.  An edge's token is its discovery number, or with
    ``labelled`` its label index; the signs follow in discovery order.
    Returns the token list, or ``None`` as soon as a row compares greater
    than ``best``.
    """
    dart_vertex = idx.dart_vertex
    dart_pos = idx.dart_pos
    esign = idx.sign

    vflip = [0] * idx.nv  # 0 until discovered, then the flip state
    emap = [-1] * idx.ne  # edge token, -1 until discovered
    eorder: list[int] = []
    v0 = dart_vertex[start_dart]
    vflip[v0] = start_flip
    queue = [(v0, dart_pos[start_dart])]  # grows while it is read
    tokens: list[int] = []
    emit = tokens.append

    for v, p0 in queue:
        r = idx.rot[v]
        flip = vflip[v]
        n = len(tokens)
        for d in r[p0:] + r[:p0] if flip > 0 else r[p0::-1] + r[:p0:-1]:
            e = d >> 1
            t = emap[e]
            if t < 0:
                t = emap[e] = e if labelled else len(eorder)
                eorder.append(e)
                w = dart_vertex[d ^ 1]
                if not vflip[w]:
                    vflip[w] = flip * esign[e]
                    queue.append((w, dart_pos[d ^ 1]))
            emit(t)
        emit(_SEP_VERTEX)
        if best is not None:
            mine, theirs = tokens[n:], best[n : len(tokens)]
            if mine != theirs:
                if mine > theirs:
                    return None
                best = None

    tokens.append(_SEP_SIGNS)
    for e in eorder:
        tokens.append(esign[e] * vflip[dart_vertex[2 * e]] * vflip[dart_vertex[2 * e + 1]])
    return tokens


def _first_row(idx: _Indexed, d: int, flip: int) -> list[int]:
    """The rotation at dart ``d`` read from ``d`` in direction ``flip``,
    each edge numbered in order of first appearance: a trace's first row
    without its separator."""
    r = idx.rot[idx.dart_vertex[d]]
    p0 = idx.dart_pos[d]
    seen: dict[int, int] = {}
    return [
        seen.setdefault(x >> 1, len(seen))
        for x in (r[p0:] + r[:p0] if flip > 0 else r[p0::-1] + r[:p0:-1])
    ]


def _component_code(idx: _Indexed, members: list[int]) -> list:
    """Minimum trace over the starts of one component whose first row is
    least.

    A trace opens with its first row, and the vertex separator is below
    every edge token, so a start with a larger first row never gives the
    minimum: the filter leaves the minimum over every start unchanged.

    The first row of a loopless vertex of degree ``n`` is ``0..n-1`` then
    the separator, from every start.  At a vertex with loops a row first
    repeats a token at step ``s``, and is least only if ``s`` is the least
    span of a loop there and the start is an end of such a loop, read
    towards the other end.  So rows are keyed by ``(n, 0)`` or ``(s, 1)``,
    and only the starts of the least key have their rows compared.
    """
    dart_vertex, dart_pos = idx.dart_vertex, idx.dart_pos
    least = None
    starts: list[tuple[int, int]] = []
    for v in members:
        r = idx.rot[v]
        n = len(r)
        span, at = n, []
        for d in r:
            if not d & 1 and dart_vertex[d + 1] == v:
                ahead = (dart_pos[d + 1] - dart_pos[d]) % n
                # read forwards from d or backwards from d + 1, the loop
                # closes after ``ahead`` steps; the other way, after n - ahead
                for s, pair in (
                    (ahead, [(d, 1), (d + 1, -1)]),
                    (n - ahead, [(d + 1, 1), (d, -1)]),
                ):
                    if s < span:
                        span, at = s, pair
                    elif s == span:
                        at += pair
        if at:
            key = (span, 1)
        elif n:
            key, at = (n, 0), [(d, flip) for d in r for flip in (1, -1)]
        else:
            continue
        if least is None or key < least:
            least, starts = key, at
        elif key == least:
            starts += at
    if least is None:
        # edgeless component: a single bare vertex
        return [_SEP_VERTEX, _SEP_SIGNS]
    if least[1]:
        # rows without the separator keep their order: a proper prefix is less
        rows = [_first_row(idx, d, flip) for d, flip in starts]
        row = min(rows)
        starts = [start for start, other in zip(starts, rows) if other == row]
    return _least_trace(idx, starts)


def _least_trace(idx: _Indexed, starts: list[tuple[int, int]], labelled: bool = False) -> list:
    """The least trace from the given ``(dart, flip)`` starts."""
    best = None
    for d, flip in starts:
        t = _trace(idx, d, flip, best, labelled)
        if t is not None and (best is None or t < best):
            best = t
    return best


def _render_component(tokens: Sequence[int], nv: int, ne: int) -> str:
    rows = []
    row: list[str] = []
    i = 0
    while tokens[i] != _SEP_SIGNS:
        if tokens[i] == _SEP_VERTEX:
            rows.append(",".join(row))
            row = []
        else:
            row.append(str(tokens[i]))
        i += 1
    if not rows:
        rows.append("")
    signs = "".join("+" if s > 0 else "-" for s in tokens[i + 1 :])
    return f"{nv}v{ne}e:" + "|".join(rows) + ";" + signs


def canonical_form(g: Union[RibbonGraph, _Indexed]) -> str:
    """A code equal for two graphs exactly when they are equivalent.

    Invariant under edge relabelling, vertex storage order, rotation of any
    rotation, any vertex flip, and global reflection.  Components are coded
    independently and sorted.  ``g`` is a graph or an integer view; a view
    is coded as the graph it names.
    """
    idx = g if isinstance(g, _Indexed) else g._indexed()
    parts = []
    for members, edges, _ in idx.components:
        tokens = _component_code(idx, members)
        parts.append(_render_component(tokens, len(members), edges.bit_count()))
    return "&".join(sorted(parts))


@per_graph
def labelled_code(g: RibbonGraph) -> tuple:
    """A code equal for two graphs exactly when they are equivalent as
    edge-labelled graphs: by flips, rotations, vertex order and the naming
    of each edge's two ends, every label kept in place.

    Stronger than :func:`canonical_form`, which lets an equivalence permute
    the labels, and cheaper: each component is traced with label indices as
    tokens from both ends of its smallest label in both directions, four
    traces per component.  The code is the label tuple and the sorted
    component minima.
    """
    idx = g._indexed()
    parts = []
    for _, edges, _ in idx.components:
        if edges:
            e = (edges & -edges).bit_length() - 1  # the smallest label
            starts = [(d, flip) for d in (2 * e, 2 * e + 1) for flip in (1, -1)]
            parts.append(tuple(_least_trace(idx, starts, labelled=True)))
        else:
            parts.append((_SEP_VERTEX, _SEP_SIGNS))  # a bare vertex
    return tuple(idx.labels), tuple(sorted(parts))


def is_equivalent(g: RibbonGraph, h: RibbonGraph) -> bool:
    """Whether two ribbon graphs are equivalent as embedded graphs."""
    return g.canonical_code() == h.canonical_code()


_COMP_RE = re.compile(r"^(\d+)v(\d+)e:(.*);([+-]*)$")


def from_canonical_code(code: str) -> RibbonGraph:
    """Rebuild a representative graph from a canonical code."""
    vertices = []
    signs = {}
    if not code:
        return RibbonGraph(vertices, signs)  # the empty graph's code
    for ci, part in enumerate(code.split("&")):
        m = _COMP_RE.match(part)
        if not m:
            raise InvalidGraph(f"malformed canonical code component {part!r}")
        nv, ne, body, sgn = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
        if len(sgn) != ne:
            raise InvalidGraph(f"sign vector length mismatch in {part!r}")
        rows = body.split("|") if nv else []
        if len(rows) != nv:
            raise InvalidGraph(f"vertex count mismatch in {part!r}")
        counts: dict[str, int] = {}
        for vi, row in enumerate(rows):
            rot = []
            for tok in row.split(","):
                if tok == "":
                    continue
                lab = f"c{ci}e{tok}"
                counts[lab] = counts.get(lab, 0) + 1
                rot.append(End(lab, counts[lab]))
            vertices.append((f"c{ci}v{vi}", rot))
        for ei in range(ne):
            signs[f"c{ci}e{ei}"] = 1 if sgn[ei] == "+" else -1
    return RibbonGraph(vertices, signs)


def equivalence_orbit(g: RibbonGraph, max_size: int = 20000) -> Iterator[RibbonGraph]:
    """All storage variants reachable by flips, rotations and reorderings.

    Exhaustive only at desk scale; used by tests to check that the canonical
    code is constant on an orbit.
    """
    import itertools

    names = g.vertex_names
    n = 0
    for flips in itertools.product((False, True), repeat=len(names)):
        h = g
        for name, f in zip(names, flips):
            if f:
                h = h.flipped(name)
        rot_ranges = [range(max(1, h.degree(name))) for name in names]
        for shifts in itertools.product(*rot_ranges):
            h2 = h
            for name, k in zip(names, shifts):
                if k:
                    h2 = h2.rotated(name, k)
            for order in itertools.permutations(names):
                yield h2.reordered(order)
                n += 1
                if n >= max_size:
                    return
