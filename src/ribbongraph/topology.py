"""Boundary walks and the surface invariants built on them.

A ribbon graph is traced as a surface with boundary.  Every attachment arc
of an edge end has two endpoints; reading a rotation in storage direction
the walk meets ``(end, in)`` then ``(end, out)``.  Free corners join the
``out`` endpoint of one arc to the ``in`` endpoint of the next.  A band
contributes two boundary sides joining arc endpoints crosswise when the
edge is untwisted (``out`` to the other ``in``) and like-to-like when it is
twisted.  Counting the resulting closed walks gives the number of boundary
components, hence the Euler characteristic and the Euler genus.

The same tracer serves the spanning-subgraph walks behind partial duality:
edges outside the band set keep their attachment arcs as free, traversable
arcs that carry direction arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .core import (
    End,
    InvariantViolation,
    Mark,
    MarkedRibbonGraph,
    RibbonGraph,
    UnknownEdge,
)

# A walk step is one of
#   ("corner", vertex_name, gap_index, forward)
#   ("side",   edge_label, side_index, with_edge_orientation)
#   ("arc",    edge_label, slot, with_edge_orientation)
#   ("mark",   mark_label, with_mark_direction)
#   ("vertex", vertex_name)            -- the bare circle of an edgeless vertex
Step = tuple

def _expand(step: Step) -> list[Step]:
    """Unpack a corner carrying marks into corner plus mark steps."""
    if step[0] != "corner":
        return [step]
    name, j, forward, marks = step[1], step[2], step[3], step[4]
    out: list[Step] = [("corner", name, j, forward)]
    if forward:
        out.extend(("mark", m.label, m.forward) for m in marks)
    else:
        out.extend(("mark", m.label, not m.forward) for m in reversed(marks))
    return out


@dataclass(frozen=True)
class BoundaryWalks:
    """The boundary components of a (possibly marked) ribbon graph."""

    walks: tuple[tuple[Step, ...], ...]

    @property
    def count(self) -> int:
        return len(self.walks)


def _rows_of(g: Union[RibbonGraph, MarkedRibbonGraph]):
    if isinstance(g, MarkedRibbonGraph):
        return g.vertex_names, g.all_items, g.signs
    return g.vertex_names, g.rotations, g.signs


def trace_walks(
    g: Union[RibbonGraph, MarkedRibbonGraph],
    band_edges: Optional[Iterable[str]] = None,
) -> BoundaryWalks:
    """Trace the boundary of the spanning subgraph on ``band_edges``.

    With ``band_edges=None`` every edge is a band and the walks are the
    boundary components of ``g`` itself.  Edges left out of the band set
    contribute their two attachment arcs as free boundary arcs instead;
    marks decorate the corners they sit on.  Output is deterministic.
    """
    names, rows, signs = _rows_of(g)
    if band_edges is None:
        band = set(signs)
    else:
        band = set(band_edges)
        for label in band:
            if label not in signs:
                raise UnknownEdge(f"unknown edge {label!r}")

    # Endpoints are integers 2*k (in) and 2*k+1 (out) for arc number k.
    arc_id: dict[End, int] = {}
    arcs: list[End] = []
    for row in rows:
        for x in row:
            if isinstance(x, End):
                arc_id[x] = len(arcs)
                arcs.append(x)

    # segments[s] = (endpoint_a, endpoint_b, step_when_a_to_b, step_when_b_to_a)
    segments: list[tuple[int, int, Step, Step]] = []
    incident: dict[int, list[int]] = {}

    def add(a: int, b: int, fwd: Step, rev: Step) -> None:
        s = len(segments)
        segments.append((a, b, fwd, rev))
        incident.setdefault(a, []).append(s)
        incident.setdefault(b, []).append(s)

    lone_walks = []
    for name, row in zip(names, rows):
        ends_here = [x for x in row if isinstance(x, End)]
        if not ends_here:
            steps: list[Step] = [("vertex", name)]
            for x in row:
                if isinstance(x, Mark):
                    steps.append(("mark", x.label, x.forward))
            lone_walks.append(tuple(steps))
            continue
        # corner after each end: from (end, out) to (next end, in), carrying
        # any marks stored between them.
        deg = len(ends_here)
        marks_after: list[list[Mark]] = [[] for _ in range(deg)]
        ei = -1
        trailing: list[Mark] = []
        for x in row:
            if isinstance(x, End):
                ei += 1
            elif ei >= 0:
                marks_after[ei].append(x)
            else:
                trailing.append(x)
        marks_after[deg - 1].extend(trailing)
        for j in range(deg):
            a = 2 * arc_id[ends_here[j]] + 1
            b = 2 * arc_id[ends_here[(j + 1) % deg]]
            fwd: Step = ("corner", name, j, True, tuple(marks_after[j]))
            rev: Step = ("corner", name, j, False, tuple(marks_after[j]))
            add(a, b, fwd, rev)

    for label in sorted(signs):
        e1, e2 = End(label, 1), End(label, 2)
        h_in, h_out = 2 * arc_id[e1], 2 * arc_id[e1] + 1
        k_in, k_out = 2 * arc_id[e2], 2 * arc_id[e2] + 1
        if label in band:
            if signs[label] > 0:
                add(h_out, k_in, ("side", label, 0, True), ("side", label, 0, False))
                add(k_out, h_in, ("side", label, 1, True), ("side", label, 1, False))
            else:
                add(h_out, k_out, ("side", label, 0, True), ("side", label, 0, False))
                add(k_in, h_in, ("side", label, 1, True), ("side", label, 1, False))
        else:
            add(h_in, h_out, ("arc", label, 1, True), ("arc", label, 1, False))
            if signs[label] > 0:
                add(k_in, k_out, ("arc", label, 2, True), ("arc", label, 2, False))
            else:
                add(k_out, k_in, ("arc", label, 2, True), ("arc", label, 2, False))

    walks = []
    used = [False] * len(segments)
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        steps: list[Step] = []
        s, at = s0, segments[s0][0]
        while True:
            used[s] = True
            a, b, fwd, rev = segments[s]
            if at == a:
                steps.extend(_expand(fwd))
                at = b
            else:
                steps.extend(_expand(rev))
                at = a
            nxt = None
            for t in incident[at]:
                if not used[t]:
                    nxt = t
                    break
            if nxt is None:
                break
            s = nxt
        walks.append(tuple(steps))

    walks.extend(lone_walks)
    return BoundaryWalks(tuple(sorted(walks)))


def boundary_components(g: Union[RibbonGraph, MarkedRibbonGraph]) -> BoundaryWalks:
    """The boundary components of ``g`` as explicit step walks."""
    return trace_walks(g, None)


# -- connectivity -----------------------------------------------------------


def connected_components(g: RibbonGraph) -> tuple[tuple[frozenset, frozenset], ...]:
    """Partition into components, each a ``(vertex names, edge labels)`` pair."""
    neighbours: dict[str, set[str]] = {n: set() for n in g.vertex_names}
    for label in g.edge_labels:
        (u, _), (w, _) = g.ends_of(label)
        neighbours[u].add(w)
        neighbours[w].add(u)
    seen: set[str] = set()
    comps = []
    for start in g.vertex_names:
        if start in seen:
            continue
        stack = [start]
        members = set()
        while stack:
            v = stack.pop()
            if v in members:
                continue
            members.add(v)
            stack.extend(neighbours[v] - members)
        seen |= members
        edges = frozenset(
            label for label in g.edge_labels if g.ends_of(label)[0][0] in members
        )
        comps.append((frozenset(members), edges))
    return tuple(comps)


def is_connected(g: RibbonGraph) -> bool:
    return len(connected_components(g)) <= 1


# -- orientability ------------------------------------------------------------


def is_orientable(g: RibbonGraph) -> bool:
    """Whether some assignment of vertex flips makes every sign positive.

    A twisted loop forces non-orientability at once; otherwise flip parities
    propagate over a spanning structure and the graph is orientable exactly
    when no cycle has odd total sign.
    """
    parity: dict[str, int] = {}
    adj: dict[str, list[tuple[str, int]]] = {n: [] for n in g.vertex_names}
    for label in g.edge_labels:
        (u, _), (w, _) = g.ends_of(label)
        if u == w:
            if g.sign(label) < 0:
                return False
            continue
        adj[u].append((w, g.sign(label)))
        adj[w].append((u, g.sign(label)))
    for start in g.vertex_names:
        if start in parity:
            continue
        parity[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, s in adj[v]:
                want = parity[v] * s
                if w not in parity:
                    parity[w] = want
                    stack.append(w)
                elif parity[w] != want:
                    return False
    return True


# -- surface statistics -------------------------------------------------------


@dataclass(frozen=True)
class ComponentStats:
    vertices: frozenset
    edges: frozenset
    n_boundary: int
    euler_characteristic: int
    orientable: bool
    euler_genus: int
    genus: int
    surface: str


@dataclass(frozen=True)
class SurfaceStats:
    n_vertices: int
    n_edges: int
    n_boundary: int
    n_components: int
    euler_characteristic: int
    orientable: bool
    euler_genus: int
    genus: int
    surface: str
    components: tuple[ComponentStats, ...]

    def summary(self) -> str:
        flag = "orientable" if self.orientable else "non-orientable"
        return f"γ={self.euler_genus} {flag} {self.surface}"


def surface_label(euler_genus: int, orientable: bool, connected: bool = True) -> str:
    if not connected:
        return "disconnected"
    if orientable:
        g = euler_genus // 2
        if g == 0:
            return "sphere"
        if g == 1:
            return "torus"
        return f"Sigma_{g}"
    if euler_genus == 1:
        return "RP^2"
    if euler_genus == 2:
        return "Klein bottle"
    return f"N_{euler_genus}"


def _walk_home(step_seq: tuple[Step, ...], end_vertex: dict[str, str]) -> str:
    for step in step_seq:
        if step[0] in ("corner", "vertex"):
            return step[1]
        if step[0] in ("side", "arc"):
            return end_vertex[step[1]]
    raise InvariantViolation("boundary walk without a location")


def surface_stats(g: RibbonGraph) -> SurfaceStats:
    """Vertex, edge, boundary and component counts, Euler characteristic,
    orientability, Euler genus and the surface classification, globally and
    per connected component."""
    walks = boundary_components(g).walks
    comps = connected_components(g)
    end_vertex = {label: g.ends_of(label)[0][0] for label in g.edge_labels}
    vert_comp: dict[str, int] = {}
    for i, (vs, _) in enumerate(comps):
        for v in vs:
            vert_comp[v] = i
    walk_counts = [0] * max(1, len(comps))
    for w in walks:
        walk_counts[vert_comp[_walk_home(w, end_vertex)]] += 1

    sub_stats = []
    total_gamma = 0
    orientable_all = True
    single = len(comps) == 1
    for i, (vs, es) in enumerate(comps):
        v, e, f = len(vs), len(es), walk_counts[i]
        chi = v - e + f
        gamma = 2 - chi
        if single:
            ori = is_orientable(g)
        else:
            sub = RibbonGraph(
                [(n, g.rotation(n)) for n in g.vertex_names if n in vs],
                {k: g.sign(k) for k in es},
                _validate=False,
            )
            ori = is_orientable(sub)
        orientable_all = orientable_all and ori
        total_gamma += gamma
        sub_stats.append(
            ComponentStats(
                vertices=vs,
                edges=es,
                n_boundary=f,
                euler_characteristic=chi,
                orientable=ori,
                euler_genus=gamma,
                genus=gamma // 2 if ori else gamma,
                surface=surface_label(gamma, ori),
            )
        )

    v, e, f, c = g.n_vertices, g.n_edges, len(walks), len(comps)
    chi = v - e + f
    gamma = 2 * c - chi
    if gamma != total_gamma:
        raise InvariantViolation(
            f"Euler genus {gamma} differs from the sum {total_gamma} over components"
        )
    if c == 1:
        label = sub_stats[0].surface
    elif c == 0:
        label = "empty"
    else:
        label = " + ".join(sorted(s.surface for s in sub_stats))
    return SurfaceStats(
        n_vertices=v,
        n_edges=e,
        n_boundary=f,
        n_components=c,
        euler_characteristic=chi,
        orientable=orientable_all,
        euler_genus=gamma,
        genus=gamma // 2 if orientable_all else gamma,
        surface=label,
        components=tuple(sub_stats),
    )


def euler_genus(g: RibbonGraph) -> int:
    return surface_stats(g).euler_genus
