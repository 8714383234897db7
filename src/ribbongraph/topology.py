"""Boundary walks and the surface invariants built on them.

A ribbon graph is traced as a surface with boundary.  Every attachment arc
of an edge end has two endpoints; reading a rotation in storage direction
the walk meets ``(end, in)`` then ``(end, out)``.  Free corners join the
``out`` endpoint of one arc to the ``in`` endpoint of the next.  A band
contributes two boundary sides joining arc endpoints crosswise when the
edge is untwisted (``out`` to the other ``in``) and like-to-like when it is
twisted.  Counting the resulting closed walks gives the number of boundary
components, hence the Euler characteristic and the Euler genus.

:func:`trace_walks` spells every walk out as named steps, for
:func:`boundary_components` and the ``verify`` oracles that read those
steps: the arrow route of the partial dual (``partial_dual_by_arrows``),
the marked geometric dual of the mark-and-remove route and the traced
surface statistics (``surface_stats_by_walks``).  Edges outside its band
set keep their attachment arcs as free, traversable arcs that carry
direction arrows, and marks ride along the corners they sit on.

The library reads the same walks from the graph's integer view instead
(``core._Indexed``): :func:`connected_components`, :func:`is_orientable`
and :func:`surface_stats` read its one component pass and its
boundary-walk counter, and :func:`duality._dual_view` its walks with
their arrows; none of them builds a subgraph or a step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .core import End, Mark, RibbonGraph, UnknownEdge

if TYPE_CHECKING:
    from .verify import MarkedRibbonGraph

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
    if isinstance(g, RibbonGraph):
        return g.vertex_names, g.rotations, g.signs
    return g.vertex_names, g.all_items, g.signs


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


# -- connectivity and orientability ------------------------------------------


def connected_components(g: RibbonGraph) -> tuple[tuple[frozenset, frozenset], ...]:
    """Partition into components, each a ``(vertex names, edge labels)`` pair,
    in order of first vertex."""
    idx = g._indexed()
    names = g.vertex_names
    return tuple(
        (frozenset(names[v] for v in members), idx.edge_set(edges))
        for members, edges, _ in idx.components
    )


def is_connected(g: RibbonGraph) -> bool:
    return len(g._indexed().components) <= 1


def is_orientable(g: RibbonGraph) -> bool:
    """Whether some assignment of vertex flips makes every sign positive.

    Flip parities propagate along each component; the graph is orientable
    exactly when no cycle, a twisted loop included, has odd total sign.
    """
    return all(orientable for _, _, orientable in g._indexed().components)


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


def stats_from_components(
    g: RibbonGraph, components: Iterable[tuple[frozenset, frozenset, int, bool]]
) -> SurfaceStats:
    """The surface statistics of ``g`` from each component's vertex names,
    edge labels, boundary count and orientability.  The Euler genus,
    ``2c - v + e - f``, is the sum of the components' ``2 - v_C + e_C - f_C``.
    """
    comps = []
    for vs, es, f, ori in components:
        chi = len(vs) - len(es) + f
        gamma = 2 - chi
        genus = gamma // 2 if ori else gamma
        comps.append(ComponentStats(vs, es, f, chi, ori, gamma, genus, surface_label(gamma, ori)))
    v, e, f, c = g.n_vertices, g.n_edges, sum(s.n_boundary for s in comps), len(comps)
    chi = v - e + f
    gamma = 2 * c - chi
    orientable = all(s.orientable for s in comps)
    if c == 1:
        label = comps[0].surface
    elif c == 0:
        label = "empty"
    else:
        label = " + ".join(sorted(s.surface for s in comps))
    return SurfaceStats(
        n_vertices=v,
        n_edges=e,
        n_boundary=f,
        n_components=c,
        euler_characteristic=chi,
        orientable=orientable,
        euler_genus=gamma,
        genus=gamma // 2 if orientable else gamma,
        surface=label,
        components=tuple(comps),
    )


def surface_stats(g: RibbonGraph) -> SurfaceStats:
    """Vertex, edge, boundary and component counts, Euler characteristic,
    orientability, Euler genus and the surface classification, globally and
    per connected component.

    Components and their orientability come from the integer view's
    component pass, and each boundary walk is counted in the component of
    its home vertex.
    """
    idx = g._indexed()
    walk_counts = [0] * len(idx.components)
    for v in idx.walk_homes((1 << idx.ne) - 1):
        walk_counts[idx.component_of[v]] += 1
    names = g.vertex_names
    return stats_from_components(g, (
        (frozenset(names[v] for v in members), idx.edge_set(edges), f, ori)
        for (members, edges, ori), f in zip(idx.components, walk_counts)
    ))


def euler_genus(g: RibbonGraph) -> int:
    return surface_stats(g).euler_genus
