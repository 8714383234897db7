"""Graph generators and the exhaustive desk-scale verification harness.

The corpus generator enumerates every connected ribbon graph up to
equivalence with a bounded number of edges, by augmenting smaller graphs
one edge at a time and deduplicating on canonical codes; each child is
grown and coded as an integer view, and only the first of its class is
named.  A brute-force enumerator over raw rotation systems double-checks
the counts at tiny sizes.

``check_suite`` runs a battery of named checks over a corpus; every check
states a universally quantified property of the library's operations, and
any failure is reported with a replayable serialized instance.

The oracles are independent constructions the fast routes are checked
against: components by name-keyed search (:func:`components_by_names`),
orientability by the parity double cover, surface statistics from the
step tracer (:func:`surface_stats_by_walks`), side components from
built induced subgraphs, and the incidence tree of a certificate from a
union-find over vertex names (:func:`incidence_tree_by_union_find`),
where the library counts components.  None of them reads the integer
view.  The join splits and prime factors, which the library reads off
its factor tree of blocks, come from trying every arc of every rotation
of the integer view (:func:`join_splits_by_arcs`,
:func:`prime_factors_by_arcs`), and the join oracle
(:func:`join_biseparations_by_splits`) searches recursive binary splits
of that kind instead of using the uniqueness of the prime factorization.
The partial-dual subsets of a pair come from building and coding every
subset (:func:`partial_dual_subsets_by_codes`), and the move closure from
a search over built graphs (:func:`_move_closure`), where the library
keys its search by edge subset.  The spectrum's classes, which the library
reads from one table per prime factor, are checked against the
whole-graph certificate of every subset (``count-route-agreement``).

The library builds a partial dual one way, from the integer walks of
:meth:`core._Indexed.walk_arrows`, as an integer view that the named dual
keeps.  On every subset (``dual-route-agreement``) that view must equal
the one translated from the dual's names (:meth:`core._Indexed.of`,
compared by :func:`view_fields`), and three constructions check the dual:
the route it replaced
(:func:`partial_dual_by_arrows`: the step tracer, an arrow presentation
and a rebuilt graph), which must give the same graph by ``==``, vertex
names and end slots included; the one-edge surgery on arrow presentations
folded over the subset (:func:`partial_dual_by_edges`); and the
mark-and-remove route (:func:`partial_dual_via_marks`: the complement
removed leaving marks, the marked graph dualised, the edges restored).

Canonical codes are checked against the kernel the library replaced
(:func:`canonical_form_by_all_starts`), which traces every start dart in
both directions where the library traces only the starts whose first row
is least.  Unlike the oracles above, it reads the integer view, as the
library's kernel does; what it checks is the start filter and the trace.
Constructions that keep every edge label (the empty and full subsets, the
double dual, dual composition, the one-edge and marks routes, the arrow
and mark round trips) are compared by :func:`core.labelled_code`, which a
construction that permutes labels does not pass; unlabelled codes remain
where classes are meant, in the corpus, the move closure and the
partial-dual subsets.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .core import (
    Arrow,
    ArrowPresentation,
    End,
    InvalidGraph,
    Mark,
    RibbonGraph,
    _Indexed,
    _SEP_SIGNS,
    _SEP_VERTEX,
    _as_sign,
    _keep_view,
    _render_component,
    as_end,
    build_graph,
    canonical_form,
    disjoint_union,
    from_arrow_presentation,
    from_canonical_code,
    induced_subgraph,
    is_equivalent,
    labelled_code,
    single_vertex,
    to_arrow_presentation,
)
from .decomposition import (
    BiseparationCertificate,
    BiseparationClass,
    _factor_tree,
    _join_splits,
    all_interleave_patterns,
    biseparation_data,
    classify_join_biseparation,
    is_biseparation,
    is_join_biseparation,
    n_sum,
    prime_factorization,
    summand_edge_sets,
)
from .duality import (
    geometric_dual,
    partial_dual,
    refuse_large_sweep,
    spectrum,
    subsets_sorted,
)
from .moves import _step_sets
from .topology import (
    SurfaceStats,
    boundary_components,
    is_connected,
    is_orientable,
    stats_from_components,
    surface_stats,
    trace_walks,
)

# -- named fixtures -----------------------------------------------------------


def calibration_graphs() -> dict[str, RibbonGraph]:
    """The fixed calibration corpus used to pin the package conventions."""
    return {
        "untwisted-loop": single_vertex("e e", "+"),
        "twisted-loop": single_vertex("e e", "-"),
        "plane-two-cycle": build_graph(
            {"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "+"}
        ),
        "crosscap-two-cycle": build_graph(
            {"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "-"}
        ),
        "interlaced-bouquet": single_vertex("a b a b", "++"),
        "twisted-interlaced-bouquet": single_vertex("a b a b", "--"),
        "triple-bouquet-abacbc": single_vertex("a b a c b c", "+++"),
        "triple-bouquet-abcacb": single_vertex("a b c a c b", "+++"),
    }


CALIBRATION_EXPECTED = {
    "untwisted-loop": (0, True),
    "twisted-loop": (1, False),
    "plane-two-cycle": (0, True),
    "crosscap-two-cycle": (1, False),
    "interlaced-bouquet": (2, True),
    "twisted-interlaced-bouquet": (1, False),
    "triple-bouquet-abacbc": (2, True),
    "triple-bouquet-abcacb": (2, True),
}


# -- corpus generation ----------------------------------------------------------


@dataclass
class Corpus:
    """A list of ribbon graphs with the parameters that produced it."""

    params: dict
    graphs: list[RibbonGraph]

    def __len__(self) -> int:
        return len(self.graphs)

    def by_edges(self, n: int) -> list[RibbonGraph]:
        return [g for g in self.graphs if g.n_edges == n]


def _grown(rot: list[list[int]], d: int) -> Iterator[list[list[int]]]:
    """Every rotation list obtained from ``rot`` by adding one edge with
    darts ``d`` (end 1) and ``d + 1`` (end 2): between two insertion gaps of
    existing vertices, end 1 at the earlier one, or out to a new leaf.
    Rows left alone are shared with ``rot``."""
    slots = [(v, p) for v, darts in enumerate(rot) for p in range(max(1, len(darts)))]
    for i, (v1, p1) in enumerate(slots):
        r1 = rot[v1]
        for v2, p2 in slots[i:]:
            child = rot[:]
            if v1 == v2:  # p1 <= p2
                child[v1] = r1[:p1] + [d] + r1[p1:p2] + [d + 1] + r1[p2:]
            else:
                r2 = rot[v2]
                child[v1] = r1[:p1] + [d] + r1[p1:]
                child[v2] = r2[:p2] + [d + 1] + r2[p2:]
            yield child
    for v1, p1 in slots:
        r1 = rot[v1]
        child = rot[:]
        child[v1] = r1[:p1] + [d] + r1[p1:]
        child.append([d + 1])
        yield child


def _exhaustive(max_edges: int) -> list[RibbonGraph]:
    # augmentation works on class representatives level by level, so the
    # output is inherently connected and deduplicated.  Each child is grown
    # as darts from its parent's integer view, both signs of the new edge,
    # and coded as a view; only the first child of each new class is named.
    # Labels e1..e6 sort in numeric order, so the new edge is the view's last.
    base = RibbonGraph({"v0": []}, {})
    levels: list[dict[str, RibbonGraph]] = [{base.canonical_code(): base}]
    for e in range(1, max_edges + 1):
        level: dict[str, RibbonGraph] = {}
        for parent in levels[e - 1].values():
            idx = parent._indexed()
            labels = idx.labels + ["e%d" % e]
            for rot in _grown(idx.rot, 2 * idx.ne):
                for s in (1, -1):
                    view = _Indexed(labels, rot, idx.sign + [s])
                    code = canonical_form(view)
                    if code not in level:
                        child = RibbonGraph(*view.named(), _validate=False)
                        level[code] = _keep_view(child, view, code)
        levels.append(level)
    out: list[RibbonGraph] = []
    for level in levels:
        out.extend(level[k] for k in sorted(level))
    return out


def enumerate_raw(max_edges: int) -> list[RibbonGraph]:
    """Brute-force enumeration over raw rotation systems (cross-check only;
    factorial in the dart count, so keep ``max_edges`` at 3 or below)."""
    out: dict[str, RibbonGraph] = {}
    base = RibbonGraph({"v0": []}, {})
    out[base.canonical_code()] = base
    for e in range(1, max_edges + 1):
        darts = list(range(2 * e))
        for perm in itertools.permutations(darts):
            # cycles of the permutation become vertex rotations
            seen = [False] * (2 * e)
            rows = []
            for d0 in darts:
                if seen[d0]:
                    continue
                cyc = []
                d = d0
                while not seen[d]:
                    seen[d] = True
                    cyc.append(End("e%d" % (d // 2 + 1), d % 2 + 1))
                    d = perm[d]
                rows.append(("v%d" % len(rows), cyc))
            for bits in range(2 ** e):
                signs = {
                    "e%d" % (i + 1): (1 if bits >> i & 1 else -1) for i in range(e)
                }
                g = RibbonGraph(rows, signs, _validate=False)
                if not is_connected(g):
                    continue
                code = g.canonical_code()
                if code not in out:
                    out[code] = g
    return [out[k] for k in sorted(out)]


def _random_graph(rng: random.Random, n_edges: int) -> RibbonGraph:
    if not n_edges:
        return RibbonGraph({"v0": []}, {})  # no darts to arrange: one bare vertex
    darts = list(range(2 * n_edges))
    rng.shuffle(darts)
    perm = {i: darts[i] for i in range(2 * n_edges)}
    seen = [False] * (2 * n_edges)
    rows = []
    for d0 in range(2 * n_edges):
        if seen[d0]:
            continue
        cyc = []
        d = d0
        while not seen[d]:
            seen[d] = True
            cyc.append(End("e%d" % (d // 2 + 1), d % 2 + 1))
            d = perm[d]
        rows.append(("v%d" % len(rows), cyc))
    signs = {"e%d" % (i + 1): rng.choice((1, -1)) for i in range(n_edges)}
    return RibbonGraph(rows, signs, _validate=False)


def generate(
    max_edges: int,
    mode: str = "exhaustive",
    seed: Optional[int] = None,
    count: int = 100,
    connected: bool = True,
    dedup: bool = True,
) -> Corpus:
    """Generate a corpus of connected ribbon graphs.

    ``exhaustive`` lists every connected graph with up to ``max_edges``
    edges, one representative per equivalence class (``connected`` and
    ``dedup`` are inherent to this mode).  ``random`` draws ``count``
    graphs of exactly ``max_edges`` edges, uniform over dart arrangements
    then signs (not over classes), honouring both flags.  A negative
    ``max_edges``, or in ``random`` mode a negative ``count``, raises
    :class:`ValueError`.
    """
    if max_edges < 0:
        raise ValueError(f"max_edges must be at least 0, got {max_edges}")
    if mode == "random" and count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    params = {
        "max_edges": max_edges,
        "mode": mode,
        "seed": seed,
        "count": count if mode == "random" else None,
        "connected": connected,
        "dedup": dedup,
    }
    if mode == "exhaustive":
        if max_edges > 6:
            raise ValueError("exhaustive corpora beyond 6 edges are not desk scale")
        graphs = _exhaustive(max_edges)
    elif mode == "random":
        rng = random.Random(seed)
        graphs = []
        seen: set[str] = set()
        attempts = 0
        while len(graphs) < count and attempts < 100 * count:
            attempts += 1
            g = _random_graph(rng, max_edges)
            if connected and not is_connected(g):
                continue
            if dedup:
                code = g.canonical_code()
                if code in seen:
                    continue
                seen.add(code)
            graphs.append(g)
    else:
        raise ValueError(f"unknown corpus mode {mode!r}")
    return Corpus(params=params, graphs=graphs)


# -- independent oracles ---------------------------------------------------------


def _end_vertices(g: RibbonGraph) -> dict[str, list[str]]:
    """The vertex names of both ends of every edge, read off the rotations."""
    ends: dict[str, list[str]] = {}
    for name, rot in zip(g.vertex_names, g.rotations):
        for e in rot:
            ends.setdefault(e.label, [None, None])[e.slot - 1] = name
    return ends


def components_by_names(g: RibbonGraph) -> tuple[tuple[frozenset, frozenset], ...]:
    """``(vertex names, edge labels)`` of every component, in order of first
    vertex, by a search over name-keyed neighbour sets.  Oracle for
    :func:`topology.connected_components`."""
    ends = _end_vertices(g)
    neighbours: dict[str, set[str]] = {n: set() for n in g.vertex_names}
    for u, w in ends.values():
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
        edges = frozenset(label for label, (u, _) in ends.items() if u in members)
        comps.append((frozenset(members), edges))
    return tuple(comps)


def orientable_by_double_cover(g: RibbonGraph) -> bool:
    """Orientability via the parity double cover: the cover of each
    component is connected exactly when the component is non-orientable."""
    nodes = {(n, p): (n, p) for n in g.vertex_names for p in (0, 1)}

    def find(x):
        while nodes[x] != x:
            nodes[x] = nodes[nodes[x]]
            x = nodes[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            nodes[ra] = rb

    for label, (u, w) in _end_vertices(g).items():
        if g.sign(label) > 0:
            union((u, 0), (w, 0))
            union((u, 1), (w, 1))
        else:
            union((u, 0), (w, 1))
            union((u, 1), (w, 0))
    roots = {find(x) for x in nodes}
    return len(roots) == 2 * len(components_by_names(g))


def surface_stats_by_walks(g: RibbonGraph) -> SurfaceStats:
    """:func:`topology.surface_stats` from the step tracer: every boundary
    walk spelled out and placed by the vertex it first meets, components
    from :func:`components_by_names`, and each component's orientability
    from the double cover of its own built subgraph."""
    walks = boundary_components(g).walks
    comps = components_by_names(g)
    end_vertex = {label: u for label, (u, _) in _end_vertices(g).items()}
    vert_comp = {v: i for i, (vs, _) in enumerate(comps) for v in vs}
    walk_counts = [0] * len(comps)
    for walk in walks:
        step = next(s for s in walk if s[0] in ("corner", "vertex", "side", "arc"))
        home = step[1] if step[0] in ("corner", "vertex") else end_vertex[step[1]]
        walk_counts[vert_comp[home]] += 1
    return stats_from_components(g, (
        (vs, es, f, orientable_by_double_cover(induced_subgraph(g, es)))
        for (vs, es), f in zip(comps, walk_counts)
    ))


def side_components_by_subgraphs(g: RibbonGraph, edges: Iterable[str]) -> tuple:
    """``(vertices, edges, Euler genus, orientable)`` of every component of
    the subgraph induced by ``edges``, from built subgraphs: the induced
    subgraph, its components by name, and the traced surface statistics of
    each component's own induced subgraph.  Oracle for the integer route of
    :func:`decomposition.biseparation_data`."""
    sub = g.check_subset(edges)
    if not sub:
        return ()
    out = []
    for vs, es in components_by_names(induced_subgraph(g, sub)):
        st = surface_stats_by_walks(induced_subgraph(g, es))
        out.append((vs, es, st.euler_genus, st.orientable))
    return tuple(out)


def incidence_tree_by_union_find(
    g: RibbonGraph, sides_a: list[frozenset], sides_b: list[frozenset]
) -> Optional[tuple]:
    """The incidence edges ``(A component, B component, shared vertex)``, in
    vertex order, when they form a tree over all the side components; else
    ``None``.  The sides are given by their vertex-name sets, A's then B's
    indexed in order.  A union-find over the components, keyed by vertex
    name, stops at the first cycle.  A subset with an empty side is
    trivial, and its tree has no edges.  Oracle for the count criterion of
    :func:`decomposition.biseparation_data`."""
    if not sides_a or not sides_b:
        return ()
    where_a = {v: i for i, vs in enumerate(sides_a) for v in vs}
    where_b = {v: len(sides_a) + i for i, vs in enumerate(sides_b) for v in vs}
    parent = list(range(len(sides_a) + len(sides_b)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    for v in g.vertex_names:
        if v in where_a and v in where_b:
            i, j = where_a[v], where_b[v]
            ri, rj = find(i), find(j)
            if ri == rj:
                return None  # a cycle or two shared vertices: not a tree
            parent[ri] = rj
            tree_edges.append((i, j, v))
    # an acyclic graph on n nodes is a tree exactly when it has n - 1 edges
    return tuple(tree_edges) if len(tree_edges) == len(parent) - 1 else None


def _all_starts_trace(idx: _Indexed, start_dart: int, start_flip: int, best):
    """Breadth-first code of the component of ``start_dart``.

    Vertices are numbered in discovery order; each vertex's rotation is read
    from its arrival dart, forwards or backwards according to the vertex's
    flip state; flips propagate so that every tree edge normalises to an
    untwisted band.  Returns the emitted token tuple, or ``None`` as soon as
    it compares greater than ``best``.
    """
    rot = idx.rot
    dart_vertex = idx.dart_vertex
    dart_pos = idx.dart_pos
    esign = idx.sign

    vmap: dict[int, int] = {}
    vflip: dict[int, int] = {}
    emap: dict[int, int] = {}
    eorder: list[int] = []
    v0 = dart_vertex[start_dart]
    vmap[v0] = 0
    vflip[v0] = start_flip
    queue = deque([(v0, dart_pos[start_dart])])
    tokens: list[int] = []
    nbest = len(best) if best is not None else -1
    ti = 0

    while queue:
        v, p0 = queue.popleft()
        r = rot[v]
        deg = len(r)
        step = 1 if vflip[v] > 0 else -1
        for k in range(deg):
            d = r[(p0 + step * k) % deg]
            e = d >> 1
            en = emap.get(e)
            if en is None:
                en = len(eorder)
                emap[e] = en
                eorder.append(e)
                w = dart_vertex[d ^ 1]
                if w not in vmap:
                    vmap[w] = len(vmap)
                    vflip[w] = vflip[v] * esign[e]
                    queue.append((w, dart_pos[d ^ 1]))
            tokens.append(en)
            if nbest >= 0:
                if ti < nbest:
                    b = best[ti]
                    if en > b:
                        return None
                    if en < b:
                        nbest = -1
                ti += 1
        tokens.append(_SEP_VERTEX)
        if nbest >= 0:
            if ti < nbest:
                b = best[ti]
                if _SEP_VERTEX > b:
                    return None
                if _SEP_VERTEX < b:
                    nbest = -1
            ti += 1

    tokens.append(_SEP_SIGNS)
    for e in eorder:
        u = dart_vertex[2 * e]
        w = dart_vertex[2 * e + 1]
        tokens.append(esign[e] * vflip[u] * vflip[w])
    return tuple(tokens)


def _all_starts_component_code(idx: _Indexed, members: list[int]) -> tuple:
    """Minimum trace over every start dart and chirality of one component."""
    best = None
    for v in members:
        for d in idx.rot[v]:
            for flip in (1, -1):
                t = _all_starts_trace(idx, d, flip, best)
                if t is not None and (best is None or t < best):
                    best = t
    if best is None:
        # edgeless component: a single bare vertex
        return (_SEP_VERTEX, _SEP_SIGNS)
    return best


def canonical_form_by_all_starts(g: RibbonGraph) -> str:
    """:func:`core.canonical_form` by the kernel it replaced: a trace from
    every start dart in both directions, with per-token pruning against the
    best so far and dict-keyed state.  Oracle for the library's first-row
    start filter and list-based trace, which must give the same codes."""
    idx = g._indexed()
    parts = []
    for members, edges, _ in idx.components:
        tokens = _all_starts_component_code(idx, members)
        parts.append(_render_component(tokens, len(members), edges.bit_count()))
    return "&".join(sorted(parts))


# -- partial-dual oracles ---------------------------------------------------------


def partial_dual_by_arrows(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """:func:`duality.partial_dual` by the route it replaced: the boundary of
    the spanning subgraph on the subset traced as named steps
    (:func:`topology.trace_walks`), an arrow for every band side and free
    arc crossed, and the graph rebuilt from that arrow presentation
    (:func:`core.from_arrow_presentation`).  The library's integer route
    must give the same graph, ``==``, vertex names and end slots included."""
    walks = trace_walks(g, g.check_subset(edges)).walks
    cycles = [[Arrow(step[1], step[3]) for step in walk if step[0] in ("side", "arc")]
              for walk in walks]
    return from_arrow_presentation(ArrowPresentation(cycles, validate=False))


def _reverse_cycle(cyc: list[Arrow]) -> list[Arrow]:
    return [Arrow(a.label, not a.forward) for a in reversed(cyc)]


def _rotate_to(cyc: list[Arrow], pos: int) -> list[Arrow]:
    return cyc[pos:] + cyc[:pos]


def _positions(cyc, label) -> list[int]:
    return [i for i, a in enumerate(cyc) if a.label == label]


def dual_one_edge_cycles(cycles: list[list[Arrow]], label: str) -> list[list[Arrow]]:
    """Apply the single-edge partial-dual surgery to arrow-presentation cycles.

    With the cycles normalised so the two ``label`` arrows point forward
    where possible, the rule is:

    * arrows on two cycles ``(e, α)`` and ``(e, β)``: merge into
      ``(α, e, β, e)`` with both new arrows reversed;
    * one cycle, aligned arrows ``(e, α, e, β)``: split into ``(α, e)`` and
      ``(β, e)`` with the new arrows reversed;
    * one cycle, opposed arrows ``(e, α, <e, β)``: keep one cycle
      ``(α, e, rev(β), <e)`` where ``rev`` reverses the stretch and flips
      its arrows.
    """
    homes = [i for i, c in enumerate(cycles) if any(a.label == label for a in c)]
    out = [list(c) for i, c in enumerate(cycles) if i not in homes]
    if len(homes) == 2:
        c1, c2 = list(cycles[homes[0]]), list(cycles[homes[1]])
        p1, p2 = _positions(c1, label)[0], _positions(c2, label)[0]
        if not c1[p1].forward:
            c1 = _reverse_cycle(c1)
            p1 = _positions(c1, label)[0]
        if not c2[p2].forward:
            c2 = _reverse_cycle(c2)
            p2 = _positions(c2, label)[0]
        alpha = _rotate_to(c1, p1)[1:]
        beta = _rotate_to(c2, p2)[1:]
        merged = alpha + [Arrow(label, False)] + beta + [Arrow(label, False)]
        out.append(merged)
        return out

    cyc = list(cycles[homes[0]])
    i, j = _positions(cyc, label)
    if not cyc[i].forward and not cyc[j].forward:
        cyc = _reverse_cycle(cyc)
        i, j = _positions(cyc, label)
    if cyc[i].forward and cyc[j].forward:
        alpha = cyc[i + 1 : j]
        beta = cyc[j + 1 :] + cyc[:i]
        out.append(alpha + [Arrow(label, False)])
        out.append(beta + [Arrow(label, False)])
        return out
    # opposed arrows: rotate so the forward arrow comes first
    if cyc[i].forward:
        cyc = _rotate_to(cyc, i)
    else:
        cyc = _rotate_to(cyc, j)
    i, j = _positions(cyc, label)
    alpha = cyc[i + 1 : j]
    beta = cyc[j + 1 :]
    out.append(alpha + [Arrow(label, True)] + _reverse_cycle(beta) + [Arrow(label, False)])
    return out


def partial_dual_one_edge(g: RibbonGraph, label: str) -> RibbonGraph:
    """The partial dual with respect to a single edge, by local surgery on
    the arrow presentation.  Equivalent to ``partial_dual(g, {label})``."""
    g.sign(label)
    cycles = [list(c) for c in to_arrow_presentation(g).cycles]
    new_cycles = dual_one_edge_cycles(cycles, label)
    return from_arrow_presentation(ArrowPresentation(new_cycles, validate=False))


def partial_dual_by_edges(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Fold the one-edge surgery over a subset, in sorted label order."""
    sub = g.check_subset(edges)
    cycles = [list(c) for c in to_arrow_presentation(g).cycles]
    for label in sorted(sub):
        cycles = dual_one_edge_cycles(cycles, label)
    return from_arrow_presentation(ArrowPresentation(cycles, validate=False))


class MarkedRibbonGraph:
    """A ribbon graph together with paired marking arrows interleaved in its
    vertex rotations; records removed edges without losing their position."""

    __slots__ = ("_names", "_items", "_signs")

    def __init__(self, vertices, signs, validate: bool = True):
        names = []
        items = []
        for name, rotation in vertices.items() if isinstance(vertices, Mapping) else vertices:
            names.append(str(name))
            row = []
            for x in rotation:
                if isinstance(x, (End, Mark)):
                    row.append(x)
                else:
                    row.append(as_end(x))
            items.append(tuple(row))
        self._names = tuple(names)
        self._items = tuple(items)
        self._signs = {str(k): _as_sign(v) for k, v in dict(signs).items()}
        if validate:
            self._check()

    def _check(self) -> None:
        mark_counts: dict[str, int] = {}
        for row in self._items:
            for x in row:
                if isinstance(x, Mark):
                    mark_counts[x.label] = mark_counts.get(x.label, 0) + 1
        for lab, n in mark_counts.items():
            if n != 2:
                raise InvalidGraph(f"mark label {lab!r} appears {n} times (need exactly 2)")
            if lab in self._signs:
                raise InvalidGraph(f"mark label {lab!r} collides with an edge label")
        RibbonGraph(
            zip(self._names, (tuple(x for x in row if isinstance(x, End)) for row in self._items)),
            self._signs,
        )

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self._names

    def items(self, name: str) -> tuple:
        return self._items[self._names.index(name)]

    @property
    def all_items(self) -> tuple[tuple, ...]:
        return self._items

    @property
    def signs(self) -> dict[str, int]:
        return dict(self._signs)

    @property
    def mark_labels(self) -> tuple[str, ...]:
        labs = {x.label for row in self._items for x in row if isinstance(x, Mark)}
        return tuple(sorted(labs))

    @property
    def graph(self) -> RibbonGraph:
        """The underlying ribbon graph, marks dropped."""
        return RibbonGraph(
            zip(self._names, (tuple(x for x in row if isinstance(x, End)) for row in self._items)),
            self._signs,
            _validate=False,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedRibbonGraph):
            return NotImplemented
        return (
            self._names == other._names
            and self._items == other._items
            and self._signs == other._signs
        )

    def __repr__(self) -> str:
        parts = []
        for name, row in zip(self._names, self._items):
            parts.append(f"{name}:({' '.join(map(str, row))})")
        return f"MarkedRibbonGraph({'; '.join(parts)})"


def mark_and_remove(g: RibbonGraph, edges: Iterable[str]) -> MarkedRibbonGraph:
    """Replace each edge of the subset by a pair of marking arrows occupying
    the same rotation slots, directions following the edge boundary."""
    sub = g.check_subset(edges)
    vertices = []
    for name in g.vertex_names:
        row = []
        for e in g.rotation(name):
            if e.label in sub:
                fwd = True if e.slot == 1 else g.sign(e.label) > 0
                row.append(Mark(e.label, fwd))
            else:
                row.append(e)
        vertices.append((name, row))
    signs = {k: v for k, v in g.signs.items() if k not in sub}
    return MarkedRibbonGraph(vertices, signs, validate=False)


def restore(m: MarkedRibbonGraph) -> RibbonGraph:
    """Reattach one edge per mark pair, inverting :func:`mark_and_remove`."""
    counts: dict[str, int] = {}
    first_dir: dict[str, bool] = {}
    signs = m.signs
    vertices = []
    for name in m.vertex_names:
        rot = []
        for x in m.items(name):
            if isinstance(x, Mark):
                counts[x.label] = counts.get(x.label, 0) + 1
                slot = counts[x.label]
                if slot == 1:
                    first_dir[x.label] = x.forward
                elif slot == 2:
                    signs[x.label] = 1 if x.forward == first_dir[x.label] else -1
                else:
                    raise InvalidGraph(f"mark label {x.label!r} appears more than twice")
                rot.append(End(x.label, slot))
            else:
                rot.append(x)
        vertices.append((name, rot))
    for lab, n in counts.items():
        if n != 2:
            raise InvalidGraph(f"unmatched mark label {lab!r} ({n} marks)")
    return RibbonGraph(vertices, signs)


def geometric_dual_marked(m: MarkedRibbonGraph) -> MarkedRibbonGraph:
    """Geometric dual of a marked ribbon graph; marking arrows ride along
    onto the boundary walks that become the dual vertices."""
    walks = trace_walks(m, None).walks
    counts: dict[str, int] = {}
    flags: dict[str, bool] = {}
    vertices = []
    signs: dict[str, int] = {}
    for i, walk in enumerate(walks):
        row = []
        for step in walk:
            if step[0] == "side":
                label, with_flag = step[1], step[3]
                counts[label] = counts.get(label, 0) + 1
                slot = counts[label]
                if slot == 1:
                    flags[label] = with_flag
                else:
                    signs[label] = 1 if with_flag == flags[label] else -1
                row.append(End(label, slot))
            elif step[0] == "mark":
                row.append(Mark(step[1], step[2]))
        vertices.append((f"v{i}", row))
    return MarkedRibbonGraph(vertices, signs)


def partial_dual_via_marks(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Partial dual by the mark-and-remove route: remove the complementary
    edges leaving marks, dualise the marked graph, reattach."""
    sub = g.check_subset(edges)
    marked = mark_and_remove(g, g.complement(sub))
    return restore(geometric_dual_marked(marked))


def partial_dual_subsets_by_codes(g: RibbonGraph, h: RibbonGraph) -> list[frozenset]:
    """Every edge subset of ``g`` whose built partial dual has ``h``'s
    canonical code, smallest subsets first: every subset is built and
    coded.  Oracle for the count filter of
    :func:`duality.partial_dual_subsets`."""
    target = h.canonical_code()
    return [
        sub for sub in subsets_sorted(g.edge_labels)
        if partial_dual(g, sub).canonical_code() == target
    ]


def join_splits_by_arcs(g: RibbonGraph, mask: int) -> Iterator[tuple[int, int]]:
    """The join splits of the subgraph induced by the edges in ``mask``, as
    ``(vertex index, edge mask)`` pairs read from the integer view of
    ``g``, each one or more times, in no useful order.  Oracle for the
    factor tree's splits (:func:`decomposition.join_summand_splits`).

    It tries every arc of every rotation, and checks each against the
    components of the subgraph minus the vertex's edges, which no arc may
    straddle.  The factor tree reads blocks instead.
    """
    idx = g._indexed()
    for v, darts in enumerate(idx.rot):
        rot = [x for x in darts if mask >> (x >> 1) & 1]
        d = len(rot)
        if d < 2:
            continue
        # components of the subgraph minus v, to check that none straddles
        # the split; a loop end at v records its partner's position instead
        at_v = 0
        for x in rot:
            at_v |= 1 << (x >> 1)
        rest, comp_of = idx.parts(mask & ~at_v)
        pos = {x: i for i, x in enumerate(rot)}
        mate = [pos.get(x ^ 1, -1) for x in rot]
        end_comp = [
            -1 if mate[i] >= 0 else comp_of[idx.dart_vertex[x ^ 1]]
            for i, x in enumerate(rot)
        ]
        for start in range(d):
            for length in range(1, d):
                block = [(start + k) % d for k in range(length)]
                inside = set(block)
                # loops must close inside or outside the block
                if any(mate[i] >= 0 and mate[i] not in inside for i in block):
                    continue
                comps_in = {end_comp[i] for i in block} - {-1}
                comps_out = {end_comp[i] for i in range(d) if i not in inside} - {-1}
                if comps_in & comps_out:
                    continue
                x = 0
                for i in block:
                    x |= 1 << (rot[i] >> 1)
                for ci in comps_in:
                    x |= rest[ci][1]
                yield v, x


def prime_factors_by_arcs(g: RibbonGraph) -> list[int]:
    """Edge masks of the prime factors of every component of ``g``, in the
    order of their sorted labels: each component's edges are split at the
    first join split that :func:`join_splits_by_arcs` finds until no split
    remains.  Oracle for the factor tree's factors."""
    out = []
    stack = [es for _, es, _ in g._indexed().components]
    while stack:
        mask = stack.pop()
        if not mask:
            continue
        split = next(join_splits_by_arcs(g, mask), None)
        if split is None:
            out.append(mask)
            continue
        stack.append(split[1])
        stack.append(mask & ~split[1])
    return sorted(out, key=lambda m: m & -m)


def join_biseparations_by_splits(g: RibbonGraph) -> set[frozenset]:
    """Every subset that the recursive join-split search accepts.  Oracle
    for :func:`decomposition.is_join_biseparation` that never uses the
    uniqueness of the prime factorization.

    An edge set accepts itself and the empty set, and for every join split
    ``(v, X)`` of it every union of a subset accepted by ``X`` and one
    accepted by the rest.  Each edge set is searched once per call.
    """
    idx = g._indexed()
    accepted: dict[int, set[int]] = {}

    def search(mask: int) -> set[int]:
        hit = accepted.get(mask)
        if hit is None:
            hit = {0, mask}
            for side in {x for _, x in join_splits_by_arcs(g, mask)}:
                rest = search(mask & ~side)
                hit.update(a | b for a in search(side) for b in rest)
            accepted[mask] = hit
        return hit

    return {idx.edge_set(m) for m in search((1 << g.n_edges) - 1)}


def biseparation_sequence_oracle(
    g: RibbonGraph, edges: Iterable[str], first: Optional[int] = None
) -> Optional[list[int]]:
    """Order the side components so that every prefix glues on the next
    component at exactly one shared vertex, or ``None`` if no order works.

    Implements the decomposition criterion literally by search over
    orderings (pruned), independent of the incidence-tree test.  ``first``
    forces the index of the opening component.
    """
    if len(components_by_names(g)) > 1:
        raise ValueError("sequence oracle requires a connected graph")
    sub = g.check_subset(edges)
    comps: list[tuple[str, frozenset, frozenset]] = []
    for side, part in (("A", sub), ("B", g.complement(sub))):
        if not part:
            continue
        for vs, es in components_by_names(induced_subgraph(g, part)):
            comps.append((side, vs, es))
    if len(comps) <= 1:
        return [0] if comps else []

    order: list[int] = []
    used = [False] * len(comps)

    def extend(prefix_vertices: frozenset) -> bool:
        if len(order) == len(comps):
            return True
        for i, (side, vs, _) in enumerate(comps):
            if used[i]:
                continue
            overlap = vs & prefix_vertices
            if len(overlap) != 1:
                continue
            v = next(iter(overlap))
            # the gluing vertex must sit in an already placed component of
            # the opposite side
            if not any(
                used[j] and comps[j][0] != side and v in comps[j][1]
                for j in range(len(comps))
            ):
                continue
            used[i] = True
            order.append(i)
            if extend(prefix_vertices | vs):
                return True
            order.pop()
            used[i] = False
        return False

    starts = [first] if first is not None else list(range(len(comps)))
    for s in starts:
        used[s] = True
        order.append(s)
        if extend(comps[s][1]):
            return list(order)
        order.pop()
        used[s] = False
    return None


# -- verification reports ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **info) -> None:
        if len(self.failures) < 25:
            self.failures.append(info)
        else:
            self.notes["more_failures"] = self.notes.get("more_failures", 0) + 1


@dataclass
class VerificationReport:
    params: dict
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self, stable: bool = False) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.ok else f"FAIL ({len(r.failures)} failures)"
            timing = "" if stable else f"  [{r.seconds:.2f}s]"
            notes = ""
            if r.notes:
                notes = "  " + " ".join(f"{k}={v}" for k, v in sorted(r.notes.items()))
            lines.append(f"{r.name:32s} {r.checked:8d} checked  {status}{timing}{notes}")
            for f in r.failures[:5]:
                lines.append(f"    failure: {json.dumps(f, sort_keys=True, default=str)}")
        lines.append("verdict: " + ("all checks passed" if self.ok else "FAILURES FOUND"))
        return "\n".join(lines)

    def to_json(self, stable: bool = False) -> dict:
        return {
            "params": self.params,
            "ok": self.ok,
            "checks": [
                {
                    "name": r.name,
                    "checked": r.checked,
                    "ok": r.ok,
                    "failures": [
                        {k: (sorted(v) if isinstance(v, (set, frozenset)) else v) for k, v in f.items()}
                        for f in r.failures
                    ],
                    **({} if stable else {"seconds": round(r.seconds, 3)}),
                    "notes": r.notes,
                }
                for r in self.results
            ],
        }


def _serial(g: RibbonGraph) -> str:
    from .io_text import serialize_graph

    return serialize_graph(g)


# -- per-graph analysis shared by the subset sweeps ---------------------------------


class _Analysis:
    """Everything the subset sweeps need about one corpus graph, computed
    once: duals, their traced stats, and certificates for every subset."""

    def __init__(self, g: RibbonGraph):
        self.g = g
        self.stats = surface_stats(g)
        self.subsets = list(subsets_sorted(g.edge_labels))
        self.dual: dict[frozenset, RibbonGraph] = {}
        self.dual_stats: dict[frozenset, object] = {}
        self.cert: dict[frozenset, Optional[BiseparationCertificate]] = {}
        self.sides: dict[frozenset, tuple] = {}
        for sub in self.subsets:
            d = partial_dual(g, sub)
            self.dual[sub] = d
            self.dual_stats[sub] = surface_stats_by_walks(d)
            comps, cert = biseparation_data(g, sub)
            self.cert[sub] = cert
            self.sides[sub] = comps

    def klass(self, sub: frozenset) -> Optional[str]:
        cert = self.cert[sub]
        return None if cert is None else cert.label


# -- the individual checks -----------------------------------------------------------


def _check_calibration(res: CheckResult, corpus: Corpus) -> None:
    graphs = calibration_graphs()
    for name, (want_gamma, want_ori) in CALIBRATION_EXPECTED.items():
        st = surface_stats(graphs[name])
        res.checked += 1
        if (st.euler_genus, st.orientable) != (want_gamma, want_ori):
            res.fail(fixture=name, got=(st.euler_genus, st.orientable),
                     want=(want_gamma, want_ori))


def _check_dual_identities(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    full = frozenset(g.edge_labels)
    res.checked += 1
    if labelled_code(ana.dual[frozenset()]) != labelled_code(g):
        res.fail(graph=_serial(g), property="empty-subset identity")
    gstar = geometric_dual(g)
    if labelled_code(ana.dual[full]) != labelled_code(gstar):
        res.fail(graph=_serial(g), property="full-subset geometric dual")
    if surface_stats(gstar).n_boundary != g.n_vertices or labelled_code(
        geometric_dual(gstar)
    ) != labelled_code(g):
        res.fail(graph=_serial(g), property="double dual / boundary count")
    for sub in ana.subsets:
        d = ana.dual[sub]
        st = ana.dual_stats[sub]
        if st.orientable != ana.stats.orientable:
            res.fail(graph=_serial(g), subset=sub, property="orientability preserved")
        if set(d.edge_labels) != set(g.edge_labels):
            res.fail(graph=_serial(g), subset=sub, property="edge labels preserved")
        if d.n_vertices != ana.dual_stats[full - sub].n_boundary:
            res.fail(graph=_serial(g), subset=sub, property="vertex/boundary duality")
        if ana.dual_stats[sub].euler_genus != ana.dual_stats[full - sub].euler_genus:
            res.fail(graph=_serial(g), subset=sub, property="complement genus equal")


def _check_symmetric_difference(res: CheckResult, ana: _Analysis, rng: random.Random) -> None:
    g = ana.g
    subs = ana.subsets
    if g.n_edges <= 4:
        pairs = [(a, b) for a in subs for b in subs]
    else:
        pairs = [(rng.choice(subs), rng.choice(subs)) for _ in range(32)]
    for a, b in pairs:
        res.checked += 1
        lhs = partial_dual(ana.dual[a], b)
        rhs = ana.dual[a ^ b]
        if labelled_code(lhs) != labelled_code(rhs):
            res.fail(graph=_serial(g), a=a, b=b, property="dual composition")


def view_fields(idx: _Indexed) -> tuple:
    """The fields of an integer view that its constructor fills, for
    comparing a view built from darts with :meth:`core._Indexed.of`."""
    return (idx.labels, idx.rot, idx.dart_vertex, idx.dart_pos, idx.sign,
            idx.components, idx.component_of)


def _check_route_agreement(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    for sub in ana.subsets:
        res.checked += 1
        if partial_dual_by_arrows(g, sub) != ana.dual[sub]:
            res.fail(graph=_serial(g), subset=sub, property="integer route vs arrow route")
        if view_fields(ana.dual[sub]._indexed()) != view_fields(_Indexed.of(ana.dual[sub])):
            res.fail(graph=_serial(g), subset=sub, property="dual view vs view from names")
        ref = labelled_code(ana.dual[sub])
        one_edge = partial_dual_by_edges(g, sub)
        marked = partial_dual_via_marks(g, sub)
        if labelled_code(one_edge) != ref or labelled_code(marked) != ref:
            res.fail(graph=_serial(g), subset=sub, property="construction agreement")


def _check_count_routes(res: CheckResult, ana: _Analysis) -> None:
    """The boundary-count routes against built graphs: each walk count
    ``f(A)`` and ``f(Aᶜ)`` against the built dual's vertex and traced
    boundary counts, every spectrum row against the built dual's traced
    statistics and its class, read from the prime factors' tables, against
    the whole-graph certificate, the integer :func:`surface_stats` of every
    built dual against the same traced statistics, every side list of a
    certificate against :func:`side_components_by_subgraphs`, and every
    certificate's existence and tree edges against
    :func:`incidence_tree_by_union_find` over the built sides."""
    g = ana.g
    full = frozenset(g.edge_labels)
    idx = g._indexed()
    rows = {r.subset: r for r in spectrum(g, classes=True)}
    # a subset and its complement share their side lists, so each edge
    # set's oracle list is built once
    built = {sub: side_components_by_subgraphs(g, sub) for sub in ana.subsets}
    for sub in ana.subsets:
        res.checked += 1
        row = rows.get(sub)
        st = ana.dual_stats[sub]
        if len(idx.walk_homes(idx.mask(sub))) != ana.dual[sub].n_vertices:
            res.fail(graph=_serial(g), subset=sub, property="f(A) vs built dual vertices")
        if len(idx.walk_homes(idx.mask(full - sub))) != st.n_boundary:
            res.fail(graph=_serial(g), subset=sub, property="f(Aᶜ) vs built dual boundary")
        if row is None or (row.euler_genus, row.orientable) != (st.euler_genus, st.orientable):
            res.fail(graph=_serial(g), subset=sub, property="spectrum row vs built dual")
        elif row.biseparation != str(BiseparationClass.of(ana.cert[sub])):
            res.fail(graph=_serial(g), subset=sub,
                     property="factor-table class vs whole-graph certificate")
        if surface_stats(ana.dual[sub]) != st:
            res.fail(graph=_serial(g), subset=sub,
                     property="integer surface stats vs traced walks")
        got = tuple(
            (c.side, c.vertices, c.edges, c.euler_genus, c.orientable) for c in ana.sides[sub]
        )
        want = tuple(("A",) + c for c in built[sub]) + tuple(("B",) + c for c in built[full - sub])
        if got != want:
            res.fail(graph=_serial(g), subset=sub,
                     property="side components vs built induced subgraphs")
        cert = ana.cert[sub]
        tree = incidence_tree_by_union_find(
            g, [c[0] for c in built[sub]], [c[0] for c in built[full - sub]]
        )
        if tree != (None if cert is None else cert.tree_edges):
            res.fail(graph=_serial(g), subset=sub,
                     property="count criterion vs union-find incidence tree")


def _check_genus_decomposition(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    for sub in ana.subsets:
        res.checked += 1
        cert = ana.cert[sub]
        st = ana.dual_stats[sub]
        comps = ana.sides[sub]
        side_sum = sum(c.euler_genus for c in comps)
        additive = st.euler_genus == side_sum
        if (cert is not None) != additive:
            res.fail(graph=_serial(g), subset=sub,
                     property="certificate iff genus adds",
                     certificate=cert is not None, additive=additive)
        if cert is not None:
            want_ori = all(c.orientable for c in comps)
            if st.orientable != want_ori:
                res.fail(graph=_serial(g), subset=sub,
                         property="certificate orientability clause")


def _check_complement_symmetry(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    full = frozenset(g.edge_labels)
    for sub in ana.subsets:
        res.checked += 1
        cert = ana.cert[sub]
        co = ana.cert[full - sub]
        if (cert is None) != (co is None):
            res.fail(graph=_serial(g), subset=sub, property="complement symmetry")
            continue
        if cert is None or cert.trivial:
            continue
        mine = {frozenset((cert.components[i].edges, cert.components[j].edges)): v
                for i, j, v in cert.tree_edges}
        theirs = {frozenset((co.components[i].edges, co.components[j].edges)): v
                  for i, j, v in co.tree_edges}
        if mine != theirs:
            res.fail(graph=_serial(g), subset=sub, property="identical incidence trees")


def _check_sequence_oracle(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    if g.n_edges > 8:
        return  # factorial search over component orderings
    for sub in ana.subsets:
        cert = ana.cert[sub]
        res.checked += 1
        order = biseparation_sequence_oracle(g, sub)
        if (cert is not None) != (order is not None):
            res.fail(graph=_serial(g), subset=sub,
                     property="tree criterion vs sequence search")
            continue
        if cert is None or cert.trivial:
            continue
        # distinct gluing vertices, and any component may open the sequence
        if len({v for _, _, v in cert.tree_edges}) != len(cert.tree_edges):
            res.fail(graph=_serial(g), subset=sub, property="distinct gluing vertices")
        for i in range(len(cert.components)):
            if biseparation_sequence_oracle(g, sub, first=i) is None:
                res.fail(graph=_serial(g), subset=sub, first=i,
                         property="any component can open the sequence")


def _check_low_genus_duals(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    for sub in ana.subsets:
        res.checked += 1
        klass = ana.klass(sub)
        gamma = ana.dual_stats[sub].euler_genus
        if (klass == "plane") != (gamma == 0):
            res.fail(graph=_serial(g), subset=sub, klass=klass, gamma=gamma,
                     property="plane dual iff plane certificate")
        if (klass == "rp2") != (gamma == 1):
            res.fail(graph=_serial(g), subset=sub, klass=klass, gamma=gamma,
                     property="crosscap dual iff crosscap certificate")


def _orbit(g: RibbonGraph, start: frozenset) -> set[frozenset]:
    moves = summand_edge_sets(g)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for m in moves:
            nxt = cur ^ m
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _check_toggle_orbit(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    for label in ("plane", "rp2"):
        sets = {sub for sub in ana.subsets if ana.klass(sub) == label}
        res.checked += 1
        if not sets:
            continue
        orbit = _orbit(g, min(sets, key=sorted))
        if orbit != sets:
            res.fail(graph=_serial(g), label=label,
                     sets=[sorted(s) for s in sorted(sets, key=sorted)],
                     orbit=[sorted(s) for s in sorted(orbit, key=sorted)],
                     property="single toggle orbit")


def _check_prime_split_count(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    if prime_factorization(g).n_factors != 1:
        return
    for label in ("plane", "rp2"):
        sets = [sub for sub in ana.subsets if ana.klass(sub) == label]
        res.checked += 1
        if len(sets) not in (0, 2):
            res.fail(graph=_serial(g), label=label, count=len(sets),
                     sets=[sorted(s) for s in sets],
                     property="prime graphs carry 0 or 2 such subsets")
        elif len(sets) == 2 and sets[0] != frozenset(g.edge_labels) - sets[1]:
            res.fail(graph=_serial(g), label=label,
                     property="the two subsets must be complementary")


def _check_join_structure(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    for sub in ana.subsets:
        res.checked += 1
        jb = is_join_biseparation(g, sub)
        jl = classify_join_biseparation(g, sub)
        if jb and ana.cert[sub] is None:
            res.fail(graph=_serial(g), subset=sub,
                     property="join certificate implies certificate")
        if jl == "plane-join" and ana.klass(sub) != "plane":
            res.fail(graph=_serial(g), subset=sub, property="plane-join implies plane")
        if jl == "rp2-join" and ana.klass(sub) != "rp2":
            res.fail(graph=_serial(g), subset=sub, property="rp2-join implies rp2")


def _check_join_upgrade(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    gamma = ana.stats.euler_genus
    if gamma > 1:
        return
    for sub in ana.subsets:
        res.checked += 1
        klass = ana.klass(sub)
        jl = classify_join_biseparation(g, sub)
        if gamma == 0 and klass == "plane" and jl != "plane-join":
            res.fail(graph=_serial(g), subset=sub,
                     property="plane certificate upgrades to plane-join")
        if gamma == 1 and klass == "rp2" and jl != "rp2-join":
            res.fail(graph=_serial(g), subset=sub,
                     property="crosscap certificate upgrades to rp2-join")


def _check_same_genus(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    gamma = ana.stats.euler_genus
    for sub in ana.subsets:
        res.checked += 1
        jl = classify_join_biseparation(g, sub)
        dual_gamma = ana.dual_stats[sub].euler_genus
        both_plane = gamma == 0 and dual_gamma == 0
        both_rp2 = gamma == 1 and dual_gamma == 1
        if both_plane != (jl == "plane-join"):
            res.fail(graph=_serial(g), subset=sub, property="plane pair iff plane-join")
        if both_rp2 != (jl == "rp2-join"):
            res.fail(graph=_serial(g), subset=sub, property="rp2 pair iff rp2-join")


def _check_join_oracle(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    accepted = join_biseparations_by_splits(g)
    for sub in ana.subsets:
        res.checked += 1
        if is_join_biseparation(g, sub) != (sub in accepted):
            res.fail(graph=_serial(g), subset=sub,
                     property="factor test vs brute-force join search")
    res.checked += 1
    if list(_factor_tree(g).masks) != prime_factors_by_arcs(g):
        res.fail(graph=_serial(g), property="factor tree vs arc search: factors")
    res.checked += 1
    if set(_join_splits(g)) != set(join_splits_by_arcs(g, (1 << g.n_edges) - 1)):
        res.fail(graph=_serial(g), property="factor tree vs arc search: join splits")


def _check_orientability_oracle(res: CheckResult, ana: _Analysis) -> None:
    res.checked += 1
    if is_orientable(ana.g) != orientable_by_double_cover(ana.g):
        res.fail(graph=_serial(ana.g), property="sign propagation vs double cover")


def _check_representation_roundtrip(res: CheckResult, ana: _Analysis) -> None:
    g = ana.g
    res.checked += 1
    code = labelled_code(g)
    if labelled_code(from_arrow_presentation(to_arrow_presentation(g))) != code:
        res.fail(graph=_serial(g), property="arrow presentation round trip")
    if canonical_form_by_all_starts(g) != g.canonical_code():
        res.fail(graph=_serial(g), property="first-row start filter vs every start")
    reconstructed = from_canonical_code(g.canonical_code())
    if surface_stats(reconstructed).euler_genus != ana.stats.euler_genus:
        res.fail(graph=_serial(g), property="genus stable under canonical rebuild")
    for sub in ana.subsets:
        if labelled_code(restore(mark_and_remove(g, sub))) != code:
            res.fail(graph=_serial(g), subset=sub, property="mark/restore round trip")


def _neighbours(g: RibbonGraph, policy: str) -> list[RibbonGraph]:
    """Every graph one search step takes ``g`` to, built from ``g`` itself:
    the summand duals of the policy's step sets, then the geometric dual.
    The move search reaches the same graphs as partial duals of its start
    graph, keyed by edge subset."""
    idx = g._indexed()
    return [partial_dual(g, idx.edge_set(m)) for m in _step_sets(g, policy)] + [geometric_dual(g)]


def _move_closure(g: RibbonGraph, bound: int, policy: str) -> dict[str, int]:
    """Canonical codes reachable by search moves, with their depths, by a
    breadth-first search over built graphs."""
    depth = {g.canonical_code(): 0}
    frontier = [g]
    while frontier:
        nxt = []
        for cur in frontier:
            d = depth[cur.canonical_code()]
            if d >= bound:
                continue
            for child in _neighbours(cur, policy):
                code = child.canonical_code()
                if code not in depth:
                    depth[code] = d + 1
                    nxt.append(child)
        frontier = nxt
    return depth


def _check_move_completeness(res: CheckResult, ana: _Analysis, bound: int = 8) -> None:
    g = ana.g
    gamma = ana.stats.euler_genus
    if gamma > 1:
        return
    dual_codes = {ana.dual[sub].canonical_code() for sub in ana.subsets}
    targets = {
        ana.dual[sub].canonical_code()
        for sub in ana.subsets
        if ana.dual_stats[sub].euler_genus == gamma
    }
    res.checked += len(targets)
    for policy, note in (("unions", "max_depth"), ("splits", "split_policy_depth")):
        depth = _move_closure(g, bound, policy)
        missing = targets - set(depth)
        for code in sorted(missing):
            res.fail(graph=_serial(g), target=code, policy=policy,
                     property="every same-genus partial dual reachable by moves")
        reached = max((depth[c] for c in targets & set(depth)), default=0)
        res.notes[note] = max(res.notes.get(note, 0), reached)
        # soundness: the search never leaves the partial duals
        extra = set(depth) - dual_codes
        for code in sorted(extra):
            res.fail(graph=_serial(g), reached=code, policy=policy,
                     property="moves stay inside the partial duals")


def _check_genus_additivity(res: CheckResult, corpus: Corpus, cap: int = 40) -> None:
    small = [g for g in corpus.graphs if 1 <= g.n_edges <= 2][:cap]
    for g1 in small:
        for g2 in small:
            res.checked += 1
            u = disjoint_union(g1, g2)
            want = surface_stats(g1).euler_genus + surface_stats(g2).euler_genus
            if surface_stats(u).euler_genus != want:
                res.fail(g1=_serial(g1), g2=_serial(g2), property="genus additivity")


def _check_disjoint_action(res: CheckResult, corpus: Corpus, max_total: int = 4) -> None:
    small = [g for g in corpus.graphs if 1 <= g.n_edges <= max_total - 1]
    for g1 in small:
        for g2 in small:
            if g1.n_edges + g2.n_edges > max_total:
                continue
            u = disjoint_union(g1, g2)
            labels1 = {f"g0.{lab}" for lab in g1.edge_labels}
            for sub in subsets_sorted(u.edge_labels):
                res.checked += 1
                lhs = partial_dual(u, sub)
                p = partial_dual(g1, {lab[3:] for lab in sub if lab in labels1})
                q = partial_dual(g2, {lab[3:] for lab in sub if lab not in labels1})
                if not is_equivalent(lhs, disjoint_union(p, q)):
                    res.fail(g1=_serial(g1), g2=_serial(g2), subset=sub,
                             property="duality acts on components independently")


def _check_sum_genus(res: CheckResult, corpus: Corpus) -> None:
    """Constructed vertex-gluings: the Euler characteristic of the dual of
    one summand's edge set is exact, genus adds exactly for single-vertex
    gluings and exceeds strictly otherwise."""
    pool = [g for g in corpus.graphs if 1 <= g.n_edges <= 2]
    multi = [g for g in corpus.graphs if g.n_edges == 3 and g.n_vertices >= 3]
    for n in (1, 2, 3):
        lefts = pool if n <= 2 else pool + multi
        rights = pool if n <= 2 else pool + multi
        for p in lefts:
            pv = [v for v in p.vertex_names]
            if len(pv) < n:
                continue
            sp = surface_stats(p)
            for q in rights:
                qv = [v for v in q.vertex_names]
                if len(qv) < n:
                    continue
                q2 = q.relabeled({lab: "q" + lab for lab in q.edge_labels})
                sq = surface_stats(q2)
                chi_want = sp.euler_characteristic + sq.euler_characteristic - 2 * n
                gamma_sum = sp.euler_genus + sq.euler_genus
                for vps in itertools.permutations(pv, n):
                    for vqs in itertools.combinations(qv, n):
                        pattern_space = [
                            list(all_interleave_patterns(p.degree(a), q.degree(b)))
                            for a, b in zip(vps, vqs)
                        ]
                        total = 1
                        for ps in pattern_space:
                            total *= len(ps)
                        if total > 600:
                            pattern_space = [ps[:3] for ps in pattern_space]
                        for choice in itertools.product(*pattern_space):
                            pairing = [
                                (a, b, word, off)
                                for (a, b), (word, off) in zip(zip(vps, vqs), choice)
                            ]
                            s = n_sum(p, q2, pairing)
                            if not is_connected(s):
                                continue
                            res.checked += 1
                            dual = partial_dual(s, q2.edge_labels)
                            dual2 = partial_dual(s, p.edge_labels)
                            st, st2 = surface_stats(dual), surface_stats(dual2)
                            if st.euler_characteristic != chi_want or st2.euler_characteristic != chi_want:
                                res.fail(p=_serial(p), q=_serial(q2), n=n,
                                         property="dual Euler characteristic identity")
                            if n == 1 and st.euler_genus != gamma_sum:
                                res.fail(p=_serial(p), q=_serial(q2), n=n,
                                         property="single-vertex gluing adds genus")
                            if n >= 2 and st.euler_genus <= gamma_sum:
                                res.fail(p=_serial(p), q=_serial(q2), n=n,
                                         property="multi-vertex gluing exceeds genus sum")


def _check_join_dual_distribution(res: CheckResult, corpus: Corpus) -> None:
    # joins of up to four edges over every vertex pair; five-edge joins over
    # the first vertex pair of each graph pair
    from .moves import join_partial_dual_distributes

    left = [g for g in corpus.graphs if 1 <= g.n_edges <= 2]
    right = [g for g in corpus.graphs if 1 <= g.n_edges <= 3]
    for p in left:
        for q in right:
            total = p.n_edges + q.n_edges
            if total > 5:
                continue
            q2 = q.relabeled({lab: "q" + lab for lab in q.edge_labels})
            first_only = total == 5
            for vp in p.vertex_names:
                for vq in q2.vertex_names:
                    if q2.degree(vq) == 0:
                        continue
                    for sub in subsets_sorted(
                        list(p.edge_labels) + list(q2.edge_labels)
                    ):
                        res.checked += 1
                        if not join_partial_dual_distributes(p, vp, q2, vq, sub):
                            res.fail(p=_serial(p), q=_serial(q2), subset=sub,
                                     property="partial dual distributes over joins")
                    if first_only:
                        break
                if first_only:
                    break


def _check_corpus_counts(res: CheckResult, corpus: Corpus) -> None:
    """An exhaustive corpus has exactly the classes of the raw enumeration
    up to three edges; a random one is a sample, so its connected graphs
    need only be among them."""
    limit = min(3, corpus.params.get("max_edges", 0))
    raw = enumerate_raw(limit)
    raw_codes = {g.canonical_code() for g in raw}
    aug_codes = {
        g.canonical_code() for g in corpus.graphs
        if g.n_edges <= limit and is_connected(g)
    }
    sample = corpus.params.get("mode") == "random"
    only_raw = 0 if sample else len(raw_codes - aug_codes)
    res.checked += 1
    if only_raw or aug_codes - raw_codes:
        res.fail(property="augmentation vs raw enumeration",
                 only_raw=only_raw,
                 only_augmented=len(aug_codes - raw_codes))
    res.notes["classes"] = {e: sum(1 for g in corpus.graphs if g.n_edges == e)
                            for e in range(limit + 1)}


def _check_interlaced_discrepancy(res: CheckResult, corpus: Corpus) -> None:
    """The two candidate rotations for the three-loop, genus-two example:
    only ``abacbc`` keeps its genus under dualling the first loop; the
    ``abcacb`` variant drops to a plane dual."""
    fix = calibration_graphs()
    keeper = fix["triple-bouquet-abacbc"]
    drifter = fix["triple-bouquet-abcacb"]
    res.checked += 1
    ok = (
        surface_stats(keeper).euler_genus == 2
        and surface_stats(partial_dual(keeper, {"a"})).euler_genus == 2
        and surface_stats(drifter).euler_genus == 2
        and surface_stats(partial_dual(drifter, {"a"})).euler_genus == 0
    )
    if not ok:
        res.fail(property="documented rotation discrepancy values")
    # the genus-two family: a certificate on {a} but no join structure, and
    # the dual keeps the genus.  The non-orientable member arises from the
    # other rotation with the last two loops twisted.
    twisted = single_vertex("a b c a c b", "+--")
    for g, want_ori in ((keeper, True), (twisted, False)):
        res.checked += 1
        cert = is_biseparation(g, {"a"})
        st = surface_stats(g)
        std = surface_stats(partial_dual(g, {"a"}))
        if not (
            cert is not None
            and st.euler_genus == 2
            and st.orientable == want_ori
            and std.euler_genus == 2
            and not is_join_biseparation(g, {"a"})
        ):
            res.fail(graph=_serial(g),
                     property="certificate without join structure at genus two")


PER_GRAPH_CHECKS: dict[str, Callable] = {
    "partial-dual-identities": _check_dual_identities,
    "dual-composition": None,  # handled specially (needs rng)
    "dual-route-agreement": _check_route_agreement,
    "count-route-agreement": _check_count_routes,
    "genus-decomposition": _check_genus_decomposition,
    "complement-symmetry": _check_complement_symmetry,
    "sequence-oracle-agreement": _check_sequence_oracle,
    "low-genus-duals": _check_low_genus_duals,
    "toggle-orbit": _check_toggle_orbit,
    "prime-split-count": _check_prime_split_count,
    "join-structure": _check_join_structure,
    "join-upgrade": _check_join_upgrade,
    "same-genus-characterization": _check_same_genus,
    "join-oracle-agreement": _check_join_oracle,
    "orientability-cross-check": _check_orientability_oracle,
    "representation-roundtrip": _check_representation_roundtrip,
    "move-completeness": _check_move_completeness,
}

CORPUS_CHECKS: dict[str, Callable] = {
    "calibration": _check_calibration,
    "genus-additivity": _check_genus_additivity,
    "component-duality": _check_disjoint_action,
    "sum-genus-excess": _check_sum_genus,
    "join-dual-distribution": _check_join_dual_distribution,
    "corpus-counts": _check_corpus_counts,
    "interlaced-bouquet-discrepancy": _check_interlaced_discrepancy,
}

ALL_CHECKS = [
    "calibration",
    "corpus-counts",
    "partial-dual-identities",
    "dual-composition",
    "dual-route-agreement",
    "count-route-agreement",
    "component-duality",
    "genus-decomposition",
    "complement-symmetry",
    "sequence-oracle-agreement",
    "sum-genus-excess",
    "low-genus-duals",
    "toggle-orbit",
    "prime-split-count",
    "join-structure",
    "join-upgrade",
    "same-genus-characterization",
    "join-oracle-agreement",
    "join-dual-distribution",
    "move-completeness",
    "orientability-cross-check",
    "representation-roundtrip",
    "genus-additivity",
    "interlaced-bouquet-discrepancy",
]


def check_suite(
    corpus: Corpus,
    which: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> VerificationReport:
    """Run the selected checks over a corpus and report failures.

    ``which`` is a list of check names (default: all).  Results are
    deterministic for fixed corpus parameters and seed.
    """
    names = list(which) if which else list(ALL_CHECKS)
    for n in names:
        if n not in ALL_CHECKS:
            raise ValueError(f"unknown check {n!r}; known: {', '.join(ALL_CHECKS)}")
    rng = random.Random(seed)
    results = {n: CheckResult(name=n) for n in names}

    per_graph = [n for n in names if n in PER_GRAPH_CHECKS or n == "dual-composition"]
    if per_graph:
        for g in corpus.graphs:
            refuse_large_sweep(g, "verify")
        for g in corpus.graphs:
            if g.n_edges == 0:
                continue
            ana = _Analysis(g)
            for n in per_graph:
                t0 = time.perf_counter()
                if n == "dual-composition":
                    _check_symmetric_difference(results[n], ana, rng)
                else:
                    PER_GRAPH_CHECKS[n](results[n], ana)
                results[n].seconds += time.perf_counter() - t0

    for n in names:
        if n in CORPUS_CHECKS:
            t0 = time.perf_counter()
            CORPUS_CHECKS[n](results[n], corpus)
            results[n].seconds += time.perf_counter() - t0

    return VerificationReport(
        params=dict(corpus.params, checks=names, seed=seed),
        results=[results[n] for n in names],
    )
