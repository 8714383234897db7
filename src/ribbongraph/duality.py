"""Geometric duality, partial duality and the partial-dual genus spectrum.

Three independent constructions of the partial dual are provided and are
cross-checked against each other throughout the test suite:

* :func:`partial_dual` retraces the boundary of the spanning subgraph on the
  chosen edge set inside the host graph, records a directed labelled arrow
  on every arc where that boundary meets an edge, and rebuilds the result
  from the arrow presentation so obtained.  This is the reference route.
* :func:`partial_dual_one_edge` performs a local surgery on the arrow
  presentation (merge two cycles, split one, or reverse a stretch); partial
  duals compose, so folding it over a subset must agree with the reference.
* :func:`partial_dual_via_marks` removes the complementary edges leaving
  marks, takes the geometric dual of the marked graph and reattaches them.

The spectrum builds no partial dual.  Write ``f(A)`` for the number of
boundary walks of the spanning subgraph on ``A``.  The vertices of ``G^A``
are the walks of ``A`` and its boundary components those of the complement,
``v(G^A) = f(A)`` and ``f(G^A) = f(Aᶜ)`` (Chmutov, JCTB 99, 2009); partial
duality keeps the edges, the components and orientability, so for a graph
with ``k`` components and ``e`` edges

    γ(G^A) = 2k + e − f(A) − f(Aᶜ).

:func:`spectrum` reads both counts from the integer walk counter of the
graph's indexed view.  The built route, ``surface_stats(partial_dual(g, A))``,
is the oracle it is checked against in ``verify`` (``count-route-agreement``).
The same two counts filter :func:`partial_dual_subsets`: only a subset
whose counts match the target's vertex and boundary counts is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .core import (
    Arrow,
    ArrowPresentation,
    End,
    InvariantViolation,
    Mark,
    MarkedRibbonGraph,
    RibbonGraph,
    RibbonGraphError,
    from_arrow_presentation,
    to_arrow_presentation,
)
from .topology import is_orientable, trace_walks


def _walks_to_presentation(walks) -> ArrowPresentation:
    cycles = []
    for walk in walks:
        cyc = []
        for step in walk:
            if step[0] in ("side", "arc"):
                cyc.append(Arrow(step[1], step[3]))
            elif step[0] == "mark":
                cyc.append(Arrow(step[1], step[2]))
        cycles.append(cyc)
    return ArrowPresentation(cycles, validate=False)


def partial_dual(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """The partial dual of ``g`` with respect to an edge subset.

    The boundary of the spanning ribbon subgraph on the subset is traced
    inside ``g``; band sides of subset edges and free attachment arcs of the
    remaining edges each receive an arrow, and the marked walks form the
    arrow presentation of the result.  Edge labels are preserved; vertices
    get fresh names.
    """
    sub = g.check_subset(edges)
    walks = trace_walks(g, sub).walks
    result = from_arrow_presentation(_walks_to_presentation(walks))
    # a vertex without subset edges keeps its own boundary walk, so it
    # survives as a vertex of the dual
    isolated = sum(
        1
        for name in g.vertex_names
        if not any(e.label in sub for e in g.rotation(name))
    )
    if result.n_vertices < isolated:
        raise InvariantViolation(
            f"partial dual has {result.n_vertices} vertices, fewer than the "
            f"{isolated} vertices without subset edges"
        )
    return result


def geometric_dual(g: RibbonGraph) -> RibbonGraph:
    """The geometric dual: boundary components become the new vertices.

    Each boundary walk yields one dual vertex whose rotation lists the edge
    bands in crossing order; an edge stays untwisted exactly when its two
    sides are crossed in the same sense of its band boundary.
    """
    walks = trace_walks(g, None).walks
    counts: dict[str, int] = {}
    flags: dict[str, bool] = {}
    vertices = []
    signs: dict[str, int] = {}
    for i, walk in enumerate(walks):
        rot = []
        for step in walk:
            if step[0] != "side":
                continue
            label, with_flag = step[1], step[3]
            counts[label] = counts.get(label, 0) + 1
            slot = counts[label]
            if slot == 1:
                flags[label] = with_flag
            else:
                signs[label] = 1 if with_flag == flags[label] else -1
            rot.append(End(label, slot))
        vertices.append((f"v{i}", rot))
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


# -- one-edge surgery on arrow presentations ---------------------------------


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


def partial_dual_via_marks(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Partial dual by the mark-and-remove route: remove the complementary
    edges leaving marks, dualise the marked graph, reattach.  A third,
    independent assembly used for cross-checking."""
    from .core import mark_and_remove, restore

    sub = g.check_subset(edges)
    marked = mark_and_remove(g, g.complement(sub))
    return restore(geometric_dual_marked(marked))


# -- spectrum -----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    """One row of the partial-dual genus spectrum."""

    subset: frozenset
    euler_genus: int
    orientable: bool
    biseparation: Optional[str] = None


def subsets_sorted(labels: Iterable[str]):
    """All subsets of a label set, smallest first, lexicographic within size."""
    import itertools

    labs = sorted(labels)
    for k in range(len(labs) + 1):
        for combo in itertools.combinations(labs, k):
            yield frozenset(combo)


# The largest edge count whose 2^e subsets a command sweeps unasked: 65,536
# subsets, whose spectrum rows alone take about 54 MB.
SWEEP_MAX_EDGES = 16


def refuse_large_sweep(g: RibbonGraph, what: str, override: str = "") -> None:
    """Raise :class:`RibbonGraphError` if sweeping the ``2^e`` edge subsets
    of ``g`` for ``what`` would pass :data:`SWEEP_MAX_EDGES` edges;
    ``override`` tells the caller how to insist, where it can."""
    if g.n_edges > SWEEP_MAX_EDGES:
        raise RibbonGraphError(
            f"{what} over {g.n_edges} edges means 2^{g.n_edges} subsets, above "
            f"the limit of {SWEEP_MAX_EDGES} edges{override}"
        )


def spectrum(
    g: RibbonGraph,
    genus: Optional[int] = None,
    classify: Optional[Callable[[RibbonGraph, frozenset], str]] = None,
    force: bool = False,
) -> list[SpectrumEntry]:
    """Euler genus and orientability of every partial dual of ``g``.

    No partial dual is built.  ``G^A`` has one vertex per boundary walk of
    the spanning subgraph on ``A`` and one boundary component per walk of
    the spanning subgraph on the complement, keeps the ``e`` edges and the
    ``k`` components of ``g``, and is orientable exactly when ``g`` is, so

        γ(G^A) = 2k + e − f(A) − f(Aᶜ).

    Each count ``f`` is taken once per edge set, from the integer walk
    counter of the graph's indexed view, and serves both a subset and its
    complement.  ``genus`` filters the rows; ``classify`` optionally
    annotates each row (the decomposition module supplies a suitable
    callable).  Enumerating ``2^e`` subsets is refused above
    :data:`SWEEP_MAX_EDGES` edges unless forced.
    """
    if not force:
        refuse_large_sweep(g, "spectrum", "; pass force=True to run anyway")
    idx = g._indexed()
    full = (1 << idx.ne) - 1
    base = 2 * len(idx.components) + idx.ne
    orientable = is_orientable(g)
    rows = []
    for sub in subsets_sorted(g.edge_labels):
        mask = idx.mask(sub)
        gamma = base - len(idx.walk_homes(mask)) - len(idx.walk_homes(full ^ mask))
        if genus is not None and gamma != genus:
            continue
        rows.append(
            SpectrumEntry(
                subset=sub,
                euler_genus=gamma,
                orientable=orientable,
                biseparation=classify(g, sub) if classify else None,
            )
        )
    return rows


def partial_dual_subsets(g: RibbonGraph, h: RibbonGraph) -> list[frozenset]:
    """Every edge subset ``A`` of ``g`` whose partial dual ``G^A`` is
    equivalent to ``h``, smallest subsets first.

    ``G^A`` has ``f(A)`` vertices and ``f(Aᶜ)`` boundary components, so a
    subset whose two walk counts differ from ``h``'s vertex and boundary
    counts cannot give ``h``; only the others are built and canonicalised.
    Partial duals keep the edge count, so a graph with a different edge
    count gives no subset without a sweep, which is otherwise refused above
    :data:`SWEEP_MAX_EDGES` edges.
    """
    if g.n_edges != h.n_edges:
        return []
    refuse_large_sweep(g, "relate")
    idx = g._indexed()
    full = (1 << idx.ne) - 1
    counts = (h.n_vertices, len(h._indexed().walk_homes(full)))
    target = h.canonical_code()
    out = []
    for sub in subsets_sorted(g.edge_labels):
        mask = idx.mask(sub)
        if (len(idx.walk_homes(mask)), len(idx.walk_homes(full ^ mask))) != counts:
            continue
        if partial_dual(g, sub).canonical_code() == target:
            out.append(sub)
    return out
