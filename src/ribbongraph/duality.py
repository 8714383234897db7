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

Separability decides the rest.  Write ``G`` as the join of its prime
factors ``P_i`` with edge sets ``E_i``; partial duality distributes over
joins and Euler genus adds over them, so

    γ(G^A) = Σ_i γ(P_i^(A∩E_i)),

and ``A`` carries a biseparation certificate exactly when every ``A∩E_i``
carries one on its factor, with the side-genus sums adding up.
:func:`spectrum` therefore fills one table per prime factor, genus and
certificate class for each subset of ``E_i`` from the integer walk and
component counts of the graph's indexed view, and reads each row off the
tables; :func:`genus_polynomial` multiplies the tables' histograms.  The
built route, ``surface_stats(partial_dual(g, A))``, and the whole-graph
certificates are the oracles they are checked against in ``verify``
(``count-route-agreement``).  The same two walk counts filter
:func:`partial_dual_subsets`: only a subset whose counts match the
target's vertex and boundary counts is built.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    Arrow,
    ArrowPresentation,
    End,
    InvalidGraph,
    InvariantViolation,
    Mark,
    MarkedRibbonGraph,
    RibbonGraph,
    RibbonGraphError,
    from_arrow_presentation,
    to_arrow_presentation,
)
from .decomposition import BiseparationClass, _label_of_total, _prime_factor_masks
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


@dataclass(frozen=True, slots=True)
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


def _factor_tables(g: RibbonGraph, masks: list[int], classes: bool) -> list[tuple]:
    """One table per prime factor ``F`` (an edge mask of ``g``), indexed by
    the submasks ``S`` of ``F`` written in ``F``'s own bits.

    Returns per factor ``(edges, genus, cert)``: the edge indices of ``F``
    in bit order, ``γ(P^S)`` for the factor ``P``, and (when ``classes``)
    the side-genus sum of ``S``'s certificate on ``P``, or ``-1`` when it
    has none.  With ``v_P`` the vertices that ``F``'s edges touch, the
    spanning subgraph of ``g`` on ``S`` is ``P``'s plus ``v − v_P`` bare
    vertices, each one walk and one component; so ``P``'s walk count is
    ``f_P(S) = f(S) − (v − v_P)``, its component count ``c_P(S)`` likewise,
    and as ``P`` is connected

        γ(P^S) = 2 + |F| − f_P(S) − f_P(F∖S).

    The side components of ``S`` on ``P`` are the parts of the spanning
    subgraphs on ``S`` and ``F∖S`` that carry an edge; their genera sum to
    the Euler genus ``2 c_P(S) − v_P + |S| − f_P(S)`` of the spanning
    subgraph on ``S``, plus the same for ``F∖S``.  Their incidence graph,
    one edge per vertex on both sides, is connected because ``P`` is, so it
    is a tree exactly when it has one edge fewer than nodes, which reduces
    to ``c_P(S) + c_P(F∖S) = v_P + 1``.  ``S = ∅`` and ``S = F`` always
    qualify.
    """
    idx = g._indexed()
    out = []
    for fmask in masks:
        edges = [i for i in range(idx.ne) if fmask >> i & 1]
        p = len(edges)
        top = (1 << p) - 1
        # the submask of F for each local index, from the one without its
        # lowest bit
        submask = [0] * (top + 1)
        for loc in range(1, top + 1):
            low = loc & -loc
            submask[loc] = submask[loc ^ low] | 1 << edges[low.bit_length() - 1]
        v_p = len({idx.dart_vertex[d] for i in edges for d in (2 * i, 2 * i + 1)})
        bare = idx.nv - v_p
        f = [len(idx.walk_homes(m)) - bare for m in submask]
        # one signed byte per entry: a genus or a side-genus sum is at most |F|
        genus = array("b", (2 + p - f[loc] - f[top ^ loc] for loc in range(top + 1)))
        cert = None
        if classes:
            c = [len(idx.parts(m)[0]) - bare for m in submask]
            side = [2 * c[loc] - v_p + loc.bit_count() - f[loc] for loc in range(top + 1)]
            cert = array("b", (
                side[loc] + side[top ^ loc] if c[loc] + c[top ^ loc] == v_p + 1 else -1
                for loc in range(top + 1)
            ))
        out.append((edges, genus, cert))
    return out


def spectrum(
    g: RibbonGraph,
    genus: Optional[int] = None,
    classes: bool = False,
    force: bool = False,
) -> list[SpectrumEntry]:
    """Euler genus and orientability of every partial dual of ``g``, and
    with ``classes`` the class of each subset's biseparation certificate.

    No partial dual is built and no whole-graph certificate computed.
    Write ``g`` as the join of its prime factors ``P_i`` (over all its
    components), with edge sets ``E_i``.  Partial duality distributes over
    joins and Euler genus adds over them, so

        γ(G^A) = Σ_i γ(P_i^(A∩E_i)),

    and ``A`` carries a certificate exactly when every ``A∩E_i`` carries
    one on its factor, the side-genus sums adding up.  One table per
    factor (:func:`_factor_tables`) holds both for each subset of ``E_i``,
    from the walk and component counts of the graph's indexed view, so a
    row costs one lookup per factor.  A row's class is ``none`` if a factor
    has no certificate, else ``plane``, ``rp2`` or ``other(t)`` for the
    total ``t`` of the side genera, marked trivial for ``∅`` and ``E``, as
    :class:`decomposition.BiseparationClass` prints it.  Classes are defined
    for connected graphs only.  ``genus`` filters the rows.  Enumerating
    ``2^e`` subsets is refused above :data:`SWEEP_MAX_EDGES` edges unless
    forced.
    """
    if not force:
        refuse_large_sweep(g, "spectrum", "; pass force=True to run anyway")
    idx = g._indexed()
    if classes and len(idx.components) > 1:
        raise InvalidGraph("biseparations are defined for connected graphs")
    tables = _factor_tables(g, _prime_factor_masks(g), classes)
    labels = idx.labels
    # each edge's factor and its bit in that factor's local index
    place = {labels[i]: (j, 1 << b) for j, t in enumerate(tables) for b, i in enumerate(t[0])}
    genera = [t[1] for t in tables]
    certs = [t[2] for t in tables]
    orientable = is_orientable(g)
    n_edges = len(labels)
    texts: dict[tuple[int, bool], str] = {}
    rows = []
    for sub in subsets_sorted(labels):
        loc = [0] * len(tables)
        for lab in sub:
            j, bit = place[lab]
            loc[j] |= bit
        gamma = 0
        for table, l in zip(genera, loc):
            gamma += table[l]
        if genus is not None and gamma != genus:
            continue
        text = None
        if classes:
            total = 0
            for table, l in zip(certs, loc):
                if table[l] < 0:
                    total = -1
                    break
                total += table[l]
            key = (total, len(sub) in (0, n_edges))
            text = texts.get(key)
            if text is None:
                text = texts[key] = str(
                    BiseparationClass(False, False, None, None) if total < 0
                    else BiseparationClass(True, key[1], _label_of_total(total), total)
                )
        rows.append(SpectrumEntry(sub, gamma, orientable, text))
    return rows


def genus_polynomial(g: RibbonGraph) -> dict[int, int]:
    """The partial-dual Euler-genus polynomial ``Σ_A z^γ(G^A)`` of ``g``, as
    a map from Euler genus to the number of subsets reaching it.

    Euler genus adds over the prime factors (see :func:`spectrum`), so the
    polynomial is the product of the factors' polynomials, each the
    histogram of its genus table (Gross, Mansour and Tucker, "Partial
    duality for ribbon graphs, I: Distributions", European J. Combin. 86,
    2020).  Only ``Σ_i 2^|E_i|`` subsets are counted, so a join of many
    small factors needs no ``2^e`` sweep; a prime factor above
    :data:`SWEEP_MAX_EDGES` edges is refused.
    """
    masks = _prime_factor_masks(g)
    largest = max((m.bit_count() for m in masks), default=0)
    if largest > SWEEP_MAX_EDGES:
        raise RibbonGraphError(
            f"genus polynomial over a prime factor of {largest} edges means "
            f"2^{largest} subsets, above the limit of {SWEEP_MAX_EDGES} edges"
        )
    poly = {0: 1}
    for _, table, _ in _factor_tables(g, masks, False):
        counts = Counter(table)
        product: Counter = Counter()
        for a, x in poly.items():
            for b, y in counts.items():
                product[a + b] += x * y
        poly = product
    return dict(sorted(poly.items()))


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
