"""Geometric duality, partial duality and the partial-dual genus spectrum.

One construction of the partial dual serves the library.
:func:`partial_dual` runs the boundary walks of the spanning subgraph on
``A``, the vertices of ``G^A``, on the integer endpoint pairings of the
graph's indexed view that also count them, records an arrow for every band
side and free arc a walk crosses, and builds ``G^A`` from the arrows;
:func:`geometric_dual` is the partial dual on every edge.  The
constructions it replaced are oracles in ``verify`` and must agree with it
on every subset (``dual-route-agreement``): the traced arrow presentation
(``partial_dual_by_arrows``, equal graph for graph), the one-edge surgery
folded over the subset and the mark-and-remove route (equal as
edge-labelled graphs).

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

from .core import End, InvalidGraph, InvariantViolation, RibbonGraph, RibbonGraphError
from .decomposition import BiseparationClass, _label_of_total, _prime_factor_masks
from .topology import is_orientable


def partial_dual(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """The partial dual of ``g`` with respect to an edge subset.

    The vertices of ``G^A`` are the boundary walks of the spanning subgraph
    on ``A``, read from the integer view (:meth:`core._Indexed.walk_arrows`):
    band sides of subset edges and free arcs of the others each record an
    arrow, and each walk's arrows, in order, are the rotation of one new
    vertex.  An edge's two ends are numbered in order of appearance, and it
    is untwisted exactly when its two arrows point the same way.  Walks are
    ordered by the name of the vertex where they start, then by the start
    corner's position, and the bare walks of edgeless vertices come last;
    the new vertices are named ``v0``, ``v1``, ... in that order.  Edge
    labels are preserved.
    """
    idx = g._indexed()
    mask = idx.mask(g.check_subset(edges))
    names = g.vertex_names
    labels = idx.labels
    walks = idx.walk_arrows(mask)
    walks.sort(key=lambda walk: names[walk[0]])  # stable: corners keep their order
    bare = sum(1 for darts in idx.rot if not darts)
    first: list = [None] * idx.ne
    signs: dict[str, int] = {}
    vertices = []
    for i, (_, arrows) in enumerate(walks):
        rot = []
        for e, forward in arrows:
            if first[e] is None:
                first[e] = forward
                rot.append(End(labels[e], 1))
            else:
                signs[labels[e]] = 1 if forward == first[e] else -1
                rot.append(End(labels[e], 2))
        vertices.append((f"v{i}", rot))
    vertices += [(f"v{i}", ()) for i in range(len(walks), len(walks) + bare)]
    result = RibbonGraph(vertices, signs, _validate=False)
    # a vertex without subset edges keeps its own boundary walk, so it
    # survives as a vertex of the dual
    isolated = sum(1 for darts in idx.rot if not any(mask >> (d >> 1) & 1 for d in darts))
    if result.n_vertices < isolated:
        raise InvariantViolation(
            f"partial dual has {result.n_vertices} vertices, fewer than the "
            f"{isolated} vertices without subset edges"
        )
    return result


def geometric_dual(g: RibbonGraph) -> RibbonGraph:
    """The geometric dual, the partial dual on every edge: boundary
    components become the new vertices."""
    return partial_dual(g, g.edge_labels)


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
    subgraph on ``S``, plus the same for ``F∖S``, and ``S`` has a
    certificate on ``P`` exactly when ``c_P(S) + c_P(F∖S) = v_P + 1``, the
    criterion of :func:`decomposition.biseparation_data`.
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
