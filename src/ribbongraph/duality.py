"""Geometric duality, partial duality and the partial-dual genus spectrum.

One construction of the partial dual serves the library.
:func:`_dual_view` runs the boundary walks of the spanning subgraph on
``A``, the vertices of ``G^A``, on the integer endpoint pairings of the
graph's indexed view that also count them, records an arrow for every band
side and free arc a walk crosses, and writes the darts of ``G^A`` from the
arrows, an integer view that :func:`partial_dual_subsets` and the move
search code with no named graph.  :func:`partial_dual` names it, and
:func:`geometric_dual` is the partial dual on every edge.  The view
translated from the dual's names, and the constructions it replaced, are
in ``oracles`` and must agree with it on every subset
(``dual-route-agreement``): the traced arrow presentation
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

Separability makes the walk counts add.  Write ``G`` as the join of its
prime factors ``P_i`` with edge sets ``E_i``; a join merges one walk of
each side at the joint, so with ``K`` prime factors, ``C`` components that
carry an edge and ``B`` edgeless vertices

    f(A) = Σ_i f_(P_i)(A∩E_i) − (K − C) + B,

and ``A`` carries a biseparation certificate exactly when every ``A∩E_i``
carries one on its factor, with the side-genus sums adding up.  So one
table per prime factor (the factors of ``decomposition._factor_tree``)
holds ``f_P(S)`` and, when asked, the certificate of ``S`` for every
subset ``S`` of ``E_i``, and :func:`_summed_tables` sums the tables into
``f(A)`` and the certificate of every subset.  No table entry runs a walk
pass of its own.  The walks are the cycles of two perfect matchings on
the arc endpoints of the indexed view, the free corners and each edge's
band or free-arc pairing, so moving one edge between band and free arc
changes ``f`` by −1, 0 or +1, read off one path trace; each factor's
walk table is filled in Gray-code order from ``f_P(∅) = v_P``
(:func:`_walk_table`).  Its component counts come from a depth-first
partition recurrence over its edges (:func:`_component_table`).  One
whole-graph walk pass and one component pass per subset, the route they
replaced, is the oracle ``oracles.factor_tables_by_walk_passes``
(``table-route-agreement``).  Every listing reads those
sums in one order (:func:`_by_size`): :func:`spectrum_rows` yields the
spectrum's rows one at a time, each genus from ``f(A)`` and ``f(Aᶜ)``,
which :func:`spectrum` lists and ``io_text`` writes row by row;
:func:`enumerate_biseparations` lists the certified subsets; and
:func:`partial_dual_subsets` keeps a subset only when ``(f(A), f(Aᶜ))``
is the target's vertex and boundary count.  It then runs the walks of
each such candidate, whose lengths are the vertex degrees and the face
lengths of ``G^A``, and codes only the candidates whose two sorted lists
are the target's.  :func:`genus_polynomial` multiplies the factors'
genus histograms, each read off its walk table.  The built route,
``surface_stats(partial_dual(g, A))``, and the whole-graph certificates
are the oracles all of these are checked against in ``oracles``
(``count-route-agreement``).
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import InvalidGraph, InvariantViolation, RibbonGraph, RibbonGraphError, _bits
from .core import _Indexed, _keep_view, canonical_form
from .decomposition import BiseparationClass, _factor_tree, _label_of_total
from .topology import is_orientable


def _dual_view(g: RibbonGraph, mask: int) -> _Indexed:
    """The integer view of the partial dual of ``g`` on the edge mask
    ``mask``: each boundary walk of :meth:`core._Indexed.walk_arrows` is a
    vertex, its arrows in order its rotation.  An edge's first arrow is
    dart ``2*i``, its second ``2*i + 1``, and it is untwisted exactly when
    they point the same way.  Walks are ordered by the name of the vertex
    where they start, then by the start corner's position, and the bare
    walks of edgeless vertices come last.  Edges keep their labels.
    """
    idx = g._indexed()
    names = g.vertex_names
    walks = idx.walk_arrows(mask)
    walks.sort(key=lambda walk: names[walk[0]])  # stable: corners keep their order
    first: list = [None] * idx.ne
    sign = [1] * idx.ne
    rot = []
    for _, arrows in walks:
        darts = []
        for e, forward in arrows:
            if first[e] is None:
                first[e] = forward
                darts.append(2 * e)
            else:
                if forward != first[e]:
                    sign[e] = -1
                darts.append(2 * e + 1)
        rot.append(darts)
    rot += [[] for darts in idx.rot if not darts]
    return _Indexed(idx.labels, rot, sign)


def partial_dual(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """The partial dual of ``g`` with respect to an edge subset.

    The graph named from :func:`_dual_view`: its vertices are named
    ``v0``, ``v1``, ... in the view's order, its edges keep their labels,
    and its ends are numbered in order of appearance.  The view is kept as
    the result's integer view.
    """
    idx = g._indexed()
    mask = idx.mask(g.check_subset(edges))
    view = _dual_view(g, mask)
    result = RibbonGraph(*view.named(), _validate=False)
    # a vertex without subset edges keeps its own boundary walk, so it
    # survives as a vertex of the dual
    isolated = sum(1 for darts in idx.rot if not any(mask >> (d >> 1) & 1 for d in darts))
    if result.n_vertices < isolated:
        raise InvariantViolation(
            f"partial dual has {result.n_vertices} vertices, fewer than the "
            f"{isolated} vertices without subset edges"
        )
    return _keep_view(result, view)


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


class _FactorTable(NamedTuple):
    """The tables of one prime factor ``F``, indexed by the submasks ``S``
    of ``F`` written in ``F``'s own bits, bit ``j`` for ``edges[j]`` (see
    :func:`_factor_tables`)."""

    edges: list[int]  # the edge indices of F in bit order
    walks: list[int]  # f_P(S), by Gray-code updates (_walk_table)
    cert: Optional[array]  # side-genus sum of S's certificate on P, or -1


def _walk_table(idx: _Indexed, edges: list[int], v_p: int) -> list[int]:
    """``f_P(S)`` for every submask ``S`` of the prime factor on ``edges``,
    which touches ``v_P`` vertices, in ``F``'s own bits.

    The walks are the cycles of two perfect matchings on the arc
    endpoints (:meth:`core._Indexed._endpoint_pairings`): the free corners,
    and ``mate``, which pairs each edge's four endpoints across its band
    sides if it is in ``S`` and along its free arcs if not.  Every edge
    outside ``F`` stays a free arc, so the walks that miss ``F`` never
    change, and ``f_P(∅) = v_P``: one walk round each vertex of ``P``.
    The submasks are visited in Gray-code order, each one edge ``i`` away
    from the last.  With ``i``'s pairings taken out, its four endpoints
    end two paths; the path from ``a = 4i`` runs ``x = corner[a]``, then
    ``x = corner[mate[x]]``, to the first endpoint ``x`` of ``i``.  Two
    pairings that match ``a`` with ``x`` close the paths into two walks,
    any other into one, so the count moves by ``(new[a] == x) −
    (mate[a] == x)`` before ``i``'s new pairings go into ``mate``: one
    path trace per submask, not a pass over the whole graph.  The route
    of one walk pass per submask is the oracle
    ``oracles.factor_tables_by_walk_passes``.
    """
    corner, band, arc = idx._endpoint_pairings()
    mate = arc[:]
    walks = [v_p] * (1 << len(edges))
    loc = 0
    count = v_p
    for step in range(1, len(walks)):
        j = (step & -step).bit_length() - 1
        loc ^= 1 << j
        i = edges[j]
        a = 4 * i
        x = corner[a]
        while x >> 2 != i:
            x = corner[mate[x]]
        new = band if loc >> j & 1 else arc
        count += (new[a] == x) - (mate[a] == x)
        mate[a : a + 4] = new[a : a + 4]
        walks[loc] = count
    return walks


def _component_table(idx: _Indexed, edges: list[int], verts: dict[int, int]) -> list[int]:
    """``c_P(S)`` for every submask ``S`` of the prime factor on ``edges``,
    in ``F``'s own bits, where ``verts`` numbers ``P``'s vertices from 0.

    A partition of ``P``'s vertices is a byte string naming each vertex's
    block by its least member.  ``S``'s partition is that of ``S`` less its
    highest bit, with that bit's edge merging two blocks or none; the
    submasks are visited depth first, edge ``j`` out and then in at depth
    ``j``, so only the partitions on the current path are held.
    """
    ends = [(verts[idx.dart_vertex[2 * i]], verts[idx.dart_vertex[2 * i + 1]]) for i in edges]
    last = len(edges) - 1
    out = [len(verts)] * (1 << len(edges))

    def split(j: int, labels: bytes, loc: int, blocks: int) -> None:
        # the submasks that agree with loc below bit j, on loc's partition
        lo, hi = labels[ends[j][0]], labels[ends[j][1]]
        if lo > hi:
            lo, hi = hi, lo
        joined = blocks - (lo != hi)
        if j == last:
            out[loc] = blocks
            out[loc | 1 << j] = joined
            return
        split(j + 1, labels, loc, blocks)
        if lo != hi:
            labels = labels.translate(bytes.maketrans(bytes((hi,)), bytes((lo,))))
        split(j + 1, labels, loc | 1 << j, joined)

    if edges:
        split(0, bytes(range(len(verts))), 0, len(verts))
    return out


def _factor_tables(idx: _Indexed, masks: list[int], classes: bool) -> list[_FactorTable]:
    """One :class:`_FactorTable` per prime factor ``F`` (an edge mask of
    the graph ``g`` of the view ``idx``); the certificate table only when
    ``classes``.

    With ``v_P`` the vertices that ``F``'s edges touch, the spanning
    subgraph of ``g`` on ``S`` is ``P``'s plus ``v − v_P`` bare vertices,
    each one walk and one component.  ``P``'s walk counts ``f_P(S)`` come
    from one Gray-code sweep over its submasks that moves one edge between
    band and free arc per step and traces one path (:func:`_walk_table`),
    and its component counts ``c_P(S)`` from a depth-first partition
    recurrence over its edges (:func:`_component_table`).  As ``P`` is
    connected, its partial dual on ``S`` has Euler genus ``2 + |F| −
    f_P(S) − f_P(F∖S)``.

    The side components of ``S`` on ``P`` are the parts of the spanning
    subgraphs on ``S`` and ``F∖S`` that carry an edge; their genera sum to
    the Euler genus ``2 c_P(S) − v_P + |S| − f_P(S)`` of the spanning
    subgraph on ``S``, plus the same for ``F∖S``, and ``S`` has a
    certificate on ``P`` exactly when ``c_P(S) + c_P(F∖S) = v_P + 1``, the
    criterion of :func:`decomposition.biseparation_data`.
    """
    out = []
    for fmask in masks:
        edges = _bits(fmask)
        touched = sorted({idx.dart_vertex[d] for i in edges for d in (2 * i, 2 * i + 1)})
        verts = {v: k for k, v in enumerate(touched)}
        v_p = len(verts)
        f = _walk_table(idx, edges, v_p)
        cert = None
        if classes:
            c = _component_table(idx, edges, verts)
            top = len(f) - 1
            side = [2 * c[loc] - v_p + loc.bit_count() - f[loc] for loc in range(top + 1)]
            # one signed byte per entry: a side-genus sum is at most |F|
            cert = array("b", (
                side[loc] + side[top ^ loc] if c[loc] + c[top ^ loc] == v_p + 1 else -1
                for loc in range(top + 1)
            ))
        out.append(_FactorTable(edges, f, cert))
    return out


def _summed_tables(idx: _Indexed, classes: bool) -> tuple[list[int], list[int], Optional[array]]:
    """The factor tables of the graph of ``idx`` summed over all ``2^e``
    subsets, as ``(bit, counts, totals)``.

    The edges are renumbered factor by factor, edge ``i`` to the bit
    ``bit[i]``, so that a subset's local indices in the factor tables, side
    by side, index the sums.  ``counts`` holds each subset's walk count
    ``f(A) = Σ_i f_(P_i)(A∩E_i) − (K − C) + B`` (see the module notes), a
    list of ints, as ``B`` alone may pass a byte; with ``classes``,
    ``totals`` holds each certificate's side-genus total (``-1`` for
    none), one signed byte per subset as in the factor tables.
    """
    tables = _factor_tables(idx, _factor_tree(idx).masks, classes)
    bit = [0] * idx.ne
    for j, i in enumerate(i for table in tables for i in table.edges):
        bit[i] = 1 << j
    # −(K − C) + B: the components, edged or bare, less the factors
    counts = [len(idx.components) - len(tables)]
    totals = array("b", [0]) if classes else None
    for table in tables:
        counts = [x + y for y in table.walks for x in counts]
        if classes:
            totals = array("b", (
                -1 if x < 0 or y < 0 else x + y for y in table.cert for x in totals
            ))
    return bit, counts, totals


def _by_size(labels: list[str], bit: list[int]) -> Iterator[tuple[int, Iterator]]:
    """Per size ``k``, the subsets of that size as (sorted labels, index in
    the sum tables), in the order of :func:`subsets_sorted`."""
    for k in range(len(labels) + 1):
        yield k, zip(itertools.combinations(labels, k), map(sum, itertools.combinations(bit, k)))


def spectrum_rows(
    g: RibbonGraph,
    genus: Optional[int] = None,
    classes: bool = False,
    force: bool = False,
) -> Iterator[tuple[tuple[str, ...], int, bool, Optional[str]]]:
    """The rows of :func:`spectrum`, one at a time, each as ``(subset
    labels in sorted order, Euler genus, orientable, class)``.

    The refusals and the factor tables come at the call, before any row.
    A row costs two lookups in the summed walk counts, ``f(A)`` and
    ``f(Aᶜ)``, and one in the summed certificates (:func:`_summed_tables`).
    """
    if not force:
        refuse_large_sweep(g, "spectrum", "; pass force=True to run anyway")
    idx = g._indexed()
    if classes and len(idx.components) > 1:
        raise InvalidGraph("biseparations are defined for connected graphs")
    return _rows(idx, *_summed_tables(idx, classes), is_orientable(g), genus)


def _rows(idx, bit, counts, totals, orientable, genus):
    """The spectrum's rows over the sums of :func:`spectrum_rows`, in the
    order of :func:`_by_size`: ``γ(G^A) = 2k + e − f(A) − f(Aᶜ)``."""
    n = idx.ne
    full = (1 << n) - 1
    top = 2 * len(idx.components) + n
    texts: dict[tuple[int, bool], str] = {}
    for k, subsets in _by_size(idx.labels, bit):
        trivial = k in (0, n)
        for sub, m in subsets:
            gamma = top - counts[m] - counts[full ^ m]
            if genus is not None and gamma != genus:
                continue
            text = None
            if totals is not None:
                total = totals[m]
                text = texts.get((total, trivial))
                if text is None:
                    text = texts[total, trivial] = "none" if total < 0 else str(
                        BiseparationClass(True, trivial, _label_of_total(total), total)
                    )
            yield sub, gamma, orientable, text


def spectrum(
    g: RibbonGraph,
    genus: Optional[int] = None,
    classes: bool = False,
    force: bool = False,
) -> list[SpectrumEntry]:
    """Euler genus and orientability of every partial dual of ``g``, and
    with ``classes`` the class of each subset's biseparation certificate,
    in the order of :func:`subsets_sorted`.

    No partial dual is built and no whole-graph certificate computed: the
    rows are read off the sums of one table per prime factor (see the
    module notes and :func:`spectrum_rows`).  A row's class is ``none`` if
    a factor has no certificate, else ``plane``, ``rp2`` or ``other(t)``
    for the total ``t`` of the side genera, marked trivial for ``∅`` and
    ``E``, as :class:`decomposition.BiseparationClass` prints it.  Classes
    are defined for connected graphs only.  ``genus`` filters the rows.
    Enumerating ``2^e`` subsets is refused above :data:`SWEEP_MAX_EDGES`
    edges unless forced.
    """
    return [
        SpectrumEntry(frozenset(sub), gamma, orientable, text)
        for sub, gamma, orientable, text in spectrum_rows(g, genus, classes, force)
    ]


def _certified_subsets(
    g: RibbonGraph, label: str = "all"
) -> Iterator[tuple[tuple[str, ...], BiseparationClass]]:
    """Each subset whose certificate matches the filter of
    :func:`enumerate_biseparations`, as its sorted labels, with its class,
    in the spectrum's row order.  Both are read off the summed
    certificates (:func:`_summed_tables`), with no whole-graph certificate;
    the refusals and the tables come at the call, before any subset."""
    refuse_large_sweep(g, "biseparations")
    idx = g._indexed()
    if len(idx.components) > 1:
        raise InvalidGraph("biseparations are defined for connected graphs")
    bit, _, totals = _summed_tables(idx, True)

    def matching():
        n = len(idx.labels)
        for k, subsets in _by_size(idx.labels, bit):
            trivial = k in (0, n)
            # the class of each side-genus total, at most e, where it passes
            keep = [
                BiseparationClass(True, trivial, _label_of_total(t), t)
                if label in ("all", _label_of_total(t)) or (label == "nontrivial" and not trivial)
                else None
                for t in range(n + 1)
            ]
            for sub, m in subsets:
                total = totals[m]
                if total >= 0 and keep[total] is not None:
                    yield sub, keep[total]

    return matching()


def enumerate_biseparations(g: RibbonGraph, label: str = "all") -> list[frozenset]:
    """All subsets whose certificate matches the filter (``all``, ``plane``,
    ``rp2``, ``other`` or ``nontrivial``), read off the factor tables.
    Closed under complement.  Refused above :data:`SWEEP_MAX_EDGES`
    edges."""
    return [frozenset(sub) for sub, _ in _certified_subsets(g, label)]


def genus_polynomial(g: RibbonGraph) -> dict[int, int]:
    """The partial-dual Euler-genus polynomial ``Σ_A z^γ(G^A)`` of ``g``, as
    a map from Euler genus to the number of subsets reaching it.

    Euler genus adds over the prime factors, as walk counts do (see the
    module notes), so the polynomial is the product of the factors'
    polynomials, each the genus histogram read off its walk table (Gross,
    Mansour and Tucker, "Partial duality for ribbon graphs, I:
    Distributions", European J. Combin. 86, 2020).  Only ``Σ_i 2^|E_i|`` subsets are counted, so a join of many
    small factors needs no ``2^e`` sweep; a prime factor above
    :data:`SWEEP_MAX_EDGES` edges is refused.
    """
    idx = g._indexed()
    masks = _factor_tree(idx).masks
    largest = max((m.bit_count() for m in masks), default=0)
    if largest > SWEEP_MAX_EDGES:
        raise RibbonGraphError(
            f"genus polynomial over a prime factor of {largest} edges means "
            f"2^{largest} subsets, above the limit of {SWEEP_MAX_EDGES} edges"
        )
    poly = {0: 1}
    for table in _factor_tables(idx, masks, False):
        walks, p = table.walks, len(table.edges)
        top = (1 << p) - 1
        # γ(P^S) = 2 + |F| − f_P(S) − f_P(F∖S), as in _factor_tables
        counts = Counter(2 + p - walks[s] - walks[top ^ s] for s in range(top + 1))
        product: Counter = Counter()
        for a, x in poly.items():
            for b, y in counts.items():
                product[a + b] += x * y
        poly = product
    return dict(sorted(poly.items()))


def partial_dual_subsets(g: RibbonGraph, h: RibbonGraph) -> list[frozenset]:
    """Every edge subset ``A`` of ``g`` whose partial dual ``G^A`` is
    equivalent to ``h``, smallest subsets first, lexicographic within size.

    ``G^A`` has ``f(A)`` vertices and ``f(Aᶜ)`` boundary components, read
    for every subset off the summed walk counts (:func:`_summed_tables`) in
    the order of :func:`_by_size`, so only the subsets whose two counts are
    ``h``'s are candidates.  The sweep runs over the subsets' indices in
    the sums alone, and only a candidate's index is decoded into its edge
    mask and labels.  A candidate's walks are then run once each
    way: their lengths are the vertex degrees of ``G^A`` and, as the faces
    of ``G^A`` are the vertices of ``G^(Aᶜ)``, its face lengths, and both
    sorted lists must be ``h``'s.  Only the survivors are coded, each from
    its integer view (:func:`_dual_view`), with no named graph built, and
    the empty subset through ``g``'s memoised code, as ``G^∅ = G``.
    Partial duals keep the edge count, so a graph with a different edge
    count gives no subset without a sweep, which is otherwise refused above
    :data:`SWEEP_MAX_EDGES` edges.
    """
    if g.n_edges != h.n_edges:
        return []
    refuse_large_sweep(g, "relate")
    idx, hidx = g._indexed(), h._indexed()
    full = (1 << idx.ne) - 1
    degrees = sorted(len(darts) for darts in hidx.rot)
    faces = sorted(hidx.walk_lengths(full))
    bit, counts, _ = _summed_tables(idx, False)
    v, f = len(degrees), len(faces)
    target = h.canonical_code()
    out = []
    for k in range(idx.ne + 1):
        for m in map(sum, itertools.combinations(bit, k)):
            if counts[m] != v or counts[full ^ m] != f:
                continue
            mask = sum(1 << i for i, b in enumerate(bit) if m & b)
            if (
                sorted(idx.walk_lengths(mask)) == degrees
                and sorted(idx.walk_lengths(full ^ mask)) == faces
                and (canonical_form(_dual_view(g, mask)) if mask else idx.canonical_code()) == target
            ):
                out.append(idx.edge_set(mask))
    return out
