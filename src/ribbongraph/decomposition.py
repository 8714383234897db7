"""Sums, joins and separability structure of ribbon graphs.

An edge subset splits a connected graph into the induced subgraph on the
subset and its complementary induced subgraph.  When every pair of their
components meets in at most one vertex, and the component-incidence graph
is a tree, the subset carries a certificate that the graph is assembled by
vertex-gluing components alternately from the two sides; the partial dual's
genus is then the sum of the two sides' genera.  This module detects those
certificates, classifies them by the topology of the components, factors
graphs into prime join summands and relates certificate subsets by toggling
summands.

Everything here works on the graph's integer view (``core._Indexed``) and
edge bitmasks, with no subgraph built; vertex names and edge labels are
filled in only in the values returned.  One component pass on a side's
mask yields the side's components, in the order of their first vertex,
with their orientability and the component count ``c`` of the spanning
subgraph, edgeless vertices included.  A subset ``A`` carries a
certificate exactly when ``c(A) + c(Aᶜ) = v + 1``, the criterion
``duality.spectrum`` applies to every prime factor.  The boundary walks of
the spanning subgraph on a side, counted once per edge set by the counter
the spectrum uses, each stay in one component; walks per component give its
boundary count ``f_C`` and its Euler genus ``2 - v_C + e_C - f_C``.  The
same pass finds the components of the graph minus a vertex for the join
splits, and the connectedness and genus of the prime factors; the prime
factors, the summand sets and the join-split sides are edge masks, and the
move search reads them as such.  The routes they replaced are ``verify``
oracles: side components from built induced subgraphs
(``side_components_by_subgraphs``) and the incidence tree from a
union-find over vertex names (``incidence_tree_by_union_find``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    End,
    InvalidGraph,
    InvariantViolation,
    RibbonGraph,
    RibbonGraphError,
    _Indexed,
    per_graph,
)
from .topology import is_connected, surface_stats


class NotAJoinSummand(RibbonGraphError):
    """The given edge set is not a join summand of the graph."""


# -- sums and joins as constructors -------------------------------------------


def _merge_rotation(rot_p: Sequence[End], rot_q: Sequence[End], pattern: str, q_offset: int):
    """Interleave two rotations according to a P/Q pattern word."""
    pattern = pattern.upper().replace(" ", "")
    if sorted(pattern) != sorted("P" * len(rot_p) + "Q" * len(rot_q)):
        raise InvalidGraph(
            f"pattern {pattern!r} must use {len(rot_p)} P symbols and {len(rot_q)} Q symbols"
        )
    qs = list(rot_q[q_offset % len(rot_q) :]) + list(rot_q[: q_offset % len(rot_q)]) if rot_q else []
    ps = list(rot_p)
    out = []
    for ch in pattern:
        out.append(ps.pop(0) if ch == "P" else qs.pop(0))
    return tuple(out)


def all_interleave_patterns(deg_p: int, deg_q: int):
    """Every distinct way to shuffle a degree-``deg_q`` rotation into a
    degree-``deg_p`` one: pattern words starting with P, times a rotational
    offset for the Q side."""
    if deg_p == 0 or deg_q == 0:
        yield "P" * deg_p + "Q" * deg_q, 0
        return
    for rest in itertools.combinations(range(deg_p + deg_q - 1), deg_q):
        word = "P" + "".join("Q" if i in rest else "P" for i in range(deg_p + deg_q - 1))
        for off in range(deg_q):
            yield word, off


def _vertex_index(g: RibbonGraph, name: str) -> int:
    try:
        return g.vertex_names.index(name)
    except ValueError:
        raise InvalidGraph(f"no vertex named {name!r}") from None


def n_sum(
    p: RibbonGraph,
    q: RibbonGraph,
    pairing: Sequence[tuple[str, str, str] | tuple[str, str, str, int]],
) -> RibbonGraph:
    """Glue ``p`` and ``q`` by identifying ``n`` vertex pairs.

    Each pairing entry is ``(vertex of p, vertex of q, pattern[, q_offset])``
    where the pattern word spells how the second rotation interleaves into
    the first at the merged vertex.  The two inputs must be connected,
    non-trivial and edge-disjoint; the result contains both as subgraphs
    meeting exactly in the merged vertices.
    """
    if not pairing:
        raise InvalidGraph("an n-sum needs at least one merged vertex pair")
    if p.n_edges == 0 or q.n_edges == 0:
        raise InvalidGraph("summands must be non-trivial (at least one edge)")
    if not is_connected(p) or not is_connected(q):
        raise InvalidGraph("summands must be connected")
    if set(p.edge_labels) & set(q.edge_labels):
        clash = sorted(set(p.edge_labels) & set(q.edge_labels))
        raise InvalidGraph(f"edge labels shared between summands: {clash}")
    # the q vertex, pattern and offset merged into each vertex of p, by index
    merged: list[Optional[tuple]] = [None] * p.n_vertices
    taken = [False] * q.n_vertices
    for entry in pairing:
        vp, vq, pattern = entry[0], entry[1], entry[2]
        i, j = _vertex_index(p, vp), _vertex_index(q, vq)
        if merged[i] is not None or taken[j]:
            raise InvalidGraph(f"vertex reused within the pairing: {vp!r}/{vq!r}")
        merged[i] = (j, pattern, entry[3] if len(entry) > 3 else 0)
        taken[j] = True
    vertices = []
    for name, rot, m in zip(p.vertex_names, p.rotations, merged):
        if m is not None:
            rot = _merge_rotation(rot, q.rotations[m[0]], m[1], m[2])
        vertices.append((name, rot))
    # a kept q vertex whose name p also uses is renamed
    vertices += [
        (f"q.{name}" if name in p.vertex_names else name, rot)
        for name, rot, t in zip(q.vertex_names, q.rotations, taken)
        if not t
    ]
    signs = dict(p.signs)
    signs.update(q.signs)
    return RibbonGraph(vertices, signs)


def join(
    p: RibbonGraph,
    vp: str,
    q: RibbonGraph,
    vq: str,
    gap: int = 0,
    q_offset: int = 0,
) -> RibbonGraph:
    """One-point join: a 1-sum keeping each side's ends on a contiguous arc.

    ``gap`` selects after which rotation slot of ``vp`` the block of ``vq``
    ends is inserted.  Genus adds under joins; this is checked, and a
    failure raises :class:`InvariantViolation`.
    """
    dp, dq = p.degree(vp), q.degree(vq)
    if dq == 0 or q.n_edges == 0:
        raise InvalidGraph("join summand is trivial")
    gap %= max(1, dp)
    word = "P" * gap + "Q" * dq + "P" * (dp - gap)
    out = n_sum(p, q, [(vp, vq, word, q_offset)])
    got = surface_stats(out).euler_genus
    want = surface_stats(p).euler_genus + surface_stats(q).euler_genus
    if got != want:
        raise InvariantViolation(f"join must add genus: {got} != {want}")
    return out


# -- biseparations -------------------------------------------------------------


@dataclass(frozen=True)
class SideComponent:
    """One component of an induced side, with its surface data."""

    side: str  # "A" or "B"
    vertices: frozenset
    edges: frozenset
    euler_genus: int
    orientable: bool


@dataclass(frozen=True)
class BiseparationCertificate:
    """Witness that an edge subset splits the graph into two sides whose
    component-incidence graph is a tree."""

    subset: frozenset
    trivial: bool
    components: tuple[SideComponent, ...]
    tree_edges: tuple[tuple[int, int, str], ...]  # (component, component, vertex)
    label: str  # "plane", "rp2" or "other"
    genus_sum: int


def _bits(mask: int) -> list[int]:
    """The indices of the bits set in ``mask``, ascending: for an edge
    mask, its edges in the order of their sorted labels."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _side_parts(idx: _Indexed, mask: int) -> tuple[list[tuple], list[int], int]:
    """The side components of the edges in ``mask``, per vertex the index
    of its side component, and the component count ``c`` of the spanning
    subgraph on ``mask``.

    Side components are the parts of the spanning subgraph that carry an
    edge, in order of first vertex, as ``(vertex indices, edge mask, Euler
    genus, orientable)``; a vertex that no edge of the mask meets has index
    ``-1``, and ``c`` counts it as a part of its own.  Every boundary walk
    of the spanning subgraph stays in one part, so counting walks by home
    vertex gives each part's boundary count ``f_C`` and its Euler genus
    ``2 - v_C + e_C - f_C``.
    """
    parts, comp_of = idx.parts(mask)
    n_walks = [0] * len(parts)
    if mask:
        for v in idx.walk_homes(mask):
            n_walks[comp_of[v]] += 1
    sides: list[tuple] = []
    where = [-1] * len(parts)
    for ci, (members, es, orientable) in enumerate(parts):
        if es:
            where[ci] = len(sides)
            sides.append((members, es, 2 - len(members) + es.bit_count() - n_walks[ci], orientable))
    return sides, [where[ci] for ci in comp_of], len(parts)


def _label_of_total(total: int) -> str:
    """The certificate label for a side-genus sum: ``plane`` for 0, ``rp2``
    for 1 (one crosscap, as every side genus is at least 0), else
    ``other``."""
    return {0: "plane", 1: "rp2"}.get(total, "other")


def biseparation_data(
    g: RibbonGraph, edges: Iterable[str]
) -> tuple[tuple[SideComponent, ...], Optional[BiseparationCertificate]]:
    """Side components of a subset plus the certificate when one exists.

    A vertex met by edges of both sides joins their two side components by
    one incidence edge.  As ``g`` is connected, so is the incidence graph,
    and it is a tree exactly when it has one edge fewer than nodes.  With
    ``c(S)`` the component count of the spanning subgraph on ``S``, that
    is ``c(A) + c(Aᶜ) = v + 1``, and the tree edges are the vertices met
    by both sides, in vertex order.  The empty and the full subset always
    qualify.
    """
    idx = g._indexed()
    if len(idx.components) > 1:
        raise InvalidGraph("biseparations are defined for connected graphs")
    sub = g.check_subset(edges)
    mask = idx.mask(sub)
    full = (1 << idx.ne) - 1
    side_a, where_a, c_a = _side_parts(idx, mask)
    side_b, where_b, c_b = _side_parts(idx, full ^ mask)
    names = g.vertex_names
    comps = tuple(
        SideComponent(side, frozenset(names[v] for v in members), idx.edge_set(es), genus, orientable)
        for side, parts in (("A", side_a), ("B", side_b))
        for members, es, genus, orientable in parts
    )
    if c_a + c_b != idx.nv + 1:
        return comps, None
    total = sum(c.euler_genus for c in comps)
    return comps, BiseparationCertificate(
        subset=sub,
        trivial=mask in (0, full),
        components=comps,
        tree_edges=tuple(
            (i, len(side_a) + j, names[v])
            for v, (i, j) in enumerate(zip(where_a, where_b))
            if i >= 0 and j >= 0
        ),
        label=_label_of_total(total),
        genus_sum=total,
    )


def is_biseparation(g: RibbonGraph, edges: Iterable[str]) -> Optional[BiseparationCertificate]:
    """Certificate that the subset splits ``g`` along 1-sums, or ``None``:
    the incidence edges of the side components, one per vertex shared by a
    component of each side, form a tree over all the components (see
    :func:`biseparation_data`).  The full and the empty subset always
    qualify (trivially)."""
    return biseparation_data(g, edges)[1]


@dataclass(frozen=True)
class BiseparationClass:
    exists: bool
    trivial: bool
    label: Optional[str]
    genus_sum: Optional[int]

    def __str__(self) -> str:
        if not self.exists:
            return "none"
        text = self.label if self.label != "other" else f"other({self.genus_sum})"
        return f"{text} (trivial)" if self.trivial else text

    @classmethod
    def of(cls, cert: Optional[BiseparationCertificate]) -> "BiseparationClass":
        """The class a certificate (or its absence) gives its subset."""
        if cert is None:
            return cls(False, False, None, None)
        return cls(True, cert.trivial, cert.label, cert.genus_sum)


def classify_biseparation(g: RibbonGraph, edges: Iterable[str]) -> BiseparationClass:
    """Classify a subset: no certificate, or plane / rp2 / other(k) by the
    genera of the side components (trivial subsets classified by the genus
    of the whole graph, which is what their single side carries)."""
    return BiseparationClass.of(is_biseparation(g, edges))


def _certified_subsets(
    g: RibbonGraph, label: str = "all"
) -> Iterator[tuple[frozenset, BiseparationCertificate]]:
    """Each subset whose certificate matches the filter, with that
    certificate, smallest subsets first; every certificate is computed
    once.  The filters are those of :func:`enumerate_biseparations`."""
    from .duality import refuse_large_sweep, subsets_sorted

    refuse_large_sweep(g, "biseparations")
    for sub in subsets_sorted(g.edge_labels):
        cert = is_biseparation(g, sub)
        if cert is None:
            continue
        if label == "all" or cert.label == label or (label == "nontrivial" and not cert.trivial):
            yield sub, cert


def enumerate_biseparations(
    g: RibbonGraph, label: str = "all"
) -> list[frozenset]:
    """All subsets whose certificate matches the filter (``all``, ``plane``,
    ``rp2``, ``other`` or ``nontrivial``).  Closed under complement.
    Refused above ``duality.SWEEP_MAX_EDGES`` edges."""
    return [sub for sub, _ in _certified_subsets(g, label)]


# -- joins: detection, prime factorization -------------------------------------


def _split_masks(g: RibbonGraph, mask: int) -> Iterator[tuple[int, int]]:
    """The join splits of the subgraph induced by the edges in ``mask``, as
    ``(vertex index, edge mask)`` pairs read from the integer view of
    ``g``, each one or more times, in no useful order."""
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


def join_summand_splits(g: RibbonGraph) -> list[tuple[str, frozenset]]:
    """All ways to split ``g`` as a join at a vertex, sorted by vertex name
    and edge labels.

    A returned pair ``(v, X)`` means the ends of the ``X`` edges occupy a
    contiguous arc of the rotation at ``v``, every loop at ``v`` stays on
    one side, no component of ``g`` minus ``v`` attaches to both sides, and
    both sides carry at least one edge.  Both ``(v, X)`` and ``(v, X^c)``
    are listed.
    """
    if not is_connected(g):
        raise InvalidGraph("join splits are defined for connected graphs")
    idx = g._indexed()
    names = g.vertex_names
    return sorted(
        ((names[v], idx.edge_set(x)) for v, x in set(_split_masks(g, (1 << idx.ne) - 1))),
        key=lambda t: (t[0], sorted(t[1])),
    )


@per_graph
def _split_sides(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the sides of the join splits of ``g``, each once, in
    the order of their sorted labels: the sets a single
    dual-of-a-join-summand move may act on."""
    if not is_connected(g):
        raise InvalidGraph("join splits are defined for connected graphs")
    return tuple(sorted({x for _, x in _split_masks(g, (1 << g.n_edges) - 1)}, key=_bits))


@dataclass(frozen=True)
class JoinTree:
    """Prime join factorization: factor edge sets and the vertices where
    they are glued together."""

    factors: tuple[frozenset, ...]
    joints: tuple[tuple[str, tuple[int, ...]], ...]  # vertex -> factor indices

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def _prime_factor_masks(g: RibbonGraph) -> list[int]:
    """Edge masks of the prime factors of every component of ``g``: each
    component's edges are split at the first join split found until no
    split remains.  Edgeless vertices have no factor.  The factor edge sets
    are independent of the split order; the test suite asserts this by
    trying every order on corpus graphs."""
    out = []
    stack = [es for _, es, _ in g._indexed().components]
    while stack:
        mask = stack.pop()
        if not mask:
            continue
        split = next(_split_masks(g, mask), None)
        if split is None:
            out.append(mask)
            continue
        x = split[1]
        stack.append(x)
        stack.append(mask & ~x)
    return out


@per_graph
def _factor_masks(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the prime factors of connected ``g``, in the order of
    their sorted labels."""
    if not is_connected(g):
        raise InvalidGraph("prime factorization is defined for connected graphs")
    return tuple(sorted(_prime_factor_masks(g), key=_bits))


@per_graph
def prime_factorization(g: RibbonGraph) -> JoinTree:
    """Split at join vertices until no split remains."""
    masks = _factor_masks(g)
    idx = g._indexed()
    # the factors whose edges end at each vertex, by vertex index
    owners: list[list[int]] = [[] for _ in range(idx.nv)]
    for i, m in enumerate(masks):
        for e in _bits(m):
            for d in (2 * e, 2 * e + 1):
                at = owners[idx.dart_vertex[d]]
                if not at or at[-1] != i:
                    at.append(i)
    names = g.vertex_names
    return JoinTree(
        factors=tuple(idx.edge_set(m) for m in masks),
        joints=tuple((names[v], tuple(at)) for v, at in enumerate(owners) if len(at) > 1),
    )


@per_graph
def _summand_masks(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the connected unions of prime factors of ``g``, the
    whole edge set included, by size and then in the order of their sorted
    labels."""
    idx = g._indexed()
    masks = _factor_masks(g)
    out = []
    for r in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, r):
            m = sum(combo)  # the factors are disjoint
            if sum(1 for _, es, _ in idx.parts(m)[0] if es) == 1:
                out.append(m)
    return tuple(sorted(out, key=lambda m: (m.bit_count(), _bits(m))))


def summand_edge_sets(g: RibbonGraph) -> list[frozenset]:
    """Edge sets that can appear as a single join summand: the unions of
    prime factors whose union is connected (the whole edge set included)."""
    idx = g._indexed()
    return [idx.edge_set(m) for m in _summand_masks(g)]


def is_join_biseparation(g: RibbonGraph, edges: Iterable[str]) -> bool:
    """Whether the subset is a union of join-summand edge sets of ``g``
    (equivalently, of prime factors)."""
    mask = g._indexed().mask(g.check_subset(edges))
    return all(mask & f in (0, f) for f in _factor_masks(g))


@per_graph
def factor_genera(g: RibbonGraph) -> tuple[int, ...]:
    """Euler genus of every prime factor, in factor order."""
    idx = g._indexed()
    return tuple(
        sum(side[2] for side in _side_parts(idx, f)[0]) for f in _factor_masks(g)
    )


def classify_join_biseparation(g: RibbonGraph, edges: Iterable[str]) -> str:
    """``none``, ``plane-join``, ``rp2-join`` or ``other-join``: the subset
    must be a union of prime factors, and the label reflects the factor
    genera (all plane; exactly one crosscap; anything else)."""
    if not is_join_biseparation(g, edges):
        return "none"
    genera = factor_genera(g)
    total = sum(genera)
    if total == 0:
        return "plane-join"
    if total == 1:
        return "rp2-join"
    return "other-join"


# -- toggling -------------------------------------------------------------------


def toggle_join_summand(
    g: RibbonGraph, edges: Iterable[str], factor: Iterable[str]
) -> frozenset:
    """Replace the subset by its symmetric difference with a join-summand
    edge set."""
    sub = g.check_subset(edges)
    fac = g.check_subset(factor)
    if fac not in set(summand_edge_sets(g)):
        raise NotAJoinSummand(f"{sorted(fac)} is not a join summand edge set")
    return sub ^ fac


def toggles_related(
    g: RibbonGraph, a: Iterable[str], b: Iterable[str]
) -> Optional[list[frozenset]]:
    """Shortest sequence of summand toggles taking one subset to the other,
    or ``None``.  Breadth-first over subsets; an empty list means equality."""
    from collections import deque

    start = g.check_subset(a)
    goal = g.check_subset(b)
    if start == goal:
        return []
    moves = summand_edge_sets(g)
    prev: dict[frozenset, tuple[Optional[frozenset], Optional[frozenset]]] = {
        start: (None, None)
    }
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for m in moves:
            nxt = cur ^ m
            if nxt in prev:
                continue
            prev[nxt] = (cur, m)
            if nxt == goal:
                seq = []
                at = nxt
                while prev[at][0] is not None:
                    seq.append(prev[at][1])
                    at = prev[at][0]
                return list(reversed(seq))
            queue.append(nxt)
    return None
