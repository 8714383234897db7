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
boundary count ``f_C`` and its Euler genus ``2 - v_C + e_C - f_C``, which
gives the genus of each prime factor too.

Every join question reads one memo per graph, the factor tree
(:func:`_factor_tree`).  One depth-first pass finds the blocks (Tarjan,
SIAM J. Comput. 1, 1972), and one stack scan per vertex merges the blocks
whose ends interleave in its rotation; the merged classes are the prime
factors.  Factors and joints, the vertices met by two or more factors,
form a tree.  The join splits at a joint are the cyclic arcs of its
rotation that hold every end of each factor they touch, with everything
behind those factors, and the summand sets are the connected sets of
factors of the tree, listed by extension.  Factors, summand sets and
join-split sides are edge masks, and the move search reads them as such.
The routes they replaced are ``verify`` oracles: the join splits from
trying every arc of every rotation (``join_splits_by_arcs``), side
components from built induced subgraphs
(``side_components_by_subgraphs``) and the incidence tree from a
union-find over vertex names (``incidence_tree_by_union_find``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    End,
    InvalidGraph,
    InvariantViolation,
    RibbonGraph,
    RibbonGraphError,
    _bits,
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
    once.  The filters are those of :func:`enumerate_biseparations`.  The
    refusals come at the call, before any subset."""
    from .duality import refuse_large_sweep, subsets_sorted

    refuse_large_sweep(g, "biseparations")
    if not is_connected(g):
        raise InvalidGraph("biseparations are defined for connected graphs")

    def matching():
        for sub in subsets_sorted(g.edge_labels):
            cert = is_biseparation(g, sub)
            if cert is None:
                continue
            if label == "all" or cert.label == label or (label == "nontrivial" and not cert.trivial):
                yield sub, cert

    return matching()


def enumerate_biseparations(
    g: RibbonGraph, label: str = "all"
) -> list[frozenset]:
    """All subsets whose certificate matches the filter (``all``, ``plane``,
    ``rp2``, ``other`` or ``nontrivial``).  Closed under complement.
    Refused above ``duality.SWEEP_MAX_EDGES`` edges."""
    return [sub for sub, _ in _certified_subsets(g, label)]


# -- joins: the factor tree -----------------------------------------------------


def _blocks(idx: _Indexed) -> tuple[list[int], int]:
    """The block of every edge, and the number of blocks, from one
    iterative depth-first pass (Tarjan, SIAM J. Comput. 1, 1972).

    A loop is a block of its own; parallel edges close a cycle and so share
    a block.  A non-loop edge enters the edge stack when it is first met, as
    a tree edge or as an edge back to an ancestor; when a child's low point
    does not reach above its parent, the edges stacked since the tree edge
    into the child form one block.
    """
    rot, dart_vertex = idx.rot, idx.dart_vertex
    block = [-1] * idx.ne
    n_blocks = 0
    disc = [-1] * idx.nv
    low = [0] * idx.nv
    clock = 0
    for root in range(idx.nv):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [[root, -1, 0]]  # vertex, edge into it, next rotation slot
        pending: list[int] = []
        while stack:
            top = stack[-1]
            v, into, i = top
            if i < len(rot[v]):
                top[2] = i + 1
                d = rot[v][i]
                e = d >> 1
                w = dart_vertex[d ^ 1]
                if w == v:
                    if block[e] < 0:
                        block[e] = n_blocks
                        n_blocks += 1
                elif disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    pending.append(e)
                    stack.append([w, e, 0])
                elif disc[w] < disc[v] and e != into:
                    pending.append(e)
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    while True:
                        e = pending.pop()
                        block[e] = n_blocks
                        if e == into:
                            break
                    n_blocks += 1
    return block, n_blocks


class _FactorTree(NamedTuple):
    """The prime factors of a graph and the tree they form with their
    joints, the vertices met by two or more factors.

    ``masks`` are the factors' edge masks over every component, in the
    order of their sorted labels, and ``factor_of`` the factor of every
    edge.  ``joints`` lists each joint's vertex index with its factors,
    ascending.  ``behind[(v, i)]`` is the edge mask of factor ``i`` and of
    every factor reached from it in the tree without passing joint ``v``.
    """

    masks: tuple[int, ...]
    factor_of: tuple[int, ...]
    joints: tuple[tuple[int, tuple[int, ...]], ...]
    behind: dict


@per_graph
def _factor_tree(g: RibbonGraph) -> _FactorTree:
    """The factor tree of ``g``, over every component.

    Two edge sets meeting at a vertex ``v`` alone, with the ends of one on
    an arc of the rotation at ``v``, split ``g`` as a join, so a split
    never cuts a block, nor separates two blocks whose ends interleave
    (a…b…a…b) at a shared vertex.  Merging such blocks gives the prime
    factors.  Two blocks share at most one vertex, so each pair is merged
    at that vertex or nowhere: one stack scan per vertex suffices.  The
    scan keeps the open classes, those with ends both before and after the
    current slot, on a stack; reaching an end of an open class merges into
    it every class stacked above it, which opened after that class's
    previous end and closes after this one.  A class closes at its last
    end.  The factors and joints form a forest, which gives each factor's
    branch behind each of its joints.
    """
    idx = g._indexed()
    block, n_blocks = _blocks(idx)
    parent = list(range(n_blocks))

    def find(b: int) -> int:
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        return b

    for darts in idx.rot:
        if len(darts) < 4:  # two classes interleave in four ends at least
            continue
        seq = [block[d >> 1] for d in darts]
        last = {b: p for p, b in enumerate(seq)}
        end: dict[int, int] = {}
        open_: list[int] = []
        for p, b in enumerate(seq):
            r = find(b)
            if r in end:
                while open_[-1] != r:
                    s = open_.pop()
                    parent[s] = r
                    end[r] = max(end[r], end[s])
            else:
                end[r] = last[b]
                open_.append(r)
            if end[r] == p:
                open_.pop()

    # factors numbered in order of their lowest edge, the order of their
    # sorted labels
    number: dict[int, int] = {}
    masks = []
    factor_of = []
    for e, b in enumerate(block):
        i = number.setdefault(find(b), len(masks))
        if i == len(masks):
            masks.append(0)
        masks[i] |= 1 << e
        factor_of.append(i)
    joints = []
    for v, darts in enumerate(idx.rot):
        at = sorted({factor_of[d >> 1] for d in darts})
        if len(at) > 1:
            joints.append((v, tuple(at)))

    # root each tree at a factor: a factor's branch behind the joint above
    # it is its subtree, and behind a joint below it the rest of its
    # component
    at_joints: list[list[int]] = [[] for _ in masks]
    for j, (_, at) in enumerate(joints):
        for i in at:
            at_joints[i].append(j)
    up = [-1] * len(masks)  # the joint above each factor
    top = [-1] * len(joints)  # the factor above each joint
    placed = [False] * len(masks)
    order = []
    for root in range(len(masks)):
        if placed[root]:
            continue
        placed[root] = True
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in at_joints[i]:
                if j != up[i]:
                    top[j] = i
                    for k in joints[j][1]:
                        if k != i:
                            up[k] = j
                            placed[k] = True
                            stack.append(k)
    below = list(masks)  # each factor's subtree
    hung = [0] * len(joints)  # each joint's subtrees
    for i in reversed(order):
        j = up[i]
        if j >= 0:
            hung[j] |= below[i]
            below[top[j]] |= below[i]
    behind: dict[tuple[int, int], int] = {}
    for j, (v, at) in enumerate(joints):
        component = idx.components[idx.component_of[v]][1]
        for i in at:
            behind[v, i] = below[i] if up[i] == j else component & ~hung[j]
    return _FactorTree(tuple(masks), tuple(factor_of), tuple(joints), behind)


def _join_splits(g: RibbonGraph) -> Iterator[tuple[int, int]]:
    """The join splits of ``g``, as ``(vertex index, edge mask)`` pairs,
    each once.

    A split at ``v`` keeps each factor, with everything behind it, on one
    side, so ``v`` is a joint.  Its sides are the cyclic arcs of the
    rotation at ``v`` that hold every end of each factor they touch, with
    the branches behind those factors.
    """
    tree = _factor_tree(g)
    idx = g._indexed()
    for v, _ in tree.joints:
        seq = [tree.factor_of[d >> 1] for d in idx.rot[v]]
        n = len(seq)
        ends = Counter(seq)
        for start in range(n):
            inside: dict[int, int] = {}
            cut = 0  # factors with some but not all of their ends in the arc
            x = 0
            for k in range(start, start + n - 1):
                i = seq[k % n]
                c = inside[i] = inside.get(i, 0) + 1
                if c == 1:
                    x |= tree.behind[(v, i)]
                    cut += ends[i] > 1
                elif c == ends[i]:
                    cut -= 1
                if not cut:
                    yield v, x


def join_summand_splits(g: RibbonGraph) -> list[tuple[str, frozenset]]:
    """All ways to split ``g`` as a join at a vertex, sorted by vertex name
    and edge labels.

    A returned pair ``(v, X)`` means the ends of the ``X`` edges occupy a
    contiguous arc of the rotation at ``v``, every loop at ``v`` stays on
    one side, no component of ``g`` minus ``v`` attaches to both sides, and
    both sides carry at least one edge.  Both ``(v, X)`` and ``(v, X^c)``
    are listed.  They are read from the factor tree (:func:`_join_splits`).
    """
    if not is_connected(g):
        raise InvalidGraph("join splits are defined for connected graphs")
    idx = g._indexed()
    names = g.vertex_names
    return sorted(
        ((names[v], idx.edge_set(x)) for v, x in _join_splits(g)),
        key=lambda t: (t[0], sorted(t[1])),
    )


@per_graph
def _split_sides(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the sides of the join splits of ``g``, each once, in
    the order of their sorted labels: the sets a single
    dual-of-a-join-summand move may act on."""
    if not is_connected(g):
        raise InvalidGraph("join splits are defined for connected graphs")
    return tuple(sorted({x for _, x in _join_splits(g)}, key=_bits))


@dataclass(frozen=True)
class JoinTree:
    """Prime join factorization: factor edge sets and the vertices where
    they are glued together."""

    factors: tuple[frozenset, ...]
    joints: tuple[tuple[str, tuple[int, ...]], ...]  # vertex -> factor indices

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def _factor_masks(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the prime factors of connected ``g``, in the order of
    their sorted labels."""
    if not is_connected(g):
        raise InvalidGraph("prime factorization is defined for connected graphs")
    return _factor_tree(g).masks


@per_graph
def prime_factorization(g: RibbonGraph) -> JoinTree:
    """Split at join vertices until no split remains: the factors and
    joints of the factor tree (:func:`_factor_tree`)."""
    masks = _factor_masks(g)
    idx = g._indexed()
    names = g.vertex_names
    return JoinTree(
        factors=tuple(idx.edge_set(m) for m in masks),
        joints=tuple((names[v], at) for v, at in _factor_tree(g).joints),
    )


@per_graph
def _summand_masks(g: RibbonGraph) -> tuple[int, ...]:
    """Edge masks of the connected unions of prime factors of ``g``, the
    whole edge set included, by size and then in the order of their sorted
    labels.

    Factors meeting at a joint are adjacent, and a union of factors is
    connected exactly when its factors are; every connected set grows from
    a smaller one by an adjacent factor, so the sets are listed by
    extension, each once.
    """
    masks = _factor_masks(g)
    tree = _factor_tree(g)
    adjacent = [0] * len(masks)
    for _, at in tree.joints:
        near = sum(1 << i for i in at)
        for i in at:
            adjacent[i] |= near
    found = {1 << i for i in range(len(masks))}
    grow = list(found)
    while grow:
        larger = []
        for s in grow:
            reach = 0
            for i in _bits(s):
                reach |= adjacent[i]
            for i in _bits(reach & ~s):
                t = s | 1 << i
                if t not in found:
                    found.add(t)
                    larger.append(t)
        grow = larger
    out = []
    for s in found:
        m = 0
        for i in _bits(s):
            m |= masks[i]
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
