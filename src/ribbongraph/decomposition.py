"""Sums, joins and separability structure of ribbon graphs.

An edge subset splits a connected graph into the induced subgraph on the
subset and its complementary induced subgraph.  When every pair of their
components meets in at most one vertex, and the component-incidence graph
is a tree, the subset carries a certificate that the graph is assembled by
vertex-gluing components alternately from the two sides; the partial dual's
genus is then the sum of the two sides' genera.  This module detects those
certificates, classifies them by the topology of the components, factors
graphs into prime join summands and relates certificate subsets by toggling
summands (one breadth-first search, :func:`_toggle_search`).

Everything here works on the graph's integer view (``core._Indexed``) and
edge bitmasks, with no subgraph built; vertex names and edge labels are
filled in only in the values returned.  One component pass on a side's
mask yields the side's components, in the order of their first vertex,
with their orientability and the component count ``c`` of the spanning
subgraph, edgeless vertices included.  A subset ``A`` carries a
certificate exactly when ``c(A) + c(Aᶜ) = v + 1``, the criterion that
``duality`` applies to every prime factor to list the certified subsets
(``duality.enumerate_biseparations``).  The boundary walks of the
spanning subgraph on a side, counted once per edge set by the counter the
spectrum uses, each stay in one component; walks per component give its
boundary count ``f_C`` and its Euler genus ``2 - v_C + e_C - f_C``, which
gives the genus of each prime factor too.

Every join question reads one memo of the integer view, the factor tree
(:func:`_factor_tree`).  One depth-first pass finds the blocks (Tarjan,
SIAM J. Comput. 1, 1972), and one stack scan per vertex merges the blocks
whose ends interleave in its rotation; the merged classes are the prime
factors.  Factors and joints, the vertices met by two or more factors,
form a tree.  The join splits at a joint are the cyclic arcs of its
rotation that hold every end of each factor they touch
(:func:`_whole_arcs`), with everything behind those factors
(:func:`_behind`); the move search reads the splits of every partial dual
it meets through the same two routines, from the rotations of one walk
pass.  The summand sets are the connected sets of factors of the tree,
listed by extension.  Factors, summand sets and join-split sides are edge
masks, and the move search reads them as such.
The routes they replaced are ``oracles``: the join splits from
trying every arc of every rotation (``join_splits_by_arcs``), side
components from built induced subgraphs
(``side_components_by_subgraphs``) and the incidence tree from a
union-find over vertex names (``incidence_tree_by_union_find``).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
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
    per_view,
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
        i, j = p._vertex_index(vp), q._vertex_index(vq)
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
    qualify, on the graph with no vertices too.
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
    trivial = mask in (0, full)
    if c_a + c_b != idx.nv + 1 and not trivial:
        return comps, None
    total = sum(c.euler_genus for c in comps)
    return comps, BiseparationCertificate(
        subset=sub,
        trivial=trivial,
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
    ascending.  ``behind[(j, i)]`` is the edge mask of factor ``i`` and of
    every factor reached from it in the tree without passing joint ``j``
    (:func:`_behind`).
    """

    masks: tuple[int, ...]
    factor_of: tuple[int, ...]
    joints: tuple[tuple[int, tuple[int, ...]], ...]
    behind: dict


@per_view
def _factor_tree(idx: _Indexed) -> _FactorTree:
    """The factor tree of the graph of ``idx``, over every component.

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

    behind = _behind(masks, [at for _, at in joints])
    return _FactorTree(tuple(masks), tuple(factor_of), tuple(joints), behind)


def _behind(masks: Sequence[int], joints: Sequence[Sequence[int]]) -> dict[tuple[int, int], int]:
    """The branch behind every factor at every joint of the forest that the
    factors ``masks`` form with ``joints``, each joint given by its
    factors: ``behind[(j, i)]`` is the edge mask of factor ``i`` and of
    every factor reached from it without passing joint ``j``.

    Each tree is rooted at a factor.  A factor's branch behind the joint
    above it is its subtree, and behind a joint below it the rest of its
    tree, the root's subtree less the subtrees hung from that joint.
    """
    at_joints: list[list[int]] = [[] for _ in masks]
    for j, at in enumerate(joints):
        for i in at:
            at_joints[i].append(j)
    up = [-1] * len(masks)  # the joint above each factor
    top = [-1] * len(joints)  # the factor above each joint
    root = [-1] * len(masks)  # the root of each factor's tree
    order = []
    for r in range(len(masks)):
        if root[r] >= 0:
            continue
        root[r] = r
        stack = [r]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in at_joints[i]:
                if j != up[i]:
                    top[j] = i
                    for k in joints[j]:
                        if k != i:
                            up[k] = j
                            root[k] = r
                            stack.append(k)
    below = list(masks)  # each factor's subtree
    hung = [0] * len(joints)  # each joint's subtrees
    for i in reversed(order):
        j = up[i]
        if j >= 0:
            hung[j] |= below[i]
            below[top[j]] |= below[i]
    return {
        (j, i): below[i] if up[i] == j else below[root[i]] & ~hung[j]
        for j, at in enumerate(joints)
        for i in at
    }


@functools.lru_cache(maxsize=1 << 12)
def _whole_arcs(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic arcs of the factor sequence ``seq`` around a joint, the
    whole circle aside, that hold every end of each factor they touch, as
    bitmasks of the factors they hold, each once.  Kept per sequence: the
    move search meets the same joints at many nodes."""
    n = len(seq)
    ends = Counter(seq)
    out = []
    for start in range(n):
        inside: dict[int, int] = {}
        cut = 0  # factors with some but not all of their ends in the arc
        held = 0
        for k in range(start, start + n - 1):
            i = seq[k % n]
            c = inside[i] = inside.get(i, 0) + 1
            if c == 1:
                held |= 1 << i
                cut += ends[i] > 1
            elif c == ends[i]:
                cut -= 1
            if not cut:
                out.append(held)
    return tuple(out)


def _join_splits(idx: _Indexed) -> Iterator[tuple[int, int]]:
    """The join splits of the graph of ``idx``, as ``(vertex index, edge
    mask)`` pairs, each once.

    A split at ``v`` keeps each factor, with everything behind it, on one
    side, so ``v`` is a joint.  Its sides are the cyclic arcs of the
    rotation at ``v`` that hold every end of each factor they touch
    (:func:`_whole_arcs`), with the branches behind those factors.
    """
    tree = _factor_tree(idx)
    for j, (v, _) in enumerate(tree.joints):
        for held in _whole_arcs(tuple(tree.factor_of[d >> 1] for d in idx.rot[v])):
            x = 0
            for i in _bits(held):
                x |= tree.behind[j, i]
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
        ((names[v], idx.edge_set(x)) for v, x in _join_splits(idx)),
        key=lambda t: (t[0], sorted(t[1])),
    )


@per_view
def _split_sides(idx: _Indexed) -> tuple[int, ...]:
    """Edge masks of the sides of the join splits of the graph of ``idx``,
    each once, in the order of their sorted labels: the sets a single
    dual-of-a-join-summand move may act on."""
    if len(idx.components) > 1:
        raise InvalidGraph("join splits are defined for connected graphs")
    return tuple(sorted({x for _, x in _join_splits(idx)}, key=_bits))


@dataclass(frozen=True)
class JoinTree:
    """Prime join factorization: factor edge sets and the vertices where
    they are glued together."""

    factors: tuple[frozenset, ...]
    joints: tuple[tuple[str, tuple[int, ...]], ...]  # vertex -> factor indices

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def _factor_masks(idx: _Indexed) -> tuple[int, ...]:
    """Edge masks of the prime factors of the connected graph of ``idx``,
    in the order of their sorted labels."""
    if len(idx.components) > 1:
        raise InvalidGraph("prime factorization is defined for connected graphs")
    return _factor_tree(idx).masks


def prime_factorization(g: RibbonGraph) -> JoinTree:
    """Split at join vertices until no split remains: the factors and
    joints of the factor tree (:func:`_factor_tree`)."""
    idx = g._indexed()
    names = g.vertex_names
    return JoinTree(
        factors=tuple(idx.edge_set(m) for m in _factor_masks(idx)),
        joints=tuple((names[v], at) for v, at in _factor_tree(idx).joints),
    )


@per_view
def _summand_masks(idx: _Indexed) -> tuple[int, ...]:
    """Edge masks of the connected unions of prime factors of the graph of
    ``idx``, the whole edge set included, by size and then in the order of
    their sorted labels.

    Two factors are adjacent when they meet at a joint of the factor tree,
    and a union of factors is connected exactly when its factors are;
    every connected set grows from a smaller one by an adjacent factor, so
    the sets are listed by extension, each once.
    """
    masks = _factor_masks(idx)
    adjacent = [0] * len(masks)
    for _, at in _factor_tree(idx).joints:
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
    return [idx.edge_set(m) for m in _summand_masks(idx)]


def is_join_biseparation(g: RibbonGraph, edges: Iterable[str]) -> bool:
    """Whether the subset is a union of join-summand edge sets of ``g``
    (equivalently, of prime factors)."""
    idx = g._indexed()
    mask = idx.mask(g.check_subset(edges))
    return all(mask & f in (0, f) for f in _factor_masks(idx))


def factor_genera(g: RibbonGraph) -> tuple[int, ...]:
    """Euler genus of every prime factor, in factor order."""
    return _factor_genera(g._indexed())


@per_view
def _factor_genera(idx: _Indexed) -> tuple[int, ...]:
    return tuple(
        sum(side[2] for side in _side_parts(idx, f)[0]) for f in _factor_masks(idx)
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


def _toggle_search(
    g: RibbonGraph, start: frozenset, goal: Optional[frozenset] = None
) -> dict[frozenset, tuple[Optional[frozenset], Optional[frozenset]]]:
    """Breadth-first search over the subsets reached from ``start`` by
    toggling summand edge sets: each subset found maps to the subset it was
    first reached from and the toggled set, ``start`` to ``(None, None)``.
    The search stops once it has reached ``goal``."""
    moves = summand_edge_sets(g)
    prev = {start: (None, None)}
    queue = deque([start])
    while queue and goal not in prev:
        cur = queue.popleft()
        for m in moves:
            nxt = cur ^ m
            if nxt not in prev:
                prev[nxt] = (cur, m)
                queue.append(nxt)
    return prev


def toggles_related(
    g: RibbonGraph, a: Iterable[str], b: Iterable[str]
) -> Optional[list[frozenset]]:
    """Shortest sequence of summand toggles taking one subset to the other,
    or ``None``, walked back through :func:`_toggle_search`; an empty list
    means equality."""
    start = g.check_subset(a)
    at = g.check_subset(b)
    prev = _toggle_search(g, start, at)
    if at not in prev:
        return None
    seq = []
    while at != start:
        at, m = prev[at]
        seq.append(m)
    return seq[::-1]
