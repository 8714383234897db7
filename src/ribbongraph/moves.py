"""The dual-of-a-join-summand move and the search relating partial duals.

Dualling a join summand replaces one summand of a join by its geometric
dual and leaves the rest alone; together with taking the geometric dual of
the whole graph it relates all partially dual graphs of Euler genus zero
and one.

Every graph a move sequence reaches from ``G`` is a partial dual ``G^A``,
because ``(G^A)^X = G^(A△X)`` with the edge labels kept.  So
:func:`move_related` searches breadth-first over edge subsets ``A`` of
``G``: the steps from ``G^A`` lead to ``A△X`` for every side ``X`` of a
two-sided join split of ``G^A``, each one move, and to ``A△E`` for the
geometric dual.  Nodes are classes, one per canonical code, so a search
holds at most ``2^e`` nodes.

The search derives each node from ``G``'s own data.  Since
``(X ∨ Y)* = X* ∨ Y*``, a prime factor's dual is prime, so every node is a
union of ``G``'s prime factors and has ``G``'s factor masks as its own.
The vertices of ``G^A`` are the boundary walks of ``A``, and a walk's
factors, in the order it meets them, are that vertex's rotation read as
factor indices; its joints are the walks that meet two factors or more.
So one walk pass gives a node's factor tree, and its split sides are the
arcs of each joint that hold whole factors, with the branches behind
them, read by the routines that give ``G``'s own splits
(``decomposition._whole_arcs`` and ``decomposition._behind``), with no
view of the node (:func:`_node_steps`).

A subset is coded only when it must be.  Its walk lengths and those of
its complement are the vertex degrees and face lengths of ``G^A``
(Chmutov, JCTB 99, 2009), so a subset whose two sorted lists no node
holds is a new class with no code; one that shares them with a node is
coded, and so is that node, once.  ``H`` is recognised by the same key
and a code, or by subset when the caller passes the subsets ``A`` with
``G^A`` equivalent to ``H``; the trace's nodes are coded at the end.  No
graph is named.  The search that reads each node's splits off its own
view and codes every subset met is the oracle
``oracles.move_related_by_node_views``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import InvariantViolation, RibbonGraph, _bits, _Indexed, canonical_form
from .core import induced_subgraph, is_equivalent
from .decomposition import (
    NotAJoinSummand,
    _behind,
    _factor_tree,
    _FactorTree,
    _split_sides,
    _whole_arcs,
    is_connected,
    join_summand_splits,
)
from .duality import _dual_view, geometric_dual, partial_dual, refuse_large_sweep
from .topology import surface_stats


@dataclass(frozen=True)
class MoveStep:
    kind: str  # "dual-join-summand" or "geometric-dual"
    edges: frozenset


@dataclass(frozen=True)
class MoveTrace:
    """A replayable move sequence; codes are the canonical codes of every
    intermediate graph including both endpoints."""

    steps: tuple[MoveStep, ...]
    codes: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, g: RibbonGraph) -> RibbonGraph:
        for step in self.steps:  # the geometric dual's edges are all edges
            g = partial_dual(g, step.edges)
        return g


@dataclass(frozen=True)
class MoveSearchResult:
    trace: Optional[MoveTrace]
    closed: bool  # reachable set exhausted below the bound
    max_depth: int
    expanded: int = 0  # classes whose steps were taken
    reached: int = 0  # distinct classes seen, the start included
    # distinct edge subsets the search coded: to tell classes with the same
    # degrees and face lengths apart, to find the target, and for the trace
    coded: int = 0

    @property
    def found(self) -> bool:
        return self.trace is not None


def binary_summand_sets(g: RibbonGraph) -> list[frozenset]:
    """Edge sets of the two-sided join splits of ``g``: exactly the sets a
    single dual-of-a-join-summand move may act on."""
    idx = g._indexed()
    return [idx.edge_set(x) for x in _split_sides(idx)]


def dual_join_summand_move(g: RibbonGraph, factor: Iterable[str]) -> RibbonGraph:
    """Replace the join summand on ``factor`` by its geometric dual.

    ``factor`` must be one side of a two-sided join split of ``g`` (not
    every union of prime factors qualifies: a factor whose ends interleave
    with several neighbours at its join vertex cannot stand alone).  The
    result is the partial dual with respect to the summand's edges; the
    join structure of the result is verified explicitly: it splits into a
    part equivalent to the untouched side and a part equivalent to the
    summand's dual, and genus and orientability are preserved.
    """
    fac = g.check_subset(factor)
    if fac not in {x for _, x in join_summand_splits(g)}:
        raise NotAJoinSummand(
            f"{sorted(fac)} is not one side of a join split of the graph"
        )
    result = partial_dual(g, fac)

    other = g.complement(fac)
    part_p = induced_subgraph(g, other)
    part_q_dual = geometric_dual(induced_subgraph(g, fac))
    ok = False
    for v, x in join_summand_splits(result):
        if x == fac and is_equivalent(
            induced_subgraph(result, x), part_q_dual
        ) and is_equivalent(induced_subgraph(result, other), part_p):
            ok = True
            break
    if not ok:
        raise InvariantViolation(
            "dual of a join summand must rebuild as untouched-part join dual-part"
        )
    before, after = surface_stats(g), surface_stats(result)
    if (before.euler_genus, before.orientable) != (after.euler_genus, after.orientable):
        raise InvariantViolation(
            "dual of a join summand must keep Euler genus and orientability"
        )
    return result


def _node_steps(idx: _Indexed, tree: _FactorTree, node: int) -> list[int]:
    """The sides of the join splits of the partial dual on ``node``, a
    union of the prime factors ``tree`` of the graph of ``idx``, as edge
    masks in the order of their sorted labels: the steps a search may take
    from that node, each one move.

    The vertices of the partial dual are the boundary walks of the
    spanning subgraph on ``node`` (:meth:`core._Indexed.walk_lengths`), and
    a walk crosses one band side or free arc per edge end of its vertex,
    in rotation order (as ``duality._dual_view`` reads them); so one walk
    pass reads every rotation as a sequence of factors.
    """
    corner, band, arc = idx._endpoint_pairings()
    factor_of = tree.factor_of
    seen = bytearray(4 * idx.ne)
    joints = []
    for start in range(1, 4 * idx.ne, 2):
        if seen[start]:
            continue
        p = start
        seq = []
        while not seen[p]:
            q = corner[p]
            seen[p] = seen[q] = 1
            seq.append(factor_of[q >> 2])
            p = band[q] if node >> (q >> 2) & 1 else arc[q]
        if min(seq) != max(seq):  # a joint: two factors or more meet here
            joints.append(tuple(seq))
    behind = _behind(tree.masks, [set(seq) for seq in joints])
    sides = set()
    for j, seq in enumerate(joints):
        for held in _whole_arcs(seq):
            x = 0
            for i in _bits(held):
                x |= behind[j, i]
            sides.add(x)
    return sorted(sides, key=_bits)


def move_related(
    g: RibbonGraph,
    h: RibbonGraph,
    bound: int = 8,
    subsets: Optional[Iterable[Iterable[str]]] = None,
) -> MoveSearchResult:
    """Shortest move sequence taking ``g`` to a graph equivalent to ``h``.

    Breadth-first over the edge subsets ``A`` of ``g``, one node per
    class: the steps from ``G^A`` are the duals of the sides ``X`` of its
    join splits and the geometric dual, each one move leading to
    ``G^(A△X)``.  ``closed`` reports whether the search saw its whole
    reachable set before hitting the depth bound, so a missing trace is a proof of unrelatedness only when ``closed`` is
    true.  Moves keep the edge count, so graphs with different edge counts
    are unrelated without a search.  A search that would range over the
    subsets of more than ``duality.SWEEP_MAX_EDGES`` edges is refused; a
    pair of that size whose vertex degrees or face lengths differ cannot
    be equivalent, so it is refused before either graph is coded, and an
    equivalent pair keeps its empty trace.

    ``subsets``, if given, must list every edge subset ``A`` with ``G^A``
    equivalent to ``h``, as :func:`duality.partial_dual_subsets` does; the
    search then recognises ``h`` by subset and codes no subset to find it.
    A listed subset whose partial dual's vertex degrees or face lengths are
    not ``h``'s raises :class:`InvariantViolation`.
    """
    if bound < 0:
        raise ValueError(f"move search depth bound must be at least 0, not {bound}")
    if not is_connected(g) or not is_connected(h):
        raise ValueError("move search requires connected graphs")
    if g.n_edges != h.n_edges:
        return MoveSearchResult(None, True, 0)
    idx, hidx = g._indexed(), h._indexed()
    full = (1 << idx.ne) - 1

    degrees: dict[int, tuple] = {}  # edge mask -> sorted vertex degrees of G^mask

    def key(mask: int) -> tuple:
        # the vertex degrees and face lengths of G^mask, as the faces of
        # G^mask are the vertices of G^(full ^ mask)
        out = []
        for m in (mask, full ^ mask):
            d = degrees.get(m)
            if d is None:
                d = degrees[m] = tuple(sorted(idx.walk_lengths(m)))
            out.append(d)
        return tuple(out)

    target = (tuple(sorted(len(darts) for darts in hidx.rot)), tuple(sorted(hidx.walk_lengths(full))))
    targets = None
    if subsets is not None:
        targets = {idx.mask(g.check_subset(sub)) for sub in subsets}
        for mask in targets:
            if key(mask) != target:
                raise InvariantViolation(
                    f"listed subset {sorted(idx.edge_set(mask))} gives a partial dual "
                    "whose vertex degrees or face lengths are not the target's"
                )
    codes: dict[int, str] = {}  # edge mask -> code of G^mask, each subset coded

    def code(mask: int) -> str:
        c = codes.get(mask)
        if c is None:
            c = codes[mask] = canonical_form(_dual_view(g, mask)) if mask else idx.canonical_code()
        return c

    def is_target(mask: int, k: tuple) -> bool:
        if targets is not None:
            return mask in targets
        return k == target and code(mask) == h.canonical_code()

    start = key(0)
    if is_target(0, start):
        return MoveSearchResult(MoveTrace((), (code(0),)), True, 0, 0, 1, 1)
    refuse_large_sweep(g, "move search")
    tree = _factor_tree(idx)
    nodes = [0]  # the first subset met of every class reached
    came = [(-1, 0)]  # per node, the node it was reached from and the flipped mask
    by_key = {start: [0]}  # nodes by the degrees and face lengths of their class
    met = {0}
    queue = deque([(0, 0)])  # (node, depth)
    closed = True
    max_depth = 0
    expanded = 0
    while queue:
        n, depth = queue.popleft()
        if depth >= bound:
            closed = False
            continue
        expanded += 1
        node = nodes[n]
        for flip in _node_steps(idx, tree, node) + [full]:
            mask = node ^ flip
            if mask in met:
                continue  # its class is known already
            met.add(mask)
            k = key(mask)
            found = is_target(mask, k)
            same = by_key.setdefault(k, [])
            # a class with new degrees or face lengths is new without a code
            if not found and same and any(code(nodes[j]) == code(mask) for j in same):
                continue
            nodes.append(mask)
            came.append((n, flip))
            max_depth = max(max_depth, depth + 1)
            if found:
                steps_back = []
                trace_codes = [h.canonical_code()]
                at = len(nodes) - 1
                while came[at][0] >= 0:
                    at, flip = came[at]
                    # a summand step never flips the whole edge set
                    kind = "geometric-dual" if flip == full else "dual-join-summand"
                    steps_back.append(MoveStep(kind, idx.edge_set(flip)))
                    trace_codes.append(code(nodes[at]))
                return MoveSearchResult(
                    MoveTrace(tuple(reversed(steps_back)), tuple(reversed(trace_codes))),
                    True,
                    depth + 1,
                    expanded,
                    len(nodes),
                    len(codes),
                )
            same.append(len(nodes) - 1)
            queue.append((len(nodes) - 1, depth + 1))
    return MoveSearchResult(None, closed, max_depth, expanded, len(nodes), len(codes))


def join_partial_dual_distributes(
    p: RibbonGraph,
    vp: str,
    q: RibbonGraph,
    vq: str,
    edges: Iterable[str],
    gap: int = 0,
    q_offset: int = 0,
) -> bool:
    """Check that a partial dual of a join splits into the partial duals of
    the summands.

    Builds the join, takes its partial dual, and verifies that the result
    splits along the summand edge sets into parts equivalent to each side's
    own partial dual.
    """
    from .decomposition import join

    g = join(p, vp, q, vq, gap=gap, q_offset=q_offset)
    sub = g.check_subset(edges)
    result = partial_dual(g, sub)
    want_p = partial_dual(p, sub & frozenset(p.edge_labels))
    want_q = partial_dual(q, sub & frozenset(q.edge_labels))
    ep = frozenset(p.edge_labels)
    eq = frozenset(q.edge_labels)
    if not eq or not ep:
        return is_equivalent(result, want_p if not eq else want_q)
    for v, x in join_summand_splits(result):
        if x == eq:
            if is_equivalent(induced_subgraph(result, eq), want_q) and is_equivalent(
                induced_subgraph(result, ep), want_p
            ):
                return True
    return False
