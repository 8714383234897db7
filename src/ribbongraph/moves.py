"""The dual-of-a-join-summand move and the search relating partial duals.

Dualling a join summand replaces one summand of a join by its geometric
dual and leaves the rest alone; together with taking the geometric dual of
the whole graph it relates all partially dual graphs of Euler genus zero
and one.

Every graph a move sequence reaches from ``G`` is a partial dual ``G^A``,
because ``(G^A)^X = G^(A△X)`` with the edge labels kept.  So
:func:`move_related` searches breadth-first over edge subsets ``A`` of
``G``: the steps from ``G^A`` lead to ``A△X`` for every summand edge set
``X`` of ``G^A`` and to ``A△E`` for the geometric dual.  Nodes are
deduplicated by canonical code, and each subset is built and coded at
most once per search, so a search holds at most ``2^e`` nodes.  A subset
is built as an integer view (``duality._dual_view``) and coded from it,
and a queued node's steps are read off its view's factor tree; the search
names no graph, and drops each view once its node is expanded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import InvariantViolation, RibbonGraph, _Indexed, canonical_form
from .core import induced_subgraph, is_equivalent
from .decomposition import (
    NotAJoinSummand,
    _split_sides,
    _summand_masks,
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
        # steps recorded under a shortcut policy may bundle several
        # elementary moves, so replay applies the recorded duals directly
        for step in self.steps:
            if step.kind == "geometric-dual":
                g = geometric_dual(g)
            else:
                g = partial_dual(g, step.edges)
        return g


@dataclass(frozen=True)
class MoveSearchResult:
    trace: Optional[MoveTrace]
    closed: bool  # reachable set exhausted below the bound
    max_depth: int
    expanded: int = 0  # classes whose steps were taken
    reached: int = 0  # distinct classes seen, the start included
    coded: int = 0  # distinct edge subsets coded, the empty one included

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


def _step_sets(idx: _Indexed, policy: str) -> list[int]:
    """The edge masks a search step from the graph of ``idx`` may dual, in
    label order.

    ``splits`` duals one side of a two-sided join split (each step is a
    single legal move).  ``unions`` duals any connected union of prime
    factors; a step may be a shortcut for a short sequence of legal moves,
    never leaving the set of partial duals, and reaches the same graphs.
    The whole edge set is left to the geometric-dual step.  A partial dual
    keeps its edge labels, so its masks are masks of every graph it is a
    partial dual of.
    """
    if policy == "unions":
        masks = _summand_masks(idx)
    elif policy == "splits":
        masks = _split_sides(idx)
    else:
        raise ValueError(f"unknown move policy {policy!r}")
    full = (1 << idx.ne) - 1
    return [m for m in masks if m != full]


def move_related(
    g: RibbonGraph, h: RibbonGraph, bound: int = 8, policy: str = "unions"
) -> MoveSearchResult:
    """Shortest move sequence taking ``g`` to a graph equivalent to ``h``.

    Breadth-first over the edge subsets ``A`` of ``g``, one node per
    canonical code: the steps from ``G^A`` are the summand duals and the
    geometric dual, each leading to ``G^(A△X)``.  ``closed`` reports
    whether the search saw its whole reachable set before hitting the depth
    bound, so a missing trace is a proof of unrelatedness only when
    ``closed`` is true.  Moves keep the edge count, so graphs with
    different edge counts are unrelated without a search.  A search that
    would range over the subsets of more than ``duality.SWEEP_MAX_EDGES``
    edges is refused.
    """
    if bound < 0:
        raise ValueError(f"move search depth bound must be at least 0, not {bound}")
    if not is_connected(g) or not is_connected(h):
        raise ValueError("move search requires connected graphs")
    if g.n_edges != h.n_edges:
        return MoveSearchResult(None, True, 0)
    target = h.canonical_code()
    start_code = g.canonical_code()
    if start_code == target:
        return MoveSearchResult(MoveTrace((), (start_code,)), True, 0, 0, 1, 1)
    refuse_large_sweep(g, "move search")
    idx = g._indexed()
    full = (1 << idx.ne) - 1
    coded = {0}  # every subset coded so far, by edge mask
    # code -> (parent code, flipped mask)
    seen: dict[str, tuple[Optional[str], int]] = {start_code: (None, 0)}
    # a queued node carries the edge mask of its first representative and
    # that partial dual's view, whose factor tree gives the node's steps
    queue = deque([(start_code, 0, 0, idx)])
    closed = True
    max_depth = 0
    expanded = 0
    while queue:
        code, depth, node, view = queue.popleft()
        if depth >= bound:
            closed = False
            continue
        expanded += 1
        for flip in _step_sets(view, policy) + [full]:
            mask = node ^ flip
            if mask in coded:
                continue  # its code is in seen already
            coded.add(mask)
            nview = _dual_view(g, mask)
            ncode = canonical_form(nview)
            if ncode in seen:
                continue
            seen[ncode] = (code, flip)
            max_depth = max(max_depth, depth + 1)
            if ncode == target:
                steps = []
                codes = [ncode]
                at = ncode
                while seen[at][0] is not None:
                    at, flip = seen[at]
                    # a summand step never flips the whole edge set
                    kind = "geometric-dual" if flip == full else "dual-join-summand"
                    steps.append(MoveStep(kind, idx.edge_set(flip)))
                    codes.append(at)
                return MoveSearchResult(
                    MoveTrace(tuple(reversed(steps)), tuple(reversed(codes))),
                    True,
                    depth + 1,
                    expanded,
                    len(seen),
                    len(coded),
                )
            queue.append((ncode, depth + 1, mask, nview))
    return MoveSearchResult(None, closed, max_depth, expanded, len(seen), len(coded))


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
