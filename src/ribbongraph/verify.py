"""Graph generators and the exhaustive desk-scale verification harness.

The corpus generator enumerates every connected ribbon graph up to
equivalence with a bounded number of edges, by augmenting smaller graphs
one edge at a time and deduplicating on canonical codes; each child is
grown and coded as an integer view, and only the first of its class is
named.  A child that an automorphism of its parent maps onto an earlier
child of the same parent is not coded at all; the loop that codes every
child (:func:`oracles.exhaustive_by_all_children`) checks that this keeps
every representative, and a brute-force enumerator over raw rotation
systems (:func:`oracles.enumerate_raw`) double-checks the counts at tiny
sizes.

``check_suite`` runs a battery of named checks over a corpus; every check
states a universally quantified property of the library's operations, and
any failure is reported with a replayable serialized instance.  The checks
and the oracles they compare against are in :mod:`ribbongraph.oracles`,
which ``check_suite`` imports on its first call: a process that runs no
check does not compile them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import End, RibbonGraph, _Indexed, _automorphisms, _keep_view
from .topology import is_connected

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


def _redundant_children(idx: _Indexed) -> set[int]:
    """The numbers of the children of a parent view that an automorphism of
    the parent maps onto a child with a lower number.

    Children are numbered in the order of :func:`_grown` and then the signs:
    child ``2 * k + t`` is the ``k``-th rotation list with sign ``(1, -1)[t]``.
    An automorphism ``(image, rho)`` of the parent (:func:`core._automorphisms`)
    maps the gap before dart ``x`` to the gap before ``image[x]``, or to the
    gap after it where ``rho`` is ``-1`` at ``x``'s vertex, and the new
    edge's sign ``s`` to ``s * rho[v1] * rho[v2]``; the child it maps to is
    equivalent.  The twisted leaf is always redundant, as flipping the leaf
    undoes its twist.
    """
    rot = idx.rot
    first = [0] * idx.nv  # slot number of each vertex's gap 0, as _grown numbers slots
    n = 0
    for v, darts in enumerate(rot):
        first[v], n = n, n + max(1, len(darts))
    pairs = n * (n + 1) // 2
    # rotation number of the pair of slots i <= j, read both ways round
    number = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        number[i][j] = number[j][i] = k
    out = {2 * (pairs + i) + 1 for i in range(n)}
    if not idx.ne:
        return out  # the edgeless base: no automorphisms to read
    slot_vertex = [v for v, darts in enumerate(rot) for _ in darts]
    for image, rho in _automorphisms(idx):
        sigma = []
        for v, darts in enumerate(rot):
            for x in darts:
                y = image[x]
                w, q = idx.dart_vertex[y], idx.dart_pos[y]
                sigma.append(first[w] + (q if rho[v] > 0 else (q + 1) % len(rot[w])))
        for i, a in enumerate(sigma):
            if a < i:
                out.add(2 * (pairs + i))  # the untwisted leaf at slot i
            row = number[a]
            for j in range(i, n):
                k, k2 = number[i][j], row[sigma[j]]
                if k2 < k:
                    out.update((2 * k, 2 * k + 1))
                elif k2 == k and rho[slot_vertex[i]] != rho[slot_vertex[j]]:
                    out.add(2 * k + 1)  # the sign flips: the twisted child is the later
    return out


def _exhaustive(max_edges: int, prune: bool = True) -> list[RibbonGraph]:
    """Every connected graph with up to ``max_edges`` edges, one per class.

    Augmentation works on class representatives level by level, so the
    output is connected and deduplicated.  Each child is grown as darts
    from its parent's integer view (:func:`_grown`), with both signs of the
    new edge, and coded through the view's memo; only the first child of
    each new class is named, and it keeps the view with its code.  Labels
    ``e1..e6`` sort in numeric order, so the new edge is the view's last.

    A child that an automorphism of its parent maps onto an earlier child of
    the same parent (:func:`_redundant_children`) is skipped without being
    coded: it is equivalent to that earlier child, so the first child of a
    class is never skipped, and the representatives, their names and their
    order are those of coding every child (``prune=False``, the oracle
    :func:`oracles.exhaustive_by_all_children`).
    """
    base = RibbonGraph({"v0": []}, {})
    levels: list[dict[str, RibbonGraph]] = [{base.canonical_code(): base}]
    for e in range(1, max_edges + 1):
        level: dict[str, RibbonGraph] = {}
        for parent in levels[e - 1].values():
            idx = parent._indexed()
            labels = idx.labels + ["e%d" % e]
            skip = _redundant_children(idx) if prune else ()
            for k, rot in enumerate(_grown(idx.rot, 2 * idx.ne)):
                for t, s in enumerate((1, -1)):
                    if 2 * k + t in skip:
                        continue
                    view = _Indexed(labels, rot, idx.sign + [s])
                    code = view.canonical_code()
                    if code not in level:
                        child = RibbonGraph(*view.named(), _validate=False)
                        level[code] = _keep_view(child, view)
        levels.append(level)
    out: list[RibbonGraph] = []
    for level in levels:
        out.extend(level[k] for k in sorted(level))
    return out



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


ALL_CHECKS = [
    "calibration",
    "corpus-counts",
    "automorphism-agreement",
    "partial-dual-identities",
    "dual-composition",
    "dual-route-agreement",
    "count-route-agreement",
    "table-route-agreement",
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
    "search-route-agreement",
    "orientability-cross-check",
    "representation-roundtrip",
    "genus-additivity",
    "interlaced-bouquet-discrepancy",
]


def selected_checks(which: Optional[Iterable[str]] = None) -> list[str]:
    """The check names of ``which`` (default: all), each known, or
    :class:`ValueError` naming the first unknown one."""
    names = list(which) if which else list(ALL_CHECKS)
    for n in names:
        if n not in ALL_CHECKS:
            raise ValueError(f"unknown check {n!r}; known: {', '.join(ALL_CHECKS)}")
    return names


def check_suite(
    corpus: Corpus,
    which: Optional[Iterable[str]] = None,
    seed: int = 0,
) -> VerificationReport:
    """Run the selected checks over a corpus and report failures.

    ``which`` is a list of check names (default: all).  Results are
    deterministic for fixed corpus parameters and seed.
    """
    names = selected_checks(which)
    from .oracles import run_checks  # the checks load on the first call

    return VerificationReport(
        params=dict(corpus.params, checks=names, seed=seed),
        results=run_checks(corpus, names, seed),
    )


def __getattr__(name: str):
    # the per-graph check names, read here by the benchmark, load the checks
    if name == "PER_GRAPH_CHECKS":
        from .oracles import PER_GRAPH_CHECKS

        return PER_GRAPH_CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
