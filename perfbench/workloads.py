"""The benchmark's workloads: seeded inputs, the timed operation and its check.

Each workload is set up in three steps, all through the package's public
functions:

* ``select(rg, seed)`` draws random graphs from the seed until every
  stratum holds its quota and returns the chosen graphs as text.  How many
  draws that takes depends on the seed, so this step is not timed.
* ``build(rg, seed, picks, workdir)`` makes the inputs from the chosen
  graphs: it writes the graph files the ops read and computes the expected
  answers, and returns both as a JSON-able spec.  This step and the import
  of the package are what ``setup_s`` times.
* ``load(rg, seed, spec)`` makes the list of :class:`Op` that the measuring
  process runs.  An op's ``run`` is the timed call; its ``check`` inspects
  the output afterwards, outside the timed region.

Inputs fill fixed quotas per stratum (edge count, orientability, genus,
size of the move-search closure), because per-input cost varies far more
than the benchmark's bounds allow, and the strata are spread evenly over
the op list, so a run that stops part-way through it still measures the
same mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list[Op]
    # leading ops run once untraced and once traced by a ``--trace 1`` run
    trace_ops: int
    # units of work one correct output counts for in ``ops_per_s``
    units: Callable[[object], int] = lambda output: 1


class Steps(NamedTuple):
    select: Callable
    build: Callable
    load: Callable


def _interleave(groups: list[list]) -> list:
    """Merge the groups, spreading each evenly over the result."""
    keyed = [((i + 0.5) / len(g), k, x) for k, g in enumerate(groups) for i, x in enumerate(g)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


def _sub_seed(seed: int, *tags) -> int:
    return random.Random(":".join(map(str, (seed,) + tags))).randrange(2**31)


MAX_DRAW_CHUNKS = 50


def _draws(rg, seed: int, tag: str, edges: int, chunk: int = 100):
    """Distinct random connected graphs with ``edges`` edges, in seeded order."""
    seen = set()
    for k in range(MAX_DRAW_CHUNKS):
        corpus = rg.generate(edges, mode="random", seed=_sub_seed(seed, tag, edges, k), count=chunk)
        for g in corpus.graphs:
            if g.canonical_code() not in seen:
                seen.add(g.canonical_code())
                yield g


def _fill(draws, stratum, quotas: dict) -> dict:
    """Take graphs from ``draws`` until every stratum holds its quota.

    ``stratum(g)`` returns the graph's stratum key (None to skip it) and a
    payload kept with it."""
    picked = {key: [] for key in quotas}
    for g in draws:
        key, payload = stratum(g)
        if key in picked and len(picked[key]) < quotas[key]:
            picked[key].append((g, payload))
            if all(len(picked[k]) == n for k, n in quotas.items()):
                return picked
    raise RuntimeError(f"strata not filled after {MAX_DRAW_CHUNKS} draws: "
                       f"{ {k: len(v) for k, v in picked.items()} }")


def _graph(rg, text: str):
    return rg.parse(text).graph()


def _cli_run(rg, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rg.cli.main(argv)
        return code, buf.getvalue()

    return run


def _write(rg, workdir: Path, name: str, g) -> str:
    path = workdir / name
    path.write_text(rg.serialize_graph(g), encoding="utf-8")
    return str(path)


# -- spectrum -----------------------------------------------------------------

SPECTRUM_EDGES = (6, 7, 8)
SPECTRUM_PER_CELL = 25


def select_spectrum(rg, seed: int) -> dict:
    """Per edge count, random connected graphs in two cells: the first ones
    drawn, to be re-signed all untwisted, which makes them orientable
    (uniform signs seldom are at this size), and the non-orientable ones
    among the next draws."""
    picks = {}
    for e in SPECTRUM_EDGES:
        draws = _draws(rg, seed, "spectrum", e)
        untwisted = list(itertools.islice(draws, SPECTRUM_PER_CELL))
        twisted = _fill(draws, lambda g: (None if rg.is_orientable(g) else "twisted", None),
                        {"twisted": SPECTRUM_PER_CELL})["twisted"]
        picks[e] = ([rg.serialize_graph(g) for g in untwisted],
                    [rg.serialize_graph(g) for g, _ in twisted])
    return picks


def build_spectrum(rg, seed: int, picks: dict, workdir: Path) -> dict:
    cells = []
    for e in SPECTRUM_EDGES:
        untwisted, twisted = picks[e]
        cells.append([rg.build_graph(dict(zip(g.vertex_names, g.rotations)),
                                     dict.fromkeys(g.edge_labels, "+"))
                      for g in (_graph(rg, t) for t in untwisted)])
        cells.append([_graph(rg, t) for t in twisted])
    ops = []
    for i, g in enumerate(_interleave(cells)):
        stats = rg.surface_stats(g)
        ops.append({"path": _write(rg, workdir, f"spectrum{i}.txt", g),
                    "labels": list(g.edge_labels),
                    "genus": stats.euler_genus, "orientable": stats.orientable})
    return {"ops": ops, "trace_ops": 2 * len(cells)}


def _spectrum_check(labels, genus, orientable):
    full = frozenset(labels)

    def check(output) -> bool:
        code, text = output
        if code != 0:
            return False
        rows = json.loads(text)["spectrum"]
        by_subset = {frozenset(r["subset"]): r for r in rows}
        if len(rows) != 2 ** len(full) or len(by_subset) != len(rows):
            return False
        for sub, row in by_subset.items():
            if by_subset[full - sub]["euler_genus"] != row["euler_genus"]:
                return False
            plane = row["biseparation"].split(" ")[0] == "plane"
            if plane != (row["euler_genus"] == 0):
                return False
        empty = by_subset[frozenset()]
        return (empty["euler_genus"], empty["orientable"]) == (genus, orientable)

    return check


def load_spectrum(rg, seed: int, spec: dict) -> Workload:
    ops = [Op(_cli_run(rg, ["spectrum", o["path"], "--classes", "--json"]),
              _spectrum_check(o["labels"], o["genus"], o["orientable"]))
           for o in spec["ops"]]
    return Workload(ops, trace_ops=spec["trace_ops"])


# -- relate -------------------------------------------------------------------

# Bases per edge count.  Latencies cluster by edge count; with these shares
# the median falls in the middle of the cluster of related 6-edge pairs
# rather than in a gap between clusters, where it would jump from run to run.
RELATE_BASES = {5: 8, 6: 12, 7: 4}
# Window for the size of each base's move-search closure: its distinct
# same-genus partial duals times its join-summand sets.  A closure search
# costs about 0.3 ms per unit on a 2-core x86 box; a narrow window keeps the
# cost of the searches, and so the run-to-run spread, in check.
RELATE_CLOSURE = (48, 128)
RELATE_MAX_SUMMANDS = 16  # cheap pre-filter before the genus sweep
RELATE_PAIRS_PER_BASE = 8  # every fourth pair is unrelated


def _same_genus_subsets(rg, g, genus: int) -> list:
    """Subsets A with Euler genus of G^A equal to ``genus``, for connected G.

    G^A has one vertex per boundary component of the spanning subgraph on A
    and one face per boundary component of the one on the complement, so
    its Euler genus is 2 + e - f(A) - f(E - A)."""
    full = frozenset(g.edge_labels)
    faces = {sub: rg.topology.trace_walks(g, sub).count
             for sub in rg.duality.subsets_sorted(full)}
    return [sub for sub, f in faces.items() if 2 + len(full) - f - faces[full - sub] == genus]


def _dual_codes(rg, g) -> dict:
    """Canonical code of G^A for every subset A keeping G's genus."""
    same = _same_genus_subsets(rg, g, rg.surface_stats(g).euler_genus)
    return {sub: rg.canonical_form(rg.partial_dual(g, sub)) for sub in same}


def select_relate(rg, seed: int) -> list:
    """Bases G of Euler genus 0 or 1 with 5-7 edges whose move closure lies
    in the window, each with the graphs H of its unrelated pairs: graphs
    of the same genus and edge count from other classes."""
    rng = random.Random(_sub_seed(seed, "relate-strangers"))
    picks = []
    for e in RELATE_BASES:
        low = []

        def stratum(g):
            genus = rg.surface_stats(g).euler_genus
            if genus > 1:
                return None, None
            low.append((g, genus))
            summands = len(rg.summand_edge_sets(g))
            if summands > RELATE_MAX_SUMMANDS:
                return None, None
            same = _same_genus_subsets(rg, g, genus)
            # pre-filter before the canonical codes: the distinct classes
            # number at most the same-genus subsets, and in practice at
            # least a quarter of them
            if not RELATE_CLOSURE[0] <= len(same) * summands <= 4 * RELATE_CLOSURE[1]:
                return None, None
            classes = {rg.canonical_form(rg.partial_dual(g, sub)) for sub in same}
            if not RELATE_CLOSURE[0] <= len(classes) * summands <= RELATE_CLOSURE[1]:
                return None, None
            strangers = [h for h, hg in low if hg == genus and h.canonical_code() not in classes]
            return ("base" if strangers else None), strangers

        picked = _fill(_draws(rg, seed, "relate", e), stratum, {"base": RELATE_BASES[e]})
        for g, strangers in picked["base"]:
            unrelated = [rng.choice(strangers) for _ in range(RELATE_PAIRS_PER_BASE // 4)]
            picks.append((rg.serialize_graph(g), [rg.serialize_graph(h) for h in unrelated]))
    return picks


def _scrambled(g, rng: random.Random):
    """An equivalent graph in different storage: edges relabelled, vertices
    flipped and rotated at random, vertex order shuffled."""
    labels = list(g.edge_labels)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    g = g.relabeled(dict(zip(labels, shuffled)))
    for name in g.vertex_names:
        if rng.random() < 0.5:
            g = g.flipped(name)
        g = g.rotated(name, rng.randrange(max(1, g.degree(name))))
    order = list(g.vertex_names)
    rng.shuffle(order)
    return g.reordered(order)


def build_relate(rg, seed: int, picks: list, workdir: Path) -> dict:
    """Pairs (G, H) per base G: three in four take H as a same-genus partial
    dual of G in scrambled storage, the fourth an unrelated graph, so the
    move search runs to closure.  The expected answers come from a table of
    the canonical codes of G's same-genus partial duals."""
    rng = random.Random(_sub_seed(seed, "relate"))
    per_base, classes = [], []
    for b, (g_text, unrelated) in enumerate(picks):
        g = _graph(rg, g_text)
        codes = _dual_codes(rg, g)
        same = list(codes)
        strangers = (_graph(rg, t) for t in unrelated)
        classes.append(sorted(set(codes.values())))
        g_path = _write(rg, workdir, f"relate{b}.txt", g)
        pairs = []
        for j in range(RELATE_PAIRS_PER_BASE):
            if j % 4 == 3:
                h = next(strangers)
                h_code = h.canonical_code()
            else:
                sub = rng.choice(same)
                h = rg.partial_dual(g, sub)
                h_code = codes[sub]
            pairs.append({
                "g": g_path,
                "h": _write(rg, workdir, f"relate{b}_{j}.txt", _scrambled(h, rng)),
                "base": b,
                "g_code": codes[frozenset()],
                "h_code": h_code,
                "subsets": sorted(sorted(s) for s, c in codes.items() if c == h_code),
            })
        per_base.append(pairs)
    return {"ops": _interleave(per_base), "classes": classes, "trace_ops": 4 * len(per_base)}


def _relate_check(g_code, h_code, subsets, classes):
    def check(output) -> bool:
        code, text = output
        if code != 0:
            return False
        data = json.loads(text)
        if data["equivalent"] != (g_code == h_code):
            return False
        got = data["partial_dual_subsets"]
        if len(got) != len(subsets) or {frozenset(s) for s in got} != subsets:
            return False
        moves = data["moves"]
        if not subsets:
            return moves is None and data["search_closed"]
        if moves is None:
            # the command reports the empty move sequence between
            # equivalent graphs as null
            return data["equivalent"]
        trace = moves["codes"]
        # every step stays among G's same-genus partial duals
        return trace[0] == g_code and trace[-1] == h_code and classes.issuperset(trace)

    return check


def load_relate(rg, seed: int, spec: dict) -> Workload:
    classes = [frozenset(c) for c in spec["classes"]]
    ops = [Op(_cli_run(rg, ["relate", o["g"], o["h"], "--json"]),
              _relate_check(o["g_code"], o["h_code"], {frozenset(s) for s in o["subsets"]},
                            classes[o["base"]]))
           for o in spec["ops"]]
    return Workload(ops, trace_ops=spec["trace_ops"])


# -- verify -------------------------------------------------------------------

# Graphs per edge count: Euler genus 2 and up, then genus 0 or 1 in two
# windows of the move-closure estimate (same-genus subsets times
# join-summand sets), which drives the costliest per-graph check,
# move-completeness, from about 0.1 s to over 1 s.  Latencies cluster by
# edge count and genus; with these shares the median falls in the middle
# of the 6-edge high-genus cluster, and the 90th percentile at its top,
# below the few costly low-genus graphs.
VERIFY_QUOTAS = {
    5: {"high-genus": 17, "low-genus-small": 4, "low-genus-large": 4},
    6: {"high-genus": 95, "low-genus-small": 4, "low-genus-large": 4},
}
VERIFY_WINDOWS = {"low-genus-small": (1, 64), "low-genus-large": (65, 256)}


def select_verify(rg, seed: int) -> list:
    """Random connected graphs of 5-6 edges in fixed quotas by genus and
    move-closure estimate, in the order the ops take them."""

    def stratum(g):
        genus = rg.surface_stats(g).euler_genus
        if genus > 1:
            return "high-genus", None
        size = len(_same_genus_subsets(rg, g, genus)) * len(rg.summand_edge_sets(g))
        return next((k for k, (lo, hi) in VERIFY_WINDOWS.items() if lo <= size <= hi), None), None

    groups = []
    for e, quotas in VERIFY_QUOTAS.items():
        picked = _fill(_draws(rg, seed, "verify", e), stratum, quotas)
        groups += [[rg.serialize_graph(g) for g, _ in picked[key]] for key in quotas]
    return _interleave(groups)


def build_verify(rg, seed: int, picks: list, workdir: Path) -> dict:
    """The chosen graphs need nothing more: check_suite finds its own answers."""
    return {"graphs": picks}


def load_verify(rg, seed: int, spec: dict) -> Workload:
    """Each graph checked on its own by all per-graph checks of the harness."""
    checks = list(rg.verify.PER_GRAPH_CHECKS)

    def make(g) -> Op:
        params = {"max_edges": g.n_edges, "mode": "random", "seed": seed}

        def run():
            # a fresh copy per run, so nothing cached on the graph by an
            # earlier run carries over
            fresh = g.reordered(g.vertex_names)
            return rg.verify.check_suite(rg.Corpus(params, [fresh]), which=checks, seed=seed)

        return Op(run, lambda report: report.ok and len(report.results) == len(checks))

    return Workload([make(_graph(rg, t)) for t in spec["graphs"]], trace_ops=20)


# -- enumerate ----------------------------------------------------------------

ENUMERATE_EDGES = 4
# classes per edge count of every connected ribbon graph with up to 4 edges
ENUMERATE_CLASSES = {0: 1, 1: 3, 2: 11, 3: 63, 4: 514}


def load_enumerate(rg, seed: int, spec: dict) -> Workload:
    """One exhaustive corpus per op; exhaustive generation takes no seed, so
    there are no inputs to select or build."""
    op = Op(lambda: rg.verify.generate(ENUMERATE_EDGES),
            lambda corpus: Counter(g.n_edges for g in corpus.graphs) == ENUMERATE_CLASSES)
    return Workload([op], trace_ops=1, units=lambda corpus: len(corpus.graphs))


WORKLOADS = {
    "spectrum": Steps(select_spectrum, build_spectrum, load_spectrum),
    "relate": Steps(select_relate, build_relate, load_relate),
    "verify": Steps(select_verify, build_verify, load_verify),
    "enumerate": Steps(lambda rg, seed: None, lambda rg, seed, picks, workdir: {}, load_enumerate),
}
