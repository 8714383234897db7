"""Acceptance gate: every criterion below is exact (zero tolerance) and runs
standalone on desk-scale corpora.  One PASS/FAIL line is printed per
criterion; the shared exhaustive sweep over all connected graphs with up to
five edges is computed once and consumed by the criteria that quantify over
it."""

import time
from pathlib import Path

import pytest

from ribbongraph import (
    build_graph,
    is_equivalent,
    partial_dual,
    single_vertex,
    surface_stats,
)
from ribbongraph.verify import check_suite

SWEEP_CHECKS = [
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


@pytest.fixture(scope="module")
def sweep(corpus5):
    t0 = time.perf_counter()
    report = check_suite(corpus5, which=SWEEP_CHECKS)
    elapsed = time.perf_counter() - t0
    print(f"\n[acceptance] exhaustive sweep over {len(corpus5)} graphs "
          f"(≤5 edges): {elapsed:.0f}s")
    return report


def _result(report, name):
    for r in report.results:
        if r.name == name:
            return r
    raise KeyError(name)


def _verdict(n, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n:2d} {state}: {label}{detail}")
    assert ok, f"criterion {n} ({label}) failed{detail}"


def test_criterion_01_calibration_corpus():
    t0 = time.perf_counter()
    expected = {
        "untwisted loop": (single_vertex("e e", "+"), 0, True),
        "twisted loop": (single_vertex("e e", "-"), 1, False),
        "plane two-cycle": (
            build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "+"}),
            0,
            True,
        ),
        "crosscap two-cycle": (
            build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "-"}),
            1,
            False,
        ),
        "interlaced bouquet ++": (single_vertex("a b a b", "++"), 2, True),
        "interlaced bouquet --": (single_vertex("a b a b", "--"), 1, False),
        "triple bouquet abacbc": (single_vertex("a b a c b c", "+++"), 2, True),
    }
    bad = []
    for name, (g, gamma, ori) in expected.items():
        st = surface_stats(g)
        if (st.euler_genus, st.orientable) != (gamma, ori):
            bad.append((name, st.euler_genus, st.orientable))
    elapsed = time.perf_counter() - t0
    _verdict(1, "calibration corpus genus and orientability",
             not bad and elapsed < 1.0, f" ({elapsed*1000:.0f}ms){bad or ''}")


def test_criterion_02_partial_dual_anchors():
    t0 = time.perf_counter()
    C = build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "+"})
    D = build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "-"})
    T1 = single_vertex("a b a b", "++")
    N1 = single_vertex("a b a b", "--")
    ca = surface_stats(partial_dual(C, {"a"}))
    da = surface_stats(partial_dual(D, {"a"}))
    ok = (
        (ca.euler_genus, ca.orientable) == (2, True)
        and (da.euler_genus, da.orientable) == (2, False)
        and is_equivalent(partial_dual(T1, {"a"}), C)
        and surface_stats(partial_dual(N1, {"a"})).euler_genus == 2
    )
    elapsed = time.perf_counter() - t0
    _verdict(2, "partial-dual anchor values", ok and elapsed < 1.0,
             f" ({elapsed*1000:.0f}ms)")


@pytest.mark.slow
def test_criterion_03_dual_identities(sweep):
    names = ["partial-dual-identities", "dual-composition", "component-duality",
             "dual-route-agreement"]
    results = [_result(sweep, n) for n in names]
    total = sum(r.checked for r in results)
    secs = sum(r.seconds for r in results)
    ok = all(r.ok for r in results) and all(r.checked > 0 for r in results)
    _verdict(3, "dual identity suite (≤4-edge pairs exhaustive)", ok,
             f" ({total} checks, {secs:.0f}s)")


@pytest.mark.slow
def test_criterion_04_genus_decomposition(sweep):
    r = _result(sweep, "genus-decomposition")
    _verdict(4, "certificate iff dual genus adds, with orientability clause",
             r.ok and r.checked > 0, f" ({r.checked} checks, {r.seconds:.0f}s)")


@pytest.mark.slow
def test_criterion_05_sum_genus_excess(sweep):
    r = _result(sweep, "sum-genus-excess")
    _verdict(5, "vertex-gluing characteristic identity and genus excess",
             r.ok and r.checked > 0, f" ({r.checked} sums)")


@pytest.mark.slow
def test_criterion_06_low_genus_characterization(sweep):
    r = _result(sweep, "low-genus-duals")
    _verdict(6, "plane and crosscap duals characterized by certificates",
             r.ok and r.checked > 0, f" ({r.checked} checks)")


@pytest.mark.slow
def test_criterion_07_toggle_orbits(sweep):
    orbit = _result(sweep, "toggle-orbit")
    prime = _result(sweep, "prime-split-count")
    ok = orbit.ok and prime.ok and orbit.checked > 0 and prime.checked > 0
    _verdict(7, "toggle orbits single; prime graphs carry 0 or 2 subsets", ok,
             f" ({orbit.checked}+{prime.checked} checks)")


@pytest.mark.slow
def test_criterion_08_same_genus_and_moves(sweep):
    names = ["same-genus-characterization", "join-structure", "join-upgrade",
             "join-dual-distribution", "move-completeness"]
    results = [_result(sweep, n) for n in names]
    moves = _result(sweep, "move-completeness")
    # the closure depth under single moves, the steps relate searches by,
    # must fit relate's default --max-depth of 8
    depth = moves.notes.get("max_depth", 0)
    ok = all(r.ok and r.checked > 0 for r in results) and depth <= 8
    total = sum(r.checked for r in results)
    _verdict(8, "same-genus pairs, join structure and move search", ok,
             f" ({total} checks, max move depth {depth}, "
             f"unions closure depth {moves.notes.get('unions_depth')})")


@pytest.mark.slow
def test_criterion_09_construction_agreement(sweep):
    r = _result(sweep, "dual-route-agreement")
    _verdict(9, "integer, arrow, one-edge and marked constructions agree",
             r.ok and r.checked > 0, f" ({r.checked} subsets)")


@pytest.mark.slow
def test_criterion_10_documented_discrepancy(sweep):
    r = _result(sweep, "interlaced-bouquet-discrepancy")
    g_fix = single_vertex("a b a c b c", "+++")
    g_raw = single_vertex("a b c a c b", "+++")
    values_ok = (
        surface_stats(partial_dual(g_fix, {"a"})).euler_genus == 2
        and surface_stats(partial_dual(g_raw, {"a"})).euler_genus == 0
    )
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    documented = "a b a c b c" in text and "a b c a c b" in text
    _verdict(10, "three-loop rotation discrepancy checked and documented",
             r.ok and values_ok and documented)


@pytest.mark.slow
def test_sweep_is_globally_clean(sweep):
    for r in sweep.results:
        assert r.ok, f"{r.name}: {r.failures[:2]}"
