import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ribbongraph import surface_stats
from ribbongraph.oracles import CALIBRATION_EXPECTED, calibration_graphs, enumerate_raw
from ribbongraph.topology import euler_genus
from ribbongraph.verify import check_suite, generate


def test_calibration_fixture_values():
    graphs = calibration_graphs()
    for name, (gamma, ori) in CALIBRATION_EXPECTED.items():
        st = surface_stats(graphs[name])
        assert (st.euler_genus, st.orientable) == (gamma, ori), name


def test_generate_counts_small():
    corpus = generate(2)
    assert len(corpus.by_edges(0)) == 1
    assert len(corpus.by_edges(1)) == 3
    one_vertex = [g for g in corpus.by_edges(2) if g.n_vertices == 1]
    assert sorted(euler_genus(g) for g in one_vertex) == [0, 1, 1, 2, 2, 2]


def test_generate_one_edge_classes():
    graphs = generate(1).by_edges(1)
    gammas = sorted((euler_genus(g), g.n_vertices) for g in graphs)
    assert gammas == [(0, 1), (0, 2), (1, 1)]


def test_generate_corpora_unchanged(corpus5):
    # the representatives, their names and their order, as recorded by
    # tests/data/record_generate_hashes.py
    import hashlib
    import json
    from pathlib import Path

    from ribbongraph.io_text import serialize_graph

    recorded = json.loads(
        (Path(__file__).resolve().parent / "data" / "generate_hashes.json").read_text()
    )
    assert sorted(recorded) == [str(n) for n in range(6)]
    for n, want in recorded.items():
        graphs = corpus5.graphs if n == "5" else generate(int(n)).graphs
        h = hashlib.sha256()
        for g in graphs:
            h.update(serialize_graph(g).encode("utf-8") + b"\n")
        assert {"graphs": len(graphs), "sha256": h.hexdigest()} == want, n


def test_generated_views_match_their_names(corpus4):
    # each representative keeps the view it was grown as; it must be the
    # view of its names, and its kept code that view's code
    from ribbongraph.core import _Indexed, canonical_form
    from ribbongraph.oracles import view_fields

    for g in corpus4.graphs:
        rebuilt = _Indexed.of(g)
        assert view_fields(g._indexed()) == view_fields(rebuilt), g
        assert g.canonical_code() == canonical_form(rebuilt), g


def test_exhaustive_matches_raw_enumeration():
    corpus = generate(3)
    raw = enumerate_raw(3)
    assert {g.canonical_code() for g in corpus.graphs} == {
        g.canonical_code() for g in raw
    }


def test_exhaustive_graphs_connected_and_distinct(corpus3):
    from ribbongraph import is_connected

    codes = set()
    for g in corpus3.graphs:
        assert is_connected(g)
        code = g.canonical_code()
        assert code not in codes
        codes.add(code)


def test_exhaustive_keeps_the_all_children_representatives():
    # skipping the children a parent automorphism maps onto earlier ones
    # keeps every representative, its names and its place
    from ribbongraph.io_text import serialize_graph
    from ribbongraph.oracles import exhaustive_by_all_children

    for n in range(5):
        assert [serialize_graph(g) for g in generate(n).graphs] == [
            serialize_graph(g) for g in exhaustive_by_all_children(n)
        ], n


def test_exhaustive_codes_one_child_per_orbit(coded):
    # coding every child of generate(4) takes 3,745 codes and the orbit
    # representatives 1,696; a lost pruning would keep every output
    assert len(generate(4).graphs) == 592
    assert len(coded) <= 1700


def test_automorphisms_of_small_graphs(fixtures):
    from ribbongraph import build_graph, single_vertex
    from ribbongraph.core import _automorphisms
    from ribbongraph.oracles import automorphisms_by_all_starts

    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["a.2", "c.2", "b.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    # group orders, the identity counted: every start of the loop, the
    # 2-cycles and the plane theta gives the same trace, and a vertex of
    # degree 2 reads the same both ways round, so its flip alone is one
    orders = {"loop": 4, "moebius": 4, "C": 8, "D": 8, "T1": 8, "G2": 4}
    graphs = {name: fixtures[name] for name in orders}
    graphs["theta"] = theta
    orders["theta"] = 12
    for name, g in graphs.items():
        idx = g._indexed()
        found = _automorphisms(idx)
        assert len(found) + 1 == orders[name], name
        assert sorted(found) == sorted(automorphisms_by_all_starts(idx)), name
        for image, rho in found:
            for e in range(idx.ne):
                u, w = idx.dart_vertex[2 * e], idx.dart_vertex[2 * e + 1]
                assert idx.sign[e] * rho[u] * rho[w] == idx.sign[image[2 * e] >> 1]
    assert _automorphisms(single_vertex("a a b c b c", "++-")._indexed()) == []


def test_automorphism_agreement_has_teeth(corpus3, monkeypatch):
    import ribbongraph.oracles as oracles
    from ribbongraph import InvariantViolation, single_vertex

    report = check_suite(corpus3, which=["automorphism-agreement"])
    assert report.ok and report.results[0].checked == len(corpus3) - 1
    # a library that finds no automorphism is caught
    monkeypatch.setattr(oracles, "_automorphisms", lambda idx: [])
    assert not check_suite(corpus3, which=["automorphism-agreement"]).ok
    monkeypatch.undo()
    # ties that are not automorphisms are caught by the oracle's own check
    monkeypatch.setattr(oracles, "_all_starts_trace", lambda idx, d, flip, best: ())
    asymmetric = single_vertex("a a b c b c", "++-")
    with pytest.raises(InvariantViolation, match="not an automorphism"):
        oracles.automorphisms_by_all_starts(asymmetric._indexed())
    assert not check_suite(corpus3, which=["automorphism-agreement"]).ok


def test_generate_random_deterministic():
    a = generate(4, mode="random", seed=7, count=25)
    b = generate(4, mode="random", seed=7, count=25)
    assert [g.canonical_code() for g in a.graphs] == [
        g.canonical_code() for g in b.graphs
    ]
    c = generate(4, mode="random", seed=8, count=25)
    assert [g.canonical_code() for g in a.graphs] != [
        g.canonical_code() for g in c.graphs
    ]


def test_generate_random_connected():
    from ribbongraph import is_connected

    corpus = generate(5, mode="random", seed=3, count=30)
    assert all(is_connected(g) for g in corpus.graphs)
    assert all(g.n_edges == 5 for g in corpus.graphs)


def test_generate_bounds():
    with pytest.raises(ValueError, match="desk scale"):
        generate(9)
    with pytest.raises(ValueError, match="mode"):
        generate(3, mode="typical")


def test_check_suite_names():
    with pytest.raises(ValueError, match="unknown check"):
        check_suite(generate(1), which=["nonsense"])


def test_check_suite_runs_clean(corpus3):
    report = check_suite(
        corpus3,
        which=[
            "calibration",
            "partial-dual-identities",
            "count-route-agreement",
            "genus-decomposition",
            "low-genus-duals",
            "toggle-orbit",
            "same-genus-characterization",
        ],
    )
    assert report.ok
    assert all(r.checked > 0 for r in report.results)


def test_check_suite_report_serializes(corpus3):
    report = check_suite(corpus3, which=["calibration", "orientability-cross-check"])
    text = report.to_text(stable=True)
    assert "calibration" in text and "all checks passed" in text
    data = report.to_json(stable=True)
    assert data["ok"] is True
    assert all("seconds" not in c for c in data["checks"])


def test_check_suite_determinism(corpus3):
    kw = dict(which=["dual-composition", "calibration"], seed=11)
    a = check_suite(corpus3, **kw).to_json(stable=True)
    b = check_suite(corpus3, **kw).to_json(stable=True)
    assert a == b


def test_sampled_six_edge_graphs_hold_up():
    # beyond the exhaustive range the harness samples: spot-run the core
    # subset sweeps on a few random six-edge graphs
    corpus = generate(6, mode="random", seed=17, count=6)
    report = check_suite(
        corpus,
        which=["genus-decomposition", "low-genus-duals", "complement-symmetry",
               "count-route-agreement"],
    )
    assert report.ok
    assert all(r.checked >= 6 * 64 for r in report.results)


def test_sequence_oracle_forced_root(fixtures):
    from ribbongraph.oracles import biseparation_sequence_oracle

    cert_subsets = ({"a"}, {"b"})
    for sub in cert_subsets:
        for first in (0, 1):
            assert (
                biseparation_sequence_oracle(fixtures["T1"], sub, first=first)
                is not None
            )


def test_sequence_oracle_refuses_a_disconnected_graph(fixtures):
    from ribbongraph import disjoint_union
    from ribbongraph.oracles import biseparation_sequence_oracle

    two = disjoint_union(fixtures["T1"], fixtures["loop"])
    with pytest.raises(ValueError, match="connected"):
        biseparation_sequence_oracle(two, set())


def test_failure_reporting_round_trip():
    from ribbongraph.verify import CheckResult, VerificationReport

    res = CheckResult(name="demo")
    res.checked = 3
    res.fail(graph="ribbon v1\nvertex v:\n", subset=frozenset({"a"}), property="x")
    report = VerificationReport(params={}, results=[res])
    assert not report.ok
    text = report.to_text(stable=True)
    assert "FAIL" in text and "FAILURES FOUND" in text
    data = report.to_json(stable=True)
    assert data["ok"] is False
    assert data["checks"][0]["failures"][0]["subset"] == ["a"]


def test_failure_cap():
    from ribbongraph.verify import CheckResult

    res = CheckResult(name="demo")
    for i in range(40):
        res.fail(index=i)
    assert len(res.failures) == 25
    assert res.notes["more_failures"] == 15


def test_corpus_counts_of_a_random_sample():
    # a random corpus is a sample of the classes, so it passes with classes
    # missing; an exhaustive corpus with a class missing still fails
    from ribbongraph.verify import Corpus

    for e in (0, 2, 3):
        sample = generate(e, mode="random", seed=1, count=3)
        assert check_suite(sample, which=["corpus-counts"]).ok
    full = generate(3)
    short = Corpus(params=full.params, graphs=full.graphs[:-1])
    assert check_suite(full, which=["corpus-counts"]).ok
    assert not check_suite(short, which=["corpus-counts"]).ok


def test_canonical_form_matches_the_all_starts_oracle(corpus4):
    from ribbongraph import canonical_form, partial_dual
    from ribbongraph.duality import subsets_sorted
    from ribbongraph.oracles import canonical_form_by_all_starts

    graphs = [
        partial_dual(g, sub) for g in corpus4.graphs for sub in subsets_sorted(g.edge_labels)
    ]
    for e in range(1, 15):
        graphs += generate(e, mode="random", seed=11, count=150, connected=False).graphs
    assert any(len(g._indexed().components) > 1 for g in graphs)
    for g in graphs:
        assert canonical_form(g) == canonical_form_by_all_starts(g), g


def test_dual_route_agreement_sees_a_label_swap(corpus3, monkeypatch):
    # a construction that permutes labels still gives an equivalent graph,
    # so only the labelled comparison catches it
    import ribbongraph.oracles as oracles
    from ribbongraph import is_equivalent

    # the check reads the one-edge route from the per-subset fold
    honest = oracles.partial_duals_by_edges

    def swapping(g, subsets):
        for sub, d in honest(g, subsets):
            if g.n_edges >= 2:
                a, b = g.edge_labels[:2]
                d = d.relabeled({a: b, b: a})
            yield sub, d

    assert check_suite(corpus3, which=["dual-route-agreement"]).ok
    monkeypatch.setattr(oracles, "partial_duals_by_edges", swapping)
    report = check_suite(corpus3, which=["dual-route-agreement"])
    assert not report.ok
    assert report.results[0].failures[0]["property"] == "construction agreement"
    graph = corpus3.by_edges(3)[-1]
    subsets = [frozenset(), frozenset({"e1"})]
    assert is_equivalent(list(swapping(graph, subsets))[1][1], list(honest(graph, subsets))[1][1])


def test_search_route_agreement_runs_over_the_corpus_only(corpus3, monkeypatch):
    # a corpus check, so the per-graph battery does not pay for it, and it
    # sees a search that reports one class too few
    import ribbongraph.oracles as oracles
    import ribbongraph.verify as verify

    assert "search-route-agreement" in oracles.CORPUS_CHECKS
    assert "search-route-agreement" in verify.ALL_CHECKS
    assert "search-route-agreement" not in verify.PER_GRAPH_CHECKS
    report = check_suite(corpus3, which=["search-route-agreement"])
    assert report.ok and report.results[0].checked > 300
    assert report.results[0].notes["summand_steps"] > 50
    original = oracles.move_related

    def short(g, h, **kw):
        res = original(g, h, **kw)
        return res if res.found else dataclasses.replace(res, reached=res.reached - 1)

    monkeypatch.setattr(oracles, "move_related", short)
    assert not check_suite(corpus3, which=["search-route-agreement"]).ok


ROOT = Path(__file__).resolve().parents[1]


def _fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_commands_that_check_nothing_leave_the_oracles_unloaded(fixtures, tmp_path):
    # only check_suite loads the oracles; the benchmark's tracer must still
    # find what it wraps without them
    from ribbongraph import serialize_graph

    files = {}
    for name in ("C", "nested", "G2"):
        files[name] = str(tmp_path / f"{name}.rg")
        Path(files[name]).write_text(serialize_graph(fixtures[name]), encoding="utf-8")
    runs = [["spectrum", files["G2"], "--classes", "--json"],
            ["relate", files["C"], files["nested"], "--json"],
            ["info", files["G2"]], ["factor", files["G2"]]]
    _fresh(f"""
import contextlib, importlib.util, io, sys
from ribbongraph import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert [cli.main(argv) for argv in {runs!r}] == [0, 0, 0, 0]
spec = importlib.util.spec_from_file_location("tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Recorder().install()
assert "ribbongraph.oracles" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--max-edges", "2"]) == 0
assert "ribbongraph.oracles" in sys.modules
""")


def test_oracle_exports_resolve_lazily():
    _fresh("""
import sys
import ribbongraph
for name in ("no_such_name", "__wrapped__"):
    try:
        getattr(ribbongraph, name)
    except AttributeError:
        continue
    raise AssertionError(name)
assert "ribbongraph.oracles" not in sys.modules
from ribbongraph import oracles
assert ribbongraph.MarkedRibbonGraph is oracles.MarkedRibbonGraph
assert ribbongraph.biseparation_sequence_oracle is oracles.biseparation_sequence_oracle
assert ribbongraph.calibration_graphs is oracles.calibration_graphs
""")
    import ribbongraph.oracles as oracles
    import ribbongraph.verify as verify

    # the benchmark reads the per-graph check names from verify
    assert verify.PER_GRAPH_CHECKS is oracles.PER_GRAPH_CHECKS
    assert len(verify.PER_GRAPH_CHECKS) == 17
    with pytest.raises(AttributeError):
        verify.CORPUS_CHECKS
