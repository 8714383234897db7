import pytest

from ribbongraph import surface_stats
from ribbongraph.topology import euler_genus
from ribbongraph.verify import (
    CALIBRATION_EXPECTED,
    calibration_graphs,
    check_suite,
    enumerate_raw,
    generate,
)


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
    from ribbongraph.verify import view_fields

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
    from ribbongraph.verify import biseparation_sequence_oracle

    cert_subsets = ({"a"}, {"b"})
    for sub in cert_subsets:
        for first in (0, 1):
            assert (
                biseparation_sequence_oracle(fixtures["T1"], sub, first=first)
                is not None
            )


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
    from ribbongraph.verify import canonical_form_by_all_starts

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
    import ribbongraph.verify as verify
    from ribbongraph import is_equivalent

    honest = verify.partial_dual_by_edges

    def swapping(g, edges):
        d = honest(g, edges)
        if g.n_edges < 2:
            return d
        a, b = g.edge_labels[:2]
        return d.relabeled({a: b, b: a})

    assert check_suite(corpus3, which=["dual-route-agreement"]).ok
    monkeypatch.setattr(verify, "partial_dual_by_edges", swapping)
    report = check_suite(corpus3, which=["dual-route-agreement"])
    assert not report.ok
    assert report.results[0].failures[0]["property"] == "construction agreement"
    graph = corpus3.by_edges(3)[-1]
    assert is_equivalent(swapping(graph, {"e1"}), honest(graph, {"e1"}))
