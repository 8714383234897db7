import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ribbongraph import (
    InvalidGraph,
    InvariantViolation,
    ParseError,
    RibbonGraph,
    is_equivalent,
    parse,
    partial_dual,
    serialize,
    single_vertex,
)
from ribbongraph.cli import main
from ribbongraph.io_text import (
    document_from_json,
    document_json,
    document_of,
    document_of_presentation,
    serialize_graph,
)
from ribbongraph.core import to_arrow_presentation
from ribbongraph.topology import euler_genus

C_TEXT = """ribbon v1
edge a +
edge b +
vertex u: a.1 b.1
vertex w: a.2 b.2
"""

D_TEXT = """ribbon v1
edge a +
edge b -
vertex u: a.1 b.1
vertex w: a.2 b.2
"""


def test_parse_two_cycle():
    doc = parse(C_TEXT)
    g = doc.graph()
    assert g.n_vertices == 2 and euler_genus(g) == 0


def test_whole_graph_writes_read_no_rotation_by_name(monkeypatch):
    # looking a rotation up by name scans the vertex names, so a per-vertex
    # lookup makes writing or rebuilding a graph quadratic in its vertices
    from ribbongraph.core import delete_edges, disjoint_union, induced_subgraph

    n = 40
    text = "ribbon v1\n" + "".join(f"edge e{i} {'+-'[i % 2]}\n" for i in range(n)) + "".join(
        f"vertex v{i}: e{i}.1 e{(i + 1) % n}.2\n" for i in range(n)
    )
    g = parse(text).graph()
    order = list(reversed(g.vertex_names))
    some = {f"e{i}" for i in range(0, n, 3)}

    def built():
        return (
            serialize_graph(g),
            g.reordered(order),
            disjoint_union(g, g),
            induced_subgraph(g, some),
            delete_edges(g, some),
            to_arrow_presentation(g),
        )

    want = built()
    assert parse(want[0]).graph() == g

    def refuse(self, name):
        raise AssertionError(f"rotation of {name!r} looked up by name")

    monkeypatch.setattr(RibbonGraph, "rotation", refuse)
    assert built() == want


def test_parse_comments_and_metadata():
    doc = parse("ribbon v1\n# a comment\nname demo\nnote first note\nedge a +\nvertex u: a.1 a.2\n")
    assert doc.name == "demo"
    assert doc.notes == ["first note"]
    assert doc.graph().n_edges == 1


def test_round_trip_bit_exact():
    doc = parse(C_TEXT)
    assert serialize(doc) == C_TEXT
    assert parse(serialize(doc)) == doc


def test_round_trip_empty_graph():
    text = "ribbon v1\nvertex v:\n"
    doc = parse(text)
    assert serialize(doc) == text
    assert doc.graph().n_vertices == 1


def test_arrow_format():
    doc = parse("arrows v1\ncycle: >e >e\n")
    assert euler_genus(doc.graph()) == 0
    doc = parse("arrows v1\ncycle: >e <e\n")
    assert euler_genus(doc.graph()) == 1


def test_arrow_format_round_trip(fixtures):
    for g in fixtures.values():
        doc = document_of_presentation(to_arrow_presentation(g))
        again = parse(serialize(doc))
        assert again == doc
        assert is_equivalent(again.graph(), g)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("ribbon v1\nedge a *\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="line 1"):
        parse("nonsense\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("ribbon v1\nedge a +\nvertex u a.1\n")


def test_semantic_errors_delegate_to_builder():
    with pytest.raises(InvalidGraph, match="missing end a.2"):
        parse("ribbon v1\nedge a +\nvertex u: a.1\n").graph()


def test_json_mirrors_text(fixtures):
    doc = document_of(fixtures["D"], name="crosscap-two-cycle")
    data = document_json(doc)
    assert document_from_json(data) == doc
    assert data["edges"][1] == {"label": "b", "sign": "-"}


def test_graph_serialization_round_trip(fixtures, corpus3):
    for g in list(fixtures.values()) + corpus3.graphs[:30]:
        assert parse(serialize_graph(g)).graph() == g


# -- CLI ----------------------------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    c = tmp_path / "c.txt"
    c.write_text(C_TEXT)
    d = tmp_path / "d.txt"
    d.write_text(D_TEXT)
    t1 = tmp_path / "t1.txt"
    t1.write_text("ribbon v1\nedge a +\nedge b +\nvertex v: a.1 b.1 a.2 b.2\n")
    return {"c": str(c), "d": str(d), "t1": str(t1)}


def test_cli_info(files, capsys):
    assert main(["info", files["d"]]) == 0
    out = capsys.readouterr().out
    assert "γ=1" in out and "non-orientable" in out and "RP^2" in out


def test_cli_info_json(files, capsys):
    assert main(["info", files["c"], "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "info"
    assert data["euler_genus"] == 0 and data["surface"] == "sphere"


def test_cli_spectrum_classes(files, capsys):
    assert main(["spectrum", files["t1"], "--classes", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["spectrum"]
    by = {tuple(r["subset"]): r.get("biseparation") for r in rows}
    assert by[("a",)] == "plane"
    assert by[()] == "other(2) (trivial)"


def test_cli_dual_partial(files, capsys, tmp_path):
    assert main(["dual", files["c"], "--edges", "a"]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out.txt"
    out.write_text(text)
    assert main(["info", str(out)]) == 0
    info = capsys.readouterr().out
    assert "γ=2" in info and "orientable" in info


def test_cli_dual_geometric(files, capsys):
    assert main(["dual", files["c"]]) == 0
    text = capsys.readouterr().out
    assert is_equivalent(parse(text).graph(), parse(C_TEXT).graph())


def test_cli_spectrum(files, capsys):
    assert main(["spectrum", files["t1"], "--genus", "0"]) == 0
    out = capsys.readouterr().out
    assert "{a}" in out and "{b}" in out and "∅" not in out


def test_cli_spectrum_json_rows(files, capsys):
    assert main(["spectrum", files["c"], "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["spectrum"]
    assert [(r["subset"], r["euler_genus"]) for r in rows] == [
        ([], 0),
        (["a"], 2),
        (["b"], 2),
        (["a", "b"], 0),
    ]


def test_cli_biseparations(files, capsys):
    assert main(["biseparations", files["t1"], "--class", "plane"]) == 0
    out = capsys.readouterr().out
    assert "{a}" in out and "{b}" in out


def test_cli_factor(files, capsys):
    assert main(["factor", files["t1"]]) == 0
    assert "1 prime factor" in capsys.readouterr().out


def test_cli_relate(files, capsys):
    assert main(["relate", files["t1"], files["c"]]) == 0
    out = capsys.readouterr().out
    assert "equivalent: no" in out
    assert "{a}" in out and "{b}" in out


def test_cli_canon_deterministic(files, capsys):
    assert main(["canon", files["c"]]) == 0
    first = capsys.readouterr().out
    assert main(["canon", files["c"]]) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_small(capsys):
    assert (
        main(
            [
                "verify",
                "--max-edges",
                "2",
                "--suite",
                "calibration,partial-dual-identities,genus-decomposition",
                "--stable",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[" not in out  # no timing fields under --stable


def test_cli_verify_json_deterministic(capsys):
    args = [
        "verify",
        "--max-edges",
        "2",
        "--suite",
        "calibration,low-genus-duals",
        "--stable",
        "--json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["ok"] is True


def test_cli_exit_codes(files, tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("ribbon v1\nedge a +\nvertex u: a.1\n")
    assert main(["info", str(bad)]) == 2
    assert main(["dual", files["c"], "--edges", "zz"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["verify", "--max-edges", "9"]) == 2
    assert main(["verify", "--max-edges", "1", "--suite", "no-such-check"]) == 2


# outputs of the two certificate-bearing commands recorded from the route that
# built every partial dual and every side subgraph; the boundary-count route
# must reproduce them byte for byte, component order included.  The `dual`
# outputs were recorded from the traced arrow route (now the oracle
# `verify.partial_dual_by_arrows`): vertex names, rotations and signs.  The
# `factor` and plain `biseparations` outputs were recorded from the named
# factor sets and the union-find over vertex names (now the oracle
# `verify.incidence_tree_by_union_find`).
FIXTURE_OUTPUTS = Path(__file__).resolve().parent / "data" / "fixture_cli_outputs.json"


def test_cli_certificate_outputs_unchanged(fixtures, tmp_path, capsys):
    recorded = json.loads(FIXTURE_OUTPUTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(fixtures)
    for name, g in fixtures.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_graph(g))
        for command, want in recorded[name].items():
            argv = command.split()
            assert main(argv[:1] + [str(path)] + argv[1:]) == 0
            assert capsys.readouterr().out == want, (name, command)


# `relate` of each fixture against its partial dual on its first edge label,
# recorded while certificates were still decided by a union-find over vertex
# names and the move search read named summand sets.
RELATE_OUTPUTS = Path(__file__).resolve().parent / "data" / "fixture_relate_outputs.json"


def test_cli_relate_outputs_unchanged(fixtures, tmp_path, capsys):
    recorded = json.loads(RELATE_OUTPUTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(fixtures)
    for name, g in fixtures.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_graph(g))
        assert main(["dual", str(path), "--edges", g.edge_labels[0]]) == 0
        dual_path = tmp_path / f"{name}.dual.txt"
        dual_path.write_text(capsys.readouterr().out)
        for command, want in recorded[name].items():
            assert main(["relate", str(path), str(dual_path)] + command.split()[1:]) == 0
            assert capsys.readouterr().out == want, (name, command)


def test_cli_relate_equivalent_json_matches_text(tmp_path, capsys):
    path = tmp_path / "nested.txt"
    path.write_text(serialize_graph(single_vertex("a a b b")))
    assert main(["relate", str(path), str(path)]) == 0
    text = capsys.readouterr().out
    assert "already equivalent (empty move sequence)" in text
    assert main(["relate", str(path), str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    code = single_vertex("a a b b").canonical_code()
    assert data["equivalent"] is True
    assert data["moves"] == {"steps": [], "codes": [code]}


def test_cli_invariant_violation_exits_1(files, monkeypatch, capsys):
    import ribbongraph.duality

    with monkeypatch.context() as m:
        # a built dual without vertices breaks "a vertex without subset
        # edges survives as a vertex of the dual"
        m.setattr(ribbongraph.duality, "RibbonGraph",
                  lambda *args, **kwargs: RibbonGraph({}, {}))
        with pytest.raises(InvariantViolation):
            partial_dual(parse(C_TEXT).graph(), set())
        assert main(["dual", files["c"], "--edges", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: partial dual has 0 vertices")


def test_cli_invariant_violation_survives_optimize(files):
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import ribbongraph.duality as duality\n"
        "from ribbongraph import RibbonGraph\n"
        "from ribbongraph.cli import main\n"
        "duality.RibbonGraph = lambda *args, **kwargs: RibbonGraph({}, {})\n"
        f"sys.exit(main(['dual', {files['c']!r}, '--edges', '']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: partial dual has 0 vertices")
    assert "Traceback" not in done.stderr


def test_cli_sweeps_refuse_large_graphs(tmp_path, capsys):
    # the 21-edge cycle of test_spectrum_bound: 2^21 subsets for either command
    import time

    n = 21
    text = "ribbon v1\n" + "".join(f"edge e{i} +\n" for i in range(n)) + "".join(
        f"vertex v{i}: e{i}.1 e{(i + 1) % n}.2\n" for i in range(n)
    )
    path = tmp_path / "cycle21.txt"
    path.write_text(text)
    for argv in (["relate", str(path), str(path)], ["biseparations", str(path)]):
        t0 = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - t0 < 1.0, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^21 subsets" in err, err


def test_cli_verify_refuses_large_graphs(capsys):
    # one random 24-edge graph: 2^24 subsets per graph for the per-graph checks
    import time

    t0 = time.perf_counter()
    assert main(["verify", "--mode", "random", "--max-edges", "24", "--count", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: verify over 24 edges means 2^24 subsets"), err


def test_cli_verify_refuses_negative_sizes(capsys):
    # a negative size is an input error, not an empty corpus that passes
    # or a corpus-counts failure
    from ribbongraph.verify import generate

    for mode, size in (("exhaustive", ["--max-edges", "-1"]),
                       ("random", ["--max-edges", "-1"]),
                       ("random", ["--max-edges", "3", "--count", "-3"])):
        for extra in ([], ["--json"]):
            argv = ["verify", "--mode", mode, *size, *extra]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and "at least 0" in captured.err, argv
    with pytest.raises(ValueError):
        generate(-1)
    with pytest.raises(ValueError):
        generate(3, mode="random", count=-3)


def test_cli_relate_refuses_negative_depth(files, capsys):
    assert main(["relate", files["c"], files["c"], "--max-depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: move search depth bound"), captured.err


def test_cli_biseparations_certifies_each_subset_once(fixtures, tmp_path, monkeypatch, capsys):
    import ribbongraph.decomposition as decomposition

    calls = []
    original = decomposition.biseparation_data

    def counting(g, edges):
        calls.append(frozenset(edges))
        return original(g, edges)

    monkeypatch.setattr(decomposition, "biseparation_data", counting)
    g = fixtures["G2"]
    path = tmp_path / "g2.txt"
    path.write_text(serialize_graph(g))
    for extra in ([], ["--json"]):
        calls.clear()
        assert main(["biseparations", str(path)] + extra) == 0
        assert len(calls) == 2 ** g.n_edges == len(set(calls)), extra
    capsys.readouterr()


def _path_graph(n):
    """The path with ``n`` edges ``e0 .. e{n-1}``."""
    from ribbongraph import build_graph

    return build_graph(
        [("v0", ["e0.1"])]
        + [(f"v{i}", [f"e{i - 1}.2", f"e{i}.1"]) for i in range(1, n)]
        + [(f"v{n}", [f"e{n - 1}.2"])],
        {f"e{i}": "+" for i in range(n)},
    )


def test_cli_parser_is_built_once_and_keeps_no_arguments(files, tmp_path, capsys):
    from ribbongraph import cli

    cli.make_parser.cache_clear()
    # a narrower call first, then the default: every row comes back
    assert main(["spectrum", files["t1"], "--genus", "2"]) == 0
    assert capsys.readouterr().out == "∅ γ=2 orientable\n{a,b} γ=2 orientable\n"
    assert main(["spectrum", files["t1"]]) == 0
    assert capsys.readouterr().out.count("\n") == 4
    # the move search from the path P4 to its partial dual on {e0,e2}
    # needs two moves: a depth bound of 1 must not stick
    g = _path_graph(4)
    f, h = tmp_path / "p4.txt", tmp_path / "p4_dual.txt"
    f.write_text(serialize_graph(g))
    h.write_text(serialize_graph(partial_dual(g, {"e0", "e2"})))
    assert main(["relate", str(f), str(h), "--max-depth", "1"]) == 0
    assert "move sequence: none (depth bound hit)" in capsys.readouterr().out
    assert main(["relate", str(f), str(h)]) == 0
    out = capsys.readouterr().out
    assert "step 2: dual-join-summand on {e2}" in out
    # a usage error leaves nothing behind for the next call
    assert main(["spectrum", files["t1"], "--genus", "two"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["info", files["c"]]) == 0
    assert capsys.readouterr().out.startswith("vertices=2 edges=2 boundary=2")
    assert cli.make_parser.cache_info().misses == 1


def test_cli_spectrum_polynomial(files, capsys):
    assert main(["spectrum", files["t1"], "--polynomial"]) == 0
    assert capsys.readouterr().out == "γ=0: 2\nγ=2: 2\n"
    assert main(["spectrum", files["t1"], "--polynomial", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"command": "spectrum", "polynomial": {"0": 2, "2": 2}}
    for extra in (["--genus", "0"], ["--classes"]):
        assert main(["spectrum", files["t1"], "--polynomial"] + extra) == 2
        assert capsys.readouterr().err.startswith("error: --polynomial takes neither")


def test_cli_spectrum_polynomial_of_a_large_join(tmp_path, capsys):
    # eight genus-2 triple bouquets joined at one vertex: 24 edges, so the
    # rows are refused, but every prime factor has 3 edges
    from ribbongraph.decomposition import join

    g = single_vertex("a0 b0 c0 a0 b0 c0")
    for i in range(1, 8):
        q = single_vertex(f"a{i} b{i} c{i} a{i} b{i} c{i}")
        g = join(g, g.vertex_names[0], q, q.vertex_names[0])
    path = tmp_path / "join24.txt"
    path.write_text(serialize_graph(g))
    assert main(["spectrum", str(path)]) == 2
    assert "2^24 subsets" in capsys.readouterr().err
    assert main(["spectrum", str(path), "--polynomial"]) == 0
    assert capsys.readouterr().out == f"γ=16: {2**24}\n"
    assert main(["spectrum", str(path), "--polynomial", "--json"]) == 0
    poly = json.loads(capsys.readouterr().out)["polynomial"]
    assert poly == {"16": 2**24} and sum(poly.values()) == 2**24


def test_cli_spectrum_polynomial_refuses_a_large_prime_factor(tmp_path, capsys):
    n = 17
    text = "ribbon v1\n" + "".join(f"edge e{i} +\n" for i in range(n)) + "".join(
        f"vertex v{i}: e{i}.1 e{(i + 1) % n}.2\n" for i in range(n)
    )
    path = tmp_path / "cycle17.txt"
    path.write_text(text)
    assert main(["spectrum", str(path), "--polynomial"]) == 2
    assert capsys.readouterr().err.startswith("error: genus polynomial over a prime factor of 17")


# join-heavy graphs (a triangle chain, a path, loop bouquets, a cycle with a
# torus joined on), recorded by `tests/data/record_join_outputs.py` while
# the prime factors and join splits still came from an arc-by-arc search and
# `spectrum --json` went through `emit`.
JOIN_OUTPUTS = Path(__file__).resolve().parent / "data" / "join_cli_outputs.json"


def test_cli_join_outputs_unchanged(tmp_path, capsys):
    recorded = json.loads(JOIN_OUTPUTS.read_text(encoding="utf-8"))
    assert len(recorded) == 5
    for name, entry in recorded.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(entry["graph"], encoding="utf-8")
        dual_path = tmp_path / f"{name}.dual.txt"
        dual_path.write_text(entry["outputs"][f"dual --edges {entry['factor_edges']}"])
        for command, want in entry["outputs"].items():
            argv = command.split()
            files = [str(path), str(dual_path)] if argv[0] == "relate" else [str(path)]
            assert main(argv[:1] + files + argv[1:]) == 0
            assert capsys.readouterr().out == want, (name, command)
