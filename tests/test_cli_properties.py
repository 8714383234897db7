"""Property tests of the command-line contract on random small graphs.

Every command exits 0 or 2 and never raises, ``--json`` output parses, two
runs print the same bytes, and ``info --json`` agrees with the traced
surface statistics.  Inputs are random graphs of up to six edges, often
disconnected and with edgeless vertices, so that the multi-component paths
run too; pairs of them for ``relate``, edge counts often different; files
made malformed by mutating the bytes of a valid one; and for ``verify
--stable``, small random corpora.  ``io_text.emit`` is checked to be
``json.dumps`` on random JSON-like values.  The streamed ``spectrum`` and
``biseparations`` writers fill fixed templates; they are checked against
``json.dumps`` of the whole document on graphs of up to eight edges, and
the certificate template against :func:`certificate_json`, the
certificate's dict, on ``generate(4)`` and on random connected graphs of
up to nine edges, for every ``--class``.  ``biseparations`` lists its
subsets off the factor tables and builds whole-graph certificates for
``--json``; its text, its ``--json`` and ``spectrum --classes`` are
checked to agree on the same graphs.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ribbongraph import (
    End,
    RibbonGraphError,
    build_graph,
    disjoint_union,
    parse,
    serialize_graph,
)
from ribbongraph.cli import main
from ribbongraph.io_text import emit, stats_json, subset_text
from ribbongraph.oracles import surface_stats_by_walks
from ribbongraph.verify import _random_graph

MAX_EDGES = 6


def _plain_names(g):
    """The same graph with the dots of ``disjoint_union`` names replaced, so
    that every name is a label of the text format."""
    fix = lambda s: s.replace(".", "_")
    rows = [(fix(n), [End(fix(e.label), e.slot) for e in g.rotation(n)]) for n in g.vertex_names]
    return build_graph(rows, {fix(k): s for k, s in g.signs.items()})


@st.composite
def cases(draw):
    """A graph and an edge subset of it for ``dual --edges``."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    left = MAX_EDGES
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, left))
        left -= n
        parts.append(_random_graph(rng, n) if n else build_graph({"v": []}, {}))
    g = _plain_names(parts[0] if len(parts) == 1 else disjoint_union(*parts))
    return g, draw(st.sets(st.sampled_from(g.edge_labels))) if g.n_edges else set()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(commands):
    """Run every command plain and with ``--json`` (``canon`` has no JSON
    form): exit 0 or 2, no traceback, ``error: `` on exit 2, JSON that
    parses, and the same bytes from a second run."""
    for argv in commands:
        runs = [argv] if argv[0] == "canon" else [argv, argv + ["--json"]]
        for cmd in runs:
            first = _run(cmd)
            code, out, err = first
            assert code in (0, 2), (cmd, err)
            assert "Traceback" not in err
            assert _run(cmd) == first, cmd
            if code == 0 and "--json" in cmd:
                json.loads(out)
            if code == 2:
                assert err.startswith("error: "), (cmd, err)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
@example(case=(build_graph({}, {}), set()))
def test_cli_contract(tmp_path, case):
    g, chosen = case
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    f = str(path)
    commands = [
        ["info", f], ["canon", f], ["dual", f, "--edges", ",".join(sorted(chosen))],
        ["spectrum", f], ["spectrum", f, "--classes"], ["biseparations", f], ["factor", f],
    ]
    _check_contract(commands)
    code, out, _ = _run(["info", f, "--json"])
    graph = parse(path.read_text()).graph()
    want = _dumps({"command": "info", **stats_json(surface_stats_by_walks(graph))})
    assert code == 0 and out == want


def _dumps(data):
    """What ``--json`` prints, from ``json`` itself: the oracle of ``emit``
    and of the streamed writers."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def certificate_json(cert):
    """A :class:`decomposition.BiseparationCertificate` as the dict that
    ``biseparations --json`` lists: the oracle of its template."""
    return {
        "subset": sorted(cert.subset),
        "trivial": cert.trivial,
        "class": cert.label,
        "genus_sum": cert.genus_sum,
        "components": [
            {
                "side": c.side,
                "vertices": sorted(c.vertices),
                "edges": sorted(c.edges),
                "euler_genus": c.euler_genus,
                "orientable": c.orientable,
            }
            for c in cert.components
        ],
        "tree": [
            {"components": [i, j], "vertex": v} for i, j, v in cert.tree_edges
        ],
    }


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1e300, 5e-324, 1e16, 0.1])
_INTS = st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from([2**63, -(2**64)])
_TEXT = st.text() | st.text(st.sampled_from("aé\x00\x1f\x7f\"\\\n\t\u2028😀γ∅"))


def _json_values(children):
    # keys of one kind per dict, so that json can sort them; bool keys sort
    # among int and float ones, as json sorts them
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.dictionaries(_INTS | st.booleans() | _FLOATS, children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.recursive(st.none() | st.booleans() | _INTS | _FLOATS | _TEXT, _json_values,
                         max_leaves=20))
@example(data={10: "a", 2: "b", True: [], False: {}})
@example(data={"γ": ("∅", -0.0, float("nan"), float("-inf")), "": [[[]]]})
def test_emit_is_json_dumps(data):
    assert emit(data) == _dumps(data)


@pytest.mark.parametrize("data", [
    object(), {1, 2}, b"ab", 1j, [1, {"a": range(2)}],
    {(1, 2): 0}, {"a": {frozenset(): 1}},
    {1: 0, "a": 0}, {None: 0, 0: 1},
])
def test_emit_rejects_what_json_rejects(data):
    with pytest.raises(TypeError):
        _dumps(data)
    with pytest.raises(TypeError):
        emit(data)


@st.composite
def spectrum_cases(draw):
    """A graph of up to eight edges, of several parts only without
    ``--classes``, with a ``--genus`` filter that may match no row.  A
    random part may itself be disconnected."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    classes = draw(st.booleans())
    left = 8
    parts = []
    for _ in range(1 if classes else draw(st.integers(1, 3))):
        n = draw(st.integers(0, left))
        left -= n
        parts.append(_random_graph(rng, n) if n else build_graph({"v": []}, {}))
    g = _plain_names(parts[0] if len(parts) == 1 else disjoint_union(*parts))
    return g, classes, draw(st.none() | st.integers(-1, 9))


def spectrum_json(rows):
    """The ``spectrum`` list of ``spectrum --json`` for the rows, as one
    value for ``emit``."""
    return [
        {
            "subset": sorted(r.subset),
            "euler_genus": r.euler_genus,
            "orientable": r.orientable,
            **({"biseparation": r.biseparation} if r.biseparation else {}),
        }
        for r in rows
    ]


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=spectrum_cases())
@example(case=(build_graph({}, {}), False, None))
@example(case=(build_graph({}, {}), True, None))
@example(case=(build_graph({"v": ["a.1", "a.2"]}, {"a": "-"}), True, 0))
def test_spectrum_json_rows_match_emit(tmp_path, case):
    # the row writers stream what emit writes for the whole document
    from ribbongraph.decomposition import is_biseparation
    from ribbongraph.duality import spectrum, subsets_sorted

    g, classes, genus = case
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g))
    argv = ["spectrum", str(path), "--json"] + ["--classes"] * classes
    argv += [] if genus is None else ["--genus", str(genus)]
    code, out, err = _run(argv)
    try:
        rows = spectrum(g, genus=genus, classes=classes)
    except RibbonGraphError:
        # classes of a disconnected graph: refused before any row
        assert (code, out) == (2, "") and err.startswith("error: ")
        return
    assert (code, out, err) == (
        0, emit({"command": "spectrum", "spectrum": spectrum_json(rows)}), ""
    )
    if classes:
        # the certificates stream the same way, one for each certified subset
        certs = [
            certificate_json(c)
            for c in (is_biseparation(g, sub) for sub in subsets_sorted(g.edge_labels))
            if c is not None
        ]
        want = emit({"command": "biseparations", "biseparations": certs})
        assert _run(["biseparations", str(path), "--json"]) == (0, want, "")


def test_certificate_template_matches_dict(tmp_path, cross_route_graphs):
    # every certificate written from the template is the certificate's
    # dict through json.dumps, for each class filter
    from ribbongraph.decomposition import is_biseparation
    from ribbongraph.duality import subsets_sorted

    path = tmp_path / "g.txt"
    for g in [*cross_route_graphs, build_graph({}, {})]:
        path.write_text(serialize_graph(g))
        certs = [
            c for c in (is_biseparation(g, sub) for sub in subsets_sorted(g.edge_labels))
            if c is not None
        ]
        for klass in ("all", "plane", "rp2"):
            want = _dumps({"command": "biseparations", "biseparations": [
                certificate_json(c) for c in certs if klass in ("all", c.label)
            ]})
            got = _run(["biseparations", str(path), "--class", klass, "--json"])
            assert got == (0, want, ""), (serialize_graph(g), klass)


def _class_text(cert):
    """The class of a ``biseparations --json`` certificate, as the text
    form prints it."""
    label = cert["class"] if cert["class"] != "other" else f"other({cert['genus_sum']})"
    return f"{label} (trivial)" if cert["trivial"] else label


def test_biseparations_text_json_and_spectrum_agree(tmp_path, cross_route_graphs):
    # the text lists the subsets off the factor tables, --json builds their
    # whole-graph certificates, and spectrum --classes reads the same tables
    path = tmp_path / "g.txt"
    for g in cross_route_graphs:
        path.write_text(serialize_graph(g))
        code, out, _ = _run(["spectrum", str(path), "--classes", "--json"])
        assert code == 0
        rows = json.loads(out)["spectrum"]
        for klass in ("all", "plane", "rp2"):
            argv = ["biseparations", str(path), "--class", klass]
            code, text, _ = _run(argv)
            assert code == 0
            code, out, _ = _run(argv + ["--json"])
            assert code == 0
            lines = [
                f"{subset_text(c['subset'])}: {_class_text(c)}"
                for c in json.loads(out)["biseparations"]
            ]
            assert text == "\n".join(lines or ["none"]) + "\n", (serialize_graph(g), klass)
            assert lines == [
                f"{subset_text(r['subset'])}: {r['biseparation']}"
                for r in rows
                if r["biseparation"] != "none"
                and klass in ("all", r["biseparation"].split(" ")[0])
            ], (serialize_graph(g), klass)


def test_refused_spectrum_writes_nothing(tmp_path):
    two = disjoint_union(_path(1), _path(1))
    big = _path(17)
    for g, extra in ((_plain_names(two), ["--classes"]), (big, [])):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        for form in ([], ["--json"]):
            code, out, err = _run(["spectrum", str(path)] + form + extra)
            assert (code, out) == (2, "") and err.startswith("error: "), form + extra
            code, out, _ = _run(["biseparations", str(path)] + form)
            assert (code, out) == (2, ""), form


def _path(n):
    """The path with ``n`` edges ``e0 .. e{n-1}``."""
    return build_graph(
        [("v0", ["e0.1"])]
        + [(f"v{i}", [f"e{i - 1}.2", f"e{i}.1"]) for i in range(1, n)]
        + [(f"v{n}", [f"e{n - 1}.2"])],
        {f"e{i}": "+" for i in range(n)},
    )


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=cases(), second=cases())
@example(first=(_path(6), set()), second=(_path(5), set()))
@example(first=(_path(4), set()), second=(_path(4).relabeled({"e0": "x"}), set()))
def test_cli_relate_contract(tmp_path, first, second):
    paths = []
    for name, (g, _) in (("g.txt", first), ("h.txt", second)):
        path = tmp_path / name
        path.write_text(serialize_graph(g))
        paths.append(str(path))
    f, h = paths
    _check_contract([["relate", f, h], ["relate", h, f], ["relate", f, f]])


def test_cli_relate_different_edge_counts_needs_no_search(tmp_path):
    # both paths are plane, but partial duals keep the edge count, so the
    # ten-edge path reaches the nine-edge one by no move; the search used to
    # explore the whole move closure of the first graph (about a minute)
    import time

    long, short = tmp_path / "path10.txt", tmp_path / "path9.txt"
    long.write_text(serialize_graph(_path(10)))
    short.write_text(serialize_graph(_path(9)))
    t0 = time.perf_counter()
    code, out, _ = _run(["relate", str(long), str(short)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert "partial-dual subsets: none found" in out
    assert "move sequence: none (search closed)" in out
    code, out, _ = _run(["relate", str(long), str(short), "--json"])
    data = json.loads(out)
    assert code == 0 and data["moves"] is None and data["search_closed"] is True


# each run enumerates the raw rotation systems and runs the corpus-wide
# checks, about 0.7 s, so only a few cases
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), max_edges=st.integers(0, 3), count=st.integers(0, 3))
@example(seed=101, max_edges=3, count=3)
def test_cli_verify_contract(seed, max_edges, count):
    _check_contract([
        ["verify", "--mode", "random", "--max-edges", str(max_edges), "--count", str(count),
         "--seed", str(seed), "--stable"],
    ])


# bytes that a mutation writes: the format's own syntax, some letters and
# digits, and a few that are not text
_SYNTAX = list(b"ribbon v1 arrows cycle: edge vertex name note # +-<>.12 ab\n") + [0, 0xFF, 0xC3]


@st.composite
def mutations(draw):
    """A valid graph file with a few bytes replaced, deleted or inserted."""
    g, _ = draw(cases())
    data = bytearray(serialize_graph(g).encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        byte = draw(st.sampled_from(_SYNTAX))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "delete":
            del data[pos]
        else:
            data[pos] = byte
    return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutations())
@example(data=b"\xff\xfe")
@example(data=b"ribbon v1\nedge a +\nvertex u: a.1 a.1\n")
@example(data=b"arrows v1\ncycle: >a >a >a\n")
def test_cli_contract_on_malformed_files(tmp_path, data):
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    f = str(path)
    _check_contract(
        [["info", f], ["canon", f], ["dual", f], ["spectrum", f, "--classes"],
         ["biseparations", f], ["factor", f], ["relate", f, f]]
    )
