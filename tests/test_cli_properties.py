"""Property test of the command-line contract on random small graphs.

Every command exits 0 or 2 and never raises, ``--json`` output parses, two
runs print the same bytes, and ``info --json`` agrees with the traced
surface statistics.  Inputs are random graphs of up to six edges, often
disconnected and with edgeless vertices, so that the multi-component paths
run too.
"""

import contextlib
import io
import json
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ribbongraph import End, build_graph, disjoint_union, parse, serialize_graph
from ribbongraph.cli import main
from ribbongraph.io_text import emit, stats_json
from ribbongraph.verify import _random_graph, surface_stats_by_walks

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
    code, out, _ = _run(["info", f, "--json"])
    graph = parse(path.read_text()).graph()
    want = emit({"command": "info", **stats_json(surface_stats_by_walks(graph))})
    assert code == 0 and out == want
