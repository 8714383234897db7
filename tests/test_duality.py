import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbongraph import (
    RibbonGraph,
    RibbonGraphError,
    build_graph,
    disjoint_union,
    geometric_dual,
    is_equivalent,
    partial_dual,
    single_vertex,
    spectrum,
    surface_stats,
)
from ribbongraph.duality import genus_polynomial, subsets_sorted
from ribbongraph.topology import euler_genus
from ribbongraph.verify import (
    partial_dual_by_edges,
    partial_dual_one_edge,
    partial_dual_via_marks,
)


def test_geometric_dual_of_bare_vertex():
    g = build_graph({"v": []}, {})
    assert geometric_dual(g).n_vertices == 1


def test_geometric_dual_two_cycle(fixtures):
    d = geometric_dual(fixtures["C"])
    assert d.n_vertices == 2 and d.n_edges == 2
    assert is_equivalent(d, fixtures["C"])


def test_geometric_dual_torus_bouquet(fixtures):
    d = geometric_dual(fixtures["T1"])
    assert d.n_vertices == 1
    assert euler_genus(d) == 2


def test_geometric_dual_contract(corpus3):
    for g in corpus3.graphs:
        d = geometric_dual(g)
        st_g, st_d = surface_stats(g), surface_stats(d)
        assert st_d.n_vertices == st_g.n_boundary
        assert set(d.edge_labels) == set(g.edge_labels)
        assert st_d.euler_genus == st_g.euler_genus
        assert is_equivalent(geometric_dual(d), g)


def test_partial_dual_anchors(fixtures):
    st = surface_stats(partial_dual(fixtures["C"], {"a"}))
    assert st.euler_genus == 2 and st.orientable and st.surface == "torus"
    st = surface_stats(partial_dual(fixtures["D"], {"a"}))
    assert st.euler_genus == 2 and not st.orientable and st.surface == "Klein bottle"
    assert is_equivalent(partial_dual(fixtures["T1"], {"a"}), fixtures["C"])
    assert euler_genus(partial_dual(fixtures["N1"], {"a"})) == 2


def test_partial_dual_identity_and_full(fixtures):
    for g in fixtures.values():
        assert is_equivalent(partial_dual(g, set()), g)
        assert is_equivalent(partial_dual(g, g.edge_labels), geometric_dual(g))


def test_partial_dual_unknown_label(fixtures):
    from ribbongraph import UnknownEdge

    with pytest.raises(UnknownEdge):
        partial_dual(fixtures["C"], {"zzz"})


def test_one_edge_loop_cases():
    loop = single_vertex("e e", "+")
    assert is_equivalent(partial_dual_one_edge(loop, "e"), geometric_dual(loop))
    moebius = single_vertex("e e", "-")
    assert is_equivalent(partial_dual_one_edge(moebius, "e"), moebius)


def test_one_edge_order_independence(fixtures):
    g = fixtures["N1"]
    ab = partial_dual_one_edge(partial_dual_one_edge(g, "a"), "b")
    ba = partial_dual_one_edge(partial_dual_one_edge(g, "b"), "a")
    assert is_equivalent(ab, ba)
    assert is_equivalent(ab, partial_dual(g, {"a", "b"}))


def test_one_edge_composition_matches_trace(fixtures, corpus3):
    pool = list(fixtures.values()) + corpus3.graphs[:50]
    for g in pool:
        for sub in subsets_sorted(g.edge_labels):
            assert is_equivalent(partial_dual_by_edges(g, sub), partial_dual(g, sub))


def test_marked_route_matches_trace(corpus3):
    for g in corpus3.graphs[:50]:
        for sub in subsets_sorted(g.edge_labels):
            assert is_equivalent(partial_dual_via_marks(g, sub), partial_dual(g, sub))


def test_symmetric_difference_composition(fixtures):
    g = fixtures["G2"]
    subs = list(subsets_sorted(g.edge_labels))
    for a, b in itertools.product(subs[:4], subs):
        assert is_equivalent(partial_dual(partial_dual(g, a), b), partial_dual(g, a ^ b))


def test_orientability_preserved(corpus3):
    for g in corpus3.graphs[:60]:
        ori = surface_stats(g).orientable
        for sub in subsets_sorted(g.edge_labels):
            assert surface_stats(partial_dual(g, sub)).orientable == ori


def test_isolated_vertices_preserved():
    g = build_graph({"u": ["a.1", "a.2"], "w": []}, {"a": "+"})
    d = partial_dual(g, {"a"})
    assert d.n_vertices == surface_stats(single_vertex("a a", "+")).n_boundary + 1


def _with_bare_vertices(g, rng):
    """``g`` with two edgeless vertices inserted at random storage positions."""
    rows = list(zip(g.vertex_names, g.rotations))
    for name in ("bare0", "bare1"):
        rows.insert(rng.randrange(len(rows) + 1), (name, ()))
    return RibbonGraph(rows, g.signs)


def _scrambled_names(g, rng):
    """``g`` with vertex names whose string order differs from storage order:
    ``v0``..``v12`` drawn at random, so ``v10`` sorts before ``v2``."""
    names = [f"v{i}" for i in rng.sample(range(13), g.n_vertices)]
    return RibbonGraph(zip(names, g.rotations), g.signs)


def test_integer_partial_dual_is_the_arrow_route_exactly(corpus4):
    # the integer walks must rebuild the traced arrow route graph for graph:
    # vertex names, rotations, end slots and signs, on every subset
    import random

    from ribbongraph import generate
    from ribbongraph.verify import partial_dual_by_arrows

    rng = random.Random(5)
    graphs = list(corpus4.graphs)
    for e in range(1, 8):
        for g in generate(e, mode="random", seed=7, count=12, connected=False).graphs:
            graphs += [_with_bare_vertices(g, rng), _scrambled_names(g, rng),
                       _scrambled_names(_with_bare_vertices(g, rng), rng)]
    assert any("v10" in g.vertex_names and "v2" in g.vertex_names for g in graphs)
    assert any(len(g._indexed().components) > 3 for g in graphs)
    for g in graphs:
        for sub in subsets_sorted(g.edge_labels):
            assert partial_dual(g, sub) == partial_dual_by_arrows(g, sub), (g, sub)
        assert geometric_dual(g) == partial_dual(g, g.edge_labels)


@st.composite
def _graphs_and_masks(draw):
    """A graph of 0-8 edges in up to three parts, some of them bare
    vertices, in scrambled storage order, and an edge mask of it."""
    from ribbongraph.verify import _random_graph

    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    left = 8
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, left))
        left -= n
        parts.append(_random_graph(rng, n))
    g = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    order = list(g.vertex_names)
    rng.shuffle(order)
    g = g.reordered(order)
    return g, draw(st.integers(0, 2**g.n_edges - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_graphs_and_masks())
@example(case=(build_graph({}, {}), 0))
@example(case=(disjoint_union(
    build_graph({"u": ["a.1", "b.1"], "w": ["b.2", "a.2"]}, {"a": "+", "b": "-"}),
    build_graph({"x": []}, {}),
    single_vertex("c d c d", "+-"),
).reordered(["g1.x", "g2.v", "g0.w", "g0.u"]), 0b1010))
def test_dual_view_matches_the_named_dual(case):
    # the view coded without a named graph is the view of the named dual
    # rebuilt from its names, and codes as the dual built by arrows
    from ribbongraph.core import _Indexed, canonical_form
    from ribbongraph.duality import _dual_view
    from ribbongraph.verify import partial_dual_by_arrows, view_fields

    g, mask = case
    sub = g._indexed().edge_set(mask)
    view = _dual_view(g, mask)
    dual = partial_dual(g, sub)
    assert view_fields(view) == view_fields(_Indexed.of(dual))
    assert canonical_form(view) == dual.canonical_code()
    assert canonical_form(view) == partial_dual_by_arrows(g, sub).canonical_code()


def test_dual_acts_on_components_independently(fixtures):
    u = disjoint_union(fixtures["C"], fixtures["moebius"])
    d = partial_dual(u, {"g0.a"})
    parts = disjoint_union(partial_dual(fixtures["C"], {"a"}), fixtures["moebius"])
    assert is_equivalent(d, parts)


# -- spectrum -------------------------------------------------------------------


def test_spectrum_single_loop():
    rows = spectrum(single_vertex("e e", "+"))
    assert [(sorted(r.subset), r.euler_genus) for r in rows] == [([], 0), (["e"], 0)]


def test_spectrum_two_cycle(fixtures):
    rows = spectrum(fixtures["C"])
    got = {frozenset(r.subset): r.euler_genus for r in rows}
    assert got == {
        frozenset(): 0,
        frozenset({"a"}): 2,
        frozenset({"b"}): 2,
        frozenset({"a", "b"}): 0,
    }


def test_spectrum_twisted_bouquet(fixtures):
    rows = spectrum(fixtures["N1"])
    got = {frozenset(r.subset): r.euler_genus for r in rows}
    assert got == {
        frozenset(): 1,
        frozenset({"a"}): 2,
        frozenset({"b"}): 2,
        frozenset({"a", "b"}): 1,
    }


def test_spectrum_genus_filter(fixtures):
    rows = spectrum(fixtures["C"], genus=0)
    assert [sorted(r.subset) for r in rows] == [[], ["a", "b"]]


COUNT_ROUTE_GRAPHS = {
    "disconnected": disjoint_union(single_vertex("a b a b", "+-"), single_vertex("c c", "-")),
    "bare-vertex": build_graph({"u": ["a.1", "a.2"], "w": []}, {"a": "+"}),
    "edgeless": single_vertex(""),
}


@pytest.mark.parametrize("name", sorted(COUNT_ROUTE_GRAPHS))
def test_spectrum_counts_match_built_duals(name):
    g = COUNT_ROUTE_GRAPHS[name]
    rows = spectrum(g)
    assert [r.subset for r in rows] == list(subsets_sorted(g.edge_labels))
    for r in rows:
        st = surface_stats(partial_dual(g, r.subset))
        assert (r.euler_genus, r.orientable) == (st.euler_genus, st.orientable), r.subset
    for k in {r.euler_genus for r in rows} | {7}:
        assert spectrum(g, genus=k) == [r for r in rows if r.euler_genus == k]


def test_spectrum_complement_symmetry(corpus3):
    for g in corpus3.graphs[:40]:
        rows = {frozenset(r.subset): r for r in spectrum(g)}
        full = frozenset(g.edge_labels)
        for sub, r in rows.items():
            assert rows[full - sub].euler_genus == r.euler_genus


def test_spectrum_classification_hook(fixtures):
    rows = spectrum(fixtures["T1"], classes=True)
    by = {frozenset(r.subset): r.biseparation for r in rows}
    assert by[frozenset({"a"})] == "plane"
    assert by[frozenset()] == "other(2) (trivial)"


def test_spectrum_classes_keep_no_memo_per_subset():
    # a certificate per subset used to be memoised on the graph: 2^e entries
    # that no caller read twice
    from ribbongraph.verify import generate

    g = generate(10, mode="random", seed=3, count=1).graphs[0]
    rows = spectrum(g, classes=True)
    assert len(rows) == 2**10
    # whole-graph values only: the integer view, the factor tree, and the
    # canonical code that generate's deduplication asked for
    assert sorted(key.__name__ for key in g._memo) == [
        "_factor_tree", "_indexed", "canonical_code"
    ]


def test_spectrum_bound():
    big = {f"e{i}": "+" for i in range(21)}
    rows = []
    for i in range(21):
        rows.append((f"v{i}", [f"e{i}.1", f"e{(i + 1) % 21}.2"]))
    g = build_graph(rows, big)
    with pytest.raises(RibbonGraphError, match="force"):
        spectrum(g)


def test_spectrum_refuses_seventeen_edges():
    g = build_graph(
        [(f"v{i}", [f"e{i}.1", f"e{(i + 1) % 17}.2"]) for i in range(17)],
        {f"e{i}": "+" for i in range(17)},
    )
    with pytest.raises(RibbonGraphError, match="force"):
        spectrum(g)
    small = build_graph(
        [(f"v{i}", [f"e{i}.1", f"e{(i + 1) % 16}.2"]) for i in range(16)],
        {f"e{i}": "+" for i in range(16)},
    )
    from ribbongraph.duality import refuse_large_sweep

    refuse_large_sweep(small, "spectrum")  # 16 edges are admitted


def test_spectrum_classes_match_whole_graph_route():
    # the factor tables against the whole-graph route: genus from the walk
    # counts of A and its complement, class from the whole-graph certificate
    from ribbongraph import classify_biseparation
    from ribbongraph.verify import generate

    for e in (6, 7, 8, 9):
        for g in generate(e, mode="random", seed=17, count=10).graphs:
            idx = g._indexed()
            full = (1 << g.n_edges) - 1
            rows = spectrum(g, classes=True)
            assert [r.subset for r in rows] == list(subsets_sorted(g.edge_labels))
            for r in rows:
                mask = idx.mask(r.subset)
                gamma = 2 + g.n_edges - len(idx.walk_homes(mask)) - len(idx.walk_homes(full ^ mask))
                assert r.euler_genus == gamma, r.subset
                assert r.biseparation == str(classify_biseparation(g, r.subset)), r.subset


def _joined(*graphs):
    """The one-point join of the graphs, each at its first vertex."""
    from ribbongraph.decomposition import join

    out = graphs[0]
    for g in graphs[1:]:
        out = join(out, out.vertex_names[0], g, g.vertex_names[0])
    return out


def test_spectrum_classes_of_a_join_need_no_whole_graph_certificate(monkeypatch):
    import ribbongraph.decomposition as decomposition
    from ribbongraph import classify_biseparation

    def make():
        # prime factors {a, b}, {c, d, e}, {f}, {g} and {h}
        return _joined(
            single_vertex("a b a b", "++"),
            single_vertex("c d c e d e", "+-+"),
            single_vertex("f f", "-"),
            single_vertex("g h h g", "++"),
        )

    g = make()
    want = [str(classify_biseparation(g, sub)) for sub in subsets_sorted(g.edge_labels)]
    calls = []
    original = decomposition.biseparation_data

    def counting(graph, edges):
        calls.append(frozenset(edges))
        return original(graph, edges)

    monkeypatch.setattr(decomposition, "biseparation_data", counting)
    fresh = make()
    homes = fresh._indexed()._homes
    before = set(homes)  # join counted the whole graph's walks
    rows = spectrum(fresh, classes=True)
    assert [r.biseparation for r in rows] == want
    assert calls == []
    # walks are counted for the subsets of each factor, 4 + 8 + 2 + 2 + 2
    # masks with the empty one shared, not for the 2^8 subsets of the join
    assert len(set(homes) - before) == 14


def test_cli_spectrum_classes_refuse_disconnected_graphs(tmp_path, capsys):
    from ribbongraph.cli import main
    from ribbongraph.io_text import serialize_graph

    path = tmp_path / "two.txt"
    path.write_text(serialize_graph(COUNT_ROUTE_GRAPHS["bare-vertex"]))
    assert main(["spectrum", str(path), "--classes"]) == 2
    assert capsys.readouterr().err == "error: biseparations are defined for connected graphs\n"
    assert main(["spectrum", str(path)]) == 0


def _histogram(g):
    hist = {}
    for r in spectrum(g):
        hist[r.euler_genus] = hist.get(r.euler_genus, 0) + 1
    return dict(sorted(hist.items()))


def test_genus_polynomial_is_the_spectrum_histogram(corpus4):
    for g in corpus4.graphs + list(COUNT_ROUTE_GRAPHS.values()):
        assert genus_polynomial(g) == _histogram(g)


def test_genus_polynomial_gap():
    # a twisted loop (2z) joined to the torus bouquet (2 + 2z^2): no subset
    # reaches Euler genus 2
    g = _joined(single_vertex("c c", "-"), single_vertex("a b a b"))
    assert genus_polynomial(g) == {1: 4, 3: 4}


def test_genus_polynomial_of_a_large_join():
    import time

    t0 = time.perf_counter()
    g = _joined(*(single_vertex(f"a{i} b{i} c{i} a{i} b{i} c{i}") for i in range(8)))
    assert g.n_edges == 24
    assert genus_polynomial(g) == {16: 2**24}
    assert time.perf_counter() - t0 < 1.0


def test_genus_polynomial_refuses_a_large_prime_factor():
    g = build_graph(
        [(f"v{i}", [f"e{i}.1", f"e{(i + 1) % 17}.2"]) for i in range(17)],
        {f"e{i}": "+" for i in range(17)},
    )
    with pytest.raises(RibbonGraphError, match="prime factor of 17 edges"):
        genus_polynomial(g)


def test_partial_dual_subsets_build_only_matching_counts(monkeypatch):
    # a subset is coded only when the vertex and boundary counts of its
    # dual, read off the walks, are those of the target
    import ribbongraph.duality as duality
    from ribbongraph.verify import generate

    g = generate(6, mode="random", seed=5, count=1).graphs[0]
    idx = g._indexed()
    stats = {sub: surface_stats(partial_dual(g, sub)) for sub in subsets_sorted(g.edge_labels)}
    coded = []
    original = duality._dual_view

    def counting(graph, mask):
        coded.append(idx.edge_set(mask))
        return original(graph, mask)

    monkeypatch.setattr(duality, "_dual_view", counting)
    for sub in (frozenset(), frozenset(sorted(g.edge_labels)[:2])):
        h = partial_dual(g, sub)
        want = (h.n_vertices, surface_stats(h).n_boundary)
        coded.clear()
        found = duality.partial_dual_subsets(g, h)
        assert sub in found
        assert coded == [s for s, st in stats.items() if (st.n_vertices, st.n_boundary) == want]
        assert len(coded) < 2 ** g.n_edges
