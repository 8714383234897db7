import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbongraph import (
    ArrowPresentation,
    Arrow,
    End,
    InvalidGraph,
    RibbonGraph,
    UnknownEdge,
    build_graph,
    canonical_form,
    delete_edges,
    from_arrow_presentation,
    from_canonical_code,
    induced_subgraph,
    is_equivalent,
    single_vertex,
    to_arrow_presentation,
)
from ribbongraph.core import equivalence_orbit, labelled_code
from ribbongraph.oracles import mark_and_remove, restore
from ribbongraph.topology import euler_genus


def test_build_plane_two_cycle(fixtures):
    g = fixtures["C"]
    assert g.n_vertices == 2 and g.n_edges == 2
    assert g.rotation("u") == (End("a", 1), End("b", 1))
    assert euler_genus(g) == 0


def test_ends_of_locates_both_ends(fixtures):
    assert fixtures["C"].ends_of("b") == (("u", 1), ("w", 1))
    assert single_vertex("a b a b", "++").ends_of("b") == (("v", 1), ("v", 3))
    with pytest.raises(UnknownEdge):
        fixtures["C"].ends_of("z")


def test_build_single_vertex_no_edges():
    g = build_graph({"v": []}, {})
    assert g.n_vertices == 1 and g.n_edges == 0
    assert euler_genus(g) == 0


def test_build_rejects_duplicate_end():
    with pytest.raises(InvalidGraph, match="duplicate edge end a.2"):
        build_graph({"u": ["a.1", "a.2"], "w": ["a.2"]}, {"a": "+"})


def test_build_rejects_missing_end():
    with pytest.raises(InvalidGraph, match="missing end a.2"):
        build_graph({"u": ["a.1"]}, {"a": "+"})


def test_build_rejects_unknown_end():
    with pytest.raises(InvalidGraph, match="unknown edge end"):
        build_graph({"u": ["a.1", "a.2", "b.1"]}, {"a": "+"})


def test_build_rejects_duplicate_vertex():
    with pytest.raises(InvalidGraph, match="duplicate vertex"):
        RibbonGraph([("u", ["a.1"]), ("u", ["a.2"])], {"a": "+"})


def test_unknown_vertex_is_an_invalid_graph():
    # every lookup by vertex name goes through one check, so an unknown
    # name reads the same whichever operation meets it
    from ribbongraph.decomposition import n_sum

    g = single_vertex("a a", "+")
    h = single_vertex("b b", "-")
    for call in (
        lambda: g.rotation("x"),
        lambda: g.degree("x"),
        lambda: g.flipped("x"),
        lambda: g.rotated("x", 1),
        lambda: n_sum(g, h, [("x", "v", "PPQQ")]),
        lambda: n_sum(g, h, [("v", "x", "PPQQ")]),
    ):
        with pytest.raises(InvalidGraph, match="no vertex named 'x'"):
            call()


def test_edge_sign_validation():
    with pytest.raises(InvalidGraph):
        build_graph({"u": ["a.1", "a.2"]}, {"a": "?"})
    g = single_vertex("a a", "-")
    with pytest.raises(UnknownEdge):
        g.sign("zz")


# -- arrow presentations ------------------------------------------------------


def test_arrow_presentation_of_edgeless_vertex():
    g = build_graph({"v": []}, {})
    p = to_arrow_presentation(g)
    assert p.cycles == ((),)


def test_arrow_presentation_twist_convention():
    # equal relative directions mean untwisted, opposite mean twisted
    untwisted = from_arrow_presentation(
        ArrowPresentation([[Arrow("e", True), Arrow("e", True)]])
    )
    twisted = from_arrow_presentation(
        ArrowPresentation([[Arrow("e", True), Arrow("e", False)]])
    )
    assert euler_genus(untwisted) == 0
    assert euler_genus(twisted) == 1


def test_arrow_presentation_two_cycles_one_label():
    g = from_arrow_presentation(
        ArrowPresentation([[Arrow("e", True)], [Arrow("e", True)]])
    )
    assert g.n_vertices == 2
    assert euler_genus(g) == 0


def test_arrow_presentation_requires_two_arrows():
    with pytest.raises(InvalidGraph):
        ArrowPresentation([[Arrow("e", True)]])
    with pytest.raises(InvalidGraph):
        from_arrow_presentation(
            ArrowPresentation(
                [[Arrow("e", True)] * 3, [Arrow("x", True), Arrow("x", True)]],
                validate=False,
            )
        )


def test_arrow_round_trip(fixtures, corpus3):
    for g in list(fixtures.values()) + corpus3.graphs[:40]:
        assert is_equivalent(from_arrow_presentation(to_arrow_presentation(g)), g)


# -- subgraphs ----------------------------------------------------------------


def test_induced_subgraph_full_is_identity(fixtures):
    g = fixtures["N1"]
    assert induced_subgraph(g, {"a", "b"}) == g


def test_induced_subgraph_single_twisted_loop(fixtures):
    h = induced_subgraph(fixtures["N1"], {"a"})
    assert h.n_vertices == 1 and h.n_edges == 1
    assert euler_genus(h) == 1


def test_induced_subgraph_drops_isolated_vertices(fixtures):
    h = induced_subgraph(fixtures["C"], {"a"})
    assert h.n_vertices == 2 and euler_genus(h) == 0


def test_delete_edges_keeps_vertices(fixtures):
    h = delete_edges(fixtures["C"], {"a", "b"})
    assert h.n_vertices == 2 and h.n_edges == 0
    assert euler_genus(h) == 0
    h2 = delete_edges(fixtures["N1"], {"a"})
    assert euler_genus(h2) == 1


def test_delete_empty_is_identity(fixtures):
    assert delete_edges(fixtures["C"], set()) == fixtures["C"]


def test_subgraph_unknown_label(fixtures):
    with pytest.raises(UnknownEdge):
        induced_subgraph(fixtures["C"], {"zzz"})
    with pytest.raises(UnknownEdge):
        delete_edges(fixtures["C"], {"zzz"})


def test_induced_and_delete_agree_after_isolated_cleanup(corpus3):
    from ribbongraph.duality import subsets_sorted

    for g in corpus3.graphs[:60]:
        for sub in subsets_sorted(g.edge_labels):
            ind = induced_subgraph(g, sub)
            dele = delete_edges(g, g.complement(sub))
            kept = [
                (n, dele.rotation(n)) for n in dele.vertex_names if dele.rotation(n)
            ]
            assert RibbonGraph(kept, ind.signs) == ind


# -- marks ---------------------------------------------------------------------


def test_mark_and_remove_empty(fixtures):
    m = mark_and_remove(fixtures["C"], set())
    assert m.graph == fixtures["C"]
    assert m.mark_labels == ()


def test_mark_and_remove_shape(fixtures):
    m = mark_and_remove(fixtures["C"], {"b"})
    assert m.mark_labels == ("b",)
    assert m.signs == {"a": 1}
    assert len([x for row in m.all_items for x in row]) == 4


def test_mark_restore_round_trip(fixtures):
    from ribbongraph.duality import subsets_sorted

    for g in fixtures.values():
        for sub in subsets_sorted(g.edge_labels):
            assert is_equivalent(restore(mark_and_remove(g, sub)), g)


def test_restore_rejects_unmatched_marks():
    from ribbongraph.core import Mark
    from ribbongraph.oracles import MarkedRibbonGraph

    with pytest.raises(InvalidGraph, match="mark label"):
        MarkedRibbonGraph([("v", [Mark("m", True)])], {})


def test_mark_label_collision_rejected():
    from ribbongraph.core import Mark
    from ribbongraph.oracles import MarkedRibbonGraph

    with pytest.raises(InvalidGraph, match="collides"):
        MarkedRibbonGraph(
            [("v", [End("a", 1), End("a", 2), Mark("a", True), Mark("a", False)])],
            {"a": 1},
        )


# -- canonical form -------------------------------------------------------------


def test_canonical_ignores_storage_order(fixtures):
    g = fixtures["C"]
    swapped = g.reordered(["w", "u"])
    assert canonical_form(g) == canonical_form(swapped)


def test_canonical_distinguishes_twist():
    assert canonical_form(single_vertex("e e", "+")) != canonical_form(
        single_vertex("e e", "-")
    )


def test_canonical_mirror_image(fixtures):
    g = fixtures["N1"]
    assert canonical_form(g) == canonical_form(g.reflected())


def test_canonical_orbit_constant(fixtures):
    for name in ("moebius", "C", "D", "T1", "nested"):
        g = fixtures[name]
        want = canonical_form(g)
        for h in equivalence_orbit(g, max_size=600):
            assert canonical_form(h) == want


def test_canonical_relabeling(fixtures):
    g = fixtures["G2"]
    h = g.relabeled({"a": "x", "b": "y", "c": "z"})
    assert canonical_form(g) == canonical_form(h)


def test_canonical_separates_small_classes(corpus3):
    codes = [g.canonical_code() for g in corpus3.graphs]
    assert len(codes) == len(set(codes))


def test_canonical_code_decodes(corpus3):
    for g in corpus3.graphs[:80]:
        h = from_canonical_code(g.canonical_code())
        assert is_equivalent(g, h)
        assert euler_genus(g) == euler_genus(h)


def test_empty_and_edgeless_codes_decode():
    empty = RibbonGraph([], {})
    assert canonical_form(empty) == ""
    assert from_canonical_code("") == empty
    for code in ("1v0e:;", "1v0e:;&1v0e:;", "1v0e:;&1v0e:;&1v0e:;"):
        g = from_canonical_code(code)
        assert g.n_vertices == code.count("&") + 1 and g.n_edges == 0
        assert canonical_form(g) == code


# -- labelled codes ---------------------------------------------------------------


def _ends_renamed(g, labels):
    """``g`` with the two ends of each edge in ``labels`` named the other
    way round: the same labelled graph."""
    swap = {End(lab, s): End(lab, 3 - s) for lab in labels for s in (1, 2)}
    return RibbonGraph(
        [(n, [swap.get(e, e) for e in rot]) for n, rot in zip(g.vertex_names, g.rotations)],
        g.signs,
    )


def test_labelled_code_constant_on_orbit(fixtures):
    for name, g in fixtures.items():
        want = labelled_code(g)
        assert labelled_code(_ends_renamed(g, g.edge_labels)) == want, name
        for h in equivalence_orbit(g, max_size=600):
            assert labelled_code(h) == want, name


def test_labelled_code_keeps_labels(fixtures):
    g = fixtures["G2"]
    assert labelled_code(g.relabeled({"a": "x"})) != labelled_code(g)
    assert labelled_code(g)[0] == ("a", "b", "c")
    assert labelled_code(RibbonGraph([], {})) == ((), ())
    two = from_canonical_code("1v0e:;&1v0e:;")
    assert labelled_code(two) != labelled_code(from_canonical_code("1v0e:;"))


def _slot_free(g):
    """The storage of ``g`` with vertex names and end slots forgotten."""
    return tuple(tuple(e.label for e in rot) for rot in g.rotations), sorted(g.signs.items())


def test_labelled_code_separates_label_swaps(corpus5):
    # swapping the two smallest labels is an equivalence, so canonical_form
    # cannot see it; the labelled code changes unless an automorphism of
    # the graph exchanges those two edges
    changed = kept = 0
    for g in corpus5.graphs:
        if g.n_edges < 2:
            continue
        a, b = g.edge_labels[:2]
        h = g.relabeled({a: b, b: a})
        assert canonical_form(h) == canonical_form(g)
        same = labelled_code(h) == labelled_code(g)
        changed += not same
        kept += same
        if g.n_vertices <= 2 and (same or changed <= 200):
            # an automorphism exchanging a and b is a storage variant of g
            # that reads like h once names and end slots are forgotten
            want = _slot_free(h)
            found = any(_slot_free(v) == want for v in equivalence_orbit(g))
            assert found == same, g
    assert (changed, kept) == (6605, 325)


def test_is_equivalent_disconnected():
    from ribbongraph import disjoint_union

    a = disjoint_union(single_vertex("e e", "+"), single_vertex("f f", "-"))
    b = disjoint_union(single_vertex("f f", "-"), single_vertex("e e", "+"))
    assert is_equivalent(a, b)


@st.composite
def _small_graphs(draw):
    n_edges = draw(st.integers(min_value=1, max_value=4))
    darts = list(range(2 * n_edges))
    perm = draw(st.permutations(darts))
    seen = [False] * (2 * n_edges)
    rows = []
    for d0 in darts:
        if seen[d0]:
            continue
        cyc = []
        d = d0
        while not seen[d]:
            seen[d] = True
            cyc.append(End("e%d" % (d // 2), d % 2 + 1))
            d = perm[d]
        rows.append(("v%d" % len(rows), cyc))
    signs = {
        "e%d" % i: draw(st.sampled_from((1, -1))) for i in range(n_edges)
    }
    return RibbonGraph(rows, signs)


@given(_small_graphs(), st.integers(0, 7), st.booleans())
@settings(max_examples=120, deadline=None)
def test_canonical_invariant_under_random_motions(g, shift, flip):
    name = g.vertex_names[shift % g.n_vertices]
    h = g.rotated(name, shift)
    if flip:
        h = h.flipped(name)
    assert canonical_form(h) == canonical_form(g)


@given(_small_graphs())
@settings(max_examples=80, deadline=None)
def test_arrow_and_mark_round_trips_random(g):
    assert is_equivalent(from_arrow_presentation(to_arrow_presentation(g)), g)
    labels = g.edge_labels[: max(1, g.n_edges // 2)]
    assert is_equivalent(restore(mark_and_remove(g, labels)), g)


def test_only_core_touches_the_memo():
    # what is cached, and where, is decided in core alone: no other module
    # reads or writes a view's memo or a graph's view slot
    import re
    from pathlib import Path

    package = Path(__file__).resolve().parent.parent / "src" / "ribbongraph"
    files = sorted(package.glob("*.py"))
    assert len(files) > 5 and package / "core.py" in files
    slot = re.compile(r"\._(memo|view)\b")
    offending = [
        f"{path.name}:{n}: {line.strip()}"
        for path in files
        if path.name != "core.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if slot.search(line)
    ]
    assert offending == []


def test_coded_views_run_no_component_pass(monkeypatch, corpus4):
    # an enumeration child and a partial dual of the move search are only
    # coded, and a connected view's code is one trace from the least starts
    # over all its vertices: neither runs the whole-graph component pass
    # (the edgeless base graph of the enumeration has no trace to take)
    from ribbongraph import move_related, partial_dual
    from ribbongraph.core import _Indexed
    from ribbongraph.duality import partial_dual_subsets
    from ribbongraph.topology import euler_genus
    from ribbongraph.verify import _exhaustive

    calls = []
    original = _Indexed.parts

    def spy(view, mask):
        calls.append(view)
        return original(view, mask)

    pairs = []
    for g in corpus4.by_edges(4):
        if euler_genus(g) <= 1:
            for mask in range(0, 16, 5):
                h = partial_dual(g, g._indexed().edge_set(mask))
                h._indexed().components  # the pair's own pass, as relate runs it
                pairs.append((g, h))
    monkeypatch.setattr(_Indexed, "parts", spy)
    assert len(_exhaustive(4)) == len(corpus4)
    searched = 0
    for g, h in pairs:
        res = move_related(g, h, subsets=partial_dual_subsets(g, h))
        searched += res.expanded
    assert [view for view in calls if view.ne] == [] and searched > 300


def _validated_twin(h: RibbonGraph) -> RibbonGraph:
    """``h``'s rows and signs through the validated construction, from
    iterators, as an outside caller would hand them over."""
    return RibbonGraph(zip(h.vertex_names, h.rotations), iter(h.signs.items()))


def _assert_trusted_rows_valid(h: RibbonGraph, what) -> None:
    h._check()
    assert h == _validated_twin(h), what
    assert all(type(n) is str for n in h.vertex_names), what
    assert all(type(e) is End and type(e.label) is str for rot in h.rotations for e in rot), what
    assert all(type(k) is str and type(v) is int for k, v in h.signs.items()), what


def test_trusted_construction_agrees_with_validated(corpus4):
    # every package caller of the trusted path hands over rows that the
    # validated path keeps unchanged and accepts
    from ribbongraph import delete_edges, partial_dual
    from ribbongraph.duality import subsets_sorted
    from ribbongraph.oracles import MarkedRibbonGraph, enumerate_raw
    from ribbongraph.verify import _random_graph

    rng = random.Random(22)
    graphs = list(corpus4.graphs) + enumerate_raw(2) + [_random_graph(rng, e) for e in range(7)]
    for g in graphs:
        _assert_trusted_rows_valid(g, g)
        outputs = [g.reflected(), from_arrow_presentation(to_arrow_presentation(g)),
                   g.reordered(tuple(reversed(g.vertex_names)))]
        for name in g.vertex_names:
            outputs += [g.flipped(name), g.rotated(name, 1)]
        if g.n_edges:
            first = g.edge_labels[0]
            outputs += [g.relabeled({first: "x"}), g.relabeled({first: 7}),
                        g.relabeled({lab: i for i, lab in enumerate(reversed(g.edge_labels))})]
        for sub in subsets_sorted(g.edge_labels):
            marked = mark_and_remove(g, sub)
            assert marked == MarkedRibbonGraph(zip(marked.vertex_names, marked.all_items),
                                               marked.signs), (g, sub)
            outputs += [induced_subgraph(g, sub), delete_edges(g, sub), partial_dual(g, sub),
                        marked.graph]
        for h in outputs:
            _assert_trusted_rows_valid(h, (g, h))
    loop = single_vertex("a a", "+").relabeled({"a": 7})
    assert loop.edge_labels == ("7",) and loop.rotations == ((End("7", 1), End("7", 2)),)


def test_arrow_labels_must_be_strings():
    with pytest.raises(InvalidGraph):
        ArrowPresentation([[Arrow(1, True), Arrow(1, True)]])
