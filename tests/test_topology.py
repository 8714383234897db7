from ribbongraph import (
    boundary_components,
    build_graph,
    connected_components,
    disjoint_union,
    is_orientable,
    single_vertex,
    surface_stats,
)
from ribbongraph.oracles import orientable_by_double_cover
from ribbongraph.topology import euler_genus, surface_label


def test_untwisted_loop_is_annulus():
    g = single_vertex("e e", "+")
    assert boundary_components(g).count == 2
    st = surface_stats(g)
    assert (st.euler_characteristic, st.euler_genus) == (2, 0)
    assert st.surface == "sphere"


def test_twisted_loop_is_moebius():
    g = single_vertex("e e", "-")
    assert boundary_components(g).count == 1
    st = surface_stats(g)
    assert st.euler_genus == 1 and not st.orientable
    assert st.surface == "RP^2"


def test_interlaced_twisted_bouquet_boundary(fixtures):
    assert boundary_components(fixtures["N1"]).count == 2
    assert euler_genus(fixtures["N1"]) == 1


def test_two_cycle_stats(fixtures):
    st = surface_stats(fixtures["C"])
    assert st.n_boundary == 2 and st.euler_genus == 0 and st.orientable
    st = surface_stats(fixtures["D"])
    assert st.n_boundary == 1 and st.euler_genus == 1 and not st.orientable
    st = surface_stats(fixtures["T1"])
    assert st.n_boundary == 1 and st.euler_genus == 2 and st.orientable
    assert st.surface == "torus"


def test_every_band_side_visited_once(fixtures):
    for g in fixtures.values():
        walks = boundary_components(g).walks
        sides = [s[1:3] for w in walks for s in w if s[0] == "side"]
        assert len(sides) == 2 * g.n_edges
        assert len(set(sides)) == len(sides)
        corners = [s[1:3] for w in walks for s in w if s[0] == "corner"]
        assert len(set(corners)) == len(corners)


def test_orientability_basics(fixtures):
    assert is_orientable(fixtures["C"])
    assert not is_orientable(single_vertex("e e", "-"))
    assert not is_orientable(fixtures["D"])


def test_orientability_flip_can_fix_signs():
    # a triangle with two twisted edges is orientable: flip one endpoint
    g = build_graph(
        {
            "u": ["a.1", "c.2"],
            "v": ["a.2", "b.1"],
            "w": ["b.2", "c.1"],
        },
        {"a": "-", "b": "-", "c": "+"},
    )
    assert is_orientable(g)
    assert euler_genus(g) in (0, 2)
    assert orientable_by_double_cover(g)


def test_orientability_matches_double_cover(corpus3):
    for g in corpus3.graphs:
        assert is_orientable(g) == orientable_by_double_cover(g)


def test_connected_components(fixtures):
    assert len(connected_components(fixtures["C"])) == 1
    assert len(connected_components(build_graph({"v": []}, {}))) == 1
    u = disjoint_union(fixtures["C"], single_vertex("e e", "-"))
    comps = connected_components(u)
    assert len(comps) == 2
    assert euler_genus(u) == 1  # 0 + 1


def test_genus_additive_over_components(corpus3):
    small = [g for g in corpus3.graphs if 1 <= g.n_edges <= 2][:12]
    for g1 in small:
        for g2 in small:
            u = disjoint_union(g1, g2)
            assert euler_genus(u) == euler_genus(g1) + euler_genus(g2)


def test_isolated_vertex_genus_zero():
    g = build_graph({"v": []}, {})
    st = surface_stats(g)
    assert st.euler_genus == 0 and st.n_boundary == 1 and st.orientable


def test_surface_labels():
    assert surface_label(0, True) == "sphere"
    assert surface_label(2, True) == "torus"
    assert surface_label(4, True) == "Sigma_2"
    assert surface_label(1, False) == "RP^2"
    assert surface_label(2, False) == "Klein bottle"
    assert surface_label(3, False) == "N_3"


def test_stats_invariants(corpus3):
    for g in corpus3.graphs:
        st = surface_stats(g)
        assert st.euler_characteristic == st.n_vertices - st.n_edges + st.n_boundary
        assert st.euler_genus == 2 * st.n_components - st.euler_characteristic
        assert st.euler_genus >= 0
        if st.orientable:
            assert st.euler_genus % 2 == 0
        assert st.euler_genus == sum(c.euler_genus for c in st.components)


def test_genus_representation_independent(corpus3):
    from ribbongraph import from_canonical_code

    for g in corpus3.graphs[:80]:
        rebuilt = from_canonical_code(g.canonical_code())
        assert euler_genus(rebuilt) == euler_genus(g)


# -- the integer component pass against the traced, name-keyed oracles ---------


def _pass_inputs(fixtures):
    return {
        "empty": build_graph({}, {}),
        "two bare vertices": build_graph({"u": [], "w": []}, {}),
        "plane + twisted loop + bare vertex": disjoint_union(
            fixtures["C"], single_vertex("e e", "-"), build_graph({"x": []}, {})
        ),
    }


def test_component_pass_matches_oracles(fixtures):
    from ribbongraph.oracles import components_by_names, surface_stats_by_walks

    for name, g in _pass_inputs(fixtures).items():
        assert surface_stats(g) == surface_stats_by_walks(g), name
        assert connected_components(g) == components_by_names(g), name
        assert is_orientable(g) == orientable_by_double_cover(g), name


def test_component_pass_values(fixtures):
    inputs = _pass_inputs(fixtures)
    st = surface_stats(inputs["empty"])
    assert (st.n_components, st.n_boundary, st.euler_genus, st.surface) == (0, 0, 0, "empty")
    assert st.orientable and connected_components(inputs["empty"]) == ()
    st = surface_stats(inputs["two bare vertices"])
    assert (st.n_components, st.n_boundary, st.euler_genus) == (2, 2, 0)
    assert st.surface == "sphere + sphere"
    g = inputs["plane + twisted loop + bare vertex"]
    st = surface_stats(g)
    assert [c.euler_genus for c in st.components] == [0, 1, 0]
    assert [c.orientable for c in st.components] == [True, False, True]
    assert (st.euler_genus, st.orientable) == (1, False)
    assert st.surface == "RP^2 + sphere + sphere"
    assert not is_orientable(g)
    assert [len(vs) for vs, _ in connected_components(g)] == [2, 1, 1]


def test_component_pass_matches_oracles_on_corpus(corpus3):
    from ribbongraph.oracles import components_by_names, surface_stats_by_walks

    small = [g for g in corpus3.graphs if g.n_edges <= 2]
    for g in corpus3.graphs:
        assert surface_stats(g) == surface_stats_by_walks(g)
    for g1 in small[:8]:
        u = disjoint_union(g1, small[-1], build_graph({"x": []}, {}))
        assert surface_stats(u) == surface_stats_by_walks(u)
        assert connected_components(u) == components_by_names(u)


def test_euler_genus_from_the_walk_count(corpus5, with_bare_vertices):
    # 2k - v + e - f from the walk count alone equals the genus of the
    # surface statistics, on connected graphs, bare vertices and unions
    small = [g for g in corpus5.graphs if g.n_edges <= 2]
    unions = [disjoint_union(g1, g2) for g1 in small for g2 in small]
    graphs = corpus5.graphs + [with_bare_vertices, build_graph({}, {})] + unions
    for g in graphs:
        assert euler_genus(g) == surface_stats(g).euler_genus, g
    assert len(graphs) > 5000
