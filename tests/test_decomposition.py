import pytest

from ribbongraph import (
    InvalidGraph,
    NotAJoinSummand,
    build_graph,
    classify_biseparation,
    classify_join_biseparation,
    enumerate_biseparations,
    is_biseparation,
    is_equivalent,
    is_join_biseparation,
    join,
    join_summand_splits,
    n_sum,
    prime_factorization,
    single_vertex,
    surface_stats,
    toggle_join_summand,
    toggles_related,
)
from ribbongraph.decomposition import (
    all_interleave_patterns,
    factor_genera,
    summand_edge_sets,
)
from ribbongraph.duality import subsets_sorted
from ribbongraph.io_text import serialize_graph
from ribbongraph.oracles import biseparation_sequence_oracle, join_biseparations_by_splits
from ribbongraph.topology import euler_genus, is_connected


# -- constructors ----------------------------------------------------------------


def test_one_sum_patterns():
    loop_a = single_vertex("a a", "+")
    loop_b = single_vertex("b b", "+")
    alternating = n_sum(loop_a, loop_b, [("v", "v", "PQPQ")])
    assert euler_genus(alternating) == 2
    nested = n_sum(loop_a, loop_b, [("v", "v", "PPQQ")])
    assert euler_genus(nested) == 0


def test_two_sum_of_paths_gives_two_cycle(fixtures):
    pa = build_graph({"u": ["a.1"], "w": ["a.2"]}, {"a": "+"})
    pb = build_graph({"u": ["b.1"], "w": ["b.2"]}, {"b": "+"})
    g = n_sum(pa, pb, [("u", "u", "PQ"), ("w", "w", "PQ")])
    assert is_equivalent(g, fixtures["C"])


def test_n_sum_validation():
    loop_a = single_vertex("a a", "+")
    loop_b = single_vertex("b b", "+")
    with pytest.raises(InvalidGraph, match="at least one merged"):
        n_sum(loop_a, loop_b, [])
    with pytest.raises(InvalidGraph, match="reused"):
        n_sum(loop_a, loop_b, [("v", "v", "PQPQ"), ("v", "v", "PQPQ")])
    with pytest.raises(InvalidGraph, match="shared"):
        n_sum(loop_a, single_vertex("a a", "-"), [("v", "v", "PQPQ")])
    with pytest.raises(InvalidGraph, match="pattern"):
        n_sum(loop_a, loop_b, [("v", "v", "PQ")])
    for pair in (("x", "v"), ("v", "x")):
        with pytest.raises(InvalidGraph, match="no vertex named 'x'"):
            n_sum(loop_a, loop_b, [pair + ("PQPQ",)])


def test_join_adds_genus(fixtures):
    moebius = single_vertex("e e", "-")
    other = single_vertex("f f", "-")
    g = join(moebius, "v", other, "v")
    st = surface_stats(g)
    assert st.euler_genus == 2 and not st.orientable


def test_join_rejects_trivial():
    with pytest.raises(InvalidGraph, match="trivial"):
        join(single_vertex("e e", "-"), "v", build_graph({"x": []}, {}), "x")


def test_all_interleave_patterns_count():
    pats = list(all_interleave_patterns(2, 2))
    assert len(pats) == 6
    assert all(w.startswith("P") for w, _ in pats)


# -- biseparations ----------------------------------------------------------------


def test_certificate_interlaced_bouquet(fixtures):
    cert = is_biseparation(fixtures["T1"], {"a"})
    assert cert is not None and not cert.trivial
    assert len(cert.components) == 2
    assert len(cert.tree_edges) == 1
    assert cert.label == "plane"


def test_two_cycle_proper_subsets_fail(fixtures):
    assert is_biseparation(fixtures["C"], {"a"}) is None
    assert str(classify_biseparation(fixtures["C"], {"a"})) == "none"


def test_twisted_bouquet_has_two_crosscap_sides(fixtures):
    cert = is_biseparation(fixtures["N1"], {"a"})
    assert cert is not None
    assert cert.label == "other" and cert.genus_sum == 2
    assert str(classify_biseparation(fixtures["N1"], {"a"})) == "other(2)"


def test_trivial_classification(fixtures):
    moebius = single_vertex("e e", "-")
    c = classify_biseparation(moebius, {"e"})
    assert c.trivial and c.label == "rp2"
    c = classify_biseparation(fixtures["C"], set())
    assert c.trivial and c.label == "plane"


def test_biseparation_requires_connected():
    from ribbongraph import disjoint_union

    u = disjoint_union(single_vertex("a a", "+"), single_vertex("b b", "+"))
    with pytest.raises(InvalidGraph, match="connected"):
        is_biseparation(u, {"g0.a"})


def test_enumerate_biseparations(fixtures):
    assert enumerate_biseparations(fixtures["C"]) == [
        frozenset(),
        frozenset({"a", "b"}),
    ]
    assert enumerate_biseparations(fixtures["T1"], "plane") == [
        frozenset({"a"}),
        frozenset({"b"}),
    ]
    # both sides of this join carry a crosscap, so no subset is labelled rp2
    assert enumerate_biseparations(fixtures["MM"], "rp2") == []
    assert enumerate_biseparations(fixtures["MM"]) == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    ]


def _biseparations_by_certificates(g, label):
    """The listing from every subset's whole-graph certificate, as
    ``enumerate_biseparations`` made it before it read the factor tables."""
    out = []
    for sub in subsets_sorted(g.edge_labels):
        cert = is_biseparation(g, sub)
        if cert is not None and (
            label == "all" or cert.label == label or (label == "nontrivial" and not cert.trivial)
        ):
            out.append(sub)
    return out


def test_enumerate_biseparations_matches_the_certificate_loop(cross_route_graphs):
    for g in cross_route_graphs:
        for label in ("all", "plane", "rp2", "other", "nontrivial"):
            assert enumerate_biseparations(g, label) == _biseparations_by_certificates(g, label), (
                serialize_graph(g), label,
            )


def test_enumeration_closed_under_complement(corpus3):
    for g in corpus3.graphs[:50]:
        subs = set(enumerate_biseparations(g))
        full = frozenset(g.edge_labels)
        assert all(full - s in subs for s in subs)


def test_sequence_oracle_matches_tree_criterion(fixtures):
    assert biseparation_sequence_oracle(fixtures["T1"], {"a"}) is not None
    assert biseparation_sequence_oracle(fixtures["C"], {"a"}) is None
    # a trivial subset has the whole graph as its single summand
    assert biseparation_sequence_oracle(fixtures["C"], set()) == [0]


def test_count_criterion_matches_the_union_find_and_sequence_oracles(corpus4):
    # c(A) + c(Aᶜ) = v + 1 against a union-find over the sides' vertex names
    # (the sides from built induced subgraphs) and against the search over
    # gluing orders, on every subset of every graph with up to 4 edges
    from ribbongraph.decomposition import biseparation_data
    from ribbongraph.duality import subsets_sorted
    from ribbongraph.oracles import incidence_tree_by_union_find, side_components_by_subgraphs

    checked = certified = 0
    for g in corpus4.graphs:
        full = frozenset(g.edge_labels)
        subs = list(subsets_sorted(full))
        # a subset and its complement share their sides
        sides = {sub: [c[0] for c in side_components_by_subgraphs(g, sub)] for sub in subs}
        for sub in subs:
            checked += 1
            cert = biseparation_data(g, sub)[1]
            tree = incidence_tree_by_union_find(g, sides[sub], sides[full - sub])
            assert (None if cert is None else cert.tree_edges) == tree, (g, sub)
            assert (cert is None) == (biseparation_sequence_oracle(g, sub) is None), (g, sub)
            certified += cert is not None
    # 8,778 subsets of the graphs with an edge, and the edgeless graph's one
    assert checked == 8779
    assert 0 < certified < checked


# -- joins: splits, factors --------------------------------------------------------


def test_join_splits_nested(fixtures):
    splits = join_summand_splits(fixtures["nested"])
    assert ("v", frozenset({"a"})) in splits
    assert ("v", frozenset({"b"})) in splits


def test_join_splits_empty_for_prime(fixtures):
    assert join_summand_splits(fixtures["T1"]) == []
    assert join_summand_splits(fixtures["C"]) == []


def test_prime_factorization_prime(fixtures):
    for name in ("C", "T1", "N1", "G2"):
        tree = prime_factorization(fixtures[name])
        assert tree.n_factors == 1


def test_prime_factorization_joins(fixtures):
    tree = prime_factorization(fixtures["MM"])
    assert sorted(sorted(f) for f in tree.factors) == [["a"], ["b"]]
    assert tree.joints == (("v", (0, 1)),)
    triple = single_vertex("a a b b c c", "+++")
    tree = prime_factorization(triple)
    assert tree.n_factors == 3


def test_prime_factorization_order_independent(corpus3):
    # recompute the factor partition after every storage rotation; the block
    # pass and the interleave scans then start at different rotation slots
    for g in corpus3.graphs[:40]:
        if g.n_edges < 2:
            continue
        want = sorted(sorted(f) for f in prime_factorization(g).factors)
        for name in g.vertex_names:
            h = g.rotated(name, 1)
            got = sorted(sorted(f) for f in prime_factorization(h).factors)
            assert got == want


def test_reassembly_reproduces_graph(corpus3):
    from ribbongraph import induced_subgraph

    for g in corpus3.graphs[:60]:
        if g.n_edges == 0:
            continue
        tree = prime_factorization(g)
        assert frozenset().union(*tree.factors) == frozenset(g.edge_labels)
        for f in tree.factors:
            assert join_summand_splits(induced_subgraph(g, f)) == []


def test_is_join_biseparation(fixtures):
    for g in (fixtures["C"], fixtures["MM"]):
        assert is_join_biseparation(g, set())
        assert is_join_biseparation(g, g.edge_labels)
    assert is_join_biseparation(fixtures["MM"], {"a"})
    assert not is_join_biseparation(fixtures["G2"], {"a"})


def test_join_biseparation_against_bruteforce(corpus3):
    from ribbongraph.duality import subsets_sorted

    for g in corpus3.graphs[:60]:
        accepted = join_biseparations_by_splits(g)
        for sub in subsets_sorted(g.edge_labels):
            assert is_join_biseparation(g, sub) == (sub in accepted)


def test_classify_join_biseparation(fixtures):
    nested = fixtures["nested"]
    assert classify_join_biseparation(nested, {"a"}) == "plane-join"
    moebius = single_vertex("e e", "-")
    loop = single_vertex("f f", "+")
    g = join(moebius, "v", loop, "v")
    assert classify_join_biseparation(g, {"e"}) == "rp2-join"
    assert classify_join_biseparation(fixtures["MM"], {"a"}) == "other-join"
    assert classify_join_biseparation(fixtures["G2"], {"a"}) == "none"


# -- toggling ---------------------------------------------------------------------


def test_toggle_join_summand(fixtures):
    mm = fixtures["MM"]
    assert toggle_join_summand(mm, set(), {"a"}) == frozenset({"a"})
    assert toggle_join_summand(mm, {"a"}, {"a"}) == frozenset()
    assert toggle_join_summand(mm, {"a"}, {"b"}) == frozenset({"a", "b"})
    with pytest.raises(NotAJoinSummand):
        toggle_join_summand(fixtures["G2"], set(), {"a"})


def test_summand_edge_sets(fixtures):
    assert summand_edge_sets(fixtures["T1"]) == [frozenset({"a", "b"})]
    got = summand_edge_sets(fixtures["MM"])
    assert frozenset({"a"}) in got and frozenset({"a", "b"}) in got


def test_toggles_related(fixtures):
    assert toggles_related(fixtures["T1"], {"a"}, {"a"}) == []
    seq = toggles_related(fixtures["T1"], {"a"}, {"b"})
    assert seq == [frozenset({"a", "b"})]
    nested = fixtures["nested"]
    for a in (frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})):
        for b in (frozenset(), frozenset({"a"})):
            assert toggles_related(nested, a, b) is not None


def _toggle_distance(g, a, b):
    """The fewest summand toggles from ``a`` to ``b``, level by level."""
    moves = summand_edge_sets(g)
    level, seen, d = {a}, {a}, 0
    while b not in level:
        level = {s ^ m for s in level for m in moves} - seen
        if not level:
            return None
        seen |= level
        d += 1
    return d


def test_toggles_related_is_shortest(corpus4):
    # a depth-first search reaches every subset too, by longer sequences
    graphs = [g for g in corpus4.graphs if len(summand_edge_sets(g)) > 2]
    longer = 0
    for g in graphs:
        subsets = list(subsets_sorted(g.edge_labels))
        for a in subsets[: 1 + g.n_edges]:  # ∅ and the singletons
            for b in subsets:
                seq = toggles_related(g, a, b)
                want = _toggle_distance(g, a, b)
                assert (seq is None) == (want is None), (g, a, b)
                if seq is not None:
                    assert len(seq) == want, (g, a, b)
                    reached = a
                    for m in seq:
                        reached ^= m
                    assert reached == b
                    longer += want > 1
    assert longer


def test_plane_sets_form_single_orbit(corpus3):
    from ribbongraph.oracles import _orbit

    for g in corpus3.graphs[:60]:
        if g.n_edges == 0:
            continue
        from ribbongraph.duality import subsets_sorted

        plane = {
            s
            for s in subsets_sorted(g.edge_labels)
            if classify_biseparation(g, s).label == "plane"
            and classify_biseparation(g, s).exists
        }
        if plane:
            assert _orbit(g, min(plane, key=sorted)) == plane


# -- the integer component pass against built induced subgraphs -----------------


def test_factor_routes_match_built_subgraphs(corpus3):
    import itertools

    from ribbongraph import induced_subgraph, is_connected

    for g in corpus3.graphs:
        factors = prime_factorization(g).factors
        assert factor_genera(g) == tuple(
            surface_stats(induced_subgraph(g, f)).euler_genus for f in factors
        )
        unions = {
            frozenset().union(*combo)
            for r in range(1, len(factors) + 1)
            for combo in itertools.combinations(factors, r)
        }
        want = sorted(
            (u for u in unions if is_connected(induced_subgraph(g, u))),
            key=lambda s: (len(s), sorted(s)),
        )
        assert summand_edge_sets(g) == want


def test_join_splits_match_built_subgraphs(corpus3):
    # (v, X) is a join split exactly when the two induced sides meet in v
    # alone and the ends of X occupy one arc of the rotation at v
    from ribbongraph import induced_subgraph
    from ribbongraph.duality import subsets_sorted

    for g in corpus3.graphs:
        full = frozenset(g.edge_labels)
        want = set()
        for x in subsets_sorted(full):
            if not x or x == full:
                continue
            shared = set(induced_subgraph(g, x).vertex_names) & set(
                induced_subgraph(g, full - x).vertex_names
            )
            if len(shared) != 1:
                continue
            v = shared.pop()
            inside = [e.label in x for e in g.rotation(v)]
            changes = sum(a != b for a, b in zip(inside, inside[1:] + inside[:1]))
            if changes == 2:
                want.add((v, x))
        assert set(join_summand_splits(g)) == want


# -- the factor tree against the arc-by-arc search --------------------------------


def _arc_summands(g, masks):
    """Connected unions of the given factor masks, by testing all 2^k
    unions, in the order of ``summand_edge_sets``."""
    import itertools

    idx = g._indexed()
    out = [
        sum(combo)
        for r in range(1, len(masks) + 1)
        for combo in itertools.combinations(masks, r)
        if sum(1 for _, es, _ in idx.parts(sum(combo))[0] if es) == 1
    ]
    return sorted(out, key=lambda m: (m.bit_count(), [i for i in range(m.bit_length()) if m >> i & 1]))


def _random_sum(rng, pieces, k):
    """``k + 1`` random pieces glued one by one at a vertex, their ends
    shuffled together: joins where the ends stay apart, else interleaved
    1-sums whose blocks merge into one factor."""
    def fresh(h, i):
        h = h.relabeled({lab: f"p{i}_{lab}" for lab in h.edge_labels})
        return build_graph(
            [(f"w{i}_{n}", r) for n, r in zip(h.vertex_names, h.rotations)], h.signs
        )

    g = fresh(rng.choice(pieces), 0)
    for i in range(1, k + 1):
        h = fresh(rng.choice(pieces), i)
        vp, vq = rng.choice(g.vertex_names), rng.choice(h.vertex_names)
        word = list("P" * g.degree(vp) + "Q" * h.degree(vq))
        rng.shuffle(word)
        g = n_sum(g, h, [(vp, vq, "".join(word), rng.randrange(h.degree(vq)))])
    return g


def test_factor_tree_matches_arc_search():
    import random

    from ribbongraph.decomposition import _factor_tree, _join_splits, _summand_masks
    from ribbongraph.oracles import join_splits_by_arcs, prime_factors_by_arcs
    from ribbongraph.verify import generate

    rng = random.Random(11)
    graphs = []
    for e in range(6, 15):
        for connected in (True, False):
            graphs += generate(e, mode="random", seed=e, count=10, connected=connected,
                               dedup=False).graphs
    pieces = [g for g in generate(3).graphs if g.n_edges]
    graphs += [_random_sum(rng, pieces, rng.randrange(1, 5)) for _ in range(300)]
    several = 0
    for g in graphs:
        idx = g._indexed()
        masks = _factor_tree(idx).masks
        assert list(masks) == prime_factors_by_arcs(g)
        several += len(masks) > 1
        if not is_connected(g):
            continue
        full = (1 << g.n_edges) - 1
        splits = list(_join_splits(idx))
        assert len(splits) == len(set(splits))
        assert set(splits) == set(join_splits_by_arcs(g, full))
        if len(masks) <= 10:
            assert list(_summand_masks(idx)) == _arc_summands(g, masks)
    assert several > 200


def test_factor_tree_at_scale(tmp_path, capsys):
    import time

    from ribbongraph.cli import main
    from ribbongraph.io_text import serialize_graph

    n = 4000
    cycle = build_graph(
        {f"v{i}": [f"e{(i - 1) % n}.2", f"e{i}.1"] for i in range(n)},
        {f"e{i}": "+" for i in range(n)},
    )
    path = tmp_path / "cycle.txt"
    path.write_text(serialize_graph(cycle))
    t0 = time.perf_counter()
    assert main(["factor", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert capsys.readouterr().out.startswith("1 prime factor(s)\n")

    line = build_graph(
        [("v0", ["e0.1"])]
        + [(f"v{i}", [f"e{i - 1}.2", f"e{i}.1"]) for i in range(1, 16)]
        + [("v16", ["e15.2"])],
        {f"e{i}": "+" for i in range(16)},
    )
    t0 = time.perf_counter()
    assert len(summand_edge_sets(line)) == 16 * 17 // 2
    assert time.perf_counter() - t0 < 5.0

    # a chain of triangles x_i x_(i+1) y_i, each glued to the next at x_(i+1)
    k = 100
    rot = {f"x{i}": [] for i in range(k + 1)}
    for i in range(k):
        rot[f"x{i}"] += [f"c{i}.2", f"a{i}.1"]
        rot[f"x{i + 1}"] += [f"a{i}.2", f"b{i}.1"]
        rot[f"y{i}"] = [f"b{i}.2", f"c{i}.1"]
    chain = build_graph(rot, {f"{x}{i}": "+" for i in range(k) for x in "abc"})
    t0 = time.perf_counter()
    tree = prime_factorization(chain)
    assert tree.n_factors == k and len(tree.joints) == k - 1
    assert len(join_summand_splits(chain)) == 2 * (k - 1)
    assert time.perf_counter() - t0 < 5.0


def test_factor_of_long_path_reads_set_bits_only(tmp_path, capsys):
    # 4,000 one-edge factors: naming each factor's edges, or listing its
    # bits, must not scan all 4,000 bit positions
    import time

    from ribbongraph.cli import main
    from ribbongraph.io_text import serialize_graph

    n = 4000
    line = build_graph(
        [("v0", ["e0.1"])]
        + [(f"v{i}", [f"e{i - 1}.2", f"e{i}.1"]) for i in range(1, n)]
        + [(f"v{n}", [f"e{n - 1}.2"])],
        {f"e{i}": "+" for i in range(n)},
    )
    path = tmp_path / "path.txt"
    path.write_text(serialize_graph(line))
    t0 = time.perf_counter()
    assert main(["factor", str(path)]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out.startswith("4000 prime factor(s)\n")
