import pytest

from ribbongraph import (
    InvariantViolation,
    MoveSearchResult,
    MoveStep,
    MoveTrace,
    NotAJoinSummand,
    build_graph,
    dual_join_summand_move,
    geometric_dual,
    is_equivalent,
    join_partial_dual_distributes,
    move_related,
    partial_dual,
    single_vertex,
)
from ribbongraph.duality import subsets_sorted
from ribbongraph.topology import euler_genus


def test_move_on_twisted_join(fixtures):
    mm = fixtures["MM"]
    out = dual_join_summand_move(mm, {"a"})
    assert is_equivalent(out, mm)
    assert euler_genus(out) == 2


def test_move_on_nested_bouquet(fixtures):
    out = dual_join_summand_move(fixtures["nested"], {"a"})
    assert euler_genus(out) == 0
    assert out.n_vertices == 2  # the loop became a pendant edge


def test_move_rejects_prime(fixtures):
    with pytest.raises(NotAJoinSummand):
        dual_join_summand_move(fixtures["T1"], {"a"})
    with pytest.raises(NotAJoinSummand):
        dual_join_summand_move(fixtures["MM"], {"a", "b"})


def test_move_is_a_partial_dual(fixtures):
    mm = fixtures["MM"]
    assert is_equivalent(dual_join_summand_move(mm, {"b"}), partial_dual(mm, {"b"}))


def test_related_equal_graphs(fixtures):
    res = move_related(fixtures["C"], fixtures["C"])
    assert res.found and len(res.trace) == 0
    assert res.trace.codes == (fixtures["C"].canonical_code(),)


def test_related_geometric_duals():
    # theta graph vs its dual (a three-loop plane bouquet)
    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    dual = geometric_dual(theta)
    assert not is_equivalent(theta, dual)
    res = move_related(theta, dual)
    assert res.found
    assert [s.kind for s in res.trace.steps] == ["geometric-dual"]


def test_related_replay(fixtures):
    nested = fixtures["nested"]
    target = partial_dual(nested, {"a"})
    res = move_related(nested, target)
    assert res.found
    assert is_equivalent(res.trace.replay(nested), target)


def test_unrelated_closes(fixtures):
    res = move_related(fixtures["C"], fixtures["D"])
    assert not res.found and res.closed


def test_bound_reporting():
    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    res = move_related(theta, geometric_dual(theta), bound=0)
    assert not res.found and not res.closed


def test_related_all_plane_pairs(corpus3):
    for g in corpus3.graphs:
        if g.n_edges == 0 or euler_genus(g) != 0:
            continue
        for sub in subsets_sorted(g.edge_labels):
            d = partial_dual(g, sub)
            if euler_genus(d) != 0:
                continue
            res = move_related(g, d)
            assert res.found, (g, sub)
            assert len(res.trace) <= 8


def test_search_steps_are_single_moves(corpus4):
    # a search steps by one move at a time: every summand step of a trace
    # duals one side of a join split of the graph it acts on, over every
    # genus-<=1 graph of generate(4) against each of its same-genus
    # partial duals
    from ribbongraph.oracles import _illegal_steps

    # the loop l is a prime factor but no side of a split (see below), so
    # its dual takes two moves
    g = build_graph(
        {"u": ["x.1"], "v": ["x.2", "l.1", "y.1", "l.2"], "w": ["y.2"]},
        {"x": "+", "y": "+", "l": "+"},
    )
    res = move_related(g, partial_dual(g, {"l"}))
    assert [sorted(s.edges) for s in res.trace.steps] == [["l", "x"], ["x"]]
    assert _illegal_steps(g, res.trace) == []
    shortcut = MoveTrace((MoveStep("dual-join-summand", frozenset({"l"})),), ())
    assert _illegal_steps(g, shortcut) == list(shortcut.steps)
    steps = 0
    for g in corpus4.graphs:
        gamma = euler_genus(g)
        if gamma > 1:
            continue
        for sub in subsets_sorted(g.edge_labels):
            h = partial_dual(g, sub)
            if euler_genus(h) != gamma:
                continue
            res = move_related(g, h)
            assert res.found and _illegal_steps(g, res.trace) == [], (g, sub)
            steps += sum(s.kind == "dual-join-summand" for s in res.trace.steps)
    assert steps > 1000


def test_interleaved_factor_is_not_a_single_move():
    # x and y interleave with the loop l at the middle vertex, so l alone is
    # a prime factor but not one side of any join split
    g = build_graph(
        {"u": ["x.1"], "v": ["x.2", "l.1", "y.1", "l.2"], "w": ["y.2"]},
        {"x": "+", "y": "+", "l": "+"},
    )
    from ribbongraph.decomposition import prime_factorization
    from ribbongraph.moves import binary_summand_sets

    assert frozenset({"l"}) in prime_factorization(g).factors
    legal = binary_summand_sets(g)
    assert frozenset({"l"}) not in legal
    assert frozenset({"l", "x"}) in legal and frozenset({"l", "y"}) in legal
    with pytest.raises(NotAJoinSummand):
        dual_join_summand_move(g, {"l"})
    # the same dual is still reachable as a composition of two legal moves
    via = dual_join_summand_move(dual_join_summand_move(g, {"l", "x"}), {"x"})
    assert is_equivalent(via, partial_dual(g, {"l"}))


def test_step_masks_are_the_named_sets_in_label_order(corpus3):
    # the search reads split sides as edge masks; as labels they must be
    # the named sets, in the label order its traces follow
    from ribbongraph.decomposition import _factor_tree, join_summand_splits
    from ribbongraph.moves import _node_steps, binary_summand_sets

    for g in corpus3.graphs:
        idx = g._indexed()
        splits = sorted({x for _, x in join_summand_splits(g)}, key=sorted)
        assert binary_summand_sets(g) == splits
        steps = _node_steps(idx, _factor_tree(idx), 0)
        assert [idx.edge_set(m) for m in steps] == splits, g


def test_distributivity(fixtures):
    moebius = single_vertex("e e", "-")
    other = single_vertex("f f", "-")
    for sub in (set(), {"e"}, {"f"}, {"e", "f"}):
        assert join_partial_dual_distributes(moebius, "v", other, "v", sub)


def test_distributivity_with_larger_side(fixtures):
    p = fixtures["T1"]
    q = single_vertex("z z", "-")
    for sub in subsets_sorted(["a", "b", "z"]):
        assert join_partial_dual_distributes(p, "v", q, "v", sub)


def test_relate_routes_agree_with_the_built_oracles(corpus4):
    # every connected graph with up to 4 edges of Euler genus 0 or 1 against
    # each of its distinct partial duals: the count-filtered sweep against
    # building every subset, the subset-keyed search against the closure
    # over built graphs
    from ribbongraph.duality import partial_dual_subsets
    from ribbongraph.oracles import _move_closure, partial_dual_subsets_by_codes

    pairs = 0
    for g in corpus4.graphs:
        if euler_genus(g) > 1:
            continue
        depth = _move_closure(g, 8, "splits")
        seen = set()
        for sub in subsets_sorted(g.edge_labels):
            h = partial_dual(g, sub)
            code = h.canonical_code()
            if code in seen:
                continue
            seen.add(code)
            pairs += 1
            assert partial_dual_subsets(g, h) == partial_dual_subsets_by_codes(g, h), (g, sub)
            res = move_related(g, h)
            assert res.found == (code in depth), (g, sub)
            if res.found:
                assert len(res.trace) == depth[code]
                assert is_equivalent(res.trace.replay(g), h)
            else:
                assert res.closed
                assert res.reached == len(depth)
            assert res.expanded <= res.reached
    assert pairs > 1000


def test_search_counts():
    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    assert move_related(theta, theta).reached == 1
    res = move_related(theta, geometric_dual(theta))
    assert (res.expanded, res.reached) == (1, 2)
    assert move_related(theta, single_vertex("a a b b", "++")).expanded == 0
    assert MoveSearchResult(None, True, 0).reached == 0


def test_search_codes_each_subset_once(monkeypatch):
    # a subset is coded only to tell its class from a node with the same
    # vertex degrees and face lengths, or from the target, and for the
    # trace; each at most once, from its integer view, and ``coded`` counts
    # them with the start's own code when it is read
    import ribbongraph.moves as moves
    from ribbongraph.oracles import move_related_by_node_views
    from ribbongraph.verify import generate

    coded = []
    original = moves._dual_view

    def counting(graph, mask):
        coded.append(mask)
        return original(graph, mask)

    monkeypatch.setattr(moves, "_dual_view", counting)
    searches = unfound = fewer = 0
    for g in generate(3).graphs:
        for sub in subsets_sorted(g.edge_labels):
            h = partial_dual(g, sub)
            coded.clear()
            res = move_related(g, h)
            by_views = move_related_by_node_views(g, h)
            assert len(set(coded)) == len(coded) and 0 not in coded, (g, sub)
            assert len(coded) <= res.coded <= len(coded) + 1
            assert res.coded <= by_views.coded <= 2 ** g.n_edges
            fewer += res.coded < by_views.coded
            searches += 1
            unfound += not res.found
    assert searches > 500 and unfound > 0 and fewer > 100
    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    assert move_related(theta, theta).coded == 1
    assert move_related(theta, single_vertex("a a b b", "++")).coded == 0
    # the dual's degrees are not theta's, so only the dual and, for the
    # trace, theta itself are coded
    assert move_related(theta, geometric_dual(theta)).coded == 2


def test_steps_come_from_the_start_graphs_factors(monkeypatch, corpus4):
    # every node of a search is a union of G's prime factors, and its
    # steps, read off one walk pass of the node through G's factor tree,
    # are the split sides read off its own view
    import ribbongraph.moves as moves
    from ribbongraph.decomposition import _factor_tree, _split_sides
    from ribbongraph.duality import _dual_view

    nodes = 0
    for g in corpus4.graphs:
        idx = g._indexed()
        tree = _factor_tree(idx)
        for s in range(1 << len(tree.masks)):
            mask = sum(m for i, m in enumerate(tree.masks) if s >> i & 1)
            want = list(_split_sides(_dual_view(g, mask)))
            assert moves._node_steps(idx, tree, mask) == want, (g, mask)
            nodes += 1
    assert nodes > 2000

    # so a search reads the factor tree of G alone, builds a view only to
    # code a subset and runs no component pass per expanded node: at most
    # one, for G, as H's connectivity is read before the search
    from ribbongraph.core import _Indexed

    trees, views, passes = [], [], []
    monkeypatch.setattr(moves, "_factor_tree", _spy(moves._factor_tree, trees))
    monkeypatch.setattr(moves, "_dual_view", _spy(moves._dual_view, views))
    monkeypatch.setattr(_Indexed, "parts", _spy(_Indexed.parts, passes))
    # a torus bouquet with a plane loop: every search that does not reach
    # it expands its whole closure
    h = single_vertex("a b a b c c d d", "++++")
    h._indexed().components
    expanded = 0
    for g in corpus4.by_edges(4):
        g = g.reordered(g.vertex_names)  # a fresh view, no pass run yet
        trees.clear()
        views.clear()
        passes.clear()
        res = move_related(g, h)
        assert all(args == (g._indexed(),) for args in trees), g
        assert len(views) <= res.coded
        assert [args[0] for args in passes] in ([], [g._indexed()]), g
        expanded += res.expanded
    assert expanded > 1500


def _fields(res):
    return res.trace, res.closed, res.max_depth, res.expanded, res.reached


def _spy(fn, log):
    def spy(*args):
        log.append(args)
        return fn(*args)

    return spy


def test_listed_subsets_are_the_target(fixtures, coded):
    # with the listing of partial_dual_subsets, the search recognises the
    # target by subset and codes no subset to find it
    from ribbongraph.duality import partial_dual_subsets
    from ribbongraph.oracles import move_related_by_node_views

    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    dual = geometric_dual(theta)
    listed = partial_dual_subsets(theta, dual)
    coded.clear()
    res = move_related(theta, dual, subsets=listed)
    # theta itself, for the trace; the dual's code is the target's
    assert len(coded) == 1 and res.coded == 1
    assert _fields(res) == _fields(move_related_by_node_views(theta, dual))
    nested = fixtures["nested"]
    with pytest.raises(InvariantViolation, match="listed subset"):
        move_related(nested, partial_dual(nested, {"a"}), subsets=[{"b"}, set()])


def test_search_names_no_graph(monkeypatch):
    # a search codes partial duals from their views, and reads each node's
    # steps off G's factor tree, so it names no partial dual; a view's split
    # sides are those of the named partial dual, read from the view its
    # names translate into
    import ribbongraph.duality as duality
    import ribbongraph.moves as moves
    from ribbongraph.core import _Indexed
    from ribbongraph.decomposition import _split_sides
    from ribbongraph.verify import generate

    graphs = generate(3).graphs
    for g in graphs:
        idx = g._indexed()
        for mask in range(1 << idx.ne):
            named = partial_dual(g, idx.edge_set(mask))
            want = _split_sides(_Indexed.of(named))
            assert _split_sides(duality._dual_view(g, mask)) == want
    pairs = [(g, partial_dual(g, sub)) for g in graphs for sub in subsets_sorted(g.edge_labels)]
    named = []
    original = duality.partial_dual

    def spy(graph, edges):
        named.append((graph, edges))
        return original(graph, edges)

    monkeypatch.setattr(duality, "partial_dual", spy)
    monkeypatch.setattr(moves, "partial_dual", spy)
    found = 0
    for g, h in pairs:
        found += move_related(g, h).found
    assert named == [] and found > 400


def test_negative_bound_is_refused(fixtures):
    with pytest.raises(ValueError, match="bound"):
        move_related(fixtures["C"], fixtures["C"], bound=-1)


def test_large_search_is_refused():
    # the 21-edge cycle and its dual (two vertices, 21 parallel edges) are
    # both plane and inequivalent, so a search over 2^21 subsets would run
    import time

    from ribbongraph import RibbonGraphError

    n = 21
    g = build_graph(
        [(f"v{i}", [f"e{i}.1", f"e{(i + 1) % n}.2"]) for i in range(n)],
        {f"e{i}": "+" for i in range(n)},
    )
    h = geometric_dual(g)
    t0 = time.perf_counter()
    with pytest.raises(RibbonGraphError, match="move search over 21 edges"):
        move_related(g, h)
    assert time.perf_counter() - t0 < 1.0


def test_oversized_pair_is_refused_before_coding(coded):
    # a 600-edge cycle and its dual (two vertices, 600 parallel edges) have
    # different vertex degrees, so they cannot be equivalent: the search is
    # refused before either graph is coded, which would take seconds
    import time

    from ribbongraph import RibbonGraphError

    def cycle(n):
        return build_graph(
            [(f"v{i}", [f"e{i}.1", f"e{(i + 1) % n}.2"]) for i in range(n)],
            {f"e{i}": "+" for i in range(n)},
        )

    g = cycle(600)
    h = geometric_dual(g)
    t0 = time.perf_counter()
    with pytest.raises(RibbonGraphError, match="move search over 600 edges"):
        move_related(g, h)
    assert time.perf_counter() - t0 < 1.0 and coded == []
    # an oversized pair that may be equivalent is coded, and an equivalent
    # one keeps its empty trace
    g = cycle(24)
    res = move_related(g, g.reordered(tuple(reversed(g.vertex_names))))
    assert res.found and len(res.trace) == 0 and len(coded) == 2
