import pytest

from ribbongraph import (
    MoveSearchResult,
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


def test_move_policies_reach_the_same_targets(fixtures):
    triple = single_vertex("a a b b c c", "++-")
    target = partial_dual(triple, {"a", "b"})
    by_unions = move_related(triple, target, policy="unions")
    by_splits = move_related(triple, target, policy="splits")
    assert by_unions.found and by_splits.found
    assert len(by_unions.trace) <= len(by_splits.trace)
    with pytest.raises(ValueError, match="policy"):
        move_related(triple, target, policy="nonsense")


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
    # the search reads summand sets and split sides as edge masks; as labels
    # they must be the named sets, in the label order its traces follow
    from ribbongraph.decomposition import join_summand_splits, summand_edge_sets
    from ribbongraph.moves import _step_sets, binary_summand_sets

    for g in corpus3.graphs:
        idx = g._indexed()
        full = frozenset(g.edge_labels)
        splits = sorted({x for _, x in join_summand_splits(g)}, key=sorted)
        assert binary_summand_sets(g) == splits
        for policy, named in (("splits", splits), ("unions", summand_edge_sets(g))):
            got = [idx.edge_set(m) for m in _step_sets(g, policy)]
            assert got == [x for x in named if x != full], (g, policy)


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
    from ribbongraph.verify import _move_closure, partial_dual_subsets_by_codes

    pairs = 0
    for g in corpus4.graphs:
        if euler_genus(g) > 1:
            continue
        closures = {p: _move_closure(g, 8, p) for p in ("unions", "splits")}
        seen = set()
        for sub in subsets_sorted(g.edge_labels):
            h = partial_dual(g, sub)
            code = h.canonical_code()
            if code in seen:
                continue
            seen.add(code)
            pairs += 1
            assert partial_dual_subsets(g, h) == partial_dual_subsets_by_codes(g, h), (g, sub)
            for policy, depth in closures.items():
                res = move_related(g, h, policy=policy)
                assert res.found == (code in depth), (g, sub, policy)
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
    # every subset a search meets is coded from its integer view, at most
    # once, and ``coded`` counts them with the start's own code
    import ribbongraph.moves as moves
    from ribbongraph.verify import generate

    coded = []
    original = moves._dual_view

    def counting(graph, mask):
        coded.append(mask)
        return original(graph, mask)

    monkeypatch.setattr(moves, "_dual_view", counting)
    searches = unfound = 0
    for g in generate(3).graphs:
        for sub in subsets_sorted(g.edge_labels):
            for policy in ("unions", "splits"):
                coded.clear()
                res = move_related(g, partial_dual(g, sub), policy=policy)
                assert len(set(coded)) == len(coded) and 0 not in coded, (g, sub)
                assert res.coded == len(coded) + 1 <= 2 ** g.n_edges
                searches += 1
                unfound += not res.found
    assert searches > 500 and unfound > 0
    theta = build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["c.2", "b.2", "a.2"]},
        {"a": "+", "b": "+", "c": "+"},
    )
    assert move_related(theta, theta).coded == 1
    assert move_related(theta, single_vertex("a a b b", "++")).coded == 0


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
