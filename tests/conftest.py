import random
import sys

import pytest

from ribbongraph import build_graph, is_connected, single_vertex
from ribbongraph.verify import _random_graph, generate


@pytest.fixture(scope="session")
def corpus3():
    return generate(3)


@pytest.fixture(scope="session")
def corpus4():
    return generate(4)


@pytest.fixture(scope="session")
def corpus5():
    return generate(5)


@pytest.fixture(scope="session")
def cross_route_graphs(corpus4):
    """Every graph of ``generate(4)``, then four connected random graphs
    of each edge count from 5 to 9."""
    rng = random.Random(15)
    graphs = list(corpus4.graphs)
    for e in range(5, 10):
        drawn = [g for g in (_random_graph(rng, e) for _ in range(40)) if is_connected(g)]
        graphs += drawn[:4]
    return graphs


@pytest.fixture(scope="session")
def fixtures():
    """The calibration graphs, by short name."""
    return {
        "loop": single_vertex("e e", "+"),
        "moebius": single_vertex("e e", "-"),
        "C": build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "+"}),
        "D": build_graph({"u": ["a.1", "b.1"], "w": ["a.2", "b.2"]}, {"a": "+", "b": "-"}),
        "T1": single_vertex("a b a b", "++"),
        "N1": single_vertex("a b a b", "--"),
        "G2": single_vertex("a b a c b c", "+++"),
        "G2alt": single_vertex("a b c a c b", "+++"),
        "nested": single_vertex("a a b b", "++"),
        "MM": single_vertex("a a b b", "--"),
    }


@pytest.fixture(scope="session")
def with_bare_vertices():
    """A connected three-edge graph of Euler genus 1 with 300 edgeless
    vertices added: every edge subset ``A`` has ``f(A) > 300``."""
    return build_graph(
        {"u": ["a.1", "b.1", "c.1"], "w": ["a.2", "c.2", "b.2"], **{f"x{i}": [] for i in range(300)}},
        {"a": "+", "b": "-", "c": "+"},
    )


@pytest.fixture
def coded(monkeypatch):
    """Every argument ``core.canonical_form`` is called with, in order, from
    every ``ribbongraph`` module that holds it."""
    import ribbongraph.core as core

    calls = []
    original = core.canonical_form

    def spy(g):
        calls.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("ribbongraph") and getattr(module, "canonical_form", None) is original:
            monkeypatch.setattr(module, "canonical_form", spy)
    return calls
