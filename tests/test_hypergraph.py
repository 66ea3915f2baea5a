"""Core hypergraph structure: construction, degrees, induced subgraphs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.errors import InvalidHypergraph
from transversals.hypergraph import (
    Hypergraph,
    all_d_sets,
    complete_graph,
    induced,
    min_degree_d,
    neighbour_sets,
    ordered_isomorphic,
)

from testlib import complete_uniform, cycle_graph, degree_d


def test_edges_are_canonicalised():
    H = Hypergraph.from_edges(4, 2, [(1, 0), (3, 2)])
    assert H.edges == frozenset({(0, 1), (2, 3)})


def test_rejects_bad_edges():
    with pytest.raises(InvalidHypergraph):
        Hypergraph.from_edges(3, 2, [(0, 3)])  # vertex out of range
    with pytest.raises(InvalidHypergraph):
        Hypergraph.from_edges(3, 2, [(1, 1)])  # repeated vertex
    with pytest.raises(InvalidHypergraph):
        Hypergraph.from_edges(3, 2, [(0, 1, 2)])  # wrong arity


def test_complete_graph_degrees():
    K5 = complete_graph(5)
    assert K5.num_edges == 10
    assert min_degree_d(K5, 1) == 4


def test_complete_uniform_counts():
    H = complete_uniform(6, 3)
    assert H.num_edges == 20
    assert min_degree_d(H, 2) == 4  # each pair lies in n-2 triples
    assert min_degree_d(H, 1) == 10


def test_cycle_graph_degree():
    C7 = cycle_graph(7)
    assert C7.num_edges == 7
    assert min_degree_d(C7, 1) == 2


def test_degree_d_matches_brute_force():
    H = Hypergraph.from_edges(5, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 4)])
    assert degree_d(H, (0, 1)) == 2
    assert degree_d(H, (1,)) == 3
    assert degree_d(H, (3, 4)) == 0


def test_induced_relabels_to_range():
    H = complete_graph(6)
    sub = induced(H, [1, 3, 5])
    assert sub.n == 3
    assert sub.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_all_d_sets_enumeration():
    assert list(all_d_sets(4, 2)) == list(itertools.combinations(range(4), 2))


def test_neighbour_sets_graph():
    H = Hypergraph.from_edges(4, 2, [(0, 1), (1, 2)])
    nbrs = neighbour_sets(H)
    assert nbrs[1] == {0, 2}
    assert nbrs[3] == set()


def test_ordered_isomorphic_is_index_pattern_equality():
    a = Hypergraph.from_edges(3, 2, [(0, 1)])
    b = Hypergraph.from_edges(3, 2, [(0, 1)])
    c = Hypergraph.from_edges(3, 2, [(1, 2)])
    assert ordered_isomorphic(a, b)
    assert not ordered_isomorphic(a, c)


def test_json_round_trip():
    H = Hypergraph.from_edges(5, 3, [(0, 1, 2), (2, 3, 4)])
    assert Hypergraph.from_json(H.to_json()) == H


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 8), st.data())
def test_min_degree_never_exceeds_any_vertex_degree(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    H = Hypergraph.from_edges(n, 2, chosen)
    md = min_degree_d(H, 1)
    assert all(degree_d(H, (v,)) >= md for v in range(n))
    assert any(degree_d(H, (v,)) == md for v in range(n))


# Messages recorded before 2-uniform validation became a single pass; each
# malformed-edge kind must still raise the same error.
MALFORMED_EDGES = [
    (2, (1,), "edge (1,) is not 2-uniform"),
    (2, (1, 2, 3), "edge (1, 2, 3) is not 2-uniform"),
    (2, (2, 2), "edge (2, 2) is not strictly increasing"),
    (2, (3, 1), "edge (3, 1) is not strictly increasing"),
    (2, (-1, 2), "edge (-1, 2) out of range [0, 5)"),
    (2, (2, 5), "edge (2, 5) out of range [0, 5)"),
    (3, (1, 2), "edge (1, 2) is not 3-uniform"),
    (3, (1, 2, 3, 4), "edge (1, 2, 3, 4) is not 3-uniform"),
    (3, (1, 1, 2), "edge (1, 1, 2) is not strictly increasing"),
    (3, (1, 3, 2), "edge (1, 3, 2) is not strictly increasing"),
    (3, (-1, 1, 2), "edge (-1, 1, 2) out of range [0, 5)"),
    (3, (1, 2, 5), "edge (1, 2, 5) out of range [0, 5)"),
]


@pytest.mark.parametrize("k, edge, message", MALFORMED_EDGES)
def test_malformed_edge_messages(k, edge, message):
    with pytest.raises(InvalidHypergraph) as exc:
        Hypergraph(5, k, frozenset({edge}))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "k, edge, message",
    [
        (2, (7,), "edge (7,) is not 2-uniform"),
        (2, (29, 29), "edge (29, 29) is not strictly increasing"),
        (2, (12, 3), "edge (12, 3) is not strictly increasing"),
        (2, (-1, 4), "edge (-1, 4) out of range [0, 30)"),
        (2, (28, 30), "edge (28, 30) out of range [0, 30)"),
        (3, (7, 8), "edge (7, 8) is not 3-uniform"),
        (3, (5, 5, 9), "edge (5, 5, 9) is not strictly increasing"),
        (3, (2, 9, 4), "edge (2, 9, 4) is not strictly increasing"),
        (3, (-2, 3, 4), "edge (-2, 3, 4) out of range [0, 30)"),
        (3, (27, 28, 30), "edge (27, 28, 30) out of range [0, 30)"),
    ],
)
def test_one_bad_edge_among_many_is_named(k, edge, message):
    valid = frozenset(itertools.combinations(range(30), k))
    with pytest.raises(InvalidHypergraph) as exc:
        Hypergraph(30, k, valid | {edge})
    assert str(exc.value) == message

