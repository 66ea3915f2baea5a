"""The cached bitset views (`Hypergraph.adjacency`, `Collection.colour_masks`)
and every path routed through them, against brute-force references."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.collection import Collection, threshold_hypergraph
from transversals.errors import InvalidInput
from transversals.gen import dirac_extremal
from transversals.hypergraph import (
    Hypergraph,
    bits,
    mask_of,
    min_degree_d,
    neighbour_sets,
    transpose,
)

from testlib import complete_uniform, cycle_graph


@st.composite
def collections(draw, k):
    n = draw(st.integers(k, 7))
    m = draw(st.integers(1, 5))
    k_sets = list(combinations(range(n), k))
    members = []
    for _ in range(m):
        drawn = draw(st.sets(st.sampled_from(k_sets)))
        # a drawn set is the member or, for dense members, its complement
        edges = set(k_sets) - drawn if draw(st.booleans()) else drawn
        members.append(Hypergraph(n, k, frozenset(edges)))
    return Collection(n, k, tuple(members))


def brute_min_degree(H, d):
    return min(
        sum(1 for e in H.edges if set(S) <= set(e))
        for S in combinations(range(H.n), d)
    )


@settings(max_examples=60, deadline=None)
@given(collections(2))
def test_min_degree_k2_matches_brute_force(C):
    for H in C.members:
        assert min_degree_d(H, 1) == brute_min_degree(H, 1)


@settings(max_examples=40, deadline=None)
@given(collections(3))
def test_min_degree_k3_matches_brute_force(C):
    for H in C.members:
        for d in (1, 2):
            assert min_degree_d(H, d) == brute_min_degree(H, d)


@settings(max_examples=60, deadline=None)
@given(collections(2))
def test_adjacency_matches_edges(C):
    for H in C.members:
        as_sets = neighbour_sets(H)
        for v, nbrs in enumerate(H.adjacency):
            expected = {u for e in H.edges if v in e for u in e if u != v}
            assert set(bits(nbrs)) == expected == as_sets[v]


@settings(max_examples=60, deadline=None)
@given(st.one_of(collections(2), collections(3)), st.data())
def test_threshold_hypergraph_matches_brute_force(C, data):
    cols = data.draw(st.sets(st.integers(0, C.m - 1), min_size=1))
    for theta in range(len(cols) + 1):
        expected = {
            e
            for e in combinations(range(C.n), C.k)
            if sum(e in C.members[c].edges for c in cols) >= theta
        }
        assert threshold_hypergraph(C, cols, theta).edges == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(collections(2), collections(3)))
def test_colours_of_and_union_match_brute_force(C):
    # the colour bitset of every k-set, and the union as the index's keys
    for e in combinations(range(C.n), C.k):
        expected = sum(1 << i for i, H in enumerate(C.members) if e in H.edges)
        assert C.colour_masks.get(e, 0) == expected
    assert set(C.colour_masks) == frozenset().union(*(H.edges for H in C.members))


@given(st.sets(st.integers(0, 200)))
def test_bits_inverts_mask_of(vertices):
    assert list(bits(mask_of(vertices))) == sorted(vertices)


def test_views_are_lazy_and_cached():
    H = cycle_graph(5)
    C = Collection(5, 2, (H, H))
    assert "adjacency" not in vars(H) and "colour_masks" not in vars(C)
    assert H.adjacency is H.adjacency
    assert C.colour_masks is C.colour_masks
    with pytest.raises(TypeError):
        C.colour_masks[(0, 1)] = 0


def test_adjacency_requires_graph():
    with pytest.raises(InvalidInput):
        complete_uniform(4, 3).adjacency


def test_threshold_rejects_colours_out_of_range():
    C = Collection(4, 2, (cycle_graph(4),))
    with pytest.raises(InvalidInput):
        threshold_hypergraph(C, [1], 1)
    with pytest.raises(InvalidInput):
        threshold_hypergraph(C, [-1], 1)


def reference_colour_masks(C):
    """The per-edge build: one pass over every member's edges."""
    masks = {}
    for i, H in enumerate(C.members):
        for e in H.edges:
            masks[e] = masks.get(e, 0) | 1 << i
    return masks


def reference_union_adjacency(C):
    adj = [0] * C.n
    for H in C.members:
        for u, v in H.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def random_graph(n, p, rng):
    return Hypergraph(n, 2, frozenset(e for e in combinations(range(n), 2) if rng.random() < p))


# each side of every padding width the k = 2 transpose uses (8, 16, 32, 64,
# 128, 256), with fewer and with more members than vertices
SIZES = [1, 2, 3, 8, 9, 16, 17, 64, 65, 129]
SHAPES = [shape for a, b in zip(SIZES, SIZES[1:]) for shape in ((a, b), (b, a))]


@pytest.mark.parametrize("n,m", SHAPES + [(1, 1), (9, 9), (65, 65)])
def test_k2_colour_masks_match_per_edge_build(n, m):
    rng = random.Random(f"{n}/{m}")
    # half, empty, sparse and complete members, then random densities; member
    # 0 is half full, so some keys are its edge tuples and some are fresh
    densities = [0.5, 0.0, 0.05, 1.0] + [rng.random() for _ in range(m)]
    C = Collection(n, 2, tuple(random_graph(n, densities[i], rng) for i in range(m)))
    assert dict(C.colour_masks) == reference_colour_masks(C)
    assert C.union_adjacency == reference_union_adjacency(C)


@pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (5, 0), (70, 0)])
def test_k2_views_of_degenerate_collections(n, m):
    C = Collection(n, 2, tuple(Hypergraph(n, 2, frozenset()) for _ in range(m)))
    assert dict(C.colour_masks) == {}
    assert C.union_adjacency == (0,) * n


@pytest.mark.parametrize("n", [6, 9, 17])
def test_k2_colour_masks_of_a_repeated_member(n):
    C = dirac_extremal(n)
    assert len({id(H) for H in C.members}) < C.m  # one object, several colours
    assert dict(C.colour_masks) == reference_colour_masks(C)
    assert C.union_adjacency == reference_union_adjacency(C)


def brute_transpose(rows, width):
    return [sum((rows[i] >> j & 1) << i for i in range(len(rows))) for j in range(width)]


@st.composite
def bit_matrices(draw):
    width = draw(st.integers(0, 140))
    rows = draw(st.lists(st.integers(0, 2**width - 1), max_size=width))
    return rows, width


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_transpose_matches_definition_and_inverts(matrix):
    rows, width = matrix
    (cols,) = transpose([rows], width)
    assert len(cols) == width  # one entry per column, whatever the row count
    assert cols == brute_transpose(rows, width)
    (back,) = transpose([cols], width)
    assert back == rows + [0] * (width - len(rows))  # missing rows read as zero


def test_transpose_of_several_matrices_and_zero_rows():
    a, b = [0b101, 0b011], [0, 0, 0]
    assert list(transpose([a, b, []], 3)) == [[0b11, 0b10, 0b01], [0, 0, 0], [0, 0, 0]]
    assert list(transpose([], 5)) == []
    assert list(transpose([[]], 0)) == [[]]


@pytest.mark.parametrize("rows,width", [
    ([1 << 5], 5),  # a bit at the width: it would be column 5 of 5
    ([1 << 9], 5),  # past the power-of-two padding too
    ([1 << 64], 64),
    ([-1], 5),
    ([0] * 6, 5),  # more rows than columns
])
def test_transpose_rejects_rows_outside_the_matrix(rows, width):
    with pytest.raises(InvalidInput):
        list(transpose([rows], width))


def reference_colour_rows(C):
    rows = [[0] * C.n for _ in range(C.n)]
    for i, H in enumerate(C.members):
        for u, v in H.edges:
            rows[u][v] |= 1 << i
            rows[v][u] |= 1 << i
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n,m", [(9, 3), (3, 9), (16, 16), (17, 65), (65, 17), (5, 0), (0, 0), (0, 4)])
def test_k2_colour_rows_are_symmetric_and_agree_with_colour_masks(n, m):
    """`colour_rows[u][v]` is the colour bitset of uv for every pair, 0 on
    non-edges and the diagonal, with n rows of n entries for m above, below
    and at n, and for m = 0."""
    rng = random.Random(f"rows/{n}/{m}")
    C = Collection(n, 2, tuple(random_graph(n, rng.random(), rng) for _ in range(m)))
    rows = C.colour_rows
    assert rows == reference_colour_rows(C)
    assert len(rows) == n and all(len(row) == n for row in rows)
    masks = C.colour_masks
    for u, v in product(range(n), repeat=2):
        assert rows[u][v] == rows[v][u] == masks.get((min(u, v), max(u, v)), 0)
    assert C.colour_rows is rows  # cached
    with pytest.raises(InvalidInput):
        Collection(4, 3, (complete_uniform(4, 3),)).colour_rows
