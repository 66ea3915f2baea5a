"""Exact solvers: cycle search, fixed-pattern search, plain embedding."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.collection import Collection, rainbow_colouring, verify_certificate
from transversals.errors import ColourCountMismatch, SearchExhausted
from transversals.exact import (
    EXHAUSTED,
    FOUND,
    NONE,
    SearchBudget,
    find_embedding,
    find_transversal_cycle,
    find_transversal_subgraph,
)
from transversals.gen import GenSpec, dirac_extremal, generate
from transversals.hypergraph import Hypergraph, complete_graph, cycle_graph
from transversals.links import cycle_on, single_edge_link, triangle_link
from transversals.rng import rng_for

LINK21 = single_edge_link(2, 1)


def random_members(n, m, p, seed):
    rng = rng_for(seed, "exact-test")
    members = []
    for _ in range(m):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        members.append(Hypergraph.from_edges(n, 2, edges))
    return Collection(n, 2, tuple(members))


def oracle_has_transversal_cycle(C):
    """Two-phase brute force: every Hamilton cycle of the union, then an
    exact rainbow-colourability check for each."""
    n = C.n
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        edges = [tuple(sorted((seq[i], seq[(i + 1) % n]))) for i in range(n)]
        if len(set(edges)) != n:
            continue
        target = Hypergraph.from_edges(n, 2, edges)
        if rainbow_colouring(C, target, range(C.m)) is not None:
            return True
    return False


def test_complete_collection_found():
    n = 8
    C = Collection(n, 2, tuple(complete_graph(n) for _ in range(n)))
    res = find_transversal_cycle(C, LINK21)
    assert res and res.status == FOUND
    assert verify_certificate(C, res.certificate, LINK21)


def test_cycle_members_found_uniquely():
    n = 6
    C = Collection(n, 2, tuple(cycle_graph(n) for _ in range(n)))
    res = find_transversal_cycle(C, LINK21)
    assert res.status == FOUND


def test_colour_count_mismatch_raises():
    C = Collection(6, 2, tuple(complete_graph(6) for _ in range(5)))
    with pytest.raises(ColourCountMismatch):
        find_transversal_cycle(C, LINK21)


def test_definitive_none_on_disconnected_union():
    n = 6
    # members only see a 4-clique on {0..3}: vertices 4, 5 are isolated
    blob = Hypergraph.from_edges(n, 2, itertools.combinations(range(4), 2))
    C = Collection(n, 2, tuple(blob for _ in range(n)))
    res = find_transversal_cycle(C, LINK21)
    assert res.status == NONE and not res


def test_exhausted_on_tiny_budget():
    C = generate(GenSpec(n=10, k=2, m=10, delta_fraction=0.6, family="random", seed=0))
    res = find_transversal_cycle(C, LINK21, SearchBudget(node_limit=3))
    assert res.status == EXHAUSTED


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([5, 6]), st.floats(0.25, 0.6))
def test_agrees_with_brute_force_oracle(seed, n, p):
    C = random_members(n, n, p, seed)
    res = find_transversal_cycle(C, LINK21)
    assert res.status in (FOUND, NONE)
    assert (res.status == FOUND) == oracle_has_transversal_cycle(C)
    if res.status == FOUND:
        assert verify_certificate(C, res.certificate, LINK21)


def test_dirac_extremal_is_definitive_none():
    C = dirac_extremal(6)
    res = find_transversal_cycle(C, LINK21)
    assert res.status == NONE


def test_triangle_link_on_complete_members():
    n = 6
    C = Collection(n, 2, tuple(complete_graph(n) for _ in range(2 * n)))
    res = find_transversal_cycle(C, triangle_link())
    assert res.status == FOUND
    assert verify_certificate(C, res.certificate, triangle_link())


def test_tight_3_uniform_cycle_search():
    n = 6
    from transversals.hypergraph import complete_uniform

    link = single_edge_link(3, 2)
    C = Collection(n, 3, tuple(complete_uniform(n, 3) for _ in range(n)))
    res = find_transversal_cycle(C, link)
    assert res.status == FOUND
    assert verify_certificate(C, res.certificate, link)


def test_deterministic_across_runs():
    C = generate(GenSpec(n=10, k=2, m=10, delta_fraction=0.5, family="random", seed=4))
    a = find_transversal_cycle(C, LINK21)
    b = find_transversal_cycle(C, LINK21)
    assert a.status == b.status == FOUND
    assert a.certificate == b.certificate and a.nodes == b.nodes


def test_subgraph_search_positive_and_negative():
    n = 7
    # pattern: disjoint union of a 4-cycle and a triangle
    pattern = Hypergraph.from_edges(
        n, 2, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]
    )
    C = Collection(n, 2, tuple(complete_graph(n) for _ in range(7)))
    res = find_transversal_subgraph(C, pattern)
    assert res.status == FOUND
    assert verify_certificate(C, res.certificate)
    # bipartite members contain no triangle at all
    bip = Hypergraph.from_edges(n, 2, [(u, v) for u in range(3) for v in range(3, 7)])
    C2 = Collection(n, 2, tuple(bip for _ in range(7)))
    res2 = find_transversal_subgraph(C2, pattern)
    assert res2.status == NONE


def test_find_embedding_basic():
    host = complete_graph(6)
    pattern = cycle_on(triangle_link(), 6)
    emb = find_embedding(host, pattern)
    assert emb is not None and len(set(emb)) == 6
    # C_6 has max degree 2; the square of a cycle needs degree 4
    assert find_embedding(cycle_graph(6), pattern) is None


def test_find_embedding_tells_exhaustion_from_absence():
    pattern = cycle_on(triangle_link(), 6)
    for host in (complete_graph(6), cycle_graph(6)):  # embeds / does not
        with pytest.raises(SearchExhausted):
            find_embedding(host, pattern, node_limit=1)
    assert find_embedding(complete_graph(6), pattern) is not None
    assert find_embedding(cycle_graph(6), pattern) is None


def test_node_count_reported():
    C = generate(GenSpec(n=8, k=2, m=8, delta_fraction=0.6, family="random", seed=1))
    res = find_transversal_cycle(C, LINK21)
    assert res.nodes > 0 and res.elapsed >= 0
