"""Exact solvers: cycle search, fixed-pattern search, plain embedding."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.collection import (
    Collection,
    TransversalCertificate,
    rainbow_colouring,
    verify_certificate,
)
from transversals.errors import ColourCountMismatch, SearchExhausted
from transversals.exact import (
    EXHAUSTED,
    FOUND,
    NONE,
    SearchBudget,
    _pattern_schedule,
    find_embedding,
    find_transversal_cycle,
    find_transversal_subgraph,
)
from transversals.gen import GenSpec, dirac_extremal, generate
from transversals.hypergraph import Hypergraph, bits, complete_graph, cycle_graph
from transversals.links import cycle_on, single_edge_link, triangle_link
from transversals.matching import IncrementalMatching, maximum_bipartite_matching
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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.25, 0.6))
def test_agrees_with_brute_force_oracle_at_n7(seed, p):
    C = random_members(7, 7, p, seed)
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


class ReferenceExhausted(Exception):
    pass


def reference_search(n, schedule, masks, base, colours=None, node_limit=20_000):
    """The k = 2 candidate loop of the engine before the neighbour filter:
    every unused vertex of `base`, in its order, is tried and counted as a
    node, and one completing an edge outside `masks` (or, when coloured,
    with no colour of `colours`, or breaking Hall) is rejected after it is
    counted.  Returns (found, assignment, completed edges, nodes)."""
    positions = len(schedule)
    assignment = [-1] * positions
    used = [False] * n
    edge_stack = []
    matcher = None if colours is None else IncrementalMatching(colours.bit_length())
    nodes = 0

    def accept(hosts):
        if matcher is None:
            return masks.issuperset(hosts)
        pushed = [masks.get(host, 0) & colours for host in hosts]
        if not all(pushed):
            return False
        for count, mask in enumerate(pushed):
            if not matcher.push(mask):
                for _ in range(count):
                    matcher.pop()
                return False
        edge_stack.extend(hosts)
        return True

    def dfs(pos):
        nonlocal nodes
        if pos == positions:
            return True
        for v in base:
            if used[v]:
                continue
            nodes += 1
            if nodes > node_limit:
                raise ReferenceExhausted
            hosts = [tuple(sorted((assignment[p], v))) for p in schedule[pos]]
            if accept(hosts):
                assignment[pos] = v
                used[v] = True
                if dfs(pos + 1):
                    return True
                if matcher is not None:
                    for _ in hosts:
                        matcher.pop()
                    del edge_stack[len(edge_stack) - len(hosts):]
                used[v] = False
                assignment[pos] = -1
        return False

    found = dfs(0)
    return found, assignment, edge_stack, nodes


def random_graph(n, p, rng):
    return Hypergraph(n, 2, frozenset(e for e in itertools.combinations(range(n), 2) if rng.random() < p))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(3, 9),
    st.integers(2, 7),
    st.floats(0.2, 0.9),
    st.floats(0.2, 0.8),
    st.booleans(),
)
def test_embedding_agrees_with_unfiltered_reference(seed, n, pattern_n, p, q, shuffled):
    """Skipping non-adjacent candidates changes neither the embedding nor
    the order it is reached in, only the node count, which cannot grow: the
    engine must answer within the reference's own node count."""
    rng = random.Random(seed)
    host = random_graph(n, p, rng)
    pattern = random_graph(min(pattern_n, n), q, rng)
    rank, schedule = _pattern_schedule(pattern)
    base = list(range(n))
    if shuffled:
        random.Random(seed).shuffle(base)
    try:
        found, assignment, _, nodes = reference_search(n, schedule, host.edges, base)
    except ReferenceExhausted:
        return
    expected = [assignment[rank[v]] for v in range(pattern.n)] if found else None
    order = random.Random(seed) if shuffled else None
    assert find_embedding(host, pattern, rng=order, node_limit=max(nodes, 1)) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(3, 8),
    st.integers(2, 7),
    st.floats(0.2, 0.9),
    st.floats(0.2, 0.8),
)
def test_subgraph_search_agrees_with_unfiltered_reference(seed, n, pattern_n, p, q):
    rng = random.Random(seed)
    pattern = random_graph(min(pattern_n, n), q, rng)
    if not pattern.edges:
        pattern = Hypergraph(pattern.n, 2, frozenset({(0, 1)}))
    m = pattern.num_edges
    C = Collection(n, 2, tuple(random_graph(n, p, rng) for _ in range(m)))
    schedule = _pattern_schedule(pattern)[1]
    colours = (1 << m) - 1
    try:
        found, _, edge_stack, nodes = reference_search(n, schedule, C.colour_masks, range(n), colours)
    except ReferenceExhausted:
        return
    res = find_transversal_subgraph(C, pattern, SearchBudget(node_limit=max(nodes, 1)))
    assert res.status == (FOUND if found else NONE)
    assert res.nodes <= nodes
    if found:
        phi = maximum_bipartite_matching([list(bits(C.colour_masks[e])) for e in edge_stack], m)
        target = Hypergraph(n, 2, frozenset(edge_stack))
        assert res.certificate == TransversalCertificate.from_mapping(target, dict(zip(edge_stack, phi)))
