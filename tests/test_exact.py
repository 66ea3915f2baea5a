"""Exact solvers: cycle search, fixed-pattern search, plain embedding."""

import gc
import itertools
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals import exact
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
from transversals.hypergraph import Hypergraph, complete_graph, cycle_graph
from transversals.links import cycle_counts, cycle_on, pillar_link, single_edge_link, triangle_link
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


def twin_graph(n, classes, p, rng):
    """A random graph on `classes` vertex classes, blown up to n vertices
    (vertex v in class v % classes): vertices of one class are twins, so
    many partial embeddings reach the same dead state."""
    quotient = random_graph(classes, p, rng).edges | {(c, c) for c in range(classes) if rng.random() < p}
    return Hypergraph(n, 2, frozenset(
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if tuple(sorted((u % classes, v % classes))) in quotient
    ))


def repeated_members(n, m, p, types, rng):
    """m members; with `types` > 0 each is one of that many random graphs,
    so that colours bind (Hall) and equal colour bitsets recur."""
    if not types:
        return Collection(n, 2, tuple(random_graph(n, p, rng) for _ in range(m)))
    graphs = [random_graph(n, p, rng) for _ in range(types)]
    return Collection(n, 2, tuple(rng.choice(graphs) for _ in range(m)))


def memo_free(search, *args):
    """`search` with the dead-state memo recording nothing."""
    with mock.patch.object(exact, "_MEMO_CAP", 0):
        return search(*args)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(3, 9),
    st.integers(2, 7),
    st.floats(0.2, 0.9),
    st.floats(0.2, 0.8),
    st.booleans(),
    st.sampled_from([0, 2, 3]),
)
def test_embedding_agrees_with_unfiltered_reference(seed, n, pattern_n, p, q, shuffled, classes):
    """Skipping non-adjacent candidates and subtrees recorded dead changes
    neither the embedding nor the order it is reached in, only the node
    count, which cannot grow: the engine must answer within the reference's
    own node count.  Hosts of twin classes make dead states recur."""
    rng = random.Random(seed)
    host = twin_graph(n, classes, p, rng) if classes else random_graph(n, p, rng)
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
    st.sampled_from([0, 2, 3]),
)
def test_subgraph_search_agrees_with_unfiltered_reference(seed, n, pattern_n, p, q, types):
    """The same for the coloured search; with members repeating 2-3 graphs
    Hall binds, and the memo records and meets colour keys."""
    rng = random.Random(seed)
    pattern = random_graph(min(pattern_n, n), q, rng)
    if not pattern.edges:
        pattern = Hypergraph(pattern.n, 2, frozenset({(0, 1)}))
    m = pattern.num_edges
    C = repeated_members(n, m, p, types, rng)
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
        phi = maximum_bipartite_matching([C.colour_masks[e] for e in edge_stack])
        target = Hypergraph(n, 2, frozenset(edge_stack))
        assert res.certificate == TransversalCertificate.from_mapping(target, dict(zip(edge_stack, phi)))


def brute_twin_classes(F):
    """The twin classes by definition: the components of "the transposition
    (a b) maps F's edge set onto itself", each checked to be a clique of
    that relation, as it must be if twinship is an equivalence."""
    def swaps_onto_itself(a, b):
        image = [b if v == a else a if v == b else v for v in range(F.n)]
        return {tuple(sorted(image[v] for v in e)) for e in F.edges} == F.edges

    twins = {pair for pair in itertools.combinations(range(F.n), 2) if swaps_onto_itself(*pair)}
    component = list(range(F.n))
    for a, b in sorted(twins):
        old, new = component[b], component[a]
        component = [new if c == old else c for c in component]
    classes = []
    for c in sorted(set(component)):
        members = [v for v in range(F.n) if component[v] == c]
        assert all(pair in twins for pair in itertools.combinations(members, 2))
        if len(members) > 1:
            classes.append(members)
    return classes


def random_pattern(n, k, p, rng):
    return Hypergraph(n, k, frozenset(e for e in itertools.combinations(range(n), k) if rng.random() < p))


def test_twin_classes_match_every_transposition():
    k23_plus_c4 = [(a, b) for a in (0, 1) for b in (2, 3, 4)] + [(5, 6), (6, 7), (7, 8), (5, 8)]
    assert exact._twin_classes(Hypergraph.from_edges(9, 2, k23_plus_c4)) == [[0, 1], [2, 3, 4], [5, 7], [6, 8]]
    # the isolated vertices 3..6 are one class, the ends of the path another
    assert exact._twin_classes(Hypergraph.from_edges(7, 2, [(0, 1), (1, 2)])) == [[0, 2], [3, 4, 5, 6]]
    rng = random.Random(11)
    nontrivial = 0
    for _ in range(300):
        k = rng.choice((2, 3))
        F = random_pattern(rng.randint(k, 7), k, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)
        classes = exact._twin_classes(F)
        assert classes == brute_twin_classes(F), F.edges
        nontrivial += bool(classes) and sum(map(len, classes)) < F.n
    assert nontrivial >= 50  # most patterns have twins and non-twins


TWIN_PATTERNS = {
    "K13": Hypergraph.from_edges(4, 2, [(0, 1), (0, 2), (0, 3)]),
    "K23": Hypergraph.from_edges(5, 2, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    "C4": Hypergraph.from_edges(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "2K2": Hypergraph.from_edges(4, 2, [(0, 1), (2, 3)]),
    "tight3+twin": Hypergraph.from_edges(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (1, 2, 4)]),
}


def oracle_transversal_copies(C, F):
    """Every edge set of a copy of F in C's union that has a rainbow
    colouring, by trying every injective placement."""
    union = set(C.colour_masks)
    seen, copies = set(), set()
    for image in itertools.permutations(range(C.n), F.n):
        target = frozenset(tuple(sorted(image[v] for v in e)) for e in F.edges)
        if target in seen or not target <= union:
            continue
        seen.add(target)
        if rainbow_colouring(C, Hypergraph(C.n, C.k, target), range(C.m)) is not None:
            copies.add(target)
    return copies


@pytest.mark.parametrize("name", list(TWIN_PATTERNS))
def test_twin_rule_agrees_with_brute_force_oracle(name):
    """Members repeat 1-3 random graphs, so colours bind; every status
    matches the oracle's, every found copy is one of the oracle's, and for
    k = 2 the copy is the unfiltered reference's first one."""
    F = TWIN_PATTERNS[name]
    assert exact._twin_classes(F)
    rng = random.Random(name)
    cuts = 0
    for _ in range(40):
        n = rng.randint(F.n, 7)
        graphs = [random_pattern(n, F.k, rng.uniform(0.3, 0.8), rng) for _ in range(rng.randint(1, 3))]
        C = Collection(n, F.k, tuple(rng.choice(graphs) for _ in range(F.num_edges)))
        copies = oracle_transversal_copies(C, F)
        res = find_transversal_subgraph(C, F)
        assert res.status == (FOUND if copies else NONE)
        cuts += res.stats["symmetry_cuts"]
        if res.status == FOUND:
            assert verify_certificate(C, res.certificate)
            assert res.certificate.target.edges in copies
            if F.k == 2:
                schedule = _pattern_schedule(F)[1]
                _, _, edge_stack, nodes = reference_search(
                    n, schedule, C.colour_masks, range(n), (1 << C.m) - 1, node_limit=10**6
                )
                assert res.certificate.target.edges == set(edge_stack) and res.nodes <= nodes
    assert cuts > 0


def test_twin_floor_joins_the_memo_key():
    """F is a triangle 2-0-3 with pendant leaves 1 and 4 at vertex 2: the
    twin classes {0, 3} and {1, 4} sit at positions 1, 2 and 3, 4, and at
    position 4 only the twin rule reads position 3.  Host states hub 0,
    triangle 1 2, leaf 4 and hub 0, triangle 2 4, leaf 1 both leave vertex 3
    for the second leaf; the first fails, as 3 lies below its leaf.  A key
    without position 3 records it dead, skips the second, which holds the
    only copy, and answers none."""
    F = Hypergraph.from_edges(5, 2, [(0, 2), (0, 3), (1, 2), (2, 3), (2, 4)])
    a = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)])
    b = Hypergraph.from_edges(5, 2, [(0, 1), (0, 2), (0, 4), (2, 4)])
    C = Collection(5, 2, (a, b, b, b, b))
    res = find_transversal_subgraph(C, F)
    assert res.status == FOUND and res.stats["symmetry_cuts"] > 0
    assert oracle_transversal_copies(C, F) == {res.certificate.target.edges}
    assert verify_certificate(C, res.certificate)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(5, 8),
    st.floats(0.3, 0.8),
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from([3999, 10**6]),
)
def test_cycle_search_agrees_with_memo_free_reference(seed, n, p, types, node_limit):
    """The memo only skips subtrees that fail, so the status is the memo-free
    one.  Under 4,000 nodes the search is one ascending sweep, which then
    also reaches the same first cycle in no more nodes; the restart sweeps
    draw their order from an rng, and a skipped subtree shifts the draws."""
    C = repeated_members(n, n, p, types, random.Random(seed))
    budget = SearchBudget(node_limit=node_limit)
    res = find_transversal_cycle(C, LINK21, budget)
    ref = memo_free(find_transversal_cycle, C, LINK21, budget)
    if ref.status != EXHAUSTED:
        assert res.status == ref.status
    if node_limit < 4000:
        assert res.nodes <= ref.nodes
        if ref.status == FOUND:
            assert res.certificate == ref.certificate


@pytest.mark.parametrize("name, link, sizes", [
    ("triangle", triangle_link(), (6, 7)),
    ("pillar", pillar_link(), (6, 8)),
])
def test_cycle_search_agrees_with_memo_free_reference_beyond_edges(name, link, sizes):
    """The memo-free check above, for links with more than one edge per
    window; `pillar` has step 2, so its memo key does not hold the cycle's
    second vertex.  60 seeded instances per link, each with the m =
    cycle_counts(link, n) members the cycle needs; both outcomes occur, and
    the memo skips subtrees on some of them."""
    outcomes, memo_hits = set(), 0
    for seed in range(60):
        rng = random.Random(f"memo-free/{name}/{seed}")
        n = rng.choice(sizes)
        p = rng.uniform(0.3, 0.8)
        types = rng.choice([0, 1, 2, 3])
        budget = SearchBudget(node_limit=rng.choice([3999, 10**6]))
        C = repeated_members(n, cycle_counts(link, n), p, types, rng)
        res = find_transversal_cycle(C, link, budget)
        ref = memo_free(find_transversal_cycle, C, link, budget)
        if ref.status != EXHAUSTED:
            assert res.status == ref.status
        if budget.node_limit < 4000:
            assert res.nodes <= ref.nodes
            if ref.status == FOUND:
                assert res.certificate == ref.certificate
        outcomes.add(ref.status)
        memo_hits += res.stats["memo_hits"]
    assert {FOUND, NONE} <= outcomes and memo_hits > 0


# The forced path 3-0-1-4-6 (vertices 0, 1 and 4 have degree 2) takes edges
# 14 and 46, whose only colours are 6 and 2; those are also the only colours
# of 23, 27, 35 and 67, so the one transversal cycle is 0-1-4-6-2-5-7-3.
COLOUR_HIT_MEMBERS = [
    [(5, 7)],
    [(2, 5), (2, 6)],
    [(2, 3), (2, 7), (3, 5), (4, 6), (6, 7)],
    [(2, 5), (2, 6)],
    [(2, 5), (2, 6), (3, 7)],
    [(0, 3), (2, 5), (2, 6)],
    [(1, 4), (2, 3), (2, 7), (3, 5), (6, 7)],
    [(0, 1), (2, 5), (2, 6)],
]


@pytest.mark.parametrize("node_limit", [3999, 10**6])
def test_colour_key_hit_is_a_colour_reason(node_limit):
    """The search reaches "unused {1, 4}, path end 6" first along
    0-3-2-5-7-6, fails it on Hall and records a colour key.  Along
    0-3-5-7-2-6 it meets that key again (23 and 67 carry the colours of 35
    and 27).  The branch 0-3-5-7-2 fails only through that colour-key hit,
    so it must record a colour key too: a structural record would skip
    0-3-7-5-2, which reaches the same unused set and path end with colours
    2 and 6 still free, and the search would answer none."""
    C = Collection(8, 2, tuple(Hypergraph.from_edges(8, 2, m) for m in COLOUR_HIT_MEMBERS))
    res = find_transversal_cycle(C, LINK21, SearchBudget(node_limit=node_limit))
    assert res.status == FOUND and res.stats["memo_colour_hits"] > 0
    cycle = [0, 1, 4, 6, 2, 5, 7, 3]
    assert res.certificate.target.edges == {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
    assert verify_certificate(C, res.certificate, LINK21)


def test_reflection_read_joins_the_cycle_key():
    """From position 3 on the reflection rule reads the vertex at position 1
    only through the unused neighbours of vertex 0 below it.  Two states
    with the same unused vertices and path end but different such
    neighbours must not share a key: a key without them makes the
    ascending sweep skip the branch of the one cycle, 0-3-1-2-4, and
    answer none."""
    members = [[(0, 3)], [(0, 1), (1, 2), (1, 3), (1, 4)], [(0, 1), (0, 2), (1, 3), (3, 4)],
               [(0, 4)], [(0, 2), (0, 4), (1, 2), (1, 4), (2, 4)]]
    C = Collection(5, 2, tuple(Hypergraph.from_edges(5, 2, m) for m in members))
    res = find_transversal_cycle(C, LINK21, SearchBudget(node_limit=3999))
    assert res.status == FOUND and res.stats["asc_nodes"] == res.nodes
    assert res.certificate.target.edges == {(0, 3), (1, 3), (1, 2), (2, 4), (0, 4)}


def memo_cases():
    """A structural negative, a coloured negative and positive, a pattern
    search whose colours bind, and an embedding."""
    bip = Hypergraph.from_edges(7, 2, [(u, v) for u in range(3) for v in range(3, 7)])
    triangle_c4 = Hypergraph.from_edges(7, 2, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    hit = Collection(8, 2, tuple(Hypergraph.from_edges(8, 2, m) for m in COLOUR_HIT_MEMBERS))
    rng = random.Random(57)
    pattern = random_graph(6, 0.6, rng)
    coloured = repeated_members(8, pattern.num_edges, 0.5, 2, rng)
    return [
        lambda: find_transversal_cycle(dirac_extremal(9), LINK21),
        lambda: find_transversal_cycle(hit, LINK21, SearchBudget(node_limit=3999)),
        lambda: find_transversal_cycle(random_members(8, 8, 0.35, 5), LINK21, SearchBudget(node_limit=3999)),
        lambda: find_transversal_subgraph(coloured, pattern),
        lambda: find_transversal_subgraph(Collection(7, 2, (bip,) * 7), triangle_c4),
        lambda: find_embedding(twin_graph(12, 3, 0.5, random.Random(1)), cycle_on(triangle_link(), 8)),
    ]


@pytest.mark.parametrize("cap", [0, 1, 5, 40])
def test_memo_cap_bounds_the_memo_and_keeps_answers(monkeypatch, cap):
    full = [search() for search in memo_cases()]
    states = []
    init = exact._Searcher.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self.dead)

    monkeypatch.setattr(exact, "_MEMO_CAP", cap)
    monkeypatch.setattr(exact._Searcher, "__init__", spy)
    capped = [search() for search in memo_cases()]
    for a, b in zip(full, capped):
        if isinstance(a, exact.SearchResult):
            assert (b.status, b.certificate) == (a.status, a.certificate)
            assert b.stats["memo_states"] <= cap
        else:
            assert b == a
    assert len(states) == len(capped) and all(len(dead) <= cap for dead in states)


def test_memo_is_released_when_the_search_returns(monkeypatch):
    """The search's recursive closure is a reference cycle; the memo must
    not wait for the cycle collector."""
    memos = []
    init = exact._Searcher.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memos.append(weakref.ref(self.dead))

    monkeypatch.setattr(exact._Searcher, "__init__", spy)
    gc.collect()
    gc.disable()
    try:
        results = [search() for search in memo_cases()]
        assert memos and all(ref() is None for ref in memos)
    finally:
        gc.enable()
    assert results[0].stats["memo_states"] > 0
