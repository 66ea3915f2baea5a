"""Collections, certificates, verification, and the threshold hypergraph."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.collection import (
    Collection,
    TransversalCertificate,
    collection_min_degree,
    is_cycle_copy,
    rainbow_colouring,
    threshold_hypergraph,
    verify_certificate,
)
from transversals.errors import InvalidInput
from transversals.gen import GenSpec, generate
from transversals.hypergraph import Hypergraph, complete_graph, min_degree_d
from transversals.errors import TooShort
from transversals.links import builtin_link, cycle_on, single_edge_link, triangle_link
from transversals.rng import rng_for

from testlib import cycle_graph


def make_cycle_cert(n):
    """A certificate assigning edge i of the n-cycle to colour i."""
    target = cycle_graph(n)
    edges = sorted(target.edges)
    return target, TransversalCertificate.from_mapping(
        target, {e: i for i, e in enumerate(edges)}
    )


def all_complete(n, m):
    return Collection(n, 2, tuple(complete_graph(n) for _ in range(m)))


def test_collection_rejects_mismatched_members():
    with pytest.raises(InvalidInput):
        Collection(4, 2, (complete_graph(4), complete_graph(5)))


def test_union_adjacency_is_union_of_member_adjacency():
    C = generate(GenSpec(n=12, k=2, m=5, delta_fraction=0.3, family="random", seed=3))
    expected = [0] * C.n
    for H in C.members:
        expected = [a | b for a, b in zip(expected, H.adjacency)]
    assert C.union_adjacency == tuple(expected)
    with pytest.raises(InvalidInput):
        Collection(4, 3, (Hypergraph.from_edges(4, 3, [(0, 1, 2)]),)).union_adjacency


def test_verify_accepts_valid_cycle_certificate():
    n = 6
    C = all_complete(n, n)
    _, cert = make_cycle_cert(n)
    assert verify_certificate(C, cert, single_edge_link(2, 1))


def test_verify_rejects_duplicate_colour():
    n = 4
    C = all_complete(n, n)
    target = cycle_graph(n)
    edges = sorted(target.edges)
    cert = TransversalCertificate.from_mapping(
        target, {e: min(i, 2) for i, e in enumerate(edges)}
    )
    res = verify_certificate(C, cert)
    assert not res and res.reason == "DuplicateColour"


def test_verify_rejects_phi_domain_mismatch():
    # built directly, past from_mapping: (0,5) is left uncoloured and (3,4)
    # is coloured twice, yet the colours are distinct and every vertex covered
    n = 6
    C = all_complete(n, n)
    target = cycle_graph(n)
    phi = ((0, 1), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5))
    cert = TransversalCertificate(target, tuple((e, i) for i, e in enumerate(phi)))
    res = verify_certificate(C, cert, single_edge_link(2, 1))
    assert not res and res.reason == "PhiDomainMismatch"


def test_verify_rejects_phi_missing_an_edge():
    n = 6
    C = all_complete(n, n)
    target, cert = make_cycle_cert(n)
    short = TransversalCertificate(target, cert.phi[:-1])
    res = verify_certificate(C, short)
    assert not res and res.reason == "PhiDomainMismatch"


def test_verify_rejects_edge_outside_member():
    n = 4
    C = Collection(n, 2, tuple([cycle_graph(n)] * n))
    target = Hypergraph.from_edges(n, 2, [(0, 2), (0, 1), (1, 3), (2, 3)])
    cert = TransversalCertificate.from_mapping(
        target, {e: i for i, e in enumerate(sorted(target.edges))}
    )
    res = verify_certificate(C, cert)
    assert not res and res.reason == "EdgeNotInColour"


def test_verify_rejects_non_spanning():
    C = all_complete(6, 3)
    target = Hypergraph.from_edges(6, 2, [(0, 1), (1, 2), (0, 2)])
    cert = TransversalCertificate.from_mapping(
        target, {e: i for i, e in enumerate(sorted(target.edges))}
    )
    res = verify_certificate(C, cert, triangle_link())
    assert not res and res.reason == "NotSpanning"


def test_verify_rejects_wrong_shape():
    n = 6
    C = all_complete(n, n)
    # spanning, right edge count, but a theta-graph rather than a cycle
    target = Hypergraph.from_edges(
        n, 2, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]
    )
    cert = TransversalCertificate.from_mapping(
        target, {e: i for i, e in enumerate(sorted(target.edges))}
    )
    res = verify_certificate(C, cert, single_edge_link(2, 1))
    assert not res and res.reason == "NotCycleShape"


def single_edge_members(seq):
    """Member i holds only edge i of the cycle through `seq`, so the cycle's
    certificate is unique and each tampering below has one failing check."""
    n = len(seq)
    edges = [tuple(sorted((seq[i], seq[(i + 1) % n]))) for i in range(n)]
    return Collection(n, 2, tuple(Hypergraph.from_edges(n, 2, [e]) for e in edges))


def recolour_first_edge(target, phi):
    # the last entry's colour lacks the first edge and is checked after it
    return target, ((phi[0][0], phi[-1][1]),) + phi[1:]


def swap_two_colours(target, phi):
    (e0, c0), (e1, c1) = phi[:2]
    return target, ((e0, c1), (e1, c0)) + phi[2:]


def drop_edge_from_phi(target, phi):
    return target, phi[1:]


def drop_edge_from_copy(target, phi):
    return Hypergraph(target.n, target.k, target.edges - {phi[0][0]}), phi[1:]


def duplicate_edge(target, phi):
    return target, phi + phi[:1]


def relabel_two_vertices(target, phi):
    swap = {2: 5, 5: 2}

    def relabel(e):
        return tuple(sorted(swap.get(v, v) for v in e))

    moved = Hypergraph(target.n, target.k, frozenset(map(relabel, target.edges)))
    return moved, tuple(sorted((relabel(e), c) for e, c in phi))


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (recolour_first_edge, "EdgeNotInColour"),
        (swap_two_colours, "EdgeNotInColour"),
        (drop_edge_from_phi, "PhiDomainMismatch"),
        (drop_edge_from_copy, "NotCycleShape"),
        (duplicate_edge, "PhiDomainMismatch"),
        (relabel_two_vertices, "EdgeNotInColour"),
    ],
)
def test_verify_rejects_tampered_solver_certificate(tamper, reason):
    from transversals.exact import find_transversal_cycle

    link = single_edge_link(2, 1)
    C = single_edge_members([0, 3, 6, 1, 5, 2, 4])
    res = find_transversal_cycle(C, link)
    assert res.status == "found" and verify_certificate(C, res.certificate, link)
    target, phi = tamper(res.certificate.target, res.certificate.phi)
    check = verify_certificate(C, TransversalCertificate(target, phi), link)
    assert not check and check.reason == reason


def test_is_cycle_copy_relabelled():
    link = single_edge_link(2, 1)
    # the 5-cycle 0-2-4-1-3-0
    seq = [0, 2, 4, 1, 3]
    edges = [tuple(sorted((seq[i], seq[(i + 1) % 5]))) for i in range(5)]
    assert is_cycle_copy(Hypergraph.from_edges(5, 2, edges), link)
    assert is_cycle_copy(cycle_on(triangle_link(), 6), triangle_link())


def cycle_images(canonical: Hypergraph) -> set[frozenset]:
    """Brute force: the edge set of every relabelling of `canonical` by a
    permutation of its vertices."""
    return {
        frozenset(tuple(sorted(perm[v] for v in e)) for e in canonical.edges)
        for perm in itertools.permutations(range(canonical.n))
    }


def cycle_shapes(max_n: int):
    """(link name, n) for every A-cycle on at most max_n vertices whose
    shape the verifier checks by its own labelling search."""
    for name in ("triangle", "pillar", "edge(3,1)", "edge(3,2)", "clique(4)"):
        link = builtin_link(name)
        for n in range(link.m, max_n + 1):
            if n % link.step:
                continue
            try:
                cycle_on(link, n)
            except TooShort:
                continue
            yield name, n


@pytest.mark.parametrize("name, n", list(cycle_shapes(7)))
def test_is_cycle_copy_matches_brute_force(name, n):
    link = builtin_link(name)
    canonical = cycle_on(link, n)
    images = cycle_images(canonical)
    rng = rng_for(n, "cycle-copy", name)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = Hypergraph.from_edges(n, link.k, [[perm[v] for v in e] for e in canonical.edges])
        assert is_cycle_copy(relabelled, link)
    # every swap of one edge for one non-edge, against the brute force
    non_edges = [e for e in itertools.combinations(range(n), link.k) if e not in canonical.edges]
    for out in sorted(canonical.edges):
        for into in non_edges:
            swapped = (canonical.edges - {out}) | {into}
            assert is_cycle_copy(Hypergraph(n, link.k, swapped), link) == (swapped in images)


def test_certificate_json_round_trip():
    n = 5
    _, cert = make_cycle_cert(n)
    back = TransversalCertificate.from_json(cert.to_json(), n, 2)
    assert back == cert


def test_threshold_hypergraph_counts():
    C = Collection(4, 2, (cycle_graph(4), cycle_graph(4), complete_graph(4)))
    K2 = threshold_hypergraph(C, range(3), 2)
    assert K2.edges == cycle_graph(4).edges
    K3 = threshold_hypergraph(C, range(3), 3)
    assert K3.edges == cycle_graph(4).edges
    K1 = threshold_hypergraph(C, range(3), 1)
    assert K1.edges == complete_graph(4).edges


def test_threshold_audit_random_instance():
    # brute-force degree audit of the threshold guarantee
    C = generate(GenSpec(n=8, k=2, m=10, delta_fraction=0.5, family="random", seed=3))
    theta = 3
    K = threshold_hypergraph(C, range(C.m), theta)
    bound = collection_min_degree(C, 1) - theta * 8 / 10
    assert min_degree_d(K, 1) >= bound


def test_rainbow_colouring_found():
    n = 5
    C = all_complete(n, n)
    cert = rainbow_colouring(C, cycle_graph(n), range(n))
    assert cert is not None
    assert verify_certificate(C, cert)


def test_rainbow_colouring_none_is_hall_refutation():
    # colours 0 and 1 only contain edge (0,1): two target edges cannot both use it
    n = 4
    empty = Hypergraph(n, 2, frozenset({(0, 1)}))
    C = Collection(n, 2, (empty, empty, complete_graph(n), complete_graph(n)))
    assert rainbow_colouring(C, cycle_graph(n), range(4)) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_rainbow_colouring_matches_brute_force(seed):
    rng = rng_for(seed, "rainbow-oracle")
    n = 5
    target = cycle_graph(n)
    members = []
    for _ in range(n):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        members.append(Hypergraph.from_edges(n, 2, edges))
    C = Collection(n, 2, tuple(members))
    got = rainbow_colouring(C, target, range(n))
    # brute force over all injective colourings
    edges = sorted(target.edges)
    exists = any(
        all(edges[i] in C.members[p[i]].edges for i in range(n))
        for p in itertools.permutations(range(n))
    )
    assert (got is not None) == exists
    if got is not None:
        assert verify_certificate(C, got)
