"""Absorbers, the seeded vertex split, rainbow factors and tilings."""

import functools
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transversals import absorb
from transversals.absorb import (
    EXHAUSTIVE_CUTOFF,
    SAMPLE_COUNT,
    BipartiteAvailability,
    MatchingAbsorber,
    absorber_holds,
    build_colour_absorber,
    build_matching_absorber,
    degree_preserving_partition,
    greedy_rainbow_factor,
    rainbow_tiling,
)
from transversals.collection import Collection, rainbow_colouring
from transversals.errors import InfeasibleDegrees, InvalidInput, NoCopyFound, SizesMismatch
from transversals.exact import find_embedding
from transversals.gen import GenSpec, generate
from transversals.hypergraph import Hypergraph, complete_graph, mask_of
from transversals.links import single_edge_link, triangle_link
from transversals.rng import rng_for

from test_matching import reference_augment
from testlib import host_copy, is_chain


def random_availability(m_a, n_b, min_deg, seed):
    rng = rng_for(seed, "avail")
    rows = []
    for _ in range(m_a):
        deg = rng.randint(min_deg, n_b)
        rows.append(mask_of(rng.sample(range(n_b), deg)))
    return BipartiteAvailability(m_a, n_b, tuple(rows))


def test_matching_absorber_built_and_holds():
    K = random_availability(6, 30, 10, seed=1)
    ab = build_matching_absorber(K, ell=1, seed=1)
    assert ab is not None
    ok, bad = absorber_holds(K, ab)
    assert ok and bad is None
    assert len(ab.B0) == K.m_A - ab.ell


def test_matching_absorber_rejects_low_degree():
    K = BipartiteAvailability(2, 5, (0b1, 0b110))
    with pytest.raises(InfeasibleDegrees):
        build_matching_absorber(K, ell=1, seed=0)


def test_absorber_holds_detects_failure():
    # left 0 only reaches right 0; an absorber with B0=() and ell=1 fails on
    # any U avoiding right 0
    K = BipartiteAvailability(1, 3, (0b1,))
    bad_ab = MatchingAbsorber(B0=(), B1=(1, 2), ell=1)
    ok, witness = absorber_holds(K, bad_ab)
    assert not ok and witness is not None


def reference_absorber_holds(K, absorber, rng, cutoff):
    """absorber_holds with a from-scratch matching for every subset, by the
    list-based reference matcher."""

    def matchable(rights):
        allowed = mask_of(rights)
        return not reference_augment(K.adjacency, range(K.m_A), allowed, {})

    b1, ell = list(absorber.B1), absorber.ell
    if ell == 0:
        ok = matchable(list(absorber.B0))
        return ok, None if ok else ()
    if math.comb(len(b1), ell) <= cutoff:
        subsets = itertools.combinations(b1, ell)
    else:
        subsets = (tuple(sorted(rng.sample(b1, ell))) for _ in range(SAMPLE_COUNT))
    for U in subsets:
        if not matchable(list(absorber.B0) + list(U)):
            return False, U
    return True, None


@st.composite
def availability_and_absorber(draw):
    m_a = draw(st.integers(0, 8))
    n_b = draw(st.integers(1, 20))
    rights = st.integers(0, n_b - 1)
    rows = tuple(mask_of(draw(st.sets(rights, max_size=n_b))) for _ in range(m_a))
    # B0 of any size, so that it often cannot match all but ell left items
    b0 = tuple(sorted(draw(st.sets(rights, max_size=m_a))))
    b1 = tuple(sorted(draw(st.sets(rights.filter(lambda b: b not in b0)))))
    ell = draw(st.integers(0, 3))
    return BipartiteAvailability(m_a, n_b, rows), MatchingAbsorber(b0, b1, ell)


@pytest.mark.parametrize("cutoff", [EXHAUSTIVE_CUTOFF, 3, 0])
@settings(max_examples=150, deadline=None)
@given(case=availability_and_absorber(), seed=st.integers(0, 2**32))
def test_absorber_holds_matches_from_scratch_reference(cutoff, case, seed):
    # cutoff 0 sends every ell >= 1 check down the sampled branch
    K, ab = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(absorb, "EXHAUSTIVE_CUTOFF", cutoff)
        got = absorber_holds(K, ab, rng)
    assert got == reference_absorber_holds(K, ab, ref_rng, cutoff)
    assert rng.getstate() == ref_rng.getstate()


@st.composite
def availability_and_overlapping_absorber(draw):
    """A case of `availability_and_absorber` with some of B0 added to B1."""
    K, ab = draw(availability_and_absorber().filter(lambda case: case[1].B0))
    shared = draw(st.sets(st.sampled_from(ab.B0), min_size=1))
    return K, MatchingAbsorber(ab.B0, tuple(sorted(shared.union(ab.B1))), ab.ell)


@pytest.mark.parametrize("cutoff", [EXHAUSTIVE_CUTOFF, 0])
@settings(max_examples=150, deadline=None)
@given(case=availability_and_overlapping_absorber(), seed=st.integers(0, 2**32))
def test_absorber_holds_with_b1_overlapping_b0(cutoff, case, seed):
    """B1 may share rights with B0.  A free left item may then not take a
    right of U that the base matching already holds, so a U inside B0 adds
    nothing to it."""
    K, ab = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(absorb, "EXHAUSTIVE_CUTOFF", cutoff)
        got = absorber_holds(K, ab, rng)
    assert got == reference_absorber_holds(K, ab, ref_rng, cutoff)
    assert rng.getstate() == ref_rng.getstate()


def test_absorber_holds_fails_a_subset_inside_b0():
    # left 0 holds right 0 in B0, and left 1 reaches only rights 0 and 1:
    # U = (0,) and U = (2,) leave left 1 unmatched, U = (1,) matches it
    K = BipartiteAvailability(2, 3, (0b1, 0b11))
    assert absorber_holds(K, MatchingAbsorber(B0=(0,), B1=(0, 1), ell=1)) == (False, (0,))
    assert absorber_holds(K, MatchingAbsorber(B0=(0,), B1=(1, 2), ell=1)) == (False, (2,))
    assert absorber_holds(K, MatchingAbsorber(B0=(0,), B1=(1,), ell=1)) == (True, None)


def sparse_availability(sparse, seed):
    """15 left items against 100 rights: `sparse` rows of 4-8 rights, the
    rest of 30-80, the shape of the colour absorber in a dense n = m = 100
    pipeline run."""
    rng = rng_for(seed, "absorber-pin")
    rows = []
    for i in range(15):
        deg = rng.randint(4, 8) if i < sparse else rng.randint(30, 80)
        rows.append(mask_of(rng.sample(range(100), deg)))
    return BipartiteAvailability(15, 100, tuple(rows))


@pytest.mark.parametrize(
    "sparse, seed, b1_size, digest",
    [
        # the first sampled check passes
        (1, 0, 88, "826654cff5ff04d826ead8a6d9701ccd978d11f033ff98d8d0968b4960d87de2"),
        # three sampled checks fail and evict, then exhaustive checks take over
        (3, 1, 6, "9b23842479626349e65f475380c631957a20555dea201fdb3d43279c3c40db4b"),
    ],
)
def test_matching_absorber_pinned_in_sampled_regime(sparse, seed, b1_size, digest):
    # B1 starts as the 88 rights outside B0, and C(88, 3) subsets are too
    # many to check exhaustively.  The SHA-256 of (B0, B1) was recorded with
    # a from-scratch matching per sampled subset.
    assert math.comb(100 - (15 - 3), 3) > EXHAUSTIVE_CUTOFF
    ab = build_matching_absorber(sparse_availability(sparse, seed), ell=3, seed=seed)
    assert len(ab.B1) == b1_size
    assert hashlib.sha256(repr((ab.B0, ab.B1)).encode()).hexdigest() == digest


def test_right_degrees_count_rows():
    K = random_availability(6, 30, 10, seed=1)
    assert K.right_degrees == tuple(
        sum(row >> b & 1 for row in K.adjacency) for b in range(K.n_B)
    )


@pytest.mark.parametrize(
    "m_a, rows",
    [
        (2, (0b1,)),  # one row for two left items
        (1, (-1,)),  # a negative row
        (1, (1 << 5,)),  # right 5 with n_B = 5
    ],
)
def test_availability_rejects_malformed_rows(m_a, rows):
    with pytest.raises(InvalidInput):
        BipartiteAvailability(m_a, 5, rows)


def test_colour_absorber_exhaustive_property():
    C = generate(GenSpec(n=12, k=2, m=14, delta_fraction=0.7, family="random", seed=2))
    # template: 6-edge path
    path = Hypergraph.from_edges(7, 2, [(i, i + 1) for i in range(6)])
    ab = build_colour_absorber(C, path, gamma_n=2, alpha=0.2, seed=2)
    host = host_copy(ab, C.n)
    for B in itertools.combinations(sorted(ab.Cset), ab.ell):
        cert = rainbow_colouring(C, host, set(ab.A) | set(B))
        assert cert is not None
        assert ab.A <= set(cert.colours())


def test_colour_absorber_reports_exhausted_embedding_budget(monkeypatch):
    C = generate(GenSpec(n=12, k=2, m=14, delta_fraction=0.7, family="random", seed=2))
    path = Hypergraph.from_edges(7, 2, [(i, i + 1) for i in range(6)])
    # the path embeds (see the test above), but not within a single node
    monkeypatch.setattr(absorb, "find_embedding", functools.partial(find_embedding, node_limit=1))
    with pytest.raises(NoCopyFound, match="budget exhausted"):
        build_colour_absorber(C, path, gamma_n=2, alpha=0.2, seed=2)


def test_partition_respects_sizes_and_universe():
    C = generate(GenSpec(n=20, k=2, m=6, delta_fraction=0.7, family="random", seed=3))
    parts = degree_preserving_partition(C, (12, 8), seed=3)
    assert sorted(len(p) for p in parts) == [8, 12]
    assert sorted(v for p in parts for v in p) == list(range(20))


def test_partition_within_subset():
    C = generate(GenSpec(n=16, k=2, m=5, delta_fraction=0.7, family="random", seed=4))
    universe = list(range(2, 14))
    parts = degree_preserving_partition(C, (6, 6), seed=4, within=universe)
    assert sorted(v for p in parts for v in p) == universe


def test_partition_rejects_negative_sizes():
    C = Collection(4, 2, (complete_graph(4),))
    with pytest.raises(InvalidInput, match="nonnegative"):
        degree_preserving_partition(C, (5, -1), seed=0)
    assert degree_preserving_partition(C, (4, 0), seed=0) == [[0, 1, 2, 3], []]


# (sizes, seed, within) -> SHA-256 of the parts' JSON; recorded while a
# sampled partition still had to pass a degree audit, from the unaudited
# first sample (infinite slack), which is the split every solve used
SPLIT_PINS = [
    ((15, 10), 3, None, "5b34ee92b06906ee9945a0442ac16b2a71e54686200359fc963d842da758b7c6"),
    ((5, 6, 13, 1), 11, None, "7eb792dcdbffb1a0072a6a2ce3724f8a40575fdea641161392c8a8a529fdf3e4"),
    ((4, 4, 4, 4, 4, 5), 2**62 + 5, None, "ad3279af74b9795a69b2b47c05a2713298d12582cc8c0a2a25a335634ff216ae"),
    ((6, 0, 6), 4, range(2, 14), "27ea213ca21a8bb4ac4922db0a7a28f8ab81c65cb3ac3ce2311db06f4da8d0c7"),
    ((0, 5, 3), 0, range(1, 25, 3), "20941ee9116224af85f89c795761583d168d5fd001f56aba7cece16366e808d0"),
]


@pytest.mark.parametrize("sizes, seed, within, digest", SPLIT_PINS)
def test_partition_split_pinned(sizes, seed, within, digest):
    C = generate(GenSpec(n=25, k=2, m=6, delta_fraction=0.7, family="random", seed=3))
    parts = degree_preserving_partition(C, sizes, seed=seed, within=within)
    assert [len(p) for p in parts] == list(sizes)
    assert hashlib.sha256(json.dumps(parts).encode()).hexdigest() == digest


def test_partition_sizes_mismatch():
    C = generate(GenSpec(n=10, k=2, m=4, delta_fraction=0.6, family="random", seed=5))
    with pytest.raises(SizesMismatch):
        degree_preserving_partition(C, (4, 4), seed=5)


def test_greedy_rainbow_factor_on_complete_members():
    n = 9
    link = triangle_link()
    C = Collection(n, 2, tuple(complete_graph(n) for _ in range(9)))
    res = greedy_rainbow_factor(C, range(9), link)
    assert res.complete and len(res.copies) == 3
    assert res.covered() == frozenset(range(n))
    used_colours = [c for cp in res.copies for _, c in cp.colouring]
    assert sorted(used_colours) == list(range(9))
    for cp in res.copies:
        for host_edge, colour in cp.colouring:
            assert host_edge in C.members[colour].edges


def test_greedy_rainbow_factor_block_divisibility():
    C = Collection(6, 2, tuple(complete_graph(6) for _ in range(4)))
    with pytest.raises(InvalidInput):
        greedy_rainbow_factor(C, range(4), triangle_link())


def test_greedy_rainbow_factor_reports_stuck_block():
    n = 6
    # colours 3..5 are empty: the second triangle cannot be coloured
    empty = Hypergraph(n, 2, frozenset())
    members = tuple([complete_graph(n)] * 3 + [empty] * 3)
    C = Collection(n, 2, members)
    res = greedy_rainbow_factor(C, range(6), triangle_link())
    assert not res.complete and res.stuck_block == (3, 4, 5)
    assert len(res.copies) == 1


def test_rainbow_tiling_covers_most_vertices():
    link = single_edge_link(2, 1)
    C = generate(GenSpec(n=24, k=2, m=24, delta_fraction=0.75, family="random", seed=6))
    res = rainbow_tiling(C, link, T=2, omega=0.1, seed=6)
    covered = set()
    for rc in res.chains:
        ok, _ = is_chain_copy(rc, link)
        assert ok
        covered |= set(rc.vertices)
        for host_edge, colour in rc.colouring:
            assert host_edge in C.members[colour].edges
    assert covered | set(res.uncovered) == set(range(24))
    assert len(res.uncovered) <= 24 - len(covered) + 1
    # colours are used at most once across the tiling
    used = [c for rc in res.chains for _, c in rc.colouring]
    assert len(used) == len(set(used))


def is_chain_copy(rc, link):
    """Relabel the embedded chain to index order and recognise it."""
    seq = rc.vertices
    pos = {v: i for i, v in enumerate(seq)}
    edges = {tuple(sorted(pos[v] for v in e)) for e, _ in rc.colouring}
    cand = Hypergraph(len(seq), link.k, frozenset(edges))
    return is_chain(cand, link, mode="contain")


def test_rainbow_tiling_empty_when_t_zero():
    C = generate(GenSpec(n=10, k=2, m=10, delta_fraction=0.6, family="random", seed=7))
    res = rainbow_tiling(C, single_edge_link(2, 1), T=0, omega=0.1, seed=7)
    assert res.chains == [] and res.uncovered == frozenset(range(10))


def test_rainbow_tiling_leaves_a_part_uncovered_once_colours_run_out():
    # the first two triangle chains use up all 24 colours, so the third part
    # has none left for its threshold graph
    n = 24
    C = Collection(n, 2, tuple(complete_graph(n) for _ in range(n)))
    res = rainbow_tiling(C, triangle_link(), T=3, omega=0.0, seed=0)
    used = [c for rc in res.chains for _, c in rc.colouring]
    assert len(used) == len(set(used)) and res.unused_colours == frozenset(range(n)) - set(used)
    covered = {v for rc in res.chains for v in rc.vertices}
    assert len(res.chains) == 2 and not res.unused_colours and len(res.uncovered) >= n // 3
    assert covered | res.uncovered == set(range(n)) and not covered & res.uncovered
