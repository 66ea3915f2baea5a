"""Pinned outcomes of the exact engine: status, node count and certificate.

Every case records `(status, nodes, sha256 of certificate.to_json())` and the
search's counters (restarts, nodes per sweep kind, Hall and missing-edge
rejections), so a change to the search's internals that alters a branch
decision, the candidate order, the rng stream or the colour assignment of a
certificate fails here.

The gen positives at n = 12-16 are found by the first or second flex sweep
or the first or second random sweep.  The ascending sweep runs first only
when the budget leaves no room for restarts (under 4,000 nodes), and on the
2-uniform cycle its reflection rule then makes it exhaust the subtree below
the first accepted neighbour of vertex 0, which took more nodes than that on
every gen instance tried from n = 9 on.  So its positives here are an n = 8 edge-link instance and the
n = 12 triangle-link and n = 10 tight 3-uniform instances.
"""

import functools
import hashlib
import json
import random

import pytest

from transversals.collection import Collection
from transversals.exact import SearchBudget, find_transversal_cycle, find_transversal_subgraph
from transversals.gen import GenSpec, bridge_construction, dirac_extremal, generate
from transversals.hypergraph import Hypergraph
from transversals.links import cycle_counts, cycle_on, single_edge_link, triangle_link

LINK21 = single_edge_link(2, 1)
TIGHT3 = single_edge_link(3, 2)
TRIANGLE = triangle_link()


def relabelled(C: Collection, seed: int) -> Collection:
    """C under a seeded vertex permutation and colour shuffle."""
    rng = random.Random(seed)
    perm = list(range(C.n))
    rng.shuffle(perm)
    members = [
        Hypergraph.from_edges(C.n, C.k, [[perm[v] for v in e] for e in H.sorted_edges()])
        for H in C.members
    ]
    rng.shuffle(members)
    return Collection(C.n, C.k, tuple(members))


def k23_plus_c4() -> Hypergraph:
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    c4 = [(5, 6), (6, 7), (7, 8), (5, 8)]
    return Hypergraph.from_edges(9, 2, k23 + c4)


def squared_cycle_copies(n: int, seed: int) -> Collection:
    """2n identical members, each a relabelled square of the n-cycle."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    H = Hypergraph.from_edges(n, 2, [[perm[v] for v in e] for e in cycle_on(TRIANGLE, n).edges])
    return Collection(n, 2, tuple([H] * (2 * n)))


def gen_cycle(n, k, delta, seed, link=LINK21, node_limit=10**7):
    C = generate(GenSpec(n=n, k=k, m=cycle_counts(link, n), delta_fraction=delta, seed=seed))
    return find_transversal_cycle(C, link, SearchBudget(node_limit=node_limit))


# name: (search, status, nodes, certificate digest, (restarts, flex nodes,
#        random nodes, asc nodes, Hall rejections, missing-edge rejections)),
# all recorded before the search moved to colour bitsets; the phase and
# rejection counts by wrapping the sweeps and the edge completion from outside
# (a candidate with an edge no colour holds counts as a missing-edge rejection)
CASES = {
    "dirac_extremal(9)": (
        lambda: find_transversal_cycle(relabelled(dirac_extremal(9), 9), LINK21),
        "none", 7_145, None, (2, 5_145, 2_000, 0, 0, 3_370),
    ),
    "dirac_extremal(10)": (
        lambda: find_transversal_cycle(relabelled(dirac_extremal(10), 10), LINK21),
        "none", 38_984, None, (6, 24_984, 14_000, 0, 0, 25_140),
    ),
    "bridge_construction(9,10)": (
        lambda: find_transversal_subgraph(relabelled(bridge_construction(9, 10), 1), k23_plus_c4()),
        "none", 11_169, None, (0, 0, 0, 11_169, 5_660, 0),
    ),
    "gen(12,0.5,0)": (
        lambda: gen_cycle(12, 2, 0.5, 0),
        "found", 218,
        "00545262f852dbc6d57f3e954284ca089c933ea198426b74777f6c16705f52b2", (0, 218, 0, 0, 0, 0),
    ),
    "gen(14,0.6,1)": (
        lambda: gen_cycle(14, 2, 0.6, 1),
        "found", 14,
        "273a9d60959c8a09062bf722431f66b99bd2f631ff3013792a29ca2811793ada", (0, 14, 0, 0, 0, 0),
    ),
    "gen(16,0.5,3)": (
        lambda: gen_cycle(16, 2, 0.5, 3),
        "found", 17,
        "c5920966dd4e6403a5e28aca1360272d313948c3861b36642379c462a27c94e4", (0, 17, 0, 0, 0, 0),
    ),
    "gen(12,0.35,2)": (
        lambda: gen_cycle(12, 2, 0.35, 2),
        "found", 2_012,
        "38b07d5f9b1184c7e07616a4e1e1b69961d184ea407726bdb27809dea19e8f80", (1, 2_000, 12, 0, 0, 0),
    ),
    "gen(13,0.4,1)": (
        lambda: gen_cycle(13, 2, 0.4, 1),
        "found", 2_013,
        "a1db8625b875f129c7aab4593f9760a7aa0362b3f51108bf321d4a72301e6080", (1, 2_000, 13, 0, 0, 0),
    ),
    "gen(15,0.5,4)": (
        lambda: gen_cycle(15, 2, 0.5, 4),
        "found", 2_015,
        "9b37c23510ab837ed18c56df890e6ad57da3dfe7a8a1be5a0d00b2872369e20a", (1, 2_000, 15, 0, 0, 0),
    ),
    "gen(16,0.45,1)": (
        lambda: gen_cycle(16, 2, 0.45, 1),
        "found", 2_016,
        "94e7fbf1098cb3c2d430ffa112efa2f78ca01e0380c7439e805be352933e6281", (1, 2_000, 16, 0, 0, 0),
    ),
    "gen(14,0.4,2)": (
        lambda: gen_cycle(14, 2, 0.4, 2),
        "found", 4_015,
        "de60ac7158f770c0a224d5ff1bc5122fbf22c245bdfebfebad3d0cf45d27507d", (2, 2_015, 2_000, 0, 0, 0),
    ),
    "gen(14,0.2,11)": (
        lambda: gen_cycle(14, 2, 0.2, 11),
        "found", 5_251,
        "92d9041f69615687bf121bb23af205ad168fb27bf917d48db5a01f7f701b90a3", (2, 3_251, 2_000, 0, 0, 0),
    ),
    "gen(14,0.35,1)": (
        lambda: gen_cycle(14, 2, 0.35, 1),
        "found", 8_024,
        "bed2c263b634bb60cde9cfe5a87590cac3eb5f8d32b73c7c2789e08445a9c30a", (3, 6_000, 2_024, 0, 0, 0),
    ),
    "gen(14,0.3,25)": (
        lambda: gen_cycle(14, 2, 0.3, 25),
        "found", 8_024,
        "8167b0dbb5461ce6e8f9977a2b16f495f0662a13c55e0f6929aa6bad06d23594", (3, 6_000, 2_024, 0, 0, 0),
    ),
    "gen(8,0.5,0) asc": (
        lambda: gen_cycle(8, 2, 0.5, 0, node_limit=3999),
        "found", 1_506,
        "5b4791d39664ca1eac2fe74dd6a87385e5260a9ec07584dc42bb45681252ecd9", (0, 0, 0, 1_506, 0, 0),
    ),
    "triangle gen(12,0.45,0) asc": (
        lambda: gen_cycle(12, 2, 0.45, 0, link=TRIANGLE, node_limit=3999),
        "found", 12,
        "ecf3f642cef33d99899a884a8b4fce58b9e3689ab81718797fb1b257f0becd93", (0, 0, 0, 12, 0, 0),
    ),
    "triangle squared_cycle(10)": (
        lambda: find_transversal_cycle(squared_cycle_copies(10, 0), TRIANGLE),
        "found", 62,
        "3e253f29532ee6ad38c426aa556aa5e0913033ee49adb6bed9976166ace433ec", (0, 62, 0, 0, 0, 45),
    ),
    "tight3 gen(10,0.1,1)": (
        lambda: gen_cycle(10, 3, 0.1, 1, link=TIGHT3),
        "found", 24,
        "0cbee432e6ae98e2aa10fa713333858b7d8f37d08dde0d1f229ea273afe3b473", (0, 24, 0, 0, 4, 2),
    ),
    "tight3 gen(10,0.1,2) asc": (
        lambda: gen_cycle(10, 3, 0.1, 2, link=TIGHT3, node_limit=3999),
        "found", 17,
        "36b99319bb99f63e8a1fdaefc62f9bdef31d74b99286b30dab8f078e8f4154d3", (0, 0, 0, 17, 1, 2),
    ),
    "exhausted gen(12,0.35,2)": (
        lambda: gen_cycle(12, 2, 0.35, 2, node_limit=5000),
        "exhausted", 5_000, None, (1, 2_000, 0, 3_000, 0, 0),
    ),
}


def certificate_digest(result):
    if result.certificate is None:
        return None
    payload = json.dumps(result.certificate.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def outcome(name):
    search = CASES[name][0]
    return search()


@pytest.mark.parametrize("name", list(CASES))
def test_exact_outcome_pinned(name):
    _search, status, nodes, digest, _stats = CASES[name]
    result = outcome(name)
    assert (result.status, result.nodes, certificate_digest(result)) == (status, nodes, digest)


STAT_KEYS = (
    "restarts",
    "flex_nodes",
    "random_nodes",
    "asc_nodes",
    "hall_rejections",
    "missing_edge_rejections",
)


@pytest.mark.parametrize("name", list(CASES))
def test_search_stats_pinned(name):
    *_, stats = CASES[name]
    result = outcome(name)
    assert set(result.stats) == set(STAT_KEYS)
    assert tuple(result.stats[key] for key in STAT_KEYS) == stats
    phases = ("flex_nodes", "random_nodes", "asc_nodes")
    assert sum(result.stats[key] for key in phases) == result.nodes
