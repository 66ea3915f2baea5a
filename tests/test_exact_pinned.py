"""Pinned outcomes of the exact engine: status, node count and certificate.

Every case records `(status, nodes, sha256 of certificate.to_json())` and the
search's counters (restarts, nodes per sweep kind, filtered candidates,
reflection cuts, Hall and missing-edge rejections, structural and colour
memo hits, recorded dead states), so a change to the search's internals
that alters a branch decision, the candidate order, the rng stream, the
colour assignment of a certificate or what the dead-state memo records
fails here.

The gen positives at n = 12-16 are found by the first flex sweep.  The
ascending sweep runs first only when the budget leaves no room for restarts
(under 4,000 nodes).  On the 2-uniform cycle the reflection rule refuses a
second vertex with no neighbour of vertex 0 below it, and cuts a branch as
soon as no unused neighbour of vertex 0 is left below the second vertex, so
the ascending sweep too finds the gen positives in a few dozen nodes: the
n = 8 and n = 16 edge-link cases here, beside the n = 12 triangle-link and
n = 10 tight 3-uniform ones.  With dead states skipped, the first flex
sweep of `dirac_extremal(9)` and `(10)` exhausts the space under its
2,000-node cap, and the bridge construction, whose colours bind, gains
only from colour-key hits.  `exhausted dirac_extremal(13)` runs out of its
5,000 nodes in the ascending sweep after one capped flex sweep, although
the ascending sweep skips every dead state the flex sweep recorded.
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
#        random nodes, asc nodes, filtered candidates, reflection cuts, Hall
#        rejections, missing-edge rejections, memo hits, memo colour hits,
#        memo states)), recorded with the k = 2 neighbour-bitset filter, the
# early reflection rule and the dead-state memo in place
CASES = {
    "dirac_extremal(9)": (
        lambda: find_transversal_cycle(relabelled(dirac_extremal(9), 9), LINK21),
        "none", 556, None, (0, 556, 0, 0, 505, 53, 0, 0, 216, 0, 341),
    ),
    "dirac_extremal(10)": (
        lambda: find_transversal_cycle(relabelled(dirac_extremal(10), 10), LINK21),
        "none", 1_491, None, (0, 1_491, 0, 0, 1_636, 37, 0, 0, 693, 0, 799),
    ),
    "bridge_construction(9,10)": (
        lambda: find_transversal_subgraph(relabelled(bridge_construction(9, 10), 1), k23_plus_c4()),
        "none", 3_193, None, (0, 0, 0, 3_193, 0, 0, 2_504, 0, 0, 131, 559),
    ),
    "gen(12,0.5,0)": (
        lambda: gen_cycle(12, 2, 0.5, 0),
        "found", 13,
        "ca168f931d4014571579e2dd08484a93f88e3811e08881fd190a534e07137dcb", (0, 13, 0, 0, 0, 2, 0, 0, 0, 0, 1),
    ),
    "gen(14,0.6,1)": (
        lambda: gen_cycle(14, 2, 0.6, 1),
        "found", 14,
        "273a9d60959c8a09062bf722431f66b99bd2f631ff3013792a29ca2811793ada", (0, 14, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    ),
    "gen(16,0.5,3)": (
        lambda: gen_cycle(16, 2, 0.5, 3),
        "found", 17,
        "c5920966dd4e6403a5e28aca1360272d313948c3861b36642379c462a27c94e4", (0, 17, 0, 0, 0, 2, 0, 0, 0, 0, 1),
    ),
    "gen(12,0.35,2)": (
        lambda: gen_cycle(12, 2, 0.35, 2),
        "found", 12,
        "7d1124775caa8d49c3b6c5121e481f84c7cb11fbc6a89380295bd7210e1fd4b4", (0, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    ),
    "gen(13,0.4,1)": (
        lambda: gen_cycle(13, 2, 0.4, 1),
        "found", 15,
        "1693f4594cb524c5a9961dcab09a6ebcc5ea6212b7d06a9f0831895288ab0a52", (0, 15, 0, 0, 0, 3, 0, 0, 0, 0, 2),
    ),
    "gen(15,0.5,4)": (
        lambda: gen_cycle(15, 2, 0.5, 4),
        "found", 16,
        "d4faa6136e154fcf7907388b8752246b61763eaade328d8ec2ed456a06d2d990", (0, 16, 0, 0, 0, 2, 0, 0, 0, 0, 1),
    ),
    "gen(16,0.45,1)": (
        lambda: gen_cycle(16, 2, 0.45, 1),
        "found", 21,
        "ecb0ffc89022de6cc183c43f5c6def84106ed15857c6f4285d992714c39a43a7", (0, 21, 0, 0, 0, 6, 0, 0, 0, 0, 5),
    ),
    "gen(14,0.4,2)": (
        lambda: gen_cycle(14, 2, 0.4, 2),
        "found", 14,
        "3e37a2cdd252e7385c1e99272f6c14e205ff5061b4684cfb1b5cf44cdd9162b9", (0, 14, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    ),
    "gen(14,0.2,11)": (
        lambda: gen_cycle(14, 2, 0.2, 11),
        "found", 17,
        "f37182c0f556ff50275fb41f871a3524f5b3dd46180aa5c141767ca878ad9185", (0, 17, 0, 0, 0, 4, 0, 0, 0, 0, 3),
    ),
    "gen(14,0.35,1)": (
        lambda: gen_cycle(14, 2, 0.35, 1),
        "found", 14,
        "16b242dd1bbaa489a508b8bd9ff8fb99be2c8618854f144d9a26773d7d734638", (0, 14, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    ),
    "gen(14,0.3,25)": (
        lambda: gen_cycle(14, 2, 0.3, 25),
        "found", 16,
        "61ee7f918f1baddcacc59d5ace63efd85ab8dc39234caa5c2030502202c337e1", (0, 16, 0, 0, 0, 3, 0, 0, 0, 0, 2),
    ),
    "gen(8,0.5,0) asc": (
        lambda: gen_cycle(8, 2, 0.5, 0, node_limit=3999),
        "found", 13,
        "5b4791d39664ca1eac2fe74dd6a87385e5260a9ec07584dc42bb45681252ecd9", (0, 0, 0, 13, 0, 6, 0, 0, 0, 0, 5),
    ),
    "triangle gen(12,0.45,0) asc": (
        lambda: gen_cycle(12, 2, 0.45, 0, link=TRIANGLE, node_limit=3999),
        "found", 12,
        "ecf3f642cef33d99899a884a8b4fce58b9e3689ab81718797fb1b257f0becd93", (0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0),
    ),
    "triangle squared_cycle(10)": (
        lambda: find_transversal_cycle(squared_cycle_copies(10, 0), TRIANGLE),
        "found", 14,
        "bbfdc861ed5d1f337fb5ffe966f29adfb67b9708b3e5dc242ec1585d32ec0304", (0, 14, 0, 0, 58, 0, 0, 0, 0, 0, 4),
    ),
    "tight3 gen(10,0.1,1)": (
        lambda: gen_cycle(10, 3, 0.1, 1, link=TIGHT3),
        "found", 24,
        "0cbee432e6ae98e2aa10fa713333858b7d8f37d08dde0d1f229ea273afe3b473", (0, 24, 0, 0, 0, 0, 4, 2, 0, 0, 8),
    ),
    "tight3 gen(10,0.1,2) asc": (
        lambda: gen_cycle(10, 3, 0.1, 2, link=TIGHT3, node_limit=3999),
        "found", 17,
        "36b99319bb99f63e8a1fdaefc62f9bdef31d74b99286b30dab8f078e8f4154d3", (0, 0, 0, 17, 0, 0, 1, 2, 0, 0, 4),
    ),
    "gen(16,0.5,3) asc": (
        lambda: gen_cycle(16, 2, 0.5, 3, node_limit=3999),
        "found", 29,
        "3fbeefdd11c9a81c40b84c7656850360a8a95068a38c2b7fee0ccfe02408c0e0", (0, 0, 0, 29, 0, 14, 0, 0, 0, 0, 13),
    ),
    "exhausted dirac_extremal(13)": (
        lambda: find_transversal_cycle(
            relabelled(dirac_extremal(13), 13), LINK21, SearchBudget(node_limit=5000)
        ),
        "exhausted", 5_000, None, (1, 2_000, 0, 3_000, 4_892, 357, 0, 0, 2_833, 0, 2_154),
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
    "filtered_candidates",
    "reflection_cuts",
    "hall_rejections",
    "missing_edge_rejections",
    "memo_hits",
    "memo_colour_hits",
    "memo_states",
)


@pytest.mark.parametrize("name", list(CASES))
def test_search_stats_pinned(name):
    *_, stats = CASES[name]
    result = outcome(name)
    assert set(result.stats) == set(STAT_KEYS)
    assert tuple(result.stats[key] for key in STAT_KEYS) == stats
    phases = ("flex_nodes", "random_nodes", "asc_nodes")
    assert sum(result.stats[key] for key in phases) == result.nodes
