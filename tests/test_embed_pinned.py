"""Pinned outputs of the two uncoloured-then-coloured embedders.

`find_embedding` (the template embedder) and `greedy_rainbow_factor` (the
rainbow-copy placer) are pinned group by group: each group's outputs are
hashed together, so a change to the candidate order, the acceptance test,
the rng stream or where a node budget runs out fails here.  Hosts and
collections come from str-seeded stdlib rngs, independent of the library's
generators.  The k = 3 and rainbow-factor digests were recorded before both
embedders moved onto the shared backtracking engine of `transversals.exact`;
the two k = 2 embedding groups were re-recorded when the engine stopped
counting candidates that are not adjacent to their placed partners, which
turned 473 budget-outs into answers and changed no other output.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from transversals.absorb import greedy_rainbow_factor
from transversals.collection import Collection
from transversals.errors import SearchExhausted
from transversals.exact import find_embedding
from transversals.hypergraph import Hypergraph
from transversals.links import (
    build_chain_template,
    clique_link,
    pillar_link,
    single_edge_link,
    triangle_link,
)

NODE_LIMITS = (10, 100, 1000, 10**5)


def random_host(n: int, k: int, p: float, tag: str) -> Hypergraph:
    rng = random.Random(f"host/{tag}/{n}/{k}/{p}")
    return Hypergraph(n, k, frozenset(e for e in combinations(range(n), k) if rng.random() < p))


def embedding_outputs(links, sizes, densities, ts, k=2):
    """(host, template, rng, node_limit) -> embedding or "exhausted", and
    for a seeded run the next draw of its rng afterwards."""
    out = []
    for name, link in links:
        for n in sizes:
            for p in densities:
                host = random_host(n, k, p, name)
                for t in ts:
                    template = build_chain_template(link, t)
                    if template.n > n:
                        continue
                    for seeded in (False, True):
                        for limit in NODE_LIMITS:
                            rng = random.Random(f"embed/{name}/{n}/{p}/{t}") if seeded else None
                            try:
                                got = find_embedding(host, template, rng=rng, node_limit=limit)
                            except SearchExhausted:
                                got = "exhausted"
                            after = rng.getrandbits(64) if seeded else None
                            out.append([name, n, p, t, seeded, limit, got, after])
    return out


def factor_outputs(links, sizes, densities):
    """Copies, colourings, completeness and the stuck block of
    `greedy_rainbow_factor` over all colours, a colour subset and a vertex
    subset."""
    out = []
    for name, link in links:
        block = link.body.num_edges
        for n in sizes:
            for p in densities:
                rng = random.Random(f"factor/{name}/{n}/{p}")
                m = block * max(1, n // link.m)
                pairs = list(combinations(range(n), 2))
                C = Collection(n, 2, tuple(
                    Hypergraph(n, 2, frozenset(e for e in pairs if rng.random() < p))
                    for _ in range(m)
                ))
                colour_sets = [list(range(m)), sorted(rng.sample(range(m), block * max(1, m // block // 2)))]
                vertex_sets = [None, sorted(rng.sample(range(n), max(link.m, 2 * n // 3)))]
                for colours in colour_sets:
                    for allowed in vertex_sets:
                        res = greedy_rainbow_factor(C, colours, link, allowed)
                        out.append([
                            name, n, p, colours, allowed,
                            [[list(cp.vertices), [[list(e), c] for e, c in cp.colouring]] for cp in res.copies],
                            res.complete,
                            None if res.stuck_block is None else list(res.stuck_block),
                        ])
    return out


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


LINKS2 = [("edge(2,1)", single_edge_link(2, 1)), ("triangle", triangle_link()), ("pillar", pillar_link())]
LINKS3 = [("edge(3,1)", single_edge_link(3, 1)), ("edge(3,2)", single_edge_link(3, 2))]
BODIES = LINKS2 + [("clique(4)", clique_link(4))]

# group: (outputs, SHA-256 of their JSON); 1,776, 1,232, 1,056 and 432
# outputs, of which 343, 100 and 150 embedding budget-outs and 132 stuck
# factors
GROUPS = {
    "embedding k=2 sparse": (
        lambda: embedding_outputs(LINKS2, range(6, 15), (0.25, 0.35), (2, 3, 4, 5, 6)),
        "10785ee3684772553e8d8be8f0e421223c5a9b537a217c2ca30bfa63bf869dc0",
    ),
    "embedding k=2 dense": (
        lambda: embedding_outputs(LINKS2, range(6, 15), (0.5, 0.7), (2, 4, 6, 8)),
        "14759619b1bf1d9081bc34907c2b285a5a01a327f2fe1349eeb1ed70248f5cb6",
    ),
    "embedding k=3": (
        lambda: embedding_outputs(LINKS3, range(6, 12), (0.2, 0.35, 0.5), (1, 2, 3, 5, 7), k=3),
        "9639c1add7e9695b44e2dd84c8710ba989ea8f5200d772609281269de77f2017",
    ),
    "rainbow factor": (
        lambda: factor_outputs(BODIES, range(6, 15), (0.3, 0.5, 0.7)),
        "e12c736714bc5d4c2c015951cb82da517b17558092f3afb8f3196471ffa98d4a",
    ),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_embedders_pinned(group):
    outputs, digest = GROUPS[group]
    assert sha256_json(outputs()) == digest
