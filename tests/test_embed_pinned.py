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
turned 473 budget-outs into answers and changed no other output, and the
dense k = 2 group again when the engine began to skip subtrees recorded
dead, which turned 2 budget-outs into answers (no embedding) and changed
no other output.

`rainbow_tiling`, which embeds chain templates and then colours them, is
pinned for `edge(2,1)`, `triangle` and `pillar`; the pipeline pins reach
only `edge(2,1)`.  Its digest was recorded while tiling chains still had a
type of their own, before they became `RainbowCopy` objects.  The omega = 0
group, for `edge(2,1)` and `pillar`, was recorded while the tiling still
dropped an empty slack part before partitioning and kept every part after.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from transversals.absorb import greedy_rainbow_factor, rainbow_tiling
from transversals.collection import Collection
from transversals.errors import PartitionFailed, SearchExhausted
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


def tiling_outputs(links, sizes, densities, Ts, omega=0.1):
    """Chains (vertices and colouring), uncovered vertices and unused colours
    of `rainbow_tiling` on n-member collections, at the default partition
    slack and at slack 1.0, which still audits every part whenever
    delta_min/n + alpha/2 > 1 (only an infinite slack audits nothing); a
    partition that no retry accepts is recorded as such."""
    out = []
    for name, link in links:
        for n in sizes:
            for p in densities:
                rng = random.Random(f"tiling/{name}/{n}/{p}")
                pairs = list(combinations(range(n), 2))
                C = Collection(n, 2, tuple(
                    Hypergraph(n, 2, frozenset(e for e in pairs if rng.random() < p))
                    for _ in range(n)
                ))
                for T in Ts:
                    for slack in (None, 1.0):
                        kwargs = {} if slack is None else {"slack": slack}
                        try:
                            res = rainbow_tiling(C, link, T, omega, seed=n + T, **kwargs)
                        except PartitionFailed:
                            out.append([name, n, p, T, slack, "partition failed"])
                            continue
                        out.append([
                            name, n, p, T, slack,
                            [[list(rc.vertices), sorted([list(e), c] for e, c in rc.colouring)] for rc in res.chains],
                            sorted(res.uncovered),
                            sorted(res.unused_colours),
                        ])
    return out


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


LINKS2 = [("edge(2,1)", single_edge_link(2, 1)), ("triangle", triangle_link()), ("pillar", pillar_link())]
LINKS3 = [("edge(3,1)", single_edge_link(3, 1)), ("edge(3,2)", single_edge_link(3, 2))]
BODIES = LINKS2 + [("clique(4)", clique_link(4))]

# group: (outputs, SHA-256 of their JSON); 1,776, 1,232, 1,056, 432, 108
# and 72 outputs, of which 343, 98 and 150 embedding budget-outs, 132 stuck
# factors and 27 + 2 rejected tiling partitions (81 + 70 tilings, 153 + 138
# chains).  At omega = 0, 64 of the 72 tilings split a universe that T
# divides, so their slack part is empty.
GROUPS = {
    "embedding k=2 sparse": (
        lambda: embedding_outputs(LINKS2, range(6, 15), (0.25, 0.35), (2, 3, 4, 5, 6)),
        "10785ee3684772553e8d8be8f0e421223c5a9b537a217c2ca30bfa63bf869dc0",
    ),
    "embedding k=2 dense": (
        lambda: embedding_outputs(LINKS2, range(6, 15), (0.5, 0.7), (2, 4, 6, 8)),
        "9e0cc56781c9ccb9a25f36ff858fc3b40b9d3f880687d648e3e8d48fb876aa39",
    ),
    "embedding k=3": (
        lambda: embedding_outputs(LINKS3, range(6, 12), (0.2, 0.35, 0.5), (1, 2, 3, 5, 7), k=3),
        "9639c1add7e9695b44e2dd84c8710ba989ea8f5200d772609281269de77f2017",
    ),
    "rainbow factor": (
        lambda: factor_outputs(BODIES, range(6, 15), (0.3, 0.5, 0.7)),
        "e12c736714bc5d4c2c015951cb82da517b17558092f3afb8f3196471ffa98d4a",
    ),
    "rainbow tiling": (
        lambda: tiling_outputs(LINKS2, (16, 20, 24), (0.6, 0.8), (1, 2, 3)),
        "8539c22778e2468ce49f50fd0d8f1bc109471f6ceca7aff45da1708c9974489a",
    ),
    "rainbow tiling omega=0": (
        lambda: tiling_outputs([LINKS2[0], LINKS2[2]], (12, 16, 24), (0.6, 0.8), (1, 2, 3), omega=0.0),
        "2f15fd55f30e10c442206eeb2c28bb29b537c0cc020f05260fbdb4f20bcf0ab8",
    ),
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_embedders_pinned(group):
    outputs, digest = GROUPS[group]
    assert sha256_json(outputs()) == digest
