"""Constructions and recognisers that only the tests use."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from transversals.absorb import ColourAbsorber
from transversals.errors import InvalidInput
from transversals.hypergraph import Hypergraph, induced
from transversals.links import ChainLayout, Link, chain_windows


def chain_counts(link: Link, t: int) -> tuple[int, int]:
    """(vertex count, edge count) of the minimal A-chain of length t."""
    if t < 1:
        raise InvalidInput("t must be >= 1")
    v = link.step * t + link.ell
    e = t * (link.edges_per_link - link.edges_in_overlap) + link.edges_in_overlap
    return v, e


def complete_uniform(n: int, k: int) -> Hypergraph:
    return Hypergraph(n, k, frozenset(itertools.combinations(range(n), k)))


def cycle_graph(n: int) -> Hypergraph:
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return Hypergraph(n, 2, frozenset(edges))


def degree_d(H: Hypergraph, S: Iterable[int]) -> int:
    """Number of edges of H containing the d-set S, 1 <= d < k."""
    s = frozenset(S)
    d = len(s)
    if not 1 <= d < H.k:
        raise InvalidInput(f"|S|={d} outside [1, {H.k - 1}]")
    if any(v < 0 or v >= H.n for v in s):
        raise InvalidInput(f"S={sorted(s)} not a subset of the vertex set")
    return sum(1 for e in H.edges if s.issubset(e))


def is_chain(
    candidate: Hypergraph, link: Link, mode: str = "exact"
) -> tuple[bool, Optional[ChainLayout]]:
    """Recognise candidate as an A-chain.

    `mode="exact"`: every window must induce exactly the link pattern (minimal
    chains).  `mode="contain"`: windows may carry extra host edges (embedding
    mode); the edge-coverage condition is then skipped since host edges need
    not belong to the chain.
    """
    if mode not in ("exact", "contain"):
        raise InvalidInput(f"unknown mode {mode!r}")
    if candidate.k != link.k:
        return False, None
    step = link.step
    rem = candidate.n - link.ell
    if rem <= 0 or rem % step != 0:
        return False, None
    t = rem // step
    layout = chain_windows(link, t)
    for window in layout.windows:
        pattern = induced(candidate, window)
        if mode == "exact":
            if pattern.edges != link.body.edges:
                return False, None
        else:
            if not pattern.edges.issuperset(link.body.edges):
                return False, None
    if mode == "exact":
        for e in candidate.edges:
            lo, hi = e[0], e[-1]
            if not any(w[0] <= lo and hi <= w[-1] for w in layout.windows):
                return False, None
    return True, layout


def host_copy(ab: ColourAbsorber, n: int) -> Hypergraph:
    """The absorber's copy of its template, on host vertices 0..n-1."""
    edges = {tuple(sorted(ab.S[v] for v in e)) for e in ab.template.edges}
    return Hypergraph(n, ab.template.k, frozenset(edges))
