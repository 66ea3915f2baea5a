"""Absorption toolbox.

Absorbers are randomised-build-then-verify: one is returned only after its
defining property has been checked, exhaustively when the case count is
small and by sampling otherwise.  The random vertex split is not audited:
the degree shares the paper draws from concentration do not hold at the
part sizes used here, so the steps that use the parts check what they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .collection import Collection, rainbow_colouring, threshold_hypergraph
from .errors import (
    InfeasibleDegrees,
    InvalidInput,
    NoCopyFound,
    AbsorberFailed,
    SearchExhausted,
    SizesMismatch,
)
from .exact import _coloured_searcher, _completion_schedule, find_embedding
from .hypergraph import Edge, Hypergraph, bits, induced, mask_of
from .links import Link, build_chain_template
from .matching import augment_all, maximum_bipartite_matching
from .rng import rng_for

EXHAUSTIVE_CUTOFF = 10**5
SAMPLE_COUNT = 10**3
DEFAULT_RETRIES = 50


@dataclass(frozen=True)
class BipartiteAvailability:
    """Left items (things to be assigned) against right items (resources);
    adjacency[i] is the bitset of right indices usable by left item i (bit b
    for right b)."""

    m_A: int
    n_B: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.m_A:
            raise InvalidInput("one adjacency row per left item required")
        for row in self.adjacency:
            if row < 0 or row >> self.n_B:
                raise InvalidInput("right index out of range")

    @cached_property
    def right_degrees(self) -> tuple[int, ...]:
        """Number of left items that can use each right, built on first use."""
        deg = [0] * self.n_B
        for row in self.adjacency:
            for b in bits(row):
                deg[b] += 1
        return tuple(deg)


@dataclass(frozen=True)
class MatchingAbsorber:
    """B0 almost saturates the left side; B1 is a flexible pool any ell of
    which can complete it to a perfect matching."""

    B0: tuple[int, ...]
    B1: tuple[int, ...]
    ell: int


def absorber_holds(
    K: BipartiteAvailability,
    absorber: MatchingAbsorber,
    rng=None,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check the defining property: every ell-subset U of B1 completes B0 to
    a perfect matching.  Exhaustive when the subset count is small, sampled
    otherwise (rng required then).  Returns (ok, failing U or None).

    The left side is matched into B0 once; each U then only augments the
    left items that base matching left free, from a copy of it.  A left item
    with no augmenting path never gains one as others are matched (Kuhn), so
    this decides each U exactly as a fresh matching would."""
    b1 = list(absorber.B1)
    ell = absorber.ell
    b0 = mask_of(absorber.B0)
    base: dict[int, int] = {}  # right -> the left item it is matched to
    free = augment_all(K.adjacency, range(K.m_A), b0, base)
    total = math.comb(len(b1), ell)
    if total <= EXHAUSTIVE_CUTOFF:
        subsets = combinations(b1, ell)
    else:
        if rng is None:
            raise InvalidInput("sampled verification needs an rng")
        subsets = (tuple(sorted(rng.sample(b1, ell))) for _ in range(SAMPLE_COUNT))
    for U in subsets:
        if augment_all(K.adjacency, free, b0 | mask_of(U), dict(base)):
            return False, U
    return True, None


def build_matching_absorber(
    K: BipartiteAvailability,
    ell: int,
    seed: int,
) -> Optional[MatchingAbsorber]:
    """Randomised construction of a MatchingAbsorber, or None after
    DEFAULT_RETRIES attempts.

    Each attempt matches the left side into a random ordering of the rights,
    drops ell matched rights to form B0, takes the leftover rights (highest
    availability first) as B1, and then verifies; rights implicated in a
    failed check are evicted from B1 and the check restarts.  Verification,
    not the paper's availability fraction, gates the result."""
    if ell < 0 or ell > K.m_A:
        raise InvalidInput("need 0 <= ell <= m_A")
    for i, row in enumerate(K.adjacency):
        if row.bit_count() < ell + 1:
            raise InfeasibleDegrees(
                f"left item {i} has availability {row.bit_count()} < ell + 1 = {ell + 1}"
            )
    for attempt in range(DEFAULT_RETRIES):
        rng = rng_for(seed, "matching-absorber", attempt)
        order = list(range(K.n_B))
        rng.shuffle(order)
        pos = {b: j for j, b in enumerate(order)}
        # rights are tried in shuffled order: right b becomes bit pos[b]
        rows = [mask_of(pos[b] for b in bits(row)) for row in K.adjacency]
        match = maximum_bipartite_matching(rows)
        if any(v == -1 for v in match):
            continue
        matched = [order[j] for j in match]
        dropped = set(rng.sample(matched, ell))
        B0 = tuple(sorted(b for b in matched if b not in dropped))
        pool = [b for b in range(K.n_B) if b not in B0]
        pool.sort(key=lambda b: (-K.right_degrees[b], b))
        b1 = list(pool)
        while len(b1) >= ell:
            cand = MatchingAbsorber(B0, tuple(sorted(b1)), ell)
            ok, bad = absorber_holds(K, cand, rng)
            if ok:
                return cand
            evict = min(bad, key=lambda b: (K.right_degrees[b], b))
            b1.remove(evict)
    return None


@dataclass(frozen=True)
class ColourAbsorber:
    """An uncoloured copy S of a template whose edges can always be rainbow
    coloured from A plus any ell-subset of Cset."""

    template: Hypergraph
    S: tuple[int, ...]  # host vertex per template vertex
    A: frozenset[int]
    Cset: frozenset[int]
    ell: int


def build_colour_absorber(
    C: Collection,
    F_template: Hypergraph,
    gamma_n: int,
    alpha: float,
    seed: int,
) -> ColourAbsorber:
    """Embed the template into the well-represented edges (those lying in at
    least ceil(alpha*m) colours), then delegate the colour-side flexibility
    to a matching absorber between the copy's edges and all colours."""
    if F_template.num_edges <= gamma_n:
        raise InvalidInput("template must have more than gamma_n edges")
    theta = math.ceil(alpha * C.m)
    K_host = threshold_hypergraph(C, range(C.m), theta)
    try:
        emb = find_embedding(K_host, F_template, rng=rng_for(seed, "colour-absorber-embed"))
    except SearchExhausted as exc:
        raise NoCopyFound(f"template embedding budget exhausted: {exc}") from exc
    if emb is None:
        raise NoCopyFound("template does not embed into the threshold hypergraph")
    hosts = [
        tuple(sorted(emb[v] for v in e)) for e in F_template.sorted_edges()
    ]
    avail = BipartiteAvailability(len(hosts), C.m, tuple(C.colour_masks.get(e, 0) for e in hosts))
    ab = build_matching_absorber(avail, gamma_n, rng_for(seed, "colour-absorber").getrandbits(63))
    if ab is None:
        raise AbsorberFailed("no verified colour absorber within the retry budget")
    return ColourAbsorber(
        F_template, tuple(emb), frozenset(ab.B0), frozenset(ab.B1), gamma_n
    )


def degree_preserving_partition(
    C: Collection,
    sizes: Sequence[int],
    seed: int,
    within: Optional[Sequence[int]] = None,
) -> list[list[int]]:
    """Seeded uniform split of the vertices into parts of the given sizes,
    each sorted.  Not audited: the degree share the paper's random partition
    keeps into each part holds only at large n, so later steps check their
    own postconditions.

    `within` restricts the universe being split (default: all of V)."""
    universe = sorted(range(C.n) if within is None else set(within))
    if sum(sizes) != len(universe):
        raise SizesMismatch(f"sizes sum to {sum(sizes)}, need {len(universe)}")
    if any(s < 0 for s in sizes):
        raise InvalidInput("part sizes must be nonnegative")
    perm = list(universe)
    rng_for(seed, "partition", 0).shuffle(perm)
    parts: list[list[int]] = []
    at = 0
    for s in sizes:
        parts.append(sorted(perm[at : at + s]))
        at += s
    return parts


@dataclass(frozen=True)
class RainbowCopy:
    """A rainbow-coloured piece of the cycle: a copy of a link body (a factor
    copy) or of an A-chain (a tiling chain), in template vertex order."""

    vertices: tuple[int, ...]  # host vertex per template vertex
    colouring: tuple[tuple[Edge, int], ...]  # host edge -> colour

    def colours(self) -> frozenset[int]:
        return frozenset(c for _, c in self.colouring)


@dataclass
class FactorResult:
    copies: list[RainbowCopy]
    complete: bool
    stuck_block: Optional[tuple[int, ...]] = None

    def covered(self) -> frozenset[int]:
        return frozenset(v for cp in self.copies for v in cp.vertices)


def greedy_rainbow_factor(
    C: Collection,
    colours: Sequence[int],
    link: Link,
    allowed_vertices: Optional[Sequence[int]] = None,
) -> FactorResult:
    """Partition `colours` into consecutive blocks of e(body) and greedily
    place, per block, a fresh rainbow copy of the body; first fit by lowest
    host labels.  Partial result reports the block that got stuck."""
    body = link.body
    block_size = body.num_edges
    cols = sorted(colours)
    if len(cols) % block_size != 0:
        raise InvalidInput(
            f"{len(cols)} colours not divisible by {block_size} edges per copy"
        )
    allowed = set(range(C.n)) if allowed_vertices is None else set(allowed_vertices)
    used: set[int] = set()
    copies: list[RainbowCopy] = []
    for at in range(0, len(cols), block_size):
        block = tuple(cols[at : at + block_size])
        copy = _place_rainbow_copy(C, body, block, allowed - used)
        if copy is None:
            return FactorResult(copies, False, block)
        copies.append(copy)
        used |= set(copy.vertices)
    return FactorResult(copies, True, None)


def _place_rainbow_copy(
    C: Collection, body: Hypergraph, block: tuple[int, ...], free: set[int]
) -> Optional[RainbowCopy]:
    """Lowest-label backtracking embedding of the body into free vertices
    such that its edges are rainbow colourable within the block."""
    body_edges = body.sorted_edges()
    block_mask = mask_of(block)
    schedule = _completion_schedule(body_edges, body.n, C.k)
    searcher = _coloured_searcher(C, schedule, block_mask)
    if not searcher.search(sorted(free)):
        return None
    vertices = searcher.assignment
    hosts = [tuple(sorted(vertices[u] for u in e)) for e in body_edges]
    masks = C.colour_masks
    cols = maximum_bipartite_matching([masks[h] for h in hosts], block_mask)
    return RainbowCopy(tuple(vertices), tuple(zip(hosts, cols)))


@dataclass
class TilingResult:
    chains: list[RainbowCopy]
    uncovered: frozenset[int]
    unused_colours: frozenset[int]


def rainbow_tiling(
    C: Collection,
    link: Link,
    T: int,
    omega: float,
    seed: int,
    eta: float = 0.05,
    within: Optional[Sequence[int]] = None,
    pool: Optional[Sequence[int]] = None,
) -> TilingResult:
    """Vertex-disjoint rainbow chains covering most of the vertex universe.

    The universe (all of V, or `within`) is split at random into T equal
    parts plus a leftover part of about omega*|universe|/2 vertices that is
    deliberately left uncovered; each part gets a near-spanning chain found
    in its threshold hypergraph (edges in at least eta*|pool| still-unused
    pool colours) and coloured by an exact matching against those colours."""
    n = C.n
    universe = sorted(range(n) if within is None else set(within))
    pool_cols = set(range(C.m) if pool is None else pool)
    if T < 0:
        raise InvalidInput("T must be nonnegative")
    if T == 0 or not universe:
        return TilingResult([], frozenset(universe), frozenset(pool_cols))
    part_size = math.floor((1 - omega / 2) * len(universe) / T)
    if part_size < link.m:
        raise InvalidInput("parts too small to hold a single link body")
    sizes = [part_size] * T + [len(universe) - T * part_size]
    parts = degree_preserving_partition(
        C, sizes, rng_for(seed, "tiling-partition").getrandbits(63), within=universe
    )
    unused = set(pool_cols)
    theta = max(1, math.ceil(eta * len(pool_cols)))
    chains: list[RainbowCopy] = []
    covered: set[int] = set()
    for idx, part in enumerate(parts[:T]):
        if len(unused) < theta:
            break  # fewer unused colours than theta: the later parts stay uncovered
        rng = rng_for(seed, "tiling-part", idx)
        placed = _chain_in_part(C, link, part, unused, theta, rng)
        if placed is None:
            continue
        chains.append(placed)
        covered |= set(placed.vertices)
        unused -= placed.colours()
    uncovered = frozenset(set(universe) - covered)
    return TilingResult(chains, uncovered, frozenset(unused))


def _chain_in_part(
    C: Collection,
    link: Link,
    part: list[int],
    unused: set[int],
    theta: int,
    rng,
) -> Optional[RainbowCopy]:
    """Longest findable uncoloured chain in the part's threshold hypergraph,
    then an exact rainbow colouring from the unused colours."""
    K = threshold_hypergraph(C, sorted(unused), theta)
    sub = induced(K, part)
    labels = sorted(part)
    step = link.step
    t_max = (len(part) - link.ell) // step
    for t in range(t_max, 0, -1):
        template = build_chain_template(link, t)
        try:
            emb = find_embedding(sub, template, rng=rng)
        except SearchExhausted:
            continue  # as when no chain of this length embeds: try a shorter one
        if emb is None:
            continue
        vertices = tuple(labels[v] for v in emb)
        hosts = frozenset(tuple(sorted(vertices[v] for v in e)) for e in template.edges)
        cert = rainbow_colouring(C, Hypergraph(C.n, C.k, hosts), sorted(unused))
        if cert is None:
            continue
        return RainbowCopy(vertices, tuple(sorted(cert.mapping().items())))
    return None
