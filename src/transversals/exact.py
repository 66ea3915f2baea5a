"""Exact backtracking oracles for transversal copies at desk scale.

Outcomes are three-valued: a verified certificate, a definitive "none"
(the search space was exhausted), or "exhausted" when the node/time budget
ran out first.  For k = 2 the candidates at each position come from
neighbour bitsets, so a vertex that would complete a non-edge is never
tried.  Colours are never branched on; a maintained incremental matching
over the collection's colour bitsets prunes exactly on Hall feasibility,
and a found certificate's colours come from replaying the completed edges
through the batch matching.  A memo of dead states records every subtree
that failed, so no failed subtree is searched twice within one call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .collection import Collection, TransversalCertificate, verify_certificate
from .errors import ColourCountMismatch, InvalidInput, SearchExhausted
from .hypergraph import Edge, Hypergraph, bits, mask_of
from .links import Link, cycle_counts, cycle_on
from .matching import IncrementalMatching, maximum_bipartite_matching
from .rng import rng_for

FOUND = "found"
NONE = "none"
EXHAUSTED = "exhausted"

# The most dead states one searcher records; a full memo stops recording and
# evicts nothing, so a search's memory stays bounded.
_MEMO_CAP = 1 << 20


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 10**7
    time_limit: float = float("inf")

    def __post_init__(self) -> None:
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise InvalidInput("budget limits must be positive")


@dataclass
class SearchResult:
    """Outcome of an exact search.

    `nodes` counts the candidates tried.  For k = 2 a candidate must be
    union-adjacent to every placed partner of the position to be tried at
    all; the others are skipped without counting a node.

    `stats` holds integer counters: `restarts` (sweeps begun after the
    first), `flex_nodes`, `random_nodes` and `asc_nodes` (nodes per kind of
    sweep; they sum to `nodes`), `filtered_candidates` (unused vertices the
    k = 2 neighbour-bitset filter skipped; not nodes),
    `reflection_cuts` (candidates at position 1, and branches from
    position 2 on, refused by the reflection rule of the 2-uniform cycle),
    `hall_rejections` (candidates whose completed edges admit no rainbow
    colouring), `missing_edge_rejections` (candidates completing an edge
    no usable colour holds; for k = 2 only a colour subset leaves any),
    `memo_hits` and `memo_colour_hits` (subtrees not searched again because
    their structural or colour key was recorded dead) and `memo_states`
    (dead states recorded).  A structural key is the unused vertices plus
    the vertices at the filled positions the rest of the search reads; it
    is recorded when nothing beneath the subtree was rejected for a colour
    reason (Hall, a missing edge, or a colour-key hit), so the failure holds
    for every matcher state.  Otherwise the colour key is recorded: the
    structural key plus the multiset of pushed colour bitsets, which alone
    decides every later push, because a push succeeds iff the multiset stays
    perfectly matchable (Hall)."""

    status: str
    certificate: Optional[TransversalCertificate] = None
    nodes: int = 0
    elapsed: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == FOUND


Schedule = list[list]


def _completion_schedule(edges: Iterable[tuple[int, ...]], positions: int, k: int) -> Schedule:
    """For each position, the structure edges whose last position it is, as
    their other positions: one int per edge for k = 2, a tuple for k >= 3.
    Edges keep the given order within a position."""
    schedule: Schedule = [[] for _ in range(positions)]
    for e in edges:
        last = max(e)
        others = tuple(p for p in e if p != last)
        schedule[last].append(others[0] if k == 2 else others)
    return schedule


def _key_layout(
    schedule: Schedule, pairs: bool, n: int, reads: Sequence[int]
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Where the memo key of each position keeps its filled-position
    vertices: for each pos, (position, bit shift) per filled position that a
    schedule entry from pos on, or `reads`, refers to.  The `unused` bitmask
    takes the low n bits and each vertex the next n.bit_length() bits; also
    returns the key's total width."""
    width = n.bit_length()
    live: list[tuple[tuple[int, int], ...]] = []
    needed = set(reads)
    for pos in range(len(schedule), -1, -1):
        if pos < len(schedule):
            for entry in schedule[pos]:
                needed.update((entry,) if pairs else entry)
        filled = sorted(p for p in needed if p < pos)
        live.append(tuple((p, n + i * width) for i, p in enumerate(filled)))
    live.reverse()
    return live, n + max(map(len, live)) * width


class _Searcher:
    """The one backtracking engine: fill the schedule's positions with host
    vertices, completing each structure edge when its last position is
    filled.  Without `colours`, `masks` is a set of host edges and a
    candidate is accepted when every edge it completes is in it.  With
    `colours` (a colour bitset), `masks` maps each host edge to its colour
    bitset; every completed edge must hold a colour of `colours`, and those
    colours are pushed into an incremental matching, which keeps the
    completed edges rainbow colourable.

    For k = 2, `neighbours` holds each host vertex's neighbour bitmask
    (every edge `masks` accepts joins two neighbours), and the candidates at
    a position are the unused vertices adjacent to every partner already
    placed there; for k >= 3 it is None and every unused vertex is a
    candidate.

    Every candidate tried is one node.  Running past `node_limit`,
    `time_limit` (checked every 4096 nodes) or the per-sweep `cap` raises
    SearchExhausted; the cap is checked before the node is counted.

    A subtree that fails is recorded dead in `dead` under an int key of
    everything the rest of the search reads, and a search that meets the key
    again returns at once.  The structural key is the `unused` bitmask plus
    the vertices at the filled positions that later schedule entries or
    `arrange` read; it is recorded only when no colour reason (a Hall or
    missing-edge rejection, or a colour-key hit) rejected anything beneath
    the subtree, since such a failure holds for every matcher state.
    Otherwise the colour key is recorded: the structural key plus the sorted
    pushed colour bitsets, which fix the matcher's future because a push
    succeeds iff the pushed multiset stays perfectly matchable.  A colour
    hit counts as a colour reason for every enclosing subtree.  Neither key
    depends on candidate order, so the sweeps of one cycle search share the
    memo; every search of one searcher must use the same `base`.  The memo
    holds at most `_MEMO_CAP` keys and lives as long as the searcher."""

    def __init__(
        self,
        n: int,
        k: int,
        schedule: Schedule,
        masks,
        neighbours: Optional[Sequence[int]],
        colours: Optional[int] = None,
        node_limit: float = math.inf,
        time_limit: float = math.inf,
    ):
        self.n = n
        self.pairs = k == 2
        self.schedule = schedule
        self.masks = masks
        self.neighbours = neighbours
        self.colours = colours
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.cap = math.inf
        self.nodes = 0
        self.start_time = time.monotonic()
        self.assignment: list[int] = []
        self.edge_stack: list[Edge] = []
        self.restarts = 0
        self.phase_nodes = {"flex": 0, "random": 0, "asc": 0}
        self.filtered_candidates = 0
        self.reflection_cuts = 0
        self.hall_rejections = 0
        self.missing_edge_rejections = 0
        self.dead: set[int] = set()  # keys of failed subtrees, structural and colour
        self.coloured: set[int] = set()  # structural keys with a colour record
        self.memo_hits = 0
        self.memo_colour_hits = 0

    def host_edges(self, pos: int, v: int) -> list[Edge]:
        """The host edges completed by putting host vertex v at `pos`."""
        assignment = self.assignment
        if self.pairs:  # the schedule holds the partner position of each edge
            return [(x, v) if (x := assignment[p]) < v else (v, x) for p in self.schedule[pos]]
        get = assignment.__getitem__
        return [tuple(sorted([v, *map(get, others)])) for others in self.schedule[pos]]

    def search(self, base: Sequence[int], arrange: Optional[Callable] = None) -> bool:
        """Depth-first over the positions; candidates at each position are
        the unused vertices of `base` in its order that pass the neighbour
        filter.  `arrange(pos, cands, unused)`, when given, returns the
        candidates to try instead (reordered, filtered) and a dict of their
        host edges or None; `unused` is the bitmask of unplaced vertices of
        `base`, and besides it `arrange` may read only positions 0 and 1 of
        `assignment`, which then join every memo key.  True leaves the
        filled positions in `assignment` and, when coloured, the completed
        edges in `edge_stack`; False means the space is exhausted."""
        schedule = self.schedule
        positions = len(schedule)
        assignment = self.assignment = [-1] * positions
        edge_stack = self.edge_stack = []
        masks = self.masks
        neighbours = self.neighbours
        sel = self.colours
        matcher = None if sel is None else IncrementalMatching(sel.bit_length())
        host_edges = self.host_edges
        node_limit, time_limit, cap = self.node_limit, self.time_limit, self.cap
        nodes = self.nodes
        filtered = self.filtered_candidates
        dead, coloured, memo_cap = self.dead, self.coloured, _MEMO_CAP
        hits, colour_hits = self.memo_hits, self.memo_colour_hits
        live, key_bits = _key_layout(schedule, self.pairs, self.n, (0, 1) if arrange else ())
        tainted = 0  # colour reasons met so far: Hall and missing-edge rejections, colour hits

        def colour_key(key: int) -> int:
            packed = 1  # a sentinel bit keeps colour keys apart from structural ones
            width = sel.bit_length()
            for mask in sorted(matcher.masks):
                packed = packed << width | mask
            return packed << key_bits | key

        def push_all(hosts: list[Edge]) -> bool:
            nonlocal tainted
            get = masks.get
            pushed = [get(host, 0) & sel for host in hosts]
            if not all(pushed):
                self.missing_edge_rejections += 1
                tainted += 1
                return False
            push = matcher.push
            for count, mask in enumerate(pushed):
                if not push(mask):
                    for _ in range(count):
                        matcher.pop()
                    self.hall_rejections += 1
                    tainted += 1
                    return False
            edge_stack.extend(hosts)
            return True

        def retract(count: int) -> None:
            if matcher is not None:
                for _ in range(count):
                    matcher.pop()
                del edge_stack[len(edge_stack) - count:]

        accept = masks.issuperset if matcher is None else push_all

        def dfs(pos: int, unused: int) -> bool:
            nonlocal nodes, filtered, hits, colour_hits, tainted
            if pos == positions:
                return True
            key = unused
            for p, shift in live[pos]:
                key |= assignment[p] << shift
            if key in dead:
                hits += 1
                return False
            if key in coloured and colour_key(key) in dead:
                colour_hits += 1
                tainted += 1
                return False
            before = tainted
            allowed = unused
            if neighbours is not None:
                for p in schedule[pos]:
                    allowed &= neighbours[assignment[p]]
                filtered += (unused ^ allowed).bit_count()
            cands = [v for v in base if allowed >> v & 1]
            hosts_of = None
            if arrange is not None:
                cands, hosts_of = arrange(pos, cands, unused)
            for v in cands:
                if nodes >= cap:
                    raise SearchExhausted(f"search reached its cap of {cap} nodes")
                nodes += 1
                if nodes > node_limit:
                    raise SearchExhausted(f"search used its {node_limit} nodes")
                if nodes % 4096 == 0 and time.monotonic() - self.start_time > time_limit:
                    raise SearchExhausted(f"search used its {time_limit} s")
                hosts = hosts_of[v] if hosts_of else host_edges(pos, v)
                if accept(hosts):
                    assignment[pos] = v
                    if dfs(pos + 1, unused ^ 1 << v):
                        return True
                    retract(len(hosts))
                    assignment[pos] = -1
            if len(dead) < memo_cap:
                if tainted == before:
                    dead.add(key)
                else:
                    dead.add(colour_key(key))
                    coloured.add(key)
            return False

        try:
            return dfs(0, mask_of(base))
        finally:
            # dfs reaches itself through its closure; breaking that cycle lets
            # reference counting free the searcher and its memo with the caller
            dfs = None
            self.nodes = nodes
            self.filtered_candidates = filtered
            self.memo_hits, self.memo_colour_hits = hits, colour_hits

    def certificate(self, n: int, k: int) -> TransversalCertificate:
        """Colours by replay: the batch matching of the completed edges in
        push order, which is the assignment an augmenting-path matcher grown
        by the same pushes would hold."""
        rows = [list(bits(self.masks[e])) for e in self.edge_stack]
        phi = maximum_bipartite_matching(rows, self.colours.bit_length())
        target = Hypergraph(n, k, frozenset(self.edge_stack))
        return TransversalCertificate.from_mapping(target, dict(zip(self.edge_stack, phi)))

    def elapsed(self) -> float:
        return time.monotonic() - self.start_time

    def result(self, status: str, certificate: Optional[TransversalCertificate] = None) -> SearchResult:
        stats = {
            "restarts": self.restarts,
            **{f"{phase}_nodes": count for phase, count in self.phase_nodes.items()},
            "filtered_candidates": self.filtered_candidates,
            "reflection_cuts": self.reflection_cuts,
            "hall_rejections": self.hall_rejections,
            "missing_edge_rejections": self.missing_edge_rejections,
            "memo_hits": self.memo_hits,
            "memo_colour_hits": self.memo_colour_hits,
            "memo_states": len(self.dead),
        }
        return SearchResult(status, certificate, self.nodes, self.elapsed(), stats)


def _coloured_searcher(C: Collection, budget: SearchBudget, schedule: Schedule) -> _Searcher:
    neighbours = C.union_adjacency if C.k == 2 else None
    return _Searcher(
        C.n, C.k, schedule, C.colour_masks, neighbours, (1 << C.m) - 1,
        budget.node_limit, budget.time_limit,
    )


def _cycle_search(
    link: Link,
    searcher: _Searcher,
    node_cap: int,
    order: str = "asc",
    rng=None,
) -> Optional[bool]:
    """One depth-first sweep over the cycle search space.

    Returns True (found; searcher holds the assignment), False (space
    exhausted: definitive none), or None (node_cap hit first).  Candidate
    order per position: "asc" (exhaustive default), "flex" (most colour
    options on the completed edges first), or "random" (shuffled) — the
    latter two are find-fast heuristics for the restart phase."""
    step = link.step
    masks = searcher.masks
    host_edges = searcher.host_edges
    # reflection symmetry of the 2-uniform cycle: with vertex 0 pinned to
    # position 0, only the orientation whose closing vertex (position n-1)
    # lies below assignment[1] is searched; the closing vertex is an unused
    # union-neighbour of vertex 0 until it is placed
    zero_nbrs = searcher.neighbours[0] if link.k == 2 and link.m == 2 and link.ell == 1 else None

    def arrange(pos: int, cands: list[int], unused: int) -> tuple[list[int], Optional[dict[int, list[Edge]]]]:
        assignment = searcher.assignment
        hosts_of = None
        if pos == 0 and step == 1:
            # rotational symmetry: with every position an anchor, vertex 0
            # can be pinned to position 0
            return [0], None
        if zero_nbrs is not None and pos > 1 and not zero_nbrs & unused & ((1 << assignment[1]) - 1):
            searcher.reflection_cuts += 1
            return [], None
        if order == "flex" and pos > 0:
            # most colour options on the completed edges first (ties at
            # random, then by vertex), keeping each candidate's host edges
            hosts_of = {}
            keyed = []
            for v in cands:
                hosts = hosts_of[v] = host_edges(pos, v)
                options = 0
                for host in hosts:
                    options += masks.get(host, 0).bit_count()
                keyed.append((-options, rng.random(), v))
            keyed.sort()
            cands = [v for _, _, v in keyed]
        elif order == "random":
            rng.shuffle(cands)
        if step > 1 and pos % step == 0 and pos > 0:
            # rotation by `step` could move a smaller anchor to position 0
            cands = [v for v in cands if v >= assignment[0]]
        if zero_nbrs is not None and pos == 1:
            # after the ordering, so the survivors keep the order (and the
            # rng draws) they would have without the rule
            kept = [v for v in cands if zero_nbrs & ((1 << v) - 1)]
            searcher.reflection_cuts += len(cands) - len(kept)
            cands = kept
        return cands, hosts_of

    start = searcher.nodes
    searcher.cap = start + node_cap
    try:
        return searcher.search(range(searcher.n), arrange)
    except SearchExhausted:
        if searcher.nodes > searcher.node_limit or searcher.elapsed() > searcher.time_limit:
            raise
        return None  # cap hit mid-descent
    finally:
        searcher.phase_nodes[order] += searcher.nodes - start


def find_transversal_cycle(
    C: Collection, link: Link, budget: SearchBudget = SearchBudget()
) -> SearchResult:
    """Search for a transversal Hamilton A-cycle in C.

    Runs a few flexibility-ordered restarts with growing node caps (these
    can only produce a verified certificate or a definitive exhaustion of
    the space), then sweeps the space in plain ascending order with the
    remaining budget.  All sweeps share one searcher and so its dead-state
    memo: a later sweep skips every subtree an earlier one saw fail.
    found/none are definitive; exhausted means the budget ran out first."""
    n = C.n
    required = cycle_counts(link, n)
    if C.m != required:
        raise ColourCountMismatch(
            f"collection has {C.m} members; an A-cycle on {n} vertices has {required} edges"
        )
    searcher = _coloured_searcher(C, budget, _completion_schedule(cycle_on(link, n).edges, n, C.k))
    probe_budget = budget.node_limit // 2
    rng = rng_for(0x5EED, "cycle-restarts")
    outcome: Optional[bool] = None
    try:
        cap = 2000
        while searcher.nodes + cap <= probe_budget:
            order = "flex" if searcher.restarts % 2 == 0 else "random"
            outcome = _cycle_search(link, searcher, cap, order, rng)
            if outcome is not None:
                break
            searcher.restarts += 1  # a sweep that hit its cap is always followed by another
            if searcher.restarts % 2 == 0:
                cap *= 2
        if outcome is None:
            outcome = _cycle_search(link, searcher, budget.node_limit - searcher.nodes)
    except SearchExhausted:
        return searcher.result(EXHAUSTED)
    if outcome is None:
        return searcher.result(EXHAUSTED)
    if outcome:
        cert = searcher.certificate(n, C.k)
        check = verify_certificate(C, cert, link, n)
        if not check.ok:  # soundness guard; must not trigger
            raise AssertionError(f"solver produced an invalid certificate: {check.reason}")
        return searcher.result(FOUND, cert)
    return searcher.result(NONE)


def find_transversal_subgraph(
    C: Collection, F: Hypergraph, budget: SearchBudget = SearchBudget()
) -> SearchResult:
    """Exhaustive search for a transversal copy of the fixed pattern F."""
    if C.m != F.num_edges:
        raise ColourCountMismatch(
            f"collection has {C.m} members; F has {F.num_edges} edges"
        )
    if F.k != C.k:
        raise InvalidInput("pattern uniformity differs from the collection")
    searcher = _coloured_searcher(C, budget, _pattern_schedule(F)[1])
    try:
        hit: Optional[bool] = searcher.search(range(C.n))
    except SearchExhausted:
        hit = None
    searcher.phase_nodes["asc"] = searcher.nodes  # a single ascending sweep
    if hit is None:
        return searcher.result(EXHAUSTED)
    if hit:
        cert = searcher.certificate(C.n, C.k)
        check = verify_certificate(C, cert)
        if not check.ok:
            raise AssertionError(f"solver produced an invalid certificate: {check.reason}")
        return searcher.result(FOUND, cert)
    return searcher.result(NONE)


def _pattern_schedule(F: Hypergraph) -> tuple[list[int], Schedule]:
    """The position of each pattern vertex in the static branch order, and
    the completion schedule of F's edges over those positions.  The order
    puts highest-degree pattern vertices first, then follows a
    connectivity-greedy sweep so edges complete early."""
    deg = {v: 0 for v in range(F.n)}
    for e in F.edges:
        for v in e:
            deg[v] += 1
    remaining = set(range(F.n))
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        scored = []
        for v in remaining:
            attached = sum(1 for e in F.edges if v in e and all(u in placed or u == v for u in e))
            scored.append((-attached, -deg[v], v))
        _, _, best = min(scored)
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    rank = [0] * F.n
    for i, v in enumerate(order):
        rank[v] = i
    return rank, _completion_schedule((tuple(rank[v] for v in e) for e in F.edges), F.n, F.k)


def find_embedding(
    host: Hypergraph,
    pattern: Hypergraph,
    rng=None,
    node_limit: int = 10**6,
) -> Optional[list[int]]:
    """Uncoloured injective embedding of `pattern` into `host`; returns the
    host vertex per pattern vertex, or None when none exists.  Candidates
    are tried in vertex order, shuffled by `rng` when one is given.  Raises
    SearchExhausted when `node_limit` nodes run out before either answer."""
    if pattern.k != host.k:
        raise InvalidInput("uniformity mismatch")
    rank, schedule = _pattern_schedule(pattern)
    base = list(range(host.n))
    if rng is not None:
        rng.shuffle(base)
    neighbours = host.adjacency if host.k == 2 else None
    searcher = _Searcher(host.n, host.k, schedule, host.edges, neighbours, node_limit=node_limit)
    if not searcher.search(base):
        return None
    return [searcher.assignment[rank[v]] for v in range(pattern.n)]
