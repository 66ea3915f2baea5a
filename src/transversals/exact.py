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
Placements that differ only by a symmetry of the target are searched once:
the cycle search pins and orients the cycle, and the pattern search places
each class of interchangeable pattern vertices in increasing host order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .collection import Collection, TransversalCertificate, verify_certificate
from .errors import ColourCountMismatch, InvalidInput, SearchExhausted
from .hypergraph import Hypergraph, mask_of
from .links import Link, cycle_on
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
        if not self.node_limit > 0 or not self.time_limit > 0:  # NaN is not positive either
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
    `symmetry_cuts` (candidates the twin rule of the pattern search refused
    because they lie below the host of an earlier twin; not nodes),
    `hall_rejections` (candidates whose completed edges admit no rainbow
    colouring), `missing_edge_rejections` (candidates completing an edge
    no usable colour holds; for k = 2 only a colour subset leaves any),
    `memo_hits` and `memo_colour_hits` (subtrees not searched again because
    their structural or colour key was recorded dead) and `memo_states`
    (dead states recorded).  A structural key holds everything the search
    beneath it reads: the unused vertices, the vertices at the filled
    positions that later edges or twin rules read, and what the cycle's
    symmetry rules read.  It is recorded when nothing beneath the subtree
    was rejected for a colour reason (Hall, a missing edge, or a colour-key
    hit), so the failure holds for every matcher state.  Otherwise the colour key is recorded: the
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
    schedule: Schedule, pairs: bool, n: int, ordered: Sequence[tuple[int, int]]
) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Where the memo key of each position keeps its filled-position
    vertices: for each pos, (position, bit shift) per filled position that a
    schedule entry from pos on refers to, or that a pair (p, q) of `ordered`
    with q >= pos names as p (the twin rule reads p when it fills q).  The
    `unused` bitmask takes the low n bits and each vertex the next
    n.bit_length() bits; also returns the width of this part of the key."""
    width = n.bit_length()
    read_at: list[list[int]] = [[] for _ in schedule]
    for pos, entries in enumerate(schedule):
        for entry in entries:
            read_at[pos].extend((entry,) if pairs else entry)
    for p, q in ordered:
        read_at[q].append(p)
    live: list[tuple[tuple[int, int], ...]] = []
    needed: set[int] = set()
    for pos in range(len(schedule), -1, -1):
        if pos < len(schedule):
            needed.update(read_at[pos])
        filled = sorted(p for p in needed if p < pos)
        live.append(tuple((p, n + i * width) for i, p in enumerate(filled)))
    live.reverse()
    return live, n + max(map(len, live)) * width


class _Searcher:
    """The one backtracking engine: fill the schedule's positions with host
    vertices, completing each structure edge when its last position is
    filled.  Without `colours`, `masks` is a set of host edges and a
    candidate is accepted when every edge it completes is in it.  With
    `colours` (a colour bitset), every completed edge must hold a colour of
    `colours`, and those colours are pushed into an incremental matching,
    which keeps the completed edges rainbow colourable; `masks` gives an
    edge's colour bitset, as `Collection.colour_rows` for k = 2 and as
    `Collection.colour_masks` for k >= 3.

    For k = 2, `neighbours` holds each host vertex's neighbour bitmask (a
    host edge, or one that some colour holds, joins two neighbours), and the
    candidates at a position are the unused vertices adjacent to every
    partner already placed there, so an uncoloured search accepts each one;
    for k >= 3 it is None and every unused vertex is a candidate.

    A search may order twin positions: for each pair (p, q) of `ordered`,
    the host at q must lie above the host at p.  The candidates below it
    are refused without counting a node and are counted in `symmetry_cuts`.

    Every candidate tried is one node.  Running past `node_limit`,
    `time_limit` (checked every 4096 nodes) or the per-sweep `cap` raises
    SearchExhausted; the cap is checked before the node is counted.

    A subtree that fails is recorded dead in `dead` under an int key of
    everything the rest of the search reads, and a search that meets the key
    again returns at once.  A key holds everything read beneath it.  The
    structural key is the `unused` bitmask, the vertices at the filled
    positions that later schedule entries or twin pairs read, and above them
    what `reads` says the `arrange` hook reads.  It is recorded only when no
    colour reason (a Hall or missing-edge rejection, or a colour-key hit)
    rejected anything beneath the subtree, since such a failure holds for every matcher state.
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
        self.restarts = 0
        self.phase_nodes = {"flex": 0, "random": 0, "asc": 0}
        self.filtered_candidates = 0
        self.reflection_cuts = 0
        self.symmetry_cuts = 0
        self.hall_rejections = 0
        self.missing_edge_rejections = 0
        self.dead: set[int] = set()  # keys of failed subtrees, structural and colour
        self.coloured: set[int] = set()  # structural keys with a colour record
        self.memo_hits = 0
        self.memo_colour_hits = 0

    def pushes(self, pos: int, cands: Iterable[int]) -> dict[int, list[int]]:
        """For each host vertex v of `cands`, the colour bitsets, within
        `colours`, of the host edges completed by putting v at `pos`, in
        schedule order: what the search pushes for v."""
        masks, sel, placed = self.masks, self.colours, self.assignment.__getitem__
        if self.pairs:
            partners = list(map(placed, self.schedule[pos]))
            return {v: [masks[v][x] & sel for x in partners] for v in cands}
        others = [tuple(map(placed, entry)) for entry in self.schedule[pos]]
        return {v: [masks.get(tuple(sorted((v, *t))), 0) & sel for t in others] for v in cands}

    def search(
        self,
        base: Sequence[int],
        arrange: Optional[Callable] = None,
        reads: Optional[Callable[[int, int], int]] = None,
        ordered: Sequence[tuple[int, int]] = (),
    ) -> bool:
        """Depth-first over the positions; candidates at each position are
        the unused vertices of `base` in its order that pass the neighbour
        filter and the twin rule of `ordered`.  `arrange(pos, cands,
        unused)`, when given, returns the candidates to try instead
        (reordered, filtered) and a dict of what `pushes` gives for each, or
        None; `unused` is the bitmask of unplaced vertices of `base`.
        Whatever `arrange` reads at pos and beneath it besides `unused`, the
        rng and the positions the schedule reads, `reads(pos, unused)` must
        return, packed into an int below 2**n; it joins the memo key.  True
        leaves the filled positions in `assignment`, from which
        `certificate` rebuilds the completed edges; False means the space is
        exhausted."""
        schedule = self.schedule
        positions = len(schedule)
        assignment = self.assignment = [-1] * positions
        masks, neighbours, pairs, sel = self.masks, self.neighbours, self.pairs, self.colours
        matcher = None if sel is None else IncrementalMatching(sel.bit_length())
        push, pop = (None, None) if matcher is None else (matcher.push, matcher.pop)
        node_limit, time_limit, cap = self.node_limit, self.time_limit, self.cap
        nodes = self.nodes
        filtered = self.filtered_candidates
        dead, coloured, memo_cap = self.dead, self.coloured, _MEMO_CAP
        hits, colour_hits = self.memo_hits, self.memo_colour_hits
        symmetry_cuts = self.symmetry_cuts
        floor = [-1] * positions  # floor[q] = p: the host at q lies above the host at p
        for p, q in ordered:
            floor[q] = p
        live, reads_shift = _key_layout(schedule, pairs, self.n, ordered)
        key_bits = reads_shift + (self.n if reads else 0)
        tainted = 0  # colour reasons met so far: Hall and missing-edge rejections, colour hits

        def colour_key(key: int) -> int:
            packed = 1  # a sentinel bit keeps colour keys apart from structural ones
            width = sel.bit_length()
            for mask in sorted(matcher.masks):
                packed = packed << width | mask
            return packed << key_bits | key

        def dfs(pos: int, unused: int) -> bool:
            nonlocal nodes, filtered, hits, colour_hits, tainted, symmetry_cuts
            if pos == positions:
                return True
            key = unused
            for p, shift in live[pos]:
                key |= assignment[p] << shift
            if reads is not None:
                key |= reads(pos, unused) << reads_shift
            if key in dead:
                hits += 1
                return False
            if key in coloured and colour_key(key) in dead:
                colour_hits += 1
                tainted += 1
                return False
            before = tainted
            allowed = unused
            if pairs:  # the partner of each completed edge, and the neighbour filter
                partners = list(map(assignment.__getitem__, schedule[pos]))
                for x in partners:
                    allowed &= neighbours[x]
                filtered += (unused ^ allowed).bit_count()
            else:  # the placed vertices of each completed edge
                partners = [tuple(map(assignment.__getitem__, others)) for others in schedule[pos]]
            if floor[pos] >= 0:
                below = allowed & ((1 << assignment[floor[pos]]) - 1)
                symmetry_cuts += below.bit_count()
                allowed ^= below
            cands = [v for v in base if allowed >> v & 1]
            given = None
            if arrange is not None:
                cands, given = arrange(pos, cands, unused)
            for v in cands:
                if nodes >= cap:
                    raise SearchExhausted(f"search reached its cap of {cap} nodes")
                nodes += 1
                if nodes > node_limit:
                    raise SearchExhausted(f"search used its {node_limit} nodes")
                if nodes % 4096 == 0 and time.monotonic() - self.start_time > time_limit:
                    raise SearchExhausted(f"search used its {time_limit} s")
                if matcher is not None:
                    if given:
                        pushed = given[v]
                    elif pairs:
                        row = masks[v]
                        pushed = [row[x] & sel for x in partners]
                    else:
                        pushed = [masks.get(tuple(sorted((v, *t))), 0) & sel for t in partners]
                    if 0 in pushed:  # a completed edge that no usable colour holds
                        self.missing_edge_rejections += 1
                        tainted += 1
                        continue
                    count = 0
                    for mask in pushed:
                        if not push(mask):
                            break
                        count += 1
                    if count < len(pushed):
                        for _ in range(count):
                            pop()
                        self.hall_rejections += 1
                        tainted += 1
                        continue
                elif not pairs and not masks.issuperset([tuple(sorted((v, *t))) for t in partners]):
                    continue
                assignment[pos] = v
                if dfs(pos + 1, unused ^ 1 << v):
                    return True
                if matcher is not None:
                    for _ in pushed:
                        pop()
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
            self.symmetry_cuts = symmetry_cuts
            self.memo_hits, self.memo_colour_hits = hits, colour_hits

    def certificate(self, n: int, k: int) -> TransversalCertificate:
        """Colours by replay: the completed edges, rebuilt in push order
        from `assignment` and the schedule, go through the batch matching,
        which is the assignment an augmenting-path matcher grown by the same
        pushes would hold."""
        get = self.assignment.__getitem__
        edges = [
            tuple(sorted([get(pos), *map(get, (entry,) if self.pairs else entry)]))
            for pos, entries in enumerate(self.schedule)
            for entry in entries
        ]
        masks = [self.masks[u][v] for u, v in edges] if self.pairs else [self.masks[e] for e in edges]
        phi = maximum_bipartite_matching(masks, self.colours)
        target = Hypergraph(n, k, frozenset(edges))
        return TransversalCertificate.from_mapping(target, dict(zip(edges, phi)))

    def elapsed(self) -> float:
        return time.monotonic() - self.start_time

    def result(self, status: str, certificate: Optional[TransversalCertificate] = None) -> SearchResult:
        stats = {
            "restarts": self.restarts,
            **{f"{phase}_nodes": count for phase, count in self.phase_nodes.items()},
            "filtered_candidates": self.filtered_candidates,
            "reflection_cuts": self.reflection_cuts,
            "symmetry_cuts": self.symmetry_cuts,
            "hall_rejections": self.hall_rejections,
            "missing_edge_rejections": self.missing_edge_rejections,
            "memo_hits": self.memo_hits,
            "memo_colour_hits": self.memo_colour_hits,
            "memo_states": len(self.dead),
        }
        return SearchResult(status, certificate, self.nodes, self.elapsed(), stats)


def _coloured_searcher(
    C: Collection, schedule: Schedule, colours: int, budget: SearchBudget = SearchBudget(math.inf)
) -> _Searcher:
    """The engine over C's colour bitsets, restricted to `colours`."""
    masks, neighbours = (C.colour_rows, C.union_adjacency) if C.k == 2 else (C.colour_masks, None)
    return _Searcher(C.n, C.k, schedule, masks, neighbours, colours, budget.node_limit, budget.time_limit)


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
    # reflection symmetry of the 2-uniform cycle: with vertex 0 pinned to
    # position 0, only the orientation whose closing vertex (position n-1)
    # lies below assignment[1] is searched; the closing vertex is an unused
    # union-neighbour of vertex 0 until it is placed
    zero_nbrs = searcher.neighbours[0] if link.k == 2 and link.m == 2 and link.ell == 1 else None
    reads = None
    if zero_nbrs is not None:
        def reads(pos: int, unused: int) -> int:
            # from position 2 on, the reflection rule reads assignment[1]
            # only through these unused neighbours of vertex 0 below it;
            # deeper positions read them less what is placed meanwhile, so
            # they and `unused` cover every later read
            return zero_nbrs & unused & ((1 << searcher.assignment[1]) - 1) if pos > 1 else 0
    elif step > 1:
        def reads(pos: int, unused: int) -> int:
            return searcher.assignment[0] if pos > 0 else 0

    def arrange(pos: int, cands: list[int], unused: int) -> tuple[list[int], Optional[dict[int, list[int]]]]:
        assignment = searcher.assignment
        pushed_of = None
        if pos == 0 and step == 1:
            # rotational symmetry: with every position an anchor, vertex 0
            # can be pinned to position 0
            return [0], None
        if zero_nbrs is not None and pos > 1 and not zero_nbrs & unused & ((1 << assignment[1]) - 1):
            searcher.reflection_cuts += 1
            return [], None
        if order == "flex" and pos > 0:
            # most colour options on the completed edges first (ties at
            # random, then by vertex), keeping each candidate's pushes
            pushed_of = searcher.pushes(pos, cands)
            keyed = sorted([(-sum(map(int.bit_count, pushed_of[v])), rng.random(), v) for v in cands])
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
        return cands, pushed_of

    start = searcher.nodes
    searcher.cap = start + node_cap
    try:
        return searcher.search(range(searcher.n), arrange, reads)
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
    cycle = cycle_on(link, n)
    if C.m != cycle.num_edges:
        raise ColourCountMismatch(
            f"collection has {C.m} members; an A-cycle on {n} vertices has {cycle.num_edges} edges"
        )
    searcher = _coloured_searcher(C, _completion_schedule(cycle.edges, n, C.k), (1 << C.m) - 1, budget)
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
    rank, schedule = _pattern_schedule(F)
    searcher = _coloured_searcher(C, schedule, (1 << C.m) - 1, budget)
    # the hosts of twin pattern vertices are interchangeable, so each class
    # takes them in increasing order; the ascending sweep's first copy
    # already does, so only node counts fall
    ordered = []
    for twins in _twin_classes(F):
        placed = sorted(rank[v] for v in twins)
        ordered.extend(zip(placed, placed[1:]))
    try:
        hit: Optional[bool] = searcher.search(range(C.n), ordered=ordered)
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


def _twin_classes(F: Hypergraph) -> list[list[int]]:
    """The classes of F's twins, ascending, each of two or more vertices.
    Vertices a and b are twins when the transposition (a b) maps F's edge
    set onto itself, that is, when the edges through a but not b, with a
    replaced by b, are the edges through b but not a.  Twinship is an
    equivalence ((a c) = (a b)(b c)(a b)), so each class's whole symmetric
    group lies in Aut(F)."""
    through: list[list[frozenset[int]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        for v in e:
            through[v].append(frozenset(e).difference((v,)))
    classes = []
    seen: set[int] = set()
    for a in range(F.n):
        if a in seen:
            continue
        twins = [a]
        for b in range(a + 1, F.n):
            if len(through[a]) == len(through[b]):
                if {s for s in through[a] if b not in s} == {s for s in through[b] if a not in s}:
                    twins.append(b)
        if len(twins) > 1:
            seen.update(twins)
            classes.append(twins)
    return classes


def _pattern_schedule(F: Hypergraph) -> tuple[list[int], Schedule]:
    """The position of each pattern vertex in the static branch order, and
    the completion schedule of F's edges over those positions.  The order
    puts highest-degree pattern vertices first, then follows a
    connectivity-greedy sweep so edges complete early: each step places the
    vertex that the most edges attach to (edges whose other vertices are
    all placed), ties to the higher degree, then the lower vertex."""
    through: list[list[tuple[int, ...]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        for v in e:
            through[v].append(e)
    deg = [len(es) for es in through]
    unplaced = dict.fromkeys(F.edges, F.k)  # per edge, its vertices not yet placed
    # per vertex, the edges whose only unplaced vertex it is; for k = 1 that
    # is its degree, which orders the vertices as these zeros and deg do
    attached = [0] * F.n
    remaining = set(range(F.n))
    order: list[int] = []
    while remaining:
        _, _, best = min((-attached[v], -deg[v], v) for v in remaining)
        order.append(best)
        remaining.remove(best)
        for e in through[best]:
            unplaced[e] -= 1
            if unplaced[e] == 1:  # the edge now attaches to its last vertex
                for u in e:
                    if u in remaining:
                        attached[u] += 1
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
