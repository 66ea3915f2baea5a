"""Exact backtracking oracles for transversal copies at desk scale.

Outcomes are three-valued: a verified certificate, a definitive "none"
(the search space was exhausted), or "exhausted" when the node/time budget
ran out first.  Colours are never branched on; a maintained incremental
matching over the collection's colour bitsets prunes exactly on Hall
feasibility, and a found certificate's colours come from replaying the
completed edges through the batch matching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .collection import Collection, TransversalCertificate, verify_certificate
from .errors import ColourCountMismatch, InvalidInput, SearchExhausted
from .hypergraph import Edge, Hypergraph, bits
from .links import Link, cycle_counts, cycle_on
from .matching import IncrementalMatching, maximum_bipartite_matching
from .rng import rng_for

FOUND = "found"
NONE = "none"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 10**7
    time_limit: float = float("inf")
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise InvalidInput("budget limits must be positive")


@dataclass
class SearchResult:
    """Outcome of an exact search.

    `stats` holds integer counters: `restarts` (sweeps begun after the
    first), `flex_nodes`, `random_nodes` and `asc_nodes` (nodes per kind of
    sweep; they sum to `nodes`), `hall_rejections` (candidates whose
    completed edges admit no rainbow colouring) and
    `missing_edge_rejections` (candidates completing an edge no colour
    holds)."""

    status: str
    certificate: Optional[TransversalCertificate] = None
    nodes: int = 0
    elapsed: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == FOUND


class _BudgetExceeded(Exception):
    pass


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


class _Searcher:
    """Shared backtracking core: fill positions with host vertices, complete
    structure edges as their last position is assigned, and keep the edge ->
    colour matching feasible at every step."""

    def __init__(self, C: Collection, budget: SearchBudget, schedule: Schedule):
        self.C = C
        self.budget = budget
        self.schedule = schedule
        self.pairs = C.k == 2
        self.masks = C.colour_masks
        self.nodes = 0
        self.start_time = time.monotonic()
        self.matcher = IncrementalMatching(C.m)
        self.edge_stack: list[Edge] = []
        self.restarts = 0
        self.phase_nodes = {"flex": 0, "random": 0, "asc": 0}
        self.hall_rejections = 0
        self.missing_edge_rejections = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise _BudgetExceeded
        if self.nodes % 4096 == 0:
            if time.monotonic() - self.start_time > self.budget.time_limit:
                raise _BudgetExceeded

    def host_edges(self, pos: int, v: int, assignment: list[int]) -> list[Edge]:
        """The host edges completed by putting host vertex v at `pos`."""
        if self.pairs:  # the schedule holds the partner position of each edge
            return [(x, v) if (x := assignment[p]) < v else (v, x) for p in self.schedule[pos]]
        return [
            tuple(sorted([v, *(assignment[p] for p in others)]))
            for others in self.schedule[pos]
        ]

    def complete_edges(self, hosts: list[Edge]) -> bool:
        """Push completed host edges into the matcher; False means infeasible
        (nothing is left pushed in that case)."""
        get = self.masks.get
        masks = [get(host, 0) for host in hosts]
        if not all(masks):
            self.missing_edge_rejections += 1
            return False
        push = self.matcher.push
        for pushed, mask in enumerate(masks):
            if not push(mask):
                for _ in range(pushed):
                    self.matcher.pop()
                self.hall_rejections += 1
                return False
        self.edge_stack += hosts
        return True

    def uncomplete(self, count: int) -> None:
        pop = self.matcher.pop
        for _ in range(count):
            pop()
        del self.edge_stack[len(self.edge_stack) - count:]

    def certificate(self, n: int, k: int) -> TransversalCertificate:
        """Colours by replay: the batch matching of the completed edges in
        push order, which is the assignment an augmenting-path matcher grown
        by the same pushes would hold."""
        rows = [list(bits(self.masks[e])) for e in self.edge_stack]
        phi = maximum_bipartite_matching(rows, self.C.m)
        target = Hypergraph(n, k, frozenset(self.edge_stack))
        return TransversalCertificate.from_mapping(target, dict(zip(self.edge_stack, phi)))

    def elapsed(self) -> float:
        return time.monotonic() - self.start_time

    def result(self, status: str, certificate: Optional[TransversalCertificate] = None) -> SearchResult:
        stats = {
            "restarts": self.restarts,
            **{f"{phase}_nodes": count for phase, count in self.phase_nodes.items()},
            "hall_rejections": self.hall_rejections,
            "missing_edge_rejections": self.missing_edge_rejections,
        }
        return SearchResult(status, certificate, self.nodes, self.elapsed(), stats)


def _cycle_search(
    C: Collection,
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
    n = C.n
    step = link.step
    orient = link.k == 2 and link.m == 2 and link.ell == 1
    assignment = [-1] * n
    used = [False] * n
    start = searcher.nodes
    cap = start + node_cap
    masks = searcher.masks
    host_edges = searcher.host_edges

    def flex_order(pos: int, cands: list[int]) -> tuple[list[int], dict[int, list[Edge]]]:
        """The candidates, most colour options on their completed edges
        first (ties at random, then by vertex), and each one's host edges."""
        hosts_of = {}
        keyed = []
        for v in cands:
            hosts = hosts_of[v] = host_edges(pos, v, assignment)
            options = 0
            for host in hosts:
                options += masks.get(host, 0).bit_count()
            keyed.append((-options, rng.random() if rng is not None else 0, v))
        keyed.sort()
        return [v for _, _, v in keyed], hosts_of

    def dfs(pos: int) -> bool:
        if pos == n:
            return True
        hosts_of = None
        if pos == 0 and step == 1:
            # rotational symmetry: with every position an anchor, vertex 0
            # can be pinned to position 0
            cands = [0]
        else:
            cands = [v for v in range(n) if not used[v]]
            if order == "flex" and pos > 0:
                cands, hosts_of = flex_order(pos, cands)
            elif order == "random":
                rng.shuffle(cands)
        for v in cands:
            if step > 1 and pos % step == 0 and pos > 0 and v < assignment[0]:
                continue  # rotation by `step` could move a smaller anchor to position 0
            if orient and pos == n - 1 and v > assignment[1]:
                continue  # reflection symmetry of the 2-uniform cycle
            if searcher.nodes >= cap:
                raise _BudgetExceeded
            searcher.tick()
            hosts = hosts_of[v] if hosts_of else host_edges(pos, v, assignment)
            if searcher.complete_edges(hosts):
                assignment[pos] = v
                used[v] = True
                if dfs(pos + 1):
                    return True
                searcher.uncomplete(len(hosts))
                used[v] = False
                assignment[pos] = -1
        return False

    try:
        return dfs(0)
    except _BudgetExceeded:
        if searcher.nodes > searcher.budget.node_limit:
            raise
        if time.monotonic() - searcher.start_time > searcher.budget.time_limit:
            raise
        # cap hit mid-descent: drop the partially pushed matching state
        searcher.matcher = IncrementalMatching(C.m)
        searcher.edge_stack = []
        return None
    finally:
        searcher.phase_nodes[order] += searcher.nodes - start


def find_transversal_cycle(
    C: Collection, link: Link, budget: SearchBudget = SearchBudget()
) -> SearchResult:
    """Search for a transversal Hamilton A-cycle in C.

    Runs a few flexibility-ordered restarts with growing node caps (these
    can only produce a verified certificate or a definitive exhaustion of
    the space), then sweeps the space in plain ascending order with the
    remaining budget.  found/none are definitive; exhausted means the
    budget ran out first."""
    n = C.n
    required = cycle_counts(link, n)
    if C.m != required:
        raise ColourCountMismatch(
            f"collection has {C.m} members; an A-cycle on {n} vertices has {required} edges"
        )
    schedule = _completion_schedule(cycle_on(link, n).edges, n, C.k)
    searcher = _Searcher(C, budget, schedule)
    probe_budget = budget.node_limit // 2
    rng = rng_for(0x5EED, "cycle-restarts") if budget.deterministic else rng_for(
        time.monotonic_ns(), "cycle-restarts"
    )
    outcome: Optional[bool] = None
    try:
        cap = 2000
        while searcher.nodes + cap <= probe_budget:
            outcome = _cycle_search(
                C,
                link,
                searcher,
                cap,
                order="flex" if searcher.restarts % 2 == 0 else "random",
                rng=rng,
            )
            if outcome is not None:
                break
            searcher.restarts += 1  # a sweep that hit its cap is always followed by another
            if searcher.restarts % 2 == 0:
                cap *= 2
        if outcome is None:
            outcome = _cycle_search(
                C,
                link,
                searcher,
                budget.node_limit - searcher.nodes,
                order="asc",
            )
    except _BudgetExceeded:
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
    rank = {v: i for i, v in enumerate(_pattern_order(F))}
    schedule = _completion_schedule((tuple(rank[v] for v in e) for e in F.edges), F.n, C.k)
    searcher = _Searcher(C, budget, schedule)
    n = C.n
    assignment = [-1] * F.n  # host vertex per position of the branch order
    used = [False] * n

    def dfs(pos: int) -> bool:
        if pos == F.n:
            return True
        for v in range(n):
            if used[v]:
                continue
            searcher.tick()
            hosts = searcher.host_edges(pos, v, assignment)
            if searcher.complete_edges(hosts):
                assignment[pos] = v
                used[v] = True
                if dfs(pos + 1):
                    return True
                searcher.uncomplete(len(hosts))
                used[v] = False
                assignment[pos] = -1
        return False

    try:
        hit: Optional[bool] = dfs(0)
    except _BudgetExceeded:
        hit = None
    searcher.phase_nodes["asc"] = searcher.nodes  # a single ascending sweep
    if hit is None:
        return searcher.result(EXHAUSTED)
    if hit:
        cert = searcher.certificate(n, C.k)
        check = verify_certificate(C, cert)
        if not check.ok:
            raise AssertionError(f"solver produced an invalid certificate: {check.reason}")
        return searcher.result(FOUND, cert)
    return searcher.result(NONE)


def _pattern_order(F: Hypergraph) -> list[int]:
    """Static branch order: highest-degree pattern vertices first, then by a
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
    return order


def find_embedding(
    host: Hypergraph,
    pattern: Hypergraph,
    rng=None,
    node_limit: int = 10**6,
) -> Optional[list[int]]:
    """Uncoloured injective embedding of `pattern` into `host`; returns the
    host vertex per pattern vertex, or None when none exists.  Raises
    SearchExhausted when `node_limit` nodes run out before either answer."""
    if pattern.k != host.k:
        raise InvalidInput("uniformity mismatch")
    order = _pattern_order(pattern)
    rank = {v: i for i, v in enumerate(order)}
    by_last: list[list[Edge]] = [[] for _ in range(pattern.n)]
    for e in pattern.edges:
        by_last[max(rank[v] for v in e)].append(e)
    base = list(range(host.n))
    if rng is not None:
        rng.shuffle(base)
    assignment = {v: -1 for v in range(pattern.n)}
    used = [False] * host.n
    nodes = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes
        if pos == pattern.n:
            return True
        pv = order[pos]
        for v in base:
            if used[v]:
                continue
            nodes += 1
            if nodes > node_limit:
                raise SearchExhausted(f"embedding search used its {node_limit} nodes")
            ok = True
            assignment[pv] = v
            for e in by_last[pos]:
                hostedge = tuple(sorted(assignment[u] for u in e))
                if hostedge not in host.edges:
                    ok = False
                    break
            if ok:
                used[v] = True
                if dfs(pos + 1):
                    return True
                used[v] = False
            assignment[pv] = -1
        return False

    if dfs(0):
        return [assignment[v] for v in range(pattern.n)]
    return None
