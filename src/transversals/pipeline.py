"""Heuristic transversal Hamilton cycle solver for 2-uniform collections.

The solve is a ten-step construction: set aside a small colour-flexible path
(the colour absorber) and a vertex-flexible path (the vertex absorber), tile
most of the remaining vertices with rainbow chains, mop up leftover colours
with single edges, connect every piece into one cycle through a reservoir,
splice leftover vertices into the vertex absorber, and finally colour the
reserved edges by exact matching.  Each step is a method of one attempt's
state, and one driver loop runs them in the order of `_STEPS`, whose names
label every step record and failure report.  Each step checks the
postconditions the later steps rely on (the random vertex splits are not
audited), the whole attempt is retried with fresh randomness on any failure,
and the final certificate is verified, so a returned certificate is always
valid while a failure is only a heuristic miss, never a refutation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .absorb import (
    build_colour_absorber,
    degree_preserving_partition,
    greedy_rainbow_factor,
    rainbow_tiling,
)
from .collection import (
    Collection,
    TransversalCertificate,
    rainbow_colouring,
    threshold_hypergraph,
    verify_certificate,
)
from .errors import (
    AbsorberFailed,
    ColourCountMismatch,
    InvalidInput,
    NoCopyFound,
    SearchExhausted,
)
from .exact import find_embedding
from .hypergraph import Edge, Hypergraph, bits, induced
from .links import Link, build_chain_template, cycle_counts
from .rng import rng_for, split


# Size fractions of the construction, ordered GAMMA < BETA < ALPHA and
# OMEGA < NU < ETA.  The reserved colour pool has no fraction of its own: it
# is derived from the sizes of the built structures so that the colour and
# vertex counts close exactly.
ALPHA = 0.2  # colour share of the colour absorber's host edges
BETA = 0.15  # colour absorber path edges
GAMMA = 0.03  # reserve colours the colour absorber takes up
TAU = 0.1  # colour share of the absorber and reservoir threshold graphs
ETA = 0.08  # vertex absorber capacity; colour share of the tiling graphs
NU = 0.05  # connector reservoir
OMEGA = 0.02  # twice the share of the tiling region left uncovered
T = 2  # tiling parts
CONNECTOR_MAX = 4  # edges of one connector through the reservoir


@dataclass
class PipelineConfig:
    """Seed and retry policy."""

    retries: int = 20
    seed: int = 0


def _con_bfs(
    K: Hypergraph, u: int, w: int, interior_pool: set[int], c: int
) -> Optional[list[int]]:
    """Shortest u-w path of length <= c with interior inside interior_pool."""
    adj = K.adjacency
    if adj[u] >> w & 1:
        return [u, w]
    frontier = deque([(u, [u])])
    seen = {u}
    while frontier:
        v, path = frontier.popleft()
        for x in bits(adj[v]):
            if x == w:
                return path + [w]
            if x in interior_pool and x not in seen and len(path) < c:
                seen.add(x)
                frontier.append((x, path + [x]))
    return None


@dataclass
class StepRecord:
    step: int
    name: str
    data: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class FailureReport:
    step: int
    operation: str
    reason: str
    state: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class PipelineRun:
    outcome: str  # "success" | "failure"
    certificate: Optional[TransversalCertificate]
    failure: Optional[FailureReport]
    records: list[StepRecord]
    attempts: int
    seed: int

    def __bool__(self) -> bool:
        return self.outcome == "success"


class _StepFailure(Exception):
    def __init__(self, reason: str, state: dict):
        self.reason = reason
        self.state = state


def _fail(reason: str, **state) -> None:
    raise _StepFailure(reason, state)


def _path_edges(seq: Sequence[int]) -> list[Edge]:
    return [tuple(sorted((seq[i], seq[i + 1]))) for i in range(len(seq) - 1)]


class _Attempt:
    """One attempt's construction.  Each step method reads what earlier
    steps set on the attempt, sets what later steps read, and returns the
    data of its step record or calls `_fail`."""

    def __init__(self, C: Collection, link: Link, seed: int):
        self.C = C
        self.link = link
        self.seed = seed

    def colour_absorber(self) -> dict:
        # a short path whose edges can be rainbow coloured from A plus ANY
        # gamma_n leftover reserve colours
        n = self.C.n
        self.gamma_n = gamma_n = max(1, round(GAMMA * n))
        beta_edges = max(gamma_n + 2, round(BETA * n))
        if beta_edges + 1 >= n:
            _fail("instance too small for the absorber path", n=n)
        template = build_chain_template(self.link, beta_edges)
        try:
            cab = build_colour_absorber(self.C, template, gamma_n, ALPHA, split(self.seed, "s1"))
        except (NoCopyFound, AbsorberFailed) as exc:
            _fail(str(exc), beta_edges=beta_edges, gamma_n=gamma_n)
        self.s1 = list(cab.S)  # path order
        self.A = set(cab.A)
        self.cset = set(cab.Cset)
        return {
            "S1_vertices": len(self.s1),
            "S1_edges": beta_edges,
            "A": len(self.A),
            "flexible_pool": len(self.cset),
            "gamma_n": gamma_n,
        }

    def vertex_absorber(self) -> dict:
        # a path with disjoint gadget pairs; any small leftover vertex set can
        # later be spliced between pair ends.  Built and audited inside the
        # threshold graph of the flexible colours.
        C, n, seed = self.C, self.C.n, self.seed
        remaining = sorted(set(range(n)) - set(self.s1))
        capacity_target = max(1, math.ceil(ETA * n))
        leave_min = max(3, round(0.25 * n))
        pairs_budget = max(1, (len(remaining) - leave_min) // 2)
        pairs = min(max(1, math.ceil(capacity_target / 0.35)), pairs_budget)
        s2_size = 2 * pairs
        nu_n = min(math.floor(NU * n), max(0, len(remaining) - s2_size - 2))
        v_rest = len(remaining) - s2_size - nu_n
        r2 = min(max(2, 2 * T + 2), max(0, v_rest - 2))
        sizes = [s2_size, nu_n, r2, v_rest - r2]
        s2_block, self.r1_set, self.r2_set, self.vp = degree_preserving_partition(
            C, sizes, split(seed, "partition"), within=remaining
        )
        theta_ab = max(2, math.ceil(TAU * len(self.cset)))
        K_ab = threshold_hypergraph(C, sorted(self.cset), theta_ab)
        # a spanning path of the block inside K_ab
        labels = sorted(s2_block)
        template = build_chain_template(self.link, len(labels) - 1)
        try:
            emb = find_embedding(induced(K_ab, labels), template, rng=rng_for(seed, "s2"))
        except SearchExhausted:
            _fail("spanning-path search budget exhausted", block=len(s2_block))
        if emb is None:
            _fail("no spanning path in the absorber block", block=len(s2_block))
        self.s2_path = s2_path = [labels[v] for v in emb]
        self.gadgets = [(s2_path[2 * i], s2_path[2 * i + 1]) for i in range(len(s2_path) // 2)]
        # bit v of common[j] is set when v is adjacent to both ends of gadget j
        self.common = common = [K_ab.adjacency[a] & K_ab.adjacency[b] for a, b in self.gadgets]
        placed = set(self.s1).union(s2_block)
        outside = [v for v in range(n) if v not in placed]
        capacity = min((sum(c >> v & 1 for c in common) for v in outside), default=0)
        if capacity == 0 and outside:
            _fail("a vertex is covered by no gadget pair", pairs=len(self.gadgets))
        return {"S2": len(s2_path), "gadget_pairs": len(self.gadgets), "capacity": capacity}

    def reservoir(self) -> dict:
        return {"R1": len(self.r1_set)}

    def balance(self) -> dict:
        # the balance set and the reserved colour pool: the tiling region's
        # size fixes the reserve size so the final colour counts close exactly
        C, n, m = self.C, self.C.n, self.C.m
        n0 = len(self.vp)
        self.rho_n = rho_n = m - len(self.A) - n0
        if rho_n < self.gamma_n or rho_n > len(self.cset):
            _fail(
                "reserve pool does not fit inside the flexible colours",
                rho_n=rho_n,
                flexible=len(self.cset),
            )
        s2_edge_set = set(_path_edges(self.s2_path))
        score = {
            c: sum(1 for e in s2_edge_set if e in C.members[c].edges)
            for c in self.cset
        }
        self.reserve = set(sorted(self.cset, key=lambda c: (-score[c], c))[:rho_n])
        self.pool_main = sorted(set(range(m)) - self.A - self.reserve)
        if n - len(self.s1) - len(self.s2_path) - len(self.r1_set) - len(self.r2_set) != n0:
            _fail("vertex counts do not close on the tiling region", n0=n0)
        if len(self.pool_main) != n0:
            _fail("main colour pool differs from the tiling region", main_pool=len(self.pool_main), n0=n0)
        return {"R2": len(self.r2_set), "n0": n0, "reserve": rho_n, "main_pool": len(self.pool_main)}

    def tiling(self) -> dict:
        # rainbow chains over the main region from the main pool
        t_eff = min(T, int((1 - OMEGA / 2) * len(self.vp)) // self.link.m)
        tiling = rainbow_tiling(
            self.C, self.link, t_eff, OMEGA, split(self.seed, "tiling"),
            eta=ETA, within=self.vp, pool=self.pool_main,
        )
        self.chains = tiling.chains
        self.c0 = sorted(tiling.unused_colours)
        self.uncovered = set(tiling.uncovered)
        return {
            "chains": len(self.chains),
            "covered": sum(len(ch.vertices) for ch in self.chains),
            "colours_used": len(self.pool_main) - len(self.c0),
        }

    def factor(self) -> dict:
        # exhaust the remaining main-pool colours with single edges in the
        # balance region; what it leaves there joins the to-be-absorbed set
        free = sorted(set(self.r2_set) | self.uncovered)
        self.fac = fac = greedy_rainbow_factor(self.C, self.c0, self.link, free)
        if not fac.complete:
            _fail("leftover colours cannot all be placed", stuck=fac.stuck_block, free=len(free))
        self.leftover = sorted(set(free) - fac.covered())
        return {"copies": len(fac.copies), "colours_used": len(self.c0)}

    def shrink(self) -> dict:
        # the shrink round itself is folded into the absorb step
        return {"leftover": len(self.leftover)}

    def connect(self) -> dict:
        # join all segments into one cycle through the reservoir
        self.pieces = self.chains + self.fac.copies
        self.segments = segments = [self.s1, self.s2_path] + [list(piece.vertices) for piece in self.pieces]
        theta_r = max(1, math.ceil(TAU * self.rho_n))
        K_r = threshold_hypergraph(self.C, sorted(self.reserve), theta_r)
        interior_pool = set(self.r1_set)
        connector_edges = 0
        self.interiors = []
        for i, seg in enumerate(segments):
            nxt = segments[(i + 1) % len(segments)]
            path = _con_bfs(K_r, seg[-1], nxt[0], interior_pool, CONNECTOR_MAX)
            if path is None:
                _fail(
                    "no short connector through the reservoir",
                    segment=i,
                    reservoir_left=len(interior_pool),
                )
            interior_pool -= set(path[1:-1])
            self.interiors.append(path[1:-1])
            connector_edges += len(path) - 1
        self.r1_leftover = sorted(interior_pool)
        return {
            "connections": len(segments),
            "connector_edges": connector_edges,
            "reservoir_used": len(self.r1_set) - len(self.r1_leftover),
        }

    def absorb(self) -> dict:
        # splice every still-uncovered vertex into a gadget pair
        L = sorted(set(self.leftover) | set(self.r1_leftover))
        if len(L) > len(self.gadgets):
            _fail("more leftovers than gadget pairs", L=len(L), pairs=len(self.gadgets))
        splice_at: dict[int, int] = {}  # gadget index -> vertex
        for v in L:
            slot = next(
                (
                    j
                    for j, both in enumerate(self.common)
                    if j not in splice_at and both >> v & 1
                ),
                None,
            )
            if slot is None:
                _fail("a leftover vertex fits no free gadget pair", vertex=v, L=len(L))
            splice_at[slot] = v
        s2_path = self.s2_path
        s2_final: list[int] = []
        for idx, v in enumerate(s2_path):
            s2_final.append(v)
            if idx % 2 == 0 and idx // 2 in splice_at and idx + 1 < len(s2_path):
                s2_final.append(splice_at[idx // 2])
        self.cycle = cycle = []
        for i, seg in enumerate(self.segments):
            cycle += s2_final if i == 1 else seg
            cycle += self.interiors[i]
        if len(cycle) != self.C.n or len(set(cycle)) != self.C.n:
            _fail("assembled cycle does not span", length=len(cycle))
        return {"spliced": len(L)}

    def colouring(self) -> dict:
        # colour the reserved edges by exact matching; the leftover reserve
        # colours are exactly the flexible set the colour absorber needs
        C, n, cycle = self.C, self.C.n, self.cycle
        cycle_edges = _path_edges(cycle) + [tuple(sorted((cycle[-1], cycle[0])))]
        if len(set(cycle_edges)) != n:
            _fail("cycle edge multiset degenerate", edges=len(set(cycle_edges)))
        mapping: dict[Edge, int] = {}
        for piece in self.pieces:
            mapping.update(piece.colouring)
        s1_edges = set(_path_edges(self.s1))
        rest = [e for e in cycle_edges if e not in mapping and e not in s1_edges]
        cert_rest = rainbow_colouring(C, Hypergraph(n, 2, frozenset(rest)), sorted(self.reserve))
        if cert_rest is None:
            _fail("reserved edges admit no rainbow matching", rest=len(rest))
        mapping.update(cert_rest.mapping())
        B = self.reserve - set(cert_rest.colours())
        if len(B) != self.gamma_n:
            _fail("reserve leftover is not the flexible size", B=len(B), gamma_n=self.gamma_n)
        cert_s1 = rainbow_colouring(C, Hypergraph(n, 2, frozenset(s1_edges)), sorted(self.A | B))
        if cert_s1 is None:
            _fail("colour absorber failed on the realised leftover", B=len(B))
        mapping.update(cert_s1.mapping())
        target = Hypergraph(n, 2, frozenset(cycle_edges))
        self.cert = cert = TransversalCertificate.from_mapping(target, mapping)
        check = verify_certificate(C, cert, self.link, n)
        if not check.ok:
            _fail(f"certificate failed verification: {check.reason}", detail=str(check.detail))
        return {"B": len(B), "unused_colours": C.m - len(set(cert.colours()))}


# The ten steps in order; a step's number is its position here, counted
# from 1, and its name labels its record and any failure it reports.
_STEPS = (
    ("colour-absorber", _Attempt.colour_absorber),
    ("vertex-absorber", _Attempt.vertex_absorber),
    ("reservoir", _Attempt.reservoir),
    ("balance", _Attempt.balance),
    ("tiling", _Attempt.tiling),
    ("factor", _Attempt.factor),
    ("shrink", _Attempt.shrink),
    ("connect", _Attempt.connect),
    ("absorb", _Attempt.absorb),
    ("colouring", _Attempt.colouring),
)


def solve_transversal_hamilton(
    C: Collection,
    link: Link,
    cfg: Optional[PipelineConfig] = None,
) -> PipelineRun:
    cfg = cfg if cfg is not None else PipelineConfig()
    if not (link.k == 2 and link.m == 2 and link.ell == 1):
        raise InvalidInput(
            "the built-in construction handles the 2-uniform single-edge link; "
            "other links need bespoke sub-solvers"
        )
    required = cycle_counts(link, C.n)
    if C.m != required:
        raise ColourCountMismatch(
            f"collection has {C.m} members; the cycle needs {required}"
        )
    failure: Optional[FailureReport] = None
    records: list[StepRecord] = []
    for attempt in range(cfg.retries):
        state = _Attempt(C, link, split(cfg.seed, "attempt", attempt))
        records = []
        try:
            for step, (name, method) in enumerate(_STEPS, 1):
                records.append(StepRecord(step, name, method(state)))
        except _StepFailure as sf:
            failure = FailureReport(step, name, sf.reason, sf.state)
            continue
        return PipelineRun("success", state.cert, None, records, attempt + 1, cfg.seed)
    return PipelineRun("failure", None, failure, records, cfg.retries, cfg.seed)
