"""Heuristic transversal Hamilton cycle solver for 2-uniform collections.

The solve is a ten-step construction: set aside a small colour-flexible path
(the colour absorber) and a vertex-flexible path (the vertex absorber), tile
most of the remaining vertices with rainbow chains, mop up leftover colours
with single edges, connect every piece into one cycle through a reservoir,
splice leftover vertices into the vertex absorber, and finally colour the
reserved edges by exact matching.  Each step checks the postconditions the
later steps rely on (the random vertex splits are not audited), the whole
attempt is retried with fresh randomness on any failure, and the final
certificate is verified, so a returned certificate is always valid while a
failure is only a heuristic miss, never a refutation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .absorb import (
    FactorResult,
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


def _ab_path(K: Hypergraph, link: Link, block: Sequence[int], rng) -> Optional[list[int]]:
    """Spanning path of the block (at least 2 vertices) inside K, or None
    when there is none.  Raises SearchExhausted when the path search runs
    out of nodes."""
    labels = sorted(block)
    template = build_chain_template(link, len(labels) - 1)
    emb = find_embedding(induced(K, labels), template, rng=rng)
    if emb is None:
        return None
    return [labels[v] for v in emb]


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
        return {"step": self.step, "name": self.name, "data": self.data}


@dataclass
class FailureReport:
    step: int
    operation: str
    reason: str
    state: dict

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "operation": self.operation,
            "reason": self.reason,
            "state": self.state,
        }


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
    def __init__(self, report: FailureReport):
        self.report = report


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
    last_failure: Optional[FailureReport] = None
    last_records: list[StepRecord] = []
    for attempt in range(cfg.retries):
        records: list[StepRecord] = []
        try:
            cert = _attempt(C, link, split(cfg.seed, "attempt", attempt), records)
            return PipelineRun("success", cert, None, records, attempt + 1, cfg.seed)
        except _StepFailure as sf:
            last_failure = sf.report
            last_records = records
    return PipelineRun("failure", None, last_failure, last_records, cfg.retries, cfg.seed)


def _fail(step: int, operation: str, reason: str, **state) -> None:
    raise _StepFailure(FailureReport(step, operation, reason, state))


def _path_edges(seq: Sequence[int]) -> list[Edge]:
    return [tuple(sorted((seq[i], seq[i + 1]))) for i in range(len(seq) - 1)]


def _attempt(
    C: Collection,
    link: Link,
    seed: int,
    records: list[StepRecord],
) -> TransversalCertificate:
    n, m = C.n, C.m

    # Step 1: colour absorber — a short path whose edges can be rainbow
    # coloured from A plus ANY gamma_n leftover reserve colours.
    gamma_n = max(1, round(GAMMA * n))
    beta_edges = max(gamma_n + 2, round(BETA * n))
    if beta_edges + 1 >= n:
        _fail(1, "colour-absorber", "instance too small for the absorber path", n=n)
    template = build_chain_template(link, beta_edges)
    try:
        cab = build_colour_absorber(C, template, gamma_n, ALPHA, split(seed, "s1"))
    except (NoCopyFound, AbsorberFailed) as exc:
        _fail(1, "colour-absorber", str(exc), beta_edges=beta_edges, gamma_n=gamma_n)
    s1 = list(cab.S)  # path order
    A = set(cab.A)
    cset = set(cab.Cset)
    records.append(
        StepRecord(
            1,
            "colour-absorber",
            {
                "S1_vertices": len(s1),
                "S1_edges": beta_edges,
                "A": len(A),
                "flexible_pool": len(cset),
                "gamma_n": gamma_n,
            },
        )
    )

    # Step 2: vertex absorber — a path with disjoint gadget pairs; any small
    # leftover vertex set can later be spliced between pair ends.  Built and
    # audited inside the threshold graph of the flexible colours.
    remaining = sorted(set(range(n)) - set(s1))
    capacity_target = max(1, math.ceil(ETA * n))
    leave_min = max(3, round(0.25 * n))
    pairs_budget = max(1, (len(remaining) - leave_min) // 2)
    pairs = min(max(1, math.ceil(capacity_target / 0.35)), pairs_budget)
    s2_size = 2 * pairs
    nu_n = min(math.floor(NU * n), max(0, len(remaining) - s2_size - 2))
    v_rest = len(remaining) - s2_size - nu_n
    r2 = min(max(2, 2 * T + 2), max(0, v_rest - 2))
    vp_size = v_rest - r2
    sizes = [s2_size, nu_n, r2, vp_size]
    s2_block, r1_set, r2_set, vp = degree_preserving_partition(
        C, sizes, split(seed, "partition"), within=remaining
    )
    theta_ab = max(2, math.ceil(TAU * len(cset)))
    K_ab = threshold_hypergraph(C, sorted(cset), theta_ab)
    try:
        s2_path = _ab_path(K_ab, link, s2_block, rng_for(seed, "s2"))
    except SearchExhausted:
        _fail(2, "vertex-absorber", "spanning-path search budget exhausted", block=len(s2_block))
    if s2_path is None:
        _fail(2, "vertex-absorber", "no spanning path in the absorber block", block=len(s2_block))
    gadgets = [
        (s2_path[2 * i], s2_path[2 * i + 1]) for i in range(len(s2_path) // 2)
    ]
    # bit v of common[j] is set when v is adjacent to both ends of gadget j
    common = [K_ab.adjacency[a] & K_ab.adjacency[b] for a, b in gadgets]
    outside = [v for v in range(n) if v not in set(s1) and v not in set(s2_block)]
    coverage = {v: sum(c >> v & 1 for c in common) for v in outside}
    capacity = min(coverage.values(), default=0)
    if capacity == 0 and outside:
        _fail(2, "vertex-absorber", "a vertex is covered by no gadget pair", pairs=len(gadgets))
    records.append(
        StepRecord(
            2,
            "vertex-absorber",
            {"S2": len(s2_path), "gadget_pairs": len(gadgets), "capacity": capacity},
        )
    )

    # Step 3: reservoir for the connectors.
    records.append(StepRecord(3, "reservoir", {"R1": len(r1_set)}))

    # Step 4: balance set and the reserved colour pool.  The tiling region
    # size fixes the reserve size so the final colour counts close exactly.
    n0 = len(vp)
    rho_n = m - len(A) - n0
    if rho_n < gamma_n or rho_n > len(cset):
        _fail(
            4,
            "balance",
            "reserve pool does not fit inside the flexible colours",
            rho_n=rho_n,
            flexible=len(cset),
        )
    s2_edge_set = set(_path_edges(s2_path))
    score = {
        c: sum(1 for e in s2_edge_set if e in C.members[c].edges)
        for c in cset
    }
    reserve = set(sorted(cset, key=lambda c: (-score[c], c))[:rho_n])
    pool_main = sorted(set(range(m)) - A - reserve)
    if n - len(s1) - len(s2_path) - len(r1_set) - len(r2_set) != n0:
        _fail(4, "balance", "vertex counts do not close on the tiling region", n0=n0)
    if len(pool_main) != n0:
        _fail(4, "balance", "main colour pool differs from the tiling region", main_pool=len(pool_main), n0=n0)
    records.append(
        StepRecord(
            4,
            "balance",
            {"R2": len(r2_set), "n0": n0, "reserve": rho_n, "main_pool": len(pool_main)},
        )
    )

    # Step 5: rainbow chain tiling of the main region from the main pool.
    t_eff = min(T, int((1 - OMEGA / 2) * n0) // link.m)
    tiling = rainbow_tiling(
        C, link, t_eff, OMEGA, split(seed, "tiling"), eta=ETA, within=vp, pool=pool_main
    )
    chains = tiling.chains
    c0 = sorted(tiling.unused_colours)
    uncovered = set(tiling.uncovered)
    records.append(
        StepRecord(
            5,
            "tiling",
            {
                "chains": len(chains),
                "covered": sum(len(ch.vertices) for ch in chains),
                "colours_used": len(pool_main) - len(c0),
            },
        )
    )

    # Step 6: exhaust the remaining main-pool colours with single edges in
    # the balance region.
    free = sorted(set(r2_set) | uncovered)
    fac: FactorResult = greedy_rainbow_factor(C, c0, link, free)
    if not fac.complete:
        _fail(6, "factor", "leftover colours cannot all be placed", stuck=fac.stuck_block, free=len(free))
    records.append(
        StepRecord(6, "factor", {"copies": len(fac.copies), "colours_used": len(c0)})
    )

    # Step 7: whatever the factor left in the balance region joins the
    # to-be-absorbed set (the shrink round is folded into Step 9).
    leftover = sorted(set(free) - fac.covered())
    records.append(StepRecord(7, "shrink", {"leftover": len(leftover)}))

    # Step 8: connect all segments into one cycle through the reservoir.
    pieces = chains + fac.copies
    segments: list[list[int]] = [s1, s2_path] + [list(piece.vertices) for piece in pieces]
    theta_r = max(1, math.ceil(TAU * rho_n))
    K_r = threshold_hypergraph(C, sorted(reserve), theta_r)
    interior_pool = set(r1_set)
    connector_edges: list[Edge] = []
    interiors: list[list[int]] = []
    for i, seg in enumerate(segments):
        nxt = segments[(i + 1) % len(segments)]
        path = _con_bfs(K_r, seg[-1], nxt[0], interior_pool, CONNECTOR_MAX)
        if path is None:
            _fail(
                8,
                "connect",
                "no short connector through the reservoir",
                segment=i,
                reservoir_left=len(interior_pool),
            )
        interior_pool -= set(path[1:-1])
        interiors.append(path[1:-1])
        connector_edges += _path_edges(path)
    r1_leftover = sorted(interior_pool)
    records.append(
        StepRecord(
            8,
            "connect",
            {
                "connections": len(segments),
                "connector_edges": len(connector_edges),
                "reservoir_used": len(r1_set) - len(r1_leftover),
            },
        )
    )

    # Step 9: splice every still-uncovered vertex into a gadget pair.
    L = sorted(set(leftover) | set(r1_leftover))
    if len(L) > len(gadgets):
        _fail(9, "absorb", "more leftovers than gadget pairs", L=len(L), pairs=len(gadgets))
    splice_at: dict[int, int] = {}  # gadget index -> vertex
    for v in L:
        slot = next(
            (
                j
                for j, both in enumerate(common)
                if j not in splice_at and both >> v & 1
            ),
            None,
        )
        if slot is None:
            _fail(9, "absorb", "a leftover vertex fits no free gadget pair", vertex=v, L=len(L))
        splice_at[slot] = v
    s2_final: list[int] = []
    for idx, v in enumerate(s2_path):
        s2_final.append(v)
        if idx % 2 == 0 and idx // 2 in splice_at and idx + 1 < len(s2_path):
            s2_final.append(splice_at[idx // 2])
    cycle: list[int] = []
    for i, seg in enumerate(segments):
        cycle += s2_final if i == 1 else seg
        cycle += interiors[i]
    if len(cycle) != n or len(set(cycle)) != n:
        _fail(9, "absorb", "assembled cycle does not span", length=len(cycle))
    records.append(StepRecord(9, "absorb", {"spliced": len(L)}))

    # Step 10: colour the reserved edges by exact matching; the leftover
    # reserve colours are exactly the flexible set the colour absorber needs.
    cycle_edges = _path_edges(cycle) + [tuple(sorted((cycle[-1], cycle[0])))]
    if len(set(cycle_edges)) != n:
        _fail(10, "colouring", "cycle edge multiset degenerate", edges=len(set(cycle_edges)))
    mapping: dict[Edge, int] = {}
    for piece in pieces:
        mapping.update(piece.colouring)
    s1_edges = set(_path_edges(s1))
    rest = [e for e in cycle_edges if e not in mapping and e not in s1_edges]
    rest_target = Hypergraph(n, 2, frozenset(rest))
    cert_rest = rainbow_colouring(C, rest_target, sorted(reserve))
    if cert_rest is None:
        _fail(10, "colouring", "reserved edges admit no rainbow matching", rest=len(rest))
    mapping.update(cert_rest.mapping())
    B = reserve - set(cert_rest.colours())
    if len(B) != gamma_n:
        _fail(10, "colouring", "reserve leftover is not the flexible size", B=len(B), gamma_n=gamma_n)
    s1_target = Hypergraph(n, 2, frozenset(s1_edges))
    cert_s1 = rainbow_colouring(C, s1_target, sorted(A | B))
    if cert_s1 is None:
        _fail(10, "colouring", "colour absorber failed on the realised leftover", B=len(B))
    mapping.update(cert_s1.mapping())
    target = Hypergraph(n, 2, frozenset(cycle_edges))
    cert = TransversalCertificate.from_mapping(target, mapping)
    check = verify_certificate(C, cert, link, n)
    if not check.ok:
        _fail(10, "colouring", f"certificate failed verification: {check.reason}", detail=str(check.detail))
    records.append(
        StepRecord(
            10,
            "colouring",
            {"B": len(B), "unused_colours": m - len(set(cert.colours()))},
        )
    )
    return cert
