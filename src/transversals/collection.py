"""Colour-indexed hypergraph collections and transversal certificates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import InvalidInput
from .hypergraph import Edge, Hypergraph, bits, mask_of, min_degree_d, transpose
from .hypergraph import _from_json as _hypergraph_from_json
from .links import Link, cycle_on
from .matching import maximum_bipartite_matching

# machine-readable diagnostics for verify_certificate
DUPLICATE_COLOUR = "DuplicateColour"
EDGE_NOT_IN_COLOUR = "EdgeNotInColour"
NOT_SPANNING = "NotSpanning"
NOT_CYCLE_SHAPE = "NotCycleShape"
COLOUR_OUT_OF_RANGE = "ColourOutOfRange"
PHI_DOMAIN_MISMATCH = "PhiDomainMismatch"


@dataclass(frozen=True)
class Collection:
    """Indexed sequence of k-uniform hypergraphs on a shared vertex set.

    The edge -> colours index (`colour_masks`), for k = 2 the per-vertex
    colour rows (`colour_rows`) and the union's neighbour bitmasks
    (`union_adjacency`) are built on first use and kept for the object's
    life; construction does not pay for them.

    For k = 2 all three are derived from the members' cached `adjacency`
    rows, so each member edge is read once, by `adjacency` (and member 0's
    once more, to reuse its edge tuples as keys).  For a vertex u the rows
    `members[i].adjacency[u]` form an m x n bit matrix whose column v is the
    colour bitset of the pair uv: `colour_rows[u]` is its transpose cut to
    n entries, one of n transposes of a W x W bit matrix, W the least power
    of two >= max(n, m), each log2(W) delta swaps on one int
    (`hypergraph.transpose`); `colour_masks` and `union_adjacency` are read
    off the rows.  There is no switch on density, though sparse members are
    slower this way (building the views of 2-regular members at n = m = 240
    takes about twice as long as by per-edge passes): no caller builds them
    for a large sparse collection, as the exact engine runs at small n and
    the pipeline needs dense members.  For k >= 3, `colour_masks` is one
    pass over every member's edges."""

    n: int
    k: int
    members: tuple[Hypergraph, ...]

    def __post_init__(self) -> None:
        for i, H in enumerate(self.members):
            if H.n != self.n or H.k != self.k:
                raise InvalidInput(f"member {i} has n={H.n}, k={H.k}; expected {self.n}, {self.k}")

    @property
    def m(self) -> int:
        return len(self.members)

    @cached_property
    def colour_masks(self) -> Mapping[Edge, int]:
        """Read-only map from each union edge to its colour bitset: bit i is
        set when member i contains the edge."""
        if self.k != 2:
            masks: dict[Edge, int] = {}
            for i, H in enumerate(self.members):
                bit = 1 << i
                for e in H.edges:
                    masks[e] = masks.get(e, 0) | bit
            return MappingProxyType(masks)
        n = self.n
        # the pairs member 0 holds are keyed by its own edge tuples: each fresh
        # tuple kept is tracked by the garbage collector, and every 700 of them
        # start a collection, which walks the members' edge sets again while
        # they are young
        masks = dict.fromkeys(self.members[0].edges) if self.members else {}
        for u, row in enumerate(self.colour_rows):
            for v in range(u + 1, n):
                if row[v]:
                    masks[(u, v)] = row[v]
        return MappingProxyType(masks)

    @cached_property
    def colour_rows(self) -> tuple[tuple[int, ...], ...]:
        """The colour bitset of every pair of a 2-uniform collection:
        colour_rows[u][v] has bit i set when member i contains uv, and is 0
        when no member does (and for u = v).  n rows of n, whatever m."""
        if self.k != 2:
            raise InvalidInput("colour_rows requires a 2-uniform collection")
        n = self.n
        per_vertex = zip(*(H.adjacency for H in self.members)) if self.members else [()] * n
        return tuple(tuple(cols[:n]) for cols in transpose(per_vertex, max(n, self.m)))

    @cached_property
    def union_adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks of the union of a 2-uniform
        collection: bit u of union_adjacency[v] is set when some member
        contains uv."""
        return tuple(mask_of(v for v, c in enumerate(row) if c) for row in self.colour_rows)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "members": [H.to_json() for H in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Collection":
        interned: dict[Edge, Edge] = {}  # one tuple per distinct edge across the members
        members = tuple(_hypergraph_from_json(h, interned) for h in obj["members"])
        return cls(int(obj["n"]), int(obj["k"]), members)


@dataclass(frozen=True)
class TransversalCertificate:
    """An embedded copy plus an injective edge -> colour map witnessing it."""

    target: Hypergraph
    phi: tuple[tuple[Edge, int], ...]  # (edge, colour), edges sorted

    @classmethod
    def from_mapping(cls, target: Hypergraph, mapping: dict[Edge, int]) -> "TransversalCertificate":
        if set(mapping) != set(target.edges):
            raise InvalidInput("phi domain must be exactly the target edge set")
        return cls(target, tuple(sorted(mapping.items())))

    def mapping(self) -> dict[Edge, int]:
        return dict(self.phi)

    def colours(self) -> list[int]:
        return [c for _, c in self.phi]

    def to_json(self) -> dict:
        return {
            "edges": [e for e, _ in self.phi],
            "phi": [c for _, c in self.phi],
        }

    @classmethod
    def from_json(cls, obj: dict, n: int, k: int) -> "TransversalCertificate":
        edges = [tuple(map(int, e)) for e in obj["edges"]]
        phi = [int(c) for c in obj["phi"]]
        if len(edges) != len(phi):
            raise InvalidInput("edges and phi must be parallel arrays")
        target = Hypergraph.from_json({"n": n, "k": k, "edges": edges})
        return cls.from_mapping(target, dict(zip(edges, phi)))


def collection_min_degree(C: Collection, d: int) -> int:
    """delta_d of the collection: the minimum over members of delta_d."""
    if C.m == 0:
        raise InvalidInput("empty collection has no minimum degree")
    return min(min_degree_d(H, d) for H in C.members)


def threshold_hypergraph(C: Collection, colours: Iterable[int], theta: int) -> Hypergraph:
    """Edges present in at least `theta` of the given colours."""
    cols = sorted(set(colours))
    if not cols:
        raise InvalidInput("colour set must be nonempty")
    if not 0 <= theta <= len(cols):
        raise InvalidInput(f"theta={theta} outside [0, {len(cols)}]")
    if cols[0] < 0 or cols[-1] >= C.m:
        raise InvalidInput("colours out of range")
    if theta == 0:
        return Hypergraph(
            C.n, C.k, frozenset(itertools.combinations(range(C.n), C.k))
        )
    sel = mask_of(cols)
    return Hypergraph(
        C.n,
        C.k,
        frozenset(e for e, mask in C.colour_masks.items() if (mask & sel).bit_count() >= theta),
    )


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(
    C: Collection,
    cert: TransversalCertificate,
    link: Optional[Link] = None,
    n: Optional[int] = None,
) -> VerifyResult:
    """Check that phi colours each target edge exactly once, injectively and
    from a member containing it; optionally check that the target is a
    spanning A-cycle for the expected link."""
    phi_edges = [edge for edge, _ in cert.phi]
    if len(phi_edges) != len(cert.target.edges) or set(phi_edges) != cert.target.edges:
        return VerifyResult(
            False,
            PHI_DOMAIN_MISMATCH,
            f"phi colours {len(set(phi_edges))} distinct edges in {len(phi_edges)} entries; "
            f"the target has {cert.target.num_edges}",
        )
    seen: set[int] = set()
    for edge, colour in cert.phi:
        if colour in seen:
            return VerifyResult(False, DUPLICATE_COLOUR, f"colour {colour} repeats")
        seen.add(colour)
        if not 0 <= colour < C.m:
            return VerifyResult(False, COLOUR_OUT_OF_RANGE, f"colour {colour}")
        if edge not in C.members[colour].edges:
            return VerifyResult(
                False, EDGE_NOT_IN_COLOUR, f"edge {edge} not in member {colour}"
            )
    if link is not None:
        host_n = n if n is not None else C.n
        covered = {v for e, _ in cert.phi for v in e}
        if cert.target.n != host_n or covered != set(range(host_n)):
            return VerifyResult(False, NOT_SPANNING, f"covers {len(covered)} of {host_n}")
        if not is_cycle_copy(cert.target, link):
            return VerifyResult(False, NOT_CYCLE_SHAPE, "no consistent cyclic labelling")
    return VerifyResult(True)


def is_cycle_copy(target: Hypergraph, link: Link) -> bool:
    """Is `target` isomorphic (unordered) to the A-cycle on its vertex count?"""
    n = target.n
    step = link.step
    if n % step != 0 or n < link.m:
        return False
    canonical = cycle_on(link, n)
    if target.num_edges != canonical.num_edges:
        return False
    if link.k == 2 and link.m == 2 and link.ell == 1:
        return _is_hamilton_cycle_graph(target)
    return _cyclic_labelling_exists(target, canonical)


def _is_hamilton_cycle_graph(target: Hypergraph) -> bool:
    if target.num_edges != target.n or target.n < 3:
        return False
    adj = target.adjacency
    if any(nb.bit_count() != 2 for nb in adj):
        return False
    # 2-regular and connected => a single cycle
    seen = {0}
    prev, cur = None, 0
    while True:
        nxt = [v for v in bits(adj[cur]) if v != prev]
        if not nxt:
            return False
        prev, cur = cur, nxt[0]
        if cur == 0:
            break
        if cur in seen:
            return False
        seen.add(cur)
    return len(seen) == target.n


def _cyclic_labelling_exists(target: Hypergraph, canonical: Hypergraph) -> bool:
    """Backtracking search for a bijection positions -> host vertices mapping
    the canonical cycle edge set onto the target edge set."""
    n = canonical.n
    # canonical edges grouped by the position at which they complete
    by_last: list[list[Edge]] = [[] for _ in range(n)]
    for e in canonical.edges:
        by_last[max(e)].append(e)
    assignment: list[int] = [-1] * n
    used = [False] * n
    target_edges = target.edges

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        for v in range(n):
            if used[v]:
                continue
            assignment[pos] = v
            ok = True
            for e in by_last[pos]:
                host = tuple(sorted(assignment[i] for i in e))
                if host not in target_edges:
                    ok = False
                    break
            if ok:
                used[v] = True
                if extend(pos + 1):
                    return True
                used[v] = False
        assignment[pos] = -1
        return False

    return extend(0)


def rainbow_colouring(
    C: Collection, target: Hypergraph, allowed: Iterable[int]
) -> Optional[TransversalCertificate]:
    """Exact rainbow colouring of `target` from `allowed` colours, or None.

    Matches the target's edges into the allowed colours that hold them, so
    a None answer is a Hall-type refutation, not a heuristic miss.
    """
    cols = sorted(set(allowed))
    if any(not 0 <= c < C.m for c in cols):
        raise InvalidInput("allowed colours out of range")
    edges = target.sorted_edges()
    match = maximum_bipartite_matching([C.colour_masks.get(e, 0) for e in edges], mask_of(cols))
    if -1 in match:
        return None
    return TransversalCertificate.from_mapping(target, dict(zip(edges, match)))
