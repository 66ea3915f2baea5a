"""Instance generators: random above-threshold collections and the two
extremal constructions used as negative controls."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .collection import Collection
from .errors import InvalidInput, Unachievable
from .hypergraph import Hypergraph, all_d_sets, min_degree_d
from .rng import rng_for

FAMILIES = ("random", "bridge", "dirac-extremal")


@dataclass(frozen=True)
class GenSpec:
    n: int
    k: int = 2
    m: int = 0
    delta_fraction: float = 0.0
    family: str = "random"
    seed: int = 0
    d: int | None = None  # degree order audited; defaults to k-1

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta_fraction <= 1.0):
            raise InvalidInput("delta_fraction must lie in [0, 1]")
        if self.n < 1 or self.k < 1 or self.k > self.n or self.m < 0:
            raise InvalidInput("need 1 <= k <= n and m >= 0")
        if self.family not in FAMILIES:
            raise InvalidInput(f"unknown family {self.family!r}")

    @property
    def degree_order(self) -> int:
        return self.k - 1 if self.d is None else self.d


def generate(spec: GenSpec) -> Collection:
    """Dispatch on the family tag.  The extremal families are 2-uniform, and
    `dirac-extremal` has exactly n members."""
    if spec.family == "random":
        return random_collection(spec)
    if spec.k != 2:
        raise InvalidInput(f"family {spec.family!r} is 2-uniform, got k={spec.k}")
    if spec.family == "bridge":
        return bridge_construction(spec.n, spec.m)
    if spec.m != spec.n:
        raise InvalidInput(f"family 'dirac-extremal' has m = n = {spec.n} members, got m={spec.m}")
    return dirac_extremal(spec.n)


def random_collection(spec: GenSpec) -> Collection:
    """m independent random members, each repaired up to the degree floor
    ceil(delta_fraction * n^(k-d)) and audited."""
    n, k, d = spec.n, spec.k, spec.degree_order
    if not 0 <= d < k:
        raise InvalidInput("degree order d must satisfy 0 <= d < k")
    floor = math.ceil(spec.delta_fraction * n ** (k - d))
    ceiling = math.comb(n - d, k - d)
    if floor > ceiling:
        raise Unachievable(
            f"degree floor {floor} exceeds the {ceiling} edges through a {d}-set"
        )
    density = min(1.0, spec.delta_fraction + 0.1)
    members = []
    for i in range(spec.m):
        rng = rng_for(spec.seed, "member", i)
        edges = {
            e for e in combinations(range(n), k) if rng.random() < density
        }
        _repair_degrees(n, k, d, floor, edges, rng)
        H = Hypergraph(n, k, frozenset(edges))
        if floor > 0 and min_degree_d(H, d) < floor:
            raise Unachievable("degree repair failed its own audit")
        members.append(H)
    return Collection(n, k, tuple(members))


def _repair_degrees(n, k, d, floor, edges, rng) -> None:
    """Greedily add edges at deficient d-sets, worst deficiency first."""
    if floor == 0:
        return
    def deg(S):
        return sum(1 for e in edges if set(S) <= set(e))

    while True:
        deficient = [(floor - deg(S), S) for S in all_d_sets(n, d)]
        deficient = [(gap, S) for gap, S in deficient if gap > 0]
        if not deficient:
            return
        deficient.sort(key=lambda x: (-x[0], x[1]))
        _, S = deficient[0]
        missing = [
            e
            for e in combinations(range(n), k)
            if set(S) <= set(e) and e not in edges
        ]
        if not missing:
            raise Unachievable("no edges left to add at a deficient vertex set")
        need = floor - deg(S)
        for e in rng.sample(missing, need):
            edges.add(e)


def bridge_construction(n: int, m: int) -> Collection:
    """All members but the last are the disjoint union of two cliques on a
    balanced split; the last member is the complete bipartite graph across
    the split.  Any connected bridgeless pattern has no transversal copy:
    only the last colour crosses the split, but a single crossing edge would
    be a bridge."""
    if n < 4 or m < 2:
        raise InvalidInput("need n >= 4 and m >= 2")
    a = math.ceil(n / 2)
    A = range(a)
    B = range(a, n)
    cliques = frozenset(
        e for part in (A, B) for e in combinations(part, 2)
    )
    bipartite = frozenset((u, v) for u in A for v in B)
    clique_member = Hypergraph(n, 2, cliques)
    members = tuple([clique_member] * (m - 1) + [Hypergraph(n, 2, bipartite)])
    return Collection(n, 2, members)


def dirac_extremal(n: int) -> Collection:
    """n copies of the unbalanced complete bipartite graph with parts of
    sizes ceil((n+1)/2) and floor((n-1)/2); too lopsided for any Hamilton
    cycle, so no transversal one either."""
    if n < 3:
        raise InvalidInput("need n >= 3")
    a = math.ceil((n + 1) / 2)
    edges = frozenset((u, v) for u in range(a) for v in range(a, n))
    member = Hypergraph(n, 2, edges)
    return Collection(n, 2, tuple([member] * n))
