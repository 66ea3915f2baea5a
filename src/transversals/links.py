"""l-links, A-chains, and A-cycles.

A link is an ordered hypergraph whose first-l and last-l index patterns
coincide; chains are overlapping shifted copies of the link along a line and
cycles identify the two ends.  Counting identities live here together with
the template constructions that the solvers and tests enumerate against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DivisibilityError, InvalidInput, StartEndMismatch, TooShort
from .hypergraph import Hypergraph, _all_ints, complete_graph, induced, ordered_isomorphic


@dataclass(frozen=True)
class Link:
    """l-link: `body` lives on vertices 0..m-1 in index order, and its
    first-l and last-l windows induce the same index pattern."""

    body: Hypergraph
    ell: int

    def __post_init__(self) -> None:
        if not 1 <= self.ell < self.body.n:
            raise InvalidInput(f"ell={self.ell} outside [1, {self.body.n - 1}]")
        if not ordered_isomorphic(self.start_pattern(), self.end_pattern()):
            raise StartEndMismatch(
                f"first-{self.ell} and last-{self.ell} windows induce different index patterns"
            )

    @property
    def m(self) -> int:
        return self.body.n

    @property
    def k(self) -> int:
        return self.body.k

    @property
    def step(self) -> int:
        """Window shift m - l; the per-link vertex gain of a chain."""
        return self.m - self.ell

    def start_pattern(self) -> Hypergraph:
        return induced(self.body, range(self.ell))

    def end_pattern(self) -> Hypergraph:
        return induced(self.body, range(self.m - self.ell, self.m))

    @property
    def edges_per_link(self) -> int:
        return self.body.num_edges

    @property
    def edges_in_overlap(self) -> int:
        return self.start_pattern().num_edges

    def to_json(self) -> dict:
        return {"ell": self.ell, "body": self.body.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Link":
        ell = obj["ell"]
        if not _all_ints((ell,)):
            raise InvalidInput(f"ell must be an integer, got {ell!r}")
        return cls(Hypergraph.from_json(obj["body"]), ell)


def make_link(body: Hypergraph, ell: int) -> Link:
    """The link of `body` with overlap ell; raises as `Link` does."""
    return Link(body, ell)


@dataclass(frozen=True)
class ChainLayout:
    """Window decomposition S_1..S_t of a chain on (m-l)t + l indices."""

    link: Link
    t: int
    windows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise InvalidInput("chain length t must be >= 1")

    @property
    def num_vertices(self) -> int:
        return self.link.step * self.t + self.link.ell


def chain_windows(link: Link, t: int) -> ChainLayout:
    if t < 1:
        raise InvalidInput("t must be >= 1")
    step = link.step
    windows = tuple(tuple(range(q * step, q * step + link.m)) for q in range(t))
    return ChainLayout(link, t, windows)


def cycle_counts(link: Link, n: int) -> int:
    """Edge count of the A-cycle on n vertices.  Raises as `cycle_on` does
    where no such cycle exists (n not a multiple of the step, below the link
    order, or too short to keep its windows apart)."""
    return cycle_on(link, n).num_edges


def build_chain_template(link: Link, t: int) -> Hypergraph:
    """Canonical minimal chain: the link pattern shifted by (m-l)(q-1) per window."""
    layout = chain_windows(link, t)
    step = link.step
    edges = set()
    for q in range(t):
        off = q * step
        for e in link.body.edges:
            edges.add(tuple(v + off for v in e))
    return Hypergraph(layout.num_vertices, link.k, frozenset(edges))


def close_cycle(template: Hypergraph, link: Link, t: int) -> Hypergraph:
    """Identify the end of the chain template with its start; merge coinciding edges."""
    nverts = link.step * t
    if nverts < link.m:
        raise TooShort(f"t(m-l)={nverts} < m={link.m}: closing would collapse a window")
    if template.n != nverts + link.ell:
        raise InvalidInput("template does not match (link, t)")
    edges = set()
    for e in template.edges:
        mapped = tuple(sorted(v - nverts if v >= nverts else v for v in e))
        if len(set(mapped)) != link.k:
            raise TooShort("identification collapses an edge")
        edges.add(mapped)
    # closing merges exactly the overlap-pattern edges; any further merging
    # means the cycle is too short to keep its windows distinct
    if len(edges) != t * (link.edges_per_link - link.edges_in_overlap):
        raise TooShort("identification merges edges of distinct windows")
    return Hypergraph(nverts, link.k, frozenset(edges))


def cycle_on(link: Link, n: int) -> Hypergraph:
    """The A-cycle on n vertices (convenience wrapper over template + closing)."""
    step = link.step
    if n % step != 0 or n < link.m:
        raise DivisibilityError(f"no A-cycle on n={n} for this link")
    t = n // step
    return close_cycle(build_chain_template(link, t), link, t)


_EDGE_RE = re.compile(r"^edge\((\d+),\s*(\d+)\)$")
_CLIQUE_RE = re.compile(r"^clique\((\d+)\)$")


def single_edge_link(k: int, ell: int) -> Link:
    if not 1 <= ell < k:
        raise InvalidInput(f"edge link needs 1 <= ell < k, got ell={ell}, k={k}")
    body = Hypergraph(k, k, frozenset({tuple(range(k))}))
    return make_link(body, ell)


def clique_link(r: int) -> Link:
    if r < 3:
        raise InvalidInput("clique link needs r >= 3")
    return make_link(complete_graph(r), r - 1)


def triangle_link() -> Link:
    return clique_link(3)


def pillar_link() -> Link:
    body = Hypergraph.from_edges(4, 2, [(0, 1), (0, 2), (1, 3), (2, 3)])
    return make_link(body, 2)


def builtin_link(name: str) -> Link:
    """Parse a named link: edge(k,ell) | triangle | clique(r) | pillar."""
    name = name.strip()
    if name == "triangle":
        return triangle_link()
    if name == "pillar":
        return pillar_link()
    m = _EDGE_RE.match(name)
    if m:
        return single_edge_link(int(m.group(1)), int(m.group(2)))
    m = _CLIQUE_RE.match(name)
    if m:
        return clique_link(int(m.group(1)))
    raise InvalidInput(f"unknown link name {name!r}")
