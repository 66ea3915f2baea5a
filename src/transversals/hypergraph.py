"""k-uniform hypergraphs on integer vertices 0..n-1.

Edges are strictly increasing k-tuples; equality of edge sets is therefore
canonical.  An *ordered* hypergraph is the same object with the integer
order taken as the vertex order, so order-preserving isomorphism reduces to
edge-set equality of index patterns.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InvalidHypergraph, InvalidInput

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph.

    Invariants: every edge is a strictly increasing k-tuple of vertices in
    range, and there are no duplicate edges (guaranteed by the frozenset).
    Derived views (`adjacency`) are built on first use and kept for the
    object's life; construction does not pay for them.
    """

    n: int
    k: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 1:
            raise InvalidHypergraph(f"bad dimensions n={self.n} k={self.k}")
        n = self.n
        if self.k == 2 and not [e for e in self.edges if len(e) != 2 or not 0 <= e[0] < e[1] < n]:
            return  # one pass over the pairs; the loop below names a bad edge
        for e in self.edges:
            if len(e) != self.k:
                raise InvalidHypergraph(f"edge {e} is not {self.k}-uniform")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise InvalidHypergraph(f"edge {e} is not strictly increasing")
            if e[0] < 0 or e[-1] >= self.n:
                raise InvalidHypergraph(f"edge {e} out of range [0, {self.n})")

    @classmethod
    def from_edges(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build from unordered edge iterables; sorts each edge and rejects repeats within an edge."""
        normalised = set()
        for raw in edges:
            e = tuple(sorted(raw))
            if len(set(e)) != len(e):
                raise InvalidHypergraph(f"edge {raw} has repeated vertices")
            normalised.add(e)
        return cls(n, k, frozenset(normalised))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks of a 2-uniform hypergraph: bit u of
        adjacency[v] is set when uv is an edge."""
        if self.k != 2:
            raise InvalidInput("adjacency requires a 2-uniform hypergraph")
        bit = [1 << v for v in range(self.n)]
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= bit[v]
            adj[v] |= bit[u]
        return tuple(adj)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def to_json(self) -> dict:
        """The edges are this object's own tuples, which `json` writes as arrays."""
        return {"n": self.n, "k": self.k, "edges": self.sorted_edges()}

    @classmethod
    def from_json(cls, obj: dict) -> "Hypergraph":
        """Strict parser: inner lists must already be strictly increasing."""
        return _from_json(obj, {})


def _all_ints(values: Iterable) -> bool:
    """Whether every value is a JSON integer: an int, never a bool, a float
    or a string.  One pass in C, so a whole file's vertices cost little."""
    return set(map(type, values)) <= {int}


def _from_json(obj: dict, interned: dict[Edge, Edge]) -> Hypergraph:
    """`Hypergraph.from_json`, taking each edge tuple from `interned` (and
    adding it there when new), so parsers that share the dict keep one
    tuple per distinct edge."""
    try:
        n, k, raw = int(obj["n"]), int(obj["k"]), obj["edges"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidHypergraph(f"malformed hypergraph object: {exc}") from exc
    if not _all_ints((obj["n"], obj["k"])):
        raise InvalidHypergraph(f"n and k must be integers, got {obj['n']!r} and {obj['k']!r}")
    # when some vertex is no int, the edges still go through int() in order,
    # so a non-numeric vertex or a bad edge ahead of it is reported first
    all_ints = _all_ints(itertools.chain.from_iterable(raw))
    tuples = []
    for e in raw:
        t = tuple(e) if all_ints else tuple(map(int, e))
        # a pair, the common case, in one comparison
        if t[0] >= t[1] if len(t) == 2 else any(map(operator.ge, t, t[1:])):
            raise InvalidHypergraph(f"edge {t} is not strictly increasing")
        tuples.append(interned.setdefault(t, t))
    if not all_ints:
        raise InvalidHypergraph("every vertex must be an integer")
    edges = frozenset(tuples)
    if len(edges) != len(tuples):
        raise InvalidHypergraph("duplicate edges in input")
    return Hypergraph(n, k, edges)


def min_degree_d(H: Hypergraph, d: int) -> int:
    """delta_d(H): the least number of edges containing a d-set, over all
    d-subsets of the vertex set."""
    if not 1 <= d < H.k:
        raise InvalidInput(f"d={d} outside [1, {H.k - 1}]")
    if H.n < d:
        raise InvalidInput(f"n={H.n} smaller than d={d}")
    if H.k == 2:
        return min(nbrs.bit_count() for nbrs in H.adjacency)
    counts: dict[Edge, int] = {}
    for e in H.edges:
        for s in itertools.combinations(e, d):
            counts[s] = counts.get(s, 0) + 1
    if len(counts) < math.comb(H.n, d):
        return 0  # some d-set touches no edge
    return min(counts.values())


def induced(H: Hypergraph, U: Iterable[int]) -> Hypergraph:
    """Subhypergraph on U, re-indexed 0..|U|-1 by increasing original label."""
    verts = sorted(set(U))
    if verts and (verts[0] < 0 or verts[-1] >= H.n):
        raise InvalidInput(f"U={verts} not a subset of the vertex set")
    index = {v: i for i, v in enumerate(verts)}
    vset = set(verts)
    edges = [tuple(index[v] for v in e) for e in H.edges if vset.issuperset(e)]
    return Hypergraph(len(verts), H.k, frozenset(edges))


def ordered_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Order-preserving isomorphism of index-normalised objects is edge-set equality."""
    return a.n == b.n and a.k == b.k and a.edges == b.edges


def complete_graph(n: int) -> Hypergraph:
    return Hypergraph(n, 2, frozenset(itertools.combinations(range(n), 2)))


def neighbour_sets(H: Hypergraph) -> list[set[int]]:
    """Per-vertex neighbourhoods of a k=2 graph, as sets (a view of `H.adjacency`)."""
    if H.k != 2:
        raise InvalidInput("neighbour_sets requires a 2-uniform hypergraph")
    return [set(bits(nbrs)) for nbrs in H.adjacency]


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative int, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """The bitset with exactly the given positions set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def transpose(matrices: Iterable[Sequence[int]], width: int) -> Iterator[list[int]]:
    """Transposes of square bit matrices, one per input matrix, in order.

    A matrix is a sequence of at most `width` rows, each an int in
    [0, 2**width); missing rows read as zero.  Its transpose is the list of
    its `width` columns: bit i of column j is bit j of row i.  A negative
    row, a row with a bit at or above `width`, or more than `width` rows
    raises InvalidInput.

    Each matrix is packed into one int of side P, the least power of two
    >= width (at least 8, so rows are whole bytes), and transposed by
    log2(P) delta swaps (Warren, Hacker's Delight, section 7-3): the swap at
    level s exchanges bit s of the row and of the column index of every
    bit.  The swap masks depend only on P, so they are built once per call.
    """
    side = max(8, 1 << max(width - 1, 0).bit_length())
    row_bytes = side // 8
    zero_row = bytes(row_bytes)
    swaps = []
    s = side // 2
    while s:
        # bit (i, j) with bit s clear in i and set in j; its partner (i+s, j-s)
        # lies s*(side-1) positions higher
        cols = mask_of(j for j in range(side) if j & s).to_bytes(row_bytes, "little")
        mask = b"".join(zero_row if i & s else cols for i in range(side))
        swaps.append((s * (side - 1), int.from_bytes(mask, "little")))
        s //= 2
    from_bytes = int.from_bytes
    for rows in matrices:
        if len(rows) > width or rows and (min(rows) < 0 or max(rows) >> width):
            raise InvalidInput(f"rows do not form a bit matrix of width {width}")
        x = from_bytes(b"".join([r.to_bytes(row_bytes, "little") for r in rows]), "little")
        for delta, mask in swaps:
            t = (x ^ (x >> delta)) & mask
            x ^= t ^ (t << delta)
        packed = x.to_bytes(side * row_bytes, "little")
        yield [
            from_bytes(packed[o:o + row_bytes], "little")
            for o in range(0, width * row_bytes, row_bytes)
        ]


def all_d_sets(n: int, d: int) -> Iterator[Edge]:
    return itertools.combinations(range(n), d)
