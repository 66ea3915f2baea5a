"""Exact maximum bipartite matching, batch and incremental.

Augmenting-path search is enough at the sizes this package handles.  The
incremental variant works on colour bitsets, tries a free colour before any
augmenting path, and keeps each push's path so the backtracking solvers can
retract left vertices in LIFO order.
"""

from __future__ import annotations

from typing import Sequence


def maximum_bipartite_matching(
    adj: Sequence[Sequence[int]], n_right: int
) -> list[int]:
    """Maximum matching from left vertices to 0..n_right-1.

    `adj[u]` lists right neighbours of left vertex u.  Returns match_left
    with -1 for unmatched lefts.  Deterministic: lefts processed in order,
    neighbours tried in the given order.
    """
    match_left = [-1] * len(adj)
    match_right = [-1] * n_right

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == -1 or augment(match_right[v], seen):
                    match_right[v] = u
                    match_left[u] = v
                    return True
        return False

    for u in range(len(adj)):
        augment(u, [False] * n_right)
    return match_left


def is_perfectly_matchable(adj: Sequence[Sequence[int]], n_right: int) -> bool:
    """True iff a matching saturating every left vertex exists."""
    match = maximum_bipartite_matching(adj, n_right)
    return all(v != -1 for v in match)


class IncrementalMatching:
    """Matching of left items into colours 0..m-1 that grows one left at a
    time and supports LIFO undo.

    A left's colours are a bitset (bit c for colour c).  `push` takes the
    lowest free colour of the new left when it has one, and otherwise looks
    for an augmenting path (depth first, colours in ascending order, a `seen`
    bitset).  It returns True when the pushed lefts are still perfectly
    matchable, and otherwise leaves the state untouched and returns False: a
    failed push is definitive, because adding more lefts can never make the
    current set matchable (Hall).  Which colour each left holds depends on
    the path taken, so callers that need a canonical assignment replay the
    stack through `maximum_bipartite_matching`.
    """

    def __init__(self, m: int) -> None:
        self.masks: list[int] = []
        self.match_left: list[int] = []
        self.match_right: list[int] = [-1] * m
        self.free = (1 << m) - 1
        self._paths: list[list[int]] = []  # per push, the colours it assigned; the last was free

    def __len__(self) -> int:
        return len(self.match_left)

    def push(self, mask: int) -> bool:
        hit = mask & self.free
        if hit:
            path = [(hit & -hit).bit_length() - 1]
        else:
            path = self._augmenting_path(mask)
            if path is None:
                return False
        # the new left takes path[0]; each holder along the path moves on to
        # the next colour, and the last colour was free
        match_left, match_right = self.match_left, self.match_right
        holder = len(match_left)
        self.masks.append(mask)
        match_left.append(-1)
        for c in path:
            holder, match_right[c] = match_right[c], holder
            match_left[match_right[c]] = c
        self.free ^= 1 << path[-1]
        self._paths.append(path)
        return True

    def _augmenting_path(self, mask: int) -> list[int] | None:
        """Colours of an alternating path from a left with colours `mask`,
        none of them free, to a free colour; None if there is none."""
        masks, match_right, free = self.masks, self.match_right, self.free
        seen = 0

        def visit(mask: int) -> list[int] | None:
            nonlocal seen
            todo = mask & ~seen
            while todo:
                low = todo & -todo
                seen |= low
                c = low.bit_length() - 1
                onward = masks[match_right[c]]
                hit = onward & free
                if hit:
                    return [(hit & -hit).bit_length() - 1, c]
                tail = visit(onward)
                if tail is not None:
                    tail.append(c)
                    return tail
                todo &= ~seen
            return None

        path = visit(mask)
        if path is not None:
            path.reverse()
        return path

    def pop(self) -> None:
        """Undo the most recent successful push."""
        path = self._paths.pop()
        match_left, match_right = self.match_left, self.match_right
        prev = path[0]
        for c in path[1:]:
            holder = match_right[c]
            match_right[prev] = holder
            match_left[holder] = prev
            prev = c
        match_right[prev] = -1
        self.free |= 1 << prev
        self.masks.pop()
        match_left.pop()

    def assignment(self) -> list[int]:
        """The colour each pushed left holds, in push order."""
        return list(self.match_left)
