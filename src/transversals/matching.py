"""Exact maximum bipartite matching over bitset rows, batch and incremental.

Augmenting-path search is enough at the sizes this package handles.  A left
item's rights are one int (bit v for right v).  `augment_all` is the one
batch matcher: every caller that matches a whole row list at once, or
completes a warm-started matching, goes through it.  The incremental variant
tries a free right before any augmenting path and keeps each push's path so
the backtracking solvers can retract left vertices in LIFO order.

No call leaves a reference cycle behind: reference counting frees all that
a call builds, however often the search loops call the matchers.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def augment_all(
    rows: Sequence[int], lefts: Iterable[int], allowed: int, owner: dict[int, int]
) -> list[int]:
    """Match each of `lefts`, in order, into the `allowed` rights along an
    augmenting path, and return the lefts left unmatched.

    `rows[u]` is the bitset of left u's rights.  `owner` maps each matched
    right to its left and is updated in place; a non-empty one is a warm
    start, whose lefts may move to other allowed rights but stay matched.
    Every left starts from a fresh seen-mask and tries its rights in
    ascending bit order, so the result is deterministic.  A left with no
    augmenting path never gains one as others are matched (Kuhn), so one
    attempt per left leaves a maximum matching of the lefts tried."""
    unseen = 0

    def augment(u: int) -> bool:
        nonlocal unseen
        while cand := rows[u] & unseen:
            low = cand & -cand
            unseen ^= low
            v = low.bit_length() - 1
            holder = owner.get(v)
            if holder is None or augment(holder):
                owner[v] = u
                return True
        return False

    unmatched = []
    try:
        for u in lefts:
            unseen = allowed
            if not augment(u):
                unmatched.append(u)
    finally:
        # augment reaches itself through its closure; breaking that cycle
        # lets reference counting free it, so no call leaves garbage
        augment = None
    return unmatched


def maximum_bipartite_matching(rows: Sequence[int], allowed: int = -1) -> list[int]:
    """Maximum matching of the lefts 0..len(rows)-1 into the `allowed`
    rights (by default all): the right each left holds, -1 if none.
    `rows[u]` is the bitset of left u's rights; the order of the search is
    `augment_all`'s."""
    owner: dict[int, int] = {}
    augment_all(rows, range(len(rows)), allowed, owner)
    match_left = [-1] * len(rows)
    for v, u in owner.items():
        match_left[u] = v
    return match_left


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
    pushed masks, in push order, through the batch matcher
    (`maximum_bipartite_matching`, one `augment_all` pass from an empty
    matching).
    """

    def __init__(self, m: int) -> None:
        self.masks: list[int] = []  # per pushed left, its colours
        self.match_right: list[int] = [-1] * m  # per colour, the left holding it or -1
        self.free = (1 << m) - 1
        self._paths: list[int | list[int]] = []  # per push: the free colour's bit, or its path

    def __len__(self) -> int:
        return len(self.masks)

    def push(self, mask: int) -> bool:
        hit = mask & self.free
        if hit:
            path = hit & -hit
            self.match_right[path.bit_length() - 1] = len(self.masks)
            self.free ^= path
        else:
            path = self._augmenting_path(mask)
            if path is None:
                return False
            # the new left takes path[0]; each holder along the path moves
            # on to the next colour, and the last colour was free
            match_right = self.match_right
            holder = len(self.masks)
            for c in path:
                holder, match_right[c] = match_right[c], holder
            self.free ^= 1 << path[-1]
        self.masks.append(mask)
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

        try:
            path = visit(mask)
        finally:
            visit = None  # the same cycle as augment_all's
        if path is not None:
            path.reverse()
        return path

    def pop(self) -> None:
        """Undo the most recent successful push."""
        path = self._paths.pop()
        self.masks.pop()
        if path.__class__ is int:  # a free colour's bit, the common case
            self.match_right[path.bit_length() - 1] = -1
            self.free |= path
            return
        match_right = self.match_right
        prev = path[0]
        for c in path[1:]:
            match_right[prev] = match_right[c]
            prev = c
        match_right[prev] = -1
        self.free |= 1 << prev

    def assignment(self) -> list[int]:
        """The colour each pushed left holds, in push order; every pushed
        left holds one, so this reads `match_right` sorted by holder."""
        return [c for _, c in sorted((u, c) for c, u in enumerate(self.match_right) if u >= 0)]
