"""Bipartite matching: batch maximum matching and the incremental variant."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.hypergraph import bits, mask_of
from transversals.matching import (
    IncrementalMatching,
    is_perfectly_matchable,
    maximum_bipartite_matching,
)


def brute_force_max_matching(adj, n_right):
    """Largest matching size by trying all injective assignments of a subset."""
    best = 0
    lefts = range(len(adj))
    for r in range(len(adj), 0, -1):
        for subset in itertools.combinations(lefts, r):
            for choice in itertools.product(*(adj[u] for u in subset)):
                if len(set(choice)) == r:
                    return r
    return best


def test_perfect_matching_identity():
    adj = [[0], [1], [2]]
    assert is_perfectly_matchable(adj, 3)


def test_hall_violation_detected():
    # two lefts share a single right
    adj = [[0], [0]]
    match = maximum_bipartite_matching(adj, 1)
    assert match.count(-1) == 1


def test_augmenting_path_rewires():
    # greedy would match 0->0 and block 1; augmenting must rewire
    adj = [[0, 1], [0]]
    assert is_perfectly_matchable(adj, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_matches_brute_force_size(nl, nr, data):
    adj = [
        sorted(data.draw(st.sets(st.integers(0, nr - 1), max_size=nr)))
        for _ in range(nl)
    ]
    match = maximum_bipartite_matching(adj, nr)
    size = sum(1 for v in match if v != -1)
    # validity
    hit = [v for v in match if v != -1]
    assert len(hit) == len(set(hit))
    assert all(v == -1 or v in adj[u] for u, v in enumerate(match))
    # maximality
    assert size == brute_force_max_matching(adj, nr)


def test_incremental_push_pop_round_trip():
    inc = IncrementalMatching(2)
    assert inc.push(0b11) and len(inc) == 1  # colours {0, 1}; takes free colour 0
    assert inc.push(0b01) and len(inc) == 2  # forces a rewire of the first left
    assert set(inc.assignment()) == {0, 1}
    inc.pop()
    assert len(inc) == 1
    assert inc.push(0b01) and set(inc.assignment()) == {0, 1}


def test_incremental_rewires_along_a_two_step_path():
    inc = IncrementalMatching(3)
    assert inc.push(0b011) and inc.push(0b110)  # free colours 0, then 1
    assert inc.push(0b001)  # 0 moves its holder to 1, whose holder moves to 2
    assert inc.assignment() == [1, 2, 0] and inc.free == 0
    inc.pop()
    assert inc.assignment() == [0, 1] and inc.free == 0b100


def test_incremental_failed_push_leaves_state_intact():
    inc = IncrementalMatching(1)
    assert inc.push(0b1)
    before = (inc.assignment(), inc.free)
    assert not inc.push(0b1)  # Hall violation
    assert not inc.push(0)  # no colour at all
    assert (inc.assignment(), inc.free) == before and len(inc) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_incremental_agrees_with_batch(nl, nr, data):
    adj = [
        sorted(data.draw(st.sets(st.integers(0, nr - 1), min_size=0, max_size=nr)))
        for _ in range(nl)
    ]
    inc = IncrementalMatching(nr)
    ok = True
    for row in adj:
        if not inc.push(mask_of(row)):
            ok = False
            break
    assert ok == is_perfectly_matchable(adj, nr)


class KuhnReference:
    """The augmenting-path matcher the bitset one replaced: colour lists,
    no free-colour shortcut, an undo trail per push."""

    def __init__(self):
        self.match_right = {}
        self.match_left = []
        self.avail = []

    def push(self, avail):
        u = len(self.match_left)
        self.avail.append(tuple(avail))
        self.match_left.append(None)
        trail = []
        if self._augment(u, set(), trail):
            return trail
        self.avail.pop()
        self.match_left.pop()
        return None

    def _augment(self, u, seen, trail):
        for v in self.avail[u]:
            if v in seen:
                continue
            seen.add(v)
            holder = self.match_right.get(v)
            if holder is None or self._augment(holder, seen, trail):
                trail.append((v, holder))
                self.match_right[v] = u
                self.match_left[u] = v
                return True
        return False

    def pop(self, trail):
        for v, holder in reversed(trail):
            if holder is None:
                del self.match_right[v]
            else:
                self.match_right[v] = holder
                self.match_left[holder] = v
        self.avail.pop()
        self.match_left.pop()

    def assignment(self):
        return list(self.match_left)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_bitset_matcher_agrees_with_kuhn_reference(m, data):
    # None pops the last accepted push; an int pushes that colour bitset
    ops = data.draw(st.lists(st.none() | st.integers(0, (1 << m) - 1), max_size=24))
    inc, ref = IncrementalMatching(m), KuhnReference()
    stack = []  # (mask, reference trail) per accepted push
    for op in ops:
        if op is None:
            if not stack:
                continue
            ref.pop(stack.pop()[1])
            inc.pop()
            assert inc.free == ((1 << m) - 1) & ~mask_of(inc.assignment())
        else:
            trail = ref.push(list(bits(op)))
            assert inc.push(op) == (trail is not None)
            if trail is not None:
                stack.append((op, trail))
        held = inc.assignment()
        assert len(held) == len(stack) == len(set(held))
        assert all(mask >> c & 1 for (mask, _), c in zip(stack, held))
        replay = maximum_bipartite_matching([list(bits(mask)) for mask, _ in stack], m)
        assert replay == ref.assignment()
