"""Bipartite matching over bitset rows: the batch matcher and the
incremental variant, against list-based references."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from transversals.hypergraph import bits, mask_of
from transversals.matching import IncrementalMatching, augment_all, maximum_bipartite_matching


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
    assert maximum_bipartite_matching([0b001, 0b010, 0b100]) == [0, 1, 2]


def test_hall_violation_detected():
    # two lefts share a single right
    match = maximum_bipartite_matching([0b1, 0b1])
    assert match.count(-1) == 1


def test_augmenting_path_rewires():
    # greedy would match 0->0 and block 1; augmenting must rewire
    assert maximum_bipartite_matching([0b11, 0b01]) == [1, 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_matches_brute_force_size(nl, nr, data):
    adj = [
        sorted(data.draw(st.sets(st.integers(0, nr - 1), max_size=nr)))
        for _ in range(nl)
    ]
    match = maximum_bipartite_matching([mask_of(row) for row in adj])
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
    assert ok == (-1 not in maximum_bipartite_matching([mask_of(row) for row in adj]))


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
        replay = maximum_bipartite_matching([mask for mask, _ in stack])
        assert replay == ref.assignment()


def reference_augment(rows, lefts, allowed, owner):
    """`augment_all` by the list-based reference: each left's allowed
    rights as an ascending list, a set of seen rights per root.  Updates
    `owner` (right -> left) in place and returns the unmatched lefts."""
    ref = KuhnReference()
    ref.avail = [[v for v in range(row.bit_length()) if (row & allowed) >> v & 1] for row in rows]
    ref.match_left = [None] * len(rows)
    ref.match_right = owner
    return [u for u in lefts if not ref._augment(u, set(), [])]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(1, 7), st.data())
def test_augment_all_agrees_with_kuhn_reference(nl, nr, data):
    # a first pass into one allowed set warm-starts a second pass into
    # another, as the absorber check does with B0 and then B0 plus U
    rights = st.integers(0, (1 << nr) - 1)
    rows = data.draw(st.lists(rights, min_size=nl, max_size=nl))
    first_allowed, second_allowed = data.draw(rights), data.draw(rights)
    split = data.draw(st.integers(0, nl))
    got, want = {}, {}
    got_left = augment_all(rows, range(split), first_allowed, got)
    assert got_left == reference_augment(rows, range(split), first_allowed, want)
    assert got == want
    second = got_left + data.draw(st.permutations(range(split, nl)))
    got_left = augment_all(rows, second, second_allowed, got)
    assert got_left == reference_augment(rows, second, second_allowed, want)
    assert got == want
    assert all(rows[u] >> v & 1 for v, u in got.items())
    from_scratch = {}
    unmatched = reference_augment(rows, range(nl), second_allowed, from_scratch)
    match_left = [-1] * nl
    for v, u in from_scratch.items():
        match_left[u] = v
    assert maximum_bipartite_matching(rows, second_allowed) == match_left
    assert [u for u in range(nl) if match_left[u] == -1] == unmatched


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.data())
def test_assignment_equals_a_replay_of_the_surviving_pushes(m, data):
    """A pop undoes its push exactly, so after any push/pop sequence the
    matcher holds what a fresh one holds after pushing the surviving masks
    in order; `assignment` reads the colours back off `match_right`."""
    ops = data.draw(st.lists(st.none() | st.integers(0, (1 << m) - 1), max_size=30))
    inc = IncrementalMatching(m)
    for op in ops:
        if op is None:
            if len(inc):
                inc.pop()
        else:
            inc.push(op)
        fresh = IncrementalMatching(m)
        assert all(fresh.push(mask) for mask in inc.masks)
        held = inc.assignment()
        assert held == fresh.assignment() and inc.match_right == fresh.match_right
        assert len(held) == len(inc) == len(set(held)) and -1 not in held
        assert all(mask >> c & 1 for mask, c in zip(inc.masks, held))
        assert inc.free == ((1 << m) - 1) & ~mask_of(held)
