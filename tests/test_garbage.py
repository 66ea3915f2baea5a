"""No library call in the search and matching loops leaves garbage.

A call that leaves a reference cycle makes work for the cycle collector,
and the pipeline's absorber check alone makes a thousand matcher calls per
solve.  Each call below runs once warm, so that lazily built views and
caches exist, and then again with the collector off; what the collector then
finds unreachable is what that call left behind."""

import gc

import pytest

from transversals.absorb import BipartiteAvailability, MatchingAbsorber, absorber_holds
from transversals.collection import Collection
from transversals.exact import (
    EXHAUSTED,
    FOUND,
    NONE,
    SearchBudget,
    find_embedding,
    find_transversal_cycle,
    find_transversal_subgraph,
)
from transversals.gen import GenSpec, bridge_construction, dirac_extremal, generate
from transversals.hypergraph import Hypergraph, complete_graph
from transversals.links import single_edge_link
from transversals.matching import IncrementalMatching, augment_all, maximum_bipartite_matching
from transversals.pipeline import PipelineConfig, solve_transversal_hamilton

from testlib import cycle_graph

LINK21 = single_edge_link(2, 1)


def garbage_left_by(call):
    """How many objects only the cycle collector can free after a warm
    `call()`, and what the call returned."""
    call()
    gc.collect()
    gc.disable()
    try:
        result = call()
        return gc.collect(), result
    finally:
        gc.enable()


# lefts 0..6 take rights 0..6 and also reach rights 1..7; left 7 reaches
# right 0 only, so its augmenting path moves every other left one right on
CHAIN = [0b11 << i for i in range(7)] + [0b1]


def test_batch_matchers():
    assert garbage_left_by(lambda: augment_all(CHAIN, range(8), -1, {})) == (0, [])
    assert garbage_left_by(lambda: maximum_bipartite_matching(CHAIN)) == (0, [1, 2, 3, 4, 5, 6, 7, 0])


def test_incremental_pushes():
    def pushes(masks):
        matcher = IncrementalMatching(3)
        return [matcher.push(mask) for mask in masks]

    # the second push finds no free colour and moves the first left on; the
    # fourth finds no augmenting path
    assert garbage_left_by(lambda: pushes([0b011, 0b001, 0b100, 0b001])) == (0, [True, True, True, False])


def test_find_embedding():
    left, emb = garbage_left_by(lambda: find_embedding(complete_graph(7), cycle_graph(6)))
    assert left == 0 and emb is not None


@pytest.mark.parametrize("case, status", [
    (lambda: Collection(7, 2, tuple(complete_graph(7) for _ in range(7))), FOUND),
    (lambda: dirac_extremal(9), NONE),
    (lambda: dirac_extremal(13), EXHAUSTED),
])
def test_find_transversal_cycle(case, status):
    C = case()
    budget = SearchBudget(node_limit=2000)
    left, result = garbage_left_by(lambda: find_transversal_cycle(C, LINK21, budget))
    assert left == 0 and result.status == status


def test_find_transversal_subgraph():
    k23_plus_c4 = [(a, b) for a in (0, 1) for b in (2, 3, 4)] + [(5, 6), (6, 7), (7, 8), (5, 8)]
    F = Hypergraph.from_edges(9, 2, k23_plus_c4)
    C = bridge_construction(9, 10)
    left, result = garbage_left_by(lambda: find_transversal_subgraph(C, F))
    assert left == 0 and result.status == NONE


def test_absorber_holds():
    # B0 = {0, 1} leaves left 2 free; U = {3} or {4} takes it directly, and
    # U = {2} needs the path 2 -> 0 -> 1 -> 2 through the B0 matching
    K = BipartiteAvailability(3, 5, (0b00011, 0b00110, 0b11001))
    ab = MatchingAbsorber(B0=(0, 1), B1=(2, 3, 4), ell=1)
    assert garbage_left_by(lambda: absorber_holds(K, ab)) == (0, (True, None))


def test_pipeline_with_failed_attempts():
    C = generate(GenSpec(n=30, k=2, m=30, delta_fraction=0.5, seed=0))
    left, run = garbage_left_by(lambda: solve_transversal_hamilton(C, LINK21, PipelineConfig(seed=0, retries=3)))
    # attempt 1 fails by raising inside the pipeline, attempt 2 succeeds
    assert left == 0 and run and run.attempts == 2
