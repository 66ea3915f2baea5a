"""Acceptance suite: nine end-to-end checks with explicit runtime budgets.

Each test records its own wall time and asserts the stated ceiling, so a
performance regression fails loudly rather than silently slowing CI.
"""

import csv
import itertools
import math
import time

import pytest

from transversals.absorb import (
    BipartiteAvailability,
    absorber_holds,
    build_colour_absorber,
    build_matching_absorber,
)
from transversals.cli import EXIT_SUCCESS, main
from transversals.collection import (
    Collection,
    collection_min_degree,
    rainbow_colouring,
    threshold_hypergraph,
    verify_certificate,
)
from transversals.exact import (
    FOUND,
    NONE,
    SearchBudget,
    find_transversal_cycle,
    find_transversal_subgraph,
)
from transversals.errors import TooShort
from transversals.gen import GenSpec, bridge_construction, dirac_extremal, generate
from transversals.hypergraph import (
    Hypergraph,
    complete_graph,
    mask_of,
    min_degree_d,
)
from transversals.links import (
    build_chain_template,
    chain_counts,
    clique_link,
    close_cycle,
    cycle_counts,
    cycle_on,
    pillar_link,
    single_edge_link,
    triangle_link,
)
from transversals.pipeline import PipelineConfig, solve_transversal_hamilton
from transversals.rng import rng_for

from testlib import cycle_graph, host_copy

LINK21 = single_edge_link(2, 1)


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return False


def all_builtin_links():
    links = []
    for k in range(2, 6):
        for ell in range(1, k):
            links.append(single_edge_link(k, ell))
    links.extend([triangle_link(), clique_link(3), pillar_link()])
    return links


def test_1_counting_identities_match_enumeration():
    with Stopwatch(1.0):
        for link in all_builtin_links():
            for t in range(1, 9):
                tmpl = build_chain_template(link, t)
                assert (tmpl.n, tmpl.num_edges) == chain_counts(link, t)
                n = link.step * t
                if n < link.m:
                    continue
                try:
                    cyc = close_cycle(tmpl, link, t)
                except TooShort:
                    continue  # closing this short a chain merges windows
                assert cyc.num_edges == cycle_counts(link, n)


def test_2_threshold_hypergraph_degree_audit():
    with Stopwatch(30.0):
        rng = rng_for(0xACC2, "threshold-audit")
        checked = 0
        while checked < 100:
            k = rng.choice([2, 3])
            n = rng.randint(k + 2, 14 if k == 2 else 10)
            m = rng.randint(2, 20)
            # at most n-k+1 edges pass through a (k-1)-set, so cap the floor
            frac = min(rng.uniform(0.2, 0.8), (n - k) / n)
            C = generate(
                GenSpec(
                    n=n, k=k, m=m, delta_fraction=frac,
                    family="random", seed=rng.getrandbits(32),
                )
            )
            theta = rng.randint(1, m)
            K = threshold_hypergraph(C, range(m), theta)
            d = k - 1
            bound = collection_min_degree(C, d) - theta * n ** (k - d) / m
            assert min_degree_d(K, d) >= bound
            checked += 1


def test_3_dense_instances_always_found():
    with Stopwatch(300.0):
        budget = SearchBudget(node_limit=10**7)
        for n in range(6, 13):
            frac = math.ceil(n / 2) / n  # degree floor exactly ceil(n/2)
            for seed in range(50):
                C = generate(
                    GenSpec(
                        n=n, k=2, m=n, delta_fraction=frac,
                        family="random", seed=n * 1000 + seed,
                    )
                )
                res = find_transversal_cycle(C, LINK21, budget)
                assert res.status == FOUND, (n, seed, res.status)
                assert verify_certificate(C, res.certificate, LINK21)


def k23_union_c4_pattern():
    """Disjoint union of the complete bipartite graph K_{2,3} and a 4-cycle."""
    edges = [(u, v) for u in (0, 1) for v in (2, 3, 4)]
    edges += [(5, 6), (6, 7), (7, 8), (5, 8)]
    return Hypergraph.from_edges(9, 2, edges)


def test_4_extremal_constructions_are_definitive_negatives():
    with Stopwatch(600.0):
        for n in range(4, 9):
            res = find_transversal_cycle(dirac_extremal(n), LINK21)
            assert res.status == NONE, (n, res.status)
        C = bridge_construction(9, 10)
        res = find_transversal_subgraph(C, k23_union_c4_pattern())
        assert res.status == NONE


def test_5_matching_absorbers_verified_exhaustively():
    with Stopwatch(60.0):
        rng = rng_for(0xACC5, "matching-absorbers")
        built = 0
        attempts = 0
        while built < 50:
            attempts += 1
            assert attempts < 500, "generator keeps producing infeasible instances"
            m_a = rng.randint(2, 8)
            n_b = rng.randint(m_a + 4, 40)
            ell = rng.randint(0, 2)
            rows = tuple(
                mask_of(rng.sample(range(n_b), rng.randint(ell + 3, n_b)))
                for _ in range(m_a)
            )
            K = BipartiteAvailability(m_a, n_b, rows)
            ab = build_matching_absorber(K, ell, seed=rng.getrandbits(32))
            if ab is None:
                continue
            assert math.comb(len(ab.B1), ab.ell) <= 10**5  # exhaustive regime
            ok, witness = absorber_holds(K, ab)
            assert ok, witness
            built += 1


def test_6_colour_absorbers_verified_exhaustively():
    with Stopwatch(120.0):
        rng = rng_for(0xACC6, "colour-absorbers")
        path6 = Hypergraph.from_edges(7, 2, [(i, i + 1) for i in range(6)])
        for _ in range(20):
            n = rng.randint(11, 14)
            m = rng.randint(n, 18)
            C = generate(
                GenSpec(
                    n=n, k=2, m=m, delta_fraction=0.7,
                    family="random", seed=rng.getrandbits(32),
                )
            )
            ab = build_colour_absorber(C, path6, gamma_n=2, alpha=0.2,
                                       seed=rng.getrandbits(32))
            host = host_copy(ab, C.n)
            for B in itertools.combinations(sorted(ab.Cset), 2):
                cert = rainbow_colouring(C, host, set(ab.A) | set(B))
                assert cert is not None, (B, ab)
                assert ab.A <= set(cert.colours())


@pytest.mark.slow
def test_7_pipeline_end_to_end():
    with Stopwatch(600.0):
        successes = 0
        for seed in range(20):
            C = generate(
                GenSpec(n=80, k=2, m=80, delta_fraction=0.7,
                        family="random", seed=seed)
            )
            run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=seed))
            if run:
                assert verify_certificate(C, run.certificate, LINK21)
                successes += 1
        assert successes >= 18, f"only {successes}/20 pipeline successes"
        for seed in range(3):
            C = generate(
                GenSpec(n=10, k=2, m=10, delta_fraction=0.7,
                        family="random", seed=seed)
            )
            exact = find_transversal_cycle(C, LINK21)
            run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=seed))
            assert bool(run) == (exact.status == FOUND)


def test_8_squared_cycle_sanity():
    with Stopwatch(300.0):
        link = triangle_link()
        for n in (6, 7, 8):
            m = cycle_counts(link, n)  # 2n colours for the squared cycle
            C = Collection(n, 2, tuple(complete_graph(n) for _ in range(m)))
            res = find_transversal_cycle(C, link)
            assert res.status == FOUND
            assert verify_certificate(C, res.certificate, link)
        for n in (5, 6, 7):
            m = cycle_counts(link, n)
            C = Collection(n, 2, tuple(cycle_graph(n) for _ in range(m)))
            res = find_transversal_cycle(C, link)
            assert res.status == NONE, (n, res.status)


def test_9_success_curve_monotone_and_saturating(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main([
        "scan", "--n", "12", "--delta-from", "0.0", "--delta-to", "0.6",
        "--delta-step", "0.1", "--trials", "25", "--seed", "0",
        "--out", str(out),
    ])
    assert rc == EXIT_SUCCESS
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rates = [int(r["successes"]) / int(r["trials"]) for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:])), rates
    for r, rate in zip(rows, rates):
        if float(r["delta"]) >= 0.5 - 1e-9:
            assert rate == 1.0, rows
