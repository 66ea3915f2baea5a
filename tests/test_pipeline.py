"""Constructive pipeline: end-to-end runs, traces, and failure reporting."""

import functools
import hashlib
import json
import random
import warnings
from itertools import combinations

import pytest

from transversals.collection import Collection, verify_certificate
from transversals.errors import ColourCountMismatch, InvalidInput
from transversals import pipeline
from transversals.exact import find_embedding, find_transversal_cycle
from transversals.gen import GenSpec, generate
from transversals.hypergraph import Hypergraph, complete_graph
from transversals.links import single_edge_link, triangle_link
from transversals.pipeline import PipelineConfig, solve_transversal_hamilton

LINK21 = single_edge_link(2, 1)


def dense_instance(n, seed):
    return generate(
        GenSpec(n=n, k=2, m=n, delta_fraction=0.7, family="random", seed=seed)
    )


def test_pipeline_solves_dense_instance():
    C = dense_instance(80, seed=0)
    run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=0))
    assert run and run.outcome == "success"
    assert verify_certificate(C, run.certificate, LINK21)


def test_pipeline_trace_has_all_steps():
    C = dense_instance(80, seed=1)
    run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=1))
    assert run
    steps = [r.step for r in run.records]
    assert steps == sorted(steps)
    assert steps[-1] == 10
    for rec in run.records:
        assert rec.to_json()["name"]


def test_pipeline_rejects_other_links():
    C = Collection(6, 2, tuple(complete_graph(6) for _ in range(12)))
    with pytest.raises(InvalidInput):
        solve_transversal_hamilton(C, triangle_link())


def test_pipeline_rejects_wrong_colour_count():
    C = Collection(8, 2, tuple(complete_graph(8) for _ in range(7)))
    with pytest.raises(ColourCountMismatch):
        solve_transversal_hamilton(C, LINK21)


def test_pipeline_failure_reports_step():
    # far below the degree threshold: the pipeline should fail with a
    # structured report rather than crash
    C = generate(
        GenSpec(n=30, k=2, m=30, delta_fraction=0.15, family="random", seed=2)
    )
    run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=2, retries=2))
    if not run:
        assert run.failure is not None
        assert 1 <= run.failure.step <= 10
        assert run.failure.to_json()["reason"]


def test_pipeline_agrees_with_exact_oracle_small_n():
    for seed in range(3):
        C = generate(
            GenSpec(n=10, k=2, m=10, delta_fraction=0.7, family="random", seed=seed)
        )
        exact = find_transversal_cycle(C, LINK21)
        run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=seed))
        assert bool(run) == (exact.status == "found")


def test_pipeline_is_deterministic():
    C = dense_instance(80, seed=3)
    a = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=3))
    b = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=3))
    assert bool(a) == bool(b)
    if a:
        assert a.certificate == b.certificate and a.attempts == b.attempts


def test_config_hierarchy_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = PipelineConfig(gamma=0.5)  # gamma > beta breaks the ordering
    assert not cfg.hierarchy_ok
    assert any("gamma" in str(w.message) for w in caught)


def sampled_dense(n, p, seed):
    """n members, each G(n, p) from a str-seeded stdlib rng (independent of
    the library's generators, so only the solver is pinned)."""
    rng = random.Random(f"pin/{n}/{seed}")
    pairs = list(combinations(range(n), 2))
    return Collection(n, 2, tuple(
        Hypergraph(n, 2, frozenset(e for e in pairs if rng.random() < p))
        for _ in range(n)
    ))


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# (n, p, seed) -> outcome, attempts, SHA-256 of the certificate JSON for a
# success or of the failed attempt's step records for a failure.  Recorded
# before the bitset views replaced recomputed degrees and threshold graphs.
PINNED_RUNS = [
    ((30, 0.85, 0), "success", 1, "24f1ce0fdfbbf691a210eb3e4de7991b6b715ee793abd7c6fc5065efde262065"),
    ((40, 0.8, 2), "success", 1, "5d0ba293e4e5f52a233f4c0aa88a99d7b9026e2fdd3d2ce568b56d5b945f505d"),
    ((40, 0.5, 0), "success", 2, "364791897f5c0843575ae89f759856d0c4f49e9f80def09612b457a896d15a13"),
    ((30, 0.25, 0), "failure", 5, "67ebf54e477f945fc7b22a1265de065b8df629d20e6e6b24c4b62790b2543a07"),
    ((30, 0.3, 1), "failure", 5, "934f69b74f90c8fb4c008bea51178187558d6b10fcb6c3deda1186d0085e4675"),
]


@pytest.mark.parametrize("spec, outcome, attempts, digest", PINNED_RUNS)
def test_pipeline_runs_pinned(spec, outcome, attempts, digest):
    n, p, seed = spec
    C = sampled_dense(n, p, seed)
    run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=seed, retries=5))
    assert (run.outcome, run.attempts) == (outcome, attempts)
    if run:
        assert sha256_json(run.certificate.to_json()) == digest
    else:
        assert sha256_json([r.to_json() for r in run.records]) == digest


def test_step_2_reports_exhausted_path_budget(monkeypatch):
    C = sampled_dense(30, 0.85, 0)
    # the step 2 block spans a dense graph, but not within a single node
    monkeypatch.setattr(pipeline, "find_embedding", functools.partial(find_embedding, node_limit=1))
    run = solve_transversal_hamilton(C, LINK21, cfg=PipelineConfig(seed=0, retries=2))
    assert run.outcome == "failure"
    assert (run.failure.step, run.failure.reason) == (2, "spanning-path search budget exhausted")
