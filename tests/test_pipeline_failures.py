"""Pinned failure reports: for each step that one patched callee can make
fail, the whole `FailureReport` (step, operation, reason, state) and the
SHA-256 of the failed attempt's step records.  Every run is n = 30 and
takes milliseconds."""

import functools

import pytest

from transversals import pipeline
from transversals.absorb import FactorResult
from transversals.errors import AbsorberFailed
from transversals.exact import find_embedding
from transversals.pipeline import PipelineConfig, solve_transversal_hamilton

from test_pipeline import LINK21, sampled_dense, sha256_json


def no_absorber(*args, **kwargs):
    raise AbsorberFailed("no sampled absorber held")


# (step, patched callee or None, its replacement, instance (n, p, seed),
#  failure report of the last attempt, SHA-256 of that attempt's records)
FAILURES = [
    (1, "build_colour_absorber", no_absorber, (30, 0.85, 0),
     {"step": 1, "operation": "colour-absorber", "reason": "no sampled absorber held",
      "state": {"beta_edges": 4, "gamma_n": 1}},
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (2, "find_embedding", functools.partial(find_embedding, node_limit=1), (30, 0.85, 0),
     {"step": 2, "operation": "vertex-absorber", "reason": "spanning-path search budget exhausted",
      "state": {"block": 16}},
     "e64e1027d388a92d773799a51b0aeb603420011335eb08535f486f34dc6b4207"),
    (4, None, None, (30, 0.25, 0),
     {"step": 4, "operation": "balance", "reason": "reserve pool does not fit inside the flexible colours",
      "state": {"rho_n": 25, "flexible": 9}},
     "b7b7ac65ce90d27923308ee3e9b918efe3c0f6eec72190a47f1b291ba0572219"),
    (6, "greedy_rainbow_factor", lambda *args, **kwargs: FactorResult([], False, (1, 2)), (30, 0.85, 0),
     {"step": 6, "operation": "factor", "reason": "leftover colours cannot all be placed",
      "state": {"stuck": (1, 2), "free": 8}},
     "6f38c8ccb5976749d03c6d237f0b8ed1bd2ad58b61907b15ba291f9b5ad62602"),
    (8, "_con_bfs", lambda *args: None, (30, 0.85, 0),
     {"step": 8, "operation": "connect", "reason": "no short connector through the reservoir",
      "state": {"segment": 0, "reservoir_left": 1}},
     "c3fb92717e216ec4ec56993189cd8ae2befc5812f6edfd65030a55e81ca25573"),
    (10, "rainbow_colouring", lambda *args: None, (30, 0.85, 0),
     {"step": 10, "operation": "colouring", "reason": "reserved edges admit no rainbow matching",
      "state": {"rest": 24}},
     "75de076bd2ab6d62be194b4041784e3004ea54b6070bb8541eec668cd5b8230d"),
]


@pytest.mark.parametrize("step, callee, replacement, spec, report, digest", FAILURES,
                         ids=[f"step-{case[0]}" for case in FAILURES])
def test_failure_report_pinned(monkeypatch, step, callee, replacement, spec, report, digest):
    if callee is not None:
        monkeypatch.setattr(pipeline, callee, replacement)
    run = solve_transversal_hamilton(sampled_dense(*spec), LINK21, cfg=PipelineConfig(seed=spec[2], retries=2))
    assert (run.outcome, run.attempts) == ("failure", 2)
    assert run.failure.to_json() == report
    assert sha256_json([r.to_json() for r in run.records]) == digest
