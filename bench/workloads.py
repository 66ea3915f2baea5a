"""The benchmark's three workloads.

Each workload is an endless, seed-determined sequence of rounds; a round is a
short list of tasks, one instance each.  A task is answered through the
library's public functions, looked up on their modules at call time so the
traced run's wrappers see every call, and every answer is re-checked here:

- pipeline_dense: dense 2-uniform collections (n = m = 100, every member of
  minimum degree >= 0.7 n) from this file's own seeded sampler, solved by the
  absorption pipeline.  The paper's regime; the pipeline's repeated
  recomputation of degrees and threshold graphs dominates it.
- exact_negative: definitive negatives (dirac_extremal(10), dirac_extremal(11),
  bridge_construction(9, 10) against K_{2,3} + C_4) under a seeded vertex
  relabelling and colour shuffle.  Exhaustive search and the incremental
  matching are almost all of the time.
- scan_random: the trials of `transversals scan --engine exact` at
  n = m = 16, delta in {0.3, ..., 0.7}, with the CLI's own trial seeds.
  Many small, easy positives; instance generation is most of the time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from transversals import collection, exact, gen, hypergraph, pipeline
from transversals.collection import Collection
from transversals.exact import FOUND, NONE
from transversals.hypergraph import Hypergraph
from transversals.links import builtin_link
from transversals.rng import split

LINK = builtin_link("edge(2,1)")
FAILURE = "failure"  # the pipeline's heuristic miss

# (n, k, one sorted edge list per member): an input before it is built into
# library objects.  Building it is the benchmark's set-up.
Raw = tuple[int, int, tuple[tuple[tuple[int, ...], ...], ...]]


class CheckFailed(Exception):
    """A re-check or gate of the benchmark failed; aborts the run."""


@dataclass
class Answer:
    status: str  # found / none / failure / exhausted
    nodes: int = 0  # exact search nodes
    attempts: int = 0  # pipeline attempts
    certificate: Optional[dict] = None

    @property
    def answered(self) -> bool:
        return self.status in (FOUND, NONE)


@dataclass
class Task:
    label: str
    # takes the built input (None when the task makes its own) and returns
    # the collection it answered on with the checked answer
    solve: Callable[[Optional[Collection]], tuple[Collection, Answer]]
    # makes the raw input afresh on each call, so a run holds one at a time
    make_raw: Optional[Callable[[], Raw]] = None


def build(raw: Raw) -> Collection:
    """Library objects from a raw input, validated by their constructors."""
    n, k, members = raw
    return collection.Collection(
        n, k, tuple(hypergraph.Hypergraph(n, k, frozenset(edges)) for edges in members)
    )


def raw_of(C: Collection) -> Raw:
    return C.n, C.k, tuple(tuple(H.sorted_edges()) for H in C.members)


def digest_line(label: str, C: Collection, ans: Answer) -> bytes:
    """The behaviour pin of one answered instance."""
    inp = json.dumps(C.to_json(), sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "task": label,
            "input_sha256": hashlib.sha256(inp.encode()).hexdigest(),
            "status": ans.status,
            "nodes": ans.nodes,
            "attempts": ans.attempts,
            "certificate": ans.certificate,
        },
        sort_keys=True,
    ).encode() + b"\n"


def _check_found(C: Collection, cert, link=LINK) -> dict:
    n = C.n if link is not None else None
    check = collection.verify_certificate(C, cert, link, n)
    if not check.ok:
        raise CheckFailed(f"certificate rejected: {check.reason} ({check.detail})")
    return cert.to_json()


def _solve_pipeline(seed: int, C: Collection) -> tuple[Collection, Answer]:
    run = pipeline.solve_transversal_hamilton(C, LINK, cfg=pipeline.PipelineConfig(seed=seed))
    if not run:
        return C, Answer(FAILURE, attempts=run.attempts)
    return C, Answer(FOUND, attempts=run.attempts, certificate=_check_found(C, run.certificate))


def _exact_answer(C: Collection, result, expect_none: bool, link=LINK) -> Answer:
    if result.status != FOUND:
        return Answer(result.status, result.nodes)
    if expect_none:
        raise CheckFailed("found a transversal copy on a definitive negative")
    return Answer(FOUND, result.nodes, certificate=_check_found(C, result.certificate, link))


def _solve_cycle_negative(C: Collection) -> tuple[Collection, Answer]:
    return C, _exact_answer(C, exact.find_transversal_cycle(C, LINK), expect_none=True)


def _solve_pattern_negative(F: Hypergraph, C: Collection) -> tuple[Collection, Answer]:
    result = exact.find_transversal_subgraph(C, F)
    return C, _exact_answer(C, result, expect_none=True, link=None)


def _dirac(C: Collection) -> bool:
    """n graphs on n vertices, each of minimum degree >= n/2: a transversal
    Hamilton cycle exists (Joos and Kim, "On a rainbow version of Dirac's
    theorem", 2020)."""
    if C.k != 2 or C.m != C.n:
        return False
    for H in C.members:
        deg = [0] * C.n
        for u, v in H.edges:
            deg[u] += 1
            deg[v] += 1
        if 2 * min(deg) < C.n:
            return False
    return True


def _solve_scan_trial(spec: gen.GenSpec, budget: exact.SearchBudget, _built) -> tuple[Collection, Answer]:
    C = gen.generate(spec)
    ans = _exact_answer(C, exact.find_transversal_cycle(C, LINK, budget), expect_none=False)
    if ans.status == NONE and _dirac(C):
        raise CheckFailed("none on an instance the transversal Dirac theorem makes positive")
    return C, ans


def _rng(*path: object) -> random.Random:
    # str seeds hash through SHA-512, so inputs do not depend on the library's rng
    return random.Random("/".join(str(p) for p in ("bench",) + path))


@dataclass(frozen=True)
class PipelineDense:
    name = "pipeline_dense"
    n: int = 100
    p: float = 0.8
    min_degree_fraction: float = 0.7
    pinned_rounds: int = 6
    setup_repeats: int = 1

    def dense_raw(self, seed: int, index: int) -> Raw:
        """n members, each G(n, p) topped up per vertex to the degree floor."""
        n = self.n
        floor = math.ceil(self.min_degree_fraction * n)
        pairs = list(combinations(range(n), 2))
        members = []
        for colour in range(n):
            rng = _rng(self.name, seed, index, colour)
            draw = rng.random
            edges = [e for e in pairs if draw() < self.p]
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if min(deg) < floor:
                edge_set = set(edges)
                for v in range(n):
                    if deg[v] >= floor:
                        continue
                    taken = {u for e in edge_set if v in e for u in e}  # v and its neighbours
                    for u in rng.sample(sorted(set(range(n)) - taken), floor - deg[v]):
                        edge_set.add((min(u, v), max(u, v)))
                        deg[u] += 1
                        deg[v] += 1
                edges = sorted(edge_set)
            members.append(tuple(edges))
        return n, 2, tuple(members)

    def round(self, seed: int, r: int) -> list[Task]:
        solve = functools.partial(_solve_pipeline, split(seed, self.name, "solve", r))
        return [Task(f"dense-{r}", solve, functools.partial(self.dense_raw, seed, r))]


def _shuffled(C: Collection, rng: random.Random) -> Raw:
    """Relabel vertices and shuffle colours; the answer is unchanged."""
    perm = list(range(C.n))
    rng.shuffle(perm)
    members = [
        tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in H.edges)) for H in C.members
    ]
    rng.shuffle(members)
    return C.n, C.k, tuple(members)


def _fixed(raw: Raw) -> Callable[[], Raw]:
    return lambda: raw


def k23_plus_c4() -> Hypergraph:
    """K_{2,3} beside a 4-cycle: 10 edges on 9 vertices, no bridge in either part."""
    k23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]
    c4 = [(5, 6), (6, 7), (7, 8), (5, 8)]
    return Hypergraph.from_edges(9, 2, k23 + c4)


@dataclass(frozen=True)
class ExactNegative:
    name = "exact_negative"
    dirac_sizes: tuple[int, ...] = (10, 11)
    pinned_rounds: int = 4
    setup_repeats: int = 10

    def round(self, seed: int, r: int) -> list[Task]:
        rng = _rng(self.name, seed, r)
        tasks = [
            Task(f"dirac_extremal({n})-{r}", _solve_cycle_negative, _fixed(_shuffled(gen.dirac_extremal(n), rng)))
            for n in self.dirac_sizes
        ]
        F = k23_plus_c4()
        bridge = gen.bridge_construction(F.n, F.num_edges)
        solve = functools.partial(_solve_pattern_negative, F)
        tasks.append(Task(f"bridge_construction(9,10)-{r}", solve, _fixed(_shuffled(bridge, rng))))
        return tasks


@dataclass(frozen=True)
class ScanRandom:
    name = "scan_random"
    n: int = 16
    deltas: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)
    node_limit: int = 10**5
    pinned_rounds: int = 60
    setup_repeats: int = 3

    def round(self, seed: int, r: int) -> list[Task]:
        """Trial r of every delta, seeded as `transversals scan --seed seed`."""
        budget = exact.SearchBudget(node_limit=self.node_limit)
        return [
            Task(
                f"scan-{delta}-{r}",
                functools.partial(
                    _solve_scan_trial,
                    gen.GenSpec(
                        n=self.n,
                        k=2,
                        m=self.n,
                        delta_fraction=delta,
                        family="random",
                        seed=split(seed, "scan", di, r),
                    ),
                    budget,
                ),
            )
            for di, delta in enumerate(self.deltas)
        ]


WORKLOADS = {w.name: w for w in (PipelineDense(), ExactNegative(), ScanRandom())}
