"""Closed-loop measurement of one workload, and the benchmark's command line.

One client in one process answers tasks back to back, with no threads.  A
run's work set is the tasks of the workload's pinned rounds, a fixed count, so
the output digest and every deterministic counter repeat exactly at a seed.
The run answers the whole set once and then goes round it again, task by
task, until `--seconds` of answering time has passed.  Every pass rebuilds
each input from scratch and must give the first pass's answers.

The host's speed swings up to 2x, in phases from seconds to minutes, which no
run length averages out.  So a timer signal times a fixed reference loop every
SAMPLE_S during the run, and each measured time, less the samples taken in it,
is scaled to reference speed: by REFERENCE_S over the reference time, averaged
over the samples in the interval and the nearest one on each side.  A reported
time is what the work would take on a host that runs the reference loop in
REFERENCE_S.  A task's time is the median of its scaled times over the passes.
The unscaled wall-clock figures are printed beside them.

`--trace 0` reports the end-to-end metrics.  `--trace 1` answers the set
twice, untraced and then traced, and reports the per-layer metrics of the
traced pass plus the tracing overhead.  `--workload all` runs every workload
untraced, each in a fresh process, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import FOUND, WORKLOADS, Answer, CheckFailed, build, digest_line, raw_of

ROOT = Path(__file__).resolve().parents[1]
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
SEARCHES = ("exact.find_transversal_cycle", "exact.find_transversal_subgraph")
SAMPLE_S = 0.25  # wall time between two timings of the reference loop
# About the reference loop's time on the 2-core 2.1 GHz Xeon host the
# benchmark was defined on (Python 3.11), in that host's fast phases.  It
# fixes the unit only: reported times are close to that host's wall times
# when it runs fast.
REFERENCE_S = 0.0025


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def _pairs(count: int):
    x = 1
    for _ in range(count):
        x = _lcg(x)
        yield x % 97, x // 97 % 89


_TABLE = frozenset(_pairs(3000))


def _reference_work() -> int:
    """Fixed pure-Python work in the library's style: arithmetic, tuples and
    set lookups.  It holds only a few objects at a time, so a sample taken
    amid the library's work leaves the heap as it was; a loop that built a
    3,000-entry dict made peak RSS on pipeline_dense vary by 8 %."""
    hits = 0
    x = 7
    for _ in range(8000):
        x = _lcg(x)
        if (x % 97, x // 97 % 89) in _TABLE:
            hits += 1
    return hits


def reference_s() -> float:
    """The host's current time for the reference loop: the fastest of three."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - started)
    return best


class SpeedSampler:
    """Times the reference loop every SAMPLE_S of wall time, from a timer
    signal, so that the host's speed is sampled inside long tasks as well."""

    def __init__(self) -> None:
        # Arrays, not lists of floats, so that a sample leaves no new object
        # behind among the library's own.
        self.starts = array("d")
        self.ends = array("d")
        self.speeds = array("d")  # REFERENCE_S / reference time
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that fell inside the previous sample
            return
        self._busy = True
        started = time.perf_counter()
        speed = REFERENCE_S / reference_s()
        self.starts.append(started)
        self.ends.append(time.perf_counter())
        self.speeds.append(speed)
        self._busy = False

    @contextmanager
    def running(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Time from t0 to t1 less the samples taken in it, at reference speed.

        The speed is the mean over the samples taken in the interval and the
        nearest sample on each side of it.  Call after `running` has ended.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        own = math.fsum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return (t1 - t0 - own) * statistics.fmean(self.speeds[lo - 1 : hi + 1])


@dataclass
class Pass:
    """What one closed-loop run over a workload's work set observed."""

    size: int  # tasks in the work set
    times: list[list[float]] = field(init=False)  # per task, its scaled answering times
    setups: list[list[float]] = field(init=False)  # per task, its scaled input build times
    first: list[Answer] = field(default_factory=list)  # the first pass's answers
    answers: list[Answer] = field(default_factory=list)  # every answer of the run
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    answer_s: float = 0.0  # wall-clock answering time
    speeds: list[float] = field(default_factory=list)  # REFERENCE_S / reference time, per sample
    wall_s: float = 0.0

    def __post_init__(self) -> None:
        self.times = [[] for _ in range(self.size)]
        self.setups = [[] for _ in range(self.size)]

    @property
    def answered(self) -> int:
        return sum(a.answered for a in self.answers)

    @property
    def failed(self) -> int:
        return len(self.answers) - self.answered

    @property
    def task_s(self) -> list[float]:
        return [statistics.median(t) for t in self.times]

    @property
    def instances_per_s(self) -> float:
        """Answered tasks of the set over the set's scaled time."""
        return sum(a.answered for a in self.first) / sum(self.task_s)

    @property
    def setup_s(self) -> float:
        return sum(statistics.median(s) for s in self.setups)

    @property
    def wall_instances_per_s(self) -> float:
        return self.answered / self.answer_s


def _timed_build(raw, repeats: int) -> tuple[object, tuple[float, float]]:
    """Build an input `repeats` times: the last build and the fastest's interval."""
    best = (0.0, float("inf"))
    for _ in range(repeats):
        started = time.perf_counter()
        C = build(raw)
        ended = time.perf_counter()
        if ended - started < best[1] - best[0]:
            best = (started, ended)
    return C, best


def _behaviour(ans: Answer) -> tuple:
    return ans.status, ans.nodes, ans.attempts, ans.certificate


def run_pass(workload, seed: int, seconds: float, tracer: spans.Tracer | None = None) -> Pass:
    """Answer the work set once, then round it again while answering time < seconds."""
    tasks = [t for r in range(workload.pinned_rounds) for t in workload.round(seed, r)]
    out = Pass(len(tasks))
    answered_at: list[tuple[int, float, float]] = []  # (task, start, end) of each answer
    built_at: list[tuple[int, float, float]] = []  # (task, start, end) of each fastest build
    sampler = SpeedSampler()
    started = time.perf_counter()
    i = 0
    with sampler.running():
        while i < len(tasks) or out.answer_s < seconds:
            j = i % len(tasks)
            task = tasks[j]
            C = None
            if task.make_raw is not None:
                C, built = _timed_build(task.make_raw(), workload.setup_repeats)
            span = tracer.span("bench.task", request=i) if tracer else nullcontext()
            t0 = time.perf_counter()
            with span:
                C, ans = task.solve(C)
            t1 = time.perf_counter()
            out.answer_s += t1 - t0
            out.answers.append(ans)
            if task.make_raw is None:
                # a task that generates its own input: time rebuilding what it made
                _, built = _timed_build(raw_of(C), workload.setup_repeats)
            if i < len(tasks):
                out.first.append(ans)
                out.digest.update(digest_line(task.label, C, ans))
            elif _behaviour(ans) != _behaviour(out.first[j]):
                raise CheckFailed(f"{task.label} answered differently on a later pass")
            answered_at.append((j, t0, t1))
            built_at.append((j, *built))
            i += 1
    for j, t0, t1 in answered_at:
        out.times[j].append(sampler.scaled(t0, t1))
    for j, t0, t1 in built_at:
        out.setups[j].append(sampler.scaled(t0, t1))
    out.speeds = sampler.speeds
    out.wall_s = time.perf_counter() - started
    return out


def end_to_end(p: Pass) -> dict[str, tuple[float, str]]:
    return {
        "instances_per_s": (p.instances_per_s, "1/s"),
        "solved_fraction": (p.answered / len(p.answers), "fraction"),
        "setup_s": (p.setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: spans.Tracer, traced: Pass, plain: Pass) -> dict[str, tuple[float, str]]:
    layers = tracer.aggregate()
    out: dict[str, tuple[float, str]] = {}
    for name, row in layers.items():
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.total_s"] = (row["total_s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    nodes = sum(a.nodes for a in traced.answers)
    search_s = sum(layers[name]["total_s"] for name in SEARCHES)
    out["exact.nodes"] = (nodes, "count")
    out["exact.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    attempts = sum(a.attempts for a in traced.answers)
    successes = sum(1 for a in traced.answers if a.attempts and a.status == FOUND)
    out["pipeline.attempts"] = (attempts, "count")
    out["pipeline.attempts_per_success"] = (attempts / successes if successes else 0.0, "ratio")
    for name in ("absorb.degree_preserving_partition", "exact.find_embedding"):
        out[f"{name}.none"] = (layers[name]["none"], "count")
    out["trace.overhead_ratio"] = (traced.instances_per_s / plain.instances_per_s, "ratio")
    return out


def measure(workload, seed: int, seconds: float, trace: bool):
    """(main pass, metrics, extra report lines) for one run."""
    if not trace:
        if spans.wrappers_present():
            raise CheckFailed("span wrappers are installed in an untraced run")
        p = run_pass(workload, seed, seconds)
        extra = {
            "failed_fraction": (p.failed / len(p.answers), "fraction"),
            "latency_p50_s": (statistics.median(p.task_s), "s"),
        }
        if p.size >= P90_MIN_SAMPLES:
            extra["latency_p90_s"] = (statistics.quantiles(p.task_s, n=10)[-1], "s")
        extra |= {
            "passes": (len(p.answers) / p.size, "count"),
            "wall_instances_per_s": (p.wall_instances_per_s, "1/s"),
            "host_speed_median": (statistics.median(p.speeds), "ratio"),
        }
        return p, end_to_end(p), extra
    plain = run_pass(workload, seed, 0.0)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_pass(workload, seed, 0.0, tracer)
    if traced.digest.hexdigest() != plain.digest.hexdigest():
        raise CheckFailed("the traced pass answered differently from the untraced one")
    self_sum = tracer.self_time_sum()
    if self_sum > traced.wall_s:
        raise CheckFailed(f"span self times sum to {self_sum} s, above the pass wall time {traced.wall_s} s")
    return traced, per_layer(tracer, traced, plain), {"self_time_sum_s": (self_sum, "s"), "wall_s": (traced.wall_s, "s")}


def git_commit(root: Path) -> str:
    """HEAD's commit read from the checkout's own .git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:<14.6g} {unit}")


def _result(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    print("meta " + json.dumps(metadata(name, seed, seconds, trace)))
    try:
        p, metrics, extra = measure(WORKLOADS[name], seed, seconds, trace)
    except CheckFailed as exc:
        print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
        return 1
    print(f"pinned_digest {p.digest.hexdigest()}")
    print(f"instances {len(p.answers)} answered {p.answered} failed {p.failed}")
    _print_metrics(metrics)
    _print_metrics(extra)
    print(_result(True, len(p.answers), p.failed, metrics))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process for its own peak RSS."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (v["value"], v["unit"])
    print(_result(ok, attempted, failed, metrics))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced only")
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
