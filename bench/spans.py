"""Span tracing from outside the library, for the traced benchmark run.

`Tracer.installed()` replaces each traced public function with a recording
wrapper in every loaded `transversals` module that holds a reference to it
(the defining module and every module that imported the name), and puts the
originals back on exit.  A span is (name, start, end, parent); a layer's self
time is its duration minus the durations of its direct children, which in a
single thread never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

# (defining module, function) pairs wrapped in the traced run.  The links,
# rng and errors modules stay unwrapped: they cost well under 1 % everywhere.
TRACED = (
    ("gen", "generate"),
    ("hypergraph", "min_degree_d"),
    ("hypergraph", "neighbour_sets"),
    ("hypergraph", "induced"),
    ("collection", "threshold_hypergraph"),
    ("collection", "rainbow_colouring"),
    ("collection", "verify_certificate"),
    ("matching", "maximum_bipartite_matching"),
    ("absorb", "build_colour_absorber"),
    ("absorb", "degree_preserving_partition"),
    ("absorb", "rainbow_tiling"),
    ("absorb", "greedy_rainbow_factor"),
    ("exact", "find_embedding"),
    ("exact", "find_transversal_cycle"),
    ("exact", "find_transversal_subgraph"),
    ("pipeline", "solve_transversal_hamilton"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

# Set on every wrapper so a leftover one can be found after restoring.
_MARK = "_bench_span_name"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in Tracer.spans, -1 at the root
    request: int  # the instance this span served
    returned_none: bool = False
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; spans are aggregated when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        """Record one span around the body; `request` opens a new instance."""
        if request is not None:
            self._request = request
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self._request)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += record.duration

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                record.returned_none = out is None
                return out

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever the package refers to it."""
        originals = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"transversals.{mod}"], fn)
            originals[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "transversals" and not modname.startswith("transversals."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
            leftover = wrappers_present()
            if leftover:
                raise RuntimeError(f"span wrappers left installed: {leftover}")

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, total_s, self_s and None returns per traced function."""
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "none": 0}
            for name in SPAN_NAMES
        }
        for s in self.spans:
            row = out.get(s.name)
            if row is None:
                continue
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_s
            row["none"] += s.returned_none
        return out

    def self_time_sum(self) -> float:
        return sum(s.self_s for s in self.spans)


def wrappers_present() -> list[str]:
    """Dotted names of any span wrapper still bound in a loaded module."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "transversals" and not modname.startswith("transversals."):
            continue
        for attr, value in vars(module).items():
            if getattr(value, _MARK, None) is not None:
                found.append(f"{modname}.{attr}")
    return found
