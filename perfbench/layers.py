"""Spans of a traced run, and the per-layer metrics derived from them.

A span is recorded by the benchmark around each call it makes into an
orbitlab module (the program itself is not instrumented).  Spans are kept in
memory and written out once, when the run ends.  A span's ``group`` ties
together the spans of one unit of work: one warm-up, one repeat of the solve
job, the probe bundles, one CLI command.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Layer metric -> (span name, unit, the count the time is divided by).
TIMED = {
    "residues.enumerate_sl2_cold_s": ("residues.enumerate_sl2", "s", None),
    "residues.move_ns": ("residues.apply_s_t", "ns", "calls"),
    "residues.index_roundtrip_ns": ("residues.index_roundtrip", "ns", "calls"),
    "orbits.bfs_s": ("orbits.count_orbits_bfs", "s", None),
    "orbits.bfs_ns_per_state": ("orbits.count_orbits_bfs", "ns", "states"),
    "orbits.canonical_s": ("orbits.count_orbits_canonical", "s", None),
    "orbits.canonical_ns_per_state": ("orbits.count_orbits_canonical", "ns", "states"),
    "orbits.canonical_form_us": ("orbits.canonical_form", "us", "calls"),
    "orbits.burnside_s": ("orbits.count_orbits_burnside", "s", None),
    "orbits.summaries_s": ("orbits.orbit_summaries", "s", None),
    "orbits.summaries_ns_per_orbit": ("orbits.orbit_summaries", "ns", "orbits"),
    "words.enumerate_s": ("words.enumerate_words", "s", None),
    "words.enumerate_ns_per_word": ("words.enumerate_words", "ns", "words"),
    "words.count_s": ("words.count_words", "s", None),
    "words.validate_ns": ("words.is_valid_word", "ns", "calls"),
    "bridge.verify_s": ("bridge.verify_bridge", "s", None),
    "bridge.encode_us": ("bridge.encode_word", "us", "calls"),
    "formulas.is_prime_s": ("formulas.is_prime", "s", None),
    "formulas.r_formula_us": ("formulas.r_formula", "us", "calls"),
    "formulas.sequence_table_s": ("formulas.sequence_table", "s", None),
    "cli.orbits_s": ("cli.orbits", "s", None),
    "cli.words_s": ("cli.words", "s", None),
    "cli.encode_s": ("cli.encode", "s", None),
    "cli.verify_s": ("cli.verify", "s", None),
    "cli.sequence_s": ("cli.sequence", "s", None),
    "cli.startup_s": ("cli.startup", "s", None),
}
SCALE = {"s": 1.0, "us": 1e6, "ns": 1e9}

# Metrics that are not a span's time, with their units.
OTHER_UNITS = {
    "residues.sl2_tuples_scanned": "count",
    "orbits.states_swept": "count",
    "orbits.orbits_found": "count",
    "orbits.orbit_yield": "ratio",
    "orbits.canonical_images_max": "count",
    "orbits.visited_map_bytes": "bytes",
    "bridge.verify_self_s": "s",
    "cli.stdout_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}

UNITS = {**{name: unit for name, (_, unit, _) in TIMED.items()}, **OTHER_UNITS}

# Calls whose sweep allocates a visited map of one byte per state.
VISITED_MAP = {"orbits.count_orbits_bfs", "orbits.orbit_summaries", "bridge.verify_bridge"}


@dataclass
class Span:
    id: int
    name: str
    group: str
    kind: str                      # "warmup", "job", "probe" or "cli"
    start: float
    end: float
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Spans recorded in memory, relative to the moment the recorder started."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[Span] = []

    def add(self, name, group, kind, start, end, parent=None, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, group, kind, start - self.origin,
                               end - self.origin, parent, attrs))
        return span_id

    def timed(self, name, group, kind, fn):
        start = perf_counter()
        out = fn()
        self.add(name, group, kind, start, perf_counter())
        return out

    def as_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "group": s.group, "kind": s.kind,
                 "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
                for s in self.spans]


def _chosen(spans: list[Span], name: str) -> dict[str, list[Span]]:
    """Spans of `name` by group: the workload's own if it made any, else the
    probe's."""
    named = [s for s in spans if s.name == name]
    own = [s for s in named if s.kind != "probe"]
    groups: dict[str, list[Span]] = defaultdict(list)
    for s in own or named:
        groups[s.group].append(s)
    return groups


def _timed_metric(spans: list[Span], name: str, unit: str, per: str | None) -> float:
    values = []
    for group in _chosen(spans, name).values():
        seconds = sum(s.seconds for s in group)
        divisor = sum(s.attrs[per] for s in group) if per else 1
        values.append(seconds / divisor * SCALE[unit])
    return statistics.median(values)


def _verify_self(spans: list[Span]) -> float:
    """verify_bridge's time minus the separately timed enumerate_words(m) and
    count_orbits_bfs(2, m) of the same group: derived, not measured."""
    values = []
    for group, verify in _chosen(spans, "bridge.verify_bridge").items():
        for v in verify:
            parts = [s.seconds for s in spans
                     if s.group == group and s.attrs.get("key") == v.attrs["key"]
                     and s.name in ("words.enumerate_words", "orbits.count_orbits_bfs")]
            values.append(v.seconds - sum(parts))
    return statistics.median(values)


def per_layer(spans: Spans, steps: list, primes: list[int], stdout_bytes: int,
              overhead: float) -> dict[str, float]:
    """Every per-layer metric.  Counts come from the job's steps, which are
    computed from input sizes and repeat exactly."""
    recorded = spans.spans
    out = {metric: _timed_metric(recorded, name, unit, per)
           for metric, (name, unit, per) in TIMED.items()}
    swept = sum(s.states for s in steps)
    found = sum(s.orbits for s in steps)
    out.update({
        "residues.sl2_tuples_scanned": sum(p ** 4 for p in primes),
        "orbits.states_swept": swept,
        "orbits.orbits_found": found,
        "orbits.orbit_yield": found / swept,
        "orbits.canonical_images_max": sum(s.images for s in steps),
        "orbits.visited_map_bytes": max(s.states for s in steps if s.name in VISITED_MAP),
        "bridge.verify_self_s": _verify_self(recorded),
        "cli.stdout_bytes": stdout_bytes,
        "bench.trace_overhead": overhead,
    })
    return out
