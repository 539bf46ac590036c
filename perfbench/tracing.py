"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each poisson_bm layer where
``run_experiment`` looks them up, in ``poisson_bm.runner``, plus
``EvaluationGrid.index_of`` and ``RunReport.write`` on their classes.
Each call becomes one span: an id, the id of the enclosing span, a
name, start and end from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux, shared by all processes, so worker spans line up with the
coordinator's), and the ``(eps_index, rep)`` replication the call
belongs to. ``index_of`` runs about a million times on a 64-step grid,
so it is only counted, not spanned.

Spans stay in memory. Pool workers are forked from the coordinator and
inherit the wrappers; at the end of each chunk a worker writes that
chunk's spans to a file in ``ship_dir``, which the coordinator reads
back after the run. Nothing in the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

# stats estimator -> the check whose per-check metrics it feeds
STATS_CHECKS = {
    "empirical_increment_covariance": "covariance",
    "correlation_matrix": "covariance",
    "quadratic_variation": "quadratic_variation",
    "cross_moment": "cross_moments",
    "structural_bound_eval": "cross_moments",
    "fourth_moment_ratio": "fourth_moment",
    "normality_check": "normality",
    "martingale_residual": "martingale",
    "stroock_variance_check": "stroock",
    "rate_fit": "rate_fit",
}

SPAN_STREAM = "rng.derive_stream"
SPAN_PATH = "poisson.sample_path"
SPAN_BUILD = "process.build"
SPAN_GENERATE = "runner.generate_samples"
SPAN_CHUNK = "runner.chunk"
SPAN_WRITE = "report.write"
COUNT_INDEX_OF = "process.index_of"


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, ship_dir: Path):
        self.coordinator_pid = os.getpid()
        self.pid = self.coordinator_pid
        self.ship_dir = ship_dir
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[str] = []
        self.replication: tuple[int | None, int | None] = (None, None)
        self._seq = 0

    def wrap(self, name, fn, on_enter=None, extra=None):
        """``fn`` recording one span per call.

        ``on_enter(args)`` may set the current replication id before
        the span opens; ``extra(args, result)`` adds a payload.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            self._seq += 1
            sid = f"{self.pid}:{self._seq}"
            parent = self.stack[-1] if self.stack else None
            eps_index, rep = self.replication
            self.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
            payload = extra(args, out) if extra is not None else None
            self.spans.append((sid, parent, name, start, end, eps_index, rep, payload))
            return out
        return traced

    def wrap_chunk(self, fn):
        """Pool-worker body: spans of each chunk go to a file in ship_dir."""
        def enter_chunk(args):
            self.replication = (self.replication[0], None)

        traced = self.wrap(SPAN_CHUNK, fn, enter_chunk)

        @functools.wraps(fn)
        def chunk(start_stop):
            if os.getpid() == self.coordinator_pid:  # serial run, no pool
                return traced(start_stop)
            # a forked worker inherits the coordinator's spans and its open
            # generate_samples span; keep the latter as the parent only
            self.pid = os.getpid()
            self.spans, self.counts = [], Counter()
            out = traced(start_stop)
            path = self.ship_dir / f"{self.pid}-{self._seq}.json"
            path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))
            return out
        return chunk

    def collect_shipped(self) -> None:
        """Merge the spans pool workers wrote, then delete their files."""
        for path in sorted(self.ship_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            self.spans.extend(tuple(s) for s in doc["spans"])
            self.counts.update(doc["counts"])
            path.unlink()

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over everything recorded so far and start empty."""
        self.collect_shipped()
        out = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the layer calls of ``run_experiment`` through ``tracer``."""
    import poisson_bm.runner as runner
    from poisson_bm.process import EvaluationGrid
    from poisson_bm.report import RunReport

    def enter_stream(args):
        tracer.replication = (args[1], args[2])

    def enter_generate(args):
        tracer.replication = (args[2], None)

    def path_extra(args, path):
        return [int(path.jump_times.size), float(args[0])]

    def build_extra(args, sample):
        return int(args[0].jump_times.size) * sample.dimension

    patches = [
        (runner, "derive_stream", tracer.wrap(SPAN_STREAM, runner.derive_stream, enter_stream)),
        (runner, "sample_poisson_path",
         tracer.wrap(SPAN_PATH, runner.sample_poisson_path, extra=path_extra)),
        (runner, "build_sample", tracer.wrap(SPAN_BUILD, runner.build_sample, extra=build_extra)),
        (runner, "generate_samples",
         tracer.wrap(SPAN_GENERATE, runner.generate_samples, enter_generate)),
        (runner, "_chunk_values", tracer.wrap_chunk(runner._chunk_values)),
        (RunReport, "write", tracer.wrap(SPAN_WRITE, RunReport.write)),
    ]
    patches += [
        (runner, fn_name, tracer.wrap(f"stats.{fn_name}", getattr(runner, fn_name)))
        for fn_name in STATS_CHECKS
    ]
    index_of = EvaluationGrid.index_of

    def counted_index_of(grid, t):
        tracer.counts[COUNT_INDEX_OF] += 1
        return index_of(grid, t)

    patches.append((EvaluationGrid, "index_of", counted_index_of))

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, fn in patches:
            setattr(owner, name, fn)
        yield tracer
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds per span name, less the time its direct children cover.

    Children in pool workers overlap, so coverage is the union of their
    intervals, not the sum of their lengths.
    """
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, name, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end, *_ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start - covered) / 1e9
    return dict(out)


def layer_metrics(spans: list[tuple], counts: Counter, *, workers: int,
                  block_floats: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of a workload."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def durations_us(name):
        return [(s[4] - s[3]) / 1e3 for s in by_name[name]]

    def total_s(name):
        return sum(s[4] - s[3] for s in by_name[name]) / 1e9

    out: dict[str, float] = {}
    for prefix, name in (("rng.derive_stream", SPAN_STREAM),
                         ("poisson.sample_path", SPAN_PATH),
                         ("process.build", SPAN_BUILD)):
        us = durations_us(name)
        out[f"{prefix}_us_p50"] = percentile(us, 50)
        out[f"{prefix}_us_p99"] = percentile(us, 99)
    out["rng.calls"] = len(by_name[SPAN_STREAM])
    out["poisson.sample_path_n"] = len(by_name[SPAN_PATH])
    out["process.build_n"] = len(by_name[SPAN_BUILD])

    paths = by_name[SPAN_PATH]
    jumps = sum(s[7][0] for s in paths)
    out["poisson.ns_per_jump"] = total_s(SPAN_PATH) * 1e9 / jumps
    out["poisson.jumps_over_expected"] = sum(s[7][0] / s[7][1] for s in paths) / len(paths)
    out["process.build_ns_per_jump_component"] = (
        total_s(SPAN_BUILD) * 1e9 / sum(s[7] for s in by_name[SPAN_BUILD])
    )
    out["process.index_of_calls"] = counts[COUNT_INDEX_OF]

    generate_s = total_s(SPAN_GENERATE)
    sampling_s = total_s(SPAN_STREAM) + total_s(SPAN_PATH) + total_s(SPAN_BUILD)
    out["runner.generate_s"] = generate_s
    out["runner.sampling_s"] = sampling_s
    out["runner.gather_overhead_s"] = generate_s - sampling_s / workers
    out["runner.pool_efficiency"] = sampling_s / (workers * generate_s)
    out["runner.sample_block_mb"] = block_floats * 8 / 1e6

    selfs = self_times(spans)
    per_check_s: dict[str, float] = defaultdict(float)
    per_check_calls: Counter = Counter()
    for fn_name, check in STATS_CHECKS.items():
        per_check_s[check] += selfs.get(f"stats.{fn_name}", 0.0)
        per_check_calls[check] += len(by_name[f"stats.{fn_name}"])
    for check in dict.fromkeys(STATS_CHECKS.values()):
        out[f"stats.{check}_s"] = per_check_s[check]
        out[f"stats.{check}_calls"] = per_check_calls[check]
    out["stats.estimator_calls"] = sum(per_check_calls.values())

    out["report.write_s"] = total_s(SPAN_WRITE)
    return out
