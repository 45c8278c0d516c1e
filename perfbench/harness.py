"""What every workload shares: ops, set-up timing, traced blocks and metrics.

A run sets the workload up several times (:func:`more_setups`; timing each
and keeping the last), then drives its closed loop in whole *mix blocks* until
``--seconds`` have passed, so every run replays the statement mix in exact
proportion.  Between blocks it times the host-speed probe of
:mod:`perfbench.probe`, and the times it reports are scaled by it.  With ``--trace 1`` the blocks alternate between untraced and
traced, which gives the tracing overhead (traced against untraced op time
on the same mix) and per-layer numbers from the traced half.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from perfbench import probe
from perfbench.tracer import COUNTERS, Tracer

#: LDBC-style generator settings shared by every workload; the workload
#: seed drives the request stream, never the graph, so runs with different
#: seeds measure the same data
DATASET_SCALE = 200
DATASET_SEED = 42
#: a run sets up at least this many times, and for at least this many
#: seconds in all (cheap set-ups repeat more); setup_s is their median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: Zipf exponent of person bindings (rank = person id, so the generator's
#: preferential-attachment hubs are also the most requested people)
ZIPF_EXPONENT = 1.0

clock = time.perf_counter


@dataclass
class Op:
    """One request of the closed loop."""

    cls: str
    start: float
    end: float
    traced: bool
    failure: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Run:
    """Everything one run measured, before metrics are derived."""

    workload: str
    seed: int
    setup_seconds: List[float] = field(default_factory=list)
    #: seconds of the host-speed probe timed right after each set-up
    setup_probes: List[float] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    #: notification latencies (mutation start -> delivery), with traced flag
    notifications: List[tuple] = field(default_factory=list)
    #: seconds of the closed loop, without the probes between its blocks
    elapsed: float = 0.0
    #: (clock at its start, seconds) of each host-speed probe
    #: (:mod:`perfbench.probe`)
    probes: List[tuple] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: wrong answers (as opposed to errors or refusals)
    mismatches: int = 0
    #: workload-specific per-layer values (serving counters, wire time)
    extra_layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, op: Op, reason: str, mismatch: bool = True) -> None:
        if op.failure is None:
            op.failure = reason
            if mismatch:
                self.mismatches += 1


class Blocks:
    """Starts mix blocks and decides whether the tracer is installed for
    each.

    Untraced runs never trace.  Traced runs start untraced (so lazy first-use
    work lands outside the traced half) and alternate every block.
    """

    def __init__(self, run: Run, tracer: Optional[Tracer]) -> None:
        self.run = run
        self.tracer = tracer
        self._index = 0
        #: whether the block in progress is traced
        self.traced = False

    def next_block(self) -> bool:
        self.traced = self.tracer is not None and self._index % 2 == 1
        self._index += 1
        if self.tracer is not None:
            if self.traced:
                self.tracer.install()
            else:
                self.tracer.uninstall()
        return self.traced

    def done_tracing(self) -> bool:
        """Whether a traced run has had its first traced block."""
        return self.tracer is None or self._index >= 2

    def finish(self) -> None:
        self.traced = False
        if self.tracer is not None:
            self.tracer.uninstall()


class Zipf:
    """Seeded Zipf draws over person ids ``1..n`` (rank = id).

    Draws are stratified: each cycle of ``cycle`` draws takes the midpoint
    of each of ``cycle`` equal strata of the distribution, in seeded order,
    so every cycle draws the same people and runs differ in the order they
    come in (which decides what stays warm and, in ``sp``, which people
    pair up), not in whom they draw.  Drawing a random point per stratum
    instead made the percentiles that fall inside a class with costly
    people, such as the p90 of ``reads`` inside fof, move with the seed.
    """

    def __init__(self, rng: random.Random, n: int, cycle: int = 64) -> None:
        self._rng = rng
        self._cycle = cycle
        self._pending: List[float] = []
        weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, n + 1)]
        total = sum(weights)
        running = 0.0
        self._cumulative = []
        for weight in weights:
            running += weight
            self._cumulative.append(running / total)

    def draw(self) -> int:
        if not self._pending:
            self._pending = [(index + 0.5) / self._cycle for index in range(self._cycle)]
            self._rng.shuffle(self._pending)
        point = self._pending.pop()
        return min(bisect.bisect_left(self._cumulative, point), len(self._cumulative) - 1) + 1

    def draw_other(self, other: int) -> int:
        while True:
            person = self.draw()
            if person != other:
                return person


class RowSets:
    """Keeps one copy of each distinct row set the oracle will check, so that
    recording every op's rows does not make memory, and with it
    ``peak_rss_mb``, grow with the number of ops the host completes."""

    def __init__(self) -> None:
        self._seen: Dict[frozenset, frozenset] = {}

    def __call__(self, rows):
        if rows is None:
            return None
        rows = frozenset(tuple(row) for row in rows)
        return self._seen.setdefault(rows, rows)


def mix_block(rng: random.Random, mix: Dict[str, int]) -> List[str]:
    """One block of the mix: each class exactly its weight times, shuffled."""
    block = [cls for cls, weight in mix.items() for _ in range(weight)]
    rng.shuffle(block)
    return block


def more_setups(run: Run) -> bool:
    """Whether the run needs another set-up sample."""
    return len(run.setup_seconds) < SETUP_REPEATS or sum(run.setup_seconds) < SETUP_SECONDS


def setup_done(run: Run, started: float) -> None:
    """Record a set-up that began at ``started``, and time the probe after
    it: the set-ups of a run take a second or two, one burst of the host's,
    so they are scaled by their own probes rather than the loop's."""
    run.setup_seconds.append(clock() - started)
    run.setup_probes.append(probe.probe())


def timed_setups(run: Run, setup, teardown):
    """Set up until :func:`more_setups` is satisfied; keep the last state.

    Each set-up starts from a collected heap, so garbage an earlier one left
    behind does not land in a later one's time.
    """
    state = None
    while more_setups(run):
        if state is not None:
            teardown(state)
        gc.collect()
        started = clock()
        state = setup()
        setup_done(run, started)
    gc.collect()
    return state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metrics -------------------------------------------------------------------


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def scaled(metrics: Dict[str, tuple], factor: float) -> Dict[str, tuple]:
    """``metrics`` with every time multiplied by ``factor`` and every rate
    divided by it (``HostScale.factor``); counts and ratios stay as they
    are."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("ms", "s"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = (value, unit)
    return out


def end_to_end(run: Run, scale: probe.HostScale) -> Dict[str, tuple]:
    """The end-to-end metrics of an untraced run, as ``name -> (value, unit)``,
    in reference-host time (``HostScale([])`` gives the raw figures)."""
    latencies = [op.latency * scale.at(op.start) for op in run.ops]
    return {
        "throughput_ops": (len(run.ops) / run.elapsed / scale.factor, "1/s"),
        "latency_p50_ms": (p50(latencies) * 1e3, "ms"),
        "latency_p90_ms": (p90(latencies) * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(scale.setups(run.setup_seconds)), "s"),
    }


#: per-statement and per-mutation p50s, in every run's report
CLASSES = ("sq1", "cq2", "fof", "reach", "sp", "insert", "retract", "notify")


def class_latencies(run: Run, traced: bool) -> Dict[str, List[float]]:
    """Latencies of the traced or of the untraced ops, by class."""
    by_class: Dict[str, List[float]] = {cls: [] for cls in CLASSES}
    for op in run.ops:
        if op.traced == traced:
            by_class[op.cls].append(op.latency)
    for latency, was_traced in run.notifications:
        if was_traced == traced:
            by_class["notify"].append(latency)
    return by_class


#: (metric, span) pairs reported as self milliseconds per traced op
SPAN_METRICS = [
    ("frontend.cypher.parse_ms", "frontend.cypher.parse"),
    ("pgir.lower_ms", "pgir.lower"),
    ("dlir.from_pgir_ms", "dlir.from_pgir"),
    ("analysis.analyze_ms", "analysis.analyze"),
    ("backends.souffle_ms", "backends.souffle"),
    ("sqir.from_dlir_ms", "sqir.from_dlir"),
    ("backends.sql_ms", "backends.sql"),
    ("frontend.datalog.parse_ms", "frontend.datalog.parse"),
    ("frontend.sql.parse_ms", "frontend.sql.parse"),
    ("sqir.to_dlir_ms", "sqir.to_dlir"),
    ("engine.reset_ms", "engine.reset"),
    ("engine.run_ms", "engine.run"),
    ("engine.query_ms", "engine.query"),
    ("planner.plan_for_ms", "planner.plan_for"),
    ("executor.evaluate_rule_ms", "executor.evaluate_rule"),
    ("ivm.prime_ms", "ivm.prime"),
    ("engine.maintain_ms", "engine.maintain"),
    ("session.insert_ms", "session.insert"),
    ("session.retract_ms", "session.retract"),
    ("reactive.flush_ms", "reactive.flush"),
    ("session.sync_external_ms", "session.sync_external"),
    ("result.encode_ms", "result.encode"),
]

#: the default optimizer pipeline's pass names (with a schema mapping)
PASSES = (
    "constant-propagation",
    "inline",
    "duplicate-atom-removal",
    "semantic-join-elimination",
    "linearize-recursion",
    "magic-sets",
    "dead-rule-elimination",
)


#: per-layer values only the serve workload measures (``Run.extra_layers``)
SERVING_LAYERS = (
    ("server.wire_ms", "ms"),
    ("pool.coalesce_rate", "ratio"),
    ("shared.chain_entries", "count"),
    ("shared.fold_count", "count"),
    ("shared.write_count", "count"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run, tracer: Tracer) -> Dict[str, tuple]:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``,
    before scaling."""
    traced = [op for op in run.ops if op.traced]
    untraced = [op for op in run.ops if not op.traced]
    ops = len(traced)
    self_time = tracer.self_time()
    calls = tracer.calls()
    counts = tracer.counts()
    counters = tracer.counter_totals
    metrics: Dict[str, tuple] = {}

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    for metric, span in SPAN_METRICS:
        metrics[metric] = (per_op(self_time.get(span, 0.0)) * 1e3, "ms")
    for name in PASSES:
        metrics[f"optimize.{name}.ms"] = (per_op(self_time.get(f"optimize.{name}", 0.0)) * 1e3, "ms")
        metrics[f"optimize.{name}.changed"] = (per_op(counts[f"optimize.{name}.changed"]), "1/op")
    metrics["optimize.iterations"] = (_ratio(counts["optimize.iterations"], counts["optimize.calls"]), "1/call")
    metrics["optimize.rules_out"] = (_ratio(counts["optimize.rules_out"], counts["optimize.calls"]), "1/call")
    metrics["backends.emitted_bytes"] = (per_op(counts["backends.emitted_bytes"]), "B/op")
    metrics["frontend.reparse_failures"] = (per_op(counts["frontend.reparse_failures"]), "1/op")
    metrics["engine.iterations"] = (_ratio(counts["engine.iterations"], counts["engine.derivations"]), "1/run")
    metrics["engine.derived_per_result"] = (
        _ratio(counts["executor.rows_out"], counts["engine.result_rows"]),
        "ratio",
    )
    metrics["executor.evaluate_rule_calls"] = (per_op(calls["executor.evaluate_rule"]), "1/op")
    metrics["executor.rows_out"] = (per_op(counts["executor.rows_out"]), "1/op")
    for metric in COUNTERS:
        metrics[metric] = (per_op(counters[metric]), "1/op")
    metrics["store.lookup_calls"] = (per_op(counts["store.lookup_calls"]), "1/op")
    metrics["store.rows_per_result"] = (
        _ratio(counts["store.rows_examined"], counts["engine.result_rows"]),
        "ratio",
    )
    metrics["ivm.prime_count"] = (per_op(calls["ivm.prime"]), "1/op")
    metrics["ivm.delta_amplification"] = (_ratio(counts["ivm.idb_rows"], counts["ivm.edb_rows"]), "ratio")
    metrics["reactive.notification_count"] = (per_op(counts["reactive.notification_count"]), "1/op")
    metrics["pool.queue_to_result_ms"] = (
        _ratio(counts["pool.queue_to_result_s"], counts["pool.requests"]) * 1e3,
        "ms",
    )
    metrics["pool.warm_rate"] = (_ratio(counts["session.warm_runs"], counts["session.runs"]), "ratio")
    for name, unit in SERVING_LAYERS:
        metrics[name] = (run.extra_layers.get(name, 0.0), unit)
    by_class = class_latencies(run, traced=False)
    for cls in CLASSES:
        metrics[f"{cls}_p50_ms"] = (p50(by_class[cls]) * 1e3 if by_class[cls] else 0.0, "ms")
    traced_ms = sum(op.latency for op in traced) * 1e3
    metrics["trace.untraced_ms"] = (per_op(self_time.get("op", 0.0)) * 1e3, "ms")
    metrics["trace.op_ms"] = (per_op(traced_ms), "ms")
    untraced_mean = _ratio(sum(op.latency for op in untraced), len(untraced))
    metrics["trace.overhead_pct"] = (
        (_ratio(traced_ms / 1e3, ops) / untraced_mean - 1.0) * 100 if untraced_mean else 0.0,
        "%",
    )
    return metrics


# -- environment -----------------------------------------------------------------


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def environment(root: Path, run: Run) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    op_counts: Dict[str, int] = {}
    for op in run.ops:
        op_counts[op.cls] = op_counts.get(op.cls, 0) + 1
    if run.notifications:
        op_counts["notify"] = len(run.notifications)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "workload": run.workload,
        "seed": run.seed,
        "dataset_scale": DATASET_SCALE,
        "dataset_seed": DATASET_SEED,
        "setups": len(run.setup_seconds),
        "op_counts": op_counts,
    }


def result_line(run: Run, metrics: Dict[str, tuple]) -> Dict[str, object]:
    return {
        "correct": run.mismatches == 0,
        "attempted": len(run.ops),
        "failed": sum(1 for op in run.ops if op.failure is not None),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def iterate_blocks(blocks: Blocks, seconds: float, rss_blocks: int) -> Iterator[bool]:
    """Yield the traced flag of each block until ``seconds`` have passed
    (a traced run always gets at least one traced block).

    Before a block, once :data:`perfbench.probe.INTERVAL_SECONDS` have
    passed since the last probe, time the probe; ``Run.elapsed`` leaves the
    probes out.  ``Run.peak_rss_mb`` is taken after ``rss_blocks`` blocks
    (or at the end of a shorter run): at a fixed amount of work, because
    the state ``mutate`` and ``serve`` build grows with every op, in steps
    where its tables resize, so a peak taken at the end would grow with the
    host's speed and with the program's.
    """
    run = blocks.run
    started = clock()
    probed_at = None
    probing = 0.0
    done = 0
    while clock() - started < seconds or not blocks.done_tracing():
        if done == rss_blocks:
            run.peak_rss_mb = peak_rss_mb()
        if probed_at is None or clock() - probed_at >= probe.INTERVAL_SECONDS:
            before = clock()
            run.probes.append((before, probe.probe()))
            probed_at = clock()
            probing += probed_at - before
        yield blocks.next_block()
        done += 1
    blocks.finish()
    run.elapsed = clock() - started - probing
    if done <= rss_blocks:
        run.peak_rss_mb = peak_rss_mb()
