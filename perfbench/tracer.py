"""Layer spans and counters, recorded from outside the library.

:class:`Tracer` wraps the public functions and methods at each layer
boundary (module attributes and class methods, patched in this process
only) and restores them on :meth:`Tracer.uninstall`.  Each wrapped call
records a span ``(id, name, start, end, parent, request)``; a layer's *self
time* is its span's duration minus the time its child spans cover, so the
self times of one op's spans add up to the op's wall time exactly, and the
op's own self time is the part no layer span covers (reported as
``trace.untraced_ms``).  Spans are kept per thread in memory and written out
by :meth:`Tracer.dump` when the run ends.

Counts are taken at the same boundaries: rule outputs, store probes, rows
examined, maintenance deltas, notifications.  Library counters that already
exist (plan builds, re-plans, closure compiles, index builds, maintenance and
fallback counts) are read off every engine, executor and store the run
created, as the difference between the start and the end of each traced
block.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from repro import pipeline
from repro.engines.datalog import ivm
from repro.engines.datalog.engine import DatalogEngine
from repro.engines.datalog.executor_compiled import CompiledExecutor
from repro.engines.datalog.planner import PlanCache
from repro.engines.datalog.storage import FactStore
from repro.engines.result import QueryResult
from repro.optimize import Pass, default_pipeline
from repro.reactive.subscriptions import SubscriptionManager
from repro.serving.pool import ServingPool
from repro.session import PreparedQuery, Session
import repro.frontend.sql as sql_frontend
import repro.sqir.to_dlir as sqir_to_dlir

_clock = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "name", "start", "request", "child", "parent")

    def __init__(self, span_id, name, start, request, parent) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.request = request
        self.parent = parent
        self.child = 0.0


class _ThreadState:
    """One thread's span stack, finished spans and aggregates."""

    def __init__(self, thread_name: str) -> None:
        self.thread = thread_name
        self.stack: List[_Frame] = []
        self.spans: List[tuple] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()


class _TracedPass(Pass):
    """An optimizer pass whose ``run`` is one ``optimize.<pass>`` span."""

    def __init__(self, tracer: "Tracer", inner: Pass) -> None:
        self._tracer = tracer
        self._inner = inner
        self.name = inner.name

    def run(self, program):
        frame = self._tracer.begin("optimize." + self.name)
        try:
            return self._inner.run(program)
        finally:
            self._tracer.end(frame)


#: library counters read off live objects: metric -> (kind, attribute names)
COUNTERS = {
    "engine.plan_build_count": ("engine", ("plan_build_count",)),
    "engine.replan_count": ("engine", ("replan_count",)),
    "engine.maintain_count": ("engine", ("maintain_count",)),
    "engine.full_rederive_count": ("engine", ("full_rederive_count",)),
    "executor.compile_count": ("executor", ("compile_count",)),
    # read off the executor, not the engine: engines share one executor
    "engine.executor_fallback_count": (
        "executor",
        ("fallback_count", "runtime_fallback_count"),
    ),
    "store.index_build_count": ("store", ("index_build_count",)),
}


class Tracer:
    """Span and counter recorder for one benchmark run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.installed = False
        #: engines, executors and stores created while registration is on
        self.objects: Dict[str, list] = {"engine": [], "executor": [], "store": []}
        self._registration: List[tuple] = []
        self._counter_base: Dict[str, float] = {}
        #: library-counter deltas accumulated over traced blocks
        self.counter_totals: Counter = Counter()

    # -- spans -----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def begin(self, name: str, new_request: bool = False) -> _Frame:
        stack = self._state().stack
        parent = stack[-1] if stack else None
        if parent is None or new_request:
            request = next(self._request_ids)
        else:
            request = parent.request
        frame = _Frame(
            next(self._span_ids),
            name,
            _clock(),
            request,
            parent.span_id if parent is not None else None,
        )
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        """Close ``frame``, the innermost open span of this thread."""
        end = _clock()
        state = self._state()
        state.stack.pop()
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child += duration
        state.self_time[frame.name] += duration - frame.child
        state.calls[frame.name] += 1
        state.spans.append(
            (frame.span_id, frame.name, frame.start, end, frame.parent, frame.request)
        )

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    # -- aggregates ------------------------------------------------------------

    def self_time(self) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        for state in list(self._states):
            for name, seconds in state.self_time.items():
                total[name] += seconds
        return total

    def calls(self) -> Counter:
        total: Counter = Counter()
        for state in list(self._states):
            total.update(state.calls)
        return total

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in list(self._states):
            total.update(state.counts)
        return total

    def spans(self) -> List[tuple]:
        return [span for state in list(self._states) for span in state.spans]

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for state in list(self._states):
                for span_id, name, start, end, parent, request in state.spans:
                    out.write(
                        json.dumps(
                            {
                                "id": span_id,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "request": request,
                                "thread": state.thread,
                            }
                        )
                        + "\n"
                    )

    # -- library counters --------------------------------------------------------

    def register_objects(self) -> None:
        """Remember every engine, executor and store built from now on."""
        for kind, cls in (
            ("engine", DatalogEngine),
            ("executor", CompiledExecutor),
            ("store", FactStore),
        ):
            original = cls.__dict__["__init__"]

            def init(obj, *args, _original=original, _kind=kind, **kwargs):
                _original(obj, *args, **kwargs)
                self.objects[_kind].append(obj)

            cls.__init__ = init
            self._registration.append((cls, original))

    def _counter_values(self) -> Dict[str, float]:
        values = {}
        for metric, (kind, attributes) in COUNTERS.items():
            values[metric] = sum(
                getattr(obj, attribute, 0)
                for obj in self.objects[kind]
                for attribute in attributes
            )
        return values

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary (the start of a traced block)."""
        if self.installed:
            return
        self._counter_base = self._counter_values()
        for owner, attribute, replacement in self._replacements():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, replacement(original))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every wrapped boundary (the end of a traced block)."""
        if not self.installed:
            return
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for metric, value in self._counter_values().items():
            self.counter_totals[metric] += value - self._counter_base.get(metric, 0)
        self.installed = False

    def close(self) -> None:
        self.uninstall()
        for cls, original in reversed(self._registration):
            cls.__init__ = original
        self._registration.clear()

    def _span(self, name: str, after: Optional[Callable] = None):
        """A replacement factory: the call becomes one ``name`` span."""
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                frame = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(frame)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return factory

    def _replacements(self):
        tracer = self
        count = self.count
        span = self._span

        def emitted(args, text):
            count("backends.emitted_bytes", len(text.encode("utf-8")))

        def optimize_factory(original):
            def optimize_program(program, mapping=None, passes=None, iterate=True):
                base = passes or default_pipeline(mapping)
                wrapped = [_TracedPass(tracer, inner) for inner in base]
                optimized, trace = original(program, mapping, wrapped, iterate)
                count("optimize.calls")
                count("optimize.iterations", len(trace.applications) / len(wrapped))
                count("optimize.rules_out", len(optimized.rules))
                for application in trace.applications:
                    if application.changed:
                        count(f"optimize.{application.pass_name}.changed")
                return optimized, trace

            return optimize_program

        def engine_run_factory(original):
            # The engine keeps no public per-derivation iteration total, so
            # this reads its private stratum list and iteration record.
            def run(engine):
                derived = not engine._evaluated
                frame = tracer.begin("engine.run")
                try:
                    result = original(engine)
                finally:
                    tracer.end(frame)
                if derived:
                    count("engine.derivations")
                    iterations = engine._iterations
                    count(
                        "engine.iterations",
                        sum(iterations.get(stratum[0], 0) for stratum in engine._strata or ()),
                    )
                return result

            return run

        def query_rows(args, result):
            count("engine.result_rows", len(result.rows))

        def maintained(args, report):
            _, added, removed = args[:3]
            edb = sum(len(rows) for rows in added.values()) + sum(
                len(rows) for rows in removed.values()
            )
            total = sum(len(rows) for rows in report.added.values()) + sum(
                len(rows) for rows in report.removed.values()
            )
            count("ivm.edb_rows", edb)
            count("ivm.idb_rows", total - edb)

        def rows_out(args, result):
            count("executor.rows_out", len(result))

        def flushed(args, delivered):
            count("reactive.notification_count", delivered)

        def lookup_factory(original):
            def lookup(store, name, positions, key):
                rows = original(store, name, positions, key)
                state = tracer._state()
                state.counts["store.lookup_calls"] += 1
                state.counts["store.rows_examined"] += len(rows)
                return rows

            return lookup

        def lookup_many_factory(original):
            def lookup_many(store, name, positions, keys):
                found = original(store, name, positions, keys)
                state = tracer._state()
                state.counts["store.lookup_calls"] += 1
                state.counts["store.rows_examined"] += sum(map(len, found.values()))
                return found

            return lookup_many

        def prepared_run_factory(original):
            def run(prepared, *args, **kwargs):
                resets = prepared.engine.reset_count
                result = original(prepared, *args, **kwargs)
                count("session.runs")
                if prepared.engine.reset_count == resets:
                    count("session.warm_runs")
                return result

            return run

        def submit_factory(original):
            def submit(pool, *args, **kwargs):
                started = _clock()
                future = original(pool, *args, **kwargs)

                def done(_future):
                    state = tracer._state()
                    state.counts["pool.requests"] += 1
                    state.counts["pool.queue_to_result_s"] += _clock() - started

                future.add_done_callback(done)
                return future

            return submit

        return [
            (pipeline, "parse_cypher", span("frontend.cypher.parse")),
            (pipeline, "lower_cypher_to_pgir", span("pgir.lower")),
            (pipeline, "translate_pgir_to_dlir", span("dlir.from_pgir")),
            (pipeline, "analyze_program", span("analysis.analyze")),
            (pipeline, "optimize_program", optimize_factory),
            (pipeline, "dlir_to_souffle", span("backends.souffle", emitted)),
            (pipeline, "translate_dlir_to_sqir", span("sqir.from_dlir")),
            (pipeline, "sqir_to_sql", span("backends.sql", emitted)),
            (pipeline, "parse_datalog", span("frontend.datalog.parse")),
            (sql_frontend, "parse_sql", span("frontend.sql.parse")),
            (sqir_to_dlir, "translate_sqir_to_dlir", span("sqir.to_dlir")),
            (DatalogEngine, "reset", span("engine.reset")),
            (DatalogEngine, "run", engine_run_factory),
            (DatalogEngine, "query", span("engine.query", query_rows)),
            (DatalogEngine, "maintain", span("engine.maintain", maintained)),
            (PlanCache, "plan_for", span("planner.plan_for")),
            (CompiledExecutor, "evaluate_rule", span("executor.evaluate_rule", rows_out)),
            (ivm.IncrementalMaintainer, "prime", span("ivm.prime")),
            (FactStore, "lookup", lookup_factory),
            (FactStore, "lookup_many", lookup_many_factory),
            (Session, "insert", span("session.insert")),
            (Session, "retract", span("session.retract")),
            (Session, "sync_external_mutations", span("session.sync_external")),
            (SubscriptionManager, "flush", span("reactive.flush", flushed)),
            (PreparedQuery, "run", prepared_run_factory),
            (QueryResult, "to_jsonable", span("result.encode")),
            (ServingPool, "submit", submit_factory),
        ]
