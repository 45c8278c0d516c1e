"""compile: the five LDBC Cypher queries through every compiler layer.

The only workload where the frontends, PGIR, DLIR, analysis, the optimizer,
the backends and SQIR do all the work and no engine runs, so an engine
change must predict "no change" here.  The corpus holds each query
late-bound (``$params`` kept) and with seeded bindings inlined
(:data:`INLINED`).  One op compiles an entry, emits Soufflé text (and SQL
where the analysis allows it) and compiles each emitted text again through
its own frontend.  A text the frontends cannot read back is a failed op:
today that is sp's Soufflé text (subsumption ``<=``) and the late-bound SQL
(``:name`` placeholders), 6 of the 13 entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench.harness import (
    DATASET_SCALE,
    Blocks,
    Op,
    Run,
    Zipf,
    clock,
    iterate_blocks,
    timed_setups,
)
from perfbench.snb import STATEMENTS, binding, dataset
from repro import Raqlet
from repro.common.errors import RaqletError
from repro.engines.graph import facts_to_property_graph
from repro.ldbc import snb_schema_mapping


#: inlined variants per query: cq2, fof and reach (about 12 ms an op) get
#: two so that the all-ops p50 falls inside their class rather than on its
#: boundary with the faster sq1 and sp (about 8 ms)
INLINED = {"sq1": 1, "cq2": 2, "fof": 2, "reach": 2, "sp": 1}
#: blocks before peak_rss_mb is taken (about 8 s on the reference host)
RSS_BLOCKS = 64


@dataclass
class Entry:
    statement: str
    text: str
    #: inlined compile-time parameters (None: late-bound)
    inlined: Optional[Dict[str, object]]
    #: the binding the set-up check runs the compiled query with
    check_binding: Dict[str, object]


def corpus(rng: random.Random, max_date: int) -> List[Entry]:
    zipf = Zipf(rng, DATASET_SCALE)
    entries = []
    for statement, text in STATEMENTS.items():
        entries.append(Entry(statement, text, None, binding(statement, zipf, max_date)))
        for _ in range(INLINED[statement]):
            inlined = binding(statement, zipf, max_date)
            entries.append(Entry(statement, text, inlined, inlined))
    return entries


def emit(compiled):
    souffle = compiled.datalog_text()
    sql = None if compiled.backend_problems("sql") else compiled.sql_text()
    return souffle, sql


def run(seed: int, seconds: float, tracer=None) -> Run:
    result = Run("compile", seed)
    rng = random.Random(seed)

    def setup():
        raqlet = Raqlet(snb_schema_mapping())
        data = dataset()
        return raqlet, data, corpus(random.Random(seed), data.median_message_date())

    raqlet, data, entries = timed_setups(result, setup, lambda state: None)

    # Oracle, untimed: each entry's emitted text (every op must reproduce it
    # byte for byte) and its Datalog-engine result against the graph
    # interpreter's.
    graph = facts_to_property_graph(data.facts, raqlet.mapping)
    expected = []
    wrong: Dict[int, str] = {}
    for index, entry in enumerate(entries):
        compiled = raqlet.compile_cypher(entry.text, entry.inlined)
        expected.append(emit(compiled))
        rows = raqlet.run_on_datalog_engine(
            compiled,
            data.facts,
            store="memory",
            executor="compiled",
            parameters=None if entry.inlined else entry.check_binding,
        ).row_set()
        if rows != raqlet.run_on_graph_engine(compiled, graph, entry.check_binding).row_set():
            wrong[index] = f"{entry.statement}: Datalog engine disagrees with the graph interpreter"

    blocks = Blocks(result, tracer)
    for traced in iterate_blocks(blocks, seconds, RSS_BLOCKS):
        order = list(range(len(entries)))
        rng.shuffle(order)
        for index in order:
            entry = entries[index]
            refusals = []
            error = None
            texts = None
            start = clock()
            frame = tracer.begin("op", new_request=True) if traced else None
            try:
                compiled = raqlet.compile_cypher(entry.text, entry.inlined)
                texts = emit(compiled)
                try:
                    raqlet.compile_datalog(texts[0])
                except RaqletError as exc:
                    refusals.append(f"Soufflé text does not re-parse: {exc}")
                if texts[1] is not None:
                    try:
                        raqlet.compile_sql(texts[1])
                    except RaqletError as exc:
                        refusals.append(f"SQL text does not re-parse: {exc}")
            except Exception as exc:  # any error is a failed op, never a crash
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if frame is not None:
                    tracer.end(frame)
            op = Op(entry.statement, start, clock(), traced)
            result.ops.append(op)
            if traced and refusals:
                tracer.count("frontend.reparse_failures", len(refusals))
            if error is not None:
                result.fail(op, error, mismatch=False)
            elif texts != expected[index]:
                result.fail(op, f"{entry.statement}: emitted text differs from the first compile")
            elif index in wrong:
                result.fail(op, wrong[index])
            elif refusals:
                result.fail(op, f"{entry.statement}: " + "; ".join(refusals), mismatch=False)
    return result
