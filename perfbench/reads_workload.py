"""reads: interactive-style reads on one session, with no mutation.

One :class:`~repro.session.Session` (memory store, compiled executor, IVM on)
holds the five statements prepared late-bound.  A single closed-loop client
replays a seeded sequence in blocks of exactly 20 sq1, 6 cq2, 3 fof, 2 reach
and 1 sp (LDBC SNB Interactive: frequent short reads, rare complex ones),
with Zipf-skewed person bindings, so a few requests repeat the previous
binding and stay warm while most re-bind.  Planning, rule execution,
fixpoint iteration, store lookups, IVM priming and result materialisation do
the work; nothing compiles and nothing is maintained.  With this mix the
all-ops p50 falls inside sq1 and the p90 about a quarter of the way into
fof: away from any class boundary, and below the middle of fof, where
bursts of host contention split its latencies into a fast and a slow mode.

Oracle: the graph interpreter (``Raqlet.run_on_graph_engine``) on the same
facts, once per distinct binding, after the timed loop.
"""

from __future__ import annotations

import random

from perfbench.harness import (
    Blocks,
    Op,
    Run,
    clock,
    iterate_blocks,
    mix_block,
    timed_setups,
)
from perfbench.snb import STATEMENTS, Bindings, dataset
from repro import Raqlet
from repro.engines.graph import facts_to_property_graph
from repro.ldbc import snb_schema_mapping

MIX = {"sq1": 20, "cq2": 6, "fof": 3, "reach": 2, "sp": 1}
#: blocks before peak_rss_mb is taken (about 8 s on the reference host)
RSS_BLOCKS = 8


def run(seed: int, seconds: float, tracer=None) -> Run:
    result = Run("reads", seed)
    rng = random.Random(seed)

    def setup():
        data = dataset()
        raqlet = Raqlet(snb_schema_mapping())
        session = raqlet.session(data.facts, store="memory", executor="compiled")
        prepared = {name: session.prepare(text) for name, text in STATEMENTS.items()}
        return data, raqlet, session, prepared

    def teardown(state):
        state[2].close()

    data, raqlet, session, prepared = timed_setups(result, setup, teardown)
    bindings = Bindings(rng, MIX, data.median_message_date())
    requests = []
    blocks = Blocks(result, tracer)
    try:
        for traced in iterate_blocks(blocks, seconds, RSS_BLOCKS):
            for statement in mix_block(rng, MIX):
                params = bindings(statement)
                rows = error = None
                start = clock()
                frame = tracer.begin("op", new_request=True) if traced else None
                try:
                    rows = prepared[statement].run(params).rows
                except Exception as exc:  # any error is a failed op, never a crash
                    error = f"{statement}: {type(exc).__name__}: {exc}"
                finally:
                    if frame is not None:
                        tracer.end(frame)
                op = Op(statement, start, clock(), traced)
                result.ops.append(op)
                requests.append((op, statement, params, rows, error))
    finally:
        session.close()

    graph = facts_to_property_graph(data.facts, raqlet.mapping)
    expected = {}
    for op, statement, params, rows, error in requests:
        if error is not None:
            result.fail(op, error, mismatch=False)
            continue
        key = (statement, tuple(sorted(params.items())))
        if key not in expected:
            expected[key] = raqlet.run_on_graph_engine(
                prepared[statement].compiled, graph, params
            ).row_set()
        if frozenset(rows) != expected[key]:
            result.fail(op, f"{statement}: rows differ from the graph interpreter")
    return result
