"""mutate: single-edge KNOWS inserts and retracts with reads after each write.

One session holds reach and fof prepared at fixed bindings, plus standing fof
subscriptions on the people in :data:`perfbench.snb.SUBSCRIBED` (reach is
not subscribed: it covers the connected graph and would never notify).
A single closed-loop client replays a seeded stream, in blocks of six
inserts of new friendships and two retracts of present ones (3:1), and
follows every mutation with a read of both statements.  Counting sidecars,
DRed, maintenance reports and subscription flushes do the work, while
planning and execution do little: writes beside the engine ``reads`` uses.

An op is the mutation plus both reads; a notification's latency runs from
the start of the mutation to the callback.

Oracle: the stream replayed through :class:`perfbench.reference.Reference`
after the timed loop, which gives the expected rows of both reads after each
step and the expected delta of every subscription (a step that leaves a
subscribed result unchanged must not notify).  The reference itself is
checked against the graph interpreter on the first and the last graph.
"""

from __future__ import annotations

import random
from collections import defaultdict

from perfbench.harness import (
    DATASET_SCALE,
    Blocks,
    Op,
    RowSets,
    Run,
    Zipf,
    clock,
    iterate_blocks,
    mix_block,
    timed_setups,
)
from perfbench.reference import Reference, cross_check
from perfbench.snb import KNOWS, STATEMENTS, SUBSCRIBED, KnowsStream, dataset
from repro import Raqlet
from repro.ldbc import snb_schema_mapping

#: the fixed bindings of the reads after each mutation
REACH_PERSON = 10
FOF_PERSON = 3
#: blocks before peak_rss_mb is taken (192 mutations, about 8 s on the
#: reference host)
RSS_BLOCKS = 24


def run(seed: int, seconds: float, tracer=None) -> Run:
    result = Run("mutate", seed)
    rng = random.Random(seed)
    #: index of the step in flight (callbacks fire inside the mutation)
    current = [None]
    notes = []

    def setup():
        data = dataset()
        raqlet = Raqlet(snb_schema_mapping())
        session = raqlet.session(data.facts, store="memory", executor="compiled")
        reach = session.prepare(STATEMENTS["reach"])
        fof = session.prepare(STATEMENTS["fof"])
        reach.run(personId=REACH_PERSON)
        fof.run(personId=FOF_PERSON)
        for person in SUBSCRIBED:

            def delivered(delta, person=person):
                notes.append((person, current[0], clock(), delta))

            session.subscribe(STATEMENTS["fof"], delivered, personId=person)
        return data, raqlet, session, reach, fof

    def teardown(state):
        state[2].close()

    data, raqlet, session, reach, fof = timed_setups(result, setup, teardown)
    stream = KnowsStream(rng, Zipf(rng, DATASET_SCALE), data.facts[KNOWS])
    steps = []
    row_sets = RowSets()
    blocks = Blocks(result, tracer)
    try:
        for traced in iterate_blocks(blocks, seconds, RSS_BLOCKS):
            for kind in mix_block(rng, KnowsStream.MIX):
                row = stream.next(kind)
                mutate = session.insert if kind == "insert" else session.retract
                reach_rows = fof_rows = error = None
                start = clock()
                current[0] = len(steps)
                frame = tracer.begin("op", new_request=True) if traced else None
                try:
                    if mutate(KNOWS, [row]) != 1:
                        error = f"{kind} of {row} was not effective"
                    reach_rows = reach.run(personId=REACH_PERSON).rows
                    fof_rows = fof.run(personId=FOF_PERSON).rows
                except Exception as exc:  # any error is a failed op, never a crash
                    error = f"{kind}: {type(exc).__name__}: {exc}"
                finally:
                    if frame is not None:
                        tracer.end(frame)
                op = Op(kind, start, clock(), traced)
                result.ops.append(op)
                steps.append((op, kind, row, row_sets(reach_rows), row_sets(fof_rows), error))
    finally:
        session.close()

    by_step = defaultdict(list)
    for person, index, at, delta in notes:
        if index is None:
            continue
        op = steps[index][0]
        result.notifications.append((at - op.start, op.traced))
        by_step[index].append((person, delta))

    compiled = {"reach": reach.compiled, "fof": fof.compiled}
    cases = [("reach", {"personId": REACH_PERSON}), ("fof", {"personId": FOF_PERSON})]
    cases += [("fof", {"personId": person}) for person in SUBSCRIBED]
    final = dict(data.facts)
    final[KNOWS] = stream.rows()
    problems = cross_check(raqlet, data.facts, compiled, cases)
    problems += cross_check(raqlet, final, compiled, cases)

    reference = Reference(data.facts)
    before = {person: reference.rows("fof", {"personId": person}) for person in SUBSCRIBED}
    for index, (op, kind, row, reach_rows, fof_rows, error) in enumerate(steps):
        if kind == "insert":
            reference.insert_knows(row)
        else:
            reference.retract_knows(row)
        if problems:
            result.fail(op, problems[0])
            continue
        if error is not None:
            result.fail(op, error, mismatch=False)
            continue
        if reach_rows != reference.rows("reach", {"personId": REACH_PERSON}):
            result.fail(op, "reach: rows differ from the reference after the mutation")
        if fof_rows != reference.rows("fof", {"personId": FOF_PERSON}):
            result.fail(op, "fof: rows differ from the reference after the mutation")
        delivered = defaultdict(list)
        for person, delta in by_step[index]:
            delivered[person].append(delta)
        for person in SUBSCRIBED:
            after = reference.rows("fof", {"personId": person})
            added, removed = after - before[person], before[person] - after
            before[person] = after
            deltas = delivered[person]
            if not added and not removed:
                if deltas:
                    result.fail(op, "notification for an unchanged subscribed result")
            elif len(deltas) != 1 or (
                set(deltas[0].added), set(deltas[0].removed)
            ) != (added, removed):
                result.fail(op, "subscription delta differs from the reference")
    return result
