"""serve: the wire protocol in front of a two-worker serving pool.

A :class:`~repro.serving.pool.ServingPool` with :data:`WORKERS` workers runs
behind :class:`~repro.serving.server.RaqletServer` on localhost, its event
loop on a thread of this process.  The load comes over two connections,
each a closed loop driven from one client event loop: both send sq1, cq2,
fof and reach ``run`` requests in blocks of 8:6:1:2 with Zipf bindings over
all 200 people (far more bindings than workers); connection A also holds
fof subscriptions on the people in :data:`perfbench.snb.SUBSCRIBED` and adds
six inserts and two retracts of KNOWS edges to each of its blocks; the two
connections meet at the end of every block.  The only workload that
exercises the protocol, affinity routing, coalescing, queue wait, the
shared EDB's epochs and the per-worker sync fold.  sp is left out: one sp
costs as much as a few hundred other requests and would hold a worker.

Insert and retract latencies are the mutate round trip on the wire; a
notification's latency runs from sending the mutation to receiving the
pushed frame.

Oracle: every response carries the epoch it was served at, so after the
timed loop the mutation stream is replayed through
:class:`perfbench.reference.Reference` and each read is compared with the
reference at its epoch, and each pushed frame with the reference's change
of that subscription since its previous frame.  The reference is checked
against the graph interpreter on the first and the last graph.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import statistics
import threading
from collections import defaultdict, deque

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
    more_setups,
    setup_done,
)
from perfbench.reference import Reference, cross_check
from perfbench.snb import KNOWS, STATEMENTS, SUBSCRIBED, Bindings, KnowsStream, dataset
from repro import Raqlet
from repro.ldbc import snb_schema_mapping
from repro.serving import RaqletServer, ServingPool

WORKERS = 2
#: sq1 is under half of all ops (16 of 42 a block) so that the all-ops p50
#: sits among the requests that waited for the other connection's, not on
#: the jump between those and the ones that did not wait (with sq1 the
#: majority, the p50 falls on that jump and moves by a fifth between runs)
MIX = {"sq1": 8, "cq2": 6, "fof": 1, "reach": 2}
#: blocks before peak_rss_mb is taken (about 8 s on the reference host)
RSS_BLOCKS = 16
#: how long the end of a run waits for the last pushed frames
DRAIN_SECONDS = 10.0


class _ServerThread:
    """A :class:`RaqletServer` on its own event loop and thread."""

    def __init__(self, pool: ServingPool) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="perfbench-server")
        self.thread.start()
        self.server = RaqletServer(pool)
        self.address = self._call(self.server.start())

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60)

    def stop(self) -> None:
        try:
            self._call(self.server.stop())
            self._call(self.loop.shutdown_default_executor())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()


class _Connection:
    """One client connection: requests in order, pushed frames on the side."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._waiting = deque()
        #: (receive time, frame) of every pushed notification
        self.frames = []
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                at = clock()
                message = json.loads(line)
                if "event" in message:
                    self.frames.append((at, message))
                else:
                    self._waiting.popleft().set_result(message)
        finally:
            while self._waiting:
                self._waiting.popleft().set_exception(ConnectionError("connection closed"))

    async def request(self, payload):
        future = asyncio.get_running_loop().create_future()
        self._waiting.append(future)
        self._writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise RuntimeError(f"{payload['op']} refused: {response.get('error')}")
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        await self._task


class _State:
    def __init__(self, data, raqlet, pool, server, a, b, sids, base_epoch) -> None:
        self.data = data
        self.raqlet = raqlet
        self.pool = pool
        self.server = server
        self.a = a
        self.b = b
        #: sid -> subscribed person
        self.sids = sids
        self.base_epoch = base_epoch

    async def close(self) -> None:
        try:
            for connection in (self.a, self.b):
                await connection.close()
        finally:
            try:
                self.server.stop()
            finally:
                self.pool.close()


def run(seed: int, seconds: float, tracer=None) -> Run:
    return asyncio.run(_run(seed, seconds, tracer))


async def _run(seed: int, seconds: float, tracer) -> Run:
    result = Run("serve", seed)

    async def setup() -> _State:
        data = dataset()
        raqlet = Raqlet(snb_schema_mapping())
        pool = ServingPool(raqlet, data.facts, workers=WORKERS, store="memory", executor="compiled")
        server = _ServerThread(pool)
        host, port = server.address
        connections = []
        for _ in range(2):
            reader, writer = await asyncio.open_connection(host, port)
            connections.append(_Connection(reader, writer))
        a, b = connections
        for name in MIX:
            await a.request({"op": "prepare", "name": name, "query": STATEMENTS[name]})
        sids = {}
        base_epoch = None
        for person in SUBSCRIBED:
            response = await a.request(
                {"op": "subscribe", "name": "fof", "params": {"personId": person}}
            )
            sids[response["sid"]] = person
            base_epoch = response["epoch"]
        return _State(data, raqlet, pool, server, a, b, sids, base_epoch)

    state = None
    while more_setups(result):
        if state is not None:
            await state.close()
        gc.collect()
        started = clock()
        state = await setup()
        setup_done(result, started)
    gc.collect()

    try:
        log = await _measure(result, state, seconds, tracer, seed)
    finally:
        await state.close()
    _check(result, state, *log)
    return result


async def _measure(result, state, seconds, tracer, seed):
    """Drive both connections; return the requests, the mutations by epoch
    and the final KNOWS rows."""
    max_date = state.data.median_message_date()
    rng_a, rng_b = random.Random(f"{seed}:a"), random.Random(f"{seed}:b")
    stream = KnowsStream(rng_a, Zipf(rng_a, DATASET_SCALE), state.data.facts[KNOWS])
    blocks = Blocks(result, tracer)
    requests = []
    row_sets = RowSets()
    #: epoch -> (mutation op, kind, row)
    mutations = {}
    before = state.pool.stats()

    async def client(connection, rng, bindings, mix) -> None:
        for kind in mix_block(rng, mix):
            if kind in MIX:
                params = bindings(kind)
                payload = {"op": "run", "name": kind, "params": params}
            else:
                params = stream.next(kind)
                payload = {"op": "mutate", kind: {KNOWS: [list(params)]}}
            start = clock()
            try:
                response, error = await connection.request(payload), None
            except (RuntimeError, ConnectionError) as exc:
                response, error = None, f"{kind}: {exc}"
            op = Op(kind, start, clock(), blocks.traced)
            result.ops.append(op)
            if response is not None and "rows" in response:
                response["rows"] = row_sets(response["rows"])
            requests.append((op, kind, params, response, error))
            if response is not None and kind not in MIX:
                mutations[response["epoch"]] = (op, kind, params)

    bindings_a, bindings_b = Bindings(rng_a, MIX, max_date), Bindings(rng_b, MIX, max_date)
    # Both connections run one block each, then meet, so every block is
    # wholly traced or wholly untraced.
    for _ in iterate_blocks(blocks, seconds, RSS_BLOCKS):
        await asyncio.gather(
            client(state.a, rng_a, bindings_a, {**MIX, **KnowsStream.MIX}),
            client(state.b, rng_b, bindings_b, MIX),
        )
    after = state.pool.stats()
    await _drain(state, mutations)

    coalesced = after["coalesced_count"] - before["coalesced_count"]
    executed = after["executed_count"] - before["executed_count"]
    shared = after["shared"]
    result.extra_layers.update(
        {
            "pool.coalesce_rate": coalesced / (coalesced + executed) if coalesced + executed else 0.0,
            "shared.chain_entries": shared["chain_entries"],
            "shared.fold_count": shared["fold_count"],
            "shared.write_count": shared["write_count"],
        }
    )
    if tracer is not None:
        counts = tracer.counts()
        round_trips = [op.latency for op, kind, *_ in requests if op.traced and kind in MIX]
        if round_trips and counts["pool.requests"]:
            pool_seconds = counts["pool.queue_to_result_s"] / counts["pool.requests"]
            result.extra_layers["server.wire_ms"] = (statistics.fmean(round_trips) - pool_seconds) * 1e3
    return requests, mutations, stream.rows()


async def _drain(state, mutations) -> None:
    """Wait until every subscription's frames reach the last epoch's result."""
    reference = Reference(state.data.facts)
    base = {sid: reference.rows("fof", {"personId": person}) for sid, person in state.sids.items()}
    for epoch in sorted(mutations):
        _apply(reference, mutations[epoch])
    expected = {sid: reference.rows("fof", {"personId": person}) for sid, person in state.sids.items()}
    deadline = clock() + DRAIN_SECONDS
    while clock() < deadline:
        seen = {sid: set(rows) for sid, rows in base.items()}
        for _, frame in state.a.frames:
            seen[frame["sid"]].difference_update(tuple(row) for row in frame["removed"])
            seen[frame["sid"]].update(tuple(row) for row in frame["added"])
        if all(seen[sid] == rows for sid, rows in expected.items()):
            return
        await asyncio.sleep(0.01)


def _apply(reference: Reference, mutation) -> None:
    _, kind, row = mutation
    if kind == "insert":
        reference.insert_knows(tuple(row))
    else:
        reference.retract_knows(tuple(row))


def _check(result: Run, state: _State, requests, mutations, final_rows) -> None:
    compiled = {name: state.raqlet.compile_cypher(STATEMENTS[name]) for name in MIX}
    person = SUBSCRIBED[0]
    cases = [("fof", {"personId": p}) for p in SUBSCRIBED]
    cases += [
        ("reach", {"personId": person}),
        ("cq2", {"personId": person, "maxDate": state.data.median_message_date()}),
    ]
    final = dict(state.data.facts)
    final[KNOWS] = final_rows
    problems = cross_check(state.raqlet, state.data.facts, compiled, cases)
    problems += cross_check(state.raqlet, final, compiled, cases)

    reads = defaultdict(list)
    for op, kind, params, response, error in requests:
        if problems:
            result.fail(op, problems[0])
        elif error is not None:
            result.fail(op, error, mismatch=False)
        elif kind in MIX:
            reads[response["epoch"]].append((op, kind, params, response))
        elif response["inserted" if kind == "insert" else "retracted"] != 1:
            result.fail(op, f"{kind} of {params} was not effective", mismatch=False)
    frames = defaultdict(list)
    for at, frame in state.a.frames:
        frames[frame["epoch"]].append((at, frame))
        mutation = mutations.get(frame["epoch"])
        if mutation is not None:
            result.notifications.append((at - mutation[0].start, mutation[0].traced))

    reference = Reference(state.data.facts)
    previous = {sid: reference.rows("fof", {"personId": person}) for sid, person in state.sids.items()}
    last = max([state.base_epoch, *mutations, *reads, *frames])
    for epoch in range(state.base_epoch, last + 1):
        mutation = mutations.get(epoch)
        if mutation is not None:
            _apply(reference, mutation)
        elif epoch != state.base_epoch:
            for op, *_ in reads.get(epoch, ()):
                result.fail(op, f"served at epoch {epoch}, which no mutation produced")
            continue
        cache = {}
        for op, kind, params, response in reads.get(epoch, ()):
            key = (kind, tuple(sorted(params.items())))
            if key not in cache:
                cache[key] = reference.rows(kind, params)
            if response["rows"] != cache[key]:
                result.fail(op, f"{kind}: rows differ from the reference at epoch {epoch}")
        for _, frame in frames.get(epoch, ()):
            sid = frame["sid"]
            now = reference.rows("fof", {"personId": state.sids[sid]})
            added = {tuple(row) for row in frame["added"]}
            removed = {tuple(row) for row in frame["removed"]}
            if (added, removed) != (now - previous[sid], previous[sid] - now):
                culprit = mutation[0] if mutation is not None else result.ops[0]
                result.fail(culprit, "pushed frame differs from the reference's change")
            previous[sid] = now
    for sid, person in state.sids.items():
        if previous[sid] != reference.rows("fof", {"personId": person}) and mutations:
            result.fail(mutations[max(mutations)][0], "a subscription missed its last change")
