"""Tests for the one EDB change log: the store's ``data_version`` /
``changes_since`` pair, read through shared-EDB snapshots and by sessions.

Two layers: a hypothesis property over :class:`SharedEDB` +
:class:`SnapshotView` on both base backends (every delta a view answers is
exact, and snapshot versions are monotone and unchanged by folding), and a
session-level regression proving an idle prepared query pins no
per-mutation state — the store log stays bounded and the idle query
resyncs once, counted, when it runs again.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Raqlet
from repro.engines.datalog.storage import FactStore, RelationChangeLog
from repro.engines.datalog.storage_shared import SharedEDB, SnapshotView
from repro.engines.datalog.storage_sqlite import SQLiteFactStore

BASES = [
    pytest.param(lambda: FactStore(), id="memory"),
    pytest.param(lambda: SQLiteFactStore(), id="sqlite"),
]

RELATIONS = ("r", "s")

# -- snapshot deltas property -------------------------------------------------

_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2)),
    max_size=3,
)
_batch = st.fixed_dictionaries({name: _rows for name in RELATIONS})

_apply = st.tuples(st.just("apply"), _batch, _batch)
_pin = st.tuples(st.just("pin"))
# applies and pins weighted up, so chain tails spanning several held pins
# (the path where a version falls inside the unfolded chain) are common
_ops = st.lists(
    st.one_of(
        _apply,
        _apply,
        _apply,
        _pin,
        _pin,
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("fold")),
    ),
    min_size=8,
    max_size=30,
)


@pytest.mark.parametrize("make_base", BASES)
@given(operations=_ops)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_snapshot_changes_since_is_exact(make_base, operations):
    """For any recorded ``(version, state)`` and any later pin, a view's
    ``changes_since`` is ``None`` or exactly the set difference of the two
    states — and never ``None`` within the log's retention; versions are
    monotone in the epoch and a fold never moves them."""
    shared = SharedEDB(make_base())
    views = []  # held SnapshotViews, each pinned at its own epoch
    try:
        oracle = {name: set() for name in RELATIONS}
        history = {0: {name: frozenset() for name in RELATIONS}}
        # relation -> [(version, rows)] recorded at pins
        seen = {name: [] for name in RELATIONS}
        # epoch -> relation -> version (fold invariance across re-pins)
        versions = {}

        def check_views():
            for view in views:
                epoch = view.pinned_epoch
                for name in RELATIONS:
                    now = history[epoch][name]
                    current = view.data_version(name)
                    for version, then in seen[name]:
                        changes = view.changes_since(name, version)
                        if version <= current:
                            assert changes is not None
                        if changes is not None:
                            added, removed = changes
                            assert set(added) == now - then
                            assert set(removed) == then - now
                            assert len(added) + len(removed) == len(now ^ then)

        for operation in operations:
            kind = operation[0]
            if kind == "apply":
                _, inserts, retracts = operation
                shared.apply(inserts, retracts)
                for name in RELATIONS:
                    oracle[name].update(inserts[name])
                    oracle[name].difference_update(retracts[name])
            elif kind == "pin":
                view = SnapshotView(shared)
                epoch = view.begin_read()
                views.append(view)
                pinned = versions.setdefault(epoch, {})
                for name in RELATIONS:
                    version = view.data_version(name)
                    assert pinned.setdefault(name, version) == version
                    seen[name].append((version, history[epoch][name]))
            elif kind == "release" and views:
                views.pop(operation[1] % len(views)).close()
            elif kind == "fold":
                shared.compact()
            history[shared.epoch] = {
                name: frozenset(rows) for name, rows in oracle.items()
            }
            check_views()

        ordered = sorted(versions.items())
        for name in RELATIONS:
            series = [by_name[name] for _, by_name in ordered]
            assert series == sorted(series)
    finally:
        for view in views:
            view.close()
        shared.close()


def test_snapshot_deltas_stay_exact_under_a_concurrent_writer():
    """Readers pin, remember ``(version, rows)``, re-pin and diff while a
    writer commits and folds: every non-``None`` delta equals the set
    difference of the two pinned scans."""
    shared = SharedEDB()
    errors = []
    done = threading.Event()

    def writer():
        present = set()
        try:
            for step in range(600):
                row = (step % 37,)
                if row in present:
                    shared.retract("r", [row])
                    present.discard(row)
                else:
                    shared.insert("r", [row])
                    present.add(row)
        except Exception as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            snap = shared.pin()
            version, rows = snap.data_version("r"), set(snap.scan("r"))
            snap.release()
            while not done.is_set():
                held = shared.pin()
                now = set(held.scan("r"))
                changes = held.changes_since("r", version)
                if changes is not None:
                    assert set(changes[0]) == now - rows
                    assert set(changes[1]) == rows - now
                version, rows = held.data_version("r"), now
                held.release()
        except Exception as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        shared.close()
    assert not errors, errors[0]


# -- RelationChangeLog: retention across trims and compactions ---------------


def test_change_log_retention_is_exact_across_compactions():
    """Many times the bound in single-row and batched versions: the log
    answers exactly down to its floor, declines below it, and never
    retains more than ``LIMIT`` live entries."""
    limit = RelationChangeLog.LIMIT
    log = RelationChangeLog()
    rows_at = {}  # version -> rows recorded at it
    version = 0
    while version < 5 * limit:
        version += 1
        if version % 7 == 0:
            rows = [(version, part) for part in range(3)]
            log.record_many("r", version, rows, 1)
        else:
            rows = [(version, 0)]
            log.record("r", version, rows[0], 1)
        rows_at[version] = rows
        live = len(log._entries["r"]) - log._start["r"]
        assert live <= limit
        floor = log._floor["r"]
        if floor:
            assert log.changes_since("r", floor - 1) is None
        checked = [max(floor, version - 5)]
        if version % 61 == 0:
            checked.append(floor)  # the whole retained window, periodically
        for since in checked:
            expected = [row for v in range(since + 1, version + 1) for row in rows_at[v]]
            assert log.changes_since("r", since) == (expected, [])


@pytest.mark.parametrize("make_base", BASES)
def test_transient_round_trip_spends_no_log_entries(make_base):
    """A transient add taken back out (the IVM union state) spends no log
    entries and leaves every earlier version answerable; while the row is
    in, the relation reports no version and no delta."""
    store = make_base()
    try:
        store.add("r", (1, 1))
        version = store.data_version("r")
        assert store.transient_add("r", (2, 2))
        assert not store.transient_add("r", (1, 1))  # already present
        assert store.contains("r", (2, 2))
        assert store.data_version("r") is None
        assert store.changes_since("r", version) is None
        assert store.remove("r", (2, 2))  # ends the round trip
        later = store.data_version("r")
        assert later >= version
        assert store.changes_since("r", version) == ([], [])
        assert store.changes_since("r", 0) == ([(1, 1)], [])
        assert set(store.scan("r")) == {(1, 1)}
        # changes after the round trip are logged as usual
        assert store.remove("r", (1, 1))
        assert store.changes_since("r", later) == ([], [(1, 1)])
        assert len(store._changelog._entries["r"]) == 2
    finally:
        store.close()


# -- sessions keep no per-mutation state --------------------------------------

SCHEMA = """
CREATE GRAPH {
  (personType : Person { id INT, firstName STRING }),
  (:personType)-[knowsType : knows { id INT }]->(:personType)
}
"""

FRIENDS_QUERY = """
MATCH (n:Person {id: $personId})-[:KNOWS]->(f:Person)
RETURN DISTINCT f.id AS friendId
"""

PEOPLE = [(person, f"p{person}") for person in range(60)]


def _container_sizes(obj):
    return {
        name: len(value)
        for name, value in vars(obj).items()
        if isinstance(value, (list, dict, set, frozenset))
    }


def test_idle_prepared_query_pins_no_per_mutation_state():
    raqlet = Raqlet(SCHEMA)
    knows = "Person_KNOWS_Person"
    facts = {"Person": PEOPLE, knows: [(0, 1, 0)]}
    session = raqlet.session(facts)
    try:
        idle = session.prepare(FRIENDS_QUERY)
        idle.run(personId=0)
        engine = idle.engine
        maintains, resets = engine.maintain_count, engine.reset_count
        session_sizes = _container_sizes(session)
        query_sizes = _container_sizes(idle)

        edges = [(0, 1, 0)]
        for serial in range(1, 3001):
            edge = (serial % 60, (serial * 7 + 1) % 60, serial)
            assert session.insert(knows, [edge]) == 1
            edges.append(edge)

        # nothing per mutation on the session or the idle query
        assert _container_sizes(session) == session_sizes
        assert _container_sizes(idle) == query_sizes
        # the store log keeps its bound
        changelog = session.store._changelog
        live = len(changelog._entries[knows]) - changelog._start[knows]
        assert live <= RelationChangeLog.LIMIT
        assert len(changelog._entries[knows]) <= 2 * RelationChangeLog.LIMIT

        # the idle query lags past the log's floor: one counted resync
        rows = idle.run(personId=0).row_set()
        oracle = {(dst,) for src, dst, _ in edges if src == 0}
        assert rows == oracle
        assert engine.reset_count == resets + 1
        assert engine.maintain_count == maintains
        # and it maintains incrementally again from there
        session.insert(knows, [(0, 59, 9999)])
        assert idle.run(personId=0).row_set() == oracle | {(59,)}
        assert engine.maintain_count == maintains + 1
    finally:
        session.close()


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_standing_queries_maintain_a_large_retract_without_resync(store):
    """Many standing queries on one session store all maintain a multi-row
    retract incrementally: the union-state re-adds of each maintenance pass
    stay out of the change log, so no query is pushed past its floor."""
    raqlet = Raqlet(SCHEMA)
    knows = "Person_KNOWS_Person"
    edges = [
        (src, dst, src * 100 + dst)
        for src in range(60)
        for dst in range(60)
        if (src * 7 + dst) % 5 == 0
    ]
    session = raqlet.session({"Person": PEOPLE, knows: edges}, store=store)
    try:
        people = range(24)
        deliveries = {pid: [] for pid in people}
        for pid in people:
            session.subscribe(
                FRIENDS_QUERY, deliveries[pid].append, personId=pid
            )
        engines = [prepared.engine for prepared in session._all_prepared]
        before = [(engine.maintain_count, engine.reset_count) for engine in engines]
        retracted = edges[::3][:100]
        # 100 rows, 24 maintaining queries: two logged entries per row and
        # query would be far past RelationChangeLog.LIMIT
        assert len(retracted) * (2 * len(people) - 1) > RelationChangeLog.LIMIT
        assert session.retract(knows, retracted) == len(retracted)

        assert sum(engine.full_rederive_count for engine in engines) == 0
        after = [(engine.maintain_count, engine.reset_count) for engine in engines]
        assert [resets for _, resets in after] == [resets for _, resets in before]
        # every standing query maintained once (the unrun template did not)
        maintained = [now - then for (now, _), (then, _) in zip(after, before)]
        assert sorted(maintained) == [0] + [1] * len(people)
        gone = set(retracted)
        remaining = [edge for edge in edges if edge not in gone]
        for pid in people:
            old = {(dst,) for src, dst, _ in edges if src == pid}
            new = {(dst,) for src, dst, _ in remaining if src == pid}
            added = {row for delta in deliveries[pid] for row in delta.added}
            removed = {row for delta in deliveries[pid] for row in delta.removed}
            assert added == set()
            assert removed == old - new
    finally:
        session.close()
