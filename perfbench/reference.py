"""An independent model of the SNB graph and the five benchmark statements.

The oracle for every op must not share code with what it checks, so
:class:`Reference` uses nothing from ``repro``: it answers sq1, cq2, fof,
reach and sp with plain dictionaries and breadth-first search over the raw
fact tuples, and applies ``Person_KNOWS_Person`` inserts and retracts in
place.

The Cypher semantics it mirrors (checked against the graph interpreter by
:func:`cross_check` at set-up and at the end of the mutating workloads):

* ``reach`` is every person at the end of a ``KNOWS`` walk of length >= 1 in
  either direction, so the start person is included whenever it has a friend;
* ``fof`` is every person one or two hops away, minus the start person;
* ``sp`` is the length of the shortest such walk between two distinct people.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

Row = Tuple
KNOWS = "Person_KNOWS_Person"


class Reference:
    """The SNB facts the statements read, kept as adjacency and lookup maps."""

    def __init__(self, facts: Mapping[str, Iterable[Row]]) -> None:
        self.persons: Dict[int, Row] = {row[0]: row for row in facts["Person"]}
        self.city_of: Dict[int, int] = {
            row[0]: row[1] for row in facts["Person_IS_LOCATED_IN_City"]
        }
        messages = {row[0]: row for row in facts["Message"]}
        self.messages_by: Dict[int, List[Row]] = defaultdict(list)
        for message_id, creator, _ in facts["Message_HAS_CREATOR_Person"]:
            self.messages_by[creator].append(messages[message_id])
        # Multiplicity per unordered pair: two KNOWS rows may join the same
        # people, and retracting one of them must keep the friendship.
        self.pairs: Dict[Tuple[int, int], int] = defaultdict(int)
        self.adjacent: Dict[int, Set[int]] = defaultdict(set)
        for row in facts[KNOWS]:
            self.insert_knows(row)

    # -- mutation ------------------------------------------------------------

    def insert_knows(self, row: Row) -> None:
        a, b = row[0], row[1]
        key = (min(a, b), max(a, b))
        self.pairs[key] += 1
        self.adjacent[a].add(b)
        self.adjacent[b].add(a)

    def retract_knows(self, row: Row) -> None:
        a, b = row[0], row[1]
        key = (min(a, b), max(a, b))
        self.pairs[key] -= 1
        if self.pairs[key] == 0:
            del self.pairs[key]
            self.adjacent[a].discard(b)
            self.adjacent[b].discard(a)

    # -- statements ----------------------------------------------------------

    def rows(self, statement: str, binding: Mapping[str, object]) -> FrozenSet[Row]:
        """Return the result rows of ``statement`` under ``binding``."""
        return getattr(self, "_" + statement)(**binding)

    def _sq1(self, personId: int) -> FrozenSet[Row]:
        p = self.persons.get(personId)
        if p is None or personId not in self.city_of:
            return frozenset()
        # firstName, lastName, birthday, locationIP, browserUsed, cityId,
        # gender, creationDate
        return frozenset(
            [(p[1], p[2], p[4], p[6], p[7], self.city_of[personId], p[3], p[5])]
        )

    def _cq2(self, personId: int, maxDate: int) -> FrozenSet[Row]:
        if personId not in self.persons:
            return frozenset()
        rows = set()
        for friend in self.adjacent.get(personId, ()):
            f = self.persons[friend]
            for message in self.messages_by.get(friend, ()):
                if message[2] <= maxDate:
                    rows.add((friend, f[1], f[2], message[0], message[1], message[2]))
        return frozenset(rows)

    def _fof(self, personId: int) -> FrozenSet[Row]:
        if personId not in self.persons:
            return frozenset()
        near = set(self.adjacent.get(personId, ()))
        for friend in list(near):
            near.update(self.adjacent.get(friend, ()))
        near.discard(personId)
        return frozenset((person, self.persons[person][1]) for person in near)

    def _reach(self, personId: int) -> FrozenSet[Row]:
        if personId not in self.persons:
            return frozenset()
        return frozenset((person,) for person in self.distances(personId))

    def _sp(self, person1Id: int, person2Id: int) -> FrozenSet[Row]:
        if person1Id not in self.persons or person2Id not in self.persons:
            return frozenset()
        distance = self.distances(person1Id).get(person2Id)
        return frozenset() if distance is None else frozenset([(distance,)])

    def distances(self, start: int) -> Dict[int, int]:
        """Shortest walk length >= 1 from ``start`` to every reachable person."""
        found: Dict[int, int] = {}
        frontier = deque((person, 1) for person in self.adjacent.get(start, ()))
        while frontier:
            person, depth = frontier.popleft()
            if person in found:
                continue
            found[person] = depth
            for nxt in self.adjacent.get(person, ()):
                if nxt not in found:
                    frontier.append((nxt, depth + 1))
        return found


def cross_check(raqlet, facts, compiled: Mapping[str, object], cases) -> List[str]:
    """Compare the reference with the graph interpreter on ``cases``.

    ``cases`` is a sequence of ``(statement, binding)``; ``compiled`` maps a
    statement name to its compiled query.  Returns one message per
    disagreement (empty when the two agree everywhere).
    """
    from repro.engines.graph import facts_to_property_graph

    reference = Reference(facts)
    graph = facts_to_property_graph(facts, raqlet.mapping)
    problems = []
    for statement, binding in cases:
        expected = raqlet.run_on_graph_engine(compiled[statement], graph, binding)
        if expected.row_set() != reference.rows(statement, binding):
            problems.append(
                f"reference disagrees with the graph interpreter on "
                f"{statement} {dict(binding)}"
            )
    return problems
