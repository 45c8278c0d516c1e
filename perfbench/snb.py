"""The five LDBC statements, their bindings and the KNOWS mutation stream."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from perfbench.harness import DATASET_SCALE, DATASET_SEED, Zipf
from repro.ldbc import generate_snb_dataset
from repro.ldbc import queries

STATEMENTS: Dict[str, str] = {
    "sq1": queries.SHORT_QUERY_1,
    "cq2": queries.COMPLEX_QUERY_2,
    "fof": queries.FRIENDS_OF_FRIENDS,
    "reach": queries.FRIEND_REACHABILITY,
    "sp": queries.SHORTEST_PATH_QUERY,
}

KNOWS = "Person_KNOWS_Person"

#: people with standing fof subscriptions in mutate and serve (hub to tail;
#: fixed, so that seeds vary the mutation stream and not whom it affects)
SUBSCRIBED = (1, 5, 20, 80)


def dataset():
    return generate_snb_dataset(scale_persons=DATASET_SCALE, seed=DATASET_SEED)


def binding(statement: str, zipf: Zipf, max_date: int) -> Dict[str, object]:
    """A Zipf-skewed binding for ``statement``; cq2 keeps one date so that a
    repeated person is a repeated binding."""
    if statement == "sp":
        first = zipf.draw()
        return {"person1Id": first, "person2Id": zipf.draw_other(first)}
    if statement == "cq2":
        return {"personId": zipf.draw(), "maxDate": max_date}
    return {"personId": zipf.draw()}


class Bindings:
    """One stratified Zipf stream per statement, so each statement's own
    bindings cover the skew evenly in every run."""

    def __init__(self, rng: random.Random, mix: Dict[str, int], max_date: int) -> None:
        self._max_date = max_date
        self._zipf = {
            statement: Zipf(rng, DATASET_SCALE, cycle=16 if weight < 4 else 64)
            for statement, weight in mix.items()
        }

    def __call__(self, statement: str) -> Dict[str, object]:
        return binding(statement, self._zipf[statement], self._max_date)


class KnowsStream:
    """Seeded single-edge inserts (new friendships) and retracts (of any
    present edge, original or inserted) over the current KNOWS rows."""

    #: one mix block: three inserts to one retract
    MIX = {"insert": 6, "retract": 2}

    def __init__(self, rng: random.Random, zipf: Zipf, rows: List[Tuple]) -> None:
        self._rng = rng
        self._zipf = zipf
        self._rows = list(rows)
        self._pairs = {(min(r[0], r[1]), max(r[0], r[1])) for r in rows}
        self._serial = 0

    def next(self, kind: str) -> Tuple:
        if kind == "retract":
            index = self._rng.randrange(len(self._rows))
            row = self._rows[index]
            self._rows[index] = self._rows[-1]
            self._rows.pop()
            # the generator and this stream keep one row per pair of people
            self._pairs.discard((min(row[0], row[1]), max(row[0], row[1])))
            return row
        while True:
            a = self._zipf.draw()
            b = self._rng.randrange(1, DATASET_SCALE + 1)
            pair = (min(a, b), max(a, b))
            if a != b and pair not in self._pairs:
                break
        self._serial += 1
        self._pairs.add(pair)
        row = (pair[0], pair[1], 90_000_000 + self._serial, 1_400_000_000_000 + self._serial)
        self._rows.append(row)
        return row

    def rows(self) -> List[Tuple]:
        return list(self._rows)
