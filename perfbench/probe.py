"""A fixed pure-Python probe of the host's speed, and the scale it gives.

The reference host is a shared 2-vCPU VM whose speed moves by up to 2x in
bursts of seconds and drifts by 20-30% over minutes, in CPU time as well as
wall time, and it has no hardware counters to count instructions instead.
No choice of window or quantile within a run removes a drift that outlasts
the run, so each run times this probe between its mix blocks
(:func:`perfbench.harness.iterate_blocks`) and scales the times it reports
to the speed of a host that runs the probe in :data:`REFERENCE_SECONDS`
(:class:`HostScale`): an op's latency by the probes timed around it, so
that percentiles follow the bursts, each set-up by the probe timed right
after it, and the run's totals (throughput, per-layer times) by the mean of
the loop's probes.  The probe imports nothing from ``repro``, so no change to
the library moves it; what it does resembles the library's own work (small
tuples, dict and set lookups, a breadth-first walk, sorting strings) over a
working set larger than a core's cache.  The report lines print the raw
figures and the probe next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import Dict, List, Tuple

#: probe seconds on the reference host (its usual value there, rounded)
REFERENCE_SECONDS = 0.004
#: at most one probe per this many seconds of the closed loop
INTERVAL_SECONDS = 0.2

_NODES = 1000
_TABLE_SIZE = 40_000
_LOOKUPS = 4000

#: the lookup part's working set, built once on import (about 7 MB)
_table: Dict[Tuple[int, int], int] = {
    (index, index * 31 % 99_991): index for index in range(_TABLE_SIZE)
}
_keys: List[Tuple[int, int]] = random.Random(5).sample(list(_table), _LOOKUPS)


def _walk() -> int:
    graph = {node: [(node * 7 + step * 13 + 1) % _NODES for step in range(3)] for node in range(_NODES)}
    seen = {0}
    frontier = [0]
    while frontier:
        following = []
        for node in frontier:
            for neighbour in graph[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    following.append(neighbour)
        frontier = following
    return len(sorted(f"p{node:05d}" for node in seen))


def _lookups() -> int:
    total = 0
    for key in _keys:
        total += _table[key]
    return total


def probe() -> float:
    """Run the probe once; return the CPU seconds of its thread.

    CPU time of the thread, not wall time: in ``serve`` the pool's threads
    may hold the interpreter lock while the probe runs, and waiting for it
    is not the host's speed.  A slower host shows in CPU time as much as in
    wall time (see the module's docstring).  The collector is off while the
    probe runs: a full collection of the workload's heap would otherwise
    land in a probe now and then.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        _walk()
        _lookups()
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


class HostScale:
    """Factors that turn one run's times into reference-host times.

    Built from the loop's probes as ``(clock at the probe's start, probe
    seconds)`` pairs and the probes timed after each set-up; with none,
    every factor is 1 (the raw figures).
    """

    def __init__(self, probes: List[Tuple[float, float]], setup_probes: List[float] = ()) -> None:
        self._setup_probes = list(setup_probes)
        self._starts = [start for start, _ in probes]
        self._seconds = [seconds for _, seconds in probes]
        #: for totals over the whole run: from the mean of all probes
        self.factor = REFERENCE_SECONDS / statistics.fmean(self._seconds) if probes else 1.0

    def setups(self, seconds: List[float]) -> List[float]:
        """Set-up times, each scaled by the probe timed right after it."""
        if not self._setup_probes:
            return list(seconds)
        return [each * REFERENCE_SECONDS / probed for each, probed in zip(seconds, self._setup_probes)]

    def at(self, moment: float) -> float:
        """The factor for an op that started at ``moment``: from the mean of
        the probes timed just before and just after it."""
        if not self._seconds:
            return 1.0
        before = max(bisect.bisect_right(self._starts, moment) - 1, 0)
        after = min(before + 1, len(self._seconds) - 1)
        return REFERENCE_SECONDS / ((self._seconds[before] + self._seconds[after]) / 2)
