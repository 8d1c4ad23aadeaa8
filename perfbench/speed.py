"""Host-speed probe that makes timings on a shared machine comparable.

On a shared host the core a process runs on switches, every few seconds,
between full speed and about 1.8 times slower, as the load of other
tenants on the same physical core comes and goes.  The wall time of a
run that lasts seconds mixes the two states in a share that follows the
neighbours' load, not the program: over ten seeds the median of a run's
diagnose times spread by 30 % of its value, and the best of five runs by
more, when the slow state held for minutes.

The probe measures that state while the program runs.  ``unit`` is a
fixed piece of pure-Python work of the kinds the program does (JSON
parse, dict update, sort of a short list) that calls no ``afdi`` code.
While a phase runs, an interval timer interrupts it every ``INTERVAL_S``
and times one ``unit``.  A phase's normalized time is its wall time minus
the time spent in the probe, times the mean of ``REFERENCE_NS`` over each
probe's time: the time the phase would have taken had the core run the
probe unit in ``REFERENCE_NS`` throughout.  A change that makes the
program faster or slower moves the normalized time in proportion; a
change of the host's state does not.

``REFERENCE_NS`` is a fixed constant, about the unit's time on an
uncontended core of a 2.1 GHz Intel Xeon with Python 3.11.7.  It scales
every normalized figure by the same factor, so it matters only when
figures from different machines are compared.
"""

from __future__ import annotations

import gc
import json
import signal
from time import perf_counter_ns

INTERVAL_S = 0.05
REFERENCE_NS = 300_000
_LINE = json.dumps({"timestamp": 1_700_000_000, "host_id": "h3", "vm_id": "vm7", "metric": "vm.memory", "value": 57.25})


def unit() -> dict:
    """About 0.3 ms of interpreter work; its time tracks the core's speed."""
    acc: dict = {}
    vals = []
    for i in range(100):
        d = json.loads(_LINE)
        v = d["value"] + (i % 17) * 0.5
        vals.append(v)
        key = (d["host_id"], i % 50)
        acc[key] = acc.get(key, 0.0) + v
        if len(vals) == 11:
            vals.sort()
            vals.clear()
    return acc


def timed_unit() -> int:
    """Time of one ``unit`` in ns.  The cyclic garbage collector is held
    off meanwhile: a collection of the program's heap that the unit's
    allocations happen to trigger is the program's cost, not the host's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter_ns()
        unit()
        return perf_counter_ns() - t
    finally:
        if enabled:
            gc.enable()


def timed_units(n: int) -> list[int]:
    """Run ``unit`` ``n`` times back to back; their times in ns."""
    return [timed_unit() for _ in range(n)]


def factor(probe_ns: list[int]) -> float:
    """Mean of REFERENCE_NS / probe time: the share of its wall time a
    phase would have taken at the reference speed."""
    if not probe_ns:
        raise ValueError("no probe fell inside the phase; it is shorter than the probe interval")
    return sum(REFERENCE_NS / p for p in probe_ns) / len(probe_ns)


class Probe:
    """Times one ``unit`` every ``INTERVAL_S`` of wall time while active.

    The unit runs in the ``SIGALRM`` handler, between two bytecodes of
    whatever the main thread is running.  Use as a context manager; mark
    the start of a phase with ``mark`` and read it back with ``since``.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._previous = None

    def _fire(self, signum, frame) -> None:
        self.samples.append(timed_unit())

    def __enter__(self) -> "Probe":
        timed_units(3)  # the first calls run slower, before the interpreter specializes them
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, int]:
        return perf_counter_ns(), len(self.samples)

    def since(self, mark: tuple[int, int]) -> tuple[float, float]:
        """(wall seconds, normalized seconds) of the phase begun at ``mark``."""
        start, first = mark
        wall = perf_counter_ns() - start
        probes = self.samples[first:]
        busy = wall - sum(probes)
        return wall * 1e-9, busy * factor(probes) * 1e-9
