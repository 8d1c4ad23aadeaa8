"""The gate-then-diagnose pipeline over preprocessed telemetry windows.

Flow per (host, vm) window: each metric sample is put in its usage
bucket as the window is collected, and the window's bucket tuple is
collapsed to severities and evaluated by the severity diagram.
Serious windows alarm immediately without classification; minor windows
get a Naive Bayes diagnosis; and a persistence rule watches every
window for the composite loop signature (saturated CPU at both VM and
host level with collapsed throughput) that per-metric severity cannot
name, promoting it to a diagnosed alarm once it has held for K
consecutive windows.

A virtual sensor replays the alarm log on its own reporting grid.
Everything is deterministic: same config, same stream, byte-identical
log.
"""

from __future__ import annotations

import gc
import json
import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import itemgetter, lt
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import mdd as mdd_mod
from . import nbc as nbc_mod
from .states import ComponentId, DiscretizationSpec, MetricSample, SampleColumns, SequencingError, _Record
from .states import check_entries, check_kind, check_origin, left_sum, read_document, read_sample_columns, sha256

__all__ = [
    "PreprocessPolicy",
    "SeriesFilter",
    "Alarm",
    "VirtualSensor",
    "EngineConfig",
    "Engine",
    "RunStats",
    "Window",
    "SequencingError",
    "IncompleteWindowError",
    "ConfigError",
    "preprocess",
    "collect_windows",
    "load_config",
    "write_alarm_log",
    "TRIGGER_GATE",
    "TRIGGER_NBC",
]

TRIGGER_GATE = "severity_gate"
TRIGGER_NBC = "nbc_diagnosis"

# Metrics whose values are percentages, clamped to [0, 100].
PERCENT_METRIC_NAMES = frozenset({"cpu", "memory", "network", "storage_io"})

# usage buckets 0-1 are normal work, 2 a minor fault, 3 a serious one
_SEVERITY_MAPPING = (0, 0, 1, 2)

_MAD_SCALE = 1.4826  # makes MAD comparable to a standard deviation
_EPS = 1e-9
_MAX_PASSES = 64
# values a SeriesFilter takes between two judging steps: a step costs a
# few microseconds per pass before it judges a position, which pieces of
# a few samples would pay each time; a value waits at most this many more
# before pass 0 judges it
_FEED_STRIDE = 256


class IncompleteWindowError(ValueError):
    """A window is missing one of the configured metrics."""


class ConfigError(ValueError):
    pass


class PreprocessPolicy(namedtuple("PreprocessPolicy", "window z_cutoff")):
    """How ``preprocess`` cleans each series: a sliding median/MAD filter
    over an odd ``window`` (an integer >= 3) replaces a sample whose
    robust z-score exceeds ``z_cutoff`` (a finite number > 0)."""

    __slots__ = ()

    def __new__(cls, window: int = 11, z_cutoff: float = 3.0):
        if type(window) is not int:
            raise ValueError(f"window must be an integer, got {window!r}")
        if window < 3 or window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {window}")
        # a NaN cutoff would fail every z-score comparison and so switch the filter off
        if type(z_cutoff) not in (int, float) or not z_cutoff < math.inf:
            raise ValueError(f"z_cutoff must be a finite number, got {z_cutoff!r}")
        if z_cutoff <= 0:
            raise ValueError(f"z_cutoff must be > 0, got {z_cutoff}")
        return tuple.__new__(cls, (window, z_cutoff))


def _overlay(values: array, start: int, pending: list) -> array:
    """``values``, the buffer's from position ``start`` on, with the
    replacements of ``pending`` that fall among them written in."""
    for i, med in pending:
        if 0 <= i - start < len(values):
            values[i - start] = med
    return values


class SeriesFilter:
    """The ``preprocess`` filter of one series, fed in pieces: a state
    that judges each (pass, position) pair once, whatever the cut.

    ``feed(values)`` appends values to the series; once ``_FEED_STRIDE``
    values have come since its last judging step, it clamps them, in a
    percent series, to [0, 100] and judges every pair the values fed
    decide.  ``close()`` ends the series: it judges the rest and returns
    the buffer, an ``array('d')`` that holds the cleaned series.  Given a
    ``buffer``, the filter owns it and its values count as fed in one
    piece, so the series is cleaned in place: ``preprocess`` gives each
    column so and closes it.  Values fed must be finite, as the columns
    hold them.

    The passes form a wavefront, the time skewing of an iterated stencil
    (Wonnacott, IPDPS 2000): pass 0 judges a position once its window is
    full, and pass k + 1 judges one once pass k has judged its whole
    window, so each pass lags the one before it by ``window // 2``; at
    ``close`` the passes run on to the end of the series in turn.  Pass k + 1 judges only the
    positions within ``window // 2`` of a replacement pass k made, in the
    contiguous runs they merge into, and a replacement is written to the
    buffer once its own pass has judged every window that holds it; until
    then the next pass reads it from the pass's pending list.  ``judged``
    counts the pairs judged, ``replaced`` the replacements, a sample
    replaced in two passes twice, and ``clamped`` the values clamped.
    """

    __slots__ = (
        "judged", "replaced", "clamped", "_buf", "_percent", "_half", "_cutoff", "_runs", "_windows", "_pending", "_seen"
    )

    def __init__(self, policy: PreprocessPolicy, percent: bool, buffer: array | None = None) -> None:
        self.judged = self.replaced = self.clamped = 0
        self._buf = array("d") if buffer is None else buffer
        self._percent = percent
        self._half = policy.window // 2
        self._cutoff = policy.z_cutoff
        # per pass: the runs [start, stop) it has left to judge, in order
        # (pass 0 judges every position), the sorted window it stopped in
        # when a run is cut where it has fed no further, and its
        # replacements (position, median) not yet in the buffer
        self._runs = [[[0, math.inf]]]
        self._windows = [None]
        self._pending = [[]]
        self._seen = 0  # the values fed up to the last judging step

    def feed(self, values: Iterable[float]) -> None:
        buf = self._buf
        buf.extend(values)
        if len(buf) - self._seen >= _FEED_STRIDE:
            self._advance(False)

    def close(self) -> array:
        self._advance(True)
        return self._buf

    def _clamp(self, start: int) -> None:
        """Clamp the values from position ``start`` on to [0, 100] in a
        percent series."""
        if not self._percent:
            return
        buf = self._buf
        piece = buf[start:] if start else buf
        if piece and not 0.0 <= min(piece) <= max(piece) <= 100.0:
            for i in range(start, len(buf)):
                v = buf[i]
                if not 0.0 <= v <= 100.0:
                    buf[i] = min(100.0, max(0.0, v))
                    self.clamped += 1

    def _advance(self, final: bool) -> None:
        """Move each pass as far as the values fed decide, or with
        ``final`` to the end of the series, and write to the buffer the
        replacements whose pass has judged every window that holds them."""
        buf, half = self._buf, self._half
        n = len(buf)
        self._clamp(self._seen)
        self._seen = n
        limit = n if final else n - half  # pass 0 has judged the positions below
        runs, pending = self._runs, self._pending
        for k in range(_MAX_PASSES):
            if k == len(runs):
                break
            if runs[k] and runs[k][0][0] < limit:
                self._judge(k, limit, final)
            if pending[k]:
                done = pending[k] if final else pending[k][: bisect_left(pending[k], (limit - half,))]
                for i, med in done:
                    buf[i] = med
                del pending[k][: len(done)]
            if not final:
                limit -= half
        while len(runs) > 1 and not runs[-1] and not pending[-1]:
            del runs[-1], self._windows[-1], pending[-1]

    def _judge(self, k: int, limit: int, final: bool) -> None:
        """Judge pass ``k``'s positions below ``limit``, whose windows the
        pass before has judged, or every one with ``final``."""
        vals, half, cutoff = self._buf, self._half, self._cutoff
        n = len(vals)
        j = (half + 1) // 2  # ceil(half / 2), for the MAD lower bound below
        above, below = half + j, half - j
        # positions from `edge` on have a window the series' end shrinks
        edge = n - half if final else limit
        runs, w = self._runs[k], self._windows[k]
        # the replacements of the pass before not yet in the buffer, which
        # this pass reads where they fall in its windows
        ahead = self._pending[k - 1] if k else ()
        # synchronous update: every position of a pass reads the values
        # the pass before left, and its own replacements wait in pending
        replaced = []
        judged = ended = 0
        # every run starts below limit: the caller judges a pass only when
        # its first run does, and a later run opens at i - half for a
        # replacement i that the pass before made below its own limit,
        # which is this pass's limit plus half; later steps only raise the
        # limits, and a run cut at one resumes below the next
        for run in runs:
            a, b = run
            stop = b if b < limit else limit
            judged += stop - a
            # positions p .. q-1 have a full window; the at most half at
            # each end have a window that end shrinks
            p, q = a if a > half else half, stop if stop < edge else edge
            shrunk = chain(range(a, min(stop, half)), range(max(p, edge), stop)) if a < half or stop > edge else ()
            for i in shrunk:
                lo = max(0, i - half)
                window = vals[lo : i + half + 1]
                if ahead:
                    _overlay(window, lo, ahead)
                x = window[i - lo]
                window = sorted(window)
                # the median of an even window is the mean of the
                # middle pair, as statistics.median computes it
                m, odd = divmod(len(window), 2)
                med = window[m] if odd else (window[m - 1] + window[m]) / 2
                dev = sorted([abs(v - med) for v in window])
                mad = dev[m] if odd else (dev[m - 1] + dev[m]) / 2
                if abs(x - med) / (mad * _MAD_SCALE + _EPS) > cutoff:
                    replaced.append((i, med))
            if p < q:
                # one sorted list slides over the full windows: each step
                # inserts the entering value right of its equals and, once
                # the position is judged, deletes the leftmost value equal
                # to the leaving one, so equal values keep their order in
                # the slice and w is sorted(vals[i - half : i + half + 1])
                # down to which zero the median takes; a run cut where the
                # values fed end resumes in the w it stopped in
                if w is None:
                    w = vals[p - half : p + half]
                    w = sorted(_overlay(w, p - half, ahead) if ahead else w)
                entering = vals[p + half : q + half]
                if ahead:
                    _overlay(entering, p + half, ahead)
                steps = zip(range(p, q), vals[p:q], vals[p - half : q - half], entering)
                for i, x, leaving, entering in steps:
                    insort(w, entering)
                    med = w[half]
                    dist = abs(x - med)
                    # w[half - j] and below, and w[half + j] and above, lie
                    # at least `low` from the median, so at most 2j - 1 <
                    # half + 1 deviations are under `low` and the MAD is at
                    # least `low`, itself one of the deviations; rounding is
                    # monotone, so a z within the cutoff under `low` is
                    # within it under the MAD, and the sample stays
                    up, down = w[above] - med, med - w[below]
                    low = down if down < up else up  # min(up, down), without a call
                    if not dist / (low * _MAD_SCALE + _EPS) <= cutoff:
                        dev = sorted([abs(v - med) for v in w])
                        if dist / (dev[half] * _MAD_SCALE + _EPS) > cutoff:
                            replaced.append((i, med))
                    del w[bisect_left(w, leaving)]
            if stop < b and stop < n:
                run[0] = stop
                break
            ended += 1
            w = None
        del runs[:ended]
        self._windows[k] = w
        self.judged += judged
        if not replaced:
            return
        # z > cutoff > 0 needs vals[i] != med, so every replacement
        # changes a value, and a pass that replaces nothing leaves the
        # next nothing to judge
        replaced.sort()
        self.replaced += len(replaced)
        self._pending[k] += replaced
        if k + 1 == _MAX_PASSES:
            return
        if k + 1 == len(self._runs):
            self._runs.append([])
            self._windows.append(None)
            self._pending.append([])
        # the output at i reads only its own window, so the next pass
        # judges the windows that hold a replaced sample: the merged runs
        # of positions within half of one, in order
        runs = self._runs[k + 1]
        for i, _ in replaced:
            start, stop = max(0, i - half), i + half + 1
            if runs and start <= runs[-1][1]:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])


def preprocess(
    samples: Iterable[MetricSample] | SampleColumns, policy: PreprocessPolicy | None = None,
    stats: RunStats | None = None,
):
    """Robust per-series cleanup preserving order and timestamps.

    Each (host, vm, metric) series is handled independently: percent
    metrics are clamped to [0, 100] first, then a sliding median/MAD
    filter replaces outliers with the window median.  The filter is
    iterated until a pass replaces nothing, for at most ``_MAX_PASSES``
    (64) passes.  Running preprocess on its own output
    changes nothing only when that fixed point is reached within the
    cap: with ``window=5, z_cutoff=0.5``, ``[1, 20, 50, 100.5, 91]``
    still moves after 64 passes.  After the first pass only the positions
    whose window holds a sample the previous pass replaced are
    recomputed; the others would give the same result again.  A pass
    walks its positions as contiguous runs: one sorted window slides
    along the full windows of a run, and only the at most ``window // 2``
    positions at each end of the series, whose window is shrunken, slice
    and sort their own.  The result equals slicing and sorting every
    window, down to the sign of a zero median.  ``SeriesFilter`` is the
    filter of one series; it takes a series in pieces as well as whole.

    Given ``SampleColumns``, preprocess consumes them: the value column
    of each series, an ``array('d')``, is fed whole to a ``SeriesFilter``
    that owns it, so the columns are cleaned in place and returned.
    Given any other iterable of samples, preprocess takes it through
    ``SampleColumns.of``, which refuses NaN and infinite values, and
    gives a list, in which a sample whose value stayed is the sample
    given, and leaves the samples given as they were; an int value that
    no float equals does not stay, since the columns hold floats.  A
    median that overflows to an infinity makes its z-score NaN, so every
    replacement is finite.  The columns hold each series in time order,
    so ``SampleColumns.of`` refuses a list in which a series falls.
    Given ``stats``, the filters' ``clamped``, ``judged`` and
    ``replaced`` counts are added to it.
    """
    listed = None
    if not isinstance(samples, SampleColumns):
        listed = list(samples)
        samples = SampleColumns.of(listed)
    policy = policy or PreprocessPolicy()
    for (_, _, metric), vals in zip(samples.series, samples.values):
        series = SeriesFilter(policy, metric.name in PERCENT_METRIC_NAMES, vals)
        series.close()
        if stats is not None:
            stats.clamped += series.clamped
            stats.judged += series.judged
            stats.replaced += series.replaced
    if listed is None:
        return samples
    return [s if s.value == c.value else c for s, c in zip(listed, samples)]


class Window(NamedTuple):
    """The usage bucket of each windowed metric for one (host, vm) scope
    at one time, in the order of the specs the window was collected by."""

    timestamp: int
    host_id: str
    vm_id: str
    buckets: tuple[int, ...]


# distinct timestamps per block of the windows of collect_windows: a
# block holds about this many windows per scope, few enough that no
# stream-sized list is held and enough that the Python work done per
# block and scope is spread over many windows
_BLOCK_TIMES = 32


class _Windows:
    """The windows of ``collect_windows``, in ``(timestamp, host, vm)``
    order, built a block at a time as they are taken: ``len`` is their
    number, and each iteration builds them anew.

    A scope is held as its host, its VM, its strictly rising times and
    the interned bucket vector at each.  A block is the windows of the
    next ``_BLOCK_TIMES`` distinct times of the union of the scopes'
    clocks: each scope's run of them is sliced and zipped into windows,
    and the scopes are in (host, vm) order, so a stable sort by time puts
    the block in window order."""

    __slots__ = ("_scopes", "_clock", "_count")

    def __init__(self, scopes: list[tuple]) -> None:
        self._scopes = scopes  # (host, vm, times, vectors) per scope
        clocks = list({id(times): times for _, _, times, _ in scopes}.values())
        self._clock = clocks[0] if len(clocks) == 1 else sorted(set().union(*clocks))
        self._count = sum(len(times) for _, _, times, _ in scopes)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Window]:
        return chain.from_iterable(map(self._block, range(0, len(self._clock), _BLOCK_TIMES)))

    def _block(self, start: int) -> list[Window]:
        """The windows at the ``_BLOCK_TIMES`` distinct times of the clock
        from its position ``start``, in window order."""
        clock = self._clock
        first = clock[start]
        end = start + _BLOCK_TIMES
        block = []
        for host, vm, times, vectors in self._scopes:
            a = bisect_left(times, first)
            z = bisect_left(times, clock[end], a) if end < len(clock) else len(times)
            block += map(tuple.__new__, repeat(Window), zip(times[a:z], repeat(host), repeat(vm), vectors[a:z]))
        block.sort(key=itemgetter(0))
        return block


def collect_windows(
    samples: Iterable[MetricSample] | SampleColumns, specs: Sequence[DiscretizationSpec]
) -> _Windows:
    """Group a sample stream into per-scope windows by exact timestamp,
    putting each sample of a windowed metric in its usage bucket once.

    ``specs`` name the windowed metrics, one spec each, in bucket order.
    A value is bucketed as ``discretize`` buckets it clamped to its
    spec's bounds, so a value past either end lands in the edge bucket.
    Host-level metrics are shared by every VM on that host.  A window
    missing any windowed metric, or given one twice, raises before this
    returns.  The windows come back as a sized view that builds them in
    (timestamp, host, vm) order each time it is iterated, a block of
    times at a time, so no list of every window is held.  Windows with
    equal buckets share one tuple.

    Samples come as a ``SampleColumns`` or any iterable of samples, which
    is taken through ``SampleColumns.of`` (so no value is NaN or infinite,
    and no series falls).  Each windowed series is bucketed a column at a
    time, and a VM's windows are the times of the samples of its scope:
    every windowed column of the scope, and its host's, must have one
    sample at each of them.  Of several second samples, the one first in
    the stream raises, before any missing metric, and of several missing
    metrics the one of the first window, first in spec order.
    """
    columns = samples if isinstance(samples, SampleColumns) else SampleColumns.of(samples)
    # position and inner boundaries per windowed key: searching the inner
    # boundaries only puts a value past either end in the edge bucket.
    # The buckets of a column are held as bytes, one each, where they fit
    routes = {
        spec.component.key: (i, spec.boundaries[1:-1], bytes if spec.num_intervals <= 256 else list)
        for i, spec in enumerate(specs)
    }
    scopes: dict[tuple, list] = {}  # timestamp column of each vm-level series, per (host, vm)
    windowed: dict[tuple, tuple] = {}  # (timestamps, buckets) by (host, vm or None, position)
    faults = {}
    rising = {}  # whether each distinct timestamp column rises strictly, keyed by identity
    series = zip(columns.series, columns.timestamps, columns.values)
    for s, ((host, vm, metric), stamps, vals) in enumerate(series):
        if metric.level != "host":
            scopes.setdefault((host, vm), []).append(stamps)
        route = routes.get(metric.key)
        if route is None:
            continue
        i, inner, held = route
        if id(stamps) not in rising:
            rising[id(stamps)] = all(map(lt, stamps, islice(stamps, 1, None)))
        if not rising[id(stamps)]:
            # no column falls, so one that does not rise holds a sample at
            # the time of the one before it, a second sample
            k = next(k for k in range(1, len(stamps)) if stamps[k] == stamps[k - 1])
            scope = host if metric.level == "host" else f"{host}/{vm}"
            faults[s] = (k, ValueError(f"window t={stamps[k]} {scope}: second sample of {metric.key}"))
            continue
        buckets = held(map(bisect_right, repeat(inner), vals))
        windowed[host, None if metric.level == "host" else vm, i] = (stamps, buckets)
    columns.raise_first(faults)

    kept, missing = [], []
    # one tuple per distinct bucket vector: a stream repeats few of them
    interned: dict[tuple, tuple] = {}
    for (host, vm), scope in sorted(scopes.items()):
        times = scope[0]
        if not (all(map(times.__eq__, scope)) and all(map(lt, times, islice(times, 1, None)))):
            times = sorted(set().union(*scope))
        per_spec = []
        for i, spec in enumerate(specs):
            stamps, buckets = windowed.get((host, vm if spec.component.level == "vm" else None, i), ((), ()))
            if stamps != times:
                at = dict(zip(stamps, buckets))
                buckets = list(map(at.get, times))
                if None in buckets:
                    missing.append((times[buckets.index(None)], host, vm, i))
            per_spec.append(buckets)
        if not missing:
            vectors = list(zip(*per_spec))
            kept.append((host, vm, times, list(map(interned.setdefault, vectors, vectors))))
    if missing:
        ts, host, vm, i = min(missing)
        comp = specs[i].component
        raise IncompleteWindowError(f"window t={ts} {host}/{vm}: missing {comp.level} metric {comp.name!r}")
    return _Windows(kept)


def _check_alarm(timestamp, host_id, vm_id, severity, trigger, diagnosis, top_cause) -> None:
    """Raise unless the fields make an alarm record: a JSON line of the
    kinds the alarm log documents, whose diagnosis is a distribution."""
    if trigger not in (TRIGGER_GATE, TRIGGER_NBC):
        raise ValueError(f"unknown trigger {trigger!r}")
    check_origin(timestamp, host_id, vm_id)
    if type(severity) is not int or not 0 <= severity <= 2:
        raise ValueError(f"severity must be an integer in 0..2, got {severity!r}")
    if trigger == TRIGGER_GATE:
        if severity != 2:
            raise ValueError("severity_gate alarms are always serious")
        if diagnosis is not None or top_cause is not None:
            raise ValueError("severity_gate alarms carry no diagnosis and no top_cause")
        return
    if diagnosis is None:
        raise ValueError("nbc_diagnosis alarms carry a diagnosis distribution")
    # NaN fails the range test too, so it cannot pass the sum below
    for p in diagnosis:
        if type(p) not in (int, float) or not 0 <= p <= 1:
            raise ValueError(f"diagnosis entries must be numbers in [0, 1], got {diagnosis!r}")
    if abs(left_sum(diagnosis) - 1.0) > 1e-12:
        raise ValueError("diagnosis distribution must be normalized")
    if not isinstance(top_cause, str):
        raise ValueError(f"nbc_diagnosis alarms name a top_cause string, got {top_cause!r}")


class Alarm(namedtuple("Alarm", "timestamp host_id vm_id severity trigger diagnosis top_cause")):
    """One alarm: a ``severity_gate`` alarm on a serious window, or an
    ``nbc_diagnosis`` alarm with a class distribution and its top cause.

    An alarm is an immutable tuple with no instance dict.  The
    constructor checks it; the engine, whose alarms pass those checks by
    construction, builds them with ``tuple.__new__(Alarm, fields)``, and
    the inherited ``_make`` and ``_replace`` check nothing either.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, host_id: str, vm_id: str | None, severity: int, trigger: str,
                diagnosis: Sequence[float] | None = None, top_cause: str | None = None):
        if diagnosis is not None:
            diagnosis = tuple(diagnosis)
        _check_alarm(timestamp, host_id, vm_id, severity, trigger, diagnosis, top_cause)
        return tuple.__new__(cls, (timestamp, host_id, vm_id, severity, trigger, diagnosis, top_cause))

    def to_json_obj(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "host_id": self.host_id,
            "vm_id": self.vm_id,
            "severity": self.severity,
            "trigger": self.trigger,
            "diagnosis": list(self.diagnosis) if self.diagnosis is not None else None,
            "top_cause": self.top_cause,
        }


# one encoder for every field: json.dumps(obj, sort_keys=True) builds
# a new one per call, and writes the same text
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def write_alarm_log(alarms: Iterable[Alarm], path) -> int:
    """Write one line per alarm, ``json.dumps(alarm.to_json_obj(),
    sort_keys=True)``, and return the number written."""
    # JSON text of each diagnosis, id, trigger and top_cause object, keyed
    # by identity: equal values need not encode alike, as (0.0, 1.0),
    # (-0.0, 1.0) and (1, 0) show.  Each object is kept, so its id is not
    # reused while the table lives.
    texts: dict[int, str] = {}
    kept = []

    def text(obj) -> str:
        found = texts.get(id(obj))
        if found is None:
            kept.append(obj)
            found = texts[id(obj)] = _encode_sorted(obj)
        return found

    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for timestamp, host, vm, severity, trigger, diagnosis, cause in alarms:
            try:
                d, h, c, t, v = (
                    texts[id(diagnosis)], texts[id(host)], texts[id(cause)], texts[id(trigger)], texts[id(vm)]
                )
            except KeyError:
                d, h, c, t, v = map(text, (diagnosis, host, cause, trigger, vm))
            # str() of an int is the text the encoder writes for it
            write(
                f'{{"diagnosis": {d}, "host_id": {h}, "severity": {severity}, '
                f'"timestamp": {timestamp}, "top_cause": {c}, "trigger": {t}, "vm_id": {v}}}\n'
            )
            n += 1
    return n


class VirtualSensor(namedtuple("VirtualSensor", "sensor_id active frequency_ms")):
    """A reader of the alarm log with an activation flag (a bool) and a
    reporting period (a positive integer of milliseconds).

    A sensor reports only on its grid: an alarm raised at time t is held
    until the next multiple of ``frequency_ms`` after t, and a newer
    alarm of the same interval replaces it.  ``deliveries`` replays an
    alarm log under that rule.
    """

    __slots__ = ()

    def __new__(cls, sensor_id: str, active: bool = True, frequency_ms: int = 1000):
        if type(active) is not bool:
            raise ValueError(f"sensor {sensor_id!r}: active must be a bool, got {active!r}")
        if type(frequency_ms) is not int or frequency_ms <= 0:
            raise ValueError(
                f"sensor {sensor_id!r}: frequency_ms must be a positive integer, got {frequency_ms!r}"
            )
        return tuple.__new__(cls, (sensor_id, active, frequency_ms))

    def deliveries(self, alarms: Iterable[Alarm]) -> list[tuple[int, Alarm]]:
        """``(boundary, alarm)`` for each reporting interval of ``alarms``
        that holds one: the newest alarm of the interval, delivered at its
        end.  An inactive sensor delivers nothing.  Timestamps that
        decrease raise ``SequencingError``."""
        period = self.frequency_ms
        newest: dict[int, Alarm] = {}  # by interval, in time order
        last = -math.inf
        for alarm in alarms:
            if alarm.timestamp < last:
                raise SequencingError(f"alarm log moves backwards: {alarm.timestamp} after {last}")
            last = alarm.timestamp
            newest[last // period] = alarm
        if not self.active:
            return []
        return [((interval + 1) * period, alarm) for interval, alarm in newest.items()]


class LoopRule(namedtuple("LoopRule", "k vm_cpu host_cpu throughput cause")):
    """Composite-pattern parameters for the sustained-loop detector: both
    CPU readings in the top usage bucket of their spec and throughput in
    the bottom bucket of its spec for ``k`` windows in a row raise an
    alarm diagnosed as ``cause``.  ``k`` is an integer (not a bool); the
    three component keys and the cause are strings.  The buckets are the
    specs', so ``EngineConfig`` derives them as its ``loop_signature``."""

    __slots__ = ()

    def __new__(cls, k: int = 3, vm_cpu: str = "vm.cpu", host_cpu: str = "host.cpu",
                throughput: str = "vm.throughput", cause: str = "endless-loop"):
        if type(k) is not int:
            raise ValueError(f"loop rule k must be an integer, got {k!r}")
        rule = tuple.__new__(cls, (k, vm_cpu, host_cpu, throughput, cause))
        for name, value in zip(cls._fields[1:], rule[1:]):
            if not isinstance(value, str):
                raise ValueError(f"loop rule {name} must be a string, got {value!r}")
        if k < 1:
            raise ValueError("loop rule needs k >= 1")
        return rule


class EngineConfig(_Record):
    """What the engine judges windows by: a discretization spec per
    component key, the severity components, the model, the
    bucket-to-severity mapping, the loop rule and the preprocessing
    policy.

    The model fixes the rest.  Its attribute names, parsed as component
    keys, are the NBC's features in order, ``attributes``; and the loop
    rule matches the window whose buckets of ``vm_cpu``, ``host_cpu`` and
    ``throughput`` are ``loop_signature``, the top bucket of each CPU
    spec and bucket 0.  The constructor cross-checks the parts and
    builds the lookup tables a window needs."""

    _fields = ("specs", "severity_components", "model", "severity_mapping", "loop_rule", "preprocess")
    __slots__ = (
        *_fields, "attributes", "window_specs", "attribute_keys", "feature_positions", "loop_positions",
        "loop_signature", "loop_diagnosis", "severity_mdd", "severity_tables",
    )

    def __init__(
        self,
        specs: dict[str, DiscretizationSpec],  # keyed by ComponentId.key
        severity_components: tuple[ComponentId, ...],
        model: nbc_mod.NbcModel,
        severity_mapping: tuple[int, ...] = _SEVERITY_MAPPING,
        loop_rule: LoopRule = LoopRule(),
        preprocess: PreprocessPolicy = PreprocessPolicy(),
    ) -> None:
        self.specs = specs
        self.severity_components = severity_components
        self.model = model
        self.severity_mapping = severity_mapping
        self.loop_rule = loop_rule
        self.preprocess = preprocess
        self.attribute_keys = tuple(name for name, _ in model.schema.attributes)
        self.attributes = tuple(map(ComponentId.parse, self.attribute_keys))  # NBC feature order
        for key, spec in self.specs.items():
            # a spec routes the samples of its own component into windows
            if spec.component.key != key:
                raise ConfigError(f"discretization spec for {spec.component.key} is filed under {key}")
        # everything a window needs is built here once, so judging a
        # window is lookups only
        judged = {}  # spec by key, in first-seen order
        for comp in self.attributes + self.severity_components:
            if comp.key not in self.specs:
                raise ConfigError(f"no discretization spec for {comp.key}")
            judged[comp.key] = self.specs[comp.key]
        # a window's bucket tuple has one bucket per judged key, in this
        # order, and the tables below read it by position
        self.window_specs = tuple(judged.values())
        position = {key: i for i, key in enumerate(judged)}
        self.feature_positions = tuple(position[key] for key in self.attribute_keys)
        for key, (_, card) in zip(self.attribute_keys, self.model.schema.attributes):
            if judged[key].num_intervals != card:
                raise ConfigError(
                    f"{key}: spec yields {judged[key].num_intervals} buckets, model expects {card}"
                )
        # a zero entry can zero every class for some window, which the
        # classifier cannot answer; smoothed models (alpha > 0) have none
        for c, (name, prior) in enumerate(zip(self.classes, self.model.priors)):
            if prior == 0.0:
                raise ConfigError(f"model prior of class {name!r} is 0")
            for key, table in zip(self.attribute_keys, self.model.cond):
                for value, p in enumerate(table[c]):
                    if p == 0.0:
                        raise ConfigError(
                            f"model gives {key}={value} probability 0 under class {name!r}"
                        )
        rule = self.loop_rule
        keys = (rule.vm_cpu, rule.host_cpu, rule.throughput)
        for key in keys:
            if key not in judged:
                raise ConfigError(
                    f"loop rule component {key} is neither an attribute nor a severity component"
                )
        if rule.cause not in self.classes:
            raise ConfigError(f"loop rule cause {rule.cause!r} not in model classes")
        self.loop_positions = tuple(position[key] for key in keys)
        self.loop_signature = (judged[rule.vm_cpu].num_intervals - 1, judged[rule.host_cpu].num_intervals - 1, 0)
        self.loop_diagnosis = tuple(1.0 if c == rule.cause else 0.0 for c in self.classes)
        # severity model operates on mapped 3-state levels; each severity
        # component gets its bucket's position and the level of each of
        # its usage buckets
        self.severity_mdd = mdd_mod.build_max_severity(self.severity_components)
        tables = []
        for comp, arity in zip(self.severity_components, self.severity_mdd.arities):
            buckets = self.specs[comp.key].num_intervals
            table = tuple(self.severity_mapping[:buckets])
            if len(table) < buckets or not all(0 <= level < arity for level in table):
                raise ConfigError(
                    f"{comp.key}: severity_mapping {self.severity_mapping} must send each "
                    f"of its {buckets} buckets to a level in 0..{arity - 1}"
                )
            tables.append((position[comp.key], table))
        self.severity_tables = tuple(tables)

    @property
    def classes(self) -> tuple[str, ...]:
        return self.model.schema.classes


class RunStats(_Record):
    """The deterministic counters of an engine's run: the same stream
    and config give equal stats on any host.

    ``samples`` taken, and of preprocessing the values ``clamped`` to a
    percent metric's range, the (pass, position) pairs ``judged`` and the
    replacements made, a sample replaced in two passes twice; the
    ``windows`` of each severity 0, 1 and 2; the ``gate`` and ``loop``
    alarms; and the diagnosed alarms per top cause, in ``causes``.  The
    classifier alarms are ``Engine.nbc_invocations``, one per call.
    """

    _fields = ("samples", "clamped", "judged", "replaced", "windows", "gate", "loop", "causes")
    __slots__ = _fields

    def __init__(self) -> None:
        self.samples = self.clamped = self.judged = self.replaced = self.gate = self.loop = 0
        self.windows = [0, 0, 0]
        self.causes: dict[str, int] = {}


class Engine:
    """Stateful pipeline instance: windows in, alarms out.

    State is per-scope loop-rule streaks and what judging a window
    needs: the judgment of each bucket vector seen and each distinct
    diagnosis.  ``stats`` counts what the engine did, and ``marks`` holds
    a reading of ``clock`` (``perf_counter`` unless set otherwise) at the
    bounds of the stages it ran.  One engine handles one logical stream;
    make a new engine for a fresh run.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.nbc_invocations = 0
        self.stats = RunStats()
        self.clock = perf_counter
        self.marks: list = []
        # matching windows in a row per scope; the loop alarm fires when
        # the streak reaches k, so once per span
        self._streaks: dict[tuple, int] = {}
        # (severity, loop rule matched, NBC features) per bucket vector,
        # keyed by the tuple collect_windows shares among its equal windows
        self._judged: dict[tuple, tuple] = {}
        # (diagnosis, top cause) per distinct diagnosis, the loop rule's
        # one-hot among them, so equal diagnoses are one object.  Keying
        # by value is exact: the posterior yields no -0.0, which equals
        # 0.0 but encodes differently, and no NaN, which equals nothing
        loop = config.loop_diagnosis
        self._diagnoses: dict[tuple, tuple] = {loop: (loop, config.loop_rule.cause)}

    # -- window processing -------------------------------------------

    def _judge(self, buckets: tuple[int, ...]) -> tuple:
        """What a window with these buckets is judged, kept for the next
        one: its severity, whether the loop rule matches, its NBC features."""
        config = self.config
        severity = config.severity_mdd.evaluate_levels([table[buckets[i]] for i, table in config.severity_tables])
        loop = tuple([buckets[i] for i in config.loop_positions]) == config.loop_signature
        features = tuple([buckets[i] for i in config.feature_positions])
        judged = self._judged[buckets] = (severity, loop, features)
        return judged

    def step(self, window: Window) -> list[Alarm]:
        """Process one complete window; returns the alarms it raised.

        Precedence: a completed loop-rule span outranks the severity
        gate, which outranks per-window diagnosis.  At most one alarm
        per window.  The loop pattern is tracked on every window —
        saturated CPU always trips the severity gate, so the rule's job
        is to replace the K-th consecutive anonymous gate alarm with a
        named diagnosis, once per span.

        The window's whole judgment depends only on its bucket vector,
        so each vector is judged once per engine.  Alarms are built
        unchecked from the window, the config and the model: the
        windows of read or simulated samples make only valid ones.  The
        window and its alarm are counted in ``stats``.
        """
        timestamp, host, vm, buckets = window
        judged = self._judged.get(buckets)
        if judged is None:
            judged = self._judge(buckets)
        severity, loop, features = judged
        stats = self.stats
        stats.windows[severity] += 1

        config = self.config
        scope = (host, vm)
        if loop:
            streak = self._streaks[scope] = self._streaks.get(scope, 0) + 1
            if streak == config.loop_rule.k:
                stats.loop += 1
                cause = config.loop_rule.cause
                stats.causes[cause] = stats.causes.get(cause, 0) + 1
                fields = (timestamp, host, vm, severity, TRIGGER_NBC, config.loop_diagnosis, cause)
                return [tuple.__new__(Alarm, fields)]
        else:
            self._streaks[scope] = 0

        if severity == 2:
            stats.gate += 1
            return [tuple.__new__(Alarm, (timestamp, host, vm, 2, TRIGGER_GATE, None, None))]
        if severity == 1:
            self.nbc_invocations += 1
            post = nbc_mod.posterior(config.model, features)
            diagnosis = self._diagnoses.get(post)
            if diagnosis is None:
                diagnosis = self._diagnoses[post] = (post, config.classes[nbc_mod.top_class(post)])
            cause = diagnosis[1]
            stats.causes[cause] = stats.causes.get(cause, 0) + 1
            return [tuple.__new__(Alarm, (timestamp, host, vm, 1, TRIGGER_NBC) + diagnosis)]
        return []

    def alarms(self, samples: Iterable[MetricSample] | SampleColumns) -> Iterator[Alarm]:
        """The alarms of an entire stream, stepped window by window in
        time order as they are taken.  The stream is preprocessed and
        windowed before this returns, so a stream those stages refuse
        raises here, before any alarm is taken; a mark is taken as each
        of the two stages ends.  The stream comes as ``SampleColumns``,
        as ``read_sample_columns`` gives it, which this consumes:
        ``preprocess`` cleans their value columns in place.  Samples
        given otherwise are put in columns first, and stay as they were."""
        columns = samples if isinstance(samples, SampleColumns) else SampleColumns.of(samples)
        self.stats.samples += len(columns)
        cleaned = preprocess(columns, self.config.preprocess, self.stats)
        self.marks.append(self.clock())
        windows = collect_windows(cleaned, self.config.window_specs)
        self.marks.append(self.clock())
        return self._stepped(windows)

    def _stepped(self, windows: Iterable[Window]) -> Iterator[Alarm]:
        # a Python loop: map would call step from C, and yield from would
        # delegate to each list's iterator, both of which cost more
        step = self.step
        for window in windows:
            for alarm in step(window):
                yield alarm

    def run(self, metrics_path, alarms_path) -> int:
        """``afdi diagnose``: read the stream at ``metrics_path``, write
        the alarm log of ``alarms`` to ``alarms_path``, and return the
        number of alarms written.

        ``marks`` gets a mark as the run starts and as each stage ends:
        the read, ``preprocess``, ``collect_windows``, and the steps with
        the write, which takes each window's alarms as it is stepped.  A
        stream the read or the engine refuses raises before the log is
        opened, leaving it as it was.  The run builds no reference
        cycles, so the cycle collector would only rescan the growing heap
        of columns; it is off for the run and back as it was afterwards.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.marks.append(self.clock())
            samples = read_sample_columns(metrics_path)
            self.marks.append(self.clock())
            raised = write_alarm_log(self.alarms(samples), alarms_path)
            self.marks.append(self.clock())
        finally:
            if collecting:
                gc.enable()
        return raised

    def process_stream(self, samples: Iterable[MetricSample] | SampleColumns) -> list[Alarm]:
        """The list of ``alarms(samples)``."""
        return list(self.alarms(samples))


# the JSON kind of each key of a config document and of its sections;
# the defaults live in EngineConfig, LoopRule and PreprocessPolicy
_CONFIG_KINDS = {
    "model": "object",
    "discretization": "object",
    "severity_components": "array of strings",
    "severity_mapping": "array of integers",
    "loop_rule": "object",
    "preprocess": "object",
}
_MODEL_REF_KINDS = {"path": "string", "sha256": "string"}
_SECTION_KINDS = {
    "loop_rule": {
        "k": "integer",
        "vm_cpu": "string",
        "host_cpu": "string",
        "throughput": "string",
        "cause": "string",
    },
    "preprocess": {"window": "integer", "z_cutoff": "number"},
}


def load_config(path) -> EngineConfig:
    """Load an engine configuration document, verifying the model hash.

    The model path is resolved relative to the config file's directory;
    its SHA-256 must match the required ``model.sha256`` so a config can
    never silently pick up a retrained model.  An unknown key or an
    entry of another JSON kind raises ``ConfigError`` naming the key.
    """
    import os

    where = f"config {path}"
    required = ("model", "discretization", "severity_components")
    doc = check_entries(read_document(path), _CONFIG_KINDS, required, where, ConfigError)
    sections = {
        section: check_entries(doc.get(section, {}), kinds, (), f"{section} of {where}", ConfigError)
        for section, kinds in _SECTION_KINDS.items()
    }

    required = ("path", "sha256")
    model_ref = check_entries(doc["model"], _MODEL_REF_KINDS, required, f"model of {where}", ConfigError)
    model_path = os.path.join(os.path.dirname(os.path.abspath(path)), model_ref["path"])
    if not os.path.exists(model_path):
        raise ConfigError(f"model file not found: {model_path}")
    with open(model_path, "rb") as fh:
        digest = sha256(fh.read()).hexdigest()
    if digest != model_ref["sha256"]:
        raise ConfigError(
            f"model hash mismatch for {model_path}: expected {model_ref['sha256']!r}, got {digest!r}"
        )
    model = nbc_mod.load_model(model_path)

    discretization = {
        key: check_kind(bounds, "array of numbers", f"discretization of {where}: {key}", ConfigError)
        for key, bounds in doc["discretization"].items()
    }
    # the cross-checks of EngineConfig, and of the severity diagram it
    # builds, judge the document too, so each of their errors names it
    try:
        return EngineConfig(
            specs={
                key: DiscretizationSpec(ComponentId.parse(key), tuple(bounds))
                for key, bounds in discretization.items()
            },
            severity_components=tuple(ComponentId.parse(k) for k in doc["severity_components"]),
            model=model,
            severity_mapping=tuple(doc.get("severity_mapping", _SEVERITY_MAPPING)),
            loop_rule=LoopRule(**sections["loop_rule"]),
            preprocess=PreprocessPolicy(**sections["preprocess"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
