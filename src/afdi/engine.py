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

import json
import math
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from itertools import chain, islice, repeat
from operator import itemgetter, le, lt
from typing import Iterable, NamedTuple, Sequence

from . import mdd as mdd_mod
from . import nbc as nbc_mod
from .states import ComponentId, DiscretizationSpec, MetricSample, SampleColumns, _Record
from .states import check_entries, check_kind, check_origin, read_document, sha256

__all__ = [
    "PreprocessPolicy",
    "Alarm",
    "VirtualSensor",
    "EngineConfig",
    "Engine",
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


class SequencingError(ValueError):
    """A series delivered samples with decreasing timestamps."""


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


def _nan_error(key: tuple, timestamp: int) -> ValueError:
    return ValueError(f"series {key}: value at timestamp {timestamp} is NaN")


def _raise_first(columns: SampleColumns, errors: dict) -> None:
    """Raise, of ``errors``, each ``(index of a sample within its series,
    error)`` keyed by the series, the error of the sample that comes
    first in the stream, if there is one."""
    if errors:
        raise errors[columns.first({s: i for s, (i, _) in errors.items()})][1]


def _check_series(columns: SampleColumns) -> None:
    """Raise the error ``preprocess`` finds first, as a pass over the
    stream would: the first sample, in stream order, that is earlier than
    the one before it in its series or a NaN of a percent metric (which
    clamping would turn into 0.0); then the first NaN of the first
    series, in first-seen order, that holds one."""
    early, late = {}, None
    series = zip(columns.series, columns.timestamps, columns.values)
    for s, ((host, vm, metric), stamps, vals) in enumerate(series):
        # a NaN makes the sum NaN, and so does inf beside -inf, which
        # only a sample built unchecked holds and the search below clears
        total = sum(vals)
        if all(map(le, stamps, islice(stamps, 1, None))) and total == total:
            continue
        key, n = (host, vm, metric.key), len(stamps)
        back = next((i for i in range(1, n) if stamps[i] < stamps[i - 1]), n)
        nan = next((i for i, v in enumerate(vals) if v != v), n)
        if nan < back and metric.name in PERCENT_METRIC_NAMES:
            early[s] = (nan, _nan_error(key, stamps[nan]))
        elif back < n:
            early[s] = (back, SequencingError(f"series {key}: timestamp {stamps[back]} after {stamps[back - 1]}"))
        elif nan < n and late is None:
            late = _nan_error(key, stamps[nan])
    _raise_first(columns, early)
    if late is not None:
        raise late


def preprocess(samples: Iterable[MetricSample] | SampleColumns, policy: PreprocessPolicy | None = None):
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
    walks its positions as contiguous runs, the whole series first: one
    sorted window slides along the full windows of a run, and only the at
    most ``window // 2`` positions at each end of the series, whose window
    is shrunken, slice and sort their own.  The result equals slicing and
    sorting every window, down to the sign of a zero median.

    The filter runs on the value column of each series of a
    ``SampleColumns``, and the result is a ``SampleColumns`` with new
    value columns where a value changed.  Given any other iterable of
    samples, preprocess takes it through ``SampleColumns.of`` and gives a
    list, in which a sample whose value stayed is the sample given.

    A sample earlier than the one before it in its series raises
    ``SequencingError``, and a NaN value, which only a sample built
    unchecked can hold, ``ValueError`` naming its series and timestamp;
    a changed value that is not finite raises the error ``MetricSample``
    gives it.  Of several such samples, the one a pass over the stream
    would meet first raises.
    """
    listed = None
    if not isinstance(samples, SampleColumns):
        listed = list(samples)
        samples = SampleColumns.of(listed)
    policy = policy or PreprocessPolicy()
    _check_series(samples)
    window = policy.window
    half = window // 2
    j = (half + 1) // 2  # ceil(half / 2), for the MAD lower bound below
    above, below = half + j, half - j
    cutoff = policy.z_cutoff
    cleaned, infinite = [], {}
    for s, ((_, _, metric), given) in enumerate(zip(samples.series, samples.values)):
        vals = given
        if metric.name in PERCENT_METRIC_NAMES and not 0.0 <= min(vals) <= max(vals) <= 100.0:
            vals = [v if 0.0 <= v <= 100.0 else min(100.0, max(0.0, v)) for v in vals]
        n = len(vals)
        runs = [(0, n)]
        for _ in range(_MAX_PASSES):
            # synchronous update: every position of a pass reads the same
            # vals, and the replacements land only after the pass
            replaced = []
            for a, b in runs:
                # positions p .. q-1 have a full window; the at most half
                # at each end have a window that end shrinks
                p, q = max(a, half), min(b, n - half)
                for i in chain(range(a, min(b, half)), range(max(p, n - half), b)):
                    w = vals[max(0, i - half) : i + half + 1]
                    w.sort()
                    # the median of an even window is the mean of the
                    # middle pair, as statistics.median computes it
                    k, odd = divmod(len(w), 2)
                    med = w[k] if odd else (w[k - 1] + w[k]) / 2
                    dev = sorted([abs(v - med) for v in w])
                    mad = dev[k] if odd else (dev[k - 1] + dev[k]) / 2
                    if abs(vals[i] - med) / (mad * _MAD_SCALE + _EPS) > cutoff:
                        replaced.append((i, med))
                if p >= q:
                    continue
                # one sorted list slides over the full windows: each step
                # inserts the entering value right of its equals and, once
                # the position is judged, deletes the leftmost value equal
                # to the leaving one, so equal values keep their order in
                # the slice and w is sorted(vals[i - half : i + half + 1])
                # down to which zero the median takes
                w = vals[p - half : p + half]
                w.sort()
                steps = zip(range(p, q), vals[p:q], vals[p - half : q - half], vals[p + half : q + half])
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
            # z > cutoff > 0 needs vals[i] != med, so every replacement
            # changes a value and an empty pass is the fixed point
            if not replaced:
                break
            # the output at i reads only its own window, so the next pass
            # judges the windows that hold a replaced sample: the merged
            # runs of positions within half of one, in order (a run's
            # edges were judged before its middle)
            replaced.sort()
            if vals is given:
                vals = given.copy()  # the columns given stay as they were
            runs = []
            for i, med in replaced:
                vals[i] = med
                start, stop = max(0, i - half), min(n, i + half + 1)
                if runs and start <= runs[-1][1]:
                    runs[-1][1] = stop
                else:
                    runs.append([start, stop])
        if vals is not given and not all(map(math.isfinite, vals)):
            # a value the filter changed is checked as a new sample's is
            changed = (i for i, (v, w) in enumerate(zip(given, vals)) if v != w and not math.isfinite(w))
            i = next(changed, None)
            if i is not None:
                infinite[s] = (i, ValueError(f"{metric.key}: non-finite value {vals[i]}"))
        cleaned.append(vals)
    _raise_first(samples, infinite)
    cleaned = samples.with_values(cleaned)
    if listed is None:
        return cleaned
    return [s if s.value == c.value else MetricSample(*c) for s, c in zip(listed, cleaned)]


class Window(NamedTuple):
    """The usage bucket of each windowed metric for one (host, vm) scope
    at one time, in the order of the specs the window was collected by."""

    timestamp: int
    host_id: str
    vm_id: str
    buckets: tuple[int, ...]


def collect_windows(
    samples: Iterable[MetricSample] | SampleColumns, specs: Sequence[DiscretizationSpec]
) -> list[Window]:
    """Group a sample stream into per-scope windows by exact timestamp,
    putting each sample of a windowed metric in its usage bucket once.

    ``specs`` name the windowed metrics, one spec each, in bucket order.
    A value is bucketed as ``discretize`` buckets it clamped to its
    spec's bounds, so a value past either end lands in the edge bucket;
    NaN has no bucket and raises.  Host-level metrics are shared by every
    VM on that host.  A window missing any windowed metric, or given one
    twice, raises; windows come back sorted by (timestamp, host, vm) so
    downstream processing is deterministic.  Windows with equal buckets
    share one tuple.

    Samples come as a ``SampleColumns`` or any iterable of samples, which
    is taken through ``SampleColumns.of``.  Each windowed series is
    bucketed a column at a time, and a VM's windows are the times of the
    samples of its scope: every windowed column of the scope, and its
    host's, must have one sample at each of them.  Of several NaNs or
    second samples, the one first in the stream raises, before any
    missing metric, and of several missing metrics the one of the first
    window, first in spec order.
    """
    columns = samples if isinstance(samples, SampleColumns) else SampleColumns.of(samples)
    # position and inner boundaries per windowed key: searching the inner
    # boundaries only puts a value past either end in the edge bucket
    routes = {spec.component.key: (i, spec.boundaries[1:-1]) for i, spec in enumerate(specs)}
    scopes: dict[tuple, list] = {}  # timestamp column of each vm-level series, per (host, vm)
    windowed: dict[tuple, tuple] = {}  # (timestamps, buckets) by (host, vm or None, position)
    faults = {}
    series = zip(columns.series, columns.timestamps, columns.values)
    for s, ((host, vm, metric), stamps, vals) in enumerate(series):
        if metric.level != "host":
            scopes.setdefault((host, vm), []).append(stamps)
        route = routes.get(metric.key)
        if route is None:
            continue
        i, inner = route
        total = sum(vals)  # NaN if a value is
        if not all(map(lt, stamps, islice(stamps, 1, None))) or total != total:
            # in time order, a sample at the time of the one before it is a
            # second sample; the earliest in the stream of those and the
            # NaNs raises
            ranks = sorted(range(len(stamps)), key=stamps.__getitem__)
            stamps, vals = [stamps[r] for r in ranks], [vals[r] for r in ranks]
            bad = [(r, k) for k, r in enumerate(ranks) if vals[k] != vals[k] or k and stamps[k] == stamps[k - 1]]
            if bad:
                r, k = min(bad)
                scope = host if metric.level == "host" else f"{host}/{vm}"
                fault = f"{metric.key} is NaN" if vals[k] != vals[k] else f"second sample of {metric.key}"
                faults[s] = (r, ValueError(f"window t={stamps[k]} {scope}: {fault}"))
                continue
        buckets = list(map(bisect_right, repeat(inner), vals))
        windowed[host, None if metric.level == "host" else vm, i] = (stamps, buckets)
    _raise_first(columns, faults)

    windows, missing = [], []
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
            vectors = map(interned.setdefault, vectors, vectors)
            windows += map(tuple.__new__, repeat(Window), zip(times, repeat(host), repeat(vm), vectors))
    if missing:
        ts, host, vm, i = min(missing)
        comp = specs[i].component
        raise IncompleteWindowError(f"window t={ts} {host}/{vm}: missing {comp.level} metric {comp.name!r}")
    # each scope's windows are in time order and the scopes in (host, vm)
    # order, so a stable sort by time gives (timestamp, host, vm) order
    windows.sort(key=itemgetter(0))
    return windows


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
    if abs(sum(diagnosis) - 1.0) > 1e-12:
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


class LoopRule(namedtuple("LoopRule", "k vm_cpu host_cpu throughput cpu_bucket throughput_bucket cause")):
    """Composite-pattern parameters for the sustained-loop detector: both
    CPU readings at or above usage bucket ``cpu_bucket`` and throughput at
    or below ``throughput_bucket`` for ``k`` windows in a row raise an
    alarm diagnosed as ``cause``.  The thresholds are integers (not
    bools), the three component keys and the cause strings."""

    __slots__ = ()

    def __new__(cls, k: int = 3, vm_cpu: str = "vm.cpu", host_cpu: str = "host.cpu",
                throughput: str = "vm.throughput", cpu_bucket: int = 3, throughput_bucket: int = 0,
                cause: str = "endless-loop"):
        rule = tuple.__new__(cls, (k, vm_cpu, host_cpu, throughput, cpu_bucket, throughput_bucket, cause))
        for name, value in zip(cls._fields, rule):
            if name in ("k", "cpu_bucket", "throughput_bucket"):
                if type(value) is not int:
                    raise ValueError(f"loop rule {name} must be an integer, got {value!r}")
            elif not isinstance(value, str):
                raise ValueError(f"loop rule {name} must be a string, got {value!r}")
        if k < 1:
            raise ValueError("loop rule needs k >= 1")
        return rule


class EngineConfig(_Record):
    """What the engine judges windows by: a discretization spec per
    component key, the NBC's attributes in feature order, the severity
    components, the model, the bucket-to-severity mapping, the loop rule
    and the preprocessing policy.  The constructor cross-checks them and
    builds the lookup tables a window needs."""

    _fields = (
        "specs", "attributes", "severity_components", "model", "severity_mapping", "loop_rule", "preprocess"
    )
    __slots__ = (
        *_fields, "window_specs", "attribute_keys", "feature_positions", "loop_positions", "loop_diagnosis",
        "severity_mdd", "severity_tables",
    )

    def __init__(
        self,
        specs: dict[str, DiscretizationSpec],  # keyed by ComponentId.key
        attributes: tuple[ComponentId, ...],  # NBC feature order
        severity_components: tuple[ComponentId, ...],
        model: nbc_mod.NbcModel,
        severity_mapping: tuple[int, ...] = _SEVERITY_MAPPING,
        loop_rule: LoopRule = LoopRule(),
        preprocess: PreprocessPolicy = PreprocessPolicy(),
    ) -> None:
        self.specs = specs
        self.attributes = attributes
        self.severity_components = severity_components
        self.model = model
        self.severity_mapping = severity_mapping
        self.loop_rule = loop_rule
        self.preprocess = preprocess
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
        self.attribute_keys = tuple(c.key for c in self.attributes)
        self.feature_positions = tuple(position[key] for key in self.attribute_keys)
        model_names = tuple(name for name, _ in self.model.schema.attributes)
        if model_names != self.attribute_keys:
            raise ConfigError(
                f"model attributes {model_names} do not match config attributes {self.attribute_keys}"
            )
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
        for key, field in ((rule.vm_cpu, "cpu_bucket"), (rule.host_cpu, "cpu_bucket"),
                           (rule.throughput, "throughput_bucket")):
            if key not in judged:
                raise ConfigError(
                    f"loop rule component {key} is neither an attribute nor a severity component"
                )
            # a threshold outside the buckets makes its part of the rule
            # never hold, or always
            threshold, buckets = getattr(rule, field), judged[key].num_intervals
            if not 0 <= threshold < buckets:
                raise ConfigError(f"loop rule {field} {threshold} is not a bucket of {key} (0..{buckets - 1})")
        if rule.cause not in self.classes:
            raise ConfigError(f"loop rule cause {rule.cause!r} not in model classes")
        self.loop_positions = tuple(position[key] for key in (rule.vm_cpu, rule.host_cpu, rule.throughput))
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


class Engine:
    """Stateful pipeline instance: windows in, alarms out.

    State is per-scope loop-rule streaks and what judging a window
    needs: the judgment of each bucket vector seen and each distinct
    diagnosis.  One engine handles one logical stream; make a new engine
    for a fresh run.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.nbc_invocations = 0
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
        rule = config.loop_rule
        vm_cpu, host_cpu, throughput = config.loop_positions
        severity = config.severity_mdd.evaluate_levels([table[buckets[i]] for i, table in config.severity_tables])
        cpu = min(buckets[vm_cpu], buckets[host_cpu])
        loop = cpu >= rule.cpu_bucket and buckets[throughput] <= rule.throughput_bucket
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
        windows of read or simulated samples make only valid ones.
        """
        timestamp, host, vm, buckets = window
        judged = self._judged.get(buckets)
        if judged is None:
            judged = self._judge(buckets)
        severity, loop, features = judged

        config = self.config
        scope = (host, vm)
        if loop:
            streak = self._streaks[scope] = self._streaks.get(scope, 0) + 1
            if streak == config.loop_rule.k:
                fields = (timestamp, host, vm, severity, TRIGGER_NBC, config.loop_diagnosis, config.loop_rule.cause)
                return [tuple.__new__(Alarm, fields)]
        else:
            self._streaks[scope] = 0

        if severity == 2:
            return [tuple.__new__(Alarm, (timestamp, host, vm, 2, TRIGGER_GATE, None, None))]
        if severity == 1:
            self.nbc_invocations += 1
            post = nbc_mod.posterior(config.model, features)
            diagnosis = self._diagnoses.get(post)
            if diagnosis is None:
                diagnosis = self._diagnoses[post] = (post, config.classes[nbc_mod.top_class(post)])
            return [tuple.__new__(Alarm, (timestamp, host, vm, 1, TRIGGER_NBC) + diagnosis)]
        return []

    def process_stream(self, samples: Iterable[MetricSample] | SampleColumns) -> list[Alarm]:
        """Preprocess, window, and step an entire stream in time order.
        The stream comes as ``SampleColumns``, as ``read_sample_columns``
        gives it, or as samples, which are put in columns first."""
        columns = samples if isinstance(samples, SampleColumns) else SampleColumns.of(samples)
        cleaned = preprocess(columns, self.config.preprocess)
        windows = collect_windows(cleaned, self.config.window_specs)
        alarms = []
        for window in windows:
            alarms += self.step(window)
        return alarms


# the JSON kind of each key of a config document and of its sections;
# the defaults live in EngineConfig, LoopRule and PreprocessPolicy
_CONFIG_KINDS = {
    "model": "object",
    "discretization": "object",
    "attributes": "array of strings",
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
        "cpu_bucket": "integer",
        "throughput_bucket": "integer",
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
    required = ("model", "discretization", "attributes", "severity_components")
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
            attributes=tuple(ComponentId.parse(k) for k in doc["attributes"]),
            severity_components=tuple(ComponentId.parse(k) for k in doc["severity_components"]),
            model=model,
            severity_mapping=tuple(doc.get("severity_mapping", _SEVERITY_MAPPING)),
            loop_rule=LoopRule(**sections["loop_rule"]),
            preprocess=PreprocessPolicy(**sections["preprocess"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
