"""Multi-state domain types shared by every stage of the pipeline.

State levels are small non-negative integers with a fixed project-wide
meaning: 0 = normal work, 1 = minor fault, 2 = serious fault.  Raw
metrics are mapped onto usage buckets by a ``DiscretizationSpec``; the
engine collapses the four buckets of the default boundaries (0-25,
25-50, 50-75, 75-100 %) onto the three fault states through
``EngineConfig.severity_mapping``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import re
from array import array
from collections import Counter, namedtuple
from typing import Iterable, Iterator, Mapping, Sequence

try:
    # the one SHA-256 of the package: the built-in module, as random.py
    # takes _sha512, since hashlib loads OpenSSL, which costs more
    # start-up than afdi's few small digests; CPython 3.12 renamed the
    # module _sha2, and hashlib stands in where neither is built
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "ComponentId",
    "StateVector",
    "StateDistribution",
    "DiscretizationSpec",
    "MetricSample",
    "OutOfRangeError",
    "SampleColumns",
    "SequencingError",
    "check_entries",
    "check_kind",
    "check_origin",
    "discretize",
    "index_cell",
    "left_sum",
    "read_document",
    "read_metric_samples",
    "read_sample_columns",
    "read_table",
    "sha256",
    "write_metric_samples",
    "write_table",
]

SCOPE_LEVELS = ("vm", "host")


class OutOfRangeError(ValueError):
    """Raised when a value falls outside the discretization range."""


class SequencingError(ValueError):
    """A series delivered samples with decreasing timestamps."""


def left_sum(values: Iterable[float]) -> float:
    """The total of ``values`` added left to right from 0, as ``sum()``
    adds before CPython 3.12: ints exactly, floats one rounded addition at
    a time.  From 3.12 ``sum()`` compensates float additions, so its last
    bits, and an acceptance check at a tolerance's edge, depend on the
    build."""
    total = 0
    for value in values:
        total += value
    return total


class _Record:
    """Base of the slotted records: ``==`` and ``repr`` over ``_fields``,
    the attributes a record's value is made of, as a dataclass gives them.
    A record of this class alone is mutable and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A hashable ``_Record`` whose attributes cannot be assigned or
    deleted.  Its constructor takes the ``_fields`` in order, and sets its
    slots with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class ComponentId(_Frozen):
    """A monitored component: a metric name plus its measurement scope.

    ``key`` is the stable string form used in config files, e.g.
    ``vm.cpu``; it is computed once and takes no part in ``repr``,
    ``==`` or ``hash``.
    """

    _fields = ("name", "level")
    __slots__ = (*_fields, "key")

    def __init__(self, name: str, level: str = "vm") -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        if level not in SCOPE_LEVELS:
            raise ValueError(f"component level must be one of {SCOPE_LEVELS}, got {level!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "key", f"{level}.{name}")

    @classmethod
    def parse(cls, key: str) -> "ComponentId":
        level, sep, name = key.partition(".")
        if not sep:
            raise ValueError(f"component key must look like 'vm.cpu', got {key!r}")
        return cls(name=name, level=level)


class StateVector(_Frozen):
    """One state level per component, in the model's declared order.  A
    level is a non-negative integer; a bool or a float is not one."""

    __slots__ = _fields = ("assignments",)

    def __init__(self, assignments: tuple[tuple[ComponentId, int], ...]) -> None:
        seen = set()  # component keys: equal keys are equal components, and hash faster
        for comp, lvl in assignments:
            if comp.key in seen:
                raise ValueError(f"duplicate component {comp.key} in state vector")
            seen.add(comp.key)
            if type(lvl) is not int:
                raise ValueError(f"state level of {comp.key} must be an integer, got {lvl!r}")
            if lvl < 0:
                raise ValueError(f"negative state level {lvl} for {comp.key}")
        object.__setattr__(self, "assignments", assignments)

    @classmethod
    def from_levels(cls, components: Sequence[ComponentId], levels: Sequence[int]) -> "StateVector":
        if len(components) != len(levels):
            raise ValueError(
                f"expected {len(components)} levels, got {len(levels)}"
            )
        return cls(tuple(zip(components, levels)))

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.assignments)


class StateDistribution(_Frozen):
    """Probability per state for one component (or for system levels),
    read through ``probs``.  A probability is an ``int`` or a ``float``;
    a bool is neither."""

    __slots__ = _fields = ("probs",)

    def __init__(self, probs: tuple[float, ...]) -> None:
        if not probs:
            raise ValueError("distribution must have at least one state")
        for p in probs:
            # float is tested first: every distribution afdi computes holds floats
            if type(p) is not float and type(p) is not int:
                raise ValueError(f"probability {p!r} is not a number")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        total = left_sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"distribution sums to {total}, not 1")
        object.__setattr__(self, "probs", probs)


class DiscretizationSpec(namedtuple("DiscretizationSpec", "component boundaries")):
    """Interval boundaries mapping a metric onto usage buckets.

    ``boundaries`` are strictly ascending within [0, 100].  Interval i is
    half-open [b_i, b_{i+1}) except the last, which is closed, so every
    value in [b_0, b_last] lands in exactly one interval, its bucket.
    """

    __slots__ = ()

    def __new__(cls, component: ComponentId, boundaries: tuple[float, ...]):
        if len(boundaries) < 2:
            raise ValueError("need at least two boundaries")
        for b in boundaries:
            if not 0.0 <= b <= 100.0:
                raise ValueError(f"boundary {b} outside [0, 100]")
        for lo, hi in zip(boundaries, boundaries[1:]):
            if not lo < hi:
                raise ValueError("boundaries must be strictly ascending")
        return tuple.__new__(cls, (component, boundaries))

    @property
    def num_intervals(self) -> int:
        return len(self.boundaries) - 1


def discretize(value: float, spec: DiscretizationSpec) -> int:
    """Map a raw value onto the index of its interval, its usage bucket.

    Intervals are half-open [lo, hi) except the last, which is closed,
    so a boundary value belongs to the upper interval.  Values outside
    [first boundary, last boundary] raise ``OutOfRangeError``; whether
    to clamp or reject beforehand is the caller's policy.
    """
    bounds = spec.boundaries
    if not bounds[0] <= value <= bounds[-1]:
        raise OutOfRangeError(
            f"{value} outside [{bounds[0]}, {bounds[-1]}] for {spec.component.key}"
        )
    idx = bisect.bisect_right(bounds, value) - 1
    if idx == spec.num_intervals:  # value == top boundary, last interval closed
        idx -= 1
    return idx


def check_origin(timestamp, host_id, vm_id) -> None:
    """Raise unless ``timestamp`` is an integer (not a bool), ``host_id``
    a string and ``vm_id`` a string or None: where and when a sample or
    an alarm was taken."""
    if type(timestamp) is not int:
        raise ValueError(f"timestamp must be an integer, got {timestamp!r}")
    if not isinstance(host_id, str):
        raise ValueError(f"host_id must be a string, got {host_id!r}")
    if vm_id is not None and not isinstance(vm_id, str):
        raise ValueError(f"vm_id must be a string or None, got {vm_id!r}")


def _check_fit(vm_id, metric: ComponentId) -> None:
    """Raise unless ``metric``'s level allows ``vm_id``: an id for vm, None for host."""
    if metric.level == "host" and vm_id is not None:
        raise ValueError(f"host-level metric {metric.key} must not carry vm_id")
    if metric.level == "vm" and vm_id is None:
        raise ValueError(f"vm-level metric {metric.key} requires vm_id")


def _check_sample(timestamp, host_id, vm_id, metric: ComponentId, value) -> None:
    """Raise unless the fields make a sample: ``check_origin``, ``_check_fit``
    and a finite ``value``."""
    check_origin(timestamp, host_id, vm_id)
    _check_fit(vm_id, metric)
    if not math.isfinite(value):
        raise ValueError(f"{metric.key}: non-finite value {value}")


class MetricSample(namedtuple("MetricSample", "timestamp host_id vm_id metric value")):
    """One timestamped telemetry reading for a component.

    ``value`` is a percent for utilization metrics, transactions/second
    for throughput, and milliseconds for latency.  Out-of-range raw
    utilization values are accepted here and handled by preprocessing;
    a non-finite value (NaN or an infinity) is rejected, and so is a
    ``timestamp`` that is not an integer (``1.5``, ``True``), a
    ``host_id`` that is not a string or a ``vm_id`` that is neither a
    string nor None.

    A sample is an immutable tuple with no instance dict.  The
    constructor checks it; code that has already made those checks
    builds one with ``tuple.__new__(MetricSample, fields)``, and the
    inherited ``_make`` and ``_replace`` check nothing either; the
    engine's stages take a list through ``SampleColumns.of``, which does.
    """

    __slots__ = ()

    def __new__(cls, timestamp: int, host_id: str, vm_id: str | None, metric: ComponentId, value: float):
        _check_sample(timestamp, host_id, vm_id, metric, value)
        return tuple.__new__(cls, (timestamp, host_id, vm_id, metric, value))

    def to_json_obj(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "host_id": self.host_id,
            "vm_id": self.vm_id,
            "metric": self.metric.name,
            "value": self.value,
            "level": self.metric.level,
        }


# records appended to ``SampleColumns`` between two folds of its tails
_FOLD_RECORDS = 8192


class SampleColumns:
    """A sample stream as per-series columns, and its stream order.

    A series is the samples of one ``(host_id, vm_id, metric)``: it holds
    a column of their timestamps and one of their values, each in stream
    order.  A value column is an ``array('d')``, so a value is held as a
    float, an int or a bool value too, with the sign of a zero kept.
    ``series`` names each series, in the order the stream first gave one
    of its samples, and ``order``, an ``array`` of the narrowest unsigned
    type that holds every series index (``'B'`` for up to 256 series,
    then ``'H'``, then ``'I'``), holds the index of the series of each
    sample of the stream in turn.  ``len`` is the number of samples, and
    iterating yields the ``MetricSample``s in stream order, each built as
    it is taken.  Equal host and VM ids of the series are one object, and
    so are equal timestamp columns.

    ``_series_of`` opens each series once its component is valid and fits
    its vm_id, ``_extend`` fills the columns and ``_complete`` ends them,
    for every producer: the reader's scan, its decoded chunks and its
    per-line fallback, and ``of`` for a list of samples; both check each
    sample as ``MetricSample`` does, so every value is finite, and
    ``_complete`` refuses a series whose timestamps fall, so every
    timestamp column is in time order.  While the columns are filled, a
    series' latest timestamps wait in its tail until ``_fold`` appends
    them to its column.  ``preprocess`` cleans the value columns in
    place.
    """

    __slots__ = ("series", "timestamps", "values", "order", "_index", "_tails", "_unfolded")

    def __init__(self) -> None:
        self.series: list[tuple] = []  # (host_id, vm_id, metric) per series
        self.timestamps: list[list] = []  # one column per series
        self.values: list[array] = []  # one array('d') column per series
        self.order = array("B")  # the series of each sample, in stream order
        self._index: dict[tuple, int] = {}  # (host_id, vm_id, name, level) -> series
        self._tails: list[list] = []  # per series, the timestamps appended since the last fold
        self._unfolded = 0  # the records appended since the last fold

    @classmethod
    def of(cls, samples: Iterable[MetricSample]) -> "SampleColumns":
        """The columns of ``samples``, each checked as ``MetricSample``
        checks it; the first in list order that it would refuse raises
        ``ValueError("sample <i>: <reason>")``, and then a series whose
        timestamps fall raises as ``_complete`` documents."""
        columns = cls()
        samples = list(samples)
        for i, sample in enumerate(samples):
            try:
                _check_sample(*sample)
            except (TypeError, ValueError, OverflowError) as exc:  # isfinite("1"), isfinite(10**400)
                raise ValueError(f"sample {i}: {exc}") from None
        if samples:
            timestamps, hosts, vms, metrics, values = zip(*samples)
            names = tuple(map(operator.attrgetter("name"), metrics))
            levels = tuple(map(operator.attrgetter("level"), metrics))
            shared = dict(zip(zip(names, levels), metrics))
            columns._extend(columns._series_of(list(zip(hosts, vms, names, levels)), shared), timestamps, values)
        columns._complete()
        return columns

    def _series_of(self, keys: list[tuple], shared: dict) -> list[int]:
        """The series of each record key ``(host_id, vm_id, metric name,
        level)`` of ``keys``.  A key not seen before opens a series, in the
        order of ``keys``, once its ``_component`` in ``shared`` passes
        ``_check_fit``, and its ids are interned in ``shared``; ``order``
        is widened when an index no longer fits it."""
        index = self._index
        try:
            return list(map(index.__getitem__, keys))
        except KeyError:
            for key in keys:
                if key not in index:
                    host, vm, name, level = key
                    metric = _component(name, level, shared)
                    _check_fit(vm, metric)
                    index[key] = len(self.series)
                    self.series.append((shared.setdefault(host, host), shared.setdefault(vm, vm), metric))
                    self.timestamps.append([])
                    self._tails.append([])
                    self.values.append(array("d"))
            width = next(code for code in "BHI" if len(self.series) <= 1 << 8 * array(code).itemsize)
            if width != self.order.typecode:
                self.order = array(width, self.order)
            return list(map(index.__getitem__, keys))

    def _extend(self, series: list[int], timestamps, values) -> None:
        """Append each record to the columns of its series, whose index
        ``series`` holds, its timestamp to the series' tail.  Once
        ``_FOLD_RECORDS`` records have been appended since the last fold,
        the tails are folded."""
        self.order.fromlist(series)
        add_timestamp = [tail.append for tail in self._tails]
        add_value = [column.append for column in self.values]
        for i, timestamp, value in zip(series, timestamps, values):
            add_timestamp[i](timestamp)
            add_value[i](value)
        self._unfolded += len(series)
        if self._unfolded >= _FOLD_RECORDS:
            self._fold()

    def _fold(self) -> None:
        """Append each series' tail to its timestamp column and empty the
        tails; afterwards equal columns are one list.

        Series that held one column and have equal tails hold one column
        again: the held column itself, extended in place, when every series
        that holds it took that tail, else a copy per distinct tail, so a
        series' column grows in place unless its holders part.  Then the
        distinct columns are compared by value, each only with those of
        its length and last timestamp, and equal ones become the first of
        them."""
        held = self.timestamps  # keeps every held column alive, so no two share an id
        holders = Counter(map(id, held))
        groups: dict[int, list] = {}  # per held column's id: [tail, series...] for each distinct tail
        for s, (column, tail) in enumerate(zip(held, self._tails)):
            if tail:
                made = groups.setdefault(id(column), [])
                for group in made:
                    if group[0] == tail:
                        group.append(s)
                        break
                else:
                    made.append([tail, s])
        grown = list(held)
        for key, made in groups.items():
            column = held[made[0][1]]
            if len(made) == 1 and len(made[0]) - 1 == holders[key]:
                column += made[0][0]
                continue
            for tail, *members in made:
                new = column + tail
                for s in members:
                    grown[s] = new
        for tail in self._tails:
            tail.clear()
        self._unfolded = 0
        ends: dict[tuple, list] = {}  # the distinct columns kept, by (length, last timestamp)
        one = {}
        for key, column in {id(column): column for column in grown}.items():
            kept = ends.setdefault((len(column), column[-1] if column else None), [])
            one[key] = next(filter(column.__eq__, kept), column)
            if one[key] is column:
                kept.append(column)
        self.timestamps = [one[id(column)] for column in grown]

    def _complete(self) -> None:
        """Fold the tails, once no record is left to append.  Then raise
        ``SequencingError`` for the first sample, in stream order, that is
        earlier than the one before it in its series; a column that series
        share is judged once."""
        self._fold()
        falls = {}  # the first fall of each distinct column that falls, keyed by identity
        for column in {id(column): column for column in self.timestamps}.values():
            if not all(map(operator.le, column, itertools.islice(column, 1, None))):
                falls[id(column)] = next(i for i in range(1, len(column)) if column[i] < column[i - 1])
        errors = {}
        for s, ((host, vm, metric), stamps) in enumerate(zip(self.series, self.timestamps)):
            i = falls.get(id(stamps))
            if i is not None:
                key = (host, vm, metric.key)
                errors[s] = (i, SequencingError(f"series {key}: timestamp {stamps[i]} after {stamps[i - 1]}"))
        self.raise_first(errors)

    def raise_first(self, errors: Mapping[int, tuple]) -> None:
        """Raise, of ``errors``, each ``(index of a sample within its
        series, error)`` keyed by the series, the error of the sample that
        the stream gives first, if there is one."""
        if not errors:
            return
        ahead = {s: i for s, (i, _) in errors.items()}  # samples of each series before its bad one
        for s in self.order:
            if s in ahead:
                if not ahead[s]:
                    raise errors[s][1]
                ahead[s] -= 1

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[MetricSample]:
        rows = [
            map(tuple.__new__, itertools.repeat(MetricSample),
                zip(timestamps, itertools.repeat(host), itertools.repeat(vm), itertools.repeat(metric), values))
            for (host, vm, metric), timestamps, values in zip(self.series, self.timestamps, self.values)
        ]
        return map(next, map(rows.__getitem__, self.order))


def write_metric_samples(samples: Iterable[MetricSample], path) -> int:
    """Write samples as JSON Lines; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps(s.to_json_obj(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


_NOT_A_RECORD = (
    "a record must be a JSON object with exactly the keys "
    "host_id, level, metric, timestamp, value and vm_id"
)


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``, its keys in order; a key given twice
    raises ``ValueError``, where ``json`` would keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


# the decoder of stream records; every object it builds has distinct keys
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# the reason given for JSON nested deeper than the decoder recurses
_TOO_DEEP = "JSON nested too deeply to decode"
# lines decoded by one decode call; a chunk's joined text stays far
# below the size of the samples it yields
_CHUNK_LINES = 1024
# the values of a record's six wire keys
_wire_values = operator.itemgetter("timestamp", "host_id", "vm_id", "metric", "level", "value")
_first_char, _last_char = operator.itemgetter(0), operator.itemgetter(-1)
# a line as write_metric_samples writes it: the six keys sorted, the
# default separators, and strings that json.dumps leaves unescaped,
# padded by any whitespace str.strip takes off but a newline.  The
# groups are the series head (the host_id, level and metric entries, as
# one string), the timestamp token, the value token and the vm_id token.
# re compiles it on the first read, so importing costs nothing.
_PAD = r"[^\S\n]*"
_CHARS = r'[^"\\\x00-\x1f]*'
_INTEGER = r"-?(?:0|[1-9][0-9]*)"
_CANONICAL_LINE = (
    rf'^{_PAD}\{{("host_id": "{_CHARS}", "level": "{_CHARS}", "metric": "{_CHARS}"), '
    rf'"timestamp": ({_INTEGER}), '
    rf'"value": ({_INTEGER}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"vm_id": (null|"{_CHARS}")\}}{_PAD}$'
)


def _component(name: str, level: str, shared: dict) -> ComponentId:
    """The one ``ComponentId`` of ``(name, level)`` in ``shared``; raises if invalid."""
    metric = shared.get((name, level))
    if metric is None:
        metric = shared[name, level] = ComponentId(name, level)
    return metric


def _route(head: str, vm_token: str) -> tuple:
    """The record key ``(host_id, vm_id, name, level)`` of the canonical
    lines with series head ``head`` and vm_id token ``vm_token``.  The
    head's strings hold no ``"``, so they sit between its quotes."""
    host, level, name = head.split('"')[3::4]
    return host, None if vm_token == "null" else vm_token[1:-1], name, level


def _scanned_records(chunk: list[str], columns: SampleColumns, routes: dict, shared: dict) -> tuple | None:
    """The arguments of ``columns._extend`` for a chunk of lines as read,
    if each line is blank or canonical, padded or not; else None.  A
    failed check raises its reason.

    The anchored pattern matches only within one line, at most once, and
    never a blank one, so one match per line that is not blank means
    every such line matched whole.  A string token without ``"``, ``\\`` or a
    control character is its own text, and ``int`` and ``float`` are the
    calls the JSON decoder makes on an integer and a float token, so the
    records are those the decoded lines give.  A value token always has
    a fraction or an exponent: the decoder reads an integer literal as an
    int, and ``float`` of the int is not ``float`` of the text for ``-0``
    or for a literal too large for a float.

    A line is routed to the index of its series by its series head, then
    its vm_id token, through the stream's ``routes``.  The routes a chunk
    holds for the first time go through ``_series_of`` in the order of
    their first lines, which checks each new series once.  A chunk that
    fails a check fails it line by line too, so the read raises.  Each
    distinct timestamp token of the chunk is parsed once, and only the
    values are checked per line.  The first line that is not blank is
    matched alone, so that a stream in another form does not pay a failed
    scan of every chunk.
    """
    first = next(filter(str.strip, chunk), None)
    if first is None or re.match(_CANONICAL_LINE, first, re.MULTILINE) is None:
        return None
    rows = re.findall(_CANONICAL_LINE, "".join(chunk), re.MULTILINE)
    if len(rows) != len(chunk) and len(rows) != len(list(filter(str.strip, chunk))):
        return None
    heads, timestamps, values, vm_tokens = zip(*rows)
    try:
        series = list(map(dict.__getitem__, map(routes.__getitem__, heads), vm_tokens))
    except KeyError:
        new = [route for route in dict.fromkeys(zip(heads, vm_tokens)) if route[1] not in routes.get(route[0], ())]
        keys = [_route(head, vm_token) for head, vm_token in new]
        for (head, vm_token), s in zip(new, columns._series_of(keys, shared)):
            routes.setdefault(head, {})[vm_token] = s
        series = list(map(dict.__getitem__, map(routes.__getitem__, heads), vm_tokens))
    timestamp_of = {}
    for token in set(timestamps):
        timestamp = int(token)  # over 4300 digits raises, as it does in the decoder
        timestamp_of[token] = shared.setdefault(timestamp, timestamp)
    timestamps = list(map(timestamp_of.__getitem__, timestamps))
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return series, timestamps, values


def _checked_records(objs: list, columns: SampleColumns, shared: dict) -> tuple:
    """The arguments of ``columns._extend`` for decoded records, checked a
    column at a time as ``read_sample_columns`` documents; a failed check
    raises its reason, for a lone record the reason of the first check it
    fails.  New series open through ``_series_of``."""
    # six entries, and all six wire keys read below: no other key
    if set(map(type, objs)) != {dict} or set(map(len, objs)) != {6}:
        raise ValueError(_NOT_A_RECORD)
    try:
        timestamps, hosts, vms, names, levels, values = zip(*map(_wire_values, objs))
    except KeyError:
        raise ValueError(_NOT_A_RECORD) from None
    if set(map(type, hosts)) != {str} or not set(map(type, vms)) <= {str, type(None)}:
        raise ValueError("host_id must be a string and vm_id a string or null")
    if set(map(type, names)) != {str} or set(map(type, levels)) != {str}:
        raise ValueError("metric and level must be strings")
    for name, level in set(zip(names, levels)):
        _component(name, level, shared)
    # bool is a subclass of int, so the types are compared exactly
    if set(map(type, timestamps)) != {int}:
        bad = next(t for t in timestamps if type(t) is not int)
        raise ValueError(f"timestamp must be a JSON integer, got {json.dumps(bad)}")
    value_types = set(map(type, values))
    if not value_types <= {int, float}:
        bad = next(v for v in values if type(v) is not int and type(v) is not float)
        raise ValueError(f"value must be a JSON int or float, got {json.dumps(bad)}")
    if int in value_types:
        values = tuple(map(float, values))
    series = columns._series_of(list(zip(hosts, vms, names, levels)), shared)
    if not all(map(math.isfinite, values)):
        value, name, level = next(record for record in zip(values, names, levels) if not math.isfinite(record[0]))
        raise ValueError(f"{level}.{name}: non-finite value {value}")
    return series, map(shared.setdefault, timestamps, timestamps), values


def _chunk_records(chunk: list[str], columns: SampleColumns, routes: dict, shared: dict) -> tuple | None:
    """The checked records of one chunk of lines as read, from one scan or
    decode call, or None when its lines must be decoded one by one.

    Canonical lines are scanned; any other chunk is decoded as one JSON
    array of its stripped lines that are not blank.  This equals decoding
    each line: no JSON token holds a raw newline and a valid record holds
    only scalars, so when every line starts with ``{`` and ends with
    ``}``, and the array has one element per line, each a valid record,
    the i-th element is the i-th line's object.  Scanned records equal
    the decoded ones, so a scanned chunk that fails a check would fail it
    decoded too, and goes line by line.
    """
    try:
        records = _scanned_records(chunk, columns, routes, shared)
        if records is not None:
            return records
        lines = list(filter(None, map(str.strip, chunk)))
        if not lines or set(map(_first_char, lines)) != {"{"} or set(map(_last_char, lines)) != {"}"}:
            return None
        objs = _DECODER.decode("[" + "\n,".join(lines) + "]")
        if len(objs) != len(lines):
            return None
        return _checked_records(objs, columns, shared)
    except (ValueError, OverflowError, RecursionError):
        return None


def _line_record(path, line_no: int, line: str, columns: SampleColumns, shared: dict) -> tuple:
    """The checked record of one stripped line, as a one-record column; a
    bad record raises naming the line."""
    try:
        # the line is stripped, so this accepts what json.loads accepts, but a repeated key
        obj, end = _DECODER.raw_decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        return _checked_records([obj], columns, shared)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: line {line_no}: {_TOO_DEEP}") from None


def read_sample_columns(path) -> SampleColumns:
    """Read a JSON Lines stream into per-series columns; a bad record
    raises naming its line.

    Blank lines are skipped.  Every other line must hold one JSON object
    with exactly the six wire keys, each once: ``host_id``, ``metric``
    and ``level`` strings, ``vm_id`` a string or null, ``timestamp`` a
    JSON integer and ``value`` a JSON integer or float (``true`` and
    ``"42.5"`` are neither).  Anything else, and any sample ``MetricSample`` rejects,
    raises ``ValueError`` naming the path and the 1-based line.  The
    columns share one object per distinct timestamp, ``host_id`` and
    ``vm_id``, one ``ComponentId`` per component and one list per
    distinct timestamp column.

    Lines are taken ``_CHUNK_LINES`` at a time: a chunk of canonical
    lines, as ``write_metric_samples`` writes them, is scanned with one
    regular expression, each series checked once, any other decoded with
    one ``_DECODER`` call and checked a column at a time, and either is
    appended to the columns once all of it has passed; a chunk that does
    not give one valid record per line is decoded again line by line,
    each line checked as a one-record column, which names the first bad
    line and its reason.  JSON nested too deeply to decode is a bad
    record too.  Bytes that are not UTF-8 raise ``ValueError`` naming the
    path.
    """
    columns = SampleColumns()
    # one object per distinct timestamp, host_id and vm_id, and a
    # ComponentId per valid (name, level) pair
    shared: dict = {}
    # the scan's routes: series head -> vm_id token -> series
    routes: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        first_line = 1
        try:
            while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
                records = _chunk_records(chunk, columns, routes, shared)
                if records is not None:
                    columns._extend(*records)
                else:
                    for line_no, line in enumerate(chunk, start=first_line):
                        line = line.strip()
                        if line:
                            columns._extend(*_line_record(path, line_no, line, columns, shared))
                first_line += len(chunk)
        except UnicodeDecodeError as exc:  # text is decoded a block ahead of the lines
            raise ValueError(f"{path}: {exc}") from None
    columns._complete()
    return columns


def read_metric_samples(path) -> list[MetricSample]:
    """The samples of the JSON Lines stream at ``path``, in stream order:
    the list form of ``read_sample_columns``, which reads and checks it."""
    return list(read_sample_columns(path))


# Python types of each JSON kind a loaded document may hold; compared
# exactly, so true is no integer and 2.7 no integer either
_JSON_KINDS = {
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "string": (str,),
    "string or null": (str, type(None)),
    "object": (dict,),
    "array": (list,),
}


def read_document(source):
    """``source`` itself if it is a dict, else the JSON document at path
    ``source``; bytes that are not UTF-8, text that is not JSON, an object
    that repeats a key and JSON nested too deeply to decode raise
    ``ValueError`` naming the path."""
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{source}: {_TOO_DEEP}") from None
        except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
            raise ValueError(f"{source}: {exc}") from None


def check_kind(value, kind: str, name: str, error: type[Exception] = ValueError):
    """``value``, with every number in it a float, if it is of the JSON ``kind``; else raises
    ``error``: ``<name> must be a JSON <kind>, got <value>``.  A kind is a key of
    ``_JSON_KINDS`` or ``array of`` a plural kind, such as ``array of arrays of numbers``."""
    if kind.startswith("array of "):
        plural, _, rest = kind[len("array of "):].partition(" ")
        item_kind = plural[:-1] + (" " + rest if rest else "")
        if type(value) is list:
            try:
                return [check_kind(item, item_kind, name, error) for item in value]
            except error:
                pass  # the message names the whole value
    elif type(value) in _JSON_KINDS[kind]:
        if kind != "number":
            return value
        try:
            return float(value)
        except OverflowError:
            raise error(f"{name} is too large for a float, got {json.dumps(value)}") from None
    raise error(f"{name} must be a JSON {kind}, got {json.dumps(value)}")


def check_entries(obj, kinds: Mapping, required: Sequence, where: str, error=ValueError) -> dict:
    """The entries of the JSON object ``obj``, named ``where``, each checked by ``check_kind``;
    a key outside ``kinds`` or a missing ``required`` key raises ``error``."""
    check_kind(obj, "object", where, error)
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise error(f"unknown keys {unknown} in {where}")
    for key in required:
        if key not in obj:
            raise error(f"{where} missing field {key!r}")
    return {key: check_kind(value, kinds[key], f"{where}: {key}", error) for key, value in obj.items()}


def index_cell(cell: str) -> int:
    """The integer of a table's index cell, which holds ASCII decimal digits only;
    anything else (``1_0``, `` +1 ``, ``-1``, ``١``) raises ``ValueError``."""
    if cell.isascii() and cell.isdigit():
        return int(cell)
    raise ValueError(f"invalid literal for int() with base 10: {cell!r}")


def read_table(path, parse, error=ValueError, header=None) -> tuple[list[str], list[tuple[int, object]]]:
    """The header row of the CSV table at ``path`` and, for each later
    non-blank row, its 1-based line and ``parse`` of its cells.  A header
    other than the list ``header`` if named, a row whose width is not the
    header's or that ``csv`` cannot split, and a ``ValueError`` from
    ``parse`` raise ``error`` naming the path and the line; bytes that
    are not UTF-8 raise it naming the path."""
    import csv  # here, not at the top: the engine path reads no CSV

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            first = next(reader, [])
            if header is not None and first != header:
                raise ValueError(f"header mismatch: expected {header}, got {first}")
            for cells in filter(None, reader):
                if len(cells) != len(first):
                    raise ValueError(f"expected {len(first)} columns, got {len(cells)}")
                rows.append((reader.line_num, parse(cells)))
        except UnicodeDecodeError as exc:  # text is decoded a block ahead of the rows
            raise error(f"{path}: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise error(f"{path}: line {reader.line_num or 1}: {exc}") from None
    return first, rows


def write_table(path, header: Sequence, rows: Iterable[Sequence]) -> int:
    """Write ``header`` and ``rows`` as a CSV table (``None`` as an empty
    cell); returns the number of rows."""
    import csv

    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return len(rows)
