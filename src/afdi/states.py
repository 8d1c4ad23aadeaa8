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
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, Sequence

try:
    # the one SHA-256 of the package: the built-in module, as random.py
    # takes _sha512, since hashlib loads OpenSSL, which costs more
    # start-up than afdi's few small digests; CPython 3.12 renamed the
    # module _sha2, and there hashlib stands in
    from _sha256 import sha256
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
    "check_entries",
    "check_kind",
    "check_origin",
    "discretize",
    "index_cell",
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
    """One state level per component, in the model's declared order."""

    __slots__ = _fields = ("assignments",)

    def __init__(self, assignments: tuple[tuple[ComponentId, int], ...]) -> None:
        seen = set()  # component keys: equal keys are equal components, and hash faster
        for comp, lvl in assignments:
            if comp.key in seen:
                raise ValueError(f"duplicate component {comp.key} in state vector")
            seen.add(comp.key)
            if lvl < 0:
                raise ValueError(f"negative state level {lvl} for {comp.key}")
        object.__setattr__(self, "assignments", assignments)

    @classmethod
    def from_levels(cls, components: Sequence[ComponentId], levels: Sequence[int]) -> "StateVector":
        if len(components) != len(levels):
            raise ValueError(
                f"expected {len(components)} levels, got {len(levels)}"
            )
        return cls(tuple(zip(components, (int(v) for v in levels))))

    @property
    def components(self) -> tuple[ComponentId, ...]:
        return tuple(c for c, _ in self.assignments)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)


class StateDistribution(_Frozen):
    """Probability per state for one component (or for system levels)."""

    __slots__ = _fields = ("probs",)

    def __init__(self, probs: tuple[float, ...]) -> None:
        if not probs:
            raise ValueError("distribution must have at least one state")
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"distribution sums to {total}, not 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, state: int) -> float:
        return self.probs[state]

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)


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


def _check_sample(timestamp, host_id, vm_id, metric: ComponentId, value) -> None:
    """Raise unless the fields make a sample: ``check_origin``, and a
    ``vm_id`` and finite ``value`` that ``metric``'s level allows."""
    check_origin(timestamp, host_id, vm_id)
    if metric.level == "host" and vm_id is not None:
        raise ValueError(f"host-level metric {metric.key} must not carry vm_id")
    if metric.level == "vm" and vm_id is None:
        raise ValueError(f"vm-level metric {metric.key} requires vm_id")
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
    inherited ``_make`` and ``_replace`` check nothing either.
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


class SampleColumns:
    """A sample stream as per-series columns, and its stream order.

    A series is the samples of one ``(host_id, vm_id, metric)``: it holds
    a column of their timestamps and one of their values, each in stream
    order.  ``series`` names each series, in the order the stream first
    gave one of its samples, and ``order`` holds the index of the series
    of each sample of the stream in turn.  ``len`` is the number of
    samples, and iterating yields the ``MetricSample``s in stream order,
    each built as it is taken.  Equal host and VM ids of the series are
    one object.

    ``extend`` is the one routine that fills the columns, for every
    producer: the reader's scan, its ``json.loads`` chunks and its
    per-line fallback, and ``of`` for a list of samples.
    """

    __slots__ = ("series", "timestamps", "values", "order", "_index", "_ids")

    def __init__(self) -> None:
        self.series: list[tuple] = []  # (host_id, vm_id, metric) per series
        self.timestamps: list[list] = []  # one column per series
        self.values: list[list] = []
        self.order: list[int] = []  # the series of each sample, in stream order
        self._index: dict[tuple, int] = {}  # (host_id, vm_id, name, level) -> series
        self._ids: dict = {}  # one object per distinct id

    @classmethod
    def of(cls, samples: Iterable[MetricSample]) -> "SampleColumns":
        """The columns of ``samples``, as they are (nothing is checked)."""
        columns = cls()
        samples = list(samples)
        if samples:
            timestamps, hosts, vms, metrics, values = zip(*samples)
            names = tuple(map(operator.attrgetter("name"), metrics))
            levels = tuple(map(operator.attrgetter("level"), metrics))
            metric_of = dict(zip(zip(names, levels), metrics))
            columns.extend(zip(hosts, vms, names, levels), timestamps, values, metric_of)
        return columns

    def extend(self, keys: Iterable[tuple], timestamps, values, metrics: Mapping) -> None:
        """Append each record to the columns of its series.  ``keys`` are
        the records' ``(host_id, vm_id, metric name, level)``; a key not
        seen before opens a series, whose metric is ``metrics[name,
        level]``."""
        keys = list(keys)
        index = self._index
        try:
            ids = list(map(index.__getitem__, keys))
        except KeyError:
            for key in keys:  # in stream order
                if key not in index:
                    host, vm, name, level = key
                    index[key] = len(self.series)
                    self.series.append((self._ids.setdefault(host, host), self._ids.setdefault(vm, vm),
                                        metrics[name, level]))
                    self.timestamps.append([])
                    self.values.append([])
            ids = list(map(index.__getitem__, keys))
        self.order += ids
        add_timestamp = [column.append for column in self.timestamps]
        add_value = [column.append for column in self.values]
        for i, timestamp, value in zip(ids, timestamps, values):
            add_timestamp[i](timestamp)
            add_value[i](value)

    def with_values(self, values: list[list]) -> "SampleColumns":
        """These columns with other value columns, one per series.  The
        new object shares its series, timestamps and order with this one,
        and has no routing index: it cannot be extended."""
        columns = SampleColumns.__new__(SampleColumns)
        columns.series, columns.timestamps, columns.order = self.series, self.timestamps, self.order
        columns.values = values
        return columns

    def first(self, samples: Mapping[int, int]) -> int:
        """Of ``samples``, each the index of a sample within its series
        keyed by the series, the series whose sample the stream gives
        first."""
        seen = dict.fromkeys(samples, 0)
        for s in self.order:
            if s in seen:
                if seen[s] == samples[s]:
                    return s
                seen[s] += 1
        raise IndexError("no such sample")

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
_decode = json.JSONDecoder().raw_decode
# the reason given for JSON nested deeper than the decoder recurses
_TOO_DEEP = "JSON nested too deeply to decode"
# lines decoded by one json.loads call; a chunk's joined text stays far
# below the size of the samples it yields
_CHUNK_LINES = 1024
# the values of a record's six wire keys
_wire_values = operator.itemgetter("timestamp", "host_id", "vm_id", "metric", "level", "value")
_first_char, _last_char = operator.itemgetter(0), operator.itemgetter(-1)
# the level a record's vm_id calls for: vm for a string, host for null
_LEVEL_OF_VM_ID = {str: "vm", type(None): "host"}.get
# a line as write_metric_samples writes it: the six keys sorted, the
# default separators, and strings that json.dumps leaves unescaped; the
# groups are host_id, level, metric, timestamp, value and the vm_id
# token.  re compiles it on the first read, so importing costs nothing.
_CHARS = r'[^"\\\x00-\x1f]*'
_INTEGER = r"-?(?:0|[1-9][0-9]*)"
_CANONICAL_LINE = (
    rf'^\{{"host_id": "({_CHARS})", "level": "({_CHARS})", "metric": "({_CHARS})", '
    rf'"timestamp": ({_INTEGER}), '
    rf'"value": ({_INTEGER}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)), '
    rf'"vm_id": (null|"{_CHARS}")\}}$'
)


def _component(name: str, level: str, shared: dict) -> ComponentId:
    """The one ``ComponentId`` of ``(name, level)`` in ``shared``; raises if invalid."""
    metric = shared.get((name, level))
    if metric is None:
        metric = shared[name, level] = ComponentId(name, level)
    return metric


def _record_columns(objs: list) -> tuple:
    """The six columns of decoded records, in ``MetricSample`` order with
    ``names`` and ``levels`` for the metric, after checking each record's
    keys and the types of its ids; a failed check raises its reason."""
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
    return timestamps, hosts, vms, names, levels, values


def _canonical_columns(lines: list[str]) -> tuple | None:
    """The columns ``_record_columns`` gives for stripped, non-blank lines
    if each is a canonical line, as ``write_metric_samples`` writes one;
    else None.

    The anchored pattern matches only within one line, as no group holds
    a newline, and at most once per line, so one match per line means
    every line matched whole.  A string token without ``"``, ``\\`` or a
    control character is its own text, and ``int`` and ``float`` are the
    calls the JSON decoder makes on an integer and a float token, so the
    columns are those the decoded records give.  A value token always has
    a fraction or an exponent: the decoder reads an integer literal as an
    int, and ``float`` of the int is not ``float`` of the text for ``-0``
    or for a literal too large for a float.  The first line is matched
    alone, so that a stream in another form does not pay a failed scan of
    every chunk.
    """
    if re.match(_CANONICAL_LINE, lines[0], re.MULTILINE) is None:
        return None
    rows = re.findall(_CANONICAL_LINE, "\n".join(lines), re.MULTILINE)
    if len(rows) != len(lines):
        return None
    hosts, levels, names, timestamps, values, vm_tokens = zip(*rows)
    vm_of = {token: None if token == "null" else token[1:-1] for token in set(vm_tokens)}
    # a chunk holds few distinct timestamps: each token is parsed once
    # (over 4300 digits raises, as it does in the decoder)
    timestamp_of = {token: int(token) for token in set(timestamps)}
    timestamps, vms = tuple(map(timestamp_of.__getitem__, timestamps)), tuple(map(vm_of.__getitem__, vm_tokens))
    return timestamps, hosts, vms, names, levels, tuple(map(float, values))


def _checked_records(columns: tuple, shared: dict) -> tuple:
    """The arguments of ``SampleColumns.extend`` for columns, scanned or
    from ``_record_columns``, checked a column at a time as
    ``read_metric_samples`` documents; a failed check raises its reason,
    for a lone record the reason of the first check it fails."""
    timestamps, hosts, vms, names, levels, values = columns
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
    if tuple(map(_LEVEL_OF_VM_ID, map(type, vms))) != levels or not all(map(math.isfinite, values)):
        # some record's vm_id does not fit its level, or its value is not
        # finite: the sample's own check names which
        for fields in zip(timestamps, hosts, vms, map(shared.__getitem__, zip(names, levels)), values):
            _check_sample(*fields)
    return zip(hosts, vms, names, levels), map(shared.setdefault, timestamps, timestamps), values, shared


def _chunk_records(lines: list[str], shared: dict) -> tuple | None:
    """The checked records of stripped, non-blank lines from one scan or
    decode call, as ``_checked_records`` gives them, or None when the
    lines must be decoded one by one.

    Canonical lines are scanned; any other chunk is decoded as one JSON
    array.  This equals decoding each line: no JSON token holds a raw
    newline and a valid record holds only scalars, so when every line
    starts with ``{`` and ends with ``}``, and the array has one element
    per line, each a valid record, the i-th element is the i-th line's
    object.  Scanned columns equal the decoded ones, so a scanned chunk
    that fails a check would fail it decoded too, and goes line by line.
    """
    try:
        columns = _canonical_columns(lines)
        if columns is None:
            if set(map(_first_char, lines)) != {"{"} or set(map(_last_char, lines)) != {"}"}:
                return None
            objs = json.loads("[" + "\n,".join(lines) + "]")
            if len(objs) != len(lines):
                return None
            columns = _record_columns(objs)
        return _checked_records(columns, shared)
    except (ValueError, OverflowError, RecursionError):
        return None


def _line_record(path, line_no: int, line: str, shared: dict) -> tuple:
    """The checked record of one stripped line, as a one-record column; a
    bad record raises naming the line."""
    try:
        # the line is stripped, so this accepts exactly what json.loads accepts
        obj, end = _decode(line)
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        return _checked_records(_record_columns([obj]), shared)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: line {line_no}: {_TOO_DEEP}") from None


def read_sample_columns(path) -> SampleColumns:
    """Read a JSON Lines stream into per-series columns; a bad record
    raises naming its line.

    Blank lines are skipped.  Every other line must hold one JSON object
    with exactly the six wire keys: ``host_id``, ``metric`` and ``level``
    strings, ``vm_id`` a string or null, ``timestamp`` a JSON integer and
    ``value`` a JSON integer or float (``true`` and ``"42.5"`` are
    neither).  Anything else, and any sample ``MetricSample`` rejects,
    raises ``ValueError`` naming the path and the 1-based line.  The
    columns share one object per distinct timestamp, ``host_id`` and
    ``vm_id``, and one ``ComponentId`` per component.

    Lines are taken ``_CHUNK_LINES`` at a time: a chunk of canonical
    lines, as ``write_metric_samples`` writes them, is scanned with one
    regular expression, any other decoded with one ``json.loads`` call,
    and either is checked a column at a time and then appended to the
    columns; a chunk that does not give one valid record per line is
    decoded again line by line, each line checked as a one-record column,
    which names the first bad line and its reason.  JSON nested too
    deeply to decode is a bad record too.  Bytes that are not UTF-8 raise
    ``ValueError`` naming the path.
    """
    columns = SampleColumns()
    # one object per distinct timestamp, and a ComponentId per valid
    # (name, level) pair
    shared: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        first_line = 1
        try:
            while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
                lines = list(filter(None, map(str.strip, chunk)))
                records = _chunk_records(lines, shared) if lines else None
                if records is not None:
                    columns.extend(*records)
                else:
                    for line_no, line in enumerate(chunk, start=first_line):
                        line = line.strip()
                        if line:
                            columns.extend(*_line_record(path, line_no, line, shared))
                first_line += len(chunk)
        except UnicodeDecodeError as exc:  # text is decoded a block ahead of the lines
            raise ValueError(f"{path}: {exc}") from None
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
    ``source``; bytes that are not UTF-8, text that is not JSON and JSON
    nested too deeply to decode raise ``ValueError`` naming the path."""
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
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
