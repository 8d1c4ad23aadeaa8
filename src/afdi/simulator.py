"""Deterministic synthetic telemetry with labeled fault injection.

A scenario fixes a seed, a topology, per-metric baselines with uniform
jitter, and a list of fault injections.  Each (host, vm) scope draws
from its own generator, subseeded from the scenario seed by SHA-256, so
scopes can be generated independently and in parallel without changing
a single byte of output.  The generator algorithm is recorded in the
run metadata (``mt19937``, the stdlib Mersenne Twister).

The scopes an injection reaches are ``FaultInjection.scopes()``; what it
does to each metric there is ``_pinned``.  Fault kinds and their effect
over the injection span:

- ``cpu_hog``        VM cpu jumps to 75 + 25*intensity percent.
- ``memory_leak``    VM memory ramps linearly from baseline up to
                     75 + 25*intensity percent across the span.
- ``network_overhead`` VM network bandwidth jumps like cpu_hog.
- ``endless_loop``   VM *and* host cpu sit at 80 + 20*intensity while
                     VM throughput collapses to 10% of its baseline.
- ``serious_crash``  the target metric is pinned at exactly 100.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .engine import collect_windows
from .nbc import LabeledExample
from .states import ComponentId, DiscretizationSpec, MetricSample
from .states import check_entries, index_cell, read_document, read_table, sha256, write_table

__all__ = [
    "Scenario",
    "FaultInjection",
    "WindowLabel",
    "ScenarioError",
    "AlignmentError",
    "generate",
    "to_training_set",
    "load_scenario",
    "write_labels",
    "read_labels",
    "RNG_ALGORITHM",
    "VM_METRICS",
    "HOST_METRICS",
    "KINDS",
    "DEFAULT_KIND_TO_CLASS",
    "LABEL_NORMAL",
]

RNG_ALGORITHM = "mt19937"

# in name order: each scope draws its jitter, and emits, in this order
VM_METRICS = ("cpu", "memory", "network", "throughput")
HOST_METRICS = ("cpu", "storage_io")

KIND_CPU_HOG = "cpu_hog"
KIND_MEMORY_LEAK = "memory_leak"
KIND_NETWORK_OVERHEAD = "network_overhead"
KIND_ENDLESS_LOOP = "endless_loop"
KIND_SERIOUS_CRASH = "serious_crash"
KINDS = (
    KIND_CPU_HOG,
    KIND_MEMORY_LEAK,
    KIND_NETWORK_OVERHEAD,
    KIND_ENDLESS_LOOP,
    KIND_SERIOUS_CRASH,
)

LABEL_NORMAL = "normal"

# Injection kinds speak the workload vocabulary; diagnosis classes speak
# the fault-cause vocabulary.  This table bridges them for training.
DEFAULT_KIND_TO_CLASS = {
    LABEL_NORMAL: "normal",
    KIND_CPU_HOG: "high-cpu-usage",
    KIND_MEMORY_LEAK: "memory-shortage",
    KIND_NETWORK_OVERHEAD: "network-overhead",
    KIND_ENDLESS_LOOP: "endless-loop",
    KIND_SERIOUS_CRASH: "serious-crash",
}


class ScenarioError(ValueError):
    pass


class AlignmentError(ValueError):
    """Streams and labels disagree about which windows exist."""


@dataclass(frozen=True)
class FaultInjection:
    kind: str
    host: str
    start: int
    end: int  # exclusive window index
    intensity: float = 1.0
    vm: str | None = None
    metric: str | None = None  # serious_crash only: the metric pinned, cpu if None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        if not self.start < self.end:
            raise ScenarioError(f"injection span [{self.start}, {self.end}) is empty")
        if self.start < 0:
            raise ScenarioError("injection start must be >= 0")
        if not 0.0 < self.intensity <= 1.0:
            raise ScenarioError(f"intensity must be in (0, 1], got {self.intensity}")
        if self.kind == KIND_SERIOUS_CRASH:
            if self.metric is None:
                object.__setattr__(self, "metric", "cpu")
            if self.metric in VM_METRICS:
                if self.vm is None:
                    raise ScenarioError(f"crash on vm metric {self.metric!r} needs a vm")
            elif self.metric in HOST_METRICS:
                if self.vm is not None:
                    raise ScenarioError(f"crash on host metric {self.metric!r} takes no vm")
            else:
                raise ScenarioError(f"crash metric {self.metric!r} is not simulated")
        elif self.metric is not None:
            raise ScenarioError(f"only serious_crash takes a metric, {self.kind} got {self.metric!r}")
        elif self.vm is None:
            raise ScenarioError(f"{self.kind} targets a vm")

    def active(self, window: int) -> bool:
        return self.start <= window < self.end

    def scopes(self) -> frozenset:
        """The (host, vm) scopes this injection reaches: its own, which is
        ``(host, None)`` for a host crash, and the host's for a loop."""
        if self.kind == KIND_ENDLESS_LOOP:
            return frozenset({(self.host, self.vm), (self.host, None)})
        return frozenset({(self.host, self.vm)})


def _default_baseline() -> dict:
    return {
        "vm.cpu": (30.0, 2.0),
        "vm.memory": (35.0, 2.0),
        "vm.network": (30.0, 2.0),
        "vm.throughput": (60.0, 2.0),
        "host.cpu": (40.0, 2.0),
        "host.storage_io": (20.0, 2.0),
    }


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration: int
    hosts: int = 1
    vms_per_host: int = 1
    baseline: Mapping[str, tuple[float, float]] = field(default_factory=_default_baseline)
    injections: tuple[FaultInjection, ...] = ()
    window_ms: int = 1000

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
        if self.hosts <= 0 or self.vms_per_host <= 0:
            raise ScenarioError("topology must have at least one host and one vm")
        if type(self.window_ms) is not int or self.window_ms <= 0:
            raise ScenarioError(f"window_ms must be a positive integer, got {self.window_ms!r}")
        unknown = sorted(set(self.baseline) - set(_default_baseline()))
        if unknown:
            raise ScenarioError(f"unknown keys {unknown} in baseline")
        for key in _default_baseline():
            if key not in self.baseline:
                raise ScenarioError(f"baseline missing {key}")
            mean, jitter = self.baseline[key]
            # a NaN mean would clamp every sample of the metric to 0
            for name, value in (("mean", mean), ("jitter", jitter)):
                if not -math.inf < value < math.inf:
                    raise ScenarioError(f"baseline {key}: {name} must be finite, got {value}")
            if jitter < 0:
                raise ScenarioError(f"negative jitter for {key}")
        for i, inj in enumerate(self.injections):
            if inj.end > self.duration:
                raise ScenarioError(
                    f"injection {i} [{inj.start}, {inj.end}) exceeds duration {self.duration}"
                )
            if inj.host not in self.host_ids():
                raise ScenarioError(f"injection {i} targets unknown host {inj.host!r}")
            if inj.vm is not None and inj.vm not in self.vm_ids():
                raise ScenarioError(f"injection {i} targets unknown vm {inj.vm!r}")
        # reject overlapping injections that touch a common scope: each
        # window/scope must have at most one active fault so ground
        # truth stays single-labeled
        for i, a in enumerate(self.injections):
            for b in self.injections[i + 1:]:
                if a.start < b.end and b.start < a.end and a.scopes() & b.scopes():
                    raise ScenarioError(
                        f"overlapping injections on a shared scope: "
                        f"{a.kind}[{a.start},{a.end}) and {b.kind}[{b.start},{b.end})"
                    )

    def host_ids(self) -> list[str]:
        return [f"h{i}" for i in range(self.hosts)]

    def vm_ids(self) -> list[str]:
        return [f"vm{i}" for i in range(self.vms_per_host)]


@dataclass(frozen=True)
class WindowLabel:
    window: int
    host: str
    vm: str
    label: str


def _subseed(seed: int, host: str, vm: str | None) -> int:
    blob = f"{seed}/{host}/{vm or ''}".encode("utf-8")
    return int.from_bytes(sha256(blob).digest()[:8], "big")


def _clamp(v: float) -> float:
    return min(100.0, max(0.0, v))


def _pinned(inj: FaultInjection, metric: str, window: int, baseline, jitter: float) -> float | None:
    """The value ``inj`` pins ``metric`` to in ``window``, or None.

    ``metric`` is a metric name of a scope the injection reaches
    (``FaultInjection.scopes``); ``jitter`` is that sample's draw.
    """
    kind = inj.kind
    if (kind, metric) in ((KIND_CPU_HOG, "cpu"), (KIND_NETWORK_OVERHEAD, "network")):
        return 75.0 + 25.0 * inj.intensity + jitter
    if kind == KIND_MEMORY_LEAK and metric == "memory":
        base = baseline["vm.memory"][0]
        target = 75.0 + 25.0 * inj.intensity
        span = inj.end - inj.start - 1
        progress = 1.0 if span == 0 else (window - inj.start) / span
        return base + (target - base) * progress + jitter
    if kind == KIND_ENDLESS_LOOP and metric == "cpu":  # the vm's and the host's
        return 80.0 + 20.0 * inj.intensity + jitter
    if kind == KIND_ENDLESS_LOOP and metric == "throughput":
        return 0.10 * baseline["vm.throughput"][0] + jitter
    if kind == KIND_SERIOUS_CRASH and metric == inj.metric:
        return 100.0  # exactly: a crash value is not jittered
    return None


def generate(scenario: Scenario) -> tuple[list[MetricSample], list[WindowLabel]]:
    """Produce the metric stream and per-window ground truth, in wire order.

    Samples come ordered by timestamp, host id, vm id (the host's own
    samples first), level and metric name; labels by window, host and
    vm.  Ids compare as strings, so ``"h10"`` precedes ``"h2"``.  Jitter
    draws happen per scope in a fixed (window, metric) order and are
    consumed whether or not an injection overrides the value, so adding
    an injection never shifts the noise pattern elsewhere.  The first
    active injection, in scenario order, that pins a metric sets it.
    """
    reach: dict[tuple[str, str | None], list[FaultInjection]] = {}
    for inj in scenario.injections:
        for scope in inj.scopes():
            reach.setdefault(scope, []).append(inj)
    metrics = {
        level: [
            (name, ComponentId(name, level), *scenario.baseline[f"{level}.{name}"])
            for name in names
        ]
        for level, names in (("host", HOST_METRICS), ("vm", VM_METRICS))
    }
    scopes = [
        (host, vm, random.Random(_subseed(scenario.seed, host, vm)), reach.get((host, vm), ()))
        for host in sorted(scenario.host_ids())
        for vm in [None, *sorted(scenario.vm_ids())]
    ]

    samples: list[MetricSample] = []
    labels: list[WindowLabel] = []
    for w in range(scenario.duration):
        ts = w * scenario.window_ms
        for host, vm, rng, injections in scopes:
            active = [inj for inj in injections if inj.active(w)]
            for name, component, mean, jitter in metrics["host" if vm is None else "vm"]:
                j = rng.uniform(-jitter, jitter)
                value = mean + j
                for inj in active:
                    pinned = _pinned(inj, name, w, scenario.baseline, j)
                    if pinned is not None:
                        value = pinned
                        break
                # valid by construction: an integer timestamp, the
                # scenario's string ids and a clamped finite value
                samples.append(tuple.__new__(MetricSample, (ts, host, vm, component, _clamp(value))))
            # a fault aimed at the vm labels it; else a host crash does;
            # a neighbour's loop raising host cpu does not
            if vm is None:
                host_label = next(
                    (inj.kind for inj in active if inj.kind == KIND_SERIOUS_CRASH), LABEL_NORMAL
                )
            else:
                labels.append(WindowLabel(w, host, vm, active[0].kind if active else host_label))
    return samples, labels


def to_training_set(
    samples: Sequence[MetricSample],
    labels: Sequence[WindowLabel],
    specs: Mapping[str, DiscretizationSpec],
    attributes: Sequence[ComponentId],
    classes: Sequence[str],
    window_ms: int = 1000,
) -> list[LabeledExample]:
    """One labeled example per window/scope, its features the window's
    usage buckets of ``attributes`` as the engine buckets them; labels
    become classes through ``DEFAULT_KIND_TO_CLASS``."""
    windows = collect_windows(samples, [specs[c.key] for c in attributes])
    by_key = {(w.timestamp // window_ms, w.host_id, w.vm_id): w for w in windows}
    if len(by_key) != len(windows):
        raise AlignmentError("duplicate windows for the same scope and time")

    out = []
    seen = set()
    for row in labels:
        key = (row.window, row.host, row.vm)
        window = by_key.get(key)
        if window is None:
            raise AlignmentError(f"label for missing window {key}")
        if key in seen:
            raise AlignmentError(f"repeated label for window {key}")
        seen.add(key)
        class_name = DEFAULT_KIND_TO_CLASS.get(row.label)
        if class_name is None:
            raise AlignmentError(f"label {row.label!r} has no class mapping")
        try:
            label_idx = list(classes).index(class_name)
        except ValueError:
            raise AlignmentError(f"class {class_name!r} not in schema classes") from None
        out.append(LabeledExample(features=window.buckets, label=label_idx))
    if len(seen) != len(by_key):
        raise AlignmentError(f"{len(by_key) - len(seen)} windows have no label")
    return out


# -- files -----------------------------------------------------------


# the JSON kind of each key of a scenario document, of an injection and
# of a baseline entry; defaults live in the dataclasses
_SCENARIO_KEYS = {
    "seed": "integer",
    "duration": "integer",
    "hosts": "integer",
    "vms_per_host": "integer",
    "window_ms": "integer",
    "baseline": "object",
    "injections": "array",
}
_INJECTION_KEYS = {
    "kind": "string",
    "host": "string",
    "vm": "string or null",
    "start": "integer",
    "end": "integer",
    "intensity": "number",
    "metric": "string",
}
_BASELINE_KEYS = {"mean": "number", "jitter": "number"}


def load_scenario(source) -> Scenario:
    """Load a scenario document from a path or an already decoded dict.

    Unknown keys and entries of the wrong JSON kind (``true`` for an
    integer, ``"10"`` for a number) raise ``ScenarioError`` naming the
    key; nothing is converted but an integer where a number is expected.
    """
    doc = read_document(source)
    entries = check_entries(doc, _SCENARIO_KEYS, ("seed", "duration"), "scenario document", ScenarioError)
    if "baseline" in entries:
        baseline = {}
        for key, entry in entries["baseline"].items():
            entry = check_entries(
                entry, _BASELINE_KEYS, ("mean", "jitter"), f"baseline {key}", ScenarioError
            )
            baseline[key] = (entry["mean"], entry["jitter"])
        entries["baseline"] = baseline
    if "injections" in entries:
        required = ("kind", "host", "start", "end")
        injections = []
        for i, item in enumerate(entries["injections"]):
            where = f"injection {i}"
            fields = check_entries(item, _INJECTION_KEYS, required, where, ScenarioError)
            try:
                injections.append(FaultInjection(**fields))
            except ScenarioError as exc:
                raise ScenarioError(f"{where}: {exc}") from None
        entries["injections"] = tuple(injections)
    return Scenario(**entries)


_LABELS_HEADER = ["window", "host", "vm", "label"]


def write_labels(labels: Iterable[WindowLabel], path) -> int:
    return write_table(path, _LABELS_HEADER, ((row.window, row.host, row.vm, row.label) for row in labels))


def read_labels(path) -> list[WindowLabel]:
    """The labels of a labels CSV; a bad header or row raises
    ``AlignmentError`` naming the path and the line."""

    def label(cells):
        return WindowLabel(index_cell(cells[0]), *cells[1:])

    _, rows = read_table(path, label, AlignmentError, _LABELS_HEADER)
    return [row for _, row in rows]
