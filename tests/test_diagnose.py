"""``afdi diagnose`` end to end: the fleet alarm logs pinned, and every
alarm equal to the plain-way oracle's on small random streams."""

import gc
import hashlib
import importlib.util
import json
import math
import pathlib
import random
import tempfile
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from afdi import cli, engine
from afdi.engine import (
    Alarm,
    Engine,
    IncompleteWindowError,
    PreprocessPolicy,
    SequencingError,
    SeriesFilter,
    load_config,
    preprocess,
    write_alarm_log,
)
from afdi.simulator import generate, load_scenario, write_labels
from afdi.states import ComponentId, MetricSample, read_metric_samples, read_sample_columns, write_metric_samples
from conftest import fixture_path, hot_scenario
from test_bench_counts import _checks as perfbench_checks

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _workloads():
    """The benchmark's scenario builders, loaded from their file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _diagnose(config_path, metrics_path, alarms_path) -> int:
    return cli.main(
        ["diagnose", "--config", str(config_path), "--metrics", str(metrics_path),
         "--out-alarms", str(alarms_path)]
    )


# SHA-256 of the alarm log of each 4x8 benchmark fleet at seed 3; each
# stream is 108,800 lines, so it crosses many of the reader's chunks
FLEET_ALARM_LOG_SHA256 = {
    "fleet-replay": "2a8d5cb73f27e125e3207bc94f1eb483d7c8e377e932c95c7700d95d85556512",
    "hot-fleet": "0be3e231484347bdd5f2b222ecec8fd407b0e8e105611f8a3b041efda7620de5",
}
# SHA-256 of the metric stream and of the labels file the simulator
# writes for each fleet at seed 3: the bytes every fixture, the shipped
# model and both benchmark fleets rest on
FLEET_STREAM_SHA256 = {
    "fleet-replay": (
        "815ace3806ecb201bd5c804562f4ce6969e7e8e96692b837d1115995d409598d",
        "2e1018c58fc82940d6a053bc2757ea4b3a4ba408409f4667814231c7a98de387",
    ),
    "hot-fleet": (
        "40d9e79b95952b87c1a1f7848afdde1f1a9a6d67b1fdf9f473c1394f8959d363",
        "50447e8d741554d8abbc39e784a0309da06081b6d271c579215f30c44ed6f5c0",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Fleet(NamedTuple):
    samples: list
    labels: list
    metrics: pathlib.Path
    labels_path: pathlib.Path


@pytest.fixture(scope="session")
def fleet(tmp_path_factory):
    """The seed-3 benchmark fleet of a name, generated and written once
    per session: its samples and labels, and the files they were written
    to, which no test changes."""
    built = {}

    def build(name) -> Fleet:
        if name not in built:
            samples, labels = generate(load_scenario(_workloads()[name](str(ROOT), 3)))
            directory = tmp_path_factory.mktemp(name)
            write_metric_samples(samples, directory / "metrics.jsonl")
            write_labels(labels, directory / "labels.csv")
            built[name] = Fleet(samples, labels, directory / "metrics.jsonl", directory / "labels.csv")
        return built[name]

    return build


@pytest.mark.parametrize("name", sorted(FLEET_ALARM_LOG_SHA256))
def test_fleet_alarm_log_through_the_reader_pinned(tmp_path, fleet, name):
    metrics, alarms = fleet(name).metrics, tmp_path / "alarms.jsonl"
    assert (_sha256(metrics), _sha256(fleet(name).labels_path)) == FLEET_STREAM_SHA256[name]
    assert _diagnose(fixture_path("engine_config.json"), metrics, alarms) == 0
    assert _sha256(alarms) == FLEET_ALARM_LOG_SHA256[name]


# (pass, position) pairs the filter judges on each fleet at seed 3: a
# work count that does not depend on the host
FLEET_FILTER_JUDGED = {"fleet-replay": 159_815, "hot-fleet": 162_770}


@pytest.mark.parametrize("name", sorted(FLEET_FILTER_JUDGED))
def test_fleet_filter_fed_in_the_pieces_of_1024_line_chunks_equals_the_batch(fleet, name):
    columns = read_sample_columns(fleet(name).metrics)
    # each series' samples among each 1,024 lines, about 7.5 on a fleet
    cuts = [[] for _ in columns.series]
    for start in range(0, len(columns), 1024):
        chunk = columns.order[start : start + 1024]
        for s in set(chunk):
            cuts[s].append(chunk.count(s))
    policy = load_config(fixture_path("engine_config.json")).preprocess
    judged = 0
    for ((_, _, metric), values), sizes in zip(zip(columns.series, columns.values), cuts):
        percent = metric.name in engine.PERCENT_METRIC_NAMES
        streamed = SeriesFilter(policy, percent)
        start = 0
        for size in sizes:
            streamed.feed(values[start : start + size])
            start += size
        batch = SeriesFilter(policy, percent, values)
        assert streamed.close() == batch.close()
        assert (streamed.judged, streamed.replaced) == (batch.judged, batch.replaced)
        judged += batch.judged
    assert judged == FLEET_FILTER_JUDGED[name]


# -- the counts of a run ------------------------------------------------


def _alarm_branches(alarms_path, config) -> dict:
    """Alarms per branch of the log at ``alarms_path``, as the benchmark's
    output checks count them: gate, classifier, loop rule."""
    alarms = [json.loads(line) for line in alarms_path.read_text().splitlines()]
    return perfbench_checks().alarm_branches(alarms, config.classes, config.loop_rule.cause)


def _run_fixture(tmp_path, scenario) -> Engine:
    """The engine of an ``Engine.run`` over a fixture scenario's stream."""
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(generate(load_scenario(fixture_path(scenario)))[0], metrics)
    eng = Engine(load_config(fixture_path("engine_config.json")))
    eng.run(metrics, tmp_path / "alarms.jsonl")
    return eng


def test_a_crash_run_gates_every_serious_window_without_the_classifier(tmp_path):
    eng = _run_fixture(tmp_path, "scenario_serious_crash.json")
    assert eng.nbc_invocations == 0
    assert eng.stats.gate == eng.stats.windows[2] > 0


def test_a_loop_run_names_one_endless_loop(tmp_path):
    eng = _run_fixture(tmp_path, "scenario_endless_loop.json")
    assert eng.stats.causes == {"endless-loop": 1} and eng.stats.loop == 1


@pytest.mark.parametrize("name", sorted(FLEET_FILTER_JUDGED))
def test_fleet_run_stats_equal_counts_taken_apart_from_the_engine(tmp_path, fleet, name):
    samples, labels, metrics, _ = fleet(name)
    alarms = tmp_path / "alarms.jsonl"
    config = load_config(fixture_path("engine_config.json"))
    eng = Engine(config)
    raised = eng.run(metrics, alarms)
    assert _sha256(alarms) == FLEET_ALARM_LOG_SHA256[name]
    stats = eng.stats
    # the alarms by branch, against the pinned log
    branches = {"gate": stats.gate, "nbc": eng.nbc_invocations, "loop": stats.loop}
    assert branches == _alarm_branches(alarms, config) and sum(branches.values()) == raised
    assert sum(stats.causes.values()) == eng.nbc_invocations + stats.loop
    assert (stats.samples, sum(stats.windows)) == (len(samples), len(labels)) == (108_800, 25_600)
    # the filter's work, against the oracle on each clamped series
    percent = engine.PERCENT_METRIC_NAMES
    assert stats.clamped == sum(1 for s in samples if s.metric.name in percent and not 0 <= s.value <= 100)
    assert stats.judged == FLEET_FILTER_JUDGED[name]
    policy = config.preprocess
    columns = read_sample_columns(metrics)
    replaced = 0
    for (_, _, metric), values in zip(columns.series, columns.values):
        if metric.name in percent:
            values = [min(100.0, max(0.0, v)) for v in values]
        replaced += oracles.median_mad_counts(list(values), policy.window, policy.z_cutoff)[1]
    assert stats.replaced == replaced
    # the counters are the run's, not the host's
    again = Engine(config)
    again.run(metrics, tmp_path / "again.jsonl")
    assert again.stats == stats


# -- the cycle collector ----------------------------------------------


def _cycles_left(config_path, metrics_path, alarms_path) -> int:
    """Objects ``gc.collect`` finds unreachable once the stages ran with
    the collector off and their results were dropped: the read,
    ``process_stream`` and the write of its list, then the read and the
    write taking the alarms of ``Engine.alarms`` as ``afdi diagnose``
    runs them."""
    config = load_config(config_path)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        eng = Engine(config)
        alarms = eng.process_stream(read_sample_columns(metrics_path))
        write_alarm_log(alarms, alarms_path)
        del eng, alarms
        left = gc.collect()
        eng = Engine(config)
        write_alarm_log(eng.alarms(read_sample_columns(metrics_path)), alarms_path)
        del eng
        return left + gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "scenario",
    ["scenario_healthy.json", "scenario_endless_loop.json", "scenario_serious_crash.json",
     "scenario_800.json", "fleet-replay"],
)
def test_diagnose_stages_build_no_reference_cycles(tmp_path, fleet, scenario):
    # afdi diagnose runs these stages with the collector off; a cycle
    # they built would only be freed by a collection
    pinned = FLEET_STREAM_SHA256.get(scenario)
    if pinned:
        metrics = fleet(scenario).metrics
        assert _sha256(metrics) == pinned[0]
    else:
        metrics = tmp_path / "metrics.jsonl"
        write_metric_samples(generate(load_scenario(fixture_path(scenario)))[0], metrics)
    assert _cycles_left(fixture_path("engine_config.json"), metrics, tmp_path / "alarms.jsonl") == 0


# -- memory -----------------------------------------------------------


def _heap_reading() -> tuple[int, int]:
    """The traced heap now and its peak since the last reading."""
    reading = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    return reading


def test_stepping_and_writing_hold_no_window_or_alarm_per_window(tmp_path):
    # afdi diagnose steps each window as the write takes its alarms, so
    # past what collect_windows left, the stage holds a block of windows
    # and the engine's and the writer's tables, not a list of every window
    # or alarm: held, the alarms alone would take about 100 bytes each
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(generate(hot_scenario(800))[0], metrics)
    eng = Engine(load_config(fixture_path("engine_config.json")))
    eng.clock = _heap_reading  # a reading at each mark of the run
    gc.collect()
    tracemalloc.start()
    try:
        alarms = eng.run(metrics, tmp_path / "alarms.jsonl")
    finally:
        tracemalloc.stop()
    assert sum(eng.stats.windows) == 6 * 800 and alarms > 4000
    # the marks after collect_windows and after the write
    (left, _), (_, peak) = eng.marks[3:]
    assert peak - left < 64 * 1024


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("stream", ["good", "bad-line", "out-of-order"])
def test_diagnose_leaves_the_collector_as_it_found_it(tmp_path, enabled, stream):
    samples, _ = generate(load_scenario(fixture_path("scenario_healthy.json")))
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(samples, metrics)
    lines = metrics.read_text().splitlines()
    if stream == "bad-line":
        lines.insert(5, "{")
    elif stream == "out-of-order":
        lines.reverse()
    metrics.write_text("\n".join(lines) + "\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = _diagnose(fixture_path("engine_config.json"), metrics, tmp_path / "alarms.jsonl")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert rc == (0 if stream == "good" else 1)


# -- against the oracle ------------------------------------------------

# base value of each metric per regime; "edge" holds percent values the
# preprocessor clamps and a throughput past its bounds
VM_REGIMES = {
    "idle": {"cpu": 12.0, "memory": 30.0, "network": 10.0, "throughput": 60.0},
    "minor": {"cpu": 15.0, "memory": 62.0, "network": 12.0, "throughput": 55.0},
    "loop": {"cpu": 96.0, "memory": 30.0, "network": 10.0, "throughput": 5.0},
    "serious": {"cpu": 20.0, "memory": 35.0, "network": 88.0, "throughput": 40.0},
    "edge": {"cpu": 101.0, "memory": -2.0, "network": 100.0, "throughput": 250.0},
}
HOST_REGIMES = {
    "calm": {"cpu": 20.0, "storage_io": 15.0},
    "hot": {"cpu": 92.0, "storage_io": 30.0},
    "busy": {"cpu": 60.0, "storage_io": 55.0},
}


def _regime_runs(names):
    return st.lists(st.tuples(st.sampled_from(names), st.integers(1, 8)), min_size=1, max_size=5)


def _expand(runs, length):
    out = [name for name, n in runs for _ in range(n)]
    return (out + out[-1:] * length)[:length]


@st.composite
def streams(draw):
    """JSON Lines of a small fleet, in time order per series."""
    duration = draw(st.integers(1, 30))
    hosts = draw(st.integers(1, 2))
    vms = draw(st.integers(1, 3))
    # loops need a looping VM on a hot host, so both come up twice as often
    host_plan = [
        _expand(draw(_regime_runs(["calm", "hot", "hot", "busy"])), duration) for _ in range(hosts)
    ]
    vm_plan = [
        [_expand(draw(_regime_runs(["idle", "minor", "loop", "loop", "serious", "edge"])), duration)
         for _ in range(vms)]
        for _ in range(hosts)
    ]
    jitter = draw(st.sampled_from([0.0, 1.0, 4.0]))
    outlier_rate = draw(st.sampled_from([0.0, 0.05, 0.2]))
    shuffle = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value(base):
        v = base + rng.uniform(-jitter, jitter)
        if rng.random() < outlier_rate:
            v += rng.choice((-1, 1)) * rng.uniform(20.0, 80.0)
        return v

    lines = []
    for t in range(duration):
        batch = []
        for h in range(hosts):
            for metric, base in HOST_REGIMES[host_plan[h][t]].items():
                batch.append({"host_id": f"h{h}", "vm_id": None, "level": "host",
                              "metric": metric, "timestamp": 1000 * t, "value": value(base)})
            for v in range(vms):
                for metric, base in VM_REGIMES[vm_plan[h][v][t]].items():
                    batch.append({"host_id": f"h{h}", "vm_id": f"vm{v}", "level": "vm",
                                  "metric": metric, "timestamp": 1000 * t, "value": value(base)})
        if shuffle:
            rng.shuffle(batch)
        lines += [json.dumps(obj, sort_keys=True) for obj in batch]
    return lines


@settings(max_examples=150)
@given(
    lines=streams(),
    window=st.sampled_from([3, 5, 11]),
    z_cutoff=st.sampled_from([1.0, 3.0]),
)
def test_diagnose_matches_the_oracle_alarm_for_alarm(lines, window, z_cutoff):
    with open(fixture_path("engine_config.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["model"]["path"] = fixture_path(doc["model"]["path"])
    doc["preprocess"] = {"window": window, "z_cutoff": z_cutoff}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        config_path, metrics, alarms = tmp / "config.json", tmp / "metrics.jsonl", tmp / "alarms.jsonl"
        config_path.write_text(json.dumps(doc))
        metrics.write_text("".join(line + "\n" for line in lines))
        rc = _diagnose(config_path, metrics, alarms)
        try:
            expected = oracles.oracle_diagnose(lines, load_config(config_path))
        except oracles.OracleRejects:
            assert rc == 1
            return
        assert rc == 0
        got = [json.loads(line) for line in alarms.read_text().splitlines()]
    assert got == expected


# -- the engine's unchecked alarms ---------------------------------------


def _assert_alarms_pass_the_checked_constructor(alarms):
    """Each alarm is one the checked constructor makes, and equal
    diagnoses of one run name one top cause, one object."""
    causes = {}
    for alarm in alarms:
        assert type(alarm) is Alarm
        assert Alarm(*alarm) == alarm
        if alarm.diagnosis is not None:
            assert causes.setdefault(alarm.diagnosis, alarm.top_cause) is alarm.top_cause


@pytest.mark.parametrize(
    "scenario",
    ["scenario_healthy.json", "scenario_endless_loop.json", "scenario_serious_crash.json", "scenario_800.json"],
)
def test_engine_alarms_of_the_fixtures_pass_the_checked_constructor(scenario):
    samples, _ = generate(load_scenario(fixture_path(scenario)))
    alarms = Engine(load_config(fixture_path("engine_config.json"))).process_stream(samples)
    _assert_alarms_pass_the_checked_constructor(alarms)


@settings(max_examples=100)
@given(lines=streams(), window=st.sampled_from([3, 5, 11]))
def test_engine_alarms_of_random_streams_pass_the_checked_constructor(lines, window):
    with open(fixture_path("engine_config.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["model"]["path"] = fixture_path(doc["model"]["path"])
    doc["preprocess"] = {"window": window}
    with tempfile.TemporaryDirectory() as tmp:
        config_path, metrics = pathlib.Path(tmp) / "config.json", pathlib.Path(tmp) / "metrics.jsonl"
        config_path.write_text(json.dumps(doc))
        metrics.write_text("".join(line + "\n" for line in lines))
        config, samples = load_config(config_path), read_metric_samples(metrics)
    try:
        alarms = Engine(config).process_stream(samples)
    except (SequencingError, IncompleteWindowError):
        return
    _assert_alarms_pass_the_checked_constructor(alarms)


# -- errors on the file route --------------------------------------------

_HEALTHY = {"vm.cpu": 30.0, "vm.memory": 30.0, "vm.network": 30.0, "vm.throughput": 60.0,
            "host.cpu": 40.0, "host.storage_io": 10.0}


def _windows(count, vms=("vm0",), values=_HEALTHY):
    """Samples of ``count`` windows of host h0 and ``vms``, in wire order."""
    out = []
    for w in range(count):
        for key, value in values.items():
            comp = ComponentId.parse(key)
            if comp.level == "host":
                out.append(MetricSample(1000 * w, "h0", None, comp, value))
        for vm in vms:
            for key, value in values.items():
                comp = ComponentId.parse(key)
                if comp.level == "vm":
                    out.append(MetricSample(1000 * w, "h0", vm, comp, value))
    return out


def _without(samples, ts, key, vm="vm0"):
    """``samples`` less the ``key`` sample at ``ts`` of ``vm``, or of its host."""
    return [s for s in samples if (s.timestamp, s.metric.key, s.vm_id or vm) != (ts, key, vm)]


_EXTRA = ComponentId("extra")

# streams afdi diagnose rejects after reading them, the error class and
# the message; each names the sample or the window at fault, and the
# first of two faults in the stream when there are two
_REJECTED = {
    "decreasing-timestamp": (
        _windows(3)[:12] + [MetricSample(0, "h0", "vm0", ComponentId("cpu"), 30.0)] + _windows(3)[12:],
        SequencingError, "series ('h0', 'vm0', 'vm.cpu'): timestamp 0 after 1000",
    ),
    # vm.memory runs backwards from window 1, host.cpu only at window 3
    "decreasing-timestamp-of-two": (
        [s._replace(timestamp=4000 - s.timestamp) if s.metric.key == "vm.memory"
         else s._replace(timestamp=1500) if (s.metric.key, s.timestamp) == ("host.cpu", 3000) else s
         for s in _windows(5)],
        SequencingError, "series ('h0', 'vm0', 'vm.memory'): timestamp 3000 after 4000",
    ),
    "second-sample": (
        _windows(3)[:11] + [MetricSample(1000, "h0", "vm0", ComponentId("network"), 31.0)] + _windows(3)[11:],
        ValueError, "window t=1000 h0/vm0: second sample of vm.network",
    ),
    # host.cpu is the first series of the stream, but its second sample
    # comes later
    "second-sample-of-two": (
        _windows(3)[:11] + [MetricSample(1000, "h0", "vm0", ComponentId("network"), 31.0)] + _windows(3)[11:13]
        + [MetricSample(2000, "h0", None, ComponentId("cpu", "host"), 41.0)] + _windows(3)[13:],
        ValueError, "window t=1000 h0/vm0: second sample of vm.network",
    ),
    # vm.latency has no spec, but a second sample of it is refused all the same
    "second-sample-of-a-non-windowed-metric": (
        _windows(3, values={**_HEALTHY, "vm.latency": 5.0})
        + [MetricSample(2000, "h0", "vm0", ComponentId("latency"), 6.0)],
        ValueError, "window t=2000 h0/vm0: second sample of vm.latency",
    ),
    "missing-vm-metric": (
        _without(_windows(3, vms=("vm0", "vm1")), 2000, "vm.memory", vm="vm1"),
        IncompleteWindowError, "window t=2000 h0/vm1: missing vm metric 'memory'",
    ),
    "missing-host-metric": (
        _without(_without(_windows(3), 1000, "host.storage_io"), 2000, "vm.cpu"),
        IncompleteWindowError, "window t=1000 h0/vm0: missing host metric 'storage_io'",
    ),
    "scope-opened-by-a-non-windowed-metric": (
        _windows(3) + [MetricSample(1000, "h0", "vm7", _EXTRA, 1.0)],
        IncompleteWindowError, "window t=1000 h0/vm7: missing vm metric 'cpu'",
    ),
}


@pytest.mark.parametrize("samples, error, message", list(_REJECTED.values()), ids=list(_REJECTED))
def test_diagnose_rejects_a_written_stream_as_process_stream_rejects_its_samples(tmp_path, capsys, samples,
                                                                                  error, message):
    config_path = fixture_path("engine_config.json")
    with pytest.raises(error) as raised:
        Engine(load_config(config_path)).process_stream(samples)
    assert str(raised.value) == message
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(samples, metrics)
    assert _diagnose(config_path, metrics, tmp_path / "alarms.jsonl") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("before", [None, b'{"from": "an earlier run"}\n'], ids=["absent", "existing"])
@pytest.mark.parametrize("name", ["decreasing-timestamp", "missing-vm-metric", "second-sample"])
def test_a_refused_stream_leaves_the_alarm_log_as_it_was(tmp_path, capsys, name, before):
    # the stream is preprocessed and windowed before the log is opened, so
    # a stream those stages refuse writes no line: an absent log stays
    # absent, and the log of an earlier run keeps its bytes
    samples, _, message = _REJECTED[name]
    metrics, alarms = tmp_path / "metrics.jsonl", tmp_path / "alarms.jsonl"
    write_metric_samples(samples, metrics)
    if before is not None:
        alarms.write_bytes(before)
    assert _diagnose(fixture_path("engine_config.json"), metrics, alarms) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if before is None:
        assert not alarms.exists()
    else:
        assert alarms.read_bytes() == before


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_value_is_refused_for_one_reason_on_either_route(tmp_path, capsys, value):
    # the reader names the line of a written stream, SampleColumns.of the
    # index of a sample in a list, and both give MetricSample's reason
    cpu = ComponentId("cpu")
    healthy = [s for s in _windows(2) if (s.timestamp, s.metric) != (0, cpu)]
    samples = healthy[:1] + [tuple.__new__(MetricSample, (0, "h0", "vm0", cpu, value))] + healthy[1:]
    reason = f"vm.cpu: non-finite value {value}"
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(samples, metrics)
    assert _diagnose(fixture_path("engine_config.json"), metrics, tmp_path / "alarms.jsonl") == 1
    assert capsys.readouterr().err == f"error: {metrics}: line 2: {reason}\n"
    with pytest.raises(ValueError) as raised:
        Engine(load_config(fixture_path("engine_config.json"))).process_stream(samples)
    assert type(raised.value) is ValueError and str(raised.value) == f"sample 1: {reason}"


def test_a_median_that_overflows_replaces_no_sample_on_either_route(tmp_path):
    # the mean of the middle pair of an even edge window of huge values
    # overflows to inf; a median of inf leaves every deviation inf (or
    # NaN), so no sample is replaced by it, and a changed value that is
    # not finite cannot come out of a finite stream
    samples = [
        s._replace(value=1.7e308 if s.timestamp < 2000 else -1.7e308) if s.metric.key == "vm.throughput" else s
        for s in _windows(12)
    ]
    config = load_config(fixture_path("engine_config.json"))
    cleaned = preprocess(samples, PreprocessPolicy(window=3))
    assert [s.value for s in cleaned] == [s.value for s in samples]
    metrics, alarms = tmp_path / "metrics.jsonl", tmp_path / "alarms.jsonl"
    write_metric_samples(samples, metrics)
    assert _diagnose(fixture_path("engine_config.json"), metrics, alarms) == 0
    expected = tmp_path / "expected.jsonl"
    write_alarm_log(Engine(config).process_stream(samples), expected)
    assert alarms.read_bytes() == expected.read_bytes()
