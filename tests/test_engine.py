import contextlib
import hashlib
import itertools
import json
import math
import random
import re
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from afdi import engine as engine_mod, nbc
from afdi.engine import (
    Alarm,
    ConfigError,
    Engine,
    EngineConfig,
    IncompleteWindowError,
    LoopRule,
    PreprocessPolicy,
    RunStats,
    SequencingError,
    TRIGGER_GATE,
    TRIGGER_NBC,
    VirtualSensor,
    SeriesFilter,
    Window,
    collect_windows,
    load_config,
    preprocess,
    write_alarm_log,
)
from afdi.simulator import FaultInjection, Scenario, generate, load_scenario, to_training_set
from afdi.states import ComponentId, DiscretizationSpec, MetricSample, SampleColumns, StateVector, discretize
from afdi.states import read_sample_columns, write_metric_samples
from conftest import fixture_path, hot_scenario

import oracles

# representative raw value for each usage bucket under [0,25,50,75,100]
BUCKET_VALUE = (10.0, 30.0, 60.0, 90.0)

HEALTHY = {
    "vm.cpu": 30.0,
    "vm.memory": 30.0,
    "vm.network": 30.0,
    "vm.throughput": 60.0,
    "host.cpu": 40.0,
    "host.storage_io": 10.0,
}


_CONFIG_CACHE: list = []


def _load_fixture_config() -> EngineConfig:
    if not _CONFIG_CACHE:
        _CONFIG_CACHE.append(load_config(fixture_path("engine_config.json")))
    return _CONFIG_CACHE[0]


@pytest.fixture(scope="module")
def config():
    return _load_fixture_config()


def remade(config: EngineConfig, **changes) -> EngineConfig:
    """A config built anew from ``config``'s arguments, with ``changes``."""
    args = dict(
        specs=config.specs,
        severity_components=config.severity_components,
        model=config.model,
        severity_mapping=config.severity_mapping,
        loop_rule=config.loop_rule,
        preprocess=config.preprocess,
    )
    return EngineConfig(**{**args, **changes})


def window_samples(w: int, values: dict, host="h0", vm="vm0") -> list:
    """One sample at time ``w`` per entry of ``values``, built unchecked,
    so the checks are ``SampleColumns.of``'s."""
    comps = [ComponentId.parse(key) for key in values]
    return [
        tuple.__new__(MetricSample, (w * 1000, host, vm if comp.level == "vm" else None, comp, value))
        for comp, value in zip(comps, values.values())
    ]


def window_at(w: int, values: dict, host="h0", vm="vm0") -> Window:
    """The window ``collect_windows`` makes of ``window_samples``."""
    (window,) = collect_windows(window_samples(w, values, host, vm), _load_fixture_config().window_specs)
    return window


def variant(**overrides) -> dict:
    values = dict(HEALTHY)
    values.update(overrides)
    return values


def judgment(engine: Engine, window: Window) -> tuple:
    """(severity, loop rule matched, NBC features) of ``window``."""
    return engine._judge(window.buckets)


def severity_of(engine: Engine, window: Window) -> int:
    return judgment(engine, window)[0]


def usage_of(engine: Engine, window: Window) -> dict:
    """Usage bucket of ``window`` per judged key."""
    return {spec.component.key: b for spec, b in zip(engine.config.window_specs, window.buckets)}


LOOP_VALUES = variant(**{"vm.cpu": 90.0, "host.cpu": 90.0, "vm.throughput": 10.0})


def samples_for(window_dicts, host="h0", vm="vm0", window_ms=1000, first=0):
    out = []
    for w, values in enumerate(window_dicts, first):
        ts = w * window_ms
        for key, value in values.items():
            comp = ComponentId.parse(key)
            out.append(
                MetricSample(ts, host, vm if comp.level == "vm" else None, comp, value)
            )
    return out


def sample_series(values, metric="cpu", level="vm"):
    comp = ComponentId(metric, level)
    vm = "vm0" if level == "vm" else None
    return [MetricSample(i * 1000, "h0", vm, comp, v) for i, v in enumerate(values)]


# -- preprocessing ---------------------------------------------------


def test_preprocess_constant_series_unchanged():
    samples = sample_series([50.0] * 30)
    assert preprocess(samples) == samples


def test_preprocess_gives_back_each_sample_whose_int_value_stayed():
    # the columns hold 50 as 50.0; the list route compares values, so a
    # sample whose value stayed is the sample given, with its int value
    samples = sample_series([50] * 10 + [99] + [50] * 10, metric="throughput")
    got = preprocess(samples)
    assert [g is s for g, s in zip(got, samples)] == [True] * 10 + [False] + [True] * 10
    assert repr(got[10].value) == "50.0"


def test_preprocess_replaces_spike_with_window_median():
    values = [50.0] * 21
    values[10] = 500.0
    # throughput is not a percent metric, so the spike survives clamping
    # and must be caught by the median filter instead
    cleaned = preprocess(sample_series(values, metric="throughput"))
    assert cleaned[10].value == 50.0
    assert [s.value for s in cleaned].count(50.0) == 21


def test_preprocess_clamps_percent_metrics():
    # a uniformly out-of-range series is clamped and the filter then has
    # nothing to flag, so the clamped values survive
    assert all(s.value == 100.0 for s in preprocess(sample_series([150.0] * 12)))
    assert all(s.value == 0.0 for s in preprocess(sample_series([-5.0] * 12)))


def test_preprocess_clamp_happens_before_outlier_filter():
    # a lone spike is first clamped to 100, which is still an outlier
    # against its neighbours, so the median filter finishes the job
    cleaned = preprocess(sample_series([150.0] + [50.0] * 10))
    assert cleaned[0].value == 50.0


def test_preprocess_empty():
    assert preprocess([]) == []


def test_preprocess_preserves_order_and_other_series():
    spiky = sample_series([50.0] * 5 + [500.0] + [50.0] * 5, metric="throughput")
    steady = sample_series([20.0] * 11, metric="storage_io", level="host")
    interleaved = [s for pair in zip(spiky, steady) for s in pair]
    cleaned = preprocess(interleaved)
    assert [(s.metric.key, s.timestamp) for s in cleaned] == [
        (s.metric.key, s.timestamp) for s in interleaved
    ]
    assert all(s.value == 20.0 for s in cleaned if s.metric.name == "storage_io")


def test_preprocess_rejects_time_travel():
    comp = ComponentId("cpu", "vm")
    samples = [
        MetricSample(1000, "h0", "vm0", comp, 50.0),
        MetricSample(0, "h0", "vm0", comp, 50.0),
    ]
    with pytest.raises(SequencingError):
        preprocess(samples)


@pytest.mark.parametrize("first", ["vm0", "vm1"])
def test_series_sharing_a_falling_timestamp_column_each_name_their_own_sample(first):
    # both series have the timestamps 0, 2000, 1000, so they share one
    # column, judged once as the columns are completed; the series whose
    # fall the stream meets first raises
    comp = ComponentId("cpu", "vm")
    second = "vm1" if first == "vm0" else "vm0"
    samples = [MetricSample(t, "h0", vm, comp, 50.0) for t in (0, 2000) for vm in ("vm0", "vm1")]
    samples += [MetricSample(1000, "h0", first, comp, 50.0), MetricSample(1000, "h0", second, comp, 50.0)]
    with pytest.raises(SequencingError, match=rf"^series \('h0', '{first}', 'vm.cpu'\): timestamp 1000 after 2000$"):
        SampleColumns.of(samples)


def assert_refused_at_the_door(samples: list, message: str, *runs) -> None:
    """``SampleColumns.of`` refuses ``samples`` with ``ValueError(message)``,
    and each of ``runs`` given the list raises that same type and message."""
    with pytest.raises(ValueError) as door:
        SampleColumns.of(samples)
    assert type(door.value) is ValueError and str(door.value) == message
    for run in runs:
        with pytest.raises(ValueError) as stage:
            run(samples)
        assert type(stage.value) is ValueError and str(stage.value) == message


@pytest.mark.parametrize(
    "metric, level", [("cpu", "vm"), ("throughput", "vm"), ("storage_io", "host")],
    ids=["percent", "other", "host-percent"],
)
def test_preprocess_rejects_an_unchecked_nan_naming_its_series_and_time(metric, level):
    # only a sample built with tuple.__new__ can hold NaN; SampleColumns.of
    # refuses it as the constructor would, naming its place in the list,
    # before clamping could turn a percent one into 0.0
    good = sample_series([0.0, 10.0, 20.0, 30.0, 40.0, 50.0], metric=metric, level=level)
    ts, host, vm, comp, _ = good[3]
    samples = good[:3] + [tuple.__new__(MetricSample, (ts, host, vm, comp, math.nan))] + good[4:]
    assert_refused_at_the_door(samples, f"sample 3: {comp.key}: non-finite value nan", preprocess)


def _stages(config: EngineConfig) -> dict:
    """Each stage that takes a list of samples, as a one-argument call."""
    return {
        "preprocess": preprocess,
        "collect_windows": lambda samples: collect_windows(samples, config.window_specs),
        "process_stream": Engine(config).process_stream,
    }


def _unchecked_nan(key: str, at: int) -> list:
    """Healthy windows 0-5 of h0/vm0 whose ``key`` sample at window ``at``
    is a NaN built unchecked; it is sample ``6 * at`` plus the position of
    ``key`` in ``HEALTHY``."""
    stream = samples_for([HEALTHY] * 6)
    return [
        tuple.__new__(MetricSample, (*s[:4], math.nan)) if (s.metric.key, s.timestamp) == (key, 1000 * at) else s
        for s in stream
    ]


@pytest.mark.parametrize(
    "stage, samples, first",
    [
        ("preprocess", _unchecked_nan("vm.cpu", 3), "sample 18: vm.cpu"),
        ("preprocess", _unchecked_nan("vm.throughput", 2), "sample 15: vm.throughput"),
        ("preprocess", _unchecked_nan("host.storage_io", 4), "sample 29: host.storage_io"),
        # the first NaN in list order raises, a non-percent one before a
        # percent one as much as the other way round
        ("preprocess", _unchecked_nan("vm.throughput", 1)[:-6] + _unchecked_nan("vm.memory", 5)[-6:],
         "sample 9: vm.throughput"),
        ("collect_windows", _unchecked_nan("vm.network", 3), "sample 20: vm.network"),
        ("collect_windows", _unchecked_nan("host.cpu", 1), "sample 10: host.cpu"),
        ("process_stream", _unchecked_nan("vm.memory", 2), "sample 13: vm.memory"),
    ],
    ids=["percent", "other", "host-percent", "percent-after-other", "window", "window-host", "process-stream"],
)
def test_columns_of_an_unchecked_nan_raise_as_its_samples_do(config, stage, samples, first):
    # a NaN reaches no written stream (the reader rejects it, naming its
    # line), nor any stage: SampleColumns.of refuses it, naming its index
    run = _stages(config)[stage]
    assert_refused_at_the_door(samples, f"{first}: non-finite value nan", run)


_CPU = ComponentId("cpu")


@pytest.mark.parametrize(
    "samples, message",
    [
        ([MetricSample(0, "h0", "vm0", _CPU, 30.0), tuple.__new__(MetricSample, (0, "h0", None, _CPU, 30.0))],
         "sample 1: vm-level metric vm.cpu requires vm_id"),
        ([MetricSample(0, "h0", "vm0", _CPU, 30.0), MetricSample(0, "h0", "vm0", _CPU, 30.0)._replace(timestamp=1.5)],
         "sample 1: timestamp must be an integer, got 1.5"),
        # sample 1 runs backwards in its series, which preprocess would
        # raise as a SequencingError, but the NaN after it is met first
        # at the door, as the reader meets a NaN line before preprocess runs
        ([MetricSample(1000, "h0", "vm0", _CPU, 30.0), MetricSample(0, "h0", "vm0", _CPU, 30.0),
          MetricSample(2000, "h0", "vm0", _CPU, 30.0)._replace(value=math.nan)],
         "sample 2: vm.cpu: non-finite value nan"),
    ],
    ids=["vm-id-none-on-a-vm-metric", "timestamp-1.5", "decreasing-timestamp-then-nan"],
)
def test_the_door_refuses_what_the_sample_constructor_refuses(config, samples, message):
    assert_refused_at_the_door(samples, message, *_stages(config).values())


_DOOR_SERIES = [
    (host, vm, ComponentId.parse(key))
    for host in ("h0", "h1")
    for vm, key in (("vm0", "vm.cpu"), ("vm1", "vm.cpu"), ("vm0", "vm.memory"), (None, "host.cpu"))
]


@st.composite
def _door_streams(draw):
    """Small streams in any order: a few series, each given one of a few
    timestamp columns, so that series often share a column that falls,
    and interleaved at random."""
    times = st.lists(st.integers(0, 4).map(lambda t: 1000 * t), min_size=1, max_size=5)
    columns = draw(st.lists(times, min_size=1, max_size=3))
    series = {key: draw(st.sampled_from(columns)) for key in draw(
        st.lists(st.sampled_from(_DOOR_SERIES), min_size=1, max_size=5, unique=True)
    )}
    slots = draw(st.permutations([key for key, column in series.items() for _ in column]))
    taken = {key: iter(column) for key, column in series.items()}
    values = draw(st.lists(st.floats(0.0, 100.0), min_size=len(slots), max_size=len(slots)))
    return [MetricSample(next(taken[key]), *key, value) for key, value in zip(slots, values)]


def _sequencing(run, samples):
    """The type and message of the ``SequencingError`` that ``run(samples)``
    raises, or None if it raises none."""
    try:
        run(samples)
    except SequencingError as exc:
        return type(exc), str(exc)
    except ValueError as exc:
        # a window short of a metric, or given one twice, is refused after
        # the time order is judged
        assert re.search(r"missing|second sample", str(exc)), exc
    return None


@settings(max_examples=300)
@given(samples=_door_streams())
def test_every_way_in_refuses_the_first_falling_sample_of_the_stream(config, tmp_path_factory, samples):
    # the time order is judged once, as the columns are completed, so the
    # list's columns, the columns read back from its written stream and
    # every stage given the list raise one error: the oracle's
    fall = oracles.first_fall(samples)
    expected = None if fall is None else (SequencingError, str(fall))
    path = tmp_path_factory.mktemp("door") / "stream.jsonl"
    write_metric_samples(samples, path)
    runs = {"of": SampleColumns.of, "read": lambda _: read_sample_columns(path), **_stages(config)}
    assert {name: _sequencing(run, samples) for name, run in runs.items()} == dict.fromkeys(runs, expected)


def test_the_door_lets_through_what_the_sample_constructor_takes():
    # the door runs the constructor's own check, so it refuses no more:
    # an int value and a str-subclass host id pass
    class Host(str):
        pass

    samples = [MetricSample(0, Host("h0"), "vm0", _CPU, 30), MetricSample(1000, "h0", "vm0", _CPU, True)]
    assert list(SampleColumns.of(samples)) == samples
    assert [s.value for s in preprocess(samples)] == [30, True]


def test_preprocess_allows_equal_timestamps_and_parallel_series():
    comp = ComponentId("cpu", "vm")
    samples = [
        MetricSample(1000, "h0", "vm0", comp, 50.0),
        MetricSample(0, "h0", "vm1", comp, 50.0),  # different series, earlier is fine
        MetricSample(1000, "h0", "vm0", comp, 51.0),  # duplicate timestamp is fine
    ]
    assert len(preprocess(samples)) == 3


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
def test_preprocess_idempotent(values):
    once = preprocess(sample_series(values))
    assert preprocess(once) == once


def _preprocess_against_oracle(values, metric, policy) -> int:
    """Assert preprocess equals the single-pass oracle iterated to its
    fixed point (stopping, as the engine does, after _MAX_PASSES);
    returns the number of passes that changed something."""
    expected = []
    for v in values:
        if metric in engine_mod.PERCENT_METRIC_NAMES and not 0.0 <= v <= 100.0:
            v = min(100.0, max(0.0, v))
        expected.append(v)
    expected, passes = oracles.median_mad_filter(expected, policy.window, policy.z_cutoff, engine_mod._MAX_PASSES)
    got = [s.value for s in preprocess(sample_series(values, metric=metric), policy)]
    assert len(got) == len(expected)
    assert all(a == b for a, b in zip(got, expected))
    return passes


_MANY_PASS_SERIES = [
    ([100.0, 90.0, 1.0, 21.0, 91.0, 0.0, 20.0, 90.0, 21.0, 50.0, 90.5, 10.5], 5, 3.0),
    ([91.0, 10.0, 50.0, 10.5, 100.0, 100.0, 10.0, 91.0, 10.5, 0.0, 90.5, 100.0], 11, 3.0),
]


@pytest.mark.parametrize("values,window,cutoff", _MANY_PASS_SERIES)
def test_preprocess_matches_oracle_on_many_pass_series(values, window, cutoff):
    policy = PreprocessPolicy(window=window, z_cutoff=cutoff)
    assert _preprocess_against_oracle(values, "cpu", policy) > 2


@settings(max_examples=300)
@given(
    values=st.lists(
        st.one_of(
            st.floats(min_value=-50.0, max_value=150.0),
            st.sampled_from([-1e9, -1e3, 0.0, 100.0, 1e3, 1e9]),
        ),
        min_size=1,
        max_size=60,
    ),
    metric=st.sampled_from(["cpu", "throughput"]),
    window=st.sampled_from([3, 5, 11, 21]),
    cutoff=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
@example(values=_MANY_PASS_SERIES[0][0], metric="cpu", window=5, cutoff=3.0)
def test_preprocess_matches_oracle(values, metric, window, cutoff):
    policy = PreprocessPolicy(window=window, z_cutoff=cutoff)
    _preprocess_against_oracle(values, metric, policy)


@settings(max_examples=500)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5, 40.0, -1e3]),
            st.floats(min_value=-1e3, max_value=1e3),
        ),
        max_size=50,
    ),
    window=st.sampled_from(range(3, 16, 2)),
    cutoff=st.sampled_from([0.5, 1.0, 3.0]),
)
@example(values=[5.0, 0.0, -0.0, 0.0, 7.0, -0.0, 0.0, 3.0, -0.0], window=3, cutoff=0.5)
@example(values=[-0.0, 0.0, 0.0, -0.0, 9.0, -0.0, 0.0, -0.0, 0.0, 0.0, 4.0], window=5, cutoff=0.5)
def test_preprocess_matches_slice_and_sort_to_the_sign_of_zero(values, window, cutoff):
    # in a window of 0.0s and -0.0s, the order equal zeros sort in decides
    # the sign of the median that replaces a spike; a filter that keeps
    # its windows sorted some other way must pick the same zero
    policy = PreprocessPolicy(window=window, z_cutoff=cutoff)
    want, _ = oracles.median_mad_filter(values, window, cutoff, engine_mod._MAX_PASSES)
    # a sample whose cleaned value equals its own is passed through as it was
    want = [v if w == v else w for v, w in zip(values, want)]
    got = preprocess(sample_series(values, metric="throughput"), policy)
    assert [repr(s.value) for s in got] == [repr(v) for v in want]


@st.composite
def _long_series(draw):
    """150-400 values: a jittered baseline on a coarse grain, so equal
    values recur (and -0.0 beside 0.0 on a zero baseline), with plateaus
    of 1-12 samples anywhere and spikes near both ends."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=150, max_value=400))
    level = draw(st.sampled_from([0.0, 20.0, 50.0]))
    grain = draw(st.sampled_from([0.5, 1.0, 4.0]))
    values = [level + rnd.randint(-4, 4) * grain if level else rnd.choice([0.0, -0.0, grain, -grain]) for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        start = rnd.randrange(n)
        length = min(rnd.randint(1, 12), n - start)
        values[start : start + length] = [level + rnd.choice([-30.0, 15.0, 40.0, 250.0])] * length
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        spike = level + rnd.choice([-60.0, 35.0, 90.0, 1e3])
        values[rnd.randrange(12) if rnd.random() < 0.5 else n - 1 - rnd.randrange(12)] = spike
    return values


@settings(max_examples=150, deadline=None)
@given(values=_long_series(), window=st.sampled_from([3, 5, 11, 21]), cutoff=st.sampled_from([0.5, 3.0, 1, 3]))
def test_preprocess_matches_slice_and_sort_on_long_series(values, window, cutoff):
    # long enough that a later pass judges several runs, merged where
    # they overlap or touch, and runs that reach either end of the series
    policy = PreprocessPolicy(window=window, z_cutoff=cutoff)
    want, _ = oracles.median_mad_filter(values, window, cutoff, engine_mod._MAX_PASSES)
    samples = sample_series(values, metric="throughput")
    got = preprocess(samples, policy)
    assert [repr(s.value) for s in got] == [repr(v if w == v else w) for v, w in zip(values, want)]
    # a sample the filter keeps is passed through as it was
    assert all(g is s for s, g, w in zip(samples, got, want) if w == s.value)


def test_preprocess_stops_after_64_passes_short_of_the_fixed_point():
    # the cap: this series still moves on its 64th pass, so a filter that
    # dropped or moved the cap would give other values, and a second
    # preprocess of the output moves it again
    policy = PreprocessPolicy(window=5, z_cutoff=0.5)
    once = preprocess(sample_series([1, 20, 50, 100.5, 91], metric="throughput"), policy)
    assert [s.value for s in once] == [
        49.99999998603016, 49.99999999301508, 50, 50.000000009546056, 50.000000009546056
    ]
    twice = preprocess(once, policy)
    assert [s.value for s in twice] == [
        49.99999999650754, 49.99999999650754, 50, 50.000000002386514, 50.000000002386514
    ]


def test_series_filter_counts_the_pairs_it_judges_and_the_samples_it_replaces():
    # a spike: pass 0 judges all 20 positions and replaces the spike, pass
    # 1 the 11 whose window holds it, and replaces nothing
    spike = SeriesFilter(PreprocessPolicy(), False, array("d", [50.0] * 10 + [900.0] + [50.0] * 9))
    assert list(spike.close()) == [50.0] * 20
    assert (spike.judged, spike.replaced) == (31, 1)
    # the 64-pass cap: 64 passes over all 5 positions, none of them final
    capped = SeriesFilter(PreprocessPolicy(window=5, z_cutoff=0.5), False, array("d", [1, 20, 50, 100.5, 91]))
    capped.close()
    assert capped.judged == 64 * 5
    assert (capped.judged, capped.replaced) == oracles.median_mad_counts([1, 20, 50, 100.5, 91], 5, 0.5)


@contextlib.contextmanager
def _feed_stride(stride: int):
    """Judge as often as every ``stride`` values fed."""
    kept = engine_mod._FEED_STRIDE
    engine_mod._FEED_STRIDE = stride
    try:
        yield
    finally:
        engine_mod._FEED_STRIDE = kept


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(min_value=-50.0, max_value=150.0),
            st.sampled_from([0.0, -0.0, 1.0, 50.0, 100.0, -1e3, 1e9]),
        ),
        max_size=120,
    ),
    percent=st.booleans(),
    window=st.sampled_from(range(3, 24, 2)),
    cutoff=st.sampled_from([0.1, 0.5, 1, 3.0]),
    cuts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=200),
    stride=st.sampled_from([1, 2, 7, 128]),
)
@example(values=[1, 20, 50, 100.5, 91], percent=False, window=5, cutoff=0.5, cuts=[1], stride=1)
# pass 1 reads a replacement pass 0 has not yet written to the buffer
@example(values=[1.0, 0.0, 1.0, 0.0, 0.0], percent=False, window=3, cutoff=0.1, cuts=[1], stride=1)
def test_series_filter_fed_in_pieces_equals_the_batch(values, percent, window, cutoff, cuts, stride):
    # any cut of a series into pieces of 1 to 50 values gives the values
    # preprocess gives for the whole series, and judges the same pairs
    policy = PreprocessPolicy(window=window, z_cutoff=cutoff)
    batch = SeriesFilter(policy, percent, array("d", values))
    want = batch.close()
    streamed = SeriesFilter(policy, percent)
    with _feed_stride(stride):
        start = 0
        for size in itertools.cycle(cuts):
            if start >= len(values):
                break
            streamed.feed(values[start : start + size])
            start += size
        got = streamed.close()
    assert len(got) == len(want) and all(a == b for a, b in zip(got, want))
    assert (streamed.judged, streamed.replaced) == (batch.judged, batch.replaced)
    # the batch is preprocess itself, and counts the pairs the oracle does
    metric = "cpu" if percent else "throughput"
    assert [s.value for s in preprocess(sample_series(values, metric=metric), policy)] == list(want)
    clamped = [min(100.0, max(0.0, v)) if percent else v for v in values]
    assert (batch.judged, batch.replaced) == oracles.median_mad_counts(clamped, window, cutoff)


# a percent series clamped to 100.0, but for a dip that the filter replaces
_CLAMPED_DIP = [150.0] * 10 + [3.0] + [150.0] * 9


def test_preprocess_cleans_the_columns_given_in_place():
    columns = SampleColumns.of(sample_series(_CLAMPED_DIP, metric="cpu"))
    given = list(columns.values)
    assert preprocess(columns) is columns
    assert all(a is b for a, b in zip(columns.values, given)) and len(columns.values) == len(given) == 1
    assert list(given[0]) == [100.0] * 20


def test_preprocess_adds_its_filters_counts_to_the_stats_given():
    stats = RunStats()
    columns = SampleColumns.of(sample_series(_CLAMPED_DIP, metric="cpu"))
    preprocess(columns, None, stats)
    alone = SeriesFilter(PreprocessPolicy(), True, array("d", _CLAMPED_DIP))
    alone.close()
    # 19 values past 100, and the dip the filter replaces once
    assert (stats.clamped, stats.judged, stats.replaced) == (alone.clamped, alone.judged, alone.replaced)
    assert (alone.clamped, alone.replaced) == (19, 1) and alone.judged > 20
    # the counts add up over calls: the clean series judged once more
    preprocess(columns, None, stats)
    assert (stats.clamped, stats.judged, stats.replaced) == (19, alone.judged + 20, 1)


def test_engine_alarms_cleans_the_reader_columns_in_place(tmp_path):
    # the read columns are fed to the filter whole: every value column
    # afterwards is the reader's own array, holding the filtered series
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    rng = random.Random(5)
    spiked = [s._replace(value=s.value * 40 + 200) if rng.random() < 0.04 else s for s in samples]
    path = tmp_path / "metrics.jsonl"
    write_metric_samples(spiked, path)
    config = load_config(fixture_path("engine_config.json"))
    columns = read_sample_columns(path)
    given = list(columns.values)
    raw = [list(values) for values in given]
    alarms = list(Engine(config).alarms(columns))
    assert alarms == Engine(config).process_stream(spiked)
    assert len(columns.values) == len(given) and all(a is b for a, b in zip(columns.values, given))
    policy = config.preprocess
    moved = 0
    for (_, _, metric), values, before in zip(columns.series, columns.values, raw):
        if metric.name in engine_mod.PERCENT_METRIC_NAMES:
            before = [min(100.0, max(0.0, v)) for v in before]
        want, _ = oracles.median_mad_filter(before, policy.window, policy.z_cutoff, engine_mod._MAX_PASSES)
        assert list(values) == want
        moved += want != before
    assert moved  # the spikes were replaced, so the check saw the filter work


def test_a_list_given_to_preprocess_or_process_stream_is_left_as_it_was():
    samples = sample_series(_CLAMPED_DIP, metric="cpu")
    kept = list(samples)
    cleaned = preprocess(samples)
    assert [s.value for s in cleaned] == [100.0] * 20
    assert samples == kept and all(a is b for a, b in zip(samples, kept))
    config = load_config(fixture_path("engine_config.json"))
    stream, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    stream = [s._replace(value=s.value * 40 + 200) if i % 25 == 3 else s for i, s in enumerate(stream)]
    kept = list(stream)
    assert Engine(config).process_stream(stream)
    assert stream == kept and all(a is b for a, b in zip(stream, kept))


@pytest.mark.parametrize("window", [2, 1, -3, 4])
def test_preprocess_policy_rejects_bad_window(window):
    with pytest.raises(ValueError):
        PreprocessPolicy(window=window)


def _config_with(tmp_path, section: str, entries: dict):
    """The fixture config document, with ``entries`` as its ``section``, written to a file."""
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    cfg_doc[section] = entries
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    return p


@pytest.mark.parametrize(
    "entries, direct, through_config",
    [
        ({"window": 11.0}, r"window must be an integer, got 11\.0",
         r"window must be a JSON integer, got 11\.0"),
        ({"z_cutoff": math.nan}, r"z_cutoff must be a finite number, got nan",
         r"config .*: z_cutoff must be a finite number, got nan"),
        ({"z_cutoff": math.inf}, r"z_cutoff must be a finite number, got inf",
         r"config .*: z_cutoff must be a finite number, got inf"),
    ],
    ids=["window-float", "z-cutoff-nan", "z-cutoff-inf"],
)
def test_preprocess_policy_takes_only_what_a_config_can_mean(tmp_path, entries, direct, through_config):
    # before, window 11.0 ended the run in a bare TypeError inside
    # preprocess, and a NaN z_cutoff (which json reads) switched the
    # outlier filter off
    with pytest.raises(ValueError, match=f"^{direct}$"):
        PreprocessPolicy(**entries)
    with pytest.raises(ConfigError, match=through_config):
        load_config(_config_with(tmp_path, "preprocess", entries))


@pytest.mark.parametrize("kind", ["cpu_hog", "network_overhead", "serious_crash"])
@pytest.mark.parametrize("windows, alarms", [(5, 0), (6, 6)])
def test_default_filter_removes_a_fault_of_five_windows_or_fewer(kind, windows, alarms):
    # the median of 11 samples of which at most 5 are faulty is a healthy
    # value, so the filter replaces each faulty one; from 6 on it is faulty
    config = load_config(fixture_path("engine_config.json"))
    assert config.preprocess.window == 11
    injection = FaultInjection(kind, "h0", 20, 20 + windows, vm="vm0")
    samples, _ = generate(Scenario(seed=5, duration=60, injections=(injection,)))
    assert len(Engine(config).process_stream(samples)) == alarms


# -- windowing -------------------------------------------------------


def buckets_of(values: dict, specs) -> tuple:
    """The bucket of each of ``specs``' metrics in ``values``, one discretize each."""
    return tuple(discretize(values[spec.component.key], spec) for spec in specs)


def test_collect_windows_groups_and_sorts(config):
    stream = samples_for([variant(**{"vm.cpu": 60.0}), HEALTHY])
    # the columns hold each series in time order, so a stream that runs
    # backwards is refused, not sorted
    with pytest.raises(SequencingError, match=r"^series \('h0', None, 'host.storage_io'\): timestamp 0 after 1000$"):
        collect_windows(stream[::-1], config.window_specs)
    # each window's samples reversed: the series interleave otherwise
    stream = [s for w in (0, 1000) for s in reversed([s for s in stream if s.timestamp == w])]
    windows = list(collect_windows(stream, config.window_specs))
    assert [w.timestamp for w in windows] == [0, 1000]
    assert windows[0].buckets == buckets_of(variant(**{"vm.cpu": 60.0}), config.window_specs)
    assert windows[1].buckets == buckets_of(HEALTHY, config.window_specs)


def test_collect_windows_shares_host_metrics_across_vms(config):
    stream = samples_for([variant(**{"host.cpu": 60.0})], vm="vm0") + [
        s for s in samples_for([variant(**{"vm.cpu": 44.0})], vm="vm1") if s.metric.level == "vm"
    ]
    windows = collect_windows(stream, config.window_specs)
    assert [w.vm_id for w in windows] == ["vm0", "vm1"]
    host_cpu = config.window_specs.index(config.specs["host.cpu"])
    assert [w.buckets[host_cpu] for w in windows] == [2, 2]


def test_collect_windows_missing_metric(config):
    stream = [s for s in samples_for([HEALTHY]) if s.metric.key != "vm.memory"]
    with pytest.raises(IncompleteWindowError, match=r"^window t=0 h0/vm0: missing vm metric 'memory'$"):
        collect_windows(stream, config.window_specs)


def test_collect_windows_buckets_only_the_metrics_of_its_specs(config):
    # a window is the bucket tuple of its specs, in their order; other
    # metrics of the stream are not bucketed, but still open a window
    specs = (config.specs["host.cpu"], config.specs["vm.cpu"])
    stream = samples_for([dict(HEALTHY, **{"vm.extra": 500.0})])
    (window,) = collect_windows(stream, specs)
    assert window == (0, "h0", "vm0", buckets_of(HEALTHY, specs))
    extra = ComponentId("extra")
    stray = MetricSample(1000, "h0", "vm0", extra, 5.0)
    with pytest.raises(IncompleteWindowError, match=r"^window t=1000 h0/vm0: missing host metric 'cpu'$"):
        collect_windows(stream + [stray], specs)


@pytest.mark.parametrize("intervals", [4, 256, 257, 300])
def test_a_spec_of_more_buckets_than_a_byte_holds_gives_each_value_its_bucket(intervals):
    # collect_windows holds a column's buckets a byte each while they fit
    comp = ComponentId("cpu")
    spec = DiscretizationSpec(comp, tuple(100 * k / intervals for k in range(intervals + 1)))
    values = [-1.0, 0.0, 50.0, 99.99, 100.0, 120.0]
    stream = [MetricSample(1000 * t, "h0", "vm0", comp, v) for t, v in enumerate(values)]
    buckets = [w.buckets for w in collect_windows(stream, [spec])]
    assert buckets == [(discretize(min(100.0, max(0.0, v)), spec),) for v in values]
    assert buckets[-1] == (intervals - 1,)


@pytest.mark.parametrize("key", ["vm.cpu", "host.storage_io"])
def test_a_nan_in_a_window_raises_naming_the_window_and_the_key(config, key):
    # a NaN has no bucket; no reader or simulator yields one, so only an
    # unchecked sample carries it, and SampleColumns.of refuses it before
    # any window is collected
    comp = ComponentId.parse(key)
    nan = tuple.__new__(MetricSample, (3000, "h1", "vm2" if comp.level == "vm" else None, comp, math.nan))
    stream = samples_for([HEALTHY], host="h1", vm="vm2", first=3) + [nan]
    assert_refused_at_the_door(stream, f"sample 6: {key}: non-finite value nan", _stages(config)["collect_windows"])


@pytest.mark.parametrize("key", ["vm.cpu", "host.storage_io"])
@pytest.mark.parametrize("order", [(10.0, 90.0), (90.0, 10.0)])
def test_a_second_sample_of_a_windowed_metric_raises_in_either_order(config, key, order):
    # before, the later sample decided the window in silence: vm.cpu at
    # 10 then 90 gave one bucket vector, 90 then 10 another
    comp = ComponentId.parse(key)
    vm = "vm0" if comp.level == "vm" else None
    stream = samples_for([HEALTHY], first=1) + [MetricSample(1000, "h0", vm, comp, v) for v in order]
    scope = "h0/vm0" if vm else "h0"
    with pytest.raises(ValueError, match=rf"^window t=1000 {scope}: second sample of {re.escape(key)}$"):
        collect_windows(stream, config.window_specs)
    with pytest.raises(ValueError, match="second sample of"):
        Engine(config).process_stream(stream)


@pytest.mark.parametrize("key", ["vm.cpu", "vm.memory"])
def test_windowed_series_sharing_a_timestamp_column_each_name_their_own_second_sample(config, key):
    # vm.cpu and vm.memory both come twice at t=1000, so they share one
    # column, judged once; the second sample the stream gives first raises
    other = "vm.memory" if key == "vm.cpu" else "vm.cpu"
    stream = samples_for([HEALTHY, HEALTHY], first=0)
    stream += [MetricSample(1000, "h0", "vm0", ComponentId.parse(k), 30.0) for k in (key, other)]
    columns = SampleColumns.of(stream)
    stamps = {metric.key: column for (_, _, metric), column in zip(columns.series, columns.timestamps)}
    assert stamps["vm.cpu"] is stamps["vm.memory"]
    with pytest.raises(ValueError, match=rf"^window t=1000 h0/vm0: second sample of {re.escape(key)}$"):
        collect_windows(columns, config.window_specs)


def test_windows_with_equal_buckets_share_one_tuple(config):
    # a stream repeats few bucket vectors; each is one object, so the
    # windows hold no copies and the engine judges each vector once
    samples, _ = generate(load_scenario(fixture_path("scenario_800.json")))
    windows = collect_windows(samples, config.window_specs)
    vectors = {w.buckets for w in windows}
    assert len(windows) > len(vectors) > 1
    assert len({id(w.buckets) for w in windows}) == len(vectors)


def _fleet_samples(config, clocks: dict, seed: int, shuffled: bool = False) -> list:
    """A complete stream of the windowed metrics of ``config``: each host
    of ``clocks`` gives its metrics at each of its times, and each of its
    VMs gives theirs from its start on, with values drawn from ``seed``
    (some past the bucket bounds).  ``clocks`` maps a host to ``(times,
    {vm: index of the VM's first time})``."""
    rng = random.Random(seed)
    samples = []
    for host, (times, starts) in clocks.items():
        for i, ts in enumerate(times):
            for spec in config.window_specs:
                comp = spec.component
                for vm in [None] if comp.level == "host" else [vm for vm, first in starts.items() if first <= i]:
                    samples.append(MetricSample(ts, host, vm, comp, rng.uniform(-5.0, 120.0)))
    if shuffled:
        # the series interleave at random, each still in time order
        slots = [s[1:4] for s in samples]
        rng.shuffle(slots)
        series = {}
        for s in samples:
            series.setdefault(s[1:4], []).append(s)
        taken = {key: iter(column) for key, column in series.items()}
        return [next(taken[key]) for key in slots]
    samples.sort(key=lambda s: s.timestamp)
    return samples


def assert_windows_equal_the_windows_built_all(config, samples) -> None:
    windows = collect_windows(samples, config.window_specs)
    expected = oracles.windows_built_all(samples, config.window_specs)
    assert len(windows) == len(expected)
    first = list(windows)
    assert first == expected
    assert all(type(w) is Window for w in first)
    # the view builds its windows again on each iteration
    assert list(windows) == first


@st.composite
def _clocked_fleets(draw):
    """Hosts on their own clocks: each has an offset, may skip a run of
    its ticks, and has VMs that may start late."""
    clocks = {}
    for h in range(draw(st.integers(1, 3))):
        ticks = list(range(draw(st.integers(1, 70))))
        gap = draw(st.integers(0, 40))
        if gap:
            cut = draw(st.integers(0, len(ticks)))
            ticks = ticks[:cut] + [t + gap for t in ticks[cut:]]
        offset = draw(st.integers(0, 999))
        times = [offset + 1000 * t for t in ticks]
        starts = {f"vm{v}": draw(st.integers(0, len(times) - 1)) for v in range(draw(st.integers(1, 3)))}
        clocks[f"h{h}"] = (times, starts)
    return clocks


@settings(max_examples=150)
@given(clocks=_clocked_fleets(), seed=st.integers(0, 2**32 - 1), shuffled=st.booleans())
def test_windows_equal_the_windows_built_all_on_hosts_with_their_own_clocks(config, clocks, seed, shuffled):
    # the view builds a block of times at a time; what it gives must be
    # every window, in the order one stable sort of all of them gives
    assert_windows_equal_the_windows_built_all(config, _fleet_samples(config, clocks, seed, shuffled))


@pytest.mark.parametrize("extra", [0, 500], ids=["one-clock", "offset-clocks"])
@pytest.mark.parametrize("count", [1, 5, 31, 32, 33, 64, 65])
def test_windows_at_the_edges_of_a_block_equal_the_windows_built_all(config, count, extra):
    # count distinct times per host: one time, less than a block, a
    # block, a block and one more; a second host off by 500 ms doubles the
    # clock's distinct times
    assert engine_mod._BLOCK_TIMES == 32
    times = [1000 * t for t in range(count)]
    clocks = {"h0": (times, {"vm0": 0, "vm1": 0})}
    if extra:
        clocks["h1"] = ([t + extra for t in times], {"vm0": 0})
    assert_windows_equal_the_windows_built_all(config, _fleet_samples(config, clocks, seed=count))


def test_no_windows_of_an_empty_stream(config):
    windows = collect_windows([], config.window_specs)
    assert len(windows) == 0 and list(windows) == []


# -- training features -----------------------------------------------


@pytest.mark.parametrize("scenario", ["scenario_800", "hot"])
def test_training_features_are_the_engine_window_buckets(config, scenario):
    # one bucket rule for training and serving: each example is the
    # engine's window of its scope and time, read at the NBC's positions
    scenario = hot_scenario() if scenario == "hot" else load_scenario(fixture_path(f"{scenario}.json"))
    samples, labels = generate(scenario)
    dataset = to_training_set(samples, labels, config.specs, config.attributes, config.classes)
    windows = {(w.timestamp, w.host_id, w.vm_id): w for w in collect_windows(samples, config.window_specs)}
    assert len(dataset) == len(labels) == len(windows)
    for example, label in zip(dataset, labels):
        buckets = windows[label.window * scenario.window_ms, label.host, label.vm].buckets
        assert example.features == tuple(buckets[i] for i in config.feature_positions)


def test_a_value_past_a_narrow_spec_trains_into_the_edge_bucket():
    # at 30 +/- 2 and 75 and above under a cpu hog, vm.cpu lies on both
    # sides of [40, 60]: each value trains into the bucket of the value
    # clamped to the bounds, as the engine judges it; before, the first
    # raised OutOfRangeError
    cpu = ComponentId("cpu")
    spec = DiscretizationSpec(cpu, (40.0, 50.0, 60.0))
    hog = FaultInjection("cpu_hog", "h0", 5, 10, vm="vm0")
    samples, labels = generate(Scenario(seed=1, duration=15, injections=(hog,)))
    dataset = to_training_set(samples, labels, {cpu.key: spec}, (cpu,), ("normal", "high-cpu-usage"))
    values = [s.value for s in samples if s.metric == cpu]
    assert min(values) < 40.0 and max(values) > 60.0
    assert [e.features for e in dataset] == [(discretize(min(60.0, max(40.0, v)), spec),) for v in values]
    assert {e.features for e in dataset} == {(0,), (1,)}


# -- single-window behaviour -----------------------------------------


def test_healthy_window_raises_nothing(config):
    engine = Engine(config)
    assert engine.step(window_at(0, HEALTHY)) == []
    assert engine.nbc_invocations == 0


def test_serious_window_gates_without_diagnosis(config):
    engine = Engine(config)
    alarms = engine.step(window_at(0, variant(**{"vm.cpu": 90.0})))
    assert len(alarms) == 1
    a = alarms[0]
    assert a.trigger == TRIGGER_GATE
    assert a.severity == 2
    assert a.diagnosis is None and a.top_cause is None
    assert engine.nbc_invocations == 0


def test_minor_window_gets_nbc_diagnosis(config):
    engine = Engine(config)
    values = variant(**{"vm.memory": 60.0})
    alarms = engine.step(window_at(0, values))
    assert len(alarms) == 1
    a = alarms[0]
    assert a.trigger == TRIGGER_NBC and a.severity == 1
    assert engine.nbc_invocations == 1
    # the alarm's distribution must be exactly the model posterior for
    # the discretized feature vector
    usage = usage_of(engine, window_at(0, values))
    features = tuple(usage[c.key] for c in config.attributes)
    assert a.diagnosis == nbc.posterior(config.model, features)
    assert a.top_cause == config.classes[nbc.classify(config.model, features)]


def test_minor_window_computes_one_posterior(config, monkeypatch):
    calls = []
    real = nbc.posterior

    def counting(model, features):
        calls.append(features)
        return real(model, features)

    monkeypatch.setattr(nbc, "posterior", counting)
    alarms = Engine(config).step(window_at(0, variant(**{"vm.memory": 60.0})))
    assert alarms[0].trigger == TRIGGER_NBC and len(calls) == 1


def test_throughput_alone_never_alarms(config):
    # throughput is a feature but not a severity component, so a bad
    # throughput reading cannot open the gate by itself
    engine = Engine(config)
    assert engine.step(window_at(0, variant(**{"vm.throughput": 90.0}))) == []


def test_throughput_past_its_bounds_is_clamped_to_the_top_bucket(config, monkeypatch):
    # throughput is not a percent metric, so a steady 250 tx/s series
    # survives preprocess; collect_windows puts it in the edge bucket
    stream = samples_for([variant(**{"vm.memory": 60.0, "vm.throughput": 250.0})] * 15)
    cleaned = preprocess(stream)
    assert {s.value for s in cleaned if s.metric.name == "throughput"} == {250.0}
    seen = []
    real = nbc.posterior

    def capture(model, features):
        seen.append(features)
        return real(model, features)

    monkeypatch.setattr(nbc, "posterior", capture)
    alarms = Engine(config).process_stream(stream)
    assert len(alarms) == len(seen) == 15
    throughput = config.attribute_keys.index("vm.throughput")
    assert {f[throughput] for f in seen} == {3}


_BUCKET_PROBES = [-math.inf, -5.0, 250.0, math.inf, math.nan] + [
    v for b in (0.0, 25.0, 50.0, 75.0, 100.0)
    for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
]


@pytest.mark.parametrize("value", _BUCKET_PROBES, ids=[repr(v) for v in _BUCKET_PROBES])
def test_usage_bucket_is_the_bucket_of_the_clamped_value(config, value):
    # collect_windows looks buckets up inline; this is the
    # clamp-then-discretize it stands for on a finite value, while a NaN
    # or an infinity, which the sample constructor refuses, is refused
    # before any window is collected instead of put in an edge bucket
    spec = config.specs["vm.throughput"]
    low, high = spec.boundaries[0], spec.boundaries[-1]
    if not math.isfinite(value):
        samples = window_samples(0, variant(**{"vm.throughput": value}))
        message = f"sample 3: vm.throughput: non-finite value {value}"
        assert_refused_at_the_door(samples, message, _stages(config)["collect_windows"])
        return
    usage = usage_of(Engine(config), window_at(0, variant(**{"vm.throughput": value})))
    assert usage["vm.throughput"] == discretize(min(high, max(low, value)), spec)


def test_severity_uses_mapped_buckets(config):
    engine = Engine(config)
    assert severity_of(engine, window_at(0, HEALTHY)) == 0
    assert severity_of(engine, window_at(0, variant(**{"vm.network": 60.0}))) == 1
    assert severity_of(engine, window_at(0, variant(**{"host.storage_io": 90.0}))) == 2


def test_custom_severity_mapping(config):
    strict = EngineConfig(
        specs=config.specs,
        severity_components=config.severity_components,
        model=config.model,
        severity_mapping=(0, 1, 1, 2),
        loop_rule=config.loop_rule,
    )
    engine = Engine(strict)
    alarms = engine.step(window_at(0, HEALTHY))  # bucket-1 metrics now count as minor
    assert len(alarms) == 1 and alarms[0].trigger == TRIGGER_NBC
    assert engine.nbc_invocations == 1


@given(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 6),
    st.integers(min_value=0, max_value=5),
)
def test_severity_monotone_in_each_component(buckets, which):
    cfg = _load_fixture_config()
    engine = Engine(cfg)
    keys = [c.key for c in cfg.attributes]
    values = {k: BUCKET_VALUE[b] for k, b in zip(keys, buckets)}
    before = severity_of(engine, window_at(0, values))
    raised = dict(values)
    key = keys[which]
    idx = BUCKET_VALUE.index(raised[key])
    raised[key] = BUCKET_VALUE[min(3, idx + 1)]
    assert severity_of(engine, window_at(0, raised)) >= before



@pytest.mark.parametrize("mapping", [(0, 0, 1, 2), (0, 1, 1, 2)])
def test_compiled_severity_matches_mdd_on_every_bucket_combination(config, mapping):
    # the engine's config-time tables against the validated MDD walk
    cfg = remade(config, severity_mapping=mapping)
    engine = Engine(cfg)
    comps = cfg.severity_components
    for buckets in itertools.product(range(4), repeat=len(comps)):
        values = dict(HEALTHY, **{c.key: BUCKET_VALUE[b] for c, b in zip(comps, buckets)})
        levels = [mapping[b] for b in buckets]
        want = cfg.severity_mdd.evaluate(StateVector.from_levels(comps, levels))
        assert severity_of(engine, window_at(0, values)) == want, buckets


def test_incomplete_window_rejected(config):
    engine = Engine(config)
    values = dict(HEALTHY)
    del values["host.storage_io"]
    with pytest.raises(IncompleteWindowError, match="missing host metric 'storage_io'"):
        engine.step(window_at(0, values))


# -- the loop rule ---------------------------------------------------


def test_loop_rule_match_table(config):
    rule = LoopRule()
    engine = Engine(remade(config, loop_rule=rule))
    cases = [
        ({"vm.cpu": 3, "host.cpu": 3, "vm.throughput": 0}, True),
        ({"vm.cpu": 3, "host.cpu": 3, "vm.throughput": 1}, False),
        ({"vm.cpu": 3, "host.cpu": 2, "vm.throughput": 0}, False),
        ({"vm.cpu": 2, "host.cpu": 3, "vm.throughput": 0}, False),
        ({"vm.cpu": 0, "host.cpu": 0, "vm.throughput": 0}, False),
    ]
    for usage, want in cases:
        values = variant(**{key: BUCKET_VALUE[b] for key, b in usage.items()})
        assert judgment(engine, window_at(0, values))[1] is want, usage


@pytest.mark.parametrize(
    "entries, named",
    [
        ({"k": 2.5}, r"loop rule k must be an integer, got 2\.5"),
        ({"k": True}, r"loop rule k must be an integer, got True"),
        ({"vm_cpu": 5}, r"loop rule vm_cpu must be a string, got 5"),
        ({"host_cpu": None}, r"loop rule host_cpu must be a string, got None"),
        ({"throughput": ("vm.throughput",)}, r"loop rule throughput must be a string, got \('vm\.throughput',\)"),
        ({"cause": b"endless-loop"}, r"loop rule cause must be a string, got b'endless-loop'"),
        ({"k": 0}, r"loop rule needs k >= 1"),
    ],
    ids=["k-fraction", "k-true", "vm-cpu-number", "host-cpu-none", "throughput-tuple", "cause-bytes", "k-zero"],
)
def test_loop_rule_takes_an_integer_k_and_string_keys(entries, named):
    # before, k=2.5 was accepted and the streak never equalled it, so the
    # loop alarm never fired; k=True was taken as 1
    with pytest.raises(ValueError, match=f"^{named}$"):
        LoopRule(**entries)


def test_load_config_names_an_invalid_loop_rule(tmp_path):
    # before, this left load_config as a bare ValueError, not a ConfigError
    with pytest.raises(ConfigError, match=r"config .*: loop rule needs k >= 1"):
        load_config(_config_with(tmp_path, "loop_rule", {"k": 0}))


def test_loop_rule_requires_k_windows(config):
    engine = Engine(config)
    triggers = []
    for w in range(5):
        alarms = engine.step(window_at(w, LOOP_VALUES))
        triggers.append([a.trigger for a in alarms])
    # first two gate anonymously; the third completes the pattern and is
    # the diagnosed replacement; afterwards the span keeps gating
    assert triggers == [
        [TRIGGER_GATE],
        [TRIGGER_GATE],
        [TRIGGER_NBC],
        [TRIGGER_GATE],
        [TRIGGER_GATE],
    ]
    assert engine.nbc_invocations == 0  # the loop diagnosis is rule-made


def test_loop_alarm_contents(config):
    engine = Engine(config)
    engine.step(window_at(0, LOOP_VALUES))
    engine.step(window_at(1, LOOP_VALUES))
    (alarm,) = engine.step(window_at(2, LOOP_VALUES))
    assert alarm.top_cause == "endless-loop"
    assert alarm.severity == 2
    cause_idx = config.classes.index("endless-loop")
    assert alarm.diagnosis[cause_idx] == 1.0
    assert sum(alarm.diagnosis) == 1.0


def test_loop_streak_resets_on_break(config):
    engine = Engine(config)
    engine.step(window_at(0, LOOP_VALUES))
    engine.step(window_at(1, LOOP_VALUES))
    engine.step(window_at(2, HEALTHY))  # pattern broken before K
    for w in range(3, 5):
        (alarm,) = engine.step(window_at(w, LOOP_VALUES))
        assert alarm.trigger == TRIGGER_GATE
    (alarm,) = engine.step(window_at(5, LOOP_VALUES))
    assert alarm.trigger == TRIGGER_NBC  # fresh K-streak completed


def test_loop_fires_again_after_pattern_breaks(config):
    engine = Engine(config)
    causes = []
    pattern = [LOOP_VALUES] * 4 + [HEALTHY] + [LOOP_VALUES] * 3
    for w, values in enumerate(pattern):
        for a in engine.step(window_at(w, values)):
            causes.append(a.top_cause)
    assert causes.count("endless-loop") == 2


def test_loop_streaks_tracked_per_scope(config):
    engine = Engine(config)
    alarms = []
    for w in range(3):
        alarms += engine.step(window_at(w, LOOP_VALUES, vm="vm0"))
        alarms += engine.step(window_at(w, LOOP_VALUES, vm="vm1"))
    # both scopes complete independent streaks and each gets its own diagnosis
    loops = [a for a in alarms if a.top_cause == "endless-loop"]
    assert {a.vm_id for a in loops} == {"vm0", "vm1"}


# -- streams ---------------------------------------------------------


def test_process_stream_crash_scenario_all_gate(config):
    scenario = load_scenario(fixture_path("scenario_serious_crash.json"))
    samples, _ = generate(scenario)
    engine = Engine(config)
    alarms = engine.process_stream(samples)
    assert len(alarms) == 20  # the injection span, one gate alarm per window
    assert all(a.trigger == TRIGGER_GATE for a in alarms)
    assert all(a.diagnosis is None for a in alarms)
    assert engine.nbc_invocations == 0


def test_process_stream_loop_scenario_one_named_alarm(config):
    scenario = load_scenario(fixture_path("scenario_endless_loop.json"))
    samples, _ = generate(scenario)
    engine = Engine(config)
    alarms = engine.process_stream(samples)
    named = [a for a in alarms if a.top_cause == "endless-loop"]
    assert len(named) == 1
    assert named[0].timestamp == (20 + config.loop_rule.k - 1) * 1000
    assert all(a.trigger == TRIGGER_GATE for a in alarms if a is not named[0])
    assert engine.nbc_invocations == 0


def test_process_stream_healthy_scenario_silent(config):
    scenario = load_scenario(fixture_path("scenario_healthy.json"))
    samples, _ = generate(scenario)
    engine = Engine(config)
    assert engine.process_stream(samples) == []
    assert engine.nbc_invocations == 0


def test_no_window_silently_dropped(config):
    scenario = load_scenario(fixture_path("scenario_endless_loop.json"))
    samples, _ = generate(scenario)
    raised = Engine(config).process_stream(samples)
    assert len(raised) == len(set((a.timestamp, a.host_id, a.vm_id) for a in raised))


def test_alarm_log_byte_identical_across_runs(config, tmp_path):
    scenario = load_scenario(fixture_path("scenario_endless_loop.json"))
    samples, _ = generate(scenario)
    paths = []
    for name in ("one.jsonl", "two.jsonl"):
        p = tmp_path / name
        write_alarm_log(Engine(config).process_stream(list(samples)), p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    first = json.loads(paths[0].read_text().splitlines()[0])
    assert set(first) == {
        "timestamp", "host_id", "vm_id", "severity", "trigger", "diagnosis", "top_cause",
    }



# SHA-256 of each fixture scenario's alarm log: the byte contract
ALARM_LOG_SHA256 = {
    "scenario_800": "36446186c87ebfcdb10ca94e7156782e692c992c73ec8bb428caca8b73445a1d",
    "scenario_endless_loop": "2a22f11bb218cf31a6b3a968321264fb092eb539181353bbeccf88ba5caaf30d",
    "scenario_healthy": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "scenario_serious_crash": "cf8bcf983b4ac76384ef31e6f45cd98ab64d040e0e72b030c3000a3074bb3437",
}


@pytest.mark.parametrize("name", sorted(ALARM_LOG_SHA256))
def test_alarm_log_bytes_pinned(config, tmp_path, name):
    samples, _ = generate(load_scenario(fixture_path(f"{name}.json")))
    p = tmp_path / "alarms.jsonl"
    write_alarm_log(Engine(config).process_stream(samples), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == ALARM_LOG_SHA256[name]


# -- the alarm log writer --------------------------------------------

# equal tuples that encode differently, and one that does not equal them
EQUAL_DIAGNOSES = [(0.0, 1.0), (-0.0, 1.0), (0, 1), (1, 0), (1.0, 0.0), (1.0, -0.0), (0.25, 0.75)]


def _fresh(value):
    """An object equal to ``value`` but not it (for a str or a tuple)."""
    if isinstance(value, str):
        return "".join(list(value))
    return tuple(list(value))


@st.composite
def checked_alarms(draw):
    """Checked alarms whose ids and diagnoses are shared or fresh objects."""

    def shared_or_fresh(values):
        value = draw(st.sampled_from(values))
        return _fresh(value) if value is not None and draw(st.booleans()) else value

    host = shared_or_fresh(["h0", "h1", "h\u00e9"])
    vm = shared_or_fresh([None, "vm0", "vm1", 'vm"2'])
    timestamp = draw(st.integers(-(2**70), 2**70))
    if draw(st.booleans()):
        return Alarm(timestamp, host, vm, 2, TRIGGER_GATE)
    p = draw(st.floats(0.0, 1.0))
    diagnosis = shared_or_fresh(EQUAL_DIAGNOSES + [(p, 1.0 - p)])
    cause = shared_or_fresh(["cpu-hog", "endless-loop", "normal"])
    return Alarm(timestamp, host, vm, draw(st.integers(0, 2)), TRIGGER_NBC, diagnosis, cause)


def _lines(path):
    return path.read_text(encoding="utf-8").split("\n")[:-1]


@settings(max_examples=300)
@given(alarms=st.lists(checked_alarms(), max_size=30))
def test_alarm_log_line_is_json_dumps_of_the_record(tmp_path_factory, alarms):
    path = tmp_path_factory.mktemp("log") / "alarms.jsonl"
    assert write_alarm_log(alarms, path) == len(alarms)
    assert _lines(path) == [json.dumps(a.to_json_obj(), sort_keys=True) for a in alarms]


def test_alarm_log_writer_is_not_fooled_by_reused_ids(tmp_path):
    # each alarm and its fields are freed once the writer moved on, so a
    # new object can take the id of one the writer has already written
    def alarms():
        for i in range(400):
            diagnosis = _fresh(EQUAL_DIAGNOSES[i % len(EQUAL_DIAGNOSES)])
            yield Alarm(i, f"h{i % 3}", f"vm{i % 5}" if i % 4 else None, 1, TRIGGER_NBC,
                        diagnosis, f"cause-{i % 7}")

    path = tmp_path / "alarms.jsonl"
    assert write_alarm_log(alarms(), path) == 400
    assert _lines(path) == [json.dumps(a.to_json_obj(), sort_keys=True) for a in alarms()]


# -- alarm record validation -----------------------------------------


def test_alarm_invariants():
    with pytest.raises(ValueError):
        Alarm(0, "h0", "vm0", severity=1, trigger=TRIGGER_GATE)
    with pytest.raises(ValueError):
        Alarm(0, "h0", "vm0", severity=1, trigger=TRIGGER_NBC)  # no diagnosis
    with pytest.raises(ValueError):
        Alarm(0, "h0", "vm0", severity=1, trigger=TRIGGER_NBC, diagnosis=(0.5, 0.2))
    with pytest.raises(ValueError):
        Alarm(0, "h0", "vm0", severity=2, trigger="page_everyone")


def test_alarm_invariants_keep_their_messages():
    cases = [
        (dict(severity=1, trigger=TRIGGER_GATE), "severity_gate alarms are always serious"),
        (dict(severity=1, trigger=TRIGGER_NBC), "nbc_diagnosis alarms carry a diagnosis distribution"),
        (dict(severity=1, trigger=TRIGGER_NBC, diagnosis=(0.5, 0.2)), "diagnosis distribution must be normalized"),
        (dict(severity=2, trigger="page_everyone"), "unknown trigger 'page_everyone'"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Alarm(0, "h0", "vm0", **kwargs)


def nbc_alarm(**overrides):
    fields = dict(timestamp=0, host_id="h0", vm_id="vm0", severity=1, trigger=TRIGGER_NBC,
                  diagnosis=(0.25, 0.75), top_cause="cpu-hog")
    fields.update(overrides)
    return Alarm(**fields)


def test_alarm_rejects_a_nan_diagnosis():
    # abs(nan - 1) > 1e-12 is False, so the sum alone lets NaN through,
    # and the log would get a bare NaN, which is not JSON
    with pytest.raises(ValueError, match=r"diagnosis entries must be numbers in \[0, 1\]"):
        nbc_alarm(diagnosis=(math.nan, 1.0))


def test_alarm_rejects_a_negative_diagnosis_entry():
    with pytest.raises(ValueError, match=r"diagnosis entries must be numbers in \[0, 1\]"):
        nbc_alarm(diagnosis=(1.5, -0.5))


@pytest.mark.parametrize("timestamp", [1.5, 1000.0, True, "1000", None])
def test_alarm_rejects_a_timestamp_that_is_not_an_integer(timestamp):
    with pytest.raises(ValueError, match="timestamp must be an integer"):
        nbc_alarm(timestamp=timestamp)


@pytest.mark.parametrize("severity", [True, False, -1, 3, 1.0])
def test_alarm_rejects_a_classifier_severity_outside_0_to_2(severity):
    with pytest.raises(ValueError, match=r"severity must be an integer in 0\.\.2"):
        nbc_alarm(severity=severity)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("host_id", 0, "host_id must be a string"),
        ("host_id", None, "host_id must be a string"),
        ("vm_id", 3, "vm_id must be a string or None"),
        ("top_cause", None, "nbc_diagnosis alarms name a top_cause string"),
        ("top_cause", 2, "nbc_diagnosis alarms name a top_cause string"),
    ],
)
def test_alarm_ids_and_top_cause_are_strings(field, value, message):
    with pytest.raises(ValueError, match=message):
        nbc_alarm(**{field: value})


@pytest.mark.parametrize("extra", [{"diagnosis": (0.0, 1.0)}, {"top_cause": "cpu-hog"}])
def test_gate_alarm_carries_no_diagnosis_and_no_top_cause(extra):
    with pytest.raises(ValueError, match="severity_gate alarms carry no diagnosis and no top_cause"):
        Alarm(0, "h0", "vm0", severity=2, trigger=TRIGGER_GATE, **extra)


def test_alarm_is_an_immutable_tuple_record():
    a = nbc_alarm(diagnosis=[0.25, 0.75], vm_id=None)
    assert a == (0, "h0", None, 1, TRIGGER_NBC, (0.25, 0.75), "cpu-hog")
    assert type(a.diagnosis) is tuple
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.severity = 2
    assert Alarm(0, "h0", None, 2, TRIGGER_GATE) == (0, "h0", None, 2, TRIGGER_GATE, None, None)


def test_each_bucket_vector_is_judged_once(config, monkeypatch):
    judged = []
    real = Engine._judge
    monkeypatch.setattr(Engine, "_judge", lambda self, buckets: judged.append(buckets) or real(self, buckets))
    engine = Engine(config)
    values = [HEALTHY, variant(**{"vm.cpu": 31.0}), variant(**{"vm.cpu": 60.0}), HEALTHY]
    for w, v in enumerate(values):
        engine.step(window_at(w, v))
        engine.step(window_at(w, v, vm="vm1"))
    assert judged == [window_at(0, HEALTHY).buckets, window_at(0, values[2]).buckets]


def test_equal_diagnoses_of_one_engine_are_one_object(config):
    engine = Engine(config)
    minor = variant(**{"vm.memory": 60.0})
    (first,) = engine.step(window_at(0, minor))
    (second,) = engine.step(window_at(1, minor, vm="vm1"))
    assert engine.nbc_invocations == 2
    assert first.diagnosis is second.diagnosis and first.top_cause is second.top_cause


# -- virtual sensors -------------------------------------------------

SENSOR_PERIODS = (1, 500, 1000, 1500, 5000, 60000)


def gate_alarm(ts=0, vm="vm0"):
    return Alarm(ts, "h0", vm, severity=2, trigger=TRIGGER_GATE)


@pytest.mark.parametrize("name", sorted(ALARM_LOG_SHA256))
def test_deliveries_equal_the_stateful_routine_on_fixture_streams(config, name):
    samples, _ = generate(load_scenario(fixture_path(f"{name}.json")))
    alarms = Engine(config).process_stream(samples)
    # the reference moves its clock to every window and dispatches the
    # window's alarms, as the engine's run loop once did
    engine = Engine(config)
    windows = collect_windows(preprocess(samples, config.preprocess), config.window_specs)
    ticks = [(w.timestamp, engine.step(w)) for w in windows]
    for period in SENSOR_PERIODS:
        expected = oracles.sensor_deliveries("s", True, period, ticks)
        assert VirtualSensor("s", frequency_ms=period).deliveries(alarms) == expected


@settings(max_examples=300)
@given(
    times=st.lists(st.integers(min_value=0, max_value=20_000), max_size=40).map(sorted),
    period=st.sampled_from(SENSOR_PERIODS) | st.integers(min_value=1, max_value=7_000),
    active=st.booleans(),
)
@example(times=[0, 0, 999, 1000, 1000, 1500], period=1000, active=True)
def test_deliveries_equal_the_stateful_routine_on_random_logs(times, period, active):
    # several alarms at one timestamp are told apart by their vm
    alarms = [gate_alarm(ts, vm=f"vm{i}") for i, ts in enumerate(times)]
    expected = oracles.sensor_deliveries("s", active, period, [(a.timestamp, [a]) for a in alarms])
    assert VirtualSensor("s", active, period).deliveries(alarms) == expected


def test_delivery_waits_for_reporting_boundary():
    s = VirtualSensor("s", frequency_ms=1000)
    early, late = gate_alarm(999), gate_alarm(1000, vm="vm1")
    # 999 is held to the boundary at 1000; an alarm at 1000 opens the next interval
    assert s.deliveries([early]) == [(1000, early)]
    assert s.deliveries([early, late]) == [(1000, early), (2000, late)]


def test_newer_alarm_supersedes_within_interval():
    s = VirtualSensor("s", frequency_ms=1000)
    first, second = gate_alarm(0), gate_alarm(10)
    assert s.deliveries([first, second]) == [(1000, second)]


def test_inactive_sensor_receives_nothing_until_reactivated():
    log = [gate_alarm(0), gate_alarm(5000)]
    assert VirtualSensor("s", active=False).deliveries(log) == []
    assert VirtualSensor("s", active=True).deliveries(log) == [(1000, log[0]), (6000, log[1])]


def test_frequency_controls_boundary():
    alarm = gate_alarm(1200)  # boundary (1200//5000 + 1)*5000 = 5000
    assert VirtualSensor("s", frequency_ms=5000).deliveries([alarm]) == [(5000, alarm)]


def test_flush_delivers_trailing_alarm():
    # the end of the log delivers its last alarm at that alarm's boundary
    alarm = gate_alarm(1500)
    assert VirtualSensor("s", frequency_ms=1000).deliveries([alarm]) == [(2000, alarm)]


@pytest.mark.parametrize("frequency_ms", [1.5, 0.5, True, 2000.0, "1000", 0, -5])
def test_set_frequency_takes_only_a_positive_integer(frequency_ms):
    # a sensor is immutable: a new period is a new record, checked as the first was
    sensor = VirtualSensor("s", frequency_ms=2000)
    with pytest.raises(ValueError, match="sensor 's': frequency_ms must be a positive integer"):
        VirtualSensor(sensor.sensor_id, sensor.active, frequency_ms)
    assert sensor.frequency_ms == 2000


@pytest.mark.parametrize("frequency_ms", [0.5, 1000.0, True, None])
def test_sensor_frequency_must_be_a_positive_integer(frequency_ms):
    with pytest.raises(ValueError, match="sensor 'x': frequency_ms must be a positive integer"):
        VirtualSensor("x", frequency_ms=frequency_ms)


@pytest.mark.parametrize("active", ["no", "", 0, 1, None])
def test_set_active_takes_only_a_bool(active):
    with pytest.raises(ValueError, match="sensor 'x': active must be a bool"):
        VirtualSensor("x", active=active)


def test_clock_cannot_rewind():
    # the log's timestamps are the sensor's clock
    s = VirtualSensor("s")
    with pytest.raises(SequencingError, match="4999 after 5000"):
        s.deliveries([gate_alarm(5000), gate_alarm(4999)])
    with pytest.raises(SequencingError):
        VirtualSensor("s", active=False).deliveries([gate_alarm(5000), gate_alarm(4999)])


def test_sensors_see_stream_alarms(config):
    scenario = load_scenario(fixture_path("scenario_serious_crash.json"))
    samples, _ = generate(scenario)
    delivered = VirtualSensor("ops", frequency_ms=1000).deliveries(Engine(config).process_stream(samples))
    assert delivered
    assert delivered[-1][1].trigger == TRIGGER_GATE


# -- config loading --------------------------------------------------


def test_load_config_fixture(config):
    assert config.classes[0] == "normal"
    assert config.loop_rule.k == 3
    assert [c.key for c in config.attributes][:2] == ["vm.cpu", "vm.memory"]
    assert config.severity_mdd.node_count() >= 1


def test_load_config_detects_model_tampering(tmp_path):
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    model_bytes = open(fixture_path(cfg_doc["model"]["path"]), "rb").read()
    (tmp_path / "model.json").write_bytes(model_bytes + b" ")
    cfg_doc["model"]["path"] = "model.json"
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match="hash"):
        load_config(p)


def test_load_config_missing_model_file(tmp_path):
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = "nope.json"
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match="not found"):
        load_config(p)


@pytest.mark.parametrize(
    "key, value", [("window_ms", 1000), ("attributes", ["vm.cpu"])], ids=["window-ms", "attributes"]
)
def test_load_config_rejects_unknown_keys(tmp_path, key, value):
    # the loader does not read window_ms (windows are keyed by exact
    # timestamp), nor attributes (the feature order is the model's), so
    # a config carrying either must not pass in silence
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    cfg_doc[key] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\] in config "):
        load_config(p)


@pytest.mark.parametrize(
    "section, entry, named",
    [
        ("preprocess", {"z_cutof": 0.5}, r"\['z_cutof'\]"),
        ("loop_rule", {"kk": 9, "k": 2}, r"\['kk'\]"),
        # the retired keys: every out-of-range percent reading is clamped,
        # and the loop rule's buckets are the specs' top and bottom ones
        ("preprocess", {"clamp": True}, r"\['clamp'\]"),
        ("loop_rule", {"cpu_bucket": 3}, r"\['cpu_bucket'\]"),
        ("loop_rule", {"throughput_bucket": 0}, r"\['throughput_bucket'\]"),
    ],
    ids=["preprocess", "loop_rule", "preprocess-clamp", "loop-rule-cpu-bucket", "loop-rule-throughput-bucket"],
)
def test_load_config_rejects_unknown_keys_inside_a_section(tmp_path, section, entry, named):
    # a misspelt key would otherwise leave its default in force unnoticed
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    cfg_doc[section] = entry
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match=rf"unknown keys {named} in {section}"):
        load_config(p)


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("preprocess", "window", 11.9,
         r"preprocess of config .*: window must be a JSON integer, got 11\.9"),
        ("preprocess", "window", True,
         r"preprocess of config .*: window must be a JSON integer, got true"),
        ("preprocess", "z_cutoff", "3",
         r"preprocess of config .*: z_cutoff must be a JSON number, got \"3\""),
        ("preprocess", "z_cutoff", False,
         r"preprocess of config .*: z_cutoff must be a JSON number, got false"),
        ("loop_rule", "k", 2.7, r"loop_rule of config .*: k must be a JSON integer, got 2\.7"),
        (None, "severity_mapping", [0, 0, 1.0, 2],
         r"config .*: severity_mapping must be a JSON array of integers, got \[0, 0, 1\.0, 2\]"),
        (None, "severity_mapping", [0, 0, True, 2],
         r"config .*: severity_mapping must be a JSON array of integers, got \[0, 0, true, 2\]"),
        (None, "severity_mapping", "0012",
         r"config .*: severity_mapping must be a JSON array of integers, got \"0012\""),
        ("discretization", "vm.cpu", [False, "25", 50, 75, 100],
         r"discretization of config .*: vm\.cpu must be a JSON array of numbers, "
         r"got \[false, \"25\", 50, 75, 100\]"),
        ("discretization", "vm.cpu", 5,
         r"discretization of config .*: vm\.cpu must be a JSON array of numbers, got 5"),
        (None, "discretization", [], r"discretization must be a JSON object, got \[\]"),
        (None, "severity_components", ["vm.cpu", True],
         r"config .*: severity_components must be a JSON array of strings, "
         r"got \[\"vm\.cpu\", true\]"),
        (None, "loop_rule", [], r"loop_rule must be a JSON object, got \[\]"),
        (None, "preprocess", 5, r"preprocess must be a JSON object, got 5"),
        (None, "model", 5, r"model must be a JSON object, got 5"),
        ("model", "path", 5, r"model of config .*: path must be a JSON string, got 5"),
        ("loop_rule", "vm_cpu", 5, r"loop_rule of config .*: vm_cpu must be a JSON string, got 5"),
        ("loop_rule", "host_cpu", None,
         r"loop_rule of config .*: host_cpu must be a JSON string, got null"),
        ("loop_rule", "throughput", ["vm.throughput"],
         r"loop_rule of config .*: throughput must be a JSON string, got \[\"vm\.throughput\"\]"),
        ("loop_rule", "cause", 4, r"loop_rule of config .*: cause must be a JSON string, got 4"),
    ],
    ids=[
        "window-fraction", "window-true", "z-cutoff-string",
        "z-cutoff-false", "k-fraction",
        "mapping-float", "mapping-true", "mapping-string", "bounds-false-and-string",
        "bounds-number", "discretization-list", "severity-components-true",
        "loop-rule-list", "preprocess-number", "model-number", "model-path-number",
        "loop-vm-cpu-number", "loop-host-cpu-null", "loop-throughput-list", "loop-cause-number",
    ],
)
def test_load_config_rejects_entries_of_the_wrong_json_type(tmp_path, section, key, value, named):
    # before, int(), float() and bool() took these: 11.9 loaded as
    # window 11, a float in the mapping aborted the
    # run at the first window in that bucket, false and "25" loaded as
    # boundaries, and a non-object section or a non-string key ended in
    # a traceback
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    (cfg_doc[section] if section else cfg_doc)[key] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match=named):
        load_config(p)


@pytest.mark.parametrize(
    "sha256, named",
    [
        (None, r"model of config .* missing field 'sha256'"),
        ("", r"model hash mismatch for .*nbc_model\.json: expected '', got '[0-9a-f]{64}'"),
    ],
    ids=["missing", "empty"],
)
def test_load_config_requires_the_model_hash(tmp_path, sha256, named):
    # before, a config without sha256, or with "", loaded any model file
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    del cfg_doc["model"]["sha256"]
    if sha256 is not None:
        cfg_doc["model"]["sha256"] = sha256
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    with pytest.raises(ConfigError, match=named):
        load_config(p)


def test_load_config_takes_an_integer_z_cutoff_as_a_number(tmp_path):
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    cfg_doc["preprocess"]["z_cutoff"] = 2
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    z_cutoff = load_config(p).preprocess.z_cutoff
    assert z_cutoff == 2.0 and type(z_cutoff) is float


def test_load_config_rejects_a_z_cutoff_too_large_for_a_float(tmp_path):
    # before, float() raised OverflowError out of the loader
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    cfg_doc["model"]["path"] = fixture_path(cfg_doc["model"]["path"])
    cfg_doc["preprocess"]["z_cutoff"] = 10**399
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg_doc))
    assert len(json.dumps(10**399)) == 400
    named = r"preprocess of config .*: z_cutoff is too large for a float, got 10{399}$"
    with pytest.raises(ConfigError, match=named):
        load_config(p)


def test_load_config_requires_model_reference(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"severity_components": ["vm.cpu"]}))
    with pytest.raises(ConfigError, match="model"):
        load_config(p)


def test_engine_config_cross_checks(config):
    with pytest.raises(ConfigError, match="spec"):
        EngineConfig(
            specs={k: v for k, v in config.specs.items() if k != "vm.cpu"},
            severity_components=config.severity_components,
            model=config.model,
        )
    with pytest.raises(ConfigError, match="cause"):
        EngineConfig(
            specs=config.specs,
            severity_components=config.severity_components,
            model=config.model,
            loop_rule=LoopRule(cause="gremlins"),
        )



def test_model_with_zero_probability_rejected(config):
    # unsmoothed on the fixture scenario, the model never saw host.cpu
    # in bucket 2, so one minor window there zeroes every class
    scenario = load_scenario(fixture_path("scenario_800.json"))
    samples, labels = generate(scenario)
    dataset = to_training_set(samples, labels, config.specs, config.attributes, config.classes)
    model = nbc.train(dataset, config.model.schema, alpha=0.0)
    host_cpu = config.attribute_keys.index("host.cpu")
    assert all(row[2] == 0.0 for row in model.cond[host_cpu])
    values = variant(**{"vm.memory": 60.0, "host.cpu": 60.0})
    features = tuple(discretize(values[k], config.specs[k]) for k in config.attribute_keys)
    with pytest.raises(nbc.AllZeroLikelihoodError):
        nbc.posterior(model, features)
    with pytest.raises(ConfigError, match=r"vm\.cpu=0 probability 0 under class 'normal'"):
        remade(config, model=model)


def _zero_prior(config: EngineConfig) -> EngineConfig:
    """``config`` with a model that gives its first class prior 0."""
    m = len(config.classes) - 1
    model = config.model
    return remade(config, model=nbc.NbcModel(model.schema, (0.0,) + (1 / m,) * m, model.cond, model.alpha))


@pytest.mark.parametrize(
    "build, error, named",
    [
        (lambda config: PreprocessPolicy(z_cutoff=0), ValueError, "z_cutoff must be > 0, got 0"),
        (_zero_prior, ConfigError, "model prior of class 'normal' is 0"),
    ],
    ids=["z-cutoff-zero", "zero-prior"],
)
def test_each_input_check_names_what_it_refuses(config, build, error, named):
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        build(config)


def test_severity_mapping_too_short_rejected(config):
    # bucket 3 of every 4-bucket severity component has no severity
    with pytest.raises(ConfigError, match=r"vm\.cpu: severity_mapping"):
        remade(config, severity_mapping=(0, 0, 1))


def test_severity_mapping_beyond_serious_rejected(config):
    with pytest.raises(ConfigError, match=r"vm\.cpu: severity_mapping \(0, 0, 1, 3\)"):
        remade(config, severity_mapping=(0, 0, 1, 3))


def test_severity_mapping_longer_than_needed_accepted(config):
    cfg = remade(config, severity_mapping=(0, 0, 1, 2, 2))
    assert severity_of(Engine(cfg), window_at(0, variant(**{"vm.cpu": 90.0}))) == 2


def test_loop_rule_component_must_be_judged(config):
    with pytest.raises(ConfigError, match=r"vm\.tput"):
        remade(config, loop_rule=LoopRule(throughput="vm.tput"))


def test_the_feature_order_is_the_models(config):
    # a model that lists its attributes in another order reads each
    # window's features in that order, so every alarm stays, its
    # posterior up to the order the log-likelihoods are added in
    schema = config.model.schema
    order = [5, 3, 0, 4, 1, 2]
    model = nbc.NbcModel(
        nbc.AttributeSchema(tuple(schema.attributes[j] for j in order), schema.classes),
        config.model.priors,
        tuple(config.model.cond[j] for j in order),
        config.model.alpha,
    )
    shuffled = remade(config, model=model)
    assert shuffled.attributes == tuple(config.attributes[j] for j in order)
    assert shuffled.attributes == tuple(ComponentId.parse(name) for name, _ in model.schema.attributes)
    samples, _ = generate(hot_scenario())
    want = Engine(config).process_stream(samples)
    assert any(alarm.trigger == TRIGGER_NBC and alarm.severity == 1 for alarm in want)
    got = Engine(shuffled).process_stream(samples)
    assert [a._replace(diagnosis=None) for a in got] == [a._replace(diagnosis=None) for a in want]
    for a, b in zip(got, want):
        assert a.diagnosis == b.diagnosis or a.diagnosis == pytest.approx(b.diagnosis, rel=1e-12, abs=1e-15)


def test_the_loop_signature_is_the_top_cpu_buckets_and_throughput_bucket_0(config):
    assert config.loop_signature == (3, 3, 0)
    keys = ("vm.cpu", "host.cpu", "vm.throughput")
    bounds = {"vm.cpu": (0.0, 50.0, 100.0), "host.cpu": (0.0, 20.0, 40.0, 60.0, 80.0, 100.0),
              "vm.throughput": (0.0, 25.0, 50.0, 75.0, 100.0)}
    specs = {key: DiscretizationSpec(ComponentId.parse(key), bounds[key]) for key in keys}
    cards = tuple(len(bounds[key]) - 1 for key in keys)
    model = nbc.NbcModel(
        nbc.AttributeSchema(tuple(zip(keys, cards)), ("normal", "endless-loop")),
        (0.5, 0.5),
        tuple(((1 / card,) * card,) * 2 for card in cards),
        1.0,
    )
    cfg = EngineConfig(specs=specs, severity_components=(ComponentId.parse("vm.cpu"),), model=model)
    assert cfg.loop_signature == (1, 4, 0)
    engine = Engine(cfg)
    for (vm_cpu, host_cpu, throughput), want in [
        ((90.0, 90.0, 10.0), True),
        ((90.0, 70.0, 10.0), False),
        ((40.0, 90.0, 10.0), False),
        ((90.0, 90.0, 30.0), False),
    ]:
        values = {"vm.cpu": vm_cpu, "host.cpu": host_cpu, "vm.throughput": throughput}
        (window,) = collect_windows(window_samples(0, values), cfg.window_specs)
        assert judgment(engine, window)[1] is want, values


def test_a_spec_is_filed_under_the_key_of_its_component(config):
    # the spec's component routes samples into windows, so a spec filed
    # under another key would bucket the wrong metric
    specs = dict(config.specs, **{"vm.memory": config.specs["vm.cpu"]})
    with pytest.raises(ConfigError, match=r"^discretization spec for vm\.cpu is filed under vm\.memory$"):
        remade(config, specs=specs)


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("discretization", {"vm.cpu": [0, 50, 100]}, r"vm\.cpu: spec yields 2 buckets, model expects 4"),
        ("severity_components", ["vm.cpu", "vm.cpu"], r"duplicate component vm\.cpu"),
        ("severity_components", [], r"max-severity model needs at least one component"),
    ],
    ids=["spec-buckets", "duplicate-severity-component", "no-severity-component"],
)
def test_load_config_names_the_file_in_each_cross_check_error(tmp_path, key, value, named):
    # before, these left the path out, and the last two escaped as
    # mdd.InvalidModelError rather than ConfigError
    cfg_doc = json.loads(open(fixture_path("engine_config.json")).read())
    entry = dict(cfg_doc[key], **value) if isinstance(value, dict) else value
    path = _config_with(tmp_path, key, entry)
    with pytest.raises(ConfigError, match=rf"^config {re.escape(str(path))}: {named}$"):
        load_config(path)


def test_severity_component_outside_attributes_is_collected(config):
    # a severity component the classifier does not use must still be
    # windowed, so it can open the gate on its own
    extra = ComponentId("extra", "host")
    cfg = remade(
        config,
        specs={**config.specs, extra.key: DiscretizationSpec(extra, (0.0, 25.0, 50.0, 75.0, 100.0))},
        severity_components=config.severity_components + (extra,),
    )
    assert cfg.window_specs == config.window_specs + (cfg.specs[extra.key],)
    stream = samples_for(
        [dict(HEALTHY, **{"host.extra": 10.0})] * 20
        + [dict(HEALTHY, **{"host.extra": 90.0})] * 20
    )
    alarms = Engine(cfg).process_stream(stream)
    assert len(alarms) == 20
    assert all(a.trigger == TRIGGER_GATE and a.timestamp >= 20000 for a in alarms)


def test_windows_are_immutable_tuple_records():
    window = Window(0, "h0", "vm0", (1, 3))
    assert isinstance(window, tuple) and not hasattr(window, "__dict__")
    with pytest.raises(AttributeError):
        window.timestamp = 1
    assert window == Window(timestamp=0, host_id="h0", vm_id="vm0", buckets=(1, 3))
