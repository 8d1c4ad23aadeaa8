"""Metamorphic properties of the whole pipeline: changes to how a stream
is cut or ordered that must leave its alarms as they are.

- Interleaving: the series merged at random, each keeping its own order.
- Sharding by host: each host's samples run alone, and the alarms merged
  by ``(timestamp, host, vm)``.
- Time shift: every timestamp moved by 50 whole windows, and the alarms
  moved back.
- Renaming: hosts and VMs renamed so that the sort order of each
  reverses, and the alarms mapped back and sorted.
- Prefix cuts: a run on the windows before a cut raises the full run's
  alarms on every window more than ``L = 64 * (window // 2)`` windows
  before the cut, the latency the 64-pass cap of the filter declares.  At
  one sample per series per window, ``L`` windows are ``L`` samples.

Each case runs twice: through a stream written by ``write_metric_samples``
and read with the reader ``afdi diagnose`` calls, and through
``Engine.process_stream`` on a list of samples.  The reader puts the
samples of each series in one column, so these are the properties that
routing records into columns must keep.

The prefix cuts run on lists alone: the two routes already agree on every
case above.
"""

import dataclasses
import pathlib
import random
import tempfile
from itertools import chain

import pytest
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from afdi.engine import Engine, EngineConfig, PreprocessPolicy, load_config
from afdi.simulator import KINDS, FaultInjection, Scenario, ScenarioError, generate, load_scenario
from afdi.states import MetricSample, read_sample_columns, write_metric_samples
from conftest import fixture_path

CONFIG = load_config(fixture_path("engine_config.json"))

FIXTURES = [
    "scenario_healthy.json", "scenario_endless_loop.json", "scenario_serious_crash.json", "scenario_800.json"
]


def _from_list(samples, _tmp):
    return Engine(CONFIG).process_stream(samples)


def _from_stream(samples, tmp):
    path = pathlib.Path(tmp) / "metrics.jsonl"
    write_metric_samples(samples, path)
    return Engine(CONFIG).process_stream(read_sample_columns(path))


ROUTES = (_from_list, _from_stream)


def _interleaved(samples, rng: random.Random) -> list:
    """The samples of each series in their own order, the series merged
    at random."""
    series: dict[tuple, list] = {}
    for s in samples:
        series.setdefault((s.host_id, s.vm_id, s.metric.key), []).append(s)
    queues = [iter(column) for column in series.values()]
    # a series of n samples is drawn n times, in random order
    draws = [q for q, column in zip(queues, series.values()) for _ in column]
    rng.shuffle(draws)
    return [next(q) for q in draws]


def _by_host(samples) -> list[list]:
    hosts: dict[str, list] = {}
    for s in samples:
        hosts.setdefault(s.host_id, []).append(s)
    return list(hosts.values())


def _merged(alarm_lists) -> list:
    return sorted(chain.from_iterable(alarm_lists), key=lambda a: (a.timestamp, a.host_id, a.vm_id))


def _shifted(samples, by: int) -> list:
    return [MetricSample(s.timestamp + by, *s[1:]) for s in samples]


def _reversed_names(names) -> dict:
    """A new name for each of ``names``, the sort order reversed."""
    ordered = sorted(names)
    return {name: f"r{len(ordered) - i:04d}" for i, name in enumerate(ordered)}


def _check_invariances(samples, seed: int) -> list:
    """Assert interleaving and sharding on both routes, and that the
    routes agree; returns the alarms."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for route in ROUTES:
            alarms = route(samples, tmp)
            assert route(_interleaved(samples, random.Random(seed)), tmp) == alarms
            assert _merged(route(shard, tmp) for shard in _by_host(samples)) == alarms
            results.append(alarms)
    assert results[0] == results[1]
    return results[0]


def _check_shift_and_renaming(samples, window_ms: int) -> list:
    """Assert the time shift and the renaming on both routes, and that
    the routes agree; returns the alarms."""
    shift = 50 * window_ms
    hosts = _reversed_names({s.host_id for s in samples})
    vms = _reversed_names({s.vm_id for s in samples} - {None})
    renamed = [MetricSample(s.timestamp, hosts[s.host_id], vms.get(s.vm_id), *s[3:]) for s in samples]
    host_of, vm_of = ({new: old for old, new in names.items()} for names in (hosts, vms))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for route in ROUTES:
            alarms = route(samples, tmp)
            assert [a._replace(timestamp=a.timestamp - shift) for a in route(_shifted(samples, shift), tmp)] == alarms
            back = [a._replace(host_id=host_of[a.host_id], vm_id=vm_of[a.vm_id]) for a in route(renamed, tmp)]
            assert _merged([back]) == alarms
            results.append(alarms)
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("scenario", FIXTURES)
def test_fixture_alarms_do_not_depend_on_interleaving_or_sharding(scenario):
    samples, _ = generate(load_scenario(fixture_path(scenario)))
    alarms = _check_invariances(samples, seed=len(samples))
    assert bool(alarms) == (scenario != "scenario_healthy.json")


@pytest.mark.parametrize("scenario", FIXTURES)
def test_fixture_alarms_do_not_depend_on_a_time_shift_or_renaming(scenario):
    scenario = load_scenario(fixture_path(scenario))
    samples, _ = generate(scenario)
    assert bool(_check_shift_and_renaming(samples, scenario.window_ms)) == bool(scenario.injections)


@st.composite
def fleets(draw):
    """2 hosts of 2 VMs for 20-60 windows: memory idle or minor, and at
    most one fault per VM, at random times."""
    duration = draw(st.integers(20, 60))
    injections = []
    for h in range(2):
        for v in range(2):
            kind = draw(st.sampled_from((None, *KINDS)))
            if kind is None:
                continue
            start = draw(st.integers(0, duration - 1))
            end = draw(st.integers(start + 1, duration))
            metric = draw(st.sampled_from(("cpu", "network"))) if kind == "serious_crash" else None
            injections.append(FaultInjection(kind, f"h{h}", start, end, vm=f"vm{v}", metric=metric))
    memory = draw(st.sampled_from((35.0, 56.0)))
    baseline = dict(Scenario(seed=0, duration=1).baseline, **{"vm.memory": (memory, 8.0)})
    try:
        scenario = Scenario(seed=draw(st.integers(0, 2**16)), duration=duration, hosts=2, vms_per_host=2,
                            baseline=baseline, injections=tuple(injections))
    except ScenarioError:  # two loops on one host at once
        assume(False)
    return scenario


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario=fleets(), seed=st.integers(0, 2**16))
def test_fleet_alarms_do_not_depend_on_interleaving_or_sharding(scenario, seed):
    samples, _ = generate(scenario)
    _check_invariances(samples, seed)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario=fleets())
def test_fleet_alarms_do_not_depend_on_a_time_shift_or_renaming(scenario):
    samples, _ = generate(scenario)
    _check_shift_and_renaming(samples, scenario.window_ms)


# -- prefix cuts -------------------------------------------------------

# the fixture config with the narrowest filter, so that L is 64 windows
NARROW = EngineConfig(*CONFIG._values()[:-1], PreprocessPolicy(window=3, z_cutoff=CONFIG.preprocess.z_cutoff))


def _check_prefix_cuts(samples, config, window_ms: int, cuts) -> tuple[int, int]:
    """Assert that the run on the windows before each of ``cuts`` raises
    the full run's alarms on every window more than ``L`` windows before
    the cut; returns how many full-run alarms were compared, and the
    largest lag, in windows before its cut, of an alarm that changed."""
    latency = 64 * (config.preprocess.window // 2)
    full = {(a.timestamp, a.host_id, a.vm_id): a for a in Engine(config).process_stream(samples)}
    compared = lag = 0
    for cut in cuts:
        end = cut * window_ms
        prefix = Engine(config).process_stream([s for s in samples if s.timestamp < end])
        before = {key: a for key, a in full.items() if key[0] < end}
        got = {(a.timestamp, a.host_id, a.vm_id): a for a in prefix}
        changed = [key for key in before.keys() | got.keys() if before.get(key) != got.get(key)]
        lag = max([lag, *(cut - key[0] // window_ms for key in changed)])
        assert all(cut - key[0] // window_ms <= latency for key in changed), (cut, sorted(changed))
        compared += sum(cut - key[0] // window_ms > latency for key in before)
    return compared, lag


def test_scenario_800_alarms_before_the_latency_do_not_depend_on_a_prefix_cut():
    # under the fixture config L is 320 windows, and only scenario_800 has
    # alarms that far before a cut
    scenario = load_scenario(fixture_path("scenario_800.json"))
    samples, _ = generate(scenario)
    compared, _ = _check_prefix_cuts(samples, CONFIG, scenario.window_ms, range(325, scenario.duration, 25))
    assert compared > 0


@st.composite
def long_fleets(draw):
    """A fleet of ``fleets`` stretched to 150-250 windows, each fault
    where it was in proportion."""
    short = draw(fleets())
    duration = draw(st.integers(150, 250))

    def at(window):
        return window * duration // short.duration

    injections = []
    for inj in short.injections:
        start = at(inj.start)
        injections.append(dataclasses.replace(inj, start=start, end=max(start + 1, at(inj.end))))
    try:
        return dataclasses.replace(short, duration=duration, injections=tuple(injections))
    except ScenarioError:  # two loops on one host at once
        assume(False)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scenario=long_fleets())
def test_fleet_alarms_before_the_latency_do_not_depend_on_a_prefix_cut(scenario):
    samples, _ = generate(scenario)
    compared, lag = _check_prefix_cuts(samples, NARROW, scenario.window_ms, range(25, scenario.duration, 25))
    # shown by --hypothesis-show-statistics
    event(f"largest lag of a changed alarm: {lag} windows (L = 64)")
    event("alarms compared" if compared else "no alarm before the latency")
