"""Metamorphic properties of the whole pipeline: changes to how a stream
is cut or ordered that must leave its alarms as they are.

- Interleaving: the series merged at random, each keeping its own order.
- Sharding by host: each host's samples run alone, and the alarms merged
  by ``(timestamp, host, vm)``.

Each case runs twice: through a stream written by ``write_metric_samples``
and read with the reader ``afdi diagnose`` calls, and through
``Engine.process_stream`` on a list of samples.  The reader puts the
samples of each series in one column, so these are the properties that
routing records into columns must keep.
"""

import pathlib
import random
import tempfile
from itertools import chain

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from afdi import cli
from afdi.engine import Engine, load_config
from afdi.simulator import KINDS, FaultInjection, Scenario, ScenarioError, generate, load_scenario
from afdi.states import write_metric_samples
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
    return Engine(CONFIG).process_stream(cli.read_sample_columns(path))


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


def _check_invariances(samples, seed: int) -> list:
    """Assert both properties on both routes, and that the routes agree;
    returns the alarms."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for route in ROUTES:
            alarms = route(samples, tmp)
            assert route(_interleaved(samples, random.Random(seed)), tmp) == alarms
            assert _merged(route(shard, tmp) for shard in _by_host(samples)) == alarms
            results.append(alarms)
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("scenario", FIXTURES)
def test_fixture_alarms_do_not_depend_on_interleaving_or_sharding(scenario):
    samples, _ = generate(load_scenario(fixture_path(scenario)))
    alarms = _check_invariances(samples, seed=len(samples))
    assert bool(alarms) == (scenario != "scenario_healthy.json")


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
