import json
import math

import pytest
from hypothesis import given, strategies as st

from afdi.states import (
    ComponentId,
    DiscretizationSpec,
    MetricSample,
    OutOfRangeError,
    StateDistribution,
    StateVector,
    discretize,
    read_metric_samples,
    write_metric_samples,
)

CPU = ComponentId("cpu")
USAGE = DiscretizationSpec(CPU, (0.0, 25.0, 50.0, 75.0, 100.0))


def test_component_id_validation():
    assert ComponentId("cpu", "host").key == "host.cpu"
    assert ComponentId.parse("vm.memory") == ComponentId("memory", "vm")
    with pytest.raises(ValueError):
        ComponentId("")
    with pytest.raises(ValueError):
        ComponentId("cpu", "container")
    with pytest.raises(ValueError):
        ComponentId.parse("justaname")


def test_discretize_interior_values():
    assert discretize(63.0, USAGE) == 2
    assert discretize(0.0, USAGE) == 0


def test_discretize_boundary_ownership():
    # boundaries belong to the upper interval; top boundary closes the last
    assert discretize(25.0, USAGE) == 1
    assert discretize(50.0, USAGE) == 2
    assert discretize(75.0, USAGE) == 3
    assert discretize(100.0, USAGE) == 3


def test_discretize_integer_percent_table():
    # independent derivation: level = number of interior boundaries <= value
    interior = USAGE.boundaries[1:-1]
    for v in range(0, 101):
        expected = sum(1 for b in interior if v >= b)
        assert discretize(float(v), USAGE) == expected


def test_discretize_out_of_range():
    with pytest.raises(OutOfRangeError):
        discretize(-0.5, USAGE)
    with pytest.raises(OutOfRangeError):
        discretize(100.001, USAGE)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_discretize_total_and_bounded(v):
    level = discretize(v, USAGE)
    assert 0 <= level <= 3


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_discretize_monotone(a, b):
    lo, hi = sorted((a, b))
    assert discretize(lo, USAGE) <= discretize(hi, USAGE)


def test_discretize_epsilon_around_boundaries():
    eps = 1e-9
    for b in USAGE.boundaries[1:-1]:
        assert discretize(b, USAGE) == discretize(b + eps, USAGE)
        assert discretize(b - eps, USAGE) == discretize(b, USAGE) - 1


def test_discretize_midpoint_roundtrip():
    bounds = USAGE.boundaries
    for level in range(USAGE.num_intervals):
        mid = (bounds[level] + bounds[level + 1]) / 2
        assert discretize(mid, USAGE) == level


def test_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0,))
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0, 50.0, 50.0, 100.0))
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0, 120.0))


def test_state_vector():
    comps = [ComponentId("cpu"), ComponentId("memory")]
    sv = StateVector.from_levels(comps, [1, 2])
    assert sv.levels == (1, 2)
    assert len(sv) == 2
    with pytest.raises(ValueError):
        StateVector.from_levels(comps, [1])
    with pytest.raises(ValueError):
        StateVector.from_levels([comps[0], comps[0]], [1, 1])


def test_state_distribution_validation():
    d = StateDistribution((0.5, 0.25, 0.25))
    assert d[0] == 0.5 and len(d) == 3
    with pytest.raises(ValueError):
        StateDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        StateDistribution((1.5, -0.5))
    with pytest.raises(ValueError):
        StateDistribution(())


def test_metric_sample_scope_consistency():
    host_cpu = ComponentId("cpu", "host")
    with pytest.raises(ValueError):
        MetricSample(0, "h0", "vm0", host_cpu, 10.0)
    with pytest.raises(ValueError):
        MetricSample(0, "h0", None, CPU, 10.0)
    s = MetricSample(0, "h0", None, host_cpu, 10.0)
    assert s.metric.level == "host"


def test_metric_sample_jsonl_roundtrip(tmp_path):
    samples = [
        MetricSample(0, "h0", "vm0", CPU, 42.5),
        MetricSample(1000, "h0", None, ComponentId("storage_io", "host"), 17.0),
    ]
    path = tmp_path / "stream.jsonl"
    assert write_metric_samples(samples, path) == 2
    lines = path.read_text().strip().split("\n")
    obj = json.loads(lines[0])
    # wire keys are fixed
    assert set(obj) == {"timestamp", "host_id", "vm_id", "metric", "value", "level"}
    assert obj["level"] == "vm" and obj["metric"] == "cpu"
    assert read_metric_samples(path) == samples


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_metric_sample_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="non-finite"):
        MetricSample(0, "h0", "vm0", CPU, value)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_metric_samples_names_line_of_non_finite_value(tmp_path, spelling):
    good = json.dumps(MetricSample(0, "h0", "vm0", CPU, 42.5).to_json_obj())
    bad = good.replace("42.5", spelling)
    path = tmp_path / "stream.jsonl"
    path.write_text(f"{good}\n\n{good}\n{bad}\n")
    with pytest.raises(ValueError, match=r"line 4: .*non-finite"):
        read_metric_samples(path)
