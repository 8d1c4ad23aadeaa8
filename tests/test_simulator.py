import importlib.util
import json
import os
import pathlib

import pytest

from afdi.nbc import LabeledExample
from afdi.simulator import (
    DEFAULT_KIND_TO_CLASS,
    FaultInjection,
    AlignmentError,
    RNG_ALGORITHM,
    Scenario,
    ScenarioError,
    WindowLabel,
    generate,
    load_scenario,
    read_labels,
    to_training_set,
    write_labels,
)
from afdi.states import ComponentId, DiscretizationSpec, MetricSample, discretize, write_metric_samples
from conftest import fixture_path

ROOT = pathlib.Path(__file__).resolve().parent.parent

BOUNDS = (0.0, 25.0, 50.0, 75.0, 100.0)
ATTR_KEYS = ("vm.cpu", "vm.memory", "vm.network", "vm.throughput", "host.cpu", "host.storage_io")
ATTRS = tuple(ComponentId.parse(k) for k in ATTR_KEYS)
SPECS = {k: DiscretizationSpec(ComponentId.parse(k), BOUNDS) for k in ATTR_KEYS}
CLASSES = (
    "normal",
    "high-cpu-usage",
    "memory-shortage",
    "network-overhead",
    "endless-loop",
    "serious-crash",
)


def bucket(value: float, key: str = "vm.cpu") -> int:
    return discretize(value, SPECS[key])


def window_values(samples, window, host, vm, window_ms=1000):
    """Pull one scope's raw metric values for a window out of the flat stream."""
    out = {}
    for s in samples:
        if s.timestamp // window_ms != window or s.host_id != host:
            continue
        if s.vm_id not in (vm, None):
            continue
        out[s.metric.key] = s.value
    return out


def small(duration=20, injections=(), seed=11, **kw):
    return Scenario(seed=seed, duration=duration, injections=tuple(injections), **kw)


# -- determinism -----------------------------------------------------


def test_same_seed_byte_identical(tmp_path):
    scenario = small(injections=[FaultInjection("cpu_hog", "h0", 5, 10, vm="vm0")])
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        samples, _ = generate(scenario)
        p = tmp_path / name
        write_metric_samples(samples, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seed_changes_output():
    a, _ = generate(small(seed=11))
    b, _ = generate(small(seed=12))
    assert [s.value for s in a] != [s.value for s in b]


def test_scope_streams_independent_of_topology():
    # h0's stream must not change when a second host joins the scenario
    one, _ = generate(small(hosts=1))
    two, _ = generate(small(hosts=2))
    assert [s for s in two if s.host_id == "h0"] == one


def test_injection_does_not_shift_noise_elsewhere():
    quiet, _ = generate(small())
    noisy, _ = generate(small(injections=[FaultInjection("cpu_hog", "h0", 5, 10, vm="vm0")]))
    touched = {(w, "vm.cpu") for w in range(5, 10)}
    assert len(quiet) == len(noisy)
    for q, n in zip(quiet, noisy):
        key = (q.timestamp // 1000, q.metric.key)
        if key in touched and q.vm_id == "vm0":
            assert n.value != q.value
        else:
            assert n == q


def test_rng_algorithm_recorded():
    assert RNG_ALGORITHM == "mt19937"


@pytest.mark.parametrize(
    "name",
    ["scenario_800.json", "scenario_endless_loop.json", "scenario_healthy.json", "scenario_serious_crash.json"],
)
def test_generated_samples_are_what_the_checked_constructor_builds(name):
    # generate builds its samples unchecked; each must pass the checks
    samples, _ = generate(load_scenario(fixture_path(name)))
    assert all(MetricSample(*s) == s for s in samples)


@pytest.mark.parametrize("window_ms", [1000.0, True, 0, -5])
def test_window_ms_must_be_a_positive_integer(window_ms):
    # else generate would stamp its unchecked samples with float or bool times
    with pytest.raises(ScenarioError, match="window_ms must be a positive integer"):
        small(window_ms=window_ms)


# -- healthy output --------------------------------------------------


def test_no_injection_all_normal_within_jitter():
    scenario = small(duration=30)
    samples, labels = generate(scenario)
    assert all(l.label == "normal" for l in labels)
    assert len(labels) == 30
    for s in samples:
        mean, jitter = scenario.baseline[s.metric.key]
        assert mean - jitter <= s.value <= mean + jitter


@pytest.mark.parametrize(
    "hosts, vms_per_host, injections",
    [
        (2, 3, ()),
        # ids compare as strings on the wire: "h10" < "h2" and "vm10" < "vm2"
        (
            11,
            11,
            (
                FaultInjection("endless_loop", "h10", 1, 4, vm="vm10"),
                FaultInjection("serious_crash", "h2", 0, 3, metric="storage_io"),
                FaultInjection("cpu_hog", "h2", 2, 5, vm="vm3"),
            ),
        ),
    ],
    ids=["2x3", "11x11"],
)
def test_sample_count_and_ordering(hosts, vms_per_host, injections):
    samples, labels = generate(
        small(duration=5, hosts=hosts, vms_per_host=vms_per_host, injections=injections)
    )
    # per window: 2 host metrics per host + 4 vm metrics per vm
    assert len(samples) == 5 * (2 * hosts + 4 * hosts * vms_per_host)
    keys = [(s.timestamp, s.host_id, s.vm_id or "", s.metric.level, s.metric.name) for s in samples]
    assert keys == sorted(keys)
    label_keys = [(l.window, l.host, l.vm) for l in labels]
    assert len(labels) == 5 * hosts * vms_per_host
    assert label_keys == sorted(label_keys)


def test_values_clamped_to_percent_range():
    scenario = small(
        baseline={
            "vm.cpu": (99.0, 5.0),
            "vm.memory": (1.0, 5.0),
            "vm.network": (30.0, 2.0),
            "vm.throughput": (60.0, 2.0),
            "host.cpu": (40.0, 2.0),
            "host.storage_io": (20.0, 2.0),
        }
    )
    samples, _ = generate(scenario)
    assert all(0.0 <= s.value <= 100.0 for s in samples)
    assert any(s.value == 100.0 for s in samples if s.metric.key == "vm.cpu")
    assert any(s.value == 0.0 for s in samples if s.metric.key == "vm.memory")


# -- fault effects ---------------------------------------------------


def test_cpu_hog_full_intensity_hits_top_bucket():
    samples, labels = generate(
        small(injections=[FaultInjection("cpu_hog", "h0", 5, 10, intensity=1.0, vm="vm0")])
    )
    for w in range(20):
        vals = window_values(samples, w, "h0", "vm0")
        expected = 3 if 5 <= w < 10 else 1
        assert bucket(vals["vm.cpu"]) == expected, f"window {w}"
    want = ["cpu_hog" if 5 <= w < 10 else "normal" for w in range(20)]
    assert [l.label for l in labels] == want


def test_memory_leak_ramps_to_target():
    inj = FaultInjection("memory_leak", "h0", 4, 14, intensity=1.0, vm="vm0")
    samples, _ = generate(small(injections=[inj]))
    values = [window_values(samples, w, "h0", "vm0")["vm.memory"] for w in range(20)]
    assert abs(values[4] - 35.0) <= 2.0  # starts at baseline
    assert abs(values[13] - 100.0) <= 2.0  # ends at 75 + 25*intensity
    ramp = values[4:14]
    for earlier, later in zip(ramp, ramp[1:]):
        assert later > earlier - 4.0  # monotone up to jitter
    assert bucket(values[13], "vm.memory") == 3


def test_endless_loop_signature_buckets():
    inj = FaultInjection("endless_loop", "h0", 6, 12, intensity=1.0, vm="vm0")
    samples, labels = generate(small(injections=[inj]))
    for w in range(20):
        vals = window_values(samples, w, "h0", "vm0")
        inside = 6 <= w < 12
        assert (bucket(vals["vm.cpu"]) == 3) == inside
        assert (bucket(vals["host.cpu"], "host.cpu") == 3) == inside
        assert (bucket(vals["vm.throughput"], "vm.throughput") == 0) == inside
    assert {l.label for l in labels if 6 <= l.window < 12} == {"endless_loop"}


def test_endless_loop_neighbour_vm_keeps_normal_label():
    inj = FaultInjection("endless_loop", "h0", 6, 12, vm="vm0")
    samples, labels = generate(small(vms_per_host=2, injections=[inj]))
    # vm1 sees the elevated host cpu but is itself healthy
    vals = window_values(samples, 8, "h0", "vm1")
    assert bucket(vals["host.cpu"], "host.cpu") == 3
    assert bucket(vals["vm.cpu"]) == 1
    assert all(l.label == "normal" for l in labels if l.vm == "vm1")


def test_serious_crash_pins_metric_exactly():
    inj = FaultInjection("serious_crash", "h0", 3, 8, vm="vm0", metric="cpu")
    samples, labels = generate(small(injections=[inj]))
    for w in range(3, 8):
        assert window_values(samples, w, "h0", "vm0")["vm.cpu"] == 100.0
    assert window_values(samples, 2, "h0", "vm0")["vm.cpu"] != 100.0
    assert [l.label for l in labels if 3 <= l.window < 8] == ["serious_crash"] * 5


def test_host_crash_labels_every_vm_on_host():
    inj = FaultInjection("serious_crash", "h0", 3, 8, metric="storage_io")
    samples, labels = generate(small(vms_per_host=2, injections=[inj]))
    assert window_values(samples, 5, "h0", "vm0")["host.storage_io"] == 100.0
    for l in labels:
        if 3 <= l.window < 8:
            assert l.label == "serious_crash"
        else:
            assert l.label == "normal"


def test_vm_fault_label_wins_over_host_crash():
    # the crash labels every vm on h0 except the one with its own fault
    crash = FaultInjection("serious_crash", "h0", 3, 8, metric="storage_io")
    hog = FaultInjection("cpu_hog", "h0", 5, 10, vm="vm1")
    _, labels = generate(small(vms_per_host=2, injections=[crash, hog]))
    got = {(l.window, l.vm): l.label for l in labels}
    assert [got[w, "vm0"] for w in range(2, 10)] == (
        ["normal"] + ["serious_crash"] * 5 + ["normal"] * 2
    )
    assert [got[w, "vm1"] for w in range(2, 11)] == (
        ["normal"] + ["serious_crash"] * 2 + ["cpu_hog"] * 5 + ["normal"]
    )


def test_distinct_faults_have_distinct_full_effect_signatures():
    # at full intensity with small jitter, each diagnosable kind owns a
    # unique pattern of top/bottom buckets, so a classifier can separate them
    def signature(kind, **kw):
        inj = FaultInjection(kind, "h0", 10, 12, intensity=1.0, **kw)
        samples, _ = generate(small(injections=[inj]))
        vals = window_values(samples, 11, "h0", "vm0")
        return tuple(bucket(vals[k], k) for k in ATTR_KEYS)

    healthy_vals = window_values(generate(small())[0], 11, "h0", "vm0")
    signatures = {
        "normal": tuple(bucket(healthy_vals[k], k) for k in ATTR_KEYS),
        "cpu_hog": signature("cpu_hog", vm="vm0"),
        "memory_leak": signature("memory_leak", vm="vm0"),
        "network_overhead": signature("network_overhead", vm="vm0"),
        "endless_loop": signature("endless_loop", vm="vm0"),
    }
    assert len(set(signatures.values())) == len(signatures)


# -- scenario validation ---------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioError, match="kind"):
        FaultInjection("disk_melt", "h0", 0, 5, vm="vm0")


def test_empty_span_rejected():
    with pytest.raises(ScenarioError):
        FaultInjection("cpu_hog", "h0", 5, 5, vm="vm0")


@pytest.mark.parametrize("intensity", [0.0, -0.5, 1.5])
def test_intensity_out_of_range(intensity):
    with pytest.raises(ScenarioError):
        FaultInjection("cpu_hog", "h0", 0, 5, intensity=intensity, vm="vm0")


def test_vm_fault_requires_vm():
    with pytest.raises(ScenarioError, match="vm"):
        FaultInjection("cpu_hog", "h0", 0, 5)


def test_crash_target_consistency():
    with pytest.raises(ScenarioError):
        FaultInjection("serious_crash", "h0", 0, 5, metric="cpu")  # vm metric, no vm
    with pytest.raises(ScenarioError):
        FaultInjection("serious_crash", "h0", 0, 5, vm="vm0", metric="storage_io")
    with pytest.raises(ScenarioError):
        FaultInjection("serious_crash", "h0", 0, 5, vm="vm0", metric="temperature")


def test_only_a_crash_takes_a_metric():
    # before, a hog naming a metric loaded and pinned cpu all the same
    named = r"only serious_crash takes a metric, cpu_hog got 'memory'"
    with pytest.raises(ScenarioError, match=named):
        FaultInjection("cpu_hog", "h0", 0, 5, vm="vm0", metric="memory")
    with pytest.raises(ScenarioError, match=named):
        load_scenario(_inj(metric="memory"))
    crash = FaultInjection("serious_crash", "h0", 0, 5, vm="vm0")
    assert crash.metric == "cpu"
    samples, _ = generate(small(duration=5, injections=[crash]))
    pinned = {s.metric.key for s in samples if s.value == 100.0}
    assert pinned == {"vm.cpu"}


def test_injection_bounds_checked_against_scenario():
    with pytest.raises(ScenarioError, match="duration"):
        small(duration=10, injections=[FaultInjection("cpu_hog", "h0", 5, 15, vm="vm0")])
    with pytest.raises(ScenarioError, match="host"):
        small(injections=[FaultInjection("cpu_hog", "h9", 0, 5, vm="vm0")])
    with pytest.raises(ScenarioError, match="vm"):
        small(injections=[FaultInjection("cpu_hog", "h0", 0, 5, vm="vm9")])


def test_overlapping_injections_on_shared_scope_rejected():
    with pytest.raises(ScenarioError, match="overlap"):
        small(
            injections=[
                FaultInjection("cpu_hog", "h0", 0, 10, vm="vm0"),
                FaultInjection("memory_leak", "h0", 5, 15, vm="vm0"),
            ]
        )


def test_overlap_through_shared_host_scope_rejected():
    # two loops on sibling vms both drive host cpu: same scope, reject
    with pytest.raises(ScenarioError, match="overlap"):
        small(
            vms_per_host=2,
            injections=[
                FaultInjection("endless_loop", "h0", 0, 10, vm="vm0"),
                FaultInjection("endless_loop", "h0", 5, 15, vm="vm1"),
            ],
        )


def test_disjoint_injections_allowed():
    small(
        vms_per_host=2,
        injections=[
            FaultInjection("cpu_hog", "h0", 0, 10, vm="vm0"),
            FaultInjection("cpu_hog", "h0", 0, 10, vm="vm1"),  # different scope
            FaultInjection("cpu_hog", "h0", 10, 15, vm="vm0"),  # different time
        ],
    )


def test_baseline_must_cover_every_metric():
    with pytest.raises(ScenarioError, match="baseline"):
        small(baseline={"vm.cpu": (30.0, 2.0)})


# -- training-set conversion -----------------------------------------


def test_to_training_set_one_example_per_window():
    scenario = small(duration=25, injections=[FaultInjection("cpu_hog", "h0", 5, 10, vm="vm0")])
    samples, labels = generate(scenario)
    examples = to_training_set(samples, labels, SPECS, ATTRS, CLASSES)
    assert len(examples) == 25
    assert all(isinstance(e, LabeledExample) for e in examples)
    assert all(len(e.features) == len(ATTRS) for e in examples)


def test_high_cpu_window_maps_to_top_attribute_and_class():
    scenario = small(injections=[FaultInjection("cpu_hog", "h0", 5, 10, intensity=1.0, vm="vm0")])
    samples, labels = generate(scenario)
    examples = to_training_set(samples, labels, SPECS, ATTRS, CLASSES)
    cpu_idx = ATTR_KEYS.index("vm.cpu")
    hog_class = CLASSES.index("high-cpu-usage")
    for w, example in enumerate(examples):
        if 5 <= w < 10:
            assert example.features[cpu_idx] == 3
            assert example.label == hog_class
        else:
            assert example.label == CLASSES.index("normal")


def test_fixture_scenario_yields_800_examples():
    scenario = load_scenario(fixture_path("scenario_800.json"))
    assert scenario.duration == 800
    samples, labels = generate(scenario)
    examples = to_training_set(samples, labels, SPECS, ATTRS, CLASSES)
    assert len(examples) == 800
    by_label = {}
    for l in labels:
        by_label[l.label] = by_label.get(l.label, 0) + 1
    assert by_label == {
        "normal": 480,
        "cpu_hog": 80,
        "memory_leak": 80,
        "network_overhead": 80,
        "endless_loop": 80,
    }


def test_alignment_missing_label_detected():
    samples, labels = generate(small(duration=10))
    with pytest.raises(AlignmentError, match="no label"):
        to_training_set(samples, labels[:-1], SPECS, ATTRS, CLASSES)


def test_alignment_extra_label_detected():
    samples, labels = generate(small(duration=10))
    extra = labels + [WindowLabel(99, "h0", "vm0", "normal")]
    with pytest.raises(AlignmentError, match="missing window"):
        to_training_set(samples, extra, SPECS, ATTRS, CLASSES)


def test_alignment_unknown_label_name():
    samples, labels = generate(small(duration=5))
    bad = [WindowLabel(l.window, l.host, l.vm, "gremlins") for l in labels]
    with pytest.raises(AlignmentError, match="mapping"):
        to_training_set(samples, bad, SPECS, ATTRS, CLASSES)


def test_kind_to_class_covers_all_kinds():
    assert set(DEFAULT_KIND_TO_CLASS.values()) == set(CLASSES)


# -- files -----------------------------------------------------------


def test_load_scenario_roundtrip(tmp_path):
    doc = {
        "seed": 3,
        "duration": 12,
        "hosts": 2,
        "vms_per_host": 1,
        "injections": [{"kind": "cpu_hog", "host": "h1", "vm": "vm0", "start": 2, "end": 6}],
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    scenario = load_scenario(p)
    assert scenario.seed == 3 and scenario.hosts == 2
    assert scenario.injections[0].kind == "cpu_hog"
    assert scenario.baseline["vm.cpu"] == (30.0, 2.0)  # default filled in


def test_load_scenario_missing_field():
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario({"duration": 10})


INJECTION = {"kind": "cpu_hog", "host": "h0", "vm": "vm0", "start": 2, "end": 6}


def _doc(**top):
    return {"seed": 3, "duration": 10, "injections": [INJECTION], **top}


def _inj(**entries):
    return _doc(injections=[{**INJECTION, **entries}])


@pytest.mark.parametrize(
    "doc, named",
    [
        (_doc(vms_per_hosts=8), r"unknown keys \['vms_per_hosts'\] in scenario document"),
        (_doc(seed=True), r"seed must be a JSON integer, got true"),
        (_doc(hosts=2.9), r"hosts must be a JSON integer, got 2\.9"),
        (_doc(duration="10"), r"duration must be a JSON integer, got \"10\""),
        (_doc(window_ms=1000.0), r"window_ms must be a JSON integer, got 1000\.0"),
        (_doc(injections={}), r"injections must be a JSON array, got \{\}"),
        (_doc(baseline=[]), r"baseline must be a JSON object, got \[\]"),
        (_doc(baseline={"vm.cpuu": {"mean": 30, "jitter": 2}}),
         r"unknown keys \['vm\.cpuu'\] in baseline"),
        (_doc(baseline={"vm.cpu": 30}), r"baseline vm\.cpu must be a JSON object, got 30"),
        (_doc(baseline={"vm.cpu": {"mean": 30, "jitter": 2, "sd": 1}}),
         r"unknown keys \['sd'\] in baseline vm\.cpu"),
        (_doc(baseline={"vm.cpu": {"mean": "30", "jitter": 2}}),
         r"baseline vm\.cpu: mean must be a JSON number, got \"30\""),
        (_doc(baseline={"vm.cpu": {"mean": 30, "jitter": False}}),
         r"baseline vm\.cpu: jitter must be a JSON number, got false"),
        (_doc(injections=["cpu_hog"]), r"injection 0 must be a JSON object, got \"cpu_hog\""),
        (_inj(intensity="0.5"), r"injection 0: intensity must be a JSON number, got \"0\.5\""),
        (_inj(note="x"), r"unknown keys \['note'\] in injection 0"),
        (_inj(start=2.0), r"injection 0: start must be a JSON integer, got 2\.0"),
        (_inj(end=True), r"injection 0: end must be a JSON integer, got true"),
        (_inj(kind=["cpu_hog"]), r"injection 0: kind must be a JSON string, got \[\"cpu_hog\"\]"),
        (_inj(host=0), r"injection 0: host must be a JSON string, got 0"),
        (_inj(vm=0), r"injection 0: vm must be a JSON string or null, got 0"),
        (_inj(metric=None), r"injection 0: metric must be a JSON string, got null"),
        ({"seed": 3}, r"scenario document missing field 'duration'"),
        (_doc(injections=[{k: v for k, v in INJECTION.items() if k != "end"}]),
         r"injection 0 missing field 'end'"),
        (_doc(baseline={"vm.cpu": {"mean": 30}}), r"baseline vm\.cpu missing field 'jitter'"),
    ],
    ids=[
        "misspelt-key", "seed-true", "hosts-fraction", "duration-string", "window-ms-float",
        "injections-object", "baseline-list", "baseline-metric-misspelt", "baseline-entry-number",
        "baseline-entry-unknown-key", "mean-string", "jitter-false", "injection-string",
        "intensity-string", "injection-unknown-key", "start-float", "end-true", "kind-list",
        "host-number", "vm-number", "metric-null", "duration-missing", "end-missing",
        "jitter-missing",
    ],
)
def test_load_scenario_rejects_unknown_keys_and_wrong_json_kinds(doc, named):
    # before, int() and float() took most of these (true as seed 1, 2.9
    # as 2 hosts, "10" as 10 windows) and a misspelt key left its default
    with pytest.raises(ScenarioError, match=named):
        load_scenario(doc)


def test_load_scenario_names_the_injection_a_check_rejects():
    # before, FaultInjection's and Scenario's own messages named no injection
    hog_with_metric = [INJECTION, INJECTION, INJECTION, {**INJECTION, "metric": "memory"}]
    with pytest.raises(
        ScenarioError, match=r"^injection 3: only serious_crash takes a metric, cpu_hog got 'memory'$"
    ):
        load_scenario(_doc(injections=hog_with_metric))
    with pytest.raises(ScenarioError, match=r"^injection 1: intensity must be in \(0, 1\], got 2\.0$"):
        load_scenario(_doc(injections=[INJECTION, {**INJECTION, "intensity": 2}]))
    elsewhere = {**INJECTION, "start": 6, "end": 9}
    with pytest.raises(ScenarioError, match=r"^injection 1 targets unknown host 'h7'$"):
        load_scenario(_doc(injections=[INJECTION, {**elsewhere, "host": "h7"}]))
    with pytest.raises(ScenarioError, match=r"^injection 1 \[6, 12\) exceeds duration 10$"):
        load_scenario(_doc(injections=[INJECTION, {**elsewhere, "end": 12}]))


def test_load_scenario_takes_integer_numbers_as_floats():
    baseline = {k: {"mean": 30, "jitter": 2} for k in ATTR_KEYS}
    scenario = load_scenario(_doc(baseline=baseline, injections=[{**INJECTION, "intensity": 1}]))
    assert scenario.baseline["vm.cpu"] == (30.0, 2.0)
    assert type(scenario.baseline["vm.cpu"][0]) is float
    assert type(scenario.injections[0].intensity) is float


def test_labels_csv_roundtrip(tmp_path):
    _, labels = generate(small(duration=6))
    p = tmp_path / "labels.csv"
    assert write_labels(labels, p) == 6
    assert read_labels(p) == labels


def test_labels_csv_bad_header(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(AlignmentError, match="header"):
        read_labels(p)


def test_make_fixtures_reproduces_every_fixture(tmp_path):
    # guards the chain the shipped model hash rests on: simulator ->
    # to_training_set -> train -> engine_config.json
    script = ROOT / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.FIXTURES = str(tmp_path)
    module.main()
    fixtures = ROOT / "fixtures"
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(fixtures))
    for name in os.listdir(fixtures):
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name
