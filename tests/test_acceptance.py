"""The release gate: eight end-to-end criteria, one test function each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Each test also prints a ``PASS: criterion N`` line with
its measured numbers (visible with ``-s`` or in captured output on
failure).  Tolerances and time budgets are asserted, not just logged.
"""

import itertools
import json
import random
import time

from afdi import nbc
from afdi.bayesnet import load_net, marginal, posterior_given_evidence
from afdi.engine import Engine, TRIGGER_GATE, load_config, preprocess, write_alarm_log
from afdi.evaluation import (
    ConfusionMatrix,
    accuracy,
    false_alarm_rate,
    precision,
    recall,
)
from afdi.mdd import build_from_structure_function, build_max_severity
from afdi.simulator import generate, load_scenario, to_training_set
from afdi.states import ComponentId, DiscretizationSpec, StateDistribution, StateVector
from conftest import fixture_path
from oracles import bn_enumerate, canonical_node_count, random_net_doc, weighted_level_distribution

SEVERITY_COMPONENTS = tuple(
    ComponentId.parse(k) for k in ("vm.cpu", "vm.memory", "vm.network", "host.storage_io")
)

ANCHOR_ALL_NORMAL = (0.899, 0.0685, 0.0325)


def test_criterion_1_mdd_oracle_equivalence():
    """4-component 3-state max-severity diagram agrees with direct max on
    all 81 vectors, in under a second."""
    start = time.perf_counter()
    diagram = build_max_severity(SEVERITY_COMPONENTS)
    mismatches = 0
    for levels in itertools.product(range(3), repeat=4):
        vec = StateVector.from_levels(SEVERITY_COMPONENTS, levels)
        if diagram.evaluate(vec) != max(levels):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"PASS: criterion 1 — 81/81 state vectors exact, {elapsed * 1000:.1f} ms")


def test_criterion_2_mdd_probability_65_81():
    """Uniform thirds on 4 components put the system at severity 2 with
    probability 65/81, to 1e-12, matching brute-force enumeration."""
    diagram = build_max_severity(SEVERITY_COMPONENTS)
    uniform = [(1 / 3, 1 / 3, 1 / 3)] * 4
    dist = diagram.level_probabilities(uniform)
    oracle = weighted_level_distribution([3] * 4, max, uniform, 3)
    assert abs(dist.probs[2] - 65 / 81) <= 1e-12
    for got, want in zip(dist.probs, oracle):
        assert abs(got - want) <= 1e-12
    print(f"PASS: criterion 2 — P(system=2) = {dist.probs[2]!r}, |Δ| = {abs(dist.probs[2] - 65/81):.2e}")


def test_criterion_3_elimination_matches_enumeration():
    """One-hot subsystem fixture reproduces the anchor row exactly; 100
    random small nets agree with full joint enumeration to 1e-9, all
    inside 10 seconds."""
    start = time.perf_counter()
    net = load_net(fixture_path("subsystem_net.json"))
    got = marginal(net, "S")
    assert got.probs == ANCHOR_ALL_NORMAL  # bit-exact, not approximate

    rng = random.Random(424242)
    worst = 0.0
    for _ in range(100):
        doc = random_net_doc(rng)
        small = load_net(doc)
        names = list(small.names)
        query = rng.choice(names)
        for a, b in zip(marginal(small, query).probs, bn_enumerate(small, query)):
            worst = max(worst, abs(a - b))
        others = [n for n in names if n != query]
        if others:
            ev_node = rng.choice(others)
            ev_state = rng.randrange(small.node(ev_node).card)
            post = posterior_given_evidence(small, query, {ev_node: ev_state})
            for a, b in zip(post.probs, bn_enumerate(small, query, {ev_node: ev_state})):
                worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    print(
        f"PASS: criterion 3 — anchor row exact, 100 random nets worst |Δ| = {worst:.2e}, "
        f"{elapsed:.2f} s"
    )


def test_criterion_4_offsum_prior_renormalized_then_exact():
    """The CPU prior that sums to 0.999 loads with a warning, and every
    query on the loaded net still matches enumeration to 1e-9."""
    net = load_net(fixture_path("case_study_net.json"))
    assert any("CPU" in w for w in net.load_warnings)
    raw = (0.001, 0.425, 0.573)
    got = marginal(net, "CPU")
    for a, b in zip(got.probs, raw):
        assert abs(a - b / 0.999) <= 1e-12

    worst = 0.0
    for query in ("Memory", "CPU", "Network", "S"):
        for a, b in zip(marginal(net, query).probs, bn_enumerate(net, query)):
            worst = max(worst, abs(a - b))
    for query in ("Memory", "CPU", "Network"):
        post = posterior_given_evidence(net, query, {"S": "serious"})
        for a, b in zip(post.probs, bn_enumerate(net, query, {"S": 2})):
            worst = max(worst, abs(a - b))
    assert worst <= 1e-9
    print(f"PASS: criterion 4 — prior renormalized with warning, worst query |Δ| = {worst:.2e}")


def test_criterion_5_metric_formulas_exact():
    """The shipped metric definitions reproduce the worked tables
    exactly, including the symmetric-count accuracy of 0.5."""
    assert recall(ConfusionMatrix.from_counts(tp=90, fp=0, fn=10, tn=0)) == 0.90
    m = ConfusionMatrix.from_counts(tp=95, fp=5, fn=0, tn=0)
    assert precision(m) == 0.95
    assert false_alarm_rate(m) == 0.05
    assert accuracy(ConfusionMatrix.from_counts(tp=1, fp=1, fn=1, tn=1)) == 0.5
    print("PASS: criterion 5 — recall 0.90, precision 0.95, false alarm 0.05, accuracy 0.5 exact")


def test_criterion_6_classifier_band_on_shipped_scenario():
    """600/200 split on the 800-window scenario: accuracy >= 0.85 and
    false alarm rate <= 0.30, within 30 seconds."""
    start = time.perf_counter()
    scenario = load_scenario(fixture_path("scenario_800.json"))
    samples, labels = generate(scenario)
    schema = nbc.load_schema(fixture_path("nbc_schema.json"))
    bounds = (0.0, 25.0, 50.0, 75.0, 100.0)
    attrs = tuple(ComponentId.parse(name) for name, _ in schema.attributes)
    specs = {c.key: DiscretizationSpec(c, bounds) for c in attrs}
    examples = to_training_set(samples, labels, specs, attrs, schema.classes)
    assert len(examples) == 800

    shuffled = list(examples)
    random.Random(0).shuffle(shuffled)
    train_set, test_set = shuffled[:600], shuffled[600:]
    model = nbc.train(train_set, schema, alpha=1.0)

    matrix = ConfusionMatrix(classes=schema.classes)
    for ex in test_set:
        predicted = nbc.classify(model, ex.features)
        matrix.record(schema.classes[predicted], schema.classes[ex.label])
    acc = accuracy(matrix)
    far = false_alarm_rate(matrix)
    elapsed = time.perf_counter() - start
    assert acc >= 0.85, f"accuracy {acc:.4f} below 0.85"
    assert far <= 0.30, f"false alarm rate {far:.4f} above 0.30"
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print(
        f"PASS: criterion 6 — accuracy {acc:.4f}, false alarm rate {far:.4f}, "
        f"recall {recall(matrix):.4f} on 200 held-out windows, {elapsed:.2f} s"
    )


def test_criterion_7_gate_precedence_end_to_end(tmp_path):
    """Crash windows gate without ever invoking the classifier; the loop
    scenario yields exactly one named endless-loop alarm; alarm logs are
    byte-identical across runs."""
    config = load_config(fixture_path("engine_config.json"))

    crash_samples, _ = generate(load_scenario(fixture_path("scenario_serious_crash.json")))
    crash_logs = []
    for name in ("crash_a.jsonl", "crash_b.jsonl"):
        engine = Engine(config)
        alarms = engine.process_stream(list(crash_samples))
        assert alarms, "crash scenario must alarm"
        assert all(a.trigger == TRIGGER_GATE and a.severity == 2 for a in alarms)
        assert engine.nbc_invocations == 0
        p = tmp_path / name
        write_alarm_log(alarms, p)
        crash_logs.append(p.read_bytes())
    assert crash_logs[0] == crash_logs[1]

    loop_samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    loop_logs = []
    for name in ("loop_a.jsonl", "loop_b.jsonl"):
        engine = Engine(config)
        alarms = engine.process_stream(list(loop_samples))
        named = [a for a in alarms if a.top_cause == "endless-loop"]
        assert len(named) == 1, f"expected one named loop alarm, got {len(named)}"
        assert engine.nbc_invocations == 0
        p = tmp_path / name
        write_alarm_log(alarms, p)
        loop_logs.append(p.read_bytes())
    assert loop_logs[0] == loop_logs[1]
    print(
        "PASS: criterion 7 — crash stream gated with 0 classifier calls; "
        "one endless-loop alarm; logs byte-identical across runs"
    )


def test_criterion_8_invariant_bundle():
    """Spot-run of the cross-module invariants the module suites cover in
    depth: normalization, argmax invariance, canonical reduction,
    preprocessing idempotence, elimination-order independence."""
    # distribution normalization at 1e-12
    StateDistribution((0.5, 0.5, 0.0))
    try:
        StateDistribution((0.5, 0.5, 1e-9))
    except ValueError:
        pass
    else:
        raise AssertionError("off-by-1e-9 distribution accepted")

    # classifier argmax unchanged by a shared per-attribute scale
    schema = nbc.AttributeSchema(attributes=(("a", 2), ("b", 2)), classes=("x", "y"))
    data = [
        nbc.LabeledExample((0, 0), 0),
        nbc.LabeledExample((0, 1), 0),
        nbc.LabeledExample((1, 1), 1),
        nbc.LabeledExample((1, 0), 1),
        nbc.LabeledExample((1, 1), 1),
    ]
    model = nbc.train(data, schema, alpha=1.0)
    for features in itertools.product(range(2), repeat=2):
        direct = nbc.classify(model, features)
        post = nbc.posterior(model, features)
        assert post[direct] == max(post)

    # diagram reduction is canonical: node count equals the
    # signature-collapse count for an arbitrary structure function
    comps = tuple(ComponentId(n) for n in ("c0", "c1", "c2"))
    arities = [3, 3, 3]

    def weighted_mod(levels) -> int:
        return (levels[0] + 2 * levels[1] + levels[2]) % 3

    diagram = build_from_structure_function(comps, arities, lambda sv: weighted_mod(sv.levels))
    assert diagram.node_count() == canonical_node_count(arities, weighted_mod)

    # preprocessing is idempotent on a spiky series
    from afdi.states import MetricSample

    comp = ComponentId("throughput", "vm")
    series = [
        MetricSample(i * 1000, "h0", "vm0", comp, v)
        for i, v in enumerate([50.0] * 8 + [400.0] + [50.0] * 8)
    ]
    once = preprocess(series)
    assert preprocess(once) == once

    # elimination order never changes the answer
    net = load_net(fixture_path("case_study_net.json"))
    reference = marginal(net, "S").probs
    for order in itertools.permutations(("Memory", "CPU", "Network")):
        alt = marginal(net, "S", elimination_order=order).probs
        for a, b in zip(alt, reference):
            assert abs(a - b) <= 1e-12
    print("PASS: criterion 8 — invariant bundle holds (full property suites in module tests)")
