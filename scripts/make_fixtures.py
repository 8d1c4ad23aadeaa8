#!/usr/bin/env python3
"""Regenerate every committed fixture under fixtures/.

Deterministic: running it twice produces byte-identical files.  The
network fixtures encode the three-subsystem severity model; its CPT has
two measured anchor rows (all parents normal, all parents serious) and
interpolated filler for the remaining rows, marked as such in the
document notes so tests can tell data-backed rows from filler.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from afdi import nbc, simulator  # noqa: E402
from afdi.states import ComponentId, DiscretizationSpec, sha256  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

ANCHOR_ALL_NORMAL = (0.899, 0.0685, 0.0325)
ANCHOR_ALL_SERIOUS = (0.0321, 0.1728, 0.7951)

STATE_NAMES = ["normal", "minor", "serious"]
BOUNDS = [0.0, 25.0, 50.0, 75.0, 100.0]
ATTR_KEYS = ["vm.cpu", "vm.memory", "vm.network", "vm.throughput", "host.cpu", "host.storage_io"]
CLASSES = ["normal", "high-cpu-usage", "memory-shortage", "network-overhead", "endless-loop"]


def dump(name: str, doc) -> str:
    path = os.path.join(FIXTURES, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def subsystem_cpt() -> list[list[float]]:
    """27 rows over (Memory, CPU, Network), first parent slowest.

    Anchors at the all-normal and all-serious corners; every other row
    is a linear blend of the two by mean parent level.  The blend of
    t=0 and t=1 reproduces the anchors bit-for-bit.
    """
    rows = []
    for m, c, n in itertools.product(range(3), repeat=3):
        t = (m + c + n) / 6
        rows.append([(1 - t) * a + t * b for a, b in zip(ANCHOR_ALL_NORMAL, ANCHOR_ALL_SERIOUS)])
    return rows


def root(name: str, prior: list[float]) -> dict:
    return {"name": name, "states": STATE_NAMES, "parents": [], "cpt": [prior]}


def make_nets() -> None:
    cpt = subsystem_cpt()
    notes = (
        "Three-subsystem severity model: Memory, CPU, Network feeding system node S. "
        "S rows (normal,normal,normal) and (serious,serious,serious) are measured anchor values; "
        "all other rows are linear interpolation between the anchors by mean parent level "
        "and carry no measurement backing."
    )
    dump(
        "subsystem_net.json",
        {
            "name": "subsystem-severity",
            "notes": notes + " Root priors are one-hot at normal.",
            "nodes": [
                root("Memory", [1.0, 0.0, 0.0]),
                root("CPU", [1.0, 0.0, 0.0]),
                root("Network", [1.0, 0.0, 0.0]),
                {"name": "S", "states": STATE_NAMES, "parents": ["Memory", "CPU", "Network"], "cpt": cpt},
            ],
        },
    )
    dump(
        "case_study_net.json",
        {
            "name": "loop-case-study",
            "notes": notes + " CPU and Network priors are the loop case-study values "
            "(the CPU prior sums to 0.999 on purpose and is renormalized on load); "
            "the Memory prior is a fixture choice with no measurement backing.",
            "nodes": [
                root("Memory", [0.8, 0.15, 0.05]),
                root("CPU", [0.001, 0.425, 0.573]),
                root("Network", [0.1, 0.321, 0.579]),
                {"name": "S", "states": STATE_NAMES, "parents": ["Memory", "CPU", "Network"], "cpt": cpt},
            ],
        },
    )


def baseline() -> dict:
    means = {
        "vm.cpu": 30.0,
        "vm.memory": 35.0,
        "vm.network": 30.0,
        "vm.throughput": 60.0,
        "host.cpu": 40.0,
        "host.storage_io": 20.0,
    }
    return {key: {"mean": mean, "jitter": 2.0} for key, mean in means.items()}


def make_scenarios() -> None:
    dump(
        "scenario_800.json",
        {
            "seed": 42,
            "duration": 800,
            "hosts": 1,
            "vms_per_host": 1,
            "window_ms": 1000,
            "baseline": baseline(),
            "injections": [
                {"kind": "cpu_hog", "host": "h0", "vm": "vm0", "start": 80, "end": 160, "intensity": 1.0},
                {"kind": "memory_leak", "host": "h0", "vm": "vm0", "start": 240, "end": 320, "intensity": 1.0},
                {"kind": "network_overhead", "host": "h0", "vm": "vm0", "start": 400, "end": 480, "intensity": 1.0},
                {"kind": "endless_loop", "host": "h0", "vm": "vm0", "start": 560, "end": 640, "intensity": 1.0},
            ],
        },
    )
    dump(
        "scenario_healthy.json",
        {
            "seed": 5,
            "duration": 30,
            "hosts": 1,
            "vms_per_host": 1,
            "window_ms": 1000,
            "baseline": baseline(),
            "injections": [],
        },
    )
    dump(
        "scenario_serious_crash.json",
        {
            "seed": 9,
            "duration": 40,
            "hosts": 1,
            "vms_per_host": 1,
            "window_ms": 1000,
            "baseline": baseline(),
            "injections": [
                {"kind": "serious_crash", "host": "h0", "vm": "vm0", "start": 10, "end": 30, "metric": "cpu"},
            ],
        },
    )
    dump(
        "scenario_endless_loop.json",
        {
            "seed": 7,
            "duration": 60,
            "hosts": 1,
            "vms_per_host": 1,
            "window_ms": 1000,
            "baseline": baseline(),
            "injections": [
                {"kind": "endless_loop", "host": "h0", "vm": "vm0", "start": 20, "end": 40, "intensity": 1.0},
            ],
        },
    )


def make_model_and_config() -> None:
    schema = nbc.AttributeSchema(
        attributes=tuple((key, 4) for key in ATTR_KEYS),
        classes=tuple(CLASSES),
    )
    dump("nbc_schema.json", schema.to_json_obj())

    scenario = simulator.load_scenario(os.path.join(FIXTURES, "scenario_800.json"))
    samples, labels = simulator.generate(scenario)
    specs = {key: DiscretizationSpec(ComponentId.parse(key), tuple(BOUNDS)) for key in ATTR_KEYS}
    attrs = [ComponentId.parse(key) for key in ATTR_KEYS]
    dataset = simulator.to_training_set(samples, labels, specs, attrs, CLASSES, window_ms=scenario.window_ms)
    model = nbc.train(dataset, schema, alpha=1.0)
    model_path = os.path.join(FIXTURES, "nbc_model.json")
    nbc.save_model(model, model_path)

    with open(model_path, "rb") as fh:
        digest = sha256(fh.read()).hexdigest()
    dump(
        "engine_config.json",
        {
            "model": {"path": "nbc_model.json", "sha256": digest},
            "severity_components": ["vm.cpu", "vm.memory", "vm.network", "host.storage_io"],
            "severity_mapping": [0, 0, 1, 2],
            "discretization": {key: BOUNDS for key in ATTR_KEYS},
            "loop_rule": {
                "k": 3,
                "vm_cpu": "vm.cpu",
                "host_cpu": "host.cpu",
                "throughput": "vm.throughput",
                "cause": "endless-loop",
            },
            "preprocess": {"window": 11, "z_cutoff": 3.0},
        },
    )


def make_mdd_table() -> None:
    keys = ["vm.cpu", "vm.memory", "vm.network", "host.storage_io"]
    path = os.path.join(FIXTURES, "mdd_max4.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(keys + ["level"]) + "\n")
        for levels in itertools.product(range(3), repeat=4):
            fh.write(",".join(str(v) for v in levels) + f",{max(levels)}\n")

    dump(
        "uniform_dists.json",
        {key: [1 / 3, 1 / 3, 1 / 3] for key in keys},
    )


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    make_nets()
    make_scenarios()
    make_model_and_config()
    make_mdd_table()
    print(f"fixtures written to {os.path.abspath(FIXTURES)}")


if __name__ == "__main__":
    main()
