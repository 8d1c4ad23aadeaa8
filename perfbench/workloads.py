"""Scenario documents for the benchmark workloads.

Both fleets use the topology of the shipped ``scenario_800`` (800 windows
per VM) widened to 4 hosts of 8 VMs: 108,800 samples and 25,600 windows.
The seed of a run becomes the scenario seed, so it decides the jitter of
every sample; the injection layout is fixed, which keeps the share of
work that takes each branch of the pipeline the same from seed to seed.
"""

from __future__ import annotations

import json
import os

HOSTS = 4
VMS_PER_HOST = 8

# vm.memory at 56 +/- 8 lies mostly in the 50-75 % bucket, which the
# severity mapping calls minor: about seven healthy windows in eight are
# judged by the classifier and write an alarm, and the rest still take
# the severity-0 path.
HOT_MEMORY = {"mean": 56.0, "jitter": 8.0}

_HOT_KINDS = ("cpu_hog", "memory_leak", "network_overhead", "endless_loop", "serious_crash")
_HOT_SPAN = 80
_HOT_STRIDE = 90  # VMs of one host never overlap in time, so loops never share a host


def _fixture(root: str, name: str) -> dict:
    with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
        return json.load(fh)


def fleet_replay(root: str, seed: int) -> dict:
    """The 4x8 fleet with the fixture's four injections on h0/vm0."""
    doc = _fixture(root, "scenario_800.json")
    doc.update(seed=seed, hosts=HOSTS, vms_per_host=VMS_PER_HOST)
    return doc


def hot_fleet(root: str, seed: int) -> dict:
    """The same fleet with memory raised to minor and a fault on every VM.

    Kinds rotate over the 32 VMs, so each host sees every kind; VM ``v``
    of a host is hit over windows ``[40 + 90 v, 120 + 90 v)``.
    """
    doc = _fixture(root, "scenario_800.json")
    doc.update(seed=seed, hosts=HOSTS, vms_per_host=VMS_PER_HOST)
    doc["baseline"]["vm.memory"] = dict(HOT_MEMORY)
    injections = []
    for h in range(HOSTS):
        for v in range(VMS_PER_HOST):
            kind = _HOT_KINDS[(h * VMS_PER_HOST + v) % len(_HOT_KINDS)]
            start = 40 + _HOT_STRIDE * v
            inj = {
                "kind": kind,
                "host": f"h{h}",
                "vm": f"vm{v}",
                "start": start,
                "end": start + _HOT_SPAN,
                "intensity": 1.0,
            }
            if kind == "serious_crash":
                # a severity component, so the crash must trip the gate
                inj["metric"] = "cpu" if v % 2 == 0 else "network"
            injections.append(inj)
    doc["injections"] = injections
    return doc


WORKLOADS = {
    "fleet-replay": fleet_replay,
    "hot-fleet": hot_fleet,
}
