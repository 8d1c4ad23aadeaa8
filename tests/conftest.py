import importlib.util
import os

import pytest
from hypothesis import HealthCheck, settings

from afdi.simulator import FaultInjection, Scenario

# Deterministic property tests: same examples every run, no deadline
# flakiness on slow CI boxes.
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.fixture(scope="session")
def fixtures_dir() -> str:
    return os.path.abspath(FIXTURES)


def fixture_path(name: str) -> str:
    return os.path.abspath(os.path.join(FIXTURES, name))


def load_script(name: str):
    """The module ``scripts/<name>.py``, loaded afresh."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hot_scenario(duration: int = 80) -> Scenario:
    """Two hosts of three VMs with memory in the minor bucket and a fault
    on every VM, the hot benchmark fleet in small (without the crash,
    which has no class in the fixture model): most windows alarm."""
    kinds = ("cpu_hog", "memory_leak", "network_overhead", "endless_loop", "memory_leak", "cpu_hog")
    injections = tuple(
        FaultInjection(kind, f"h{i // 3}", 10 + 15 * (i % 3), 30 + 15 * (i % 3), vm=f"vm{i % 3}")
        for i, kind in enumerate(kinds)
    )
    baseline = dict(Scenario(seed=0, duration=1).baseline, **{"vm.memory": (56.0, 8.0)})
    return Scenario(seed=3, duration=duration, hosts=2, vms_per_host=3, baseline=baseline, injections=injections)
