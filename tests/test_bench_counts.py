"""The traced benchmark children run, and count what the alarm log holds.

``perfbench/tracer.py`` attributes a classifier alarm to the
``nbc.posterior`` call inside its ``engine.step``, and reads the classifier
decisions from ``Engine.nbc_invocations``.  A change that skips either
(a posterior memo in the engine, say) would make the traced branch counts
disagree with the log; these runs of ``child.py diagnose --spans`` on the
fixture streams show it.  ``child.py reference --spans`` patches
``bayesnet.Factor``'s methods by name, so renaming one would crash the
benchmark's traced run; a short traced slice on the fixtures shows it.
Each child runs in a fresh interpreter, so the tracer's patches cannot
leak into the other tests.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from afdi.engine import load_config
from afdi.simulator import generate, load_scenario
from afdi.states import write_metric_samples
from conftest import fixture_path

ROOT = pathlib.Path(__file__).resolve().parent.parent

# A fixture stream is diagnosed in a few ms, less than the host-speed
# probe's 50 ms interval, and the child needs one probe inside the phase.
CHILD = """
import runpy, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
speed.INTERVAL_S = 0.001
sys.argv = sys.argv[3:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _child(*argv) -> dict:
    """The JSON object ``perfbench/child.py`` prints last for ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(ROOT / "perfbench" / "child.py"), *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _checks():
    spec = importlib.util.spec_from_file_location("checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scenario_800 adds the classifier alarms the other two lack: 27 minor
# windows, most with a feature vector an earlier one had
@pytest.mark.parametrize(
    "scenario", ["scenario_endless_loop.json", "scenario_serious_crash.json", "scenario_800.json"]
)
def test_traced_counts_match_the_alarm_log(tmp_path, scenario):
    metrics, alarms_path = tmp_path / "metrics.jsonl", tmp_path / "alarms.jsonl"
    samples, labels = generate(load_scenario(fixture_path(scenario)))
    write_metric_samples(samples, metrics)
    config_path = fixture_path("engine_config.json")
    out = _child("diagnose", "--config", config_path, "--metrics", metrics,
                 "--out-alarms", alarms_path, "--spans", tmp_path / "spans.tsv")
    facts = out["facts"]

    config = load_config(config_path)
    alarms = [json.loads(line) for line in alarms_path.read_text().splitlines()]
    assert facts["alarms"] == _checks().alarm_branches(alarms, config.classes, config.loop_rule.cause)
    assert facts["nbc_invocations"] == out["layers"]["engine.windows.sev1"][0]
    # the tracer counts samples from what engine.preprocess is handed and
    # windows from what engine.collect_windows returns, so a run that goes
    # round either stage reads 0 here; run.py --trace 1 checks the same
    assert facts["samples"] == len(samples)
    assert facts["windows"] == facts["steps"] == len(labels)


def test_traced_reference_slice_runs_and_agrees(tmp_path):
    spans = tmp_path / "spans.tsv"
    out = _child("reference", "--model", fixture_path("nbc_model.json"),
                 "--net", fixture_path("case_study_net.json"), "--seed", 1, "--seconds", 0.2, "--spans", spans)
    assert out["attempted"] > 0 and out["failed"] == 0
    names = [line.split("\t")[1] for line in spans.read_text().splitlines()[1:]]
    assert names.count("bayesnet.posterior_given_evidence") >= out["vectors"]
