"""Each command loads only the modules it runs.

Every check runs in a fresh interpreter, since this test process has
long since imported the whole package.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap

from afdi.simulator import generate, load_scenario
from afdi.states import write_metric_samples
from conftest import fixture_path
from test_cli import make_training_csv

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# modules the engine path must not load; OpenSSL's digests among them
# where a built-in SHA-256 module, _sha256 or (from 3.12) _sha2, stands
# in for hashlib's
FORBIDDEN = {"csv", "dataclasses", "inspect"}
if importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2"):
    FORBIDDEN |= {"hashlib", "_hashlib"}


def _fresh(code: str) -> dict:
    """The JSON object a new interpreter prints last after running ``code``,
    which sees the modules it loaded past start-up as ``loaded()``."""
    prelude = textwrap.dedent("""\
        import json, sys
        _at_start = set(sys.modules)

        def loaded():
            return sorted(set(sys.modules) - _at_start)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _afdi(modules) -> list[str]:
    return sorted(m for m in modules if m.partition(".")[0] == "afdi")


def test_loading_an_engine_config_loads_only_the_engine_path():
    out = _fresh(f"""
        from afdi import engine
        engine.load_config({fixture_path("engine_config.json")!r})
        print(json.dumps({{"loaded": loaded()}}))
    """)
    assert _afdi(out["loaded"]) == ["afdi", "afdi.engine", "afdi.mdd", "afdi.nbc", "afdi.states"]
    assert not FORBIDDEN & set(out["loaded"])


def test_diagnose_loads_neither_the_network_engine_nor_the_simulator(tmp_path):
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    metrics = tmp_path / "metrics.jsonl"
    write_metric_samples(samples, metrics)
    out = _fresh(f"""
        from afdi import cli
        rc = cli.main(["diagnose", "--config", {fixture_path("engine_config.json")!r},
                       "--metrics", {str(metrics)!r}, "--out-alarms", {str(tmp_path / "alarms.jsonl")!r}])
        print(json.dumps({{"rc": rc, "loaded": loaded()}}))
    """)
    assert out["rc"] == 0
    assert (tmp_path / "alarms.jsonl").read_text()
    assert _afdi(out["loaded"]) == ["afdi", "afdi.cli", "afdi.engine", "afdi.mdd", "afdi.nbc", "afdi.states"]
    assert not FORBIDDEN & set(out["loaded"])
    # nothing on the engine path logs, so no logging stack is loaded
    assert "logging" not in out["loaded"]


def test_no_command_loads_logging(tmp_path):
    make_training_csv(tmp_path / "train.csv")
    commands = {
        "simulate": ["--scenario", fixture_path("scenario_healthy.json"),
                     "--out-metrics", str(tmp_path / "m.jsonl"), "--out-labels", str(tmp_path / "l.csv")],
        "train": ["--data", str(tmp_path / "train.csv"), "--schema", fixture_path("nbc_schema.json"),
                  "--out-model", str(tmp_path / "model.json")],
        "evaluate": ["--model", fixture_path("nbc_model.json"), "--data", str(tmp_path / "train.csv")],
        "mdd": ["--table", fixture_path("mdd_max4.csv"), "--query", "0,0,0,1"],
        "bn-query": ["--net", fixture_path("case_study_net.json"), "--query", "S"],
    }
    for command, argv in commands.items():
        out = _fresh(f"""
            import contextlib, io
            from afdi import cli
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main({[command, *argv]!r})
            print(json.dumps({{"rc": rc, "loaded": loaded()}}))
        """)
        assert out["rc"] == 0, command
        assert "logging" not in out["loaded"], command


# each public name of the package, in ``afdi.__all__`` order, and the
# submodule that defines it
PUBLIC = {
    "states": ["ComponentId", "DiscretizationSpec", "MetricSample", "StateDistribution", "StateVector",
               "discretize"],
    "mdd": ["Mdd", "build_from_structure_function", "build_max_severity"],
    "nbc": ["AttributeSchema", "LabeledExample", "NbcModel", "classify", "posterior", "train"],
    "bayesnet": ["DiscreteBayesNet", "joint_probability", "load_net", "marginal", "posterior_given_evidence"],
    "evaluation": ["ConfusionMatrix", "accuracy", "false_alarm_rate", "precision", "recall"],
    "engine": ["Alarm", "Engine", "EngineConfig", "PreprocessPolicy", "VirtualSensor", "preprocess"],
    "simulator": ["FaultInjection", "Scenario", "generate", "to_training_set"],
}


def test_package_names_resolve_to_their_submodule_objects():
    out = _fresh(f"""
        import importlib
        import afdi

        public = {PUBLIC!r}

        bare = loaded()
        missing = {{}}
        try:
            afdi.no_such_name
        except AttributeError as exc:
            missing = {{"raised": True, "message": str(exc)}}
        star = {{}}
        exec("from afdi import *", star)
        print(json.dumps({{
            "bare": bare,
            "all": afdi.__all__,
            "dir": dir(afdi),
            "same": [name for module, names in public.items() for name in names
                     if getattr(afdi, name) is getattr(importlib.import_module("afdi." + module), name)],
            "star": sorted(set(afdi.__all__) - set(star)),
            "submodule": afdi.simulator.__name__,
            "missing": missing,
        }}))
    """)
    assert _afdi(out["bare"]) == ["afdi"]
    names = [name for names in PUBLIC.values() for name in names]
    assert out["all"] == [*names, "__version__"]
    assert out["same"] == names
    assert out["star"] == []
    assert set(out["all"]) <= set(out["dir"])
    assert out["submodule"] == "afdi.simulator"
    assert out["missing"] == {"raised": True, "message": "module 'afdi' has no attribute 'no_such_name'"}
