"""End-to-end checks of the command-line interface via subprocess."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from afdi import bayesnet, cli, nbc, simulator
from afdi.states import ComponentId, DiscretizationSpec
from conftest import fixture_path

BOUNDS = (0.0, 25.0, 50.0, 75.0, 100.0)
ATTR_KEYS = ("vm.cpu", "vm.memory", "vm.network", "vm.throughput", "host.cpu", "host.storage_io")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, **kw):
    # the child imports the package from src, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "afdi", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        **kw,
    )


def make_training_csv(path, duration=40):
    """Small labeled dataset: half healthy, half full-blast cpu hog."""
    scenario = simulator.Scenario(
        seed=77,
        duration=duration,
        injections=(
            simulator.FaultInjection("cpu_hog", "h0", duration // 2, duration, vm="vm0"),
        ),
    )
    samples, labels = simulator.generate(scenario)
    schema = nbc.load_schema(fixture_path("nbc_schema.json"))
    specs = {k: DiscretizationSpec(ComponentId.parse(k), BOUNDS) for k in ATTR_KEYS}
    attrs = tuple(ComponentId.parse(k) for k in ATTR_KEYS)
    examples = simulator.to_training_set(samples, labels, specs, attrs, schema.classes)
    nbc.write_training_csv(examples, schema, path)
    return schema


# -- simulate --------------------------------------------------------


def test_simulate_writes_streams(tmp_path):
    metrics = tmp_path / "metrics.jsonl"
    labels = tmp_path / "labels.csv"
    res = run_cli(
        "simulate",
        "--scenario", fixture_path("scenario_healthy.json"),
        "--out-metrics", str(metrics),
        "--out-labels", str(labels),
    )
    assert res.returncode == 0, res.stderr
    assert "simulated" in res.stderr
    lines = metrics.read_text().splitlines()
    assert lines and all(json.loads(l) for l in lines)
    assert labels.read_text().splitlines()[0] == "window,host,vm,label"


def test_simulate_missing_scenario_file(tmp_path):
    res = run_cli(
        "simulate",
        "--scenario", str(tmp_path / "ghost.json"),
        "--out-metrics", str(tmp_path / "m.jsonl"),
        "--out-labels", str(tmp_path / "l.csv"),
    )
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "ghost.json" in res.stderr


def test_simulate_seed_override_changes_output(tmp_path):
    outs = []
    for seed in ("1", "2"):
        metrics = tmp_path / f"m{seed}.jsonl"
        res = run_cli(
            "simulate",
            "--scenario", fixture_path("scenario_healthy.json"),
            "--out-metrics", str(metrics),
            "--out-labels", str(tmp_path / f"l{seed}.csv"),
            "--seed", seed,
        )
        assert res.returncode == 0, res.stderr
        outs.append(metrics.read_bytes())
    assert outs[0] != outs[1]


def test_simulate_rejects_a_scenario_that_is_not_an_object(tmp_path):
    scenario = tmp_path / "list.json"
    scenario.write_text("[1]\n")
    res = run_cli(
        "simulate",
        "--scenario", str(scenario),
        "--out-metrics", str(tmp_path / "m.jsonl"),
        "--out-labels", str(tmp_path / "l.csv"),
        "--seed", "3",
    )
    assert res.returncode == 1
    assert "error: scenario document must be a JSON object, got [1]" in res.stderr


def test_simulate_rejects_an_intensity_too_large_for_a_float(tmp_path):
    # before, float() of the 401-digit integer ended in an OverflowError traceback
    doc = json.loads(open(fixture_path("scenario_healthy.json")).read())
    doc["injections"] = [
        {"kind": "cpu_hog", "host": "h0", "vm": "vm0", "start": 0, "end": 2, "intensity": 10**400}
    ]
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    res = run_cli(
        "simulate",
        "--scenario", str(scenario),
        "--out-metrics", str(tmp_path / "m.jsonl"),
        "--out-labels", str(tmp_path / "l.csv"),
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error: injection 0: intensity is too large for a float, got 1")
    assert "Traceback" not in res.stderr


# -- train -----------------------------------------------------------


def test_train_reports_priors(tmp_path):
    data = tmp_path / "train.csv"
    make_training_csv(data)
    model_path = tmp_path / "model.json"
    res = run_cli(
        "train",
        "--data", str(data),
        "--schema", fixture_path("nbc_schema.json"),
        "--out-model", str(model_path),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    priors = doc["priors"]
    # the schema has no crash class on purpose: crashes are gated, never classified
    assert set(priors) == {
        "normal", "high-cpu-usage", "memory-shortage", "network-overhead", "endless-loop",
    }
    assert abs(sum(priors.values()) - 1.0) < 1e-9
    model = nbc.load_model(model_path)  # file is a valid model document
    assert model.alpha == 1.0


def test_train_empty_dataset_fails(tmp_path):
    schema = nbc.load_schema(fixture_path("nbc_schema.json"))
    data = tmp_path / "empty.csv"
    nbc.write_training_csv([], schema, data)  # header only
    res = run_cli(
        "train",
        "--data", str(data),
        "--schema", fixture_path("nbc_schema.json"),
        "--out-model", str(tmp_path / "model.json"),
    )
    assert res.returncode == 1
    assert "error:" in res.stderr


# -- diagnose --------------------------------------------------------


def simulate_to(tmp_path, scenario_name):
    metrics = tmp_path / "metrics.jsonl"
    res = run_cli(
        "simulate",
        "--scenario", fixture_path(scenario_name),
        "--out-metrics", str(metrics),
        "--out-labels", str(tmp_path / "labels.csv"),
    )
    assert res.returncode == 0, res.stderr
    return metrics


def diagnose(tmp_path, metrics):
    alarms = tmp_path / "alarms.jsonl"
    res = run_cli(
        "diagnose",
        "--config", fixture_path("engine_config.json"),
        "--metrics", str(metrics),
        "--out-alarms", str(alarms),
    )
    assert res.returncode == 0, res.stderr
    return [json.loads(l) for l in alarms.read_text().splitlines()]


def test_diagnose_healthy_stream_is_silent(tmp_path):
    metrics = simulate_to(tmp_path, "scenario_healthy.json")
    assert diagnose(tmp_path, metrics) == []


def test_diagnose_loop_stream_names_the_loop_once(tmp_path):
    metrics = simulate_to(tmp_path, "scenario_endless_loop.json")
    alarms = diagnose(tmp_path, metrics)
    named = [a for a in alarms if a["top_cause"] == "endless-loop"]
    assert len(named) == 1
    assert named[0]["severity"] == 2


def test_diagnose_crash_stream_gates_without_diagnosis(tmp_path):
    metrics = simulate_to(tmp_path, "scenario_serious_crash.json")
    alarms = diagnose(tmp_path, metrics)
    assert alarms, "crash scenario must raise alarms"
    assert all(a["trigger"] == "severity_gate" for a in alarms)
    assert all(a["diagnosis"] is None for a in alarms)


def test_diagnose_reports_classifier_calls(tmp_path):
    metrics = simulate_to(tmp_path, "scenario_serious_crash.json")
    alarms_path = tmp_path / "alarms.jsonl"
    res = run_cli(
        "diagnose",
        "--config", fixture_path("engine_config.json"),
        "--metrics", str(metrics),
        "--out-alarms", str(alarms_path),
    )
    assert res.returncode == 0
    assert "(0 classifier calls)" in res.stderr


# -- evaluate --------------------------------------------------------


def test_evaluate_report(tmp_path):
    data = tmp_path / "train.csv"
    make_training_csv(data)
    model_path = tmp_path / "model.json"
    run = run_cli(
        "train",
        "--data", str(data),
        "--schema", fixture_path("nbc_schema.json"),
        "--out-model", str(model_path),
    )
    assert run.returncode == 0
    report_path = tmp_path / "report.json"
    res = run_cli(
        "evaluate",
        "--model", str(model_path),
        "--data", str(data),
        "--report", str(report_path),
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(report_path.read_text())
    assert report["dataset_size"] == 40
    # healthy vs full-intensity hog is cleanly separable in bucket space
    assert report["accuracy"] >= 0.95
    assert set(report["counts"]) == {"tp", "fp", "fn", "tn"}
    assert len(report["model_sha256"]) == 64
    assert report["classes"][0] == "normal"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["evaluate", "--model", fixture_path("nbc_model.json"), "--data", "TMP/header.csv"],
         "no examples in TMP/header.csv"),
        (["mdd", "--table", "TMP/header.csv"], "TMP/header.csv: table has no rows"),
    ],
    ids=["evaluate-no-examples", "mdd-no-rows"],
)
def test_a_header_only_table_is_refused(tmp_path, argv, named):
    header = {"evaluate": ",".join(ATTR_KEYS) + ",label", "mdd": "vm.cpu,vm.memory,level"}[argv[0]]
    (tmp_path / "header.csv").write_text(header + "\n")
    args = cli.build_parser().parse_args([arg.replace("TMP", str(tmp_path)) for arg in argv])
    with pytest.raises(cli.CliError, match=f"^{re.escape(named.replace('TMP', str(tmp_path)))}$"):
        args.func(args)


def test_evaluate_reports_an_undefined_ratio_as_null(tmp_path):
    # every example is normal and classified normal: no fault is raised
    # or present, so recall, precision and the false-alarm rate divide by 0
    data = tmp_path / "normal.csv"
    data.write_text(",".join(ATTR_KEYS) + ",label\n" + "1,1,1,2,1,0,normal\n" * 3)
    res = run_cli("evaluate", "--model", fixture_path("nbc_model.json"), "--data", str(data))
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["counts"] == {"tp": 0, "fp": 0, "fn": 0, "tn": 3}
    assert report["accuracy"] == 1.0
    assert report["recall"] is report["precision"] is report["false_alarm_rate"] is None


def test_evaluate_missing_model(tmp_path):
    res = run_cli("evaluate", "--model", str(tmp_path / "no.json"), "--data", str(tmp_path / "no.csv"))
    assert res.returncode == 1
    assert "error:" in res.stderr


# -- mdd -------------------------------------------------------------


def test_mdd_query():
    res = run_cli("mdd", "--table", fixture_path("mdd_max4.csv"), "--query", "0,0,0,0")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["level"] == 0
    assert doc["node_count"] >= 1
    res = run_cli("mdd", "--table", fixture_path("mdd_max4.csv"), "--query", "0,2,0,1")
    assert json.loads(res.stdout)["level"] == 2


def test_mdd_level_probabilities():
    res = run_cli(
        "mdd",
        "--table", fixture_path("mdd_max4.csv"),
        "--dists", fixture_path("uniform_dists.json"),
    )
    assert res.returncode == 0, res.stderr
    probs = json.loads(res.stdout)["level_probabilities"]
    assert len(probs) == 3
    assert abs(probs[0] - 1 / 81) < 1e-12
    assert abs(probs[2] - 65 / 81) < 1e-12


def test_mdd_dot_output(tmp_path):
    dot = tmp_path / "graph.dot"
    res = run_cli(
        "mdd", "--table", fixture_path("mdd_max4.csv"), "--dot", str(dot)
    )
    assert res.returncode == 0
    text = dot.read_text()
    assert "digraph" in text and "vm.cpu" in text


UNIFORM = [1 / 3, 1 / 3, 1 / 3]
DIST_KEYS = ("vm.cpu", "vm.memory", "vm.network", "host.storage_io")


@pytest.mark.parametrize(
    "doc, named",
    [
        ({**dict.fromkeys(DIST_KEYS, UNIFORM), "vm.cpu": ["0.5", 0.5, 0.0]},
         r'vm.cpu must be a JSON array of numbers, got ["0.5", 0.5, 0.0]'),
        ({**dict.fromkeys(DIST_KEYS, UNIFORM), "vm.cpuu": UNIFORM},
         r"unknown keys ['vm.cpuu'] in distributions"),
        (dict.fromkeys(DIST_KEYS[1:], UNIFORM), r"missing field 'vm.cpu'"),
    ],
    ids=["string-probability", "unknown-key", "missing-key"],
)
def test_mdd_rejects_malformed_distributions(tmp_path, doc, named):
    # before, "0.5" loaded as 0.5 and an unknown key was ignored
    dists = tmp_path / "dists.json"
    dists.write_text(json.dumps(doc))
    res = run_cli("mdd", "--table", fixture_path("mdd_max4.csv"), "--dists", str(dists))
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert named in res.stderr


def test_mdd_names_a_distribution_total_added_left_to_right(tmp_path):
    # sum() prints 1.1 from CPython 3.12 on; every build adds left to right
    dists = tmp_path / "dists.json"
    dists.write_text(json.dumps({**dict.fromkeys(DIST_KEYS, UNIFORM), "vm.cpu": [0.7, 0.2, 0.2]}))
    res = run_cli("mdd", "--table", fixture_path("mdd_max4.csv"), "--dists", str(dists))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: distribution for vm.cpu sums to 1.0999999999999999, not 1\n"


def test_mdd_incomplete_table_rejected(tmp_path):
    p = tmp_path / "partial.csv"
    p.write_text("vm.cpu,vm.memory,level\n0,0,0\n1,1,1\n")
    res = run_cli("mdd", "--table", str(p), "--query", "0,0")
    assert res.returncode == 1
    assert "cover" in res.stderr


@pytest.mark.parametrize(
    "rows, named",
    [
        ("0,0,0\n0,1\n1,0,1\n1,1,1\n", "line 3: expected 3 columns, got 2"),
        ("0,0,0\n0,1,1,0\n1,0,1\n1,1,1\n", "line 3: expected 3 columns, got 4"),
        ("0,0,0\n0,0,2\n0,1,1\n1,0,1\n1,1,1\n", "line 3: repeats the states (0, 0) of line 2"),
    ],
    ids=["short-row", "long-row", "repeated-states"],
)
def test_mdd_table_rejects_a_row_of_the_wrong_shape_naming_its_line(tmp_path, rows, named):
    # before, a short row ended in an IndexError traceback, a long one
    # was reported as a missing row, and a repeated state vector
    # replaced the earlier level, so --query 0,0 answered 2
    p = tmp_path / "table.csv"
    p.write_text("vm.cpu,vm.memory,level\n" + rows)
    res = run_cli("mdd", "--table", str(p), "--query", "0,0")
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert f"{p}: {named}" in res.stderr


@pytest.mark.parametrize(
    "header, named",
    [
        ("cpu,level", "component key must look like 'vm.cpu', got 'cpu'"),
        ("vm.cpu,vm.cpu,level", "duplicate component vm.cpu"),
    ],
    ids=["key-without-level", "repeated-key"],
)
def test_mdd_table_header_error_names_the_path_and_line_1(tmp_path, header, named):
    # before, neither message named the file or its line
    p = tmp_path / "table.csv"
    width = header.count(",")
    p.write_text(header + "\n" + ",".join(["0"] * (width + 1)) + "\n")
    res = run_cli("mdd", "--table", str(p))
    assert res.returncode == 1
    assert res.stderr == f"error: {p}: line 1: {named}\n"


def test_mdd_query_arity_mismatch():
    res = run_cli("mdd", "--table", fixture_path("mdd_max4.csv"), "--query", "0,0")
    assert res.returncode == 1
    assert "components" in res.stderr


# -- bn-query --------------------------------------------------------


def test_bn_query_marginal_matches_known_values():
    res = run_cli("bn-query", "--net", fixture_path("subsystem_net.json"), "--query", "S")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["states"] == ["normal", "minor", "serious"]
    assert doc["distribution"] == [0.899, 0.0685, 0.0325]
    assert doc["load_warnings"] == []


def test_bn_query_with_evidence():
    # the case net gives every parent state positive mass, so observing
    # all parents serious is legal and pins S to its all-serious CPT row
    res = run_cli(
        "bn-query",
        "--net", fixture_path("case_study_net.json"),
        "--query", "S",
        "--evidence", "Memory=serious",
        "--evidence", "CPU=2",
        "--evidence", "Network=serious",
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    for got, want in zip(doc["distribution"], (0.0321, 0.1728, 0.7951)):
        assert abs(got - want) <= 1e-12
    assert doc["evidence"] == {"Memory": "serious", "CPU": 2, "Network": "serious"}


def test_bn_query_impossible_evidence_fails_cleanly():
    # one-hot all-normal priors make a serious observation impossible
    res = run_cli(
        "bn-query",
        "--net", fixture_path("subsystem_net.json"),
        "--query", "S",
        "--evidence", "Memory=serious",
    )
    assert res.returncode == 1
    assert "probability zero" in res.stderr


def test_bn_query_reports_load_warnings():
    res = run_cli("bn-query", "--net", fixture_path("case_study_net.json"), "--query", "CPU")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["load_warnings"], "the deliberately off-by-0.001 prior must be reported"
    assert any("CPU" in w for w in doc["load_warnings"])
    assert abs(sum(doc["distribution"]) - 1.0) < 1e-12


def test_bn_query_prints_each_load_warning_to_stderr():
    # the one channel for a load warning besides the output's
    # load_warnings, in line with the error: prefix
    res = run_cli("bn-query", "--net", fixture_path("case_study_net.json"), "--query", "S")
    assert res.returncode == 0
    assert res.stderr == "warning: node 'CPU' row 0: sum 0.9989999999999999 renormalized\n"


def bn_query_transcript() -> str:
    """What ``afdi bn-query`` prints, and its exit status, for every
    marginal of the two fixture networks and every posterior given one
    state of each node of any set of the other nodes, impossible
    evidence included."""
    out = io.StringIO()
    for name in ("case_study_net.json", "subsystem_net.json"):
        path = fixture_path(name)
        nodes = bayesnet.load_net(path).nodes
        for query in nodes:
            others = [node for node in nodes if node is not query]
            for size in range(len(others) + 1):
                for observed in itertools.combinations(others, size):
                    for states in itertools.product(*(range(node.card) for node in observed)):
                        argv = ["bn-query", "--net", path, "--query", query.name]
                        for node, state in zip(observed, states):
                            argv += ["--evidence", f"{node.name}={state}"]
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                            status = cli.main(argv)
                        out.write(f"exit {status}\n")
    return out.getvalue()


# the SHA-256 of bn_query_transcript(), the same on CPython 3.10 to 3.13:
# every total that normalizes a distribution is added left to right
BN_QUERY_SHA256 = "c929251a92022b7d03eb68146230cac0800822b34e5554ca4fffab3d9e70c377"


def test_bn_query_prints_the_same_bytes_on_every_python_build():
    transcript = bn_query_transcript()
    assert transcript.count("exit 0\n") > 200
    assert hashlib.sha256(transcript.encode("utf-8")).hexdigest() == BN_QUERY_SHA256


def test_bn_query_malformed_evidence():
    res = run_cli(
        "bn-query",
        "--net", fixture_path("subsystem_net.json"),
        "--query", "S",
        "--evidence", "Memory",
    )
    assert res.returncode == 1
    assert "NODE=STATE" in res.stderr


def test_bn_query_answers_a_marginal_whose_cells_add_past_one(tmp_path):
    # B's first cell adds up A's prior to 1.0000000000000002, within 1e-12
    # of 1; before, the cells were kept and bn-query failed with
    # "probability 1.0000000000000002 outside [0, 1]"
    prior = [0.1357504537539382, 0.2684674920350294, 0.17194743492308592, 0.11303764512179212,
             0.3107969741661544]
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"nodes": [
        {"name": "A", "states": ["a0", "a1", "a2", "a3", "a4"], "cpt": [prior]},
        {"name": "B", "states": ["x", "y"], "parents": ["A"], "cpt": [[1.0, 0.0]] * 5},
    ]}))
    res = run_cli("bn-query", "--net", str(net), "--query", "B")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["distribution"] == [1.0, 0.0]


def test_bn_query_refuses_a_node_given_twice():
    # before, the last state given won and the query exited 0
    res = run_cli(
        "bn-query",
        "--net", fixture_path("case_study_net.json"),
        "--query", "S",
        "--evidence", "CPU=0",
        "--evidence", "Memory=0",
        "--evidence", "CPU=2",
    )
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.endswith("error: --evidence gives node 'CPU' twice\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["mdd", "--table", fixture_path("mdd_max4.csv"), "--query", "0,1,1_0,0"],
         "--query: invalid literal for int() with base 10: '1_0'"),
        (["bn-query", "--net", fixture_path("subsystem_net.json"), "--query", "S", "--evidence", "CPU=²"],
         "--evidence CPU=²: invalid literal for int() with base 10: '²'"),
        (["bn-query", "--net", fixture_path("subsystem_net.json"), "--query", "S", "--evidence", "CPU=١"],
         "--evidence CPU=١: invalid literal for int() with base 10: '١'"),
    ],
    ids=["query-underscore", "evidence-superscript", "evidence-arabic-indic"],
)
def test_an_integer_argument_is_ascii_digits(argv, named):
    # before, --query 0,1,1_0,0 answered "level 10 out of range", CPU=²
    # named no argument and CPU=١ was taken as state 1
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stderr == f"error: {named}\n"


# -- malformed documents ---------------------------------------------


def _config_without_hash():
    doc = json.loads(open(fixture_path("engine_config.json")).read())
    doc["model"] = {"path": fixture_path(doc["model"]["path"])}
    return doc


@pytest.mark.parametrize(
    "command, flag, doc, extra, named",
    [
        ("train", "--schema", {"attributes": [["vm.cpu", "4"]], "classes": ["a", "b"]},
         ["--data", "TMP/train.csv", "--out-model", "TMP/model.json"],
         'schema: cardinality of attribute 0 must be a JSON integer, got "4"'),
        ("diagnose", "--config", _config_without_hash(),
         ["--metrics", fixture_path("engine_config.json"), "--out-alarms", "TMP/alarms.jsonl"],
         "missing field 'sha256'"),
        ("evaluate", "--model", [1], ["--data", "TMP/train.csv"], "must be a JSON object, got [1]"),
        ("mdd", "--dists", {**dict.fromkeys(DIST_KEYS, UNIFORM), "vm.cpu": "uniform"},
         ["--table", fixture_path("mdd_max4.csv")],
         'vm.cpu must be a JSON array of numbers, got "uniform"'),
        ("bn-query", "--net", {"nodes": {"a": 1}}, ["--query", "a"],
         'nodes must be a JSON array, got {"a": 1}'),
    ],
    ids=["train", "diagnose", "evaluate", "mdd", "bn-query"],
)
def test_malformed_document_is_an_error_not_a_traceback(tmp_path, command, flag, doc, extra, named):
    # before, bn-query and evaluate ended in a TypeError and an
    # AttributeError traceback, and the others loaded the document
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    (tmp_path / "train.csv").write_text("vm.cpu,label\n0,a\n")
    extra = [arg.replace("TMP", str(tmp_path)) for arg in extra]
    res = run_cli(command, flag, str(path), *extra)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert named in res.stderr


DEEP = "[" * 100_000 + "]" * 100_000


def test_a_document_nested_too_deeply_is_an_error_not_a_traceback(tmp_path):
    # before, the decoder's RecursionError ended in a traceback
    net = tmp_path / "net.json"
    net.write_text('{"nodes": ' + DEEP + "}")
    res = run_cli("bn-query", "--net", str(net), "--query", "S")
    assert res.returncode == 1
    assert res.stderr == f"error: {net}: JSON nested too deeply to decode\n"


def test_a_stream_line_nested_too_deeply_is_an_error_naming_the_line(tmp_path):
    good = {"host_id": "h0", "level": "vm", "metric": "cpu", "timestamp": 0, "value": 1.0, "vm_id": "vm0"}
    metrics = tmp_path / "metrics.jsonl"
    metrics.write_text(json.dumps(good) + "\n" + '{"value": ' + DEEP + "}\n")
    res = run_cli(
        "diagnose",
        "--config", fixture_path("engine_config.json"),
        "--metrics", str(metrics),
        "--out-alarms", str(tmp_path / "alarms.jsonl"),
    )
    assert res.returncode == 1
    assert res.stderr == f"error: {metrics}: line 2: JSON nested too deeply to decode\n"


def test_a_stream_that_is_not_utf8_is_an_error_naming_the_path(tmp_path):
    good = {"host_id": "h0", "level": "vm", "metric": "cpu", "timestamp": 0, "value": 1.0, "vm_id": "vm0"}
    metrics = tmp_path / "metrics.jsonl"
    metrics.write_bytes(json.dumps(good).encode() + b"\n\xff\n")
    res = run_cli(
        "diagnose",
        "--config", fixture_path("engine_config.json"),
        "--metrics", str(metrics),
        "--out-alarms", str(tmp_path / "alarms.jsonl"),
    )
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {metrics}: 'utf-8' codec can't decode byte 0xff")


DOCUMENT_FLAGS = [
    ("diagnose", "--config", ["--metrics", fixture_path("engine_config.json"), "--out-alarms", "TMP/a.jsonl"]),
    ("bn-query", "--net", ["--query", "S"]),
]


@pytest.mark.parametrize("command, flag, extra", DOCUMENT_FLAGS, ids=["diagnose-config", "bn-query-net"])
@pytest.mark.parametrize(
    "text, named",
    [(b'{"nodes": "\xff"}', "'utf-8' codec can't decode byte 0xff"), (b'{"nodes": ', "Expecting value")],
    ids=["not-utf8", "not-json"],
)
def test_a_document_that_cannot_be_decoded_is_an_error_naming_the_path(tmp_path, command, flag, extra, text, named):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    extra = [arg.replace("TMP", str(tmp_path)) for arg in extra]
    res = run_cli(command, flag, str(path), *extra)
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {path}: {named}")


@pytest.mark.parametrize("command, flag, extra", DOCUMENT_FLAGS, ids=["diagnose-config", "bn-query-net"])
def test_a_document_that_repeats_a_key_is_an_error_naming_the_path(tmp_path, command, flag, extra):
    # before, the last value of the key was kept without a word
    path = tmp_path / "doc.json"
    source = fixture_path("engine_config.json" if command == "diagnose" else "subsystem_net.json")
    text = pathlib.Path(source).read_text()
    path.write_text(text.replace('{\n', '{\n  "notes": "one",\n  "notes": "two",\n', 1))
    extra = [arg.replace("TMP", str(tmp_path)) for arg in extra]
    res = run_cli(command, flag, str(path), *extra)
    assert res.returncode == 1
    assert res.stderr == f"error: {path}: repeated key 'notes'\n"


# -- parser behaviour ------------------------------------------------


def test_help_lists_subcommands():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("simulate", "train", "diagnose", "evaluate", "mdd", "bn-query"):
        assert name in res.stdout


def test_unknown_flag_rejected():
    res = run_cli("simulate", "--bogus")
    assert res.returncode == 2


def test_missing_subcommand_rejected():
    res = run_cli()
    assert res.returncode == 2
