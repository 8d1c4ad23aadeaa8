import itertools
import os
import re

import pytest

from afdi import bayesnet, cli, engine, nbc
from afdi.simulator import generate, load_scenario
from afdi.states import write_metric_samples
import oracles
from conftest import fixture_path, load_script


def test_stage_times_prints_one_row_per_stage_and_a_column_per_stream(tmp_path, capsys):
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    streams = []
    for name in ("a", "b"):
        streams.append(str(tmp_path / f"{name}.jsonl"))
        write_metric_samples(samples, streams[-1])
    stage_times = load_script("stage_times")
    assert stage_times.main(["--config", fixture_path("engine_config.json"), "--repeat", "2", *streams]) == 0
    times, heaps, rss, kernels = capsys.readouterr().out.split("\n\n")
    first, header, rule, *rows = times.splitlines()
    assert first.endswith(", best of 2, GC off")
    assert header == "| stage | a | b |" and rule == "|---|---|---|"
    assert [row.split(" | ")[0] for row in rows] == ["| " + stage for stage in stage_times.STAGES] + ["| sum"]
    # the shares of a column add up to the whole, to rounding
    for column in (1, 2):
        shares = [int(row.split(" | ")[column].split("(")[1].split(" %")[0]) for row in rows[:-1]]
        assert 100 - len(shares) <= sum(shares) <= 100 + len(shares)
    # then the traced heap peak of each stage, one row per stage
    first, header, rule, *rows = heaps.splitlines()
    assert first == "traced heap peak per stage, one more run, GC off"
    assert header == "| stage | a | b |" and rule == "|---|---|---|"
    assert [row.split(" | ")[0] for row in rows] == ["| " + stage for stage in stage_times.STAGES]
    cells = [row.removesuffix(" |").split(" | ")[1:] for row in rows]
    assert all(len(row) == 2 and all(re.fullmatch(r"\d+\.\d MB", cell) for cell in row) for row in cells)
    # the whole stream is read into memory
    assert all(float(cell.split()[0]) > 0 for cell in cells[0])
    # then the peak RSS of a child process per stream, one row
    first, header, rule, row = rss.splitlines()
    written = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    assert first == f"peak RSS of a fresh child, best of 2, PYTHONDONTWRITEBYTECODE {written}"
    assert header == "| process | a | b |" and rule == "|---|---|---|"
    assert row.startswith("| `afdi diagnose` | ")
    cells = row.removesuffix(" |").split(" | ")[1:]
    # at least an interpreter's worth, and not a pathological size
    assert len(cells) == 2 and all(re.fullmatch(r"\d+\.\d\d MB", cell) for cell in cells)
    assert all(5 < float(cell.split()[0]) < 500 for cell in cells)
    # then the model kernels alone, one row each
    first, header, rule, *rows = kernels.splitlines()
    assert first == "model kernels alone, best of 2, GC off"
    assert header == "| kernel | calls | per call |" and rule == "|---|---|---|"
    cells = [row.removesuffix(" |").split(" | ") for row in rows]
    assert [(kernel, calls) for kernel, calls, _ in cells] == [
        ("| `bayesnet.posterior_given_evidence`, fresh net: compiles its plans", "73"),
        ("| `bayesnet.posterior_given_evidence`", "73"),
        ("| `bayesnet.posterior_given_evidence`, NBC-equivalent net", "4096"),
        ("| `nbc.posterior`, fresh model", "4096"),
        ("| `Mdd.evaluate_levels`", "81"),
    ]
    assert all(re.fullmatch(r"\d+\.\d\d us", per_call) and float(per_call.split()[0]) > 0
               for _, _, per_call in cells)


def test_stage_times_peak_rss_runs_the_checkout_and_writes_its_log(tmp_path):
    # the child runs afdi diagnose from the checkout the script sits in and
    # writes the log the in-process run writes
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    stream = str(tmp_path / "metrics.jsonl")
    write_metric_samples(samples, stream)
    config_path = fixture_path("engine_config.json")
    stage_times = load_script("stage_times")
    assert os.path.samefile(stage_times.SRC, os.path.join(os.path.dirname(engine.__file__), ".."))
    assert stage_times.peak_rss(config_path, stream, str(tmp_path / "child.jsonl")) > 0
    assert cli.main(["diagnose", "--config", config_path, "--metrics", stream, "--out-alarms",
                     str(tmp_path / "expected.jsonl")]) == 0
    assert (tmp_path / "child.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(RuntimeError, match=r"afdi diagnose failed on .*: error: .*line 1"):
        stage_times.peak_rss(config_path, str(bad), str(tmp_path / "alarms.jsonl"))


def test_stage_times_peak_rss_reads_the_child_not_the_script(tmp_path):
    # on Linux a child's ru_maxrss includes the RSS of the process that
    # spawned it; before, the script spawned the child itself, so the
    # ballast the script held showed in the child's peak
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    stream = str(tmp_path / "metrics.jsonl")
    write_metric_samples(samples, stream)
    config_path, out = fixture_path("engine_config.json"), str(tmp_path / "alarms.jsonl")
    stage_times = load_script("stage_times")
    without = stage_times.peak_rss(config_path, stream, out)
    ballast = bytearray(b"\x01") * (64 << 20)  # written, so resident
    held = stage_times.peak_rss(config_path, stream, out)
    del ballast
    assert abs(held - without) < 1.0


def test_stage_times_runs_the_pipeline_afdi_diagnose_runs(tmp_path):
    # the script runs afdi diagnose itself, Engine.run, and times the
    # stages from its marks; what it writes must be the alarm log afdi
    # diagnose writes
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    stream = str(tmp_path / "metrics.jsonl")
    write_metric_samples(samples, stream)
    config_path = fixture_path("engine_config.json")
    stage_times = load_script("stage_times")
    times = stage_times._run(config_path, stream, str(tmp_path / "timed.jsonl"))
    # the write takes each window's alarms as it is stepped, so the step
    # calls and the write are one stage
    assert stage_times.STAGES == ("read", "preprocess", "`collect_windows`", "`step` + write")
    assert len(times) == len(stage_times.STAGES)
    expected = tmp_path / "expected.jsonl"
    assert cli.main(["diagnose", "--config", config_path, "--metrics", stream, "--out-alarms", str(expected)]) == 0
    assert expected.read_text()
    assert (tmp_path / "timed.jsonl").read_bytes() == expected.read_bytes()


def test_stage_times_raises_what_a_failed_diagnose_printed(tmp_path):
    stream = tmp_path / "metrics.jsonl"
    stream.write_text("not json\n")
    stage_times = load_script("stage_times")
    with pytest.raises(RuntimeError, match=r"afdi diagnose failed on .*: error: .*line 1"):
        stage_times._run(fixture_path("engine_config.json"), str(stream), str(tmp_path / "alarms.jsonl"))


def test_kernel_table_times_the_case_study_queries_and_misses_the_memo(monkeypatch):
    stage_times = load_script("stage_times")
    net = bayesnet.load_net(stage_times.CASE_NET)
    queries = stage_times.case_study_queries(net)
    assert len(queries) == 73
    assert len({(query, tuple(sorted(evidence.items()))) for query, evidence in queries}) == 73
    assert sum(query == "S" for query, _ in queries) == 64
    # each repeat scores every vector on a model whose memo starts empty
    models = []
    posterior = nbc.posterior

    def counted(model, features):
        if not models or models[-1][0] is not model:
            models.append((model, len(model._memo)))
        return posterior(model, features)

    monkeypatch.setattr(nbc, "posterior", counted)
    stage_times.kernel_times(fixture_path("engine_config.json"), 2)
    assert len(models) == 2 and models[0][0] is not models[1][0]
    assert [memo for _, memo in models] == [0, 0]
    assert all(len(model._memo) == 4096 for model, _ in models)


def test_kernel_table_sweeps_the_network_the_classifier_encodes(monkeypatch):
    stage_times = load_script("stage_times")
    config_path = fixture_path("engine_config.json")
    model = engine.load_config(config_path).model
    # the network the classifier is checked against in test_bayesnet.py
    assert stage_times.equivalent_net(model) == oracles.naive_bayes_net_doc(model)
    asked = []
    posterior = bayesnet.posterior_given_evidence

    def counted(net, query, evidence):
        if query == "class":
            asked.append((net, len(net._plans), tuple(evidence.items())))
        return posterior(net, query, evidence)

    monkeypatch.setattr(bayesnet, "posterior_given_evidence", counted)
    stage_times.kernel_times(config_path, 1)
    # one query compiles the plan, then the class given every full vector
    # on the same net, each answered by that plan
    first, *sweep = asked
    assert first[1] == 0 and len(sweep) == 4096
    assert all(net is first[0] and plans == 1 for net, plans, _ in sweep)
    attributes = [name for name, _ in model.schema.attributes]
    assert {evidence for _, _, evidence in sweep} == {
        tuple(zip(attributes, vec)) for vec in itertools.product(*(range(card) for _, card in model.schema.attributes))}
