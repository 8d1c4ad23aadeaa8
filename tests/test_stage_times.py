import importlib.util
import os
import re

from afdi import cli, engine
from afdi.simulator import generate, load_scenario
from afdi.states import write_metric_samples
from conftest import fixture_path

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "stage_times.py")


def _stage_times():
    spec = importlib.util.spec_from_file_location("stage_times", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_times_prints_one_row_per_stage_and_a_column_per_stream(tmp_path, capsys):
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    streams = []
    for name in ("a", "b"):
        streams.append(str(tmp_path / f"{name}.jsonl"))
        write_metric_samples(samples, streams[-1])
    stage_times = _stage_times()
    assert stage_times.main(["--config", fixture_path("engine_config.json"), "--repeat", "2", *streams]) == 0
    times, heaps = capsys.readouterr().out.split("\n\n")
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


def test_stage_times_runs_the_pipeline_afdi_diagnose_runs(tmp_path):
    # the script reads with the reader afdi diagnose calls and times the
    # stages inside Engine.process_stream; what it writes must be the
    # alarm log afdi diagnose writes
    samples, _ = generate(load_scenario(fixture_path("scenario_endless_loop.json")))
    stream = str(tmp_path / "metrics.jsonl")
    write_metric_samples(samples, stream)
    config_path = fixture_path("engine_config.json")
    stage_times = _stage_times()
    assert stage_times.read_sample_columns is cli.read_sample_columns
    stages = engine.preprocess, engine.collect_windows
    times = stage_times._run(engine.load_config(config_path), stream, str(tmp_path / "timed.jsonl"))
    assert len(times) == len(stage_times.STAGES)
    assert (engine.preprocess, engine.collect_windows) == stages  # unwrapped again
    expected = tmp_path / "expected.jsonl"
    assert cli.main(["diagnose", "--config", config_path, "--metrics", stream, "--out-alarms", str(expected)]) == 0
    assert expected.read_text()
    assert (tmp_path / "timed.jsonl").read_bytes() == expected.read_bytes()
