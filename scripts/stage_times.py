#!/usr/bin/env python3
"""Time each stage of ``afdi diagnose`` in process, and print the table.

    python3 scripts/stage_times.py --config fixtures/engine_config.json \\
        [--repeat 3] STREAM.jsonl [STREAM.jsonl ...]

Runs the stages of ``afdi diagnose`` one after the other on each stream:
the read (``read_sample_columns``, the reader ``afdi diagnose`` calls),
``preprocess``, ``collect_windows``, the ``Engine.step`` loop and the
alarm-log write.  The middle three are timed inside the
``Engine.process_stream`` call that ``afdi diagnose`` makes.  Each stage
is timed by ``perf_counter`` with the cycle collector off, as ``afdi
diagnose`` runs them, and the best of ``--repeat`` runs is kept per
stage.  The Markdown table has one column per stream, each stage
with its share of the stages' sum; times are not normalized for the speed
of the host, so compare shares, or runs interleaved on one host.  The config is loaded once per
run and not timed.

A second table gives, per stage, the most heap ``tracemalloc`` traced at
any point of the stage: what is still live from the stages before it and
what the stage itself holds.  It comes from one more run per stream,
untimed, so the timed runs stay untraced; MB are 2**20 bytes, as in
``peak_rss_mb``.  Uses only the standard library and the ``afdi``
package under ``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from afdi import engine  # noqa: E402
from afdi.states import read_sample_columns  # noqa: E402

STAGES = ("read", "preprocess", "`collect_windows`", "`step` loop", "write")


def _heap_peak() -> int:
    """The traced heap's peak in bytes since the last call, which starts
    the next stage's peak."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return peak


def _run(config: engine.EngineConfig, metrics: str, out: str, heap: bool = False) -> list:
    """The seconds each stage took on one run over ``metrics``, or with
    ``heap`` (under ``tracemalloc``) the bytes of its traced heap peak.

    The middle three stages run inside ``Engine.process_stream`` itself:
    for the run, ``preprocess`` and ``collect_windows`` are wrapped in the
    ``engine`` module so that each marks when it returns, and the
    ``step`` loop is the rest of ``process_stream``.
    """
    mark = _heap_peak if heap else time.perf_counter
    eng = engine.Engine(config)
    marks = [mark()]
    samples = read_sample_columns(metrics)
    marks.append(mark())
    stages = {name: getattr(engine, name) for name in ("preprocess", "collect_windows")}

    def marked(stage):
        def call(*args):
            result = stage(*args)
            marks.append(mark())
            return result

        return call

    for name, stage in stages.items():
        setattr(engine, name, marked(stage))
    try:
        alarms = eng.process_stream(samples)
    finally:
        for name, stage in stages.items():
            setattr(engine, name, stage)
    marks.append(mark())
    engine.write_alarm_log(alarms, out)
    marks.append(mark())
    if len(marks) != len(STAGES) + 1:
        raise RuntimeError("Engine.process_stream no longer calls preprocess and collect_windows once each")
    if heap:
        return marks[1:]
    return [b - a for a, b in zip(marks, marks[1:])]


def _measured(config_path: str, metrics: str, out: str, heap: bool) -> list:
    """One run of ``_run`` with the cycle collector off, on a fresh config,
    as each afdi diagnose has: the classifier's posterior memo would
    carry over otherwise."""
    config = engine.load_config(config_path)
    gc.collect()
    gc.disable()
    if heap:
        tracemalloc.start()
    try:
        return _run(config, metrics, out, heap)
    finally:
        if heap:
            tracemalloc.stop()
        gc.enable()


def stage_times(config_path: str, streams: list[str], repeat: int) -> tuple[dict, dict]:
    """Per stream, the best time of each stage over ``repeat`` runs, and
    the traced heap peak of each stage on one more run."""
    best, heaps = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "alarms.jsonl")
        for metrics in streams:
            runs = [_measured(config_path, metrics, out, heap=False) for _ in range(repeat)]
            best[metrics] = [min(times) for times in zip(*runs)]
            heaps[metrics] = _measured(config_path, metrics, out, heap=True)
    return best, heaps


def _header(columns: dict) -> list[str]:
    names = [os.path.splitext(os.path.basename(path))[0] for path in columns]
    return ["| stage | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]


def table(best: dict[str, list[float]]) -> str:
    """The Markdown table of ``best``, one column per stream."""
    lines = _header(best)
    for i, stage in enumerate(STAGES):
        cells = [f"{times[i] * 1e3:.0f} ms ({times[i] / sum(times) * 100:.0f} %)" for times in best.values()]
        lines.append(f"| {stage} | " + " | ".join(cells) + " |")
    lines.append("| sum | " + " | ".join(f"{sum(times) * 1e3:.0f} ms" for times in best.values()) + " |")
    return "\n".join(lines)


def heap_table(heaps: dict[str, list[int]]) -> str:
    """The Markdown table of ``heaps``, one column per stream, in MB."""
    lines = _header(heaps)
    for i, stage in enumerate(STAGES):
        lines.append(f"| {stage} | " + " | ".join(f"{peaks[i] / 2**20:.1f} MB" for peaks in heaps.values()) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="engine config JSON")
    parser.add_argument("--repeat", type=int, default=3, help="runs per stream; the best is kept (default 3)")
    parser.add_argument("streams", nargs="+", help="metric streams (JSON Lines)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    best, heaps = stage_times(args.config, args.streams, args.repeat)
    print(f"{platform.python_implementation()} {platform.python_version()}, best of {args.repeat}, GC off")
    print(table(best))
    print()
    print("traced heap peak per stage, one more run, GC off")
    print(heap_table(heaps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
