#!/usr/bin/env python3
"""Time each stage of ``afdi diagnose`` in process, and print the table.

    python3 scripts/stage_times.py --config fixtures/engine_config.json \\
        [--repeat 3] STREAM.jsonl [STREAM.jsonl ...]

Runs the stages of ``afdi diagnose`` one after the other on each stream:
the read (``read_metric_samples``), ``preprocess``, ``collect_windows``,
the ``Engine.step`` loop and the alarm-log write.  The middle three are
timed inside the ``Engine.process_stream`` call that ``afdi diagnose``
makes.  Each stage is timed by ``perf_counter`` with the cycle collector
off, as ``afdi diagnose`` runs them, and the best of ``--repeat`` runs is
kept per stage.  The Markdown table has one column per stream, each stage
with its share of the stages' sum; times are not normalized for the speed
of the host, so compare shares, or runs interleaved on one host.  The config is loaded once per
run and not timed.  Uses only the standard library and the ``afdi``
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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from afdi import engine  # noqa: E402
from afdi.states import read_metric_samples  # noqa: E402

STAGES = ("read", "preprocess", "`collect_windows`", "`step` loop", "write")


def _run(config: engine.EngineConfig, metrics: str, out: str) -> list[float]:
    """The seconds each stage took on one run over ``metrics``.

    The middle three stages run inside ``Engine.process_stream`` itself:
    for the run, ``preprocess`` and ``collect_windows`` are wrapped in the
    ``engine`` module so that each marks the time it returns, and the
    ``step`` loop is the rest of ``process_stream``.
    """
    eng = engine.Engine(config)
    marks = [time.perf_counter()]
    samples = read_metric_samples(metrics)
    marks.append(time.perf_counter())
    stages = {name: getattr(engine, name) for name in ("preprocess", "collect_windows")}

    def marked(stage):
        def call(*args):
            result = stage(*args)
            marks.append(time.perf_counter())
            return result

        return call

    for name, stage in stages.items():
        setattr(engine, name, marked(stage))
    try:
        alarms = eng.process_stream(samples)
    finally:
        for name, stage in stages.items():
            setattr(engine, name, stage)
    marks.append(time.perf_counter())
    engine.write_alarm_log(alarms, out)
    marks.append(time.perf_counter())
    if len(marks) != len(STAGES) + 1:
        raise RuntimeError("Engine.process_stream no longer calls preprocess and collect_windows once each")
    return [b - a for a, b in zip(marks, marks[1:])]


def stage_times(config_path: str, streams: list[str], repeat: int) -> dict[str, list[float]]:
    """Per stream, the best time of each stage over ``repeat`` runs."""
    best = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "alarms.jsonl")
        for metrics in streams:
            runs = []
            for _ in range(repeat):
                # a fresh config per run, as each afdi diagnose has: the
                # classifier's posterior memo would carry over otherwise
                config = engine.load_config(config_path)
                gc.collect()
                gc.disable()
                try:
                    runs.append(_run(config, metrics, out))
                finally:
                    gc.enable()
            best[metrics] = [min(times) for times in zip(*runs)]
    return best


def table(best: dict[str, list[float]]) -> str:
    """The Markdown table of ``best``, one column per stream."""
    names = [os.path.splitext(os.path.basename(path))[0] for path in best]
    lines = ["| stage | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]
    for i, stage in enumerate(STAGES):
        cells = [f"{times[i] * 1e3:.0f} ms ({times[i] / sum(times) * 100:.0f} %)" for times in best.values()]
        lines.append(f"| {stage} | " + " | ".join(cells) + " |")
    lines.append("| sum | " + " | ".join(f"{sum(times) * 1e3:.0f} ms" for times in best.values()) + " |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="engine config JSON")
    parser.add_argument("--repeat", type=int, default=3, help="runs per stream; the best is kept (default 3)")
    parser.add_argument("streams", nargs="+", help="metric streams (JSON Lines)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    best = stage_times(args.config, args.streams, args.repeat)
    print(f"{platform.python_implementation()} {platform.python_version()}, best of {args.repeat}, GC off")
    print(table(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
