#!/usr/bin/env python3
"""Time each stage of ``afdi diagnose`` in process, and print the table.

    python3 scripts/stage_times.py --config fixtures/engine_config.json \\
        [--repeat 3] STREAM.jsonl [STREAM.jsonl ...]

Runs ``afdi diagnose`` itself, ``Engine.run``, on each stream and times
its stages from the marks the run takes: the read
(``read_sample_columns``), ``preprocess``, ``collect_windows``, and the
``Engine.step`` calls together with the alarm-log write, which takes
each window's alarms as it is stepped.  The config load before the read
is not timed.  Each stage is timed by ``perf_counter`` with the cycle
collector off, as ``Engine.run`` runs them, and the best of ``--repeat``
runs is kept per stage.  The Markdown table has one column per stream,
each stage with its share of the stages' sum; times are not normalized
for the speed of the host, so compare shares, or runs interleaved on one
host.

A second table gives, per stage, the most heap ``tracemalloc`` traced at
any point of the stage: what is still live from the stages before it and
what the stage itself holds.  It comes from one more run per stream whose
engine reads the traced peak at its marks instead of the time, so the
timed runs stay untraced; MB are 2**20 bytes, as in
``peak_rss_mb``.

A third table gives the peak RSS of the whole process: ``python -m afdi
diagnose`` run on each stream in a fresh child, its ``ru_maxrss`` as
``os.wait4`` reaps it, best of ``--repeat``.  The child inherits the
environment as it is; its header says whether ``PYTHONDONTWRITEBYTECODE``
was set, since a child that writes no bytecode compiles every module it
imports.  Uses only the standard library and the ``afdi`` package under
``src/`` of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from afdi import engine  # noqa: E402

# the stages between the marks of Engine.run
STAGES = ("read", "preprocess", "`collect_windows`", "`step` + write")


def _heap_peak() -> int:
    """The traced heap's peak in bytes since the last call, which starts
    the next stage's peak."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return peak


def _run(config_path: str, metrics: str, out: str, heap: bool = False) -> list:
    """The seconds each stage took on one ``afdi diagnose`` run over
    ``metrics``, or with ``heap`` (under ``tracemalloc``) the bytes of its
    traced heap peak.  A run that fails raises its error as ``afdi
    diagnose`` prints it."""
    try:
        eng = engine.Engine(engine.load_config(config_path))
        if heap:
            eng.clock = _heap_peak
        eng.run(metrics, out)
    except (OSError, ValueError, KeyError) as exc:
        raise RuntimeError(f"afdi diagnose failed on {metrics}: error: {exc}") from exc
    if heap:
        return eng.marks[1:]
    return [b - a for a, b in zip(eng.marks, eng.marks[1:])]


def _measured(config_path: str, metrics: str, out: str, heap: bool) -> list:
    """One run of ``_run``, after collecting what the run before left."""
    gc.collect()
    if heap:
        tracemalloc.start()
    try:
        return _run(config_path, metrics, out, heap)
    finally:
        if heap:
            tracemalloc.stop()


def peak_rss(config_path: str, metrics: str, out: str) -> float:
    """The peak RSS in MB of one ``python -m afdi diagnose`` child over
    ``metrics``, which runs the ``afdi`` under ``SRC`` in the environment
    inherited; what it prints to stderr is raised if it fails."""
    argv = ["diagnose", "--config", os.path.abspath(config_path), "--metrics", os.path.abspath(metrics)]
    with tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "afdi", *argv, "--out-alarms", os.path.abspath(out)],
                                cwd=SRC, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"afdi diagnose failed on {metrics}: {err.read().strip()}")
    return usage.ru_maxrss / 1024


def stage_times(config_path: str, streams: list[str], repeat: int) -> tuple[dict, dict, dict]:
    """Per stream, the best time of each stage over ``repeat`` runs, the
    traced heap peak of each stage on one more run, and the least peak
    RSS of ``repeat`` child processes."""
    best, heaps, rss = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "alarms.jsonl")
        for metrics in streams:
            runs = [_measured(config_path, metrics, out, heap=False) for _ in range(repeat)]
            best[metrics] = [min(times) for times in zip(*runs)]
            heaps[metrics] = _measured(config_path, metrics, out, heap=True)
            rss[metrics] = min(peak_rss(config_path, metrics, out) for _ in range(repeat))
    return best, heaps, rss


def _header(columns: dict, first: str = "stage") -> list[str]:
    names = [os.path.splitext(os.path.basename(path))[0] for path in columns]
    return [f"| {first} | " + " | ".join(names) + " |", "|---" * (len(names) + 1) + "|"]


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


def rss_table(rss: dict[str, float]) -> str:
    """The Markdown table of ``rss``, one column per stream, in MB."""
    row = "| `afdi diagnose` | " + " | ".join(f"{mb:.2f} MB" for mb in rss.values()) + " |"
    return "\n".join(_header(rss, "process") + [row])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="engine config JSON")
    parser.add_argument("--repeat", type=int, default=3, help="runs per stream; the best is kept (default 3)")
    parser.add_argument("streams", nargs="+", help="metric streams (JSON Lines)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    best, heaps, rss = stage_times(args.config, args.streams, args.repeat)
    print(f"{platform.python_implementation()} {platform.python_version()}, best of {args.repeat}, GC off")
    print(table(best))
    print()
    print("traced heap peak per stage, one more run, GC off")
    print(heap_table(heaps))
    print()
    written = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    print(f"peak RSS of a fresh child, best of {args.repeat}, PYTHONDONTWRITEBYTECODE {written}")
    print(rss_table(rss))
    return 0


if __name__ == "__main__":
    sys.exit(main())
