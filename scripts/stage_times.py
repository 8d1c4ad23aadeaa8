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
``os.wait4`` reaps it, best of ``--repeat``.  On Linux a child's
``ru_maxrss`` includes the RSS of the process that spawned it, so each
child is spawned by a small launcher process, not by the script, whose
RSS has grown with its in-process runs.  The child inherits the
environment as it is; its header says whether ``PYTHONDONTWRITEBYTECODE``
was set, since a child that writes no bytecode compiles every module it
imports.

A fourth table times the model kernels alone, per call, best of
``--repeat`` with the cycle collector off:
``bayesnet.posterior_given_evidence`` over the 73 case-study queries of
``fixtures/case_study_net.json`` (every evidence pattern on the three
components for S, and each component given each state of S), once on a
freshly loaded net, where the first query of each plan compiles it, and
once more on the same net; ``bayesnet.posterior_given_evidence`` of the
class given each full feature vector of the config's model on the
network the classifier encodes, whose one plan is compiled first (the
network half of the benchmark's validation sweep); ``nbc.posterior``
over the same vectors, the model loaded afresh each repeat so that no
answer comes from its memo; and ``Mdd.evaluate_levels`` of the config's
severity diagram over every vector of levels.  Uses only the standard
library and the ``afdi`` package under ``src/`` of the checkout the
script sits in.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CASE_NET = os.path.join(ROOT, "fixtures", "case_study_net.json")
sys.path.insert(0, SRC)

from afdi import bayesnet, engine, nbc  # noqa: E402

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


# the launcher: spawns the command of its arguments with stdout on the
# null device, waits for it, prints its ru_maxrss in KiB and exits with
# its exit code
_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def peak_rss(config_path: str, metrics: str, out: str) -> float:
    """The peak RSS in MB of one ``python -m afdi diagnose`` child over
    ``metrics``, spawned by the launcher, which runs the ``afdi`` under
    ``SRC`` in the environment inherited; what it prints to stderr is
    raised if it fails."""
    argv = [sys.executable, "-m", "afdi", "diagnose", "--config", os.path.abspath(config_path),
            "--metrics", os.path.abspath(metrics), "--out-alarms", os.path.abspath(out)]
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], cwd=SRC, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"afdi diagnose failed on {metrics}: {proc.stderr.strip()}")
    return int(proc.stdout) / 1024


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


def case_study_queries(net) -> list[tuple[str, dict]]:
    """P(S | evidence) for every pattern of evidence on the three
    components (4^3 = 64), and P(component | S=s) for each component and
    state of S: 73 queries, the ones ``perfbench/child.py`` times."""
    comps = ("Memory", "CPU", "Network")
    out = []
    for pattern in itertools.product((None, 0, 1, 2), repeat=len(comps)):
        out.append(("S", {c: s for c, s in zip(comps, pattern) if s is not None}))
    out.extend((comp, {"S": s}) for comp in comps for s in range(net.node("S").card))
    return out


def equivalent_net(model) -> dict:
    """The network document of the BN the classifier encodes: the class
    as root, one child per attribute whose CPT rows are ``cond[j][c]``."""
    classes = model.schema.classes
    nodes = [{"name": "class", "states": list(classes), "parents": [], "cpt": [list(model.priors)]}]
    for j, (name, card) in enumerate(model.schema.attributes):
        nodes.append({"name": name, "states": [str(v) for v in range(card)], "parents": ["class"],
                      "cpt": [list(model.cond[j][c]) for c in range(len(classes))]})
    return {"nodes": nodes}


def _per_call(call, args: list) -> float:
    """Seconds per call of ``call`` over ``args``, each a tuple of its
    arguments, with the cycle collector off."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        for arg in args:
            call(*arg)
        return (perf_counter() - start) / len(args)
    finally:
        gc.enable()


def kernel_times(config_path: str, repeat: int) -> list[tuple[str, int, float]]:
    """``(kernel, calls, seconds per call)`` of each model kernel, the
    best of ``repeat``."""
    diagram = engine.load_config(config_path).severity_mdd
    levels = [(vec,) for vec in itertools.product(*(range(a) for a in diagram.arities))]
    runs = []
    for _ in range(repeat):
        net = bayesnet.load_net(CASE_NET)
        queries = [(net, query, evidence) for query, evidence in case_study_queries(net)]
        model = engine.load_config(config_path).model
        full = list(itertools.product(*(range(card) for _, card in model.schema.attributes)))
        vectors = [(model, vec) for vec in full]
        attributes = [name for name, _ in model.schema.attributes]
        encoded = bayesnet.load_net(equivalent_net(model))
        sweep = [(encoded, "class", dict(zip(attributes, vec))) for vec in full]
        pge = bayesnet.posterior_given_evidence
        pge(*sweep[0])  # compiles the sweep's one plan
        # in this order: the first pass over the queries compiles the plans
        runs.append([(kernel, len(args), _per_call(call, args)) for kernel, call, args in (
            ("`bayesnet.posterior_given_evidence`, fresh net: compiles its plans", pge, queries),
            ("`bayesnet.posterior_given_evidence`", pge, queries),
            ("`bayesnet.posterior_given_evidence`, NBC-equivalent net", pge, sweep),
            ("`nbc.posterior`, fresh model", nbc.posterior, vectors),
            ("`Mdd.evaluate_levels`", diagram.evaluate_levels, levels),
        )])
    return [(rows[0][0], rows[0][1], min(row[2] for row in rows)) for rows in zip(*runs)]


def kernel_table(kernels: list[tuple[str, int, float]]) -> str:
    """The Markdown table of ``kernels``, one row per kernel."""
    lines = ["| kernel | calls | per call |", "|---|---|---|"]
    lines.extend(f"| {kernel} | {calls} | {seconds * 1e6:.2f} us |" for kernel, calls, seconds in kernels)
    return "\n".join(lines)


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
    print()
    print(f"model kernels alone, best of {args.repeat}, GC off")
    print(kernel_table(kernel_times(args.config, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
