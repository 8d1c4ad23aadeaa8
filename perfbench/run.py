#!/usr/bin/env python3
"""Benchmark of ``afdi diagnose`` and of the reference models.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fleet-replay --seed 1 --seconds 45 --trace 0

Each workload generates a 4x8 fleet stream with ``afdi simulate`` from
``--seed``.  Then, for ``--seconds`` and at least three times, it runs
``afdi diagnose`` over the stream, a slice of the NBC-versus-BN
validation sweep and case-study BN queries, and six children that only
set up, each in a fresh child process whose peak RSS comes from
``os.wait4``.  Times are normalized by the host-speed probe of
``speed.py``.  Outputs are checked, human-readable lines go to stdout,
and the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics from an extra traced run with ``--trace 1``.
Details and provenance go to ``.perfbench/``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")
CONFIG = "fixtures/engine_config.json"
MODEL = "fixtures/nbc_model.json"
CASE_NET = "fixtures/case_study_net.json"
REQUIRED = ("src/afdi/__init__.py", CONFIG, MODEL, CASE_NET, "fixtures/scenario_800.json")

MIN_ROUNDS = 3  # a round: one diagnose run, one reference slice, set-up probes
REFERENCE_SLICE_S = 2.0
SETUPS_PER_ROUND = 6
RUN_LIMIT_S = 170  # every child is stopped once the whole run has taken this long

END_TO_END_UNITS = {
    "windows_per_s": "windows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fault_recall": "ratio",
    "alarm_precision": "ratio",
    "diagnosis_accuracy": "ratio",
    "validated_vectors_per_s": "vectors/s",
    "bn_query_ms_p50": "ms",
}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes one at a time and reaps each with ``os.wait4``."""

    def __init__(self, work: str, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, tag: str, argv: list[str]) -> tuple[dict | None, str, float]:
        """Run ``python argv`` to completion; returns (last stdout line as JSON
        or None, stderr text, peak RSS in MB)."""
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            pid = 0
            try:
                while not pid:
                    if time.monotonic() > self.deadline:
                        raise ChildFailed(f"{tag}: still running after {RUN_LIMIT_S} s in total")
                    time.sleep(0.005)
                    pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            finally:
                if not pid:
                    proc.kill()
                    os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path) as fh:
            stderr = fh.read()
        if proc.returncode != 0:
            raise ChildFailed(f"{tag}: exit {proc.returncode}: {stderr[-2000:]}")
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1]) if lines else None
        return result, stderr, rusage.ru_maxrss / 1024.0


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def measure(args, work: str) -> dict:
    """Run every child of one workload and return their raw results."""
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    scenario = WORKLOADS[args.workload](ROOT, args.seed)
    scenario_path = os.path.join(work, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    metrics_path = os.path.join(work, "metrics.jsonl")
    labels_path = os.path.join(work, "labels.csv")
    runner.run("simulate", ["-m", "afdi", "simulate", "--scenario", scenario_path,
                            "--out-metrics", metrics_path, "--out-labels", labels_path])

    child = os.path.join(HERE, "child.py")
    runner.run("warmup", [child, "setup", "--config", CONFIG])  # fills __pycache__

    # diagnose runs and reference slices alternate, so both kinds of
    # metric sample the whole measuring window
    ref_argv = [child, "reference", "--model", MODEL, "--net", CASE_NET, "--seed", str(args.seed)]
    runs, references, setups = [], [], []
    end = time.monotonic() + args.seconds
    round_s = 0.0
    # a round starts only if a round as long as the last one still ends in
    # time, so a run measures for about --seconds and never a round more
    while len(runs) < MIN_ROUNDS or time.monotonic() + round_s <= end:
        i = len(runs)
        round_start = time.monotonic()
        alarms_path = os.path.join(work, f"alarms{i}.jsonl")
        res, stderr, rss = runner.run(f"diagnose{i}", [
            child, "diagnose", "--config", CONFIG, "--metrics", metrics_path, "--out-alarms", alarms_path])
        res.update(rss_mb=rss, alarms=alarms_path, stderr=stderr)
        runs.append(res)
        res, _, rss = runner.run(f"reference{i}", ref_argv + ["--seconds", str(REFERENCE_SLICE_S)])
        res["rss_mb"] = rss
        references.append(res)
        for j in range(SETUPS_PER_ROUND):
            setups.append(runner.run(f"setup{i}-{j}", [child, "setup", "--config", CONFIG])[0])
        round_s = time.monotonic() - round_start

    raw = {"scenario": scenario, "labels": labels_path, "setups": setups, "runs": runs, "references": references}
    if args.trace:
        alarms_path = os.path.join(work, "alarms-traced.jsonl")
        traced, stderr, _ = runner.run("diagnose-traced", [
            child, "diagnose", "--config", CONFIG, "--metrics", metrics_path, "--out-alarms", alarms_path,
            "--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-diagnose.tsv")])
        traced.update(alarms=alarms_path, stderr=stderr)
        raw["traced"] = traced
        raw["traced_reference"], _, _ = runner.run("reference-traced", ref_argv + [
            "--seconds", str(REFERENCE_SLICE_S),
            "--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-reference.tsv")])
    return raw


def evaluate(args, raw: dict) -> tuple[dict, object, dict]:
    """Check every output and compute the metrics; returns (metrics, tally, quality)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    from afdi import engine, simulator

    config = engine.load_config(CONFIG)
    classes = config.classes
    loop_cause = config.loop_rule.cause
    labels = simulator.read_labels(raw["labels"])
    scenario = raw["scenario"]
    samples = scenario["duration"] * scenario["hosts"] * (
        scenario["vms_per_host"] * len(simulator.VM_METRICS) + len(simulator.HOST_METRICS))

    tally = checks.Tally()
    diagnosed = raw["runs"] + ([raw["traced"]] if "traced" in raw else [])
    logs = []
    summaries = []
    for run in diagnosed:
        tally.check("diagnose exit status", run["rc"] == 0)
        with open(run["alarms"], "rb") as fh:
            logs.append(fh.read())
        summaries.append(next((l for l in run["stderr"].splitlines() if l.startswith("processed ")), ""))
    alarms = checks.check_alarm_logs(tally, logs, summaries, samples)
    quality = checks.check_alarms(tally, alarms, labels, scenario, classes, loop_cause)

    references = raw["references"] + ([raw["traced_reference"]] if "traced_reference" in raw else [])
    for ref in references:
        tally.add("reference models agree", ref["attempted"], ref["failed"])

    windows = len(labels)
    # every time below is normalized by the host-speed probe (speed.py)
    refs = raw["references"]
    query_ms = [
        sum(r["query_ns"][i] * r["query_factor"] for r in refs) / sum(r["query_n"][i] for r in refs) * 1e-6
        for i in range(len(refs[0]["query_ns"]))
    ]
    if not args.trace:
        metrics = {
            "windows_per_s": windows / statistics.median(r["diagnose_norm_s"] for r in raw["runs"]),
            "setup_s": statistics.median(r["setup_norm_s"] for r in raw["setups"] + raw["runs"]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in raw["runs"]),
            "fault_recall": quality["fault_recall"],
            "alarm_precision": quality["alarm_precision"],
            "diagnosis_accuracy": quality["diagnosis_accuracy"],
            "validated_vectors_per_s": statistics.median(r["vectors"] / r["sweeps_norm_s"] for r in refs),
            "bn_query_ms_p50": statistics.median(query_ms),
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, tally, quality

    traced = raw["traced"]
    facts = traced["facts"]
    tally.check("traced spans nest", traced["spans_nest"] and raw["traced_reference"]["spans_nest"])
    tally.check("traced run judged every window", facts["steps"] == windows == facts["windows"])
    tally.check("traced run read every sample", facts["samples"] == samples)
    tally.check("traced alarm branches match the log",
                checks.alarm_branches(alarms, classes, loop_cause) == facts["alarms"])
    tally.check("classifier called once per minor window",
                facts["nbc_invocations"] == traced["layers"]["engine.windows.sev1"][0])

    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    layers.update((k, tuple(v)) for k, v in raw["traced_reference"]["layers"].items())
    untraced_s = statistics.median(r["diagnose_norm_s"] for r in raw["runs"])
    layers["trace.overhead_share"] = (traced["diagnose_norm_s"] / untraced_s - 1.0, "ratio")
    layers["evaluation.false_alarm_rate"] = (quality["false_alarm_rate"], "ratio")
    layers["reference.peak_rss_mb"] = (statistics.median(r["rss_mb"] for r in raw["references"]), "MB")
    return layers, tally, quality


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from the root of an afdi checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through the runner, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        try:
            raw = measure(args, work)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics, tally, quality = evaluate(args, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "quality_counts": quality["counts"],
        "diagnose_s": [r["diagnose_s"] for r in raw["runs"]],
        "diagnose_norm_s": [r["diagnose_norm_s"] for r in raw["runs"]],
        "setup_s": [r["setup_s"] for r in raw["setups"] + raw["runs"]],
        "setup_norm_s": [r["setup_norm_s"] for r in raw["setups"] + raw["runs"]],
        "probes": sum(r["probes"] for r in raw["runs"] + raw["references"]),
        "peak_rss_mb": [r["rss_mb"] for r in raw["runs"]],
        "sweep_s": [s for r in raw["references"] for s in r["sweep_s"]],
        "sweeps_norm_s": [r["sweeps_norm_s"] for r in raw["references"]],
        "query_sets": [r["query_sets"] for r in raw["references"]],
        "worst_validate_diff": max(r["worst_validate_diff"] for r in raw["references"]),
        "worst_enumeration_diff": max(r["worst_enumeration_diff"] for r in raw["references"]),
    }
    detail_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:.6g} {unit}")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed {tally.failures or ''}")
    print(f"details: {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
