"""Output checks and alarm quality against the simulator's ground truth.

Every check is counted once per item it inspects (per alarm, per run
pair, per injection span, per crash window), so ``failed / attempted``
is the share of failed output checks.
"""

from __future__ import annotations

import json

from afdi import evaluation
from afdi.engine import TRIGGER_GATE, TRIGGER_NBC
from afdi.simulator import DEFAULT_KIND_TO_CLASS, LABEL_NORMAL

NORMALIZED_TOL = 1e-12


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def check(self, name: str, ok: bool) -> None:
        self.add(name, 1, 0 if ok else 1)

    def add(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures[name] = self.failures.get(name, 0) + failed


def _argmax(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def is_loop_alarm(alarm: dict, classes, loop_cause: str) -> bool:
    """The loop rule's alarm: a one-hot diagnosis of the loop cause."""
    diag = alarm["diagnosis"]
    onehot = [1.0 if c == loop_cause else 0.0 for c in classes]
    return alarm["trigger"] == TRIGGER_NBC and alarm["top_cause"] == loop_cause and diag == onehot


def alarm_branches(alarms, classes, loop_cause: str) -> dict:
    """Alarm count per pipeline branch: gate, classifier, loop rule."""
    out = {"gate": 0, "nbc": 0, "loop": 0}
    for a in alarms:
        if a["trigger"] == TRIGGER_GATE:
            out["gate"] += 1
        elif is_loop_alarm(a, classes, loop_cause):
            out["loop"] += 1
        else:
            out["nbc"] += 1
    return out


def check_alarm_logs(tally: Tally, logs: list[bytes], stderr_lines: list[str], samples: int) -> list[dict]:
    """Identical bytes across runs of one seed, and the CLI's own summary
    matching the input size and the log length.  Returns the first log."""
    for log in logs[1:]:
        tally.check("runs byte-identical", log == logs[0])
    alarms = [json.loads(line) for line in logs[0].splitlines()]
    for line in stderr_lines:
        tally.check(
            "diagnose summary",
            line.startswith(f"processed {samples} samples, raised {len(alarms)} alarms"),
        )
    return alarms


def check_alarms(tally: Tally, alarms, labels, scenario: dict, classes, loop_cause: str) -> dict:
    """Per-alarm invariants, loop spans and crash windows, then quality.

    Returns fault_recall, alarm_precision, false_alarm_rate and
    diagnosis_accuracy, each from ``afdi.evaluation`` counts.
    """
    window_ms = scenario.get("window_ms", 1000)
    by_window: dict[tuple, dict] = {}
    for a in alarms:
        key = (a["timestamp"] // window_ms, a["host_id"], a["vm_id"])
        tally.check("one alarm per window", key not in by_window)
        by_window[key] = a
        if a["trigger"] == TRIGGER_GATE:
            tally.check("gate alarm serious, undiagnosed", a["severity"] == 2 and a["diagnosis"] is None)
        elif not is_loop_alarm(a, classes, loop_cause):
            diag = a["diagnosis"]
            ok = (
                a["trigger"] == TRIGGER_NBC
                and len(diag) == len(classes)
                and all(p >= 0.0 for p in diag)
                and abs(sum(diag) - 1.0) <= NORMALIZED_TOL
                and a["top_cause"] == classes[_argmax(diag)]
            )
            tally.check("diagnosis normalized, top_cause is argmax", ok)

    loops = [k for k, a in by_window.items() if is_loop_alarm(a, classes, loop_cause)]
    in_span = 0
    for inj in scenario["injections"]:
        if inj["kind"] != "endless_loop":
            continue
        hits = [k for k in loops if k[1:] == (inj["host"], inj["vm"]) and inj["start"] <= k[0] < inj["end"]]
        tally.check("one endless-loop alarm per span", len(hits) == 1)
        in_span += len(hits)
    tally.check("no endless-loop alarm outside spans", in_span == len(loops))

    recall_m = evaluation.ConfusionMatrix(classes=("normal", "fault"))
    # every diagnosed fault window is a positive; its recall is the share
    # whose top_cause names the injected fault
    diag_m = evaluation.ConfusionMatrix(classes=("wrong", "right"), negatives=frozenset({"wrong"}))
    for row in labels:
        alarm = by_window.get((row.window, row.host, row.vm))
        if row.label == "serious_crash":
            tally.check("crash window alarms through the gate", alarm is not None and alarm["trigger"] == TRIGGER_GATE)
        raised = alarm is not None and alarm["top_cause"] != "normal"
        recall_m.record("fault" if raised else "normal", "normal" if row.label == LABEL_NORMAL else "fault")
        if row.label != LABEL_NORMAL and alarm is not None and alarm["trigger"] == TRIGGER_NBC:
            right = alarm["top_cause"] == DEFAULT_KIND_TO_CLASS[row.label]
            diag_m.record("right" if right else "wrong", "right")

    return {
        "fault_recall": evaluation.recall(recall_m),
        "alarm_precision": evaluation.precision(recall_m),
        "false_alarm_rate": evaluation.false_alarm_rate(recall_m),
        "diagnosis_accuracy": evaluation.recall(diag_m),
        "counts": recall_m.counts,
        "diagnosed_fault_windows": diag_m.total,
    }
