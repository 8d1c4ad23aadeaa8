"""Contingency-table bookkeeping and the four diagnosis metrics.

The binarization rule treats any non-normal class as "positive", so a
fault predicted as the wrong fault still counts as a detection.  Note
the false-alarm rate here is the complement of precision, FP/(TP+FP) —
the fraction of raised alarms that were wrong — not the conventional
false positive rate FP/(FP+TN).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ConfusionMatrix",
    "UndefinedMetricError",
    "recall",
    "precision",
    "accuracy",
    "false_alarm_rate",
]


class UndefinedMetricError(ValueError):
    def __init__(self, metric: str, counts: dict):
        self.metric = metric
        self.counts = dict(counts)
        super().__init__(f"{metric} undefined for counts {self.counts}")


@dataclass
class ConfusionMatrix:
    """Binary TP/FP/FN/TN counters, optionally backed by a multi-class table.

    With ``classes`` set, ``record`` fills the square (predicted,
    actual) table and simultaneously maintains the binarized counters
    under the rule "positive = class not in negatives".
    """

    classes: tuple[str, ...] | None = None
    negatives: frozenset = frozenset({"normal"})
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    table: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} count must be >= 0")
        if self.classes is not None and len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class labels")

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "ConfusionMatrix":
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)

    def record(self, predicted: str, actual: str) -> None:
        if self.classes is None:
            raise ValueError("record() needs a matrix built with a class list")
        if predicted not in self.classes:
            raise ValueError(f"unknown predicted class {predicted!r}")
        if actual not in self.classes:
            raise ValueError(f"unknown actual class {actual!r}")
        self.table[(predicted, actual)] = self.table.get((predicted, actual), 0) + 1
        pred_pos = predicted not in self.negatives
        act_pos = actual not in self.negatives
        if pred_pos and act_pos:
            self.tp += 1
        elif pred_pos:
            self.fp += 1
        elif act_pos:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def counts(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}


def recall(m: ConfusionMatrix) -> float:
    if m.tp + m.fn == 0:
        raise UndefinedMetricError("recall", m.counts)
    return m.tp / (m.tp + m.fn)


def precision(m: ConfusionMatrix) -> float:
    if m.tp + m.fp == 0:
        raise UndefinedMetricError("precision", m.counts)
    return m.tp / (m.tp + m.fp)


def accuracy(m: ConfusionMatrix) -> float:
    if m.total == 0:
        raise UndefinedMetricError("accuracy", m.counts)
    return (m.tp + m.tn) / m.total


def false_alarm_rate(m: ConfusionMatrix) -> float:
    """Fraction of raised alarms that were false: FP/(TP+FP).

    Computed as a direct ratio, not 1 - precision, so that the exact
    complement identity false_alarm_rate + precision = 1 holds in
    floating point.
    """
    if m.tp + m.fp == 0:
        raise UndefinedMetricError("false_alarm_rate", m.counts)
    return m.fp / (m.tp + m.fp)

