import pytest
from hypothesis import given, strategies as st

from afdi.evaluation import (
    ConfusionMatrix,
    UndefinedMetricError,
    accuracy,
    false_alarm_rate,
    precision,
    recall,
)

CLASSES = ("normal", "high-cpu-usage", "memory-shortage")


def test_record_routing():
    m = ConfusionMatrix(classes=CLASSES)
    m.record("high-cpu-usage", "high-cpu-usage")
    assert m.tp == 1
    m.record("memory-shortage", "normal")
    assert m.fp == 1  # false alarm
    m.record("normal", "memory-shortage")
    assert m.fn == 1  # miss
    m.record("normal", "normal")
    assert m.tn == 1
    # a wrong fault label still counts as a detection under binarization
    m.record("high-cpu-usage", "memory-shortage")
    assert m.tp == 2
    assert m.table[("high-cpu-usage", "memory-shortage")] == 1


def test_record_requires_known_classes():
    m = ConfusionMatrix(classes=CLASSES)
    with pytest.raises(ValueError):
        m.record("ghost", "normal")
    with pytest.raises(ValueError):
        m.record("normal", "ghost")
    with pytest.raises(ValueError):
        ConfusionMatrix.from_counts(90, 10, 0, 0).record("normal", "normal")


def test_recall_fixed_table():
    assert recall(ConfusionMatrix.from_counts(tp=90, fp=0, fn=10, tn=0)) == 0.90


def test_precision_and_false_alarm_fixed_table():
    m = ConfusionMatrix.from_counts(tp=95, fp=5, fn=0, tn=0)
    assert precision(m) == 0.95
    assert false_alarm_rate(m) == 0.05


def test_accuracy_symmetric_counts():
    assert accuracy(ConfusionMatrix.from_counts(tp=1, fp=1, fn=1, tn=1)) == 0.5


def test_accuracy_bounds_and_perfection():
    assert accuracy(ConfusionMatrix.from_counts(5, 0, 0, 5)) == 1.0
    assert accuracy(ConfusionMatrix.from_counts(0, 3, 2, 0)) == 0.0
    m = ConfusionMatrix.from_counts(10, 1, 0, 5)
    assert 0.0 <= accuracy(m) <= 1.0
    assert accuracy(m) < 1.0


def test_undefined_metrics():
    empty = ConfusionMatrix.from_counts(0, 0, 0, 0)
    for fn in (recall, precision, accuracy, false_alarm_rate):
        with pytest.raises(UndefinedMetricError):
            fn(empty)
    no_alarms = ConfusionMatrix.from_counts(0, 0, 3, 7)
    with pytest.raises(UndefinedMetricError) as info:
        precision(no_alarms)
    assert info.value.metric == "precision"
    assert info.value.counts["fn"] == 3


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_false_alarm_rate_complements_precision_exactly(tp, fp):
    if tp + fp == 0:
        return
    m = ConfusionMatrix.from_counts(tp=tp, fp=fp, fn=0, tn=0)
    assert false_alarm_rate(m) + precision(m) == 1.0


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_metric_count_identities(tp, fp, fn, tn):
    m = ConfusionMatrix.from_counts(tp=tp, fp=fp, fn=fn, tn=tn)
    if tp + fn > 0:
        assert abs(recall(m) * (tp + fn) - tp) <= 1e-12 * max(1, tp)
    if tp + fp > 0:
        assert abs(precision(m) * (tp + fp) - tp) <= 1e-12 * max(1, tp)
    if m.total > 0:
        assert 0.0 <= accuracy(m) <= 1.0
        assert (accuracy(m) == 1.0) == (fp == fn == 0 and tp + tn > 0)


def test_multiclass_table_total_matches_binarized_total():
    m = ConfusionMatrix(classes=CLASSES)
    pairs = [
        ("normal", "normal"),
        ("high-cpu-usage", "normal"),
        ("memory-shortage", "memory-shortage"),
        ("normal", "high-cpu-usage"),
        ("high-cpu-usage", "memory-shortage"),
    ]
    for p, a in pairs:
        m.record(p, a)
    assert sum(m.table.values()) == m.total == len(pairs)


def test_custom_binarization_rule():
    m = ConfusionMatrix(classes=CLASSES, negatives=frozenset({"normal", "memory-shortage"}))
    m.record("memory-shortage", "normal")
    assert m.fp == 0 and m.tn == 1


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionMatrix.from_counts(-1, 0, 0, 0)


def test_duplicate_class_labels_are_refused():
    with pytest.raises(ValueError, match="^duplicate class labels$"):
        ConfusionMatrix(classes=("normal", "high-cpu-usage", "normal"))
