import ast
import hashlib
import json
import math
import pathlib
import re
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from afdi import states
from afdi.states import (
    ComponentId,
    DiscretizationSpec,
    MetricSample,
    OutOfRangeError,
    SequencingError,
    StateDistribution,
    StateVector,
    discretize,
    read_metric_samples,
    write_metric_samples,
)
from afdi.engine import TRIGGER_NBC, Alarm, collect_windows
from afdi.mdd import MddInputError, build_from_structure_function
from afdi.nbc import AttributeSchema, NbcModel
from afdi.simulator import generate, load_scenario

from conftest import fixture_path

import oracles

CPU = ComponentId("cpu")
USAGE = DiscretizationSpec(CPU, (0.0, 25.0, 50.0, 75.0, 100.0))


def test_component_id_validation():
    assert ComponentId("cpu", "host").key == "host.cpu"
    assert ComponentId.parse("vm.memory") == ComponentId("memory", "vm")
    with pytest.raises(ValueError):
        ComponentId("")
    with pytest.raises(ValueError):
        ComponentId("cpu", "container")
    with pytest.raises(ValueError):
        ComponentId.parse("justaname")


def test_discretize_interior_values():
    assert discretize(63.0, USAGE) == 2
    assert discretize(0.0, USAGE) == 0


def test_discretize_boundary_ownership():
    # boundaries belong to the upper interval; top boundary closes the last
    assert discretize(25.0, USAGE) == 1
    assert discretize(50.0, USAGE) == 2
    assert discretize(75.0, USAGE) == 3
    assert discretize(100.0, USAGE) == 3


def test_discretize_integer_percent_table():
    # independent derivation: level = number of interior boundaries <= value
    interior = USAGE.boundaries[1:-1]
    for v in range(0, 101):
        expected = sum(1 for b in interior if v >= b)
        assert discretize(float(v), USAGE) == expected


def test_discretize_out_of_range():
    with pytest.raises(OutOfRangeError):
        discretize(-0.5, USAGE)
    with pytest.raises(OutOfRangeError):
        discretize(100.001, USAGE)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_discretize_total_and_bounded(v):
    level = discretize(v, USAGE)
    assert 0 <= level <= 3


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_discretize_monotone(a, b):
    lo, hi = sorted((a, b))
    assert discretize(lo, USAGE) <= discretize(hi, USAGE)


def test_discretize_epsilon_around_boundaries():
    eps = 1e-9
    for b in USAGE.boundaries[1:-1]:
        assert discretize(b, USAGE) == discretize(b + eps, USAGE)
        assert discretize(b - eps, USAGE) == discretize(b, USAGE) - 1


def test_discretize_midpoint_roundtrip():
    bounds = USAGE.boundaries
    for level in range(USAGE.num_intervals):
        mid = (bounds[level] + bounds[level + 1]) / 2
        assert discretize(mid, USAGE) == level


def test_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0,))
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0, 50.0, 50.0, 100.0))
    with pytest.raises(ValueError):
        DiscretizationSpec(CPU, (0.0, 120.0))


def test_state_vector():
    comps = [ComponentId("cpu"), ComponentId("memory")]
    sv = StateVector.from_levels(comps, [1, 2])
    assert sv.levels == (1, 2)
    assert len(sv.assignments) == 2
    with pytest.raises(ValueError):
        StateVector.from_levels(comps, [1])
    with pytest.raises(ValueError):
        StateVector.from_levels([comps[0], comps[0]], [1, 1])


@pytest.mark.parametrize("level", [1.7, 1.0, True, "1", None], ids=["float", "whole-float", "bool", "str", "none"])
def test_state_vector_rejects_a_level_that_is_not_an_integer(level):
    # before, from_levels took int(1.7) and int(True), both level 1, in silence
    comps = [ComponentId("cpu"), ComponentId("memory")]
    message = f"state level of vm.memory must be an integer, got {level!r}"
    with pytest.raises(ValueError) as raised:
        StateVector.from_levels(comps, [0, level])
    assert str(raised.value) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        StateVector(((comps[0], 0), (comps[1], level)))


def test_state_vector_rejects_a_negative_level():
    with pytest.raises(ValueError, match=r"^negative state level -1 for vm\.memory$"):
        StateVector.from_levels([ComponentId("cpu"), ComponentId("memory")], [0, -1])


# what a module may call on a value column, or on the list of them, that
# changes it
_COLUMN_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "reverse", "sort", "clear", "fromlist", "frombytes",
     "fromfile", "fromunicode", "byteswap", "__setitem__", "__delitem__", "__iadd__", "__imul__"}
)


def _value_column_stores(tree: ast.AST) -> list:
    """The nodes of ``tree`` that change a value column of some
    ``SampleColumns``, or the list of them: an assignment or a deletion
    of ``x.values``, of an item of it or of one of its columns, or a
    mutating method called on one; the same through a name bound to one,
    directly or through ``zip`` and ``enumerate``, by an assignment or a
    ``for``."""
    bound: set[str] = set()  # names of a column or of the list of them
    zipped: dict[str, ast.expr] = {}  # names of a zip or enumerate call, by the call

    def is_column(node) -> bool:
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in bound
        return isinstance(node, ast.Attribute) and node.attr == "values"

    def bind(target, value) -> None:
        value = zipped.get(value.id, value) if isinstance(value, ast.Name) else value
        if is_column(value):
            bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("zip", "enumerate"):
            if isinstance(target, ast.Name):
                zipped[target.id] = value
            elif isinstance(target, ast.Tuple):
                parts = value.args if value.func.id == "zip" else [None, *value.args[:1]]
                for element, part in zip(target.elts, parts) if len(parts) == len(target.elts) else ():
                    if part is not None:
                        bind(element, part)

    for _ in range(2):  # the second time through, a name bound after its use
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bind(node.target, node.iter)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Attribute) and t.attr == "values" or (
                        isinstance(t, ast.Subscript) or isinstance(node, ast.AugAssign)) and is_column(t):
                        found.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _COLUMN_MUTATORS and is_column(node.func.value):
                found.append(node)
    return found


@pytest.mark.parametrize(
    "code",
    [
        "cols.values[3][0] = 1.0",
        "cols.values[3] = array('d')",
        "cols.values = []",
        "for (_, _, m), vals in zip(cols.series, cols.values):\n    vals[0] = 0.0",
        "cleaned = cols.values\ncleaned[0].append(1.0)",
        "del cols.values[2][1:]",
        "cols.values[0] += array('d', [1.0])",
        "series = zip(cols.series, cols.timestamps, cols.values)\n"
        "for s, ((h, v, m), stamps, vals) in enumerate(series):\n    vals.extend(stamps)",
    ],
)
def test_value_column_store_check_flags_each_kind_of_store(code):
    # so the check below does not pass by finding nothing
    assert len(_value_column_stores(ast.parse(code))) == 1


def test_only_the_states_module_builds_or_extends_sample_columns():
    # SampleColumns.of and the reader are the only ways into the columns,
    # and both check every sample as MetricSample does; the only other
    # store into a value column is the preprocess filter's, which cleans
    # the column it owns in place
    src = pathlib.Path(states.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "states.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SampleColumns":
                    found.append(f"{path.name}:{node.lineno}: SampleColumns()")
                elif isinstance(node, ast.Attribute) and (
                    node.attr == "_extend"
                    or isinstance(node.value, ast.Name) and node.value.id == "SampleColumns" and node.attr != "of"
                ):
                    found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            if owner != "engine.SeriesFilter":
                found += [f"{path.name}:{node.lineno}: store into a value column" for node in _value_column_stores(top)]
    assert found == []


@pytest.mark.parametrize("probs", [(True, False), (0.5, "0.5"), (None, 1.0)], ids=["bools", "string", "none"])
def test_state_distribution_refuses_an_entry_that_is_not_a_number(probs):
    # before, (True, False) was stored as it was
    i, bad = next((i, p) for i, p in enumerate(probs) if type(p) not in (int, float))
    want = rf"^distribution entry {i} is {re.escape(repr(bad))}, not a number in \[0, 1\]$"
    with pytest.raises(ValueError, match=want):
        StateDistribution(probs)


def test_state_distribution_takes_integer_probabilities():
    assert StateDistribution((1, 0)).probs == (1, 0)


def test_state_distribution_validation():
    d = StateDistribution((0.5, 0.25, 0.25))
    assert d.probs[0] == 0.5 and len(d.probs) == 3
    with pytest.raises(ValueError):
        StateDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        StateDistribution((1.5, -0.5))
    with pytest.raises(ValueError):
        StateDistribution(())


@pytest.mark.parametrize(
    "probs, total", [((0.7, 0.2, 0.2), "1.0999999999999999"), ((1, 1), "2"), ((1, 0.5), "1.5")],
    ids=["floats", "ints", "mixed"],
)
def test_state_distribution_names_its_total_added_left_to_right(probs, total):
    # sum() compensates from CPython 3.12 and prints 1.1 for the floats
    with pytest.raises(ValueError, match=rf"^distribution sums to {re.escape(total)}, not 1$"):
        StateDistribution(probs)


# every kind of entry a caller could hand over: floats with nan, +-inf and
# -0.0 among them, ints, bools, Fractions and Decimals
_ENTRIES = st.one_of(
    st.floats(), st.floats(0.0, 1.0), st.integers(-1, 2), st.booleans(), st.fractions(0, 1),
    st.decimals(0, 1, places=3),
)


@st.composite
def _near_distributions(draw):
    """2 to 4 floats in [0, 1] whose last one brings their total to 1, to
    within a few 1e-12 either way, with up to two entries swapped for any
    entry of ``_ENTRIES``."""
    n = draw(st.integers(2, 4))
    head = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    off = draw(st.sampled_from((-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12)))
    probs = [*head, 1.0 - states.left_sum(head) + off]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        probs[i] = draw(_ENTRIES)
    return tuple(probs)


def _door_outcomes(probs) -> list:
    """What each door that takes a distribution makes of ``probs``: None
    where it takes it, else the type of its error and its message less
    the subject the door names first."""
    n = len(probs)
    schema = AttributeSchema((("x", 2),), tuple(f"c{c}" for c in range(n)))
    diagram = build_from_structure_function((CPU,), [n], lambda sv: sv.levels[0])
    doors = (
        ("distribution", lambda: StateDistribution(probs)),
        ("prior distribution", lambda: NbcModel(schema, probs, (((0.5, 0.5),) * n,), 0.0)),
        ("diagnosis", lambda: Alarm(0, "h0", "vm0", 1, TRIGGER_NBC, probs, "c0")),
        ("distribution for vm.cpu", lambda: diagram.level_probabilities([probs])),
    )
    outcomes = []
    for subject, door in doors:
        try:
            door()
        except Exception as exc:
            assert str(exc).startswith(f"{subject} "), (subject, exc)
            outcomes.append((type(exc), str(exc)[len(subject):]))
        else:
            outcomes.append(None)
    return outcomes


@given(st.one_of(_near_distributions(), st.lists(_ENTRIES, min_size=2, max_size=4).map(tuple)))
@example((True, False))
@example((Fraction(1, 2), Fraction(1, 2)))
@example((Decimal("0.5"), Decimal("0.5")))
@example((1, 0))
@example((-0.0, 1.0))
def test_every_door_that_takes_a_distribution_keeps_one_rule(probs):
    # before, NbcModel took (True, False) and two Fraction(1, 2) priors,
    # which the other doors refused, and raised TypeError on Decimals
    outcomes = _door_outcomes(probs)
    if outcomes[0] is None:
        assert outcomes == [None] * 4
    else:
        assert [refusal and refusal[0] for refusal in outcomes] == [ValueError, ValueError, ValueError, MddInputError]
        assert len({refusal[1] for refusal in outcomes}) == 1


def test_metric_sample_scope_consistency():
    host_cpu = ComponentId("cpu", "host")
    with pytest.raises(ValueError):
        MetricSample(0, "h0", "vm0", host_cpu, 10.0)
    with pytest.raises(ValueError):
        MetricSample(0, "h0", None, CPU, 10.0)
    s = MetricSample(0, "h0", None, host_cpu, 10.0)
    assert s.metric.level == "host"


def test_metric_sample_jsonl_roundtrip(tmp_path):
    samples = [
        MetricSample(0, "h0", "vm0", CPU, 42.5),
        MetricSample(1000, "h0", None, ComponentId("storage_io", "host"), 17.0),
    ]
    path = tmp_path / "stream.jsonl"
    assert write_metric_samples(samples, path) == 2
    lines = path.read_text().strip().split("\n")
    obj = json.loads(lines[0])
    # wire keys are fixed
    assert set(obj) == {"timestamp", "host_id", "vm_id", "metric", "value", "level"}
    assert obj["level"] == "vm" and obj["metric"] == "cpu"
    assert read_metric_samples(path) == samples


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_metric_sample_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="non-finite"):
        MetricSample(0, "h0", "vm0", CPU, value)


@pytest.mark.parametrize("timestamp", [1.5, 1000.0, True, "1000", None])
def test_metric_sample_rejects_a_timestamp_that_is_not_an_integer(timestamp):
    with pytest.raises(ValueError, match="timestamp must be an integer"):
        MetricSample(timestamp, "h0", "vm0", CPU, 1.0)


@pytest.mark.parametrize("host_id", [7, None, b"h0"])
def test_metric_sample_rejects_a_host_id_that_is_not_a_string(host_id):
    with pytest.raises(ValueError, match="host_id must be a string"):
        MetricSample(0, host_id, "vm0", CPU, 1.0)


@pytest.mark.parametrize("vm_id", [3, False, b"vm0"])
def test_metric_sample_rejects_a_vm_id_that_is_neither_a_string_nor_none(vm_id):
    with pytest.raises(ValueError, match="vm_id must be a string or None"):
        MetricSample(0, "h0", vm_id, CPU, 1.0)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_metric_samples_names_line_of_non_finite_value(tmp_path, spelling):
    good = json.dumps(MetricSample(0, "h0", "vm0", CPU, 42.5).to_json_obj())
    bad = good.replace("42.5", spelling)
    path = tmp_path / "stream.jsonl"
    path.write_text(f"{good}\n\n{good}\n{bad}\n")
    with pytest.raises(ValueError, match=r"line 4: .*non-finite"):
        read_metric_samples(path)


def test_component_id_key_is_computed_once_outside_eq_hash_and_repr():
    c = ComponentId("cpu")
    assert repr(c) == "ComponentId(name='cpu', level='vm')"
    assert ComponentId(c.name, level="host").key == "host.cpu"
    other = ComponentId("cpu")
    object.__setattr__(other, "key", "not.the.key")
    assert other == c and hash(other) == hash(c)
    assert ComponentId("cpu", "host") != c


def test_samples_and_components_carry_no_instance_dict():
    # without slots, afdi diagnose on a 4x8 fleet stream peaks about
    # 5 MB higher (85 against 80 MB), and no other test would notice
    sample = MetricSample(0, "h0", "vm0", CPU, 1.0)
    assert not hasattr(CPU, "__dict__")
    assert not hasattr(sample, "__dict__")


def test_reader_matches_per_line_reader_on_scenario_800(tmp_path):
    samples, _ = generate(load_scenario(fixture_path("scenario_800.json")))
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    got = read_metric_samples(path)
    assert got == oracles.read_metric_samples_per_line(path)
    assert got == samples
    shared = {}
    for s in got:
        assert shared.setdefault(s.metric, s.metric) is s.metric
    assert len(shared) == 6


def _scenario_800_columns(tmp_path, route):
    """The columns of the scenario_800 stream, read back or through ``of``,
    and its samples."""
    samples, _ = generate(load_scenario(fixture_path("scenario_800.json")))
    if route == "of":
        return states.SampleColumns.of(samples), samples
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    return states.read_sample_columns(path), samples


@pytest.mark.parametrize("route", ["reader", "of"])
def test_columns_hold_unboxed_values_a_packed_order_and_one_list_per_distinct_timestamp_column(tmp_path, route):
    columns, samples = _scenario_800_columns(tmp_path, route)
    assert {(type(column), column.typecode) for column in columns.values} == {(array, "d")}
    # six series: each index fits a byte
    assert (type(columns.order), columns.order.typecode) == (array, "B")
    assert list(map(repr, columns)) == list(map(repr, samples))
    # every series samples each of the 800 times, so all six columns are one list
    assert len(columns.timestamps) == 6
    assert {id(column) for column in columns.timestamps} == {id(columns.timestamps[0])}


def test_equal_timestamp_columns_are_one_list_and_unequal_ones_stay_apart():
    samples = [MetricSample(t, "h0", vm, CPU, 1.0) for t in (1, 2, 3) for vm in ("vm0", "vm1", "vm2")]
    samples.append(MetricSample(4, "h0", "vm1", CPU, 1.0))
    columns = states.SampleColumns.of(samples)
    first, second, third = columns.timestamps
    assert first is third and first == [1, 2, 3]
    assert second == [1, 2, 3, 4]


@pytest.mark.parametrize("route", ["reader", "of"])
def test_columns_hold_at_most_24_bytes_per_sample(tmp_path, route):
    # a boxed float and the pointers to it, its timestamp and its series
    # came to about 52 bytes a sample; the bytes that go when the columns
    # go are what they hold, and a warm-up call leaves caches out of it
    columns, samples = _scenario_800_columns(tmp_path, route)
    make = (lambda: states.SampleColumns.of(samples)) if route == "of" else (
        lambda: states.read_sample_columns(tmp_path / "stream.jsonl")
    )
    tracemalloc.start()
    try:
        columns = make()
        with_columns = tracemalloc.get_traced_memory()[0]
        n = len(columns)
        del columns
        held = with_columns - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n == 4800
    assert held <= 24 * n


@pytest.mark.parametrize(
    "value", [3, True, -7, 2.5, 2**60 + 1], ids=["int", "bool", "negative-int", "float", "int-past-2**53"]
)
def test_sample_columns_hold_an_int_or_a_bool_value_as_its_float(value):
    # an int no float equals comes back as the nearest float
    columns = states.SampleColumns.of([MetricSample(0, "h0", "vm0", CPU, value)])
    assert columns.values == [array("d", [float(value)])]
    (got,) = columns
    assert type(got.value) is float and got.value == float(value)


def test_a_negative_zero_keeps_its_sign_through_the_columns(tmp_path):
    samples = [MetricSample(t, "h0", "vm0", CPU, v) for t, v in enumerate([0.0, -0.0, 5.0, -0.0])]
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    for columns in (states.SampleColumns.of(samples), states.read_sample_columns(path)):
        assert [math.copysign(1.0, v) for v in columns.values[0]] == [1.0, -1.0, 1.0, -1.0]
        assert [repr(s.value) for s in columns] == ["0.0", "-0.0", "5.0", "-0.0"]


def test_the_scan_opens_a_chunks_series_in_the_order_of_their_first_lines(tmp_path):
    # 60 series in an order that no hash gives, 20 samples each
    keys = [
        (f"h{i % 3}", None if i % 4 == 0 else f"vm{i % 5}", ComponentId(f"m{i % 7}", "host" if i % 4 == 0 else "vm"))
        for i in range(60)
    ]
    samples = [MetricSample(1000 * (i // 60), h, vm, metric, i / 8) for i, (h, vm, metric) in enumerate(keys * 20)]
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    columns = states.read_sample_columns(path)
    assert columns.series == list(dict.fromkeys((s.host_id, s.vm_id, s.metric) for s in samples))
    assert list(map(repr, columns)) == list(map(repr, samples))


@pytest.mark.parametrize("bad_line", [2, 700], ids=["route-opened-line-before", "route-opened-many-lines-before"])
def test_a_scanned_chunk_failing_after_it_opened_its_series_raises_naming_the_line(tmp_path, bad_line):
    # every series of the chunk is new, so it is routed and opened before
    # the value check fails; the line-by-line pass names the same line
    samples = [MetricSample(i, "h0", f"vm{i % 9}", CPU, 1.5) for i in range(CHUNK)]
    lines = [json.dumps(s.to_json_obj(), sort_keys=True) for s in samples]
    lines[bad_line - 1] = lines[bad_line - 1].replace('"value": 1.5', '"value": 1e999')
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as raised:
        states.read_sample_columns(path)
    assert str(raised.value) == f"{path}: line {bad_line}: vm.cpu: non-finite value inf"
    assert _outcome(oracles.read_metric_samples_per_line, path) == bad_line


_GOOD = json.dumps(MetricSample(0, "h0", "vm0", CPU, 42.5).to_json_obj(), sort_keys=True)
_GOOD_HOST = json.dumps(
    MetricSample(0, "h0", None, ComponentId("cpu", "host"), 40.0).to_json_obj(), sort_keys=True
)


def _outcome(read, path):
    """The samples read, or the line number a ValueError names."""
    try:
        return read(path)
    except ValueError as exc:
        return int(re.search(r": line (\d+): ", str(exc)).group(1))


def _good_with(old, new):
    return _GOOD.replace(old, new)


# streams both readers must accept alike, or reject on the same line
_SAME_OUTCOME = {
    "blank-lines": f"{_GOOD}\n\n   \n\t\n{_GOOD_HOST}\n",
    "crlf": f"{_GOOD}\r\n{_GOOD_HOST}\r\n",
    "padded-no-final-newline": f"  {_GOOD}\t \n{_GOOD_HOST}",
    "extra-data": f"{_GOOD}\n{_GOOD} x\n",
    "two-objects": f"{_GOOD}\n{_GOOD}{_GOOD_HOST}\n",
    "two-objects-spaced": f"{_GOOD}\n{_GOOD} {_GOOD_HOST}\n",
    "two-objects-comma": f"{_GOOD}\n{_GOOD}, {_GOOD_HOST}\n",
    "trailing-comma": f"{_GOOD}\n{_GOOD},\n",
    "bom-first-line": "\ufeff" + _GOOD + "\n",
    "bom-second-line": _GOOD + "\n\ufeff" + _GOOD_HOST + "\n",
    **{
        f"value-{v}": f"{_GOOD}\n{_good_with('42.5', v)}\n"
        for v in ("NaN", "Infinity", "-Infinity", "1e999")
    },
    "value-1e308": _good_with("42.5", "1e308") + "\n",
    "value-text": _GOOD + "\n" + _good_with("42.5", '"x"') + "\n",
    "bad-level": _GOOD + "\n" + _good_with('"vm"', '"container"') + "\n",
    "host-metric-with-vm": _GOOD_HOST.replace("null", '"vm0"') + "\n",
    "unclosed-object": "{\n",
}


@pytest.mark.parametrize("text", list(_SAME_OUTCOME.values()), ids=list(_SAME_OUTCOME))
def test_reader_accepts_and_rejects_the_lines_the_per_line_reader_does(tmp_path, text):
    path = tmp_path / "stream.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_metric_samples, path) == _outcome(oracles.read_metric_samples_per_line, path)


_MISSING = object()


def _with(**changes):
    """The good record with keys changed, added or (``_MISSING``) dropped."""
    obj = json.loads(_GOOD)
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not _MISSING})


# one record of each malformed kind, and a pattern its message matches
_MALFORMED = [
    pytest.param(_with(value=None), "float", id="value-null"),
    pytest.param(_with(timestamp=None), "int", id="timestamp-null"),
    pytest.param(_with(timestamp=[0]), "int", id="timestamp-list"),
    pytest.param(_with(timestamp=math.inf), "JSON integer, got Infinity", id="timestamp-infinity"),
    pytest.param(_with(timestamp=1000.7), "JSON integer, got 1000.7", id="timestamp-fraction"),
    pytest.param(_with(timestamp=1000.0), "JSON integer, got 1000.0", id="timestamp-integral-float"),
    pytest.param(_with(timestamp=True), "JSON integer, got true", id="timestamp-true"),
    pytest.param(_with(timestamp="1000"), 'JSON integer, got "1000"', id="timestamp-string"),
    pytest.param(_with(value="42.5"), 'JSON int or float, got "42.5"', id="value-numeric-string"),
    pytest.param(_with(value=False), "JSON int or float, got false", id="value-false"),
    pytest.param(_with(value=True), "JSON int or float, got true", id="value-true"),
    pytest.param(_with(level=_MISSING), "keys", id="level-missing"),
    pytest.param(_with(extra=1), "keys", id="extra-key"),
    pytest.param(_with(level=_MISSING, lvl="vm"), "keys", id="key-renamed"),
    pytest.param(_with(metric=["cpu"]), "metric and level must be strings", id="metric-list"),
    pytest.param(_with(level=None), "metric and level must be strings", id="level-null"),
    pytest.param(_with(host_id=7), "host_id must be a string", id="host-id-number"),
    pytest.param(_with(vm_id=3), "vm_id a string or null", id="vm-id-number"),
    pytest.param("[1, 2]", "JSON object", id="array"),
    pytest.param('"text"', "JSON object", id="string"),
    pytest.param("7", "JSON object", id="number"),
]


@pytest.mark.parametrize("bad, message", _MALFORMED)
def test_reader_rejects_malformed_records_naming_the_line(tmp_path, bad, message):
    path = tmp_path / "stream.jsonl"
    path.write_text(f"{_GOOD}\n{bad}\n{_GOOD}\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 2: .*{message}"):
        read_metric_samples(path)


# -- chunked decode ---------------------------------------------------

CHUNK = states._CHUNK_LINES


def test_reader_rejects_a_record_split_over_two_lines_naming_the_first(tmp_path):
    # joined into one array the two lines decode to two valid records,
    # the second spanning both lines; line 1 is not one braced record
    first = _GOOD + ', {"host_id": "h0", "level": "vm", "metric": "cpu"'
    second = '"timestamp": 1000, "value": 42.5, "vm_id": "vm0"}'
    path = tmp_path / "stream.jsonl"
    path.write_text(f"{first}\n{second}\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 1: "):
        read_metric_samples(path)


@pytest.mark.parametrize("bad_line", [CHUNK, CHUNK + 1], ids=["last-of-chunk", "first-of-next"])
def test_reader_names_a_bad_record_at_a_chunk_boundary_by_its_line(tmp_path, bad_line):
    lines = [_GOOD] * (2 * CHUNK)
    lines[bad_line - 1] = _good_with('"vm"', '"container"')
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf": line {bad_line}: component level must be"):
        read_metric_samples(path)


def test_reader_matches_per_line_reader_over_many_chunks(tmp_path):
    # blank lines shift the records against the chunk boundaries
    records = []
    for i in range(2 * CHUNK + 300):
        if i % 97 == 0:
            records.append("   ")
        host = i % 5 == 0
        sample = MetricSample(
            1000 * (i // 6), "h0", None if host else f"vm{i % 3}",
            ComponentId("storage_io" if host else "memory", "host" if host else "vm"),
            float(i % 101) + 0.25 if i % 2 else float(i % 7),
        )
        records.append(json.dumps(sample.to_json_obj(), sort_keys=i % 3 == 0))
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(records) + "\n")
    got = read_metric_samples(path)
    assert len(got) == 2 * CHUNK + 300
    assert got == oracles.read_metric_samples_per_line(path)


# -- tuple records ----------------------------------------------------

HOST_CPU = ComponentId("cpu", "host")


def test_samples_are_immutable_hashable_tuple_records():
    sample = MetricSample(0, "h0", "vm0", CPU, 42.5)
    assert isinstance(sample, tuple) and not hasattr(sample, "__dict__")
    with pytest.raises(AttributeError):
        sample.value = 1.0
    with pytest.raises(TypeError):
        sample[4] = 1.0
    twin = MetricSample(timestamp=0, host_id="h0", vm_id="vm0", metric=CPU, value=42.5)
    assert twin == sample and hash(twin) == hash(sample) and len({sample, twin}) == 1
    assert tuple(sample) == (0, "h0", "vm0", CPU, 42.5)
    assert repr(sample).startswith("MetricSample(timestamp=0, host_id='h0', vm_id='vm0', ")


@pytest.mark.parametrize(
    "vm_id, metric, value, message",
    [
        ("vm0", HOST_CPU, 10.0, "host-level metric host.cpu must not carry vm_id"),
        (None, CPU, 10.0, "vm-level metric vm.cpu requires vm_id"),
        ("vm0", CPU, math.nan, "vm.cpu: non-finite value nan"),
        ("vm0", CPU, math.inf, "vm.cpu: non-finite value inf"),
        (None, HOST_CPU, -math.inf, "host.cpu: non-finite value -inf"),
    ],
    ids=["host-with-vm", "vm-without-vm", "nan", "inf", "minus-inf"],
)
def test_metric_sample_rejects_each_bad_scope_or_value_with_its_message(vm_id, metric, value, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        MetricSample(0, "h0", vm_id, metric, value)


def test_reader_shares_one_object_per_distinct_timestamp_and_id(tmp_path):
    samples, _ = generate(load_scenario(fixture_path("scenario_800.json")))
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    got = read_metric_samples(path)
    for field in ("timestamp", "host_id", "vm_id"):
        values = [getattr(s, field) for s in got]
        # every sample is alive, so distinct objects have distinct ids
        assert len({id(v) for v in values}) == len(set(values)), field
    assert len({s.timestamp for s in got}) == 800


@pytest.mark.parametrize(
    "bad, message",
    [
        (_with(timestamp=True), "timestamp must be a JSON integer, got true"),
        (_GOOD_HOST.replace("null", '"vm0"'), "host-level metric host.cpu must not carry vm_id"),
        (_good_with("42.5", "1" + "0" * 399), "int too large to convert to float"),
        (_good_with("42.5", "NaN"), "vm.cpu: non-finite value nan"),
    ],
    ids=["timestamp-true", "host-metric-with-vm", "value-400-digits", "value-nan"],
)
@pytest.mark.parametrize("separators", [None, (",", ":")], ids=["scanned", "decoded"])
def test_reader_names_the_line_of_one_bad_entry_in_a_column(tmp_path, bad, message, separators):
    # the bad entry sits inside a full chunk of good records of both
    # scopes, written as the writer writes them, which the scan reads, or
    # with compact separators, which the JSON path decodes
    def written(line):
        return json.dumps(json.loads(line), sort_keys=True, separators=separators)

    lines = [written(_GOOD if i % 3 else _GOOD_HOST) for i in range(CHUNK + 200)]
    lines[700] = written(bad)
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 701: {re.escape(message)}$"):
        read_metric_samples(path)
    lines[700] = written(_GOOD)
    path.write_text("\n".join(lines) + "\n")
    assert len(read_metric_samples(path)) == CHUNK + 200


@pytest.mark.parametrize("bad, message", _MALFORMED)
def test_reader_rejects_each_malformed_record_inside_a_full_chunk(tmp_path, bad, message):
    # the column check is the reader's only record check, so each kind
    # must fail the whole chunk it sits in for its line to be named
    lines = [_GOOD if i % 3 else _GOOD_HOST for i in range(CHUNK + 200)]
    lines[700] = bad
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: line 701: .*{message}"):
        read_metric_samples(path)


# -- canonical scan ---------------------------------------------------

_SCAN, _DECODE = "scan", "decode"

# lines near the canonical form, and how the reader must take each:
# scanned, decoded by the JSON path, or rejected with today's message
_NEAR_CANONICAL = {
    "reordered-keys": (json.dumps(dict(reversed(json.loads(_GOOD).items()))), _DECODE),
    "compact-separators": (json.dumps(json.loads(_GOOD), sort_keys=True, separators=(",", ":")), _DECODE),
    "escaped-nul-in-id": (_good_with('"vm0"', '"vm\\u0000"'), _DECODE),
    "escaped-quote-in-id": (_good_with('"vm0"', '"vm\\"0"'), _DECODE),
    "escaped-non-ascii-id": (_good_with('"vm0"', '"vm\\u00e9"'), _DECODE),
    "raw-non-ascii-id": (_good_with('"vm0"', '"vmé"'), _SCAN),
    "raw-control-character": (_good_with('"vm0"', '"vm\x010"'), "Invalid control character at"),
    "value-42": (_good_with("42.5", "42"), _DECODE),
    "value-minus-0": (_good_with("42.5", "-0"), _DECODE),
    "value-minus-0.0": (_good_with("42.5", "-0.0"), _SCAN),
    "value-1E5": (_good_with("42.5", "1E5"), _SCAN),
    "value-5e-324": (_good_with("42.5", "5e-324"), _SCAN),
    "value-1e400": (_good_with("42.5", "1e400"), "vm.cpu: non-finite value inf"),
    "value-NaN": (_good_with("42.5", "NaN"), "vm.cpu: non-finite value nan"),
    "value-Infinity": (_good_with("42.5", "Infinity"), "vm.cpu: non-finite value inf"),
    "timestamp-leading-zero": (_good_with('"timestamp": 0', '"timestamp": 0700'), "Expecting ',' delimiter"),
    # a series of its own, so that every series stays in time order
    "timestamp-400-digits": (_good_with('"timestamp": 0', '"timestamp": ' + "9" * 400).replace('"vm0"', '"vm9"'),
                             _SCAN),
    "vm-id-empty": (_good_with('"vm0"', '""'), _SCAN),
    "duplicated-key": (_good_with('{"host_id": "h0"', '{"host_id": "hx", "host_id": "h0"'), "repeated key 'host_id'"),
    "repeated-value": (_GOOD[:-1] + ', "value": 99.0}', "repeated key 'value'"),
    "trailing-spaces": (_GOOD + "   ", _SCAN),
    "crlf": (_GOOD + "\r", _SCAN),
    # a series head first seen here, which fails the check the scan makes
    # once per series: the chunk goes line by line, as the per-line reader does
    "level-rack": (_good_with('"level": "vm"', '"level": "rack"'),
                   "component level must be one of ('vm', 'host'), got 'rack'"),
    "metric-empty": (_good_with('"metric": "cpu"', '"metric": ""'), "component name must be non-empty"),
    "host-level-with-vm-id": (_GOOD_HOST.replace('"vm_id": null', '"vm_id": "vm7"'),
                              "host-level metric host.cpu must not carry vm_id"),
    "vm-level-with-null": (_good_with('"vm_id": "vm0"', '"vm_id": null'), "vm-level metric vm.cpu requires vm_id"),
}


# line 1 is the line the scan tries alone before the whole chunk
@pytest.mark.parametrize("line_no", [1, 701])
@pytest.mark.parametrize("line, outcome", list(_NEAR_CANONICAL.values()), ids=list(_NEAR_CANONICAL))
def test_scan_reads_a_near_canonical_line_as_the_per_line_reader_does(tmp_path, monkeypatch, line, outcome, line_no):
    lines = [_GOOD if i % 3 else _GOOD_HOST for i in range(CHUNK + 200)]
    lines[line_no - 1] = line
    path = tmp_path / "stream.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    decoded = []
    checked_records = states._checked_records
    monkeypatch.setattr(
        states, "_checked_records", lambda objs, *rest: decoded.append(objs) or checked_records(objs, *rest)
    )
    if outcome in (_SCAN, _DECODE):
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, read_metric_samples(path))) == list(map(repr, oracles.read_metric_samples_per_line(path)))
        assert bool(decoded) == (outcome == _DECODE)
    else:
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line_no}: {re.escape(outcome)}"):
            read_metric_samples(path)
        assert _outcome(oracles.read_metric_samples_per_line, path) == line_no


@pytest.mark.parametrize(
    "text, key",
    [('{"a": 1, "a": 1}', "a"), ('{"nodes": [{"name": "S", "b": 1, "name": "T"}]}', "name")],
    ids=["top-level", "nested"],
)
def test_read_document_refuses_a_repeated_key_naming_the_path(tmp_path, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: repeated key '{key}'$"):
        states.read_document(path)


def _never_decoded(objs, *rest):
    raise AssertionError("a line the writer wrote was not scanned")


@pytest.mark.parametrize(
    "scenario",
    ["scenario_800.json", "scenario_endless_loop.json", "scenario_healthy.json", "scenario_serious_crash.json"],
)
def test_the_writers_fixture_streams_are_read_by_the_scan_alone(tmp_path, monkeypatch, scenario):
    samples, _ = generate(load_scenario(fixture_path(scenario)))
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    monkeypatch.setattr(states, "_checked_records", _never_decoded)
    assert repr(read_metric_samples(path)) == repr(samples)


def test_blank_lines_and_a_last_line_without_a_newline_are_read_by_the_scan_alone(tmp_path, monkeypatch):
    lines = [_GOOD if i % 3 else _GOOD_HOST for i in range(CHUNK + 200)]
    for i in (0, 5, 700, CHUNK - 1, CHUNK):
        lines.insert(i, " \t" if i % 2 else "")
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines))  # no newline after the last line
    monkeypatch.setattr(states, "_checked_records", _never_decoded)
    got = read_metric_samples(path)
    assert len(got) == CHUNK + 200
    assert list(map(repr, got)) == list(map(repr, oracles.read_metric_samples_per_line(path)))


@pytest.mark.parametrize("decoded_first", [True, False], ids=["decoded-then-scanned", "scanned-then-decoded"])
def test_a_series_read_by_both_paths_is_one_series_of_shared_objects(tmp_path, monkeypatch, decoded_first):
    # one chunk with compact separators, which the JSON path decodes, and
    # two canonical chunks, which the scan reads, all of the same series;
    # timestamps beyond the small ints CPython caches, so that sharing
    # shows, rising in the stream and some of them in two chunks
    host_cpu = ComponentId("cpu", "host")
    samples = [
        MetricSample(10**12 + 1000 * (i * 50 // (3 * CHUNK)), "h0", None if i % 3 == 0 else f"vm{i % 2}",
                     host_cpu if i % 3 == 0 else CPU, i + 0.5)
        for i in range(3 * CHUNK)
    ]
    compact = range(CHUNK) if decoded_first else range(2 * CHUNK, 3 * CHUNK)
    path = tmp_path / "stream.jsonl"
    path.write_text("".join(
        json.dumps(s.to_json_obj(), sort_keys=True, separators=(",", ":") if i in compact else None) + "\n"
        for i, s in enumerate(samples)
    ))
    decoded = []
    checked_records = states._checked_records
    monkeypatch.setattr(
        states, "_checked_records", lambda objs, *rest: decoded.append(len(objs)) or checked_records(objs, *rest)
    )
    columns = states.read_sample_columns(path)
    assert decoded == [CHUNK]
    assert list(map(repr, columns)) == list(map(repr, oracles.read_metric_samples_per_line(path)))
    assert [(host, vm, metric.key) for host, vm, metric in columns.series] == [
        ("h0", None, "host.cpu"), ("h0", "vm1", "vm.cpu"), ("h0", "vm0", "vm.cpu")
    ]
    got = list(columns)
    for field in ("timestamp", "host_id", "vm_id", "metric"):
        first = {}
        for i, sample in enumerate(got):
            value = getattr(sample, field)
            assert first.setdefault(value, value) is value, (field, i)
    assert len({s.timestamp for s in got}) == 50


# ids the writer leaves unescaped: printable ASCII but " and \
_ASCII_ID = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=6)


@st.composite
def _written_samples(draw):
    host_level = draw(st.booleans())
    return MetricSample(
        draw(st.integers(min_value=-(10**30), max_value=10**30)),
        draw(_ASCII_ID),
        None if host_level else draw(_ASCII_ID),
        ComponentId(draw(_ASCII_ID.filter(bool)), "host" if host_level else "vm"),
        draw(st.floats(allow_nan=False, allow_infinity=False)),
    )


@given(st.lists(_written_samples(), min_size=1, max_size=40))
@example([MetricSample(7, "h 0", "vm0", CPU, v) for v in (-0.0, 5e-324, 2.5e-310, 1e22, 1e-7, 1e16, 0.1)])
def test_the_writers_random_samples_are_read_by_the_scan_alone(tmp_path_factory, samples):
    samples.sort(key=lambda s: s.timestamp)  # the reader refuses a series that falls
    path = tmp_path_factory.mktemp("scan") / "stream.jsonl"
    write_metric_samples(samples, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_checked_records", _never_decoded)
        assert repr(read_metric_samples(path)) == repr(samples)


def _opcodes(node, parser):
    """The names of the opcodes in a parsed pattern, at every depth."""
    if isinstance(node, parser.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av, parser)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item, parser)


def test_the_scan_pattern_holds_nothing_python_3_10_cannot_compile():
    # pyproject.toml takes Python 3.10, whose re has neither possessive
    # quantifiers nor atomic groups; it raises re.error on either, which
    # no reader path catches
    parser = getattr(re, "_parser", None) or __import__("sre_parse")
    assert {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}.isdisjoint(_opcodes(parser.parse(states._CANONICAL_LINE), parser))


# -- the fold of the timestamp tails -------------------------------------

FOLD = states._FOLD_RECORDS
# record keys (host_id, vm_id, metric name, level) of the fold streams
_FOLD_KEYS = [("h0", f"vm{i}", "cpu", "vm") for i in range(4)] + [("h0", None, "storage_io", "host")]


@st.composite
def _record_streams(draw):
    """Records ``(key, timestamp)`` in stream order: at each step the clock
    moves on by 0 to 2 and every series, or some of them, any of them more
    than once, take a sample, so series share, skip and repeat timestamps."""
    records, clock = [], 0
    keys = st.one_of(st.just(_FOLD_KEYS), st.lists(st.sampled_from(_FOLD_KEYS), max_size=8))
    steps = st.tuples(st.integers(0, 2), keys)
    for step, keys in draw(st.lists(steps, max_size=25)):
        clock += step
        records += [(key, clock) for key in keys]
    return records


def _filled(records, cuts):
    """Columns filled with ``records``, one ``_extend`` call per piece
    between the positions ``cuts``, then completed."""
    columns, shared = states.SampleColumns(), {}
    bounds = [0, *cuts, len(records)]
    for piece in (records[a:z] for a, z in zip(bounds, bounds[1:])):
        series = columns._series_of([key for key, _ in piece], shared)
        columns._extend(series, [t for _, t in piece], [t / 2 for _, t in piece])
    columns._complete()
    return columns


@given(_record_streams(), st.integers(1, 7), st.data())
@example([(_FOLD_KEYS[i % 3], i // 3) for i in range(30)], 4, None)
def test_any_cut_of_a_stream_into_extend_calls_gives_the_per_series_columns(records, fold, data):
    if data is None:  # one record per call
        cuts = list(range(1, len(records)))
    else:
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(records) - 1)))) - {len(records)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_FOLD_RECORDS", fold)
        columns = _filled(records, cuts)
    naive = {}
    for key, t in records:
        naive.setdefault(key, []).append(t)
    assert [(h, vm, m.name, m.level) for h, vm, m in columns.series] == list(naive)
    assert columns.timestamps == list(naive.values())
    assert [list(column) for column in columns.values] == [[t / 2 for t in ts] for ts in naive.values()]
    assert list(columns.order) == [list(naive).index(key) for key, _ in records]
    # equal columns are one list, unequal ones apart
    stamps = columns.timestamps
    assert all((a is b) == (a == b) for a in stamps for b in stamps)


def _fleet(n_series, times):
    """``times`` rounds of one vm.cpu sample per series, round t at 1000 * t."""
    return [MetricSample(1000 * t, "h0", f"vm{i}", CPU, 50.0) for t in range(times) for i in range(n_series)]


def _columns_by(route, samples, tmp_path):
    if route == "of":
        return states.SampleColumns.of(samples)
    path = tmp_path / "stream.jsonl"
    write_metric_samples(samples, path)
    return states.read_sample_columns(path)


@pytest.mark.parametrize("route", ["reader", "of"])
@pytest.mark.parametrize("at", [FOLD - 1, FOLD, FOLD + 1], ids=["last-before-fold", "first-after-fold", "second-after-fold"])
def test_a_fall_by_a_fold_boundary_raises_the_first_fall_in_stream_order(tmp_path, route, at):
    # the reader folds after the chunk that takes its FOLD-th record;
    # a later fall in a series opened earlier is not the one raised
    samples = _fleet(10, FOLD // 10 + 20)
    for i in (at, at + 15):
        samples[i] = samples[i]._replace(timestamp=samples[i].timestamp - 2000)
    expected = oracles.first_fall(samples)
    assert expected is not None and f"vm{at % 10}'" in str(expected)
    with pytest.raises(SequencingError) as raised:
        _columns_by(route, samples, tmp_path)
    assert str(raised.value) == str(expected)


@pytest.mark.parametrize("route", ["reader", "of"])
@pytest.mark.parametrize("at", [FOLD - 1, FOLD, FOLD + 1], ids=["last-before-fold", "first-after-fold", "second-after-fold"])
def test_a_second_sample_by_a_fold_boundary_raises_the_first_in_stream_order(tmp_path, route, at):
    samples = _fleet(10, FOLD // 10 + 20)
    for i in (at, at + 15):
        samples[i] = samples[i]._replace(timestamp=samples[i].timestamp - 1000)
    columns = _columns_by(route, samples, tmp_path)
    # the two series given a second sample hold a list each, the other eight one
    apart = {at % 10, (at + 15) % 10}
    shared = {id(column) for s, column in enumerate(columns.timestamps) if s not in apart}
    assert len(shared) == 1 and len({id(columns.timestamps[s]) for s in apart} | shared) == 3
    bad = samples[at]
    with pytest.raises(ValueError, match=rf"^window t={bad.timestamp} h0/{bad.vm_id}: second sample of vm.cpu$"):
        collect_windows(columns, [DiscretizationSpec(CPU, (0.0, 50.0, 100.0))])


@pytest.mark.parametrize("n_series, typecode", [(256, "B"), (257, "H"), (300, "H")])
def test_order_takes_the_narrowest_type_that_holds_every_series_index(n_series, typecode):
    columns = states.SampleColumns.of(_fleet(n_series, 2))
    assert (columns.order.typecode, list(columns.order)) == (typecode, list(range(n_series)) * 2)


@pytest.mark.parametrize("route", ["reader", "of"])
def test_300_series_widen_order_as_they_open_and_keep_the_first_fall_first(tmp_path, route):
    # the first chunk holds 100 series, later ones open the rest; the
    # last round runs the series backwards, so series 290 falls first
    samples = _fleet(100, 12) + [s._replace(timestamp=12000) for s in _fleet(300, 1)]
    samples += [s._replace(timestamp=13000) for s in _fleet(300, 1)[::-1]]
    at, later = len(samples) - 1 - 290, len(samples) - 1 - 5
    for i in (at, later):
        samples[i] = samples[i]._replace(timestamp=-1)
    expected = oracles.first_fall(samples)
    assert "'vm290'" in str(expected)
    with pytest.raises(SequencingError, match=re.escape(str(expected))):
        _columns_by(route, samples, tmp_path)
    good = [s for i, s in enumerate(samples) if i not in (at, later)]
    columns = _columns_by(route, good, tmp_path)
    assert columns.order.typecode == "H"
    assert list(map(repr, columns)) == list(map(repr, good))


# -- hashing -----------------------------------------------------------


@given(st.binary(max_size=2048))
@example(b"")
@example(b"\x00" * 64)
def test_the_one_sha256_digests_as_hashlib_does(data):
    # states.sha256 is the built-in module where there is one; every
    # digest afdi takes or pins must stay hashlib's
    assert states.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert states.sha256(data).digest() == hashlib.sha256(data).digest()


def test_the_one_sha256_digests_the_fixture_model_as_the_config_pins_it():
    with open(fixture_path("nbc_model.json"), "rb") as fh:
        blob = fh.read()
    with open(fixture_path("engine_config.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["model"]["sha256"]
    assert states.sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest() == pinned
