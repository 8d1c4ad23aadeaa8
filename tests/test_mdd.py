import itertools
import math
import re

import pytest
from hypothesis import given, strategies as st

from afdi.mdd import (
    CapacityError,
    InvalidModelError,
    Mdd,
    MddInputError,
    build_from_structure_function,
    build_max_severity,
)
from afdi.states import ComponentId, StateVector

import oracles

COMPS4 = (
    ComponentId("cpu"),
    ComponentId("memory"),
    ComponentId("network"),
    ComponentId("storage_io", "host"),
)


def _max_mdd():
    return build_max_severity(COMPS4)


def _vec(levels):
    return StateVector.from_levels(COMPS4, levels)


def test_constant_function_reduces_to_one_sink():
    m = build_from_structure_function(COMPS4, [3] * 4, lambda sv: 0)
    assert m.node_count() == 1
    assert m.evaluate(_vec([2, 2, 2, 2])) == 0


def test_single_variable_identity():
    comp = (ComponentId("cpu"),)
    m = build_from_structure_function(comp, [3], lambda sv: sv.levels[0])
    assert m.node_count() == 4  # one internal + three sinks
    for s in range(3):
        assert m.evaluate(StateVector.from_levels(comp, [s])) == s


def test_max_severity_matches_direct_max_on_all_81_vectors():
    m = _max_mdd()
    for levels in itertools.product(range(3), repeat=4):
        assert m.evaluate(_vec(levels)) == max(levels)


def test_max_severity_named_cases():
    m = _max_mdd()
    assert m.evaluate(_vec([0, 0, 0, 0])) == 0
    assert m.evaluate(_vec([2, 0, 0, 0])) == 2  # one serious component is enough
    assert m.evaluate(_vec([1, 0, 1, 0])) == 1
    assert m.evaluate(_vec([2, 2, 2, 2])) == 2


def test_max_severity_monotone_in_each_component():
    m = _max_mdd()
    for levels in itertools.product(range(3), repeat=4):
        base = m.evaluate(_vec(levels))
        for i in range(4):
            if levels[i] < 2:
                raised = list(levels)
                raised[i] += 1
                assert m.evaluate(_vec(raised)) >= base


def test_node_count_matches_signature_oracle():
    m = _max_mdd()
    expected = oracles.canonical_node_count([3] * 4, lambda levels: max(levels))
    assert m.node_count() == expected


def test_rebuild_is_structurally_identical():
    a = _max_mdd()
    b = _max_mdd()
    assert a.node_count() == b.node_count()
    assert a._nodes == b._nodes
    assert a.root == b.root


def test_hash_consing_no_duplicate_nodes():
    m = _max_mdd()
    internals = [n for n in m._nodes if n[0] == "node"]
    assert len(internals) == len(set(internals))
    sinks = [n for n in m._nodes if n[0] == "sink"]
    assert len(sinks) == len(set(sinks))
    for node in internals:  # reduced: no all-equal children survive
        children = node[2]
        assert any(c != children[0] for c in children)


@given(st.data())
def test_random_structure_functions_evaluate_exactly(data):
    num = data.draw(st.integers(min_value=1, max_value=4))
    arities = [data.draw(st.integers(min_value=2, max_value=3)) for _ in range(num)]
    comps = tuple(ComponentId(f"c{i}") for i in range(num))
    table = {
        levels: data.draw(st.integers(min_value=0, max_value=2))
        for levels in itertools.product(*(range(a) for a in arities))
    }
    m = build_from_structure_function(comps, arities, lambda sv: table[sv.levels])
    for levels, want in table.items():
        assert m.evaluate(StateVector.from_levels(comps, levels)) == want
    assert m.node_count() == oracles.canonical_node_count(arities, lambda lv: table[lv])
    # level_probabilities walks the store once, in order: it rests on
    # each node being stored after its children
    for idx, node in enumerate(m._nodes):
        if node[0] == "node":
            assert all(child < idx for child in node[2])
    # each distribution holds a zero, so the skip of a zero weight runs
    dists = []
    for arity in arities:
        weights = data.draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity))
        zero = data.draw(st.integers(0, arity - 1))
        weights[zero] = 0
        weights[(zero + 1) % arity] = weights[(zero + 1) % arity] or 1
        dists.append(tuple(w / sum(weights) for w in weights))
    got = m.level_probabilities(dists).probs
    want = oracles.weighted_level_distribution(arities, lambda lv: table[lv], dists, max(table.values()) + 1)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


@pytest.mark.parametrize("result", [1.9, 1.0, True, None], ids=["float", "whole-float", "bool", "none"])
def test_structure_function_result_must_be_an_integer_naming_the_vector(result):
    # before, a result of 1.9 built a sink at level 1 in silence
    comps = (ComponentId("cpu"), ComponentId("storage_io", "host"))
    want = rf"^structure function returned {re.escape(repr(result))} at \(vm.cpu=0, host.storage_io=0\), not an integer level$"
    with pytest.raises(InvalidModelError, match=want):
        build_from_structure_function(comps, [2, 2], lambda sv: result)


def test_structure_function_result_is_checked_at_each_vector():
    # the first vector whose result is not an integer is the one named
    comps = (ComponentId("cpu"),)
    with pytest.raises(InvalidModelError, match=r"returned 1\.5 at \(vm\.cpu=1\)"):
        build_from_structure_function(comps, [3], lambda sv: 1.5 if sv.levels == (1,) else sv.levels[0])


def test_capacity_limit():
    comps = tuple(ComponentId(f"c{i}") for i in range(13))
    with pytest.raises(CapacityError):
        build_from_structure_function(comps, [3] * 13, lambda sv: 0)


def test_empty_model_rejected():
    with pytest.raises(InvalidModelError):
        build_max_severity(())


def test_evaluate_input_validation():
    m = _max_mdd()
    wrong = StateVector.from_levels(COMPS4[:3], [0, 0, 0])
    with pytest.raises(MddInputError):
        m.evaluate(wrong)
    with pytest.raises(MddInputError):
        m.evaluate(_vec([0, 0, 0, 3]))


def test_level_probabilities_uniform_thirds():
    m = _max_mdd()
    u = (1 / 3, 1 / 3, 1 / 3)
    dist = m.level_probabilities([u] * 4)
    assert abs(dist.probs[0] - 1 / 81) <= 1e-12
    assert abs(dist.probs[2] - 65 / 81) <= 1e-12
    assert abs(sum(dist.probs) - 1.0) <= 1e-12


def test_level_probabilities_matches_enumeration():
    m = _max_mdd()
    dists = [
        (0.7, 0.2, 0.1),
        (0.5, 0.25, 0.25),
        (0.9, 0.05, 0.05),
        (0.6, 0.3, 0.1),
    ]
    got = m.level_probabilities(dists)
    want = oracles.weighted_level_distribution([3] * 4, max, dists, 3)
    for g, w in zip(got.probs, want):
        assert abs(g - w) <= 1e-12


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=100),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=4,
        max_size=4,
    )
)
def test_level_probabilities_property(weight_rows):
    m = _max_mdd()
    dists = []
    for a, b, c in weight_rows:
        total = a + b + c
        dists.append((a / total, b / total, c / total))
    got = m.level_probabilities(dists)
    assert abs(sum(got.probs) - 1.0) <= 1e-12
    want = oracles.weighted_level_distribution([3] * 4, max, dists, 3)
    for g, w in zip(got.probs, want):
        assert abs(g - w) <= 1e-12


def test_level_probabilities_one_hot_is_deterministic():
    m = _max_mdd()
    for levels in [(0, 0, 0, 0), (2, 0, 1, 0), (1, 1, 1, 1)]:
        dists = [tuple(1.0 if s == lv else 0.0 for s in range(3)) for lv in levels]
        got = m.level_probabilities(dists)
        expected_level = max(levels)
        assert got.probs[expected_level] == 1.0
        assert sum(got.probs) == 1.0


def test_level_probabilities_input_validation():
    m = _max_mdd()
    with pytest.raises(MddInputError):
        m.level_probabilities([(0.5, 0.5, 0.5)] * 4)  # unnormalized
    with pytest.raises(MddInputError):
        m.level_probabilities([(0.5, 0.5)] * 4)  # wrong arity
    with pytest.raises(MddInputError):
        m.level_probabilities([(1.0, 0.0, 0.0)] * 3)  # missing component


@pytest.mark.parametrize("depends_on_memory", [False, True], ids=["reduced-away", "branching"])
def test_level_probabilities_rejects_nan_naming_the_component(depends_on_memory):
    # before, NaN passed the range and sum tests: on a component the
    # diagram reduced away the query answered (1.0, 0.0, 0.0), and on a
    # branching one the error named no component
    f = (lambda sv: max(sv.levels[:2])) if depends_on_memory else (lambda sv: sv.levels[0])
    m = build_from_structure_function(COMPS4, [3] * 4, f)
    dists = [(1.0, 0.0, 0.0), (math.nan, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    with pytest.raises(MddInputError, match=r"^distribution for vm\.memory has probabilities outside \[0, 1\]$"):
        m.level_probabilities(dists)


@pytest.mark.parametrize("entry", ["1", True, None, "x"], ids=["numeric-string", "bool", "none", "string"])
def test_level_probabilities_refuses_an_entry_that_is_not_a_number_naming_the_component(entry):
    # before, ("1", "0", "0") and (True, False, False) were read as
    # (1.0, 0.0, 0.0), and "x" raised a ValueError naming no component
    m = _max_mdd()
    dists = [(1.0, 0.0, 0.0), (entry, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    want = rf"^distribution for vm\.memory has {re.escape(repr(entry))}, not a number$"
    with pytest.raises(MddInputError, match=want):
        m.level_probabilities(dists)


def test_level_probabilities_takes_integer_entries_as_floats():
    got = _max_mdd().level_probabilities([(1, 0, 0), (0, 1, 0), (1, 0, 0), (1.0, 0.0, 0)])
    assert got.probs == (0.0, 1.0, 0.0)
    assert all(type(p) is float for p in got.probs)


def test_to_dot_mentions_components_and_sinks():
    text = _max_mdd().to_dot()
    assert text.startswith("digraph")
    for comp in COMPS4:
        assert comp.key in text
    assert '[shape=box, label="2"]' in text


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: Mdd(COMPS4, [3, 3, 3]), "one arity per component required"),
        (lambda: Mdd((), ()), "at least one component required"),
        (lambda: Mdd(COMPS4[:2], [3, 1]), f"component {COMPS4[1].key} needs arity >= 2, got 1"),
        (lambda: build_from_structure_function(COMPS4[:1], [2], lambda sv: -1),
         "structure function returned negative level -1"),
    ],
    ids=["arities-mismatched", "no-components", "arity-1", "negative-level"],
)
def test_each_model_check_names_what_it_refuses(call, named):
    with pytest.raises(InvalidModelError, match=f"^{re.escape(named)}$"):
        call()
