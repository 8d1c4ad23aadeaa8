import itertools
import json
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from afdi.bayesnet import (
    DiscreteBayesNet,
    Factor,
    ImpossibleEvidenceError,
    NetLoadError,
    NetNode,
    joint_probability,
    load_net,
    marginal,
    posterior_given_evidence,
)
from afdi.nbc import load_model

import oracles
from conftest import fixture_path, load_script

ANCHOR_NORMAL = (0.899, 0.0685, 0.0325)
ANCHOR_SERIOUS = (0.0321, 0.1728, 0.7951)


@pytest.fixture(scope="module")
def subsystem_net():
    return load_net(fixture_path("subsystem_net.json"))


@pytest.fixture(scope="module")
def case_net():
    return load_net(fixture_path("case_study_net.json"))


def test_fixture_loads_three_roots_one_child(subsystem_net):
    net = subsystem_net
    roots = [n for n in net.nodes if not n.parents]
    children = [n for n in net.nodes if n.parents]
    assert len(roots) == 3 and len(children) == 1
    assert children[0].name == "S"
    assert children[0].parents == ("Memory", "CPU", "Network")
    assert len(net.cpts["S"]) == 27
    assert net.load_warnings == []


def test_anchor_rows_survive_load_bit_exact(subsystem_net):
    assert subsystem_net.cpts["S"][0] == ANCHOR_NORMAL
    assert subsystem_net.cpts["S"][26] == ANCHOR_SERIOUS


def test_marginal_all_normal_anchor_exact(subsystem_net):
    dist = marginal(subsystem_net, "S")
    assert dist.probs == ANCHOR_NORMAL


def test_marginal_of_root_is_its_prior(subsystem_net, case_net):
    assert marginal(subsystem_net, "Memory").probs == (1.0, 0.0, 0.0)
    got = marginal(case_net, "Memory").probs
    for g, w in zip(got, (0.8, 0.15, 0.05)):
        assert abs(g - w) <= 1e-12


def test_joint_probability(subsystem_net):
    assert joint_probability(
        subsystem_net, {"Memory": 0, "CPU": 0, "Network": 0, "S": 0}
    ) == 0.899
    assert joint_probability(
        subsystem_net, {"Memory": 1, "CPU": 0, "Network": 0, "S": 0}
    ) == 0.0  # one-hot prior zeroes the path
    with pytest.raises(ValueError):
        joint_probability(subsystem_net, {"Memory": 0})


def test_joint_sums_to_one(subsystem_net, case_net):
    for net in (subsystem_net, case_net):
        total = sum(
            joint_probability(net, dict(zip(net.names, combo)))
            for combo in itertools.product(*(range(net.node(n).card) for n in net.names))
        )
        assert abs(total - 1.0) <= 1e-9


def test_joint_accepts_state_names(subsystem_net):
    assert joint_probability(
        subsystem_net,
        {"Memory": "normal", "CPU": "normal", "Network": "normal", "S": "normal"},
    ) == 0.899


def test_case_study_prior_renormalized_with_warning(case_net):
    assert any("CPU" in w for w in case_net.load_warnings)
    cpu = marginal(case_net, "CPU").probs
    assert abs(sum(cpu) - 1.0) <= 1e-12
    # renormalized from (0.001, 0.425, 0.573) whose sum is 0.999
    for got, raw in zip(cpu, (0.001, 0.425, 0.573)):
        assert abs(got - raw / 0.999) <= 1e-12


def test_case_study_marginal_matches_enumeration(case_net):
    got = marginal(case_net, "S").probs
    want = oracles.bn_enumerate(case_net, "S")
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9


def test_posterior_matches_enumeration(case_net):
    for query in ("CPU", "Memory", "Network"):
        got = posterior_given_evidence(case_net, query, {"S": "serious"}).probs
        want = oracles.bn_enumerate(case_net, query, {"S": 2})
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9


def test_empty_evidence_equals_marginal(case_net):
    a = posterior_given_evidence(case_net, "S", {})
    b = marginal(case_net, "S")
    assert a.probs == b.probs


def test_elimination_order_independence(subsystem_net, case_net):
    for net in (subsystem_net, case_net):
        reference = marginal(net, "S", ["Memory", "CPU", "Network"]).probs
        for order in itertools.permutations(["Memory", "CPU", "Network"]):
            got = marginal(net, "S", list(order)).probs
            for g, w in zip(got, reference):
                assert abs(g - w) <= 1e-12


def test_invalid_elimination_order(subsystem_net):
    with pytest.raises(ValueError):
        marginal(subsystem_net, "S", ["Memory", "CPU"])  # Network missing
    with pytest.raises(ValueError):
        marginal(subsystem_net, "S", ["Memory", "CPU", "Network", "S"])


def test_deterministic_child_inverts_to_one_hot():
    # child copies its parent; seeing the child pins the parent
    doc = {
        "nodes": [
            {"name": "p", "states": ["a", "b", "c"], "parents": [], "cpt": [[0.2, 0.5, 0.3]]},
            {
                "name": "child",
                "states": ["a", "b", "c"],
                "parents": ["p"],
                "cpt": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            },
        ]
    }
    net = load_net(doc)
    post = posterior_given_evidence(net, "p", {"child": 2})
    assert post.probs == (0.0, 0.0, 1.0)


def test_parents_fully_observed_reads_off_cpt(case_net):
    # needs the case net: its priors give every parent state positive
    # mass, so any parent combination is observable
    post = posterior_given_evidence(case_net, "S", {"Memory": 1, "CPU": 2, "Network": 0})
    row = case_net.cpts["S"][1 * 9 + 2 * 3 + 0]
    for g, w in zip(post.probs, row):
        assert abs(g - w) <= 1e-12


def test_impossible_evidence_is_an_error(subsystem_net):
    # one-hot priors make Memory=serious impossible
    with pytest.raises(ImpossibleEvidenceError):
        posterior_given_evidence(subsystem_net, "S", {"Memory": 2, "CPU": 0, "Network": 0})


def test_evidence_on_query_rejected(subsystem_net):
    with pytest.raises(ValueError):
        posterior_given_evidence(subsystem_net, "S", {"S": 0})


def test_chain_rule_partial_marginal(case_net):
    # summing the joint over all states of S, everything else fixed,
    # equals the product of the root priors for that fixing
    for memory, cpu, network in itertools.product(range(3), repeat=3):
        total = sum(
            joint_probability(
                case_net, {"Memory": memory, "CPU": cpu, "Network": network, "S": s}
            )
            for s in range(3)
        )
        want = (
            case_net.cpts["Memory"][0][memory]
            * case_net.cpts["CPU"][0][cpu]
            * case_net.cpts["Network"][0][network]
        )
        assert abs(total - want) <= 1e-12


def test_load_rejects_bad_documents():
    with pytest.raises(NetLoadError):
        load_net({"nodes": []})
    with pytest.raises(NetLoadError):  # cycle
        load_net(
            {
                "nodes": [
                    {"name": "a", "states": ["0", "1"], "parents": ["b"], "cpt": [[0.5, 0.5]] * 2},
                    {"name": "b", "states": ["0", "1"], "parents": ["a"], "cpt": [[0.5, 0.5]] * 2},
                ]
            }
        )
    with pytest.raises(NetLoadError):  # unknown parent
        load_net(
            {"nodes": [{"name": "a", "states": ["0", "1"], "parents": ["ghost"], "cpt": [[0.5, 0.5]]}]}
        )
    with pytest.raises(NetLoadError):  # wrong row count
        load_net(
            {
                "nodes": [
                    {"name": "a", "states": ["0", "1"], "parents": [], "cpt": [[0.5, 0.5]]},
                    {"name": "b", "states": ["0", "1"], "parents": ["a"], "cpt": [[0.5, 0.5]]},
                ]
            }
        )
    with pytest.raises(NetLoadError):  # row width
        load_net({"nodes": [{"name": "a", "states": ["0", "1"], "parents": [], "cpt": [[1.0]]}]})


ROOT_A = {"name": "a", "states": ["x", "y"], "parents": [], "cpt": [[0.5, 0.5]]}
CHILD_B = {"name": "b", "states": ["x", "y"], "parents": ["a"], "cpt": [[0.5, 0.5], [0.5, 0.5]]}


def _net(**b):
    return {"nodes": [ROOT_A, {**CHILD_B, **b}]}


@pytest.mark.parametrize(
    "doc, named",
    [
        ([1], r"network document must be a JSON object, got \[1\]"),
        ({"nodes": {"a": 1}}, r"network document: nodes must be a JSON array, got \{\"a\": 1\}"),
        ({**_net(), "title": "x"}, r"unknown keys \['title'\] in network document"),
        ({**_net(), "notes": 5}, r"network document: notes must be a JSON string, got 5"),
        (_net(parents="a"), r"node 1: parents must be a JSON array of strings, got \"a\""),
        (_net(states="xy"), r"node 1: states must be a JSON array of strings, got \"xy\""),
        (_net(name=5), r"node 1: name must be a JSON string, got 5"),
        (_net(cpt=[["0.5", "0.5"], [0.5, 0.5]]),
         r"node 1: cpt must be a JSON array of arrays of numbers, "
         r"got \[\[\"0\.5\", \"0\.5\"\], \[0\.5, 0\.5\]\]"),
        (_net(cpt=[[True, False], [0.5, 0.5]]),
         r"node 1: cpt must be a JSON array of arrays of numbers, got \[\[true, false\], "),
        (_net(cpts=[[0.5, 0.5]]), r"unknown keys \['cpts'\] in node 1"),
        ({"nodes": [ROOT_A, {k: v for k, v in CHILD_B.items() if k != "states"}]},
         r"node 1 missing field 'states'"),
    ],
    ids=[
        "document-list", "nodes-object", "unknown-top-key", "notes-number", "parents-string",
        "states-string", "name-number", "cpt-strings", "cpt-booleans", "unknown-node-key",
        "states-missing",
    ],
)
def test_load_net_rejects_unknown_keys_and_wrong_json_kinds(tmp_path, doc, named):
    # before, str() and float() took most of these: "a" as the parent list
    # ["a"], "xy" as two states, "0.5" and true as probabilities, and an
    # unknown key was ignored
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetLoadError, match=named):
        load_net(path)


def test_load_net_takes_integer_probabilities_as_floats():
    net = load_net({"nodes": [{**ROOT_A, "cpt": [[1, 0]]}]})
    assert net.cpts["a"] == ((1.0, 0.0),)
    assert all(type(p) is float for p in net.cpts["a"][0])


def test_load_row_sum_cascade():
    def doc_with_row(row):
        return {"nodes": [{"name": "a", "states": ["0", "1"], "parents": [], "cpt": [row]}]}

    # far off: rejected, message names the node
    with pytest.raises(NetLoadError, match="'a'"):
        load_net(doc_with_row([0.5, 0.4]))
    # small drift: renormalized with a warning record
    net = load_net(doc_with_row([0.5, 0.49]))
    assert len(net.load_warnings) == 1
    assert abs(sum(net.cpts["a"][0]) - 1.0) <= 1e-12
    # exact: kept bit-for-bit, no warning
    net = load_net(doc_with_row([0.25, 0.75]))
    assert net.cpts["a"][0] == (0.25, 0.75)
    assert net.load_warnings == []


def test_random_nets_match_enumeration():
    rng = random.Random(20250825)
    for trial in range(100):
        net = load_net(oracles.random_net_doc(rng))
        names = list(net.names)
        query = rng.choice(names)
        got = marginal(net, query).probs
        want = oracles.bn_enumerate(net, query)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9, f"trial {trial} marginal({query})"
        others = [n for n in names if n != query]
        if others:
            ev_node = rng.choice(others)
            ev_state = rng.randrange(net.node(ev_node).card)
            try:
                got = posterior_given_evidence(net, query, {ev_node: ev_state}).probs
            except ImpossibleEvidenceError:
                with pytest.raises(ZeroDivisionError):
                    oracles.bn_enumerate(net, query, {ev_node: ev_state})
                continue
            want = oracles.bn_enumerate(net, query, {ev_node: ev_state})
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9, f"trial {trial} posterior({query}|{ev_node})"


def test_factor_multiply_sum_out_consistency():
    f = Factor(("a", "b"), (2, 3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    g = Factor(("b",), (3,), [2.0, 1.0, 0.5])
    product = f.multiply(g)
    assert product.scope == ("a", "b")
    assert product.value_at({"a": 1, "b": 0}) == 0.4 * 2.0
    summed = product.sum_out("b")
    assert summed.scope == ("a",)
    assert abs(summed.values[0] - (0.1 * 2 + 0.2 * 1 + 0.3 * 0.5)) <= 1e-12
    reduced = f.reduce("a", 1)
    assert reduced.scope == ("b",)
    assert reduced.values == [0.4, 0.5, 0.6]


# -- strict states ---------------------------------------------------


@pytest.mark.parametrize(
    "state, named",
    [
        (1.7, r"state 1\.7 for node 'CPU' is neither a state name nor an integer index"),
        (True, r"state True for node 'CPU' is neither a state name nor an integer index"),
        (None, r"state None for node 'CPU' is neither a state name nor an integer index"),
        (1.0, r"state 1\.0 for node 'CPU' is neither a state name nor an integer index"),
        ([1], r"state \[1\] for node 'CPU' is neither a state name nor an integer index"),
    ],
    ids=["float", "bool", "none", "float-equal-to-an-index", "unhashable"],
)
def test_evidence_state_is_a_name_or_an_int(case_net, state, named):
    # before, int() read 1.7 and True as state 1
    with pytest.raises(ValueError, match=named):
        posterior_given_evidence(case_net, "S", {"CPU": state})


@pytest.mark.parametrize(
    "state, named",
    [
        (0.9, r"state 0\.9 for node 'CPU' is neither a state name nor an integer index"),
        (False, r"state False for node 'CPU' is neither a state name nor an integer index"),
    ],
    ids=["float", "bool"],
)
def test_joint_state_is_a_name_or_an_int(case_net, state, named):
    # before, int() read 0.9 and False as state 0
    with pytest.raises(ValueError, match=named):
        joint_probability(case_net, {"Memory": 0, "CPU": state, "Network": 0, "S": 0})


def test_evidence_and_assignments_must_be_mappings(case_net):
    # before, both ended in a bare AttributeError
    with pytest.raises(ValueError, match=r"expected a mapping of node names to states, got \[\('CPU', 1\)\]"):
        posterior_given_evidence(case_net, "S", [("CPU", 1)])
    with pytest.raises(ValueError, match=r"expected a mapping of node names to states, got \['CPU', "):
        joint_probability(case_net, ["CPU", "Memory", "Network", "S"])


def test_evidence_given_as_none_is_no_evidence(case_net):
    assert posterior_given_evidence(case_net, "S", None).probs == marginal(case_net, "S").probs


# -- compiled eliminations against the factor-by-factor oracle --------
#
# Every answer must be the very float ``oracles.bn_eliminate`` gets by
# building, reducing, multiplying and summing ``Factor`` objects afresh.


def _naive_bayes_net():
    return load_net(oracles.naive_bayes_net_doc(load_model(fixture_path("nbc_model.json"))))


NB_NET = _naive_bayes_net()
NB_ATTRS = [n.name for n in NB_NET.nodes if n.name != "class"]


def _assert_exact(net, query, evidence, order=None):
    """The library's answer is the oracle's bit for bit, or both find the
    evidence impossible."""
    try:
        want = oracles.bn_eliminate(net, query, evidence, order)
    except ZeroDivisionError:
        with pytest.raises(ImpossibleEvidenceError):
            posterior_given_evidence(net, query, evidence)
        return
    if order is None:
        assert posterior_given_evidence(net, query, evidence).probs == want, (query, evidence)
    else:
        assert marginal(net, query, order).probs == want, (query, order)


def test_naive_bayes_net_every_full_vector_exact_with_one_plan():
    net = _naive_bayes_net()
    for vec in itertools.product(*(range(net.node(a).card) for a in NB_ATTRS)):
        _assert_exact(net, "class", dict(zip(NB_ATTRS, vec)))
    # plans are keyed by the observed nodes, never by their states
    assert len(net._plans) == 1


@given(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=6, max_size=6))
def test_naive_bayes_net_partial_vectors_exact(features):
    _assert_exact(NB_NET, "class", {a: v for a, v in zip(NB_ATTRS, features) if v is not None})


# the 73 case-study queries the kernel table times
case_study_queries = load_script("stage_times").case_study_queries

CHILD_ASKS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import child
from afdi.bayesnet import load_net
from afdi.nbc import load_model
print(json.dumps([child.case_study_queries(load_net(sys.argv[3])), child.equivalent_net(load_model(sys.argv[4]))]))
"""


def test_the_kernel_table_asks_what_the_benchmark_asks():
    # perfbench/child.py keeps its own case-study queries and encoded
    # network; its import of the host-speed probe stays in a child process
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_ASKS, str(root / "src"), str(root / "perfbench"),
         fixture_path("case_study_net.json"), fixture_path("nbc_model.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    queries, encoded = json.loads(proc.stdout)
    assert queries == [list(q) for q in case_study_queries(load_net(fixture_path("case_study_net.json")))]
    assert encoded == load_script("stage_times").equivalent_net(load_model(fixture_path("nbc_model.json")))


def test_case_study_queries_exact_on_both_nets():
    for name in ("subsystem_net.json", "case_study_net.json"):
        net = load_net(fixture_path(name))
        queries = case_study_queries(net)
        assert len(queries) == 73
        for query, evidence in queries:
            _assert_exact(net, query, evidence)
        # one plan per query node and set of evidence nodes
        assert len(net._plans) == 11


def test_every_elimination_order_exact(subsystem_net, case_net):
    for net in (subsystem_net, case_net):
        for query in net.names:
            others = [n for n in net.names if n != query]
            for order in itertools.permutations(others):
                _assert_exact(net, query, {}, list(order))


def test_random_nets_every_query_exact():
    rng = random.Random(20261018)
    for _ in range(100):
        net = load_net(oracles.random_net_doc(rng))
        for query in net.names:
            _assert_exact(net, query, {})
            others = [n for n in net.names if n != query]
            for _ in range(4):
                observed = rng.sample(others, rng.randint(0, len(others)))
                evidence = {n: rng.randrange(net.node(n).card) for n in observed}
                _assert_exact(net, query, evidence)


def test_cached_plans_keep_every_check():
    net = load_net(fixture_path("subsystem_net.json"))
    evidence = {"Memory": 0, "CPU": 0, "Network": 0}
    posterior_given_evidence(net, "S", evidence)
    marginal(net, "S", ["Memory", "CPU", "Network"])
    plans = dict(net._plans)
    # the same observed set, so the same plan, with impossible states
    with pytest.raises(ImpossibleEvidenceError):
        posterior_given_evidence(net, "S", {"Memory": 2, "CPU": 0, "Network": 0})
    with pytest.raises(ValueError, match="already fixes the query"):
        posterior_given_evidence(net, "S", {**evidence, "S": 0})
    with pytest.raises(ValueError, match="must cover exactly"):
        marginal(net, "S", ["Memory", "CPU"])
    with pytest.raises(ValueError, match="unknown node"):
        posterior_given_evidence(net, "T", evidence)
    with pytest.raises(ValueError, match="no state"):
        posterior_given_evidence(net, "S", {**evidence, "CPU": "hot"})
    assert net._plans == plans


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda: posterior_given_evidence(load_net(_net()), "b", {"a": 2}), ValueError,
         "state 2 outside 0..1 for node 'a'"),
        (lambda: load_net({"nodes": [ROOT_A, ROOT_A]}), NetLoadError, "duplicate node names"),
        (lambda: load_net({"nodes": [{**ROOT_A, "states": ["x"], "cpt": [[1.0]]}]}), NetLoadError,
         "node 'a' needs at least 2 states"),
        (lambda: load_net({"nodes": [{**ROOT_A, "cpt": [[1.5, -0.5]]}]}), NetLoadError,
         "node 'a' row 0: negative probability"),
        (lambda: Factor(("a",), (2,), [1.0]), ValueError, "factor over ('a',) needs 2 values, got 1"),
        (lambda: Factor(("a",), (2,), [0.5, 0.5]).sum_out("b"), ValueError, "'b' not in factor scope ('a',)"),
    ],
    ids=["state-out-of-range", "duplicate-names", "one-state", "negative-entry", "factor-size", "sum-out-stranger"],
)
def test_each_input_check_names_what_it_refuses(call, error, named):
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        call()


# -- the compiled kernel's limits --------------------------------------


def _generated_only(net):
    """Every plan and normalizer the net compiled holds only integers,
    floats and names made for it: no text of the network document
    reached ``compile``."""
    for function in (*net._plans.values(), *net._normalizers.values()):
        code = function.__code__
        assert all(c is None or type(c) in (int, float) for c in code.co_consts), code.co_consts
        names = code.co_varnames + code.co_names
        assert all(re.fullmatch(r"[cefks]\d+|ev|normalize|type|[drt]|new|dist|put|abs|float", n) for n in names), names


def test_names_that_are_python_source_never_reach_the_compiler():
    quote, newline, call = 'a"b\'c', "x\ny", '__import__("os").system("exit 3")'
    doc = {"nodes": [
        {"name": call, "states": [quote, newline], "cpt": [[0.3, 0.7]]},
        # names of the generated function's own parameters and locals
        {"name": "ev", "states": ["f0", "c0", call], "parents": [call],
         "cpt": [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]},
        {"name": "\n)\n", "states": ["k0", "b1"], "parents": [call, "ev"],
         "cpt": [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5], [0.25, 0.75], [0.8, 0.2], [0.1, 0.9]]},
    ]}
    net = load_net(doc)
    for query in net.names:
        _assert_exact(net, query, {})
        others = [n for n in net.names if n != query]
        for observed in itertools.chain.from_iterable(itertools.combinations(others, k) for k in (1, 2)):
            for states in itertools.product(*(range(net.node(n).card) for n in observed)):
                _assert_exact(net, query, dict(zip(observed, states)))
                by_name = {n: net.node(n).states[s] for n, s in zip(observed, states)}
                assert posterior_given_evidence(net, query, by_name) == posterior_given_evidence(
                    net, query, dict(zip(observed, states)))
    _generated_only(net)


def test_a_five_thousand_state_node_sums_through_bounded_chains():
    # each sum over the big node adds 5,000 terms, past the depth at
    # which CPython 3.11 fails to compile one flat chain of additions
    rng = random.Random(5000)
    big = [rng.random() + 1e-3 for _ in range(5000)]
    rows = [[p, 1.0 - p] for p in (rng.random() for _ in range(5000))]
    net = load_net({"nodes": [
        {"name": "big", "states": [f"s{i}" for i in range(5000)], "cpt": [[p / sum(big) for p in big]]},
        {"name": "small", "states": ["lo", "hi"], "parents": ["big"], "cpt": rows},
    ]})
    for query in ("big", "small"):
        _assert_exact(net, query, {})
    _assert_exact(net, "big", {"small": 1})
    _assert_exact(net, "small", {"big": 4321})
    assert posterior_given_evidence(net, "small", {"big": "s4321"}).probs == tuple(
        oracles.bn_eliminate(net, "small", {"big": 4321}))
    _generated_only(net)


def test_a_product_of_three_thousand_factors_compiles():
    # all 3,000 children of the root observed: the answer multiplies
    # 3,001 tables, a product nested deeper than the compiler allows
    rng = random.Random(3000)
    children = [
        {"name": f"n{i}", "states": ["x", "y"], "parents": ["root"], "cpt": [[p, 1.0 - p], [q, 1.0 - q]]}
        for i, (p, q) in enumerate((rng.uniform(0.98, 0.999), rng.uniform(0.98, 0.999)) for _ in range(3000))
    ]
    net = load_net({"nodes": [{"name": "root", "states": ["a", "b"], "cpt": [[0.5, 0.5]]}, *children]})
    # mostly the likely state, so the product stays far from underflow
    evidence = {child["name"]: int(i % 500 == 7) for i, child in enumerate(children)}
    # the product Factor forms: the root's prior times each child's
    # reduced table in turn, from the left
    cells = [0.5, 0.5]
    for child in net.nodes[1:]:
        table = net.cpts[child.name]
        cells = [cells[r] * table[r][evidence[child.name]] for r in range(2)]
    total = cells[0] + cells[1]
    want = tuple(c / total for c in cells) if abs(total - 1.0) > 1e-12 else tuple(cells)
    assert posterior_given_evidence(net, "root", evidence).probs == want
    _generated_only(net)


@pytest.mark.parametrize(
    "evidence, named",
    [
        ({"CPU": -1}, "state -1 outside 0..2 for node 'CPU'"),
        ({"Memory": 0, "GPU": 0}, "unknown node 'GPU'"),
        ({"Memory": "nominal", "CPU": "hot"}, "node 'Memory' has no state 'nominal'"),
    ],
    ids=["negative-index", "unknown-node", "first-bad-state-named"],
)
def test_evidence_the_state_table_misses_keeps_its_message(case_net, evidence, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        posterior_given_evidence(case_net, "S", evidence)


def test_evidence_table_answers_as_state_index_does():
    class Name(str):
        pass

    # two states share a name: the first one is meant, as list.index finds it
    net = load_net({"nodes": [{**ROOT_A, "states": ["x", "x", "y"], "cpt": [[0.2, 0.3, 0.5]]},
                              {**CHILD_B, "cpt": [[0.5, 0.5], [0.9, 0.1], [0.3, 0.7]]}]})
    for state in (0, 1, 2, "x", "y", Name("x"), Name("y")):
        want = oracles.bn_eliminate(net, "b", {"a": net.state_index("a", state)})
        assert posterior_given_evidence(net, "b", {"a": state}).probs == want


def test_a_sum_of_negative_zeros_is_positive_zero_as_in_factor():
    # every sum-out starts from 0.0, so -0.0 + -0.0 never reaches an answer
    net = load_net({"nodes": [ROOT_A, {**CHILD_B, "cpt": [[-0.0, 1.0], [-0.0, 1.0]]}]})
    want = oracles.bn_eliminate(net, "b")
    assert repr(want) == "(0.0, 1.0)"
    assert repr(marginal(net, "b").probs) == repr(want)


# -- the plan's fast path keeps every check -------------------------------


KEPT_ABOVE_ONE = {"nodes": [
    {"name": "A", "states": ["a0", "a1", "a2", "a3", "a4"],
     "cpt": [[0.1357504537539382, 0.2684674920350294, 0.17194743492308592, 0.11303764512179212,
              0.3107969741661544]]},
    {"name": "B", "states": ["x", "y"], "parents": ["A"], "cpt": [[1.0, 0.0]] * 5},
]}


def test_an_answer_with_an_entry_above_one_is_divided_not_kept():
    # B's first cell adds up A's prior to 1.0000000000000002, within
    # KEEP_TOL of 1; kept as it was, StateDistribution refused it
    net = load_net(KEPT_ABOVE_ONE)
    want = oracles.bn_eliminate(net, "B")
    assert want == (1.0, 0.0)
    assert marginal(net, "B").probs == want
    assert posterior_given_evidence(net, "B", {}).probs == want
    assert marginal(net, "B").probs == want


def _built(row):
    """A net of one two-state root 'a' whose CPT row is ``row``, built
    without load_net's checks."""
    return DiscreteBayesNet([NetNode("a", ("x", "y"), ())], {"a": (row,)}, [], ("a",))


def _case():
    return load_net(fixture_path("case_study_net.json"))


def _subsystem():
    return load_net(fixture_path("subsystem_net.json"))


@pytest.mark.parametrize(
    "make, ask, warm, error, named",
    [
        (_case, lambda net: posterior_given_evidence(net, "T", {"CPU": 1}), ("S", {"CPU": 1}),
         ValueError, "unknown node 'T'"),
        (_case, lambda net: posterior_given_evidence(net, "S", [("CPU", 1)]), ("S", {"CPU": 1}),
         ValueError, "expected a mapping of node names to states, got [('CPU', 1)]"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": True}), ("S", {"CPU": 1}),
         ValueError, "state True for node 'CPU' is neither a state name nor an integer index"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": 1.0}), ("S", {"CPU": 1}),
         ValueError, "state 1.0 for node 'CPU' is neither a state name nor an integer index"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": "hot"}), ("S", {"CPU": 1}),
         ValueError, "node 'CPU' has no state 'hot'"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": 3}), ("S", {"CPU": 1}),
         ValueError, "state 3 outside 0..2 for node 'CPU'"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": [1]}), ("S", {"CPU": 1}),
         ValueError, "state [1] for node 'CPU' is neither a state name nor an integer index"),
        (_case, lambda net: posterior_given_evidence(net, "S", {"CPU": 1, "S": 0}), ("S", {"CPU": 1}),
         ValueError, "evidence already fixes the query node 'S'"),
        (_subsystem, lambda net: posterior_given_evidence(net, "S", {"Memory": 2}), ("S", {"Memory": 0}),
         ImpossibleEvidenceError, "evidence {'Memory': 2} has probability zero"),
        (lambda: _built((0.0, 0.0)), lambda net: marginal(net, "a"), None,
         ValueError, "marginal of 'a' has zero mass; CPTs inconsistent"),
        (lambda: _built((1.5, -0.5)), lambda net: marginal(net, "a"), None,
         ValueError, "distribution entry 0 is 1.5, not a number in [0, 1]"),
        (lambda: _built((Fraction(1, 2), Fraction(1, 2))), lambda net: marginal(net, "a"), None,
         ValueError, "distribution entry 0 is Fraction(1, 2), not a number in [0, 1]"),
    ],
    ids=["unknown-query", "not-a-mapping", "bool", "float", "unknown-name", "int-out-of-range", "unhashable",
         "query-as-evidence", "zero-mass-posterior", "zero-mass-marginal", "entry-above-one", "not-a-float"],
)
def test_each_error_keeps_its_type_and_message_once_its_plan_exists(make, ask, warm, error, named):
    net = make()
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        ask(net)
    if warm is not None:  # the error comes before the plan would compile
        posterior_given_evidence(net, *warm)
    plans = dict(net._plans)
    assert plans
    with pytest.raises(error, match=f"^{re.escape(named)}$"):
        ask(net)
    assert net._plans == plans


def test_a_net_of_integers_answers_in_integers_as_state_distribution_keeps_them():
    net = _built((1, 0))
    for _ in range(2):
        probs = marginal(net, "a").probs
        assert probs == (1, 0) and all(type(p) is int for p in probs)


def test_any_mapping_and_any_order_of_evidence_share_one_plan():
    net = load_net(fixture_path("case_study_net.json"))
    want = posterior_given_evidence(net, "S", {"Memory": 1, "CPU": 2, "Network": 0}).probs
    plans = dict(net._plans)

    class Evidence(dict):
        pass

    for evidence in (
        {"Network": 0, "CPU": 2, "Memory": 1},
        MappingProxyType({"Memory": 1, "CPU": 2, "Network": 0}),
        Evidence(Memory=1, CPU=2, Network=0),
        {"Memory": "minor", "CPU": 2, "Network": "normal"},
    ):
        assert posterior_given_evidence(net, "S", evidence).probs == want
    assert net._plans == plans
