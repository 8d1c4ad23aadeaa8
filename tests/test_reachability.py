"""Reachability audit of ``src/afdi``: every function defined there is
called by a production entry point, or is on ``ALLOWED`` with the reason
no entry point calls it.

``run_entry_points`` runs, in one process under ``sys.setprofile``:

- ``afdi simulate`` on the four fixture scenarios, one of them with ``--seed``;
- ``afdi diagnose`` on those streams, and on one rewritten with compact
  separators, which the reader decodes instead of scanning;
- ``scripts/make_fixtures.py``, writing into a temporary directory;
- ``afdi train`` and ``afdi evaluate`` on a small labeled CSV;
- ``afdi mdd`` with ``--query``, ``--dists`` and ``--dot``;
- ``afdi bn-query`` on both networks, with and without evidence, and
  once with a state its node does not have, which exits 1.

The tests run it in a fresh interpreter that sets the profile before it
imports ``afdi``, so calls made at import count, and what earlier tests
imported does not.  Run this file as a script, with ``src`` on
``PYTHONPATH``, to print the ``(module, first line, name)`` of each
function reached.

A function is named by its module (``afdi`` for the package itself) and
its qualified name, such as ``states.SampleColumns.raise_first``.  A failure
here means one of three things: a function no entry point calls, which
should be deleted, made reachable or allowed with its reason; an allowed
function that a run now calls, whose entry should go; or an allowed name
that no longer exists.
"""

import contextlib
import csv
import functools
import importlib.util
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "afdi"
FIXTURES = ROOT / "fixtures"

SCENARIOS = ("scenario_healthy", "scenario_endless_loop", "scenario_serious_crash", "scenario_800")

_PERFBENCH = "patched or called by perfbench; retired with its benchmark names (ROADMAP item 8)"
_WAITING = "made reachable by alarm scoring (ROADMAP item 6) or sensors in the run (item 9)"
_STREAMED = "the filter fed in pieces, which `afdi diagnose` does once it feeds chunks (ROADMAP item 2 Phase B)"

# qualified name -> why no entry point calls it
ALLOWED = {
    # -- pinned by perfbench until item 8
    "bayesnet.Factor.multiply": _PERFBENCH,
    "bayesnet.Factor.sum_out": _PERFBENCH,
    "bayesnet.Factor.reduce": _PERFBENCH,
    "bayesnet.joint_probability": _PERFBENCH,
    "states.discretize": _PERFBENCH,
    "states.read_metric_samples": _PERFBENCH,
    "states.SampleColumns.__iter__": _PERFBENCH + "; iterates read_metric_samples' columns",
    "simulator.read_labels": _PERFBENCH,
    "simulator.read_labels.<locals>.label": _PERFBENCH + "; parses a row of read_labels",
    # -- the reference side of a test, or API no command calls
    "bayesnet.Factor.__post_init__": "builds the factors of tests/oracles.bn_eliminate",
    "bayesnet.Factor.value_at": "read by the factor tests in tests/test_bayesnet.py",
    "bayesnet.Factor.from_cpt": "builds the factors of tests/oracles.bn_eliminate",
    "states.MetricSample.__new__": "the checked constructor for callers; the reader and the simulator "
    "build checked samples with tuple.__new__",
    "nbc.write_training_csv": "library API; the tests write their training data with it",
    "evaluation.ConfusionMatrix.from_counts": "library API; the acceptance tests call it",
    "engine.Engine.process_stream": "list form for library callers and the acceptance criteria; "
    "`afdi diagnose` streams through `Engine.alarms`",
    # -- waiting on item 2 Phase B
    "engine.SeriesFilter.feed": _STREAMED,
    "engine._overlay": _STREAMED + "; reads a replacement its pass has not yet written to the buffer",
    # -- waiting on items 6 and 9
    "engine._check_alarm": _WAITING,
    "engine.Alarm.__new__": _WAITING,
    "engine.Alarm.to_json_obj": _WAITING,
    "engine.VirtualSensor.__new__": _WAITING,
    "engine.VirtualSensor.deliveries": _WAITING,
    # -- error paths, each reached by a test
    "states._line_record": "decodes a chunk with a bad record line by line; test_states.py::"
    "test_reader_accepts_and_rejects_the_lines_the_per_line_reader_does",
    "evaluation.UndefinedMetricError.__init__": "a ratio with a zero denominator; test_evaluation.py::"
    "test_undefined_metrics",
    # -- methods Python calls on demand
    "states._Record.__repr__": "repr() of a record, as in a test's failure message",
    "states._Frozen.__setattr__": "an assignment to a frozen record, which it refuses",
    "states._Frozen.__delattr__": "a deletion from a frozen record, which it refuses",
    "states._Frozen.__reduce__": "pickle and copy of a frozen record",
    "afdi.__dir__": "dir(afdi)",
}


def _module(path) -> str:
    name = pathlib.Path(path).stem
    return "afdi" if name == "__init__" else name


def defined_functions() -> dict[tuple, str]:
    """Each function a ``def`` in ``src/afdi`` compiles to, keyed
    ``(module, first line, name)``, with its qualified name.  A lambda or
    a comprehension is an expression of the function around it, and is
    not audited on its own."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = _module(path)
        todo = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{module}.")]
        while todo:
            code, prefix = todo.pop()
            for inner in code.co_consts:
                if isinstance(inner, types.CodeType):
                    name = prefix + inner.co_name
                    is_function = bool(inner.co_flags & inspect.CO_NEWLOCALS)
                    if is_function and not inner.co_name.startswith("<"):
                        found[module, inner.co_firstlineno, inner.co_name] = name
                    todo.append((inner, name + (".<locals>." if is_function else ".")))
    return found


def _cli(*argv, status: int = 0) -> None:
    from afdi import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    assert code == status, argv


def _entry_points(tmp: pathlib.Path) -> None:
    config = FIXTURES / "engine_config.json"
    for i, name in enumerate(SCENARIOS):
        metrics, labels = tmp / f"{name}.jsonl", tmp / f"{name}.csv"
        seed = ("--seed", 11) if i == 0 else ()
        _cli("simulate", "--scenario", FIXTURES / f"{name}.json", "--out-metrics", metrics, "--out-labels", labels,
             *seed)
        _cli("diagnose", "--config", config, "--metrics", metrics, "--out-alarms", tmp / f"{name}.alarms.jsonl")
    # the same stream with compact separators, which the scan does not match
    compact = tmp / "compact.jsonl"
    with open(tmp / f"{SCENARIOS[0]}.jsonl", encoding="utf-8") as src, open(compact, "w", encoding="utf-8") as out:
        out.writelines(json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n" for line in src)
    _cli("diagnose", "--config", config, "--metrics", compact, "--out-alarms", tmp / "compact.alarms.jsonl")

    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    make_fixtures.FIXTURES = str(tmp / "fixtures")
    with contextlib.redirect_stdout(io.StringIO()):
        make_fixtures.main()

    # one example per class, each attribute at the class's bucket, one cell missing
    with open(FIXTURES / "nbc_schema.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    data = tmp / "train.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        rows = [[c % 4] * len(schema["attributes"]) + [label] for c, label in enumerate(schema["classes"])]
        rows[0][0] = ""
        csv.writer(fh).writerows([[key for key, _ in schema["attributes"]] + ["label"], *rows])
    _cli("train", "--data", data, "--schema", FIXTURES / "nbc_schema.json", "--out-model", tmp / "model.json")
    _cli("evaluate", "--model", tmp / "model.json", "--data", data, "--report", tmp / "report.json")

    _cli("mdd", "--table", FIXTURES / "mdd_max4.csv", "--query", "0,1,2,1",
         "--dists", FIXTURES / "uniform_dists.json", "--dot", tmp / "mdd.dot")

    for net in ("subsystem_net.json", "case_study_net.json"):
        _cli("bn-query", "--net", FIXTURES / net, "--query", "S")
        _cli("bn-query", "--net", FIXTURES / net, "--query", "CPU", "--evidence", "S=serious", "--evidence", "Memory=0")
    # a state the node does not have, which the evidence table misses
    _cli("bn-query", "--net", FIXTURES / "case_study_net.json", "--query", "S", "--evidence", "CPU=hot", status=1)


def run_entry_points() -> list:
    """The ``(module, first line, name)`` of each ``src/afdi`` function
    that the entry points call, in this process."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            _entry_points(pathlib.Path(tmp))
        finally:
            sys.setprofile(None)
    package = os.path.realpath(PACKAGE)
    return sorted(
        (_module(code.co_filename), code.co_firstlineno, code.co_name)
        for code in reached
        if os.path.dirname(os.path.realpath(code.co_filename)) == package
    )


@functools.cache
def _audit() -> tuple[set, set]:
    """The qualified names of the functions the entry points reach, and
    of those they do not, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    reached = {tuple(key) for key in json.loads(res.stdout)}
    defined = defined_functions()
    return ({name for key, name in defined.items() if key in reached},
            {name for key, name in defined.items() if key not in reached})


def test_every_function_is_reached_by_an_entry_point_or_allowed():
    _, unreached = _audit()
    assert sorted(unreached - set(ALLOWED)) == []


def test_no_allowed_function_is_reached():
    reached, _ = _audit()
    assert sorted(reached & set(ALLOWED)) == []


def test_every_allowed_function_exists():
    assert sorted(set(ALLOWED) - set(defined_functions().values())) == []


if __name__ == "__main__":
    json.dump(run_entry_points(), sys.stdout)
