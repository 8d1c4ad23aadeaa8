"""Span recording around the public functions of the ``afdi`` modules.

Only the traced run installs the wrappers; the untraced run calls the
program untouched.  A span is (name, start, end, parent), kept in memory
and written out once the run is over.  A span's self time is its
duration minus the durations of its direct children, so the self times
of a tree add up to the duration of its root.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        # span index -> (args, result) for spans opened with keep=True
        self.kept: dict[int, tuple] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, keep: bool = False):
        names, starts, ends, parents, stack, kept = (
            self.names, self.starts, self.ends, self.parents, self._stack, self.kept,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if keep:
                kept[idx] = (args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")

    def nests(self) -> bool:
        """Every span lies inside its parent's interval."""
        starts, ends = self.starts, self.ends
        return all(
            p < 0 or (starts[p] <= starts[i] and ends[i] <= ends[p])
            for i, p in enumerate(self.parents)
        )

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        durs = self.durations()
        own = list(durs)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= durs[i]
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, summed duration and summed self time (ns)."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            agg = out[name]
            agg["calls"] += 1
            agg["ns"] += dur
            agg["self_ns"] += own
        return out


def _patch(owner, attr: str, tracer: Tracer, name: str, keep: bool = False) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, keep)))
    else:
        setattr(owner, attr, tracer.wrap(name, raw, keep))


def install_diagnose(tracer: Tracer) -> None:
    """Wrap every layer that ``afdi diagnose`` passes through."""
    from afdi import cli, engine, mdd, nbc, states

    read = tracer.wrap("states.read_metric_samples", states.read_metric_samples)
    states.read_metric_samples = read
    cli.read_metric_samples = read  # cli binds the name at import
    discretize = tracer.wrap("states.discretize", states.discretize)
    states.discretize = discretize
    engine.discretize = discretize  # engine binds the name at import
    _patch(states.StateVector, "from_levels", tracer, "states.StateVector.from_levels")
    _patch(mdd.Mdd, "evaluate", tracer, "mdd.evaluate")
    _patch(nbc, "posterior", tracer, "nbc.posterior")
    _patch(nbc, "classify", tracer, "nbc.classify")
    _patch(nbc, "load_model", tracer, "nbc.load_model")
    _patch(engine, "load_config", tracer, "engine.load_config")
    _patch(engine, "preprocess", tracer, "engine.preprocess", keep=True)
    _patch(engine, "collect_windows", tracer, "engine.collect_windows", keep=True)
    _patch(engine.Engine, "step", tracer, "engine.step", keep=True)
    _patch(engine, "write_alarm_log", tracer, "engine.write_alarm_log", keep=True)


def install_reference(tracer: Tracer) -> None:
    """Wrap the classifier and the exact-inference layers."""
    from afdi import bayesnet, nbc

    _patch(nbc, "posterior", tracer, "nbc.posterior")
    _patch(nbc, "load_model", tracer, "nbc.load_model")
    _patch(bayesnet, "load_net", tracer, "bayesnet.load_net")
    _patch(bayesnet, "posterior_given_evidence", tracer, "bayesnet.posterior_given_evidence")
    for op in ("reduce", "multiply", "sum_out"):
        _patch(bayesnet.Factor, op, tracer, f"bayesnet.Factor.{op}")


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def diagnose_layers(tracer: Tracer, root: int, nbc_invocations: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced ``afdi diagnose`` run.

    Returns (metrics, facts): (value, unit) by metric name, and the raw
    counts the output checks compare against the alarm log.
    """
    t = tracer.totals()
    durs = tracer.durations()
    own = tracer.self_times()

    samples = windows = replaced = alarms_written = 0
    step_ns = {0: [], 1: [], 2: []}
    for idx, (args, result) in tracer.kept.items():
        name = tracer.names[idx]
        if name == "engine.preprocess":
            before = list(args[0])
            samples += len(before)
            replaced += sum(1 for a, b in zip(before, result) if a.value != b.value)
        elif name == "engine.collect_windows":
            windows += len(result)
        elif name == "engine.step":
            step_ns[result[0].severity if result else 0].append(durs[idx])
        elif name == "engine.write_alarm_log":
            alarms_written += result

    # attribute each step's alarm to the branch that raised it: a
    # classifier alarm calls nbc.posterior inside the step, a loop alarm
    # is an nbc_diagnosis alarm that does not
    classified = set()
    for i, name in enumerate(tracer.names):
        if name == "nbc.posterior":
            p = tracer.parents[i]
            while p >= 0 and tracer.names[p] != "engine.step":
                p = tracer.parents[p]
            classified.add(p)
    gate = nbc_alarms = loop = 0
    for idx, (_, result) in tracer.kept.items():
        if tracer.names[idx] != "engine.step" or not result:
            continue
        if result[0].trigger == "severity_gate":
            gate += 1
        elif idx in classified:
            nbc_alarms += 1
        else:
            loop += 1

    minor = len(step_ns[1])
    steps = t["engine.step"]["calls"]
    us = 1e-3
    m = {
        "states.read_metric_samples.us_per_sample": (
            _per(t["states.read_metric_samples"]["ns"] * us, samples), "us/sample"),
        "engine.preprocess.us_per_sample": (_per(t["engine.preprocess"]["ns"] * us, samples), "us/sample"),
        "engine.preprocess.replaced_share": (_per(replaced, samples), "ratio"),
        "engine.preprocess.replaced": (replaced, "count"),
        "engine.collect_windows.us_per_window": (_per(t["engine.collect_windows"]["ns"] * us, windows), "us/window"),
        "engine.step.self_us_per_window": (_per(t["engine.step"]["self_ns"] * us, steps), "us/window"),
        "engine.windows.sev0": (len(step_ns[0]), "count"),
        "engine.windows.sev1": (minor, "count"),
        "engine.windows.sev2": (len(step_ns[2]), "count"),
        "engine.nbc_invocations": (nbc_invocations, "count"),
        "engine.alarms.gate": (gate, "count"),
        "engine.alarms.nbc": (nbc_alarms, "count"),
        "engine.alarms.loop": (loop, "count"),
        "mdd.evaluate.calls_per_window": (_per(t["mdd.evaluate"]["calls"], steps), "ratio"),
        "nbc.posterior.calls_per_minor_window": (_per(t["nbc.posterior"]["calls"], minor), "ratio"),
        "engine.write_alarm_log.us_per_alarm": (
            _per(t["engine.write_alarm_log"]["ns"] * us, alarms_written), "us/alarm"),
        "engine.load_config.ms": (t["engine.load_config"]["ns"] * 1e-6, "ms"),
        "cli.diagnose.self_ms": (own[root] * 1e-6, "ms"),
    }
    for name in ("states.discretize", "states.StateVector.from_levels", "mdd.evaluate",
                 "nbc.posterior", "nbc.classify"):
        m[f"{name}.us_per_call"] = (_per(t[name]["ns"] * us, t[name]["calls"]), "us/call")
    for sev, vals in step_ns.items():
        vals.sort()
        m[f"engine.step.sev{sev}.us_p50"] = (_percentile(vals, 50) * us, "us")
        m[f"engine.step.sev{sev}.us_p99"] = (_percentile(vals, 99) * us, "us")
    facts = {
        "samples": samples,
        "windows": windows,
        "steps": steps,
        "nbc_invocations": nbc_invocations,
        "alarms": {"gate": gate, "nbc": nbc_alarms, "loop": loop},
    }
    return m, facts


def reference_layers(tracer: Tracer, queries: int) -> dict:
    """(value, unit) by metric name for a traced run of ``queries`` BN queries."""
    t = tracer.totals()
    us = 1e-3
    pge = t["bayesnet.posterior_given_evidence"]
    m = {
        "bayesnet.posterior_given_evidence.self_us_per_call": (_per(pge["self_ns"] * us, pge["calls"]), "us/call"),
        "bayesnet.load_net.ms": (_per(t["bayesnet.load_net"]["ns"] * 1e-6, t["bayesnet.load_net"]["calls"]), "ms"),
        "nbc.load_model.ms": (_per(t["nbc.load_model"]["ns"] * 1e-6, t["nbc.load_model"]["calls"]), "ms"),
    }
    for op in ("reduce", "multiply", "sum_out"):
        agg = t[f"bayesnet.Factor.{op}"]
        m[f"bayesnet.Factor.{op}.calls_per_query"] = (_per(agg["calls"], queries), "ratio")
        m[f"bayesnet.Factor.{op}.self_us_per_query"] = (_per(agg["self_ns"] * us, queries), "us/query")
    return m
