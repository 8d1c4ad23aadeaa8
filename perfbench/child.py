"""One measured process of the benchmark.

Each mode runs in a fresh interpreter started by ``run.py`` with ``src``
on the path, so the process holds only what the program itself loads and
its peak RSS is the program's.  The last line on stdout is a JSON object.
Timings come as wall time and, where the host-speed probe of
``speed.py`` ran, as normalized time.

    child.py setup --config CONFIG
    child.py diagnose --config CONFIG --metrics JSONL --out-alarms PATH [--spans PATH]
    child.py reference --model MODEL --net NET --seed N --seconds S [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys
from time import perf_counter, perf_counter_ns

import speed

VALIDATE_TOL = 1e-12
ENUMERATION_TOL = 1e-9


def _setup(config: str) -> dict:
    """Wall and normalized seconds from ``import afdi`` until the engine
    config is loaded.  Set-up lasts less than a probe interval, so the
    host's speed is read from probe units run just before and just after."""
    speed.timed_units(3)  # the first calls run slower, before the interpreter specializes them
    before = speed.timed_units(8)
    t0 = perf_counter()
    from afdi import engine

    engine.load_config(config)
    wall = perf_counter() - t0
    after = speed.timed_units(8)
    return {"setup_s": wall, "setup_norm_s": wall * speed.factor(before + after)}


def cmd_setup(args) -> dict:
    return _setup(args.config)


def cmd_diagnose(args) -> dict:
    out = _setup(args.config)
    from afdi import cli

    argv = ["diagnose", "--config", args.config, "--metrics", args.metrics, "--out-alarms", args.out_alarms]
    if not args.spans:
        with speed.Probe() as probe:
            mark = probe.mark()
            rc = cli.main(argv)
            diagnose_s, diagnose_norm_s = probe.since(mark)
        out.update(diagnose_s=diagnose_s, diagnose_norm_s=diagnose_norm_s, probes=len(probe.samples), rc=rc)
        return out

    import tracer as tr
    from afdi import engine

    tracer = tr.Tracer()
    tr.install_diagnose(tracer)
    engines = []  # to read the engine's own classifier-call counter
    init = engine.Engine.__init__

    def keep_engine(self, config):
        init(self, config)
        engines.append(self)

    engine.Engine.__init__ = keep_engine
    root = len(tracer)
    traced_main = tracer.wrap("cli.diagnose", cli.main)
    # the probe runs here too, so trace.overhead_share compares normalized
    # times; its units add about 1 % to the spans they interrupt
    with speed.Probe() as probe:
        mark = probe.mark()
        rc = traced_main(argv)
        diagnose_s, diagnose_norm_s = probe.since(mark)
    layers, facts = tr.diagnose_layers(tracer, root, sum(e.nbc_invocations for e in engines))
    nests = tracer.nests()
    tracer.write(args.spans)
    out.update(diagnose_s=diagnose_s, diagnose_norm_s=diagnose_norm_s, rc=rc, layers=layers, facts=facts,
               spans=len(tracer), spans_nest=nests)
    return out


def equivalent_net(model) -> dict:
    """The BN the classifier encodes: class as root, one child per attribute."""
    classes = model.schema.classes
    nodes = [{"name": "class", "states": list(classes), "parents": [], "cpt": [list(model.priors)]}]
    for j, (name, card) in enumerate(model.schema.attributes):
        nodes.append({
            "name": name,
            "states": [str(v) for v in range(card)],
            "parents": ["class"],
            "cpt": [list(model.cond[j][c]) for c in range(len(classes))],
        })
    return {"nodes": nodes}


def case_study_queries(net) -> list[tuple[str, dict]]:
    """Every evidence pattern on the three components for S (4^3 = 64),
    plus P(component | S=s) for each component and state of S."""
    comps = ("Memory", "CPU", "Network")
    out = []
    for pattern in itertools.product((None, 0, 1, 2), repeat=len(comps)):
        out.append(("S", {c: s for c, s in zip(comps, pattern) if s is not None}))
    for comp in comps:
        for s in range(net.node("S").card):
            out.append((comp, {"S": s}))
    return out


def enumerate_posterior(net, bayesnet, query: str, evidence: dict) -> list[float]:
    """P(query | evidence) by summing the full joint over every assignment."""
    names = net.names
    acc = [0.0] * net.node(query).card
    for combo in itertools.product(*(range(net.node(n).card) for n in names)):
        assignment = dict(zip(names, combo))
        if all(assignment[k] == v for k, v in evidence.items()):
            acc[assignment[query]] += bayesnet.joint_probability(net, assignment)
    total = sum(acc)
    return [a / total for a in acc]


def cmd_reference(args) -> dict:
    """Validation sweeps, then case-study queries, half the slice each.
    Untraced, the host-speed probe runs throughout and the timings are
    normalized; traced, only the layers are reported."""
    from afdi import bayesnet, nbc

    tracer = None
    if args.spans:
        import tracer as tr

        tracer = tr.Tracer()
        tr.install_reference(tracer)
    case = bayesnet.load_net(args.net)
    model = nbc.load_model(args.model)
    ref = bayesnet.load_net(equivalent_net(model))

    rng = random.Random(args.seed)
    attrs = [name for name, _ in model.schema.attributes]
    vectors = list(itertools.product(*(range(card) for _, card in model.schema.attributes)))
    rng.shuffle(vectors)
    queries = case_study_queries(case)
    rng.shuffle(queries)

    probe = speed.Probe()
    with contextlib.nullcontext() if tracer else probe:
        attempted = failed = 0
        worst = 0.0
        mark = probe.mark()
        budget_end = perf_counter() + args.seconds / 2
        sweep_s = []
        while not sweep_s or perf_counter() < budget_end:
            start = perf_counter()
            for vec in vectors:
                a = nbc.posterior(model, vec)
                b = bayesnet.posterior_given_evidence(ref, "class", dict(zip(attrs, vec))).probs
                diff = max(abs(x - y) for x, y in zip(a, b))
                attempted += 1
                if diff > VALIDATE_TOL:
                    failed += 1
                worst = max(worst, diff)
            sweep_s.append(perf_counter() - start)
        sweeps_norm_s = None if tracer else probe.since(mark)[1]

        mark = probe.mark()
        budget_end = perf_counter() + args.seconds / 2
        query_ns = [0] * len(queries)
        query_n = [0] * len(queries)
        first_answers = None
        sets = 0
        while sets < 5 or perf_counter() < budget_end:
            answers = []
            for i, (query, evidence) in enumerate(queries):
                fired = len(probe.samples)
                t = perf_counter_ns()
                dist = bayesnet.posterior_given_evidence(case, query, evidence)
                t = perf_counter_ns() - t
                if len(probe.samples) == fired:  # no probe ran inside the call
                    query_ns[i] += t
                    query_n[i] += 1
                answers.append(dist.probs)
            if first_answers is None:
                first_answers = answers
            sets += 1
        query_factor = None if tracer else speed.factor(probe.samples[mark[1]:])

    enum_worst = 0.0
    for (query, evidence), got in zip(queries, first_answers):
        want = enumerate_posterior(case, bayesnet, query, evidence)
        diff = max(abs(x - y) for x, y in zip(got, want))
        attempted += 1
        if diff > ENUMERATION_TOL:
            failed += 1
        enum_worst = max(enum_worst, diff)

    out = {
        "sweep_s": sweep_s,
        "vectors": len(sweep_s) * len(vectors),
        "query_sets": sets,
        "query_ns": query_ns,
        "query_n": query_n,
        "attempted": attempted,
        "failed": failed,
        "worst_validate_diff": worst,
        "worst_enumeration_diff": enum_worst,
    }
    if tracer is None:
        out.update(sweeps_norm_s=sweeps_norm_s, query_factor=query_factor, probes=len(probe.samples))
    else:
        bn_queries = tracer.totals()["bayesnet.posterior_given_evidence"]["calls"]
        out["layers"] = tr.reference_layers(tracer, bn_queries)
        out["spans"] = len(tracer)
        out["spans_nest"] = tracer.nests()
        tracer.write(args.spans)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("diagnose")
    p.add_argument("--config", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--out-alarms", required=True)
    p.add_argument("--spans", default=None)
    p.set_defaults(func=cmd_diagnose)
    p = sub.add_parser("reference")
    p.add_argument("--model", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spans", default=None)
    p.set_defaults(func=cmd_reference)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
