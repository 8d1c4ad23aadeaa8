"""Command-line entry point for the full pipeline.

One binary, six subcommands: simulate, train, diagnose, evaluate, mdd,
bn-query.  Machine-readable JSON goes to stdout or the requested output
file; human summaries and diagnostics go to stderr, a failure as one
``error:`` line and each of ``bn-query``'s load warnings as a
``warning:`` line; afdi reads no environment variable.  Every run is
deterministic given its inputs: timestamps come from the input data,
randomness only from recorded seeds.

Each subcommand imports the afdi modules it runs when it runs, so
``afdi diagnose`` loads neither the network engine nor the simulator,
and no command loads ``logging``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .states import ComponentId, StateVector, check_entries, index_cell, read_document
from .states import read_table, write_metric_samples

class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 1."""


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    return path


# -- simulate ---------------------------------------------------------


def cmd_simulate(args) -> int:
    import dataclasses

    from . import simulator

    scenario = simulator.load_scenario(_require_file(args.scenario))
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    samples, labels = simulator.generate(scenario)
    write_metric_samples(samples, args.out_metrics)
    simulator.write_labels(labels, args.out_labels)
    print(
        f"simulated {scenario.duration} windows, {len(scenario.injections)} injections, "
        f"{len(samples)} samples (rng={simulator.RNG_ALGORITHM}, seed={scenario.seed})",
        file=sys.stderr,
    )
    return 0


# -- train ------------------------------------------------------------


def cmd_train(args) -> int:
    from . import nbc

    schema = nbc.load_schema(_require_file(args.schema))
    dataset = nbc.read_training_csv(_require_file(args.data), schema)
    model = nbc.train(dataset, schema, alpha=args.alpha)
    nbc.save_model(model, args.out_model)
    print(f"trained on {len(dataset)} examples, alpha={args.alpha}", file=sys.stderr)
    _emit({"priors": {c: p for c, p in zip(schema.classes, model.priors)}}, None)
    return 0


# -- diagnose ---------------------------------------------------------


def cmd_diagnose(args) -> int:
    from . import engine

    config = engine.load_config(_require_file(args.config))
    eng = engine.Engine(config)
    raised = eng.run(_require_file(args.metrics), args.out_alarms)
    stats = eng.stats
    causes = ", ".join(f"{cause} {n}" for cause, n in sorted(stats.causes.items())) or "none"
    print(
        f"processed {stats.samples} samples, raised {raised} alarms "
        f"({eng.nbc_invocations} classifier calls); {stats.clamped} clamped, {stats.judged} judged, "
        f"{stats.replaced} replaced; windows by severity {'/'.join(map(str, stats.windows))}; "
        f"{stats.gate} gate and {stats.loop} loop alarms; causes: {causes}",
        file=sys.stderr,
    )
    return 0


# -- evaluate ---------------------------------------------------------


def cmd_evaluate(args) -> int:
    from . import evaluation, nbc
    from .states import sha256

    model = nbc.load_model(_require_file(args.model))
    dataset = nbc.read_training_csv(_require_file(args.data), model.schema)
    if not dataset:
        raise CliError(f"no examples in {args.data}")
    matrix = evaluation.ConfusionMatrix(classes=model.schema.classes)
    for ex in dataset:
        predicted = nbc.classify(model, ex.features)
        matrix.record(model.schema.classes[predicted], model.schema.classes[ex.label])

    def metric_or_none(fn):
        try:
            return fn(matrix)
        except evaluation.UndefinedMetricError:
            return None

    with open(args.model, "rb") as fh:
        model_hash = sha256(fh.read()).hexdigest()
    report = {
        "accuracy": metric_or_none(evaluation.accuracy),
        "recall": metric_or_none(evaluation.recall),
        "precision": metric_or_none(evaluation.precision),
        "false_alarm_rate": metric_or_none(evaluation.false_alarm_rate),
        "counts": matrix.counts,
        "dataset_size": len(dataset),
        "model_sha256": model_hash,
        "classes": list(model.schema.classes),
    }
    _emit(report, args.report)
    return 0


# -- mdd --------------------------------------------------------------


def _load_structure_table(path):
    """CSV: header names the components (final column ``level``), one
    row per state vector covering the entire product space.  A bad row,
    or one that repeats a state vector, raises naming its line."""
    from . import mdd

    header, rows = read_table(path, lambda cells: [index_cell(cell) for cell in cells], CliError)
    if len(header) < 2 or header[-1] != "level":
        raise CliError(f"{path}: line 1: header must be component keys plus final 'level'")
    components = []
    for key in header[:-1]:
        try:
            component = ComponentId.parse(key)
        except ValueError as exc:
            raise CliError(f"{path}: line 1: {exc}") from None
        if component in components:
            raise CliError(f"{path}: line 1: duplicate component {key}")
        components.append(component)
    table, line_of = {}, {}  # each state vector's level, and the line of its row
    for line, (*states, level) in rows:
        states = tuple(states)
        if states in line_of:
            raise CliError(f"{path}: line {line}: repeats the states {states} of line {line_of[states]}")
        table[states], line_of[states] = level, line
    if not table:
        raise CliError(f"{path}: table has no rows")
    # the rows are distinct points of the product, so as many rows as it
    # has points are all of them and the lookup below finds every one
    arities = [max(column) + 1 for column in zip(*table)]
    expected = math.prod(arities)
    if len(table) != expected:
        raise CliError(
            f"{path}: {len(table)} rows do not cover the {expected}-point state product"
        )
    return mdd.build_from_structure_function(components, arities, lambda sv: table[sv.levels])


def _argument_index(text: str, name: str) -> int:
    """``text`` from the command-line argument ``name`` as an index cell."""
    try:
        return index_cell(text)
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None


def cmd_mdd(args) -> int:
    diagram = _load_structure_table(_require_file(args.table))
    out: dict = {"node_count": diagram.node_count()}
    if args.query:
        levels = [_argument_index(v, "--query") for v in args.query.split(",")]
        if len(levels) != len(diagram.components):
            raise CliError(
                f"query has {len(levels)} states, model has {len(diagram.components)} components"
            )
        sv = StateVector.from_levels(diagram.components, levels)
        out["query"] = levels
        out["level"] = diagram.evaluate(sv)
    if args.dists:
        keys = [c.key for c in diagram.components]
        doc = read_document(_require_file(args.dists))
        dists = check_entries(doc, dict.fromkeys(keys, "array of numbers"), keys, f"distributions {args.dists}")
        result = diagram.level_probabilities([dists[key] for key in keys])
        out["level_probabilities"] = list(result.probs)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(diagram.to_dot())
            fh.write("\n")
    _emit(out, None)
    return 0


# -- bn-query ---------------------------------------------------------


def cmd_bn_query(args) -> int:
    from . import bayesnet

    net = bayesnet.load_net(_require_file(args.net))
    for message in net.load_warnings:
        print(f"warning: {message}", file=sys.stderr)
    evidence = {}
    for item in args.evidence or ():
        name, sep, state = item.partition("=")
        if not sep:
            raise CliError(f"evidence must look like NODE=STATE, got {item!r}")
        if name in evidence:
            raise CliError(f"--evidence gives node {name!r} twice")
        if state.lstrip("-").isdigit():
            state = _argument_index(state, f"--evidence {item}")
        evidence[name] = state
    if evidence:
        dist = bayesnet.posterior_given_evidence(net, args.query, evidence)
    else:
        dist = bayesnet.marginal(net, args.query)
    _emit(
        {
            "query": args.query,
            "states": list(net.node(args.query).states),
            "distribution": list(dist.probs),
            "evidence": {k: v for k, v in evidence.items()},
            "load_warnings": net.load_warnings,
        },
        None,
    )
    return 0


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdi",
        description="Fault diagnosis for virtualized hosts: severity gating, "
        "Bayes diagnosis, exact network queries, and fault simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate telemetry and labels from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out-metrics", required=True, help="output metric stream (JSON Lines)")
    p.add_argument("--out-labels", required=True, help="output ground-truth labels (CSV)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the classifier from a labeled CSV")
    p.add_argument("--data", required=True, help="training CSV (attribute columns + label)")
    p.add_argument("--schema", required=True, help="attribute schema JSON")
    p.add_argument("--alpha", type=float, default=1.0, help="smoothing pseudo-count (default 1.0)")
    p.add_argument("--out-model", required=True, help="output model JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("diagnose", help="run the gate-then-diagnose pipeline over a stream")
    p.add_argument("--config", required=True, help="engine config JSON")
    p.add_argument("--metrics", required=True, help="metric stream (JSON Lines)")
    p.add_argument("--out-alarms", required=True, help="output alarm log (JSON Lines)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("evaluate", help="score a model against labeled data")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="labeled CSV path")
    p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mdd", help="build a severity diagram from a structure table and query it")
    p.add_argument("--table", required=True, help="structure-function CSV (rows cover the product)")
    p.add_argument("--query", default=None, help="comma-separated state levels to evaluate")
    p.add_argument("--dists", default=None, help="JSON of per-component state distributions")
    p.add_argument("--dot", default=None, help="write graph-description text here")
    p.set_defaults(func=cmd_mdd)

    p = sub.add_parser("bn-query", help="exact marginal or posterior on a network document")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--query", required=True, help="node to query")
    p.add_argument(
        "--evidence",
        action="append",
        default=None,
        metavar="NODE=STATE",
        help="observed node (state index or name); repeatable",
    )
    p.set_defaults(func=cmd_bn_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
