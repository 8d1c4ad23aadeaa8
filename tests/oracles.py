"""Independent reference implementations used only by tests.

Everything here recomputes results by the most direct method available
(exhaustive enumeration, linear-space products, single-pass filters) so
the production code is checked against a second, structurally different
derivation rather than against itself.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from math import prod

from afdi.bayesnet import KEEP_TOL, Factor
from afdi.engine import SequencingError
from afdi.states import ComponentId, MetricSample, StateVector, discretize


# -- decision diagrams ------------------------------------------------


def enumerate_levels(arities, f):
    """Map every point of the state product through f."""
    return {
        levels: f(levels) for levels in itertools.product(*(range(a) for a in arities))
    }


def weighted_level_distribution(arities, f, dists, num_levels):
    """Brute-force: sum the product weight of every state vector per level."""
    acc = [0.0] * num_levels
    for levels in itertools.product(*(range(a) for a in arities)):
        w = prod(dists[i][s] for i, s in enumerate(levels))
        acc[f(levels)] += w
    return acc


def canonical_node_count(arities, f):
    """Count nodes of the reduced ordered diagram by signature collapse.

    Builds nothing: each position's subfunction gets a canonical
    signature (leaf value, or the tuple of child signatures unless they
    all agree), and distinct signatures reachable from the root are
    counted.  Independent of any unique-table bookkeeping.
    """
    n = len(arities)

    def sig(i, prefix):
        if i == n:
            return ("leaf", f(prefix))
        children = tuple(sig(i + 1, prefix + (s,)) for s in range(arities[i]))
        if all(c == children[0] for c in children):
            return children[0]
        return ("node", i, children)

    root = sig(0, ())
    seen = set()
    stack = [root]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if s[0] == "node":
            stack.extend(s[2])
    return len(seen)


# -- naive Bayes ------------------------------------------------------


def nb_posterior_linear(priors, cond, features):
    """Eq.-style linear product with explicit normalizer; features may
    hold None for missing values."""
    scores = []
    for c in range(len(priors)):
        s = priors[c]
        for j, v in enumerate(features):
            if v is not None:
                s *= cond[j][c][v]
        scores.append(s)
    total = sum(scores)
    if total == 0:
        raise ZeroDivisionError("all classes have zero likelihood")
    return [s / total for s in scores]


def nb_posterior_log_per_call(priors, cond, features):
    """Log-space posterior taking every log on each call, in the order
    the classifier adds them: log prior, then each observed conditional
    by attribute position, then a max-shifted normalization."""

    def log(p):
        return math.log(p) if p > 0.0 else float("-inf")

    scores = []
    for c in range(len(priors)):
        s = log(priors[c])
        for j, v in enumerate(features):
            if v is not None:
                s += log(cond[j][c][v])
        scores.append(s)
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    total = 0.0
    for w in weights:  # left to right, as the classifier adds on every CPython
        total += w
    return tuple(w / total for w in weights)


def naive_bayes_net_doc(model):
    """The network document of the BN a classifier encodes: the class as
    root, one child per attribute whose CPT rows are ``cond[j][c]``."""
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


def nb_classify_linear(priors, cond, features):
    post = nb_posterior_linear(priors, cond, features)
    best = 0
    for c in range(1, len(post)):
        if post[c] > post[best]:
            best = c
    return best


# -- Bayesian networks ------------------------------------------------


def bn_enumerate(net, query, evidence=None):
    """Conditional distribution by full joint enumeration.

    Walks every assignment of every node, multiplying CPT entries
    directly (no factors), keeping only assignments consistent with the
    evidence.  Returns the normalized distribution over the query.
    """
    evidence = evidence or {}
    names = list(net.names)
    cards = [net.node(n).card for n in names]
    parents = {n.name: n.parents for n in net.nodes}
    cpts = net.cpts
    qi = names.index(query)
    pos = {n: i for i, n in enumerate(names)}

    acc = [0.0] * cards[qi]
    for combo in itertools.product(*(range(c) for c in cards)):
        skip = False
        for name, state in evidence.items():
            if combo[pos[name]] != state:
                skip = True
                break
        if skip:
            continue
        p = 1.0
        for name in names:
            row = 0
            for par in parents[name]:
                row = row * cards[pos[par]] + combo[pos[par]]
            p *= cpts[name][row][combo[pos[name]]]
        acc[combo[qi]] += p
    total = sum(acc)
    if total == 0:
        raise ZeroDivisionError("evidence has zero probability")
    return [v / total for v in acc]


def bn_eliminate(net, query, evidence=None, order=None):
    """P(query | evidence) by bucket elimination on ``Factor`` objects,
    built and reduced afresh on every call.

    Every CPT becomes a ``Factor`` reduced by each evidence state; each
    variable of ``order`` (default: reverse topological) is summed out of
    the product of the factors that mention it, and what is left is
    multiplied into one table over the query.  ``evidence`` holds state
    indices.  The table is normalized as the library does: kept as it is
    when its sum is within ``KEEP_TOL`` of 1.  Returns the tuple of
    probabilities; zero mass raises ``ZeroDivisionError``.
    """
    evidence = evidence or {}
    factors = [Factor.from_cpt(net, n.name) for n in net.nodes]
    for var, state in evidence.items():
        factors = [f.reduce(var, state) for f in factors]
    if order is None:
        order = [n for n in reversed(net.topological_order()) if n != query and n not in evidence]
    for var in order:
        bucket = [f for f in factors if var in f.scope]
        rest = [f for f in factors if var not in f.scope]
        if not bucket:
            continue
        product = bucket[0]
        for f in bucket[1:]:
            product = product.multiply(f)
        factors = rest + [product.sum_out(var)]
    result = Factor((), (), [1.0])
    for f in factors:
        result = result.multiply(f)
    assert result.scope == (query,), result.scope
    total = 0.0
    for v in result.values:  # left to right, as the library adds on every build
        total += v
    if total <= 0.0:
        raise ZeroDivisionError("evidence has zero probability")
    if abs(total - 1.0) > KEEP_TOL:
        return tuple(v / total for v in result.values)
    return tuple(result.values)


def random_net_doc(rng, max_nodes=8, max_states=3, max_parents=3):
    """Random small network document for enumeration cross-checks.

    Parents are always earlier nodes, so the document is acyclic by
    construction; CPT rows are normalized random positives.
    """
    n = rng.randint(1, max_nodes)
    nodes = []
    for i in range(n):
        card = rng.randint(2, max_states)
        pool = [f"n{j}" for j in range(i)]
        rng.shuffle(pool)
        parents = sorted(pool[: rng.randint(0, min(max_parents, len(pool)))])
        rows = 1
        for p in parents:
            rows *= len(nodes[int(p[1:])]["states"])
        cpt = []
        for _ in range(rows):
            raw = [rng.random() + 1e-3 for _ in range(card)]
            total = sum(raw)
            cpt.append([v / total for v in raw])
        nodes.append(
            {
                "name": f"n{i}",
                "states": [f"s{k}" for k in range(card)],
                "parents": parents,
                "cpt": cpt,
            }
        )
    return {"nodes": nodes}


# -- preprocessing ----------------------------------------------------


def median_mad_pass(values, window, cutoff, eps=1e-9, scale=1.4826):
    """One synchronous pass of the sliding median/MAD replacement."""
    half = window // 2
    out = list(values)
    for i in range(len(values)):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        win = values[lo:hi]
        med = statistics.median(win)
        mad = statistics.median([abs(v - med) for v in win])
        if abs(values[i] - med) / (mad * scale + eps) > cutoff:
            out[i] = med
    return out


def median_mad_filter(values, window, cutoff, max_passes=64):
    """``median_mad_pass`` repeated until a pass changes nothing or
    ``max_passes`` passes ran: the slice-and-sort filter a series gets in
    ``preprocess``, every window sliced and sorted afresh.  Returns the
    values and the number of passes that changed them."""
    passes = 0
    while passes < max_passes:
        after = median_mad_pass(values, window, cutoff)
        if after == values:
            break
        values = after
        passes += 1
    return values, passes


def median_mad_counts(values, window, cutoff, max_passes=64):
    """The work of ``preprocess``'s filter on one series: the number of
    (pass, position) pairs it judges and of replacements it makes.  Pass
    0 judges every position, and each later pass those within
    ``window // 2`` of a value the pass before changed, for at most
    ``max_passes`` passes; a pass changes only values it judges."""
    half = window // 2
    judge = range(len(values))
    judged = replaced = 0
    for _ in range(max_passes):
        if not judge:
            break
        judged += len(judge)
        after = median_mad_pass(values, window, cutoff)
        changed = [i for i in range(len(values)) if after[i] != values[i]]
        assert set(changed) <= set(judge)
        replaced += len(changed)
        values = after
        judge = sorted({j for i in changed for j in range(max(0, i - half), min(len(values), i + half + 1))})
    return judged, replaced


# -- time order -------------------------------------------------------


def first_fall(samples):
    """The ``SequencingError`` afdi raises for ``samples``, or None: a walk
    of the list that keeps the last timestamp of each series and names the
    first sample earlier than it."""
    last = {}
    for s in samples:
        key = (s.host_id, s.vm_id, s.metric.key)
        if key in last and s.timestamp < last[key]:
            return SequencingError(f"series {key}: timestamp {s.timestamp} after {last[key]}")
        last[key] = s.timestamp
    return None


# -- windows ------------------------------------------------------------


def windows_built_all(samples, specs):
    """The windows ``collect_windows`` gives for a complete stream, all
    built before any is given: per (host, vm) scope in that order, one
    ``(timestamp, host, vm, buckets)`` at each time of the scope's
    samples, each bucket the ``discretize`` of its spec's value clamped
    to the spec's bounds (a host metric shared by the host's VMs); then
    one stable sort of the whole list by timestamp."""
    vm_rows, host_rows = {}, {}
    for s in samples:
        if s.metric.level == "host":
            host_rows.setdefault((s.timestamp, s.host_id), {})[s.metric.key] = s.value
        else:
            vm_rows.setdefault((s.host_id, s.vm_id), {}).setdefault(s.timestamp, {})[s.metric.key] = s.value
    windows = []
    for host, vm in sorted(vm_rows):
        for ts, row in sorted(vm_rows[host, vm].items()):
            row = {**row, **host_rows.get((ts, host), {})}
            buckets = []
            for spec in specs:
                low, high = spec.boundaries[0], spec.boundaries[-1]
                buckets.append(discretize(min(high, max(low, row[spec.component.key])), spec))
            windows.append((ts, host, vm, tuple(buckets)))
    return sorted(windows, key=lambda w: w[0])


# -- metric streams ---------------------------------------------------


def _no_repeated_key(pairs):
    """A JSON object's dict; a key that appears twice is refused, not
    overwritten."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"repeated key {key!r}")
    return dict(pairs)


def _samples_per_line(lines, name):
    samples = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            try:
                obj = json.loads(line, object_pairs_hook=_no_repeated_key)
                samples.append(
                    MetricSample(
                        timestamp=int(obj["timestamp"]),
                        host_id=obj["host_id"],
                        vm_id=obj["vm_id"],
                        metric=ComponentId(name=obj["metric"], level=obj["level"]),
                        value=float(obj["value"]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{name}: line {line_no}: {exc}") from exc
    return samples


def read_metric_samples_per_line(path):
    """Reference stream reader: ``json.loads`` per line and a new
    ``ComponentId`` per sample, with no check of the record's shape
    beyond a repeated key and what building the sample does."""
    with open(path, "r", encoding="utf-8") as fh:
        return _samples_per_line(fh, path)


# -- the diagnose pipeline ---------------------------------------------

PERCENT_METRICS = {"cpu", "memory", "network", "storage_io"}


class OracleRejects(ValueError):
    """The stream cannot be diagnosed (out of order, or a window short of
    a metric); ``afdi diagnose`` must fail on it too."""


def oracle_diagnose(lines, config):
    """The alarm records ``afdi diagnose`` writes for a JSON Lines stream,
    as dicts, derived stage by stage the plain way.

    Lines are read by ``json.loads`` each; every series is clamped and
    run through ``median_mad_filter``; windows are dicts keyed by
    component key; severity is ``Mdd.evaluate`` over a ``StateVector`` of
    mapped levels; a minor window's diagnosis takes every log on each
    call.
    """
    policy = config.preprocess
    series = {}
    for s in _samples_per_line(lines, "<stream>"):
        series.setdefault((s.host_id, s.vm_id, s.metric), []).append(s)

    vm_rows, host_rows = {}, {}
    for (host, vm, metric), samples in series.items():
        times = [s.timestamp for s in samples]
        if times != sorted(times):
            raise OracleRejects(f"{host}/{vm} {metric.key}: out of order")
        kept = []
        for s in samples:
            value = s.value
            if metric.name in PERCENT_METRICS and not 0.0 <= value <= 100.0:
                value = min(100.0, max(0.0, value))
            kept.append((s.timestamp, value))
        values, _ = median_mad_filter([v for _, v in kept], policy.window, policy.z_cutoff)
        for (ts, _), value in zip(kept, values):
            if metric.level == "host":
                host_rows.setdefault((ts, host), {})[metric.key] = value
            else:
                vm_rows.setdefault((ts, host, vm), {})[metric.key] = value

    model = config.model
    rule = config.loop_rule
    # the NBC features are the model's attributes, and the loop signature
    # is both CPU readings in their spec's top bucket, throughput in bucket 0
    attributes = [ComponentId.parse(name) for name, _ in model.schema.attributes]
    judged = list(dict.fromkeys(attributes + list(config.severity_components)))
    tops = {key: config.specs[key].num_intervals - 1 for key in (rule.vm_cpu, rule.host_cpu)}
    streak, fired = {}, {}
    alarms = []
    for ts, host, vm in sorted(vm_rows):
        window = {**vm_rows[ts, host, vm], **host_rows.get((ts, host), {})}
        usage = {}
        for comp in judged:
            if comp.key not in window:
                raise OracleRejects(f"t={ts} {host}/{vm}: no {comp.key}")
            spec = config.specs[comp.key]
            low, high = spec.boundaries[0], spec.boundaries[-1]
            usage[comp.key] = discretize(min(high, max(low, window[comp.key])), spec)
        levels = [config.severity_mapping[usage[c.key]] for c in config.severity_components]
        severity = config.severity_mdd.evaluate(
            StateVector.from_levels(config.severity_components, levels)
        )

        alarm = {"timestamp": ts, "host_id": host, "vm_id": vm, "severity": severity}
        scope = (host, vm)
        if (
            usage[rule.vm_cpu] == tops[rule.vm_cpu]
            and usage[rule.host_cpu] == tops[rule.host_cpu]
            and usage[rule.throughput] == 0
        ):
            streak[scope] = streak.get(scope, 0) + 1
        else:
            streak[scope] = 0
            fired[scope] = False
        if streak[scope] >= rule.k and not fired.get(scope, False):
            fired[scope] = True
            alarm.update(
                trigger="nbc_diagnosis",
                diagnosis=[1.0 if c == rule.cause else 0.0 for c in config.classes],
                top_cause=rule.cause,
            )
        elif severity == 2:
            alarm.update(trigger="severity_gate", diagnosis=None, top_cause=None)
        elif severity == 1:
            features = [usage[c.key] for c in attributes]
            post = nb_posterior_log_per_call(model.priors, model.cond, features)
            top = max(range(len(post)), key=lambda c: (post[c], -c))
            alarm.update(trigger="nbc_diagnosis", diagnosis=list(post), top_cause=config.classes[top])
        else:
            continue
        alarms.append(alarm)
    return alarms


# -- virtual sensors ----------------------------------------------------


class SensorState:
    """A registered sensor's settings and what it has received."""

    def __init__(self, sensor_id, active=True, frequency_ms=1000):
        self.sensor_id = sensor_id
        self.active = active
        self.frequency_ms = frequency_ms
        self.deliveries = 0
        self.last_delivery_time = None
        self.last_alarm = None
        self._pending = None
        self.delivered = []  # every (boundary, alarm), in delivery order


class SensorClock:
    """Stateful sensor delivery on a simulated clock, the reference for
    ``VirtualSensor.deliveries``: an alarm dispatched at the clock's time
    is held until the next multiple of the sensor's period, a newer one
    replaces it, and the clock delivers what its moves cross.  The only
    addition to delivery is that each one is recorded in ``delivered``."""

    def __init__(self):
        self.clock = 0
        self._sensors = {}

    def register_sensor(self, sensor):
        if sensor.sensor_id in self._sensors:
            raise ValueError(f"sensor {sensor.sensor_id!r} already registered")
        self._sensors[sensor.sensor_id] = sensor

    def dispatch(self, alarm):
        """Queue an alarm for every active sensor; newest wins per interval.

        Returns the number of sensors the alarm reached (queued for).
        Actual delivery happens when the clock crosses the sensor's next
        reporting boundary.
        """
        reached = 0
        for s in self._sensors.values():
            if not s.active:
                continue
            s._pending = (self.clock, alarm)
            reached += 1
        return reached

    def advance_clock(self, to_time):
        if to_time < self.clock:
            raise SequencingError(f"clock cannot move backwards: {to_time} < {self.clock}")
        self._deliver(to_time)
        self.clock = to_time

    def flush_sensors(self):
        """Deliver any still-pending alarms at their next boundary (end of run)."""
        self._deliver(math.inf)

    def _deliver(self, until):
        """Deliver each pending alarm whose boundary is at or before ``until``."""
        for s in self._sensors.values():
            if s._pending is None:
                continue
            queued_at, alarm = s._pending
            boundary = (queued_at // s.frequency_ms + 1) * s.frequency_ms
            if boundary > until:
                continue
            s.deliveries += 1
            s.last_delivery_time = boundary
            s.last_alarm = alarm
            s._pending = None
            s.delivered.append((boundary, alarm))
            self.clock = max(self.clock, boundary)


def sensor_deliveries(sensor_id, active, frequency_ms, ticks):
    """Every delivery ``SensorClock`` makes to one sensor over ``ticks``,
    pairs of a time and the alarms raised then: the clock moves to each
    time, the alarms are dispatched, and the sensor is flushed at the end."""
    clock = SensorClock()
    sensor = SensorState(sensor_id, active, frequency_ms)
    clock.register_sensor(sensor)
    for time, alarms in ticks:
        clock.advance_clock(time)
        for alarm in alarms:
            clock.dispatch(alarm)
    clock.flush_sensors()
    return sensor.delivered
