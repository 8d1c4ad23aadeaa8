"""Exact inference on small discrete Bayesian networks.

Queries run bucket (variable) elimination over dense factor tables:
each non-query variable is summed out in turn after multiplying the
factors that mention it.  Networks here are tiny (a handful of
three-state nodes), so no junction trees, no approximation, and no
attention to elimination-order width beyond a deterministic default.

Which cells an elimination multiplies and adds depends only on the
query, the set of observed nodes and the order, never on the observed
states.  So the first query of each such kind compiles its plan: the
CPTs flattened, the cells each reduction keeps, and the index lists of
every multiply and sum-out.  The net keeps the plan (at most n·2^(n-1)
of them for an n-node net with the default order, plus one per explicit
order), and each query gathers its reduced tables and replays the same
products and sums in the same order as ``Factor`` would, so every answer
is the same float.  A plan holds index tables, never answers.

Network documents are JSON: a list of nodes, each with a name, its
state names, its parent list, and a CPT holding one row per parent
assignment (first-listed parent varying slowest), each row a
distribution over the node's states.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from operator import mul

from .states import StateDistribution, check_entries, left_sum, read_document

__all__ = [
    "NetNode",
    "DiscreteBayesNet",
    "Factor",
    "NetLoadError",
    "ImpossibleEvidenceError",
    "load_net",
    "marginal",
    "posterior_given_evidence",
    "joint_probability",
]

# Row sums are kept bit-exact when within KEEP_TOL, silently rescaled
# within QUIET_TOL, rescaled with a load warning within REJECT_TOL, and
# refused beyond that.
KEEP_TOL = 1e-12
QUIET_TOL = 1e-9
REJECT_TOL = 0.02


class NetLoadError(ValueError):
    pass


class ImpossibleEvidenceError(ValueError):
    """The conditioned-on evidence has probability zero under the net."""


@dataclass(frozen=True)
class NetNode:
    name: str
    states: tuple[str, ...]
    parents: tuple[str, ...]

    @property
    def card(self) -> int:
        return len(self.states)


class DiscreteBayesNet:
    """Validated, immutable network; build via ``load_net``."""

    def __init__(self, nodes: Sequence[NetNode], cpts: Mapping[str, tuple], load_warnings, order):
        self.nodes = tuple(nodes)
        self._by_name = {n.name: n for n in self.nodes}
        # cpts[name][row][state]; rows ordered over parent assignments
        # with the first-listed parent varying slowest.
        self.cpts = {name: tuple(tuple(row) for row in table) for name, table in cpts.items()}
        self.load_warnings = list(load_warnings)
        self._order = tuple(order)
        # compiled eliminations by (query, observed nodes, order or None);
        # index tables only, every query multiplies and sums afresh
        self._plans: dict[tuple, tuple] = {}

    def node(self, name: str) -> NetNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown node {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def topological_order(self) -> tuple[str, ...]:
        """Parents before children, independent of document order."""
        return self._order

    def state_index(self, node_name: str, state) -> int:
        """A state's index from its name or its index (a bool is neither)."""
        node = self.node(node_name)
        if type(state) is int:
            if 0 <= state < len(node.states):
                return state
            raise ValueError(f"state {state} outside 0..{node.card - 1} for node {node_name!r}")
        if isinstance(state, str):
            try:
                return node.states.index(state)
            except ValueError:
                raise ValueError(f"node {node_name!r} has no state {state!r}") from None
        raise ValueError(f"state {state!r} for node {node_name!r} is neither a state name nor an integer index")


@dataclass
class Factor:
    """Dense table over an ordered scope, row-major with the first
    scope variable varying slowest."""

    scope: tuple[str, ...]
    cards: tuple[int, ...]
    values: list[float]

    def __post_init__(self) -> None:
        size = 1
        for c in self.cards:
            size *= c
        if len(self.values) != size:
            raise ValueError(f"factor over {self.scope} needs {size} values, got {len(self.values)}")

    def value_at(self, assignment: Mapping[str, int]) -> float:
        return self.values[_cell_indices((), (), self.scope, self.cards, assignment)[0]]

    def multiply(self, other: "Factor") -> "Factor":
        scope, cards, mine, theirs = _product(self.scope, self.cards, other.scope, other.cards)
        values = [self.values[i] * other.values[j] for i, j in zip(mine, theirs)]
        return Factor(scope, cards, values)

    def sum_out(self, var: str) -> "Factor":
        if var not in self.scope:
            raise ValueError(f"{var!r} not in factor scope {self.scope}")
        pos = self.scope.index(var)
        scope = self.scope[:pos] + self.scope[pos + 1:]
        cards = self.cards[:pos] + self.cards[pos + 1:]
        values = [0.0] * (len(self.values) // self.cards[pos])
        # cells in row-major order, so each sum adds var's states in turn
        for out_idx, v in zip(_cell_indices(self.scope, self.cards, scope, cards, {}), self.values):
            values[out_idx] += v
        return Factor(scope, cards, values)

    def reduce(self, var: str, state: int) -> "Factor":
        """Condition on var=state; the variable leaves the scope."""
        if var not in self.scope:
            return self
        pos = self.scope.index(var)
        scope = self.scope[:pos] + self.scope[pos + 1:]
        cards = self.cards[:pos] + self.cards[pos + 1:]
        indices = _cell_indices(scope, cards, self.scope, self.cards, {var: state})
        return Factor(scope, cards, [self.values[i] for i in indices])

    @classmethod
    def from_cpt(cls, net: DiscreteBayesNet, name: str) -> "Factor":
        node = net.node(name)
        scope = node.parents + (name,)
        cards = tuple(net.node(p).card for p in node.parents) + (node.card,)
        values = [v for row in net.cpts[name] for v in row]
        return cls(scope, cards, values)


def _product(scope_a, cards_a, scope_b, cards_b) -> tuple:
    """Scope and cards of the product of two tables (``scope_a``'s
    variables first), and for each of its cells the index in each table."""
    scope = scope_a + tuple(v for v in scope_b if v not in scope_a)
    card_of = dict(zip(scope_a, cards_a))
    card_of.update(zip(scope_b, cards_b))
    cards = tuple(card_of[v] for v in scope)
    mine = _cell_indices(scope, cards, scope_a, cards_a, {})
    theirs = _cell_indices(scope, cards, scope_b, cards_b, {})
    return scope, cards, mine, theirs


def _strides(table_scope, table_cards) -> dict[str, int]:
    """Row-major stride of each variable of a table."""
    strides = {}
    acc = 1
    for var, card in zip(reversed(table_scope), reversed(table_cards)):
        strides[var] = acc
        acc *= card
    return strides


def _cell_indices(scope, cards, table_scope, table_cards, fixed: Mapping[str, int]) -> list[int]:
    """For each cell over ``scope`` in row-major order, its index in a
    table over ``table_scope``.  A ``scope`` variable outside the table
    does not move the index; a table variable outside ``scope`` is read
    from ``fixed`` (``KeyError`` if absent)."""
    strides = _strides(table_scope, table_cards)
    indices = [sum(fixed[v] * strides[v] for v in table_scope if v not in scope)]
    for var, card in zip(scope, cards):
        stride = strides.get(var, 0)
        indices = [i + s * stride for i in indices for s in range(card)]
    return indices


def _topological_order(nodes: Sequence[NetNode]) -> tuple[str, ...]:
    """Kahn's algorithm taking each round of ready nodes sorted by name,
    so the order does not depend on document order."""
    remaining = {n.name: set(n.parents) for n in nodes}
    out = []
    while remaining:
        ready = sorted(name for name, deps in remaining.items() if not deps)
        if not ready:
            raise NetLoadError(f"cycle involving nodes {sorted(remaining)}")
        for name in ready:
            out.append(name)
            del remaining[name]
        for deps in remaining.values():
            deps.difference_update(ready)
    return tuple(out)


def _parent_rows(net_nodes: Mapping[str, NetNode], node: NetNode) -> int:
    rows = 1
    for p in node.parents:
        rows *= net_nodes[p].card
    return rows


_NET_KINDS = {"nodes": "array", "name": "string", "notes": "string"}
_NODE_KINDS = {
    "name": "string",
    "states": "array of strings",
    "parents": "array of strings",
    "cpt": "array of arrays of numbers",
}


def load_net(source) -> DiscreteBayesNet:
    """Parse and validate a network document (path or dict); an unknown
    key or an entry of another JSON kind raises ``NetLoadError``.

    CPT rows are checked against the distribution invariant: a row sum
    within 1e-12 of 1 is kept bit-for-bit, small drift is rescaled
    (silently up to 1e-9, with a warning up to 0.02), and anything
    further off is rejected as a likely authoring error.  Each warning
    is a message in the net's ``load_warnings``; loading prints nothing.
    """
    doc = check_entries(read_document(source), _NET_KINDS, ("nodes",), "network document", NetLoadError)
    if not doc["nodes"]:
        raise NetLoadError("document has no nodes")
    items = [
        check_entries(item, _NODE_KINDS, ("name", "states", "cpt"), f"node {i}", NetLoadError)
        for i, item in enumerate(doc["nodes"])
    ]
    nodes = [NetNode(n["name"], tuple(n["states"]), tuple(n.get("parents", ()))) for n in items]
    by_name = {n.name: n for n in nodes}
    if len(by_name) != len(nodes):
        raise NetLoadError("duplicate node names")
    for node in nodes:
        if node.card < 2:
            raise NetLoadError(f"node {node.name!r} needs at least 2 states")
        for p in node.parents:
            if p not in by_name:
                raise NetLoadError(f"node {node.name!r} lists unknown parent {p!r}")

    order = _topological_order(nodes)  # also the acyclicity check

    warnings_acc: list[str] = []
    cpts = {}
    for item, node in zip(items, nodes):
        table = item["cpt"]
        expected_rows = _parent_rows(by_name, node)
        if len(table) != expected_rows:
            raise NetLoadError(
                f"node {node.name!r}: cpt has {len(table)} rows, expected {expected_rows}"
            )
        rows = []
        for r, row in enumerate(table):
            if len(row) != node.card:
                raise NetLoadError(
                    f"node {node.name!r} row {r}: {len(row)} entries for {node.card} states"
                )
            if any(v < 0.0 for v in row):
                raise NetLoadError(f"node {node.name!r} row {r}: negative probability")
            total = left_sum(row)
            dev = abs(total - 1.0)
            if dev <= KEEP_TOL:
                pass
            elif dev <= REJECT_TOL:
                row = tuple(v / total for v in row)
                if dev > QUIET_TOL:
                    warnings_acc.append(f"node {node.name!r} row {r}: sum {total} renormalized")
            else:
                raise NetLoadError(
                    f"node {node.name!r} row {r}: sum {total} deviates more than {REJECT_TOL}"
                )
            rows.append(row)
        cpts[node.name] = tuple(rows)

    return DiscreteBayesNet(nodes, cpts, warnings_acc, order)


def _state_indices(net: DiscreteBayesNet, states) -> dict[str, int]:
    """State index by node name from a mapping of names to states (None
    is no states); anything else raises ``ValueError``."""
    if states is None:
        return {}
    if not isinstance(states, Mapping):
        raise ValueError(f"expected a mapping of node names to states, got {states!r}")
    return {name: net.state_index(name, state) for name, state in states.items()}


def _compile(net: DiscreteBayesNet, query: str, observed: frozenset, order) -> tuple:
    """The elimination ``Factor`` would run for ``query`` given evidence
    on ``observed``, as index tables: ``(gathers, steps, answer)``.

    ``gathers`` holds, per node in net order, its CPT flattened, the
    ``(variable, stride)`` of each observed variable in its scope, and the
    offsets of the cells a reduction keeps.  ``steps`` holds each multiply
    ``(slot, slot, indices, indices)`` and each sum-out ``(slot, output
    index per cell, output size)`` in the order the buckets take them; a
    step's table takes the next slot after the gathered ones, and
    ``answer`` is the slot of P(query).  Index lists come from
    ``_cell_indices``; an identity list is ``None``.
    """
    to_eliminate = [n for n in net.names if n != query and n not in observed]
    if order is None:
        order = [n for n in reversed(net.topological_order()) if n != query and n not in observed]
    elif sorted(order) != sorted(to_eliminate):
        raise ValueError(
            f"elimination order must cover exactly {sorted(to_eliminate)}, got {sorted(order)}"
        )

    gathers = []
    factors = []  # (scope, cards, slot) in the order the factor list keeps them
    for node in net.nodes:
        scope = node.parents + (node.name,)
        cards = tuple(net.node(p).card for p in node.parents) + (node.card,)
        strides = _strides(scope, cards)
        fixed = {v: 0 for v in scope if v in observed}
        kept = tuple(v for v in scope if v not in fixed)
        kept_cards = tuple(c for v, c in zip(scope, cards) if v not in fixed)
        flat = tuple(p for row in net.cpts[node.name] for p in row)
        offsets = _cell_indices(kept, kept_cards, scope, cards, fixed)
        gathers.append((flat, tuple((v, strides[v]) for v in fixed), offsets))
        factors.append((kept, kept_cards, len(factors)))

    steps = []

    def identity_or(indices):
        return None if indices == list(range(len(indices))) else indices

    def multiply(a, b):
        scope, cards, mine, theirs = _product(a[0], a[1], b[0], b[1])
        steps.append((a[2], b[2], identity_or(mine), identity_or(theirs)))
        return scope, cards, len(gathers) + len(steps) - 1

    for var in order:
        # never empty: var sits in its own CPT's factor until it is
        # eliminated, and eliminating another variable keeps it in scope
        bucket = [f for f in factors if var in f[0]]
        product = bucket[0]
        for f in bucket[1:]:
            product = multiply(product, f)
        scope, cards, slot = product
        pos = scope.index(var)
        out_scope = scope[:pos] + scope[pos + 1:]
        out_cards = cards[:pos] + cards[pos + 1:]
        out_of = _cell_indices(scope, cards, out_scope, out_cards, {})
        steps.append((slot, out_of, len(out_of) // cards[pos]))
        factors = [f for f in factors if var not in f[0]]
        factors.append((out_scope, out_cards, len(gathers) + len(steps) - 1))

    # Factor((), (), [1.0]) multiplies in the rest; 1.0 * p is p exactly
    result = factors[0]
    for f in factors[1:]:
        result = multiply(result, f)
    if result[0] != (query,):
        raise ValueError(f"elimination left scope {result[0]}, expected ({query!r},)")
    return tuple(gathers), tuple(steps), result[2]


def _eliminate(net: DiscreteBayesNet, query: str, evidence: dict[str, int], order) -> Sequence[float]:
    """Unnormalized P(query, evidence): the net's compiled plan for this
    query, observed set and order, run on the evidence states."""
    key = (query, frozenset(evidence), order if order is None else tuple(order))
    plan = net._plans.get(key)
    if plan is None:
        plan = net._plans[key] = _compile(net, *key)
    gathers, steps, answer = plan
    tables = []
    for flat, fixed, offsets in gathers:
        if not fixed:
            tables.append(flat)
            continue
        base = 0
        for var, stride in fixed:
            base += evidence[var] * stride
        tables.append([flat[base + o] for o in offsets])
    for step in steps:
        if len(step) == 4:  # a multiply; a sum-out has three entries
            a, b, mine, theirs = step
            a, b = tables[a], tables[b]
            tables.append(list(map(
                mul,
                a if mine is None else map(a.__getitem__, mine),
                b if theirs is None else map(b.__getitem__, theirs),
            )))
        else:
            table, out_of, size = step
            acc = [0.0] * size
            # cells in row-major order, as Factor.sum_out adds them
            for o, v in zip(out_of, tables[table]):
                acc[o] += v
            tables.append(acc)
    return tables[answer]


def _normalized(values: Sequence[float], zero_mass: Callable[[], Exception]) -> StateDistribution:
    """``values`` divided by their sum, or kept bit-for-bit when the sum
    is within ``KEEP_TOL`` of 1; raises ``zero_mass()`` when it is 0."""
    total = left_sum(values)
    if total <= 0.0:
        raise zero_mass()
    if abs(total - 1.0) > KEEP_TOL:
        return StateDistribution(tuple(v / total for v in values))
    return StateDistribution(tuple(values))


def marginal(net: DiscreteBayesNet, query: str, elimination_order=None) -> StateDistribution:
    """P(query) by summing out every other node; normalized exactly."""
    net.node(query)
    return _normalized(
        _eliminate(net, query, {}, elimination_order),
        lambda: ValueError(f"marginal of {query!r} has zero mass; CPTs inconsistent"),
    )


def posterior_given_evidence(net: DiscreteBayesNet, query: str, evidence) -> StateDistribution:
    """P(query | evidence); evidence with zero likelihood is an error,
    never a silent NaN."""
    net.node(query)
    ev = _state_indices(net, evidence)
    if query in ev:
        raise ValueError(f"evidence already fixes the query node {query!r}")
    return _normalized(
        _eliminate(net, query, ev, None),
        lambda: ImpossibleEvidenceError(f"evidence {evidence!r} has probability zero"),
    )


def joint_probability(net: DiscreteBayesNet, assignment: Mapping[str, int]) -> float:
    """Product of CPT entries along a full assignment (states by index or name)."""
    fixed = _state_indices(net, assignment)
    missing = [n for n in net.names if n not in fixed]
    if missing:
        raise ValueError(f"assignment missing nodes {missing}")
    prob = 1.0
    for node in net.nodes:
        row_idx = 0
        for p in node.parents:
            row_idx = row_idx * net.node(p).card + fixed[p]
        prob *= net.cpts[node.name][row_idx][fixed[node.name]]
    return prob
