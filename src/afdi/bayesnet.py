"""Exact inference on small discrete Bayesian networks.

Queries run bucket (variable) elimination over dense factor tables:
each non-query variable is summed out in turn after multiplying the
factors that mention it.  Networks here are tiny (a handful of
three-state nodes), so no junction trees, no approximation, and no
attention to elimination-order width beyond a deterministic default.

Which cells an elimination multiplies and adds depends only on the
query, the set of observed nodes and the order, never on the observed
states.  So the first query of each such kind compiles its plan: one
straight-line Python function of the evidence dict that resolves the
states through a table the net builds at load, unpacks the CPT cells it
needs, multiplies and sums cell by cell in the same order as ``Factor``
would, so every answer is the same float, and ends in the net's
compiled normalizer, which checks and builds the ``StateDistribution``.
A query whose plan exists is one dictionary lookup and one call; any
other takes the full path, which judges each input in turn.  A plan
holds integers and references to the CPTs, never answers, and no source
holds text of the network document.  No expression nests deeper than
about ``2 * CHAIN`` operations: longer sums and products carry on
through a local.  The net keeps the plan (at most n·2^(n-1) of them for
an n-node net with the default order, plus one per explicit order).
Compiling a plan costs some hundred times a query that runs it (README
gives the case study's figures), so the first query of each kind pays
for the rest.

Network documents are JSON: a list of nodes, each with a name, its
state names, its parent list, and a CPT holding one row per parent
assignment (first-listed parent varying slowest), each row a
distribution over the node's states.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from .states import SUM_TOL, StateDistribution, check_entries, left_sum, read_document

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
        # state index by node, exact type and state, for a state given as
        # its index or its name, the first of two equal names as in
        # state_index; any other state is state_index's to judge
        self._state_index = {
            node.name: {int: {i: i for i in range(node.card)},
                        str: {node.states[i]: i for i in reversed(range(node.card))}}
            for node in self.nodes
        }
        # compiled eliminations by (query, observed nodes, order or None);
        # functions of the evidence, every query multiplies and sums afresh;
        # all of them read the CPTs flattened once, in node order
        self._plans: dict[tuple, Callable] = {}
        self._flat_cpts = tuple(tuple(p for row in self.cpts[n.name] for p in row) for n in self.nodes)
        # compiled normalizers of an answer, by its number of states
        self._normalizers: dict[int, Callable] = {}

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
    if type(states) is not dict and not isinstance(states, Mapping):  # a dict skips the ABC check
        raise ValueError(f"expected a mapping of node names to states, got {states!r}")
    table = net._state_index
    try:
        return {name: table[name][type(state)][state] for name, state in states.items()}
    except (KeyError, TypeError):  # a miss, or an unhashable state, raises here
        return {name: net.state_index(name, state) for name, state in states.items()}


# No generated expression nests deeper than about twice this: a sum adds
# at most this many terms in one expression and carries a longer sum on
# through its name, and a product of more factors goes through names too
# (compiling a 3,000-term chain exhausts the compiler's recursion limit on
# CPython 3.11).
CHAIN = 100


def _sum_lines(name: str, start: str, terms: list) -> list:
    """Lines that set ``name`` to ``start`` plus ``terms`` added left to
    right, ``CHAIN`` terms per line."""
    return [f"{name} = {name if k else start} + " + " + ".join(terms[k:k + CHAIN])
            for k in range(0, len(terms), CHAIN)]


def _define(source: str, name: str, defaults: tuple) -> Callable:
    """The function ``name`` that ``source`` defines, with ``defaults``."""
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    function = namespace[name]
    function.__defaults__ = defaults
    return function


def _normalizer(net: DiscreteBayesNet, card: int) -> Callable:
    """The net's normalizer of an answer's ``card`` cells, compiled on
    first use: straight-line code that adds the cells from 0 as
    ``left_sum`` does and returns None unless the total is above 0.0;
    divides them by it unless it is within ``KEEP_TOL`` of 1 and no cell
    exceeds 1 (then keeps them bit for bit); and makes the checks of
    ``StateDistribution``.  A distribution that passes is built without
    checking it again; one that fails goes to ``StateDistribution``,
    which raises its message.
    """
    normalize = net._normalizers.get(card)
    if normalize is None:
        cells = [f"c{i}" for i in range(card)]
        body = _sum_lines("t", "0", cells) + [
            "if t <= 0.0:",
            "    return",
            f"if abs(t - 1.0) > {KEEP_TOL!r}" + "".join(f" or {c} > 1.0" for c in cells) + ":",
            *(f"    {c} = {c} / t" for c in cells),
            *("    " + line for line in _sum_lines("t", "0", cells)),
            f"r = ({', '.join(cells)},)",
            # StateDistribution's checks, for floats: any other entry goes to it
            f"if abs(t - 1.0) <= {SUM_TOL!r}" + "".join(
                f" and type({c}) is float and 0.0 <= {c} <= 1.0" for c in cells) + ":",
            "    d = new(dist)",
            "    put(d, r)",
            "    return d",
            "return dist(r)",
        ]
        source = f"def normalize({', '.join(cells)}, new, dist, put):\n" + "".join(f"    {line}\n" for line in body)
        normalize = net._normalizers[card] = _define(
            source, "normalize", (object.__new__, StateDistribution, StateDistribution.probs.__set__))
    return normalize


def _compile(net: DiscreteBayesNet, query: str, observed: frozenset, order) -> Callable:
    """The elimination ``Factor`` would run for ``query`` given evidence
    on ``observed``, as one function of the evidence dict that returns
    the ``StateDistribution``, or None for zero mass; a state that is
    neither an in-range ``int`` nor a state name raises ``KeyError`` or
    ``TypeError``.

    The function is straight-line code.  It reads each CPT's cells in
    one unpacking, of the CPT or of its row at the evidence states (rows
    built here).  A multiply multiplies two cells, and a sum-out adds its
    cells from 0.0 in row-major order; the buckets take them in the order
    ``Factor`` does, so each cell is the float ``Factor`` computes.  A
    product is an expression where it is read once and a local where it
    is read more often; every sum is a local.  It returns what the net's
    normalizer makes of the query's cells.  The source holds only numbers
    and the names made here: the CPT rows, the evidence node names, their
    state tables and the normalizer come in as default arguments.
    """
    to_eliminate = [n for n in net.names if n != query and n not in observed]
    if order is None:
        order = [n for n in reversed(net.topological_order()) if n != query and n not in observed]
    elif sorted(order) != sorted(to_eliminate):
        raise ValueError(
            f"elimination order must cover exactly {sorted(to_eliminate)}, got {sorted(order)}"
        )

    keys = [n for n in net.names if n in observed]
    # each observed node's state by its exact type; a miss raises
    # KeyError, an unhashable state TypeError
    body = [f"s{i} = e{i}[type(ev[k{i}])][ev[k{i}]]" for i in range(len(keys))]
    state_of = {name: f"s{i}" for i, name in enumerate(keys)}
    count = itertools.count()

    # a table: (scope, cards, cell expressions, how deep its products nest)
    factors = []
    tables = []
    for j, node in enumerate(net.nodes):
        scope = node.parents + (node.name,)
        cards = tuple(net.node(p).card for p in node.parents) + (node.card,)
        fixed = tuple(v for v in scope if v in observed)
        kept = tuple(v for v in scope if v not in observed)
        kept_cards = tuple(c for v, c in zip(scope, cards) if v not in observed)
        table = flat = net._flat_cpts[j]
        index = ""
        if fixed:
            # the CPT's cells at each evidence row, rows in row-major order
            fixed_cards = tuple(net.node(v).card for v in fixed)
            offsets = _cell_indices(kept, kept_cards, scope, cards, dict.fromkeys(fixed, 0))
            bases = _cell_indices(fixed, fixed_cards, scope, cards, dict.fromkeys(kept, 0))
            table = tuple([tuple([flat[b + o] for o in offsets]) for b in bases])
            strides = _strides(fixed, fixed_cards)
            index = "[" + " + ".join(state_of[v] + ("" if strides[v] == 1 else f" * {strides[v]}") for v in fixed) + "]"
        cells = [f"c{next(count)}" for _ in (table[0] if fixed else table)]
        body.append(", ".join(cells) + f", = f{j}{index}")
        tables.append(table)
        factors.append((kept, kept_cards, cells, 0))

    def operands(table, indices):
        """The cells of ``table`` a multiply reads at ``indices``, with a
        cell read more than once, or nested too deep, bound to a local."""
        cells, depth = table[2], table[3]
        reads = [0] * len(cells)
        for i in indices:
            reads[i] += 1
        cells = list(cells)
        for i, n in enumerate(reads):
            if not (cells[i].isidentifier() or (n < 2 and depth < CHAIN)):
                name = f"c{next(count)}"
                body.append(f"{name} = {cells[i]}")
                cells[i] = name
        return [cells[i] for i in indices], 0 if depth >= CHAIN else depth

    def multiply(a, b):
        scope, cards, mine, theirs = _product(a[0], a[1], b[0], b[1])
        left, da = operands(a, mine)
        right, db = operands(b, theirs)
        if db:
            right = [f"({c})" for c in right]
        return scope, cards, [f"{x} * {y}" for x, y in zip(left, right)], max(da, db) + 1

    for var in order:
        # never empty: var sits in its own CPT's factor until it is
        # eliminated, and eliminating another variable keeps it in scope
        bucket = [f for f in factors if var in f[0]]
        product = bucket[0]
        for f in bucket[1:]:
            product = multiply(product, f)
        scope, cards, cells, _ = product
        pos = scope.index(var)
        out_scope = scope[:pos] + scope[pos + 1:]
        out_cards = cards[:pos] + cards[pos + 1:]
        terms = [[] for _ in range(len(cells) // cards[pos])]
        # cells in row-major order, as Factor.sum_out adds them
        for o, c in zip(_cell_indices(scope, cards, out_scope, out_cards, {}), cells):
            terms[o].append(c)
        sums = [f"c{next(count)}" for _ in terms]
        for name, chain in zip(sums, terms):
            body.extend(_sum_lines(name, "0.0", chain))
        factors = [f for f in factors if var not in f[0]]
        factors.append((out_scope, out_cards, sums, 0))

    # Factor((), (), [1.0]) multiplies in the rest; 1.0 * p is p exactly
    result = factors[0]
    for f in factors[1:]:
        result = multiply(result, f)
    if result[0] != (query,):
        raise ValueError(f"elimination left scope {result[0]}, expected ({query!r},)")
    body.append(f"return normalize({', '.join(result[2])})")
    params = [f"f{j}" for j in range(len(net.nodes))] + [f"k{i}, e{i}" for i in range(len(keys))]
    source = f"def plan(ev, {', '.join(params)}, normalize):\n" + "".join(f"    {line}\n" for line in body)
    evidence = [x for key in keys for x in (key, net._state_index[key])]
    return _define(source, "plan", (*tables, *evidence, _normalizer(net, len(result[2]))))


def _plan(net: DiscreteBayesNet, query: str, observed: frozenset, order) -> Callable:
    """The net's plan for ``query`` given evidence on ``observed`` in
    ``order`` (None: the default), compiled on its first use."""
    key = (query, observed, order if order is None else tuple(order))
    plan = net._plans.get(key)
    if plan is None:
        plan = net._plans[key] = _compile(net, *key)
    return plan


_NOTHING = frozenset()


def marginal(net: DiscreteBayesNet, query: str, elimination_order=None) -> StateDistribution:
    """P(query) by summing out every other node; normalized exactly."""
    if elimination_order is None:
        plan = net._plans.get((query, _NOTHING, None))
        if plan is not None:
            answer = plan({})
            if answer is not None:
                return answer
    net.node(query)
    answer = _plan(net, query, _NOTHING, elimination_order)({})
    if answer is None:
        raise ValueError(f"marginal of {query!r} has zero mass; CPTs inconsistent")
    return answer


def posterior_given_evidence(net: DiscreteBayesNet, query: str, evidence) -> StateDistribution:
    """P(query | evidence); evidence with zero likelihood is an error,
    never a silent NaN.  A dict whose plan exists goes straight to it;
    anything the plan does not answer takes the full path, which judges
    the query, the evidence and each state in turn."""
    if type(evidence) is dict:
        plan = net._plans.get((query, frozenset(evidence), None))
        if plan is not None:
            try:
                answer = plan(evidence)
            except (KeyError, TypeError):  # a state the table lacks
                answer = None
            if answer is not None:
                return answer
    net.node(query)
    ev = _state_indices(net, evidence)
    if query in ev:
        raise ValueError(f"evidence already fixes the query node {query!r}")
    answer = _plan(net, query, frozenset(ev), None)(ev)
    if answer is None:  # the states are resolved, so the mass is zero
        raise ImpossibleEvidenceError(f"evidence {evidence!r} has probability zero")
    return answer


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
