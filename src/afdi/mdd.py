"""Reduced ordered multi-valued decision diagrams over multi-state components.

A diagram maps every assignment of component state levels to a single
system severity level.  Construction is Shannon-style recursion over the
declared component order with a unique-node table, so the result is
canonical for a given order: no node has all-identical children and no
two nodes share (component, children).  Queries never enumerate the
state product; evaluation follows one root-to-sink path and the
probability query is one pass over the node store, children first.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .states import ComponentId, StateDistribution, StateVector, left_sum

__all__ = [
    "Mdd",
    "CapacityError",
    "InvalidModelError",
    "MddInputError",
    "build_from_structure_function",
    "build_max_severity",
    "DEFAULT_PRODUCT_LIMIT",
]

DEFAULT_PRODUCT_LIMIT = 3 ** 12


class CapacityError(ValueError):
    """State product of the requested model exceeds the build limit."""


class InvalidModelError(ValueError):
    """Model shape is unusable (e.g. no components)."""


class MddInputError(ValueError):
    """A query argument does not fit the diagram it was given to."""


# Node store entries.  Sinks: ("sink", level).  Internal: ("node",
# component index, child index tuple).  Plain tuples keep hash-consing
# keys and stored nodes identical.
_SINK = "sink"
_NODE = "node"


class Mdd:
    """Immutable decision diagram over an ordered set of components.

    Instances are produced by the module-level builders; the constructor
    is internal.  All queries are pure and safe to run concurrently.
    """

    def __init__(self, components: Sequence[ComponentId], arities: Sequence[int]):
        if len(components) != len(arities):
            raise InvalidModelError("one arity per component required")
        if not components:
            raise InvalidModelError("at least one component required")
        names = set()
        for comp, arity in zip(components, arities):
            if comp.key in names:
                raise InvalidModelError(f"duplicate component {comp.key}")
            names.add(comp.key)
            if arity < 2:
                raise InvalidModelError(f"component {comp.key} needs arity >= 2, got {arity}")
        self.components = tuple(components)
        self.arities = tuple(int(a) for a in arities)
        self._nodes: list[tuple] = []
        self._id_by_key: dict[tuple, int] = {}
        self.root: int | None = None  # node index, set by the builder

    # -- construction internals -------------------------------------

    def _intern(self, key: tuple) -> int:
        """Index of the stored node ``key``, appended if new."""
        idx = self._id_by_key.get(key)
        if idx is None:
            idx = self._id_by_key[key] = len(self._nodes)
            self._nodes.append(key)
        return idx

    def _mk_sink(self, level: int) -> int:
        return self._intern((_SINK, level))

    def _mk_node(self, comp_index: int, children: tuple[int, ...]) -> int:
        first = children[0]
        if all(c == first for c in children):
            return first  # redundant test, reduce away
        return self._intern((_NODE, comp_index, children))

    # -- queries ------------------------------------------------------

    def node_count(self) -> int:
        """Number of stored nodes, sinks included."""
        return len(self._nodes)

    def evaluate(self, states: StateVector) -> int:
        """Follow the path selected by ``states`` and return its sink level.

        ``states`` must assign exactly the diagram's components; levels
        must be within each component's arity.  Components reduced out
        of the diagram are still required (they simply don't branch).
        """
        by_comp = dict(states.assignments)
        if set(by_comp) != set(self.components):
            missing = {c.key for c in self.components} - {c.key for c in by_comp}
            extra = {c.key for c in by_comp} - {c.key for c in self.components}
            raise MddInputError(f"state vector mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        levels = []
        for comp, arity in zip(self.components, self.arities):
            lvl = by_comp[comp]
            if not 0 <= lvl < arity:
                raise MddInputError(f"level {lvl} out of range for {comp.key} (arity {arity})")
            levels.append(lvl)
        return self.evaluate_levels(levels)

    def evaluate_levels(self, levels: Sequence[int]) -> int:
        """Sink level of the path selected by ``levels``, one per component
        in diagram order.  Unchecked: ``evaluate`` is the checked entry."""
        nodes = self._nodes
        node = nodes[self.root]
        while node[0] == _NODE:
            node = nodes[node[2][levels[node[1]]]]
        return node[1]

    def level_probabilities(self, dists: Sequence[Sequence[float]]) -> StateDistribution:
        """Exact distribution over system levels under component independence.

        ``dists`` gives one normalized per-state distribution per
        component, in component order; an entry that is not an ``int``
        or a ``float`` (a bool is neither) raises ``MddInputError``
        naming the component.  One pass over the node store, children
        first: at an internal node the child distributions are mixed by
        the component's state probabilities; no enumeration of the
        product space happens.
        """
        if len(dists) != len(self.components):
            raise MddInputError(
                f"expected {len(self.components)} distributions, got {len(dists)}"
            )
        checked: list[tuple[float, ...]] = []
        for comp, arity, d in zip(self.components, self.arities, dists):
            probs = tuple(d)
            for p in probs:
                if type(p) is not float and type(p) is not int:
                    raise MddInputError(f"distribution for {comp.key} has {p!r}, not a number")
            if len(probs) != arity:
                raise MddInputError(f"distribution for {comp.key} has {len(probs)} states, arity is {arity}")
            # NaN fails the range test too, so it cannot pass the sum below
            if not all(0.0 <= p <= 1.0 for p in probs):
                raise MddInputError(f"distribution for {comp.key} has probabilities outside [0, 1]")
            probs = tuple(map(float, probs))
            total = left_sum(probs)
            if abs(total - 1.0) > 1e-12:
                raise MddInputError(f"distribution for {comp.key} sums to {total}, not 1")
            checked.append(probs)

        num_levels = max(n[1] for n in self._nodes if n[0] == _SINK) + 1
        # every node is stored after its children (Bryant 1986's bottom-up
        # order), so each child's distribution is finished before its parent's
        done: list[tuple[float, ...]] = []
        for node in self._nodes:
            if node[0] == _SINK:
                done.append(tuple(1.0 if m == node[1] else 0.0 for m in range(num_levels)))
                continue
            _, comp_index, children = node
            acc = [0.0] * num_levels
            for p, child in zip(checked[comp_index], children):
                if p != 0.0:  # a state that cannot occur adds nothing
                    acc = [a + p * c for a, c in zip(acc, done[child])]
            done.append(tuple(acc))
        return StateDistribution(done[self.root])

    def to_dot(self) -> str:
        """Graph-description text: internal nodes by component name, sinks by level."""
        lines = ["digraph mdd {", "  rankdir=TB;"]
        for idx, node in enumerate(self._nodes):
            if node[0] == _SINK:
                lines.append(f'  n{idx} [shape=box, label="{node[1]}"];')
            else:
                lines.append(f'  n{idx} [shape=ellipse, label="{self.components[node[1]].key}"];')
        for idx, node in enumerate(self._nodes):
            if node[0] == _NODE:
                for state, child in enumerate(node[2]):
                    lines.append(f'  n{idx} -> n{child} [label="{state}"];')
        lines.append(f"  root -> n{self.root};")
        lines.append('  root [shape=point];')
        lines.append("}")
        return "\n".join(lines)


def build_from_structure_function(
    components: Sequence[ComponentId],
    arities: Sequence[int],
    f: Callable[[StateVector], int],
) -> Mdd:
    """Build the canonical reduced ordered diagram computing ``f``.

    ``f`` must be total over the full state product; it is called once
    per product point during construction (the diagram itself never
    re-enumerates).  A result that is not a non-negative ``int`` (a bool
    or a float is not one) raises ``InvalidModelError``.  Product spaces
    larger than ``DEFAULT_PRODUCT_LIMIT`` are refused.
    """
    mdd = Mdd(components, arities)
    product = math.prod(mdd.arities)
    if product > DEFAULT_PRODUCT_LIMIT:
        raise CapacityError(f"state product {product} exceeds limit {DEFAULT_PRODUCT_LIMIT}")

    comps = mdd.components
    n = len(comps)

    def build(i: int, partial: list[int]) -> int:
        if i == n:
            sv = StateVector.from_levels(comps, partial)
            level = f(sv)
            if type(level) is not int:
                at = ", ".join(f"{c.key}={lvl}" for c, lvl in sv.assignments)
                raise InvalidModelError(f"structure function returned {level!r} at ({at}), not an integer level")
            if level < 0:
                raise InvalidModelError(f"structure function returned negative level {level}")
            return mdd._mk_sink(level)
        children = []
        for state in range(mdd.arities[i]):
            partial.append(state)
            children.append(build(i + 1, partial))
            partial.pop()
        return mdd._mk_node(i, tuple(children))

    mdd.root = build(0, [])
    return mdd


def build_max_severity(components: Sequence[ComponentId]) -> Mdd:
    """Severity model: the system is as bad as its worst component.

    All components are three-state (normal / minor / serious) and the
    system level is the elementwise maximum of the vector.
    """
    if not components:
        raise InvalidModelError("max-severity model needs at least one component")
    arities = [3] * len(components)
    return build_from_structure_function(components, arities, lambda sv: max(sv.levels))
