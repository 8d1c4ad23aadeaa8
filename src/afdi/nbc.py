"""Naive Bayes classification over discretized metric attributes.

Training is closed-form counting with Laplace smoothing; inference
scores classes in log space (prior plus per-attribute conditional
log-likelihoods, from log tables each model builds once) and normalizes
with a max-shifted exponentiation, so long feature vectors with small
probabilities do not underflow.
Missing attribute values simply drop their factor.  A model scores each
distinct feature vector once and answers it again from a memo.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from typing import Sequence

from .states import _Frozen, check_distribution, check_entries, check_kind, index_cell, left_sum, read_document
from .states import read_table, sha256, write_table

__all__ = [
    "AttributeSchema",
    "NbcModel",
    "LabeledExample",
    "TrainingError",
    "AllZeroLikelihoodError",
    "ModelFormatError",
    "train",
    "posterior",
    "classify",
    "top_class",
    "save_model",
    "load_model",
    "read_training_csv",
    "write_training_csv",
    "load_schema",
]


class TrainingError(ValueError):
    pass


class AllZeroLikelihoodError(ValueError):
    """Every class has zero likelihood for the given features."""


class ModelFormatError(ValueError):
    """Persisted model fails hash or invariant checks."""


_SCHEMA_KINDS = {"attributes": "array of arrays", "classes": "array of strings"}
_MODEL_KINDS = {
    "format": "string",
    "version": "integer",
    "schema": "object",
    "schema_sha256": "string",
    "alpha": "number",
    "priors": "array of numbers",
    "cond": "array of arrays of arrays of numbers",
}


class AttributeSchema(namedtuple("AttributeSchema", "attributes classes")):
    """Ordered attributes with cardinalities, plus the class label set."""

    __slots__ = ()

    def __new__(cls, attributes: tuple[tuple[str, int], ...], classes: tuple[str, ...]):
        if not attributes:
            raise ValueError("schema needs at least one attribute")
        if len(classes) < 2:
            raise ValueError("schema needs at least two classes")
        names = [a for a, _ in attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        if len(set(classes)) != len(classes):
            raise ValueError("class labels must be unique")
        for name, card in attributes:
            if card < 2:
                raise ValueError(f"attribute {name!r} needs cardinality >= 2, got {card}")
        return tuple.__new__(cls, (attributes, classes))

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, label: str) -> int:
        try:
            return self.classes.index(label)
        except ValueError:
            raise ValueError(f"unknown class label {label!r}") from None

    def to_json_obj(self) -> dict:
        return {
            "attributes": [[n, c] for n, c in self.attributes],
            "classes": list(self.classes),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "AttributeSchema":
        """The schema a decoded document describes; any other key or JSON kind raises."""
        doc = check_entries(obj, _SCHEMA_KINDS, tuple(_SCHEMA_KINDS), "schema")
        for i, pair in enumerate(doc["attributes"]):
            if len(pair) != 2:
                got = json.dumps(pair)
                raise ValueError(f"schema: attribute {i} must be a [name, cardinality] pair, got {got}")
            check_kind(pair[0], "string", f"schema: name of attribute {i}")
            check_kind(pair[1], "integer", f"schema: cardinality of attribute {i}")
        return cls(attributes=tuple(map(tuple, doc["attributes"])), classes=tuple(doc["classes"]))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return sha256(blob.encode("utf-8")).hexdigest()


class LabeledExample(namedtuple("LabeledExample", "features label")):
    """Feature values by attribute position (None = missing) and a class index."""

    __slots__ = ()


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


class NbcModel(_Frozen):
    """A trained classifier: class ``priors``, conditional tables
    ``cond[j][c][v]`` = P(attribute j takes value v | class c), and the
    pseudo-count ``alpha`` they were smoothed with.  The priors and each
    table row are distributions as ``check_distribution`` states them,
    and ``alpha`` is a number >= 0."""

    _fields = ("schema", "priors", "cond", "alpha")
    # the logs posterior adds, taken once: log_priors[c], log_cond[j][c][v].
    # _memo holds posterior's answers: features -> (the validated tuple,
    # posterior).  One entry per valid vector with an observed value at
    # most: the product of (cardinality + 1) over the attributes, minus
    # the all-None vector.  For six 4-bucket attributes that is
    # 5**6 - 1 = 15,624 entries, 4**6 = 4,096 of them full vectors.
    # Failures are never stored.
    __slots__ = (*_fields, "log_priors", "log_cond", "_memo")

    def __init__(
        self,
        schema: AttributeSchema,
        priors: tuple[float, ...],
        cond: tuple[tuple[tuple[float, ...], ...], ...],
        alpha: float,
    ) -> None:
        k = schema.num_classes
        if len(priors) != k:
            raise ValueError("one prior per class required")
        check_distribution(priors, "prior distribution")
        if not alpha >= 0:
            raise ValueError(f"alpha must be a number >= 0, got {alpha}")
        if len(cond) != schema.num_attributes:
            raise ValueError("one conditional table per attribute required")
        for (name, card), table in zip(schema.attributes, cond):
            if len(table) != k:
                raise ValueError(f"table for {name!r} needs {k} class rows")
            for c, row in enumerate(table):
                if len(row) != card:
                    raise ValueError(f"table row {name!r}/class {c} has wrong width")
                check_distribution(row, f"table row {name!r}/class {c}")
                if alpha > 0 and any(p <= 0.0 for p in row):
                    raise ValueError(f"smoothed row {name!r}/class {c} contains a non-positive entry")
        log_priors = tuple(_log(p) for p in priors)
        log_cond = tuple(tuple(tuple(_log(p) for p in row) for row in table) for table in cond)
        for name, value in zip(self.__slots__, (schema, priors, cond, alpha, log_priors, log_cond, {})):
            object.__setattr__(self, name, value)


def _observed(features: Sequence, schema: AttributeSchema, error: type[Exception] = ValueError) -> list:
    """``(position, value)`` of each observed feature; raises ``error``
    unless there is one feature per attribute, each None (missing) or an
    int (a bool is none) in its attribute's range."""
    if len(features) != schema.num_attributes:
        raise error(f"expected {schema.num_attributes} features, got {len(features)}")
    observed = []
    for j, ((name, card), v) in enumerate(zip(schema.attributes, features)):
        if v is None:
            continue
        if type(v) is not int:
            raise error(f"value {v!r} for attribute {name!r} is not an integer or None")
        if not 0 <= v < card:
            raise error(f"value {v} outside 0..{card - 1} for attribute {name!r}")
        observed.append((j, v))
    return observed


def _validate_example(ex: LabeledExample, schema: AttributeSchema) -> None:
    """An int label in range, and features as ``posterior`` takes them."""
    if type(ex.label) is not int:
        raise TrainingError(f"label {ex.label!r} is not an integer class index")
    if not 0 <= ex.label < schema.num_classes:
        raise TrainingError(f"label {ex.label} outside 0..{schema.num_classes - 1}")
    _observed(ex.features, schema, TrainingError)


def train(dataset: Sequence[LabeledExample], schema: AttributeSchema, alpha: float = 1.0) -> NbcModel:
    """Count-based estimation with pseudo-count ``alpha`` per cell.

    priors[c] = (count(c) + alpha) / (N + alpha*|C|); conditional rows
    are smoothed the same way over each attribute's cardinality.
    Missing feature values are excluded from the counts, so each (class,
    attribute) row normalizes over the examples that observed it.
    """
    if not dataset:
        raise TrainingError("empty training set")
    if not 0 <= alpha < math.inf:
        raise TrainingError(f"alpha must be a finite number >= 0, got {alpha}")
    k = schema.num_classes
    for ex in dataset:
        _validate_example(ex, schema)

    n = len(dataset)
    class_counts = [0] * k
    # value_counts[j][c][v]; observed[j][c] = sum over v
    value_counts = [[[0] * card for _ in range(k)] for _, card in schema.attributes]
    for ex in dataset:
        class_counts[ex.label] += 1
        for j, v in enumerate(ex.features):
            if v is not None:
                value_counts[j][ex.label][v] += 1

    priors = tuple((class_counts[c] + alpha) / (n + alpha * k) for c in range(k))

    cond = []
    for j, (name, card) in enumerate(schema.attributes):
        rows = []
        for c in range(k):
            observed = sum(value_counts[j][c])
            denom = observed + alpha * card
            if denom == 0:
                # alpha=0 and this class never observed attribute j: no
                # information at all, fall back to uniform.
                warnings.warn(
                    f"no observations for attribute {name!r} under class "
                    f"{schema.classes[c]!r} with alpha=0; using uniform row"
                )
                rows.append(tuple(1.0 / card for _ in range(card)))
            else:
                rows.append(tuple((value_counts[j][c][v] + alpha) / denom for v in range(card)))
        cond.append(tuple(rows))

    return NbcModel(schema=schema, priors=priors, cond=tuple(cond), alpha=alpha)


def posterior(model: NbcModel, features: Sequence) -> tuple[float, ...]:
    """Normalized class posterior for a (possibly partial) feature vector.

    Each feature is None (missing) or an int index into its attribute's
    values; a bool, a float or any other value raises ``ValueError``.  A
    class whose prior or any observed conditional is zero gets
    posterior exactly 0; if that happens to every class the query is
    unanswerable and ``AllZeroLikelihoodError`` is raised.

    The model keeps each answer, so equal features give one tuple
    object and are scored once.  A hit on the very tuple that was
    checked is returned at once; any other equal sequence is checked
    first, since ``(1.0,)`` and ``(True,)`` equal ``(1,)``.
    """
    features = tuple(features)
    try:
        hit = model._memo.get(features)
    except TypeError:  # an unhashable value, which the checks below name
        hit = None
    # the memo keeps each checked tuple alive, so no other object has its id
    if hit is not None and hit[0] is features:
        return hit[1]
    observed = _observed(features, model.schema)
    if hit is not None:
        return hit[1]
    if not observed:
        return model.priors

    log_cond = model.log_cond
    scores = []
    for c, s in enumerate(model.log_priors):
        for j, v in observed:
            s += log_cond[j][c][v]
        scores.append(s)
    top = max(scores)
    if top == float("-inf"):
        raise AllZeroLikelihoodError("all classes have zero likelihood for these features")
    weights = [math.exp(s - top) for s in scores]
    total = left_sum(weights)
    post = tuple(w / total for w in weights)
    model._memo[features] = (features, post)
    return post


def classify(model: NbcModel, features: Sequence) -> int:
    """MAP class index; exact ties go to the lowest class index."""
    return top_class(posterior(model, features))


def top_class(post: Sequence[float]) -> int:
    """Index of the largest posterior entry; exact ties go to the lowest index."""
    best = 0
    for c in range(1, len(post)):
        if post[c] > post[best]:
            best = c
    return best


# -- persistence -----------------------------------------------------

_MODEL_FORMAT = "nbc-model"


def save_model(model: NbcModel, path) -> None:
    doc = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "schema": model.schema.to_json_obj(),
        "schema_sha256": model.schema.content_hash(),
        "alpha": model.alpha,
        "priors": list(model.priors),
        "cond": [[list(row) for row in table] for table in model.cond],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_model(path) -> NbcModel:
    """Load a ``save_model`` document; any other key or JSON kind raises ``ModelFormatError``."""
    where = f"model {path}"
    doc = check_entries(read_document(path), _MODEL_KINDS, tuple(_MODEL_KINDS), where, ModelFormatError)
    if doc["format"] != _MODEL_FORMAT or doc["version"] != 1:
        raise ModelFormatError(f"not an NBC model document of version 1: {path}")
    schema = AttributeSchema.from_json_obj(doc["schema"])
    if schema.content_hash() != doc["schema_sha256"]:
        raise ModelFormatError("schema content hash mismatch; model file corrupted or edited")
    try:
        return NbcModel(
            schema=schema,
            priors=tuple(doc["priors"]),
            cond=tuple(tuple(tuple(row) for row in table) for table in doc["cond"]),
            alpha=doc["alpha"],
        )
    except ValueError as exc:
        raise ModelFormatError(f"model invariants violated: {exc}") from exc


# -- training-data CSV (format: README, "File formats") -------------


def write_training_csv(dataset: Sequence[LabeledExample], schema: AttributeSchema, path) -> None:
    header = [name for name, _ in schema.attributes] + ["label"]
    write_table(path, header, ([*ex.features, schema.classes[ex.label]] for ex in dataset))


def read_training_csv(path, schema: AttributeSchema) -> list[LabeledExample]:
    """The examples of a labeled CSV; a bad header or row raises
    ``TrainingError`` naming the path and the line."""

    def example(cells):
        features = tuple(None if cell == "" else index_cell(cell) for cell in cells[:-1])
        ex = LabeledExample(features=features, label=schema.class_index(cells[-1]))
        _validate_example(ex, schema)
        return ex

    header = [name for name, _ in schema.attributes] + ["label"]
    _, rows = read_table(path, example, TrainingError, header)
    return [ex for _, ex in rows]


def load_schema(path) -> AttributeSchema:
    return AttributeSchema.from_json_obj(read_document(path))
