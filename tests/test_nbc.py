import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from afdi.bayesnet import load_net, posterior_given_evidence
from afdi.nbc import (
    AllZeroLikelihoodError,
    AttributeSchema,
    LabeledExample,
    ModelFormatError,
    NbcModel,
    TrainingError,
    classify,
    load_model,
    load_schema,
    posterior,
    read_training_csv,
    save_model,
    top_class,
    train,
    write_training_csv,
)

from conftest import fixture_path

import oracles

BINARY = AttributeSchema(attributes=(("x", 2),), classes=("a", "b"))


def _model(priors, cond, schema=None, alpha=1.0):
    return NbcModel(schema=schema or BINARY, priors=priors, cond=cond, alpha=alpha)


def test_schema_validation():
    with pytest.raises(ValueError):
        AttributeSchema(attributes=(), classes=("a", "b"))
    with pytest.raises(ValueError):
        AttributeSchema(attributes=(("x", 2),), classes=("a",))
    with pytest.raises(ValueError):
        AttributeSchema(attributes=(("x", 2), ("x", 3)), classes=("a", "b"))
    with pytest.raises(ValueError):
        AttributeSchema(attributes=(("x", 1),), classes=("a", "b"))


def test_train_symmetric_counts_alpha_zero():
    ds = [
        LabeledExample((0,), 0),
        LabeledExample((1,), 0),
        LabeledExample((0,), 1),
        LabeledExample((1,), 1),
    ]
    model = train(ds, BINARY, alpha=0.0)
    assert model.priors == (0.5, 0.5)


def test_train_laplace_priors():
    ds = [LabeledExample((0,), 0)] * 3 + [LabeledExample((0,), 1)]
    model = train(ds, BINARY, alpha=1.0)
    assert abs(model.priors[0] - 4 / 6) <= 1e-15
    assert abs(model.priors[1] - 2 / 6) <= 1e-15


def test_train_laplace_conditional_row():
    # class 0 sees value 1 twice out of two observations: (2+1)/(2+2)
    ds = [
        LabeledExample((1,), 0),
        LabeledExample((1,), 0),
        LabeledExample((0,), 1),
        LabeledExample((1,), 1),
    ]
    model = train(ds, BINARY, alpha=1.0)
    assert model.cond[0][0][1] == (2 + 1) / (2 + 2)
    assert model.cond[0][0][0] == (0 + 1) / (2 + 2)


def test_train_counting_matches_oracle():
    rng = random.Random(11)
    schema = AttributeSchema(
        attributes=(("u", 3), ("v", 2), ("w", 4)), classes=("a", "b", "c")
    )
    ds = [
        LabeledExample(
            tuple(rng.randrange(card) for _, card in schema.attributes),
            rng.randrange(3),
        )
        for _ in range(120)
    ]
    alpha = 1.0
    model = train(ds, schema, alpha=alpha)
    # independent counting
    for c in range(3):
        n_c = sum(1 for ex in ds if ex.label == c)
        assert abs(model.priors[c] - (n_c + alpha) / (len(ds) + alpha * 3)) <= 1e-15
        for j, (_, card) in enumerate(schema.attributes):
            for v in range(card):
                n_cv = sum(1 for ex in ds if ex.label == c and ex.features[j] == v)
                expected = (n_cv + alpha) / (n_c + alpha * card)
                assert abs(model.cond[j][c][v] - expected) <= 1e-15


def test_train_errors():
    with pytest.raises(TrainingError):
        train([], BINARY)
    with pytest.raises(TrainingError):
        train([LabeledExample((0,), 5)], BINARY)
    with pytest.raises(TrainingError):
        train([LabeledExample((7,), 0)], BINARY)
    with pytest.raises(TrainingError):
        train([LabeledExample((0,), 0)], BINARY, alpha=-1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_train_rejects_a_non_finite_alpha(alpha):
    # before, NbcModel rejected the NaN priors this made, naming no alpha
    with pytest.raises(TrainingError, match=f"^alpha must be a finite number >= 0, got {alpha}$"):
        train([LabeledExample((0,), 0), LabeledExample((1,), 1)], BINARY, alpha=alpha)


@pytest.mark.parametrize(
    "example, named",
    [
        (LabeledExample((True,), 0), r"value True for attribute 'x' is not an integer or None"),
        (LabeledExample((1.0,), 0), r"value 1\.0 for attribute 'x' is not an integer or None"),
        (LabeledExample((0,), True), r"label True is not an integer class index"),
        (LabeledExample((0,), 1.0), r"label 1\.0 is not an integer class index"),
        (LabeledExample((0, 1), 0), r"expected 1 features, got 2"),
    ],
    ids=["bool-feature", "float-feature", "bool-label", "float-label", "wrong-length"],
)
def test_train_takes_features_as_posterior_does(example, named):
    # before, True counted as value 1 and label 1, and a float feature
    # ended in a bare TypeError from the count tables
    with pytest.raises(TrainingError, match=named):
        train([example, LabeledExample((0,), 1)], BINARY)


def test_train_alpha_zero_unobserved_attribute_warns():
    # class 1 never observes the attribute at all
    ds = [LabeledExample((0,), 0), LabeledExample((None,), 1)]
    with pytest.warns(UserWarning):
        model = train(ds, BINARY, alpha=0.0)
    assert model.cond[0][1] == (0.5, 0.5)


def test_posterior_uniform_tables_returns_priors():
    model = _model((0.3, 0.7), (((0.5, 0.5), (0.5, 0.5)),))
    post = posterior(model, (1,))
    assert abs(post[0] - 0.3) <= 1e-12
    assert abs(post[1] - 0.7) <= 1e-12


def test_posterior_hand_example():
    # equal priors, single attribute with likelihoods 0.9 / 0.1
    model = _model((0.5, 0.5), (((0.9, 0.1), (0.1, 0.9)),))
    post = posterior(model, (0,))
    assert abs(post[0] - 0.9) <= 1e-12
    assert abs(post[1] - 0.1) <= 1e-12


def test_posterior_all_missing_is_priors():
    model = _model((0.25, 0.75), (((0.9, 0.1), (0.2, 0.8)),))
    assert posterior(model, (None,)) == (0.25, 0.75)


def test_posterior_normalized_and_matches_linear_oracle():
    rng = random.Random(3)
    schema = AttributeSchema(
        attributes=tuple((f"a{j}", 4) for j in range(6)), classes=("w", "x", "y", "z")
    )
    ds = [
        LabeledExample(
            tuple(rng.randrange(4) for _ in range(6)), rng.randrange(4)
        )
        for _ in range(200)
    ]
    model = train(ds, schema, alpha=1.0)
    for ex in ds:
        post = posterior(model, ex.features)
        assert abs(sum(post) - 1.0) <= 1e-12
        want = oracles.nb_posterior_linear(model.priors, model.cond, ex.features)
        for g, w in zip(post, want):
            assert abs(g - w) <= 1e-10
        assert classify(model, ex.features) == oracles.nb_classify_linear(
            model.priors, model.cond, ex.features
        )


def test_classify_argmax_and_tie_break():
    model = _model((0.5, 0.5), (((0.9, 0.1), (0.1, 0.9)),))
    assert classify(model, (0,)) == 0
    assert classify(model, (1,)) == 1
    tie = _model((0.5, 0.5), (((0.5, 0.5), (0.5, 0.5)),))
    assert classify(tie, (0,)) == 0  # exact tie goes to the lowest index
    assert top_class((0.2, 0.4, 0.4)) == 1


def test_zero_likelihood_class_is_exactly_zero():
    model = _model(
        (0.5, 0.5), (((0.0, 1.0), (0.5, 0.5)),), alpha=0.0
    )
    post = posterior(model, (0,))
    assert post[0] == 0.0
    assert post[1] == 1.0


def test_all_zero_likelihood_error():
    model = _model((0.5, 0.5), (((0.0, 1.0), (0.0, 1.0)),), alpha=0.0)
    with pytest.raises(AllZeroLikelihoodError):
        posterior(model, (0,))


def test_posterior_input_validation():
    model = _model((0.5, 0.5), (((0.9, 0.1), (0.1, 0.9)),))
    with pytest.raises(ValueError):
        posterior(model, (0, 1))
    with pytest.raises(ValueError):
        posterior(model, (5,))


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=7))
def test_argmax_invariant_under_shared_column_scaling(k_num, seed):
    # multiplying one attribute value's likelihood by the same k>0 for
    # every class cannot change the argmax
    rng = random.Random(seed)
    schema = AttributeSchema(attributes=(("x", 3), ("y", 3)), classes=("a", "b", "c"))
    ds = [
        LabeledExample((rng.randrange(3), rng.randrange(3)), rng.randrange(3))
        for _ in range(60)
    ]
    model = train(ds, schema, alpha=1.0)
    k = k_num / 10
    scaled_cond = []
    for j, table in enumerate(model.cond):
        new_table = []
        for row in table:
            row = list(row)
            if j == 0:
                row[1] *= k  # same value column scaled across all classes
            new_table.append(tuple(row))
        scaled_cond.append(tuple(new_table))
    features = (1, 2)
    base_scores = [
        model.priors[c] * model.cond[0][c][1] * model.cond[1][c][2] for c in range(3)
    ]
    scaled_scores = [
        model.priors[c] * scaled_cond[0][c][1] * scaled_cond[1][c][2] for c in range(3)
    ]

    def argmax(xs):
        best = 0
        for i in range(1, len(xs)):
            if xs[i] > xs[best]:
                best = i
        return best

    assert argmax(base_scores) == argmax(scaled_scores)
    assert argmax(base_scores) == classify(model, features)


def test_large_alpha_converges_to_uniform():
    rng = random.Random(5)
    schema = AttributeSchema(attributes=(("x", 4),), classes=("a", "b"))
    ds = [LabeledExample((rng.randrange(4),), rng.randrange(2)) for _ in range(50)]
    model = train(ds, schema, alpha=1e9)
    for p in model.priors:
        assert abs(p - 0.5) < 1e-6
    for table in model.cond:
        for row in table:
            for p in row:
                assert abs(p - 0.25) < 1e-6


def test_alpha_zero_posterior_reproduces_empirical_distribution():
    # deterministic single-attribute data: P(class | value) must equal
    # the empirical class split for that value
    ds = [LabeledExample((0,), 0)] * 3 + [LabeledExample((0,), 1)] * 1
    model = train(ds, BINARY, alpha=0.0)
    post = posterior(model, (0,))
    assert abs(post[0] - 0.75) <= 1e-12
    assert abs(post[1] - 0.25) <= 1e-12


def test_model_invariant_validation():
    with pytest.raises(ValueError):
        _model((0.6, 0.6), (((0.5, 0.5), (0.5, 0.5)),))
    with pytest.raises(ValueError):
        _model((0.5, 0.5), (((0.7, 0.7), (0.5, 0.5)),))
    with pytest.raises(ValueError):
        _model((0.5, 0.5), (((0.0, 1.0), (0.5, 0.5)),), alpha=1.0)


@pytest.mark.parametrize(
    "entries, named",
    [
        (dict(priors=[math.nan, 0.5]), r"prior 0 is nan, not a number in \[0, 1\]"),
        (dict(priors=[1.5, -0.5]), r"prior 0 is 1\.5, not a number in \[0, 1\]"),
        (dict(cond=[[[0.5, 0.5], [math.nan, 0.5]]]),
         r"table row 'x'/class 1 entry 0 is nan, not a number in \[0, 1\]"),
        (dict(cond=[[[0.5, 0.5], [0.5, math.inf]]]),
         r"table row 'x'/class 1 entry 1 is inf, not a number in \[0, 1\]"),
        (dict(alpha=math.nan), r"alpha must be a number >= 0, got nan"),
        (dict(alpha=-1.0), r"alpha must be a number >= 0, got -1\.0"),
    ],
    ids=["prior-nan", "prior-out-of-range", "cond-nan", "cond-inf", "alpha-nan", "alpha-negative"],
)
def test_model_rejects_non_finite_and_out_of_range_parameters(tmp_path, entries, named):
    # before, the sum checks were false for NaN, so a model with a NaN
    # prior or table entry loaded and posterior answered nonsense, and a
    # NaN or negative alpha loaded too
    model = train([LabeledExample((0,), 0), LabeledExample((1,), 1)], BINARY)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps(_edit(json.loads(path.read_text()), **entries)))
    with pytest.raises(ModelFormatError, match=f"model invariants violated: {named}$"):
        load_model(path)
    with pytest.raises(ValueError, match=f"^{named}$"):
        _model(**{"priors": model.priors, "cond": model.cond, "alpha": model.alpha, **entries})


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(2)
    schema = AttributeSchema(attributes=(("x", 3), ("y", 2)), classes=("a", "b"))
    ds = [
        LabeledExample((rng.randrange(3), rng.randrange(2)), rng.randrange(2))
        for _ in range(30)
    ]
    model = train(ds, schema, alpha=1.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_load_detects_tampering(tmp_path):
    model = train([LabeledExample((0,), 0), LabeledExample((1,), 1)], BINARY)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text().replace('"x"', '"renamed"')
    path.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(path)


def _edit(doc, **entries):
    """``doc`` with ``entries`` set; an entry of None is removed."""
    doc = {**doc, **entries}
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: [1], r"model .*model\.json must be a JSON object, got \[1\]"),
        (lambda d: _edit(d, version=2), r"not an NBC model document of version 1"),
        (lambda d: _edit(d, format="nbc"), r"not an NBC model document of version 1"),
        (lambda d: _edit(d, alpha="1.0"), r"model .*: alpha must be a JSON number, got \"1\.0\""),
        (lambda d: _edit(d, alpha=True), r"model .*: alpha must be a JSON number, got true"),
        (lambda d: _edit(d, version=1.0), r"model .*: version must be a JSON integer, got 1\.0"),
        (lambda d: _edit(d, priors=[str(p) for p in d["priors"]]),
         r"model .*: priors must be a JSON array of numbers, got \[\"0\.5\", \"0\.5\"\]"),
        (lambda d: _edit(d, cond=[[[0.5, "0.5"]] * 2]),
         r"model .*: cond must be a JSON array of arrays of arrays of numbers, got "),
        (lambda d: _edit(d, note="x"), r"unknown keys \['note'\] in model"),
        (lambda d: _edit(d, alpha=None), r"model .* missing field 'alpha'"),
        (lambda d: _edit(d, priors=[0.5]), r"model invariants violated: one prior per class"),
    ],
    ids=[
        "document-list", "version-2", "format", "alpha-string", "alpha-true", "version-float",
        "priors-strings", "cond-string", "unknown-key", "alpha-missing", "priors-short",
    ],
)
def test_load_model_rejects_unknown_keys_and_wrong_json_kinds(tmp_path, edit, named):
    # before, float() took "1.0", true and string priors, version 2 and
    # unknown keys loaded, and a document that is no object ended in a
    # traceback
    model = train([LabeledExample((0,), 0), LabeledExample((1,), 1)], BINARY)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ModelFormatError, match=named):
        load_model(path)


@pytest.mark.parametrize(
    "doc, named",
    [
        ([1], r"schema must be a JSON object, got \[1\]"),
        ({"attributes": [["x", "4"]], "classes": ["a", "b"]},
         r"schema: cardinality of attribute 0 must be a JSON integer, got \"4\""),
        ({"attributes": [["x", 4.7]], "classes": ["a", "b"]},
         r"schema: cardinality of attribute 0 must be a JSON integer, got 4\.7"),
        ({"attributes": [[5, 4]], "classes": ["a", "b"]},
         r"schema: name of attribute 0 must be a JSON string, got 5"),
        ({"attributes": [["x", 4, 1]], "classes": ["a", "b"]},
         r"schema: attribute 0 must be a \[name, cardinality\] pair, got \[\"x\", 4, 1\]"),
        ({"attributes": ["x4"], "classes": ["a", "b"]},
         r"schema: attributes must be a JSON array of arrays, got \[\"x4\"\]"),
        ({"attributes": [["x", 4]], "classes": "ab"},
         r"schema: classes must be a JSON array of strings, got \"ab\""),
        ({"attributes": [["x", 4]], "classes": ["a", "b"], "alpha": 1},
         r"unknown keys \['alpha'\] in schema"),
        ({"attributes": [["x", 4]]}, r"schema missing field 'classes'"),
    ],
    ids=[
        "document-list", "cardinality-string", "cardinality-fraction", "name-number",
        "attribute-triple", "attribute-string", "classes-string", "unknown-key", "classes-missing",
    ],
)
def test_load_schema_rejects_unknown_keys_and_wrong_json_kinds(tmp_path, doc, named):
    # before, int() and str() took "4" and 4.7 as cardinality 4, and "ab"
    # as the classes a and b
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=named):
        load_schema(path)


def test_training_csv_roundtrip(tmp_path):
    schema = AttributeSchema(attributes=(("x", 3), ("y", 2)), classes=("a", "b"))
    ds = [
        LabeledExample((2, 0), 0),
        LabeledExample((None, 1), 1),
        LabeledExample((1, None), 0),
    ]
    path = tmp_path / "train.csv"
    write_training_csv(ds, schema, path)
    assert read_training_csv(path, schema) == ds


def test_training_csv_errors(tmp_path):
    schema = AttributeSchema(attributes=(("x", 2),), classes=("a", "b"))
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n0,a\n")
    with pytest.raises(TrainingError):
        read_training_csv(path, schema)
    path.write_text("")
    with pytest.raises(TrainingError):
        read_training_csv(path, schema)
    path.write_text("x,label\n0,zzz\n")
    with pytest.raises(ValueError):
        read_training_csv(path, schema)


@pytest.mark.parametrize(
    "row, named",
    [
        ("x,a", "invalid literal for int() with base 10: 'x'"),
        ("0,zzz", "unknown class label 'zzz'"),
        ("0", "expected 2 columns, got 1"),
        ("2,a", "value 2 outside 0..1 for attribute 'x'"),
    ],
    ids=["not-an-integer", "unknown-label", "short-row", "out-of-range"],
)
def test_training_csv_names_the_path_and_line_of_a_bad_row(tmp_path, row, named):
    # before, a cell x or an unknown label raised naming no line, and no
    # row error named the path
    schema = AttributeSchema(attributes=(("x", 2),), classes=("a", "b"))
    path = tmp_path / "bad.csv"
    path.write_text(f"x,label\n0,a\n\n{row}\n")
    with pytest.raises(TrainingError, match=re.escape(f"{path}: line 4: {named}")):
        read_training_csv(path, schema)


# -- the classifier against the Bayesian network it encodes ----------


def _fixture_model_and_net():
    """The shipped model, and the BN it encodes."""
    model = load_model(fixture_path("nbc_model.json"))
    return model, load_net(oracles.naive_bayes_net_doc(model))


_MODEL_AND_NET = _fixture_model_and_net()


def _assert_nbc_matches_bn(features):
    model, net = _MODEL_AND_NET
    names = [name for name, _ in model.schema.attributes]
    evidence = {n: v for n, v in zip(names, features) if v is not None}
    got = posterior(model, features)
    want = posterior_given_evidence(net, "class", evidence).probs
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, features


def test_nbc_matches_equivalent_bn_on_every_full_vector():
    model, _ = _MODEL_AND_NET
    cards = [card for _, card in model.schema.attributes]
    for features in itertools.product(*(range(c) for c in cards)):
        _assert_nbc_matches_bn(features)


@given(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=6, max_size=6))
def test_nbc_matches_equivalent_bn_on_partial_vectors(features):
    # a missing attribute drops out on both sides: no factor in the
    # classifier, no evidence in the network
    _assert_nbc_matches_bn(tuple(features))


def test_log_tables_give_the_per_call_log_posterior_bit_for_bit():
    # posterior adds the tabled logs in the order the per-call formula
    # takes them, so every sum, and so every posterior, is the same float
    model, _ = _MODEL_AND_NET
    cards = [card for _, card in model.schema.attributes]
    for features in itertools.product(*(range(c) for c in cards)):
        want = oracles.nb_posterior_log_per_call(model.priors, model.cond, features)
        assert posterior(model, features) == want, features


def test_log_tables_take_no_part_in_equality_or_repr():
    cond = (((0.5, 0.5), (0.1, 0.9)),)
    model = _model((0.25, 0.75), cond)
    assert model.log_priors == (math.log(0.25), math.log(0.75))
    assert model.log_cond[0][1] == (math.log(0.1), math.log(0.9))
    other = _model((0.25, 0.75), cond)
    object.__setattr__(other, "log_priors", (0.0, 0.0))
    assert other == model
    assert "log_" not in repr(model)


# -- the posterior memo ------------------------------------------------


def _bits(post):
    return [p.hex() for p in post]


def test_posterior_memo_is_the_per_call_log_posterior_bit_for_bit():
    # a fresh model, so every first call below is a miss
    model = load_model(fixture_path("nbc_model.json"))
    cards = [card for _, card in model.schema.attributes]
    full = list(itertools.product(*(range(c) for c in cards)))
    rng = random.Random(12)
    partial = []
    while len(partial) < 300:
        features = tuple(None if rng.random() < 0.4 else rng.randrange(c) for c in cards)
        if None in features and any(v is not None for v in features):
            partial.append(features)
    for features in full + partial:
        want = _bits(oracles.nb_posterior_log_per_call(model.priors, model.cond, features))
        first = posterior(model, features)
        assert _bits(first) == want, features
        second = posterior(model, tuple(features))
        assert second is first, features
        assert _bits(second) == want, features
    assert len(model._memo) == len(set(full + partial))


def test_posterior_memo_stores_no_failure():
    model = _model((0.5, 0.5), (((0.0, 1.0), (0.0, 1.0)),), alpha=0.0)
    for _ in range(3):
        with pytest.raises(AllZeroLikelihoodError):
            posterior(model, (0,))
        assert posterior(model, (1,)) == (0.5, 0.5)
    assert list(model._memo) == [(1,)]


def test_posterior_memo_takes_no_part_in_equality_or_repr():
    model = _model((0.25, 0.75), (((0.5, 0.5), (0.1, 0.9)),))
    other = _model((0.25, 0.75), (((0.5, 0.5), (0.1, 0.9)),))
    posterior(model, (1,))
    assert model == other and hash(model) == hash(other)
    assert "memo" not in repr(model)


TWO = AttributeSchema(attributes=(("x", 2), ("y", 3)), classes=("a", "b"))
TWO_COND = (((0.9, 0.1), (0.2, 0.8)), ((0.2, 0.3, 0.5), (0.6, 0.3, 0.1)))


@pytest.mark.parametrize(
    "bad,named",
    [
        ((1.0, 2), r"value 1\.0 for attribute 'x' is not an integer or None"),
        ((1, True), r"value True for attribute 'y' is not an integer or None"),
        (("1", 2), r"value '1' for attribute 'x' is not an integer or None"),
        ((1, 3), r"value 3 outside 0\.\.2 for attribute 'y'"),
        ((-1, 2), r"value -1 outside 0\.\.1 for attribute 'x'"),
        ((1, 2, 0), r"expected 2 features, got 3"),
        ((1, [2]), r"value \[2\] for attribute 'y' is not an integer or None"),
    ],
    ids=["float", "bool", "str", "out-of-range", "negative", "wrong-length", "unhashable"],
)
def test_posterior_rejects_what_is_not_a_feature_before_and_after_the_memo(bad, named):
    # (1.0, 2) and (1, True) equal and hash as (1, 2): a memo hit must not answer them
    model = NbcModel(schema=TWO, priors=(0.5, 0.5), cond=TWO_COND, alpha=1.0)
    with pytest.raises(ValueError, match=named):
        posterior(model, bad)
    valid = posterior(model, (1, 2))
    with pytest.raises(ValueError, match=named):
        posterior(model, bad)
    with pytest.raises(ValueError, match=named):
        posterior(model, list(bad))
    assert posterior(model, (1, 2)) is valid


@pytest.mark.parametrize(
    "priors, row, named",
    [
        ((0.7, 0.2, 0.2), (0.5, 0.25, 0.25), "priors sum to 1.0999999999999999, not 1"),
        ((0.5, 0.25, 0.25), (0.7, 0.2, 0.2), "table row 'x'/class 0 sums to 1.0999999999999999, not 1"),
    ],
    ids=["priors", "table-row"],
)
def test_model_names_a_total_added_left_to_right(priors, row, named):
    # sum() compensates from CPython 3.12 and prints 1.1
    schema = AttributeSchema(attributes=(("x", 3),), classes=("a", "b", "c"))
    table = (row, (0.5, 0.25, 0.25), (0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match=rf"^{re.escape(named)}$"):
        NbcModel(schema=schema, priors=priors, cond=(table,), alpha=1.0)


def test_posterior_takes_a_list_as_the_equal_tuple():
    model = NbcModel(schema=TWO, priors=(0.5, 0.5), cond=TWO_COND, alpha=1.0)
    first = posterior(model, [1, None])
    assert posterior(model, (1, None)) is first
    other = NbcModel(schema=TWO, priors=(0.5, 0.5), cond=TWO_COND, alpha=1.0)
    assert posterior(other, (1, None)) == first
    assert posterior(other, [1, None]) is posterior(other, (1, None))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: AttributeSchema(attributes=(("x", 2),), classes=("a", "a")), "class labels must be unique"),
        (lambda: NbcModel(BINARY, (0.5, 0.5), (((0.5, 0.5),) * 2,) * 2, 1.0),
         "one conditional table per attribute required"),
        (lambda: NbcModel(BINARY, (0.5, 0.5), (((0.5, 0.5),),), 1.0), "table for 'x' needs 2 class rows"),
        (lambda: NbcModel(BINARY, (0.5, 0.5), (((0.5, 0.5), (0.25, 0.25, 0.5)),), 1.0),
         "table row 'x'/class 1 has wrong width"),
    ],
    ids=["duplicate-classes", "tables", "rows", "entries"],
)
def test_each_model_check_names_what_it_refuses(call, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        call()
