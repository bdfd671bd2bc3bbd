import math

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from grflab import serialize
from grflab import (Bump, ClosedFormKernel, DegenerateZero, Harmonic, Monomial,
                    PositiveOnBox, Scaled, SchemaError, SupNormBelow, ZeroCountEquals,
                    box, kernel_of, kl_field, unit_interval)
from grflab.serialize import (basis_from_dict, basis_to_dict, box_from_dict,
                              box_to_dict, event_from_dict, event_to_dict,
                              field_digest, field_from_dict, field_to_dict,
                              compile_schema, kernel_from_dict, kernel_to_dict,
                              validate_document)


def test_box_round_trip():
    b = box([0.0, -1.0], [1.0, 2.0], [8, 16])
    assert box_from_dict(box_to_dict(b)) == b


def test_basis_round_trip():
    variants = [
        Monomial((2, 0), (1.0, -0.5)),
        Harmonic((1.0, 2.0), 0.3, (1.0,)),
        Bump((0.5,), 0.25, (2.0,)),
        Scaled(Scaled(Monomial((1,), (1.0,)), 2.0), -0.5),
    ]
    for f in variants:
        assert basis_from_dict(basis_to_dict(f)) == f


def test_field_round_trip():
    f = kl_field([Monomial((1,), (1.0,)), Harmonic((2.0,), 0.0, (1.0,))],
                 (0.5, 1.5))
    assert field_from_dict(field_to_dict(f)) == f
    empty = kl_field([], m=2, k=3)
    assert field_from_dict(field_to_dict(empty)) == empty


def test_field_default_sigmas():
    doc = {"m": 1, "k": 1, "basis": [{"type": "monomial", "exponents": [1],
                                      "amplitude": [1.0]}]}
    f = field_from_dict(doc)
    assert f.sigmas == (1.0,)


def test_kernel_round_trip():
    K = kernel_of(kl_field([Monomial((1,), (1.0,))]))
    assert kernel_from_dict(kernel_to_dict(K)) == K
    C = ClosedFormKernel("exp_dot", 2)
    assert kernel_from_dict(kernel_to_dict(C)) == C


def test_event_round_trip():
    b = unit_interval(32)
    for ev in (SupNormBelow(b, 1, 2.0), ZeroCountEquals(b, 3), PositiveOnBox(b),
               DegenerateZero(b, 1e-3, 0.25)):
        assert event_from_dict(event_to_dict(ev)) == ev


def test_unknown_field_rejected_with_pointer():
    doc = {"m": 1, "k": 1, "basis": [], "bogus": 1}
    with pytest.raises(SchemaError):
        field_from_dict(doc)


def test_nested_error_pointer():
    doc = {"m": 1, "k": 1,
           "basis": [{"type": "monomial", "exponents": [1], "amplitude": [1.0]},
                     {"type": "monomial", "exponents": [-1], "amplitude": [1.0]}]}
    with pytest.raises(SchemaError) as info:
        field_from_dict(doc)
    assert "/basis/1" in info.value.pointer


def test_bad_kernel_tag():
    with pytest.raises(SchemaError):
        kernel_from_dict({"type": "closed_form", "tag": "gaussian"})


def test_validate_document_unknown_kind():
    with pytest.raises(ValueError):
        validate_document("nope", {})


def test_digest_stability_and_sensitivity():
    f1 = kl_field([Monomial((1,), (1.0,))], (1.0,))
    f2 = kl_field([Monomial((1,), (1.0,))], (2.0,))
    assert field_digest(f1) == field_digest(f1)
    assert field_digest(f1) != field_digest(f2)
    assert len(field_digest(f1)) == 64


# ---------------------------------------------------------------------------
# the compiled schema agrees with jsonschema
# ---------------------------------------------------------------------------

SCHEMA = serialize._SCHEMA_DOC
VALIDATORS = {kind: jsonschema.Draft202012Validator(
    {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{kind}"}) for kind in SCHEMA["$defs"]}

finite = st.floats(-4.0, 4.0, allow_nan=False)
positive = st.floats(1e-3, 4.0)
small_int = st.integers(0, 3)


def numbers(min_size=1):
    return st.lists(finite, min_size=min_size, max_size=3)


boxes = st.fixed_dictionaries(
    {"lower": numbers(), "upper": numbers()},
    optional={"resolution": st.lists(st.integers(1, 9), min_size=1, max_size=3)})
leaf_basis = st.one_of(
    st.fixed_dictionaries({"type": st.just("monomial"),
                           "exponents": st.lists(small_int, min_size=1, max_size=3),
                           "amplitude": numbers()}),
    st.fixed_dictionaries({"type": st.just("harmonic"), "frequency": numbers(),
                           "amplitude": numbers()}, optional={"phase": finite}),
    st.fixed_dictionaries({"type": st.just("bump"), "center": numbers(),
                           "radius": positive, "amplitude": numbers()}))
bases = st.recursive(leaf_basis, lambda inner: st.fixed_dictionaries(
    {"type": st.just("scaled"), "factor": finite, "inner": inner}), max_leaves=3)
fields = st.fixed_dictionaries(
    {"m": st.integers(1, 3), "k": st.integers(1, 3),
     "basis": st.lists(bases, max_size=3)},
    optional={"sigmas": st.lists(positive, max_size=3)})
kernels = st.one_of(
    st.fixed_dictionaries({"type": st.just("from_kl"), "field": fields}),
    st.fixed_dictionaries({"type": st.just("closed_form"),
                           "tag": st.sampled_from(["dot", "affine_dot", "exp_dot"])},
                          optional={"m": st.integers(1, 3)}))
events = st.one_of(
    st.fixed_dictionaries({"type": st.just("sup_norm_below"), "box": boxes,
                           "order": small_int, "threshold": finite}),
    st.fixed_dictionaries({"type": st.just("zero_count_equals"), "box": boxes,
                           "count": small_int}),
    st.fixed_dictionaries({"type": st.just("positive_on_box"), "box": boxes}),
    st.fixed_dictionaries({"type": st.just("degenerate_zero"), "box": boxes,
                           "value_eps": positive, "deriv_eps": positive}))
limit_studies = st.fixed_dictionaries(
    {"fields": st.lists(fields, min_size=1, max_size=2), "limit_field": fields,
     "event": events, "box": boxes, "r": small_int},
    optional={"distance_order": small_int})
DOCUMENTS = {"number_array": numbers(), "box": boxes, "basis": bases, "field": fields,
             "kernel": kernels, "event": events, "limit_study": limit_studies}

# bools where numbers belong, integral floats where integers belong, zero,
# negative and non-finite numbers, empty arrays, wrong const values and tags
ODD_VALUES = [True, False, None, 0, 1, -1, 0.0, 1.0, 2.0, -0.5, 2.5, math.nan,
              math.inf, -math.inf, "", "1", "monomial", "scaled", "from_kl",
              "closed_form", "gaussian", "dot", "degenerate_zero", [], [1.0],
              [True], [math.nan], {}, {"type": "monomial"}]


def mutate(data, doc):
    """``doc`` with one change at a node picked by a random walk."""
    if isinstance(doc, dict) and doc and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(doc)))
        return {**doc, key: mutate(data, doc[key])}
    if isinstance(doc, list) and doc and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(doc) - 1))
        return doc[:i] + [mutate(data, doc[i])] + doc[i + 1:]
    ops = ["replace"]
    if isinstance(doc, dict):
        ops += ["add"] + (["drop"] if doc else [])
    if isinstance(doc, list):
        ops += ["empty", "append"]
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        key = data.draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != key}
    if op == "add":
        key = data.draw(st.sampled_from(["bogus", "type", "m", "phase", "resolution"]))
        return {**doc, key: data.draw(st.sampled_from(ODD_VALUES))}
    if op == "empty":
        return []
    if op == "append":
        return doc + [data.draw(st.sampled_from(ODD_VALUES))]
    return data.draw(st.sampled_from(ODD_VALUES))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.integers(0, 3), st.data())
def test_compiled_schema_agrees_with_jsonschema(kind, n_mutations, data):
    doc = data.draw(DOCUMENTS[kind])
    for _ in range(n_mutations):
        doc = mutate(data, doc)
    assert serialize._CHECKS[kind](doc) == VALIDATORS[kind].is_valid(doc)


@pytest.mark.parametrize("schema", [
    {"const": "a"}, {"const": ""}, {"enum": ["1", "a"]}, {"enum": ["a"]},
    {"type": "object", "properties": {"a": {"type": "number"}}, "required": ["a"],
     "additionalProperties": False},
    {"type": "integer", "minimum": 1},
    {"type": "number", "exclusiveMinimum": 0},
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"type": "array", "items": {"type": "number"}, "minItems": 2},
])
def test_compiled_keywords_match_jsonschema(schema):
    check = compile_schema({"$defs": {"s": schema}})["s"]
    validator = jsonschema.Draft202012Validator(schema)
    for value in [True, False, 1, 1.0, 0, 0.0, -0.0, 2.5, "1", "a", "", None, ["a"],
                  [1, "a"], [True, "a"], [1.0, "a"], {"a": 1}, math.nan, math.inf,
                  -math.inf]:
        assert check(value) == validator.is_valid(value), value


@pytest.mark.parametrize("doc", [
    {"$defs": {"s": {"type": "string"}}},
    {"$defs": {"s": {"type": "number", "pattern": "^x"}}},
    {"$defs": {"s": {"type": "object", "properties": {"a": {"maximum": 1}}}}},
    {"$defs": {"s": {"type": "object", "additionalProperties": {"type": "number"}}}},
    {"$defs": {"s": {"$ref": "#/$defs/missing"}}},
    {"$defs": {}, "description": "x"},
    {"$defs": {"s": {"const": 1}}},
    {"$defs": {"s": {"enum": ["a", True]}}},
])
def test_unsupported_schema_keyword_raises(doc):
    with pytest.raises(ValueError):
        compile_schema(doc)


def test_rejection_that_jsonschema_accepts_is_an_internal_error(monkeypatch):
    monkeypatch.setitem(serialize._CHECKS, "box", lambda doc: False)
    with pytest.raises(RuntimeError):
        validate_document("box", {"lower": [0.0], "upper": [1.0]})
