"""JSON codecs for boxes, basis functions, fields, kernels and events.

Documents are validated against the shipped JSON schema before decoding;
violations are reported with a JSON pointer to the offending location.
Unknown fields are rejected.  ``field_digest`` hashes the canonical form of
a field document for report provenance.

The schema is compiled once, at import, into one predicate per ``$defs``
entry.  jsonschema is imported only to explain a document the predicate
rejects.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from importlib import resources

from .basis import Box, BasisFunction, Bump, Harmonic, Monomial, Scaled, box
from .exceptions import SchemaError
from .field import KLField, kl_field
from .kernel import ClosedFormKernel, CovarianceKernel, KLKernel, kernel_of
from .mc import DegenerateZero, EventSpec, PositiveOnBox, SupNormBelow, ZeroCountEquals

_SCHEMA_DOC = json.loads(
    resources.files("grflab").joinpath("schemas/grflab.schema.json").read_text())


# ---------------------------------------------------------------------------
# schema compiler
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


def _is_integer(x) -> bool:
    # Draft 6 and later: a float with an integral value is an integer
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "number": _is_number,
    "integer": _is_integer,
}
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
_DEFS_PREFIX = "#/$defs/"


def compile_schema(doc: dict) -> dict:
    """One predicate per ``$defs`` entry of ``doc``.

    A predicate returns True exactly when Draft 2020-12 validation, as
    jsonschema applies it, accepts the instance.  Only the keywords the
    shipped schema uses are supported, and ``const`` and ``enum`` only with
    string values; anything else raises ``ValueError``.
    """
    unknown = set(doc) - _ANNOTATIONS - {"$defs"}
    if unknown:
        raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
    defs = doc.get("$defs", {})
    compiled: dict = {}

    def ref(target):
        name = target[len(_DEFS_PREFIX):]
        if not target.startswith(_DEFS_PREFIX) or name not in defs:
            raise ValueError(f"unsupported $ref {target!r}")
        return lambda x: compiled[name](x)  # resolved late: refs may recurse

    def properties(value):
        props = {name: node(sub) for name, sub in value.items()}

        def check(x):
            if isinstance(x, dict):
                for name, item in x.items():
                    sub = props.get(name)
                    if sub is not None and not sub(item):
                        return False
            return True
        return check

    def keyword(key, value, schema):
        # every keyword applies on its own, as in jsonschema: a number rule
        # passes any non-number, an object rule any non-object
        if key == "type":
            if value not in _TYPES:
                raise ValueError(f"unsupported type {value!r}")
            return _TYPES[value]
        if key == "required":
            names = frozenset(value)
            return lambda x: not isinstance(x, dict) or names <= x.keys()
        if key == "additionalProperties" and value is False:
            allowed = frozenset(schema.get("properties", ()))
            return lambda x: not isinstance(x, dict) or x.keys() <= allowed
        if key == "minItems":
            return lambda x: not isinstance(x, list) or len(x) >= value
        if key == "minimum":
            return lambda x: not _is_number(x) or not x < value
        if key == "exclusiveMinimum":
            return lambda x: not _is_number(x) or not x <= value
        if key in ("const", "enum"):
            allowed = (value,) if key == "const" else tuple(value)
            if not all(isinstance(each, str) for each in allowed):
                raise ValueError(f"unsupported non-string {key} {value!r}")
            return lambda x: isinstance(x, str) and x in allowed
        if key == "$ref":
            return ref(value)
        if key == "properties":
            return properties(value)
        if key == "items" and isinstance(value, dict):
            sub = node(value)
            return lambda x: not isinstance(x, list) or all(map(sub, x))
        if key == "oneOf":
            branches = tuple(node(sub) for sub in value)
            return lambda x: sum(branch(x) for branch in branches) == 1
        raise ValueError(f"unsupported schema keyword {key!r}")

    def node(schema):
        checks = tuple(keyword(key, value, schema) for key, value in schema.items()
                       if key not in _ANNOTATIONS)
        if len(checks) == 1:
            return checks[0]

        def check(x):
            for each in checks:
                if not each(x):
                    return False
            return True
        return check

    for name, schema in defs.items():
        compiled[name] = node(schema)
    return compiled


_CHECKS = compile_schema(_SCHEMA_DOC)


def validate_document(kind: str, payload) -> None:
    """Validate ``payload`` against the named schema in the shipped document."""
    if kind not in _CHECKS:
        raise ValueError(f"no schema named {kind!r}")
    if not _CHECKS[kind](payload):
        _explain_rejection(kind, payload)


def _explain_rejection(kind: str, payload) -> None:
    """Raise the jsonschema error for a document the compiled check rejected."""
    import jsonschema

    schema = {"$defs": _SCHEMA_DOC["$defs"], "$ref": f"#/$defs/{kind}"}
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(payload), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        pointer = "/" + "/".join(str(part) for part in err.absolute_path)
        raise SchemaError(err.message, pointer)
    raise RuntimeError(f"compiled schema check rejected a valid {kind!r} document")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def box_to_dict(b: Box) -> dict:
    return {"lower": list(b.lower), "upper": list(b.upper),
            "resolution": list(b.resolution)}


def basis_to_dict(f: BasisFunction) -> dict:
    if isinstance(f, Monomial):
        return {"type": "monomial", "exponents": list(f.exponents),
                "amplitude": list(f.amplitude)}
    if isinstance(f, Harmonic):
        return {"type": "harmonic", "frequency": list(f.frequency),
                "phase": f.phase, "amplitude": list(f.amplitude)}
    if isinstance(f, Bump):
        return {"type": "bump", "center": list(f.center), "radius": f.radius,
                "amplitude": list(f.amplitude)}
    if isinstance(f, Scaled):
        return {"type": "scaled", "factor": f.factor,
                "inner": basis_to_dict(f.inner)}
    raise TypeError(f"cannot serialize {type(f).__name__}")


def field_to_dict(field: KLField) -> dict:
    return {"m": field.m, "k": field.k,
            "basis": [basis_to_dict(f) for f in field.basis],
            "sigmas": list(field.sigmas)}


def kernel_to_dict(K: CovarianceKernel) -> dict:
    if isinstance(K, KLKernel):
        return {"type": "from_kl", "field": field_to_dict(K.field)}
    return {"type": "closed_form", "tag": K.tag, "m": K.m}


def event_to_dict(event: EventSpec) -> dict:
    if isinstance(event, SupNormBelow):
        return {"type": "sup_norm_below", "box": box_to_dict(event.box),
                "order": event.order, "threshold": event.threshold}
    if isinstance(event, ZeroCountEquals):
        return {"type": "zero_count_equals", "box": box_to_dict(event.box),
                "count": event.count}
    if isinstance(event, PositiveOnBox):
        return {"type": "positive_on_box", "box": box_to_dict(event.box)}
    return {"type": "degenerate_zero", "box": box_to_dict(event.box),
            "value_eps": event.value_eps, "deriv_eps": event.deriv_eps}


# ---------------------------------------------------------------------------
# decoding (validates first)
# ---------------------------------------------------------------------------

def box_from_dict(d: dict, validated: bool = False) -> Box:
    if not validated:
        validate_document("box", d)
    return box(d["lower"], d["upper"], d.get("resolution"))


def basis_from_dict(d: dict, validated: bool = False) -> BasisFunction:
    if not validated:
        validate_document("basis", d)
    t = d["type"]
    if t == "monomial":
        return Monomial(tuple(int(e) for e in d["exponents"]),
                        tuple(float(a) for a in d["amplitude"]))
    if t == "harmonic":
        return Harmonic(tuple(float(w) for w in d["frequency"]),
                        float(d.get("phase", 0.0)),
                        tuple(float(a) for a in d["amplitude"]))
    if t == "bump":
        return Bump(tuple(float(c) for c in d["center"]), float(d["radius"]),
                    tuple(float(a) for a in d["amplitude"]))
    return Scaled(basis_from_dict(d["inner"], validated=True), float(d["factor"]))


def field_from_dict(d: dict, validated: bool = False) -> KLField:
    if not validated:
        validate_document("field", d)
    basis = [basis_from_dict(b, validated=True) for b in d["basis"]]
    sigmas = d.get("sigmas")
    return kl_field(basis, sigmas, m=d["m"], k=d["k"])


def kernel_from_dict(d: dict, validated: bool = False) -> CovarianceKernel:
    if not validated:
        validate_document("kernel", d)
    if d["type"] == "from_kl":
        return kernel_of(field_from_dict(d["field"], validated=True))
    return ClosedFormKernel(d["tag"], int(d.get("m", 1)))


def event_from_dict(d: dict, validated: bool = False) -> EventSpec:
    if not validated:
        validate_document("event", d)
    b = box_from_dict(d["box"], validated=True)
    t = d["type"]
    if t == "sup_norm_below":
        return SupNormBelow(b, int(d["order"]), float(d["threshold"]))
    if t == "zero_count_equals":
        return ZeroCountEquals(b, int(d["count"]))
    if t == "positive_on_box":
        return PositiveOnBox(b)
    return DegenerateZero(b, float(d["value_eps"]), float(d["deriv_eps"]))


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def field_digest(field: KLField) -> str:
    """sha256 of the canonicalized field document."""
    return hashlib.sha256(canonical_dumps(field_to_dict(field)).encode()).hexdigest()
