"""JSON document formats: loading, validation, canonical serialization.

Five document kinds are supported, each with a versioned schema shipped in
cdga/schemas and enforced by the checker below before any mathematics runs:

* ``cdga``    - generator/differential presentation of a free CDGA,
* ``lie``     - a Lie algebra by structure constants over named basis vectors,
* ``glie``    - a positively graded space with boundary/cobracket/Gram data,
* ``complex`` - an explicit cochain complex (optionally with a chain map),
* ``gram``    - per-degree Gram matrices.

Rationals are written as strings "p" or "p/q" (plain JSON integers are also
accepted).  Canonical output uses sorted keys and compact separators so a
computation serializes to identical bytes on every run.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .graded import GradedError, GradedSpace
from .linalg import Mat
from .complexes import Complex, ChainMap
from .poly import Generators
from .algebra import FreeCDGA
from .cartan import LieData
from .hodge import GradedChainData, InnerProduct
from .exprparse import parse_polynomial, ParseError


class DocumentError(ValueError):
    """Malformed input document: bad JSON, bad schema, or bad expression."""


# -- the schema checker: the part of JSON Schema Draft 2020-12 the schemas use --
# _build makes a schema one closure per node and keyword in one pass, once per kind
# and process (_CHECKS): it resolves each $ref and compiles each pattern as it goes,
# and refuses anything outside the subset.  A closure returns an instance's errors
# as (path, keyword, instance, value, the node's type, anyOf context), and () when
# it passes; _message words the one best_match would pick.

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: type(x) is int or type(x) is float and x.is_integer(),
    "number": lambda x: type(x) in (int, float),
}
# keyword: (the instance type it constrains or None, its check from the keyword's
# value and fail(x, failure value), message)
_LEAVES = {
    "type": (None, lambda v, fail: lambda x, ok=_TYPES[v]: () if ok(x) else fail(x, v),
             lambda x, v: "%r is not of type %r" % (x, v)),
    "const": (None, lambda v, fail: lambda x: () if x == v else fail(x, v),
              lambda x, v: "%r was expected" % (v,)),
    "required": ("object", lambda v, fail: lambda x: sum((fail(x, p) for p in v if p not in x), ()),
                 lambda x, v: "%r is a required property" % (v,)),
    "pattern": ("string", lambda v, fail: lambda x: () if v.search(x) else fail(x, v.pattern),
                lambda x, v: "%r does not match %r" % (x, v)),
    "minItems": ("array", lambda v, fail: lambda x: fail(x, v) if len(x) < v else (),
                 lambda x, v: "%r %s" % (x, "should be non-empty" if v == 1 else "is too short")),
    "maxItems": ("array", lambda v, fail: lambda x: fail(x, v) if len(x) > v else (),
                 lambda x, v: "%r %s" % (x, "is expected to be empty" if v == 0 else "is too long")),
    "minimum": ("number", lambda v, fail: lambda x: fail(x, v) if x < v else (),
                lambda x, v: "%r is less than the minimum of %r" % (x, v)),
    "anyOf": (None, None, lambda x, v: "%r is not valid under any of the given schemas" % (x,)),
}
_CHECKS = {}


def _build(schema, defs=None, refs=()):
    """The check of a schema node: its keywords' checks in schema order.

    defs are the root's $defs and refs the $refs followed to reach the node;
    ValueError for anything outside the subset."""
    if not isinstance(schema, dict):
        raise ValueError("schema %r is not an object" % (schema,))
    defs = schema.get("$defs", {}) if defs is None else defs
    checks = [_keyword(kw, v, schema, defs, refs) for kw, v in schema.items()
              if kw not in ("$defs", "$id", "$schema", "title")]
    if len(checks) == 1:
        return checks[0]

    def check(x):
        out = ()
        for c in checks:
            e = c(x)
            if e:
                out += e
        return out
    return check


def _keyword(kw, v, s, defs, refs):
    """The check of one keyword of the node s; parts of the wrong type pass."""
    if kw == "$ref":
        name = v[len("#/$defs/"):]
        if not v.startswith("#/$defs/") or name not in defs or name in refs:
            raise ValueError("unsupported $ref %r" % v)
        return _build(defs[name], defs, refs + (name,))
    if kw == "anyOf":
        branches, typ = [_build(t, defs, refs) for t in v], s.get("type")

        def any_of(x):
            context = ()
            for b in branches:
                e = b(x)
                if not e:
                    return ()
                context += e
            return (((), kw, x, None, typ, context),)
        return any_of
    if kw == "type" and v not in list(_TYPES) or kw == "const" and type(v) is not str:
        raise ValueError("unsupported %s %r" % (kw, v))
    if kw in _LEAVES:
        on, make, _ = _LEAVES[kw]
        v = re.compile(v) if kw == "pattern" else v
        check = make(v, lambda x, m, typ=s.get("type"): (((), kw, x, m, typ, ()),))
        return check if on is None else lambda x, ok=_TYPES[on]: check(x) if ok(x) else ()
    # the others descend: parts(x) gives (path step or None, part, its check)
    if kw == "properties":
        subs = [(k, _build(t, defs, refs)) for k, t in v.items()]
        on, parts = dict, lambda x: ((k, x[k], c) for k, c in subs if k in x)
    elif kw == "prefixItems":
        subs = [_build(t, defs, refs) for t in v]
        on, parts = list, lambda x: ((i, y, c) for i, (y, c) in enumerate(zip(x, subs)))
    elif kw == "items":
        c, start = _build(v, defs, refs), len(s.get("prefixItems", ()))
        on, parts = list, lambda x: ((i, x[i], c) for i in range(start, len(x)))
    elif kw == "propertyNames":
        c = _build(v, defs, refs)
        on, parts = dict, lambda x: ((None, k, c) for k in x)
    elif kw == "additionalProperties":
        c, known = _build(v, defs, refs), s.get("properties", ())
        on, parts = dict, lambda x: ((k, y, c) for k, y in x.items() if k not in known)
    else:
        raise ValueError("schema keyword %r is outside the supported subset" % kw)

    def descend(x):
        out = ()
        if isinstance(x, on):
            for step, y, c in parts(x):
                e = c(y)
                if e:
                    out += e if step is None else tuple(((step,) + f[0],) + f[1:] for f in e)
        return out
    return descend


def _message(errors):
    """The message of the error best_match picks, by its relevance key and anyOf descent."""
    key = lambda e: (-len(e[0]), e[0], e[1] != "anyOf", not (e[4] and _TYPES[e[4]](e[2])))
    best = max(errors, key=key)
    while best[5]:
        ranked = sorted(best[5], key=key)
        if len(ranked) > 1 and key(ranked[0]) == key(ranked[1]):
            break
        best = ranked[0]
    return _LEAVES[best[1]][2](best[2], best[3])


def parse_integer(value, field) -> int:
    """value if it is a JSON integer; the schema's integer also admits 2.0."""
    if type(value) is not int:
        raise DocumentError("%s must be an integer, found %r" % (field, value))
    return value


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational, found a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if not match:
            raise DocumentError(
                "bad rational %r: expected 'p' or 'p/q' with positive q" % value
            )
        return Fraction(int(match[1]), int(match[2])) if match[2] else Fraction(int(match[1]))
    raise DocumentError("expected a rational, found %r" % (value,))


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, compact, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _matrix_from_json(rows, m, n, where):
    if len(rows) != m or any(len(r) != n for r in rows):
        raise DocumentError(
            "matrix at %s has shape %dx%d, expected %dx%d"
            % (where, len(rows), len(rows[0]) if rows else 0, m, n)
        )
    return Mat(m, n, [[parse_rational(x) for x in row] for row in rows])


def matrix_to_json(mat: Mat):
    rows = [["0"] * mat.n for _ in range(mat.m)]
    for i, j, x in mat.items():
        rows[i][j] = format_rational(x)
    return rows


# -- loading ----------------------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DocumentError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON in %s: %s" % (path, exc))


def document_kind(doc) -> str:
    """The kind of a document dict, the one field read before its schema check."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("cdga", "lie", "glie", "complex", "gram"):
        raise DocumentError("unknown document kind %r" % kind)
    return kind


def validate_document(doc) -> str:
    """Schema-check a document dict; returns its kind."""
    kind = document_kind(doc)
    if kind not in _CHECKS:
        path = "schemas/%s.v1.json" % kind
        _CHECKS[kind] = _build(json.loads(resources.files("cdga").joinpath(path).read_text()))
    errors = _CHECKS[kind](doc)
    if errors:
        raise DocumentError(
            "document does not match the %s schema: %s" % (kind, _message(errors))
        )
    return kind


def _require(doc, kind):
    """Schema-check a document dict and require it to be of this kind."""
    if validate_document(doc) != kind:
        raise DocumentError("expected a %s document" % kind)


def load_cdga(doc) -> FreeCDGA:
    _require(doc, "cdga")
    gens = Generators([(g, parse_integer(d, "degree of generator %r" % g))
                       for g, d in doc["generators"]])
    images = {}
    for name, expr in doc.get("differential", {}).items():
        try:
            poly = parse_polynomial(gens, expr)
        except ParseError as exc:
            raise DocumentError(
                "bad differential for %r: %s" % (name, exc)
            )
        if not poly.is_zero():
            images[name] = poly
    truncation = parse_integer(doc.get("truncation", 8), "truncation")
    try:
        return FreeCDGA(gens, images, truncation=truncation)
    except GradedError as exc:
        raise GradedError("invalid CDGA document: %s" % exc)


def load_lie(doc) -> LieData:
    _require(doc, "lie")
    names = list(doc["basis"])
    index = {n: i for i, n in enumerate(names)}
    brackets = {}
    for key, combo in doc.get("brackets", {}).items():
        parts = key.split(",")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise DocumentError("bad bracket key %r" % key)
        pair = (index[parts[0]], index[parts[1]])
        brackets[pair] = {
            index[n]: parse_rational(c) for n, c in combo.items() if n in index
        }
        for n in combo:
            if n not in index:
                raise DocumentError("bracket %r names unknown element %r" % (key, n))
    return LieData(names, brackets)


def load_glie(doc) -> GradedChainData:
    _require(doc, "glie")
    elements = [(n, parse_integer(d, "degree of basis element %r" % n)) for n, d in doc["basis"]]
    # number-op reads the truncation; checked here, check refuses it too
    parse_integer(doc.get("truncation", 0), "truncation")
    boundary = {
        v: {w: parse_rational(c) for w, c in combo.items()}
        for v, combo in doc.get("boundary", {}).items()
    }
    cobracket = {
        v: [(s[0], s[1], parse_rational(s[2])) for s in splits]
        for v, splits in doc.get("cobracket", {}).items()
    }
    grams = {}
    for key, rows in doc.get("gram", {}).items():
        p = int(key)
        dim = sum(1 for _, d in elements if d == p)
        if not dim:
            raise DocumentError("gram at degree %d is %dx%d, but the basis has dimension 0 in "
                                "degree %d" % (p, len(rows), len(rows[0]) if rows else 0, p))
        grams[p] = _matrix_from_json(rows, dim, dim, "gram degree %s" % key)
    return GradedChainData(elements, boundary, cobracket, grams)


def _complex_from_body(body, where="complex") -> Complex:
    degrees = {}
    for key, labels in body["degrees"].items():
        degrees[int(key)] = list(labels)
    space = GradedSpace(degrees)
    diffs = {}
    for key, rows in body.get("differential", {}).items():
        k = int(key)
        diffs[k] = _matrix_from_json(
            rows, space.dim(k + 1), space.dim(k), "%s degree %s" % (where, key)
        )
    return Complex(space, diffs, validate=True)


def load_complex(doc):
    """Returns (Complex, ChainMap or None) from a complex document."""
    _require(doc, "complex")
    if "map" in doc:
        body = doc["map"]
        source = _complex_from_body(body["source"], "source")
        target = _complex_from_body(body["target"], "target")
        comps = {}
        for key, rows in body.get("components", {}).items():
            k = int(key)
            comps[k] = _matrix_from_json(
                rows, target.dim(k), source.dim(k), "component %s" % key
            )
        return source, ChainMap(source, target, comps)
    return _complex_from_body(doc["complex"]), None


def load_gram(doc) -> InnerProduct:
    _require(doc, "gram")
    grams = {}
    for key, rows in doc["grams"].items():
        k = int(key)
        if not rows or len(rows) != len(rows[0]):
            raise DocumentError("gram at degree %s must be square" % key)
        grams[k] = _matrix_from_json(rows, len(rows), len(rows), "gram %s" % key)
    return InnerProduct(grams)


def complex_to_body(c: Complex):
    body = {
        "degrees": {str(k): list(c.labels(k)) for k in c.support()},
    }
    diffs = {}
    for k in sorted(c.d):
        diffs[str(k)] = matrix_to_json(c.d[k])
    if diffs:
        body["differential"] = diffs
    return body


def complex_to_doc(c: Complex):
    return {
        "schema": "cdga.complex/1",
        "kind": "complex",
        "complex": complex_to_body(c),
    }


# -- input resolution ---------------------------------------------------------------

LIBRARY_ENV = "CDGA_LIBRARY"


def resolve_input(name: str) -> str:
    """Filename resolution: literal path, then $CDGA_LIBRARY, then built-ins.

    A bare name without extension also matches ``name + ".json"``.
    """
    variants = [name] if name.endswith(".json") else [name, name + ".json"]
    for v in variants:
        if os.path.exists(v):
            return v
    library = os.environ.get(LIBRARY_ENV)
    if library:
        for v in variants:
            candidate = os.path.join(library, v)
            if os.path.exists(candidate):
                return candidate
    for v in variants:
        packaged = os.path.join(_data_dir(), v)
        if os.path.isfile(packaged):
            return packaged
    raise DocumentError("cannot resolve input %r" % name)


@lru_cache(maxsize=None)
def _data_dir() -> str:
    """The packaged ``data`` directory, found once per process."""
    return str(resources.files("cdga").joinpath("data"))


def builtin_names():
    return sorted(name for name in os.listdir(_data_dir()) if name.endswith(".json"))
