"""JSON document formats: loading, validation, canonical serialization.

Five document kinds are supported, each with a versioned schema shipped in
cdga/schemas and enforced with jsonschema before any mathematics runs:

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
from importlib import resources

import jsonschema

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


_VALIDATORS = {}


def _validator(kind: str):
    """The jsonschema validator of one document kind, schema checked once."""
    if kind not in _VALIDATORS:
        path = "schemas/%s.v1.json" % kind
        schema = json.loads(resources.files("cdga").joinpath(path).read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATORS[kind] = cls(schema)
    return _VALIDATORS[kind]


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError("expected a rational, found a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", value):
            raise DocumentError(
                "bad rational %r: expected 'p' or 'p/q' with positive q" % value
            )
        return Fraction(value)
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
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(doc))
    if error is not None:
        raise DocumentError(
            "document does not match the %s schema: %s" % (kind, error.message)
        )
    return kind


def _require(doc, kind):
    """Schema-check a document dict and require it to be of this kind."""
    if validate_document(doc) != kind:
        raise DocumentError("expected a %s document" % kind)


def load_cdga(doc) -> FreeCDGA:
    _require(doc, "cdga")
    gens = Generators([(g[0], g[1]) for g in doc["generators"]])
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
    truncation = doc.get("truncation", 8)
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
    elements = [(e[0], e[1]) for e in doc["basis"]]
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
        packaged = resources.files("cdga").joinpath("data/%s" % v)
        try:
            if packaged.is_file():
                with resources.as_file(packaged) as p:
                    return str(p)
        except (OSError, ValueError):
            pass
    raise DocumentError("cannot resolve input %r" % name)


def builtin_names():
    out = []
    for entry in resources.files("cdga").joinpath("data").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name)
    return sorted(out)
