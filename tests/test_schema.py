"""The schema checker of cdga.documents against jsonschema as the oracle.

Every packaged example and every benchmark document is mutated (keys dropped
and added, types changed, bad rationals and integral floats written, arrays
shortened and lengthened); the checker, called as the closure _build makes of
each schema and through validate_document's cached closures, must accept and
reject exactly as jsonschema's Draft 2020-12 validator does, and report the
message of the error its best_match picks.
"""

import copy
import json
import os
import sys
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import cdga.documents as documents
from cdga import DocumentError, validate_document

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
import workloads  # noqa: E402 - bench/ is put on the path just above

KINDS = ("cdga", "lie", "glie", "complex", "gram")
SCHEMAS = {
    kind: json.loads(resources.files("cdga").joinpath("schemas/%s.v1.json" % kind).read_text())
    for kind in KINDS
}
ORACLES = {kind: Draft202012Validator(schema) for kind, schema in SCHEMAS.items()}
CHECKS = {kind: documents._build(schema) for kind, schema in SCHEMAS.items()}


def _corpus():
    docs = [documents.load_json(documents.resolve_input(name))
            for name in documents.builtin_names()]
    for workload in workloads.WORKLOADS:
        docs += workloads.plan(workload, 1)[0].values()
    return [(doc["kind"], doc) for doc in docs]


CORPUS = _corpus()

# values written over keys, elements and whole subtrees: other types, bad
# rationals, integral and non-integral floats, booleans beside 0 and 1, strings
# with a trailing newline (which "$" matches before, as re.search has it)
VALUES = [True, False, None, 0, 1, -1, 2, 2.0, 1.5, -3.0, "1/0", "3/-2", "1/2", "-0",
          "1.5", "7\n", "1/2\n", "x\n", "", "x", "9x", [], {}, ["x", 2], ["x"], [["1", "0"]],
          {"0": [["1"]]}, {"x": "1"}]
KEYS = ["kind", "schema", "comment", "extra", "truncation", "0", "-1", "0\n", "x", "1/2",
        "p,q", "degrees", "differential", "source", "target", "complex", "map"]


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated(draw):
    # every kind is equally likely, however many documents it has
    kind = draw(st.sampled_from(KINDS))
    doc = copy.deepcopy(draw(st.sampled_from([d for k, d in CORPUS if k == kind])))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        # a third of the time an object, a third an object or array, so that keys
        # and items come and go; matrix entries would swamp them otherwise
        shape = draw(st.sampled_from([dict, (dict, list), object]))
        nodes = [(p, n) for p, n in nodes if isinstance(n, shape)]
        path, node = draw(st.sampled_from(nodes))
        ops = ["replace"] if path else []
        if isinstance(node, (dict, list)):
            ops += ["drop", "add"] if node else ["add"]
        op = draw(st.sampled_from(ops))
        if op == "drop":
            del node[draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "add":
            # an element from the pool or a copy of a sibling: lengthens rows and pairs
            value = draw(st.sampled_from(VALUES + node))
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(value))
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return kind, doc


def _agree(kind, doc):
    errors = list(ORACLES[kind].iter_errors(doc))
    ours = CHECKS[kind](doc)
    assert bool(ours) == bool(errors), (doc, [e.message for e in errors])
    if errors:
        assert documents._message(ours) == best_match(errors).message, doc


def test_the_corpus_covers_every_kind_and_agrees_unmutated():
    assert {kind for kind, _ in CORPUS} == set(KINDS)
    for kind, doc in CORPUS:
        _agree(kind, doc)
    # docs-mix ships one schema-invalid document on purpose
    assert sum(1 for kind, doc in CORPUS if CHECKS[kind](doc)) == 1


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated())
def test_checker_and_validate_document_agree_with_jsonschema_on_mutated_documents(case):
    _agree(*case)
    # the production path: the closures built once per kind and kept in _CHECKS
    _, doc = case
    kind = doc.get("kind")
    if kind not in KINDS:
        with pytest.raises(DocumentError, match="unknown document kind"):
            validate_document(doc)
        return
    errors = list(ORACLES[kind].iter_errors(doc))
    if errors:
        with pytest.raises(DocumentError) as exc:
            validate_document(doc)
        assert str(exc.value) == "document does not match the %s schema: %s" % (
            kind, best_match(errors).message)
    else:
        assert validate_document(doc) == kind
    assert bool(documents._CHECKS[kind](doc)) == bool(errors)


@pytest.mark.parametrize("schema,instance", [
    ({"type": "integer"}, 2.0),
    ({"type": "integer"}, True),
    ({"type": "integer"}, 2.5),
    ({"type": "number"}, True),
    ({"const": "1"}, 1),
    ({"const": "cdga"}, True),
    ({"const": "cdga"}, ["cdga"]),
    ({"pattern": "^[0-9]+$"}, "12\n"),
    ({"pattern": "^[0-9]+$"}, "12\n3"),
    ({"minimum": 1}, 0.5),
    ({"minimum": 1}, False),
    ({"minItems": 1}, []),
    ({"maxItems": 0}, [1]),
    ({"required": ["a", "b"], "type": "object"}, {}),
    ({"additionalProperties": {"type": "string"}, "properties": {"a": {}}}, {"a": 1, "b": 2}),
    ({"propertyNames": {"pattern": "^a"}}, {"ab": 1, "b": 1}),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}}, [1, "x", 2]),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}}, ["x", 2]),
    ({"anyOf": [{"type": "integer"}, {"type": "string", "pattern": "^x$"}]}, "y"),
    ({"anyOf": [{"type": "integer"}, {"type": "string"}]}, 1.5),
])
def test_each_keyword_agrees_with_jsonschema(schema, instance):
    errors = list(Draft202012Validator(schema).iter_errors(instance))
    ours = documents._build(schema)(instance)
    assert bool(ours) == bool(errors)
    if errors:
        assert documents._message(ours) == best_match(errors).message


def test_a_bad_rational_names_the_pattern():
    doc = {"kind": "gram", "grams": {"0": [["1/0"]]}}
    with pytest.raises(DocumentError) as exc:
        validate_document(doc)
    assert str(exc.value) == (
        "document does not match the gram schema: "
        "'1/0' does not match '^-?[0-9]+(/[1-9][0-9]*)?$'"
    )


@pytest.mark.parametrize("schema,refused", [
    ({"type": "string", "maxLength": 3}, "'maxLength' is outside the supported subset"),
    ({"$ref": "other.json#/x"}, "unsupported $ref 'other.json#/x'"),
    ({"$ref": "#/$defs/missing", "$defs": {}}, "unsupported $ref '#/$defs/missing'"),
    ({"$ref": "#/$defs/a", "$defs": {"a": {"$ref": "#/$defs/a"}}}, "unsupported $ref"),
    ({"additionalProperties": False}, "schema False is not an object"),
    ({"additionalProperties": True}, "schema True is not an object"),
    ({"items": {"type": "integer", "uniqueItems": True}}, "'uniqueItems' is outside"),
    ({"properties": {"a": {"type": "list"}}}, "unsupported type 'list'"),
    ({"type": ["integer", "string"]}, "unsupported type ['integer', 'string']"),
    ({"const": 1}, "unsupported const 1"),
])
def test_a_schema_outside_the_subset_is_refused_when_compiled(schema, refused):
    with pytest.raises(ValueError) as exc:
        documents._build(schema)
    assert refused in str(exc.value)


def test_every_packaged_schema_compiles():
    names = sorted(e.name for e in resources.files("cdga").joinpath("schemas").iterdir()
                   if e.name.endswith(".json"))
    assert names == sorted("%s.v1.json" % kind for kind in KINDS)
    for name in names:
        schema = json.loads(resources.files("cdga").joinpath("schemas/" + name).read_text())
        assert documents._message(documents._build(schema)([])) == "[] is not of type 'object'"
