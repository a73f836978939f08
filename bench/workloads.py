"""The four workloads: seeded documents, the job cycle, and each job's check.

A workload is a fixed cycle of jobs.  ``plan(workload, seed)`` returns the
documents to write (file name -> JSON-ready dict) and the jobs; the runner
writes the documents, and the workload process rebuilds the same plan from the
same seed to learn the jobs and their checks.  Every expected answer comes from
``gen`` (forced by construction or derived by hand, as in ``docs/oracles.md``),
never from ``cdga``.

A check takes one call's stdout and returns None when the answer is right, or
a one-line reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import gen

WORKLOADS = ("weil-basic", "minimal-staged", "audit-dense", "docs-mix")


@dataclass
class Call:
    """One call into cdga: a CLI argv, or the library-only free Lie build."""

    argv: list = None
    lib: tuple = None  # (generators, top degree) for free_graded_lie
    expect_rc: int = 0
    check: object = None  # callable(stdout) -> None or reason

    def documents(self):
        argv = self.argv or []
        return [argv[i + 1] for i, a in enumerate(argv) if a in ("--input", "--gram")]


@dataclass
class Job:
    """What one closed-loop client request runs: one or more calls in order."""

    name: str
    calls: list = field(default_factory=list)

    def documents(self):
        return [d for call in self.calls for d in call.documents()]


def _betti(values, lo, hi):
    return {str(k): values.get(k, 0) for k in range(lo, hi + 1)}


def _parse(stdout):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def expect_payload(expected):
    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        return None if got == expected else "payload differs from the forced answer"
    return check


def expect_empty(stdout):
    return None if stdout == "" else "a rejected document printed to stdout"


# -- checks that need more than equality ---------------------------------------------


def check_minimal(facts):
    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        counts = {}
        for _, degree in got.get("generators", []):
            counts[str(degree)] = counts.get(str(degree), 0) + 1
        if counts != facts["generator_degrees"]:
            return "generator degrees %s, forced %s" % (counts, facts["generator_degrees"])
        if got.get("certified_through") != facts["certified_through"]:
            return "certified through %s" % got.get("certified_through")
        if got.get("already_minimal") is not False:
            return "input is not minimal but was reported minimal"
        return None
    return check


def check_number_op(truncation, generator_degrees):
    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        want = {
            "ok": True, "truncation": truncation, "ccr": True, "cross_terms_zero": True,
            "laplacian_commutes": True, "failures": [],
            "generator_identity": {str(k): True for k in generator_degrees},
        }
        return None if got == want else "audit report differs from the forced answer"
    return check


def check_hodge(betti):
    lo, hi = min(betti), max(betti)
    want = {"betti": _betti(betti, lo, hi), "harmonic": _betti(betti, lo, hi), "match": True}
    return expect_payload(want)


def _complex_ranks(body):
    """Total dimension and Betti numbers of an output complex, by plain elimination."""
    dims = {int(k): len(v) for k, v in body["degrees"].items()}
    ranks = {int(k): gen.rank([[Fraction(x) for x in row] for row in rows])
             for k, rows in body.get("differential", {}).items()}
    betti = {k: n - ranks.get(k, 0) - ranks.get(k - 1, 0) for k, n in dims.items()}
    return sum(dims.values()), {k: b for k, b in betti.items() if b}


def check_cone(facts):
    """Cone of a weak equivalence: flagged so, acyclic, of dimension dim A + dim B."""
    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        if got.get("weak_equivalence") is not True:
            return "a weak equivalence by construction was not recognised"
        total, betti = _complex_ranks(got["complex"])
        if total != facts["dim_source"] + facts["dim_target"]:
            return "cone has dimension %d" % total
        return None if not betti else "cone of a weak equivalence is not acyclic"
    return check


def check_cylinder(facts):
    """Cylinder: projection flagged a weak equivalence; homology that of the target."""
    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        if got.get("projection_weak_equivalence") is not True:
            return "cylinder projection not recognised as a weak equivalence"
        total, betti = _complex_ranks(got["complex"])
        if total != 2 * facts["dim_source"] + facts["dim_target"]:
            return "cylinder has dimension %d" % total
        want = {k: b for k, b in facts["betti"].items() if b}
        return None if betti == want else "cylinder homology differs from the target's"
    return check


def check_free_lie(degrees, n):
    """PBW: dim U(L)_k from the computed dims of L equals the count of words."""
    words = gen.tensor_dims(degrees, n)

    def check(stdout):
        got, err = _parse(stdout)
        if err:
            return err
        dims = {int(k): v for k, v in got.items()}
        pbw = gen.pbw_dims(dims, n)
        return None if pbw == words else "PBW count %s differs from words %s" % (pbw, words)
    return check


# -- the workloads ------------------------------------------------------------------------

WEIL_WINDOW = (0, 12)
MINIMAL_TRUNCATION = 12
NUMBER_OP_TRUNCATION = 8
# audit-dense complex: per-degree Betti numbers and acyclic pairs, giving
# dimensions 10, 18, 18, 10 in degrees 0..3
AUDIT_FREE = {0: 2, 1: 3, 2: 3, 3: 2}
AUDIT_PAIRS = {0: 8, 1: 7, 2: 8}
# docs-mix: small complexes, a few cells per degree
SMALL_FREE = {0: 1, 1: 1, 2: 1}
SMALL_PAIRS = {0: 1, 1: 1}
MAP_EXTRA = {0: 1, 1: 1}
FREE_LIE_TOP = 6

# Betti numbers of the Weil complex (acyclic) and of its basic subcomplex:
# the invariant polynomials, Q[c2] for cross3 (c2 the degree-4 Casimir) and
# Q[F1] for solvable2 (F1 the degree-2 curvature of the x1 direction).
CROSS3_BASIC = {0: 1, 4: 1, 8: 1, 12: 1}
SOLVABLE2_BASIC = {0: 1, 2: 1, 4: 1}


def _weil_expectation(basic, lo, hi):
    return {"basic_betti": _betti(basic, lo, hi), "weil_betti": _betti({0: 1}, lo, hi),
            "window": [lo, hi]}


def plan(workload, seed):
    """(documents, jobs) for one workload and seed."""
    rng = gen.rng_for(workload, seed)
    make = {
        "weil-basic": _weil_basic,
        "minimal-staged": _minimal_staged,
        "audit-dense": _audit_dense,
        "docs-mix": _docs_mix,
    }[workload]
    return make(rng)


def _cli(name, argv, check, expect_rc=0):
    return Job(name, [Call(argv=argv, check=check, expect_rc=expect_rc)])


def _weil_basic(rng):
    docs = {"lie_cross3_twisted.json": gen.signed_permuted_lie(
        rng, gen.CROSS3, "cross3 after a signed permutation of its basis")}
    lo, hi = WEIL_WINDOW
    jobs = [_cli("weil", ["weil", "--input", "lie_cross3_twisted.json", "--window",
                          "%d..%d" % (lo, hi), "--format", "json"],
                 expect_payload(_weil_expectation(CROSS3_BASIC, lo, hi)))]
    return docs, jobs


def _minimal_staged(rng):
    doc, facts = gen.nonminimal_s2xs2(rng, MINIMAL_TRUNCATION)
    docs = {"s2xs2_contractible.json": doc}
    jobs = [_cli("minimal-model", ["minimal-model", "--input", "s2xs2_contractible.json",
                                   "--format", "json"], check_minimal(facts))]
    return docs, jobs


def _audit_dense(rng):
    body, betti = gen.twisted_complex(rng, AUDIT_FREE, AUDIT_PAIRS)
    dims = {int(k): len(v) for k, v in body["degrees"].items()}
    docs = {
        "glie_four.json": gen.glie_doc(rng),
        "complex_dense.json": gen.complex_doc(body, "direct sum of elementary pieces, twisted"),
        "gram_dense.json": gen.gram_doc(rng, dims),
    }
    # one job is the whole audit, so every sample is the same mix of work
    jobs = [Job("audit", [
        Call(argv=["number-op", "--input", "glie_four.json", "--truncation",
                   str(NUMBER_OP_TRUNCATION), "--format", "json"],
             check=check_number_op(NUMBER_OP_TRUNCATION, (1, 2, 3, 4))),
        Call(argv=["hodge", "--input", "complex_dense.json", "--gram", "gram_dense.json",
                   "--format", "json"], check=check_hodge(betti)),
    ])]
    return docs, jobs


def _docs_mix(rng):
    body, betti = gen.twisted_complex(rng, SMALL_FREE, SMALL_PAIRS)
    mdoc, mfacts = gen.quasi_iso_map(rng, SMALL_FREE, SMALL_PAIRS, MAP_EXTRA)
    free_gens = gen.free_lie_generators(rng)
    docs = {
        "lie_cross3_twisted.json": gen.signed_permuted_lie(rng, gen.CROSS3, "cross3, signed permutation"),
        "lie_solvable2_twisted.json": gen.signed_permuted_lie(rng, gen.SOLVABLE2, "solvable2, signed permutation"),
        "complex_small.json": gen.complex_doc(body, "direct sum of elementary pieces, twisted"),
        "map_quasi_iso.json": mdoc,
        "cdga_schema_invalid.json": gen.schema_invalid_cdga(rng),
        "cdga_bad_square.json": gen.bad_square_cdga(rng),
    }
    ok = {"kind": "cdga", "ok": True}
    sphere2, sphere3, cp2 = {0: 1, 2: 1}, {0: 1, 3: 1}, {0: 1, 2: 1, 4: 1}
    j = "--format", "json"
    jobs = [
        _cli("check-sphere2", ["check", "--input", "cdga_sphere2", *j], expect_payload(ok)),
        _cli("check-sphere3", ["check", "--input", "cdga_sphere3", *j], expect_payload(ok)),
        _cli("check-cp2", ["check", "--input", "cdga_cp2", *j], expect_payload(ok)),
        _cli("homology-sphere2", ["homology", "--input", "cdga_sphere2", *j],
             expect_payload({"betti": _betti(sphere2, 0, 8), "window": [0, 8]})),
        _cli("homology-sphere3", ["homology", "--input", "cdga_sphere3", *j],
             expect_payload({"betti": _betti(sphere3, 0, 8), "window": [0, 8]})),
        _cli("homology-cp2-16", ["homology", "--input", "cdga_cp2", "--truncation", "16", *j],
             expect_payload({"betti": _betti(cp2, 0, 15), "window": [0, 15]})),
        _cli("homotopy-sphere2", ["homotopy", "--input", "cdga_sphere2", *j],
             expect_payload({"certified_through": 8, "pi": {"2": 1, "3": 1}})),
        _cli("homotopy-sphere3", ["homotopy", "--input", "cdga_sphere3", *j],
             expect_payload({"certified_through": 8, "pi": {"3": 1}})),
        _cli("homotopy-cp2-16", ["homotopy", "--input", "cdga_cp2", "--truncation", "16", *j],
             expect_payload({"certified_through": 15, "pi": {"2": 1, "5": 1}})),
        _cli("ce-cross3", ["ce", "--input", "lie_cross3_twisted.json", *j],
             expect_payload({"betti": _betti({0: 1, 3: 1}, 0, 3), "identities": "verified"})),
        _cli("ce-solvable2", ["ce", "--input", "lie_solvable2_twisted.json", *j],
             expect_payload({"betti": _betti({0: 1, 1: 1}, 0, 2), "identities": "verified"})),
        _cli("weil-solvable2", ["weil", "--input", "lie_solvable2_twisted.json", *j],
             expect_payload(_weil_expectation(SOLVABLE2_BASIC, 0, 4))),
        _cli("cone-map", ["cone", "--input", "map_quasi_iso.json", *j], check_cone(mfacts)),
        _cli("cyl-map", ["cyl", "--input", "map_quasi_iso.json", *j], check_cylinder(mfacts)),
        _cli("hodge-small", ["hodge", "--input", "complex_small.json", *j], check_hodge(betti)),
        Job("free-lie", [Call(lib=(free_gens, FREE_LIE_TOP),
                              check=check_free_lie([d for _, d in free_gens], FREE_LIE_TOP))]),
        _cli("check-schema-invalid", ["check", "--input", "cdga_schema_invalid.json", *j],
             expect_empty, expect_rc=2),
        _cli("check-bad-square", ["check", "--input", "cdga_bad_square.json", *j],
             expect_empty, expect_rc=1),
    ]
    return docs, jobs
