"""Command-line interface.

One table, COMMANDS, decides each subcommand's document kinds, its flags and
the smallest truncation it can use; one runner resolves, kind-checks, loads
(schema, then the mathematical invariants) and truncates every input document,
and every command but check holds the degrees it visits to one size budget
before it builds anything.  Exit codes: 0 on success, 1 when the mathematics
rejects the input (bad differential, failed Jacobi, non-nilpotent flow, failed
audit, ...), 2 for unreadable or schema-invalid documents, bad arguments and
inputs over the budget, 3 for internal consistency failures.

JSON output is canonical: sorted keys, compact separators, one trailing
newline, rationals as "p" or "p/q" strings — byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .graded import GradedError
from .complexes import (
    ComplexError, InternalCheckError, betti_numbers, cone, cone_contraction,
    is_weak_equivalence, mapping_cylinder,
)
from .cartan import (
    basic_subcomplex, chevalley_eilenberg, weil_algebra, weil_contraction_failures,
)
from .free import free_gc_dims_from_counts
from .minimal import minimal_model
from .hodge import InnerProduct, adjoint, harmonic_space, number_operator_check
from . import documents
from .documents import DocumentError

# units a command may visit: max(1, basis dimension) summed over its degrees
BUDGET = 25000

# the truncation of a document kind that has one, when neither flag nor document gives it
DEFAULT_TRUNCATION = {"cdga": 8, "glie": 6}

MATH_ERRORS = (GradedError, ComplexError)


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DocumentError("window must look like 'a..b'")
    if hi < lo:
        raise DocumentError("window is empty: %s" % text)
    return lo, hi


def _truncation(args, doc, minimum, default):
    """The --truncation flag, else the document's, else default; below minimum
    the command would check nothing, so that is an argument error (exit 2)."""
    t = args.truncation
    if t is None:
        t = documents.parse_integer(doc.get("truncation", default), "truncation")
    if t < minimum:
        raise DocumentError(
            "truncation %d is below %d, the smallest that %s can use"
            % (t, minimum, args.command)
        )
    return t


def _budget(lo, hi, degrees=(), complexes=()):
    """Units, max(1, dim_k) summed over lo <= k <= hi; exit 2 above BUDGET.

    dim_k is the free graded-commutative algebra's on generators of these
    degrees plus each complex's.  The degrees and the series' steps are
    counted first, so the prediction costs no more than the budget."""
    counts = Counter(degrees)
    units = hi - lo + 1 + sum(min(c, max(hi, 0) // d + 1) * max(0, hi - d + 1)
                              for d, c in counts.items())
    if units <= BUDGET:
        dims = free_gc_dims_from_counts(counts, hi) if counts else {}
        for c in complexes:
            dims = {k: dims.get(k, 0) + c.dim(k) for k in {*dims, *c.support()}}
        units = hi - lo + 1 + sum(v - 1 for k, v in dims.items() if v and lo <= k <= hi)
    if units > BUDGET:
        raise DocumentError("degrees %d..%d cost %d units, over the budget of %d"
                            % (lo, hi, units, BUDGET))
    return units


def _betti_payload(bettis):
    return {str(k): v for k, v in sorted(bettis.items())}


def _betti_lines(betti, *title):
    """The text table of betti_numbers' dict, after any title lines."""
    return [*title, "degree  betti"] + ["%6d  %d" % kv for kv in sorted(betti.items())]


def _verified(ops, *checks):
    """A Cartan model whose operator identities and every check(ops) hold, else
    InternalCheckError."""
    failures = ops.verify() + [f for check in checks for f in check(ops)]
    if failures:
        raise InternalCheckError("; ".join(failures))
    return ops


# -- subcommand handlers -----------------------------------------------------------
#
# Each takes (args, kind, the loaded document, its truncation or None) and
# returns (JSON payload, text lines).  args.window is already parsed.


def cmd_check(args, kind, value, t):
    # loading ran every check, d*d = 0 and chain maps included, except the Grams'
    detail = {"kind": kind, "ok": True}
    if kind == "gram":
        value.check_grams()
    elif kind == "complex" and value[1] is not None:
        detail["map"] = "chain map verified"
    return detail, ["ok: %s document passes all checks" % kind]


def cmd_homology(args, kind, value, t):
    window = args.window
    if kind == "cdga":
        # degree t has no outgoing differential in the slice: trust up to t - 1
        if window and window[1] > t - 1:
            raise DocumentError(
                "window top %d is above %d, the highest degree truncation %d trusts"
                % (window[1], t - 1, t)
            )
        _budget(min(window[0] if window else 0, 0), t, value.gens.degrees)
        c = value.to_complex((0, t))
        window = window or (0, t - 1)
    else:
        c = value[0]
    betti = betti_numbers(c, window)
    payload = {"betti": _betti_payload(betti)}
    if window:
        payload["window"] = [window[0], window[1]]
    return payload, _betti_lines(betti)


def cmd_minimal_model(args, kind, algebra, t):
    # a non-minimal input's complex is built on [0, t + 2]; an already-minimal
    # one is certified without it, but is priced the same
    _budget(0, t + 2, algebra.gens.degrees)
    mm = minimal_model(algebra, t)
    gens = list(zip(mm.model.gens.names, mm.model.gens.degrees))
    diff = {
        name: str(mm.model.differential.image_of(name))
        for name in mm.model.gens.names
        if not mm.model.differential.image_of(name).is_zero()
    }
    payload = {
        "generators": [[n, d] for n, d in gens],
        "differential": diff,
        "certified_through": mm.certified_through,
        "already_minimal": mm.already_minimal,
        "stages": [
            {"degree": st.degree, "closed": st.closed_generators,
             "closing": st.closing_generators}
            for st in mm.stages
        ],
    }
    lines = ["minimal model generators:"]
    for n, d in gens:
        img = mm.model.differential.image_of(n)
        lines.append(
            "  %s (degree %d), d = %s" % (n, d, img if not img.is_zero() else "0")
        )
    lines.append("certified through degree %d" % mm.certified_through)
    return payload, lines


def cmd_homotopy(args, kind, algebra, t):
    _budget(0, t + 2, algebra.gens.degrees)
    mm = minimal_model(algebra, t)
    ranks = mm.homotopy_ranks()
    payload = {
        "pi": {str(k): v for k, v in sorted(ranks.items()) if v},
        "certified_through": mm.certified_through,
    }
    lines = ["rational homotopy ranks (certified through degree %d):"
             % mm.certified_through]
    for k, v in sorted(ranks.items()):
        if v:
            lines.append("  pi_%d has rank %d" % (k, v))
    if not any(ranks.values()):
        lines.append("  all trivial in the certified range")
    return payload, lines


def cmd_ce(args, kind, lie, t):
    _budget(0, lie.n, [1] * lie.n)
    ops = _verified(chevalley_eilenberg(lie))
    betti = betti_numbers(ops.algebra.to_complex((0, lie.n)), (0, lie.n))
    payload = {"betti": _betti_payload(betti), "identities": "verified"}
    return payload, _betti_lines(betti, "Lie algebra cochain cohomology:")


def cmd_weil(args, kind, lie, t):
    window = args.window or (0, 2 * lie.n)
    _budget(min(window[0], 0), window[1] + 1, [2] * lie.n)  # S(F), all the path enumerates
    # the contraction certificate makes the Weil column 1 in degree 0 and 0
    # elsewhere, and the basic complex has d = 0: no rank is needed for either
    data = basic_subcomplex(_verified(weil_algebra(lie), weil_contraction_failures), window)
    weil = {k: int(k == 0) for k in range(window[0], window[1] + 1)}
    basic = {k: data.complex.dim(k) for k in weil}
    payload = {
        "weil_betti": _betti_payload(weil),
        "basic_betti": _betti_payload(basic),
        "window": [window[0], window[1]],
    }
    lines = ["degree  weil_betti  basic_betti"]
    lines += ["%6d  %10d  %11d" % (k, weil[k], basic[k]) for k in sorted(weil)]
    return payload, lines


def cmd_cone(args, kind, value, t):
    c, f = value
    if f is not None:
        # is_weak_equivalence reads the same cone, built once on f
        result = f.cone
        verdict = is_weak_equivalence(f)
        payload = documents.complex_to_doc(result)
        payload["weak_equivalence"] = bool(verdict)
        return payload, [
            "mapping cone computed; source map %s a weak equivalence"
            % ("is" if verdict else "is not")
        ]
    # the cone's explicit contraction is checked, so it is acyclic with no rank taken
    result = cone(c)
    cone_contraction(c, result)
    payload = documents.complex_to_doc(result)
    payload["acyclic"] = True
    return payload, ["cone computed; acyclic: True"]


def cmd_cyl(args, kind, value, t):
    _, f = value
    if f is None:
        raise DocumentError("cyl needs the document to carry a map")
    # the checked deformation retraction onto the target makes the projection
    # a weak equivalence with no cohomology taken
    data = mapping_cylinder(f)
    data.retraction
    payload = documents.complex_to_doc(data.cylinder)
    payload["projection_weak_equivalence"] = True
    return payload, [
        "cylinder computed; inclusions and projection are chain maps",
        "projection is a weak equivalence",
    ]


def cmd_hodge(args, kind, value, t):
    c, _ = value
    ip = InnerProduct.identity()
    if args.gram:
        ip = documents.load_gram(documents.load_json(documents.resolve_input(args.gram)))
        for k, g in sorted(ip.grams.items()):
            if g.n != c.dim(k):
                raise DocumentError("gram at degree %d is %dx%d, but the complex has "
                                    "dimension %d in degree %d" % (k, g.m, g.n, c.dim(k), k))
    ip.validate_for(c)
    sup = c.support()
    window = args.window or ((min(sup), max(sup)) if sup else (0, 0))
    adj = adjoint(c, ip)
    betti = betti_numbers(c, window)
    harm = {}
    for k in betti:
        harm[k] = len(harmonic_space(c, ip, k, adj))
        if harm[k] != betti[k]:
            raise InternalCheckError(
                "harmonic dimension and Betti number differ at degree %d" % k
            )
    payload = {
        "harmonic": _betti_payload(harm),
        "betti": _betti_payload(betti),
        "match": True,
    }
    lines = ["degree  harmonic  betti"]
    for k in sorted(harm):
        lines.append("%6d  %8d  %5d" % (k, harm[k], betti[k]))
    return payload, lines


def cmd_number_op(args, kind, data, t):
    _budget(-1, t + 1, [d + e for _, d in data.elements for e in (0, 1)])  # g_v and v'
    rep = number_operator_check(data, truncation=t)
    payload = {
        "ok": rep.ok,
        "truncation": rep.truncation,
        "generator_identity": {
            str(k): v for k, v in sorted(rep.generator_identity.items())
        },
        "ccr": rep.ccr_ok,
        "cross_terms_zero": rep.cross_terms_zero,
        "laplacian_commutes": rep.laplacian_commutes,
        "failures": rep.failures,
    }
    lines = [
        "number operator audit: %s" % ("ok" if rep.ok else "FAILED"),
        "  generator identity per degree: %s"
        % {k: v for k, v in sorted(rep.generator_identity.items())},
        "  commutation relations: %s" % rep.ccr_ok,
        "  cross terms vanish: %s" % rep.cross_terms_zero,
    ]
    lines.extend("  failure: %s" % f for f in rep.failures)
    return payload, lines


# -- the table and its runner -------------------------------------------------------

ANY_KIND = dict.fromkeys(("cdga", "lie", "glie", "complex", "gram"))

# subcommand: (handler, help, flags besides --truncation,
#              {accepted kind: smallest useful truncation, or None if it has none})
COMMANDS = {
    "check": (cmd_check, "validate a document and its mathematics", (), ANY_KIND),
    "homology": (cmd_homology, "Betti numbers of a complex or CDGA", ("--window",),
                 {"cdga": 1, "complex": None}),
    "minimal-model": (cmd_minimal_model, "minimal Sullivan model", (), {"cdga": 2}),
    "homotopy": (cmd_homotopy, "rational homotopy ranks", (), {"cdga": 2}),
    "ce": (cmd_ce, "Lie algebra cochain cohomology", (), {"lie": None}),
    "weil": (cmd_weil, "Weil model and its basic subcomplex", ("--window",), {"lie": None}),
    "cone": (cmd_cone, "cone of a complex or mapping cone of a map", (), {"complex": None}),
    "cyl": (cmd_cyl, "mapping cylinder of a map", (), {"complex": None}),
    "hodge": (cmd_hodge, "harmonic spaces against Betti numbers", ("--window", "--gram"),
              {"complex": None}),
    "number-op": (cmd_number_op, "number operator audit of a graded space", (), {"glie": 1}),
}

FLAG_HELP = {"--window": "degree window 'a..b'", "--gram": "gram document"}


def _run(args):
    """Resolve, kind-check, load and truncate the input, then run the handler and emit."""
    handler, _, _, kinds = COMMANDS[args.command]
    doc = documents.load_json(documents.resolve_input(args.input))
    kind = documents.document_kind(doc)
    if kind not in kinds:
        raise DocumentError("%s expects a %s document" % (args.command, " or ".join(kinds)))
    minimum = kinds[kind]
    if minimum is None and getattr(args, "truncation", None) is not None:
        raise DocumentError("%s takes no --truncation for a %s document" % (args.command, kind))
    if hasattr(args, "window"):
        args.window = _parse_window(args.window) if args.window else None
    # looked up at call time, so a wrapper set on the documents module is called
    value = getattr(documents, "load_" + kind)(doc)
    if kind == "complex" and handler is not cmd_check:  # cones shift; Betti reads d_(lo-1)
        parts = [value[0]] + ([value[1].target] if value[1] else [])
        ends = [k for p in parts for k in p.support()] + list(getattr(args, "window", ()) or ())
        _budget(min(ends, default=0) - 1, max(ends, default=0) + 1, complexes=parts)
    t = None if minimum is None else _truncation(args, doc, minimum, DEFAULT_TRUNCATION[kind])
    payload, lines = handler(args, kind, value, t)
    if args.format == "json":
        sys.stdout.write(documents.canonical_json(payload))
    else:
        for line in lines:
            print(line)
    return 1 if payload.get("ok") is False else 0


# -- entry point --------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdga",
        description="Exact rational homotopy computations on CDGA documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand gets only the optional flags its handler reads
    for name, (_, help_text, flags, kinds) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="document path or builtin name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if any(m is not None for m in kinds.values()):
            p.add_argument("--truncation", type=int, default=None)
        for flag in flags:
            p.add_argument(flag, default=None, help=FLAG_HELP[flag])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--window" in argv[:-1]:  # else argparse reads the -2..3 of "--window -2..3" as a flag
        i = argv.index("--window")
        argv[i:i + 2] = ["--window=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except DocumentError as exc:
        print("document error: %s" % exc, file=sys.stderr)
        return 2
    except MATH_ERRORS as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
