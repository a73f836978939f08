"""Command-line interface.

Every subcommand loads and fully validates its input document (schema, then
the mathematical invariants) before computing.  Exit codes: 0 on success,
1 when the mathematics rejects the input (bad differential, failed Jacobi,
non-nilpotent flow, ...), 2 for unreadable or schema-invalid documents and
bad arguments, 3 for internal consistency failures.

JSON output is canonical: sorted keys, compact separators, one trailing
newline, rationals as "p" or "p/q" strings — byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys

from .graded import GradedError
from .complexes import (
    ComplexError,
    InternalCheckError,
    check,
    cone,
    homology,
    is_contractible,
    is_weak_equivalence,
    mapping_cone,
    mapping_cylinder,
)
from .cartan import (
    basic_subcomplex,
    chevalley_eilenberg,
    weil_algebra,
)
from .minimal import minimal_model
from .hodge import InnerProduct, adjoint, harmonic_space, number_operator_check
from .complexes import HomologySpace
from . import documents
from .documents import DocumentError

MAX_COMFORTABLE_TRUNCATION = 16

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


def _load(args):
    """The input document and its kind; the documents.load_* schema-check it."""
    doc = documents.load_json(documents.resolve_input(args.input))
    return doc, documents.document_kind(doc)


def _emit(args, payload, text_lines):
    if args.format == "json":
        sys.stdout.write(documents.canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _truncation(args, doc, minimum, default=8):
    """The --truncation flag, else the document's, else default.

    Below minimum the command would check nothing, so that is an argument
    error (exit 2); above MAX_COMFORTABLE_TRUNCATION it needs --force-truncation.
    """
    t = args.truncation
    if t is None:
        t = doc.get("truncation", default)
    t = int(t)
    if t < minimum:
        raise DocumentError(
            "truncation %d is below %d, the smallest that %s can use"
            % (t, minimum, args.command)
        )
    if t > MAX_COMFORTABLE_TRUNCATION:
        if not args.force_truncation:
            raise DocumentError(
                "truncation %d exceeds %d; pass --force-truncation to proceed"
                % (t, MAX_COMFORTABLE_TRUNCATION)
            )
        print(
            "warning: truncation %d is large; expect slow exact arithmetic" % t,
            file=sys.stderr,
        )
    return t


def _truncation_only_for_cdga(args, kind):
    """Only cdga documents have a truncation; either truncation flag on another kind is an error."""
    if kind != "cdga" and (args.truncation is not None or args.force_truncation):
        raise DocumentError(
            "--truncation and --force-truncation apply to cdga documents, not %s" % kind
        )


def _betti_payload(bettis):
    return {str(k): v for k, v in sorted(bettis.items())}


# -- subcommand handlers -----------------------------------------------------------


def cmd_check(args):
    doc, kind = _load(args)
    _truncation_only_for_cdga(args, kind)
    detail = {"kind": kind, "ok": True}
    if kind == "cdga":
        documents.load_cdga(doc)
        _truncation(args, doc, minimum=0)
    elif kind == "lie":
        documents.load_lie(doc)
    elif kind == "glie":
        documents.load_glie(doc)
    elif kind == "gram":
        documents.load_gram(doc).check_grams()
    else:
        c, f = documents.load_complex(doc)
        rep = check(c)
        if not rep.ok:
            raise ComplexError("; ".join(rep.violations))
        if f is not None:
            detail["map"] = "chain map verified"
    _emit(args, detail, ["ok: %s document passes all checks" % kind])
    return 0


def cmd_homology(args):
    doc, kind = _load(args)
    _truncation_only_for_cdga(args, kind)
    window = _parse_window(args.window) if args.window else None
    if kind == "cdga":
        algebra = documents.load_cdga(doc)
        t = _truncation(args, doc, minimum=1)
        # degree t has no outgoing differential in the slice: trust up to t - 1
        if window and window[1] > t - 1:
            raise DocumentError(
                "window top %d is above %d, the highest degree truncation %d trusts"
                % (window[1], t - 1, t)
            )
        c = algebra.to_complex((0, t))
        window = window or (0, t - 1)
    elif kind == "complex":
        c, _ = documents.load_complex(doc)
    else:
        raise DocumentError("homology expects a cdga or complex document")
    rep = homology(c, window)
    payload = {"betti": _betti_payload(rep.betti)}
    if window:
        payload["window"] = [window[0], window[1]]
    lines = ["degree  betti"]
    for k in rep.degrees:
        lines.append("%6d  %d" % (k, rep.betti[k]))
    _emit(args, payload, lines)
    return 0


def cmd_minimal_model(args):
    doc, kind = _load(args)
    if kind != "cdga":
        raise DocumentError("minimal-model expects a cdga document")
    algebra = documents.load_cdga(doc)
    t = _truncation(args, doc, minimum=2)
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
            {
                "degree": st.degree,
                "closed": st.closed_generators,
                "closing": st.closing_generators,
            }
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
    _emit(args, payload, lines)
    return 0


def cmd_homotopy(args):
    doc, kind = _load(args)
    if kind != "cdga":
        raise DocumentError("homotopy expects a cdga document")
    algebra = documents.load_cdga(doc)
    t = _truncation(args, doc, minimum=2)
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
    _emit(args, payload, lines)
    return 0


def cmd_ce(args):
    doc, kind = _load(args)
    if kind != "lie":
        raise DocumentError("ce expects a lie document")
    lie = documents.load_lie(doc)
    ops = chevalley_eilenberg(lie)
    failures = ops.verify()
    if failures:
        raise InternalCheckError("; ".join(failures))
    hi = lie.n
    c = ops.algebra.to_complex((0, hi))
    rep = homology(c, (0, hi))
    payload = {"betti": _betti_payload(rep.betti), "identities": "verified"}
    lines = ["Lie algebra cochain cohomology:", "degree  betti"]
    for k in rep.degrees:
        lines.append("%6d  %d" % (k, rep.betti[k]))
    _emit(args, payload, lines)
    return 0


def cmd_weil(args):
    doc, kind = _load(args)
    if kind != "lie":
        raise DocumentError("weil expects a lie document")
    lie = documents.load_lie(doc)
    window = _parse_window(args.window) if args.window else (0, 2 * lie.n)
    ops = weil_algebra(lie)
    failures = ops.verify()
    if failures:
        raise InternalCheckError("; ".join(failures))
    c = ops.algebra.to_complex((0, window[1] + 1))
    rep = homology(c, window)
    basic = basic_subcomplex(ops, window)
    brep = homology(basic.complex, window)
    payload = {
        "weil_betti": _betti_payload(rep.betti),
        "basic_betti": _betti_payload(brep.betti),
        "window": [window[0], window[1]],
    }
    lines = ["degree  weil_betti  basic_betti"]
    for k in range(window[0], window[1] + 1):
        lines.append(
            "%6d  %10d  %11d" % (k, rep.betti.get(k, 0), brep.betti.get(k, 0))
        )
    _emit(args, payload, lines)
    return 0


def cmd_cone(args):
    doc, kind = _load(args)
    if kind != "complex":
        raise DocumentError("cone expects a complex document")
    c, f = documents.load_complex(doc)
    if f is not None:
        result = mapping_cone(f)
        verdict = is_weak_equivalence(f)
        payload = documents.complex_to_doc(result)
        payload["weak_equivalence"] = bool(verdict)
        lines = [
            "mapping cone computed; source map %s a weak equivalence"
            % ("is" if verdict else "is not")
        ]
    else:
        result = cone(c)
        flag, _ = is_contractible(result)
        payload = documents.complex_to_doc(result)
        payload["acyclic"] = flag
        lines = ["cone computed; acyclic: %s" % flag]
    _emit(args, payload, lines)
    return 0


def cmd_cyl(args):
    doc, kind = _load(args)
    if kind != "complex":
        raise DocumentError("cyl expects a complex document carrying a map")
    _, f = documents.load_complex(doc)
    if f is None:
        raise DocumentError("cyl needs the document to carry a map")
    data = mapping_cylinder(f)
    verdict = is_weak_equivalence(data.project)
    payload = documents.complex_to_doc(data.cylinder)
    payload["projection_weak_equivalence"] = bool(verdict)
    lines = [
        "cylinder computed; inclusions and projection are chain maps",
        "projection is%s a weak equivalence" % ("" if verdict else " not"),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_hodge(args):
    doc, kind = _load(args)
    if kind != "complex":
        raise DocumentError("hodge expects a complex document")
    c, _ = documents.load_complex(doc)
    ip = InnerProduct.identity()
    if args.gram:
        ip = documents.load_gram(documents.load_json(documents.resolve_input(args.gram)))
        for k, g in sorted(ip.grams.items()):
            if g.n != c.dim(k):
                raise DocumentError("gram at degree %d is %dx%d, but the complex has "
                                    "dimension %d in degree %d" % (k, g.m, g.n, c.dim(k), k))
    ip.validate_for(c)
    sup = c.support()
    window = _parse_window(args.window) if args.window else (
        (min(sup), max(sup)) if sup else (0, 0)
    )
    adj = adjoint(c, ip)
    harm = {}
    betti = {}
    for k in range(window[0], window[1] + 1):
        harm[k] = len(harmonic_space(c, ip, k, adj))
        betti[k] = HomologySpace(c, k).betti
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
    _emit(args, payload, lines)
    return 0


def cmd_number_op(args):
    doc, kind = _load(args)
    if kind != "glie":
        raise DocumentError("number-op expects a glie document")
    data = documents.load_glie(doc)
    t = _truncation(args, doc, minimum=1, default=6)
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
    _emit(args, payload, lines)
    return 0 if rep.ok else 1


# -- entry point --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdga",
        description="Exact rational homotopy computations on CDGA documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand gets only the optional flags its handler reads
    T, W, G = "truncation", "window", "gram"
    handlers = {
        "check": (cmd_check, "validate a document and its mathematics", (T,)),
        "homology": (cmd_homology, "Betti numbers of a complex or CDGA", (T, W)),
        "minimal-model": (cmd_minimal_model, "minimal Sullivan model", (T,)),
        "homotopy": (cmd_homotopy, "rational homotopy ranks", (T,)),
        "ce": (cmd_ce, "Lie algebra cochain cohomology", ()),
        "weil": (cmd_weil, "Weil model and its basic subcomplex", (W,)),
        "cone": (cmd_cone, "cone of a complex or mapping cone of a map", ()),
        "cyl": (cmd_cyl, "mapping cylinder of a map", ()),
        "hodge": (cmd_hodge, "harmonic spaces against Betti numbers", (W, G)),
        "number-op": (cmd_number_op, "number operator audit of a graded space", (T,)),
    }
    for name, (fn, help_text, flags) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="document path or builtin name")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if T in flags:
            p.add_argument("--truncation", type=int, default=None)
            p.add_argument(
                "--force-truncation",
                action="store_true",
                help="allow truncations beyond %d" % MAX_COMFORTABLE_TRUNCATION,
            )
        if W in flags:
            p.add_argument("--window", default=None, help="degree window 'a..b'")
        if G in flags:
            p.add_argument("--gram", default=None, help="gram document")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
