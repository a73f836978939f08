import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

from dataclasses import replace
from fractions import Fraction as F
from math import comb

import pytest

import cdga.documents as documents
from cdga import (
    DocumentError,
    FreeCDGA,
    GradedMap,
    HomologySpace,
    LieData,
    Mat,
    canonical_json,
    chevalley_eilenberg,
    doubled_algebra,
    load_cdga,
    load_complex,
    load_glie,
    load_gram,
    load_lie,
    resolve_input,
    validate_document,
    weil_algebra,
)
from cdga.documents import builtin_names, format_rational, parse_rational, load_json
from cdga import cartan, cli, complexes, poly
from cdga.algebra import _GeneratorMap
from cdga.cli import COMMANDS, build_parser, main
from helpers import with_identity_block_negated


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cdga.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- document layer -----------------------------------------------------------------


def test_parse_and_format_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(4) == F(4)
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-2)) == "-2"
    with pytest.raises(DocumentError):
        parse_rational("1.5")
    with pytest.raises(DocumentError):
        parse_rational("3/0")


def test_canonical_json_is_sorted_and_newline_terminated():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


def test_builtin_documents_validate():
    names = builtin_names()
    assert "cdga_sphere3.json" in names
    assert "lie_cross3.json" in names
    for name in names:
        doc = load_json(resolve_input(name))
        kind = validate_document(doc)
        if kind == "cdga":
            load_cdga(doc)
        elif kind == "lie":
            load_lie(doc)


def test_validate_document_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        validate_document({"kind": "mystery"})
    with pytest.raises(DocumentError):
        validate_document([1, 2, 3])


def test_load_cdga_rejects_bad_expression():
    doc = {
        "kind": "cdga",
        "generators": [["x", 2], ["y", 3]],
        "differential": {"y": "x^2 +"},
    }
    with pytest.raises(DocumentError):
        load_cdga(doc)


def test_load_complex_with_map(tmp_path):
    doc = {
        "kind": "complex",
        "map": {
            "source": {
                "degrees": {"0": ["s0"], "1": ["s1"]},
                "differential": {"0": [["1"]]},
            },
            "target": {"degrees": {"0": ["t0"]}, "differential": {}},
            "components": {"0": [["1"]]},
        },
    }
    c, f = load_complex(doc)
    assert f is not None
    assert f.is_chain_map()
    assert c.support() == [0, 1]


def test_load_gram_and_glie():
    gd = {"kind": "gram", "grams": {"1": [["2", "1"], ["1", "2"]]}}
    ip = load_gram(gd)
    assert ip.grams[1][(0, 1)] == 1
    ld = {
        "kind": "glie",
        "basis": [["p", 1], ["q", 2], ["r", 1]],
        "boundary": {"p": {"q": "3"}},
        "gram": {"1": [["2", "1"], ["1", "2"]]},
    }
    data = load_glie(ld)
    assert data.degree_of("q") == 2
    # the boundary is a complex on the basis names of each degree, in listing order
    assert [data.complex.labels(k) for k in data.complex.degrees()] == [("p", "r"), ("q",)]
    assert data.complex.diff(1) == Mat.from_rows([[3, 0]])
    assert data.complex.d.keys() == {1}
    # and its Grams an inner product, the identity where none is given
    assert data.inner.gram(1, 2) == Mat.from_rows([[2, 1], [1, 2]])
    assert data.inner.gram(2, 1) == Mat.eye(1)


def test_resolve_input_order(tmp_path, monkeypatch):
    lib = tmp_path / "library"
    lib.mkdir()
    target = lib / "my_doc.json"
    target.write_text('{"kind": "lie", "basis": ["x1"]}')
    monkeypatch.setenv("CDGA_LIBRARY", str(lib))
    assert resolve_input("my_doc.json") == str(target)
    assert resolve_input("my_doc") == str(target)
    # literal paths win over the library
    direct = tmp_path / "direct.json"
    direct.write_text("{}")
    assert resolve_input(str(direct)) == str(direct)
    with pytest.raises(DocumentError):
        resolve_input("no_such_document")


def test_resolve_input_finds_the_packaged_data_once(tmp_path, monkeypatch):
    # the built-in directory is found on the first lookup and kept; the
    # literal path and $CDGA_LIBRARY are still read on every call, first
    builtin = resolve_input("cdga_cp2")
    monkeypatch.setattr(documents.resources, "files",
                        lambda *a: pytest.fail("the package was walked again"))
    assert resolve_input("cdga_cp2.json") == builtin
    assert (os.path.basename(builtin), load_json(builtin)["kind"]) == ("cdga_cp2.json", "cdga")
    assert "cdga_cp2.json" in builtin_names()
    (tmp_path / "cdga_cp2.json").write_text('{"kind": "cdga", "generators": []}')
    monkeypatch.setenv("CDGA_LIBRARY", str(tmp_path))
    assert resolve_input("cdga_cp2") == str(tmp_path / "cdga_cp2.json")
    monkeypatch.chdir(tmp_path)
    assert resolve_input("cdga_cp2") == "cdga_cp2.json"
    with pytest.raises(DocumentError, match="^cannot resolve input 'no_such_document'$"):
        resolve_input("no_such_document")


# -- CLI ----------------------------------------------------------------------------


def test_cli_homotopy_sphere3_json():
    rc, out, err = run_cli(
        "homotopy", "--input", "cdga_sphere3", "--format", "json"
    )
    assert rc == 0, err
    assert out == '{"certified_through":8,"pi":{"3":1}}\n'


def test_cli_homology_text():
    rc, out, err = run_cli("homology", "--input", "cdga_cp2")
    assert rc == 0
    assert "betti" in out or "degree" in out


def test_cli_check_all_builtins():
    for name in builtin_names():
        rc, out, err = run_cli("check", "--input", name)
        assert rc == 0, (name, err)


def test_cli_exit_code_document_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "cdga", "generators": [["x", 0]]}')
    rc, out, err = run_cli("check", "--input", str(bad))
    assert rc == 2
    assert "document error" in err


def test_cli_exit_code_math_error(tmp_path):
    bad = tmp_path / "bad_lie.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "lie",
                "basis": ["x1", "x2"],
                "brackets": {"x1,x2": {"x1": 1}, "x2,x1": {"x1": 1}},
            }
        )
    )
    rc, out, err = run_cli("check", "--input", str(bad))
    assert rc == 1
    assert "rejected" in err


@pytest.mark.parametrize("command", ["check", "ce"])
def test_cli_rejects_a_bracket_zero_in_one_order_only(tmp_path, command):
    bad = tmp_path / "half_zero_lie.json"
    bad.write_text(json.dumps({
        "kind": "lie",
        "basis": ["x", "y"],
        "brackets": {"x,y": {"y": "1"}, "y,x": {}},
    }))
    rc, out, err = run_cli(command, "--input", str(bad))
    assert (rc, out) == (1, "")
    assert "not antisymmetric" in err


def test_cli_missing_input_resolves_to_error():
    rc, out, err = run_cli("homology", "--input", "nonexistent_doc")
    assert rc == 2


def test_cli_truncation_guard():
    # the size budget, not the truncation, decides: 17 answers, 100000 is refused
    rc, out, err = run_cli(
        "homology", "--input", "cdga_sphere3", "--truncation", "17", "--format", "json"
    )
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"betti": {str(k): int(k in (0, 3)) for k in range(17)},
                               "window": [0, 16]}
    rc, out, err = run_cli("homology", "--input", "cdga_sphere3", "--truncation", "100000")
    assert (rc, out) == (2, "")
    assert "degrees 0..100000 cost" in err and "over the budget of 25000" in err


FLAG_ARGS = {
    "--truncation": ["5"],
    "--window": ["0..2"],
    "--gram": ["x"],
}
ACCEPTED_FLAGS = {
    "check": set(),
    "homology": {"--truncation", "--window"},
    "minimal-model": {"--truncation"},
    "homotopy": {"--truncation"},
    "ce": set(),
    "weil": {"--window"},
    "cone": set(),
    "cyl": set(),
    "hodge": {"--window", "--gram"},
    "number-op": {"--truncation"},
}


def test_cli_each_subcommand_parses_only_the_flags_it_reads(capsys):
    parser = build_parser()
    for command, accepted in ACCEPTED_FLAGS.items():
        for flag, value in FLAG_ARGS.items():
            argv = [command, "--input", "x", flag, *value]
            if flag in accepted:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, argv
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[command, "--force-truncation"] for command in COMMANDS]
                         + [["check", "--truncation", "5"]],
                         ids=[*("%s-force" % command for command in COMMANDS), "check-truncation"])
def test_cli_parsers_refuse_the_removed_truncation_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--input", "cdga_cp2", *argv[1:]])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: %s" % " ".join(argv[1:]) in err


@pytest.mark.parametrize("argv", [
    ["ce", "--input", "lie_cross3", "--truncation", "5"],
    ["cone", "--input", "lie_cross3", "--gram", "x"],
], ids=["ce-truncation", "cone-gram"])
def test_cli_refuses_a_flag_the_subcommand_does_not_read(argv):
    rc, out, err = run_cli(*argv)
    assert (rc, out) == (2, "")
    assert "unrecognized arguments" in err


def test_cli_window_parsing():
    rc, out, err = run_cli(
        "homology",
        "--input",
        "cdga_sphere3",
        "--window",
        "0..4",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["window"] == [0, 4]
    rc2, _, err2 = run_cli(
        "homology", "--input", "cdga_sphere3", "--window", "4..0"
    )
    assert rc2 == 2


def test_cli_homology_rejects_a_window_above_the_trusted_slice():
    # the slice at truncation 3 trusts degrees 0..2; b4 of cp2 would read 0
    rc, out, err = run_cli(
        "homology", "--input", "cdga_cp2", "--truncation", "3", "--window", "0..6"
    )
    assert rc == 2
    assert out == ""
    assert "window top 6" in err and "above 2" in err
    rc, out, _ = run_cli(
        "homology", "--input", "cdga_cp2", "--truncation", "3", "--window", "0..2",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["betti"] == {"0": 1, "1": 0, "2": 1}


GLIE_SMALL = {
    "kind": "glie",
    "basis": [["p", 1], ["q", 2]],
    "boundary": {"p": {"q": "3"}},
}


@pytest.mark.parametrize("argv, minimum", [
    (["homology", "--input", "cdga_cp2", "--truncation", "0"], 1),
    (["number-op", "--input", "GLIE", "--truncation", "-1"], 1),
    (["number-op", "--input", "GLIE", "--truncation", "0"], 1),
    (["minimal-model", "--input", "cdga_cp2", "--truncation", "1"], 2),
    (["homotopy", "--input", "cdga_cp2", "--truncation", "1"], 2),
], ids=["homology-0", "number-op-minus1", "number-op-0",
        "minimal-model-1", "homotopy-1"])
def test_cli_rejects_a_truncation_that_checks_nothing(tmp_path, capsys, argv, minimum):
    glie = tmp_path / "glie.json"
    glie.write_text(json.dumps(GLIE_SMALL))
    argv = [str(glie) if a == "GLIE" else a for a in argv]
    rc = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "below %d" % minimum in err


@pytest.mark.parametrize("argv, payload", [
    (["homology", "--input", "cdga_cp2", "--truncation", "1"],
     {"betti": {"0": 1}, "window": [0, 0]}),
    (["homotopy", "--input", "cdga_cp2", "--truncation", "2"],
     {"certified_through": 1, "pi": {}}),
    (["homotopy", "--input", "cdga_cp2"], {"certified_through": 8, "pi": {"2": 1, "5": 1}}),
], ids=["homology-1", "homotopy-2", "homotopy-default"])
def test_cli_accepts_the_smallest_useful_truncation(capsys, argv, payload):
    rc = main(argv + ["--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_number_op_keeps_its_default_truncation_and_guard(tmp_path, capsys):
    glie = tmp_path / "glie.json"
    glie.write_text(json.dumps(GLIE_SMALL))
    assert main(["number-op", "--input", str(glie), "--truncation", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["truncation"] == 1
    assert main(["number-op", "--input", str(glie), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["truncation"] == 6
    assert main(["number-op", "--input", str(glie), "--truncation", "300"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "degrees -1..301 cost" in err and "over the budget of 25000" in err


@pytest.mark.parametrize("command, doc, flag", [
    ("check", "lie_cross3", ["--truncation", "40"]),
    ("check", "GLIE", ["--truncation", "40"]),
    ("check", "GRAM", ["--truncation", "40"]),
    ("check", "COMPLEX", ["--truncation", "40"]),
    ("homology", "COMPLEX", ["--truncation", "40"]),
    ("homology", "COMPLEX", ["--force-truncation"]),
], ids=["check-lie", "check-glie", "check-gram", "check-complex", "homology-complex",
        "homology-complex-force"])
def test_cli_refuses_a_truncation_on_a_document_without_one(tmp_path, command, doc, flag):
    # only cdga and glie documents are truncated, check reads no truncation at all,
    # and --force-truncation is gone; the flags used to be read and ignored
    docs = {
        "GLIE": GLIE_SMALL,
        "GRAM": {"kind": "gram", "grams": {"1": [["2", "1"], ["1", "2"]]}},
        "COMPLEX": HODGE_CX,
    }
    kind = docs[doc]["kind"] if doc in docs else "lie"
    if doc in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(docs[doc]))
        doc = str(path)
    rc, out, err = run_cli(command, "--input", doc, *flag)
    assert (rc, out) == (2, "")
    if command == "check" or flag == ["--force-truncation"]:
        assert err.endswith("unrecognized arguments: %s\n" % " ".join(flag))
    else:
        assert err == "document error: %s takes no --truncation for a %s document\n" % (
            command, kind)
    # the same documents are fine without the flag
    rc, out, _ = run_cli(command, "--input", doc)
    assert rc == 0 and out


def test_cli_check_large_exponent_finishes(tmp_path):
    doc = {
        "kind": "cdga",
        "generators": [["x", 2], ["y", 200001]],
        "differential": {"y": "x^100001"},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "cdga.cli", "check", "--input", str(path), "--format", "json"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"kind":"cdga","ok":true}\n'


# Betti 1 in degree 1 only: d_(-1) u = a, d_0 b = 2c, d_1 d = 3f
BETTI_CX = {
    "kind": "complex",
    "complex": {
        "degrees": {"-1": ["u"], "0": ["a", "b"], "1": ["c", "d", "e"], "2": ["f"]},
        "differential": {"-1": [["1"], ["0"]], "0": [["0", "2"], ["0", "0"], ["0", "0"]],
                         "1": [["0", "3", "0"]]},
    },
}


def _table(*rows):
    return "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("argv, text", [
    (["homology", "--input", "cdga_cp2", "--truncation", "16"], _table(
        "degree  betti", *("%6d  %d" % (k, int(k in (0, 2, 4))) for k in range(16)))),
    (["homology", "--input", "CX"], _table(
        "degree  betti", "    -1  0", "     0  0", "     1  1", "     2  0")),
    (["homology", "--input", "CX", "--window", "-3..3"], _table(
        "degree  betti", "    -3  0", "    -2  0", "    -1  0", "     0  0", "     1  1",
        "     2  0", "     3  0")),
    (["ce", "--input", "lie_cross3"], _table(
        "Lie algebra cochain cohomology:", "degree  betti", "     0  1", "     1  0",
        "     2  0", "     3  1")),
    (["weil", "--input", "lie_solvable2"], _table(
        "degree  weil_betti  basic_betti", "     0           1            1",
        "     1           0            0", "     2           0            1",
        "     3           0            0", "     4           0            1")),
    (["hodge", "--input", "CX"], _table(
        "degree  harmonic  betti", "    -1         0      0", "     0         0      0",
        "     1         1      1", "     2         0      0")),
], ids=["homology-cp2", "homology-complex", "homology-complex-window", "ce-cross3",
        "weil-solvable2", "hodge-complex"])
def test_cli_betti_text_tables_are_unchanged(tmp_path, capsys, argv, text):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(BETTI_CX))
    assert main([str(path) if a == "CX" else a for a in argv]) == 0
    assert capsys.readouterr().out == text


def test_cli_ce_and_weil_json():
    rc, out, _ = run_cli("ce", "--input", "lie_solvable2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["betti"] == {"0": 1, "1": 1, "2": 0}
    rc2, out2, _ = run_cli(
        "weil", "--input", "lie_abelian1", "--format", "json"
    )
    assert rc2 == 0
    payload2 = json.loads(out2)
    assert payload2["weil_betti"]["0"] == 1
    assert all(v == 0 for k, v in payload2["weil_betti"].items() if k != "0")
    assert payload2["basic_betti"] == {"0": 1, "1": 0, "2": 1}


@pytest.mark.parametrize("lo, hi", [(3, 9), (5, 12)])
def test_cli_weil_window_is_a_slice_of_the_window_from_zero(lo, hi):
    # the Weil Betti number at lo needs d_(lo-1), so the ambient complex starts at 0
    def weil(window):
        rc, out, err = run_cli("weil", "--input", "lie_cross3", "--window", window,
                               "--format", "json")
        assert (rc, err) == (0, "")
        return json.loads(out)

    full, part = weil("0..%d" % hi), weil("%d..%d" % (lo, hi))
    assert part["window"] == [lo, hi]
    for key in ("weil_betti", "basic_betti"):
        assert part[key] == {str(k): full[key][str(k)] for k in range(lo, hi + 1)}
    assert full["basic_betti"] == {str(k): int(k % 4 == 0) for k in range(hi + 1)}


@pytest.mark.parametrize("source", ["lie_cross3", "lie_abelian1"])
def test_cli_weil_window_below_degree_zero_is_all_zero(source):
    # the budget's series then runs to degree -1 and has no terms
    rc, out, err = run_cli("weil", "--input", source, "--window=-3..-2", "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"basic_betti": {"-3": 0, "-2": 0},
                               "weil_betti": {"-3": 0, "-2": 0}, "window": [-3, -2]}


def _lie_document(lie):
    """The lie document of a LieData, its brackets listed for i < j."""
    return {"kind": "lie", "basis": lie.names, "brackets": {
        "%s,%s" % (lie.names[i], lie.names[j]): {lie.names[k]: str(c) for k, c in b.items()}
        for i in range(lie.n) for j in range(i + 1, lie.n) if (b := lie.bracket(i, j))}}


def test_cli_weil_sl3_answers_within_ten_seconds(tmp_path):
    # the 8-dimensional sl(3), 21 brackets: Q[c2, c3] through degree 8, W(g) acyclic
    path = tmp_path / "sl3.json"
    path.write_text(json.dumps(_lie_document(LieData.sl(3))))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "weil", "--input", str(path),
                           "--window", "0..8", "--format", "json"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "basic_betti": {str(k): int(k in (0, 4, 6, 8)) for k in range(9)},
        "weil_betti": {str(k): int(k == 0) for k in range(9)}, "window": [0, 8]}


def test_cli_weil_sl3_reaches_degree_twelve_inside_a_timeout(tmp_path):
    # the budget prices S(F), all the path enumerates: 3,010 units through
    # degree 13.  The basic Betti numbers are the coefficients of
    # 1/((1 - t^4)(1 - t^6))
    path = tmp_path / "sl3.json"
    path.write_text(json.dumps(_lie_document(LieData.sl(3))))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "weil", "--input", str(path),
                           "--window", "0..12", "--format", "json"],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    basic = {k: 0 for k in range(13)}
    basic.update({0: 1, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2})
    assert json.loads(proc.stdout)["basic_betti"] == {str(k): v for k, v in basic.items()}


@pytest.mark.parametrize("source", ["lie_cross3", "lie_solvable2", "lie_abelian3"])
def test_cli_weil_builds_no_weil_complex_and_takes_no_rank(monkeypatch, capsys, source):
    # the Weil column comes from the contraction certificate and the basic column
    # from the invariant dimensions (d = 0 there), so neither needs a rank.  Every
    # rank, pivot list, rref, kernel and nullspace goes through Mat._echelon: the
    # only matrices eliminated are on the n-vectors of g (the generating-set
    # test) or on S(F)_k (the stacked thetas, for k in the window and the degree
    # above it), and no operator matrix of the Weil algebra is built
    lie = documents.load_lie(load_json(resolve_input(source)))
    n, (lo, hi) = lie.n, (0, 8)
    called, columns, sources = [], [], []
    echelon, key_matrix = Mat._echelon, cartan.key_matrix
    monkeypatch.setattr(FreeCDGA, "to_complex", lambda *a, **k: called.append("to_complex"))
    monkeypatch.setattr(Mat, "rank", lambda *a, **k: called.append("rank"))
    monkeypatch.setattr(_GeneratorMap, "_matrix", lambda *a, **k: called.append("_matrix"))
    monkeypatch.setattr(Mat, "_echelon", lambda self: columns.append(self.n) or echelon(self))
    monkeypatch.setattr(cartan, "key_matrix",
                        lambda src, *a: sources.append(src) or key_matrix(src, *a))
    assert main(["weil", "--input", source, "--window", "%d..%d" % (lo, hi),
                 "--format", "json"]) == 0
    assert called == []
    assert sources and all(type(src) is list for src in sources)
    assert all(i >= n for src in sources for key in src for i, _ in key)
    sym = {comb(n + k // 2 - 1, k // 2) if k % 2 == 0 else 0 for k in range(lo, hi + 2)}
    assert columns and all(m == n or m in sym for m in columns), columns
    assert json.loads(capsys.readouterr().out)["weil_betti"] == {str(k): int(k == 0)
                                                                 for k in range(9)}


@pytest.mark.parametrize("command", ["weil", "homology"])
def test_cli_negative_window_parses_as_a_separate_argument(command):
    source = "lie_cross3" if command == "weil" else "cdga_sphere3"
    joined = run_cli(command, "--input", source, "--window=-2..3", "--format", "json")
    separate = run_cli(command, "--input", source, "--window", "-2..3", "--format", "json")
    assert joined[0] == 0 and joined[1]
    assert separate == joined
    assert json.loads(separate[1])["window"] == [-2, 3]


# imports of jsonschema fail in the child, as where it is not installed
BLOCK_JSONSCHEMA = """
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "jsonschema":
            raise ImportError("jsonschema is blocked")

sys.meta_path.insert(0, Block())
"""


def test_cli_runs_without_jsonschema(tmp_path):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({
        "kind": "complex",
        "complex": {"degrees": {"0": ["a"], "1": ["b", "c"]}, "differential": {"0": [["1"], ["0"]]}},
    }))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"kind": "gram", "grams": {"0": [["2"]], "1": [["1", "0"], ["0", "3"]]}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "cdga", "generators": [["x", "4"]]}))
    script = BLOCK_JSONSCHEMA + """
import cdga.cli
assert "jsonschema" not in sys.modules, "import cdga.cli imported jsonschema"
for argv in sys.argv[1:]:
    print(cdga.cli.main(argv.split()), flush=True)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script,
         "check --input cdga_cp2 --format json",
         "hodge --input %s --gram %s --format json" % (cx, gram),
         "check --input %s --format json" % bad],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.stdout.splitlines() == [
        '{"kind":"cdga","ok":true}', "0",
        '{"betti":{"0":0,"1":1},"harmonic":{"0":0,"1":1},"match":true}', "0",
        "2",
    ]
    assert proc.stderr == (
        "document error: document does not match the cdga schema: "
        "'4' is not of type 'integer'\n"
    )


def test_cli_cone_and_cyl(tmp_path):
    doc = {
        "kind": "complex",
        "map": {
            "source": {
                "degrees": {"0": ["s0"], "1": ["s1"]},
                "differential": {"0": [["1"]]},
            },
            "target": {"degrees": {"0": ["t0"]}, "differential": {}},
            "components": {"0": [["1"]]},
        },
    }
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run_cli("cone", "--input", str(p), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["weak_equivalence"] is False
    rc2, out2, _ = run_cli("cyl", "--input", str(p), "--format", "json")
    assert rc2 == 0
    payload2 = json.loads(out2)
    # the cylinder always retracts onto its target
    assert payload2["projection_weak_equivalence"] is True

    plain = {
        "kind": "complex",
        "complex": {"degrees": {"0": ["a"], "1": ["b"]}, "differential": {"0": [["1"]]}},
    }
    p2 = tmp_path / "plain.json"
    p2.write_text(json.dumps(plain))
    rc3, out3, _ = run_cli("cone", "--input", str(p2), "--format", "json")
    assert rc3 == 0
    assert json.loads(out3)["acyclic"] is True
    rc4, _, err4 = run_cli("cyl", "--input", str(p2))
    assert rc4 == 2  # cyl needs a map document


def test_cli_cyl_checks_the_projection_once(tmp_path, capsys, monkeypatch):
    # mapping_cylinder builds its three maps as validated ChainMaps, cyl adds no
    # check, and the collapse onto the cone is built only when read
    doc = {
        "kind": "complex",
        "map": {
            "source": {"degrees": {"0": ["s0"], "1": ["s1"]}, "differential": {"0": [["1"]]}},
            "target": {"degrees": {"0": ["t0"]}, "differential": {}},
            "components": {"0": [["1"]]},
        },
    }
    p = tmp_path / "map.json"
    p.write_text(json.dumps(doc))
    calls = []
    is_chain_map = GradedMap.is_chain_map
    monkeypatch.setattr(GradedMap, "is_chain_map", lambda self: calls.append(self) or is_chain_map(self))
    assert main(["cyl", "--input", str(p), "--format", "json"]) == 0
    assert len(calls) == 4
    assert capsys.readouterr().out == (
        '{"complex":{"degrees":{"-1":["y.s0"],"0":["x.s0","y.s1","z.t0"],"1":["x.s1"]},'
        '"differential":{"-1":[["1"],["1"],["-1"]],"0":[["1","-1","0"]]}},"kind":"complex",'
        '"projection_weak_equivalence":true,"schema":"cdga.complex/1"}\n'
    )


# the docs-mix benchmark's map document and small complex (seed 911), and edge
# documents: an empty source, a zero map, negative degrees, an empty complex
DOCS_MIX_MAP = {"kind": "complex", "map": {
    "source": {"degrees": {"0": ["s0_0", "s0_1"], "1": ["s1_0", "s1_1", "s1_2"],
                           "2": ["s2_0", "s2_1"]},
               "differential": {"0": [["0", "2"], ["0", "0"], ["0", "1"]],
                                "1": [["0", "1", "0"], ["0", "1", "0"]]}},
    "target": {"degrees": {"0": ["t0_0", "t0_1", "t0_2"],
                           "1": ["t1_0", "t1_1", "t1_2", "t1_3", "t1_4"],
                           "2": ["t2_0", "t2_1", "t2_2"]},
               "differential": {"0": [["-4", "-10", "-8"], ["-5", "-8", "-1"], ["3", "6", "3"],
                                      ["-2", "-2", "2"], ["0", "1", "2"]],
                                "1": [["11", "-19", "-15", "3", "54"],
                                      ["13", "-21", "-17", "1", "66"],
                                      ["6", "-10", "-8", "1", "30"]]}},
    "components": {"0": [["3", "-6"], ["-2", "4"], ["1", "-1"]],
                   "1": [["17", "35", "-42"], ["1", "-4", "-3"], ["-8", "-12", "19"],
                         ["-6", "-16", "14"], ["-5", "-11", "12"]],
                   "2": [["-1", "0"], ["-6", "7"], ["-2", "2"]]}}}
DOCS_MIX_COMPLEX = {"kind": "complex", "complex": {
    "degrees": {"0": ["c0_0", "c0_1"], "1": ["c1_0", "c1_1", "c1_2"], "2": ["c2_0", "c2_1"]},
    "differential": {"0": [["-2", "-6"], ["1", "3"], ["1", "3"]],
                     "1": [["0", "0", "0"], ["-1", "0", "-2"]]}}}
EMPTY_SOURCE = {"kind": "complex", "map": {
    "source": {"degrees": {}},
    "target": {"degrees": {"0": ["t0"], "1": ["t1"]}, "differential": {"0": [["2"]]}},
    "components": {}}}
ZERO_MAP = {"kind": "complex", "map": {
    "source": {"degrees": {"0": ["s0"], "1": ["s1", "s2"]}, "differential": {"0": [["1"], ["0"]]}},
    "target": {"degrees": {"0": ["t0"], "1": ["t1"]}},
    "components": {}}}
NEGATIVE_MAP = {"kind": "complex", "map": {
    "source": {"degrees": {"-3": ["s0"], "-2": ["s1", "s2"], "-1": ["s3"]},
               "differential": {"-3": [["1"], ["-1"]], "-2": [["1", "1"]]}},
    "target": {"degrees": {"-3": ["t0"], "-2": ["t1"]}},
    "components": {"-3": [["3"]], "-2": [["1", "1"]]}}}
NEGATIVE_COMPLEX = {"kind": "complex", "complex": {
    "degrees": {"-2": ["a", "b"], "-1": ["c"], "0": ["e"]}, "differential": {"-2": [["1", "2"]]}}}
EMPTY_COMPLEX = {"kind": "complex", "complex": {"degrees": {}}}

WITNESSED = [  # (command, document, the sha256 of its JSON stdout, or the stdout itself)
    ("cyl", DOCS_MIX_MAP, "d272073e487fddd21774a561e20310de74fdc9adfb141067a62729d283645456"),
    ("cone", DOCS_MIX_COMPLEX, "679c0d9b7afb323340fd0b640ca629386eb4c1d979ea8c4b814f346589c7ff1e"),
    ("cone", DOCS_MIX_MAP, "6878b53e7f5cba69d7ed5478e729e7b23d54bb5ea8363188dfb665f19ac4638c"),
    ("cyl", EMPTY_SOURCE,
     '{"complex":{"degrees":{"0":["z.t0"],"1":["z.t1"]},"differential":{"0":[["2"]]}},'
     '"kind":"complex","projection_weak_equivalence":true,"schema":"cdga.complex/1"}\n'),
    ("cyl", ZERO_MAP,
     '{"complex":{"degrees":{"-1":["y.s0"],"0":["x.s0","y.s1","y.s2","z.t0"],'
     '"1":["x.s1","x.s2","z.t1"]},"differential":{"-1":[["1"],["1"],["0"],["0"]],'
     '"0":[["1","-1","0","0"],["0","0","-1","0"],["0","0","0","0"]]}},"kind":"complex",'
     '"projection_weak_equivalence":true,"schema":"cdga.complex/1"}\n'),
    ("cyl", NEGATIVE_MAP,
     '{"complex":{"degrees":{"-1":["x.s3"],"-2":["x.s1","x.s2","y.s3","z.t1"],'
     '"-3":["x.s0","y.s1","y.s2","z.t0"],"-4":["y.s0"]},"differential":{'
     '"-2":[["1","1","-1","0"]],"-3":[["1","1","0","0"],["-1","0","1","0"],["0","1","1","0"],'
     '["0","-1","-1","0"]],"-4":[["-1"],["1"],["-1"],["3"]]}},"kind":"complex",'
     '"projection_weak_equivalence":true,"schema":"cdga.complex/1"}\n'),
    ("cone", NEGATIVE_COMPLEX,
     '{"acyclic":true,"complex":{"degrees":{"-1":["a.c","b.e"],"-2":["a.a","a.b","b.c"],'
     '"-3":["b.a","b.b"],"0":["a.e"]},"differential":{"-1":[["0","-1"]],'
     '"-2":[["1","2","1"],["0","0","0"]],"-3":[["-1","0"],["0","-1"],["1","2"]]}},'
     '"kind":"complex","schema":"cdga.complex/1"}\n'),
    ("cone", EMPTY_COMPLEX,
     '{"acyclic":true,"complex":{"degrees":{}},"kind":"complex","schema":"cdga.complex/1"}\n'),
]


def _run_main(tmp_path, capsys, command, doc, fmt="json"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--input", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("command, doc, want", WITNESSED)
def test_cli_cyl_and_cone_stdout_is_pinned(tmp_path, capsys, command, doc, want):
    # stdout pinned byte for byte; the verdicts come from the cylinder's
    # retraction and the cone's contraction, and the cohomology routes agree
    # with them (tests/test_complexes.py)
    rc, out, err = _run_main(tmp_path, capsys, command, doc)
    assert (rc, err) == (0, "")
    assert (hashlib.sha256(out.encode()).hexdigest() if len(want) == 64 else out) == want
    text = _run_main(tmp_path, capsys, command, doc, "text")[1]
    if command == "cyl":
        assert text == ("cylinder computed; inclusions and projection are chain maps\n"
                        "projection is a weak equivalence\n")
    elif "complex" in doc:
        assert text == "cone computed; acyclic: True\n"


@pytest.mark.parametrize("command, doc", [
    ("cyl", DOCS_MIX_MAP), ("cyl", ZERO_MAP), ("cyl", NEGATIVE_MAP),
    ("cone", DOCS_MIX_COMPLEX), ("cone", NEGATIVE_COMPLEX)])
def test_cli_cyl_and_cone_of_a_complex_take_no_elimination(tmp_path, capsys, monkeypatch,
                                                           command, doc):
    # both answers come from a homotopy checked by products: no rank, pivot,
    # kernel or inverse, no cohomology space and no Betti number
    called = []
    monkeypatch.setattr(Mat, "_echelon", lambda *a: called.append("_echelon"))
    monkeypatch.setattr(HomologySpace, "__init__", lambda *a: called.append("HomologySpace"))
    for module in (cli, complexes):
        monkeypatch.setattr(module, "betti_numbers", lambda *a: called.append("betti_numbers"))
    rc, out, err = _run_main(tmp_path, capsys, command, doc)
    assert (rc, err, called) == (0, "", [])
    assert json.loads(out)["projection_weak_equivalence" if command == "cyl" else "acyclic"]


def test_cli_cone_of_a_map_builds_its_mapping_cone_once(tmp_path, capsys, monkeypatch):
    # the printed cone and the cone route of the weak-equivalence verdict are
    # one object; stdout is pinned in WITNESSED
    built = []  # every composite complex is laid out by complexes._assemble
    assemble = complexes._assemble
    monkeypatch.setattr(complexes, "_assemble", lambda *a: built.append(a) or assemble(*a))
    rc, out, err = _run_main(tmp_path, capsys, "cone", DOCS_MIX_MAP)
    assert (rc, err, len(built)) == (0, "", 1)
    assert "weak_equivalence" in json.loads(out)


def test_cli_a_corrupted_cylinder_or_cone_exits_3(tmp_path, capsys, monkeypatch):
    # the identity block of each differential with its sign flipped: the
    # witness fails its product check, and nothing reaches stdout
    build = complexes.mapping_cylinder
    monkeypatch.setattr(cli, "mapping_cylinder", lambda f: replace(
        build(f), cylinder=with_identity_block_negated(build(f).cylinder, f.source)))
    rc, out, err = _run_main(tmp_path, capsys, "cyl", DOCS_MIX_MAP)
    assert (rc, out) == (3, "")
    assert err.startswith("internal check failed: cylinder retraction failed verification")
    monkeypatch.setattr(cli, "cone", lambda c: with_identity_block_negated(complexes.cone(c), c))
    rc, out, err = _run_main(tmp_path, capsys, "cone", DOCS_MIX_COMPLEX)
    assert (rc, out) == (3, "")
    assert err.startswith("internal check failed: cone contraction failed verification")


def test_cli_hodge(tmp_path):
    plain = {
        "kind": "complex",
        "complex": {
            "degrees": {"0": ["a"], "1": ["b", "c"]},
            "differential": {"0": [["1"], ["0"]]},
        },
    }
    p = tmp_path / "cx.json"
    p.write_text(json.dumps(plain))
    rc, out, _ = run_cli("hodge", "--input", str(p), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["betti"] == {"0": 0, "1": 1}


HODGE_CX = {
    "kind": "complex",
    "complex": {"degrees": {"0": ["a"], "1": ["b"]}, "differential": {"0": [["2"]]}},
}


def _hodge_with_gram(tmp_path, capsys, grams):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(HODGE_CX))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"kind": "gram", "grams": grams}))
    rc = main(["hodge", "--input", str(cx), "--gram", str(gram), "--format", "json"])
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_hodge_rejects_a_gram_of_the_wrong_size_as_a_document_error(tmp_path, capsys):
    rc, out, err = _hodge_with_gram(tmp_path, capsys, {"1": [["2", "1"], ["1", "2"]]})
    assert (rc, out) == (2, "")
    assert "degree 1" in err and "2x2" in err and "dimension 1" in err
    # the right size is accepted
    rc, out, _ = _hodge_with_gram(tmp_path, capsys, {"1": [["3"]]})
    assert rc == 0 and json.loads(out)["match"] is True


@pytest.mark.parametrize("grams, message", [
    ({"1": [["-1"]]}, "Gram matrix at degree 1 is not positive definite"),
    ({"0": [["1", "2"], ["3", "1"]]}, "Gram matrix at degree 0 is not symmetric"),
], ids=["negative", "asymmetric"])
def test_cli_check_and_hodge_reject_a_gram_that_is_not_positive_definite(
        tmp_path, capsys, grams, message):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"kind": "gram", "grams": grams}))
    assert main(["check", "--input", str(gram)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err
    if "1" in grams:
        rc, out, err = _hodge_with_gram(tmp_path, capsys, grams)
        assert (rc, out) == (1, "") and message in err


def test_cli_hodge_rejects_a_gram_for_a_degree_the_complex_lacks(tmp_path, capsys):
    rc, out, err = _hodge_with_gram(tmp_path, capsys, {"0": [["2"]], "5": [["2"]]})
    assert (rc, out) == (2, "")
    assert "degree 5" in err and "dimension 0" in err


def test_cli_number_op(tmp_path):
    doc = {
        "kind": "glie",
        "basis": [["p", 1], ["q", 2]],
        "boundary": {"p": {"q": "3"}},
    }
    p = tmp_path / "glie.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run_cli(
        "number-op", "--input", str(p), "--truncation", "4", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["ccr"] is True


def test_cli_main_callable_directly(tmp_path, capsys):
    # main() returns the exit code without raising SystemExit
    rc = main(["homology", "--input", "cdga_sphere3", "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["betti"]["3"] == 1


def test_cli_check_refuses_a_document_truncation_that_is_not_an_integer(tmp_path, capsys):
    # the schema check comes before the truncation is read
    path = tmp_path / "abc.json"
    path.write_text(json.dumps({"kind": "cdga", "generators": [["x", 2]], "truncation": "abc"}))
    assert main(["check", "--input", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'abc' is not of type 'integer'" in err


def test_cli_schema_error_message_is_unchanged(tmp_path, capsys):
    path = tmp_path / "degree_string.json"
    path.write_text(json.dumps({
        "schema": "cdga.cdga/1",
        "kind": "cdga",
        "generators": [["x", "4"]],
        "differential": {},
    }))
    assert main(["check", "--input", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "document error: document does not match the cdga schema: "
        "'4' is not of type 'integer'\n"
    )


def test_cli_schema_checks_each_document_once(tmp_path, capsys, monkeypatch):
    glie = tmp_path / "glie.json"
    glie.write_text(json.dumps(GLIE_SMALL))
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({
        "kind": "complex",
        "complex": {"degrees": {"0": ["a"], "1": ["b"]}, "differential": {"0": [["1"]]}},
    }))
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"kind": "gram", "grams": {"0": [["2"]], "1": [["3"]]}}))
    calls, compiled = [], []
    validate, build = documents.validate_document, documents._build
    monkeypatch.setattr(
        documents, "validate_document", lambda doc: calls.append(doc["kind"]) or validate(doc)
    )

    def counting_build(schema, defs=None, refs=()):
        if defs is None:  # a whole schema, not one of its nodes
            compiled.append(schema["$id"])
        return build(schema, defs, refs)

    # a fresh process: no schema built yet
    monkeypatch.setattr(documents, "_CHECKS", {})
    monkeypatch.setattr(documents, "_build", counting_build)
    assert main(["number-op", "--input", str(glie), "--truncation", "2", "--format", "json"]) == 0
    assert main(["hodge", "--input", str(cx), "--gram", str(gram), "--format", "json"]) == 0
    assert calls == ["glie", "complex", "gram"]
    # each kind's schema is built into closures once per process
    assert compiled == ["cdga.glie/1", "cdga.complex/1", "cdga.gram/1"]
    assert main(["number-op", "--input", str(glie), "--truncation", "2", "--format", "json"]) == 0
    assert calls == ["glie", "complex", "gram", "glie"]
    assert compiled == ["cdga.glie/1", "cdga.complex/1", "cdga.gram/1"]
    capsys.readouterr()


def test_cli_number_op_with_a_cobracket_fails_with_exit_1(tmp_path, capsys):
    path = tmp_path / "cobracket.json"
    path.write_text(json.dumps({
        "kind": "glie",
        "basis": [["p", 1], ["q", 2], ["v", 2]],
        "cobracket": {"v": [["p", "q", "1"]]},
    }))
    assert main(["number-op", "--input", str(path), "--truncation", "5", "--format", "json"]) == 1
    assert capsys.readouterr().out == (
        '{"ccr":true,"cross_terms_zero":false,"failures":['
        '"generator identity fails at degree 2",'
        '"generator identity fails at degree 3",'
        '"linear/split cross terms survive at degree 3"],'
        '"generator_identity":{"1":true,"2":false,"3":false},'
        '"laplacian_commutes":true,"ok":false,"truncation":5}\n'
    )


# `cdga check` on glie documents the library refuses: exit code and stderr, byte for byte
@pytest.mark.parametrize("body, rc, err", [
    ({"basis": [["p", 1], ["q", 2], ["r", 3]], "boundary": {"p": {"q": "1"}, "q": {"r": "1"}}},
     1, "rejected: boundary does not square to zero at degree 1\n"),
    ({"basis": [["p", 1], ["q", 3]], "boundary": {"p": {"q": "1"}}},
     1, "rejected: boundary of 'p' must raise degree by one\n"),
    ({"basis": [["p", 1], ["q", 1]], "gram": {"1": [["1", "2"], ["2", "1"]]}},
     1, "rejected: Gram matrix at degree 1 is not positive definite\n"),
    ({"basis": [["p", 1], ["q", 1]], "gram": {"1": [["1"]]}},
     2, "document error: matrix at gram degree 1 has shape 1x1, expected 2x2\n"),
], ids=["d-squared", "skips-a-degree", "not-positive-definite", "wrong-size"])
def test_cli_check_glie_refusals_are_unchanged(tmp_path, capsys, body, rc, err):
    path = tmp_path / "glie.json"
    path.write_text(json.dumps({"kind": "glie", **body}))
    assert main(["check", "--input", str(path)]) == rc
    assert capsys.readouterr() == ("", err)


# a basis name that is another's partner name, and a Gram for a degree with no
# basis element: check and number-op refuse both the same way
@pytest.mark.parametrize("command", ["check", "number-op"])
@pytest.mark.parametrize("body, rc, err", [
    ({"basis": [["p", 1], ["p'", 2]]},
     1, "rejected: basis element \"p'\" has the name of the partner of 'p'\n"),
    ({"basis": [["q", 2], ["p", 1]], "gram": {"5": []}},
     2, "document error: gram at degree 5 is 0x0, but the basis has dimension 0 in degree 5\n"),
], ids=["partner-name", "gram-without-basis"])
def test_cli_glie_refusals_agree_between_check_and_number_op(tmp_path, capsys, command, body, rc, err):
    path = tmp_path / "glie.json"
    path.write_text(json.dumps({"kind": "glie", **body}))
    assert main([command, "--input", str(path)]) == rc
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("truncation, shown", [
    ("x", "'x' is not of type 'integer'"),
    ([1], "[1] is not of type 'integer'"),
    (2.5, "2.5 is not of type 'integer'"),
    (True, "True is not of type 'integer'"),
    (-1, "-1 is less than the minimum of 0"),
], ids=["string", "array", "fraction", "boolean", "negative"])
@pytest.mark.parametrize("command", ["check", "number-op"])
def test_cli_glie_truncation_is_schema_checked(tmp_path, capsys, command, truncation, shown):
    path = tmp_path / "glie.json"
    path.write_text(json.dumps({**GLIE_SMALL, "truncation": truncation}))
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "document error: document does not match the glie schema: %s\n" % shown)


def test_cli_glie_gram_degrees_are_schema_checked(tmp_path, capsys):
    # int() of the key used to end in an internal error, exit 3
    path = tmp_path / "glie.json"
    path.write_text(json.dumps({**GLIE_SMALL, "gram": {"x": [["1"]]}}))
    assert main(["check", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", "document error: document does not match the glie "
                                   "schema: 'x' does not match '^-?[0-9]+$'\n")


@pytest.mark.parametrize("expr, shown", [
    ("x^\u00b2", "line 1, column 3: expected an exponent after '^'"),
    ("\u0663 x^2", "line 1, column 1: unexpected character '\u0663'"),
], ids=["superscript-exponent", "arabic-indic-digit"])
def test_cli_a_non_ascii_digit_in_a_differential_is_a_document_error(tmp_path, expr, shown):
    # numbers are ASCII digits, so neither is read as a number
    path = tmp_path / "cdga.json"
    path.write_text(json.dumps({"kind": "cdga", "generators": [["x", 2], ["u", 3]],
                                "differential": {"u": expr}}))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "check", "--input", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "document error: bad differential for 'u': %s\n" % shown


@pytest.mark.parametrize("doc, command, field, value", [
    ({"kind": "cdga", "generators": [["x", 2.0]]}, "homology", "degree of generator 'x'", "2.0"),
    ({"kind": "glie", "basis": [["p", 1.0]]}, "number-op", "degree of basis element 'p'", "1.0"),
    ({"kind": "cdga", "generators": [["x", 2]], "truncation": 8.0}, "homology", "truncation",
     "8.0"),
    ({**GLIE_SMALL, "truncation": 4.0}, "number-op", "truncation", "4.0"),
], ids=["cdga-degree", "glie-degree", "cdga-truncation", "glie-truncation"])
def test_cli_refuses_an_integral_float_where_an_integer_is_read(
        tmp_path, capsys, doc, command, field, value):
    # JSON Schema's integer admits 2.0; the loaders and the truncation read do not
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["check"], [command]):
        assert main(argv + ["--input", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "document error: %s must be an integer, found %s\n" % (field, value))


# one document of each kind, each accepted by check
KIND_DOCS = {
    "cdga": "cdga_cp2",
    "lie": "lie_cross3",
    "glie": GLIE_SMALL,
    "complex": HODGE_CX,
    "gram": {"kind": "gram", "grams": {"1": [["2", "1"], ["1", "2"]]}},
}


def _kind_input(tmp_path, kind):
    doc = KIND_DOCS[kind]
    if isinstance(doc, str):
        return doc
    path = tmp_path / ("%s.json" % kind)
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_table_names_only_known_kinds():
    assert set(COMMANDS["check"][3]) == set(KIND_DOCS)
    for command, (_, _, _, kinds) in COMMANDS.items():
        assert kinds and set(kinds) <= set(KIND_DOCS), command


@pytest.mark.parametrize("command, kind", [
    (command, kind) for command, (_, _, _, kinds) in COMMANDS.items()
    for kind in KIND_DOCS if kind not in kinds
])
def test_cli_refuses_a_document_kind_the_command_does_not_accept(
        tmp_path, capsys, command, kind):
    rc = main([command, "--input", _kind_input(tmp_path, kind), "--format", "json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("document error: %s expects a " % command), err
    assert all(accepted in err for accepted in COMMANDS[command][3])


@pytest.mark.parametrize("command, kind, minimum", [
    (command, kind, minimum) for command, (_, _, _, kinds) in COMMANDS.items()
    for kind, minimum in kinds.items() if minimum is not None
])
def test_cli_refuses_a_truncation_below_the_table_minimum(
        tmp_path, capsys, command, kind, minimum):
    doc = _kind_input(tmp_path, kind)
    rc = main([command, "--input", doc, "--truncation", str(minimum - 1), "--format", "json"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert "below %d, the smallest that %s can use" % (minimum, command) in err


# -- the size budget ------------------------------------------------------------------

FAR_CX = {"kind": "complex", "complex": {"degrees": {"0": ["a"], "100000000": ["b"]}}}


def _abelian(n):
    return {"kind": "lie", "basis": ["x%d" % i for i in range(n)]}


# the series alone would take minutes here: 20,000 generators through degree 1000
WIDE_CDGA = {"kind": "cdga", "generators": [["g%d" % i, 1] for i in range(20000)],
             "truncation": 1000}


@pytest.mark.parametrize("argv, doc", [
    (["homology", "--input", "cdga_sphere3", "--window=-100000000..3"], None),
    (["weil", "--input", "lie_cross3", "--window=-100000000..4"], None),
    (["homology"], FAR_CX),
    (["hodge"], FAR_CX),
    (["cone"], FAR_CX),
    (["number-op", "--truncation", "100000000"], GLIE_SMALL),
    (["ce"], _abelian(20)),
    (["weil"], _abelian(12)),
    (["homology"], WIDE_CDGA),
], ids=["homology-window", "weil-window", "homology-far", "hodge-far", "cone-far",
        "number-op-truncation", "ce-abelian20", "weil-abelian12", "homology-wide"])
def test_cli_refuses_an_input_over_the_size_budget(tmp_path, argv, doc):
    # each of these used to run past a 10 s timeout, or would have
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv[:1] + ["--input", str(path)] + argv[1:]
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"document error: degrees -?\d+\.\.\d+ cost \d+ units, "
                        r"over the budget of 25000\n", proc.stderr), proc.stderr
    if doc is WIDE_CDGA:
        # the prediction stops at the budget: its series is never built
        assert time.monotonic() - start < 2


def test_cli_weil_budget_counts_the_default_window(tmp_path, capsys):
    # S(F) on 12 curvatures through degree 25: C(24, 12) even units and 13 odd
    path = tmp_path / "abelian12.json"
    path.write_text(json.dumps(_abelian(12)))
    assert main(["weil", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "document error: degrees 0..25 cost 2704169 units, over the budget of 25000\n")
    # on 8 curvatures through degree 17 it is 12,879 units, and the 6,435
    # invariants of degree 16 stay sparse, so the answer comes inside a timeout
    path.write_text(json.dumps(_abelian(8)))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "weil", "--input", str(path),
                           "--format", "json"], capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["basic_betti"] == {
        str(k): 0 if k % 2 else comb(k // 2 + 7, 7) for k in range(17)}


# 2,000 generators of degree 20: the series takes one binomial product for them,
# so the budget counts min(2000, 39 // 20 + 1) * 20 steps, not 2000 * 20
MANY_CDGA = {"kind": "cdga", "generators": [["g%d" % i, 20] for i in range(2000)],
             "truncation": 39}


def test_cli_budget_counts_one_series_product_per_degree(tmp_path, capsys):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(MANY_CDGA))
    assert main(["homology", "--input", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == "" and payload["window"] == [0, 38]
    assert payload["betti"] == {str(k): {0: 1, 20: 2000}.get(k, 0) for k in range(39)}


def _many(nx, ny, t):
    """nx generators x_i of degree 20 and ny of degree 19 with d y_i = x_i."""
    return {"kind": "cdga", "truncation": t,
            "generators": [["x%d" % i, 20] for i in range(nx)] + [["y%d" % i, 19] for i in range(ny)],
            "differential": {"y%d" % i: "x%d" % i for i in range(ny)}}


@pytest.mark.parametrize("command, doc, check", [
    ("homology", _many(20000, 0, 39),
     lambda p: p["betti"] == {str(k): {0: 1, 20: 20000}.get(k, 0) for k in range(39)}),
    ("minimal-model", _many(20000, 0, 37),
     lambda p: p["already_minimal"] and len(p["generators"]) == 20000),
    ("homotopy", _many(8000, 4000, 35), lambda p: p["pi"] == {"20": 4000}),
], ids=["homology", "minimal-model", "homotopy-staged"])
def test_cli_many_generators_of_one_degree_run_inside_a_timeout(tmp_path, command, doc, check):
    # the budget takes these (about 20,000 units each); bases, homology classes
    # and the minimal model's stages stay sparse, so none is quadratic in them
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", command, "--input", str(path),
                           "--format", "json"], capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert check(json.loads(proc.stdout))


# d(u) sums all 11,325 products of 150 generators of degree 2: 140 KB of expression
LONG_DIFFERENTIAL = {
    "kind": "cdga", "generators": [["x%d" % i, 2] for i in range(150)] + [["u", 3]],
    "differential": {"u": " + ".join("%d x%d x%d" % (i + j + 1, i, j)
                                     for i in range(150) for j in range(i, 150))}}


def test_cli_check_reads_a_long_differential_inside_a_timeout(tmp_path):
    # parsing is linear in the number of terms, so 140 KB of expression is quick
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_DIFFERENTIAL))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "check", "--input", str(path),
                           "--format", "json"], capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"kind":"cdga","ok":true}\n', "")
    d = load_cdga(LONG_DIFFERENTIAL).differential.image_of("u")
    assert len(d.terms) == 11325 and d.terms[((0, 1), (149, 1))] == 150


S2XS2_PAIR = {
    "kind": "cdga",
    "generators": [["a", 2], ["b", 2], ["p", 3], ["q", 3], ["u", 3], ["v", 4]],
    "differential": {"p": "a^2", "q": "b^2", "u": "v + 3/7 a b"},
}


def test_cli_runs_what_the_truncation_heuristic_refused(tmp_path, capsys):
    assert main(["check", "--input", "cdga_cp2", "--format", "json"]) == 0
    assert capsys.readouterr() == ('{"kind":"cdga","ok":true}\n', "")
    path = tmp_path / "s2xs2.json"
    path.write_text(json.dumps(S2XS2_PAIR))
    assert main(["minimal-model", "--input", str(path), "--truncation", "24",
                 "--format", "json"]) == 0
    out, err = capsys.readouterr()
    model = json.loads(out)
    assert err == ""
    assert sorted(d for _, d in model["generators"]) == [2, 2, 3, 3]
    assert model["certified_through"] == 23


def _random_cdga(seed):
    """Free generators of degrees 2..5, plus a contractible pair (u, v): not minimal."""
    rng = random.Random(seed)
    gens = [["x%d" % i, rng.randint(2, 5)] for i in range(rng.randint(2, 4))]
    k = rng.randint(2, 5)
    return {"kind": "cdga", "generators": gens + [["u", k], ["v", k + 1]],
            "differential": {"u": "v"}, "truncation": rng.randint(4, 7)}


def _budget_and_bases(monkeypatch, argv):
    """Run argv; the (lo, hi, units) of its one budget call and the degrees of every
    basis the handler built after it: each free algebra's, and each one enumerated
    by poly.basis_keys directly (S(F) in weil), with the lower degrees that
    basis_keys fills on the way up.  A failed audit (exit 1) counts."""
    calls, built = [], set()
    budget, basis, keys = cli._budget, FreeCDGA.basis, poly.basis_keys

    def recorded_budget(*args, **kwargs):
        calls.append(args[:2] + (budget(*args, **kwargs),))
        return calls[-1][2]

    def recorded_basis(self, k):
        built.add(k)
        return basis(self, k)

    def recorded_keys(gens, k, lower=None):
        lower = {} if lower is None else lower
        out = keys(gens, k, lower)
        built.update(lower, (k,))
        return out

    monkeypatch.setattr(cli, "_budget", recorded_budget)
    monkeypatch.setattr(FreeCDGA, "basis", recorded_basis)
    # every module that imported basis_keys holds its own reference
    for module in [m for name, m in sys.modules.items() if name.startswith("cdga.")]:
        if getattr(module, "basis_keys", None) is keys:
            monkeypatch.setattr(module, "basis_keys", recorded_keys)
    assert main(argv + ["--format", "json"]) in (0, 1)
    (lo, hi, units), = calls
    return lo, hi, units, built


GLIE_AUDIT = {"kind": "glie", "basis": [["p", 1], ["q", 2], ["r", 2], ["s", 3]],
              "boundary": {"p": {"q": "2/3", "r": "-2/3"}, "q": {"s": "3/4"},
                           "r": {"s": "3/4"}}}
GLIE_COBRACKET = {"kind": "glie", "basis": [["p", 1], ["q", 2], ["v", 2]],
                  "cobracket": {"v": [["p", "q", "1"]]}}
ORACLE_DOCS = {"S2XS2": S2XS2_PAIR, "GLIE_SMALL": GLIE_SMALL, "GLIE_AUDIT": GLIE_AUDIT,
               "GLIE_COBRACKET": GLIE_COBRACKET,
               **{"RANDOM%d" % seed: _random_cdga(seed) for seed in (3, 17, 29)}}
LIE_ORACLES = {"lie_cross3": LieData.cross3, "lie_solvable2": LieData.solvable2,
               "lie_abelian3": lambda: LieData.abelian(3)}


def _oracle_algebra(argv):
    """The free algebra argv's command builds, from the library, not the CLI."""
    command, name = argv[0], argv[2]
    if command == "ce":
        return chevalley_eilenberg(LIE_ORACLES[name]()).algebra
    if command == "weil":
        # the path enumerates S(F), the free algebra on the n curvatures of degree 2
        n = LIE_ORACLES[name]().n
        return FreeCDGA([("F%d" % i, 2) for i in range(n)], {}, truncation=0)
    doc = ORACLE_DOCS.get(name) or load_json(resolve_input(name))
    if command == "number-op":
        return doubled_algebra(load_glie(doc), int(argv[argv.index("--truncation") + 1]))
    return load_cdga(doc)


@pytest.mark.parametrize("argv", [
    *[[command, "--input", name, *extra] for name in ("cdga_sphere2", "cdga_sphere3", "cdga_cp2")
      for command, extra in (("homology", ["--window=-2..5"]), ("minimal-model", []),
                             ("homotopy", ["--truncation", "6"]))],
    *[[command, "--input", "RANDOM%d" % seed] for seed in (3, 17, 29)
      for command in ("homology", "minimal-model", "homotopy")],
    ["minimal-model", "--input", "S2XS2", "--truncation", "9"],
    *[["ce", "--input", name] for name in LIE_ORACLES],
    *[["weil", "--input", name, *window] for name in LIE_ORACLES
      for window in ([], ["--window=-1..5"], ["--window", "3..7"])],
    *[["number-op", "--input", glie, "--truncation", "4"]
      for glie in ("GLIE_SMALL", "GLIE_AUDIT", "GLIE_COBRACKET")],
], ids=" ".join)
def test_cli_budget_predicts_the_dimensions_the_handler_builds(tmp_path, monkeypatch, argv):
    # the prediction must cover every degree whose basis the command builds (a
    # degree with an empty basis costs nothing) and, degree by degree, equal the
    # dimension of the algebra it builds
    algebra = _oracle_algebra(argv)
    if argv[2] in ORACLE_DOCS:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(ORACLE_DOCS[argv[2]]))
        argv = argv[:2] + [str(path)] + argv[3:]
    lo, hi, units, built = _budget_and_bases(monkeypatch, argv)
    outside = [k for k in built if not lo <= k <= hi and algebra.dim(k)]
    assert built and not outside, (lo, hi, outside)
    assert units == sum(max(1, algebra.dim(k)) for k in range(lo, hi + 1))


# a zero map into a complex that sits two degrees above the source's top
MAP_DOC = {"kind": "complex", "map": {
    "source": {"degrees": {"0": ["s0"], "1": ["s1"]}, "differential": {"0": [["1"]]}},
    "target": {"degrees": {"3": ["t3"]}}}}


@pytest.mark.parametrize("command, window, doc", [
    (command, window, doc) for doc in ("betti", "map")
    for command, window in (("homology", None), ("homology", (-4, 1)), ("hodge", None),
                            ("hodge", (0, 6)), ("cone", None), ("cyl", None))
    if command != "cyl" or doc == "map"
])
def test_cli_budget_counts_a_complex_document(tmp_path, monkeypatch, capsys, command, window, doc):
    # the support span joined with the window, one degree wider on each side,
    # and the dimensions the document gives
    document = {"betti": BETTI_CX, "map": MAP_DOC}[doc]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    extra = ["--window=%d..%d" % window] if window else []
    lo, hi, units, _ = _budget_and_bases(monkeypatch, [command, "--input", str(path), *extra])
    source, f = load_complex(document)
    parts = [source] + ([f.target] if f else [])
    ends = [k for p in parts for k in p.support()] + list(window or ())
    assert (lo, hi) == (min(ends) - 1, max(ends) + 1)
    assert units == sum(max(1, sum(p.dim(k) for p in parts)) for k in range(lo, hi + 1))
    payload = json.loads(capsys.readouterr().out)
    degrees = payload["complex"]["degrees"] if "complex" in payload else payload["betti"]
    assert lo <= min(map(int, degrees)) and max(map(int, degrees)) <= hi
