import dataclasses
from fractions import Fraction as F
import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cdga.complexes as complexes_module
import cdga.minimal as minimal_module
from cdga.algebra import key_matrix
from cdga import (
    CDGAMorphism,
    ChainMap,
    Derivation,
    FreeCDGA,
    Generators,
    GradedError,
    InternalCheckError,
    Polynomial,
    WeakEquivalenceReport,
    certify,
    minimal_model,
    quadratic_part,
)
from helpers import recomputed_certificate


def odd_sphere(n, truncation=9):
    gens = Generators([("e", n)])
    return FreeCDGA(gens, {}, truncation=truncation)


def even_sphere(truncation=9):
    gens = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(gens, "x")
    return FreeCDGA(gens, {"y": x * x}, truncation=truncation)


def projective_plane(truncation=9):
    gens = Generators([("x", 2), ("y", 5)])
    x = Polynomial.generator(gens, "x")
    return FreeCDGA(gens, {"y": x * x * x}, truncation=truncation)


def test_derivation_leibniz():
    gens = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(gens, "x")
    alg = FreeCDGA(gens, {"y": x * x}, truncation=8)
    d = alg.differential
    y = Polynomial.generator(gens, "y")
    assert d(x * y) == x * (x * x)
    # graded Leibniz with the odd factor first: d(y x) = d(y) x - y d(x)
    assert d(y * x) == (x * x) * x


def test_cdga_rejects_bad_square():
    gens = Generators([("x", 2), ("y", 3), ("z", 4)])
    x = Polynomial.generator(gens, "x")
    with pytest.raises(GradedError):
        # d(z) = y with d(y) = x^2 has d(d(z)) = x^2 != 0
        FreeCDGA(
            gens,
            {"y": x * x, "z": Polynomial.generator(gens, "y")},
            truncation=8,
        )


def test_morphism_validation():
    a = even_sphere()
    ident = CDGAMorphism.identity(a)
    assert ident.is_chain_map()
    gens = a.gens
    x = Polynomial.generator(gens, "x")
    with pytest.raises(GradedError):
        # sending y to 0 but keeping x breaks the chain condition
        CDGAMorphism(a, a, {"x": x, "y": Polynomial.zero(gens)})


def test_minimal_model_odd_sphere():
    mm = minimal_model(odd_sphere(3))
    assert mm.already_minimal
    ranks = mm.homotopy_ranks()
    assert ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k != 3)
    assert mm.certified_through == 8
    assert mm.certificate.is_equivalence


def test_minimal_model_even_sphere():
    mm = minimal_model(even_sphere())
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 3))


def test_minimal_model_projective_plane():
    mm = minimal_model(projective_plane())
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[5] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 5))


def test_minimal_model_of_non_minimal_input():
    gens = Generators([("x", 2), ("y", 3), ("c", 3), ("a", 4)])
    x = Polynomial.generator(gens, "x")
    a = Polynomial.generator(gens, "a")
    alg = FreeCDGA(gens, {"y": x * x, "c": a}, truncation=8)
    mm = minimal_model(alg)
    assert not mm.already_minimal
    ranks = mm.homotopy_ranks()
    assert ranks[2] == 1 and ranks[3] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (2, 3))
    assert mm.model.is_minimal()
    assert mm.morphism.is_chain_map()
    assert mm.certificate.is_equivalence


def test_minimal_model_of_positively_acyclic_input():
    gens = Generators([("u", 4), ("v", 3)])
    u = Polynomial.generator(gens, "u")
    alg = FreeCDGA(gens, {"v": u}, truncation=8)
    mm = minimal_model(alg)
    assert mm.model.gens.names == ()
    assert all(v == 0 for v in mm.homotopy_ranks().values())


def test_minimal_model_rejects_non_simply_connected():
    gens = Generators([("t", 1)])
    alg = FreeCDGA(gens, {}, truncation=6)
    with pytest.raises(GradedError):
        minimal_model(alg)


def test_certify_and_table():
    mm = minimal_model(even_sphere())
    rep = certify(mm)
    assert rep.is_equivalence
    table = mm.homotopy_ranks()
    assert table[2] == 1 and table[3] == 1


def test_quadratic_part():
    # whitehead square pattern: d(z) = x * y is already quadratic
    gens = Generators([("x", 2), ("y", 2), ("z", 3)])
    x = Polynomial.generator(gens, "x")
    y = Polynomial.generator(gens, "y")
    alg = FreeCDGA(gens, {"z": x * y}, truncation=8)
    q = quadratic_part(alg)
    assert q.differential.image_of("z") == x * y


def test_product_of_spheres():
    # S^3 x S^5: two closed odd generators
    gens = Generators([("e", 3), ("f", 5)])
    alg = FreeCDGA(gens, {}, truncation=9)
    mm = minimal_model(alg)
    ranks = mm.homotopy_ranks()
    assert ranks[3] == 1 and ranks[5] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (3, 5))


def test_wedge_like_interaction():
    # one even class whose square is killed late: S^4-like with y7
    gens = Generators([("x", 4), ("y", 7)])
    x = Polynomial.generator(gens, "x")
    alg = FreeCDGA(gens, {"y": x * x}, truncation=9)
    mm = minimal_model(alg)
    ranks = mm.homotopy_ranks()
    assert ranks[4] == 1 and ranks[7] == 1
    assert all(v == 0 for k, v in ranks.items() if k not in (4, 7))


def s2xs2_contractible(c=F(3, 7), truncation=12):
    """S^2 x S^2 plus the contractible pair (u, v + c ab): not minimal."""
    gens = Generators([("a", 2), ("b", 2), ("p", 3), ("q", 3), ("u", 3), ("v", 4)])
    g = {n: Polynomial.generator(gens, n) for n in gens.names}
    return FreeCDGA(
        gens,
        {"p": g["a"] * g["a"], "q": g["b"] * g["b"],
         "u": g["v"] + (g["a"] * g["b"]).scale(c)},
        truncation=truncation,
    )


def test_staged_model_of_s2xs2_with_a_contractible_pair():
    alg = s2xs2_contractible()
    mm = minimal_model(alg)
    assert not mm.already_minimal
    assert list(zip(mm.model.gens.names, mm.model.gens.degrees)) == [
        ("v2_0", 2), ("v2_1", 2), ("v3_0", 3), ("v3_1", 3)
    ]
    assert {n: str(mm.model.differential.image_of(n)) for n in mm.model.gens.names} == {
        "v2_0": "0", "v2_1": "0", "v3_0": "v2_0^2", "v3_1": "v2_1^2"
    }
    assert [(s.degree, s.closed_generators, s.closing_generators) for s in mm.stages] == (
        [(2, ["v2_0", "v2_1"], []), (3, [], ["v3_0", "v3_1"])]
        + [(k, [], []) for k in range(4, 13)]
    )
    assert {n: str(mm.morphism.image_of(n)) for n in mm.model.gens.names} == {
        "v2_0": "a", "v2_1": "b", "v3_0": "p", "v3_1": "q"
    }
    assert mm.certified_through == 11
    assert mm.certificate.is_equivalence
    assert mm.certificate.window == (0, 12)
    assert mm.homotopy_ranks() == {k: (2 if k in (2, 3) else 0) for k in range(2, 12)}


def test_staged_model_builds_the_input_complex_once(monkeypatch):
    alg = s2xs2_contractible()
    input_calls = []
    model_sizes = []
    chain_maps = []
    to_complex = FreeCDGA.to_complex
    chain_map_init = ChainMap.__init__

    def counting_to_complex(self, window=None):
        if self is alg:
            input_calls.append(window)
        else:
            model_sizes.append(len(self.gens.names))
        return to_complex(self, window)

    def counting_chain_map_init(self, *args, **kwargs):
        chain_maps.append(self)
        chain_map_init(self, *args, **kwargs)

    homology_degrees = {}  # complex -> degrees of the spaces built on it
    homology_space = minimal_module.HomologySpace

    def counting_homology_space(c, k):
        homology_degrees.setdefault(id(c), []).append(k)
        return homology_space(c, k)

    monkeypatch.setattr(FreeCDGA, "to_complex", counting_to_complex)
    monkeypatch.setattr(ChainMap, "__init__", counting_chain_map_init)
    monkeypatch.setattr(minimal_module, "HomologySpace", counting_homology_space)
    mm = minimal_model(alg)
    # the connectivity probe, the construction's target and the certificate
    assert input_calls == [(0, 3), (0, 14), (0, 14)]
    # one comparison per distinct model (0, 2 and 4 generators), then certify
    assert model_sizes == [0, 2, 4, 4]
    assert len(chain_maps) == 4
    # classes only where a rank shows a gap, each space once: the input at 2
    # (the cokernel) and 4 (the kernel), the empty model at 2, the model on
    # two generators at 4; the connectivity probe and certify build none
    assert sorted(homology_degrees.values()) == [[2], [2, 4], [4]]
    assert mm.certificate.is_equivalence


def test_certify_recomputes_from_the_stored_morphism():
    mm = minimal_model(s2xs2_contractible())
    src, tgt = mm.model, mm.input_algebra
    # forget the second sphere: still a chain map, no longer a quasi-isomorphism
    bad = CDGAMorphism(src, tgt, {"v2_0": tgt.gen("a"), "v3_0": tgt.gen("p")})
    assert certify(mm).is_equivalence
    assert not certify(dataclasses.replace(mm, morphism=bad)).is_equivalence


def _assert_certificate_is_the_recompute(mm):
    """mm.certificate and certify(mm) equal the two-route check field for field."""
    oracle = recomputed_certificate(mm)
    assert oracle.window == (0, mm.truncation)
    for rep in (mm.certificate, certify(mm)):
        for field in dataclasses.fields(WeakEquivalenceReport):
            assert getattr(rep, field.name) == getattr(oracle, field.name), field.name


@pytest.mark.parametrize("build", [lambda: odd_sphere(3), even_sphere, projective_plane],
                         ids=["S3", "S2", "CP2"])
def test_identity_witness_equals_the_two_route_recompute(build):
    mm = minimal_model(build())
    assert mm.already_minimal
    _assert_certificate_is_the_recompute(mm)


def _counting_certificate_work(monkeypatch):
    """Patch the builders certify's two routes use; return the log they fill."""
    log = {"to_complex": [], "homology": 0, "cone": 0}
    to_complex = FreeCDGA.to_complex
    homology_space = complexes_module.HomologySpace
    mapping_cone = complexes_module.mapping_cone

    def counting_to_complex(self, window=None):
        log["to_complex"].append(window)
        return to_complex(self, window)

    def counting_homology_space(c, k):
        log["homology"] += 1
        return homology_space(c, k)

    def counting_mapping_cone(f):
        log["cone"] += 1
        return mapping_cone(f)

    monkeypatch.setattr(FreeCDGA, "to_complex", counting_to_complex)
    monkeypatch.setattr(complexes_module, "HomologySpace", counting_homology_space)
    monkeypatch.setattr(minimal_module, "HomologySpace", counting_homology_space)
    monkeypatch.setattr(complexes_module, "mapping_cone", counting_mapping_cone)
    return log


def test_identity_path_builds_only_the_connectivity_probe(monkeypatch):
    log = _counting_certificate_work(monkeypatch)
    mm = minimal_model(even_sphere())
    assert mm.already_minimal and mm.certificate.is_equivalence
    assert log == {"to_complex": [(0, 3)], "homology": 0, "cone": 0}


def test_planted_automorphism_takes_the_recompute_route(monkeypatch):
    # x -> 2x, y -> 4y commutes with d y = x^2 and is invertible: a
    # quasi-isomorphism of S^2 that is not the identity
    mm = minimal_model(even_sphere())
    a = mm.model
    auto = CDGAMorphism(a, a, {"x": a.gen("x").scale(2), "y": a.gen("y").scale(4)})
    planted = dataclasses.replace(mm, morphism=auto, certificate=None)
    log = _counting_certificate_work(monkeypatch)
    rep = certify(planted)
    assert log["cone"] == 1 and log["homology"] == 0  # the rank route builds no class
    assert log["to_complex"] == [(0, mm.truncation + 2)] * 2
    monkeypatch.undo()
    assert rep.is_equivalence
    assert rep == recomputed_certificate(planted)
    # the zero map is a chain map that is not the identity and not an equivalence
    zero = dataclasses.replace(mm, morphism=CDGAMorphism(a, a, {}))
    rep = certify(zero)
    assert not rep.is_equivalence
    assert rep == recomputed_certificate(zero)


LATE_GAP_DOCUMENT = {
    "kind": "cdga", "generators": [["x", 2], ["y", 5], ["u", 3], ["v", 4]],
    "differential": {"y": "x^3", "u": "v + 1/2 x^2"}, "truncation": 14,
}


def test_late_gap_closes_at_stage_five_after_two_stages_without_one(tmp_path, monkeypatch):
    # CP^2 plus a contractible pair: x^3 = d y becomes a kernel class in degree 6
    # once v2_0 maps to x, so its closing generator comes at stage 5, after
    # stages 3 and 4 read no gap from their ranks
    path = tmp_path / "late_gap.json"
    path.write_text(json.dumps(LATE_GAP_DOCUMENT))
    proc = subprocess.run([sys.executable, "-m", "cdga.cli", "minimal-model", "--input", str(path),
                           "--format", "json"], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "64b57057585d3a9e735c3ce8f894a0c9285d47b1338ea01cba5cfde84f9646f1")
    out = json.loads(proc.stdout)
    assert (out["generators"], out["certified_through"]) == ([["v2_0", 2], ["v5_0", 5]], 13)
    assert [(s["degree"], s["closed"], s["closing"]) for s in out["stages"][:4]] == [
        (2, ["v2_0"], []), (3, [], []), (4, [], []), (5, [], ["v5_0"])]

    built = {}  # complex -> degrees of the HomologySpaces built on it
    homology_space = minimal_module.HomologySpace

    def counting_homology_space(c, k):
        built.setdefault(id(c), []).append(k)
        return homology_space(c, k)

    monkeypatch.setattr(minimal_module, "HomologySpace", counting_homology_space)
    gens = Generators([(name, deg) for name, deg in LATE_GAP_DOCUMENT["generators"]])
    x, v = Polynomial.generator(gens, "x"), Polynomial.generator(gens, "v")
    mm = minimal_model(FreeCDGA(gens, {"y": x * x * x, "u": v + (x * x).scale(F(1, 2))},
                                truncation=14))
    # classes at the two gaps only: the input at 2 and 6, the empty model at
    # 2, the model on v2_0 at 6
    assert sorted(built.values()) == [[2], [2, 6], [6]]
    assert mm.homotopy_ranks() == {k: int(k in (2, 5)) for k in range(2, 14)}
    monkeypatch.undo()
    _assert_certificate_is_the_recompute(mm)


@pytest.mark.parametrize("alg", [even_sphere, s2xs2_contractible], ids=["minimal", "staged"])
def test_a_failed_certificate_raises_on_both_paths(monkeypatch, alg):
    failed = WeakEquivalenceReport(False, (0, 0), {0: False}, {}, True)
    monkeypatch.setattr(minimal_module, "certify", lambda mm: failed)
    with pytest.raises(InternalCheckError,
                       match="^constructed model failed its weak-equivalence certificate$"):
        minimal_model(alg())


def dense_quadric_document():
    """a, b, c, e in degree 2 and w, x, y, z in degree 3; each d(odd) is a dense
    quadric in a, b, c, e with coefficients p/q, 1 <= p, q <= 9, from
    random.Random(5).  The quadrics form a regular sequence, so the input is
    already minimal with cohomology (1 + t^2)^4."""
    rng = random.Random(5)
    even = ["a", "b", "c", "e"]
    monomials = [u + "^2" if u == v else u + " " + v
                 for i, u in enumerate(even) for v in even[i:]]
    return {"kind": "cdga",
            "generators": [[g, 2] for g in even] + [[o, 3] for o in "wxyz"],
            "differential": {o: " + ".join("%d/%d %s" % (rng.randint(1, 9), rng.randint(1, 9), m)
                                           for m in monomials) for o in "wxyz"}}


def test_dense_quadrics_certify_at_truncation_16_within_ten_seconds(tmp_path):
    path = tmp_path / "quadrics.json"
    path.write_text(json.dumps(dense_quadric_document()))

    def run(command):
        proc = subprocess.run([sys.executable, "-m", "cdga.cli", command, "--input", str(path),
                               "--truncation", "16", "--format", "json"],
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout)

    model = run("minimal-model")
    assert model["already_minimal"] is True
    assert [d for _, d in model["generators"]] == [2, 2, 2, 2, 3, 3, 3, 3]
    assert model["certified_through"] == 15
    assert run("homotopy") == {"certified_through": 15, "pi": {"2": 4, "3": 4}}


@st.composite
def minimal_with_contractible_pair(draw):
    """A random minimal algebra and its tensor with a twisted contractible pair.

    Closed generators of degree 2..4, then generators killing random
    combinations of products of two closed ones (cocycles, so d o d = 0);
    the pair is du = v + c w with w such a product or zero.
    """
    closed = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    names = [("x%d" % i, d) for i, d in enumerate(closed)]
    products = [(i, j, closed[i] + closed[j]) for i in range(len(closed))
                for j in range(i, len(closed))
                if closed[i] % 2 == 0 or i != j]
    killers = draw(st.lists(st.sampled_from(products), max_size=2)) if products else []
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    m = draw(st.integers(3, 5))
    pair_twists = [p for p in products if p[2] == m + 1]
    twist = draw(st.sampled_from(pair_twists)) if pair_twists and draw(st.booleans()) else None
    c = draw(coeff.filter(bool))
    truncation = draw(st.integers(4, 8))
    killer_names = [("z%d" % i, deg - 1) for i, (_, _, deg) in enumerate(killers)]
    gens = Generators(names + killer_names)
    g = [Polynomial.generator(gens, n) for n, _ in names]
    d = {}
    for (name, _), (i, j, deg) in zip(killer_names, killers):
        same_degree = [(p, q) for p, q, e in products if e == deg]
        d[name] = sum(
            ((g[p] * g[q]).scale(draw(coeff)) for p, q in same_degree),
            g[i] * g[j],
        )
    d = {name: poly for name, poly in d.items() if not poly.is_zero()}
    minimal_part = FreeCDGA(gens, d, truncation=truncation)
    pair = [("u", m), ("v", m + 1)]
    w = g[twist[0]] * g[twist[1]] if twist else Polynomial.zero(gens)
    pair_gens = gens.extended(pair)
    du = Polynomial.generator(pair_gens, "v") + Polynomial(pair_gens, w.scale(c).terms)
    return minimal_part, minimal_part.extended(pair, {"u": du})


def _assert_sharing_changes_no_verdict(mm):
    """certify on fresh objects rebuilt from the generator images gives
    mm.certificate, and every cached operator matrix is a fresh key_matrix."""
    a, model = mm.input_algebra, mm.model
    fresh_a, fresh_model = (FreeCDGA(alg.gens, dict(alg.differential.images),
                                     truncation=alg.truncation) for alg in (a, model))
    fresh_rho = CDGAMorphism(fresh_model, fresh_a, dict(mm.morphism.images))
    fresh = certify(dataclasses.replace(mm, model=fresh_model, input_algebra=fresh_a,
                                        morphism=fresh_rho))
    for name in ("is_equivalence", "iso_degrees", "cone_betti"):
        assert getattr(fresh, name) == getattr(mm.certificate, name)
    for k in range(mm.truncation + 3):
        for alg in (a, model):
            d = alg.d_matrix(k)
            assert d is alg.d_matrix(k)
            assert d == key_matrix(alg.basis(k), alg.basis_index(k + 1), alg.differential.apply_key)
        f = mm.morphism.matrix(k)
        assert f is mm.morphism.matrix(k)
        assert f == key_matrix(model.basis(k), a.basis_index(k), mm.morphism.apply_key)


def test_sharing_changes_no_verdict_on_s2xs2(monkeypatch):
    morphisms = []
    morphism_init = CDGAMorphism.__init__

    def counting_morphism_init(self, *args, **kwargs):
        morphisms.append(self)
        morphism_init(self, *args, **kwargs)

    monkeypatch.setattr(CDGAMorphism, "__init__", counting_morphism_init)
    mm = minimal_model(s2xs2_contractible())
    # one morphism per distinct model (0, 2 and 4 generators), the last one kept
    assert [len(rho.source.gens.names) for rho in morphisms] == [0, 2, 4]
    assert mm.morphism is morphisms[-1]
    monkeypatch.undo()
    _assert_sharing_changes_no_verdict(mm)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(minimal_with_contractible_pair())
def test_sharing_changes_no_verdict_on_contractible_pairs(pair):
    # the minimal part takes the already-minimal path, through the identity's
    # witness; both certificates equal the two-route recompute
    for alg in pair:
        mm = minimal_model(alg)
        assert mm.already_minimal == (alg is pair[0])
        _assert_certificate_is_the_recompute(mm)
        _assert_sharing_changes_no_verdict(mm)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(minimal_with_contractible_pair())
def test_contractible_pair_leaves_homotopy_ranks_unchanged(pair):
    minimal_part, with_pair = pair
    mm = minimal_model(with_pair)
    assert not mm.already_minimal
    assert mm.model.is_minimal()
    assert mm.homotopy_ranks() == minimal_model(minimal_part).homotopy_ranks()
