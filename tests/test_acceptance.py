"""Acceptance criteria, one test per criterion.

Every expected value here was computed independently of the library: by
hand (structure constants, binomials, invariant-polynomial patterns), by
the standalone row-reduction oracle in helpers.py, or by construction
(random complexes assembled from summands with known homology).  Each test
finishes by printing its own PASS line; pytest -v adds the per-test verdict.
"""

from fractions import Fraction as F
import json
import math
import random
import subprocess
import sys
import time

import pytest

from cdga import (
    FreeCDGA,
    Generators,
    GradedChainData,
    GradedError,
    HomologySpace,
    InnerProduct,
    LieData,
    Polynomial,
    adjoint,
    basic_subcomplex,
    betti_numbers,
    check,
    chevalley_eilenberg,
    classifying_map,
    cone,
    enveloping_dims,
    free_graded_lie,
    free_to_cone_iso,
    harmonic_space,
    hodge_decomposition,
    integrate_homotopy,
    is_weak_equivalence,
    laplacian,
    length_operator,
    mapping_cylinder,
    minimal_model,
    module_cone_prime,
    number_operator_check,
    shift,
    strip_differential,
    structurally_equal,
    tensor_algebra_dims,
    weil_algebra,
    weil_contraction_witness,
    weil_to_ce_projection,
)

from helpers import (
    oracle_betti,
    random_chain_map,
    random_complex,
    random_posdef_gram,
    recomputed_certificate,
)


def _passed(n, text):
    print("[PASS] criterion %02d: %s" % (n, text))


def test_c01_random_complex_betti_match_independent_oracle():
    rng = random.Random(101)
    for _ in range(200):
        c, expected = random_complex(rng, max_span=6, max_dim=5)
        assert check(c).ok
        got = betti_numbers(c)
        orc = oracle_betti(c)
        for k in set(expected) | set(got) | set(orc):
            e = expected.get(k, 0)
            assert got.get(k, 0) == e, (k, got, expected)
            assert orc.get(k, 0) == e, (k, orc, expected)
    _passed(1, "200 random complexes: Betti numbers match construction and oracle")


def test_c02_free_resolution_cone_comparison():
    rng = random.Random(202)
    for i in range(100):
        if i % 2 == 0:
            # resolution regime: support in degrees <= 0
            c, _ = random_complex(rng, max_span=5, max_dim=4, lo_range=(-7, -5))
            assert all(k <= 0 for k in c.support())
        else:
            # general regime: top degree >= 2, truncation never engages
            c, _ = random_complex(rng, max_span=4, max_dim=4, lo_range=(2, 4))
        iso = free_to_cone_iso(c)
        assert iso.is_chain_map()
        assert structurally_equal(iso.source, module_cone_prime(shift(c, -1)))
        assert structurally_equal(iso.target, cone(c))
        for k in iso.source.support():
            # invertibility degreewise makes it a chain isomorphism
            assert iso.comp(k).det() != 0
        # with the differential stripped the two constructions coincide
        sc = strip_differential(c)
        assert structurally_equal(module_cone_prime(shift(sc, -1)), cone(sc))
    _passed(2, "100 instances: stripped double-cone is isomorphic to the cone")


def test_c03_cylinder_factorization():
    rng = random.Random(303)
    for _ in range(100):
        a, _ = random_complex(rng, max_span=4, max_dim=3)
        b, _ = random_complex(rng, max_span=4, max_dim=3)
        f = random_chain_map(rng, a, b)
        data = mapping_cylinder(f)
        assert check(data.cylinder).ok
        assert data.include_source.is_chain_map()
        assert data.include_target.is_chain_map()
        assert data.project.is_chain_map()
        assert data.collapse.is_chain_map()
        # the projection is always a weak equivalence (full dual-route check)
        rep = is_weak_equivalence(data.project)
        assert rep.is_equivalence and rep.routes_agree
        # the collapse kills exactly the source copy
        for k in data.cylinder.support():
            comp = data.collapse.comp(k) * data.include_source.comp(k)
            assert comp.is_zero()
            assert data.collapse.comp(k).rank() == data.cone.dim(k)
            kernel_dim = data.cylinder.dim(k) - data.cone.dim(k)
            assert kernel_dim == a.dim(k)
    _passed(3, "100 cylinders: factorization, retraction, and collapse kernel")


def test_c04_enveloping_dimensions_are_tensor_dimensions():
    degrees = (1, 2, 3)
    multisets = []
    for size in (1, 2, 3):
        def rec(start, chosen):
            if len(chosen) == size:
                multisets.append(tuple(chosen))
                return
            for d in degrees[start:]:
                rec(degrees.index(d), chosen + [d])
        rec(0, [])
    multisets = sorted(set(multisets))
    assert len(multisets) == 19
    for ms in multisets:
        gens = [("g%d" % i, d) for i, d in enumerate(ms)]
        L = free_graded_lie(gens, 6)
        assert L.verify_axioms() is True
        td = tensor_algebra_dims(gens, 6)
        ud = enveloping_dims(L, 6)
        for k in range(7):
            assert ud.get(k, 0) == td.get(k, 0), (ms, k, ud, td)
    _passed(4, "19 generator multisets: enveloping dims equal tensor algebra dims")


def test_c05_weil_model_acyclic_with_witness():
    t0 = time.time()
    lies = [
        LieData.abelian(1),
        LieData.abelian(2),
        LieData.abelian(3),
        LieData.solvable2(),
        LieData.cross3(),
    ]
    for lie in lies:
        ops = weil_algebra(lie)
        hi = 2 * lie.n
        c = ops.algebra.to_complex((0, hi + 1))
        betti = betti_numbers(c, (0, hi))
        assert betti[0] == 1
        assert all(betti[k] == 0 for k in range(1, hi + 1))
        K, d_lin = weil_contraction_witness(ops)
        N = length_operator(ops.algebra)
        comm = d_lin.commutator(K)
        for name in ops.algebra.gens.names:
            assert comm.image_of(name) == N.image_of(name)
    elapsed = time.time() - t0
    assert elapsed < 10.0, "criterion 5 exceeded its time budget: %.1fs" % elapsed
    _passed(5, "five Lie algebras: connection-curvature model acyclic (%.1fs)" % elapsed)


def test_c06_contraction_flow_identities():
    for lie in (LieData.abelian(2), LieData.solvable2(), LieData.cross3()):
        ce = chevalley_eilenberg(lie)
        assert ce.verify() == []
        assert ce.verify_matrices((0, lie.n)) == []
        w = weil_algebra(lie)
        assert w.verify() == []
        assert w.verify_matrices((0, lie.n + 2)) == []
    _passed(6, "all five operator identities hold on generators and matrices")


def test_c07_basic_subcomplex_invariants():
    ops = weil_algebra(LieData.cross3(), truncation=9)
    data = basic_subcomplex(ops, (0, 8))
    assert data.inclusion.is_chain_map()
    got = [betti_numbers(data.complex).get(k, 0) for k in range(9)]
    assert got == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    ops1 = weil_algebra(LieData.abelian(1), truncation=9)
    data1 = basic_subcomplex(ops1, (0, 8))
    got1 = [betti_numbers(data1.complex).get(k, 0) for k in range(9)]
    assert got1 == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    _passed(7, "basic subcomplexes recover the invariant-polynomial patterns")


def test_c08_minimal_models_certified():
    # odd sphere
    mm = minimal_model(FreeCDGA(Generators([("e3", 3)]), {}, truncation=9))
    ranks = mm.homotopy_ranks()
    assert ranks[3] == 1 and all(v == 0 for k, v in ranks.items() if k != 3)
    assert mm.certificate.is_equivalence and mm.certificate == recomputed_certificate(mm)

    # even sphere
    g2 = Generators([("x", 2), ("y", 3)])
    x = Polynomial.generator(g2, "x")
    mm2 = minimal_model(FreeCDGA(g2, {"y": x * x}, truncation=9))
    r2 = mm2.homotopy_ranks()
    assert r2[2] == 1 and r2[3] == 1
    assert all(v == 0 for k, v in r2.items() if k not in (2, 3))
    assert mm2.certificate.is_equivalence and mm2.certificate == recomputed_certificate(mm2)

    # projective plane
    g3 = Generators([("x", 2), ("y", 5)])
    x3 = Polynomial.generator(g3, "x")
    mm3 = minimal_model(FreeCDGA(g3, {"y": x3 * x3 * x3}, truncation=9))
    r3 = mm3.homotopy_ranks()
    assert r3[2] == 1 and r3[5] == 1
    assert all(v == 0 for k, v in r3.items() if k not in (2, 5))
    assert mm3.certificate.is_equivalence and mm3.certificate == recomputed_certificate(mm3)

    # non-minimal presentation of the even sphere times a contractible factor
    g4 = Generators([("x", 2), ("y", 3), ("c", 3), ("a", 4)])
    x4 = Polynomial.generator(g4, "x")
    a4 = Polynomial.generator(g4, "a")
    mm4 = minimal_model(FreeCDGA(g4, {"y": x4 * x4, "c": a4}, truncation=8))
    assert not mm4.already_minimal
    r4 = mm4.homotopy_ranks()
    assert r4[2] == 1 and r4[3] == 1
    assert all(v == 0 for k, v in r4.items() if k not in (2, 3))
    assert mm4.model.is_minimal()
    assert mm4.certificate.is_equivalence

    # acyclic above degree zero: empty minimal model
    g5 = Generators([("u", 4), ("v", 3)])
    u5 = Polynomial.generator(g5, "u")
    mm5 = minimal_model(FreeCDGA(g5, {"v": u5}, truncation=8))
    assert mm5.model.gens.names == ()
    assert all(v == 0 for v in mm5.homotopy_ranks().values())
    assert mm5.certificate.is_equivalence
    _passed(8, "five minimal models built and certified with exact homotopy ranks")


def test_c09_classifying_maps_and_flow_integration():
    for lie in (LieData.abelian(2), LieData.solvable2(), LieData.cross3()):
        w = weil_algebra(lie)
        ce = chevalley_eilenberg(lie)
        rep = weil_to_ce_projection(w, ce)
        assert rep.flat and rep.theta_equivariant and rep.morphism.is_chain_map()
    # a non-connection is rejected, naming the failing pair
    lie = LieData.solvable2()
    w = weil_algebra(lie)
    ce = chevalley_eilenberg(lie)
    with pytest.raises(GradedError) as ei:
        classifying_map(w, ce, [ce.algebra.gen("x2"), ce.algebra.gen("x1")])
    assert "iota_0" in str(ei.value) and "0" in str(ei.value)
    # flow integration: nilpotent direction integrates with verified identity
    rep = integrate_homotopy(ce, {1: F(1)}, (0, 2))
    assert rep.window == (0, 2) and all(v >= 1 for v in rep.nilpotency_index.values())
    # non-nilpotent directions are rejected as non-rational flows
    with pytest.raises(GradedError):
        integrate_homotopy(ce, {0: F(1)}, (0, 2))
    ce3 = chevalley_eilenberg(LieData.cross3())
    with pytest.raises(GradedError):
        integrate_homotopy(ce3, {0: F(1)}, (0, 3))
    _passed(9, "classifying maps verified; flows integrate or are rejected exactly")


def test_c10_harmonic_representatives():
    rng = random.Random(1010)
    checked = 0
    for i in range(200):
        c, expected = random_complex(rng, max_span=5, max_dim=4)
        if i % 2 == 0:
            ip = InnerProduct.identity()
        else:
            ip = InnerProduct(
                {k: random_posdef_gram(rng, c.dim(k)) for k in c.support()}
            )
        ip.validate_for(c)
        adj = adjoint(c, ip)
        for k in c.support():
            dec = hodge_decomposition(c, ip, k)
            assert len(dec.harmonic) == expected.get(k, 0)
            assert len(dec.harmonic) + len(dec.exact) + len(dec.coexact) == c.dim(k)
            left = laplacian(c, ip, k + 1, adj) * c.diff(k)
            right = c.diff(k) * laplacian(c, ip, k, adj)
            assert left == right
            checked += 1
    assert checked > 200
    # the same identities on structured inputs
    ce = chevalley_eilenberg(LieData.cross3())
    cc = ce.algebra.to_complex((0, 3))
    for k in range(4):
        hs = harmonic_space(cc, InnerProduct.identity(), k)
        assert len(hs) == HomologySpace(cc, k).betti
    wo = weil_algebra(LieData.solvable2())
    wc = wo.algebra.to_complex((0, 4))
    for k in range(4):
        hs = harmonic_space(wc, InnerProduct.identity(), k)
        assert len(hs) == HomologySpace(wc, k).betti
    _passed(10, "200 random + structured complexes: exact harmonic decompositions")


def _random_zero_squared_boundary(rng, elements):
    """Random degree-raising boundary with disjoint source/target pairs."""
    by_degree = {}
    for i, (name, deg) in enumerate(elements):
        by_degree.setdefault(deg, []).append(name)
    used_source = set()
    used_target = set()
    boundary = {}
    names = [n for n, _ in elements]
    degs = {n: d for n, d in elements}
    rng.shuffle(names)
    for v in names:
        if v in used_target or v in used_source:
            continue
        candidates = [
            w
            for w in by_degree.get(degs[v] + 1, [])
            if w not in used_source and w not in used_target and w != v
        ]
        if candidates and rng.random() < 0.7:
            w = rng.choice(candidates)
            coeff = F(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice([1, -1])
            boundary[v] = {w: coeff}
            used_source.add(v)
            used_target.add(w)
    return boundary


def test_c11_number_operator_audit():
    rng = random.Random(1111)
    # family (a): several elements, random pairing boundary, zero cobracket
    for _ in range(6):
        n = rng.randint(2, 4)
        elements = [("v%d" % i, rng.randint(1, 3)) for i in range(n)]
        boundary = _random_zero_squared_boundary(rng, elements)
        data = GradedChainData(elements=elements, boundary=boundary)
        rep = number_operator_check(data, truncation=6)
        assert rep.ok, (elements, boundary, rep.failures)
        assert all(rep.generator_identity.values())
        assert rep.ccr_ok and rep.cross_terms_zero and rep.laplacian_commutes
    # family (b): no boundary, no cobracket - pure harmonic oscillator
    data_b = GradedChainData(elements=[("p", 1), ("q", 2), ("r", 3)])
    rep_b = number_operator_check(data_b, truncation=6)
    assert rep_b.ok and all(rep_b.generator_identity.values())
    # family (c): two elements at consecutive degrees with a random rational
    for _ in range(6):
        lo = rng.randint(1, 3)
        coeff = F(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice([1, -1])
        data_c = GradedChainData(
            elements=[("s", lo), ("t", lo + 1)],
            boundary={"s": {"t": coeff}},
        )
        rep_c = number_operator_check(data_c, truncation=6)
        assert rep_c.ok, rep_c.failures
        assert all(rep_c.generator_identity.values())
        assert rep_c.ccr_ok and rep_c.cross_terms_zero
    _passed(11, "number operator: generator identity, CCR, cross terms, [H,d]=0")


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cdga.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def test_c12_cli_determinism():
    commands = [
        ("homotopy", "--input", "cdga_sphere3", "--format", "json"),
        ("homotopy", "--input", "cdga_sphere2", "--format", "json"),
        ("minimal-model", "--input", "cdga_cp2", "--format", "json"),
        ("ce", "--input", "lie_cross3", "--format", "json"),
        ("weil", "--input", "lie_solvable2", "--format", "json"),
        ("homology", "--input", "cdga_sphere2", "--format", "json"),
    ]
    for cmd in commands:
        rc1, out1 = _run_cli(*cmd)
        rc2, out2 = _run_cli(*cmd)
        assert rc1 == 0 and rc2 == 0
        assert out1 == out2, "outputs differ between runs for %s" % (cmd,)
        # documented key order: canonical JSON sorts keys at every level
        raw = json.loads(out1, object_pairs_hook=lambda pairs: pairs)

        def assert_pairs_sorted(node):
            if isinstance(node, list) and node and isinstance(node[0], tuple):
                keys = [k for k, _ in node]
                assert keys == sorted(keys)
                for _, v in node:
                    assert_pairs_sorted(v)
            elif isinstance(node, list):
                for v in node:
                    assert_pairs_sorted(v)

        assert_pairs_sorted(raw)
        assert out1.endswith("\n")
    # the homotopy payload shape is exactly the documented one
    rc, out = _run_cli("homotopy", "--input", "cdga_sphere3", "--format", "json")
    assert out == '{"certified_through":8,"pi":{"3":1}}\n'
    _passed(12, "CLI JSON output byte-identical across runs with sorted keys")
