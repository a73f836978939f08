from dataclasses import fields, replace
from fractions import Fraction as F
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdga import (
    ChainMap,
    Complex,
    ComplexError,
    GradedError,
    GradedMap,
    GradedSpace,
    HomologySpace,
    InternalCheckError,
    Mat,
    WeakEquivalenceReport,
    augmented,
    betti_numbers,
    check,
    check_homotopy,
    cone,
    cone_contraction,
    cone_prime,
    contracting_homotopy,
    direct_sum,
    dual,
    free_to_cone_iso,
    induced_on_homology,
    is_contractible,
    is_weak_equivalence,
    mapping_cone,
    mapping_cylinder,
    module_cone_prime,
    shift,
    strip_differential,
    structurally_equal,
    tensor_complex,
)

from helpers import (
    oracle_betti, oracle_weak_equivalence, random_complex, random_chain_map,
    with_identity_block_negated,
)


def two_step(coeff=1):
    """0 -> Q --coeff--> Q -> 0 in degrees 0, 1."""
    sp = GradedSpace({0: ["a"], 1: ["b"]})
    return Complex(sp, {0: Mat.from_rows([[F(coeff)]])})


def sphere_like(k):
    """Q concentrated in degree k."""
    return Complex(GradedSpace({k: ["s"]}), {})


def test_complex_validation_rejects_bad_square():
    sp = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    with pytest.raises(ComplexError):
        Complex(sp, {0: Mat.from_rows([[F(1)]]), 1: Mat.from_rows([[F(1)]])})


def test_complex_validation_rejects_bad_shape():
    sp = GradedSpace({0: ["a"], 1: ["b", "c"]})
    with pytest.raises(ComplexError):
        Complex(sp, {0: Mat.from_rows([[F(1)]])})


def test_check_report_on_manual_violation():
    sp = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    c = Complex(
        sp,
        {0: Mat.from_rows([[F(1)]]), 1: Mat.from_rows([[F(1)]])},
        validate=False,
    )
    rep = check(c)
    assert not rep.ok and rep.violations


def test_odd_degree_map_anticommutes_with_the_differentials():
    # degree-1 maps two_step -> shift(two_step, 1): d o M = M o d would be wrong
    source, target = two_step(), shift(two_step(), 1)
    anti = GradedMap(source, target, 1, {0: [[F(1)]], 1: [[F(-1)]]})
    assert anti.comp(1) * source.diff(0) != Mat.zero(1, 1)
    assert anti.is_chain_map()
    commuting = GradedMap(source, target, 1, {0: [[F(1)]], 1: [[F(1)]]})
    assert not commuting.is_chain_map()


def test_homology_two_step():
    c = two_step()
    assert betti_numbers(c) == {0: 0, 1: 0}
    s = sphere_like(3)
    assert betti_numbers(s) == {3: 1}


def test_homology_space_representatives():
    c = sphere_like(2)
    h = HomologySpace(c, 2)
    assert h.betti == 1
    assert len(h.representatives) == 1
    assert h.is_cycle(h.representatives[0])
    assert h.coords(h.representatives[0]) == [F(1)]


def test_homology_window():
    c = two_step()
    assert betti_numbers(c, (0, 0)) == {0: 0}
    assert betti_numbers(c, (3, 2)) == {}
    # wider than the support: zeros outside it
    assert betti_numbers(sphere_like(2), (-1, 4)) == {-1: 0, 0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    assert betti_numbers(c, (-2, 3)) == {k: 0 for k in range(-2, 4)}


def test_betti_routes_refuse_a_nonzero_d_squared():
    # unvalidated, as every composite is: only the Betti routes see d1 d0 != 0
    sp = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]})
    c = Complex(sp, {0: Mat.from_rows([[F(1)]]), 1: Mat.from_rows([[F(1)]])}, validate=False)
    with pytest.raises(InternalCheckError):
        betti_numbers(c)
    with pytest.raises(InternalCheckError):
        HomologySpace(c, 1)


def _logged_eliminations(monkeypatch):
    """The Mat eliminations called while patched, in order, nested ones included."""
    log = []
    for name in ("rank", "pivots", "rref", "nullspace", "kernel", "_echelon"):
        def logged(self, *args, _name=name, _original=getattr(Mat, name)):
            log.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(Mat, name, logged)
    return log


def test_betti_and_homology_space_elimination_counts(monkeypatch):
    c, _ = random_complex(random.Random(7), max_span=5)
    sup = c.support()
    lo, hi = min(sup), max(sup)
    log = _logged_eliminations(monkeypatch)
    betti_numbers(c, (lo, hi))
    # one rank per differential d_(lo-1) .. d_hi, one forward elimination each
    assert log == ["rank", "_echelon"] * (hi - lo + 2)
    for k in sup:
        log.clear()
        HomologySpace(c, k)
        # the kernel of d_k (an rref inside), then the pivots of [d_(k-1) | cycles],
        # one forward elimination with no back-substitution
        assert log == ["kernel", "rref", "_echelon", "pivots", "_echelon"]


def test_induced_on_homology_identity():
    c = sphere_like(2)
    f = ChainMap.identity(c)
    hs = HomologySpace(c, 2)
    m = induced_on_homology(f, 2, hs, hs)
    assert m == Mat.eye(1)


def test_shift_moves_support():
    c = two_step()
    s = shift(c, 3)
    assert s.support() == [3, 4]
    assert betti_numbers(s) == {3: 0, 4: 0}
    assert structurally_equal(shift(s, -3), c)


def test_dual_squares_and_betti():
    rng = random.Random(11)
    for _ in range(20):
        c, expected = random_complex(rng)
        dc = dual(c)
        assert check(dc).ok
        got = betti_numbers(dc)
        for k, b in expected.items():
            assert got.get(-k, 0) == b
        # the double dual carries the same spaces with negated differentials
        dd = dual(dc)
        for k in c.support():
            assert dd.dim(k) == c.dim(k)
            assert dd.diff(k) == c.diff(k).scale(-1)


def test_direct_sum_betti_adds():
    a = sphere_like(1)
    b = two_step()
    s = direct_sum(a, b)
    assert betti_numbers(s) == {0: 0, 1: 1}


def test_cone_of_identityish_complex_is_acyclic():
    rng = random.Random(5)
    for _ in range(20):
        c, _ = random_complex(rng)
        k = cone(c)
        assert check(k).ok
        flag, h = is_contractible(k)
        assert flag and h is not None


def test_cone_prime_truncation_at_zero():
    # support in degrees <= 0 triggers the truncated variant
    sp = GradedSpace({-1: ["u"], 0: ["v"]})
    c = Complex(sp, {-1: Mat.from_rows([[F(2)]])})
    kp = cone_prime(c)
    assert min(kp.support()) >= -1
    assert max(kp.support()) <= 0
    assert check(kp).ok


def test_module_cone_prime_strips_differential():
    c = two_step()
    m = module_cone_prime(shift(c, -1))
    assert check(m).ok
    sd = strip_differential(c)
    assert all(sd.diff(k).is_zero() for k in sd.support())


def test_free_to_cone_iso_explicit():
    rng = random.Random(23)
    for _ in range(10):
        c, _ = random_complex(rng)
        iso = free_to_cone_iso(c)
        assert iso.is_chain_map()
        for k in iso.source.support():
            assert iso.comp(k).inv() is not None
        assert structurally_equal(iso.source, module_cone_prime(shift(c, -1)))
        assert structurally_equal(iso.target, cone(c))


def test_mapping_cone_long_exact_sequence_euler():
    rng = random.Random(37)
    for _ in range(10):
        a, _ = random_complex(rng, max_span=4, max_dim=4)
        b, _ = random_complex(rng, max_span=4, max_dim=4)
        f = random_chain_map(rng, a, b)
        mc = mapping_cone(f)
        assert check(mc).ok
        # Euler characteristics: cone = target - source (degreewise shift)
        for k in mc.support():
            assert mc.dim(k) == a.dim(k + 1) + b.dim(k)


def test_mapping_cylinder_structure():
    rng = random.Random(41)
    a, _ = random_complex(rng, max_span=3, max_dim=3)
    b, _ = random_complex(rng, max_span=3, max_dim=3)
    f = random_chain_map(rng, a, b)
    data = mapping_cylinder(f)
    assert check(data.cylinder).ok
    assert data.include_source.is_chain_map()
    assert data.include_target.is_chain_map()
    assert data.project.is_chain_map()
    assert data.collapse.is_chain_map()
    # project o include_target = identity of the target
    comp = data.project.compose(data.include_target)
    for k in b.support():
        assert comp.comp(k) == Mat.eye(b.dim(k))
    # project o include_source = f
    comp2 = data.project.compose(data.include_source)
    for k in a.support():
        assert comp2.comp(k) == f.comp(k)
    # collapse o include_target lands in the cone's target copy
    assert structurally_equal(data.cone, mapping_cone(f))


# -- dense references for the composites, written from docs/conventions.md ---------


def _dense(mat):
    return [[mat[(i, j)] for j in range(mat.n)] for i in range(mat.m)]


def _eye(n, sign=1):
    return [[F(sign if i == j else 0) for j in range(n)] for i in range(n)]


def _scaled(mat, sign):
    return [[sign * x for x in row] for row in _dense(mat)]


def _placed(rows, cols, blocks):
    """A sum(rows) x sum(cols) matrix with blocks[(i, j)] at block row i, column j."""
    out = [[F(0)] * sum(cols) for _ in range(sum(rows))]
    for (bi, bj), blk in blocks.items():
        r0, c0 = sum(rows[:bi]), sum(cols[:bj])
        for i, row in enumerate(blk):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
    return out


def _named(prefix, c, k):
    return tuple(prefix + l for l in c.labels(k))


def _same_complex(out, labels, diff, degrees):
    for m in degrees:
        assert out.labels(m) == labels(m), m
        assert _dense(out.diff(m)) == diff(m), m


def _same_map(out, source, target, comp, degrees):
    assert out.source == source and out.target == target
    for m in degrees:
        assert _dense(out.comp(m)) == comp(m), m


def _check_cone(out, c, degrees):
    # cone(C)_m = C_m (+) C_{m+1}, d = [[d_m, (-1)^m I], [0, d_{m+1}]], labels a., b.
    _same_complex(
        out,
        lambda m: _named("a.", c, m) + _named("b.", c, m + 1),
        lambda m: _placed([c.dim(m + 1), c.dim(m + 2)], [c.dim(m), c.dim(m + 1)], {
            (0, 0): _dense(c.diff(m)),
            (0, 1): _eye(c.dim(m + 1), (-1) ** (m % 2)),
            (1, 1): _dense(c.diff(m + 1)),
        }),
        degrees,
    )


def _check_free_to_cone_iso(c, degrees):
    sup = c.support()
    if sup and max(sup) == 1:
        with pytest.raises(GradedError):
            free_to_cone_iso(c)
        return
    iso = free_to_cone_iso(c)
    # source: the cone of C with its differential forgotten; target: cone(C)
    _check_cone(iso.source, Complex(c.space, {}), degrees)
    _check_cone(iso.target, c, degrees)
    # phi_m = [[I, 0], [(-1)^(m+1) d_m, I]]
    _same_map(
        iso, iso.source, iso.target,
        lambda m: _placed([c.dim(m), c.dim(m + 1)], [c.dim(m), c.dim(m + 1)], {
            (0, 0): _eye(c.dim(m)),
            (1, 0): _scaled(c.diff(m), (-1) ** ((m + 1) % 2)),
            (1, 1): _eye(c.dim(m + 1)),
        }),
        degrees,
    )


def _random_map(seed):
    rng = random.Random(seed)
    a, _ = random_complex(rng, max_span=4, max_dim=3)
    lo = min(a.support(), default=0)  # overlap the supports, so f is seldom zero
    b, _ = random_complex(rng, max_span=4, max_dim=3, lo_range=(lo - 1, lo))
    return a, b, random_chain_map(rng, a, b)


def _non_identity_map(seed):
    a, b, f = _random_map(seed)
    identity = a == b and all(f.comp(k) == Mat.eye(a.dim(k)) for k in a.support())
    assume(not identity and any(k % 2 for k in f.comps))
    return a, b, f


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_composites_match_dense_references(seed):
    a, b, f = _non_identity_map(seed)
    sup = a.support() + b.support()
    degrees = range(min(sup) - 3, max(sup) + 3)
    # direct sum: A_m (+) B_m, d = [[d_a, 0], [0, d_b]], labels a., b.
    _same_complex(
        direct_sum(a, b),
        lambda m: _named("a.", a, m) + _named("b.", b, m),
        lambda m: _placed([a.dim(m + 1), b.dim(m + 1)], [a.dim(m), b.dim(m)], {
            (0, 0): _dense(a.diff(m)), (1, 1): _dense(b.diff(m)),
        }),
        degrees,
    )
    for c in (a, b):
        _check_cone(cone(c), c, degrees)
        _check_free_to_cone_iso(c, degrees)
    # mapping cone: F_{m+1} (+) F'_m, d = [[d_{m+1}, 0], [(-1)^m f_{m+1}, d'_m]], s., t.
    cone_labels = lambda m: _named("s.", a, m + 1) + _named("t.", b, m)
    cone_diff = lambda m: _placed([a.dim(m + 2), b.dim(m + 1)], [a.dim(m + 1), b.dim(m)], {
        (0, 0): _dense(a.diff(m + 1)),
        (1, 0): _scaled(f.comp(m + 1), (-1) ** (m % 2)),
        (1, 1): _dense(b.diff(m)),
    })
    _same_complex(mapping_cone(f), cone_labels, cone_diff, degrees)
    # cylinder: F_m (+) F_{m+1} (+) F'_m, labels x., y., z., and
    # d(x, y, z) = (dx + (-1)^(m+1) y, dy, d'z + (-1)^m f y)
    data = mapping_cylinder(f)
    cyl = data.cylinder
    sizes = lambda m: [a.dim(m), a.dim(m + 1), b.dim(m)]
    _same_complex(
        cyl,
        lambda m: _named("x.", a, m) + _named("y.", a, m + 1) + _named("z.", b, m),
        lambda m: _placed(sizes(m + 1), sizes(m), {
            (0, 0): _dense(a.diff(m)),
            (0, 1): _eye(a.dim(m + 1), (-1) ** ((m + 1) % 2)),
            (1, 1): _dense(a.diff(m + 1)),
            (2, 1): _scaled(f.comp(m + 1), (-1) ** (m % 2)),
            (2, 2): _dense(b.diff(m)),
        }),
        degrees,
    )
    _same_complex(data.cone, cone_labels, cone_diff, degrees)
    # x -> (x, 0, 0), z -> (0, 0, z), (x, y, z) -> f(x) + z, (x, y, z) -> (y, z)
    _same_map(data.include_source, a, cyl,
              lambda m: _placed(sizes(m), [a.dim(m)], {(0, 0): _eye(a.dim(m))}), degrees)
    _same_map(data.include_target, b, cyl,
              lambda m: _placed(sizes(m), [b.dim(m)], {(2, 0): _eye(b.dim(m))}), degrees)
    _same_map(data.project, cyl, b, lambda m: _placed([b.dim(m)], sizes(m), {
        (0, 0): _dense(f.comp(m)), (0, 2): _eye(b.dim(m)),
    }), degrees)
    _same_map(data.collapse, cyl, data.cone, lambda m: _placed([a.dim(m + 1), b.dim(m)], sizes(m), {
        (0, 1): _eye(a.dim(m + 1)), (1, 2): _eye(b.dim(m)),
    }), degrees)


def _reference_homology(c, k):
    """(boundary rank, reps, [boundaries | reps] as columns) from the full rref
    of [d_(k-1) | cycles^T], its pivot columns taken as the decomposition."""
    d_in = c.diff(k - 1)
    cycles = c.diff(k).kernel()
    stacked = d_in.hstack(cycles.transpose())
    _, piv = stacked.rref()
    reps = cycles.select_rows([j - d_in.n for j in piv if j >= d_in.n])
    return sum(j < d_in.n for j in piv), reps, stacked.transpose().select_rows(piv).transpose()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_homology_space_matches_the_rref_reference_route(seed):
    # the minimal-model output is written from these representatives
    rng = random.Random(seed)
    a, _ = random_complex(rng, max_span=4, max_dim=4)
    lo = min(a.support(), default=0)
    b, _ = random_complex(rng, max_span=4, max_dim=4, lo_range=(lo - 1, lo))
    f = random_chain_map(rng, a, b)
    sup = a.support() + b.support()
    for k in range(min(sup) - 1, max(sup) + 2):
        hs, ht = HomologySpace(a, k), HomologySpace(b, k)
        for h, c in ((hs, a), (ht, b)):
            boundary_rank, reps, _ = _reference_homology(c, k)
            assert (h.boundary_rank, h.betti, h.reps) == (boundary_rank, reps.m, reps)
        _, _, decomp = _reference_homology(b, k)
        B = f.comp(k) * hs.reps.transpose()
        X = decomp.solve_matrix(B)
        want = X.select_rows(range(ht.boundary_rank, X.m))
        assert induced_on_homology(f, k, hs, ht) == ht.class_matrix(B) == want
        # the source side is only read for its representatives
        assert "_decomp" not in hs.__dict__
        assert ht.class_matrix(ht.reps.transpose()) == Mat.eye(ht.betti)


def test_tensor_complex_kunneth_on_spheres():
    a = sphere_like(2)
    b = sphere_like(3)
    t = tensor_complex(a, b)
    assert betti_numbers(t) == {5: 1}
    c = two_step()
    t2 = tensor_complex(c, c)
    assert check(t2).ok
    assert all(v == 0 for v in betti_numbers(t2).values())


def test_contracting_homotopy_witness():
    c = two_step(3)
    h = contracting_homotopy(c)
    assert h is not None
    # dh + hd = 1 on each degree
    for k in c.support():
        lhs = c.diff(k - 1) * h.comp(k) + h.comp(k + 1) * c.diff(k)
        assert lhs == Mat.eye(c.dim(k))
    # a complex with homology has no contracting homotopy
    assert contracting_homotopy(sphere_like(0)) is None


def test_augmented_and_contractible():
    # Q in degree 0 with the identity augmentation glued at degree 1
    # becomes the contractible two-step complex.
    sp = GradedSpace({0: ["e"]})
    c = Complex(sp, {})
    aug = augmented(c, [F(1)])
    assert check(aug).ok
    assert aug.support() == [0, 1]
    flag, h = is_contractible(c, augmentation=[F(1)])
    assert flag and h is not None
    # complexes reaching above degree 0 cannot be augmented this way
    with pytest.raises(ComplexError):
        augmented(sphere_like(2), [F(1)])


def test_is_weak_equivalence_identity_and_zero():
    rng = random.Random(53)
    c, _ = random_complex(rng)
    rep = is_weak_equivalence(ChainMap.identity(c))
    assert rep.is_equivalence
    assert rep.routes_agree
    # zero map to a complex with homology is not an equivalence
    s = sphere_like(0)
    z = ChainMap(s, s, {0: Mat.zero(1, 1)})
    # the zero endomorphism of Q[0]
    rep2 = is_weak_equivalence(z)
    assert not rep2.is_equivalence


def test_is_weak_equivalence_windowed():
    c = sphere_like(0)
    f = ChainMap.identity(c)
    rep = is_weak_equivalence(f, window=(0, 2))
    assert rep.is_equivalence
    assert rep.window == (0, 2)


def _class_dropping_map(rng, a):
    """a (+) Q[k] -> a, the identity on a and zero on the extra class: H^k of it
    drops one class, every other H^j is the identity."""
    sup = a.support()
    k = rng.randint(min(sup, default=0) - 1, max(sup, default=0) + 1)
    src = direct_sum(a, sphere_like(k))
    comps = {m: Mat.eye(a.dim(m)).hstack(Mat.zero(a.dim(m), src.dim(m) - a.dim(m)))
             for m in src.support() if a.dim(m)}
    return ChainMap(src, a, comps)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_route_equals_the_class_route_on_random_maps(seed):
    # iso[k] read from ranks is the HomologySpace / induced_on_homology verdict,
    # degree by degree, on the full support and on a window inside it
    rng = random.Random(seed)
    a, b, f = _random_map(seed)
    maps = [f, ChainMap(a, b, {}), ChainMap.identity(a), random_chain_map(rng, a, a),
            _class_dropping_map(rng, a)]
    for g in maps:
        sup = sorted(set(g.source.support()) | set(g.target.support()))
        for window in (None, (min(sup, default=0), max(sup, default=0) + 1)):
            rep, want = is_weak_equivalence(g, window), oracle_weak_equivalence(g, window)
            for field in fields(WeakEquivalenceReport):
                assert getattr(rep, field.name) == getattr(want, field.name), field.name
    assert is_weak_equivalence(maps[2]).is_equivalence
    assert not is_weak_equivalence(maps[4]).is_equivalence


def _reference_classes(c, k):
    """Representatives and coords built in three eliminations: the cycles, the
    pivot columns of d_(k-1), then the rref of [those columns | the cycles]."""
    n = c.dim(k)
    d_in = c.diff(k - 1)
    cycles = c.diff(k).nullspace() if n else []
    _, piv_in = d_in.rref()
    bounds = d_in.transpose().select_rows(piv_in)
    stacked = bounds.vstack(Mat(len(cycles), n, cycles))
    _, piv = stacked.transpose().rref()
    reps = [cycles[j - bounds.m] for j in piv if j >= bounds.m]
    decomp = stacked.select_rows(piv).transpose()
    return cycles, reps, lambda vec: decomp.solve(list(vec))[bounds.m:]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_betti_against_oracle(seed):
    c, expected = random_complex(random.Random(seed))
    sup = c.support()
    lo, hi = (min(sup) - 1, max(sup) + 1) if sup else (-1, 1)
    got = betti_numbers(c, (lo, hi))
    orc = oracle_betti(c)
    assert list(got) == list(range(lo, hi + 1))
    for k in got:
        hs = HomologySpace(c, k)
        assert got[k] == hs.betti == orc.get(k, 0) == expected.get(k, 0)
        # minimal-model output is written from these vectors
        cycles, reps, ref_coords = _reference_classes(c, k)
        assert hs.representatives == reps
        for z in cycles:
            assert hs.coords(z) == ref_coords(z)
    # the default window is the span of the support
    assert betti_numbers(c) == {k: got[k] for k in range(lo + 1, hi) if sup}


# -- explicit homotopies of the cylinder and the cone ----------------------------------


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cylinder_and_cone_witnesses_agree_with_the_two_routes(seed):
    # f is any chain map and the zero map seldom a weak equivalence, yet the
    # projection of either cylinder always is, and every cone is acyclic
    a, b, f = _random_map(seed)
    zero = ChainMap(a, b, {})
    if any(betti_numbers(a).values()) or any(betti_numbers(b).values()):
        assert not is_weak_equivalence(zero)
    for g in (f, zero):
        data = mapping_cylinder(g)
        h = data.retraction
        assert (h.degree, h.source, h.target) == (-1, data.cylinder, data.cylinder)
        assert is_weak_equivalence(data.project).is_equivalence
    for c in (a, b):
        h = cone_contraction(c)
        assert (h.degree, h.source) == (-1, cone(c))
        assert is_contractible(cone(c))[0]


def _flipped(h, k):
    """h with its degree-k component negated."""
    return GradedMap(h.source, h.target, h.degree,
                     {m: comp.scale(-1) if m == k else comp for m, comp in h.comps.items()})


def test_a_flipped_sign_in_either_homotopy_fails_the_check():
    rng = random.Random(59)
    for _ in range(10):
        a, b, f = _random_map(rng.randrange(2**32))
        data = mapping_cylinder(f)
        h, ip = data.retraction, data.include_target.compose(data.project)
        for k in h.comps:
            with pytest.raises(InternalCheckError, match="failed verification at degree"):
                check_homotopy(_flipped(h, k), ip)
        h = cone_contraction(a)
        for k in h.comps:
            with pytest.raises(InternalCheckError, match="failed verification at degree"):
                check_homotopy(_flipped(h, k))
        # nor does the zero homotopy contract a nonzero cone
        if a.support():
            with pytest.raises(InternalCheckError):
                check_homotopy(GradedMap(h.source, h.source, -1, {}))


def test_a_flipped_identity_block_fails_the_witnesses():
    rng = random.Random(61)
    for _ in range(10):
        a, b, f = _random_map(rng.randrange(2**32))
        if not a.support():
            continue
        data = mapping_cylinder(f)
        bad = replace(data, cylinder=with_identity_block_negated(data.cylinder, a))
        with pytest.raises(InternalCheckError, match="cylinder retraction failed"):
            bad.retraction
        with pytest.raises(InternalCheckError, match="cone contraction failed"):
            cone_contraction(a, with_identity_block_negated(cone(a), a))
