from collections import Counter
from fractions import Fraction as F
import inspect
from math import prod
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cdga import (
    AlgebraPresentation,
    ModulePresentation,
    bar_construction,
    bar_slice,
    betti_numbers,
    enveloping_dims,
    free_gc_dims,
    free_gc_dims_from_counts,
    free_graded_lie,
    is_contractible,
    tensor_algebra_dims,
)
from cdga import free
from cdga.complexes import InternalCheckError
from cdga.graded import GradedError, lie_violation
from cdga.linalg import SparseEliminator
from cdga.poly import Generators, basis_keys
from helpers import gc_series_per_generator, oracle_free_lie_dims


def test_tensor_algebra_dims_fibonacci():
    # one generator in degree 1 and one in degree 2: compositions of n
    # from parts {1, 2} are counted by Fibonacci numbers
    dims = tensor_algebra_dims([("a", 1), ("b", 2)], 8)
    assert [dims.get(k, 0) for k in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_tensor_algebra_dims_single():
    dims = tensor_algebra_dims([("a", 3)], 9)
    assert [dims.get(k, 0) for k in range(10)] == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_free_gc_dims_even_and_odd():
    # odd generator: exterior, dims 1 in degrees 0 and 3
    d = free_gc_dims([("e", 3)], 8)
    assert [d.get(k, 0) for k in range(9)] == [1, 0, 0, 1, 0, 0, 0, 0, 0]
    # even generator: polynomial, dims 1 in degrees 0, 2, 4, ...
    d2 = free_gc_dims([("x", 2)], 8)
    assert [d2.get(k, 0) for k in range(9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    # frozen oracle for the pair
    d3 = free_gc_dims([("x", 2), ("e", 3)], 8)
    assert [d3.get(k, 0) for k in range(9)] == [1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_free_gc_dims_from_counts_matches():
    gens = [("a", 1), ("b", 2), ("c", 2)]
    d1 = free_gc_dims(gens, 6)
    d2 = free_gc_dims_from_counts({1: 1, 2: 2}, 6)
    assert d1 == d2


def _compositions(k, parts):
    """Every ordered sequence of parts summing to k."""
    if k == 0:
        yield ()
    for d in parts:
        if d <= k:
            for rest in _compositions(k - d, parts):
                yield (d,) + rest


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(min_value=1, max_value=6), max_size=5),
       st.integers(min_value=0, max_value=12))
def test_generating_series_match_brute_force_counts(degrees, n):
    gens = [("g%d" % i, d) for i, d in enumerate(degrees)]
    counts = Counter(degrees)
    gc = free_gc_dims(gens, n)
    tensor = tensor_algebra_dims(gens, n)
    assert sorted(gc) == sorted(tensor) == list(range(n + 1))
    for k in range(n + 1):
        assert gc[k] == len(basis_keys(Generators(gens), k))
        # a word is a sequence of letter degrees and a choice of letter for each
        words = sum(prod(counts[d] for d in seq) for seq in _compositions(k, sorted(counts)))
        assert tensor[k] == words
    assert free_gc_dims_from_counts(counts, n) == gc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.dictionaries(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=40),
                       max_size=4),
       st.integers(min_value=-1, max_value=30))
@example({1: 1}, -1)
def test_generating_series_match_one_pass_per_generator(counts, n):
    # many generators of one degree take one product with a binomial series;
    # the series has the degrees 0..n and nothing else, so none when n < 0
    series = free_gc_dims_from_counts(counts, n)
    assert series == gc_series_per_generator(counts, n)
    assert sorted(series) == list(range(n + 1))


def test_free_functors_reject_nonpositive_degrees():
    for call in (lambda: free_gc_dims([("a", 1), ("z", 0)], 4),
                 lambda: free_gc_dims_from_counts({-1: 2}, 4),
                 lambda: tensor_algebra_dims([("z", 0)], 4),
                 lambda: free_graded_lie([("z", -2)], 4)):
        with pytest.raises(GradedError, match="free functors need degree >= 1"):
            call()


def test_lie_violation_catches_odd_x_with_nonzero_x_x_x():
    # degrees [1, 2, 3]: [x,x] = y, [x,y] = z = -[y,x] is graded antisymmetric,
    # but for odd x Jacobi forces [x,[x,x]] = 0, and here it is z
    table = {(0, 0): {1: F(1)}, (0, 1): {2: F(1)}, (1, 0): {2: F(-1)}}
    assert lie_violation([1, 2, 3], lambda i, j: table.get((i, j), {}), 3) == (0, 0, 0)
    # with [x,y] = 0 it is a graded Lie algebra; on an even x, [x,x] = y breaks antisymmetry
    del table[(0, 1)], table[(1, 0)]
    assert lie_violation([1, 2, 3], lambda i, j: table.get((i, j), {}), 3) is None
    assert lie_violation([2, 4], lambda i, j: table.get((i, j), {}), 4) == (0, 0)


def test_free_graded_lie_single_odd_generator():
    L = free_graded_lie([("e", 1)], 6)
    dims = L.dims()
    # e and [e, e]; triple brackets vanish by Jacobi for one odd generator
    assert [dims.get(k, 0) for k in range(1, 7)] == [1, 1, 0, 0, 0, 0]
    assert L.verify_axioms() is True


def test_free_graded_lie_two_odd_generators():
    L = free_graded_lie([("a", 1), ("b", 1)], 4)
    dims = L.dims()
    assert dims[1] == 2
    # [a,a], [a,b], [b,b]
    assert dims[2] == 3
    assert L.verify_axioms() is True


def test_free_graded_lie_single_even_generator():
    L = free_graded_lie([("x", 2)], 8)
    dims = L.dims()
    # an even generator has [x, x] = 0, and nothing else
    assert [dims.get(k, 0) for k in range(1, 9)] == [0, 1, 0, 0, 0, 0, 0, 0]
    assert L.verify_axioms() is True


def test_free_graded_lie_mixed_parity_generators():
    L = free_graded_lie([("a", 1), ("x", 2)], 5)
    assert L.verify_axioms() is True
    # verify_axioms reads the bracket table: one negated entry is caught
    pair = next(p for p, combo in L._brackets.items() if combo)
    L._brackets[pair] = {k: -c for k, c in L._brackets[pair].items()}
    assert L.verify_axioms() is False


def test_enveloping_dims_is_pbw():
    for gens in [[("a", 1)], [("x", 2)], [("a", 1), ("b", 1)], [("a", 1), ("x", 2)]]:
        L = free_graded_lie(gens, 6)
        assert enveloping_dims(L, 6) == tensor_algebra_dims(gens, 6)


def test_enveloping_dims_refuses_a_degree_above_the_lie_bound():
    # L built through degree 2 lacks L_3 and L_4, so U(L) there would read 6
    # and 9 where T(V) on two degree-1 generators has 8 and 16
    L = free_graded_lie([("a", 1), ("b", 1)], 2)
    assert enveloping_dims(L, 2) == tensor_algebra_dims([("a", 1), ("b", 1)], 2)
    with pytest.raises(GradedError, match="^enveloping degree 4 lies beyond the bound 2$"):
        enveloping_dims(L, 4)


def _lie_generators(degrees):
    """Generators g0, g1, ... of these degrees, and a top degree: 8, lowered
    until the tensor algebra has at most 256 words there, so a run stays short."""
    gens = [("g%d" % i, d) for i, d in enumerate(degrees)]
    n = 8
    while tensor_algebra_dims(gens, n)[n] > 256:
        n -= 1
    return gens, n


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_free_graded_lie_right_normed_brackets_span(degrees):
    # the brackets [g, y] of a generator g with a basis element y span each
    # degree (PBW: U(L) = T(V)), and degree k tries exactly sum_g dim L_(k-|g|)
    # of them, less the zero [g, g] of each even g, plus its generators.  The
    # basis is eliminated when first read, so it is read under the spy
    gens, n = _lie_generators(degrees)
    add, tried = SparseEliminator.add, Counter()

    def spy(self, vec, tag=None):
        tried[id(self)] += 1
        return add(self, vec, tag)

    L = free_graded_lie(gens, n)
    with mock.patch.object(SparseEliminator, "add", spy):
        L.basis
    dims = L.dims()
    assert enveloping_dims(L, n) == tensor_algebra_dims(gens, n)
    assert L.verify_axioms() is True
    assert all(type(c) is int for e in L.basis for c in e.vector.values())
    for k in range(1, n + 1):
        want = (sum(d == k for d in degrees) + sum(dims.get(k - d, 0) for d in degrees)
                - sum(2 * d == k and d % 2 == 0 for d in degrees))
        assert (tried[id(L._elim[k])] if k in L._elim else 0) == want, k


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_free_lie_dims_are_counted_without_elimination(degrees):
    # the super-Lyndon count equals the PBW oracle and, once the basis is read,
    # its size per degree; the count itself adds nothing to an eliminator
    gens, n = _lie_generators(degrees)
    with mock.patch.object(SparseEliminator, "add", side_effect=AssertionError):
        L = free_graded_lie(gens, n)
        dims = L.dims()
    assert "basis" not in vars(L)
    assert dims == oracle_free_lie_dims(degrees, n)
    built = Counter(e.degree for e in L.basis)
    assert dims == {k: built[k] for k in range(1, n + 1)}
    # and with more room above, the counts of degrees <= n do not move
    assert {k: v for k, v in free_graded_lie(gens, n + 3).dims().items() if k <= n} == dims


def _mutant_count(old, new):
    """free._super_lyndon_counts with one line of its source replaced."""
    source = inspect.getsource(free._super_lyndon_counts)
    assert old in source
    namespace = {}
    exec(source.replace(old, new), vars(free).copy(), namespace)
    return namespace["_super_lyndon_counts"]


@pytest.mark.parametrize("old, new", [
    ("counts[2 * k] += 1", "pass"),  # drop [P_w, P_w] of each odd Lyndon word w
    ("if period == t + 1:", "if True:"),  # count every prenecklace
])
@pytest.mark.parametrize("degrees", [(1,), (1, 1), (1, 2), (3,), (2, 3)])
def test_free_lie_count_mutants_fail_the_pbw_cross_check(monkeypatch, old, new, degrees):
    n = 8
    monkeypatch.setattr(free, "_super_lyndon_counts", _mutant_count(old, new))
    with pytest.raises(InternalCheckError, match="differ from the PBW ranks"):
        free_graded_lie([("g%d" % i, d) for i, d in enumerate(degrees)], n)


def test_pbw_inversion_refuses_a_negative_rank():
    # 1 + 2t: two odd generators of degree 1 give (1 + t)^2 = 1 + 2t + t^2,
    # so the rank at t^2 would be 0 - 1 = -1
    with pytest.raises(GradedError, match="needs -1 generators"):
        free._gc_ranks([1, 2, 0], 2)
    assert free._gc_ranks([1, 2, 1], 2) == {1: 2, 2: 0}
    assert free._gc_ranks(free._gc_series({1: 2, 2: 5, 3: 1}, 7), 7) == {
        1: 2, 2: 5, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0}


def test_free_lie_dims_hand_examples():
    # one odd generator: x and [x, x]; one even generator: x alone; (a1, b1):
    # pi_(k+1) of S^2 v S^2 in degrees 1..5 (docs/oracles.md)
    assert free_graded_lie([("x", 1)], 5).dims() == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    assert free_graded_lie([("x", 4)], 9).dims() == {k: int(k == 4) for k in range(1, 10)}
    ab = free_graded_lie([("a", 1), ("b", 1)], 5).dims()
    assert ab == {1: 2, 2: 3, 3: 2, 4: 3, 5: 6}
    assert free_graded_lie([], 4).dims() == {1: 0, 2: 0, 3: 0, 4: 0}


def test_free_lie_dims_to_degree_sixteen_inside_a_timeout():
    script = "from cdga import free_graded_lie; print(list(free_graded_lie([('a', 1), ('b', 1)], 16).dims().values()))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("[2, 3, 2, 3, 6, 11, 18, 30, 56, 105, 186, 335, 630, 1179, "
                           "2182, 4080]\n")


def test_algebra_presentation_exterior():
    A = AlgebraPresentation.exterior("e", 1)
    # elements: 1 (degree 0) and e (degree 1); e*e = 0
    assert len(A.elements) == 2
    assert A.product(1, 1) == {}
    assert A.product(0, 1) == {1: F(1)}


def test_algebra_presentation_truncated_polynomial():
    A = AlgebraPresentation.truncated_polynomial("x", 2, 3)
    # 1, x, x^2, x^3; x^4 = 0
    assert len(A.elements) == 4
    assert A.product(1, 1) == {2: F(1)}
    assert A.product(1, 2) == {3: F(1)}
    assert A.product(1, 3) == {}
    assert A.product(2, 2) == {}


def test_algebra_presentation_rejects_nonassociative():
    # fabricate a non-associative product on 1, u, v:
    # u*u = v, u*v = u (then (uu)v != u(uv) style failures appear)
    with pytest.raises(GradedError):
        AlgebraPresentation(
            [("one", 0), ("u", 2), ("v", 4)],
            {(1, 1): {2: F(1)}, (1, 2): {1: F(1)}, (2, 1): {1: F(1)}, (2, 2): {}},
        )


def test_module_presentation_rejects_a_non_associative_action():
    # x.m0 = m1 and x^2.m0 = m2, but x.m1 = 0: (x x).m0 = m2 != 0 = x.(x.m0)
    A = AlgebraPresentation.truncated_polynomial("x", 2, 2)
    elements = [("m0", 0), ("m1", 2), ("m2", 4)]
    with pytest.raises(GradedError, match=r"\(a,b,m\) = \(1,1,0\)"):
        ModulePresentation(A, elements, {(1, 0): {1: 1}, (2, 0): {2: 1}, (1, 1): {}})
    # with x.m1 = m2 it is the regular module, and its bar slices are contractible
    M = ModulePresentation(A, elements, {(1, 0): {1: 1}, (2, 0): {2: 1}, (1, 1): {2: 1}})
    for w in range(1, 7):
        assert is_contractible(bar_slice(A, M, w))[0]


@pytest.mark.parametrize("entry", [
    {(1, 5): {}}, {(1, -1): {}}, {(5, 1): {}}, {(1, 1): {7: 1}}, {(1, 1): {-1: 1}},
], ids=["right-5", "right-minus1", "left-5", "term-7", "term-minus1"])
def test_algebra_presentation_rejects_an_index_outside_the_basis(entry):
    # out of range used to raise a bare IndexError, negative to wrap silently
    with pytest.raises(GradedError, match="outside the basis"):
        AlgebraPresentation([("1", 0), ("e", 1)], entry)


@pytest.mark.parametrize("entry", [{(0, 1): {1: 5}}, {(1, 0): {1: 5}}, {(0, 0): {}}],
                         ids=["unit-left", "unit-right", "unit-unit"])
def test_algebra_presentation_rejects_an_entry_on_the_unit(entry):
    # products with the unit are fixed; such an entry used to be accepted and ignored
    with pytest.raises(GradedError, match="with the unit"):
        AlgebraPresentation([("1", 0), ("e", 1)], entry)


def test_module_presentation_rejects_an_action_of_the_unit():
    # claims 1.m0 = 5 n0 (degrees agree); it used to be accepted and ignored
    A = AlgebraPresentation.exterior("e", 1)
    with pytest.raises(GradedError, match="with the unit"):
        ModulePresentation(A, [("m0", 0), ("n0", 0)], {(0, 0): {1: 5}})
    elements = [("m0", 0), ("m1", 1)]
    with pytest.raises(GradedError, match="outside the basis"):
        ModulePresentation(A, elements, {(1, 2): {}})
    # module element 0 is no unit: an action on it is an ordinary entry
    M = ModulePresentation(A, elements, {(1, 0): {1: 1}})
    assert M.act(1, 0) == {1: F(1)}


def test_bar_slice_exterior_tor():
    # one exterior generator in degree 1, trivial module: one Tor class
    # per word length, in internal degree w at complex degree -w
    A = AlgebraPresentation.exterior("e", 1)
    triv = ModulePresentation.trivial(A)
    for w in range(1, 6):
        c = bar_slice(A, triv, w)
        assert betti_numbers(c) == {-w: 1}


def test_bar_slice_exterior_higher_degree_generator():
    # degree-3 odd generator: Tor classes at internal degrees 3w
    A = AlgebraPresentation.exterior("e", 3)
    triv = ModulePresentation.trivial(A)
    for w in range(1, 10):
        c = bar_slice(A, triv, w)
        b = betti_numbers(c)
        if w % 3 == 0:
            assert b == {-(w // 3): 1}
        else:
            assert all(v == 0 for v in b.values())


def test_bar_regular_module_is_contractible():
    A = AlgebraPresentation.truncated_polynomial("x", 2, 4)
    reg = ModulePresentation.regular(A)
    for w in range(1, 9):
        c = bar_slice(A, reg, w)
        if not c.support():
            continue
        flag, h = is_contractible(c)
        assert flag and h is not None


def test_bar_construction_dict():
    A = AlgebraPresentation.exterior("e", 1)
    triv = ModulePresentation.trivial(A)
    out = bar_construction(A, triv, 3)
    assert set(out) == {0, 1, 2, 3}
    assert betti_numbers(out[2]) == {-2: 1}


def test_truncated_polynomial_tor_pattern():
    # x^2 = 0 on an even degree-2 generator: one Tor class per word
    # length, at internal degree 2s (the divided-power pattern)
    A = AlgebraPresentation.truncated_polynomial("x", 2, 1)
    triv = ModulePresentation.trivial(A)
    for s_len in range(1, 5):
        c = bar_slice(A, triv, 2 * s_len)
        assert betti_numbers(c) == {-s_len: 1}


def test_truncated_polynomial_cubic_tor_pattern():
    # x^3 = 0: Tor classes at (s, w) generated by y (1, 2) and z (2, 6)
    A = AlgebraPresentation.truncated_polynomial("x", 2, 2)
    triv = ModulePresentation.trivial(A)
    expected = {2: {-1: 1}, 4: {}, 6: {-2: 1}, 8: {-3: 1}}
    for w, want in expected.items():
        c = bar_slice(A, triv, w)
        got = {k: v for k, v in betti_numbers(c).items() if v}
        assert got == want
