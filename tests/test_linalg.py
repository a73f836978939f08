import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cdga import (
    AlgebraPresentation,
    GradedChainData,
    Generators,
    LieData,
    Mat,
    ModulePresentation,
    Polynomial,
    SparseEliminator,
    block_matrix,
    integrate_homotopy,
    weil_algebra,
)
from cdga.poly import normalize_factors

from helpers import oracle_rank, mat_rows, random_unimodular
import random


def test_construction_and_indexing():
    m = Mat.from_dicts(2, 3, [{}, {2: F(5)}])
    assert (m.m, m.n) == (2, 3)
    assert m[(1, 2)] == 5
    e = Mat.eye(3)
    assert e * e == e
    r = Mat.from_rows([[1, 2], [3, 4]])
    assert r[(1, 0)] == 3


def test_row_and_column_indices_are_checked():
    m = Mat.from_rows([[1, 2], [3, 4]])
    for ij, what in (((-1, 0), "row -1"), ((2, 0), "row 2"), ((0, -1), "column -1"), ((0, 2), "column 2")):
        with pytest.raises(IndexError, match=what + " out of range"):
            m[ij]
    assert m == Mat.from_rows([[1, 2], [3, 4]])


def test_a_matrix_refuses_item_assignment():
    m = Mat.from_rows([[1, 2], [3, 4]])
    for ij in ((0, 0), (-1, 0), (2, 0)):
        with pytest.raises(TypeError):
            m[ij] = 5
    assert m == Mat.from_rows([[1, 2], [3, 4]])
    # so a cached operator matrix cannot be changed by the caller it is handed to
    from cdga import FreeCDGA, Generators, Polynomial

    gens = Generators([("x", 2), ("y", 3)])
    a = FreeCDGA(gens, {"y": Polynomial.generator(gens, "x") * Polynomial.generator(gens, "x")}, truncation=8)
    d3 = a.d_matrix(3)
    with pytest.raises(TypeError):
        d3[0, 0] = 5
    assert a.d_matrix(3) is d3 and d3 == Mat.from_rows([[1]])
    assert a.to_complex((0, 8)).diff(3) == Mat.from_rows([[1]])


def test_select_rows_checks_row_indices_and_keeps_none_as_a_zero_row():
    m = Mat.from_rows([[1, 0], [0, 2]])
    for i in (-1, 2):
        with pytest.raises(IndexError, match="row %d out of range" % i):
            m.select_rows([0, i])
    assert m.select_rows([1, None, 0]) == Mat.from_rows([[0, 2], [0, 0], [1, 0]])
    assert Mat.zero(2, 0).select_rows([None, 1]) == Mat.zero(2, 0)


def test_from_int_rows_puts_integer_rows_over_one_denominator():
    m = Mat.from_int_rows(3, 3, [{0: 4, 2: -6}, {}, {1: 3}], 12)
    assert m == Mat.from_rows([[F(1, 3), 0, F(-1, 2)], [0, 0, 0], [0, F(1, 4), 0]])
    assert hash(m) == hash(Mat.from_rows(m.rows))
    for rows, D in (([{3: 1}, {}, {}], 1), ([{}], 1), ([{0: 1}, {}, {}], 0), ([{0: 1}, {}, {}], -2)):
        with pytest.raises(ValueError):
            Mat.from_int_rows(3, 3, rows, D)


def test_floats_are_refused_wherever_entries_come_in():
    m = Mat.eye(1)
    attempts = [
        lambda: Mat(1, 1, [[0.1]]),
        lambda: Mat.from_dicts(1, 1, [{0: 0.1}]),
        lambda: m.scale(0.1),
        lambda: m.apply([0.1]),
    ]
    for attempt in attempts:
        with pytest.raises(TypeError, match=r"0\.1"):
            attempt()
    assert m == Mat.eye(1)
    assert Mat(1, 2, [["1/10", F(1, 10)]]).rows == [[F(1, 10), F(1, 10)]]


GENS = Generators([("x", 2), ("y", 3)])
X = Polynomial.generator(GENS, "x")
EXTERIOR = AlgebraPresentation.exterior()
FLOAT_ENTRY_POINTS = {
    "LieData bracket": lambda: LieData(["x", "y"], {(0, 1): {1: 0.1}}),
    "Polynomial terms": lambda: Polynomial(GENS, {((0, 1),): 0.1}),
    "Polynomial.scale": lambda: X.scale(0.1),
    "Polynomial times a float": lambda: X * 0.1,
    "a float times a Polynomial": lambda: 0.1 * X,
    "normalize_factors": lambda: normalize_factors(GENS, [(0, 1)], 0.1),
    "Polynomial.monomial": lambda: Polynomial.monomial(GENS, [(0, 1)], 0.1),
    "GradedChainData boundary": lambda: GradedChainData([("v", 1), ("w", 2)], {"v": {"w": 0.1}}),
    "GradedChainData cobracket": lambda: GradedChainData(
        [("v", 1), ("a", 1), ("b", 1)], cobracket={"v": [("a", "b", 0.1)]}),
    "integrate_homotopy coefficients": lambda: integrate_homotopy(
        weil_algebra(LieData.solvable2()), [0, 0.1], (0, 2)),
    "AlgebraPresentation table": lambda: AlgebraPresentation(
        [("1", 0), ("x", 2), ("x^2", 4)], {(1, 1): {2: 0.1}}),
    "ModulePresentation table": lambda: ModulePresentation(
        EXTERIOR, [("m", 0), ("n", 1)], {(1, 0): {1: 0.1}}),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_floats_are_refused_at_every_exact_entry_point(name):
    # as for matrix entries: 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match=r"0\.1 is a float; exact input takes int, Fraction or 'p/q'"):
        FLOAT_ENTRY_POINTS[name]()


def test_exact_entry_points_still_take_ints_fractions_and_strings():
    lie = LieData(["x", "y"], {(0, 1): {1: "1/10"}})
    assert lie.c(0, 1, 1) == F(1, 10)
    assert X * F(1, 10) == X.scale("1/10") == Polynomial(GENS, {((0, 1),): "1/10"})
    assert 2 * X == X * 2 == X + X
    assert normalize_factors(GENS, [(0, 1)], "1/10") == (F(1, 10), ((0, 1),))


def test_entries_are_exactly_fractions_whatever_the_input():
    m = Mat(2, 3, [[1, "3/4", F(5, 2)], [F(-1), "-7", 0]])
    assert all(type(x) is F for r in m.rows for x in r)
    assert m.rows == [[F(1), F(3, 4), F(5, 2)], [F(-1), F(-7), F(0)]]


def test_construction_copies_the_input_rows():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    m = Mat(2, 2, rows)
    rows[0][0] = F(9)
    rows[1].append(F(5))
    assert m.rows == [[F(1), F(2)], [F(3), F(4)]]
    assert m.rows[0] is not rows[0]


def test_fraction_subclass_entries_are_coerced():
    class Half(F):
        pass

    m = Mat(1, 1, [[Half(1, 2)]])
    assert type(m[(0, 0)]) is F and m[(0, 0)] == F(1, 2)


def test_arithmetic():
    a = Mat.from_rows([[1, 2], [3, 4]])
    b = Mat.from_rows([[0, 1], [1, 0]])
    assert a + b - b == a
    assert (a.scale(F(1, 2)))[(0, 1)] == 1
    assert (a * b) == Mat.from_rows([[2, 1], [4, 3]])
    assert a.apply([F(1), F(0)]) == [F(1), F(3)]
    assert a.transpose()[(0, 1)] == 3
    assert (-a + a).is_zero()


def test_rank_rref_nullspace_solve():
    a = Mat.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert a.rank() == 2
    _, pivots = a.rref()
    assert pivots == [0, 1]
    ns = a.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert a.apply(v) == [F(0)] * 3
    b = [F(6), F(12), F(2)]
    x = a.solve(b)
    assert x is not None and a.apply(x) == b
    assert a.solve([F(1), F(0), F(0)]) is None
    # the forward pass leaves a 1 above the second pivot; back-substitution clears it
    r, pivots = Mat.from_rows([[1, 1, 1], [0, 1, 1]]).rref()
    assert r == Mat.from_rows([[1, 0, 0], [0, 1, 1]]) and pivots == [0, 1]


def test_solve_matrix_rejects_one_inconsistent_column():
    a = Mat.from_rows([[1, 0], [0, 0]])
    assert a.solve_matrix(Mat.from_rows([[1, 2], [0, 1]])) is None
    b = Mat.from_rows([[1, 2], [0, 0]])
    assert a * a.solve_matrix(b) == b


def test_empty_shapes():
    wide = Mat.zero(0, 3)
    assert wide.rank() == 0
    assert wide.nullspace() == [[F(int(i == j)) for i in range(3)] for j in range(3)]
    assert wide.solve([]) == [F(0)] * 3
    tall = Mat.zero(2, 0)
    assert tall.rank() == 0
    assert tall.nullspace() == []
    assert tall.solve([F(0), F(0)]) == []
    assert tall.solve([F(1), F(0)]) is None
    for a in (wide, tall):
        with pytest.raises(ValueError):
            a.det()


def test_det_of_permutation_matrices_is_their_sign():
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        p = Mat.from_rows([[int(perm[i] == j) for j in range(4)] for i in range(4)])
        assert p.det() == (-1) ** inversions


def test_inverse_and_det():
    a = Mat.from_rows([[2, 1], [1, 1]])
    assert a.inv() * a == Mat.eye(2)
    assert a.det() == 1
    assert Mat.from_rows([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2], [2, 4]]).inv()
    assert Mat.eye(0).det() == 1
    assert Mat.eye(0).inv() == Mat.eye(0)


def test_rank_matches_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        a = Mat(m, n, [[F(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(n)] for i in range(m)])
        assert a.rank() == oracle_rank(mat_rows(a))


@st.composite
def sparse_rational_matrices(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5))
    zero_tenths = draw(st.sampled_from([0, 5, 8, 10]))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    rows = [[F(0) if draw(st.integers(0, 9)) < zero_tenths else draw(entry) for _ in range(n)]
            for _ in range(m)]
    return Mat(m, n, rows)


@settings(derandomize=True, deadline=None)
@given(sparse_rational_matrices(), st.randoms(use_true_random=False))
def test_elimination_properties_on_random_sparse_matrices(a, rng):
    r = a.rank()
    assert r == oracle_rank(mat_rows(a))
    kernel = a.nullspace()
    assert len(kernel) == a.n - r
    assert all(a.apply(v) == [F(0)] * a.m for v in kernel)
    u = random_unimodular(rng, a.m)
    assert (u * a).rref() == a.rref()
    # one forward elimination finds the rref's pivot columns
    assert a.pivots() == a.rref()[1] and len(a.pivots()) == r
    if a.m == a.n:
        assert (u * a).det() == a.det()


def test_block_matrix():
    a = Mat.eye(2)
    b = Mat.from_rows([[7]])
    m = block_matrix([[a, None], [None, b]], [2, 1], [2, 1])
    assert m[(0, 0)] == 1 and m[(2, 2)] == 7 and m[(0, 2)] == 0


def test_hstack_vstack():
    a = Mat.eye(2)
    b = Mat.zero(2, 1)
    assert a.hstack(b).n == 3
    assert a.vstack(Mat.zero(1, 2)).m == 3


def test_unimodular_has_unit_determinant():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        assert random_unimodular(rng, n).det() == 1


def test_sparse_eliminator_express():
    e = SparseEliminator()
    assert e.add({"x": F(1)}, "first") == "first"
    assert e.add({"x": F(2)}, "dup") is None  # dependent, not inserted
    assert e.add({"y": F(1), "x": F(1)}, "second") == "second"
    combo = e.express({"x": F(3), "y": F(1)})
    assert combo is not None
    got = {}
    for tag, coeff in combo.items():
        got[tag] = coeff
    assert got == {"first": F(2), "second": F(1)}
    assert e.express({"z": F(1)}) is None
    assert e.rank == 2


# -- the sparse storage against plain list-of-lists reference code --------------------


def ref_mul(a, b, p):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0)) for j in range(p)] for row in a]


def ref_transpose(a, n):
    return [[row[j] for row in a] for j in range(n)]


def ref_rref(a, n):
    rows = [r[:] for r in a]
    pivots = []
    for c in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def ref_inv(a, n):
    """Inverse by Gauss-Jordan on [a | I], or None when a is singular."""
    aug = [row + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = ref_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


# signed nonzero rationals with numerators and denominators up to 10**6
NONZERO = st.builds(
    lambda num, den, neg: F(-num if neg else num, den),
    st.integers(1, 10**6), st.integers(1, 10**6), st.booleans(),
)


@st.composite
def dense_rows(draw, m, n):
    """m x n rows of Fractions: a drawn density in tenths, from 0 to 1, with
    signed entries whose numerators and denominators go up to 10**6."""
    tenths = draw(st.integers(0, 10))
    return [[draw(NONZERO) if draw(st.integers(0, 9)) < tenths else F(0) for _ in range(n)]
            for _ in range(m)]


def stores_only_nonzero_fractions(mat):
    return all(type(x) is F and x != 0 for _, _, x in mat.items())


def matches_reference(got, shape, want):
    """got has the shape and the dense rows of the reference, and equals (with
    the same hash) the Mat built from them; == and hash compare the stored
    canonical rows, so a row left over a non-reduced denominator fails."""
    ref = Mat(*shape, want)
    return ((got.m, got.n) == shape and got.rows == want and got == ref and hash(got) == hash(ref)
            and stores_only_nonzero_fractions(got))


def ref_solve(a, b, n, q):
    """One solution X of a X = b with the free coordinates zero, or None."""
    rows, pivots = ref_rref([r + t for r, t in zip(a, b)], n + q)
    if pivots and pivots[-1] >= n:
        return None
    x = [[F(0)] * q for _ in range(n)]
    for p, row in zip(pivots, rows):
        x[p] = row[n:]
    return x


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_sparse_operations_match_list_reference(data):
    m, n, p, q = (data.draw(st.integers(0, 5)) for _ in range(4))
    a, b = data.draw(dense_rows(m, n)), data.draw(dense_rows(m, n))
    c, w = data.draw(dense_rows(n, p)), data.draw(dense_rows(m, q))
    s = data.draw(dense_rows(q, n))
    k = data.draw(st.integers(-3, 3))
    v = [x for [x] in data.draw(dense_rows(n, 1))]
    idx = data.draw(st.lists(st.none() | st.integers(0, m - 1) if m else st.none(), max_size=6))
    A, B, C, W, S = Mat(m, n, a), Mat(m, n, b), Mat(n, p, c), Mat(m, q, w), Mat(q, n, s)
    results = {  # name: (result, its shape, the reference rows)
        "A*C": (A * C, (m, p), ref_mul(a, c, p)),
        "A+B": (A + B, (m, n), [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)]),
        "A-B": (A - B, (m, n), [[x - y for x, y in zip(r, t)] for r, t in zip(a, b)]),
        "scale": (A.scale(k), (m, n), [[k * x for x in r] for r in a]),
        "-A": (-A, (m, n), [[-x for x in r] for r in a]),
        "transpose": (A.transpose(), (n, m), ref_transpose(a, n)),
        "hstack": (A.hstack(W), (m, n + q), [r + t for r, t in zip(a, w)]),
        "vstack": (A.vstack(S, B), (2 * m + q, n), a + s + b),
        "block": (
            block_matrix([[A, None], [None, C]], [m, n], [n, p]),
            (m + n, n + p),
            [r + [F(0)] * p for r in a] + [[F(0)] * n + r for r in c],
        ),
        "select_rows": (A.select_rows(idx), (len(idx), n), [[F(0)] * n if i is None else a[i] for i in idx]),
        "solve_matrix": (A.solve_matrix(A * C), (n, p), ref_solve(a, ref_mul(a, c, p), n, p)),
    }
    if m and n:
        i, j, x = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1)), data.draw(NONZERO)
        for value in (x, 0):
            want = [r[:] for r in a]
            want[i][j] = value
            got = Mat.from_dicts(m, n, [dict(enumerate(r)) for r in want])
            results["from_dicts %r" % value] = (got, (m, n), want)
    for name, (got, shape, want) in results.items():
        assert matches_reference(got, shape, want), name
    want = ref_solve(a, w, n, q)
    if want is None:
        assert A.solve_matrix(W) is None
    else:
        assert matches_reference(A.solve_matrix(W), (n, q), want)
    assert A.apply(v) == [sum((x * y for x, y in zip(r, v)), F(0)) for r in a]
    # entries that cancel in the product are not stored
    cancel = A.hstack(A) * C.vstack(C.scale(-1))
    assert cancel == Mat.zero(m, p) and cancel.items() == [] and cancel.is_zero()
    # rref is unique, so it must agree with the reference exactly
    R, pivots = A.rref()
    want, want_pivots = ref_rref(a, n)
    assert matches_reference(R, (m, n), want) and pivots == want_pivots
    # equality and hashing see values, not how the rows were built
    sparse = Mat.from_dicts(m, n, [{j: x for j, x in enumerate(r)} for r in a])
    assert sparse == A and hash(sparse) == hash(A)
    assert (A == B) == (a == b)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_inverse_matches_list_reference(data):
    n = data.draw(st.integers(0, 5))
    a = data.draw(dense_rows(n, n))
    want = ref_inv(a, n)
    if want is None:
        with pytest.raises(ValueError):
            Mat(n, n, a).inv()
    else:
        assert matches_reference(Mat(n, n, a).inv(), (n, n), want)


def test_rows_over_different_denominators_are_stored_reduced():
    # an hstack band: rows over 3 beside rows over 5, and over 6 beside over 4
    left = Mat.from_rows([[F(1, 3), F(2, 3)], [F(1, 6), 0], [0, 0]])
    right = Mat.from_rows([[F(1, 5)], [F(3, 4)], [F(1, 2)]])
    assert matches_reference(left.hstack(right), (3, 3),
                             [[F(1, 3), F(2, 3), F(1, 5)], [F(1, 6), 0, F(3, 4)], [0, 0, F(1, 2)]])
    # transpose: column 0 draws on rows over 2, 3 and 6, column 1 on rows over 1
    rows = [[F(1, 2), 1], [F(1, 3), -1], [F(1, 6), 2]]
    assert matches_reference(Mat.from_rows(rows).transpose(), (2, 3), [list(c) for c in zip(*rows)])
    # solve_matrix: [3, 1 | 3] is primitive with pivot value 3, and its
    # right-hand part 3 shares that factor, so x_0 = 3/3 must be stored as 1/1
    x = Mat.from_rows([[3, 1]]).solve_matrix(Mat.from_rows([[3]]))
    assert matches_reference(x, (2, 1), [[F(1)], [F(0)]])
    # sums, scaling and products whose denominators cancel
    a = Mat.from_rows([[F(1, 6), F(5, 6)], [F(1, 4), F(3, 4)]])
    b = Mat.from_rows([[F(1, 3), F(1, 6)], [F(-1, 4), F(1, 4)]])
    assert matches_reference(a + b, (2, 2), [[F(1, 2), 1], [0, 1]])
    assert matches_reference(a.scale(12), (2, 2), [[2, 10], [3, 9]])
    assert matches_reference(a * Mat.from_rows([[6, 0], [6, 4]]), (2, 2), [[6, F(10, 3)], [6, 3]])


def test_a_zero_entry_is_not_stored():
    assert Mat.from_dicts(2, 3, [{}, {2: F(5, 7)}]) != Mat.zero(2, 3)
    m = Mat.from_dicts(2, 3, [{0: 0}, {2: 0}])
    assert m == Mat.zero(2, 3) and hash(m) == hash(Mat.zero(2, 3))
    assert m.items() == [] and m.is_zero()
    assert Mat(1, 2, [[0, "0"]]) == Mat.from_dicts(1, 2, [{1: F(0)}]) == Mat.zero(1, 2)


def test_product_entries_that_cancel_are_not_stored():
    a = Mat.from_rows([[1, 1], [F(1, 3), F(2, 3)]])
    b = Mat.from_rows([[F(1, 2)], [F(-1, 2)]])
    prod = a * b
    assert prod.items() == [(1, 0, F(-1, 6))]
    assert (a * Mat.from_rows([[1], [-1]]))[(0, 0)] == 0
    assert Mat.from_rows([[1, 1]]) * Mat.from_rows([[1], [-1]]) == Mat.zero(1, 1)


def test_inverse_of_a_singular_matrix_raises():
    for rows in ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0, 0], [0, 0]], [[F(1, 3), F(1, 6)], [2, 1]]):
        with pytest.raises(ValueError):
            Mat.from_rows(rows).inv()


def test_inverse_checks_its_result(monkeypatch):
    # inv verifies G X = I on whatever the solver returns
    g = Mat.from_rows([[2, 1], [1, 1]])
    monkeypatch.setattr(Mat, "solve_matrix", lambda self, rhs: Mat.eye(self.n))
    with pytest.raises(ValueError):
        g.inv()
    assert Mat.eye(2).inv() == Mat.eye(2)


def test_from_dicts_rejects_columns_outside_the_shape():
    with pytest.raises(ValueError):
        Mat.from_dicts(1, 2, [{2: F(1)}])
    with pytest.raises(ValueError):
        Mat.from_dicts(2, 2, [{0: F(1)}])


# -- the integer elimination kernel ---------------------------------------------------


def ref_det(a, n):
    """Determinant by Fraction elimination on plain lists."""
    rows = [r[:] for r in a]
    det = F(1)
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return F(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


@st.composite
def rows_with_repeats(draw, m, n):
    """dense_rows where some rows are copies or rational multiples of earlier ones."""
    rows = draw(dense_rows(m, n))
    for i in range(1, m):
        kind, j = draw(st.integers(0, 3)), draw(st.integers(0, i - 1))
        if kind == 1:
            rows[i] = rows[j][:]
        elif kind == 2:
            c = draw(NONZERO)
            rows[i] = [c * x for x in rows[j]]
    return rows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_elimination_kernel_matches_list_reference(data):
    m, n = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    a = data.draw(rows_with_repeats(m, n))
    A = Mat(m, n, a)
    r = A.rank()
    assert r == oracle_rank(a)
    R, pivots = A.rref()
    want, want_pivots = ref_rref(a, n)
    assert matches_reference(R, (m, n), want) and pivots == want_pivots
    kernel = A.nullspace()
    assert len(kernel) == n - r and all(A.apply(v) == [F(0)] * m for v in kernel)
    x0 = [x for [x] in data.draw(dense_rows(n, 1))]
    x = A.solve(A.apply(x0))
    assert x is not None and A.apply(x) == A.apply(x0)
    if m == n:
        u = random_unimodular(data.draw(st.randoms(use_true_random=False)), n)
        assert A.det() == (u * A).det() == ref_det(a, n)
        want = ref_inv(a, n)
        if want is None:
            with pytest.raises(ValueError):
                A.inv()
        else:
            assert matches_reference(A.inv(), (n, n), want)


# Runs in a fresh interpreter under a timeout, so a kernel whose integers blow
# up fails instead of hanging.  Every (k+1)-minor of the rows put over their own
# denominators is at most H (Hadamard), every primitive row the kernel keeps
# has entries made of such minors, and one update a*v - b*e of two such rows
# stays below 2 H^2; the spy on _cancel records the largest integer it leaves.
GROWTH_GUARD = r"""
import random
import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb, isqrt, lcm
from cdga import Mat, linalg

n = 12
hilbert = Mat(n, n, [[F(1, i + j + 1) for j in range(n)] for i in range(n)])
closed_form = [[(-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1) * comb(n + j, n - i - 1)
                * comb(i + j, i) ** 2 for j in range(n)] for i in range(n)]
assert hilbert.inv() == Mat(n, n, closed_form)

n = 40
rng = random.Random(40)
rows = [[F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)] for _ in range(n)]
H = 1
for r in rows:
    D = lcm(*(x.denominator for x in r))
    H *= isqrt(sum(int(x * D) ** 2 for x in r)) + 1
largest = [0]
cancel = linalg._cancel
def spy(v, e, p):
    out = cancel(v, e, p)
    largest[0] = max([largest[0]] + [abs(x).bit_length() for x in v.values()])
    return out
linalg._cancel = spy
R, pivots = Mat(n, n, rows).rref()
assert R == Mat.eye(n) and pivots == list(range(n))
print(largest[0], H.bit_length())
"""


def test_elimination_coefficients_stay_bounded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", GROWTH_GUARD], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    largest, h_bits = map(int, proc.stdout.split())
    assert largest <= 2 * h_bits + 1


@st.composite
def keyed_vectors(draw):
    """Rational vectors over word keys; some are combinations of earlier ones."""
    keys = draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=6, unique=True))
    vecs = []
    for _ in range(draw(st.integers(0, 8))):
        if vecs and draw(st.booleans()):
            vec = {}
            for w in draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=3)):
                _add_into(vec, draw(NONZERO), w)
        else:
            vec = {k: draw(NONZERO) for k in draw(st.lists(st.sampled_from(keys), unique=True))}
        vecs.append({k: x for k, x in vec.items() if x})
    return keys, vecs


def _add_into(vec, c, w):
    for k, x in w.items():
        vec[k] = vec.get(k, F(0)) + c * x


def _dense(vecs, keys):
    return [[v.get(k, F(0)) for k in keys] for v in vecs]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(keyed_vectors(), st.data())
def test_sparse_eliminator_matches_oracle(keyed, data):
    keys, vecs = keyed
    e = SparseEliminator()
    kept = {}
    for i, v in enumerate(vecs):
        independent = oracle_rank(_dense(list(kept.values()) + [v], keys)) > len(kept)
        assert e.add(v, "v%d" % i) == ("v%d" % i if independent else None)
        if independent:
            kept["v%d" % i] = v
    assert e.rank == len(kept) == oracle_rank(_dense(vecs, keys))
    target = {}
    for v in vecs:
        _add_into(target, data.draw(NONZERO), v)
    probes = [target] + [{k: data.draw(NONZERO) for k in data.draw(st.lists(st.sampled_from(keys)))}
                         for _ in range(3)]
    for w in probes:
        w = {k: x for k, x in w.items() if x}
        combo = e.express(w)
        if oracle_rank(_dense(list(kept.values()) + [w], keys)) > len(kept):
            assert combo is None
            continue
        rebuilt = {}
        for tag, c in combo.items():
            _add_into(rebuilt, c, kept[tag])
        assert {k: x for k, x in rebuilt.items() if x} == w
