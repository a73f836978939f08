from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings, strategies as st

from cdga import GradedError, GradedSpace, Mat, koszul_sign
from cdga.graded import graded_commutator
from helpers import mat_rows, oracle_graded_commutator


def test_koszul_sign_basics():
    # swapping two odd elements flips the sign
    assert koszul_sign([1, 1], [1, 0]) == -1
    # swapping odd past even costs nothing
    assert koszul_sign([1, 2], [1, 0]) == 1
    assert koszul_sign([2, 1], [1, 0]) == 1
    # identity permutation
    assert koszul_sign([1, 1, 1], [0, 1, 2]) == 1
    # three odds reversed: (0 1 2) -> (2 1 0) has three odd-odd inversions
    assert koszul_sign([1, 1, 1], [2, 1, 0]) == -1
    # cycle of three odds: two transpositions
    assert koszul_sign([1, 1, 1], [1, 2, 0]) == 1


def test_koszul_sign_mixed():
    # degrees [1,2,3]: move the 3 (odd) before the 1 (odd) across the 2
    # permutation placing original index 2 first: [2,0,1]
    assert koszul_sign([1, 2, 3], [2, 0, 1]) == -1


def test_graded_space():
    sp = GradedSpace({0: ["a"], 2: ["b", "c"]})
    assert sp.degrees() == [0, 2]
    assert sp.dim(2) == 2
    assert sp.dim(1) == 0
    assert sp.labels(2) == ("b", "c")
    assert sp.index(2, "c") == 1
    assert sp.total_dim() == 3
    assert sp == GradedSpace({2: ["b", "c"], 0: ["a"]})


def test_graded_space_rejects_duplicates():
    with pytest.raises(GradedError):
        GradedSpace({0: ["a", "a"]})


def test_graded_space_rejects_unknown_label():
    sp = GradedSpace({0: ["a"]})
    with pytest.raises(ValueError):
        sp.index(0, "zz")


def _random_family(rng, dims, r):
    """{j: dense rows of a sparse rational map from degree j to j + r}."""
    return {j: [[F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
                 for _ in range(dims[j])] for _ in range(dims[j + r])]
            for j in dims if j + r in dims}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_graded_commutator_matches_the_block_oracle(seed):
    # families of degrees -2..2 on degrees -5..5 of random dimensions 0..3
    # (zero-dimensional edges included), bracketed on degree k in -1..1
    rng = random.Random(seed)
    dims = {j: rng.randint(0, 3) for j in range(-5, 6)}
    p, q, k = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1)
    a, b = _random_family(rng, dims, p), _random_family(rng, dims, q)

    def family(rows, r):
        return {j: Mat(dims[j + r], dims[j], m) for j, m in rows.items()}.get

    got = graded_commutator(family(a, p), p, family(b, q), q, k)
    assert (got.m, got.n) == (dims[k + p + q], dims[k])
    assert mat_rows(got) == oracle_graded_commutator(dims, a, p, b, q, k)
