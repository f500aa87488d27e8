from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_atlas import exactlinalg as xl
from schubert_atlas.errors import NotSquareError, SingularMatrixError

from helpers import cofactor_det, fraction_rank, gauss_jordan_inverse, mat_mul


def test_det_pinned():
    assert xl.det(((1, 0), (2, 3))) == 3
    assert xl.det(xl.identity(4)) == 1
    assert xl.det(((1, 0, 0), (1, 1, 0), (1, 1, 1))) == 1


def test_det_not_square():
    with pytest.raises(NotSquareError):
        xl.det(((1, 2, 3), (4, 5, 6)))


def test_inverse_pinned():
    assert xl.inverse_rational(((1, 0), (2, 3))) == (
        (Fraction(1), Fraction(0)),
        (Fraction(-2, 3), Fraction(1, 3)),
    )
    assert xl.inverse_rational(((1, 0), (3, 1))) == (
        (Fraction(1), Fraction(0)),
        (Fraction(-3), Fraction(1)),
    )
    assert xl.inverse_rational(xl.identity(3)) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        xl.inverse_rational(((1, 2), (2, 4)))


def test_invert_unimodular_pinned():
    assert xl.invert_unimodular(((1, 0), (3, 1))) == ((1, 0), (-3, 1))
    # determinant -1: the adjugate is negated
    assert xl.invert_unimodular(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    assert xl.invert_unimodular(((2, 1), (1, 0))) == ((0, 1), (1, -2))


def test_invert_unimodular_rejects_determinant_two():
    for m in (((1, 1), (-1, 1)), ((2, 0), (0, -1))):
        assert abs(xl.det(m)) == 2
        with pytest.raises(SingularMatrixError):
            xl.invert_unimodular(m)


def test_smith_pinned():
    assert xl.smith_normal_form(((1, 0), (2, 3))) == (1, 3)
    assert xl.smith_normal_form(xl.identity(4)) == (1, 1, 1, 1)
    assert xl.smith_normal_form(((2, 0), (0, 2))) == (2, 2)
    assert xl.smith_normal_form(((0, 0), (0, 0))) == ()


_small = st.integers(min_value=-4, max_value=4)


def _matrix_strategy(max_n=5, square=True):
    def build(n, m):
        return st.lists(
            st.lists(_small, min_size=m, max_size=m), min_size=n, max_size=n
        )

    if square:
        return st.integers(min_value=1, max_value=max_n).flatmap(
            lambda n: build(n, n)
        )
    return st.tuples(
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=1, max_value=max_n),
    ).flatmap(lambda nm: build(*nm))


@settings(deadline=None, max_examples=200)
@given(_matrix_strategy())
def test_bareiss_matches_cofactor_expansion(m):
    assert xl.det(m) == cofactor_det(m)


def test_bareiss_exhaustive_2x2():
    vals = (-1, 0, 1)
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    m = ((a, b), (c, d))
                    assert xl.det(m) == a * d - b * c


@settings(deadline=None, max_examples=150)
@given(_matrix_strategy(max_n=4))
def test_det_is_plusminus_product_of_invariant_factors(m):
    d = xl.det(m)
    factors = xl.smith_normal_form(m)
    if d == 0:
        assert len(factors) < len(m)
    else:
        prod = 1
        for f in factors:
            prod *= f
        assert abs(d) == prod


@settings(deadline=None, max_examples=100)
@given(_matrix_strategy(max_n=4))
def test_inverse_times_matrix_is_identity(m):
    if xl.det(m) == 0:
        with pytest.raises(SingularMatrixError):
            xl.inverse_rational(m)
        return
    inv = xl.inverse_rational(m)
    n = len(m)
    prod = mat_mul(m, inv)
    assert prod == tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )


@settings(deadline=None, max_examples=200)
@given(_matrix_strategy())
def test_adjugate_matches_determinant_and_gauss_jordan(m):
    """adj(m) = det(m) m^-1 with the sign of the row swaps tracked, and the
    rational inverse built from it equals plain Gauss-Jordan over Q."""
    n = len(m)
    if xl.det(m) == 0:
        for fn in (xl.adjugate, xl.inverse_rational, gauss_jordan_inverse):
            with pytest.raises(SingularMatrixError):
                fn(m)
        return
    adj, d = xl.adjugate(m)
    assert d == xl.det(m) == cofactor_det(m)
    assert mat_mul(m, adj) == tuple(
        tuple(d * int(i == j) for j in range(n)) for i in range(n)
    )
    assert xl.inverse_rational(m) == gauss_jordan_inverse(m)


@settings(deadline=None, max_examples=150)
@given(_matrix_strategy(square=False))
def test_invariant_factors_divisibility_chain(m):
    factors = xl.smith_normal_form(m)
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert len(factors) == fraction_rank(m)
