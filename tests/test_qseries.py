from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from qrank import (
    HomogeneousMPoly,
    HomogeneousPoly,
    MultiPoly,
    gaussian_binomial,
    moebius_coefficient,
    p_j_coeff,
    q_power,
    q_product,
    q_transform,
)
from qrank.errors import NegativeExponent
from qrank.qseries import g_poly, qpow, x_minus_y, x_plus_qm_minus_1_y, x_poly, y_poly

from oracles import oracle_g_poly, oracle_poly_str, qm_y


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gaussian_binomial_follows_the_q_pascal_recurrence(q):
    # [a, b]_q = [a - 1, b - 1]_q + q^b [a - 1, b]_q, from [0, 0]_q = 1
    row = [1]
    for a in range(11):
        assert [gaussian_binomial(a, b, q) for b in range(-1, a + 2)] == [0, *row, 0]
        row = [1] + [row[b - 1] + q**b * row[b] for b in range(1, a + 1)] + [1]


def test_moebius_coefficient():
    assert moebius_coefficient(0, 2) == 1
    assert moebius_coefficient(1, 2) == -1
    assert moebius_coefficient(3, 2) == -8
    assert moebius_coefficient(2, 3) == 3  # (-1)^2 * 3^{2*1/2}


def test_q_product_x_squared():
    x = x_poly()
    assert q_product(x, x, 2).at(1) == (1, 0, 0)


def test_q_product_x_minus_y_squared():
    a = x_minus_y()
    assert q_product(a, a, 2).at(3) == (1, -3, 2)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_product_qm_y(q, m):
    a = qm_y(q)
    assert q_product(a, a, q).at(m) == (0, 0, q ** (2 * m))


def test_q_power_zero_is_one():
    assert q_power(x_minus_y(), 0, 2).at(5) == (1,)


def test_q_power_y_squared():
    for q in (2, 3):
        assert q_power(y_poly(), 2, q).at(4) == (0, 0, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 5])
def test_x_minus_y_q_power_closed_form(q, l):
    got = q_power(x_minus_y(), l, q).at(2)
    expected = tuple(
        gaussian_binomial(l, u, q) * (-1) ** u * q ** (u * (u - 1) // 2) for u in range(l + 1)
    )
    assert got == expected


def test_q_power_negative_exponent():
    with pytest.raises(NegativeExponent):
        q_power(x_poly(), -1, 2)


def test_q_transform_examples():
    for r in (1, 2, 3):
        xr = HomogeneousMPoly.constant((1,) + (0,) * r)
        assert q_transform(xr, 2).at(3) == (1,) + (0,) * r
    y2 = HomogeneousMPoly.constant((0, 0, 1))
    assert q_transform(y2, 2).at(4) == (0, 0, 2)


def test_q_transform_macwilliams_substitution():
    # transform of x^2 + 9xy + 6y^2 with arguments (x+3y, x-y) at q=m=2,
    # divided by |C| = 16, reproduces x^2 (the dual of the full code)
    q, m, n = 2, 2, 2
    coeffs = (1, 9, 6)
    xmy, xq = x_minus_y(), x_plus_qm_minus_1_y(q)
    acc = [Fraction(0)] * (n + 1)
    for i, a in enumerate(coeffs):
        piece = q_product(q_power(xmy, i, q), q_power(xq, n - i, q), q).at(m)
        for u in range(n + 1):
            acc[u] += a * piece[u]
    assert [c / 16 for c in acc] == [1, 0, 0]


def test_p_j_trivial():
    for n in range(5):
        for i in range(n + 1):
            assert p_j_coeff(i, 0, 3, n, 2) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_p_j_matches_q_product_expansion(q):
    for n in range(5):
        for m in range(1, 5):
            xmy, xq = x_minus_y(), x_plus_qm_minus_1_y(q)
            for i in range(n + 1):
                expansion = q_product(q_power(xmy, i, q), q_power(xq, n - i, q), q).at(m)
                for j in range(n + 1):
                    assert p_j_coeff(i, j, m, n, q) == expansion[j]


@pytest.mark.parametrize("q", [2, 3])
def test_p_j_matches_dual_enumerator_kernel(q):
    # the proof's target identity relating P_j to the dual-enumerator sum
    for n in range(5):
        for m in range(1, 5):
            for i in range(n + 1):
                for j in range(n + 1):
                    lhs = sum(
                        gaussian_binomial(n - i, j - l, q)
                        * gaussian_binomial(n - j + l, l, q)
                        * (-1) ** l
                        * q ** (l * (l - 1) // 2)
                        * q ** (m * (j - l))
                        for l in range(j + 1)
                    )
                    assert lhs == p_j_coeff(i, j, m, n, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_q_binomial_identity_suite(q):
    for a in range(9):
        for b in range(a + 1):
            gb = gaussian_binomial
            if a >= 1:
                assert gb(a, b, q) == gb(a - 1, b, q) + q ** (a - b) * gb(a - 1, b - 1, q)
                assert gb(a, b, q) == q**b * gb(a - 1, b, q) + gb(a - 1, b - 1, q)
            for c in range(b + 1):
                assert gb(a, b, q) * gb(b, c, q) == gb(a, b - c, q) * gb(a - b + c, c, q)
            for n in range(a + 1):
                total = sum(
                    Fraction(qpow(q, i * (a - b - n + i))) * gb(n, i, q) * gb(a - n, b - i, q)
                    for i in range(n + 1)
                )
                assert total == gb(a, b, q)
            assert comb(a + b, 2) == comb(a, 2) + a * b + comb(b, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_q_products_lemma(q):
    # (1): (q^m y)^[n] = (q^m y)^n; (2): (x-y)^[l] * (q^m y)^[n-l] is the
    # ordinary scalar multiple of (x-y)^[l]
    for n in range(6):
        for m in range(1, 5):
            pw = q_power(qm_y(q), n, q).at(m)
            assert pw == (0,) * n + (q ** (m * n),)
            for l in range(n + 1):
                lhs = q_product(q_power(x_minus_y(), l, q), q_power(qm_y(q), n - l, q), q).at(m)
                base = q_power(x_minus_y(), l, q).at(m)
                rhs = (0,) * (n - l) + tuple(q ** (m * (n - l)) * c for c in base)
                assert lhs == rhs


@pytest.mark.parametrize("q,l", [(2, 0), (2, 1), (2, 3), (3, 2), (3, 4)])
def test_g_poly_matches_oracle(q, l):
    got = {(0, 0, l - u, u): c for u, c in enumerate(g_poly(q, l)) if c}
    assert got == oracle_g_poly(q, l)


def test_homogeneous_poly_str():
    assert str(HomogeneousPoly(2, (1, 9, 6))) == "x^2 + 9*x*y + 6*y^2"
    assert str(HomogeneousPoly(3, (1, 0, 0, 0))) == "x^3"
    assert str(HomogeneousPoly(2, (1, -3, 2))) == "x^2 - 3*x*y + 2*y^2"
    assert str(HomogeneousPoly(1, (0, 0))) == "0"
    assert str(HomogeneousPoly(0, (7,))) == "7"
    with pytest.raises(ValueError, match=r"length degree\+1"):
        HomogeneousPoly(2, (1, 0))


def test_multipoly_basics():
    p = MultiPoly()
    p.add_term((1, 0, 0, 0), 2)
    p.add_term((0, 0, 1, 1), -1)
    q = MultiPoly(p.terms)
    assert p == q
    assert not (p - q).terms
    assert MultiPoly({(1, 0, 0, 0): 0}).terms == {}  # a zero coefficient adds no term
    assert p.to_records() == [[0, 0, 1, 1, -1], [1, 0, 0, 0, 2]]
    assert str(p) == "-X3*X4 + 2*X1"
    assert p.swap_x1_x2().to_records() == [[0, 0, 1, 1, -1], [0, 1, 0, 0, 2]]


_COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30))


@given(st.lists(_COEFFS, min_size=1, max_size=7))
@example([0])
@example([-1])
@example([0, 1, 0, -1])
def test_homogeneous_poly_str_matches_the_reference_printer(coeffs):
    r = len(coeffs) - 1
    expected = oracle_poly_str((c, (("x", r - i), ("y", i))) for i, c in enumerate(coeffs))
    assert str(HomogeneousPoly(r, coeffs)) == expected


@given(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 4), _COEFFS, max_size=12))
@example({})
@example({(0, 0, 0, 0): -1})
@example({(0, 0, 0, 0): 5, (1, -1, 0, 2): 1, (0, 0, -2, 1): -1})
def test_multipoly_str_matches_the_reference_printer(terms):
    p = MultiPoly()
    p.terms = dict(terms)  # zero coefficients included, which the printer drops
    expected = oracle_poly_str((c, tuple(zip(MultiPoly.VARS, e))) for e, c in sorted(terms.items()))
    assert str(p) == expected
