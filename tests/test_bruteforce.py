"""Explicit Haar-parametrized integration against the closed determinant form."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from superint import (
    BigComplex,
    GrassmannElement,
    Precision,
    SuperEigenvalues,
    SuperMatrixSym,
    brute_force_ls,
    brute_force_ls_supermatrix_11,
    ls_closed_form,
    nondiag_limit_ls,
)
from superint.bruteforce import measure_factor, measure_order, odd_parameter_matrix
from superint.errors import NonInvertibleBody

PREC = Precision()
BETA = BigComplex(Fraction(1, 2))


def test_measure_factor_shapes():
    alphas = odd_parameter_matrix(1, 1)
    assert measure_factor(1, 1, alphas) == GrassmannElement.scalar(2, 1)
    alphas = odd_parameter_matrix(2, 1)
    t = measure_factor(2, 1, alphas)
    assert t.body == 1
    # the quadratic correction carries coefficient -1/3 on each pair
    assert t.terms[0b0011] == Fraction(-1, 3)
    assert t.terms[0b1100] == Fraction(-1, 3)
    with pytest.raises(ValueError):
        measure_factor(2, 2, odd_parameter_matrix(2, 2))


def test_measure_order():
    assert measure_order(1, 1) == [0, 1]
    assert measure_order(2, 1) == [0, 1, 2, 3]


def test_zero_sources_give_zero_volume():
    # with A = B = 0 the odd directions have nothing to soak them up
    val = brute_force_ls(1, 1, [0, 0], [0, 0], BETA, PREC)
    assert abs(val.to_mpc()) == 0


def test_brute_force_1_1_matches_closed_form():
    pairs = [
        ([Fraction(7, 10), Fraction(2, 5)], [Fraction(3, 4), Fraction(1, 3)]),
        ([Fraction(1, 2), Fraction(5, 6)], [Fraction(9, 7), Fraction(1, 8)]),
        ([Fraction(13, 9), Fraction(3, 11)], [Fraction(2, 3), Fraction(7, 5)]),
    ]
    with mp.workprec(400):
        for a, b in pairs:
            bf = brute_force_ls(1, 1, a, b, BETA, PREC)
            ev = SuperEigenvalues((a[0] * b[0],), (a[1] * b[1],), BETA)
            cf = ls_closed_form(ev, PREC).value
            assert abs(bf.to_mpc() - cf.to_mpc()) <= abs(cf.to_mpc()) * mpf(2) ** -200


def test_brute_force_2_1_matches_closed_form():
    a = [Fraction(7, 10), Fraction(2, 5), Fraction(1, 2)]
    b = [Fraction(3, 4), Fraction(1, 3), Fraction(5, 7)]
    bf = brute_force_ls(2, 1, a, b, BETA, PREC)
    ev = SuperEigenvalues((a[0] * b[0], a[1] * b[1]), (a[2] * b[2],), BETA)
    cf = ls_closed_form(ev, PREC).value
    with mp.workprec(400):
        assert abs(bf.to_mpc() - cf.to_mpc()) <= abs(cf.to_mpc()) * mpf(2) ** -200


def test_brute_force_2_1_rejects_coinciding_products():
    a = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    b = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)]
    with pytest.raises(NonInvertibleBody):
        brute_force_ls(2, 1, a, b, BETA, PREC)


def test_brute_force_unsupported_shape():
    with pytest.raises(ValueError):
        brute_force_ls(2, 2, [1] * 4, [1] * 4, BETA, PREC)


def test_supermatrix_oracle_reproduces_nondiag_limit():
    # A carries an external odd pair; B is the identity, so the source product
    # is exactly the (1+1) matrix with merged diagonal and odd off-diagonal
    # c t1, t2, whose t1 t2 coefficient is the limit, linear in c
    g = 4
    one = GrassmannElement.scalar(g, 1)
    t1 = GrassmannElement.generator(g, 2)
    t2 = GrassmannElement.generator(g, 3)
    merged = [
        BigComplex(Fraction(9, 16)),
        BigComplex(Fraction(2, 7)),
        BigComplex(Fraction(5, 3)),
        BigComplex(Fraction(1, 2), Fraction(1, 3)),
    ]
    for a in merged:
        for c in (Fraction(1), Fraction(3, 5)):
            with mp.workprec(PREC.work_bits):
                av = a.to_mpc()
                A = SuperMatrixSym(1, 1, [[one * av, t1 * c], [t2, one * av]], check_parity=False)
                B = SuperMatrixSym.identity(1, 1, g)
                out = brute_force_ls_supermatrix_11(A, B, BETA, PREC)
                # scalar part is the coincident (vanishing) case
                assert 0 not in out.terms or abs(out.terms[0]) < mpf(2) ** -250
                assert set(out.terms) <= {0, 0b1100}
                coeff = out.terms[0b1100]
                lim = nondiag_limit_ls(a, c, BETA, PREC).to_mpc()
                assert abs(coeff - lim) <= abs(lim) * mpf(2) ** -200, (a, c)
