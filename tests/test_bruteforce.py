"""Explicit Haar-parametrized integration against the closed determinant form."""

import hashlib
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from superint import (
    BigComplex,
    GaussianRational,
    GrassmannElement,
    Precision,
    SuperEigenvalues,
    SuperMatrixSym,
    brute_force_ls,
    brute_force_ls_supermatrix_11,
    ls_closed_form,
    nondiag_limit_ls,
)
from superint import bruteforce
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


def test_newton_eigen_pair_is_exact_at_the_nilpotency_bound(monkeypatch):
    # seeded at the body, k steps leave error in soul degree >= 2^(k+1), so
    # floor(log2 g) steps are exact and one step fewer is not
    assert [bruteforce._newton_steps(g) for g in (2, 4, 6, 8, 16)] == [1, 2, 2, 3, 4]
    # exact entries over g = 4, diagonal body 3/2, -2/9; the diagonal souls square
    # to the top monomial and the off-diagonal product reaches it too
    g = 4
    th = [GrassmannElement.generator(g, i) for i in range(g)]
    one = GrassmannElement.scalar(g, 1)
    s01, s23 = th[0] * th[1], th[2] * th[3]
    M = [
        [one * Fraction(3, 2) + s01 * Fraction(2, 5) + s23 * GaussianRational(Fraction(-3, 4), 1), th[0] * th[2] * Fraction(1, 3)],
        [th[1] * th[3] * Fraction(5, 7), one * Fraction(-2, 9) + s01 * Fraction(1, 6) - s23],
    ]
    trace = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]

    def residual(x):
        return x * x - trace * x + det

    eigen = bruteforce._newton_eigen_pair(M, PREC)
    assert [x.body for x in eigen] == [Fraction(3, 2), Fraction(-2, 9)]
    assert all(residual(x).is_zero for x in eigen)
    assert eigen[0] + eigen[1] == trace and eigen[0] * eigen[1] == det
    monkeypatch.setattr(bruteforce, "_newton_steps", lambda g: g.bit_length() - 2)
    short = bruteforce._newton_eigen_pair(M, PREC)
    # what one step fewer misses lies in the top monomial alone
    assert all(set(residual(x).terms) == {0b1111} for x in short)


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
                A = SuperMatrixSym(1, 1, [[one * av, t1 * c], [t2, one * av]])
                B = SuperMatrixSym.identity(1, 1, g)
                out = brute_force_ls_supermatrix_11(A, B, BETA, PREC)
                # scalar part is the coincident (vanishing) case
                assert 0 not in out.terms or abs(out.terms[0]) < mpf(2) ** -250
                assert set(out.terms) <= {0, 0b1100}
                coeff = out.terms[0b1100]
                lim = nondiag_limit_ls(a, c, BETA, PREC).to_mpc()
                assert abs(coeff - lim) <= abs(lim) * mpf(2) ** -200, (a, c)


def _pin_points():
    """Seeded (1|1) and (2|1) diagonal sources with rational and complex entries."""
    rng = random.Random(4101)

    def entry():
        re = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if rng.random() < 0.5:
            return re
        return BigComplex(re, Fraction(rng.randint(-20, 20), rng.randint(1, 20)))

    shapes = [(1, 1)] * 3 + [(2, 1)] * 3
    return [(m, n, [entry() for _ in range(m + n)], [entry() for _ in range(m + n)]) for m, n in shapes]


def test_brute_force_values_bit_pinned():
    # every bit of the Haar oracle's values, where the closed-form tests allow 2^-200
    out = []
    for i, (m, n, a, b) in enumerate(_pin_points()):
        beta = BETA if i % 2 else BigComplex(Fraction(2, 3), Fraction(-1, 4))
        v = brute_force_ls(m, n, a, b, beta, PREC)
        out.append((v.re._mpf_, v.im._mpf_))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "d8889e50f8f19664ce0349f9c61d12cab08e25e67f2ffdfcb0e014f4ab6ce5f5"


def test_supermatrix_oracle_terms_bit_pinned():
    # general (1|1) sources with odd entries on both sides, over two external generators
    g = 4
    one = GrassmannElement.scalar(g, 1)
    t1 = GrassmannElement.generator(g, 2)
    t2 = GrassmannElement.generator(g, 3)
    with mp.workprec(PREC.work_bits):
        A = SuperMatrixSym(
            1, 1, [[one * mpc(mpf(9) / 16, mpf(1) / 3), t1 * Fraction(3, 5)], [t2, one * (mpf(2) / 7)]],
        )
        B = SuperMatrixSym(
            1, 1, [[one * (mpf(5) / 4), t2], [t1 * Fraction(1, 2), one * mpc(mpf(1) / 3, 1)]],
        )
    out = brute_force_ls_supermatrix_11(A, B, BETA, PREC)
    terms = sorted((mono, c._mpc_) for mono, c in out.terms.items())
    assert set(dict(terms)) == {0, 0b1100}
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == "b914f888e7c7a7bea5ed0415a6a319ae314e9937dd33e3fdab251efd55df60d4"
