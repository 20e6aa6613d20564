"""Precision core: scalars, series kernels, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from superint import (
    BigComplex,
    Precision,
    TruncationCapExceeded,
    bessel_ratio,
    determinant,
    factorial,
    scaled_bessel_entry,
    vandermonde,
)
from superint.precision import exact_determinant

from oracles import det_cofactor

PREC = Precision()

# 45-digit value from an independent 60-term 1/(k!)^2 loop
I0_AT_2 = "2.2795853023360672674372044408115333532858411"
# independent loop for sum (1/4)^k/(k!)^2
I0_AT_1 = "1.26606587775200833559824462521471753760767031"
# (1/2) * 20-term partial sum of (1/4)^k/(k!(k+1)!)
HALF_R1_QUARTER = "0.565159103992485027207696027609863307328899622"


def test_factorial_basics():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120
    with pytest.raises(ValueError):
        factorial(-1)


def test_vandermonde_examples():
    assert vandermonde([]) == 1
    assert vandermonde([3, 1]) == 2
    assert vandermonde([2, 1, 0]) == 2  # (2-1)(2-0)(1-0)
    assert vandermonde([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=8), st.data())
def test_vandermonde_alternating(values, data):
    i = data.draw(st.integers(0, len(values) - 2))
    swapped = list(values)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert vandermonde(swapped) == -vandermonde(values)


def test_vandermonde_keeps_operand_precision():
    vals = [
        BigComplex(Fraction(1, 3), 0, 512),
        BigComplex(Fraction(-2, 7), 1, 512),
        BigComplex(5, 0, 512),
    ]
    v = vandermonde(vals)
    assert v.bits == 512
    with mp.workprec(1024):
        a, b, c = (x.to_mpc() for x in vals)
        want = (a - b) * (a - c) * (b - c)
        assert abs(v.to_mpc() - want) <= abs(want) * mpf(2) ** -500
    assert vandermonde([BigComplex(1, 0, 512), BigComplex(3, 0, 128)]).bits == 128


def test_vandermonde_mpc_at_ambient_precision():
    with mp.workprec(400):
        vals = [mpc(mpf(1) / 3, 1), mpc(-2, mpf(1) / 7), mpc(mpf(5) / 11, 0), mpc(0, -3)]
        v = vandermonde(vals)
    assert isinstance(v, mpc)
    with mp.workprec(1024):
        want = mpc(1)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                want *= vals[i] - vals[j]
        assert abs(v - want) <= abs(want) * mpf(2) ** -390


def test_bessel_ratio_trivial():
    assert bessel_ratio(0, BigComplex(0)) == 1
    assert bessel_ratio(2, BigComplex(0)) == Fraction(1, 2)


def test_bessel_ratio_against_frozen_oracle():
    val = bessel_ratio(0, BigComplex(1), PREC)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(I0_AT_2)) < mpf(10) ** -43


def test_bessel_ratio_precision_invariance():
    # 256-bit and 512-bit evaluations agree to at least 200 bits for |w| <= 4
    for nu in (0, 1, 3):
        for wre, wim in ((4, 0), (-3, 1), (0.5, -2)):
            w = BigComplex(wre, wim, bits=512)
            lo = bessel_ratio(nu, BigComplex(wre, wim, bits=256), Precision(bits=256))
            hi = bessel_ratio(nu, w, Precision(bits=512))
            with mp.workprec(600):
                diff = abs(lo.to_mpc() - hi.to_mpc())
                scale = max(abs(hi.to_mpc()), mpf(1))
                assert diff <= scale * mpf(2) ** -200


def test_bessel_ratio_cap():
    tiny_cap = Precision(bits=256, truncation_cap=8)
    with pytest.raises(TruncationCapExceeded):
        bessel_ratio(0, BigComplex(50), tiny_cap)


def test_scaled_bessel_entry_examples():
    prec = PREC
    assert scaled_bessel_entry(0, BigComplex(3), BigComplex(0), prec) == 1
    assert scaled_bessel_entry(1, BigComplex(1), BigComplex(0), prec).is_zero
    val = scaled_bessel_entry(1, BigComplex(Fraction(1, 2)), BigComplex(1), prec)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(HALF_R1_QUARTER)) < mpf(10) ** -40


def test_scaled_bessel_entry_matches_ratio_at_zero_order():
    # order zero entry is literally the ratio kernel at beta^2 lambda^2
    beta = BigComplex(Fraction(2, 3))
    lam2 = BigComplex(Fraction(5, 7), Fraction(-1, 9))
    a = scaled_bessel_entry(0, beta, lam2, PREC)
    b = bessel_ratio(0, beta * beta * lam2, PREC)
    assert a.re == b.re and a.im == b.im


def test_ls_eval_value_from_bessel():
    # m=1 one-source evaluation reduces to the ratio kernel: I0(1)
    val = bessel_ratio(0, BigComplex(Fraction(1, 4)), PREC)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(I0_AT_1)) < mpf(10) ** -43


def test_determinant_examples():
    one = BigComplex(1)
    assert determinant([[one]]) == 1
    eye3 = [[BigComplex(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert determinant(eye3) == 1
    m = [[BigComplex(1), BigComplex(2)], [BigComplex(3), BigComplex(4)]]
    assert abs(determinant(m).to_mpc() + 2) < mpf(2) ** -200


def test_determinant_elimination_vs_cofactor():
    rng = random.Random(7)
    for n in (3, 4):
        for _ in range(5):
            rows = [
                [BigComplex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
            a = determinant(rows, PREC).to_mpc()
            with mp.workprec(PREC.work_bits):
                b = det_cofactor([[x.to_mpc() for x in row] for row in rows])
            with mp.workprec(300):
                scale = max(abs(b), mpf(1))
                assert abs(a - b) <= scale * mpf(2) ** -(PREC.bits - 32)


def test_determinant_zero_matrix_and_zero_pivot():
    z = [[BigComplex(0), BigComplex(0)], [BigComplex(0), BigComplex(0)]]
    assert determinant(z).is_zero
    m = [[BigComplex(0), BigComplex(1)], [BigComplex(1), BigComplex(0)]]
    assert abs(determinant(m).to_mpc() + 1) < mpf(2) ** -200


def test_exact_determinant_and_cofactor_agree():
    rng = random.Random(3)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(4)]
    assert exact_determinant(rows) == det_cofactor(rows)


def test_bigcomplex_minimum_precision_propagation():
    a = BigComplex(1, 0, bits=512)
    b = BigComplex(Fraction(1, 3), 0, bits=128)
    assert (a + b).bits == 128
    assert (a * b).bits == 128
    assert (a / 7).bits == 512


def test_bigcomplex_json_round_trip():
    x = BigComplex(Fraction(22, 7), Fraction(-1, 3), bits=192)
    doc = x.to_json()
    assert doc["bits"] == 192
    y = BigComplex.from_json(doc)
    with mp.workprec(250):
        assert abs(x.to_mpc() - y.to_mpc()) < mpf(2) ** -180


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(bits=32)
    with pytest.raises(ValueError):
        Precision(truncation_cap=4)
