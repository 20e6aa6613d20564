"""Precision core: scalars, series kernels, determinants."""

import pickle
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
from superint.precision import bessel_ratio_raw, exact_determinant

from oracles import bessel_ratio_mpmath, det_cofactor

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
    assert bessel_ratio(0, BigComplex(0)).to_mpc() == 1
    assert bessel_ratio(2, BigComplex(0)).to_mpc() == mpf(1) / 2


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
    # the cap counts terms: exactly the terms the mpc reference needs suffice, one fewer raises
    _, needed = bessel_ratio_mpmath(0, 50, PREC)
    assert bessel_ratio_raw(0, 50, Precision(truncation_cap=needed))[1] == needed
    with pytest.raises(TruncationCapExceeded):
        bessel_ratio_raw(0, 50, Precision(truncation_cap=needed - 1))


def _kernel_outcome(kernel, nu, w, prec):
    """(value rounded to prec.bits, terms used), or None when the kernel hits the cap."""
    try:
        value, terms = kernel(nu, w, prec)
    except TruncationCapExceeded:
        return None
    rounded = BigComplex.from_mpc(value, prec.bits)
    return rounded.re, rounded.im, terms


@pytest.mark.parametrize("nu", [0, 3, 100])
def test_bessel_ratio_cap_boundary_matches_reference(nu):
    # at |w| >= cap (cap+nu) the terms grow through the cap: both kernels raise,
    # unless 1/nu! and the next term are already below 2^-work_bits (nu = 100)
    prec = Precision(truncation_cap=8)
    edge = 8 * (8 + nu)
    for w in (edge - 1, edge, mpc(0, edge), -edge * 10**6, mpf("1e100000")):
        want = _kernel_outcome(bessel_ratio_mpmath, nu, w, prec)
        assert _kernel_outcome(bessel_ratio_raw, nu, w, prec) == want, w
    assert _kernel_outcome(bessel_ratio_raw, 100, edge * 10**6, prec)[2] == 2


def test_bessel_ratio_huge_argument_raises_at_once():
    # every term grows through the cap; the integers must not be grown that far
    with pytest.raises(TruncationCapExceeded):
        bessel_ratio_raw(0, mpf("1e100000"), PREC)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_bessel_ratio_bit_identical_to_mpmath_reference(bits):
    # nu = 0..12, |w| = 1e-3..1e2 at eight phases: same value at prec.bits, same term count
    prec = Precision(bits=bits)
    for nu in range(13):
        for exponent in range(-3, 3):
            for j in range(8):
                with mp.workprec(prec.work_bits):
                    w = mpf(10) ** exponent * mp.expjpi(mpf(j) / 4)
                got = _kernel_outcome(bessel_ratio_raw, nu, w, prec)
                assert got == _kernel_outcome(bessel_ratio_mpmath, nu, w, prec), (nu, exponent, j)


@pytest.mark.parametrize("w", [-1000, -5000, mpc(-10000, 10)])
def test_bessel_ratio_at_least_as_close_as_mpmath_reference(w):
    # negative-axis sums cancel about 90, 200 and 290 bits, the last all of the 288 working bits
    prec = Precision(bits=256)
    for nu in (0, 1, 5):
        with mp.workprec(prec.bits + 512):
            exact = mp.hyp0f1(nu + 1, w) / mp.factorial(nu)
            err = abs(bessel_ratio_raw(nu, w, prec)[0] - exact)
            err_reference = abs(bessel_ratio_mpmath(nu, w, prec)[0] - exact)
        assert err <= err_reference, nu


def test_scaled_bessel_entry_examples():
    prec = PREC
    assert scaled_bessel_entry(0, BigComplex(3), BigComplex(0), prec).to_mpc() == 1
    assert scaled_bessel_entry(1, BigComplex(1), BigComplex(0), prec).is_zero
    val = scaled_bessel_entry(1, BigComplex(Fraction(1, 2)), BigComplex(1), prec)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(HALF_R1_QUARTER)) < mpf(10) ** -40


def test_scaled_bessel_entry_matches_ratio_at_zero_order():
    # order zero entry is literally the ratio kernel at beta^2 lambda^2
    beta = BigComplex(Fraction(2, 3))
    lam2 = BigComplex(Fraction(5, 7), Fraction(-1, 9))
    a = scaled_bessel_entry(0, beta, lam2, PREC)
    with mp.workprec(PREC.work_bits):
        w = beta.to_mpc() * beta.to_mpc() * lam2.to_mpc()
    b = bessel_ratio(0, w, PREC)
    assert a.re == b.re and a.im == b.im


def test_ls_eval_value_from_bessel():
    # m=1 one-source evaluation reduces to the ratio kernel: I0(1)
    val = bessel_ratio(0, BigComplex(Fraction(1, 4)), PREC)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(I0_AT_1)) < mpf(10) ** -43


def test_determinant_examples():
    one = BigComplex(1)
    assert determinant([[one]]).to_mpc() == 1
    eye3 = [[BigComplex(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert determinant(eye3).to_mpc() == 1
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


def test_bigcomplex_is_a_record_without_arithmetic():
    x = BigComplex(Fraction(1, 3), 2, bits=512)
    assert x == BigComplex(Fraction(1, 3), 2, bits=512)
    assert BigComplex(1, bits=512) == BigComplex(1, bits=128)  # bits is not compared
    assert hash(BigComplex(1, bits=512)) == hash(BigComplex(1, bits=128))
    assert BigComplex(1) != 1
    for op in (lambda: x + 1, lambda: 2 * x, lambda: -x, lambda: abs(x), lambda: x < 1):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(AttributeError):
        x.bits = 64


def test_records_and_reports_pickle_round_trip():
    from superint import SuperEigenvalues, ls_closed_form, verify_conjecture

    x = BigComplex(Fraction(22, 7), Fraction(-1, 3), bits=192)
    y = pickle.loads(pickle.dumps(x))
    assert (y.re, y.im, y.bits) == (x.re, x.im, 192)
    res = ls_closed_form(SuperEigenvalues((Fraction(1, 3),), (Fraction(1, 5),), Fraction(1, 2)), PREC)
    back = pickle.loads(pickle.dumps(res))
    assert back.to_json() == res.to_json() and back.value.bits == res.value.bits
    rep = verify_conjecture(2, 1, sample_count=2, K=16)
    assert pickle.loads(pickle.dumps(rep)).to_json() == rep.to_json()


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
