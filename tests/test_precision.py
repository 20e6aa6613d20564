"""Precision core: scalars, series kernels, determinants."""

import hashlib
import itertools
import math
import pickle
import random
import re
import time
from fractions import Fraction
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_add, round_nearest, to_fixed

from superint import (
    BigComplex,
    Precision,
    TruncationCapExceeded,
    GaussianRational,
    bessel_ratio,
    determinant,
    factorial,
    scaled_bessel_entry,
    vandermonde,
)
from superint import precision
from superint.precision import (
    bessel_ratio_raw,
    complete_homogeneous,
    det_mpc,
    exact_determinant,
    fixed_series_terms,
    newton_sums,
    scaled_bessel_entry_raw,
    to_mpc_any,
)

from oracles import (
    _fixed_terms_reference,
    bessel_orders_interleaved_reference,
    bessel_ratio_fixed_reference,
    bessel_ratio_mpmath,
    det_cofactor,
    det_mpc_reference,
)

PREC = Precision()

# 45-digit value from an independent 60-term 1/(k!)^2 loop
I0_AT_2 = "2.2795853023360672674372044408115333532858411"
# independent loop for sum (1/4)^k/(k!)^2
I0_AT_1 = "1.26606587775200833559824462521471753760767031"
# (1/2) * 20-term partial sum of (1/4)^k/(k!(k+1)!)
HALF_R1_QUARTER = "0.565159103992485027207696027609863307328899622"


def test_factorial_basics():
    assert factorial is math.factorial
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120
    with pytest.raises(ValueError):
        factorial(-1)


# a 150-bit numerator over a 140-bit denominator: rounding both and then their
# quotient, as mpf(p) / mpf(q) does, lands one unit in the last place off at 64 bits
WIDE = Fraction(528017554261265468033251111199440290693464061, 809744672490065275014015283334575476661237)


def test_fraction_conversions_round_once():
    rng = random.Random(24)
    wide = [WIDE, -WIDE] + [Fraction(rng.getrandbits(150) | 1, rng.getrandbits(140) | 1) for _ in range(60)]
    for bits in (64, 100, 256):
        for x in wide:
            want = from_rational(x.numerator, x.denominator, bits, round_nearest)
            assert BigComplex(x, bits=bits).re._mpf_ == want
            assert BigComplex(0, x, bits=bits).im._mpf_ == want
            with mp.workprec(bits):
                assert to_mpc_any(x)._mpc_ == (want, mpf(0)._mpf_)
                assert GaussianRational(x, x).to_mpc()._mpc_ == (want, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.nan), mpc(1, math.nan), mpc(0, -math.inf)])
def test_raw_kernels_refuse_non_finite_arguments(bad):
    # each raised TruncationCapExceeded, the numerical-failure class, on an input error
    with pytest.raises(ValueError, match="non-finite"):
        bessel_ratio_raw(0, bad, PREC)
    with pytest.raises(ValueError, match="non-finite"):
        bessel_ratio_raw(1, bad, PREC, top=2)
    with pytest.raises(ValueError, match="non-finite"):
        scaled_bessel_entry_raw(0, 0.5, bad, PREC)


def test_raw_kernels_take_fractions():
    # mpc() refuses a Fraction; the raw kernels convert it as to_mpc_any does
    w, half = Fraction(1, 3), Fraction(1, 2)
    with mp.workprec(PREC.work_bits):
        w_mpc, half_mpc = to_mpc_any(w), to_mpc_any(half)
    assert bessel_ratio_raw(0, w, PREC) == bessel_ratio_raw(0, w_mpc, PREC)
    assert bessel_ratio_raw(1, w, PREC, top=2) == bessel_ratio_raw(1, w_mpc, PREC, top=2)
    assert scaled_bessel_entry_raw(1, half, w, PREC) == scaled_bessel_entry_raw(1, half_mpc, w_mpc, PREC)


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
    # nu = 0..12, |w| = 1e-3..1e2 at eight phases: same value at prec.bits, same term count,
    # for each order alone and for every order of one top=12 pass per point
    prec = Precision(bits=bits)

    def chained(nu, w, prec):
        return bessel_ratio_raw(nu, w, prec, top=12)

    for exponent in range(-3, 3):
        for j in range(8):
            with mp.workprec(prec.work_bits):
                w = mpf(10) ** exponent * mp.expjpi(mpf(j) / 4)
            for nu in range(13):
                want = _kernel_outcome(bessel_ratio_mpmath, nu, w, prec)
                assert _kernel_outcome(bessel_ratio_raw, nu, w, prec) == want, (nu, exponent, j)
                assert _kernel_outcome(chained, nu, w, prec) == want, (nu, exponent, j)
    with pytest.raises(ValueError):
        bessel_ratio_raw(13, 1, prec, top=12)


def _exact_outcome(kernel, nu, w, prec):
    """(value parts, terms used) exactly, None when the kernel hits the cap, or ValueError when it refuses w."""
    try:
        value, terms = kernel(nu, w, prec)
    except TruncationCapExceeded:
        return None
    except ValueError:
        return ValueError
    return value._mpc_, terms


def _short_mantissa_w(rng, size, wp):
    """A w with few significant bits and |w| near `size`, of the kinds the closed forms pass.

    A Python float, a complex double at any phase, a purely imaginary double, a
    quarter of the product of two complex doubles (the bk argument c x y) rounded to
    wp bits, or an integer or power of two, whose trailing zeros reach past the
    kernel's fixed-point scale.
    """
    kind = rng.randrange(5)
    phase = rng.uniform(-math.pi, math.pi)
    if kind == 0:
        return rng.choice((1, -1)) * size
    if kind == 1:
        return complex(size * math.cos(phase), size * math.sin(phase))
    if kind == 2:
        return complex(0, rng.choice((1, -1)) * size)
    if kind == 3:
        a = complex(math.cos(phase), math.sin(phase)) * 2 * math.sqrt(size) * rng.uniform(0.5, 2)
        b = complex(math.cos(-2 * phase), math.sin(-2 * phase)) * 4 * size / abs(a)
        with mp.workprec(wp):
            return mpc(a) * mpc(b) / 4
    unit = rng.choice((1, -1, 1j, -1j))
    if rng.random() < 0.5:
        return unit * 2 ** round(math.log2(size))
    return unit * max(1, round(size))


def test_bessel_ratio_single_order_bit_identical_to_fixed_reference():
    # nu = 0..12, |w| = 1e-3..3e5 at any phase, a fifth of them on an axis, where the
    # complex multiply takes four products; 64-1024 bits, caps 8, 64 and 512
    rng = random.Random(4017)
    cases = []
    for _ in range(3000):
        prec = Precision(bits=rng.randrange(64, 1025), truncation_cap=rng.choice((8, 64, 512)))
        with mp.workprec(prec.work_bits):
            size = mpf(10) ** rng.uniform(-3, math.log10(3e5))
            w = size * (rng.choice((1, 1j, -1, -1j)) if rng.random() < 0.2 else mp.expjpi(mpf(rng.uniform(-1, 1))))
        cases.append((rng.randrange(13), w, prec))
    # w with few significant bits, so the recurrence multiplies by short integers
    for _ in range(300):
        prec = Precision(bits=rng.randrange(64, 1025), truncation_cap=rng.choice((8, 64, 512)))
        w = _short_mantissa_w(rng, 10 ** rng.uniform(-3, math.log10(3e5)), prec.work_bits)
        cases.append((rng.randrange(13), w, prec))
    # w = 0, either side of the cap boundary cap (cap+nu), 1e100000, where the sum raises at once,
    # and non-finite w, which both refuse
    for cap in (8, 64, 512):
        prec = Precision(truncation_cap=cap)
        for nu in (0, 5, 12):
            edge = cap * (cap + nu)
            cases += [(nu, w, prec) for w in (0, edge - 1, edge, mpc(0, -edge), mpf("1e100000"))]
            cases += [(nu, w, prec) for w in (mp.inf, mpc(0, mp.ninf), mp.nan)]
    outcomes = set()
    for nu, w, prec in cases:
        want = _exact_outcome(bessel_ratio_fixed_reference, nu, w, prec)
        assert _exact_outcome(bessel_ratio_raw, nu, w, prec) == want, (nu, w, prec)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_bessel_ratio_chained_orders_bit_identical_to_interleaved_reference(monkeypatch):
    # every order of a top pass, top 1..12, |w| 1e-3..3e5 at any phase, a fifth of them on an
    # axis, 64-1024 bits, caps 8, 16, 64 and 512; a third of the draws lie at the cap edge
    # cap^2 <= |w| < cap (cap+top), where order 0 is capped at 2 terms and the orders above it
    # are not, so that they draw terms past where the order below stopped
    bessel_orders, sum_order, passes = precision._bessel_orders.__wrapped__, precision._sum_order, []

    def counting_pass(w, lo, top, prec):
        passes.append(((lo, top), []))
        return bessel_orders(w, lo, top, prec)

    def counting_order(nu, *args):
        passes[-1][1].append(nu)
        return sum_order(nu, *args)

    # a pass is a miss of the one-entry cache, so the spy is cached the same way
    precision._bessel_orders.cache_clear()
    monkeypatch.setattr(precision, "_bessel_orders", lru_cache(maxsize=1)(counting_pass))
    monkeypatch.setattr(precision, "_sum_order", counting_order)
    rng = random.Random(4018)
    cases = []
    for _ in range(600):
        top, cap = rng.randint(1, 12), rng.choice((8, 16, 64, 512))
        prec = Precision(bits=rng.randrange(64, 1025), truncation_cap=cap)
        with mp.workprec(prec.work_bits):
            if rng.random() < 1 / 3:
                size = mpf(rng.uniform(cap * cap, cap * (cap + top)))
            else:
                size = mpf(10) ** rng.uniform(-3, math.log10(3e5))
            w = mpc(size * (rng.choice((1, 1j, -1, -1j)) if rng.random() < 0.2 else mp.expjpi(mpf(rng.uniform(-1, 1)))))
        cases.append((top, w, prec))
    # at 100 working bits orders 30..32 stop at their second term, 2^-100 nu! being above their
    # first terms, in a pass where order 29 reads past order 28's 2 terms
    cases.append((33, mpc(292), Precision(bits=68, truncation_cap=8)))
    # w with few significant bits, so the recurrence multiplies by short integers
    for _ in range(150):
        top, cap = rng.randint(1, 12), rng.choice((8, 16, 64, 512))
        prec = Precision(bits=rng.randrange(64, 1025), truncation_cap=cap)
        w = _short_mantissa_w(rng, 10 ** rng.uniform(-3, math.log10(3e5)), prec.work_bits)
        with mp.workprec(prec.work_bits):
            cases.append((top, mpc(w), prec))
    outcomes = set()
    for top, w, prec in cases:
        want = [r and (r[0]._mpc_, r[1]) for r in bessel_orders_interleaved_reference(w._mpc_, top, prec)]
        for nu in range(top + 1):
            got = _exact_outcome(lambda nu, w, prec: bessel_ratio_raw(nu, w, prec, top=top), nu, w, prec)
            assert got == want[nu], (nu, top, w, prec)
            outcomes.add(got is None)
    assert outcomes == {True, False}
    # one pass per case, each summing every order once, in order
    assert len(passes) == len(cases)
    assert all(orders == list(range(lo, top + 1)) for (lo, top), orders in passes)
    cap_edge = [c for c in cases if c[2].truncation_cap ** 2 <= abs(c[1]) < c[2].truncation_cap * (c[2].truncation_cap + c[0])]
    assert len(cap_edge) > 100


def test_fixed_series_terms_bit_identical_to_four_product_reference():
    # the grid's terms, term for term, against four products by z's full fixed-point parts:
    # nu = 0..8, n up to 64, at scales from 64 bits to past the grid's 1024-bit ones; |z| about
    # 1e-3..16, of the kernel's short-mantissa kinds (doubles at any phase and on both axes,
    # integers whose trailing zeros pass the scale) or with full 256-bit parts
    rng = random.Random(4021)
    zs = [mpc(0)]
    for _ in range(240):
        size = 10 ** rng.uniform(-3, math.log10(16))
        if rng.random() < 0.25:
            e = math.floor(math.log2(size)) - 255
            parts = (rng.choice((1, -1)) * (rng.getrandbits(256) | 1 << 255) for _ in "ri")
            zs.append(mp.make_mpc(tuple(from_man_exp(man, e) for man in parts)))
        else:
            with mp.workprec(300):
                zs.append(mpc(_short_mantissa_w(rng, size, 300)))
    for z in zs:
        fbits = rng.randrange(64, 1100)
        zr, zi = (to_fixed(part, fbits) for part in z._mpc_)
        for nu in range(9):
            n = rng.randrange(-1, 65)
            re, im = fixed_series_terms(z, nu, n, fbits)
            got = list(zip(re, im))
            assert len(re) == len(im) <= max(n + 1, 0), (z, nu, n)
            assert got == list(itertools.islice(_fixed_terms_reference(zr, zi, nu, fbits), len(got))), (z, nu, fbits)
            # the terms stop at t_n or at the first term within a unit in both parts
            small = [-1 <= tr <= 1 and -1 <= ti <= 1 for tr, ti in got]
            assert not any(small[:-1]), (z, nu, n)
            assert len(got) == max(n + 1, 0) or small[-1], (z, nu, n)


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


def _divided_difference(f_derivative, nodes):
    """f[nodes] by the recursive definition on sorted nodes; f^(r)(x) / r! at an (r+1)-fold node."""
    nodes = sorted(nodes)
    if nodes[0] == nodes[-1]:
        return f_derivative(len(nodes) - 1, nodes[0])
    high = _divided_difference(f_derivative, nodes[1:])
    low = _divided_difference(f_derivative, nodes[:-1])
    return (high - low) / (nodes[-1] - nodes[0])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=9), min_size=1, max_size=3),
    st.data(),
)
def test_complete_homogeneous_is_the_newton_column_of_powers(values, data):
    # with repeats drawn from the same values: h_(k-j+1)(x_1..x_j) = (x^k)[x_1..x_j]
    nodes = values + data.draw(st.lists(st.sampled_from(values), max_size=3))
    nodes = data.draw(st.permutations(nodes))
    table = complete_homogeneous(nodes, 9)
    for k in range(10):
        def power_derivative(r, x):
            return math.comb(k, r) * x ** (k - r) if r <= k else 0

        for j in range(1, len(nodes) + 1):
            want = _divided_difference(power_derivative, nodes[:j])
            assert (table[j - 1][k - j + 1] if k >= j - 1 else 0) == want


def _abs_at_least(u):
    """|u| for a real u; for a complex one, a float at least |u| and within two ulps of it."""
    if not u.im:
        return abs(u.re)
    t = abs(complex(u.re, u.im))
    while Fraction(t) ** 2 < u.re**2 + u.im**2:
        t = math.nextafter(t, math.inf)
    return Fraction(t)


def _check_newton_sum_budget(data, imaginary):
    """One newton_sums call on one or two sides of Gaussian-dyadic nodes (exact in mpc) with repeats,
    against the exact sum: within the budget plus the final roundings at work_bits.

    `imaginary` draws the nodes' imaginary parts; without it every node, so
    every z, is real.
    """
    dyadic = st.builds(lambda num, k: Fraction(num, 2**k), st.integers(-60, 60), st.integers(0, 4))
    node = st.builds(GaussianRational, dyadic, dyadic if imaginary else st.just(0))
    sides = []
    for _ in range(data.draw(st.integers(1, 2))):
        values = data.draw(st.lists(node, min_size=1, max_size=3))
        sides.append(values + data.draw(st.lists(st.sampled_from(values), max_size=2)))
    parts = [(s, data.draw(st.integers(1, len(side))), data.draw(st.integers(0, 3))) for s, side in enumerate(sides)]
    a, b = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    with mp.workprec(PREC.work_bits):
        (got,), n = newton_sums([[u.to_mpc() for u in side] for side in sides], [(parts, a, b)], PREC)
    tables = [complete_homogeneous(side, n + 3 + 40, GaussianRational(1)) for side in sides]
    # s, max |u| rounded up to 8 bits, is at most (1 + 2^-7) max |u|
    top = [max(_abs_at_least(u) for u in side) * (1 + Fraction(1, 2**7)) or 1 for side in sides]
    exact, bound = GaussianRational(0), Fraction(0)
    weight = Fraction(1)
    for i in range(n + 40):
        if i:
            weight /= (a + i) * (b + i)
        exact += math.prod((tables[s][j - 1][o + i] for s, j, o in parts), start=GaussianRational(weight))
        if i < n:
            bound += weight * math.prod(top[s] ** (o + i) * math.comb(o + i + j - 1, j - 1) for s, j, o in parts)
    with mp.workprec(1000):
        want = exact.to_mpc()
        err = abs(got - want)
        scale = abs(want) * 4 + mpf(bound.numerator) / bound.denominator
        assert err <= scale * mpf(2) ** -PREC.work_bits


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_newton_sums_within_their_error_budget(data):
    _check_newton_sum_budget(data, imaginary=False)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_newton_sums_on_complex_nodes_within_their_error_budget(data):
    # complex z: the Horner steps and table products multiply both parts
    _check_newton_sum_budget(data, imaginary=True)


def _newton_pin_values():
    """newton_sums' values and term counts over seeded calls, as one repr string.

    Every call mixes one-table, two-table, power-times-table and power sums
    over two sides of clustered nodes (near pairs and exact repeats), on the
    real axis, the imaginary axis and off both, at 128 to 1024 bits.
    """
    rng = random.Random(3701)
    out = []
    for bits in (128, 256, 512, 1024):
        prec = Precision(bits=bits)
        for axis in ("real", "imaginary", "complex"):
            for _ in range(3):
                sides = []
                for _ in range(2):
                    size = 10 ** rng.uniform(-2, 1.5)
                    x, y = rng.uniform(-size, size), rng.uniform(-size, size)
                    base = {"real": (x, 0), "imaginary": (0, y), "complex": (x, y)}[axis]
                    near = [(base[0] * (1 + rng.uniform(-1, 1) * 10 ** -rng.randint(2, 9)),
                             base[1] * (1 + rng.uniform(-1, 1) * 10 ** -rng.randint(2, 9))) for _ in range(2)]
                    sides.append([mpc(*u) for u in [base] + near + [base]])
                parts = [(s, rng.randint(2, 4), rng.randint(0, 5)) for s in (0, 1)]
                sums = [
                    ([parts[0]], rng.randint(0, 4), rng.randint(0, 4)),
                    (parts, rng.randint(0, 4), rng.randint(0, 4)),
                    ([(0, 1, rng.randint(0, 5)), parts[1]], rng.randint(0, 4), rng.randint(0, 4)),
                    ([(1, 1, rng.randint(0, 5))], rng.randint(0, 4), rng.randint(0, 4)),
                ]
                with mp.workprec(prec.work_bits):
                    values, n = newton_sums(sides, sums, prec)
                out.append((bits, [v._mpc_ for v in values], n))
    return repr(out)


def test_newton_sums_values_bit_pinned():
    # the integers of every table, product and Horner step, the term counts and the
    # roundings of the prefactors; computed before the Horner steps took z's significant bits
    digest = hashlib.sha256(_newton_pin_values().encode()).hexdigest()
    assert digest == "e3a5ed58a2c1355c05a435f973f4c8ee935805a3a0cc1e02cd11d2b71f969459"


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
    # ints, Fractions and mixes of both, singular matrices, a zero leading entry
    # that forces a row swap, 1x1 and 0x0; the result is a Fraction on every input
    rng = random.Random(3)

    def entry(kind):
        frac = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return {"int": rng.randint(-9, 9), "fraction": frac, "mixed": rng.choice((rng.randint(-9, 9), frac))}[kind]

    cases = [[[entry(kind) for _ in range(n)] for _ in range(n)] for kind in ("int", "fraction", "mixed")
             for n in (1, 2, 3, 4, 5) for _ in range(4)]
    cases += [
        [], [[0]], [[7]], [[Fraction(-2, 3)]],
        [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[0, 0], [0, 0]], [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
        [[0, 1], [1, 0]], [[0, 2, 3], [4, 5, 6], [7, 8, 10]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[Fraction(0), Fraction(1, 2)], [3, Fraction(5, 7)]], [[0, 1, 2], [0, 3, 4], [5, 6, 7]],
    ]
    for rows in cases:
        det = exact_determinant(rows)
        assert type(det) is Fraction and det == det_cofactor(rows), rows


def test_exact_determinant_of_ints_builds_only_the_result_fraction(monkeypatch):
    # fraction-free elimination stays on ints: one Fraction, the result, on any int matrix
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(precision, "Fraction", Counting)
    rng = random.Random(5)
    for rows in ([[rng.randint(-50, 50) for _ in range(6)] for _ in range(6)], [[0, 3, 1], [2, 0, 5], [1, 4, 0]],
                 [[1, 2], [2, 4]], [[4]], []):
        made.clear()
        det = exact_determinant(rows)
        assert len(made) <= 1 and det == det_cofactor(rows)


def test_eliminations_refuse_malformed_matrices():
    prec = Precision(bits=96)
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]], [[]]):
        for det in (partial(det_mpc, prec=prec), exact_determinant):
            with pytest.raises(ValueError, match="matrix must be square"):
                det(rows)
    # the first entry that is not finite, in row order, is named
    for rows, where in (
        ([[mpf("nan")]], "(0, 0)"),
        ([[mpf("inf")]], "(0, 0)"),
        ([[1, 2], [mpc(3, "-inf"), mpf("nan")]], "(1, 0)"),
        ([[1, float("inf")], [float("nan"), 4]], "(0, 1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"matrix entry {where} is not finite")):
            det_mpc(rows, prec)
    assert det_mpc([], prec) == 1
    assert exact_determinant([]) == 1


# -- det_mpc against the elimination on mpc values, bit for bit -------------------

# exactly singular, or with a zero leading entry that forces a row swap
INTEGER_MATRICES = [
    [[0]],
    [[0, 0], [0, 0]],
    [[1, 2], [2, 4]],
    [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 1], [1, 0]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
    [[0, 0, 1], [0, 2, 3], [4, 5, 6]],
    [[2, 1, 0], [4, 2, 1], [1, 5, 3]],
]


def _exact(man, exp=0):
    """The mpf man·2^exp, not rounded."""
    return mp.make_mpf(from_man_exp(man, exp))


def _z(re, im=0):
    """The mpc re + i·im of two mpf (or ints), neither part rounded."""
    part = lambda x: (_exact(x) if isinstance(x, int) else x)._mpf_
    return mp.make_mpc((part(re), part(im)))


def _full(rng, bits, scale=0):
    """A random mpf of `bits` mantissa bits in (-2^scale, 2^scale)."""
    return _exact(rng.choice((1, -1)) * rng.getrandbits(bits), scale - bits)


def _random_rows(rng, n, bits, scale=lambda i, j: 0):
    return [[_z(_full(rng, bits, scale(i, j)), _full(rng, bits, scale(i, j))) for j in range(n)] for i in range(n)]


def _assert_det_bits(rows, prec):
    assert det_mpc(rows, prec)._mpc_ == det_mpc_reference(rows, prec)._mpc_


def _update(x, f, t):
    """[[1, t], [f, x]] with |f| < 1, so its determinant is the one row update x - f·t."""
    assert abs(f) < 1
    return [[_z(1), t], [f, x]]


def _rounding_edge_matrices(rng, wp):
    """Matrices whose row updates, multipliers and products sit on the edges of mpf_add's rounding."""
    sign = lambda: rng.choice((1, -1))
    odd = lambda bits: rng.getrandbits(bits - 1) | 1 << bits - 1 | 1
    half = _z(_exact(1, -1))
    out = []
    # x - f·t with f = 1/2, and f·t's real part fr·tr - fi·ti with t = (tr, 1),
    # where the two terms' lowest bits lie `off` bits apart and their top bits
    # delta = wp + 4 + d apart: mpf_add perturbs when off > 100 and delta > wp + 4
    for off in (101, 102, 150, wp + 4, 2 * wp):
        for d in (-2, -1, 0, 1, 2):
            by = min(max(off - 4 - d, 1), wp)  # the smaller term's bits
            big, small = sign() * odd(wp), sign() * odd(by)
            x, y = _exact(big, -wp - 1), _exact(small, -wp - 1 - off)
            x2, y2 = _exact(big, -wp), _exact(small, -wp - off)  # 2x and 2y
            out.append(_update(_z(x, y), half, _z(y2, x2)))  # x above f·t, and below
            out.append(_update(_z(0), _z(half.real, y), _z(x2, 1)))  # fr·tr above fi·ti
            out.append(_update(_z(0), _z(half.real, x), _z(y2, 1)))  # and below
    # fr·tr = (2^wp - 1)(2^(wp-1) + 1)·2^(-wp-1), 2·wp bits whose rounding bit
    # is 0 with ones below it, and -fi·ti = q1·q2·2^e > 0 with its lowest bit
    # `off` below fr·tr's and its top bit above fr·tr's lowest bit: the exact sum carries into
    # the rounding bit and rounds up, while mpf_add's perturbation (off > 100
    # and delta > wp + 4) rounds down; then the same with the two terms' roles
    # swapped.  The last two have delta = wp + 4 and wp + 5.
    lows = [(off, odd(60), odd(off - 50)) for off in (99, 100, 101, 102)]
    lows += [(101, (1 << wp) - 1, (1 << 97 - d) - 1) for d in (0, 1)]
    for off, q1, q2 in lows:
        pf, pt = ((1 << wp) - 1, -wp - 1), ((1 << wp - 1) + 1, 0)
        lf = (q1, -121 - q1.bit_length())
        lt = (q2, -wp - 1 - off - lf[1])
        neg = lambda part: _exact(-part[0], part[1])
        out.append(_update(_z(0), _z(_exact(*pf), neg(lf)), _z(_exact(*pt), _exact(*lt))))
        out.append(_update(_z(0), _z(_exact(*lf), neg(pf)), _z(_exact(*lt), _exact(*pt))))
    # exact ties at the rounding bit, toward the even neighbour below and above,
    # in a row update (x = ±2^wp, f·t = ∓1 or ∓3) and in a product (3·(2^(wp-1) + 1 or 3))
    for s in (1, -1):
        for low in (1, 3):
            out.append(_update(_z(_exact(s, wp), _exact(-s, wp)), half, _z(-2 * s * low, 2 * s * low)))
            out.append(_update(_z(0), _z(_exact(3 * s, -3), _exact(-3 * s, -3)), _z((1 << wp - 1) + low, 0)))
            out.append(_update(_z(_full(rng, wp, 100)), _z(0, _exact(3 * s, -2)), _z(0, (1 << wp - 1) + low)))
    # products and sums that round up to a power of two
    k = wp // 2 + 10
    for s in (1, -1):
        out.append(_update(_z(0), _z(_exact(s * ((1 << k) + 1), -k - 1)), _z((1 << k) - 1, s)))
        out.append(_update(_z(_exact(s, wp + 1)), half, _z(2 * s)))  # 2^(wp+1) - 1
    # exact cancellation: x is f·t rounded as mpc_mul rounds it, in both parts or one
    for _ in range(4):
        f, t = _z(_full(rng, wp, -1), _full(rng, wp, -1)), _z(_full(rng, wp, 40), _full(rng, wp, 40))
        with mp.workprec(wp):
            ft = f * t
        out.append(_update(ft, f, t))
        out.append(_update(_z(ft.real, _full(rng, wp, 40)), f, t))
    # multipliers that are 0 (zeros below a pivot) or have a zero part
    for n in (3, 4):
        rows = _random_rows(rng, n, wp)
        rows[1][0] = _z(0)
        rows[-1][0] = _z(0, _full(rng, wp))
        rows[2][1] = _z(_full(rng, wp))
        out.append(rows)
    out.append([[_z(1), _z(2)], [_z(0), _z(0)]])
    # entries of more than wp bits, some of them ties when rounded to wp bits
    for n in (1, 2, 5):
        out.append(_random_rows(rng, n, 3 * wp))
        rows = _random_rows(rng, n, wp)
        rows[0][0] = _z(_exact((1 << wp) + 1, -wp), _exact(-(1 << wp) - 3, -wp))
        rows[-1][-1] = _z(_exact((1 << wp) + 3, 7), _exact(-(1 << wp) - 1, 7))
        out.append(rows)
    return out


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_det_mpc_bit_identical_to_reference(bits):
    # work bits 128, 288 and 1056; entries of work_bits, of twice that (an
    # entry is rounded to work_bits before its first operation), graded by
    # row and column, and of scattered magnitudes; then row updates,
    # multipliers and products on the edges of mpf_add's rounding
    prec = Precision(bits=bits)
    wp = prec.work_bits
    rng = random.Random(bits)
    gradings = [
        lambda i, j: 0,
        lambda i, j: 40 * (i - j),
        lambda i, j: -60 * i * j,
        lambda i, j: rng.randint(-300, 300),
    ]
    for n in range(1, 13):
        for grading in gradings:
            _assert_det_bits(_random_rows(rng, n, wp, grading), prec)
        _assert_det_bits(_random_rows(rng, n, 2 * wp), prec)
    for rows in _rounding_edge_matrices(rng, wp):
        _assert_det_bits(rows, prec)
    for rows in INTEGER_MATRICES:
        _assert_det_bits(rows, prec)
        assert exact_determinant(rows) == det_cofactor(rows)


def _near_tie_columns(rng, wp):
    """Pivot columns whose largest |entry| is tied, exactly or after rounding to wp bits."""
    x, y = _full(rng, wp), _full(rng, wp)
    ulp = mp.make_mpf(from_man_exp(1, x.man.bit_length() + x.exp - wp)) if x else 0
    # (x, t) has |.|^2 = x^2 (1 + 2^-(wp+2)): its |.| rounds to |x| at wp bits
    t = abs(x) * mpf(2) ** -((wp + 2) // 2)
    return [
        # conjugate pairs and swapped parts: equal exact norms
        [mpc(x, y), mpc(x, -y)],
        [mpc(x, y), mpc(y, x), mpc(-x, y)],
        [mpc(0.5 * x, y), mpc(x, -y), mpc(x, y)],
        # equal rounded |.|, different exact norms, the larger second or first
        [mpc(x), mpc(x, t)],
        [mpc(x, t), mpc(x)],
        [mpc(0.25 * x), mpc(x), mpc(-x, t)],
        # exact norms within 2^-(wp-4) of each other, but rounded |.| two units apart
        [mpc(x), mpc(abs(x) + 2 * ulp)],
        [mpc(x, y), mpc(x + 2 * ulp * mp.sign(x), y)],
    ]


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_det_mpc_near_tie_pivots_match_a_wider_determinant(bits):
    # a near tie may pivot on either candidate; each pick must leave the value
    # within 2^-(work_bits - 8) relative of mpmath's determinant at 8 work_bits
    prec = Precision(bits=bits)
    wp = prec.work_bits
    rng = random.Random(7 * bits)

    def check(rows):
        got = det_mpc(rows, prec)
        with mp.workprec(8 * wp):
            want = mp.det(mp.matrix(rows))
            assert abs(got - want) <= abs(want) * mpf(2) ** -(wp - 8)

    for trial in range(4):
        with mp.workprec(4 * wp):
            columns = _near_tie_columns(rng, wp)
        for column in columns:
            n = len(column) + 1
            rows = _random_rows(rng, n, wp)
            for i, v in enumerate(column):
                rows[i][0] = v
            check(rows)
            # the same column one step later: zeros below the first pivot leave it as it is
            rows = _random_rows(rng, n + 1, wp)
            for i, v in enumerate(column):
                rows[i + 1][0] = 0
                rows[i + 1][1] = v
            check(rows)


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_pivot_takes_the_first_of_equal_norms(bits):
    # conjugate pairs and swapped parts have equal exact norms: the first of them is the pivot
    wp = Precision(bits=bits).work_bits
    rng = random.Random(11 * bits)
    for _ in range(4):
        x, y = _full(rng, wp), _full(rng, wp)
        for column, first in [
            ([mpc(x, y), mpc(x, -y)], 0),
            ([mpc(x, -y), mpc(x, y)], 0),
            ([mpc(x, y), mpc(y, x), mpc(-x, y)], 0),
            ([mpc(x / 2, y / 2), mpc(-x, -y), mpc(x, -y)], 1),
        ]:
            pairs = [precision._from_mpc(z._mpc_, wp) for z in column]
            assert precision._pivot_pairs(wp, pairs) == first


@pytest.mark.parametrize("bits", [96, 256, 1024])
def test_add_drops_a_distant_term_and_breaks_a_tie_to_even(bits):
    # a product 3 (2^(wp-1) + 1) or 3 (2^(wp-1) + 3) of two odd parts has wp + 1 bits and sits
    # on an exact tie at wp bits; a second term more than 100 exponents and wp + 4 top bits
    # below it is dropped, so the tie goes to even whatever that term's sign, where
    # libmp's mpf_add rounds it toward the small term's sign
    wp = Precision(bits=bits).work_bits
    for low in (1, 3):
        big = 3 * ((1 << wp - 1) + low)
        down, up = big >> 1, (big >> 1) + 1  # its neighbours at wp bits, in units of 2
        even = from_man_exp(up if down & 1 else down, 1)
        for small in (1, -1, 2**60 + 1, -(2**60) - 1):
            be = -150 - small.bit_length()
            assert from_man_exp(*precision._add(big, 0, small, be, wp)) == even
            assert from_man_exp(*precision._add(small, be, big, 0, wp)) == even
            libmp = mpf_add(from_man_exp(big, 0), from_man_exp(small, be), wp, round_nearest)
            assert libmp == from_man_exp(up if small > 0 else down, 1)


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


def test_bigcomplex_json_round_trip():
    x = BigComplex(Fraction(22, 7), Fraction(-1, 3), bits=192)
    doc = x.to_json()
    assert doc["bits"] == 192
    y = BigComplex.from_json(doc)
    with mp.workprec(250):
        assert abs(x.to_mpc() - y.to_mpc()) < mpf(2) ** -180


@pytest.mark.parametrize(
    "value", [None, [], [2], {}, {"m": 2}, math.inf, -math.inf, math.nan], ids=repr
)
def test_json_int_refuses_every_non_integer_with_value_error(value):
    # int() raises TypeError on null, a list or an object and OverflowError on an
    # infinity; a caller that catches ValueError for a bad document must see each
    with pytest.raises(ValueError, match=r"^m must be an integer, got "):
        precision.json_int(value, "m")


def test_precision_validation():
    # a setting is an integer, or ValueError names it: a float, a bool or a string
    # would be stored and fail later, inside a kernel or in from_json
    for build, field in [
        (lambda: Precision(bits=32), "precision"),
        (lambda: Precision(truncation_cap=4), "truncation_cap"),
        (lambda: Precision(bits=256.5), "bits"),
        (lambda: Precision(bits=True), "bits"),
        (lambda: Precision(bits="256"), "bits"),
        (lambda: Precision(guard_bits=2.5), "guard_bits"),
        (lambda: Precision(guard_bits=True), "guard_bits"),
        (lambda: Precision(guard_bits="32"), "guard_bits"),
        (lambda: Precision(truncation_cap=100.5), "truncation_cap"),
        (lambda: Precision(truncation_cap=True), "truncation_cap"),
        (lambda: Precision(truncation_cap="100"), "truncation_cap"),
        (lambda: BigComplex(1, bits=100.5), "bits"),
        (lambda: BigComplex(1, bits=True), "bits"),
        (lambda: BigComplex(1, bits="100"), "bits"),
    ]:
        with pytest.raises(ValueError, match=field):
            build()
    # an integral float is taken, and stored as the int
    assert Precision(256.0) == Precision(256) and hash(Precision(256.0)) == hash(Precision(256))
    prec = Precision(256.0, 32.0, 600.0)
    assert [type(v) for v in (prec.bits, prec.guard_bits, prec.truncation_cap)] == [int] * 3
    x = BigComplex(1, bits=100.0)
    assert BigComplex.from_json(x.to_json()).to_json() == x.to_json() == {"re": "1.0", "im": "0.0", "bits": 100}


@pytest.mark.parametrize(
    "bits, guard_bits, cap, want",
    [(256, 32, None, 512), (4071, 32, None, 512), (4072, 32, None, 513), (16384, 32, None, 2052),
     (65536, 32, None, 8196), (4000, 800, None, 600), (16384, 32, 64, 64)],
)
def test_default_cap_grows_with_the_work_bits(bits, guard_bits, cap, want):
    # max(512, work_bits // 8); an explicit cap wins
    assert Precision(bits, guard_bits, cap).truncation_cap == want


@pytest.mark.parametrize("bits", [64, 16384, precision.MAX_BITS])
def test_records_round_trip_at_any_bits(bits):
    # above about 14,270 bits a record writes more than the 4300 digits int() reads
    # from a string; the values cover fixed notation with leading zeros and exponents
    rng = random.Random(bits)
    for exp in (0, -3, -(precision.decimal_digits(bits) // 3) * 10 // 3, 5000, -5000):
        sign = rng.choice((1, -1))
        x = BigComplex(mpf(sign * (rng.getrandbits(bits) | 1 << (bits - 1))) * mpf(2) ** (exp - bits),
                       mpf(rng.getrandbits(bits)) * mpf(2) ** -bits, bits)
        doc = x.to_json()
        y = BigComplex.from_json(doc)
        assert (y.re._mpf_, y.im._mpf_, y.bits) == (x.re._mpf_, x.im._mpf_, bits)
        assert y.to_json() == doc


def test_number_strings_read_as_mpf_reads_them():
    # the same splitting and rounding as mpmath's from_str, exponents past 400 included;
    # a string mpf refuses, as one with no digits but zeros after its point, is refused too
    rng = random.Random(37)
    texts = ["0", "-0", "1.", ".5", "+1.5e-3", "1e500", "-1e-500", "12.3400", "1E5", " 7.25 ", "inf", "-inf", "nan", "1/3",
             ".0", "-.00", "+.0e5", ".", ".e5", "1e", "--1"]
    for _ in range(300):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 200)))
        k = rng.randint(0, len(digits))
        text = rng.choice(("", "-", "+")) + digits[:k] + "." + digits[k:]
        texts.append(text + (f"e{rng.randint(-900, 900)}" if rng.random() < 0.6 else ""))
    for bits in (64, 256, 1024):
        for text in texts:
            try:
                with mp.workprec(bits):
                    want = mpf(text)._mpf_
            except ValueError:
                with pytest.raises(ValueError):
                    precision.read_decimal(text, bits)
                continue
            assert precision.read_decimal(text, bits)._mpf_ == want, (text, bits)


def test_an_over_long_number_string_is_refused_at_once():
    start = time.perf_counter()
    for text in ("1" * (precision.MAX_NUMBER_CHARS + 1), "0." + "3" * 10**7):
        with pytest.raises(ValueError, match=f"^a number string may have at most {precision.MAX_NUMBER_CHARS} characters"):
            BigComplex.from_json({"re": text, "bits": 64})
    assert time.perf_counter() - start < 0.5
    with mp.workprec(64):
        third = mpf(1) / 3
    assert BigComplex.from_json({"re": "0." + "3" * (precision.MAX_NUMBER_CHARS - 2), "bits": 64}).re == third


@pytest.mark.parametrize("bits", [precision.MAX_BITS + 1, 10**8])
def test_bits_above_the_bound_are_refused_at_once(bits):
    # a 3e6-bit record took 8 s to parse, and an ls-eval with a 1e8-bit beta ran for
    # minutes; the JSON record is refused before its digits are read
    start = time.perf_counter()
    for make in (
        lambda: Precision(bits),
        lambda: BigComplex(1, bits=bits),
        lambda: BigComplex.from_json({"re": "1." + "3" * 40, "bits": bits}),
    ):
        with pytest.raises(ValueError, match=f"^precision must be at most {precision.MAX_BITS} bits$"):
            make()
    assert time.perf_counter() - start < 1
    top = precision.MAX_BITS
    assert Precision(top).bits == BigComplex(1, bits=top).bits == BigComplex.from_json({"re": "1", "bits": top}).bits


def test_precision_is_an_immutable_value():
    p = Precision(128, 16, 64)  # positional order: bits, guard_bits, truncation_cap
    assert (p.bits, p.guard_bits, p.truncation_cap, p.work_bits) == (128, 16, 64, 144)
    same = Precision(bits=128, guard_bits=16, truncation_cap=64)
    assert p == same and hash(p) == hash(same)
    assert p != Precision(128, 16, 65) and p != (128, 16, 64)
    assert pickle.loads(pickle.dumps(p)) == p
    assert repr(Precision()) == "Precision(bits=256, guard_bits=32, truncation_cap=512)"
    with pytest.raises(AttributeError):
        p.bits = 256

    # a cache key: an equal Precision finds the entry
    @lru_cache(maxsize=None)
    def work_bits(prec):
        return prec.work_bits

    work_bits(p)
    work_bits(same)
    assert work_bits.cache_info().hits == 1
