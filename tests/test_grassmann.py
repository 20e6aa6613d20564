"""Grassmann algebra, Berezin calculus, even-element calculus, supermatrices."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp, mpc, mpf

from superint import (
    GaussianRational,
    GrassmannElement,
    NonInvertibleBody,
    Precision,
    SuperMatrixSym,
    analytic_eval,
    berezin_integrate,
    even_inverse,
    exp_odd_block,
    superdeterminant,
    supertrace,
)
from superint.errors import GeneratorMismatch
from superint.grassmann import FixedGaussian, _bessel_kernel
from superint.precision import bessel_ratio_raw

from oracles import monomial_product_sign

PREC = Precision()


def gen(g, i):
    return GrassmannElement.generator(g, i)


def scalar(g, v):
    return GrassmannElement.scalar(g, v)


def monomial(g, indices):
    """Ascending product of the listed generators, built through the public API."""
    out = scalar(g, 1)
    for i in sorted(indices):
        out = out * gen(g, i)
    return out


def all_monomials(g):
    return {s: monomial(g, s) for k in range(g + 1) for s in combinations(range(g), k)}


def random_element(rng, g, max_terms=4, span=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, g)
        mono = sum(1 << i for i in rng.sample(range(g), size))
        terms[mono] = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return GrassmannElement(g, terms)


def test_multiply_examples():
    g = 4
    a1, a2 = gen(g, 0), gen(g, 2)
    assert (a1 * a1).is_zero
    assert a1 * a2 == -(a2 * a1)
    x = scalar(g, 1) + a1 * a2
    y = scalar(g, 1) - a1 * a2
    assert x * y == scalar(g, 1)


def test_generator_mismatch():
    with pytest.raises(GeneratorMismatch):
        gen(2, 0) * gen(4, 0)


def test_associativity_random_sparse():
    rng = random.Random(17)
    for _ in range(40):
        g = rng.choice((2, 4, 6))
        x, y, z = (random_element(rng, g) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_conjugate_examples():
    g = 4
    a1, a1s, a2, a2s = gen(g, 0), gen(g, 1), gen(g, 2), gen(g, 3)
    assert a1.conjugate() == a1s
    assert (a1 * a2).conjugate() == a2s * a1s
    assert a1.conjugate().conjugate() == a1


def test_conjugate_is_antilinear_involution():
    rng = random.Random(29)
    for _ in range(40):
        g = rng.choice((2, 4, 6))
        x = random_element(rng, g)
        assert x.conjugate().conjugate() == x
    # antilinearity on a complex coefficient
    x = GrassmannElement(2, {0b01: mpc(2, 3)})
    assert x.conjugate() == GrassmannElement(2, {0b10: mpc(2, -3)})


def test_conjugate_anti_multiplicativity():
    rng = random.Random(31)
    for _ in range(30):
        g = rng.choice((4, 6))
        x, y = random_element(rng, g), random_element(rng, g)
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_product_signs_match_inversion_oracle():
    g = 8
    monos = all_monomials(g)
    for left, x in monos.items():
        for right, y in monos.items():
            if set(left) & set(right):
                assert (x * y).is_zero
            else:
                want = monos[tuple(sorted(left + right))] * monomial_product_sign(left, right)
                assert x * y == want


def test_conjugate_signs_match_reversed_starred_product():
    g = 8
    monos = all_monomials(g)
    for s, x in monos.items():
        starred = [i ^ 1 for i in reversed(s)]
        reversed_product = scalar(g, 1)
        for i in starred:
            reversed_product = reversed_product * gen(g, i)
        conj = x.conjugate()
        assert conj == reversed_product
        assert conj == monos[tuple(sorted(starred))] * monomial_product_sign(starred, [])


def test_berezin_signs_match_generator_position():
    g = 8
    monos = all_monomials(g)
    for s, x in monos.items():
        for i in range(g):
            out = berezin_integrate(x, [i])
            if i in s:
                rest = tuple(j for j in s if j != i)
                assert out == monos[rest] * (-1) ** s.index(i)
            else:
                assert out.is_zero


def test_berezin_examples():
    g = 2
    a1 = gen(g, 0)
    assert berezin_integrate(a1, [0]) == scalar(g, 1)
    assert berezin_integrate(scalar(g, 1), [0]).is_zero
    # innermost-first iterated pair, measure order (a1, a1*)
    pair = a1 * a1.conjugate()
    assert berezin_integrate(pair, [0, 1]) == scalar(g, -1)
    assert berezin_integrate(pair, [1, 0]) == scalar(g, 1)


def test_berezin_refuses_generators_the_algebra_lacks():
    # as GrassmannElement.generator does; 4 and 7 once integrated to zero, -1 failed on its shift
    x = gen(4, 0) * gen(4, 1)
    for order in ([4], [7, 0], [-1], [0, 1, 4]):
        with pytest.raises(ValueError, match="generator index out of range"):
            berezin_integrate(x, order)


def test_berezin_full_top_form():
    g = 4
    top = gen(g, 0) * gen(g, 1) * gen(g, 2) * gen(g, 3)
    out = berezin_integrate(top, [0, 1, 2, 3])
    assert out == scalar(g, 1)


def test_even_element_body_soul():
    g = 2
    w = scalar(g, 3) + gen(g, 0) * gen(g, 1)
    assert w.body == 3
    assert w.soul() == gen(g, 0) * gen(g, 1)
    # the even-element calculus refuses odd and mixed elements
    for bad in (gen(g, 0), w + gen(g, 1)):
        with pytest.raises(ValueError, match="not purely even"):
            even_inverse(bad)
        with pytest.raises(ValueError, match="not purely even"):
            analytic_eval((0,), bad, PREC)


def test_even_inverse_examples():
    g = 4
    w = scalar(g, Fraction(2))
    assert even_inverse(w) == scalar(g, Fraction(1, 2))
    u = scalar(g, 1) + gen(g, 0) * gen(g, 2)
    assert even_inverse(u) == scalar(g, 1) - gen(g, 0) * gen(g, 2)
    assert (u * even_inverse(u)) == scalar(g, 1)
    with pytest.raises(NonInvertibleBody):
        even_inverse(gen(g, 0) * gen(g, 1))


def test_even_inverse_random():
    rng = random.Random(41)
    for _ in range(20):
        g = 6
        soul_terms = {}
        for _ in range(3):
            mono = sum(1 << i for i in rng.sample(range(g), 2))
            soul_terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        w = scalar(g, Fraction(rng.randint(1, 5))) + GrassmannElement(g, soul_terms)
        assert w * even_inverse(w) == scalar(g, 1)


def test_exact_complex_body_inverts():
    g = 4
    assert 1 / GaussianRational(2, 1) == GaussianRational(Fraction(2, 5), Fraction(-1, 5))
    soul = gen(g, 0) * gen(g, 2) * Fraction(3, 2) + gen(g, 1) * gen(g, 3) * GaussianRational(0, 1)
    w = scalar(g, GaussianRational(2, 1)) + soul
    assert w * even_inverse(w) == scalar(g, 1)
    d = SuperMatrixSym.diagonal(1, 1, g, [GaussianRational(5, 1), GaussianRational(2)])
    want = GaussianRational(Fraction(5, 2), Fraction(1, 2))
    assert superdeterminant(d) == scalar(g, want)


def test_analytic_eval_trivial():
    g = 2
    zero = scalar(g, 0)
    assert analytic_eval((0,), zero, PREC) == [scalar(g, mpc(1))]


def test_analytic_eval_bessel_soul_structure():
    # f(x (1 + a a*)) = f(x) + x f'(x) a a* for the nilpotent direction
    g = 2
    x = Fraction(3, 7)
    arg = scalar(g, x) + gen(g, 0).conjugate() * gen(g, 0) * x
    (out,) = analytic_eval((0,), arg, PREC)
    d0, d1 = (v.body for v in analytic_eval((0, 1), scalar(g, x), PREC))
    with mp.workprec(300):
        expect_soul = gen(g, 0).conjugate() * gen(g, 0) * (x * d1)
        assert abs(mpc(out.body) - mpc(d0)) < mpf(2) ** -250
        diff = out.soul() - expect_soul
        assert all(abs(mpc(c)) < mpf(2) ** -250 for c in diff.terms.values())


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("body", [Fraction(3, 7), GaussianRational(Fraction(-5, 2), Fraction(1, 3))])
def test_analytic_eval_bessel_second_order_soul(nu, body):
    # g = 4 admits s^2 != 0, so f(b + s) = f(b) + f'(b) s + f''(b) s^2 / 2 enters
    # at second order; the reference is hyp0f1 with mp.diff derivatives, which
    # does not use the order shift d/dw R(nu, w) = R(nu + 1, w)
    g = 4
    s = gen(g, 0) * gen(g, 1) * Fraction(2, 5) + gen(g, 2) * gen(g, 3) * GaussianRational(Fraction(-3, 4), 1)
    assert not (s * s).is_zero
    (out,) = analytic_eval((nu,), scalar(g, body) + s, PREC)
    with mp.workprec(400):
        b = GaussianRational(body).to_mpc() if isinstance(body, Fraction) else body.to_mpc()

        def f(x):
            return mp.hyp0f1(nu + 1, x) / mp.factorial(nu)

        d0, d1, d2 = (mp.diff(f, b, j) for j in range(3))
        ref = scalar(g, d0) + s * d1 + (s * s) * (d2 / 2)
        diff = out - ref
        assert set(out.terms) == {0, 0b0011, 0b1100, 0b1111}
        assert all(abs(mpc(c)) < mpf(2) ** -200 for c in diff.terms.values())


BESSEL_BODIES = [
    Fraction(7, 3),
    Fraction(-45, 2),
    Fraction(0),
    GaussianRational(Fraction(5, 4), Fraction(-3, 2)),
    GaussianRational(0, Fraction(9, 2)),
]


def _bessel_series_points():
    """R(nu, body) at nu 0..5 and 64..1024 bits on positive, negative, zero, complex and imaginary bodies."""
    for bits in (64, 128, 256, 512, 1024):
        for nu in range(6):
            for body in BESSEL_BODIES:
                yield Precision(bits=bits), nu, body


def test_bessel_series_values_bit_pinned():
    # every bit of R(nu, body); test_bessel_series_matches_the_library_kernel judges the values
    out = [_bessel_kernel(nu, body, prec)._mpc_ for prec, nu, body in _bessel_series_points()]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "114aef2782e2f2dfb8c9433fbb2b8c6a9f0847e30ab9285720909ed78939031c"


def test_bessel_series_matches_the_library_kernel():
    # the oracle's mpmath kernel against precision.bessel_ratio_raw at 256 more bits,
    # within 2^-bits relative (measured: 2^-(bits + 31.7) at worst)
    for prec, nu, body in _bessel_series_points():
        value = _bessel_kernel(nu, body, prec)
        ref, _ = bessel_ratio_raw(nu, body, Precision(bits=prec.bits + 256))
        with mp.workprec(prec.bits + 300):
            assert abs(value - ref) <= abs(ref) * mpf(2) ** -prec.bits, (prec.bits, nu, body)


def _soul_series_points():
    """Seeded complex even elements whose souls hold every even monomial, so each power up to g/2 is nonzero."""
    rng = random.Random(71)
    for bits in (64, 128, 256, 512, 1024):
        prec = Precision(bits=bits)
        for g in (2, 4, 6):
            with mp.workprec(prec.work_bits):
                w = GrassmannElement(g, {
                    mono: mpc(mpf(rng.randint(1, 60)) / rng.randint(1, 13), mpf(rng.randint(-30, 30)) / rng.randint(1, 11))
                    for mono in range(1 << g) if mono.bit_count() % 2 == 0
                })
            yield prec, w


def test_soul_series_values_bit_pinned():
    # every bit and the term order of even_inverse, whose soul series shares no kernel
    # with analytic_eval; the sha256 was taken when each function had its own loop
    out = []
    for prec, w in _soul_series_points():
        with mp.workprec(prec.work_bits):
            out.append([(mono, c._mpc_) for mono, c in even_inverse(w).terms.items()])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "fc9f1317690bbb070c792976206fbe4d58030ec3f6af122d12f3b72e7f8ce375"


def test_analytic_eval_values_bit_pinned():
    # every bit and the term order of analytic_eval on the same elements; the soul
    # series is even_inverse's, the kernel sums are test_bessel_series_matches_the_library_kernel's
    out = []
    for prec, w in _soul_series_points():
        out += [[(mono, c._mpc_) for mono, c in v.terms.items()] for v in analytic_eval((0, 2), w, prec)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "9abecf92f5c91fe072fd4b7299b5c8244bae60fac26bad32d0b63e6cac02b50e"


def test_analytic_eval_orders_share_one_soul_chain(monkeypatch):
    # one call over orders (0, 1, 2) gives what three one-order calls give, every
    # term's bits in the same term order, from one chain of soul powers: full souls
    # at g = 4 and 6, a body-only argument and a soul whose square vanishes
    full = [w for prec, w in _soul_series_points() if prec.bits == 256 and w.generator_count > 2]
    with mp.workprec(PREC.work_bits):
        body = mpc(mpf(7) / 3, mpf(-2) / 5)
        square_free = scalar(4, body) + gen(4, 0) * gen(4, 1) * mpc(mpf(3) / 7, 1)
        points = [(w, w.generator_count // 2) for w in full] + [(scalar(6, body), 0), (square_free, 1)]
    assert [w.generator_count for w, _ in points] == [4, 6, 6, 4]
    for w, powers in points:
        alone = [analytic_eval((nu,), w, PREC)[0] for nu in (0, 1, 2)]
        calls = []
        mul = GrassmannElement.__mul__

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(GrassmannElement, "__mul__", counted)
        together = analytic_eval((0, 1, 2), w, PREC)
        monkeypatch.undo()
        assert len(together) == 3
        for got, want in zip(together, alone):
            assert [(m, c._mpc_) for m, c in got.terms.items()] == [(m, c._mpc_) for m, c in want.terms.items()]
        # the chain once, up to its first zero power or s^(g/2), then one product per power and order
        assert len(calls) == min(powers + 1, w.generator_count // 2) + 3 * powers


def test_even_inverse_forms_no_power_past_half_the_generators(monkeypatch):
    # at g = 4 the soul s = (a0 a1 + a2 a3) / 2 has s^2 != 0 and s^3 = 0 by degree:
    # soul/body, the powers s (as 1 * s) and s^2 and the final /body make 4
    # products; the signed terms are added and subtracted, and s^3 is never formed
    g = 4
    w = scalar(g, 2) + gen(g, 0) * gen(g, 1) + gen(g, 2) * gen(g, 3)
    calls = []
    mul = GrassmannElement.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    inv = even_inverse(w)
    monkeypatch.undo()
    assert len(calls) == 4
    s = (w - 2) * Fraction(1, 2)
    assert not (s * s).is_zero
    assert inv == (1 - s + s * s) * Fraction(1, 2)
    assert w * inv == scalar(g, 1)


def test_gaussian_rational_hash_agrees_with_equality():
    # equal values must hash alike, or sets and dicts keep both copies
    assert GaussianRational(1) == 1 and hash(GaussianRational(1)) == hash(1)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({GaussianRational(1), 1}) == 1
    assert GaussianRational(1, 1) != GaussianRational(1)
    g = 2
    real, plain = GrassmannElement.scalar(g, GaussianRational(1)), GrassmannElement.scalar(g, 1)
    assert real == plain and hash(real) == hash(plain)
    assert len({real, plain}) == 1
    soul = gen(g, 0) * gen(g, 1)
    assert len({real + soul * GaussianRational(Fraction(2, 3)), plain + soul * Fraction(2, 3)}) == 1


# a small scale, so that the floors of the fixed-point ring are seen
FIXED_BITS = 96


def _stored(z):
    """The value a FixedGaussian stands for, exactly."""
    return GaussianRational(Fraction(z.re, 2**z.fbits), Fraction(z.im, 2**z.fbits))


def _within_floor_budget(got, exact):
    """Whether each part of got is exact floored onto got's grid: an error in (-u, 0], u = 2^-fbits."""
    unit = 2**got.fbits
    return all(-1 < part - want * unit <= 0 for part, want in ((got.re, exact.re), (got.im, exact.im)))


def _fixed_inputs(seed, count=40):
    """Seeded GaussianRationals from about 2^-60 to 2^40 in size, each with its FixedGaussian."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scale = Fraction(2) ** rng.randint(-60, 40)
        x = GaussianRational(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) * scale,
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) * scale,
        )
        out.append((x, FixedGaussian.of(x, FIXED_BITS)))
    return out


def test_fixed_point_entry_floors_onto_the_grid():
    for x, z in _fixed_inputs(1):
        assert z.fbits == FIXED_BITS and _within_floor_budget(z, x)
        assert _within_floor_budget(FixedGaussian.of(x.re, FIXED_BITS), GaussianRational(x.re))
    assert _stored(FixedGaussian.of(-7, FIXED_BITS)) == -7
    # an mpf or mpc whose lowest set bit is on the grid enters exactly, its sign read with it
    with mp.workprec(200):
        for man, exp in ((-12345, -40), (987, -FIXED_BITS), (-1, 30)):
            value = mpf(man) * mpf(2) ** exp
            want = Fraction(man) * Fraction(2) ** exp
            assert _stored(FixedGaussian.of(value, FIXED_BITS)) == want
            assert _stored(FixedGaussian.of(mpc(1, value), FIXED_BITS)) == GaussianRational(1, want)
    # below the grid a positive part floors to 0, a negative one to -u
    tiny = Fraction(1, 2 ** (FIXED_BITS + 1))
    assert not FixedGaussian.of(tiny, FIXED_BITS)
    assert _stored(FixedGaussian.of(-tiny, FIXED_BITS)) == -Fraction(1, 2**FIXED_BITS)


def test_fixed_point_ring_operations_within_their_budgets():
    pairs = list(zip(_fixed_inputs(2), _fixed_inputs(3)))
    for (_, x), (_, y) in pairs:
        sx, sy = _stored(x), _stored(y)
        # exact: sums, differences, negation, products by ints and conjugation
        assert _stored(x + y) == sx + sy and _stored(x - y) == sx - sy and _stored(-x) == -sx
        assert _stored(x * 7) == sx * 7 and _stored(-3 * x) == sx * -3
        assert _stored(x.conjugate()) == sx.conjugate()
        # floored: the product and the inverse of the stored values
        assert _within_floor_budget(x * y, sx * sy)
        assert _within_floor_budget(1 / x, 1 / sx) and _within_floor_budget(5 / y, 5 / sy)
    assert not FixedGaussian.of(0, FIXED_BITS) and FixedGaussian.of(GaussianRational(0, 1), FIXED_BITS)
    with pytest.raises(ZeroDivisionError):
        1 / FixedGaussian.of(0, FIXED_BITS)


def test_fixed_point_budget_check_catches_a_planted_error():
    (_, x), (_, y) = _fixed_inputs(4, 2)
    product = x * y
    exact = _stored(x) * _stored(y)
    assert _within_floor_budget(product, exact)
    planted = FixedGaussian(product.re - 2, product.im, product.fbits)
    assert not _within_floor_budget(planted, exact)


def test_fixed_point_values_at_different_scales_do_not_mix():
    x = FixedGaussian.of(Fraction(1, 3), FIXED_BITS)
    y = FixedGaussian.of(Fraction(1, 3), FIXED_BITS + 1)
    for op in (lambda: x * y, lambda: x + y, lambda: x - y):
        with pytest.raises(ValueError, match="scales differ"):
            op()
    # nor with another coefficient ring, ints aside
    for other in (Fraction(1, 3), GaussianRational(1, 1), mpc(1, 1)):
        with pytest.raises(TypeError):
            x * other


def test_fixed_point_full_even_product_agrees_with_mpc():
    # every even monomial of 8 generators on both sides, as in a (2|1) Haar point's
    # largest products; the fixed-point product, at work_bits + 32, agrees with the
    # mpc product at work_bits to 2^-(bits - 8) relative in each coefficient
    g = 8
    rng = random.Random(5)
    even = [mono for mono in range(1 << g) if mono.bit_count() % 2 == 0]

    def draw():
        return Fraction(rng.randint(-999, 999), rng.randint(1, 999))

    exact = [GrassmannElement(g, {mono: GaussianRational(draw(), draw()) for mono in even}) for _ in range(2)]
    fbits = PREC.work_bits + 32
    fixed = [GrassmannElement(g, {mono: FixedGaussian.of(c, fbits) for mono, c in e.terms.items()}) for e in exact]
    with mp.workprec(PREC.work_bits):
        on_mpc = [GrassmannElement(g, {mono: c.to_mpc() for mono, c in e.terms.items()}) for e in exact]
        want = on_mpc[0] * on_mpc[1]
        got = fixed[0] * fixed[1]
        assert len(want.terms) == 128 and set(got.terms) == set(want.terms)
        for mono, c in want.terms.items():
            assert abs(got.terms[mono].to_mpc() - c) <= abs(c) * mpf(2) ** -(PREC.bits - 8), mono


def test_exp_odd_block_unitary_1_1():
    g = 2
    u = exp_odd_block([[gen(g, 0)]])
    assert u @ u.adjoint() == SuperMatrixSym.identity(1, 1, g)
    assert u.adjoint() @ u == SuperMatrixSym.identity(1, 1, g)


def test_exp_odd_block_unitary_2_1():
    g = 4
    alphas = [[gen(g, 0)], [gen(g, 2)]]
    u = exp_odd_block(alphas)
    assert u @ u.adjoint() == SuperMatrixSym.identity(2, 1, g)


def test_exp_odd_block_zero_gives_identity():
    g = 2
    u = exp_odd_block([[scalar(g, 0)]])
    assert u == SuperMatrixSym.identity(1, 1, g)


def test_supertrace_and_sdet_identity():
    g = 2
    eye = SuperMatrixSym.identity(1, 1, g)
    assert supertrace(eye).is_zero
    assert superdeterminant(eye) == scalar(g, 1)
    d = SuperMatrixSym.diagonal(1, 1, g, [Fraction(5), Fraction(3)])
    assert supertrace(d) == scalar(g, Fraction(2))
    assert superdeterminant(d) == scalar(g, Fraction(5, 3))


def _even_2x2_det(rows):
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _small_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _random_even(rng, g, body):
    i, j = rng.sample(range(g), 2)
    return scalar(g, body) + gen(g, i) * gen(g, j) * _small_fraction(rng)


def _random_odd(rng, g):
    i, j = rng.sample(range(g), 2)
    return gen(g, i) * _small_fraction(rng) + gen(g, j) * _small_fraction(rng)


def _random_supermatrix_22(rng, g, odd=True):
    """A (2|2) supermatrix with even souls on the diagonal blocks and an invertible fermion-block body."""
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if (i < 2) == (j < 2):
                body = rng.randint(2, 6) if i == j else rng.randint(-1, 1)
                rows[i][j] = _random_even(rng, g, Fraction(body))
            else:
                rows[i][j] = _random_odd(rng, g) if odd else scalar(g, 0)
    return SuperMatrixSym(2, 2, rows)


def test_sdet_block_diagonal_2_2():
    # with no odd blocks sdet = det(A)/det(D); a (2|2) matrix takes the adjugate
    # inverse of D and the cofactor determinant of a 2 x 2 block
    rng = random.Random(61)
    g = 4
    for _ in range(5):
        M = _random_supermatrix_22(rng, g, odd=False)
        assert superdeterminant(M) * _even_2x2_det(M.block("ff")) == _even_2x2_det(M.block("bb"))


def test_sdet_is_multiplicative_2_2():
    # sdet(MN) = sdet(M) sdet(N) for (2|2) matrices with odd off-diagonal blocks
    rng = random.Random(67)
    g = 6
    for _ in range(3):
        M, N = _random_supermatrix_22(rng, g), _random_supermatrix_22(rng, g)
        assert superdeterminant(M @ N) == superdeterminant(M) * superdeterminant(N)


def _generic_1p1(g=4):
    a = scalar(g, Fraction(5)) + gen(g, 0) * gen(g, 1)
    b = scalar(g, Fraction(2)) - gen(g, 2) * gen(g, 3) * Fraction(1, 3)
    al = gen(g, 0) + gen(g, 2) * Fraction(2)
    be = gen(g, 1) - gen(g, 3)
    return SuperMatrixSym(1, 1, [[a, al], [be, b]])


def test_characteristic_equation_four_solutions():
    # sdet(M - m) = [(a-m)(b-m) - alpha beta]/(b-m)^2 and its reciprocal
    # = [(a-m)(b-m) + alpha beta]/(a-m)^2: each numerator has two exact roots
    g = 4
    M = _generic_1p1(g)
    a, al = M.entries[0][0], M.entries[0][1]
    be, b = M.entries[1][0], M.entries[1][1]
    alb = al * be
    shift = alb * even_inverse(a - b)
    roots_det_zero = [a + shift, b - shift]
    roots_inv_zero = [b + shift, a - shift]
    for m in roots_det_zero:
        assert ((a - m) * (b - m) - alb).is_zero
    for m in roots_inv_zero:
        assert ((a - m) * (b - m) + alb).is_zero
    # where the block form applies (fermion body separated), sdet itself vanishes
    eye = SuperMatrixSym.identity(1, 1, g)
    shifted = M + eye.scale(-1 * roots_det_zero[0])
    assert superdeterminant(shifted).is_zero


def test_supermatrix_rejects_entries_of_the_wrong_parity():
    # the only guard on block parity: every constructor call checks its entries
    g = 4
    one, odd, soul = scalar(g, 1), gen(g, 0), gen(g, 0) * gen(g, 1)
    SuperMatrixSym(1, 1, [[one + soul, odd], [odd * 2, one]])
    SuperMatrixSym(1, 1, [[one, scalar(g, 0)], [scalar(g, 0), one]])
    with pytest.raises(ValueError, match=r"entry \(0,0\) has wrong parity"):
        SuperMatrixSym(1, 1, [[odd, odd], [odd, one]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) has wrong parity"):
        SuperMatrixSym(1, 1, [[one, soul], [odd, one]])
    with pytest.raises(ValueError, match=r"entry \(1,0\) has wrong parity"):
        SuperMatrixSym(1, 1, [[one, odd], [odd + soul, one]])
    # exp_odd_block's exponent is a supermatrix too, so the same check refuses an even entry
    with pytest.raises(ValueError, match=r"entry \(0,1\) has wrong parity"):
        exp_odd_block([[one]])


def test_supertrace_factorization_identity():
    # str(A U + B U^+) = tr(bb of U_g A times U_m + bb of B U_g^+ times U_m^+)
    #                  - tr(ff blocks likewise), for block-diagonal ordinary parts
    rng = random.Random(53)
    for m, n in ((1, 1), (2, 1)):
        g = 2 * m * n
        size = m + n
        alphas = [[gen(g, 2 * (i * n + j)) for j in range(n)] for i in range(m)]
        u_g = exp_odd_block(alphas)
        a_diag = [GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(size)]
        b_diag = [GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 5))) for _ in range(size)]
        A = SuperMatrixSym.diagonal(m, n, g, a_diag)
        B = SuperMatrixSym.diagonal(m, n, g, b_diag)
        # ordinary block-diagonal factor with exact complex-rational entries
        um = [[GaussianRational(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5)) for _ in range(m)] for _ in range(m)]
        un = [[GaussianRational(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5)) for _ in range(n)] for _ in range(n)]
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                if i < m and j < m:
                    row.append(scalar(g, um[i][j]))
                elif i >= m and j >= m:
                    row.append(scalar(g, un[i - m][j - m]))
                else:
                    row.append(scalar(g, 0))
            rows.append(row)
        u_o = SuperMatrixSym(m, n, rows)
        u = u_o @ u_g
        u_dag = u.adjoint()
        lhs = supertrace(A @ u) + supertrace(B @ u_dag)
        a_twist = u_g @ A
        b_twist = B @ u_g.adjoint()

        def block_trace(x_bb, y_bb, u_block, u_block_dag, k):
            acc = scalar(g, 0)
            for i in range(k):
                for j in range(k):
                    acc = acc + x_bb[i][j] * u_block[j][i] + y_bb[i][j] * u_block_dag[j][i]
            return acc

        um_dag = [[um[j][i].conjugate() for j in range(m)] for i in range(m)]
        un_dag = [[un[j][i].conjugate() for j in range(n)] for i in range(n)]
        um_g = [[scalar(g, um[i][j]) for j in range(m)] for i in range(m)]
        un_g = [[scalar(g, un[i][j]) for j in range(n)] for i in range(n)]
        um_dag_g = [[scalar(g, um_dag[i][j]) for j in range(m)] for i in range(m)]
        un_dag_g = [[scalar(g, un_dag[i][j]) for j in range(n)] for i in range(n)]
        rhs = block_trace(a_twist.block("bb"), b_twist.block("bb"), um_g, um_dag_g, m) - block_trace(
            a_twist.block("ff"), b_twist.block("ff"), un_g, un_dag_g, n
        )
        assert lhs == rhs
