"""Characters: Schur functions, super-Schur tableaux sums, coefficient counts."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from superint import (
    BigComplex,
    Partition,
    Precision,
    SuperDiagram,
    assemble,
    is_covariant,
    lr_coefficient,
    partitions_of,
    schur_bialternant,
    super_diagrams,
    super_schur_tableaux,
    supercharacter_amu,
)
from superint.schur import schur_tableaux

from oracles import poly_mul, schur_polynomial

P = Partition
PREC = Precision()


def test_schur_tableaux_examples():
    z1, z2 = Fraction(3), Fraction(5)
    assert schur_tableaux(P((1,)), [z1]) == z1
    assert schur_tableaux(P((2,)), [z1, z2]) == z1 * z1 + z1 * z2 + z2 * z2
    assert schur_tableaux(P((1, 1)), [z1]) == 0
    assert schur_tableaux(P(), [z1, z2]) == 1


def test_schur_tableaux_matches_oracle_polynomial():
    # repeated arguments, and shapes with more rows than variables (value 0)
    rng = random.Random(17)
    pool = [Fraction(-3, 2), Fraction(2, 3), Fraction(5)]
    for m in (1, 2, 3, 4):
        vectors = [
            [Fraction(2, 3)] * m,
            [Fraction(-1, 4)] * min(m, 2) + [Fraction(k + 1, 3) for k in range(m - 2)],
            [rng.choice(pool) for _ in range(m)],
        ]
        for z in vectors:
            for boxes in range(7):
                for p in partitions_of(boxes):
                    poly = schur_polynomial(p.rows, m)
                    want = sum(
                        c * math.prod(v**e for v, e in zip(z, expo)) for expo, c in poly.items()
                    )
                    assert schur_tableaux(p, z) == want, (p, z)


def test_schur_bialternant_examples():
    z = [Fraction(2), Fraction(7)]
    assert schur_bialternant(P(), z) == 1
    assert schur_bialternant(P((1,)), z) == z[0] + z[1]
    assert schur_bialternant(P((2, 1)), z) == z[0] * z[1] * (z[0] + z[1])


def test_schur_bialternant_empty_shape_is_tagged_like_the_rest():
    # exact inputs give the exact 1; inexact ones a record with the bits a non-empty shape carries
    assert schur_bialternant(P(), [Fraction(2), 3]) == 1
    for values, bits in (([mpc(1, 2), 0.5], PREC.bits), ([BigComplex(1, 2, bits=128), 0.5], 128)):
        for p in (P(), P((1,))):
            value = schur_bialternant(p, values, PREC)
            assert isinstance(value, BigComplex) and value.bits == bits, (p, values)
    assert schur_bialternant(P(), [mpc(1, 2), 0.5], PREC) == BigComplex(1, bits=PREC.bits)


def test_schur_bialternant_exact_matches_tableaux():
    rng = random.Random(11)
    for m in (2, 3, 4):
        for boxes in range(7):
            for p in partitions_of(boxes, max_rows=m):
                z = []
                while len(z) < m:
                    f = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    if f not in z:
                        z.append(f)
                assert schur_bialternant(p, z) == schur_tableaux(p, z)


def test_schur_bialternant_numeric_matches_tableaux():
    rng = random.Random(5)
    for m in (2, 3, 4):
        for boxes in (2, 4, 6):
            for p in partitions_of(boxes, max_rows=m):
                z = [BigComplex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)]
                a = schur_bialternant(p, z, PREC)
                with mp.workprec(PREC.work_bits):
                    b = schur_tableaux(p, [x.to_mpc() for x in z])
                with mp.workprec(300):
                    scale = max(abs(b), mpf(1))
                    assert abs(a.to_mpc() - b) <= scale * mpf(2) ** -(PREC.bits - 40)


def test_schur_bialternant_refuses_more_rows_than_values():
    # the tableaux sum is 0 there, but the alternant has no row for the extra parts
    for p, values in ((P((1, 1)), [Fraction(1, 2)]), (P((2, 1, 1)), [BigComplex(1), BigComplex(2)])):
        with pytest.raises(ValueError, match="more rows than variables"):
            schur_bialternant(p, values, PREC)


def test_schur_bialternant_degenerate_arguments():
    # the Newton form divides by nothing: coinciding and nearly coinciding
    # arguments agree with the tableaux sum
    ones = [Fraction(1), Fraction(1)]
    assert schur_bialternant(P((1,)), ones) == schur_tableaux(P((1,)), ones) == 2
    near = [BigComplex(1), BigComplex(1 + Fraction(1, 2**200))]
    got = schur_bialternant(P((2,)), near, PREC)
    with mp.workprec(2000):
        want = schur_tableaux(P((2,)), [x.to_mpc() for x in near])
        assert abs(got.to_mpc() - want) <= abs(want) * mpf(2) ** -(PREC.bits - 8)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=1, max_size=4),
    st.data(),
)
def test_schur_bialternant_exact_equals_tableaux_with_repeats(values, data):
    values = values + data.draw(st.lists(st.sampled_from(values), max_size=2))
    p = data.draw(st.sampled_from([q for b in range(7) for q in partitions_of(b, max_rows=len(values))]))
    assert schur_bialternant(p, values) == schur_tableaux(p, values)


def test_super_schur_examples():
    a1, a2 = Fraction(3), Fraction(5)
    assert super_schur_tableaux(P((1,)), [a1], [a2]) == a1 - a2
    assert super_schur_tableaux(P((2,)), [a1], [a2]) == a1 * a1 - a1 * a2
    assert super_schur_tableaux(P((1, 1)), [a1], [a2]) == a2 * a2 - a1 * a2
    assert super_schur_tableaux(P(), [a1], [a2]) == 1


def test_super_schur_vanishes_outside_hook():
    a = [Fraction(2)]
    b = [Fraction(7)]
    # (1|1) hook requires t_2 <= 1
    assert super_schur_tableaux(P((2, 2)), a, b) == 0
    assert super_schur_tableaux(P((3, 3, 1)), a, b) == 0


def test_super_schur_tableaux_mpc_bits_pinned():
    # every bit of the tableau sum on 256-bit complex values, for each shape of
    # at most 7 boxes at (1|1), (2|1), (1|2) and (2|2): the fillings' products
    # must be summed one at a time in the order the walk meets them, since a
    # sum taken per subtree rounds differently
    rng = random.Random(2901)
    out = []
    with mp.workprec(256):

        def draw():
            return mpc(*(mpf(rng.getrandbits(256) - 2**255) / 2**254 for _ in range(2)))

        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            bos = [draw() for _ in range(m)]
            ferm = [draw() for _ in range(n)]
            for boxes in range(8):
                for t in partitions_of(boxes):
                    value = super_schur_tableaux(t, bos, ferm)
                    out.append(value._mpc_ if isinstance(value, mpc) else value)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "d9c8be734d15f34aafd7d9bde6b6092b367c5117a03d204dba1d3c1d391bdacb"


def test_supercharacter_examples():
    a1, a2 = Fraction(3), Fraction(5)
    assert supercharacter_amu(SuperDiagram(1, 1, P(), P()), [a1], [a2]) == a1 - a2
    assert supercharacter_amu(SuperDiagram(1, 1, P((1,)), P()), [a1], [a2]) == (a1 - a2) * a1
    assert supercharacter_amu(SuperDiagram(1, 1, P(), P((1,))), [a1], [a2]) == -(a1 - a2) * a2


def test_supercharacter_on_records_matches_tableaux():
    rng = random.Random(29)
    bos = [BigComplex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
    ferm = [BigComplex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
    for sd in super_diagrams(2, 1, 6):
        a = supercharacter_amu(sd, bos, ferm, PREC)
        assert a.bits == PREC.bits
        with mp.workprec(PREC.work_bits):
            b = super_schur_tableaux(
                assemble(sd), [x.to_mpc() for x in bos], [x.to_mpc() for x in ferm]
            )
        with mp.workprec(300):
            scale = max(abs(b), mpf(1))
            assert abs(a.to_mpc() - b) <= scale * mpf(2) ** -(PREC.bits - 40), sd
    # the tag is the fewest bits among the record arguments, as for the bialternant
    coarse = [BigComplex(x.to_mpc(), bits=128) for x in ferm]
    sd = SuperDiagram(2, 1, P((1,)), P((1,)))
    assert supercharacter_amu(sd, bos, coarse, PREC).bits == 128


def test_supercharacter_matches_tableaux_sweep():
    # every (m|n) with m, n <= 3: up to 6 boxes to (2|2), 8 past it, and the
    # (3|3) block plus two; per (m|n) four draws, Fractions, a value shared by
    # the two sectors (the cross product vanishes), ints only (common
    # denominator 1) and Fractions mixed with ints and zeros
    rng = random.Random(23)

    def fraction():
        return Fraction(rng.randint(-8, 8), rng.randint(1, 6))

    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)):
        boxes = 6 if max(m, n) < 3 else max(8, m * n + 2)
        shared = [fraction() for _ in range(m + n - 1)]
        draws = (
            [fraction() for _ in range(m + n)],
            shared + [shared[0]],
            [rng.randint(-5, 5) for _ in range(m + n)],
            [fraction(), rng.randint(-5, 5), Fraction(0), 0, fraction(), rng.randint(-5, 5)][: m + n],
        )
        for values in draws:
            bos, ferm = values[:m], values[m:]
            for sd in super_diagrams(m, n, boxes):
                t = assemble(sd)
                assert supercharacter_amu(sd, bos, ferm) == super_schur_tableaux(t, bos, ferm), (sd, bos, ferm)


def test_supercharacter_with_coinciding_arguments_matches_tableaux():
    sd = SuperDiagram(2, 1, P((2,)), P())
    bos = [Fraction(1, 2), Fraction(1, 2)]
    ferm = [Fraction(1, 3)]
    assert supercharacter_amu(sd, bos, ferm) == super_schur_tableaux(assemble(sd), bos, ferm)


def test_supercharacter_near_coincidence_keeps_its_bits():
    # bosonic values 1e-30 apart: the alternant division lost about 63 of the
    # 256 tagged bits; the Newton form keeps them
    sd = SuperDiagram(2, 1, P((4, 2)), P((1,)))
    bos = [BigComplex(Fraction(3, 10)), BigComplex(Fraction(3, 10) + Fraction(1, 10**30))]
    ferm = [BigComplex(Fraction(1, 7))]
    got = supercharacter_amu(sd, bos, ferm, PREC)
    assert got.bits == PREC.bits
    with mp.workprec(2000):
        want = super_schur_tableaux(assemble(sd), [x.to_mpc() for x in bos], [x.to_mpc() for x in ferm])
        assert abs(got.to_mpc() - want) <= abs(want) * mpf(2) ** -(PREC.bits - 8)


def test_covariant_tableaux_nonzero_iff_hook():
    bos = [Fraction(2), Fraction(3)]
    ferm = [Fraction(5)]
    for boxes in range(1, 7):
        for t in partitions_of(boxes):
            val = super_schur_tableaux(t, bos, ferm)
            if not is_covariant(t, 2, 1):
                assert val == 0


# pairwise coprime denominators: their lcm, the common denominator of a
# (2|2) input, is far above any one of them
_PRIMES = (1000003, 1000033, 1000037, 1000039)


def _exact_input_sets(rng, k):
    """Four seeded inputs of k exact values: ints, Fractions, mixed, and zeros with negatives."""
    ints = [rng.randint(-99, 99) for _ in range(k)]
    fractions = [Fraction(rng.randint(-(10**9), 10**9), p) for p in _PRIMES[:k]]
    mixed = [f if i % 2 else v for i, (v, f) in enumerate(zip(ints, fractions))]
    signed = [Fraction(0), -rng.randint(1, 99), 0, Fraction(-rng.randint(1, 10**9), _PRIMES[3])][:k]
    return ints, fractions, mixed, signed


def test_exact_character_values_and_types_pinned():
    # every exact output of the tableau sum, the bialternant and the
    # supercharacter at (m|n) <= (2|2) up to 6 boxes, with its type; the
    # tableau sum gives ints for int inputs, and for the empty shape and
    # shapes with no fillings whatever the inputs.  Computed before the sums
    # ran over a common denominator
    rng = random.Random(3801)
    out = []
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for values in _exact_input_sets(rng, m + n):
            bos, ferm = values[:m], values[m:]
            for boxes in range(7):
                for t in partitions_of(boxes):
                    out.append(super_schur_tableaux(t, bos, ferm))
                    out.extend(schur_bialternant(t, side) for side in (bos, ferm) if len(t) <= len(side))
            for sd in super_diagrams(m, n, 6):
                out.append(super_schur_tableaux(assemble(sd), bos, ferm))
                out.append(supercharacter_amu(sd, bos, ferm))
    typed = [(repr(v), type(v).__name__) for v in out]
    assert hashlib.sha256(repr(typed).encode()).hexdigest() == "d03626e9029d8f9889d1e78150774e0698146f99d4d40aae3694730094a02c5b"


class _CountedFraction(Fraction):
    """A Fraction that counts each operation done on it; its results are counted Fractions too."""

    ops = 0


def _counted(name):
    def op(self, *other):
        _CountedFraction.ops += 1
        return _CountedFraction(getattr(Fraction, name)(self, *other))

    return op


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__pos__", "__abs__"):
    setattr(_CountedFraction, _name, _counted(_name))


def test_exact_tableau_sum_does_no_fraction_arithmetic_per_filling():
    # (4, 1, 1) has 72 fillings at (2|2), and a walk on the values themselves
    # does one operation per node; summed over one common denominator, the
    # values' own arithmetic is bounded by their number
    rng = random.Random(3802)
    plain = [Fraction(rng.randint(-40, 40) or 1, rng.randint(2, 38)) for _ in range(4)]
    t = P((4, 1, 1))
    want = super_schur_tableaux(t, plain[:2], plain[2:])
    counted = [_CountedFraction(v) for v in plain]
    _CountedFraction.ops = 0
    assert super_schur_tableaux(t, counted[:2], counted[2:]) == want
    assert _CountedFraction.ops <= len(plain)


def test_exact_supercharacter_does_no_fraction_arithmetic_per_factor():
    # the cross differences and both alternants are taken on the integer
    # numerators over one common denominator, and one Fraction is made at the
    # end; the product form on the values themselves makes 11 counted
    # operations at this diagram
    rng = random.Random(3803)
    plain = [Fraction(rng.randint(-40, 40) or 1, rng.randint(2, 38)) for _ in range(4)]
    sd = SuperDiagram(2, 2, P((2, 1)), P((1,)))
    want = supercharacter_amu(sd, plain[:2], plain[2:])
    assert want == super_schur_tableaux(assemble(sd), plain[:2], plain[2:])
    counted = [_CountedFraction(v) for v in plain]
    _CountedFraction.ops = 0
    assert supercharacter_amu(sd, counted[:2], counted[2:]) == want
    assert _CountedFraction.ops <= len(plain)


@pytest.mark.parametrize(
    "r,mu,nu,value",
    [
        ((2,), (1,), (1,), 1),
        ((1, 1), (1,), (1,), 1),
        ((2, 1), (2,), (1,), 1),
        ((2, 1), (1,), (1, 1), 1),
        ((2, 2), (2,), (1,), 0),
        ((3, 1), (1,), (2, 1), 1),
        ((2, 1, 1), (1,), (2, 1), 1),
    ],
)
def test_lr_coefficient_examples(r, mu, nu, value):
    assert lr_coefficient(P(r), P(mu), P(nu)) == value


def test_lr_coefficient_size_and_containment_guards():
    assert lr_coefficient(P((3,)), P((1,)), P((1,))) == 0
    assert lr_coefficient(P((1, 1, 1)), P((2,)), P((1,))) == 0


def test_lr_reproduces_schur_products():
    # S_mu * S_nu = sum_r c^r_(mu,nu) S_r as exact polynomials in 4 variables
    nvars = 4
    for mu_boxes in range(0, 5):
        for nu_boxes in range(0, 5):
            if mu_boxes + nu_boxes > 8 or mu_boxes + nu_boxes == 0:
                continue
            for mu in partitions_of(mu_boxes, max_rows=nvars):
                for nu in partitions_of(nu_boxes, max_rows=nvars):
                    product = poly_mul(
                        schur_polynomial(mu.rows, nvars), schur_polynomial(nu.rows, nvars)
                    )
                    combo = {}
                    for r in partitions_of(mu_boxes + nu_boxes, max_rows=nvars):
                        c = lr_coefficient(r, mu, nu)
                        if not c:
                            continue
                        for expo, coeff in schur_polynomial(r.rows, nvars).items():
                            combo[expo] = combo.get(expo, 0) + c * coeff
                    combo = {k: v for k, v in combo.items() if v}
                    assert combo == product, (mu, nu)


def test_lr_coefficients_expand_schur_products_on_values():
    # s_mu s_nu = sum_r c^r_(mu,nu) s_r at exact integer points of three variables, each s
    # a bialternant, which shares no code with the LR walk; s vanishes past three rows
    def s(p, values):
        return schur_bialternant(p, values) if len(p) <= 3 else 0

    points = [(2, 3, 5), (-1, 4, 4), (7, -2, 1)]
    for total in range(9):
        shapes = list(partitions_of(total))
        for mu_boxes in range(total + 1):
            for mu in partitions_of(mu_boxes):
                for nu in partitions_of(total - mu_boxes):
                    c = [lr_coefficient(r, mu, nu) for r in shapes]
                    for values in points:
                        want = s(mu, values) * s(nu, values)
                        assert sum(cr * s(r, values) for cr, r in zip(c, shapes) if cr) == want, (mu, nu, values)
