"""Closed-form integral evaluators: values, symmetries, limits, dispatch."""

import pickle
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp, mpc, mpf

from superint import (
    BigComplex,
    BosonFermionCoincidence,
    Precision,
    SuperEigenvalues,
    TruncationCapExceeded,
    berezinian,
    bk_closed_form,
    brute_force_ls,
    c_constant,
    ls_closed_form,
    nondiag_limit_bk,
    nondiag_limit_ls,
)
from superint import integrals, precision
from superint.integrals import bk_confluent, ls_confluent
from superint.precision import bessel_ratio, scaled_bessel_entry
from superint.conjecture import bk_character_sum, ls_character_sum

from oracles import bk_division_reference, ls_division_reference

PREC = Precision()
BETA = BigComplex(Fraction(1, 2))
I0_AT_1 = "1.26606587775200833559824462521471753760767031"


def ev(bos, ferm, beta=BETA):
    return SuperEigenvalues(tuple(bos), tuple(ferm), beta)


def rel_diff(a, b):
    with mp.workprec(400):
        return abs(a.to_mpc() - b.to_mpc()) / max(abs(b.to_mpc()), mpf(2) ** -200)


@pytest.mark.parametrize("n,value", [(0, 1), (1, 1), (2, 1), (3, 2), (4, 12), (5, 288)])
def test_c_constant(n, value):
    assert c_constant(n) == value


def test_c_constant_refuses_a_negative_size():
    with pytest.raises(ValueError, match="non-negative"):
        c_constant(-1)


def test_bk_refuses_sets_of_different_shapes_or_beta():
    # the CLI refuses different shapes before it calls bk_closed_form, so only a
    # library call reaches these checks
    lam = ev([Fraction(1, 2)], [Fraction(1, 3)])
    for mu in (ev([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 3)]), ev([Fraction(1, 2)], [])):
        with pytest.raises(ValueError, match=r"share \(m, n\)"):
            bk_closed_form(lam, mu, PREC)
    with pytest.raises(ValueError, match="share beta"):
        bk_closed_form(lam, ev([Fraction(1, 2)], [Fraction(1, 3)], Fraction(1, 3)), PREC)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", ["bosonic", "fermionic", "beta"])
@pytest.mark.parametrize(
    "evaluate",
    [ls_closed_form, lambda lam, prec: bk_closed_form(lam, ev([2, 3], [5]), prec), berezinian],
    ids=["ls", "bk", "berezinian"],
)
def test_non_finite_values_are_input_errors(evaluate, slot, bad):
    # a NaN or an infinity in any slot is an input error, not a number tagged with full bits
    parts = {"bosonic": [1, 4], "fermionic": [3], "beta": Fraction(1, 2)}
    if slot == "beta":
        parts["beta"] = bad
    else:
        parts[slot][-1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(ev(parts["bosonic"], parts["fermionic"], parts["beta"]), PREC)


# the entry points that convert plain scalars themselves, each with finite arguments
SCALAR_ENTRY_POINTS = {
    "bessel_ratio": (lambda w: bessel_ratio(0, w, PREC), (Fraction(1, 3),)),
    "scaled_bessel_entry": (lambda beta, lam2: scaled_bessel_entry(0, beta, lam2, PREC), (0.5, 2)),
    "nondiag_limit_ls": (lambda a, c, beta: nondiag_limit_ls(a, c, beta, PREC), (1, 1, 0.5)),
    "nondiag_limit_bk": (
        lambda a, c, y1, y2, beta: nondiag_limit_bk(a, c, (y1, y2), beta, PREC),
        (1, 1, 2, 3, 0.5),
    ),
    "brute_force_ls": (
        lambda a1, a2, b1, b2, beta: brute_force_ls(1, 1, [a1, a2], [b1, b2], beta, PREC),
        (1, 3, 1, 2, 0.5),
    ),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "name,slot", [(name, i) for name, (_, args) in SCALAR_ENTRY_POINTS.items() for i in range(len(args))]
)
def test_non_finite_scalars_are_input_errors(name, slot, bad):
    # a NaN or an infinity in any argument is an input error where it is converted,
    # not a series that runs into its cap (the numerical-failure class)
    evaluate, args = SCALAR_ENTRY_POINTS[name]
    args = list(args)
    args[slot] = bad
    with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad!r}")):
        evaluate(*args)


def test_berezinian_examples():
    assert berezinian(ev([Fraction(3)], [])).to_mpc() == 1
    x, y = Fraction(2, 3), Fraction(1, 5)
    val = berezinian(ev([x], [y]), PREC)
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(15) / 7) < mpf(2) ** -200
    x1, x2, yv = Fraction(3), Fraction(2), Fraction(7)
    val = berezinian(ev([x1, x2], [yv]), PREC)
    want = Fraction(1) / ((x1 - yv) * (x2 - yv))  # (x1-x2)/((x1-y)(x2-y)) with x1-x2=1
    with mp.workprec(300):
        assert abs(val.to_mpc() - mpf(want.numerator) / want.denominator) < mpf(2) ** -180


def test_berezinian_coincidence_error():
    with pytest.raises(BosonFermionCoincidence):
        berezinian(ev([Fraction(1, 3)], [Fraction(1, 3)]))


def test_ls_vanishing_branches():
    res = ls_closed_form(ev([Fraction(1, 3)], [Fraction(1, 3)]), PREC)
    assert res.branch == "vanishing" and res.value.is_zero
    # A = B = 0: both columns coincide, determinant vanishes identically
    res = ls_closed_form(ev([BigComplex(0)], [BigComplex(0)]), PREC)
    assert res.branch == "vanishing" and res.value.is_zero


def test_zero_beta_with_repeats_is_zero():
    # at beta = 0 the Newton columns' sums under a negative beta power are exactly
    # 0, and the closed form is 0 with or without a repeat, as before them
    F = Fraction
    for bos, ferm in (([F(1, 3), F(1, 3)], [F(1, 7)]), ([F(1, 3)], [F(1, 7), F(1, 7)])):
        res = ls_closed_form(ev(bos, ferm, BigComplex(0)), PREC)
        assert res.branch == "confluent" and res.value.is_zero


SMALL_VALUES = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(5, 11), Fraction(7, 13)]


@pytest.mark.parametrize("m,n,mass", [(2, 0, 1), (0, 3, 1), (4, 0, 1), (1, 4, 0), (4, 1, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1)])
def test_ls_zero_beta_is_the_measure_mass(m, n, mass):
    # at beta = 0 the integrand is 1; where the beta power is negative the closed
    # form is 0/0 (it raised ZeroDivisionError), and the value is its limit.
    # (0|0) is the one-point group U(0|0), 1 at every beta: it raised ValueError
    bos, ferm = SMALL_VALUES[:m], SMALL_VALUES[m : m + n]
    res = ls_closed_form(ev(bos, ferm, BigComplex(0)), PREC)
    assert res.branch == "generic" and res.value.to_mpc() == mass
    near = ls_closed_form(ev(bos, ferm, Fraction(1, 2**200)), PREC).value.to_mpc()
    assert abs(near - mass) < mpf(2) ** -250


@pytest.mark.parametrize("m,n,mass", [(2, 0, 1), (0, 2, 1), (3, 0, 1), (1, 4, 0), (1, 1, 0), (0, 0, 1)])
def test_bk_zero_beta_is_the_measure_mass(m, n, mass):
    lam = ev(SMALL_VALUES[:m], SMALL_VALUES[m : m + n], BigComplex(0))
    mu = ev([3 * v for v in lam.bosonic], [3 * v for v in lam.fermionic], BigComplex(0))
    res = bk_closed_form(lam, mu, PREC)
    assert res.branch == "generic" and res.value.to_mpc() == mass
    small = Fraction(1, 10**12)
    near = bk_closed_form(ev(lam.bosonic, lam.fermionic, small), ev(mu.bosonic, mu.fermionic, small), PREC)
    assert abs(near.value.to_mpc() - mass) < mpf(10) ** -20



@pytest.mark.xfail(strict=True, reason="known defect: R(nu, w) cancellation on the negative real axis")
def test_known_defect_negative_axis_cancellation():
    # w = beta^2 x = -40000 loses about 577 bits; today the value is 1.19e82 with a
    # 256-bit tag, where R(0, -40000) = J0(400) = -0.0388...
    try:
        res = ls_closed_form(ev([-160000], [], Fraction(1, 2)), PREC)
    except TruncationCapExceeded:
        return
    with mp.workprec(600):
        assert abs(res.value.to_mpc() - mp.besselj(0, 400)) < mpf(2) ** -248


@pytest.mark.xfail(strict=True, reason="known defect: the cluster rule misses the bk kernel's loss at small arguments")
def test_known_defect_small_bk_sector_stays_split():
    # c = beta^2 = 1e-60 puts every R(0, c x y) within 1e-57 of 1: the value is 1
    # to that order, and the split sector printed 1.17e33 with a 256-bit tag
    beta = BigComplex.from_json({"re": "1e-30"})
    res = bk_closed_form(ev([], [1, 2, 5], beta), ev([], [3, 5, 7], beta), PREC)
    assert abs(res.value.to_mpc() - 1) < mpf(10) ** -40


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: ls cancels near a boson-fermion coincidence")
@pytest.mark.parametrize(
    "bos, ferm",
    [([1], []), ([1, Fraction(-1, 2)], []), ([1, Fraction(-1, 2)], [Fraction(3, 4)])],
    ids=["1|1", "2|1", "2|2"],
)
def test_known_defect_boson_fermion_near_coincidence(bos, ferm):
    # a bosonic 1 and a fermionic 1 + 2^-200 give two columns equal to about 200 bits, and
    # det_mpc cancels them: 256 bits hold 85-88 against a 1024-bit rerun, tagged 256
    vals = ev(bos, [Fraction(2**200 + 1, 2**200)] + ferm)
    got = ls_closed_form(vals, PREC)
    want = ls_closed_form(vals, Precision(bits=1024)).value.to_mpc()
    assert got.branch == "generic" and got.value.bits == PREC.bits
    with mp.workprec(1100):
        assert abs(got.value.to_mpc() - want) < mpf(2) ** -248 * abs(want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: R(nu, w) is only absolutely accurate near its zeros")
def test_known_defect_relative_accuracy_near_a_kernel_zero():
    # x = -j01^2 at 256 bits puts w = x/4 next to the first zero of R(0, w) = J0(2 sqrt(-w)):
    # the sum is about 1.2e-77 against partial sums near 1, so the stopping rule's
    # absolute bound leaves it right to about 2^-52 relative, tagged 256 bits
    with mp.workprec(256):
        x = -mp.besseljzero(0, 1) ** 2
    try:
        res = ls_closed_form(ev([BigComplex(x, bits=256)], [], Fraction(1, 2)), Precision(256))
    except TruncationCapExceeded:
        return
    with mp.workprec(3000):
        want = mp.hyp0f1(1, x / 4)
        assert abs(res.value.to_mpc() - want) <= mpf(2) ** -248 * abs(want)


def test_ls_ordinary_value():
    res = ls_closed_form(ev([BigComplex(1)], []), PREC)
    assert res.branch == "generic"
    with mp.workprec(300):
        assert abs(res.value.to_mpc() - mpf(I0_AT_1)) < mpf(10) ** -43


def test_ls_zero_eigenvalues_are_regular():
    res = ls_closed_form(ev([BigComplex(0), Fraction(1, 2)], [Fraction(1, 3)]), PREC)
    assert res.branch == "generic"
    assert not res.value.is_zero


def test_ls_matches_character_sum_all_small_blocks():
    rng = random.Random(97)
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        vals = []
        while len(vals) < m + n:
            f = Fraction(rng.randint(-6, 6), rng.randint(7, 12))
            if f != 0 and f not in vals:
                vals.append(f)
        bos, ferm = vals[:m], vals[m:]
        closed = ls_closed_form(ev(bos, ferm), PREC).value
        partial, shells = ls_character_sum(bos, ferm, Fraction(1, 2), 18)
        with mp.workprec(PREC.work_bits):
            partial_v = mpf(partial.numerator) / mpf(partial.denominator)
            tail = sum(
                abs(mpf(shells[b].numerator) / mpf(shells[b].denominator))
                for b in (17, 18)
                if b in shells and shells[b] != 0
            )
            assert abs(closed.to_mpc() - partial_v) <= 100 * tail + mpf(2) ** -(PREC.bits - 48)


def test_ls_ordinary_block_matches_character_sum():
    # n = 0 reduction: ordinary unitary-group result checked against the
    # ordinary character expansion sum_p (sigma_p/|p|!)^2 beta^(2|p|) chi_p / d_p
    from superint.partitions import dimension_glm, partitions_of, sigma_coefficient
    from superint.schur import schur_tableaux
    from math import factorial as fact

    x1, x2 = Fraction(2, 5), Fraction(-3, 7)
    closed = ls_closed_form(ev([x1, x2], []), PREC).value
    total = Fraction(0)
    beta = Fraction(1, 2)
    for boxes in range(0, 19):
        for p in partitions_of(boxes, max_rows=2):
            coeff = Fraction(sigma_coefficient(p), fact(boxes)) ** 2 * beta ** (2 * boxes)
            total += coeff * Fraction(1, dimension_glm(p, 2)) * schur_tableaux(p, [x1, x2])
    with mp.workprec(PREC.work_bits):
        total_v = mpf(total.numerator) / mpf(total.denominator)
        assert abs(closed.to_mpc() - total_v) < mpf(10) ** -20


def test_ls_permutation_symmetry():
    rng = random.Random(3)
    bos = [BigComplex(rng.uniform(0.1, 2)) for _ in range(3)]
    ferm = [BigComplex(rng.uniform(0.1, 2)) for _ in range(2)]
    base = ls_closed_form(ev(bos, ferm), PREC).value
    shuffled = ls_closed_form(ev([bos[2], bos[0], bos[1]], [ferm[1], ferm[0]]), PREC).value
    assert rel_diff(base, shuffled) < mpf(2) ** -(PREC.bits - 40)


def test_ls_beta_scaling():
    # the coupling enters only through beta^2 lambda^2 once the prefactor power
    # is in place: evaluating at (beta, x) equals evaluating at (1, beta^2 x)
    rng = random.Random(13)
    for m, n in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 2)):
        xs = [Fraction(rng.uniform(0.2, 1.5)) for _ in range(m + n)]
        vals = [BigComplex(x) for x in xs]
        beta = BigComplex(Fraction(3, 4))
        lhs = ls_closed_form(ev(vals[:m], vals[m:], beta), PREC).value
        scaled = [BigComplex(Fraction(3, 4) ** 2 * x) for x in xs]
        rhs = ls_closed_form(ev(scaled[:m], scaled[m:], BigComplex(1)), PREC).value
        assert rel_diff(lhs, rhs) < mpf(2) ** -(PREC.bits - 40)


def test_ls_confluent_requires_repeat():
    with pytest.raises(ValueError):
        ls_confluent(ev([Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5)]), PREC)


def test_ls_sums_one_kernel_pass_per_cluster(monkeypatch):
    # N distinct values: N passes of the N orders, read by N^2 kernel calls
    passes, calls = [], []
    bessel_orders, bessel_ratio_raw = precision._bessel_orders.__wrapped__, precision.bessel_ratio_raw

    def counting_pass(w, lo, top, prec):
        passes.append((lo, top))
        return bessel_orders(w, lo, top, prec)

    def counting_call(*args, **kwargs):
        calls.append(args[0])
        return bessel_ratio_raw(*args, **kwargs)

    # a pass is a miss of the one-entry cache, so the spy is cached the same way
    precision._bessel_orders.cache_clear()
    monkeypatch.setattr(precision, "_bessel_orders", lru_cache(maxsize=1)(counting_pass))
    monkeypatch.setattr(integrals, "bessel_ratio_raw", counting_call)
    values = ev([Fraction(1, 2), Fraction(-2, 3), 0.3 + 1.1j], [Fraction(5, 4), -0.7j], Fraction(3, 4))
    assert ls_closed_form(values, PREC).branch == "generic"
    assert passes == [(0, 4)] * 5
    assert sorted(calls) == sorted(list(range(5)) * 5)



def test_bk_sums_one_kernel_call_per_cluster_pair(monkeypatch):
    # distinct values: one order-0 kernel call at c x y per pair of a first-set and a second-set
    # value, sector by sector in matrix order, and one determinant per non-empty sector
    calls, sizes = [], []
    bessel_ratio_raw, det_mpc = precision.bessel_ratio_raw, precision.det_mpc

    def counting_call(*args, **kwargs):
        calls.append(args[:2])
        return bessel_ratio_raw(*args, **kwargs)

    def counting_det(rows, prec):
        sizes.append(len(rows))
        return det_mpc(rows, prec)

    monkeypatch.setattr(integrals, "bessel_ratio_raw", counting_call)
    monkeypatch.setattr(integrals, "det_mpc", counting_det)
    lam = ev([Fraction(1, 2), Fraction(-2, 3), 0.3 + 1.1j], [Fraction(5, 4), -0.7j])
    mu = ev([Fraction(1, 3), 0.2j, Fraction(7, 5)], [Fraction(-1, 4), 0.9])
    for m in (3, 0):  # (3|2), then (0|2): the empty sector makes no kernel and no det_mpc call
        calls.clear()
        sizes.clear()
        first, second = ev(lam.bosonic[:m], lam.fermionic), ev(mu.bosonic[:m], mu.fermionic)
        assert bk_closed_form(first, second, PREC).branch == "generic"
        (lb, lf, beta), (mb, mf, _) = first.values(PREC.bits), second.values(PREC.bits)
        with mp.workprec(PREC.work_bits):
            c = beta * beta
            want = [(0, c * x * y) for xs, ys in ((lb, mb), (lf, mf)) for x in xs for y in ys]
        assert calls == want
        assert sizes == [n for n in (m, 2) if n]

def test_confluent_entry_points_check_before_summing(monkeypatch):
    # no repeat: ValueError before any kernel series; a boson-fermion
    # coincidence without a repeat still returns the vanishing branch
    def no_series(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(integrals, "bessel_ratio_raw", no_series)
    monkeypatch.setattr(integrals, "newton_sums", no_series)
    x, y = Fraction(1, 2), Fraction(1, 5)
    plain = ev([x, Fraction(1, 3)], [y])
    with pytest.raises(ValueError):
        ls_confluent(plain, PREC)
    with pytest.raises(ValueError):
        bk_confluent(plain, ev([Fraction(2, 5), Fraction(1, 4)], [Fraction(5, 9)]), PREC)
    assert ls_confluent(ev([x, Fraction(1, 3)], [x]), PREC).branch == "vanishing"
    assert bk_confluent(plain, ev([y, Fraction(1, 4)], [y]), PREC).branch == "vanishing"


def test_ls_confluent_epsilon_limit():
    x, y = Fraction(3, 5), Fraction(1, 7)
    conf = ls_closed_form(ev([x, x], [y]), PREC)
    assert conf.branch == "confluent"
    assert ls_confluent(ev([x, x], [y]), PREC).value == conf.value
    slopes = []
    for e in (4, 6, 8):
        eps = Fraction(1, 10**e)
        gen = ls_closed_form(ev([x, x + eps], [y]), PREC)
        assert gen.branch == "generic"
        r = rel_diff(gen.value, conf.value)
        slopes.append(r * 10**e)
        if e == 6:
            assert r <= 100 * mpf(10) ** -6
    assert max(slopes) < 50 * min(slopes)


def test_ls_confluent_triple_repeat():
    x, y = Fraction(3, 5), Fraction(1, 7)
    conf = ls_closed_form(ev([x, x, x], [y]), PREC)
    assert conf.branch == "confluent"
    for e in (5, 7):
        eps = Fraction(1, 10**e)
        gen = ls_closed_form(ev([x, x + eps, x + 2 * eps], [y]), PREC)
        assert rel_diff(gen.value, conf.value) < 1000 * mpf(10) ** -e


def test_ls_fermionic_repeat():
    x1, x2, y = Fraction(3, 5), Fraction(2, 9), Fraction(1, 7)
    conf = ls_closed_form(ev([x1, x2], [y, y]), PREC)
    assert conf.branch == "confluent"
    eps = Fraction(1, 10**6)
    gen = ls_closed_form(ev([x1, x2], [y, y + eps]), PREC)
    assert rel_diff(gen.value, conf.value) <= 100 * mpf(10) ** -6


def test_near_coincidence_stays_generic_and_accurate():
    # a pair 2^-200 apart takes Newton columns: no warning, and every bit kept
    x = Fraction(3, 5)
    eps = Fraction(1, 2**200)
    lam = ev([BigComplex(x), BigComplex(x + eps)], [BigComplex(Fraction(1, 7))])
    res = ls_closed_form(lam, PREC)
    assert res.branch == "generic"
    assert res.diagnostics["warnings"] == [] and res.to_json()["warnings"] == []
    assert_near_reference(res.value, ls_division_reference(lam.bosonic, lam.fermionic, BETA), PREC)


def test_near_coincidence_clusters_ignore_caller_precision(monkeypatch):
    # the pair is 2^-16 (1 + 2^-12) apart: it loses just under guard_bits / 2
    # = 16 bits, so it stays two singletons; at a 10-bit ambient precision the
    # difference would round to 2^-16, which loses just over 16 bits
    from superint import integrals

    delta = Fraction(1, 2**16) * (1 + Fraction(1, 2**12))
    bos = [BigComplex(1), BigComplex(1 + delta)]
    with mp.workprec(10):
        # evaluated at the ambient precision, the rule would join the pair
        assert [len(c) for c in integrals._clusters(([v.to_mpc() for v in bos],), PREC)[0]] == [2]
    seen = []
    original = integrals._clusters

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append([len(c) for sector in out for c in sector])
        return out

    monkeypatch.setattr(integrals, "_clusters", spy)
    lam, mu = ev(bos, []), ev([BigComplex(Fraction(1, 3)), BigComplex(-2)], [])
    want = ls_closed_form(lam, PREC).value, bk_closed_form(lam, mu, PREC).value
    with mp.workprec(10):
        got = ls_closed_form(lam, PREC).value, bk_closed_form(lam, mu, PREC).value
    assert seen == [[1, 1], [1, 1, 1, 1]] * 2
    assert [(v.re, v.im) for v in got] == [(v.re, v.im) for v in want]


def test_closed_forms_ignore_caller_precision():
    # (3|2) with a repeated bosonic value, so both Newton and kernel columns are read;
    # records and plain numbers are built first, and plain ones are rounded inside the call
    lam = ev([BigComplex(Fraction(3, 10)), Fraction(3, 10), complex(-1.5, 0.75)],
             [BigComplex(Fraction(-2, 7)), 2.25])
    mu = ev([Fraction(1, 3), BigComplex(-2), complex(0.5, 1.25)], [Fraction(5, 4), BigComplex(Fraction(-1, 9))])

    def compute():
        precision._bessel_orders.cache_clear()
        results = ls_closed_form(lam, PREC), bk_closed_form(lam, mu, PREC)
        return [(r.value.re._mpf_, r.value.im._mpf_, r.value.bits, r.branch, r.diagnostics["terms_used"])
                for r in results]

    want = compute()
    assert [row[3] for row in want] == ["confluent", "confluent"]
    for bits in (10, 3000):
        with mp.workprec(bits):
            assert compute() == want


def assert_near_reference(value, reference, prec):
    with mp.workprec(4000):
        assert abs(value.to_mpc() - reference) <= abs(reference) * mpf(2) ** -(prec.bits - 8)


def test_clustered_reproducers():
    # four bosonic values 1e-20 apart at (4|1), and a pair 1e-60 apart at (3|1):
    # the plain division lost about 90 bits on each
    F = Fraction
    clusters = (
        [F(3, 10) + k * F(1, 10**20) for k in range(4)],
        [F(3, 10), F(3, 10) + F(1, 10**60), F(7, 10)],
    )
    for bos in clusters:
        bos, ferm = [BigComplex(v) for v in bos], [BigComplex(F(1, 7))]
        res = ls_closed_form(ev(bos, ferm), PREC)
        assert res.branch == "generic"
        assert_near_reference(res.value, ls_division_reference(bos, ferm, BETA), PREC)


CENTRES = {"real": 0.37, "negative real": -41.3, "complex": complex(2.1, 1.7)}


def _cluster(rng, centre, e, k):
    with mp.workprec(PREC.bits + 64):
        offsets = [mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpf(10) ** -e for _ in range(k)]
        return [BigComplex(mpc(centre) + d) for d in offsets]


@pytest.mark.parametrize("e", [2, 5, 10, 20, 40, 60])
@pytest.mark.parametrize("kind", ["ls", "bk"])
def test_clustered_family_matches_division_reference(kind, e):
    # k <= 4 values within 10^-e of each centre in one sector, the other values
    # of m + n <= 6 spread over a disk of radius 3; bk puts a second cluster in
    # the second set half of the time.  Reference: the plain division at 4000 bits.
    rng = random.Random(repr((kind, e)))

    def spread(count):
        return [BigComplex(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(count)]

    for centre in CENTRES.values():
        k = rng.randint(2, 4)
        with_cluster = _cluster(rng, centre, e, k) + spread(rng.randint(0, 6 - k))
        other = spread(rng.randint(0, 6 - len(with_cluster)))
        bos, ferm = (with_cluster, other) if rng.random() < 0.5 else (other, with_cluster)
        if kind == "ls":
            res = ls_closed_form(ev(bos, ferm), PREC)
            ref = ls_division_reference(bos, ferm, BETA)
        else:
            mu_b, mu_f = spread(len(bos)), spread(len(ferm))
            if rng.random() < 0.5:
                mu_b[:k] = _cluster(rng, centre / 2 + 0.1, e, min(k, len(mu_b)))
            res = bk_closed_form(ev(bos, ferm), ev(mu_b, mu_f), PREC)
            ref = bk_division_reference((bos, ferm), (mu_b, mu_f), BETA)
        assert res.branch == "generic"
        assert_near_reference(res.value, ref, PREC)


def test_bk_ordinary_value():
    lam = ev([BigComplex(Fraction(4, 5))], [])
    mu = ev([BigComplex(Fraction(5, 4))], [])
    res = bk_closed_form(lam, mu, PREC)
    # reduces to the order-zero kernel at beta^2 lam^2 mu^2 = 1/4
    want = ls_closed_form(ev([BigComplex(1)], []), PREC).value
    assert rel_diff(res.value, want) < mpf(2) ** -200


def test_bk_vanishing():
    lam = ev([Fraction(1, 3)], [Fraction(1, 3)])
    mu = ev([Fraction(1, 5)], [Fraction(2, 5)])
    assert bk_closed_form(lam, mu, PREC).branch == "vanishing"
    mu2 = ev([Fraction(2, 5)], [Fraction(2, 5)])
    lam2 = ev([Fraction(1, 5)], [Fraction(2, 7)])
    assert bk_closed_form(lam2, mu2, PREC).branch == "vanishing"


def test_bk_matches_character_sum():
    rng = random.Random(71)
    for _ in range(3):
        vals = []
        while len(vals) < 4:
            f = Fraction(rng.randint(-9, 9), rng.randint(10, 14))
            if f != 0 and f not in vals:
                vals.append(f)
        lam = ev(vals[:1], vals[1:2])
        mu = ev(vals[2:3], vals[3:4])
        closed = bk_closed_form(lam, mu, PREC).value
        partial, shells = bk_character_sum(
            vals[:1], vals[1:2], vals[2:3], vals[3:4], Fraction(1, 2), 20
        )
        with mp.workprec(PREC.work_bits):
            partial_v = mpf(partial.numerator) / mpf(partial.denominator)
            tail = sum(
                abs(mpf(shells[b].numerator) / mpf(shells[b].denominator))
                for b in (19, 20)
                if b in shells and shells[b] != 0
            )
            assert abs(closed.to_mpc() - partial_v) <= 100 * tail + mpf(2) ** -(PREC.bits - 48)


def test_bk_lambda_mu_symmetry():
    lam = ev([Fraction(2, 5), Fraction(1, 9)], [Fraction(5, 7)])
    mu = ev([Fraction(1, 4), Fraction(3, 8)], [Fraction(7, 9)])
    a = bk_closed_form(lam, mu, PREC).value
    b = bk_closed_form(mu, lam, PREC).value
    assert rel_diff(a, b) < mpf(2) ** -(PREC.bits - 40)


def test_bk_confluent_epsilon_limits_both_sets():
    x, y = Fraction(3, 5), Fraction(1, 7)
    mu = ev([Fraction(2, 5), Fraction(1, 4)], [Fraction(5, 9)])
    conf = bk_closed_form(ev([x, x], [y]), mu, PREC)
    assert conf.branch == "confluent"
    assert bk_confluent(ev([x, x], [y]), mu, PREC).value == conf.value
    for e in (4, 6, 8):
        eps = Fraction(1, 10**e)
        gen = bk_closed_form(ev([x, x + eps], [y]), mu, PREC)
        assert rel_diff(gen.value, conf.value) <= 100 * mpf(10) ** -e
    # repeat inside the second set is handled symmetrically
    mu_rep = ev([Fraction(1, 4), Fraction(1, 4)], [Fraction(5, 9)])
    lam = ev([x, Fraction(2, 9)], [y])
    conf = bk_closed_form(lam, mu_rep, PREC)
    assert conf.branch == "confluent"
    eps = Fraction(1, 10**6)
    gen = bk_closed_form(lam, ev([Fraction(1, 4), Fraction(1, 4) + eps], [Fraction(5, 9)]), PREC)
    assert rel_diff(gen.value, conf.value) <= 100 * mpf(10) ** -6


def test_bk_simultaneous_repeats_in_both_sets():
    # repeats in lambda and mu at once: independent replacements, probed by eps
    x, y = Fraction(3, 5), Fraction(1, 7)
    mu_val = Fraction(1, 4)
    lam_c = ev([x, x], [y])
    mu_c = ev([mu_val, mu_val], [Fraction(5, 9)])
    conf = bk_closed_form(lam_c, mu_c, PREC)
    assert conf.branch == "confluent"
    for e in (5, 7):
        eps = Fraction(1, 10**e)
        gen = bk_closed_form(
            ev([x, x + eps], [y]), ev([mu_val, mu_val + eps], [Fraction(5, 9)]), PREC
        )
        assert rel_diff(gen.value, conf.value) <= 1000 * mpf(10) ** -e


def test_bk_triple_repeats_in_both_sets():
    # second-order derivative entries (j, k = 2) on both sides, probed by eps
    x, y = Fraction(3, 5), Fraction(1, 7)
    v, w = Fraction(1, 4), Fraction(5, 9)
    conf = bk_closed_form(ev([x, x, x], [y]), ev([v, v, v], [w]), PREC)
    assert conf.branch == "confluent"
    for e in (5, 7):
        eps = Fraction(1, 10**e)
        gen = bk_closed_form(
            ev([x, x + eps, x + 2 * eps], [y]), ev([v, v + eps, v + 2 * eps], [w]), PREC
        )
        assert rel_diff(gen.value, conf.value) <= 1000 * mpf(10) ** -e


def test_nondiag_limit_ls_against_probe():
    a = Fraction(9, 16)
    lim = nondiag_limit_ls(a, 1, BETA, PREC)
    for e in (5, 6):
        eps = Fraction(1, 10**e)
        c = Fraction(1, 10 ** (2 * e))
        up = ls_closed_form(ev([BigComplex(a + c / -eps)], [BigComplex(a + eps + c / -eps)]), PREC).value
        dn = ls_closed_form(ev([BigComplex(a - c / -eps)], [BigComplex(a + eps - c / -eps)]), PREC).value
        with mp.workprec(PREC.work_bits):
            slope = (up.to_mpc() - dn.to_mpc()) / (2 * mpf(c.numerator) / c.denominator)
            assert abs(slope - lim.to_mpc()) < abs(lim.to_mpc()) * 100 * mpf(10) ** -e


def test_nondiag_limit_ls_zero_coefficient():
    assert nondiag_limit_ls(Fraction(1, 2), 0, BETA, PREC).is_zero


def test_nondiag_limit_bk_against_probe():
    # the bk_closed_form twin of the ls probe: the first set's sector values merge
    # while the second set stays at mu = (4/9 | 1/4)
    a = Fraction(9, 16)
    mu = ev([Fraction(4, 9)], [Fraction(1, 4)])
    lim = nondiag_limit_bk(a, 1, (Fraction(4, 9), Fraction(1, 4)), BETA, PREC)
    for e in (5, 6, 7):
        eps = Fraction(1, 10**e)
        c = Fraction(1, 10 ** (2 * e))
        up = bk_closed_form(ev([BigComplex(a + c / -eps)], [BigComplex(a + eps + c / -eps)]), mu, PREC).value
        dn = bk_closed_form(ev([BigComplex(a - c / -eps)], [BigComplex(a + eps - c / -eps)]), mu, PREC).value
        with mp.workprec(PREC.work_bits):
            slope = (up.to_mpc() - dn.to_mpc()) / (2 * mpf(c.numerator) / c.denominator)
            assert abs(slope - lim.to_mpc()) < abs(lim.to_mpc()) * 100 * mpf(10) ** -e


def test_nondiag_limit_bk_against_bessel_reference():
    from mpmath import besseli, sqrt

    a = Fraction(9, 16)
    mu = (Fraction(4, 9), Fraction(1, 4))
    lim = nondiag_limit_bk(a, 1, mu, BETA, PREC)
    with mp.workprec(PREC.work_bits):
        sa = sqrt(mpf(9) / 16)
        m1, m2 = sqrt(mpf(4) / 9), sqrt(mpf(1) / 4)
        comb = (
            besseli(0, sa * m2) * besseli(1, sa * m1) * m1
            + besseli(0, sa * m1) * besseli(1, sa * m2) * m2
        ) / (2 * sa)
        want = mpf(1) / 4 * (mpf(4) / 9 - mpf(1) / 4) * comb
        assert abs(lim.to_mpc() - want) < abs(want) * mpf(2) ** -200


def test_plain_entries_round_at_the_evaluation_bits():
    # a plain-number entry is rounded at the evaluation's bits, not at 256
    F = Fraction
    hi = Precision(1024)
    plain = ls_closed_form(SuperEigenvalues((F(1, 3), F(2, 7)), (F(5, 11),), F(1, 2)), hi).value
    recs = SuperEigenvalues(
        (BigComplex(F(1, 3), bits=1024), BigComplex(F(2, 7), bits=1024)),
        (BigComplex(F(5, 11), bits=1024),),
        BigComplex(F(1, 2), bits=1024),
    )
    want = ls_closed_form(recs, hi).value
    assert plain.bits == 1024
    with mp.workprec(1100):
        assert abs(plain.to_mpc() - want.to_mpc()) <= abs(want.to_mpc()) * mpf(2) ** -1000


def test_eigenvalue_json_round_trip():
    lam = ev([Fraction(2, 5), Fraction(1, 9)], [Fraction(5, 7)])
    doc = lam.to_json()
    back = SuperEigenvalues.from_json(doc)
    assert back.m == 2 and back.n == 1
    assert rel_diff(back.bosonic[0], BigComplex(lam.bosonic[0])) < mpf(2) ** -200


def test_super_eigenvalues_is_an_immutable_value():
    a = SuperEigenvalues([Fraction(1, 3)], [Fraction(1, 5)], BETA)
    assert (a.bosonic, a.fermionic) == ((Fraction(1, 3),), (Fraction(1, 5),))  # lists become tuples
    same = SuperEigenvalues((Fraction(1, 3),), (Fraction(1, 5),), BigComplex(Fraction(1, 2), bits=128))
    assert a == same and hash(a) == hash(same)
    assert a != SuperEigenvalues((Fraction(1, 3),), (Fraction(1, 5),), BigComplex(Fraction(1, 3)))
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.beta = BETA


def test_integral_results_hold_their_own_diagnostics():
    a, b = integrals.IntegralResult(BigComplex(1), "generic"), integrals.IntegralResult(BigComplex(1), "generic")
    assert a == b and a.diagnostics is not b.diagnostics
    a.diagnostics["terms_used"] = 3
    assert b.diagnostics == {} and a != b
    a.branch = "confluent"  # a result stays mutable, so it has no hash
    assert a.branch == "confluent"
    with pytest.raises(TypeError):
        hash(b)


def test_integral_result_json():
    res = ls_closed_form(ev([BigComplex(1)], []), PREC)
    doc = res.to_json()
    assert doc["branch"] == "generic"
    assert doc["terms_used"] > 5
    assert isinstance(doc["value"]["re"], str)


def test_bk_ordinary_block_matches_character_sum():
    # n = 0 reduction of the two-source integral against the ordinary
    # character expansion sum_p (sigma_p beta^|p| / (|p|! d_p))^2 chi_p chi_p
    from math import factorial as fact

    from superint.partitions import dimension_glm, partitions_of, sigma_coefficient
    from superint.schur import schur_tableaux

    lam_v = [Fraction(2, 5), Fraction(-3, 7)]
    mu_v = [Fraction(1, 3), Fraction(4, 9)]
    lam = ev(lam_v, [])
    mu = ev(mu_v, [])
    closed = bk_closed_form(lam, mu, PREC).value
    beta = Fraction(1, 2)
    total = Fraction(0)
    for boxes in range(0, 17):
        for p in partitions_of(boxes, max_rows=2):
            coeff = Fraction(sigma_coefficient(p) * beta**boxes, fact(boxes) * dimension_glm(p, 2)) ** 2
            total += coeff * schur_tableaux(p, lam_v) * schur_tableaux(p, mu_v)
    with mp.workprec(PREC.work_bits):
        total_v = mpf(total.numerator) / mpf(total.denominator)
        assert abs(closed.to_mpc() - total_v) < mpf(10) ** -18
