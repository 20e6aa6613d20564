"""Series identity machinery, exact coefficient checks, deterministic sampling."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from mpmath import mp, mpf

from superint import (
    BigComplex,
    Partition,
    Precision,
    TruncationCapExceeded,
    character_expansion_check,
    f_coefficient,
    g_coefficient,
    j0_truncated,
    jm_truncated,
    lr_relation_check,
    partial_coefficient_check,
    theorem_c_checks,
    verify_conjecture,
)
from superint import conjecture
from superint.conjecture import (
    clear_series_memo,
    factorial_ratio_identity_holds,
    j0_series_coefficient,
    sample_disk,
    splitmix64,
    tail_bound,
    unit_double,
)
from superint.precision import _to_mpc

from oracles import j0_box_sum, j0_truncated_mpmath, jm_box_sum, jm_truncated_mpmath

P = Partition
PREC = Precision()


# -- sampling ------------------------------------------------------------------


def test_splitmix64_reference_stream():
    # the canonical splitmix64 outputs for seed 0, stream positions 1..3
    assert splitmix64(0, 1) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 2) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 3) == 0x06C45D188009454F


def test_unit_double_range_and_determinism():
    vals = [unit_double(42, k) for k in range(100)]
    assert all(0 <= v < 1 for v in vals)
    assert vals == [unit_double(42, k) for k in range(100)]


def test_sample_disk_radius_and_determinism():
    for s in range(5):
        for c in range(3):
            z = sample_disk(123, s, c, 2, 256)
            assert abs(z.to_mpc()) <= 2
            z2 = sample_disk(123, s, c, 2, 256)
            assert z.re == z2.re and z.im == z2.im


@pytest.fixture
def drawn(monkeypatch):
    """The stream positions sample_disk reads, from an empty memo on."""
    read = []

    def counting(seed, counter):
        read.append(counter)
        return unit_double(seed, counter)

    monkeypatch.setattr(conjecture, "unit_double", counting)
    clear_series_memo()
    return read


def test_draw_memo_keys_clearing_and_cap(drawn):
    z = sample_disk(5, 0, 0, 2, 256)
    assert sample_disk(5, 0, 0, 2, 256) is z and len(drawn) == 2
    # every argument is part of the key
    keys = [(6, 0, 0, 2, 256), (5, 1, 0, 2, 256), (5, 0, 1, 2, 256), (5, 0, 0, 1, 256), (5, 0, 0, 2, 128)]
    values = [sample_disk(*key) for key in keys]
    assert len(drawn) == 12
    assert len({(v.re, v.im) for v in values + [z]}) == 6
    clear_series_memo()
    assert conjecture._draw.cache_info().currsize == 0
    again = sample_disk(5, 0, 0, 2, 256)
    assert (again.re, again.im) == (z.re, z.im) and len(drawn) == 14
    size = conjecture._draw.cache_info().maxsize
    assert size == 10
    for s in range(2 * size):
        sample_disk(5, s, 0, 2, 256)
    assert conjecture._draw.cache_info().currsize == size


def test_clearing_reaches_the_caches_behind_rebound_names(drawn, monkeypatch):
    # a tracer rebinds sample_disk and j0_truncated to pass-through wrappers;
    # clear_series_memo must still empty the caches behind them
    def passing(f):
        return lambda *args, **kwargs: f(*args, **kwargs)

    monkeypatch.setattr(conjecture, "sample_disk", passing(conjecture.sample_disk))
    monkeypatch.setattr(conjecture, "j0_truncated", passing(conjecture.j0_truncated))
    caches = (conjecture._draw, conjecture._series_tables, conjecture._j0_value)
    z = [conjecture.sample_disk(5, 0, c, 2, PREC.bits) for c in range(3)]
    conjecture.j0_truncated(z, 8, PREC)
    assert [c.cache_info().currsize for c in caches] == [3, 3, 1] and len(drawn) == 6
    clear_series_memo()
    assert [c.cache_info().currsize for c in caches] == [0, 0, 0]
    conjecture.sample_disk(5, 0, 0, 2, PREC.bits)
    assert len(drawn) == 8


def test_verify_conjecture_draws_each_point_once(drawn):
    # every m of one N reads the same points, as every (N, m) cell of criterion 5 does
    for N in (2, 3):
        for m in range(1, N + 1):
            assert verify_conjecture(N, m, sample_count=2, K=16).passed
    assert len(drawn) == len(set(drawn)) == 2 * 2 * 3


# -- truncated series ------------------------------------------------------------


def _as_mpf(fr: Fraction):
    return mpf(fr.numerator) / mpf(fr.denominator)


def test_j0_single_variable_is_bessel_kernel():
    from superint.precision import bessel_ratio

    z = BigComplex(Fraction(1, 3))
    a = j0_truncated([z], 40, PREC)
    b = bessel_ratio(0, z, PREC)
    with mp.workprec(400):
        assert abs(a.to_mpc() - b.to_mpc()) < mpf(2) ** -200


def test_j0_low_order_coefficients():
    assert j0_series_coefficient([1, 0]) == 1
    assert j0_series_coefficient([0, 1]) == -1
    assert j0_series_coefficient([0, 0]) == 0


def test_j0_matches_box_sum_oracle():
    cases = [
        ([Fraction(1, 2), Fraction(1, 3)], 2, 12),
        ([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)], 3, 8),
    ]
    with mp.workprec(PREC.work_bits):
        for z, n, k in cases:
            got = j0_truncated([BigComplex(v) for v in z], k, PREC)
            want = _as_mpf(j0_box_sum(z, k))
            assert abs(got.to_mpc() - want) < mpf(2) ** -200


def test_j0_frozen_two_variable_value():
    # the K=40 box sum at z = (1/2, 1/3), computed by the independent
    # double loop oracle at test time and compared to 2^-200
    z = [Fraction(1, 2), Fraction(1, 3)]
    got = j0_truncated([BigComplex(v) for v in z], 40, PREC)
    want = j0_box_sum(z, 40)
    with mp.workprec(PREC.work_bits):
        assert abs(got.to_mpc() - _as_mpf(want)) < mpf(2) ** -200


def test_jm_matches_box_sum_oracle():
    z2 = [Fraction(1, 2), Fraction(-1, 3)]
    z3 = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    with mp.workprec(PREC.work_bits):
        for z, k in ((z2, 10), (z3, 6)):
            for m in range(1, len(z) + 1):
                got = jm_truncated([BigComplex(v) for v in z], m, k, PREC)
                want = _as_mpf(jm_box_sum(z, m, k))
                assert abs(got.to_mpc() - want) < mpf(2) ** -180, (len(z), m)


def test_jm_equals_j0_for_full_block():
    z = [BigComplex(Fraction(1, 2)), BigComplex(Fraction(1, 5))]
    a = jm_truncated(z, 2, 20, PREC)
    b = j0_truncated(z, 20, PREC)
    assert a.re == b.re and a.im == b.im


def test_j0_antisymmetry():
    z = [BigComplex(Fraction(1, 2)), BigComplex(Fraction(-2, 7)), BigComplex(Fraction(1, 9))]
    swapped = [z[1], z[0], z[2]]
    a = j0_truncated(z, 24, PREC)
    b = j0_truncated(swapped, 24, PREC)
    with mp.workprec(400):
        assert abs(a.to_mpc() + b.to_mpc()) < mpf(2) ** -180


def test_jm_independent_of_m_within_tail():
    z = [sample_disk(7, 0, c, 2, PREC.bits) for c in range(4)]
    vals = [jm_truncated(z, m, 64, PREC) for m in range(1, 5)]
    bound = 2 * tail_bound(4, 2, 64, PREC)
    with mp.workprec(PREC.work_bits):
        for a in vals:
            for b in vals:
                assert abs(a.to_mpc() - b.to_mpc()) <= bound + mpf(2) ** -(PREC.bits - 48)


def test_truncation_cap_guard():
    tiny = Precision(bits=256, truncation_cap=8)
    with pytest.raises(TruncationCapExceeded):
        j0_truncated([BigComplex(1)], 64, tiny)
    with pytest.raises(TruncationCapExceeded):
        jm_truncated([BigComplex(1), BigComplex(2)], 1, 64, tiny)


# at K <= 1 no three distinct indices fit in 0..K, so J0 and its m = 3 block vanish
Z3 = [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 5)]


@pytest.mark.parametrize("N", [2, 3])
def test_series_match_box_sums_at_every_small_depth(N):
    z = Z3[:N]
    zs = [BigComplex(v) for v in z]
    for K in range(N + 1):
        j0 = j0_truncated(zs, K, PREC)
        if K < N - 1:
            assert j0.is_zero, K
        with mp.workprec(PREC.work_bits):
            assert abs(j0.to_mpc() - _as_mpf(j0_box_sum(z, K))) < mpf(2) ** -200, K
            for m in range(1, N + 1):
                jm = jm_truncated(zs, m, K, PREC)
                assert abs(jm.to_mpc() - _as_mpf(jm_box_sum(z, m, K))) < mpf(2) ** -200, (K, m)


def test_negative_depth_is_rejected():
    zs = [BigComplex(v) for v in Z3]
    with pytest.raises(ValueError):
        j0_truncated(zs, -1, PREC)
    for m in range(1, 4):
        with pytest.raises(ValueError):
            jm_truncated(zs, m, -1, PREC)
    # and at a valid depth: no variables, or a block outside 1..N
    with pytest.raises(ValueError, match="at least one variable"):
        j0_truncated([], 8, PREC)
    for m in (-1, 0, 4):
        with pytest.raises(ValueError, match="1 <= m <= N"):
            jm_truncated(zs, m, 8, PREC)


@pytest.mark.parametrize("seed", [42, 4001])
def test_series_bit_identical_to_mpmath_reference_on_grid_cells(seed):
    # criterion 5's cells: N = 2..8, every m, radius 2, K = 64, 256 bits, at
    # samples 0-1; visited in order, shuffled and reversed with the series memo
    # shared across the whole order, and cold, with the memo cleared before every call
    cells = [(s, N, m) for s in range(2) for N in range(2, 9) for m in range(1, N + 1)]
    want = {}
    for s, N, m in cells:
        z = [sample_disk(seed, s, c, 2, PREC.bits) for c in range(N)]
        want[s, N, m] = j0_truncated_mpmath(z, 64, PREC) if m == N else jm_truncated_mpmath(z, m, 64, PREC)
    shuffled = list(cells)
    random.Random(seed).shuffle(shuffled)
    for order, cold in ((cells, False), (shuffled, False), (cells[::-1], False), (cells, True)):
        clear_series_memo()
        for s, N, m in order:
            z = [sample_disk(seed, s, c, 2, PREC.bits) for c in range(N)]
            if cold:
                clear_series_memo()
            j0 = j0_truncated(z, 64, PREC)
            if cold:
                clear_series_memo()
            jm = jm_truncated(z, m, 64, PREC)
            for value, ref in ((j0, want[s, N, N]), (jm, want[s, N, m])):
                assert (value.re, value.im) == (ref.re, ref.im), (s, N, m, cold)


def test_plain_arguments_are_rounded_at_the_requested_bits():
    # a Fraction used to be rounded at the caller's mp.prec (53 bits by default)
    prec = Precision(bits=256)
    records = [BigComplex(v, bits=256) for v in Z3]
    for f in (lambda z: j0_truncated(z, 64, prec), lambda z: jm_truncated(z, 1, 64, prec)):
        clear_series_memo()
        want = f(records)
        for ambient in (53, 400):
            clear_series_memo()
            with mp.workprec(ambient):
                got = f(Z3)
            assert (got.re, got.im) == (want.re, want.im), ambient


def test_series_memo_key_separates_depth_bits_and_guard_bits():
    z = [sample_disk(42, 0, c, 2, 512) for c in range(3)]
    keys = [(K, Precision(bits=b, guard_bits=g)) for K in (32, 64) for b in (128, 256) for g in (0, 32)]

    def values(K, prec):
        return tuple((v.re, v.im) for v in [j0_truncated(z, K, prec)] + [jm_truncated(z, m, K, prec) for m in (1, 2)])

    cold = {}
    for key in keys:
        clear_series_memo()
        cold[key] = values(*key)
    # every key but K at 128 bits (the K = 32 tail is below 2^-200) gives its own
    # values, so a key that dropped K, bits or guard_bits would return a wrong one
    assert len(set(cold.values())) == len(keys) - 2
    clear_series_memo()
    for key in keys + keys[::-1]:
        assert values(*key) == cold[key], key


def test_kernel_sums_do_not_depend_on_the_length_asked_for():
    z = sample_disk(42, 0, 0, 2, PREC.bits).to_mpc()
    grown = conjecture._SeriesTables(z, 64, PREC)
    fresh = conjecture._SeriesTables(z, 64, PREC)
    assert len(grown.kernel(3)[0]) == 3
    assert grown.kernel(40) == fresh.kernel(40)
    assert len(fresh.kernel(40)[0]) == 40


def test_series_memo_stays_at_its_cap():
    clear_series_memo()
    for s in range(40):
        z = [sample_disk(9, s, c, 2, PREC.bits) for c in range(3)]
        j0_truncated(z, 8, PREC)
        jm_truncated(z, 1, 8, PREC)
    tables, j0 = conjecture._series_tables.cache_info(), conjecture._j0_value.cache_info()
    assert (tables.maxsize, j0.maxsize) == (10, 10)
    assert (tables.currsize, j0.currsize) == (tables.maxsize, j0.maxsize)


def test_memo_holds_every_m_of_one_call_at_the_largest_N():
    # verify_conjecture allows N <= 10; every m of N = 10 reads each sample's
    # 10 z and one J0 vector, all before the next sample, so the caches, which
    # hold one sample, miss once per z and once per J0
    clear_series_memo()
    reports = conjecture.verify_cells([(10, m) for m in range(1, 11)])
    assert [(r.m, r.passed) for r in reports] == [(m, True) for m in range(1, 11)]
    caches = (conjecture._draw, conjecture._series_tables, conjecture._j0_value)
    assert [c.cache_info().misses for c in caches] == [100, 100, 10]


def test_verify_cells_refuses_an_empty_cell_list():
    with pytest.raises(ValueError, match="at least one"):
        conjecture.verify_cells([])


def _calls_over_one_samples_cells(monkeypatch, name, seed, order):
    """Count the calls to conjecture.<name> over one sample's N = 2..8 cells, every m, in a shuffled order.

    The cells run warm, then again, which must call nothing more, then each
    cold after clear_series_memo(); the three values of a cell must agree.
    Returns the cells and the warm pass's call count.
    """
    computed, f = [], getattr(conjecture, name)

    def counting(*args):
        computed.append(args)
        return f(*args)

    monkeypatch.setattr(conjecture, name, counting)
    z = [sample_disk(seed, 0, c, 2, PREC.bits) for c in range(8)]
    cells = [(N, m) for N in range(2, 9) for m in range(1, N + 1)]
    random.Random(order).shuffle(cells)
    clear_series_memo()
    warm = [jm_truncated(z[:N], m, 64, PREC) for N, m in cells]
    calls = len(computed)
    again = [jm_truncated(z[:N], m, 64, PREC) for N, m in cells]
    assert len(computed) == calls
    for (N, m), a, b in zip(cells, warm, again):
        clear_series_memo()
        cold = jm_truncated(z[:N], m, 64, PREC)
        assert (a.re, a.im) == (b.re, b.im) == (cold.re, cold.im), (N, m)
    return cells, calls


def test_coupled_entries_are_computed_once_per_ordered_pair(monkeypatch):
    # the cells meet each ordered (big z, small z) pair many times; the big
    # z's table computes its entry once (m = N is J0 and has no small block)
    cells, calls = _calls_over_one_samples_cells(monkeypatch, "_coupled_entry", 4001, 7)
    pairs = set()
    for N, m in cells:
        big, small = (range(m), range(m, N)) if 2 * m >= N else (range(m, N), range(m))
        pairs.update(product(big, small))
    assert calls == len(pairs) <= 56


def test_differences_are_computed_once_per_ordered_pair(monkeypatch):
    # the cells meet each pair (first-block z, second-block z) many times; the
    # first z's table subtracts once
    cells, calls = _calls_over_one_samples_cells(monkeypatch, "mpc_sub", 4002, 11)
    pairs = {(a, b) for N, m in cells for a in range(m) for b in range(m, N)}
    assert calls == len(pairs) == 28


@pytest.mark.parametrize("bits", [64, 256])
def test_series_tables_round_at_their_own_work_bits(bits):
    # a table's entries are memoized, so whoever reads one first fixes its bits;
    # each is rounded at the table's work_bits, as the series read it inside
    # mp.workprec(work_bits), whatever the caller's context
    prec = Precision(bits=bits)
    z, u = (sample_disk(4001, 0, c, 2, bits).to_mpc()._mpc_ for c in range(2))

    def read():
        clear_series_memo()
        t, s = conjecture._series_tables(z, 64, prec), conjecture._series_tables(u, 64, prec)
        return [v._mpc_ for v in (t.shifted(0), t.shifted(3), t.coupled(s), s.coupled(t))], t.difference(s)

    with mp.workprec(prec.work_bits):
        want = read()
    for ambient in (53, 400):
        with mp.workprec(ambient):
            assert read() == want, ambient


@pytest.mark.parametrize("bits", [128, 256, 1024])
@pytest.mark.parametrize("guard_bits", [0, 32])
def test_cross_product_is_the_mpc_product_bit_for_bit(bits, guard_bits):
    # jm_truncated's prod (z_a - z_b) on integer pairs against math.prod of mpc
    # differences at work_bits, on draws with one repeated and one nearly repeated z
    prec = Precision(bits=bits, guard_bits=guard_bits)
    wp = prec.work_bits
    for s in range(3):
        z = [sample_disk(4001, s, c, 2, bits).to_mpc() for c in range(6)]
        z[5] = z[4]
        with mp.workprec(bits):
            z[3] = z[2] + mpf(2) ** -(bits - 4)
        tables = [conjecture._series_tables(v._mpc_, 64, prec) for v in z]
        for m in range(1, 6):
            with mp.workprec(wp):
                want = math.prod(a - b for a in z[:m] for b in z[m:])
            assert _to_mpc(conjecture._cross(tables, m, wp)) == want._mpc_, (s, m)


def test_tail_bound_reads_its_radius_exactly_and_is_cached():
    tail_bound.cache_clear()
    want = tail_bound(5, 2, 64, PREC)
    for radius in (2, Fraction(2), 2.0):
        for ambient in (53, 3000):
            tail_bound.cache_clear()
            with mp.workprec(ambient):
                got = tail_bound(5, radius, 64, PREC)
            assert got._mpf_ == want._mpf_, (radius, ambient)
    info = tail_bound.cache_info()
    assert tail_bound(5, 2, 64, PREC) is got
    assert tail_bound.cache_info().hits == info.hits + 1
    for N in range(1, 2 * info.maxsize + 1):
        tail_bound(N, 2, 64, PREC)
    assert tail_bound.cache_info().currsize == info.maxsize


# At N = 8 and radius 1/100 the bordered determinant cancels up to 38 bits in
# both kernels (ROADMAP, known defects); that loss, not the series sums,
# decides there which of the two lands closer.
@pytest.mark.parametrize(
    "radius, bits, K, N",
    [(4, 128, 64, 4), (4, 1024, 64, 4), (2, 256, 200, 3), (Fraction(1, 100), 256, 64, 4)],
)
def test_series_at_least_as_close_as_mpmath_reference(radius, bits, K, N):
    prec, high = Precision(bits=bits), Precision(bits=bits + 512)
    z = [sample_disk(42, 0, c, radius, bits) for c in range(N)]
    for m in range(1, N + 1):
        exact = jm_truncated_mpmath(z, m, K, high).to_mpc()
        with mp.workprec(high.work_bits):
            err = abs(jm_truncated(z, m, K, prec).to_mpc() - exact)
            err_reference = abs(jm_truncated_mpmath(z, m, K, prec).to_mpc() - exact)
        assert err <= err_reference, m


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect: jm_truncated's determinant loses up to 38 bits at small |z|")
def test_known_defect_jm_small_radius_determinant_loss():
    # conjecture-verify --N 8 --radius 0.01 at m = 1: the bordered determinant's rows are
    # nearly parallel at small |z|, and 256 bits hold about 218 against a 768-bit rerun
    # on the same inputs
    high = Precision(bits=768)
    for s in range(10):
        z = [sample_disk(42, s, c, Fraction(1, 100), PREC.bits) for c in range(8)]
        want = jm_truncated(z, 1, 64, high).to_mpc()
        with mp.workprec(high.work_bits):
            assert abs(jm_truncated(z, 1, 64, PREC).to_mpc() - want) < mpf(2) ** -248 * abs(want), s


def test_verify_conjecture_report():
    rep = verify_conjecture(3, 1, sample_count=4, radius=2, seed=42, prec=PREC, K=64)
    assert rep.passed
    assert len(rep.samples) == 4
    doc = rep.to_json()
    assert doc["N"] == 3 and doc["m"] == 1 and doc["pass"]
    with mp.workprec(PREC.work_bits):
        assert mpf(rep.max_rel_diff) < mpf(10) ** -40


def test_verify_conjecture_reports_are_bit_identical():
    a = verify_conjecture(4, 2, sample_count=3, radius=2, seed=9, prec=PREC, K=48)
    b = verify_conjecture(4, 2, sample_count=3, radius=2, seed=9, prec=PREC, K=48)
    import json

    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_verify_conjecture_validation():
    with pytest.raises(ValueError):
        verify_conjecture(4, 5)
    # out of 0..4, not a number, or x/0: ValueError, also from a library call
    for radius in (5, -1, "9/2", Fraction(-1, 3), "1/0", "abc", None, 1j, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            verify_conjecture(4, 1, radius=radius)
    with pytest.raises(ValueError):
        verify_conjecture(12, 1)
    for count in (0, -1):
        with pytest.raises(ValueError):
            verify_conjecture(2, 1, sample_count=count)


def test_verify_conjecture_reads_radius_exactly():
    # a numeric string, a Fraction and a float of the same value draw the same points
    reports = [
        verify_conjecture(2, 1, sample_count=2, radius=r, seed=5, prec=PREC, K=16).to_json()
        for r in ("1/2", Fraction(1, 2), 0.5, "0.5")
    ]
    assert all(r == reports[0] for r in reports)
    assert reports[0]["radius"] == "1/2"


def test_conjecture_report_json_ignores_caller_precision():
    rep = verify_conjecture(2, 1, sample_count=2, radius=2, seed=42, prec=PREC, K=64)
    doc = rep.to_json()
    assert doc["tail_bound"] == "4.474486053e-158"
    with mp.workprec(10):
        assert rep.to_json() == doc


def test_proved_small_cases_pass():
    for n, m in ((2, 1), (3, 1), (3, 2)):
        rep = verify_conjecture(n, m, sample_count=5, radius=2, seed=42, prec=PREC, K=64)
        assert rep.passed


# -- exact coefficient machinery ---------------------------------------------------


def test_f_coefficient_examples():
    assert f_coefficient(P(), 1) == 1
    assert f_coefficient(P((1,)), 1) == 1
    # N = 3 empty diagram: Delta(2,1,0)/(2!1!0!)^2 = 2/4
    assert f_coefficient(P(), 3) == Fraction(1, 2)
    assert f_coefficient(P((1, 1, 1, 1)), 3) == 0


def test_g_coefficient_examples():
    assert g_coefficient(P(), P(), 1, 1) == 1
    # matches the series coefficient machinery on the smallest split
    assert g_coefficient(P((1,)), P(), 1, 1) == Fraction(1, 1 * 1 * 2)


def test_lr_relation_examples():
    ok, res = lr_relation_check(P(), P(), 1, 1)
    assert ok and res == 0
    ok, res = lr_relation_check(P((1,)), P(), 1, 1)
    assert ok and res == 0
    ok, res = lr_relation_check(P((2, 1)), P((2, 2)), 2, 2)
    assert ok and res == 0


def test_lr_relation_sweep_2_2():
    from superint.partitions import partitions_of

    for total in range(9):
        for psize in range(total + 1):
            for p in partitions_of(psize, max_rows=2):
                for q in partitions_of(total - psize, max_rows=2):
                    ok, res = lr_relation_check(p, q, 2, 2)
                    assert ok and res == 0, (p, q)


def test_partial_coefficient_examples():
    assert partial_coefficient_check(0, 0, 1, 2)
    for n_vars in (3, 4):
        for m in range(1, n_vars):
            km0, kn0 = m - 1, n_vars - m - 1
            assert partial_coefficient_check(km0 + 4, kn0 + 4, m, n_vars)
    with pytest.raises(ValueError):
        partial_coefficient_check(0, 0, 2, 3)


def test_character_expansion_examples():
    assert character_expansion_check(1, 1, 2, [Fraction(2, 3)], [Fraction(-1, 5)])
    assert character_expansion_check(
        2, 2, 6, [Fraction(2, 3), Fraction(1, 7)], [Fraction(-1, 5), Fraction(3, 4)]
    )
    with pytest.raises(ValueError):
        character_expansion_check(1, 1, -1, [Fraction(2, 3)], [Fraction(-1, 5)])


def test_theorem_checks():
    assert theorem_c_checks(5)
    assert theorem_c_checks(6, seed=11)
    for n_vars in (0, -1, 7):
        with pytest.raises(ValueError):
            theorem_c_checks(n_vars)


def test_factorial_ratio_identity_spot():
    # det [[1, 0], [1/2, 1]] = 1 for the two-row staircase pattern
    assert factorial_ratio_identity_holds(P((1,)), 2)
    assert factorial_ratio_identity_holds(P((3, 1)), 4)


def test_tail_bound_dominates_actual_tails():
    z = [Fraction(1, 2), Fraction(-1, 3)]
    with mp.workprec(PREC.work_bits):
        full = j0_box_sum(z, 18)
        trunc = j0_box_sum(z, 6)
        actual = abs(_as_mpf(full - trunc))
        bound = tail_bound(2, Fraction(1, 2), 6, PREC)
        assert actual <= bound


def test_hook_coupling_form_equals_norm_form():
    # the expansion written through k-indices, factorial squares and the
    # block-coupling product must reproduce the norm-and-supercharacter form
    # diagram by diagram, and hence the closed form within truncation tails
    from math import factorial as fact

    from superint import ls_closed_form, SuperEigenvalues
    from superint.conjecture import ls_character_sum
    from superint.partitions import k_indices, super_diagrams
    from superint.schur import schur_bialternant
    from superint.precision import vandermonde
    from superint.integrals import c_constant

    beta = Fraction(1, 2)
    cases = [
        (1, 1, [Fraction(3, 7)], [Fraction(-2, 9)]),
        (2, 1, [Fraction(3, 7), Fraction(1, 4)], [Fraction(-2, 9)]),
        (2, 2, [Fraction(3, 7), Fraction(1, 4)], [Fraction(-2, 9), Fraction(5, 8)]),
    ]
    for m, n, bos, ferm in cases:
        cross = Fraction(1)
        for a in bos:
            for b in ferm:
                cross *= a - b
        hook_form = Fraction(0)
        for sd in super_diagrams(m, n, 14):
            ka = k_indices(sd.p, m)
            kb = k_indices(sd.q, n)
            coeff = Fraction(vandermonde(list(ka)) * vandermonde(list(kb)))
            for k in ka + kb:
                coeff /= Fraction(fact(k)) ** 2
            for ki in ka:
                for kj in kb:
                    coeff /= ki + kj + 1
            term = (
                coeff
                * beta ** (2 * sd.boxes)
                * cross
                * schur_bialternant(sd.p, bos)
                * schur_bialternant(sd.q, ferm)
            )
            hook_form += term
        hook_form *= c_constant(m) * c_constant(n)
        norm_form, shells = ls_character_sum(bos, ferm, beta, 14)
        assert hook_form == norm_form
        closed = ls_closed_form(
            SuperEigenvalues(tuple(bos), tuple(ferm), BigComplex(beta)), PREC
        ).value
        with mp.workprec(PREC.work_bits):
            partial = mpf(norm_form.numerator) / mpf(norm_form.denominator)
            tail = sum(
                abs(mpf(shells[b].numerator) / mpf(shells[b].denominator))
                for b in (13, 14)
                if b in shells and shells[b] != 0
            )
            assert abs(closed.to_mpc() - partial) <= 100 * tail + mpf(2) ** -(PREC.bits - 48)
