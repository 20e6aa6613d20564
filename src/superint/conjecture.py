"""Power-series identity experiments and the exact combinatorial cross-checks.

The two series under test are the antisymmetric multi-index series

    J0 = sum_k Delta(k) / prod (k_i!)^2  z^k

and its split form Jm carrying Delta(k_a) Delta(k_b) with the cross factors
prod (z_i - z_j)/(k_i + k_j + 1).  Truncating every index at K, both reduce
exactly (finite rearrangement, no limits) to small determinants:

* J0 is the determinant of truncated ratio-of-Bessel-type columns, via the
  ordered-sum rearrangement and the factorial-ratio determinant identity.
* Jm uses a bordered Cauchy kernel: prod 1/(k_i + k_j + 1) times the two
  block Vandermondes is itself a determinant whose rows mix the coupled
  double series with plain moment columns, so the free multi-index sum
  factorizes into a single max(m, n)-sized determinant.

Both reductions are covered by brute-force multi-loop oracles in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations, product
from math import factorial
from operator import floordiv, mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpc_sub, round_nearest

from .errors import TruncationCapExceeded
from .integrals import c_constant
from .partitions import (
    Partition,
    assemble,
    is_covariant,
    k_indices,
    norm_alpha,
    partitions_of,
    sigma_coefficient,
    super_diagrams,
)
from .precision import (
    DEFAULT_PRECISION,
    DEFAULT_SEED,
    BigComplex,
    Precision,
    Slotted,
    _from_mpc,
    _mul_pairs,
    _to_mpc,
    as_record,
    det_mpc,
    exact_determinant,
    fixed_series_terms,
    from_fixed,
    inv_factorial,
    to_mpf,
    vandermonde,
)
from .schur import lr_coefficient, super_schur_tableaux, supercharacter_amu

# -- deterministic sampling ----------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, counter: int) -> int:
    """Counter-based 64-bit generator: splitmix64 stream at position `counter`.

    The value is the splitmix64 finalizer (Stafford mix13) applied to
    seed + counter * golden-gamma, all mod 2^64.  Pure function of its inputs,
    so samples indexed (seed, sample, coordinate) parallelize reproducibly.
    """
    x = (seed + counter * _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


def unit_double(seed: int, counter: int) -> float:
    """Uniform double in [0, 1) from the top 53 bits of the stream value."""
    return (splitmix64(seed, counter) >> 11) * (2.0 ** -53)


def seeded_partition(seed: int, counter: int, max_rows: int) -> Partition:
    """A partition of at most 12 boxes and `max_rows` rows.

    The size comes from stream position `counter`, the pick among all such
    partitions of that size from position `counter + 1`.
    """
    pool = list(partitions_of(splitmix64(seed, counter) % 13, max_rows=max_rows))
    return pool[splitmix64(seed, counter + 1) % len(pool)]


def _coord_counter(sample_index: int, coordinate: int, part: int) -> int:
    return (sample_index << 21) | (coordinate << 1) | part


def disk_radius(radius) -> Fraction:
    """The radius of verify_conjecture's disk as an exact Fraction in 0..4.

    An int, Fraction, float or Decimal converts exactly and a string as
    Fraction parses it ("2", "0.5", "1/3"); anything else, x/0 included, and
    any value outside 0..4 raise ValueError.
    """
    try:
        r = Fraction(radius)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"radius must be a number, got {radius!r}") from None
    if not 0 <= r <= 4:
        raise ValueError(f"radius must lie in 0..4, got {radius!r}")
    return r


def sample_disk(seed: int, sample_index: int, coordinate: int, radius, bits: int) -> BigComplex:
    """Uniform draw from the complex disk of the given radius (area-uniform), memoized (_draw)."""
    return _draw(seed, sample_index, coordinate, radius, bits)


# -- truncated series ----------------------------------------------------------


def _check_depth(K: int, prec: Precision):
    if K < 0:
        raise ValueError("truncation depth must be non-negative")
    if K + 1 > prec.truncation_cap:
        raise TruncationCapExceeded(
            f"requested truncation depth {K} exceeds the cap {prec.truncation_cap}"
        )


def _fixed_bits(K: int, prec: Precision) -> int:
    """Fraction bits work_bits + g of the fixed-point series sums, g = bit_length(K+1) + 17.

    Error budget for |z| <= 4 (the verify_conjecture radius limit), in units
    of 2^-(work_bits+g), with b = bit_length(K+1): each weight is off by at
    most 9 (fixed_series_terms); a shifted Bessel sum of at most K+1 terms
    by 9(K+1) + 10; a kernel sum s_k = sum_l w_l // (k+l+1) by
    9 H + sqrt(2)(K+1) + 10, H = sum_{l<=K} 1/(l+1) <= 1 + ln(K+1); and a
    bordered entry sum_k wb_k s_k by A (18 H + sqrt(2)(K+1) + 20), where
    A = I_0(4) < 11.31 bounds both sum_k |w_k| and (k+1)|s_k|.  All of
    these are below 2^4 (K+1) + 2^11 <= 2^(b+12) units, so every sum is
    within 2^-(work_bits+5) before it is rounded to work_bits (a shifted
    Bessel sum before its factor z^s/s!).
    """
    return prec.work_bits + (K + 1).bit_length() + 17


# -- per-z series tables ---------------------------------------------------------
#
# sample_disk ignores m and N, so every (N, m) cell of one sample draws a
# prefix of the same z: the draws are cached on sample_disk's arguments
# (_draw), and j0_truncated and jm_truncated share the tables below
# (_series_tables) and the J0 values (_j0_value) across calls.  A table also
# holds jm_truncated's coupled entries against each small-block z and its
# cross-product differences against each second-block z, keyed on that z's
# raw mpc tuple, so one entry is one dot product or one subtraction per
# ordered pair, and a table that is evicted takes its entries along.  Tables
# and values are keyed on the exact value of z, as raw mpc tuples, with K and
# the Precision, and the tables are filled on first use, so a cold call does
# no arithmetic the uncached one would not.  Each is an lru_cache that holds
# one sample: its at most 10 draws and tables (N <= 10) and one J0 value per
# N.  verify_cells walks the samples outside the cells, so no sample is read
# again once the next one starts, whatever the sample count.


def clear_series_memo() -> None:
    """Forget every cached draw, table and J0 value, so the next calls compute them anew."""
    _draw.cache_clear()
    _series_tables.cache_clear()
    _j0_value.cache_clear()


@lru_cache(maxsize=10)
def _draw(seed: int, sample_index: int, coordinate: int, radius, bits: int) -> BigComplex:
    """sample_disk's draw, from the two stream positions of its coordinate."""
    u = unit_double(seed, _coord_counter(sample_index, coordinate, 0))
    v = unit_double(seed, _coord_counter(sample_index, coordinate, 1))
    with mp.workprec(bits):
        r = to_mpf(radius) * mp.sqrt(mpf(u))
        theta = 2 * mp.pi * mpf(v)
        return BigComplex.from_mpc(mpc(r * mp.cos(theta), r * mp.sin(theta)), bits)


class _SeriesTables:
    """The fixed-K series of one z: the weights, the shifted Bessel sums, the kernel sums and the coupled entries.

    Also the differences from other z that jm_truncated's cross product
    reads.  Every value is rounded at the Precision's work_bits, whatever
    the caller's mpmath context, so the first read of a memoized entry fixes
    the bits any other read would.
    """

    __slots__ = ("z", "K", "fbits", "wp", "_weights", "_shifted", "_kernel", "_coupled", "_differences")

    def __init__(self, z, K: int, prec: Precision):
        self.z, self.K, self.fbits, self.wp = z, K, _fixed_bits(K, prec), prec.work_bits
        self._weights = None
        self._shifted = {}
        self._kernel = ([], [])
        self._coupled = {}
        self._differences = {}

    def weights(self):
        """The s = 0 terms z^k / (k!)^2, k <= K, as fixed-point (re, im) lists."""
        if self._weights is None:
            self._weights = fixed_series_terms(self.z, 0, self.K, self.fbits)
        return self._weights

    def shifted(self, s: int):
        """sum_{k=s..K} z^k / (k! (k-s)!), as z^s/s! times a fixed-point sum that starts at 1.

        Taking z^s/s! out keeps full relative accuracy at small |z|.  Zero
        for K < s.  Rounded at work_bits.  At s = 0 the terms are the weights.
        """
        value = self._shifted.get(s)
        if value is None:
            z, K, fbits = self.z, self.K, self.fbits
            re, im = self.weights() if s == 0 else fixed_series_terms(z, s, K - s, fbits)
            with mp.workprec(self.wp):
                value = self._shifted[s] = z ** s / factorial(s) * from_fixed(sum(re), sum(im), fbits)
        return value

    def kernel(self, length: int):
        """(re, im) lists of the kernel sums s_k = sum_l w_l // (k + l + 1), at least k < length.

        Each s_k is the same integer whatever length is asked for, so the
        lists only grow.
        """
        have = len(self._kernel[0])
        if have < length:
            for sums, part in zip(self._kernel, self.weights()):
                n = len(part)
                sums.extend(sum(map(floordiv, part, range(k + 1, k + 1 + n))) for k in range(have, length))
        return self._kernel

    def coupled(self, small: _SeriesTables):
        """The double series sum_k w_k(z) s_k(small.z), this z's weights against small's kernel sums.

        A fixed-point sum at 2 fbits (_coupled_entry), rounded at work_bits,
        and memoized on small.z's raw mpc tuple; small must share this
        table's K and Precision.
        """
        key = small.z._mpc_
        value = self._coupled.get(key)
        if value is None:
            weights = self.weights()
            value = self._coupled[key] = _coupled_entry(weights, small.kernel(len(weights[0])), self.fbits, self.wp)
        return value

    def difference(self, other: _SeriesTables):
        """z - other.z rounded at work_bits, as mpc's subtraction rounds it, as det_mpc's integer pair.

        Memoized on other.z's raw mpc tuple; other must share this table's
        Precision.
        """
        key = other.z._mpc_
        value = self._differences.get(key)
        if value is None:
            wp = self.wp
            value = self._differences[key] = _from_mpc(mpc_sub(self.z._mpc_, key, wp, round_nearest), wp)
        return value


def _coupled_entry(weights, kernel, fbits: int, wp: int):
    """sum_k w_k s_k over the (re, im) fixed-point lists at fbits, rounded from 2 fbits at wp; stops at the weights' end."""
    (br, bi), (sr, si) = weights, kernel
    re = sum(map(mul, br, sr)) - sum(map(mul, bi, si))
    im = sum(map(mul, br, si)) + sum(map(mul, bi, sr))
    return from_fixed(re, im, 2 * fbits, wp)


@lru_cache(maxsize=10)
def _series_tables(z, K: int, prec: Precision) -> _SeriesTables:
    """The tables of z, given as a raw mpc tuple, at depth K and prec."""
    return _SeriesTables(mp.make_mpc(z), K, prec)


def j0_truncated(z, K: int, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Box-truncated antisymmetric series, all indices bounded by K.

    Evaluated as det[f_i(z_j)] with f_i(z) = sum_{k<=K} z^k / (k! (k-N+i)!)
    (negative factorials giving zero terms); this equals the truncated
    multi-index sum exactly, and is 0 for K < N-1, where no N distinct
    indices fit.  Each f_i is a fixed-point sum (_fixed_bits).  Plain
    numbers in z are rounded to prec.bits; the value is memoized per z vector.
    """
    zs = [as_record(v, prec.bits).to_mpc() for v in z]
    N = len(zs)
    if N < 1:
        raise ValueError("need at least one variable")
    _check_depth(K, prec)
    return _j0_value(tuple(v._mpc_ for v in zs), K, prec)


@lru_cache(maxsize=10)
def _j0_value(zs, K: int, prec: Precision) -> BigComplex:
    """j0_truncated at z, given as a tuple of raw mpc tuples."""
    tables = [_series_tables(v, K, prec) for v in zs]
    N = len(tables)
    rows = [[t.shifted(N - i) for t in tables] for i in range(1, N + 1)]
    return BigComplex.from_mpc(det_mpc(rows, prec), prec.bits)


def jm_truncated(z, m: int, K: int, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Box-truncated split series with the block cross factors.

    Reduces exactly to cross-product times a bordered-kernel determinant whose
    coupled entries are the K-truncated double series
    sum z^k w^l / ((k!)^2 (l!)^2 (k+l+1)) and whose remaining columns are the
    moment sums sum (k)_d z^k / (k!)^2 with the falling factorials
    (k)_d = k (k-1) ... (k-d+1).  They replace the powers k^d by a
    unit-triangular column operation (k^d = sum_j S(d, j) (k)_j, Stirling
    numbers of the second kind), which leaves the determinant unchanged, and
    each is the shifted Bessel sum of j0_truncated's rows, so it keeps full
    relative accuracy; a power k^d would multiply the absolute error of the
    small tail weights by up to K^d.  The weights, the kernel sums and the
    coupled entries are fixed-point integer sums (_fixed_bits); all three and
    the moment columns come from the per-z tables, the coupled entries from
    the big-block z's table (_SeriesTables.coupled), so every (N, m) cell
    that meets the same ordered pair of z reuses its entry.  So does the
    cross product, whose differences the first-block z's tables hold
    (_cross); it and its product by the determinant are taken on det_mpc's
    integer pairs, each rounded at work_bits as the same mpc product rounds,
    but for det_mpc's far-apart exact tie.
    """
    zs = [as_record(v, prec.bits).to_mpc() for v in z]
    N = len(zs)
    if not 1 <= m <= N:
        raise ValueError("block size must satisfy 1 <= m <= N")
    _check_depth(K, prec)
    n = N - m
    if n == 0:
        return j0_truncated(z, K, prec)
    tables = [_series_tables(v._mpc_, K, prec) for v in zs]
    if m >= n:
        big, small = tables[:m], tables[m:]
    else:
        big, small = tables[m:], tables[:m]
    ns, dd = len(small), len(big) - len(small)
    rows = [[t.coupled(u) for u in small] + [t.shifted(d) for d in range(dd)] for t in big]
    wp = prec.work_bits
    cross = _cross(tables, m, wp)
    if (ns * dd + dd * (dd - 1) // 2) % 2:
        cross = (-cross[0], cross[1], -cross[2], cross[3])
    value = _mul_pairs(wp, cross, _from_mpc(det_mpc(rows, prec)._mpc_, wp))
    return BigComplex.from_mpc(mp.make_mpc(_to_mpc(value)), prec.bits)


def _cross(tables, m: int, wp: int):
    """prod (z_a - z_b), a over the first m tables and b over the rest, as det_mpc's integer pair.

    The differences come from the tables (_SeriesTables.difference).  Each
    product is rounded at wp as mpc's multiplication rounds it (_mul_pairs),
    in math.prod's order, whose first product, by 1, is exact.
    """
    return reduce(partial(_mul_pairs, wp), [a.difference(b) for a in tables[:m] for b in tables[m:]])


@lru_cache(maxsize=32)
def tail_bound(N: int, max_abs_z, K: int, prec: Precision = DEFAULT_PRECISION):
    """Crude rigorous bound on the discarded multi-index region of the J series.

    N * (max|z|)^(K+1) / ((K+1)!)^2 * (K+N)^(N(N-1)/2) * (1 + 2 max|z|)^(N^2):
    one index beyond K costs at least ((K+1)!)^-2 (max|z|)^(K+1); the
    combinatorial factor overestimates every Vandermonde and cross term, and
    the final power bounds the remaining geometric sums.  Rounded at
    work_bits, whatever the caller's context, and cached on the arguments:
    every sample of a cell at one N, radius, K and prec reads the same
    bound.  Equal radii of different types (2, Fraction(2), 2.0) share an
    entry; to_mpf reads each exactly, so they give the same bits.
    """
    with mp.workprec(prec.work_bits):
        r = to_mpf(max_abs_z)
        val = N * r ** (K + 1) / mp.factorial(K + 1) ** 2
        val *= mpf(K + N) ** (N * (N - 1) // 2)
        val *= (1 + 2 * r) ** (N * N)
        return val


class ConjectureSample(Slotted):
    """One sample's z, its J0 and Jm records and their absolute and relative differences."""

    __slots__ = ("z", "j0", "jm", "abs_diff", "rel_diff")


class ConjectureReport(Slotted):
    """Outcome of one seeded antisymmetric-vs-split series comparison."""

    __slots__ = (
        "N", "m", "seed", "precision_bits", "truncation_depth", "radius",
        "samples", "max_rel_diff", "tail_bound", "tolerance", "passed"
    )

    def to_json(self) -> dict:
        def fmt(x):
            with mp.workprec(self.precision_bits):
                return mp.nstr(mpf(x), 10)

        return {
            "N": self.N,
            "m": self.m,
            "seed": self.seed,
            "precision_bits": self.precision_bits,
            "truncation_depth": self.truncation_depth,
            "radius": self.radius,
            "pass": self.passed,
            "max_rel_diff": fmt(self.max_rel_diff),
            "tail_bound": fmt(self.tail_bound),
            "tolerance": fmt(self.tolerance),
            "samples": [
                {
                    "z": [v.to_json() for v in s.z],
                    "j0": s.j0.to_json(),
                    "jm": s.jm.to_json(),
                    "abs_diff": fmt(s.abs_diff),
                    "rel_diff": fmt(s.rel_diff),
                }
                for s in self.samples
            ],
        }


def verify_conjecture(
    N: int,
    m: int,
    sample_count: int = 10,
    radius=2,
    seed: int = DEFAULT_SEED,
    prec: Precision = DEFAULT_PRECISION,
    K: int = 64,
) -> ConjectureReport:
    """Compare the two truncated series on seeded samples from the complex disk.

    The radius is read by disk_radius: a number or numeric string in 0..4.
    One cell of verify_cells.
    """
    return verify_cells([(N, m)], sample_count, radius, seed, prec, K)[0]


def verify_cells(cells, sample_count=10, radius=2, seed=DEFAULT_SEED, prec=DEFAULT_PRECISION, K=64, jobs=1) -> list:
    """verify_conjecture at every (N, m) of cells, one ConjectureReport each, in cells' order.

    Walks the samples outside the cells: a sample's z are drawn once, at the
    largest N, and every cell reads their prefix before the next sample
    starts.  Samples go to up to `jobs` worker processes; the reports do
    not depend on the worker count.
    """
    if not cells:
        raise ValueError("cells must hold at least one (N, m)")
    for N, m in cells:
        if not 1 <= N <= 10:
            raise ValueError("N must lie in 1..10")
        if not 1 <= m <= N:
            raise ValueError("m must lie in 1..N")
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    radius = disk_radius(radius)
    tasks = [(cells, seed, s, radius, prec, K) for s in range(sample_count)]
    samples = pool_map(_sample_values, tasks, jobs)
    reports = []
    with mp.workprec(prec.work_bits):
        rounding_floor = mpf(2) ** (-(prec.bits - 48))
        for i, (N, m) in enumerate(cells):
            bound = tail_bound(N, radius, K, prec)
            cell_samples, tolerances = [], []
            for z, values in samples:
                j0, jm = values[i]
                adiff = abs(j0.to_mpc() - jm.to_mpc())
                scale = max(abs(j0.to_mpc()), mpf(2) ** (-prec.bits))
                cell_samples.append(ConjectureSample(z[:N], j0, jm, adiff, adiff / scale))
                tolerances.append(2 * bound / scale + rounding_floor)
            max_rel_diff = max(s.rel_diff for s in cell_samples)
            passed = all(s.rel_diff <= tol for s, tol in zip(cell_samples, tolerances))
            reports.append(
                ConjectureReport(
                    N, m, seed, prec.bits, K, str(radius), cell_samples, max_rel_diff, bound, max(tolerances), passed
                )
            )
    return reports


def _sample_values(cells, seed, s, radius, prec, K):
    """Sample s: its z at the largest N of cells, and (J0, Jm) at every cell."""
    z = [sample_disk(seed, s, c, radius, prec.bits) for c in range(max(N for N, _ in cells))]
    return z, [(j0_truncated(z[:N], K, prec), jm_truncated(z[:N], m, K, prec)) for N, m in cells]


def pool_map(fn, tasks, jobs: int) -> list:
    """[fn(*task) for task in tasks], on up to `jobs` worker processes, results in task order.

    Never starts more workers than there are tasks, and none for a single one.
    """
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    import concurrent.futures  # here, so importing this module does not load multiprocessing

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


# -- exact coefficient machinery ----------------------------------------------


def f_coefficient(r: Partition, rows: int) -> Fraction:
    """Antisymmetric-series coefficient of the diagram r padded to `rows` rows."""
    if len(r) > rows:
        return Fraction(0)
    return j0_series_coefficient(k_indices(r, rows))


def g_coefficient(p: Partition, q: Partition, m: int, n: int) -> Fraction:
    """Split-series coefficient for the block pair (p, q)."""
    ka = k_indices(p, m)
    kb = k_indices(q, n)
    return Fraction(vandermonde(ka) * vandermonde(kb), _split_denominator(ka, kb))


def _split_denominator(ka, kb) -> int:
    """prod (k!)^2 over both index blocks times prod (k_a + k_b + 1) over their pairs."""
    return math.prod(factorial(k) ** 2 for k in ka + kb) * math.prod(ki + kj + 1 for ki in ka for kj in kb)


def lr_relation_check(p: Partition, q: Partition, m: int, n: int):
    """Exact check of sum over r >= p (|r| = |p|+|q|, <= m+n rows) of f_r c^r_pq = g_pq.

    Returns (ok, residual); residual is the exact rational difference.
    """
    N = m + n
    total = Fraction(0)
    for r in partitions_of(p.size + q.size, max_rows=N):
        if not r.contains(p):
            continue
        c = lr_coefficient(r, p, q)
        if c:
            total += f_coefficient(r, N) * c
    residual = total - g_coefficient(p, q, m, n)
    return residual == 0, residual


def j0_series_coefficient(exponents) -> Fraction:
    """Exact coefficient of the monomial z^e in the antisymmetric series."""
    e = list(exponents)
    return Fraction(vandermonde(e), math.prod(factorial(k) ** 2 for k in e))


def _pattern_exponents(N: int, m: int, X: int, Y: int) -> list[int]:
    km0 = m - 1
    e = list(range(km0)) + [X]
    e += [km0 + d for d in range(N - m - 1)]
    e.append(Y)
    return e


def _s_closed_product(m: int, N: int, k_m: int, k_N: int) -> Fraction:
    """The closed product form of the split-series prefactor on the extreme pattern."""
    km0, kn0 = m - 1, N - m - 1
    sigma0 = c_constant(km0 + kn0) * c_constant(km0) * c_constant(kn0)
    val = Fraction(1, factorial(k_m) ** 2 * factorial(k_N) ** 2 * (k_m + k_N + 1))
    val /= sigma0
    for i in range(1, kn0 + 1):
        val /= k_m + i
    for j in range(1, km0 + 1):
        val /= k_N + j
    return val


def _s_general(m: int, N: int, k_m: int, k_N: int) -> Fraction:
    """The general split-series prefactor evaluated on the extreme pattern."""
    km0, kn0 = m - 1, N - m - 1
    ka = list(range(km0)) + [k_m]
    kb = list(range(kn0)) + [k_N]
    return Fraction(1, _split_denominator(ka, kb))


def partial_coefficient_check(k_m: int, k_N: int, m: int, N: int) -> bool:
    """Exact coefficient test of the closed product prefactor on the extreme pattern.

    Two exact requirements:
    1. the closed product equals the general split-series prefactor at the
       pattern indices, and
    2. the antisymmetric series' extracted coefficients on the whole pattern
       grid up to (k_m, k_N) stand in one fixed (index-independent, unit)
       proportion to the two-term split-side combination built from the
       closed product.  The orientation constant absorbs bookkeeping signs of
       the block Vandermondes on the fixed pattern rows.
    """
    km0, kn0 = m - 1, N - m - 1
    if k_m < km0 or k_N < kn0:
        raise ValueError("pattern indices must be at least their base values")
    if _s_closed_product(m, N, k_m, k_N) != _s_general(m, N, k_m, k_N):
        return False

    a = km0 + kn0

    def two_term(X, Y):
        out = Fraction(0)
        for sign, dx, dy in ((1, 0, 1), (-1, 1, 0)):
            km, kn = X - kn0 - dx, Y - km0 - dy
            if km >= km0 and kn >= kn0:
                out += sign * Fraction(factorial(km) * factorial(kn)) * _s_closed_product(m, N, km, kn) / (
                    factorial(km - km0) * factorial(kn - kn0)
                )
        return out

    orientation = None
    for X in range(a, k_m + kn0 + 1):
        for Y in range(a, k_N + km0 + 2):
            lhs = j0_series_coefficient(_pattern_exponents(N, m, X, Y))
            rhs = two_term(X, Y)
            if lhs == 0 and rhs == 0:
                continue
            if (lhs == 0) != (rhs == 0):
                return False
            ratio = lhs / rhs
            if ratio not in (Fraction(1), Fraction(-1)):
                return False
            if orientation is None:
                orientation = ratio
            elif ratio != orientation:
                return False
    return True


# -- supercharacter expansion of powers of the supertrace -----------------------


def character_expansion_check(m: int, n: int, boxes_max: int, bos, ferm) -> bool:
    """Exact check that str(A)^b equals the sigma-weighted sum of supercharacters.

    Uses the tableaux supercharacter for every hook-covariant diagram
    (degenerate ones included) at the given rational eigenvalues.
    """
    bos = [Fraction(v) for v in bos]
    ferm = [Fraction(v) for v in ferm]
    if len(bos) != m or len(ferm) != n:
        raise ValueError("eigenvalue counts must match (m, n)")
    if boxes_max < 0:
        raise ValueError("boxes_max must be non-negative")
    supertrace_val = sum(bos) - sum(ferm)
    power = Fraction(1)
    for b in range(1, boxes_max + 1):
        power *= supertrace_val
        total = Fraction(0)
        for t in partitions_of(b):
            if not is_covariant(t, m, n):
                continue
            total += sigma_coefficient(t) * super_schur_tableaux(t, bos, ferm)
        if total != power:
            return False
    return True


# -- ordered-sum, series-determinant and factorial-ratio identities -------------


def _ordered_tuples(N, K):
    """Strictly decreasing N-tuples from 0..K."""
    return (c[::-1] for c in combinations(range(K + 1), N))


def rearrangement_identity_holds(N: int, K: int, zs, coeff) -> bool:
    """Free multi-index sum vs ordered sum with the alternant, exactly (Fractions).

    coeff(k-tuple) must be antisymmetric under index transpositions.
    """
    zs = [Fraction(v) for v in zs]
    free = Fraction(0)
    for ks in product(range(K + 1), repeat=N):
        c = coeff(ks)
        if c == 0:
            continue
        term = c
        for z, k in zip(zs, ks):
            term *= z ** k
        free += term
    ordered = Fraction(0)
    for ks in _ordered_tuples(N, K):
        c = coeff(ks)
        if c == 0:
            continue
        alt = exact_determinant([[z ** k for k in ks] for z in zs])
        ordered += c * alt
    return free == ordered


def series_determinant_identity_holds(N: int, K: int, zs, coeff_streams) -> bool:
    """det[f_i(z_j)] vs the ordered sum of coefficient and power alternants, exactly.

    coeff_streams[i](k) gives the k-th coefficient of the i-th truncated series.
    """
    zs = [Fraction(v) for v in zs]
    lhs = exact_determinant(
        [[sum(coeff_streams[i](k) * z ** k for k in range(K + 1)) for z in zs] for i in range(N)]
    )
    rhs = Fraction(0)
    for ks in _ordered_tuples(N, K):
        cdet = exact_determinant([[coeff_streams[i](k) for k in ks] for i in range(N)])
        if cdet == 0:
            continue
        zdet = exact_determinant([[z ** k for k in ks] for z in zs])
        rhs += cdet * zdet
    return lhs == rhs


def factorial_ratio_identity_holds(t: Partition, N: int) -> bool:
    """det[1/(n_j + i - j)!] = Delta(k)/prod k_i! with k_j = n_j + N - j, exactly.

    Entries with factorials of negative integers are zero.
    """
    if len(t) > N:
        raise ValueError("partition has more than N rows")
    ks = k_indices(t, N)
    lhs = exact_determinant(
        [[inv_factorial(t.row(j) + i - j) for j in range(1, N + 1)] for i in range(1, N + 1)]
    )
    return lhs == Fraction(vandermonde(ks), math.prod(factorial(k) for k in ks))


def theorem_c_checks(N: int, seed: int = 7) -> bool:
    """Exact checks of the three rearrangement/determinant identities up to size N."""
    if not 1 <= N <= 6:
        raise ValueError("N must lie in 1..6")
    # factorial-ratio identity over random partitions
    for s in range(20):
        if not factorial_ratio_identity_holds(seeded_partition(seed, 2 * s, N), N):
            return False
    # ordered-sum rearrangement with an explicitly antisymmetric coefficient
    zs2 = [Fraction(1, 2), Fraction(-1, 3)]
    zs3 = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    if not rearrangement_identity_holds(2, 12, zs2, j0_series_coefficient):
        return False
    if not rearrangement_identity_holds(3, 8, zs3, j0_series_coefficient):
        return False
    # series determinant identity with shifted Bessel-kernel coefficient streams
    streams = [lambda k, i=i: inv_factorial(k) * inv_factorial(k + i - 1) for i in range(1, 4)]
    if not series_determinant_identity_holds(3, 20, zs3, streams):
        return False
    return True


# -- character-expansion evaluations of the closed-form integrals ---------------


def _shell_sums(m: int, n: int, max_boxes: int, term):
    """Sum term(sd, t) over the (m|n) diagrams sd, assembled as t, by box count.

    Returns (partial_sum, shell_values) where shell_values[b] is the exact
    contribution of all diagrams with b boxes (useful for tail estimates).
    """
    shells = {}
    for sd in super_diagrams(m, n, max_boxes):
        t = assemble(sd)
        shells[t.size] = shells.get(t.size, Fraction(0)) + term(sd, t)
    return sum(shells.values(), Fraction(0)), shells


def ls_character_sum(bos, ferm, beta: Fraction, max_boxes: int):
    """Partial diagram-expansion sum for the one-source integral, exact rationals.

    Returns (partial_sum, shell_values), as _shell_sums does.
    """
    bos = [Fraction(v) for v in bos]
    ferm = [Fraction(v) for v in ferm]
    beta = Fraction(beta)

    def term(sd, t):
        coeff = Fraction(sigma_coefficient(t), factorial(t.size)) ** 2 * beta ** (2 * t.size)
        return coeff * norm_alpha(sd) * supercharacter_amu(sd, bos, ferm)

    return _shell_sums(len(bos), len(ferm), max_boxes, term)


def bk_character_sum(lam_bos, lam_ferm, mu_bos, mu_ferm, beta: Fraction, max_boxes: int):
    """Partial diagram-expansion sum for the two-source integral, exact rationals."""
    lam_bos = [Fraction(v) for v in lam_bos]
    lam_ferm = [Fraction(v) for v in lam_ferm]
    mu_bos = [Fraction(v) for v in mu_bos]
    mu_ferm = [Fraction(v) for v in mu_ferm]
    beta = Fraction(beta)

    def term(sd, t):
        coeff = (
            Fraction(sigma_coefficient(t) * norm_alpha(sd), factorial(t.size)) * beta ** t.size
        ) ** 2
        return (
            coeff
            * supercharacter_amu(sd, lam_bos, lam_ferm)
            * supercharacter_amu(sd, mu_bos, mu_ferm)
        )

    return _shell_sums(len(lam_bos), len(lam_ferm), max_boxes, term)
