"""Working precision, the JSON boundary record and the numeric kernels every other module uses.

All multiprecision arithmetic runs on mpmath values at an explicit working
precision, or on fixed-point Python integers at an explicit scale, so
results are deterministic and independent of any global context the caller
may have set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import TruncationCapExceeded

DEFAULT_BITS = 256
DEFAULT_GUARD_BITS = 32
DEFAULT_TRUNCATION_CAP = 512


@dataclass(frozen=True)
class Precision:
    """Working precision: mantissa bits, guard bits for stopping rules, series cap."""

    bits: int = DEFAULT_BITS
    guard_bits: int = DEFAULT_GUARD_BITS
    truncation_cap: int = DEFAULT_TRUNCATION_CAP

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("precision must be at least 64 bits")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be non-negative")
        if self.truncation_cap < 8:
            raise ValueError("truncation_cap must be at least 8")

    @property
    def work_bits(self) -> int:
        return self.bits + self.guard_bits


DEFAULT_PRECISION = Precision()


def _to_mpf_exact(x):
    """Convert a Python number (or decimal string) to mpf at ambient precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def to_mpc_any(x) -> mpc:
    """Convert any supported scalar to mpc at the ambient working precision."""
    if isinstance(x, Fraction):
        return mpc(mpf(x.numerator) / mpf(x.denominator))
    if hasattr(x, "to_mpc"):
        return x.to_mpc()
    return mpc(x)


@dataclass(frozen=True, slots=True)
class BigComplex:
    """A complex value tagged with its mantissa bits: the record of the JSON/API boundary.

    The library computes on mpc at an explicit Precision; a record only
    carries a value in (the constructor, from_mpc, from_json) and out
    (to_mpc, to_json).  Two records are equal when their values are; bits is
    not compared.
    """

    re: mpf = 0
    im: mpf = 0
    bits: int = field(default=DEFAULT_BITS, compare=False)

    def __post_init__(self):
        """Round an int, float, complex, Fraction or mpc to `bits` bits."""
        if self.bits < 64:
            raise ValueError("precision must be at least 64 bits")
        re, im = self.re, self.im
        if isinstance(re, (complex, mpc)):
            if im != 0:
                raise ValueError("cannot combine complex re with nonzero im")
            re, im = re.real, re.imag
        with mp.workprec(self.bits):
            object.__setattr__(self, "re", +_to_mpf_exact(re))
            object.__setattr__(self, "im", +_to_mpf_exact(im))

    @classmethod
    def from_mpc(cls, z, bits: int) -> "BigComplex":
        return cls(z, bits=bits)

    def to_mpc(self) -> mpc:
        # raw construction: mpc(re, im) would round to the ambient context
        return mp.make_mpc((self.re._mpf_, self.im._mpf_))

    def to_json(self) -> dict:
        dps = decimal_digits(self.bits)
        return {
            "re": mp.nstr(self.re, dps, strip_zeros=True),
            "im": mp.nstr(self.im, dps, strip_zeros=True),
            "bits": self.bits,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BigComplex":
        bits = int(obj.get("bits", DEFAULT_BITS))
        if bits < 64:
            raise ValueError("precision must be at least 64 bits")
        with mp.workprec(bits):
            re, im = mpf(str(obj["re"])), mpf(str(obj.get("im", "0")))
        if not (mp.isfinite(re) and mp.isfinite(im)):
            raise ValueError(f"non-finite value re={obj['re']!r} im={obj.get('im', '0')!r}")
        return cls(re, im, bits)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"BigComplex({mp.nstr(self.re, 12)}, {mp.nstr(self.im, 12)}, bits={self.bits})"


def _tag_bits(prec: Precision, values) -> int:
    """The bits a result carries: prec.bits, or fewer if a record among `values` has fewer."""
    return min([prec.bits] + [v.bits for v in values if isinstance(v, BigComplex)])


def decimal_digits(bits: int) -> int:
    """Decimal digits that faithfully represent a mantissa of `bits` bits."""
    return int(math.ceil(bits * 0.30103)) + 3


def factorial(n: int) -> int:
    """Exact n! for n >= 0."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return math.factorial(n)


def inv_factorial(n: int) -> Fraction:
    """1/n! extended by 0 for negative n (the standard determinant convention)."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def vandermonde(values):
    """Product over i < j of (values[i] - values[j]); empty/singleton lists give 1.

    Computed in the values' own arithmetic: exact for int and Fraction, and at
    the ambient mpmath precision for mpc.
    """
    return math.prod(a - b for a, b in itertools.combinations(values, 2))


def _near_coincident_pairs(values, bits: int):
    """Index pairs i < j with |a - b| < 2^-(bits//2) max(|a|, |b|, 1), lazily.

    Evaluated at the ambient mpmath precision.
    """
    threshold = mpf(2) ** (-(bits // 2))
    for (i, a), (j, b) in itertools.combinations(enumerate(values), 2):
        if abs(a - b) < threshold * max(abs(a), abs(b), mpf(1)):
            yield i, j


# -- power series kernels ----------------------------------------------------


def _fixed_terms(zr: int, zi: int, nu: int, fbits: int):
    """Endless terms t_0 = 1, t_k = t_{k-1} z / (k (k+nu)) as fixed-point complex integers.

    z = (zr + i zi) 2^-fbits and each term (re, im) stands for (re + i im)
    2^-fbits.  Each step is one integer complex multiply, a floor shift and a
    floor division by k (k+nu): an error in (-(1 + 1/d), 0] per part, so
    below 2 sqrt(2) < 3 units in modulus.
    """
    tr, ti = 1 << fbits, 0
    k = 0
    while True:
        yield tr, ti
        k += 1
        d = k * (k + nu)
        tr, ti = ((tr * zr - ti * zi) >> fbits) // d, ((tr * zi + ti * zr) >> fbits) // d


def bessel_ratio_raw(nu: int, w, prec: Precision):
    """Sum over k of w^k / (k! (k+nu)!) as an mpc, with the term count used.

    Sums T_k = nu! w^k / (k! (k+nu)!) as fixed-point complex integers
    (_fixed_terms) at the scale 2^-F, F = work_bits + g with
    g = bit_length(cap) + 14, and divides by nu! once at the end, so a high
    order costs no relative accuracy.  w is rounded to work_bits and then
    truncated to the scale (exact unless a part is below 2^-(g+1)).

    Stopping rule: after two consecutive terms with
    |t_k| < 2^-work_bits max(1, max_j<=k |partial sum_j|), compared exactly
    as squared norms of the integers; TruncationCapExceeded when the rule is
    not met within the cap.  For |w| >= cap (cap+nu) every term t_1..t_cap
    is at least the one before it, so the rule can only be met at the
    second term, by two terms below 2^-work_bits; past it the sum raises at
    once instead of growing its integers to the cap.

    Error budget, in units of 2^-F: since the ratios |w| / (k (k+nu))
    decrease in k, |T_k / T_j| <= |T_(k-j)|, so the step errors carried into
    T_k add up to at most 3 sum_(m<=k) |T_m| <= 3 A, where
    A = sum_k |T_k| = nu! R(nu, |w|) >= 1; the truncation of w adds at
    most 2 A.  A sum of n <= cap terms is therefore within (3 n + 2) A
    < 2^(g-12) A units, that is 2^-(work_bits+12) A, before it is rounded
    to work_bits and divided by nu!.  A bounds the largest term, which for
    |w| near cap^2 is about 2^1450 at the default cap; the relative error
    of the result is this bound times A / |sum|, the cancellation factor,
    which a floating-point sum of the same terms pays as well.
    """
    if nu < 0:
        raise ValueError("order must be non-negative")
    cap = prec.truncation_cap
    fbits = prec.work_bits + cap.bit_length() + 14
    with mp.workprec(prec.work_bits):
        w = mpc(w)
        limit = cap if abs(w) < cap * (cap + nu) else 2
        zr, zi = (to_fixed(part, fbits) for part in w._mpc_)
        shift = 2 * prec.work_bits
        nu_fact = math.factorial(nu)
        peak = (nu_fact << fbits) ** 2  # max(1, max |partial sum|)^2, in squared units
        sr = si = 0
        small_run = 0
        for k, (tr, ti) in enumerate(itertools.islice(_fixed_terms(zr, zi, nu, fbits), limit)):
            sr += tr
            si += ti
            peak = max(peak, sr * sr + si * si)
            if (tr * tr + ti * ti) << shift < peak:
                small_run += 1
                if small_run >= 2:
                    return from_fixed(sr, si, fbits) / nu_fact, k + 1
            else:
                small_run = 0
    raise TruncationCapExceeded(f"series did not converge within {cap} terms")


def fixed_series_terms(z: mpc, nu: int, n: int, fbits: int):
    """Terms t_0..t_n of sum_k nu! z^k / (k! (k+nu)!) as fixed-point complex integers.

    A term (re, im) stands for (re + i im) 2^-fbits (_fixed_terms).  z is
    truncated to the scale with to_fixed, an error below one unit, 2^-fbits,
    per part.

    Error budget for |z| <= 4 (with |z|/(k (k+nu)) <= 1 for k >= 2): every
    term is off by at most 6 units from the step errors and 3 from the
    truncation of z, so at most 9; larger |z| scales this by the largest
    term, as it does a floating-point sum.  The terms stop before t_n once
    one is at most a unit in both parts: a term that small forces every
    later ratio |z| / (k (k+nu)) below 1/2, so the dropped tail is at most
    that term, about 10 units.

    Returns (re list, im list), of equal length; both are empty for n < 0.
    """
    re, im = [], []
    zr, zi = (to_fixed(part, fbits) for part in z._mpc_)
    for tr, ti in itertools.islice(_fixed_terms(zr, zi, nu, fbits), max(n + 1, 0)):
        re.append(tr)
        im.append(ti)
        if -1 <= tr <= 1 and -1 <= ti <= 1:
            break
    return re, im


def from_fixed(re: int, im: int, fbits: int) -> mpc:
    """The fixed-point complex (re + i im) 2^-fbits, rounded to the ambient precision."""
    return mp.make_mpc(
        (from_man_exp(re, -fbits, mp.prec, round_nearest), from_man_exp(im, -fbits, mp.prec, round_nearest))
    )


def bessel_ratio(nu: int, w, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """The even Bessel kernel: sum_k w^k / (k! (k+nu)!).

    At w = x^2 this equals x^-nu I_nu(2 x); the series is a function of w only,
    so no square roots (and no branch choices) ever enter.
    """
    with mp.workprec(prec.work_bits):
        total, _ = bessel_ratio_raw(nu, to_mpc_any(w), prec)
    return BigComplex.from_mpc(total, _tag_bits(prec, [w]))


def scaled_bessel_entry_raw(nu: int, beta, lambda_sq, prec: Precision):
    """lambda^nu I_nu(2 beta lambda) through lambda^2 only; nu may be negative.

    For nu >= 0 this is beta^nu (lambda^2)^nu R(nu, beta^2 lambda^2); negative
    orders use I_{-nu} = I_nu, which cancels the lambda power exactly:
    lambda^-s I_s(2 beta lambda) = beta^s R(s, beta^2 lambda^2).
    Returns (value, series terms used).
    """
    with mp.workprec(prec.work_bits):
        beta = mpc(beta)
        lam2 = mpc(lambda_sq)
        if nu >= 0:
            if nu == 0:
                return bessel_ratio_raw(0, beta * beta * lam2, prec)
            core, terms = bessel_ratio_raw(nu, beta * beta * lam2, prec)
            return (beta ** nu) * (lam2 ** nu) * core, terms
        s = -nu
        core, terms = bessel_ratio_raw(s, beta * beta * lam2, prec)
        return (beta ** s) * core, terms


def scaled_bessel_entry(
    nu: int, beta, lambda_sq, prec: Precision = DEFAULT_PRECISION
) -> BigComplex:
    """Determinant entry lambda^nu I_nu(2 beta lambda), evaluated via lambda^2."""
    if nu < 0:
        raise ValueError("order must be non-negative")
    with mp.workprec(prec.work_bits):
        value, _ = scaled_bessel_entry_raw(nu, to_mpc_any(beta), to_mpc_any(lambda_sq), prec)
    return BigComplex.from_mpc(value, _tag_bits(prec, [beta, lambda_sq]))


# -- determinants ------------------------------------------------------------


def _eliminate(a):
    """Determinant of the square matrix `a` (overwritten) in its entries' own arithmetic.

    Partial pivoting on the largest |entry| of each column; for exact entries
    the pivot order does not change the result.
    """
    n = len(a)
    det = 1
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[pivot][c] == 0:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f == 0:
                continue
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


def det_mpc(rows, prec: Precision):
    """Partial-pivoted elimination determinant of a square mpc matrix."""
    with mp.workprec(prec.work_bits):
        return mpc(_eliminate([[mpc(x) for x in row] for row in rows]))


def exact_determinant(rows):
    """Fraction-arithmetic Gaussian elimination determinant (exact)."""
    return Fraction(_eliminate([[Fraction(x) for x in row] for row in rows]))


def determinant(matrix, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Determinant of a square matrix of records or plain numbers, through det_mpc.

    The result is tagged with the minimum of prec.bits and the entries' precisions.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    with mp.workprec(prec.work_bits):
        rows = [[to_mpc_any(x) for x in row] for row in matrix]
    return BigComplex.from_mpc(det_mpc(rows, prec), _tag_bits(prec, itertools.chain(*matrix)))
