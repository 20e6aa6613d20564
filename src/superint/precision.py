"""Working precision, the JSON boundary record and the numeric kernels every other module uses.

All multiprecision arithmetic runs on mpmath values at an explicit working
precision, on fixed-point Python integers at an explicit scale, or on integer
(mantissa, exponent) pairs rounded as mpmath rounds them, so results are
deterministic and independent of any global context the caller may have set.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
import operator
import re
from functools import lru_cache, reduce

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fone,
    ften,
    fzero,
    from_int,
    from_man_exp,
    from_rational,
    mpc_abs,
    mpc_mpf_div,
    mpc_pos,
    mpf_lt,
    mpf_mul,
    mpf_pow_int,
    round_ceiling,
    round_nearest,
    to_fixed,
)

from .errors import TruncationCapExceeded

DEFAULT_BITS = 256
# the most bits a Precision or a record may ask for, a bound on input and not a
# setting: past it one field of an input document could keep a process busy
# for minutes (a 3e6-bit record takes seconds to parse, an evaluation far longer)
MAX_BITS = 65536
DEFAULT_GUARD_BITS = 32
DEFAULT_TRUNCATION_CAP = 512
# seed of the verification suites' draws; here, beside the other defaults, so
# the CLI reads it without importing the suites
DEFAULT_SEED = 42


def json_int(value, name: str) -> int:
    """An integer field of an input document.

    A boolean, a value int() refuses (null, a list, an object, NaN, an
    infinity) or one int() would change raises ValueError naming the field.
    """
    if type(value) is int:
        return value
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if isinstance(value, bool) or out is None or out != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def _check_bits(bits) -> int:
    """`bits` as an int (json_int) if it lies in 64..MAX_BITS, else ValueError."""
    bits = json_int(bits, "bits")
    if bits < 64:
        raise ValueError("precision must be at least 64 bits")
    if bits > MAX_BITS:
        raise ValueError(f"precision must be at most {MAX_BITS} bits")
    return bits


class Slotted:
    """Base of every value class in the package, in place of dataclasses.

    A subclass names its fields in __slots__; the constructor here sets them
    in that order, and a subclass that checks its arguments calls it after
    its checks.  Instances are immutable, compare and hash by _key (every
    field unless the subclass sets its own), print as Name(field=value, ...)
    and pickle and copy by calling the constructor with every field: a
    raising __setattr__ would break the restore of slot state.  _fields and
    _key take the instance as their argument and are operator.attrgetter
    objects where they can be, which read the fields in C: a Precision is
    hashed at every memo lookup of a kernel.  Hand-written, not dataclasses:
    an ls-eval or bk-eval process would import dataclasses for these classes
    alone, and inspect, ast and dis with it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, not a 1-tuple; a
        # staticmethod, so the function is not bound when read from an instance
        fields = get if len(cls.__slots__) > 1 else staticmethod(lambda self: (get(self),))
        cls._fields = fields
        if "_key" not in vars(cls):
            cls._key = fields

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class Precision(Slotted):
    """Working precision: mantissa bits, guard bits for stopping rules, series cap.

    Without a cap, the cap is max(DEFAULT_TRUNCATION_CAP, work_bits // 8): a
    kernel sum at |w| <= 100 needs fewer terms at every accepted precision
    (1435 of 2052 at 16384 bits, 4457 of 8196 at 65536), and every precision
    up to 4071 bits keeps the cap of 512.
    """

    __slots__ = ("bits", "guard_bits", "truncation_cap")

    def __init__(self, bits: int = DEFAULT_BITS, guard_bits: int = DEFAULT_GUARD_BITS, truncation_cap: int | None = None):
        bits, guard_bits = _check_bits(bits), json_int(guard_bits, "guard_bits")
        if guard_bits < 0:
            raise ValueError("guard_bits must be non-negative")
        if truncation_cap is None:
            truncation_cap = max(DEFAULT_TRUNCATION_CAP, (bits + guard_bits) // 8)
        truncation_cap = json_int(truncation_cap, "truncation_cap")
        if truncation_cap < 8:
            raise ValueError("truncation_cap must be at least 8")
        super().__init__(bits, guard_bits, truncation_cap)

    @property
    def work_bits(self) -> int:
        return self.bits + self.guard_bits


DEFAULT_PRECISION = Precision()


def to_mpf(x) -> mpf:
    """A real number (or decimal string) rounded once to the ambient precision, to nearest.

    A Fraction goes through libmp's from_rational, one correctly rounded
    division of its exact numerator by its exact denominator.
    """
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return mpf(x)


def to_mpc_any(x) -> mpc:
    """Convert any supported scalar to mpc at the ambient working precision; refuse NaN and infinities."""
    if isinstance(x, Fraction):
        return mpc(to_mpf(x))
    z = x.to_mpc() if hasattr(x, "to_mpc") else mpc(x)
    if not mp.isfinite(z):
        raise ValueError(f"non-finite value {x!r}")
    return z


class BigComplex(Slotted):
    """A complex value tagged with its mantissa bits: the record of the JSON/API boundary.

    The library computes on mpc at an explicit Precision; a record only
    carries a value in (the constructor, from_mpc, from_json) and out
    (to_mpc, to_json).  Two records are equal when their values are; bits is
    not compared.
    """

    __slots__ = ("re", "im", "bits")
    _key = operator.attrgetter("re", "im")

    def __init__(self, re=0, im=0, bits: int = DEFAULT_BITS):
        """Round an int, float, complex, Fraction or mpc to `bits` bits; refuse NaN and infinities."""
        bits = _check_bits(bits)
        if isinstance(re, (complex, mpc)):
            if im != 0:
                raise ValueError("cannot combine complex re with nonzero im")
            re, im = re.real, re.imag
        with mp.workprec(bits):
            x, y = to_mpf(re), to_mpf(im)
        if not (mp.isfinite(x) and mp.isfinite(y)):
            raise ValueError(f"non-finite value re={re!r} im={im!r}")
        super().__init__(x, y, bits)

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
        if not isinstance(obj, dict):
            raise ValueError(f"a scalar must be an object with re and im, got {obj!r}")
        # checked before the digits are parsed, which takes time growing with bits
        bits = _check_bits(obj.get("bits", DEFAULT_BITS))
        return cls(read_decimal(str(obj["re"]), bits), read_decimal(str(obj.get("im", "0")), bits), bits)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"BigComplex({mp.nstr(self.re, 12)}, {mp.nstr(self.im, 12)}, bits={self.bits})"


# the longest number string a record reads: a MAX_BITS record writes about
# 26,400 characters at most (fixed notation puts up to a third of its 19,732
# digits again as leading zeros), and 40000 characters read in milliseconds
MAX_NUMBER_CHARS = 40000
# a decimal literal, as mpmath's from_str splits it: sign, digits, fraction, exponent
_DECIMAL = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:e([+-]?\d+))?")


def _digits_to_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length: int() on pieces of at most 512.

    int() refuses a string of more than sys.get_int_max_str_digits() digits
    (4300 by default, never below 640).
    """
    if len(digits) <= 512:
        return int(digits or "0")
    half = len(digits) // 2
    return _digits_to_int(digits[:half]) * 10 ** (len(digits) - half) + _digits_to_int(digits[half:])


def read_decimal(text: str, bits: int) -> mpf:
    """A number string rounded to `bits` bits as mpf(text) at that precision rounds it.

    A string longer than MAX_NUMBER_CHARS is refused (ValueError) before it
    is read.  A decimal literal is split as mpmath's from_str splits it and
    rounded as from_str rounds it, but its digits are read by
    _digits_to_int, so a record of any accepted precision reads back what it
    wrote: from 14,275 bits on it writes more digits than int() takes.
    Any other string (inf, nan, p/q), and a literal with no digits but
    zeros after its point (".0", "+.0e5"), goes to mpf, which refuses the
    latter.
    """
    if len(text) > MAX_NUMBER_CHARS:
        raise ValueError(f"a number string may have at most {MAX_NUMBER_CHARS} characters, got {len(text)}")
    match = _DECIMAL.fullmatch(text.strip().lower())
    sign, whole, fraction, exp = match.groups("") if match else ("",) * 4
    fraction = fraction.rstrip("0")
    if not whole + fraction:  # not a decimal literal, or one with no digits left (".0"), which from_str refuses
        with mp.workprec(bits):
            return mpf(text)
    man = _digits_to_int(whole + fraction) * (-1 if sign == "-" else 1)
    exp = int(exp or 0) - len(fraction)
    if abs(exp) > 400:  # from_str's cutoff: a power of ten rounded at 10 bits more, not an exact one
        value = mpf_mul(from_int(man, bits + 10), mpf_pow_int(ften, exp, bits + 10), bits, round_nearest)
    elif exp >= 0:
        value = from_int(man * 10**exp, bits, round_nearest)
    else:
        value = from_rational(man, 10**-exp, bits, round_nearest)
    return mp.make_mpf(value)


def as_record(v, bits: int) -> BigComplex:
    """A record as it is; any other number rounded to a `bits`-bit record."""
    return v if isinstance(v, BigComplex) else BigComplex(v, bits=bits)


def _tag_bits(prec: Precision, values) -> int:
    """The bits a result carries: prec.bits, or fewer if a record among `values` has fewer."""
    return min([prec.bits] + [v.bits for v in values if isinstance(v, BigComplex)])


def decimal_digits(bits: int) -> int:
    """Decimal digits that faithfully represent a mantissa of `bits` bits."""
    return int(math.ceil(bits * 0.30103)) + 3


factorial = math.factorial  # exact n!; ValueError for n < 0


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


# -- power series kernels ----------------------------------------------------


def _significant(zr: int, zi: int, fbits: int):
    """w = (zr + i zi) 2^-fbits as (zr, zi, step): its parts stripped of their common trailing zeros.

    w = (zr + i zi) 2^-step with step <= fbits, and (X 2^(fbits-step)) >> fbits
    = X >> step exactly, so a multiply by w takes its significant bits only:
    in _fixed_terms' steps and in newton_sums' Horner steps.
    """
    low = zr | zi
    tz = min((low & -low).bit_length() - 1, fbits) if low else 0
    return zr >> tz, zi >> tz, fbits - tz


def _fixed_terms(z, nu: int, fbits: int):
    """Endless terms t_0 = 1, t_k = t_{k-1} w / (k (k+nu)) as fixed-point complex integers.

    z = (zr, zi, step) is w = (zr + i zi) 2^-step (_significant) and each
    term (re, im) stands for (re + i im) 2^-fbits.  Each step is one exact
    integer complex multiply (of three products, or of four where w is real
    or imaginary and two of them vanish), a floor shift by step and a floor
    division by k (k+nu): an error in (-(1 + 1/d), 0] per part, so below
    2 sqrt(2) < 3 units in modulus.
    """
    zr, zi, step = z
    zs = zr + zi
    three = zr and zi  # on a real or imaginary axis the four products are two
    tr, ti = 1 << fbits, 0
    k = 0
    while True:
        yield tr, ti
        k += 1
        d = k * (k + nu)
        if three:
            a, b = tr * zr, ti * zi
            tr, ti = ((a - b) >> step) // d, (((tr + ti) * zs - a - b) >> step) // d
        else:
            tr, ti = ((tr * zr - ti * zi) >> step) // d, ((tr * zi + ti * zr) >> step) // d


def bessel_ratio_raw(nu: int, w, prec: Precision, top: int | None = None):
    """Sum over k of w^k / (k! (k+nu)!) as an mpc, with the term count used.

    Sums T_k = nu! w^k / (k! (k+nu)!) as fixed-point complex integers at the
    scale 2^-F, F = work_bits + g with g = bit_length(cap) + 14, and divides
    by nu! once at the end, so a high order costs no relative accuracy.  w,
    an mpc or any scalar to_mpc_any takes, is rounded to work_bits (a
    non-finite w raises ValueError) and then truncated to the scale (exact
    unless a part is below 2^-(g+1)).  Each term is the one before times w,
    an exact integer complex multiply (of three products, or of four where w
    is real or imaginary and two of them vanish), then a floor shift and a
    floor division by k (k+nu): an error in (-(1 + 1/d), 0] per part, so below
    2 sqrt(2) < 3 units in modulus (_fixed_terms).  The multiply takes w's
    significant bits only: its fixed-point parts stripped of their common
    trailing zeros, tz of them (at most F), and the shift is F - tz, since
    (X 2^tz) >> F = X >> (F - tz) exactly (_significant).  The terms are
    the same integers as with the full parts and four products, so the
    budget below is unchanged; a w from doubles pays full-by-short products
    instead of full-by-full ones.

    Stopping rule: after two consecutive terms with
    |t_k| < 2^-work_bits max(1, max_j<=k |partial sum_j|), decided exactly on
    the integers, by their bit lengths where those settle it and else by
    their squared norms; TruncationCapExceeded when the rule is not met
    within the cap.  For |w| >= cap (cap+nu) every term t_1..t_cap is at
    least the one before it, so the rule can only be met at the second term,
    by two terms below 2^-work_bits; past it the sum raises at once instead
    of growing its integers to the cap.

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

    Passes: every call reads order nu of one pass over the orders lo..top at
    this w (_bessel_orders).  Given `top` >= nu, lo = 0; without it, order
    nu is the pass with lo = top = nu.  Each order of a pass is summed once,
    under its own stopping rule and cap test, from one shared stream of
    terms.  Order lo runs on the recurrence above; order s > lo takes
    floor(s / (k+s) times order s-1's term) per part, as
    T_k(s) = T_k(s-1) s / (k+s), drawing as many terms as it needs,
    however few the order below used.  Each floor adds below
    sqrt(2) units, and the factors s / (k+s) <= 1 do not grow the errors
    beneath, so order nu's sum of n terms is within
    (3 n + 2 + sqrt(2) (nu-lo) n) A units.  The scale is widened by
    bit_length(top - lo) bits, so the bound 2^-(work_bits+12) A holds for
    every order; a single order keeps the unwidened scale.  The last pass is
    kept, in _bessel_orders' lru_cache of one entry: the calls for orders
    lo..top at one w and precision sum once.
    """
    if nu < 0:
        raise ValueError("order must be non-negative")
    lo, top = (nu, nu) if top is None else (0, top)
    if nu > top:
        raise ValueError("order above top")
    wp = prec.work_bits
    if not isinstance(w, mpc):
        with mp.workprec(wp):
            w = to_mpc_any(w)
    w = mpc_pos(w._mpc_, wp, round_nearest)  # w rounded to work_bits, as mpc(w) there rounds it
    (_, rm, re, _), (_, im, ie, _) = w
    if not rm and re or not im and ie:  # a zero mantissa with an exponent: ±inf or nan
        raise ValueError(f"non-finite argument {mp.make_mpc(w)}")
    found = _bessel_orders(w, lo, top, prec)[nu - lo]
    if found is None:
        raise TruncationCapExceeded(f"series did not converge within {prec.truncation_cap} terms")
    return found


def _below_edge(w, zr: int, zi: int, fbits: int, edge: int, wp: int) -> bool:
    """|w| < edge, with |w| rounded to wp bits; (zr, zi) is the finite w truncated to 2^-fbits.

    Each part of w is below 2^(L-fbits), L the larger bit length of zr and
    zi, so |w| < 2^(L+1/2-fbits) and, rounded, below 2^(L+1-fbits): when
    that is at most 2^(bit_length(edge)-1) <= edge, no square root is taken.
    """
    if max(zr.bit_length(), zi.bit_length()) + 2 <= fbits + edge.bit_length():
        return True
    return mpf_lt(mpc_abs(w, wp, round_nearest), from_int(edge))


# the last pass only, a pure function of its arguments: the N calls of one
# cluster's N kernel columns read one pass
@lru_cache(maxsize=1)
def _bessel_orders(w, lo: int, top: int, prec: Precision):
    """Orders lo..top of bessel_ratio_raw at w (an mpc tuple at work_bits) in one pass.

    _sum_order sums each order alone, once: order lo on _fixed_terms, every
    order s above on order s-1's terms, floor(t s / (k+s)) per part.  The
    orders share one stream (itertools.tee): an order that runs past where
    the order below stopped, as at the cap edge where the order below is
    capped at 2 terms and it is not, draws the further terms on demand.
    Returns, per order, (value, terms), or None where the order did not stop
    within its cap.
    """
    cap = prec.truncation_cap
    wp = prec.work_bits
    fbits = wp + cap.bit_length() + 14 + (top - lo).bit_length()
    zr, zi = to_fixed(w[0], fbits), to_fixed(w[1], fbits)
    terms = _fixed_terms(_significant(zr, zi, fbits), lo, fbits)
    out = []
    for nu in range(lo, top + 1):
        limit = cap if _below_edge(w, zr, zi, fbits, cap * (cap + nu), wp) else 2
        if nu < top:
            terms, mine = itertools.tee(terms)
            out.append(_sum_order(nu, mine, fbits, wp, limit))
            terms = _next_order(terms, nu + 1)
        else:
            out.append(_sum_order(nu, terms, fbits, wp, limit))
    return out


def _next_order(terms, s: int):
    """Order s's terms from order s-1's: floor(t s / (k+s)) per part, as T_k(s) = T_k(s-1) s / (k+s)."""
    for k, (tr, ti) in enumerate(terms):
        yield tr * s // (k + s), ti * s // (k + s)


def _sum_order(nu: int, terms, fbits: int, wp: int, limit: int):
    """Order nu's sum of `terms` under the stopping rule: (value, terms used), or None.

    None when the rule is not met within `limit` terms.
    """
    shift = 2 * wp
    nu_fact = math.factorial(nu)
    peak = (nu_fact << fbits) ** 2  # max(1, max |partial sum|)^2, in squared units
    peak_bits = peak.bit_length()
    sr = si = 0
    small_run = 0
    for k, (tr, ti) in enumerate(itertools.islice(terms, limit)):
        sr += tr
        si += ti
        # |s|^2 < 2^(2L+1) and peak >= 2^(peak_bits-1): square only when it may raise the peak
        if 2 * (abs(sr) | abs(si)).bit_length() + 2 > peak_bits:
            s2 = sr * sr + si * si
            if s2 > peak:
                peak, peak_bits = s2, s2.bit_length()
        # |t|^2 << shift lies in [2^(e-2), 2^(e+1)): square only when that range straddles the peak
        e = 2 * (abs(tr) | abs(ti)).bit_length() + shift
        if e + 2 <= peak_bits or (e - 2 < peak_bits and (tr * tr + ti * ti) << shift < peak):
            small_run += 1
            if small_run >= 2:
                with mp.workprec(wp):
                    return from_fixed(sr, si, fbits) / nu_fact, k + 1
        else:
            small_run = 0
    return None


def fixed_series_terms(z: mpc, nu: int, n: int, fbits: int):
    """Terms t_0..t_n of sum_k nu! z^k / (k! (k+nu)!) as fixed-point complex integers.

    A term (re, im) stands for (re + i im) 2^-fbits.  z is truncated to the
    scale with to_fixed, an error below one unit, 2^-fbits, per part.  The
    terms come from the kernel's recurrence, _fixed_terms, on z's
    significant bits: the same integers as four products by the full parts.

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
    for tr, ti in itertools.islice(_fixed_terms(_significant(zr, zi, fbits), nu, fbits), max(n + 1, 0)):
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
    total, _ = bessel_ratio_raw(nu, w, prec)
    return BigComplex.from_mpc(total, _tag_bits(prec, [w]))


def scaled_bessel_entry_raw(nu: int, beta, lambda_sq, prec: Precision):
    """lambda^nu I_nu(2 beta lambda) through lambda^2 only, for nu >= 0.

    This is beta^nu (lambda^2)^nu R(nu, beta^2 lambda^2).  Returns (value,
    series terms used).
    """
    with mp.workprec(prec.work_bits):
        beta, lam2 = to_mpc_any(beta), to_mpc_any(lambda_sq)
        core, terms = bessel_ratio_raw(nu, beta * beta * lam2, prec)
        return (beta ** nu) * (lam2 ** nu) * core, terms


def scaled_bessel_entry(
    nu: int, beta, lambda_sq, prec: Precision = DEFAULT_PRECISION
) -> BigComplex:
    """Determinant entry lambda^nu I_nu(2 beta lambda), evaluated via lambda^2."""
    value, _ = scaled_bessel_entry_raw(nu, beta, lambda_sq, prec)
    return BigComplex.from_mpc(value, _tag_bits(prec, [beta, lambda_sq]))


# -- divided differences -----------------------------------------------------


def _log2_abs(z) -> float:
    """log2 |z| of an mpc, to about 53 bits; -inf at 0."""
    _, man, exp, _ = mpc_abs(z._mpc_, 53)
    return math.log2(man) + exp if man else -math.inf


def complete_homogeneous(values, degree, one=1, mul=operator.mul, add=operator.add):
    """Prefix table table[j][d] = h_d(values[0..j]), d <= degree, in the arithmetic given.

    h_d(x_1..x_j) = h_d(x_1..x_(j-1)) + x_j h_(d-1)(x_1..x_j) divides by nothing, and
    sum_q c_q h_(q-j+1)(x_1..x_j) is the divided difference of sum_q c_q x^q over x_1..x_j.
    """
    table = []
    for x in values:
        row = [one]
        for d in range(1, degree + 1):
            row.append(add(table[-1][d], mul(x, row[-1])) if table else mul(x, row[-1]))
        table.append(row)
    return table


@lru_cache(maxsize=1024)
def _newton_count(log_z: float, P: int, O: int, fbits: int, cap: int) -> int:
    """Terms of a newton_sums sum: the first n with b_(n-1) below 2^-fbits and b_(i+1) <= b_i / 2 after.

    b_i = |z|^i (O+i+1)^P / (i!)^2 bounds term i, so the dropped tail is below
    b_(n-1): log2 b_0 = P log2(O+1), and each step adds
    log2 |z| - 2 log2 n + P log2((O+n+1) / (O+n)).  TruncationCapExceeded
    when n would pass the cap.
    """
    log_bound = P * math.log2(O + 1)
    for n in range(1, cap + 1):
        step = log_z - 2 * math.log2(n) + P * math.log2((O + n + 1) / (O + n))
        if step <= -1 and log_bound < -fbits:
            return n
        log_bound += step
    raise TruncationCapExceeded(f"series did not converge within {cap} terms")


def newton_sums(sides, sums, prec: Precision):
    """Divided-difference sums over clusters of mpc values: (list of mpc, largest term count).

    Each entry (parts, a, b) of `sums` names one or two parts (side, j, o) and
    asks for

        S = sum_i w_i prod_parts h_(o+i)(first j values of the part's side),
        w_i = prod_(l <= i) 1 / ((a + l) (b + l)).

    A part with j = 1 is the power u_1^(o+i).  For j > 1 the side is divided
    by s, its largest |u| rounded up to 8 bits, so |h_d(v_1..v_j)| <=
    B = binom(d+j-1, j-1), and its complete_homogeneous table is built once,
    on fixed-point complex pairs at the scale 2^-F, F = work_bits + g,
    g = bit_length(cap) + 14.  Then S = prod c^o sum_(i<n) z^i w_i T_i, with
    c = s or u_1, z the product of the parts' c and T_i that of their table
    entries, summed by Horner's rule; n = _newton_count(log2 |z|, sum (j - 1),
    largest o) leaves a tail below one unit.

    One plan per key, the parts' sides and which of them are tabled, serves
    every sum of that key: z rounded at F bits, log2 |z| and z's fixed-point
    parts stripped of their common trailing zeros (_significant), tz of
    them.  A Horner step multiplies by those short parts and shifts by
    F - tz: (X 2^tz) >> F = X >> (F - tz) exactly, so the integers are
    those of the full parts.

    Error budget, in units of 2^-F, with B = 1 for a power: the table's floors
    leave h_d within sqrt(2) (d+1) B of the polynomial of V, and dividing and
    truncating V moves it by at most 2 sqrt(2) d B more; a product of two
    tables floors once and a Horner step twice; truncating z moves term i by
    sqrt(2) i |z|^(i-1) w_i prod B <= sqrt(2) (P+1)^2 |z^(i-1) w_(i-1)| prod B,
    the B of degree i - 1, P = sum (j - 1).  So S is within
    (9 (D+2) + 2 (P+1)^2) A units, D the largest degree read and
    A = sum_i |z^i w_i| prod B >= 1, which is below 2^-work_bits A while D and P
    are below 2^(g/2 - 2).  The relative error of S is that times A / |S|, the
    cancellation factor, which a floating-point sum of the same terms pays too.
    """
    cap = prec.truncation_cap
    fbits = prec.work_bits + cap.bit_length() + 14
    tabled = {side for parts, _, _ in sums for side, j, _ in parts if j > 1}
    scales = {side: max(mp.make_mpf(mpc_abs(u._mpc_, 8, round_ceiling)) for u in sides[side]) or mpf(1)
              for side in tabled}
    plans, keyed = [], {}
    for parts, _, _ in sums:
        key = tuple((side, j > 1) for side, j, _ in parts)
        if key not in keyed:
            with mp.workprec(fbits):
                z = math.prod((scales[s] if table else sides[s][0] for s, table in key), start=mpc(1))
            keyed[key] = _log2_abs(z), _significant(*(to_fixed(part, fbits) for part in z._mpc_), fbits)
        log_z, z = keyed[key]
        P, O = sum(j - 1 for _, j, _ in parts), max(o for _, _, o in parts)
        plans.append((_newton_count(log_z, P, O, fbits, cap), z))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1]) >> fbits, (x[0] * y[1] + x[1] * y[0]) >> fbits

    top = max((n + max(o for _, _, o in parts) for (parts, _, _), (n, _) in zip(sums, plans)), default=0)
    tables = {}
    for side, s in scales.items():
        with mp.workprec(fbits):
            fixed = [tuple(to_fixed(part, fbits) for part in (u / s)._mpc_) for u in sides[side]]
        tables[side] = complete_homogeneous(
            fixed, top, (1 << fbits, 0), mul, lambda x, y: (x[0] + y[0], x[1] + y[1]))
    out = []
    for (parts, a, b), (n, (zr, zi, step)) in zip(sums, plans):
        rows = [tables[side][j - 1][o : o + n] for side, j, o in parts if j > 1]
        terms = [reduce(mul, t) for t in zip(*rows)] if rows else [(1 << fbits, 0)] * n
        sr, si = terms[-1]
        for i in range(n - 1, 0, -1):
            d, (tr, ti) = (a + i) * (b + i), terms[i - 1]
            sr, si = tr + ((sr * zr - si * zi) >> step) // d, ti + ((sr * zi + si * zr) >> step) // d
        pref = math.prod(scales[side] ** o if j > 1 else sides[side][0] ** o for side, j, o in parts)
        out.append(from_fixed(sr, si, fbits) * pref)
    return out, max((n for n, _ in plans), default=0)


# -- determinants ------------------------------------------------------------


# det_mpc's entries are (re, re_exp, im, im_exp): each part m·2^e with m odd or
# 0 (exponent 0), the signed form of libmp's normalized (sign, man, exp, bc)
_PAIR_ZERO = (0, 0, 0, 0)
_PAIR_ONE = (1, 0, 0, 0)


def _add(am, ae, bm, be, wp):
    """am·2^ae + bm·2^be rounded at wp bits, to nearest, as mpf_add rounds it except at its exact ties.

    am and bm are odd or 0.  The sum is exact unless the terms' exponents lie
    more than 100 bits apart and their top bits more than wp + 4; then the
    smaller term is dropped and the larger one rounded alone.  mpf_add there
    rounds the larger term perturbed by the smaller one's sign, which gives
    the same value except where the larger term is an exact tie at wp bits:
    that tie goes to even here, toward the smaller term's sign in mpf_add.
    Either sum is rounded to nearest at wp bits, ties to even, and stripped
    of trailing zeros, as libmp's normalize rounds it.
    """
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    if not am:
        am, ae = bm, be
    elif bm:
        off = ae - be
        if off <= 100 or am.bit_length() - bm.bit_length() + off <= wp + 4:
            am, ae = (am << off) + bm, be
    if not am:
        return 0, 0
    # on a signed am the floor shifts see the same half bit, sticky bits and
    # kept-bit parity as on |am|, so this rounds |am| as normalize does
    n = am.bit_length() - wp
    if n > 0:
        t = am >> n - 1
        # t's low bit is the first bit dropped; the bits below it are sticky
        am = (t >> 1) + 1 if t & 1 and (t & 2 or (am & -am).bit_length() < n) else t >> 1
        ae += n
    if not am & 1:
        z = (am & -am).bit_length() - 1
        am >>= z
        ae += z
    return am, ae


def _mul_pairs(wp, z, w):
    """z·w as mpc_mul rounds it at wp bits: each part's two exact products summed by _add."""
    zr, zre, zi, zie = z
    wr, wre, wi, wie = w
    return _add(zr * wr, zre + wre, -zi * wi, zie + wie, wp) + _add(zr * wi, zre + wie, zi * wr, zie + wre, wp)


def _update_pairs(wp, x, f, t):
    """x - f·t as mpc_sub(x, mpc_mul(f, t)) rounds it at wp bits: two roundings per part."""
    pr, pre, pi, pie = _mul_pairs(wp, f, t)
    return _add(x[0], x[1], -pr, pre, wp) + _add(x[2], x[3], -pi, pie, wp)


def _to_mpc(z):
    """A pair entry as a raw libmp mpc: a (sign, man, exp, bitcount) tuple per part."""
    return tuple((int(m < 0), abs(m), e, m.bit_length()) if m else fzero for m, e in (z[:2], z[2:]))


def _from_mpc(z, wp):
    """A raw libmp mpc of finite parts as a pair entry, each part rounded to wp bits as mpc(z) rounds it."""
    (rs, rm, re, rb), (is_, im, ie, ib) = z
    rm, im = -rm if rs else rm, -im if is_ else im
    if rb <= wp and ib <= wp:
        return rm, re, im, ie
    return _add(rm, re, 0, 0, wp) + _add(im, ie, 0, 0, wp)


def _inverse_pairs(wp, z):
    """1/z as mpc's operators round it at wp bits (libmp's mpc_mpf_div)."""
    return _from_mpc(mpc_mpf_div(fone, _to_mpc(z), wp, round_nearest), wp)


def _pivot_pairs(wp, column):
    """The first index of the largest |entry|², each floored to an integer at one scale for the column.

    Each |entry|² is floored to an integer N at one scale 2^s, with the
    column's largest part squared at wp + 7 or wp + 8 bits, so N is below
    |entry|²/2^s by less than 2 and the largest N is at least 2^(wp+6) - 2.
    Entries of equal |entry|, a conjugate pair say, give equal N, and the
    first of them is the pivot.  Where two |entry| lie within a relative
    2^-(wp-4) or so of each other, this pick may differ from the largest
    |entry| rounded to wp bits; either pivot is a largest one to that
    accuracy.
    """
    s = max((2 * (m.bit_length() + e) for z in column for m, e in (z[:2], z[2:]) if m), default=0) - wp - 8
    norms = []
    for zr, zre, zi, zie in column:
        d, g = 2 * zre - s, 2 * zie - s
        norms.append((zr * zr << d if d >= 0 else zr * zr >> -d) + (zi * zi << g if g >= 0 else zi * zi >> -g))
    return norms.index(max(norms))


def det_mpc(rows, prec: Precision):
    """Partial-pivoted elimination determinant of a square mpc matrix.

    Each entry is held as integer pairs (m, e), m·2^e per part, with m odd or
    0: libmp's mpf value in signed form.  A product of two parts is an exact
    integer multiply, and each sum is formed and rounded by _add at
    work_bits: exactly, unless the parts' exponents lie more than 100 bits
    apart and their top bits more than work_bits + 4, where the smaller part
    is dropped; then to nearest, ties to even, with trailing zeros stripped,
    as libmp's normalize rounds.  So every value is rounded as the same
    elimination on mpc values rounds it, a multiplier or a product as
    mpc_mul, a row update as mpc_sub of it, except at an exact tie of a sum
    whose smaller part is dropped, which mpf_add breaks toward that part's
    sign, and at the pivot: the first largest |entry|² floored at one scale
    (_pivot_pairs), which may differ from the mpc elimination's pick where
    two candidates lie within a relative 2^-(work_bits-4) or so.  A zero
    multiplier leaves its row as it is, and a row update starts at the
    column after the pivot's: the entries below a pivot are never read
    again.  libmp decides only the pivot's inverse (mpc_mpf_div, once per
    column but the last) and the conversions of the entries and the result.
    The determinant is the product of the pivots in elimination order, 0 once
    a column holds only zero candidates; rounding to nearest is symmetric in
    the sign, so the sign of the row swaps can come last.  Raises ValueError
    for a non-square matrix and names the first entry that is not finite.
    """
    wp = prec.work_bits
    a = []
    with mp.workprec(wp):
        for i, row in enumerate(rows):
            a.append([])
            for j, x in enumerate(row):
                z = x._mpc_ if type(x) is mpc else mpc(x)._mpc_
                (_, rm, re, _), (_, im, ie, _) = z
                if not rm and re or not im and ie:  # a zero mantissa with an exponent: ±inf or nan
                    raise ValueError(f"matrix entry ({i}, {j}) is not finite: {x}")
                a[-1].append(_from_mpc(z, wp))
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    det, odd = _PAIR_ONE, False
    for c in range(n):
        p = c + _pivot_pairs(wp, [row[c] for row in a[c:]])
        if a[p][c] == _PAIR_ZERO:
            return mpc(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            odd = not odd
        top = a[c]
        det = _mul_pairs(wp, det, top[c])
        scale = _inverse_pairs(wp, top[c]) if c + 1 < n else None
        for row in a[c + 1 :]:
            f = _mul_pairs(wp, row[c], scale)
            if f != _PAIR_ZERO:
                row[c + 1 :] = [_update_pairs(wp, x, f, t) for x, t in zip(row[c + 1 :], top[c + 1 :])]
    re, ree, im, ime = det
    return mp.make_mpc(_to_mpc((-re, ree, -im, ime) if odd else det))


def exact_determinant(rows):
    """Fraction-free (Bareiss) elimination determinant, exact; always a Fraction.

    Column c's pivot p is its first nonzero candidate, swapped up, and the
    row it swaps with is negated; each entry x below and right of it becomes
    (x p - a_rc t) // q, t the pivot row's entry and q the previous pivot (1
    at first), a division that is exact (Sylvester's identity), so the last
    pivot is the determinant.  The work is on ints: an int matrix as it is,
    so no Fraction is made but the result, and any other matrix read by
    Fraction(x) and put over the lcm d of its denominators, its determinant
    divided by d^n once at the end.  Fraction(0) once a column holds only
    zeros, Fraction(1) for the 0×0 matrix.  Raises ValueError unless square.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    a, d = [list(row) for row in rows], 1
    if not all(isinstance(x, int) for row in a for x in row):
        a = [[Fraction(x) for x in row] for row in a]
        d = math.lcm(*(x.denominator for row in a for x in row))
        a = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    q = 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:  # a swap, and the row swapped down negated: the determinant is unchanged
            a[c], a[p] = a[p], [-x for x in a[c]]
        top = a[c]
        for row in a[c + 1 :]:
            t = row[c]
            row[c + 1 :] = [(x * top[c] - t * y) // q for x, y in zip(row[c + 1 :], top[c + 1 :])]
        q = top[c]
    return Fraction(q, d**n)


def determinant(matrix, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Determinant of a square matrix of records or plain numbers, through det_mpc.

    The result is tagged with the minimum of prec.bits and the entries' precisions.
    """
    with mp.workprec(prec.work_bits):
        rows = [[to_mpc_any(x) for x in row] for row in matrix]
    return BigComplex.from_mpc(det_mpc(rows, prec), _tag_bits(prec, itertools.chain(*matrix)))
