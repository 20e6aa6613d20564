"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (multi-loops, direct enumeration) and
shares no code path with the implementations it checks.  The one exception
is the pair of mpmath series references, which share det_mpc with
j0_truncated and jm_truncated so that the series sums alone are compared,
bit for bit.  bessel_ratio_mpmath is the even Bessel kernel summed in mpc
under the same stopping rule, so that bessel_ratio_raw's values and term
counts can be compared with it bit for bit, bessel_ratio_fixed_reference
is the single-order fixed-point kernel as a plain generator loop, whose
integers bessel_ratio_raw must reproduce exactly,
bessel_orders_interleaved_reference sums the chained orders of one w term by
term together, whose values and term counts bessel_ratio_raw's chained orders
must reproduce exactly.
"""

import itertools
import math
from fractions import Fraction
from itertools import product
from math import factorial

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from superint.errors import TruncationCapExceeded
from superint.precision import BigComplex, det_mpc, from_fixed, to_mpc_any


def vandermonde_int(ks):
    out = 1
    for i in range(len(ks)):
        for j in range(i + 1, len(ks)):
            out *= ks[i] - ks[j]
    return out


def monomial_product_sign(left, right):
    """Sign of sorting the concatenated generator index lists left + right.

    The parity of the inversion count, by a plain double loop.
    """
    seq = list(left) + list(right)
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def det_cofactor(rows):
    """Cofactor-expansion determinant; exact for exact entries (intended n <= 4)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def count_standard_tableaux(shape):
    """Count standard fillings by recursive corner removal."""
    shape = tuple(r for r in shape if r)
    if sum(shape) <= 1:
        return 1
    total = 0
    for i in range(len(shape)):
        if shape[i] > (shape[i + 1] if i + 1 < len(shape) else 0):
            child = list(shape)
            child[i] -= 1
            total += count_standard_tableaux(tuple(child))
    return total


def weyl_dimension(p_rows, m):
    """Weyl dimension product formula for Gl(m): prod (p_i - p_j + j - i)/(j - i)."""
    rows = list(p_rows) + [0] * (m - len(p_rows))
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= rows[i] - rows[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def j0_box_sum(z, K):
    """Plain multi-loop box-truncated antisymmetric series (exact Fractions)."""
    N = len(z)
    total = Fraction(0)
    for ks in product(range(K + 1), repeat=N):
        c = Fraction(vandermonde_int(ks))
        if c == 0:
            continue
        for k in ks:
            c /= factorial(k) ** 2
        term = c
        for zi, k in zip(z, ks):
            term *= zi ** k
        total += term
    return total


def jm_box_sum(z, m, K):
    """Plain multi-loop box-truncated split series (exact Fractions)."""
    N = len(z)
    cross = Fraction(1)
    for i in range(m):
        for j in range(m, N):
            cross *= z[i] - z[j]
    total = Fraction(0)
    for ks in product(range(K + 1), repeat=N):
        c = Fraction(vandermonde_int(ks[:m]) * vandermonde_int(ks[m:]))
        if c == 0:
            continue
        for k in ks:
            c /= factorial(k) ** 2
        for i in range(m):
            for j in range(m, N):
                c /= ks[i] + ks[j] + 1
        term = c
        for zi, k in zip(z, ks):
            term *= zi ** k
        total += term
    return cross * total


def schur_polynomial(shape, nvars):
    """Schur polynomial as an exponent-tuple -> coefficient dict, via tableaux."""
    shape = tuple(r for r in shape if r)
    if len(shape) > nvars:
        return {}
    if not shape:
        return {(0,) * nvars: 1}
    poly = {}

    def fill(i, prev_row, rows_acc):
        if i == len(shape):
            expo = [0] * nvars
            for row in rows_acc:
                for v in row:
                    expo[v] += 1
            key = tuple(expo)
            poly[key] = poly.get(key, 0) + 1
            return
        length = shape[i]

        def rec(j, row):
            if j == length:
                fill(i + 1, row, rows_acc + [row])
                return
            lo = row[j - 1] if j else 0
            if prev_row is not None and j < len(prev_row):
                lo = max(lo, prev_row[j] + 1)
            for v in range(lo, nvars):
                rec(j + 1, row + [v])

        rec(0, [])

    fill(0, None, [])
    return poly


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def bessel_ratio_mpmath(nu, w, prec):
    """Sum over k of w^k / (k! (k+nu)!) in mpc at work_bits, with the term count used.

    Stops after two consecutive terms with |term| < 2^-work_bits times
    max(1, the largest partial-sum magnitude so far); raises
    TruncationCapExceeded when that does not happen within the cap.
    """
    with mp.workprec(prec.work_bits):
        w = mpc(w)
        term = mpc(1) / mp.factorial(nu)
        total = mpc(0)
        max_mag = mpf(1)
        cutoff = mpf(2) ** -prec.work_bits
        small_run = 0
        for k in range(prec.truncation_cap):
            total += term
            max_mag = max(max_mag, abs(total))
            if abs(term) < cutoff * max_mag:
                small_run += 1
                if small_run >= 2:
                    return total, k + 1
            else:
                small_run = 0
            term = term * w / ((k + 1) * (k + 1 + nu))
    raise TruncationCapExceeded(f"series did not converge within {prec.truncation_cap} terms")


def _fixed_terms_reference(zr, zi, nu, fbits):
    """Endless terms t_0 = 1, t_k = t_{k-1} z / (k (k+nu)), a four-product complex multiply each."""
    tr, ti = 1 << fbits, 0
    k = 0
    while True:
        yield tr, ti
        k += 1
        d = k * (k + nu)
        tr, ti = ((tr * zr - ti * zi) >> fbits) // d, ((tr * zi + ti * zr) >> fbits) // d


def bessel_ratio_fixed_reference(nu, w, prec):
    """The single-order fixed-point kernel summed on a term generator, with the term count used.

    The same scale, terms and stopping rule as bessel_ratio_raw without
    `top`, decided by exact squared norms at every term.
    """
    if nu < 0:
        raise ValueError("order must be non-negative")
    cap = prec.truncation_cap
    fbits = prec.work_bits + cap.bit_length() + 14
    with mp.workprec(prec.work_bits):
        w = mpc(w)
        if not mp.isfinite(w):
            raise ValueError(f"non-finite argument {w}")
        limit = cap if abs(w) < cap * (cap + nu) else 2
        zr, zi = (to_fixed(part, fbits) for part in w._mpc_)
        shift = 2 * prec.work_bits
        nu_fact = math.factorial(nu)
        peak = (nu_fact << fbits) ** 2  # max(1, max |partial sum|)^2, in squared units
        sr = si = 0
        small_run = 0
        for k, (tr, ti) in enumerate(itertools.islice(_fixed_terms_reference(zr, zi, nu, fbits), limit)):
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


def bessel_orders_interleaved_reference(w, top: int, prec):
    """Orders 0..top of bessel_ratio_raw at w (an mpc tuple at work_bits) in one interleaved pass.

    Every order steps term by term together: order 0 on the recurrence,
    order s on floor(s / (k+s) times order s-1's term), each under its own
    stopping test.  Returns, per order, (value, terms), or None where the
    order did not stop within its cap.
    """
    cap = prec.truncation_cap
    wp = prec.work_bits
    fbits = wp + cap.bit_length() + 14 + top.bit_length()
    shift = 2 * wp
    zr, zi = to_fixed(w[0], fbits), to_fixed(w[1], fbits)
    zs = zr + zi
    three = zr and zi
    # each order's cap edge decided as bessel_ratio_fixed_reference decides it: |w| at work_bits
    with mp.workprec(wp):
        size = abs(mp.make_mpc(w))
    limit = [cap if size < cap * (cap + nu) else 2 for nu in range(top + 1)]
    # per order: partial sum (re, im), peak = max(1, max |partial sum|)^2 in squared
    # units and its bit length, and the run of small terms; None once it stopped
    state = [[0, 0, p, p.bit_length(), 0] for p in ((math.factorial(nu) << fbits) ** 2 for nu in range(top + 1))]
    out = [None] * (top + 1)
    hi = top  # the highest order still summing; every order below feeds its chain
    tr, ti = 1 << fbits, 0
    for k in range(max(limit)):
        if k:
            d = k * k
            if three:
                a, b = tr * zr, ti * zi
                tr, ti = ((a - b) >> fbits) // d, (((tr + ti) * zs - a - b) >> fbits) // d
            else:
                tr, ti = ((tr * zr - ti * zi) >> fbits) // d, ((tr * zi + ti * zr) >> fbits) // d
        cr, ci = tr, ti
        for nu in range(hi + 1):
            if nu:
                cr, ci = cr * nu // (k + nu), ci * nu // (k + nu)
            s = state[nu]
            if s is None:
                continue
            sr, si, peak, peak_bits, run = s
            sr += cr
            si += ci
            if 2 * (abs(sr) | abs(si)).bit_length() + 2 > peak_bits:
                s2 = sr * sr + si * si
                if s2 > peak:
                    peak, peak_bits = s2, s2.bit_length()
            e = 2 * (abs(cr) | abs(ci)).bit_length() + shift
            if e + 2 <= peak_bits or (e - 2 < peak_bits and (cr * cr + ci * ci) << shift < peak):
                run += 1
                if run >= 2:
                    with mp.workprec(wp):
                        out[nu] = from_fixed(sr, si, fbits) / math.factorial(nu), k + 1
                    state[nu] = None
                    continue
            else:
                run = 0
            if k + 1 == limit[nu]:
                state[nu] = None
            else:
                s[:] = sr, si, peak, peak_bits, run
        while hi >= 0 and state[hi] is None:
            hi -= 1
        if hi < 0:
            break
    return out


def j0_truncated_mpmath(z, K, prec):
    """The box-truncated antisymmetric series as det[f_i(z_j)], each f_i an mpc term recurrence."""
    zs = [to_mpc_any(v) for v in z]
    N = len(zs)
    with mp.workprec(prec.work_bits):
        rows = []
        for i in range(1, N + 1):
            row = []
            for zz in zs:
                lo = max(0, N - i)
                term = mpc(1) / (mp.factorial(lo) * mp.factorial(lo - N + i)) * zz ** lo
                acc = term
                for k in range(lo + 1, K + 1):
                    term = term * zz / (k * (k - N + i))
                    acc += term
                row.append(acc)
            rows.append(row)
        return BigComplex.from_mpc(det_mpc(rows, prec), prec.bits)


def jm_truncated_mpmath(z, m, K, prec):
    """The box-truncated split series through the bordered kernel with power moment columns, in mpc."""
    zs = [to_mpc_any(v) for v in z]
    N = len(zs)
    n = N - m
    if n == 0:
        return j0_truncated_mpmath(z, K, prec)
    with mp.workprec(prec.work_bits):
        cross = math.prod(a - b for a in zs[:m] for b in zs[m:])
        if m >= n:
            big, small = zs[:m], zs[m:]
        else:
            big, small = zs[m:], zs[:m]
        nb, ns = len(big), len(small)

        def weights(v):
            w = [mpc(1)]
            for k in range(1, K + 1):
                w.append(w[-1] * v / (k * k))
            return w

        wb = [weights(v) for v in big]
        ws = [weights(v) for v in small]
        recip = [mpf(1) / (s + 1) for s in range(2 * K + 1)]
        s_tab = [[mp.fsum(wsj[l] * recip[k + l] for l in range(K + 1)) for k in range(K + 1)] for wsj in ws]
        rows = []
        for i in range(nb):
            row = [mp.fsum(wb[i][k] * s_tab[j][k] for k in range(K + 1)) for j in range(ns)]
            for d in range(nb - ns):
                row.append(mp.fsum(wb[i][k] * (k ** d) for k in range(K + 1)))
            rows.append(row)
        dd = nb - ns
        eps = -1 if (ns * dd + dd * (dd - 1) // 2) % 2 else 1
        return BigComplex.from_mpc(eps * cross * det_mpc(rows, prec), prec.bits)


def _plain_difference_product(values):
    out = mpc(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            out *= values[i] - values[j]
    return out


def _factorial_product(n):
    """prod_(k < n) k!, the constant of the (n|.) closed forms."""
    return math.prod(factorial(k) for k in range(n))


def ls_division_reference(bos, ferm, beta, bits=4000):
    """The one-source closed form as det[x_j^nu I_nu(2 beta x_j^(1/2))] / (Delta(bos) Delta(ferm)), at `bits` bits.

    Plain division over distinct values: every entry is beta^nu x^nu
    0F1(; nu+1; beta^2 x) / nu! from mpmath's hyp0f1 (its series, which
    mpmath re-sums at higher precision when it cancels), the determinant is
    mpmath.det, and `bits` must cover what the division cancels.
    """
    with mp.workprec(bits):
        b = to_mpc_any(beta)
        xs = [to_mpc_any(v) for v in list(bos) + list(ferm)]
        m, n, N = len(bos), len(ferm), len(xs)
        rows = [
            [b**nu * x**nu * mp.hyp0f1(nu + 1, b * b * x, force_series=True) / mp.factorial(nu) for x in xs]
            for nu in range(N - 1, -1, -1)
        ]
        den = _plain_difference_product(xs[:m]) * _plain_difference_product(xs[m:])
        pref = _factorial_product(m) * _factorial_product(n) * b ** (((m + n) - (m - n) ** 2) // 2)
        return pref * mp.det(mp.matrix(rows)) / den


def bk_division_reference(lam, mu, beta, bits=4000):
    """The two-source closed form with the Berezinians divided out plainly, at `bits` bits.

    lam and mu are (bosonic, fermionic) pairs; each sector's entries are
    0F1(; 1; beta^2 x y) from mpmath's hyp0f1 and its determinant is
    mpmath.det.
    """
    with mp.workprec(bits):
        b = to_mpc_any(beta)
        (lb, lf), (mb, mf) = ([[to_mpc_any(v) for v in sector] for sector in pair] for pair in (lam, mu))
        m, n = len(lb), len(lf)

        def sector_det(xs, ys):
            if not xs:
                return mpc(1)
            return mp.det(mp.matrix([[mp.hyp0f1(1, b * b * x * y, force_series=True) for y in ys] for x in xs]))

        def berezinian(bos, ferm):
            cross = math.prod((x - y for x in bos for y in ferm), start=mpc(1))
            return _plain_difference_product(bos) * _plain_difference_product(ferm) / cross

        pref = (_factorial_product(m) * _factorial_product(n)) ** 2 * b ** ((m + n) - (m - n) ** 2)
        return pref * sector_det(lb, mb) * sector_det(lf, mf) / (berezinian(lb, lf) * berezinian(mb, mf))
