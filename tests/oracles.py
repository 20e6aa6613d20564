"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive (multi-loops, direct enumeration) and
shares no code path with the implementations it checks.  The one exception
is the pair of mpmath series references, which share det_mpc with
j0_truncated and jm_truncated so that the series sums alone are compared,
bit for bit.  bessel_ratio_mpmath is the even Bessel kernel summed in mpc
under the same stopping rule, so that bessel_ratio_raw's values and term
counts can be compared with it bit for bit.
"""

import math
from fractions import Fraction
from itertools import product
from math import factorial

from mpmath import mp, mpc, mpf

from superint.errors import TruncationCapExceeded
from superint.precision import BigComplex, det_mpc, to_mpc_any


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
