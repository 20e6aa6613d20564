"""Independent reference values for the closed-form integrals.

Shares no numeric code with superint: every kernel value comes from
mpmath.hyp0f1 through R(nu, w) = 0F1(; nu+1; w) / nu!, summed by mpmath's
cancellation-aware series, every determinant from
mpmath.det, at the requested bits plus ORACLE_EXTRA_BITS.  Repeated values use
the derivative identities

    d^k/dx^k [x^nu R(nu, c x)] = c^k x^(nu-k) R(nu-k, c x)   (I_{-s} = I_s),
    d^j/dx^j d^k/dy^k R(0, c x y) = c^k x^(k-j) R(k-j, c x y)   (j <= k),

rather than the Leibniz sums the library uses.  Alongside each value the
oracle reports the bits a fixed-precision evaluation loses to cancellation:
in the kernel series (largest term over the sum) and in the determinant
(Hadamard row-norm bound over the determinant).
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpc, mpf

ORACLE_EXTRA_BITS = 256


def kernel(nu: int, w):
    """R(nu, w) = sum_k w^k / (k! (k+nu)!) with the bits its series cancels."""
    # mpmath's series re-sums at higher precision until the cancellation it
    # measures is covered; at large |w| it is also several times faster than
    # the asymptotic expansion hyp0f1 picks by default
    value = mpmath.hyp0f1(nu + 1, w, force_series=True) / mpmath.factorial(nu)
    aw = float(abs(w))
    if aw == 0:
        log_max = -math.lgamma(nu + 1)
    else:
        # the largest term |w|^k / (k! (k+nu)!) sits where k (k+nu) is near |w|
        k0 = int((math.sqrt(nu * nu + 4 * aw) - nu) / 2)
        log_max = max(
            k * math.log(aw) - math.lgamma(k + 1) - math.lgamma(k + nu + 1)
            for k in range(max(0, k0 - 2), k0 + 3)
        )
    if value == 0:
        return value, math.inf
    lost = (log_max - float(mpmath.log(abs(value)))) / math.log(2)
    return value, max(0.0, lost)


def _det_loss(rows, det) -> float:
    """log2 of Hadamard's bound over |det| for the row- and column-equilibrated matrix.

    Scaling rows and columns moves the determinant by the same factors, so the
    scaled matrix's ratio measures the cancellation the determinant carries
    rather than the spread of its entry magnitudes.
    """
    if det == 0:
        return math.inf
    n = len(rows)
    a = [[abs(x) for x in row] for row in rows]
    log_scale = mpf(0)
    for _ in range(3):
        for j in range(n):
            c = mpmath.sqrt(sum(a[i][j] ** 2 for i in range(n)))
            log_scale += mpmath.log(c, 2)
            for i in range(n):
                a[i][j] /= c
        for i in range(n):
            r = mpmath.sqrt(sum(x ** 2 for x in a[i]))
            log_scale += mpmath.log(r, 2)
            a[i] = [x / r for x in a[i]]
    # every row of `a` now has unit norm, so Hadamard's bound on det(a) is 1
    return max(0.0, float(log_scale - mpmath.log(abs(det), 2)))


def _groups(values):
    groups = []
    for v in values:
        for g in groups:
            if g[0] == v:
                g[1] += 1
                break
        else:
            groups.append([v, 1])
    return groups


def _grouped_vandermonde(groups):
    out = mpc(1)
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            out *= (groups[i][0] - groups[j][0]) ** (groups[i][1] * groups[j][1])
    for _, r in groups:
        if (r * (r - 1) // 2) % 2:
            out = -out
    return out


def _c_constant(n: int) -> int:
    return math.prod(math.factorial(k) for k in range(1, n))


class Reference:
    """Reference value plus the bits a fixed-guard evaluation would lose."""

    __slots__ = ("value", "kernel_loss", "det_loss")

    def __init__(self, value, kernel_loss: float, det_loss: float):
        self.value = value
        self.kernel_loss = kernel_loss
        self.det_loss = det_loss

    @property
    def lost_bits(self) -> float:
        return self.kernel_loss + self.det_loss


def ls_reference(bos, ferm, beta, bits: int) -> Reference:
    """One-source integral from complex eigenvalue lists (squared eigenvalues)."""
    m, n = len(bos), len(ferm)
    if any(x == y for x in bos for y in ferm):
        return Reference(mpc(0), 0.0, 0.0)
    N = m + n
    with mp.workprec(bits + ORACLE_EXTRA_BITS):
        b = mpc(beta)
        c = b * b
        bgroups, fgroups = _groups([mpc(v) for v in bos]), _groups([mpc(v) for v in ferm])
        cols, kloss = [], 0.0
        for x, mult in bgroups + fgroups:
            for k in range(mult):
                col = []
                for i in range(1, N + 1):
                    nu = N - i - k
                    r, lost = kernel(abs(nu), c * x)
                    kloss = max(kloss, lost)
                    entry = b ** abs(nu) * (x ** nu if nu > 0 else 1) * r
                    col.append(b ** k * entry / math.factorial(k))
                cols.append(col)
        rows = [[cols[j][i] for j in range(N)] for i in range(N)]
        det = mpmath.det(mpmath.matrix(rows))
        den = _grouped_vandermonde(bgroups) * _grouped_vandermonde(fgroups)
        power = ((m + n) - (m - n) ** 2) // 2
        value = _c_constant(m) * _c_constant(n) * b ** power * det / den
        return Reference(value, kloss, _det_loss(rows, det))


def _bk_sector(lgroups, mgroups, c):
    size = sum(r for _, r in lgroups)
    if size == 0:
        return mpc(1), 0.0, 0.0
    rows, kloss = [], 0.0
    for x, rx in lgroups:
        for j in range(rx):
            row = []
            for y, ry in mgroups:
                for k in range(ry):
                    r, lost = kernel(abs(k - j), c * x * y)
                    kloss = max(kloss, lost)
                    d = c ** k * x ** (k - j) * r if j <= k else c ** j * y ** (j - k) * r
                    row.append(d / (math.factorial(j) * math.factorial(k)))
            rows.append(row)
    det = mpmath.det(mpmath.matrix(rows))
    return det, kloss, _det_loss(rows, det)


def bk_reference(lam_bos, lam_ferm, mu_bos, mu_ferm, beta, bits: int) -> Reference:
    """Two-source integral from the two eigenvalue sets (squared eigenvalues)."""
    m, n = len(lam_bos), len(lam_ferm)
    for bos, ferm in ((lam_bos, lam_ferm), (mu_bos, mu_ferm)):
        if any(x == y for x in bos for y in ferm):
            return Reference(mpc(0), 0.0, 0.0)
    with mp.workprec(bits + ORACLE_EXTRA_BITS):
        b = mpc(beta)
        c = b * b
        lb, lf = _groups([mpc(v) for v in lam_bos]), _groups([mpc(v) for v in lam_ferm])
        mb, mf = _groups([mpc(v) for v in mu_bos]), _groups([mpc(v) for v in mu_ferm])
        det_b, kb, db = _bk_sector(lb, mb, c)
        det_f, kf, df = _bk_sector(lf, mf, c)

        def ber(bg, fg, bos, ferm):
            cross = mpc(1)
            for x in bos:
                for y in ferm:
                    cross *= mpc(x) - mpc(y)
            return _grouped_vandermonde(bg) * _grouped_vandermonde(fg) / cross

        power = (m + n) - (m - n) ** 2
        pref = (_c_constant(m) * _c_constant(n)) ** 2 * b ** power
        value = pref * det_b * det_f / (ber(lb, lf, lam_bos, lam_ferm) * ber(mb, mf, mu_bos, mu_ferm))
        return Reference(value, max(kb, kf), db + df)
