"""Closed-form evaluators for the supersymmetric one- and two-source group integrals.

Every determinant entry is computed through the squared eigenvalues only, so
complex inputs never require a branch choice.  Exactly repeated eigenvalues
inside the bosonic or fermionic sector dispatch to the confluent (derivative
column) limit; a bosonic value coinciding with a fermionic one makes the
integral vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from mpmath import mp, mpc

from .errors import BosonFermionCoincidence
from .precision import (
    DEFAULT_BITS,
    DEFAULT_PRECISION,
    BigComplex,
    Precision,
    _near_coincident_pairs,
    as_record,
    bessel_ratio_raw,
    det_mpc,
    json_int,
    scaled_bessel_entry_raw,
    to_mpc_any,
    vandermonde,
)


@dataclass(frozen=True)
class SuperEigenvalues:
    """Squared eigenvalues split into bosonic and fermionic sectors, plus the coupling.

    Each entry is a BigComplex record, which keeps its own bits, or a plain
    int, float, complex or Fraction, which is rounded at the bits of the
    evaluation that reads it.
    """

    bosonic: tuple
    fermionic: tuple
    beta: object

    def __post_init__(self):
        object.__setattr__(self, "bosonic", tuple(self.bosonic))
        object.__setattr__(self, "fermionic", tuple(self.fermionic))

    def values(self, bits: int):
        """(bosonic, fermionic, beta) as mpc, plain entries rounded to `bits` bits."""
        bos = [as_record(v, bits).to_mpc() for v in self.bosonic]
        ferm = [as_record(v, bits).to_mpc() for v in self.fermionic]
        return bos, ferm, as_record(self.beta, bits).to_mpc()

    @property
    def m(self) -> int:
        return len(self.bosonic)

    @property
    def n(self) -> int:
        return len(self.fermionic)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "beta": as_record(self.beta, DEFAULT_BITS).to_json(),
            "bosonic": [as_record(v, DEFAULT_BITS).to_json() for v in self.bosonic],
            "fermionic": [as_record(v, DEFAULT_BITS).to_json() for v in self.fermionic],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuperEigenvalues":
        sectors = {name: obj.get(name, []) for name in ("bosonic", "fermionic")}
        for name, values in sectors.items():
            if not isinstance(values, list):
                raise ValueError(f"the {name} values must be a list, got {values!r}")
        bos = [BigComplex.from_json(v) for v in sectors["bosonic"]]
        ferm = [BigComplex.from_json(v) for v in sectors["fermionic"]]
        if "m" in obj and json_int(obj["m"], "m") != len(bos):
            raise ValueError("declared m does not match the bosonic list length")
        if "n" in obj and json_int(obj["n"], "n") != len(ferm):
            raise ValueError("declared n does not match the fermionic list length")
        return cls(tuple(bos), tuple(ferm), BigComplex.from_json(obj["beta"]))


@dataclass
class IntegralResult:
    value: BigComplex
    branch: str  # "generic" | "confluent" | "vanishing"
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "branch": self.branch,
            "terms_used": self.diagnostics.get("terms_used"),
            "warnings": self.diagnostics.get("warnings", []),
        }


def c_constant(n: int) -> int:
    """Product of k! for k = 1 .. n-1 (empty for n <= 1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = 1
    fact = 1
    for k in range(1, n):
        fact *= k
        out *= fact
    return out


def _sectors_coincide(bos, ferm) -> bool:
    """Whether some bosonic value equals some fermionic value exactly."""
    return any(x == y for x in bos for y in ferm)


def _cross_product(bos, ferm):
    """Product of every boson-fermion difference."""
    return math.prod((x - y for x in bos for y in ferm), start=mpc(1))


def berezinian(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Delta(bosonic) Delta(fermionic) / prod of boson-fermion differences."""
    bos, ferm, _ = ev.values(prec.bits)
    if _sectors_coincide(bos, ferm):
        raise BosonFermionCoincidence("bosonic and fermionic values coincide")
    with mp.workprec(prec.work_bits):
        num = vandermonde(bos) * vandermonde(ferm)
        return BigComplex.from_mpc(num / _cross_product(bos, ferm), prec.bits)


# -- grouping of exactly repeated values ----------------------------------------


def _group_exact(values):
    """Group bit-identical values, preserving first-occurrence order."""
    groups = []
    for v in values:
        for g in groups:
            if g[0] == v:
                g[1] += 1
                break
        else:
            groups.append([v, 1])
    return [(g[0], g[1]) for g in groups]


def _require_repeat(*pairs):
    """ValueError unless a sector of some (bosonic, fermionic) pair repeats a value.

    A boson-fermion coincidence also passes: the closed form returns its
    vanishing branch for it.
    """
    if any(_sectors_coincide(bos, ferm) for bos, ferm in pairs):
        return
    if not any(r > 1 for pair in pairs for sector in pair for _, r in _group_exact(sector)):
        raise ValueError("no exactly repeated eigenvalue inside a sector")


def _near_coincidence_warnings(groups, bits, sector):
    return [
        f"{sector} values {i} and {j} are nearly coincident; "
        "generic branch evaluated (exact repeats dispatch to the confluent limit)"
        for i, j in _near_coincident_pairs([g[0] for g in groups], bits)
    ]


def _grouped_denominator(groups):
    """Confluent replacement for a sector Vandermonde.

    prod over group pairs of (x_g - x_h)^(r_g r_h), carrying the sign
    (-1)^(r(r-1)/2) per group from the collapsed pair ordering.  Reduces to
    the plain Vandermonde when every multiplicity is 1.
    """
    den = math.prod((x - y) ** (r * s) for (x, r), (y, s) in combinations(groups, 2))
    sign = 1
    for _, r in groups:
        if (r * (r - 1) // 2) % 2:
            sign = -sign
    return sign * den


# -- the one-source integral -----------------------------------------------------


def _ls_value(ev: SuperEigenvalues, prec: Precision):
    m, n = ev.m, ev.n
    N = m + n
    if N == 0:
        raise ValueError("need at least one eigenvalue")
    bos, ferm, beta = ev.values(prec.bits)
    if _sectors_coincide(bos, ferm):
        return IntegralResult(BigComplex(0, 0, prec.bits), "vanishing")
    bgroups = _group_exact(bos)
    fgroups = _group_exact(ferm)
    confluent = any(r > 1 for _, r in bgroups) or any(r > 1 for _, r in fgroups)
    terms_used = 0
    with mp.workprec(prec.work_bits):
        warnings = _near_coincidence_warnings(bgroups, prec.bits, "bosonic")
        warnings += _near_coincidence_warnings(fgroups, prec.bits, "fermionic")
        cols = []
        for x, mult in bgroups + fgroups:
            for k in range(mult):
                # k-th derivative (in the squared eigenvalue) of each entry, / k!
                col = []
                kfact = mp.factorial(k)
                for i in range(1, N + 1):
                    nu = N - i
                    entry, terms = scaled_bessel_entry_raw(nu - k, beta, x, prec)
                    terms_used = max(terms_used, terms)
                    col.append(beta ** k * entry / kfact)
                cols.append(col)
        rows = [[cols[j][i] for j in range(N)] for i in range(N)]
        num = det_mpc(rows, prec)
        den = _grouped_denominator(bgroups) * _grouped_denominator(fgroups)
        power = ((m + n) - (m - n) ** 2) // 2
        pref = mpc(c_constant(m) * c_constant(n)) * beta ** power
        value = pref * num / den
    branch = "confluent" if confluent else "generic"
    diag = {"warnings": warnings, "terms_used": terms_used}
    return IntegralResult(BigComplex.from_mpc(value, prec.bits), branch, diag)


def ls_closed_form(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """One-source integral over the unitary supergroup in closed determinant form.

    Repeated values inside a sector are dispatched to the confluent limit;
    a boson-fermion coincidence returns the vanishing branch.
    """
    return _ls_value(ev, prec)


def ls_confluent(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """Confluent (derivative-column) limit; requires an exact repeat in a sector."""
    bos, ferm, _ = ev.values(prec.bits)
    _require_repeat((bos, ferm))
    return _ls_value(ev, prec)


# -- the two-source integral -----------------------------------------------------


def _bk_sector_det(lgroups, mgroups, beta, prec, stats):
    """Determinant over one sector with derivative rows/columns for repeats.

    Entry for row-group (x, row-order j) and column-group (y, column-order k):
    the (j, k) mixed derivative of the kernel R(0, beta^2 x y) in (x, y),
    divided by j! k!.
    """
    size = sum(r for _, r in lgroups)
    if size != sum(r for _, r in mgroups):
        raise ValueError("sector sizes must agree")
    if size == 0:
        return mpc(1)
    c = beta * beta

    def kernel(nu, w):
        core, terms = bessel_ratio_raw(nu, w, prec)
        stats["terms_used"] = max(stats["terms_used"], terms)
        return core

    rows = []
    for x, xr in lgroups:
        for j in range(xr):
            row = []
            for y, yr in mgroups:
                for k in range(yr):
                    if j == k == 0:
                        # a generic entry: every factor below is an exact 1
                        row.append(kernel(0, c * x * y))
                        continue
                    total = mpc(0)
                    for l in range(min(j, k) + 1):
                        term = (
                            math.comb(k, l)
                            * math.perm(j, l)
                            * y ** (j - l)
                            * (c * x) ** (k - l)
                            * c ** j
                            * kernel(j + k - l, c * x * y)
                        )
                        total += term
                    row.append(total / (math.factorial(j) * math.factorial(k)))
            rows.append(row)
    return det_mpc(rows, prec)


def _bk_berezinian_grouped(bgroups, fgroups, bos, ferm):
    """Berezinian with sector Vandermondes replaced by their grouped limits."""
    num = _grouped_denominator(bgroups) * _grouped_denominator(fgroups)
    return num / _cross_product(bos, ferm)


def _bk_value(lam: SuperEigenvalues, mu: SuperEigenvalues, prec: Precision):
    if lam.m != mu.m or lam.n != mu.n:
        raise ValueError("the two eigenvalue sets must share (m, n)")
    lam_b, lam_f, beta = lam.values(prec.bits)
    mu_b, mu_f, mu_beta = mu.values(prec.bits)
    if beta != mu_beta:
        raise ValueError("the two eigenvalue sets must share beta")
    m, n = lam.m, lam.n
    if _sectors_coincide(lam_b, lam_f) or _sectors_coincide(mu_b, mu_f):
        return IntegralResult(BigComplex(0, 0, prec.bits), "vanishing")
    lb, lf = _group_exact(lam_b), _group_exact(lam_f)
    mb, mf = _group_exact(mu_b), _group_exact(mu_f)
    confluent = any(r > 1 for _, r in lb + lf + mb + mf)
    stats = {"terms_used": 0}
    with mp.workprec(prec.work_bits):
        warnings = []
        for groups, name in ((lb, "first bosonic"), (lf, "first fermionic"), (mb, "second bosonic"), (mf, "second fermionic")):
            warnings += _near_coincidence_warnings(groups, prec.bits, name)
        det_b = _bk_sector_det(lb, mb, beta, prec, stats)
        det_f = _bk_sector_det(lf, mf, beta, prec, stats)
        ber_l = _bk_berezinian_grouped(lb, lf, lam_b, lam_f)
        ber_m = _bk_berezinian_grouped(mb, mf, mu_b, mu_f)
        power = (m + n) - (m - n) ** 2
        pref = mpc(c_constant(m) ** 2 * c_constant(n) ** 2) * beta ** power
        value = pref * det_b * det_f / (ber_l * ber_m)
    branch = "confluent" if confluent else "generic"
    diag = {"warnings": warnings, "terms_used": stats["terms_used"]}
    return IntegralResult(BigComplex.from_mpc(value, prec.bits), branch, diag)


def bk_closed_form(
    lam: SuperEigenvalues, mu: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION
) -> IntegralResult:
    """Two-source integral over two independent supergroup copies, closed form."""
    return _bk_value(lam, mu, prec)


def bk_confluent(
    lam: SuperEigenvalues, mu: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION
) -> IntegralResult:
    """Confluent limit of the two-source integral; requires an exact repeat."""
    lam_b, lam_f, _ = lam.values(prec.bits)
    mu_b, mu_f, _ = mu.values(prec.bits)
    _require_repeat((lam_b, lam_f), (mu_b, mu_f))
    return _bk_value(lam, mu, prec)


# -- (1+1)-dimensional non-diagonalizable limits ----------------------------------


def nondiag_limit_ls(
    a, alpha_beta_coeff, beta=None, prec: Precision = DEFAULT_PRECISION
) -> BigComplex:
    """Limit of the (1|1) one-source integral when the two sector values merge.

    `a` is the common squared eigenvalue; alpha_beta_coeff is the scalar that
    replaces the nilpotent bilinear in the merged eigenvalues.  The value is
    linear in that coefficient (the constant part is the vanishing coincident
    case), with

        -beta * c * (e1 e0'' - e1'' e0)(a)
            = c * beta^4 * (2 R2 R0 + beta^2 a (R3 R0 - R1 R2))

    where R_s is the even Bessel kernel at beta^2 a.
    """
    if beta is None:
        beta = Fraction(1, 2)
    with mp.workprec(prec.work_bits):
        av = to_mpc_any(a)
        bv = to_mpc_any(beta)
        cv = to_mpc_any(alpha_beta_coeff)
        w = bv * bv * av
        r0 = bessel_ratio_raw(0, w, prec)[0]
        r1 = bessel_ratio_raw(1, w, prec)[0]
        r2 = bessel_ratio_raw(2, w, prec)[0]
        r3 = bessel_ratio_raw(3, w, prec)[0]
        value = cv * bv ** 4 * (2 * r2 * r0 + bv * bv * av * (r3 * r0 - r1 * r2))
        return BigComplex.from_mpc(value, prec.bits)


def nondiag_limit_bk(
    a, alpha_beta_coeff, mu_sq_pair, beta=None, prec: Precision = DEFAULT_PRECISION
) -> BigComplex:
    """Limit of the (1|1) two-source integral when the first set's values merge.

    mu_sq_pair holds the (distinct) squared eigenvalues of the second set.
    The limit value is

        beta^2 (mu1^2 - mu2^2) c [g1' g2 + g1 g2'](a),
        g_j(x) = R(0, beta^2 mu_j^2 x).
    """
    if beta is None:
        beta = Fraction(1, 2)
    with mp.workprec(prec.work_bits):
        av = to_mpc_any(a)
        bv = to_mpc_any(beta)
        cv = to_mpc_any(alpha_beta_coeff)
        y1, y2 = (to_mpc_any(v) for v in mu_sq_pair)
        c1, c2 = bv * bv * y1, bv * bv * y2
        g1 = bessel_ratio_raw(0, c1 * av, prec)[0]
        g2 = bessel_ratio_raw(0, c2 * av, prec)[0]
        g1p = c1 * bessel_ratio_raw(1, c1 * av, prec)[0]
        g2p = c2 * bessel_ratio_raw(1, c2 * av, prec)[0]
        value = bv * bv * (y1 - y2) * cv * (g1p * g2 + g1 * g2p)
        return BigComplex.from_mpc(value, prec.bits)
