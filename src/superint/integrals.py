"""Closed-form evaluators for the supersymmetric one- and two-source group integrals.

Every determinant entry is computed through the squared eigenvalues only, so
complex inputs never require a branch choice.  Clusters of close or repeated
values inside a sector take Newton divided-difference columns, so nothing is
divided by their differences; a bosonic value coinciding with a fermionic one
makes the integral vanish identically.
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
    _log2_abs,
    as_record,
    bessel_ratio_raw,
    det_mpc,
    json_int,
    newton_sums,
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


# -- clusters of close values ----------------------------------------------------


def _require_repeat(*pairs):
    """ValueError unless a sector of some (bosonic, fermionic) pair repeats a value.

    A boson-fermion coincidence also passes: the closed form returns its vanishing branch.
    """
    if not any(_sectors_coincide(b, f) or len(set(b)) + len(set(f)) < len(b) + len(f) for b, f in pairs):
        raise ValueError("no exactly repeated eigenvalue inside a sector")


def _clusters(sectors, prec: Precision):
    """Each sector's values split into clusters, both in first-occurrence order.

    Dividing by x - y loses about max(0, log2(max(|x|, |y|, 1) / |x - y|)) bits.  While
    that loss, summed over same-sector pairs in different clusters, exceeds guard_bits / 2,
    the pair losing most joins its two clusters (exact repeats first).  Run at work_bits.
    """
    values = [(s, v, max(0.0, _log2_abs(v))) for s, sector in enumerate(sectors) for v in sector]
    lost = {(i, j): max(0.0, max(x[2], y[2]) - _log2_abs(x[1] - y[1]))
            for (i, x), (j, y) in combinations(enumerate(values), 2) if x[0] == y[0]}
    label = list(range(len(values)))
    while sum(bits for (i, j), bits in lost.items() if label[i] != label[j]) > prec.guard_bits / 2:
        i, j = max((pair for pair in lost if label[pair[0]] != label[pair[1]]), key=lost.get)
        label = [label[i] if lab == label[j] else lab for lab in label]
    out = [{} for _ in sectors]
    for lab, (s, v, _) in zip(label, values):
        out[s].setdefault(lab, []).append(v)
    return [list(clusters.values()) for clusters in out]


def _cluster_denominator(clusters):
    """The Vandermonde over pairs in different clusters, times (-1)^(r(r-1)/2) per cluster of r values.

    The sign turns a cluster's prod_(i<j) (x_j - x_i) into the Vandermonde's.
    """
    flat = [(c, x) for c, cluster in enumerate(clusters) for x in cluster]
    den = math.prod(x - y for (c, x), (d, y) in combinations(flat, 2) if c != d)
    return (-1) ** sum(len(c) * (len(c) - 1) // 2 for c in clusters) * den


def _mass_at_zero_beta(m: int, n: int):
    """The integral at beta = 0, where the closed form's beta^power < 0 meets a zero determinant.

    The integrand is then 1, so the value is the measure's total mass: 1 for an
    ordinary group (m n = 0), 0 for a supergroup.
    """
    return mpc(0 if m * n else 1)


# -- the one-source integral -----------------------------------------------------


def _ls_value(ev: SuperEigenvalues, prec: Precision):
    m, n = ev.m, ev.n
    N = m + n
    if N == 0:
        raise ValueError("need at least one eigenvalue")
    bos, ferm, beta = ev.values(prec.bits)
    if _sectors_coincide(bos, ferm):
        return IntegralResult(BigComplex(0, 0, prec.bits), "vanishing")
    with mp.workprec(prec.work_bits):
        bclusters, fclusters = _clusters((bos, ferm), prec)
        terms_used = 0
        cols = []
        orders = range(N - 1, -1, -1)
        for xs in bclusters + fclusters:
            w = beta * beta * xs[0]  # one pass sums R(nu, w) for all N orders
            kernel = [bessel_ratio_raw(nu, w, prec, top=N - 1) for nu in orders]
            # column j > 1 is f_nu[x_1..x_j]: f_nu(x) = beta^nu x^nu R(nu, beta^2 x) = beta^-nu
            # sum_(q>=nu) (beta^2 x)^q / ((q-nu)! q!), so it is beta^(2j-2-nu)
            # sum_(q>=q0) h_(q-j+1)(beta^2 x_1..) / ((q-nu)! q!), q0 = max(nu, j-1)
            keys = [(j, nu, max(nu, j - 1)) for j in range(2, len(xs) + 1) for nu in orders]
            sums, terms = newton_sums([[beta * beta * x for x in xs]], [
                ([(0, j, q0 - j + 1)], q0 - nu, q0) for j, nu, q0 in keys], prec)
            terms_used = max([terms_used, terms] + [t for _, t in kernel])
            # at beta = 0 a sum under a negative beta power is exactly 0
            col = [beta ** nu * xs[0] ** nu * v for nu, (v, _) in zip(orders, kernel)] + [
                beta ** (2 * j - 2 - nu) * v / (math.factorial(q0 - nu) * math.factorial(q0)) if v else v
                for (j, nu, q0), v in zip(keys, sums)
            ]
            cols += [col[k : k + N] for k in range(0, len(col), N)]
        num = det_mpc([list(row) for row in zip(*cols)], prec)
        den = _cluster_denominator(bclusters) * _cluster_denominator(fclusters)
        power = ((m + n) - (m - n) ** 2) // 2
        if beta or power >= 0:
            value = mpc(c_constant(m) * c_constant(n)) * beta ** power * num / den
        else:
            value = _mass_at_zero_beta(m, n)
    branch = "confluent" if len(set(bos)) + len(set(ferm)) < N else "generic"
    diag = {"warnings": [], "terms_used": terms_used}
    return IntegralResult(BigComplex.from_mpc(value, prec.bits), branch, diag)


def ls_closed_form(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """One-source integral over the unitary supergroup in closed determinant form.

    Clusters of close or repeated values inside a sector take Newton
    columns; a boson-fermion coincidence returns the vanishing branch.
    """
    return _ls_value(ev, prec)


def ls_confluent(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """Confluent limit; requires an exact repeat in a sector."""
    bos, ferm, _ = ev.values(prec.bits)
    _require_repeat((bos, ferm))
    return _ls_value(ev, prec)


# -- the two-source integral -----------------------------------------------------


def _bk_sector_det(lclusters, mclusters, beta, prec):
    """One sector's determinant and terms used: rows (x_1..x_j) of first-set clusters, columns (y_1..y_k).

    Entries are divided differences of R(0, c x y), c = beta^2: the kernel at j = k = 1, else
    c^(j-1) sum_p h_(p-j+1)(c x_1..c x_j) h_(p-k+1)(y_1..y_k) / (p!)^2 from p0 = max(j, k) - 1.
    """
    size = sum(map(len, lclusters))
    if size != sum(map(len, mclusters)):
        raise ValueError("sector sizes must agree")
    if size == 0:
        return mpc(1), 0
    c = beta * beta
    keys = [(a, b, j, k, max(j, k) - 1) for a, xs in enumerate(lclusters) for j in range(1, len(xs) + 1)
            for b, ys in enumerate(mclusters) for k in range(1, len(ys) + 1)]
    kernel = {(a, b): bessel_ratio_raw(0, c * xs[0] * ys[0], prec)
              for a, xs in enumerate(lclusters) for b, ys in enumerate(mclusters)}
    nl = len(lclusters)
    sums, terms = newton_sums([[c * x for x in xs] for xs in lclusters] + mclusters, [
        ([(a, j, p0 - j + 1), (nl + b, k, p0 - k + 1)], p0, p0) for a, b, j, k, p0 in keys if p0], prec)
    sums = iter(sums)
    entries = [c ** (j - 1) * next(sums) / math.factorial(p0) ** 2 if p0 else kernel[a, b][0]
               for a, b, j, k, p0 in keys]
    terms = max([terms] + [t for _, t in kernel.values()])
    return det_mpc([entries[i : i + size] for i in range(0, size * size, size)], prec), terms


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
    with mp.workprec(prec.work_bits):
        lb, lf, mb, mf = _clusters((lam_b, lam_f, mu_b, mu_f), prec)
        det_b, terms_b = _bk_sector_det(lb, mb, beta, prec)
        det_f, terms_f = _bk_sector_det(lf, mf, beta, prec)
        ber_l = _cluster_denominator(lb) * _cluster_denominator(lf) / _cross_product(lam_b, lam_f)
        ber_m = _cluster_denominator(mb) * _cluster_denominator(mf) / _cross_product(mu_b, mu_f)
        power = (m + n) - (m - n) ** 2
        if beta or power >= 0:
            value = mpc(c_constant(m) ** 2 * c_constant(n) ** 2) * beta ** power * det_b * det_f / (ber_l * ber_m)
        else:
            value = _mass_at_zero_beta(m, n)
    branch = "confluent" if any(len(set(v)) < len(v) for v in (lam_b, lam_f, mu_b, mu_f)) else "generic"
    diag = {"warnings": [], "terms_used": max(terms_b, terms_f)}
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
        r0, r1, r2, r3 = (bessel_ratio_raw(s, w, prec, top=3)[0] for s in range(4))
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
        # each w's two orders back to back, so they read one pass
        g1, g1p = (bessel_ratio_raw(s, c1 * av, prec, top=1)[0] for s in range(2))
        g2, g2p = (bessel_ratio_raw(s, c2 * av, prec, top=1)[0] for s in range(2))
        g1p, g2p = c1 * g1p, c2 * g2p
        value = bv * bv * (y1 - y2) * cv * (g1p * g2 + g1 * g2p)
        return BigComplex.from_mpc(value, prec.bits)
