"""Closed-form evaluators for the supersymmetric one- and two-source group integrals.

Every determinant entry is computed through the squared eigenvalues only, so
complex inputs never require a branch choice.  Clusters of close or repeated
values inside a sector take Newton divided-difference columns, so nothing is
divided by their differences; a bosonic value coinciding with a fermionic one
makes the integral vanish identically.  Both closed forms take their entries
from one builder (_entries) and their value and record from one tail
(_result); with no eigenvalues at all, the U(0|0) integral is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from mpmath import mp, mpc

from .errors import BosonFermionCoincidence
from .precision import (
    DEFAULT_BITS,
    DEFAULT_PRECISION,
    BigComplex,
    Precision,
    Slotted,
    _log2_abs,
    as_record,
    bessel_ratio_raw,
    det_mpc,
    json_int,
    newton_sums,
    to_mpc_any,
    vandermonde,
)


class SuperEigenvalues(Slotted):
    """Squared eigenvalues split into bosonic and fermionic sectors, plus the coupling.

    Each entry is a BigComplex record, which keeps its own bits, or a plain
    int, float, complex or Fraction, which is rounded at the bits of the
    evaluation that reads it.  The sectors are kept as tuples.
    """

    __slots__ = ("bosonic", "fermionic", "beta")

    def __init__(self, bosonic, fermionic, beta):
        super().__init__(tuple(bosonic), tuple(fermionic), beta)

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


class IntegralResult(Slotted):
    """A closed form's value, its branch and its diagnostics; mutable, so not hashable.

    branch is "generic", "confluent" or "vanishing"; each result gets its
    own diagnostics dict unless one is passed.
    """

    __slots__ = ("value", "branch", "diagnostics")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, value: BigComplex, branch: str, diagnostics: dict | None = None):
        super().__init__(value, branch, {} if diagnostics is None else diagnostics)

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
    return math.prod(map(math.factorial, range(1, n)))


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


# -- the closed forms' shared core -----------------------------------------------


def _entries(requests, sides, prec: Precision):
    """A determinant's entries, in request order, and the largest series term count used.

    A request is (nu, w), the kernel R(nu, w) read from the pass over orders
    0..top at w, top the largest kernel order requested, or (parts, a, b), a
    newton_sums request over `sides`.  The kernel is summed request by
    request, so a run of orders at one w reads one pass; the Newton requests
    share one newton_sums call, in which each sum reads only its own parts'
    sides.
    """
    top = max((r[0] for r in requests if len(r) == 2), default=0)
    kernel = [bessel_ratio_raw(*r, prec, top=top) if len(r) == 2 else None for r in requests]
    sums, terms = newton_sums(sides, [r for r in requests if len(r) == 3], prec)
    sums = iter(sums)
    return [next(sums) if k is None else k[0] for k in kernel], max([terms] + [k[1] for k in kernel if k])


def _result(copies: int, dets, den, beta, sectors, terms_used: int, prec: Precision) -> IntegralResult:
    """(C_m C_n beta^p)^copies prod(dets) / den as a result record, p = ((m+n) - (m-n)^2) / 2.

    `copies` counts the U(m|n) groups integrated over, (m, n) are the sizes of
    sectors[0] and sectors[1], and the branch is "confluent" when some sector
    repeats a value.  Where beta = 0 meets a negative power, the closed form is
    0/0; the integrand is then 1, so the value is the measure's total mass: 1
    for an ordinary group (m n = 0), 0 for a supergroup.  The product runs
    left to right from C beta^p, so each rounding is the one the pinned
    digests hold.  Run at work_bits.
    """
    m, n = len(sectors[0]), len(sectors[1])
    power = copies * ((m + n) - (m - n) ** 2) // 2
    if beta or power >= 0:
        value = math.prod(dets, start=mpc((c_constant(m) * c_constant(n)) ** copies) * beta ** power) / den
    else:
        value = mpc(0 if m * n else 1)
    branch = "confluent" if any(len(set(v)) < len(v) for v in sectors) else "generic"
    diag = {"warnings": [], "terms_used": terms_used}
    return IntegralResult(BigComplex.from_mpc(value, prec.bits), branch, diag)


# -- the one-source integral -----------------------------------------------------


def ls_closed_form(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """One-source integral over the unitary supergroup in closed determinant form.

    Clusters of close or repeated values inside a sector take Newton
    columns; a boson-fermion coincidence returns the vanishing branch.  With
    no values at all, the U(0|0) integral is 1.
    """
    N = ev.m + ev.n
    bos, ferm, beta = ev.values(prec.bits)
    if _sectors_coincide(bos, ferm):
        return IntegralResult(BigComplex(0, 0, prec.bits), "vanishing")
    with mp.workprec(prec.work_bits):
        bclusters, fclusters = _clusters((bos, ferm), prec)
        clusters, c = bclusters + fclusters, beta * beta
        # column (s, j) holds f_nu[x_1..x_j] over cluster s, nu = N-1..0: f_nu(x) = beta^nu x^nu R(nu, c x)
        # = beta^-nu sum_(q>=nu) (c x)^q / ((q-nu)! q!), so for j > 1 it is beta^(2j-2-nu)
        # sum_(q>=q0) h_(q-j+1)(c x_1..c x_j) / ((q-nu)! q!), q0 = max(nu, j-1)
        keys = [(s, j, nu, max(nu, j - 1)) for s, xs in enumerate(clusters)
                for j in range(1, len(xs) + 1) for nu in range(N - 1, -1, -1)]
        sides = [[c * x for x in xs] for xs in clusters]
        requests = [(nu, sides[s][0]) if j == 1 else ([(s, j, q0 - j + 1)], q0 - nu, q0) for s, j, nu, q0 in keys]
        values, terms = _entries(requests, sides, prec)
        beta_pow = [beta ** nu for nu in range(N)]
        # at beta = 0 a sum under a negative beta power is exactly 0
        col = [beta_pow[nu] * clusters[s][0] ** nu * v if j == 1 else
               beta ** (2 * j - 2 - nu) * v / (math.factorial(q0 - nu) * math.factorial(q0)) if v else v
               for (s, j, nu, q0), v in zip(keys, values)]
        rows = [list(row) for row in zip(*(col[k * N : k * N + N] for k in range(N)))]
        num = det_mpc(rows, prec) if N else mpc(1)
        den = _cluster_denominator(bclusters) * _cluster_denominator(fclusters)
        return _result(1, [num], den, beta, (bos, ferm), terms, prec)


def ls_confluent(ev: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION) -> IntegralResult:
    """Confluent limit; requires an exact repeat in a sector.

    Kept only because perfbench/spans.py traces this name; nothing in the package calls it.
    """
    bos, ferm, _ = ev.values(prec.bits)
    _require_repeat((bos, ferm))
    return ls_closed_form(ev, prec)


# -- the two-source integral -----------------------------------------------------


def bk_closed_form(
    lam: SuperEigenvalues, mu: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION
) -> IntegralResult:
    """Two-source integral over two independent supergroup copies, closed form."""
    if lam.m != mu.m or lam.n != mu.n:
        raise ValueError("the two eigenvalue sets must share (m, n)")
    lam_b, lam_f, beta = lam.values(prec.bits)
    mu_b, mu_f, mu_beta = mu.values(prec.bits)
    if beta != mu_beta:
        raise ValueError("the two eigenvalue sets must share beta")
    if _sectors_coincide(lam_b, lam_f) or _sectors_coincide(mu_b, mu_f):
        return IntegralResult(BigComplex(0, 0, prec.bits), "vanishing")
    with mp.workprec(prec.work_bits):
        lb, lf, mb, mf = _clusters((lam_b, lam_f, mu_b, mu_f), prec)
        c, dets, terms = beta * beta, [], 0
        for xss, yss, size in ((lb, mb, lam.m), (lf, mf, lam.n)):
            # rows (x_1..x_j) of first-set clusters, columns (y_1..y_k): divided differences of R(0, c x y),
            # the kernel at j = k = 1, else c^(j-1) sum_p h_(p-j+1)(c x_1..c x_j) h_(p-k+1)(y_1..y_k) / (p!)^2
            # from p0 = max(j, k) - 1
            keys = [(a, j, b, k, max(j, k) - 1) for a, xs in enumerate(xss) for j in range(1, len(xs) + 1)
                    for b, ys in enumerate(yss) for k in range(1, len(ys) + 1)]
            sides = [[c * x for x in xs] for xs in xss] + yss
            requests = [([(a, j, p0 - j + 1), (len(xss) + b, k, p0 - k + 1)], p0, p0) if p0
                        else (0, sides[a][0] * yss[b][0]) for a, j, b, k, p0 in keys]
            values, t = _entries(requests, sides, prec)
            c_pow = [c ** i for i in range(max(map(len, xss), default=0))]
            entries = [c_pow[j - 1] * v / math.factorial(p0) ** 2 if p0 else v
                       for (_, j, _, _, p0), v in zip(keys, values)]
            rows = [entries[i * size : i * size + size] for i in range(size)]
            dets.append(det_mpc(rows, prec) if size else mpc(1))
            terms = max(terms, t)
        ber_l = _cluster_denominator(lb) * _cluster_denominator(lf) / _cross_product(lam_b, lam_f)
        ber_m = _cluster_denominator(mb) * _cluster_denominator(mf) / _cross_product(mu_b, mu_f)
        return _result(2, dets, ber_l * ber_m, beta, (lam_b, lam_f, mu_b, mu_f), terms, prec)


def bk_confluent(
    lam: SuperEigenvalues, mu: SuperEigenvalues, prec: Precision = DEFAULT_PRECISION
) -> IntegralResult:
    """Confluent limit of the two-source integral; requires an exact repeat.

    Kept only because perfbench/spans.py traces this name; nothing in the package calls it.
    """
    lam_b, lam_f, _ = lam.values(prec.bits)
    mu_b, mu_f, _ = mu.values(prec.bits)
    _require_repeat((lam_b, lam_f), (mu_b, mu_f))
    return bk_closed_form(lam, mu, prec)


# -- (1+1)-dimensional non-diagonalizable limits ----------------------------------


def nondiag_limit_ls(
    a, alpha_beta_coeff, beta=Fraction(1, 2), prec: Precision = DEFAULT_PRECISION
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
    with mp.workprec(prec.work_bits):
        av = to_mpc_any(a)
        bv = to_mpc_any(beta)
        cv = to_mpc_any(alpha_beta_coeff)
        w = bv * bv * av
        r0, r1, r2, r3 = (bessel_ratio_raw(s, w, prec, top=3)[0] for s in range(4))
        value = cv * bv ** 4 * (2 * r2 * r0 + bv * bv * av * (r3 * r0 - r1 * r2))
        return BigComplex.from_mpc(value, prec.bits)


def nondiag_limit_bk(
    a, alpha_beta_coeff, mu_sq_pair, beta=Fraction(1, 2), prec: Precision = DEFAULT_PRECISION
) -> BigComplex:
    """Limit of the (1|1) two-source integral when the first set's values merge.

    mu_sq_pair holds the (distinct) squared eigenvalues of the second set.
    The limit value is

        beta^2 (mu1^2 - mu2^2) c [g1' g2 + g1 g2'](a),
        g_j(x) = R(0, beta^2 mu_j^2 x).
    """
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
