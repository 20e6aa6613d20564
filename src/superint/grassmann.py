"""Finite Grassmann algebra, Berezin integration and block supermatrices.

Generators come in conjugate pairs ordered a_0 < a_0* < a_1 < a_1* < ...;
generator 2i is a_i and generator 2i+1 is its star partner.  A monomial is
stored as an int bitmask with bit i set when generator i is present (the
bitmap basis-blade representation of Dorst, Fontijne & Mann, *Geometric
Algebra for Computer Science*): the monomial reads in ascending generator
order, and every sign in the algebra is the parity of a count of set bits.

Coefficients may be exact (int, Fraction, GaussianRational) or
multiprecision (mpf, mpc); all operations are coefficient-ring agnostic.
Each coefficient type is false at zero and has conjugate(), which the one
zero rule and the conjugation use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_div_mpf,
    mpc_mul,
    mpc_zero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_shift,
    round_nearest,
)

from .errors import GeneratorMismatch, NonInvertibleBody, TruncationCapExceeded
from .precision import DEFAULT_PRECISION, Precision, to_mpc_any, to_mpf


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    def _lift(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return self.to_mpc() + other
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, GaussianRational) else -1 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return self.to_mpc() * other
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return self.to_mpc() / other
        norm = o.re * o.re + o.im * o.im
        return self * GaussianRational(o.re / norm, -o.im / norm)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return other / self.to_mpc()
        return o / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return self.to_mpc() == other
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to 1 or Fraction(1, 2) when real, so equal values hash alike
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def to_mpc(self) -> mpc:
        return mpc(to_mpf(self.re), to_mpf(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


I_EXACT = GaussianRational(0, 1)


def _product_sign(left: int, right: int) -> int:
    """Sign of sorting the concatenated monomials left, right into ascending order.

    Each generator of right moves past every higher generator of left.
    """
    swaps = 0
    left >>= 1
    while left:
        swaps += (left & right).bit_count()
        left >>= 1
    return -1 if swaps & 1 else 1


def _indices(mono: int) -> tuple:
    return tuple(i for i in range(mono.bit_length()) if mono >> i & 1)


def _accumulate(terms: dict, mono: int, coeff):
    """Add coeff into terms[mono]; the element constructor drops a zero sum."""
    terms[mono] = terms.get(mono, 0) + coeff


class GrassmannElement:
    """Multivector in a finite Grassmann algebra with a fixed generator count."""

    __slots__ = ("generator_count", "terms")

    def __init__(self, generator_count: int, terms: dict | None = None):
        if generator_count % 2:
            raise ValueError("generator count must be even (conjugate pairs)")
        object.__setattr__(self, "generator_count", generator_count)
        # the one zero rule: a coefficient's truth value, which for mpc is one tuple compare
        object.__setattr__(self, "terms", {m: c for m, c in (terms or {}).items() if c})

    def __setattr__(self, *_):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def scalar(cls, g: int, value) -> "GrassmannElement":
        return cls(g, {0: value})

    @classmethod
    def generator(cls, g: int, index: int) -> "GrassmannElement":
        if not 0 <= index < g:
            raise ValueError("generator index out of range")
        return cls(g, {1 << index: 1})

    # -- structure -----------------------------------------------------------

    @property
    def body(self):
        return self.terms.get(0, 0)

    def soul(self) -> "GrassmannElement":
        return GrassmannElement(
            self.generator_count, {m: c for m, c in self.terms.items() if m}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "GrassmannElement"):
        if self.generator_count != other.generator_count:
            raise GeneratorMismatch(
                f"{self.generator_count} vs {other.generator_count} generators"
            )

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.generator_count, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(terms, m, c)
        return GrassmannElement(self.generator_count, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(
            self.generator_count, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.generator_count, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return GrassmannElement(
                self.generator_count,
                {m: c * other for m, c in self.terms.items()},
            )
        self._check(other)
        terms: dict = {}
        for ml, cl in self.terms.items():
            for mr, cr in other.terms.items():
                if ml & mr:
                    continue
                _accumulate(terms, ml | mr, _product_sign(ml, mr) * cl * cr)
        return GrassmannElement(self.generator_count, terms)

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def conjugate(self) -> "GrassmannElement":
        """Antilinear involution: (xy)* = y* x*, star swaps each generator pair.

        Reversing a degree-k monomial costs k(k-1)/2 transpositions; starring
        then reorders each complete pair (a_i, a_i*), one more apiece.
        """
        unstarred = sum(1 << i for i in range(0, self.generator_count, 2))
        terms: dict = {}
        for mono, coeff in self.terms.items():
            starred = ((mono & unstarred) << 1) | ((mono >> 1) & unstarred)
            k = mono.bit_count()
            pairs = (mono & (mono >> 1) & unstarred).bit_count()
            sign = -1 if (k * (k - 1) // 2 + pairs) & 1 else 1
            _accumulate(terms, starred, sign * coeff.conjugate())
        return GrassmannElement(self.generator_count, terms)

    def __eq__(self, other):
        if isinstance(other, GrassmannElement):
            return (
                self.generator_count == other.generator_count
                and self.terms == other.terms
            )
        return self.soul().is_zero and self.body == other

    def __hash__(self):
        return hash((self.generator_count, frozenset(self.terms.items())))

    def debug_terms(self):
        """Sorted (generator indices, coefficient) pairs; not a stability guarantee."""
        return sorted(((_indices(m), c) for m, c in self.terms.items()), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        if not self.terms:
            return "GrassmannElement(0)"
        bits = []
        for mono, coeff in self.debug_terms():
            name = "".join(f"a{i // 2}{'*' if i % 2 else ''}" for i in mono) or "1"
            bits.append(f"({coeff})*{name}")
        return " + ".join(bits)


def berezin_integrate(x: GrassmannElement, order) -> GrassmannElement:
    """Iterated Berezin integral, innermost (rightmost in `order`) first.

    For each generator: monomials not containing it are dropped; in the rest
    the generator is anticommuted past the lower ones to the front and removed.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("integration generators must be distinct")
    current = x
    for gen in reversed(order):
        bit = 1 << gen
        terms: dict = {}
        for mono, coeff in current.terms.items():
            if mono & bit:
                sign = -1 if (mono & (bit - 1)).bit_count() & 1 else 1
                _accumulate(terms, mono ^ bit, sign * coeff)
        current = GrassmannElement(x.generator_count, terms)
    return current


# -- even-element calculus -----------------------------------------------------


def _require_even(w: GrassmannElement):
    if any(mono.bit_count() & 1 for mono in w.terms):
        raise ValueError("element is not purely even")


def _soul_series(soul: GrassmannElement, first, coeffs) -> GrassmannElement:
    """first + sum_(j>=1) coeffs(j) soul^j, added in j order.

    The powers of an even soul vanish past j = g/2, so the sum stops there or
    at the first zero power; coeffs(j) is called only for a nonzero power.
    """
    g = soul.generator_count
    out = GrassmannElement.scalar(g, first)
    power = GrassmannElement.scalar(g, 1)
    for j in range(1, g // 2 + 1):
        power = power * soul
        if power.is_zero:
            break
        out = out + power * coeffs(j)
    return out


def even_inverse(w: GrassmannElement) -> GrassmannElement:
    """Exact inverse of an even element via the terminating geometric series around the body."""
    _require_even(w)
    body = w.body
    if not body:
        raise NonInvertibleBody("even element has zero body")
    inv_body = _scalar_inverse(body)
    # w = body (1 + s), s = soul / body
    return _soul_series(w.soul() * inv_body, 1, lambda k: (-1) ** k) * inv_body


def _scalar_inverse(c):
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, (Fraction, GaussianRational)):
        return 1 / c
    return 1 / mpc(c)


@dataclass(frozen=True)
class BesselSeries:
    """The even Bessel kernel R(nu, w) = sum_k w^k/(k!(k+nu)!) as a series.

    Termwise d/dw R(nu, w) = R(nu+1, w), so the j-th derivative is the series
    of order nu + j.  `sums` holds each R(s, body) at one precision, summed
    once; pass one dict to share sums between series of several orders.

    The Haar oracle sums the kernel here, in mpc on its own term recurrence,
    rather than with `precision.bessel_ratio_raw`: the closed forms it is
    compared with sum with that kernel, so a fault there would show on both
    sides of the comparison and cancel.
    """

    nu: int
    sums: dict = field(default_factory=dict, compare=False, repr=False)

    def eval_at(self, body, prec: Precision):
        """Sum on the term recurrence t_(k+1) = t_k w/((k+1)(k+1+nu)), t_0 = 1/nu!.

        Stops once two consecutive term magnitudes drop below 2^-(bits+guard)
        times the largest partial-sum magnitude seen so far (two, so that a
        single small term cannot end the sum early).  Raises
        TruncationCapExceeded when the rule is not met within the cap.
        Runs on raw libmp tuples with the calls mpc's operators make
        (mpc_add, mpc_abs, mpc_mul, mpc_div_mpf), so the sum is the one mpc
        arithmetic at work_bits gives.  When the body's imaginary part is
        exactly zero every imaginary part stays an exact zero, and those calls
        reduce to mpf_add, mpf_abs, mpf_mul and mpf_div on the real parts, so
        a real body is summed with them, to the same bits.
        """
        key = (self.nu, body, prec)
        if key in self.sums:
            return self.sums[key]
        nu = self.nu
        wp = prec.work_bits
        with mp.workprec(wp):
            b = to_mpc_any(body)._mpc_
        first = mpf_div(fone, from_int(math.factorial(nu)), wp, round_nearest)
        real = b[1] == fzero
        if real:
            add, absolute, mul, div = mpf_add, mpf_abs, mpf_mul, mpf_div
            b, term, total = b[0], first, fzero
        else:
            add, absolute, mul, div = mpc_add, mpc_abs, mpc_mul, mpc_div_mpf
            term, total = (first, fzero), mpc_zero
        max_mag = fone
        bound = mpf_shift(max_mag, -wp)  # 2^-(bits+guard) max_mag, exact
        small_run = 0
        for k in range(prec.truncation_cap):
            total = add(total, term, wp, round_nearest)
            mag = absolute(total, wp, round_nearest)
            if mpf_gt(mag, max_mag):
                max_mag = mag
                bound = mpf_shift(max_mag, -wp)
            if mpf_lt(absolute(term, wp, round_nearest), bound):
                small_run += 1
                if small_run >= 2:
                    self.sums[key] = value = mp.make_mpc((total, fzero) if real else total)
                    return value
            else:
                small_run = 0
            term = mul(term, b, wp, round_nearest)
            term = div(term, from_int((k + 1) * (k + 1 + nu)), wp, round_nearest)
        raise TruncationCapExceeded(
            f"series did not converge within {prec.truncation_cap} terms"
        )


def analytic_eval(series, w: GrassmannElement, prec: Precision = DEFAULT_PRECISION) -> GrassmannElement:
    """f(body + soul) = sum_j f^(j)(body) soul^j / j!, exact in the soul.

    `w` must be even and `series` is a `BesselSeries`.  The soul
    expansion terminates by nilpotency; the j-th derivative at the body is
    R(nu+j, body) by the order shift, summed adaptively on its own recurrence
    under the precision's truncation rules.
    The soul products are rounded at prec.work_bits, whatever the caller's
    mpmath precision.
    """
    _require_even(w)
    body = w.body

    def coeff(j):
        return BesselSeries(series.nu + j, series.sums).eval_at(body, prec) / math.factorial(j)

    with mp.workprec(prec.work_bits):
        return _soul_series(w.soul(), series.eval_at(body, prec), coeff)


# -- block supermatrices --------------------------------------------------------


class SuperMatrixSym:
    """(m+n) x (m+n) matrix over the algebra with block-consistent parity."""

    __slots__ = ("m", "n", "entries", "generator_count")

    def __init__(self, m: int, n: int, entries):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != m + n or any(len(r) != m + n for r in rows):
            raise ValueError("entries must form an (m+n) x (m+n) matrix")
        g = rows[0][0].generator_count
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "generator_count", g)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                want = (i < m) != (j < m)
                if any(mono.bit_count() & 1 != want for mono in e.terms):
                    raise ValueError(f"entry ({i},{j}) has wrong parity")

    def __setattr__(self, *_):
        raise AttributeError("SuperMatrixSym is immutable")

    @classmethod
    def identity(cls, m: int, n: int, g: int) -> "SuperMatrixSym":
        return cls.diagonal(m, n, g, [1] * (m + n))

    @classmethod
    def diagonal(cls, m: int, n: int, g: int, values) -> "SuperMatrixSym":
        size = m + n
        values = list(values)
        if len(values) != size:
            raise ValueError("need m+n diagonal values")
        rows = [
            [
                GrassmannElement.scalar(g, values[i] if i == j else 0)
                for j in range(size)
            ]
            for i in range(size)
        ]
        return cls(m, n, rows)

    def __matmul__(self, other: "SuperMatrixSym") -> "SuperMatrixSym":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("block shapes differ")
        rows = matmul_rows(self.entries, other.entries)
        return SuperMatrixSym(self.m, self.n, rows)

    def __add__(self, other: "SuperMatrixSym") -> "SuperMatrixSym":
        size = self.m + self.n
        rows = [
            [self.entries[i][j] + other.entries[i][j] for j in range(size)]
            for i in range(size)
        ]
        return SuperMatrixSym(self.m, self.n, rows)

    def scale(self, c) -> "SuperMatrixSym":
        size = self.m + self.n
        rows = [[self.entries[i][j] * c for j in range(size)] for i in range(size)]
        return SuperMatrixSym(self.m, self.n, rows)

    def adjoint(self) -> "SuperMatrixSym":
        size = self.m + self.n
        rows = [
            [self.entries[j][i].conjugate() for j in range(size)] for i in range(size)
        ]
        return SuperMatrixSym(self.m, self.n, rows)

    def block(self, which: str):
        m, n = self.m, self.n
        if which == "bb":
            return [[self.entries[i][j] for j in range(m)] for i in range(m)]
        if which == "bf":
            return [[self.entries[i][m + j] for j in range(n)] for i in range(m)]
        if which == "fb":
            return [[self.entries[m + i][j] for j in range(m)] for i in range(n)]
        if which == "ff":
            return [[self.entries[m + i][m + j] for j in range(n)] for i in range(n)]
        raise ValueError(which)

    def is_identity(self) -> bool:
        size = self.m + self.n
        for i in range(size):
            for j in range(size):
                e = self.entries[i][j]
                if i == j:
                    if not (e - 1).is_zero:
                        return False
                elif not e.is_zero:
                    return False
        return True


def matmul_rows(a, b):
    """Row-list matrix product; each entry sums left to right from its first product."""
    return [
        [sum((x * y for x, y in zip(row[1:], col[1:])), row[0] * col[0]) for col in zip(*b)]
        for row in a
    ]


def supertrace(M: SuperMatrixSym) -> GrassmannElement:
    """Trace of the boson block minus trace of the fermion block."""
    acc = GrassmannElement.scalar(M.generator_count, 0)
    for i in range(M.m):
        acc = acc + M.entries[i][i]
    for j in range(M.n):
        acc = acc - M.entries[M.m + j][M.m + j]
    return acc


def _even_matrix_det(rows) -> GrassmannElement:
    """Cofactor determinant of a small matrix with even (commuting) entries."""
    k = len(rows)
    if k == 0:
        raise ValueError("empty matrix")
    if k == 1:
        return rows[0][0]
    g = rows[0][0].generator_count
    acc = GrassmannElement.scalar(g, 0)
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _even_matrix_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def superdeterminant(M: SuperMatrixSym) -> GrassmannElement:
    """det(A - B D^-1 C) / det(D) in block form; needs det(D) with invertible body."""
    m, n = M.m, M.n
    A, B, C, D = M.block("bb"), M.block("bf"), M.block("fb"), M.block("ff")
    det_d = _even_matrix_det(D)
    inv_det_d = even_inverse(det_d)
    # D^-1 by the adjugate
    if n == 1:
        Dinv = [[inv_det_d]]
    else:
        Dinv = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [
                    [D[r][c] for c in range(n) if c != i] for r in range(n) if r != j
                ]
                cof = _even_matrix_det(minor)
                if (i + j) % 2:
                    cof = -cof
                row.append(cof * inv_det_d)
            Dinv.append(row)
    # A - B Dinv C
    top = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = A[i][j]
            for r in range(n):
                for s in range(n):
                    acc = acc - B[i][r] * Dinv[r][s] * C[s][j]
            row.append(acc)
        top.append(row)
    return _even_matrix_det(top) * inv_det_d


def exp_odd_block(alphas) -> SuperMatrixSym:
    """exp of the off-diagonal supermatrix with upper block i*alpha, lower i*alpha*.

    alphas is an m x n array of odd elements (the supermatrix constructor
    refuses any other); nilpotency terminates the series.
    Coefficients stay exact (Gaussian rationals over the input ring).
    """
    m, n = len(alphas), len(alphas[0])
    g = alphas[0][0].generator_count
    size = m + n
    zero = GrassmannElement.scalar(g, 0)
    i_unit = I_EXACT
    omega_rows = [[zero for _ in range(size)] for _ in range(size)]
    for a in range(m):
        for b in range(n):
            al = alphas[a][b]
            omega_rows[a][m + b] = al * i_unit
            omega_rows[m + b][a] = al.conjugate() * i_unit
    omega = SuperMatrixSym(m, n, omega_rows)
    out = SuperMatrixSym.identity(m, n, g)
    power = SuperMatrixSym.identity(m, n, g)
    kfact = 1
    for k in range(1, 2 * m * n + 2):
        power = power @ omega
        if all(e.is_zero for row in power.entries for e in row):
            break
        kfact *= k
        out = out + power.scale(Fraction(1, kfact))
    return out
