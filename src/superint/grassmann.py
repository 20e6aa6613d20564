"""Finite Grassmann algebra, Berezin integration and block supermatrices.

Generators come in conjugate pairs ordered a_0 < a_0* < a_1 < a_1* < ...;
generator 2i is a_i and generator 2i+1 is its star partner.  A monomial is
stored as an int bitmask with bit i set when generator i is present (the
bitmap basis-blade representation of Dorst, Fontijne & Mann, *Geometric
Algebra for Computer Science*): the monomial reads in ascending generator
order, and every sign in the algebra is the parity of a count of set bits.

Coefficients come from one of three rings, and all operations are
coefficient-ring agnostic:
  - exact: int, Fraction and GaussianRational, which the odd-block
    exponential and the measure densities are built in;
  - multiprecision: mpf and mpc, each product rounded to nearest at the
    ambient precision, relative to its size;
  - fixed point: FixedGaussian, (re + i im) 2^-F on int parts at a scale F
    its caller picks, with exact sums and products by ints and each other
    product floored, an absolute error below 2^-F per part.  The Haar
    oracle's points run on it (`bruteforce.brute_force_ls`): a product
    costs about 1.3 us at F = 320 against about 4.6 us for an mpc product
    at 288 bits (Python 3.11, mpmath on Python ints).
Ints mix with every ring, with FixedGaussian in products and as the
numerator of an inverse only; no other two rings are mixed, and two
FixedGaussians combine only at one scale.  Each coefficient type
is false at zero and has conjugate(), which the one zero rule and the
conjugation use.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp, mpc

from .errors import GeneratorMismatch, NonInvertibleBody
from .precision import DEFAULT_PRECISION, Precision, Slotted, from_fixed, to_mpc_any, to_mpf


class GaussianRational(Slotted):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        super().__init__(Fraction(re), Fraction(im))

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


def _grid_part(x, fbits: int) -> int:
    """floor(x 2^fbits) for a real int, Fraction or mpf; the sign of an mpf is read from its _mpf_ tuple."""
    if isinstance(x, int):
        return x << fbits
    if isinstance(x, Fraction):
        return (x.numerator << fbits) // x.denominator
    sign, man, exp, _ = x._mpf_
    shift = exp + fbits
    man = -man if sign else man
    return man << shift if shift >= 0 else man >> -shift


class FixedGaussian(Slotted):
    """Fixed-point Gaussian integer: the complex number (re + i im) 2^-fbits, with int re and im.

    The Haar oracle's coefficient ring.  Its caller picks the scale fbits,
    and every value carries it: combining two values at different scales
    raises ValueError.  Error budget, in units u = 2^-fbits per part:
      - entry (`of`): floor onto the grid, an error in (-u, 0]; none for an
        int, nor for an mpf whose lowest set bit is at least u;
      - + and -, a product by an int, negation and conjugate(): exact;
      - a product of two values: the exact product of the stored values,
        floored, an error in (-u, 0] per part;
      - the inverse (`1 / z`, `n / z` for an int n): floor(n 2^(2 fbits)
        conj(z) / |z|^2) of the stored value, an error in (-u, 0] per part.
    Every error is absolute, so a value of magnitude 2^-k holds about k bits
    fewer than fbits relative ones; the caller's scale must leave a margin
    over the relative precision it needs.  to_mpc() rounds to nearest at the
    ambient precision.  A value is false at zero.
    """

    __slots__ = ("re", "im", "fbits")

    @classmethod
    def of(cls, x, fbits: int) -> "FixedGaussian":
        """x on the grid 2^-fbits, each part floored: an int, Fraction, GaussianRational or what to_mpc_any takes."""
        if isinstance(x, GaussianRational):
            parts = x.re, x.im
        elif isinstance(x, (int, Fraction)):
            parts = x, 0
        else:
            z = to_mpc_any(x)
            parts = z.real, z.imag
        return _fixed(_grid_part(parts[0], fbits), _grid_part(parts[1], fbits), fbits)

    def __add__(self, other):
        if other.__class__ is not FixedGaussian:
            return NotImplemented
        if other.fbits != self.fbits:
            _scales_differ(self, other)
        return _fixed(self.re + other.re, self.im + other.im, self.fbits)

    def __sub__(self, other):
        if other.__class__ is not FixedGaussian:
            return NotImplemented
        if other.fbits != self.fbits:
            _scales_differ(self, other)
        return _fixed(self.re - other.re, self.im - other.im, self.fbits)

    def __neg__(self):
        return _fixed(-self.re, -self.im, self.fbits)

    def __mul__(self, other):
        f = self.fbits
        if other.__class__ is FixedGaussian:
            if other.fbits != f:
                _scales_differ(self, other)
            a, b, c, d = self.re, self.im, other.re, other.im
            # three int products: ac - bd = k - b(c + d) and ad + bc = k + a(d - c), k = c(a + b)
            k = c * (a + b)
            return _fixed((k - b * (c + d)) >> f, (k + a * (d - c)) >> f, f)
        if isinstance(other, int):
            return _fixed(self.re * other, self.im * other, f)
        return NotImplemented

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("fixed-point inverse of zero")
        shift = 2 * self.fbits
        return _fixed((other * self.re << shift) // norm, (-other * self.im << shift) // norm, self.fbits)

    def conjugate(self):
        return _fixed(self.re, -self.im, self.fbits)

    def __bool__(self):
        return bool(self.re or self.im)

    def to_mpc(self) -> mpc:
        return from_fixed(self.re, self.im, self.fbits)


def _scales_differ(x: FixedGaussian, y: FixedGaussian):
    raise ValueError(f"fixed-point scales differ: 2^-{x.fbits} and 2^-{y.fbits}")


_new_fixed = object.__new__
_set_re, _set_im, _set_fbits = FixedGaussian.re.__set__, FixedGaussian.im.__set__, FixedGaussian.fbits.__set__


def _fixed(re: int, im: int, fbits: int) -> FixedGaussian:
    """A FixedGaussian built without the Slotted constructor, which would add about two fifths to a product."""
    z = _new_fixed(FixedGaussian)
    _set_re(z, re)
    _set_im(z, im)
    _set_fbits(z, fbits)
    return z


def _reorder_is_odd(left: int, right: int) -> bool:
    """Whether sorting the concatenated monomials left, right into ascending order is odd.

    Each generator of right moves past every higher generator of left.
    """
    swaps = 0
    left >>= 1
    while left:
        swaps += (left & right).bit_count()
        left >>= 1
    return bool(swaps & 1)


def _indices(mono: int) -> tuple:
    return tuple(i for i in range(mono.bit_length()) if mono >> i & 1)


def _accumulate(terms: dict, mono: int, coeff):
    """Add coeff into terms[mono], or store it there as it is when mono is new.

    The element constructor drops a zero sum.
    """
    terms[mono] = terms[mono] + coeff if mono in terms else coeff


class GrassmannElement(Slotted):
    """Multivector in a finite Grassmann algebra with a fixed generator count."""

    __slots__ = ("generator_count", "terms")

    def __init__(self, generator_count: int, terms: dict | None = None):
        if generator_count % 2:
            raise ValueError("generator count must be even (conjugate pairs)")
        # set here, not by Slotted.__init__, whose call would add about 3% to a
        # (2|1) Haar point, which builds about 200 elements
        object.__setattr__(self, "generator_count", generator_count)
        # the one zero rule: a coefficient's truth value, which for mpc is one tuple compare
        object.__setattr__(self, "terms", {m: c for m, c in (terms or {}).items() if c})

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
        # term by term, so -other is never built
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.generator_count, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] - c if m in terms else -c
        return GrassmannElement(self.generator_count, terms)

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
                c = cl * cr
                _accumulate(terms, ml | mr, -c if _reorder_is_odd(ml, mr) else c)
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
    if not all(0 <= gen < x.generator_count for gen in order):
        raise ValueError("generator index out of range")
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


def _soul_series(soul: GrassmannElement) -> list:
    """The nonzero powers soul, soul^2, ... of an even soul, in order.

    The powers vanish past j = g/2, so the list stops there or before the
    first zero power.  The first power is formed as 1 * soul, as a series
    from the unit does.  even_inverse and analytic_eval sum their series
    f(b + s) = sum_j f^(j)(b) s^j / j! over these powers; analytic_eval
    shares one list between all its orders.
    """
    powers = []
    power = GrassmannElement.scalar(soul.generator_count, 1)
    for _ in range(soul.generator_count // 2):
        power = power * soul
        if power.is_zero:
            break
        powers.append(power)
    return powers


def even_inverse(w: GrassmannElement) -> GrassmannElement:
    """Exact inverse of an even element via the terminating geometric series around the body.

    With s = soul / body, 1/w = (1 - s + s^2 - ...) / body; each power is
    added or subtracted in j order, never multiplied by (-1)^j.
    """
    _require_even(w)
    body = w.body
    if not body:
        raise NonInvertibleBody("even element has zero body")
    inv_body = _scalar_inverse(body)
    out = GrassmannElement.scalar(w.generator_count, 1)
    for j, power in enumerate(_soul_series(w.soul() * inv_body), 1):
        out = out - power if j % 2 else out + power
    return out * inv_body


def _scalar_inverse(c):
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, (Fraction, GaussianRational, FixedGaussian)):
        return 1 / c
    return 1 / mpc(c)


@functools.lru_cache(maxsize=16)
def _bessel_kernel(nu: int, body, prec: Precision):
    """R(nu, body) = sum_k body^k/(k!(k+nu)!) = 0F1(; nu+1; body) / nu! as an mpc at prec.work_bits.

    The Haar oracle takes the kernel from mpmath's hypergeometric series
    rather than from `precision.bessel_ratio_raw`: the closed forms it is
    compared with sum with that kernel, so a fault there would show on both
    sides of the comparison and cancel.  mpmath sums the series term by term,
    raising its own precision until the cancellation it measures is covered,
    so `prec.truncation_cap` does not bound it.  One U(k) factor reads at
    most 8 (nu, body) pairs, so the cache holds a factor's entries.
    """
    with mp.workprec(prec.work_bits):
        return mp.hyp0f1(nu + 1, to_mpc_any(body), force_series=True) / math.factorial(nu)


def analytic_eval(orders, w: GrassmannElement, prec: Precision = DEFAULT_PRECISION) -> list:
    """[R(nu, body + soul) for nu in orders], each sum_j R^(j)(nu, body) soul^j / j!, exact in the soul.

    `w` must be even.  The soul expansion terminates by nilpotency; termwise
    d/dw R(nu, w) = R(nu+1, w), so the j-th derivative at the body is
    R(nu+j, body), each from `_bessel_kernel`.  One list of soul powers
    (`_soul_series`) serves every order, and each order's terms are added
    in j order, so an element equals the one a single order's series gives,
    term for term.  The soul products are rounded at prec.work_bits,
    whatever the caller's mpmath precision.  When w has FixedGaussian
    coefficients, each coefficient R(nu+j, body) / j! is taken at
    prec.work_bits and put on their grid by `FixedGaussian.of`, so the
    series stays in the fixed-point ring.
    """
    _require_even(w)
    body = w.body
    fbits = next((c.fbits for c in w.terms.values() if c.__class__ is FixedGaussian), None)

    def coefficient(nu, j):
        value = _bessel_kernel(nu + j, body, prec)
        value = value / math.factorial(j) if j else value
        return value if fbits is None else FixedGaussian.of(value, fbits)

    with mp.workprec(prec.work_bits):
        powers = _soul_series(w.soul())
        return [
            sum(
                (s * coefficient(nu, j) for j, s in enumerate(powers, 1)),
                GrassmannElement.scalar(w.generator_count, coefficient(nu, 0)),
            )
            for nu in orders
        ]


# -- block supermatrices --------------------------------------------------------


class SuperMatrixSym(Slotted):
    """(m+n) x (m+n) matrix over the algebra with block-consistent parity."""

    __slots__ = ("m", "n", "entries")

    def __init__(self, m: int, n: int, entries):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != m + n or any(len(r) != m + n for r in rows):
            raise ValueError("entries must form an (m+n) x (m+n) matrix")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                want = (i < m) != (j < m)
                if any(mono.bit_count() & 1 != want for mono in e.terms):
                    raise ValueError(f"entry ({i},{j}) has wrong parity")
        super().__init__(m, n, rows)

    @property
    def generator_count(self) -> int:
        return self.entries[0][0].generator_count

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
        """The block named by its row and column sectors, "bb", "bf", "fb" or "ff"."""
        if which not in ("bb", "bf", "fb", "ff"):
            raise ValueError(which)
        sectors = {"b": range(self.m), "f": range(self.m, self.m + self.n)}
        rows, cols = sectors[which[0]], sectors[which[1]]
        return [[self.entries[i][j] for j in cols] for i in rows]


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


def _cofactor(rows, r: int, c: int) -> GrassmannElement:
    """(-1)^(r+c) times the determinant of rows without row r and column c."""
    minor = _even_matrix_det([row[:c] + row[c + 1 :] for row in rows[:r] + rows[r + 1 :]])
    return -minor if (r + c) % 2 else minor


def _even_matrix_det(rows) -> GrassmannElement:
    """Cofactor determinant of a small matrix with even (commuting) entries.

    Expands along the first row and sums left to right from its first term,
    so a 2x2 determinant is M00 M11 - M01 M10.
    """
    k = len(rows)
    if k == 0:
        raise ValueError("empty matrix")
    if k == 1:
        return rows[0][0]
    terms = [rows[0][j] * _cofactor(rows, 0, j) for j in range(k)]
    return sum(terms[1:], terms[0])


def superdeterminant(M: SuperMatrixSym) -> GrassmannElement:
    """det(A - B D^-1 C) / det(D) in block form; needs det(D) with invertible body."""
    A, B, C, D = M.block("bb"), M.block("bf"), M.block("fb"), M.block("ff")
    inv_det_d = even_inverse(_even_matrix_det(D))
    # D^-1 by the adjugate
    Dinv = [[inv_det_d]] if M.n == 1 else [[_cofactor(D, j, i) * inv_det_d for j in range(M.n)] for i in range(M.n)]
    bdc = matmul_rows(matmul_rows(B, Dinv), C)
    top = [[a - x for a, x in zip(row_a, row_x)] for row_a, row_x in zip(A, bdc)]
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
    omega_rows = [[zero for _ in range(size)] for _ in range(size)]
    for a in range(m):
        for b in range(n):
            al = alphas[a][b]
            omega_rows[a][m + b] = al * I_EXACT
            omega_rows[m + b][a] = al.conjugate() * I_EXACT
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
