"""Brute-force supergroup integration by explicit Haar parametrization.

Factorizes U = U_o U_g into an ordinary block-diagonal part and the
exponential of the odd block, integrates the ordinary groups in closed form,
and performs the remaining Berezin integral over the odd parameters exactly.
Supported block shapes: (1,1) and (2,1), with their invariant-measure
correction factors

    T(1,1) = 1,
    T(2,1) = 1 - (a11 a11* + a21 a21*) / 3.

The Berezin measure is d a11 d a11* d a21 d a21* ... applied innermost-first
with unit normalization; the ordinary-group measures are normalized to total
volume 1.  That normalization is frozen once: it reproduces the closed
determinant form of the one-source integral at (1,1), and is then used
unchanged for (2,1).
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc

from .errors import NonInvertibleBody
from .grassmann import (
    EvenElement,
    GrassmannElement,
    SuperMatrixSym,
    analytic_eval,
    berezin_integrate,
    bessel_series,
    even_inverse,
    exp_odd_block,
    matmul_rows,
)
from .precision import DEFAULT_PRECISION, BigComplex, Precision, to_mpc_any


def odd_parameter_matrix(m: int, n: int, g: int | None = None, offset: int = 0):
    """m x n array of odd generators a_(offset+k), paired with their stars."""
    if g is None:
        g = 2 * m * n + 2 * offset
    return [
        [GrassmannElement.generator(g, 2 * (offset + i * n + j)) for j in range(n)]
        for i in range(m)
    ]


def measure_factor(m: int, n: int, alphas) -> GrassmannElement:
    """Odd-variable density of the invariant measure for the supported shapes."""
    g = alphas[0][0].generator_count
    one = GrassmannElement.scalar(g, 1)
    if (m, n) == (1, 1):
        return one
    if (m, n) == (2, 1):
        acc = GrassmannElement.scalar(g, 0)
        for i in range(2):
            al = alphas[i][0]
            acc = acc + al * al.conjugate()
        return one - acc * Fraction(1, 3)
    raise ValueError(f"unsupported block shape ({m}, {n})")


def measure_order(m: int, n: int, offset: int = 0):
    """Berezin integration order: a11, a11*, a21, a21*, ... (row-major pairs)."""
    order = []
    for idx in range(m * n):
        order.append(2 * (offset + idx))
        order.append(2 * (offset + idx) + 1)
    return order


def _newton_eigen_pair(M, prec: Precision):
    """Both eigenvalues of a 2x2 even-entry matrix with distinct diagonal bodies.

    Solves the characteristic quadratic by Newton iteration seeded at each
    diagonal body; nilpotent corrections converge in a few exact steps, so no
    square root of an algebra element is ever formed.
    """
    trace = EvenElement(M[0][0] + M[1][1])
    det = EvenElement(M[0][0] * M[1][1] - M[0][1] * M[1][0])
    g = trace.generator_count
    bodies = [M[0][0].body, M[1][1].body]
    if bodies[0] == bodies[1]:
        raise NonInvertibleBody("coinciding diagonal bodies: eigenvalues not separated")
    # soul accuracy doubles per step, so log2(g) + 2 steps saturate the algebra;
    # with inexact coefficients the residual never becomes exactly zero,
    # hence a fixed iteration count rather than a residual test
    steps = max(3, g.bit_length() + 2)
    eigen = []
    for body in bodies:
        x = EvenElement.scalar(g, body)
        for _ in range(steps):
            p = x * x - trace * x + det
            if p.element.is_zero:
                break
            dp = 2 * x - trace
            x = x - p * even_inverse(dp)
        eigen.append(x)
    return eigen


def _ordinary_ls_factor(eigen, beta, prec: Precision) -> EvenElement:
    """Closed-form one-source integral of an ordinary unitary group, on even arguments.

    eigen are the (even-element) squared eigenvalues; the k x k determinant of
    lambda^(k-i) I_(k-i)(2 beta lambda) entries over the squared-eigenvalue
    series, divided by their Vandermonde.  Supports k in {1, 2}.
    """
    k = len(eigen)
    # R(s, body) by order and body: both entries at one eigenvalue share R(1), R(2)
    sums = {}

    def entry(nu, x):
        # beta^nu x^nu R(nu, beta^2 x) via the even-series calculus
        w = x * (beta * beta)
        core = analytic_eval(bessel_series(nu, sums), w, prec)
        out = core
        for _ in range(nu):
            out = out * x
        if nu:
            out = EvenElement(out.element * (beta ** nu))
        return out

    if k == 1:
        return entry(0, eigen[0])
    if k == 2:
        e11, e12 = entry(1, eigen[0]), entry(1, eigen[1])
        e01, e02 = entry(0, eigen[0]), entry(0, eigen[1])
        num = e11 * e02 - e12 * e01
        den = even_inverse(eigen[0] - eigen[1])
        # prefactor C_2 beta^((2-4)/2) = 1/beta
        return EvenElement(num.element * den.element * (1 / beta))
    raise ValueError("ordinary factor implemented for 1 and 2 eigenvalues")


def brute_force_ls(m: int, n: int, a_diag, b_diag, beta, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Full Berezin-and-ordinary-group integral for diagonal numeric sources.

    a_diag and b_diag hold the m+n diagonal entries of the two source
    supermatrices.  For (2, 1) the two boson products a_i b_i must differ,
    else the intermediate eigenvalue formulas are singular.
    """
    if (m, n) not in ((1, 1), (2, 1)):
        raise ValueError("supported block shapes: (1,1) and (2,1)")
    size = m + n
    a_diag = list(a_diag)
    b_diag = list(b_diag)
    if len(a_diag) != size or len(b_diag) != size:
        raise ValueError("need m+n diagonal values per source")
    g = 2 * m * n
    with mp.workprec(prec.work_bits):
        beta_v = to_mpc_any(beta)
        a_vals = [to_mpc_any(v) for v in a_diag]
        b_vals = [to_mpc_any(v) for v in b_diag]
        alphas = odd_parameter_matrix(m, n, g)
        u_g = exp_odd_block(alphas)
        a_mat = SuperMatrixSym.diagonal(m, n, g, a_vals)
        b_mat = SuperMatrixSym.diagonal(m, n, g, b_vals)
        a_twist = u_g @ a_mat          # boson/fermion blocks feed the ordinary integrals
        b_twist = b_mat @ u_g.adjoint()
        mb = matmul_rows(a_twist.block("bb"), b_twist.block("bb"))
        mf = matmul_rows(a_twist.block("ff"), b_twist.block("ff"))
        if m == 1:
            bos_eigen = [EvenElement(mb[0][0])]
        else:
            bos_eigen = _newton_eigen_pair(mb, prec)
        ferm_eigen = [EvenElement(mf[0][0])]
        bos_factor = _ordinary_ls_factor(bos_eigen, beta_v, prec)
        # fermion block integrand carries exp(-beta tr(...)): even series, same value
        ferm_factor = _ordinary_ls_factor(ferm_eigen, -beta_v, prec)
        integrand = measure_factor(m, n, alphas) * bos_factor.element * ferm_factor.element
        reduced = berezin_integrate(integrand, measure_order(m, n))
        if not reduced.soul().is_zero:
            raise RuntimeError("odd directions did not integrate out")
        return BigComplex.from_mpc(mpc(reduced.body), prec.bits)


def brute_force_ls_supermatrix_11(
    a_mat: SuperMatrixSym, b_mat: SuperMatrixSym, beta, prec: Precision = DEFAULT_PRECISION
) -> GrassmannElement:
    """(1,1) brute force for general source supermatrices over an extended algebra.

    The group's own odd pair must be generators 0 and 1; any further
    generators in the sources survive into the returned element.  Used as the
    oracle for the non-diagonalizable merging limits.
    """
    g = a_mat.generator_count
    if g < 2 or b_mat.generator_count != g:
        raise ValueError("sources must share an algebra with generators 0,1 reserved")
    with mp.workprec(prec.work_bits):
        beta_v = to_mpc_any(beta)
        alphas = [[GrassmannElement.generator(g, 0)]]
        u_g = exp_odd_block(alphas)
        a_twist = u_g @ a_mat
        b_twist = b_mat @ u_g.adjoint()
        x = EvenElement(a_twist.entries[0][0] * b_twist.entries[0][0])
        y = EvenElement(a_twist.entries[1][1] * b_twist.entries[1][1])
        bos = _ordinary_ls_factor([x], beta_v, prec)
        ferm = _ordinary_ls_factor([y], -beta_v, prec)
        integrand = measure_factor(1, 1, alphas) * bos.element * ferm.element
        return berezin_integrate(integrand, [0, 1])
