"""Brute-force supergroup integration by explicit Haar parametrization.

Factorizes U = U_o U_g into an ordinary block-diagonal part and the
exponential of the odd block, integrates the ordinary groups in closed form,
and performs the remaining Berezin integral over the odd parameters exactly.
One loop treats both sectors: each sector's diagonal block of the twisted
source product gives its eigenvalues, which feed one U(k) factor written for
any k, with no power of beta, since the closed form's powers cancel.  The
eigenvalue rule and the measure below cover k <= 2, so the supported block
shapes are (1,1) and (2,1), with their invariant-measure correction factors

    T(1,1) = 1,
    T(2,1) = 1 - (a11 a11* + a21 a21*) / 3.

The Berezin measure is d a11 d a11* d a21 d a21* ... applied innermost-first
with unit normalization; the ordinary-group measures are normalized to total
volume 1.  That normalization is frozen once: it reproduces the closed
determinant form of the one-source integral at (1,1), and is then used
unchanged for (2,1).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from mpmath import mp, mpc

from .errors import NonInvertibleBody
from .grassmann import (
    GrassmannElement,
    SuperMatrixSym,
    _even_matrix_det,
    analytic_eval,
    berezin_integrate,
    even_inverse,
    exp_odd_block,
    matmul_rows,
)
from .precision import DEFAULT_PRECISION, BigComplex, Precision, to_mpc_any


def odd_parameter_matrix(m: int, n: int):
    """m x n array of odd generators a_k, k = i n + j, each paired with its star."""
    g = 2 * m * n
    return [[GrassmannElement.generator(g, 2 * (i * n + j)) for j in range(n)] for i in range(m)]


def measure_factor(m: int, n: int, alphas) -> GrassmannElement:
    """Odd-variable density of the invariant measure for the supported shapes."""
    g = alphas[0][0].generator_count
    one = GrassmannElement.scalar(g, 1)
    if (m, n) == (1, 1):
        return one
    if (m, n) == (2, 1):
        acc = sum((al * al.conjugate() for (al,) in alphas), GrassmannElement.scalar(g, 0))
        return one - acc * Fraction(1, 3)
    raise ValueError(f"unsupported block shape ({m}, {n})")


def measure_order(m: int, n: int):
    """Berezin integration order: a11, a11*, a21, a21*, ... (row-major pairs)."""
    return list(range(2 * m * n))


def _newton_steps(g: int) -> int:
    """Newton steps that make a body-seeded root exact over g generators: floor(log2 g).

    Seeded at the body, the error is soul of degree >= 2 and each step squares
    it, so after k steps it lies in degree >= 2^(k+1), which vanishes once
    2^(k+1) > g.
    """
    return g.bit_length() - 1


def _newton_eigen_pair(M, prec: Precision):
    """Both eigenvalues of a 2x2 even-entry matrix with distinct diagonal bodies.

    The body of M must be diagonal, so its diagonal bodies are the body
    eigenvalues.  Solves the characteristic quadratic by Newton iteration
    seeded at each diagonal body; nilpotent corrections converge in
    `_newton_steps(g)` exact steps, so no square root of an algebra element is
    ever formed.
    """
    trace = M[0][0] + M[1][1]
    det = _even_matrix_det(M)
    g = trace.generator_count
    bodies = [M[0][0].body, M[1][1].body]
    if bodies[0] == bodies[1]:
        raise NonInvertibleBody("coinciding diagonal bodies: eigenvalues not separated")
    # with inexact coefficients the residual is rounding noise, never exactly
    # zero, so the count is fixed; exact inputs can stop at a zero residual
    steps = _newton_steps(g)
    eigen = []
    for body in bodies:
        x = GrassmannElement.scalar(g, body)
        for _ in range(steps):
            p = x * x - trace * x + det
            if p.is_zero:
                break
            x = x - p * even_inverse(2 * x - trace)
        eigen.append(x)
    return eigen


def _ordinary_ls_factor(eigen, beta, prec: Precision) -> GrassmannElement:
    """Closed-form one-source integral of U(k), k = len(eigen), on even arguments.

    eigen are the squared eigenvalues x_j, even elements with distinct bodies:
    C_k det[x_j^nu R(nu, beta^2 x_j)] / Delta(x), with nu = k-1-i in row i,
    C_k = prod_(j<k) j! and Delta(x) = prod_(i<j) (x_i - x_j).  The closed
    form's beta^nu in row nu and its prefactor beta^((k-k^2)/2) cancel, so
    neither is formed, and at beta = 0 the factor is the group's mass, 1.  At
    k = 1 the constant and Delta are 1.  Each x_j beta^2 is formed once and
    its k orders come from one `analytic_eval` call; C_k is 1 for k <= 2 and
    is then not multiplied in.
    """
    k = len(eigen)
    # column j: x_j^nu R(nu, beta^2 x_j) for nu = 0..k-1, x_j^nu taken one product at a time
    cols = [
        [functools.reduce(operator.mul, [x] * nu, v) for nu, v in enumerate(analytic_eval(range(k), x * (beta * beta), prec))]
        for x in eigen
    ]
    num = _even_matrix_det([[col[k - 1 - i] for col in cols] for i in range(k)])
    if k == 1:
        return num
    # no int start: a product from 1 would be one more algebra product
    delta = functools.reduce(operator.mul, [x - y for i, x in enumerate(eigen) for y in eigen[i + 1 :]])
    out = num * even_inverse(delta)
    return out * math.prod(math.factorial(j) for j in range(k)) if k > 2 else out


@functools.lru_cache(maxsize=8)
def _odd_block(m: int, n: int, work_bits: int):
    """The odd generators and u_g's and u_g^dagger's entries for one shape at one working precision.

    u_g = exp of the odd block has exact entries, whose coefficients are ints
    and GaussianRationals; each GaussianRational is converted here by its
    to_mpc() at work_bits, which is what its product with an mpc did inside
    every point, and the ints are kept.  The elements are immutable and callers only read them, so every
    point of a shape and precision shares one build; brute_force_ls admits two
    shapes, and small beta raises its precision.
    """
    alphas = odd_parameter_matrix(m, n)
    u_g = exp_odd_block(alphas)
    with mp.workprec(work_bits):
        rows = [
            [[GrassmannElement(e.generator_count, {mo: c if isinstance(c, int) else c.to_mpc() for mo, c in e.terms.items()}) for e in row]
             for row in M.entries]
            for M in (u_g, u_g.adjoint())
        ]
    return alphas, *rows


def _integrate_odd(alphas, blocks, beta, prec: Precision) -> GrassmannElement:
    """Berezin integral over the odd parameters alphas for the twisted sources.

    blocks yields, for the boson then the fermion sector, the sector's
    diagonal blocks of u_g A and of B u_g^dagger, a pair of row lists.  The
    eigenvalues of their product (its one entry at k = 1, `_newton_eigen_pair`
    at k = 2) feed the sector's U(k) factor, at beta for the bosons and -beta
    for the fermions.  Any generators beyond the odd parameters survive into
    the returned element.
    """
    m, n = len(alphas), len(alphas[0])
    integrand = measure_factor(m, n, alphas)
    # the fermion integrand carries exp(-beta tr(...)): an even series, same value at -beta
    for sector_beta, (a_block, b_block) in zip((beta, -beta), blocks):
        M = matmul_rows(a_block, b_block)
        eigen = [M[0][0]] if len(M) == 1 else _newton_eigen_pair(M, prec)
        integrand = integrand * _ordinary_ls_factor(eigen, sector_beta, prec)
    return berezin_integrate(integrand, measure_order(m, n))


def brute_force_ls(m: int, n: int, a_diag, b_diag, beta, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Full Berezin-and-ordinary-group integral for diagonal numeric sources.

    a_diag and b_diag hold the m+n diagonal entries of the two source
    supermatrices.  For (2, 1) the two boson products a_i b_i must differ,
    else the intermediate eigenvalue formulas are singular.  beta may be 0:
    each U(k) factor is then its group's mass, 1, and the value 0.  At small
    nonzero |beta| the (2, 1) value falls as beta^4 while the intermediate
    terms do not, so it cancels about loss = 4 log2(1/|beta|) bits; when
    loss > guard_bits - 8 the integral runs with guard_bits + ceil(loss) + 16
    guard bits and is rounded to prec.bits as ever.  The kernel values come
    from mpmath's series (`grassmann._bessel_kernel`), which
    `prec.truncation_cap` does not bound.
    """
    if (m, n) not in ((1, 1), (2, 1)):
        raise ValueError("supported block shapes: (1,1) and (2,1)")
    size = m + n
    a_diag = list(a_diag)
    b_diag = list(b_diag)
    if len(a_diag) != size or len(b_diag) != size:
        raise ValueError("need m+n diagonal values per source")
    with mp.workprec(prec.work_bits):
        beta_v = to_mpc_any(beta)
        loss = -4 * float(mp.log(abs(beta_v), 2)) if beta_v else 0
    if loss > prec.guard_bits - 8:
        prec = Precision(prec.bits, prec.guard_bits + math.ceil(loss) + 16, prec.truncation_cap)
    with mp.workprec(prec.work_bits):
        beta_v = to_mpc_any(beta)
        a_vals = [to_mpc_any(v) for v in a_diag]
        b_vals = [to_mpc_any(v) for v in b_diag]
        alphas, u_g, u_g_adjoint = _odd_block(m, n, prec.work_bits)
        # diagonal sources: u_g A scales column j of u_g by a_j, B u_g^dagger row i by b_i;
        # only each sector's diagonal block is formed
        sectors = (range(m), range(m, size))
        a_blocks = [[[u_g[i][j] * a_vals[j] for j in s] for i in s] for s in sectors]
        b_blocks = [[[u_g_adjoint[i][j] * b_vals[i] for j in s] for i in s] for s in sectors]
        reduced = _integrate_odd(alphas, zip(a_blocks, b_blocks), beta_v, prec)
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
        alphas = [[GrassmannElement.generator(g, 0)]]
        u_g = exp_odd_block(alphas)
        a_twist, b_twist = u_g @ a_mat, b_mat @ u_g.adjoint()
        blocks = [(a_twist.block(s), b_twist.block(s)) for s in ("bb", "ff")]
        return _integrate_odd(alphas, blocks, to_mpc_any(beta), prec)
