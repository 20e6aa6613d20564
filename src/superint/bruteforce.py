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

brute_force_ls computes on fixed-point Gaussian integers
(`grassmann.FixedGaussian`) at a scale set by its precision and its sources,
and makes an mpc of the final body only; brute_force_ls_supermatrix_11
computes on its caller's coefficients.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from mpmath import mp, mpc

from .errors import NonInvertibleBody
from .grassmann import (
    FixedGaussian,
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


# the fixed-point scale's bits past work_bits, a margin for its absolute errors:
# on the oracle workload's Haar points at 256 bits, whose final bodies lie
# between about 2^-14 and 2^14, each body keeps at least work_bits + 11
# relative bits, so the record rounds as the mpc path's did; small sources
# raise the scale further (brute_force_ls)
FIXED_MARGIN_BITS = 32


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
    neither is formed.  At beta = 0 the factor is the group's mass, 1,
    returned as the int 1: the determinant ratio gives it only to rounding,
    which would leave the oracle's zero at beta = 0 a rounding residue.  At
    k = 1 the constant and Delta are 1.  Each x_j beta^2 is formed once and
    its k orders come from one `analytic_eval` call; C_k is 1 for k <= 2 and
    is then not multiplied in.
    """
    k = len(eigen)
    if not beta:
        return GrassmannElement.scalar(eigen[0].generator_count, 1)
    # column j: x_j^nu R(nu, beta^2 x_j) for nu = 0..k-1, x_j^nu taken one product at a time
    cols = [
        [functools.reduce(operator.mul, [x] * nu, v) for nu, v in enumerate(_kernel_orders(k, x * (beta * beta), prec))]
        for x in eigen
    ]
    num = _even_matrix_det([[col[k - 1 - i] for col in cols] for i in range(k)])
    if k == 1:
        return num
    # no int start: a product from 1 would be one more algebra product
    delta = functools.reduce(operator.mul, [x - y for i, x in enumerate(eigen) for y in eigen[i + 1 :]])
    out = num * even_inverse(delta)
    return out * math.prod(math.factorial(j) for j in range(k)) if k > 2 else out


def _kernel_orders(k: int, w: GrassmannElement, prec: Precision) -> list:
    """[R(nu, w) for nu < k], by `analytic_eval` but at a zero w, a zero source's eigenvalue.

    There each value is R(nu, 0) = 1/nu!, taken exact: the int 1 at the
    nu <= 1 that k <= 2 reads, which multiplies into every ring, where
    `analytic_eval` would give an mpc that a fixed-point factor cannot take.
    """
    if w.is_zero:
        values = (Fraction(1, math.factorial(nu)) if nu > 1 else 1 for nu in range(k))
        return [GrassmannElement.scalar(w.generator_count, v) for v in values]
    return analytic_eval(range(k), w, prec)


def _log2_size(x) -> int:
    """An int m with |x| < 2^m <= 8 |x| for a nonzero source x, 0 at zero; by bit lengths for an int or Fraction.

    Taking every source through an mpc to mpmath's mag would add about an
    eighth to a (1|1) point.
    """
    if isinstance(x, (int, Fraction)):
        return x.numerator.bit_length() - x.denominator.bit_length() + 1
    z = to_mpc_any(x)
    return mp.mag(z) if z else 0


def _fixed_element(e: GrassmannElement, fbits: int) -> GrassmannElement:
    """e with each coefficient but the ints, which multiply exactly, put on the grid 2^-fbits."""
    terms = {mo: c if isinstance(c, int) else FixedGaussian.of(c, fbits) for mo, c in e.terms.items()}
    return GrassmannElement(e.generator_count, terms)


@functools.lru_cache(maxsize=2)
def _exact_odd_block(m: int, n: int):
    """The odd generators, the measure density and u_g's and u_g^dagger's entries for one shape, exact.

    u_g = exp of the odd block and the density have ints, Fractions and
    GaussianRationals for coefficients.  brute_force_ls admits two shapes,
    and every point of a shape shares this one build.
    """
    alphas = odd_parameter_matrix(m, n)
    u_g = exp_odd_block(alphas)
    return alphas, measure_factor(m, n, alphas), u_g.entries, u_g.adjoint().entries


@functools.lru_cache(maxsize=32)
def _odd_block(m: int, n: int, fbits: int):
    """`_exact_odd_block` with each coefficient but the ints put on the grid 2^-fbits.

    The conversion forms no algebra product.  The elements are immutable and
    callers only read them, so every point of a shape and scale shares one
    conversion; the scale moves with the precision and the sources (seven
    scales a shape on the oracle workload's points at 256 bits).
    """
    alphas, measure, *blocks = _exact_odd_block(m, n)
    rows = [[[_fixed_element(e, fbits) for e in row] for row in entries] for entries in blocks]
    return alphas, _fixed_element(measure, fbits), *rows


def _integrate_odd(alphas, measure, blocks, beta, prec: Precision) -> GrassmannElement:
    """Berezin integral over the odd parameters alphas, with odd density measure, for the twisted sources.

    blocks yields, for the boson then the fermion sector, the sector's
    diagonal blocks of u_g A and of B u_g^dagger, a pair of row lists.  The
    eigenvalues of their product (its one entry at k = 1, `_newton_eigen_pair`
    at k = 2) feed the sector's U(k) factor, at beta for the bosons and -beta
    for the fermions.  Any generators beyond the odd parameters survive into
    the returned element.
    """
    integrand = measure
    # the fermion integrand carries exp(-beta tr(...)): an even series, same value at -beta
    for sector_beta, (a_block, b_block) in zip((beta, -beta), blocks):
        M = matmul_rows(a_block, b_block)
        eigen = [M[0][0]] if len(M) == 1 else _newton_eigen_pair(M, prec)
        integrand = integrand * _ordinary_ls_factor(eigen, sector_beta, prec)
    return berezin_integrate(integrand, measure_order(len(alphas), len(alphas[0])))


def brute_force_ls(m: int, n: int, a_diag, b_diag, beta, prec: Precision = DEFAULT_PRECISION) -> BigComplex:
    """Full Berezin-and-ordinary-group integral for diagonal numeric sources.

    a_diag and b_diag hold the m+n diagonal entries of the two source
    supermatrices.  The integral runs on fixed-point coefficients
    (`grassmann.FixedGaussian`) at the scale F = prec.work_bits +
    FIXED_MARGIN_BITS + s, where 2^-s bounds the smallest of the sources
    a_i, b_i and their products a_i b_i below 1, to within three bits for a
    source and six for a product (s = 0 if none is).  The grid then holds
    each source and each product to as many relative bits as a value of
    size 1: a source's entry error, carried into M by a product with a
    larger partner, stays that far below M's entry; the eigenvalues and
    the values they feed scale with it.  The sources, beta, the odd
    block's entries, the measure density and each kernel coefficient are
    put on the grid 2^-F once, with an error below 2^-F per part; sums are
    exact and each product and inverse floors, below 2^-F per part again.  Only the final body is
    converted back, to an mpc at work_bits, and rounded to prec.bits.  For
    (2, 1) the two boson products a_i b_i must differ, else the intermediate
    eigenvalue formulas are singular.  beta may be 0: each U(k) factor is
    then its group's mass, 1, and the value 0.  At a small nonzero
    |beta^2 a_i b_i| the (2, 1) value falls as its square while the
    intermediate terms do not (the grid's refinement s gains only its first
    power), so it cancels about loss = 2 log2(1/|beta^2 a_i b_i|) bits at the
    smallest product a_i b_i below 1, read by bit lengths as for s, or
    4 log2(1/|beta|) if none is below 1; when loss > guard_bits - 8
    the integral runs with guard_bits + ceil(loss) + 16 guard bits, so on a
    scale F as many bits finer, and is rounded to prec.bits as ever.  The kernel values come
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
        sizes = [(_log2_size(x), _log2_size(y)) for x, y in zip(a_diag, b_diag)]
        shortfall = -min([0] + [min(sa + sb, sa, sb) for sa, sb in sizes])
        # 2 log2(1/|beta^2 a_i b_i|) at the smallest product a_i b_i, or at 1 if none is smaller
        loss = 2 * (-2 * float(mp.log(abs(beta_v), 2)) - min([0] + [sa + sb for sa, sb in sizes])) if beta_v else 0
    if loss > prec.guard_bits - 8:
        prec = Precision(prec.bits, prec.guard_bits + math.ceil(loss) + 16, prec.truncation_cap)
    fbits = prec.work_bits + FIXED_MARGIN_BITS + shortfall
    with mp.workprec(prec.work_bits):
        beta_v = FixedGaussian.of(beta, fbits)
        a_vals = [FixedGaussian.of(v, fbits) for v in a_diag]
        b_vals = [FixedGaussian.of(v, fbits) for v in b_diag]
        alphas, measure, u_g, u_g_adjoint = _odd_block(m, n, fbits)
        # diagonal sources: u_g A scales column j of u_g by a_j, B u_g^dagger row i by b_i;
        # only each sector's diagonal block is formed
        sectors = (range(m), range(m, size))
        a_blocks = [[[u_g[i][j] * a_vals[j] for j in s] for i in s] for s in sectors]
        b_blocks = [[[u_g_adjoint[i][j] * b_vals[i] for j in s] for i in s] for s in sectors]
        reduced = _integrate_odd(alphas, measure, zip(a_blocks, b_blocks), beta_v, prec)
        if not reduced.soul().is_zero:
            raise RuntimeError("odd directions did not integrate out")
        return BigComplex.from_mpc(to_mpc_any(reduced.body), prec.bits)


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
        return _integrate_odd(alphas, measure_factor(1, 1, alphas), blocks, to_mpc_any(beta), prec)
