"""Explicit Haar-parametrized integration against the closed determinant form."""

import ast
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from superint import (
    BigComplex,
    GaussianRational,
    GrassmannElement,
    Precision,
    SuperEigenvalues,
    SuperMatrixSym,
    brute_force_ls,
    brute_force_ls_supermatrix_11,
    ls_closed_form,
    nondiag_limit_ls,
)
from superint import acceptance, bruteforce, grassmann, precision
from superint.bruteforce import measure_factor, measure_order, odd_parameter_matrix
from superint.errors import NonInvertibleBody
from superint.precision import to_mpc_any

PREC = Precision()
BETA = BigComplex(Fraction(1, 2))


def test_measure_factor_shapes():
    alphas = odd_parameter_matrix(1, 1)
    assert measure_factor(1, 1, alphas) == GrassmannElement.scalar(2, 1)
    alphas = odd_parameter_matrix(2, 1)
    t = measure_factor(2, 1, alphas)
    assert t.body == 1
    # the quadratic correction carries coefficient -1/3 on each pair
    assert t.terms[0b0011] == Fraction(-1, 3)
    assert t.terms[0b1100] == Fraction(-1, 3)
    with pytest.raises(ValueError):
        measure_factor(2, 2, odd_parameter_matrix(2, 2))


def test_measure_order():
    assert measure_order(1, 1) == [0, 1]
    assert measure_order(2, 1) == [0, 1, 2, 3]


def test_newton_eigen_pair_is_exact_at_the_nilpotency_bound(monkeypatch):
    # seeded at the body, k steps leave error in soul degree >= 2^(k+1), so
    # floor(log2 g) steps are exact and one step fewer is not
    assert [bruteforce._newton_steps(g) for g in (2, 4, 6, 8, 16)] == [1, 2, 2, 3, 4]
    # exact entries over g = 4, diagonal body 3/2, -2/9; the diagonal souls square
    # to the top monomial and the off-diagonal product reaches it too
    g = 4
    th = [GrassmannElement.generator(g, i) for i in range(g)]
    one = GrassmannElement.scalar(g, 1)
    s01, s23 = th[0] * th[1], th[2] * th[3]
    M = [
        [one * Fraction(3, 2) + s01 * Fraction(2, 5) + s23 * GaussianRational(Fraction(-3, 4), 1), th[0] * th[2] * Fraction(1, 3)],
        [th[1] * th[3] * Fraction(5, 7), one * Fraction(-2, 9) + s01 * Fraction(1, 6) - s23],
    ]
    trace = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]

    def residual(x):
        return x * x - trace * x + det

    eigen = bruteforce._newton_eigen_pair(M, PREC)
    assert [x.body for x in eigen] == [Fraction(3, 2), Fraction(-2, 9)]
    assert all(residual(x).is_zero for x in eigen)
    assert eigen[0] + eigen[1] == trace and eigen[0] * eigen[1] == det
    monkeypatch.setattr(bruteforce, "_newton_steps", lambda g: g.bit_length() - 2)
    short = bruteforce._newton_eigen_pair(M, PREC)
    # what one step fewer misses lies in the top monomial alone
    assert all(set(residual(x).terms) == {0b1111} for x in short)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(-7, 5)], ids=str)
def test_ordinary_factor_matches_closed_form_beyond_two(k, beta):
    # U(3) and U(4) on soul-free eigenvalues: the Haar side's C_k = prod_(j<k) j!,
    # beta power and Vandermonde against the closed form at (k|0), which shares none of its code
    xs = [Fraction(7, 10), Fraction(-2, 5), Fraction(3, 2), Fraction(5, 4)][:k]
    with mp.workprec(PREC.work_bits):
        eigen = [GrassmannElement.scalar(2, to_mpc_any(x)) for x in xs]
        got = bruteforce._ordinary_ls_factor(eigen, to_mpc_any(beta), PREC)
    assert set(got.terms) == {0}
    want = ls_closed_form(SuperEigenvalues(tuple(xs), (), BigComplex(beta)), PREC).value.to_mpc()
    with mp.workprec(400):
        assert abs(got.body - want) <= abs(want) * mpf(2) ** -200


def test_zero_sources_give_zero_volume():
    # with A = B = 0 the odd directions have nothing to soak them up
    val = brute_force_ls(1, 1, [0, 0], [0, 0], BETA, PREC)
    assert abs(val.to_mpc()) == 0


def test_brute_force_1_1_matches_closed_form():
    pairs = [
        ([Fraction(7, 10), Fraction(2, 5)], [Fraction(3, 4), Fraction(1, 3)]),
        ([Fraction(1, 2), Fraction(5, 6)], [Fraction(9, 7), Fraction(1, 8)]),
        ([Fraction(13, 9), Fraction(3, 11)], [Fraction(2, 3), Fraction(7, 5)]),
    ]
    with mp.workprec(400):
        for a, b in pairs:
            bf = brute_force_ls(1, 1, a, b, BETA, PREC)
            ev = SuperEigenvalues((a[0] * b[0],), (a[1] * b[1],), BETA)
            cf = ls_closed_form(ev, PREC).value
            assert abs(bf.to_mpc() - cf.to_mpc()) <= abs(cf.to_mpc()) * mpf(2) ** -200


def test_brute_force_2_1_matches_closed_form():
    a = [Fraction(7, 10), Fraction(2, 5), Fraction(1, 2)]
    b = [Fraction(3, 4), Fraction(1, 3), Fraction(5, 7)]
    bf = brute_force_ls(2, 1, a, b, BETA, PREC)
    ev = SuperEigenvalues((a[0] * b[0], a[1] * b[1]), (a[2] * b[2],), BETA)
    cf = ls_closed_form(ev, PREC).value
    with mp.workprec(400):
        assert abs(bf.to_mpc() - cf.to_mpc()) <= abs(cf.to_mpc()) * mpf(2) ** -200


SMALL_BETA_SOURCES = (
    [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)],
    [Fraction(5, 11), Fraction(7, 13), Fraction(1, 2)],
)


@pytest.mark.parametrize("m", [1, 2])
def test_brute_force_at_zero_beta_is_the_closed_forms_zero(m):
    # at beta = 0 each U(k) factor is its group's mass, 1, and the odd directions
    # integrate the measure to 0, as the closed form's beta = 0 mass is 0
    a, b = (v[2 - m :] for v in SMALL_BETA_SOURCES)
    beta = BigComplex(0)
    bf = brute_force_ls(m, 1, a, b, beta, PREC)
    ev = SuperEigenvalues(tuple(x * y for x, y in zip(a[:m], b[:m])), (a[m] * b[m],), beta)
    assert bf.is_zero and bf == ls_closed_form(ev, PREC).value


@pytest.mark.parametrize("e", [3, 5, 9])
def test_brute_force_is_exactly_zero_at_zero_beta_on_any_grid(e):
    # sources scaled by 2^-e refine the fixed-point grid; the determinant ratio of a U(2)
    # factor gives its mass 1 only to rounding there, so each factor is the exact 1
    a, b = ([v * Fraction(1, 2**e) for v in side] for side in SMALL_BETA_SOURCES)
    assert brute_force_ls(2, 1, a, b, BigComplex(0), PREC).is_zero


def test_known_defect_haar_oracle_loses_bits_at_small_beta():
    # the (2|1) value falls as beta^4 while the oracle's terms stay of order 1, so it
    # cancels 4 log2(1/|beta|) bits, which brute_force_ls now adds to its guard bits;
    # without them it was off by 2^-29.5 relative at beta = 2^-60, and at 2^-100 it
    # returned 4.83e-86 with a 256-bit tag where the value is -1.3356e-125
    a, b = SMALL_BETA_SOURCES
    for e in (60, 100):
        beta = BigComplex(Fraction(1, 2**e))
        bf = brute_force_ls(2, 1, a, b, beta, PREC).to_mpc()
        ev = SuperEigenvalues((a[0] * b[0], a[1] * b[1]), (a[2] * b[2],), beta)
        want = ls_closed_form(ev, Precision(bits=1024)).value.to_mpc()
        with mp.workprec(1100):
            assert abs(bf - want) <= abs(want) * mpf(2) ** -200, e


@pytest.mark.parametrize(
    "m,ea,eb",
    [(1, 40, 40), (2, 10, 10), (1, 100, -100), (2, 100, -100), (2, -60, 60)],
    ids=["1|1", "2|1", "1|1-a-small", "2|1-a-small", "2|1-b-small"],
)
def test_haar_oracle_keeps_its_bits_at_small_sources(m, ea, eb):
    # a scaled by 2^-ea and b by 2^-eb.  At ea = eb = e the products a_i b_i lie near
    # 2^-(2e + 2); on a fixed-point grid at work_bits + 32 the (1|1) value kept about
    # 227 bits at e = 40 and the (2|1) one about 234 at e = 10.  At ea = -eb the
    # products are of order 1 but one source is small; a grid refined only by the
    # products' shortfall kept about 219 and 213 bits at 2^-100.  So the grid is refined
    # by the bits the smallest source or product lies below 1 (the mpc path kept
    # 257 and 256 bits on the unbalanced points)
    a, b = ([v * Fraction(2) ** -e for v in side[2 - m :]] for side, e in zip(SMALL_BETA_SOURCES, (ea, eb)))
    bf = brute_force_ls(m, 1, a, b, BETA, PREC).to_mpc()
    prods = [x * y for x, y in zip(a, b)]
    ev = SuperEigenvalues(tuple(prods[:m]), (prods[m],), BETA)
    want = ls_closed_form(ev, Precision(bits=1024)).value.to_mpc()
    with mp.workprec(1100):
        assert abs(bf - want) <= abs(want) * mpf(2) ** -250


@pytest.mark.parametrize("e", [20, 40, 80])
def test_haar_oracle_keeps_its_bits_at_small_source_products(e):
    # both sources scaled by 2^-e, so the products a_i b_i lie near 2^-(2e + 2): the (2|1)
    # value falls as |beta^2 a_i b_i|^2 while the grid's refinement gains only the first
    # power, so brute_force_ls escalates on the products as on a small beta; reading beta
    # alone it was off by 2^-214.1, 2^-134.6 and 2^+21.1 relative with a 256-bit tag
    a, b = ([v * Fraction(1, 2**e) for v in side] for side in SMALL_BETA_SOURCES)
    bf = brute_force_ls(2, 1, a, b, BETA, PREC).to_mpc()
    prods = [x * y for x, y in zip(a, b)]
    ev = SuperEigenvalues(tuple(prods[:2]), (prods[2],), BETA)
    want = ls_closed_form(ev, Precision(bits=2048)).value.to_mpc()
    with mp.workprec(2100):
        assert abs(bf - want) <= abs(want) * mpf(2) ** -250


def test_brute_force_bit_pinned_at_escalated_small_beta():
    # every bit of the (2|1) values at beta = 2^-60 and 2^-100, where brute_force_ls
    # escalates its guard bits; a point at the default working precision runs first,
    # so the odd block's coefficients must be converted at each point's own precision
    a, b = SMALL_BETA_SOURCES
    brute_force_ls(2, 1, a, b, BETA, PREC)
    out = []
    for e in (60, 100):
        v = brute_force_ls(2, 1, a, b, BigComplex(Fraction(1, 2**e)), PREC)
        out.append((v.re._mpf_, v.im._mpf_))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "d6aa1ea3c99979efbc767d7db8722ff4cc2c81acea8c41a586fec0eeb56b74e1"


@pytest.mark.parametrize("m,products", [(1, 14), (2, 79)], ids=["1|1", "2|1"])
def test_haar_point_grassmann_product_count(monkeypatch, m, products):
    # the Grassmann products of one point after its shape's odd block is built; a
    # change of the count is a change of the oracle's work, which the values do not show
    a, b = (v[2 - m :] for v in SMALL_BETA_SOURCES)
    brute_force_ls(m, 1, a, b, BETA, PREC)
    calls = []
    mul = GrassmannElement.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(GrassmannElement, "__mul__", counted)
    brute_force_ls(m, 1, a, b, BETA, PREC)
    monkeypatch.undo()
    assert len(calls) == products


def test_haar_oracle_takes_no_kernel_from_precision(monkeypatch):
    # the oracle checks the closed forms, which sum R(nu, w) in precision.py, so it
    # must give its values with that kernel unavailable and import no libmp arithmetic
    points = [(m, 1, *(v[2 - m :] for v in SMALL_BETA_SOURCES)) for m in (1, 2)]
    want = [brute_force_ls(m, n, a, b, BETA, PREC) for m, n, a, b in points]

    def unavailable(*args):
        raise AssertionError("the Haar oracle called precision's kernel")

    monkeypatch.setattr(precision, "_bessel_orders", unavailable)
    grassmann._bessel_kernel.cache_clear()
    assert [brute_force_ls(m, n, a, b, BETA, PREC) for m, n, a, b in points] == want
    tree = ast.parse(Path(grassmann.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not any(name and name.startswith("mpmath.libmp") for name in imported)


@pytest.mark.parametrize("row,most", [(7, 40), (8, 49)])
def test_haar_criteria_call_the_kernel_no_more_than_measured(monkeypatch, row, most):
    # criteria 8 and 9 at seed 42 made 40 and 49 mp.hyp0f1 calls with one memo per
    # U(k) factor; a memo that misses changes no value, so only this count sees it
    _, _, check = acceptance.CRITERIA_1_12[row]
    calls = []
    real = mp.hyp0f1

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "hyp0f1", counting)
    grassmann._bessel_kernel.cache_clear()
    assert check(42, Precision(), 1)[0]
    assert len(calls) <= most


def test_brute_force_2_1_rejects_coinciding_products():
    a = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    b = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)]
    with pytest.raises(NonInvertibleBody):
        brute_force_ls(2, 1, a, b, BETA, PREC)


def test_brute_force_unsupported_shape():
    with pytest.raises(ValueError):
        brute_force_ls(2, 2, [1] * 4, [1] * 4, BETA, PREC)
    # a supported shape with a diagonal of the wrong length, in either source
    for a, b in (([1, 3], [1, 2, 5]), ([1, 3, 4], [1, 2, 5, 7]), ([1, 3], [1, 2])):
        with pytest.raises(ValueError, match=r"need m\+n diagonal values"):
            brute_force_ls(2, 1, a, b, BETA, PREC)


def test_supermatrix_oracle_reproduces_nondiag_limit():
    # A carries an external odd pair; B is the identity, so the source product
    # is exactly the (1+1) matrix with merged diagonal and odd off-diagonal
    # c t1, t2, whose t1 t2 coefficient is the limit, linear in c
    g = 4
    one = GrassmannElement.scalar(g, 1)
    t1 = GrassmannElement.generator(g, 2)
    t2 = GrassmannElement.generator(g, 3)
    merged = [
        BigComplex(Fraction(9, 16)),
        BigComplex(Fraction(2, 7)),
        BigComplex(Fraction(5, 3)),
        BigComplex(Fraction(1, 2), Fraction(1, 3)),
    ]
    for a in merged:
        for c in (Fraction(1), Fraction(3, 5)):
            with mp.workprec(PREC.work_bits):
                av = a.to_mpc()
                A = SuperMatrixSym(1, 1, [[one * av, t1 * c], [t2, one * av]])
                B = SuperMatrixSym.identity(1, 1, g)
                out = brute_force_ls_supermatrix_11(A, B, BETA, PREC)
                # scalar part is the coincident (vanishing) case
                assert 0 not in out.terms or abs(out.terms[0]) < mpf(2) ** -250
                assert set(out.terms) <= {0, 0b1100}
                coeff = out.terms[0b1100]
                lim = nondiag_limit_ls(a, c, BETA, PREC).to_mpc()
                assert abs(coeff - lim) <= abs(lim) * mpf(2) ** -200, (a, c)


def _pin_points():
    """Seeded (1|1) and (2|1) diagonal sources with rational and complex entries."""
    rng = random.Random(4101)

    def entry():
        re = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if rng.random() < 0.5:
            return re
        return BigComplex(re, Fraction(rng.randint(-20, 20), rng.randint(1, 20)))

    shapes = [(1, 1)] * 3 + [(2, 1)] * 3
    return [(m, n, [entry() for _ in range(m + n)], [entry() for _ in range(m + n)]) for m, n in shapes]


def test_brute_force_values_bit_pinned():
    # every bit of the Haar oracle's values, where the closed-form tests allow 2^-200
    out = []
    for i, (m, n, a, b) in enumerate(_pin_points()):
        beta = BETA if i % 2 else BigComplex(Fraction(2, 3), Fraction(-1, 4))
        v = brute_force_ls(m, n, a, b, beta, PREC)
        out.append((v.re._mpf_, v.im._mpf_))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == "d8889e50f8f19664ce0349f9c61d12cab08e25e67f2ffdfcb0e014f4ab6ce5f5"


def test_supermatrix_oracle_terms_bit_pinned():
    # general (1|1) sources with odd entries on both sides, over two external generators
    g = 4
    one = GrassmannElement.scalar(g, 1)
    t1 = GrassmannElement.generator(g, 2)
    t2 = GrassmannElement.generator(g, 3)
    with mp.workprec(PREC.work_bits):
        A = SuperMatrixSym(
            1, 1, [[one * mpc(mpf(9) / 16, mpf(1) / 3), t1 * Fraction(3, 5)], [t2, one * (mpf(2) / 7)]],
        )
        B = SuperMatrixSym(
            1, 1, [[one * (mpf(5) / 4), t2], [t1 * Fraction(1, 2), one * mpc(mpf(1) / 3, 1)]],
        )
    out = brute_force_ls_supermatrix_11(A, B, BETA, PREC)
    terms = sorted((mono, c._mpc_) for mono, c in out.terms.items())
    assert set(dict(terms)) == {0, 0b1100}
    # the same sources at 512 bits agree to 2^-250 relative in each coefficient
    wide = brute_force_ls_supermatrix_11(A, B, BETA, Precision(bits=512))
    assert set(wide.terms) == set(out.terms)
    with mp.workprec(600):
        for mono, c in out.terms.items():
            assert abs(c - wide.terms[mono]) <= abs(wide.terms[mono]) * mpf(2) ** -250, mono
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == "ee3b49750784ec038e0636fc04a03b44e17c9d75a5881bfad2923f27ebc86364"
