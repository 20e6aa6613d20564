"""Schur and super-Schur functions, supercharacters, Littlewood-Richardson counts.

The tableaux-based evaluators work over any commutative coefficient ring
(exact Fractions, ints, or multiprecision complex values); the bialternant
is evaluated in its Newton form, which divides by nothing, so coinciding
arguments need no special case.  Exact inputs with a Fraction among them
are put over one common denominator D: both sums run on the integer
numerators and divide once, by D to the number of boxes, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from .partitions import Partition, SuperDiagram, is_covariant, k_indices
from .precision import (
    DEFAULT_PRECISION,
    BigComplex,
    Precision,
    _tag_bits,
    complete_homogeneous,
    det_mpc,
    exact_determinant,
    to_mpc_any,
)


def _over_common_denominator(values):
    """(numerators, D): exact values with a Fraction among them as integers over D, the lcm of their denominators.

    Values of any other kind, ints alone or with an inexact value among them,
    come back as they are, with D None.
    """
    if not any(isinstance(v, Fraction) for v in values) or not all(isinstance(v, (int, Fraction)) for v in values):
        return values, None
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def schur_tableaux(p: Partition, values):
    """Semistandard-tableaux monomial sum; exact for exact inputs.

    The super-Schur sum with no fermionic letters.  Returns 0 whenever the
    shape has more rows than there are variables.  Kept only because
    perfbench/spans.py traces this name; nothing in the package calls it.
    """
    return super_schur_tableaux(p, values, ())


def schur_bialternant(p: Partition, values, prec: Precision = DEFAULT_PRECISION):
    """Ratio of alternants det[a_j^(k_i)] / Delta(a) as (-1)^(m(m-1)/2) det[h_(k_i-j+1)(a_1..a_j)].

    Column j of the alternant, replaced by its divided difference over
    a_1..a_j, is h_(k_i-j+1)(a_1..a_j): nothing is divided.  Exact inputs (int,
    Fraction) give the exact value; others a record on mpc, tagged with
    prec.bits or the fewer bits of an input record.  Exact values a_i = A_i / D
    over their common denominator put D^(j - k_i) on entry (i, j), so the
    table is built on the integers A_i and the determinant divided by D^|p|.
    """
    values = list(values)
    m = len(values)
    if len(p) > m:
        raise ValueError("shape has more rows than variables")
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    bits = _tag_bits(prec, values)
    if not len(p):
        return 1 if exact else BigComplex(1, bits=bits)
    ks = k_indices(p, m)
    sign = -1 if m * (m - 1) // 2 % 2 else 1
    numerators, D = _over_common_denominator(values)
    with mp.workprec(bits + prec.guard_bits):
        table = complete_homogeneous(numerators if exact else [to_mpc_any(v) for v in values], ks[0])
        rows = [[table[j][k - j] if k >= j else 0 for j in range(m)] for k in ks]
        if exact:
            return sign * exact_determinant(rows) / (D or 1) ** p.size
        return BigComplex.from_mpc(sign * det_mpc(rows, prec), bits)


def _neighbours(cells, step):
    """For each cell (i, j) of the walk, the walk positions of (i, j + step) and (i - 1, j), None if absent."""
    pos = {c: k for k, c in enumerate(cells)}
    return [(pos.get((i, j + step)), pos.get((i - 1, j))) for i, j in cells]


def super_schur_tableaux(t: Partition, bos, ferm):
    """Signed (m|n)-semistandard tableaux sum for the supercharacter.

    Letters are ordered bosonic first, then fermionic.  Along a row entries
    weakly increase and a repeat must be bosonic (fermionic letters are
    strict along rows); down a column entries weakly increase and a repeat
    must be fermionic (bosonic letters are strict down columns).  Each
    fermionic occurrence contributes a factor (-value), which implements the
    supertrace sign.  Non-hook shapes give 0 automatically (no fillings).

    The cells are filled in reading order and each filling's product is
    carried down the walk from 1.  The products are added one at a time in
    the order the fillings are met; a sum taken per subtree would round
    multiprecision inputs differently.  Exact values with a Fraction among
    them are walked as integers over their common denominator D, and the
    sum, homogeneous of degree |t|, is divided by D^|t| once; the empty shape
    and a shape with no fillings give the ints 1 and 0 whatever the inputs.
    """
    bos, ferm = list(bos), list(ferm)
    m = len(bos)
    values, D = _over_common_denominator(bos + ferm)
    weights = values[:m] + [-v for v in values[m:]]
    cells = _neighbours([(i, j) for i, length in enumerate(t.rows) for j in range(length)], -1)
    filled = []
    total = 0

    def rec(term):
        nonlocal total
        k = len(filled)
        if k == len(cells):
            total = total + term
            return
        left, up = cells[k]
        lo = 0
        if left is not None:
            lo = filled[left] + (filled[left] >= m)  # equal neighbours in a row must be bosonic
        if up is not None:
            lo = max(lo, filled[up] + (filled[up] < m))  # equal neighbours in a column must be fermionic
        for v in range(lo, len(weights)):
            filled.append(v)
            rec(term * weights[v])
            filled.pop()

    rec(1)
    # summed on the values themselves, the ints 1 and 0 of the empty shape and of a shape
    # with no fillings stay ints; inside the hook every letter, so every Fraction, fills a cell
    return total if D is None or not t.size or not is_covariant(t, m, len(ferm)) else Fraction(total, D ** t.size)


def supercharacter_amu(sd: SuperDiagram, bos, ferm, prec: Precision = DEFAULT_PRECISION):
    """Supercharacter of a non-degenerate diagram via the factorized product form.

    (-1)^|q| prod(a_i - a_{m+j}) chi_p(bosonic) chi_q(fermionic), each chi a
    schur_bialternant.  Exact inputs give the exact value; otherwise the
    product is taken on mpc at prec.work_bits and returned as a record tagged
    like schur_bialternant's.
    """
    bos = list(bos)
    ferm = list(ferm)
    if len(bos) != sd.m or len(ferm) != sd.n:
        raise ValueError("eigenvalue counts must match the diagram's (m, n)")
    exact = all(isinstance(v, (int, Fraction)) for v in bos + ferm)
    bits = _tag_bits(prec, bos + ferm)

    with mp.workprec(prec.work_bits):
        if not exact:
            bos = [to_mpc_any(v) for v in bos]
            ferm = [to_mpc_any(v) for v in ferm]
        value = (-1 if sd.q.size % 2 else 1) * math.prod(a - b for a in bos for b in ferm)
        for p, values in ((sd.p, bos), (sd.q, ferm)):
            chi = schur_bialternant(p, values, prec)
            value *= chi if exact else to_mpc_any(chi)
    return value if exact else BigComplex.from_mpc(value, bits)


def _lr_fillings(r: Partition, mu: Partition, nu: Partition) -> int:
    """Count lattice-word semistandard fillings of the skew shape r/mu with weight nu.

    The cells are filled in reverse reading order (rows top to bottom, each
    row right to left), with letters 0 .. len(nu) - 1.
    """
    cells = _neighbours(
        [(i, j) for i, length in enumerate(r.rows) for j in range(length - 1, mu.row(i + 1) - 1, -1)], 1
    )
    weight = nu.rows
    counts = [0] * len(weight)
    filled = []

    def rec():
        k = len(filled)
        if k == len(cells):
            return 1
        right, up = cells[k]
        lo = 0 if up is None else filled[up] + 1  # strictly increasing down a column
        hi = len(weight) if right is None else filled[right] + 1  # weakly increasing along a row
        total = 0
        for v in range(lo, hi):
            # the reverse reading word must stay a lattice word of weight nu
            if counts[v] < weight[v] and (v == 0 or counts[v] < counts[v - 1]):
                filled.append(v)
                counts[v] += 1
                total += rec()
                counts[v] -= 1
                filled.pop()
        return total

    return rec()


def lr_coefficient(r: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of S_r in S_mu * S_nu, by lattice-word tableau enumeration."""
    if mu.size + nu.size != r.size or not r.contains(mu):
        return 0
    return _lr_fillings(r, mu, nu)
