"""Schur and super-Schur functions, supercharacters, Littlewood-Richardson counts.

The tableaux-based evaluators work over any commutative coefficient ring
(exact Fractions, ints, or multiprecision complex values); the bialternant
form is faster but needs pairwise distinct arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp

from .errors import DegenerateArguments
from .partitions import Partition, SuperDiagram, k_indices
from .precision import (
    DEFAULT_PRECISION,
    BigComplex,
    Precision,
    _near_coincident_pairs,
    _tag_bits,
    det_mpc,
    exact_determinant,
    to_mpc_any,
    vandermonde,
)


def schur_tableaux(p: Partition, values):
    """Semistandard-tableaux monomial sum; exact for exact inputs.

    The super-Schur sum with no fermionic letters.  Returns 0 whenever the
    shape has more rows than there are variables.
    """
    return super_schur_tableaux(p, values, ())


def schur_bialternant(p: Partition, values, prec: Precision = DEFAULT_PRECISION):
    """Ratio-of-alternants character value det[a_i^{k_j}] / Delta(a).

    Exact inputs (int, Fraction) are evaluated exactly and only require exact
    distinctness; inexact inputs must be separated beyond the configured
    threshold, otherwise DegenerateArguments is raised (use schur_tableaux).
    """
    values = list(values)
    m = len(values)
    if len(p) > m:
        raise ValueError("shape has more rows than variables")
    if not len(p):
        return 1
    ks = k_indices(p, m)
    if all(isinstance(v, (int, Fraction)) for v in values):
        if len(set(values)) != m:
            raise DegenerateArguments("coinciding exact arguments")
        num = exact_determinant([[Fraction(v) ** k for k in ks] for v in values])
        return num / Fraction(vandermonde(values))
    bits = _tag_bits(prec, values)
    with mp.workprec(bits + prec.guard_bits):
        vals = [to_mpc_any(v) for v in values]
        if any(_near_coincident_pairs(vals, bits)):
            raise DegenerateArguments("arguments too close for the bialternant form")
        num = det_mpc([[v ** k for k in ks] for v in vals], prec)
        return BigComplex.from_mpc(num / vandermonde(vals), bits)


def super_schur_tableaux(t: Partition, bos, ferm):
    """Signed (m|n)-semistandard tableaux sum for the supercharacter.

    Letters are ordered bosonic first, then fermionic.  Along a row entries
    weakly increase and a repeat must be bosonic is forbidden (fermionic
    letters are strict along rows); down a column entries weakly increase and
    a repeat must be fermionic (bosonic letters are strict down columns).
    Each fermionic occurrence contributes a factor (-value), which implements
    the supertrace sign.  Non-hook shapes give 0 automatically (no fillings).
    """
    bos = list(bos)
    ferm = list(ferm)
    m, n = len(bos), len(ferm)
    if not len(t):
        return 1

    shape = t.rows
    total = 0

    def fill_row(i, prev_row, rows_acc):
        nonlocal total
        length = shape[i]

        def rec(j, row):
            nonlocal total
            if j == length:
                if i + 1 == len(shape):
                    term = 1
                    for r in rows_acc + [row]:
                        for v in r:
                            term = term * (bos[v] if v < m else -ferm[v - m])
                    total = total + term
                else:
                    fill_row(i + 1, list(row), rows_acc + [list(row)])
                return
            lo = 0
            if j:
                left = row[j - 1]
                # equal neighbors in a row must be bosonic
                lo = left if left < m else left + 1
            if prev_row is not None and j < len(prev_row):
                up = prev_row[j]
                # equal neighbors in a column must be fermionic
                lo = max(lo, up if up >= m else up + 1)
            for v in range(lo, m + n):
                row.append(v)
                rec(j + 1, row)
                row.pop()

        rec(0, [])

    fill_row(0, None, [])
    return total


def supercharacter_amu(sd: SuperDiagram, bos, ferm, prec: Precision = DEFAULT_PRECISION):
    """Supercharacter of a non-degenerate diagram via the factorized product form.

    (-1)^|q| prod(a_i - a_{m+j}) chi_p(bosonic) chi_q(fermionic); coinciding
    arguments fall back to the tableaux form automatically.  Exact inputs give
    the exact value; otherwise the product is taken on mpc at prec.work_bits
    and returned as a record tagged like schur_bialternant's.
    """
    bos = list(bos)
    ferm = list(ferm)
    if len(bos) != sd.m or len(ferm) != sd.n:
        raise ValueError("eigenvalue counts must match the diagram's (m, n)")
    exact = all(isinstance(v, (int, Fraction)) for v in bos + ferm)
    bits = _tag_bits(prec, bos + ferm)

    def chi(p, values):
        try:
            value = schur_bialternant(p, values, prec)
        except DegenerateArguments:
            return schur_tableaux(p, values)
        return value if exact else to_mpc_any(value)

    with mp.workprec(prec.work_bits):
        if not exact:
            bos = [to_mpc_any(v) for v in bos]
            ferm = [to_mpc_any(v) for v in ferm]
        cross = math.prod(a - b for a in bos for b in ferm)
        sign = -1 if sd.q.size % 2 else 1
        value = sign * cross * chi(sd.p, bos) * chi(sd.q, ferm)
    return value if exact else BigComplex.from_mpc(value, bits)


def _lr_fillings(r: Partition, mu: Partition, nu: Partition) -> int:
    """Count lattice-word semistandard fillings of the skew shape r/mu with weight nu."""
    rows = r.rows
    inner = [mu.row(i + 1) for i in range(len(rows))]
    nrows = len(rows)
    letters = len(nu.rows)
    counts = [0] * (letters + 1)
    grid = [[None] * rows[i] for i in range(nrows)]
    # cells in reverse reading order: rows top to bottom, each row right to left
    cells = [
        (i, j)
        for i in range(nrows)
        for j in range(rows[i] - 1, inner[i] - 1, -1)
    ]
    total = 0

    def rec(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        for v in range(1, letters + 1):
            if counts[v] >= nu.rows[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # reverse reading word must stay a lattice word
            if j + 1 < rows[i] and grid[i][j + 1] is not None and v > grid[i][j + 1]:
                continue  # weakly increasing along the row
            if i > 0 and j >= inner[i - 1] and v <= grid[i - 1][j]:
                continue  # strictly increasing down the column (box above not in mu)
            grid[i][j] = v
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            grid[i][j] = None

    rec(0)
    return total


def lr_coefficient(r: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of S_r in S_mu * S_nu, by lattice-word tableau enumeration."""
    if mu.size + nu.size != r.size:
        return 0
    if not r.contains(mu):
        return 0
    if nu.size == 0:
        return 1 if r == mu else 0
    return _lr_fillings(r, mu, nu)
