"""Partitions, super Young diagrams, hooks, dimensions and expansion coefficients.

Everything here is exact integer / rational combinatorics.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import NotCovariant, TooManyRows
from .precision import Slotted, json_int, vandermonde


class Partition(Slotted):
    """Weakly decreasing non-negative integer rows with trailing zeros stripped.

    Each row is read by operator.index, so a float, a Fraction or a string
    row raises TypeError rather than being truncated or parsed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(map(operator.index, rows))
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        for i in range(len(rows) - 1):
            if rows[i] < rows[i + 1]:
                raise ValueError(f"rows must be weakly decreasing: {rows}")
        if rows and rows[-1] < 0:
            raise ValueError("rows must be non-negative")
        super().__init__(rows)

    @property
    def size(self) -> int:
        """Number of boxes."""
        return sum(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> int:
        """Row length with zero padding beyond the last row (1-based index)."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def conjugate(self) -> "Partition":
        if not self.rows:
            return Partition()
        cols = [0] * self.rows[0]
        for r in self.rows:
            for j in range(r):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        return all(self.row(i + 1) >= r for i, r in enumerate(other.rows))

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.rows == other.rows
        if isinstance(other, (tuple, list)):
            # only the stripped int rows themselves, so an equal tuple hashes alike
            return tuple(other) == self.rows and all(isinstance(r, int) for r in other)
        return NotImplemented

    def __hash__(self):
        # as the rows tuple's, the one tuple that compares equal
        return hash(self.rows)

    def __repr__(self):
        return f"Partition{self.rows}"


def partitions_of(n: int, max_rows: int | None = None) -> Iterator[Partition]:
    """All partitions of n, optionally with a bounded row count."""
    max_rows = n if max_rows is None else max_rows
    if max_rows < 0:
        raise ValueError("max_rows must be non-negative")

    def rec(remaining, largest, rows_left, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        if rows_left == 0:
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part, rows_left - 1, prefix + [part])

    yield from rec(n, n, max_rows, [])


def k_indices(p: Partition, rows: int) -> tuple[int, ...]:
    """Strictly decreasing shifted row indices k_i = rows + p_i - i, i = 1..rows."""
    if len(p) > rows:
        raise TooManyRows(f"partition {p} has more than {rows} rows")
    return tuple(rows + p.row(i) - i for i in range(1, rows + 1))


def sigma_coefficient(t: Partition) -> int:
    """Expansion coefficient of the diagram: |t|! Delta(k-hat) / prod k-hat_i!.

    Equals the number of standard fillings of the shape; the empty diagram
    gives 1 by convention.
    """
    if not len(t):
        return 1
    ks = k_indices(t, len(t))
    num = factorial(t.size) * vandermonde(ks)
    den = math.prod(factorial(k) for k in ks)
    q, r = divmod(num, den)
    assert r == 0, "sigma must be an integer"
    return q


def standard_tableaux_count(t: Partition) -> int:
    """Number of standard fillings of the shape: sigma_coefficient, by the hook-length formula.

    Its own function rather than an alias of sigma_coefficient: a tracer that
    patches module attributes by name would wrap an alias twice.  Kept only
    because perfbench/spans.py traces this name; nothing in the package calls it.
    """
    return sigma_coefficient(t)


def hook_lengths(t: Partition) -> list[int]:
    """Hook length of every box: arm + leg + 1."""
    conj = t.conjugate()
    out = []
    for i, row_len in enumerate(t.rows):
        for j in range(row_len):
            out.append((row_len - j - 1) + (conj.rows[j] - i - 1) + 1)
    return out


def hook_product(t: Partition) -> int:
    """Product of all hook lengths; satisfies sigma(t) * hook_product(t) = |t|!."""
    return math.prod(hook_lengths(t))


def dimension_glm(p: Partition, m: int) -> int:
    """Dimension of the Gl(m) irreducible with highest weight p."""
    ks = k_indices(p, m)
    den = math.prod(factorial(m - i) for i in range(1, m + 1))
    q, r = divmod(vandermonde(ks), den)
    assert r == 0, "dimension must be an integer"
    return q


class SuperDiagram(Slotted):
    """Non-degenerate covariant diagram of Gl(m|n): the m x n block plus p and q^T."""

    __slots__ = ("m", "n", "p", "q")

    def __init__(self, m: int, n: int, p: Partition, q: Partition):
        if m < 1 or n < 1:
            raise ValueError("block dimensions must be positive")
        if len(p) > m:
            raise TooManyRows(f"p has more than m={m} rows")
        if len(q) > n:
            raise TooManyRows(f"q has more than n={n} rows")
        super().__init__(m, n, p, q)

    @property
    def boxes(self) -> int:
        return self.p.size + self.q.size + self.m * self.n

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "p": list(self.p.rows), "q": list(self.q.rows)}

    @classmethod
    def from_json(cls, obj: dict) -> "SuperDiagram":
        p, q = (Partition([json_int(r, key) for r in obj[key]]) for key in ("p", "q"))
        return cls(json_int(obj["m"], "m"), json_int(obj["n"], "n"), p, q)


def assemble(sd: SuperDiagram) -> Partition:
    """Full diagram: rows n + p_i for i <= m, then the columns of q below the block."""
    rows = [sd.n + sd.p.row(i) for i in range(1, sd.m + 1)]
    rows += list(sd.q.conjugate().rows)
    return Partition(rows)


def is_covariant(t: Partition, m: int, n: int) -> bool:
    """A covariant representation exists exactly when the diagram fits the (m|n) hook."""
    return t.row(m + 1) <= n


def decompose_superdiagram(t: Partition, m: int, n: int) -> SuperDiagram | None:
    """Inverse of assemble; None marks a degenerate (hook but no full block) diagram.

    Raises NotCovariant when the diagram does not fit the (m|n) hook at all.
    """
    if not is_covariant(t, m, n):
        raise NotCovariant(f"{t} violates the ({m}|{n}) hook condition")
    if t.row(m) < n:
        return None
    p = Partition([t.row(i) - n for i in range(1, m + 1)])
    below = Partition([t.row(i) for i in range(m + 1, len(t) + 1)])
    return SuperDiagram(m, n, p, below.conjugate())


def super_diagrams(m: int, n: int, max_boxes: int) -> Iterator[SuperDiagram]:
    """All non-degenerate diagrams of Gl(m|n) with at most max_boxes boxes."""
    budget = max_boxes - m * n
    if budget < 0:
        return
    for pa in range(budget + 1):
        for p in partitions_of(pa, max_rows=m):
            for qa in range(budget - pa + 1):
                for q in partitions_of(qa, max_rows=n):
                    yield SuperDiagram(m, n, p, q)


def sigma_decomposition_factor(sd: SuperDiagram) -> Fraction:
    """The block coupling product over i <= m, j <= n of 1/(k_i + k_{m+j} + 1).

    Multiplying it by (sigma_p/|p|!)(sigma_q/|q|!) reproduces sigma_t/|t|!
    exactly for the assembled diagram t.
    """
    ka = k_indices(sd.p, sd.m)
    kb = k_indices(sd.q, sd.n)
    return Fraction(1, math.prod(ki + kj + 1 for ki in ka for kj in kb))


def norm_alpha(sd: SuperDiagram) -> Fraction:
    """Representation norm of the assembled diagram.

    Zero norms never occur here: degenerate diagrams cannot be expressed as a
    SuperDiagram in the first place.
    """
    t = assemble(sd)
    sign = -1 if sd.q.size % 2 else 1
    num = factorial(t.size) * sigma_coefficient(sd.p) * sigma_coefficient(sd.q)
    den = (
        factorial(sd.p.size)
        * factorial(sd.q.size)
        * sigma_coefficient(t)
        * dimension_glm(sd.p, sd.m)
        * dimension_glm(sd.q, sd.n)
    )
    return Fraction(sign * num, den)
