"""Young-diagram combinatorics: shapes, coefficients, dimensions, norms."""

from fractions import Fraction
from math import factorial

import pytest

from superint import (
    NotCovariant,
    Partition,
    SuperDiagram,
    TooManyRows,
    assemble,
    decompose_superdiagram,
    dimension_glm,
    hook_product,
    is_covariant,
    norm_alpha,
    partitions_of,
    sigma_coefficient,
    sigma_decomposition_factor,
    super_diagrams,
)
from superint.partitions import hook_lengths, k_indices, standard_tableaux_count

from oracles import count_standard_tableaux, weyl_dimension

P = Partition


def test_partition_normalization_and_validation():
    assert P((3, 2, 0, 0)).rows == (3, 2)
    assert P().rows == ()
    assert P((0, 0)).rows == ()
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, -1))
    # rows are read by operator.index: nothing is truncated or parsed
    for rows in ((2.7, 1.2), ("3", "1"), (2.0, 1), (Fraction(2), 1)):
        with pytest.raises(TypeError):
            P(rows)
    assert P((2, 1)) != [2.5, 1] and P((2, 1)) != (2, 1.0) and P((2, 1)) != ["2", "1"]
    # a sequence that is no partition's rows equals none
    assert P((2, 1)) != [1, 2] and P((2, 1)) != (2, -1)
    assert P((2, 1)) != [2, 1, 0] and P((2, 1)) == (2, 1)


def test_partition_equals_only_its_stripped_rows_and_hashes_alike():
    # a padded tuple compared equal while hashing apart, so a set lookup missed it
    assert P((2, 1)) != (2, 1, 0)
    assert hash(P((2, 1))) != hash((2, 1, 0))
    assert (2, 1, 0) not in {P((2, 1))}
    # the one tuple that compares equal hashes alike and shares a set entry
    assert (2, 1) in {P((2, 1))} and len({P((2, 1)), (2, 1)}) == 1
    assert P((2, 1)) == [2, 1] and P(()) == () and P((0,)) != (0,)


def test_partition_helpers():
    t = P((4, 2, 1))
    assert t.size == 7
    assert t.row(1) == 4 and t.row(5) == 0
    assert t.conjugate() == P((3, 2, 1, 1))
    assert t.conjugate().conjugate() == t
    assert t.contains(P((2, 2)))
    assert not t.contains(P((2, 2, 2)))


def test_partitions_of_counts():
    # partition numbers p(0..9)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in enumerate(expected):
        assert len(list(partitions_of(n))) == want
    assert all(len(p) <= 2 for p in partitions_of(6, max_rows=2))
    # a negative bound is an error, not "no bound"
    with pytest.raises(ValueError):
        list(partitions_of(3, max_rows=-1))


@pytest.mark.parametrize(
    "rows,value",
    [((1,), 1), ((3,), 1), ((2, 1), 2), ((2, 2), 2), ((3, 2, 1), 16)],
)
def test_sigma_examples(rows, value):
    assert sigma_coefficient(P(rows)) == value


def test_sigma_is_standard_tableaux_count():
    # the hook-length count, and standard_tableaux_count that returns it, match the oracle's count
    for boxes in range(11):
        for t in partitions_of(boxes):
            want = count_standard_tableaux(t.rows)
            assert sigma_coefficient(t) == want, t
            assert standard_tableaux_count(t) == want, t


def test_sigma_empty_convention():
    assert sigma_coefficient(P()) == 1


@pytest.mark.parametrize("rows,value", [((1,), 1), ((2, 1), 3), ((2, 2), 12)])
def test_hook_product_examples(rows, value):
    assert hook_product(P(rows)) == value


def test_hook_lengths_shape():
    assert sorted(hook_lengths(P((2, 1)))) == [1, 1, 3]


def test_hook_length_identity_through_twelve_boxes():
    for boxes in range(13):
        for t in partitions_of(boxes):
            assert sigma_coefficient(t) * hook_product(t) == factorial(boxes)


@pytest.mark.parametrize(
    "rows,m,value",
    [((), 3, 1), ((1,), 2, 2), ((2, 1), 3, 8)],
)
def test_dimension_examples(rows, m, value):
    assert dimension_glm(P(rows), m) == value


def test_dimension_against_weyl_product():
    for m in (1, 2, 3, 4):
        for boxes in range(7):
            for p in partitions_of(boxes, max_rows=m):
                assert dimension_glm(p, m) == weyl_dimension(p.rows, m)


def test_dimension_too_many_rows():
    with pytest.raises(TooManyRows):
        dimension_glm(P((1, 1, 1)), 2)


def test_k_indices():
    assert k_indices(P((2, 1)), 3) == (4, 2, 0)
    assert k_indices(P((1,)), 2) == (2, 0)
    with pytest.raises(TooManyRows):
        k_indices(P((1, 1, 1)), 2)


def test_assemble_examples():
    assert assemble(SuperDiagram(1, 1, P(), P())) == P((1,))
    assert assemble(SuperDiagram(1, 1, P((1,)), P((1,)))) == P((2, 1))
    assert assemble(SuperDiagram(2, 1, P(), P())) == P((1, 1))


def test_decompose_examples():
    sd = decompose_superdiagram(P((2, 1)), 1, 1)
    assert sd == SuperDiagram(1, 1, P((1,)), P((1,)))
    assert decompose_superdiagram(P((1,)), 1, 1) == SuperDiagram(1, 1, P(), P())
    assert decompose_superdiagram(P((1, 1, 1)), 1, 1) == SuperDiagram(1, 1, P(), P((2,)))


def test_decompose_round_trip():
    for m in (1, 2, 3):
        for n in (1, 2):
            for sd in super_diagrams(m, n, 8):
                assert decompose_superdiagram(assemble(sd), m, n) == sd


def test_decompose_degenerate_and_not_covariant():
    # hook shapes without the full m x n block decompose to the degenerate marker
    assert decompose_superdiagram(P((2,)), 2, 1) is None
    assert decompose_superdiagram(P((1,)), 2, 1) is None
    with pytest.raises(NotCovariant):
        decompose_superdiagram(P((2, 2)), 1, 1)
    assert is_covariant(P((2, 1, 1)), 1, 1)
    assert not is_covariant(P((2, 2)), 1, 1)


def test_sigma_decomposition_factor_examples():
    # single coupling factor 1/(k_1 + k_2 + 1) with k-indices from the sub-diagrams
    assert sigma_decomposition_factor(SuperDiagram(1, 1, P(), P())) == Fraction(1, 1)
    assert sigma_decomposition_factor(SuperDiagram(1, 1, P((1,)), P())) == Fraction(1, 2)
    assert sigma_decomposition_factor(SuperDiagram(2, 1, P(), P())) == Fraction(1, 2)


def test_sigma_decomposition_identity():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for sd in super_diagrams(m, n, 10):
                t = assemble(sd)
                lhs = Fraction(sigma_coefficient(t), factorial(t.size))
                rhs = (
                    Fraction(sigma_coefficient(sd.p), factorial(sd.p.size))
                    * Fraction(sigma_coefficient(sd.q), factorial(sd.q.size))
                    * sigma_decomposition_factor(sd)
                )
                assert lhs == rhs, sd


@pytest.mark.parametrize(
    "p,q,value",
    [((), (), 1), (((1,)), (), 2), ((), ((1,)), -2)],
)
def test_norm_alpha_examples(p, q, value):
    assert norm_alpha(SuperDiagram(1, 1, P(p), P(q))) == value


def test_norm_alpha_p_q_symmetry_sign():
    # swapping p and q flips the sign by parity of the box counts
    for sd in super_diagrams(2, 2, 7):
        mirrored = SuperDiagram(2, 2, sd.q, sd.p)
        a, b = norm_alpha(sd), norm_alpha(mirrored)
        sign = -1 if (sd.p.size + sd.q.size) % 2 else 1
        assert a == sign * b


def test_super_diagram_validation():
    with pytest.raises(TooManyRows):
        SuperDiagram(1, 1, P((1, 1)), P())
    with pytest.raises(ValueError):
        SuperDiagram(0, 1, P(), P())


def test_super_diagram_json_round_trip():
    sd = SuperDiagram(2, 1, P((3, 1)), P((2,)))
    doc = sd.to_json()
    assert doc == {"m": 2, "n": 1, "p": [3, 1], "q": [2]}
    assert SuperDiagram.from_json(doc) == sd
    # a count or row that int() would truncate is refused, not rounded down, and
    # so is a boolean, which int() would read as 0 or 1
    for bad in ({"m": 1.9}, {"n": 1.5}, {"p": [2.5, 1]}, {"q": [2.0, 0.5]}, {"m": "2"}, {"n": True}, {"q": [True]}):
        with pytest.raises(ValueError):
            SuperDiagram.from_json({**doc, **bad})
    assert SuperDiagram.from_json({**doc, "m": 2.0, "p": [3.0, 1]}) == sd
    # null, a list or an infinity is a ValueError naming the field, not a TypeError
    for key, bad in (("m", None), ("n", [1]), ("p", [float("inf")]), ("q", [None])):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            SuperDiagram.from_json({**doc, key: bad})
