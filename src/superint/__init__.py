"""Supergroup character expansions and closed-form supermatrix group integrals.

The package has five layers:

* precision: arbitrary-precision complex scalars, the even Bessel kernel,
  Vandermonde products and determinants;
* partitions / schur: exact Young-diagram combinatorics, Schur and
  super-Schur functions, supercharacters, Littlewood-Richardson counts;
* grassmann / bruteforce: a finite Grassmann algebra with Berezin
  integration, block supermatrices, and explicit small-supergroup
  integration used as an independent oracle;
* integrals: the closed determinant forms of the supersymmetric one- and
  two-source group integrals, with confluent and vanishing limits;
* conjecture / acceptance / cli: the verification suites and their
  command-line driver.
"""

from .errors import (
    BosonFermionCoincidence,
    DegenerateArguments,
    GeneratorMismatch,
    InputFormatError,
    NonInvertibleBody,
    NotCovariant,
    SuperintError,
    TooManyRows,
    TruncationCapExceeded,
)
from .precision import (
    BigComplex,
    Precision,
    bessel_ratio,
    determinant,
    factorial,
    scaled_bessel_entry,
    vandermonde,
)
from .partitions import (
    Partition,
    SuperDiagram,
    assemble,
    decompose_superdiagram,
    dimension_glm,
    hook_product,
    is_covariant,
    k_indices,
    norm_alpha,
    partitions_of,
    sigma_coefficient,
    sigma_decomposition_factor,
    super_diagrams,
)
from .schur import (
    lr_coefficient,
    schur_bialternant,
    schur_tableaux,
    super_schur_tableaux,
    supercharacter_amu,
)
from .grassmann import (
    EvenElement,
    GaussianRational,
    GrassmannElement,
    SuperMatrixSym,
    analytic_eval,
    berezin_integrate,
    bessel_series,
    diagonalize_1p1,
    even_inverse,
    exp_odd_block,
    superdeterminant,
    supertrace,
)
from .bruteforce import brute_force_ls, brute_force_ls_supermatrix_11
from .integrals import (
    IntegralResult,
    SuperEigenvalues,
    berezinian,
    bk_closed_form,
    bk_confluent,
    c_constant,
    ls_closed_form,
    ls_confluent,
    nondiag_limit_bk,
    nondiag_limit_ls,
)
from .conjecture import (
    ConjectureReport,
    character_expansion_check,
    f_coefficient,
    g_coefficient,
    j0_truncated,
    jm_truncated,
    lr_relation_check,
    partial_coefficient_check,
    theorem_c_checks,
    verify_conjecture,
)

__version__ = "0.1.0"
