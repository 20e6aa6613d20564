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

Each public name is looked up in its submodule when it is used, so a process
loads only the layers it touches: an `ls-eval` or `bk-eval` run imports
errors, precision, integrals and cli.  Every value class in the package
is a slotted class on one base, precision.Slotted, so no module of it loads
dataclasses and the inspect, ast and dis it imports.
"""

import importlib

# Every layer builds on precision, which loads mpmath. Importing it here keeps
# mpmath inside `import superint`, where perfbench/run.py reads its import time.
from . import precision

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BosonFermionCoincidence",
        "GeneratorMismatch",
        "InputFormatError",
        "NonInvertibleBody",
        "NotCovariant",
        "SuperintError",
        "TooManyRows",
        "TruncationCapExceeded",
    ),
    "precision": (
        "BigComplex",
        "Precision",
        "bessel_ratio",
        "determinant",
        "factorial",
        "scaled_bessel_entry",
        "vandermonde",
    ),
    "partitions": (
        "Partition",
        "SuperDiagram",
        "assemble",
        "decompose_superdiagram",
        "dimension_glm",
        "hook_product",
        "is_covariant",
        "k_indices",
        "norm_alpha",
        "partitions_of",
        "sigma_coefficient",
        "sigma_decomposition_factor",
        "super_diagrams",
    ),
    "schur": (
        "lr_coefficient",
        "schur_bialternant",
        "schur_tableaux",
        "super_schur_tableaux",
        "supercharacter_amu",
    ),
    "grassmann": (
        "GaussianRational",
        "GrassmannElement",
        "SuperMatrixSym",
        "analytic_eval",
        "berezin_integrate",
        "even_inverse",
        "exp_odd_block",
        "superdeterminant",
        "supertrace",
    ),
    "bruteforce": ("brute_force_ls", "brute_force_ls_supermatrix_11"),
    "integrals": (
        "IntegralResult",
        "SuperEigenvalues",
        "berezinian",
        "bk_closed_form",
        "bk_confluent",
        "c_constant",
        "ls_closed_form",
        "ls_confluent",
        "nondiag_limit_bk",
        "nondiag_limit_ls",
    ),
    "conjecture": (
        "ConjectureReport",
        "character_expansion_check",
        "f_coefficient",
        "g_coefficient",
        "j0_truncated",
        "jm_truncated",
        "lr_relation_check",
        "partial_coefficient_check",
        "theorem_c_checks",
        "verify_conjecture",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Read from the submodule at every access and never stored here, so
    # superint.<name> always agrees with superint.<module>.<name>, also while
    # that attribute is patched and after it is restored.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
