"""The package namespace: the public names, resolved on use from their submodules."""

import importlib

import pytest

import superint
from superint import integrals

# every public name of the package, by defining submodule
PUBLIC = {
    "errors": """BosonFermionCoincidence GeneratorMismatch
        InputFormatError NonInvertibleBody NotCovariant SuperintError TooManyRows
        TruncationCapExceeded""",
    "precision": """BigComplex Precision bessel_ratio determinant factorial
        scaled_bessel_entry vandermonde""",
    "partitions": """Partition SuperDiagram assemble decompose_superdiagram
        dimension_glm hook_product is_covariant k_indices norm_alpha partitions_of
        sigma_coefficient sigma_decomposition_factor super_diagrams""",
    "schur": """lr_coefficient schur_bialternant schur_tableaux super_schur_tableaux
        supercharacter_amu""",
    "grassmann": """BesselSeries GaussianRational GrassmannElement SuperMatrixSym
        analytic_eval berezin_integrate even_inverse exp_odd_block superdeterminant
        supertrace""",
    "bruteforce": "brute_force_ls brute_force_ls_supermatrix_11",
    "integrals": """IntegralResult SuperEigenvalues berezinian bk_closed_form
        bk_confluent c_constant ls_closed_form ls_confluent nondiag_limit_bk
        nondiag_limit_ls""",
    "conjecture": """ConjectureReport character_expansion_check f_coefficient
        g_coefficient j0_truncated jm_truncated lr_relation_check
        partial_coefficient_check theorem_c_checks verify_conjecture""",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_the_submodule_object(module, name):
    defining = importlib.import_module(f"superint.{module}")
    assert getattr(superint, name) is getattr(defining, name)
    assert name in dir(superint)


def test_all_lists_exactly_the_public_names():
    assert sorted(superint.__all__) == sorted(name for _, name in NAMES)
    assert superint.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from superint import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"superint.{module}"), name)


def test_name_follows_a_patch_of_its_submodule(monkeypatch):
    original = integrals.ls_closed_form

    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(integrals, "ls_closed_form", stand_in)
    assert superint.ls_closed_form is stand_in
    monkeypatch.undo()
    assert superint.ls_closed_form is original


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        superint.no_such_name
    assert not hasattr(superint, "no_such_name")
