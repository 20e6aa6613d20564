"""The package namespace: the public names, resolved on use from their submodules."""

import copy
import importlib
import importlib.util
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import superint
from superint import acceptance, cli, integrals
from superint.precision import Slotted

# every public name of the package, by defining submodule
PUBLIC = {
    "errors": """BosonFermionCoincidence GeneratorMismatch
        InputFormatError NonInvertibleBody NotCovariant SuperintError TooManyRows
        TruncationCapExceeded""",
    "precision": "BigComplex Precision vandermonde",
    "partitions": """Partition SuperDiagram assemble decompose_superdiagram
        dimension_glm hook_product is_covariant k_indices norm_alpha partitions_of
        sigma_coefficient sigma_decomposition_factor super_diagrams""",
    "schur": "lr_coefficient schur_bialternant super_schur_tableaux supercharacter_amu",
    "grassmann": """GaussianRational GrassmannElement SuperMatrixSym analytic_eval
        berezin_integrate even_inverse exp_odd_block superdeterminant supertrace""",
    "bruteforce": "brute_force_ls brute_force_ls_supermatrix_11",
    "integrals": """IntegralResult SuperEigenvalues berezinian bk_closed_form
        c_constant ls_closed_form nondiag_limit_bk nondiag_limit_ls""",
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


def test_every_traced_name_resolves_in_its_module(monkeypatch):
    # The benchmark's tracer looks each LAYERS entry up by name when it installs,
    # so a renamed or deleted one stops every traced run. Loading spans.py by
    # path installs nothing; dataclasses reads its module from sys.modules.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    traced = set()
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"superint.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                assert attr in vars(getattr(module, cls_name)), f"{layer}.{qual}"
            else:
                assert callable(getattr(module, qual, None)), f"{layer}.{qual}"
            traced.add(f"{layer}.{qual}")
    assert set(spans.PROBES) <= traced


def _values():
    """One instance of every value class in the package, by class name."""
    P, GR, GE = superint.Partition, superint.GaussianRational, superint.GrassmannElement
    prec = superint.Precision(128, 16, 64)
    odd = GE.generator(4, 0) * GR(Fraction(1, 3), -2)
    lam = superint.SuperEigenvalues((Fraction(1, 3),), (Fraction(1, 5),), Fraction(1, 2))
    report = superint.verify_conjecture(2, 1, sample_count=2, K=16)
    values = [
        P((2, 1)),
        superint.SuperDiagram(2, 1, P((2, 1)), P((1,))),
        GR(Fraction(1, 3), -2),
        odd * GE.generator(4, 1) + GE.scalar(4, 1),
        superint.exp_odd_block([[odd], [GE.generator(4, 2)]]),
        report.samples[0],
        report,
        acceptance.CriterionResult(5, "name", True, {"cells": 35}, 0.25),
        prec,
        superint.BigComplex(Fraction(22, 7), Fraction(-1, 3), bits=192),
        lam,
        superint.ls_closed_form(lam, prec),
        cli.COMMANDS["ls-eval"],
    ]
    return {type(v).__name__: v for v in values}


VALUES = _values()


def test_every_value_class_has_a_round_trip_case():
    subclasses = {cls for cls in Slotted.__subclasses__() if cls.__module__.startswith("superint.")}
    assert {type(v) for v in VALUES.values()} == subclasses
    assert {cls.__name__ for cls in subclasses} >= {"Partition", "ConjectureSample", "Command"}


@pytest.mark.parametrize("name", VALUES)
def test_value_round_trips_to_an_equal_object(name):
    value = VALUES[name]
    # a Command's run may be a lambda, which pickle cannot send
    copies = [copy.copy, copy.deepcopy] + ([] if name == "Command" else [lambda v: pickle.loads(pickle.dumps(v))])
    for make in copies:
        back = make(value)
        assert type(back) is type(value) and back == value and repr(back) == repr(value)


def test_value_reprs_and_partition_tuple_equality():
    P = superint.Partition
    assert P((2, 1)) == (2, 1) and hash(P((2, 1))) == hash((2, 1))
    sd = superint.SuperDiagram(1, 1, P((1,)), P())
    assert repr(sd) == "SuperDiagram(m=1, n=1, p=Partition(1,), q=Partition())"
