"""Tests of the benchmark's own code: generators, oracle, span arithmetic, counting.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest
from mpmath import mp, mpf

import evaloracle
import run
import spans
import workloads
from superint.integrals import SuperEigenvalues, bk_closed_form, ls_closed_form
from superint.precision import BigComplex, Precision

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _first(workload, seed, count):
    stream = workload.specs(seed)
    return [repr(next(stream)) for _ in range(count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    w = workloads.make(name, ROOT)
    count = 2 * w.trace_ops
    assert _first(w, 7, count) == _first(workloads.make(name, ROOT), 7, count)
    assert _first(w, 7, count) != _first(w, 8, count)


def test_eval_mix_covers_every_branch_kind_and_precision():
    stream = workloads.Eval().specs(3)
    specs = [next(stream) for _ in range(workloads.EVAL_BLOCK)]
    assert {s["branch"] for s in specs} == {"generic", "confluent", "vanishing"}
    assert {s["kind"] for s in specs} == {"ls", "bk"}
    assert {s["bits"] for s in specs} == set(workloads.EVAL_BITS)
    assert {s["m"] + s["n"] for s in specs} == set(range(1, 13))


def _rel(value, ref):
    with mp.workprec(1024):
        return abs(value.to_mpc() - ref.value) / abs(ref.value)


def _ev(bos, ferm):
    return SuperEigenvalues(
        tuple(BigComplex(v) for v in bos), tuple(BigComplex(v) for v in ferm), BigComplex(0.5)
    )


@pytest.mark.parametrize(
    "bos, ferm",
    [
        ((0.3 + 0.1j, 1.2 - 0.5j), (0.7j,)),  # generic
        ((0.3, 0.3, 2.0), (0.5,)),  # confluent
        ((1.0,), ()),
    ],
)
def test_oracle_agrees_with_ls_closed_form(bos, ferm):
    ref = evaloracle.ls_reference(bos, ferm, 0.5, 256)
    assert ref.lost_bits <= workloads.CONDITIONED_LOSS_BITS
    assert _rel(ls_closed_form(_ev(bos, ferm), Precision(256)).value, ref) < mpf(2) ** -240


@pytest.mark.parametrize(
    "lam, mu",
    [
        (((0.3 + 0.1j, 1.2 - 0.5j), (0.7j,)), ((0.5, -0.9), (0.2 - 1j,))),
        (((0.3, 0.3, 0.3), (0.7j, 2, 2)), ((0.5, 0.5, -0.9), (0.2 - 1j, 3, 3))),  # confluent
    ],
)
def test_oracle_agrees_with_bk_closed_form(lam, mu):
    ref = evaloracle.bk_reference(*lam, *mu, 0.5, 256)
    got = bk_closed_form(_ev(*lam), _ev(*mu), Precision(256)).value
    assert _rel(got, ref) < mpf(2) ** -240


def test_oracle_kernel_matches_bessel_j():
    # R(0, -x^2) = J0(2x)
    with mp.workprec(512):
        value, lost = evaloracle.kernel(0, mpf(-1e4))
        assert abs(value - mp.besselj(0, 200)) < mpf(2) ** -480
    assert lost > 250


def test_eval_check_flags_the_cancelling_kernel():
    # beta^2 x = -1e4: R(0, -1e4) = J0(200) loses ~285 bits in a fixed-guard sum
    spec = {"kind": "ls", "bits": 256, "branch": "generic", "m": 1, "n": 0,
            "lam": ([-4e4 + 0j], [])}
    w = workloads.Eval()
    ref = w.prepare(spec)
    outcome = w.check(spec, ref, w.run(spec))
    assert not outcome.ok
    assert not outcome.must_pass
    assert ref.lost_bits > workloads.CONDITIONED_LOSS_BITS


def test_self_time_subtracts_children_once():
    S = spans.Span
    tree = [
        S(0, "op", 0.0, 10.0, None, 0),
        S(1, "a", 1.0, 4.0, 0, 0),
        S(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: covered interval is 1..6
        S(3, "c", 2.0, 3.0, 1, 0),
        S(4, "d", 8.0, 12.0, 0, 0),  # runs past its parent: only 8..10 counts
    ]
    self_s = spans.self_times(tree)
    assert self_s == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_tracer_sees_calls_inside_the_package_and_restores():
    import superint.integrals as integrals
    import superint.precision as precision

    original = precision.det_mpc
    tracer = spans.Tracer()
    with tracer:
        assert integrals.det_mpc is not original
        # called through the module, as the workloads do
        integrals.ls_closed_form(_ev((0.3, 1.1), (0.7,)), Precision(128))
    assert integrals.det_mpc is original and precision.det_mpc is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["precision.det_mpc.calls"] == 1
    assert metrics["precision.det_mpc.flops"] == 9
    assert metrics["integrals.branch_generic"] == 1
    assert metrics["precision.bessel_ratio_raw.calls"] == 9
    assert metrics["integrals.self_s"] > 0


def test_j0_repeat_ratio_counts_repeated_samples():
    import superint.conjecture as conjecture

    z = [BigComplex(0.5), BigComplex(0.25j)]
    tracer = spans.Tracer()
    with tracer:
        for K in (8, 8, 9):
            conjecture.j0_truncated(z, K, Precision(128))
    assert spans.layer_metrics(tracer)["conjecture.j0_repeat_ratio"] == 1 / 3


class _Flaky:
    """Op i raises when i % 3 == 0 and returns a wrong answer when i % 3 == 1."""

    name = "flaky"
    pass_ops = 1

    def run(self, spec):
        if spec % 3 == 0:
            raise ValueError("boom")
        return spec

    def check(self, spec, prepared, output):
        return workloads.Outcome(spec % 3 == 2, must_pass=spec % 2 == 0)

    def canonical(self, output):
        return output


def test_failed_ops_are_counted_not_dropped():
    specs = list(range(9))
    records, _, _ = run.run_ops(_Flaky(), specs, None)
    assert [r[0] for r in records] == specs
    failed, must_fail, canon = run.judge(_Flaky(), specs, [None] * 9, records)
    assert failed == 6  # 0, 3, 6 raise; 1, 4, 7 are wrong
    assert must_fail == 3 + 1  # every raise, plus the wrong even op 4
    assert len(canon) == 9


def test_latencies_are_scaled_by_the_nearest_reference_samples():
    nominal = run.REFERENCE_NOMINAL_S
    # the machine runs at half speed until t = 10, then at full speed
    refs = [(t, 2 * nominal if t < 10 else nominal) for t in range(20)]
    records = [(0, 0.4, None, 2.5), (1, 0.2, None, 15.5)]
    assert run.scaled_latencies(records, refs) == [0.2, 0.2]
    assert run.timing([0.2, 0.2])["ops_per_s"] == 5


def test_benchmark_json_declares_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in declared["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.errors"} <= names
