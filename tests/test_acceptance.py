"""Acceptance suite: each exit criterion at its stated tolerance.

The full suite runs once per session (criteria 1-12 plus the determinism
rerun); each test then asserts its criterion and prints one pass/fail line.
The canonical report of criteria 1-12 is pinned by its sha256, so a change
that moves any reported digit shows up here.
"""

import hashlib

import pytest

from superint.acceptance import DEFAULT_SEED, run_all
from superint.precision import Precision

BUDGETS_S = {
    1: 10,
    2: 30,
    3: 60,
    4: 120,
    5: 600,
    6: 300,
    7: 60,
    8: 60,
    9: 120,
    10: 60,
    11: 120,
    12: 10,
    13: 1800,
}

# criteria 1-12, seed 42, 256 bits, 32 guard bits, truncation cap 512
REFERENCE_SHA256 = "82f093f49c413dd5ec24f70cbd9628a8f87b16873827472ffeba2930457dac2e"


@pytest.fixture(scope="session")
def suite():
    results, reference = run_all(Precision(), seed=DEFAULT_SEED, jobs=2)
    return {r.index: r for r in results}, reference


@pytest.mark.parametrize("index", sorted(BUDGETS_S))
def test_criterion(suite, index):
    criteria, _ = suite
    result = criteria[index]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:2d} [{result.name}]: {status} ({result.runtime_s:.1f}s)")
    assert result.passed, result.detail
    assert result.runtime_s < BUDGETS_S[index], f"criterion {index} over its runtime budget"


def test_canonical_report_pinned(suite):
    _, reference = suite
    assert hashlib.sha256(reference).hexdigest() == REFERENCE_SHA256


def test_factorial_ratio_draws_read_each_stream_position_once(monkeypatch):
    from superint import acceptance, conjecture

    read = []

    def recording(seed, counter):
        read.append(counter)
        return splitmix64(seed, counter)

    splitmix64 = conjecture.splitmix64
    monkeypatch.setattr(acceptance, "splitmix64", recording)
    monkeypatch.setattr(conjecture, "splitmix64", recording)
    passed, _ = acceptance.criterion_factorial_ratio(DEFAULT_SEED, Precision(), 1)
    assert passed
    assert len(read) == 150
    assert len(set(read)) == len(read)


def test_determinism_reruns_recompute_the_series_tables(monkeypatch):
    # criterion 13 must rerun the J0 = Jm series, not read the first run's memo
    from superint import acceptance, conjecture

    computed = []

    def counting(*args):
        computed.append(args)
        return fixed_series_terms(*args)

    fixed_series_terms = conjecture.fixed_series_terms
    monkeypatch.setattr(conjecture, "fixed_series_terms", counting)
    prec = Precision()
    z = [conjecture.sample_disk(DEFAULT_SEED, 0, c, 2, prec.bits) for c in range(3)]
    misses = []

    def run(prec, seed, jobs=1):
        before = len(computed)
        for m in range(1, 4):
            conjecture.jm_truncated(z, m, 64, prec)
        misses.append(len(computed) - before)
        return []

    monkeypatch.setattr(acceptance, "run_criteria_1_12", run)
    conjecture.clear_series_memo()
    reference = acceptance.canonical_report(run(prec, DEFAULT_SEED), prec, DEFAULT_SEED)
    passed, _ = acceptance.criterion_determinism(prec, DEFAULT_SEED, reference)
    assert passed
    assert misses[0] > 0 and misses == [misses[0]] * 3


def test_determinism_reruns_recompute_the_draws(monkeypatch):
    # criterion 13 must draw its sample points anew, not read the first run's draws
    from superint import acceptance, conjecture

    drawn = []

    def counting(seed, counter):
        drawn.append(counter)
        return unit_double(seed, counter)

    unit_double = conjecture.unit_double
    monkeypatch.setattr(conjecture, "unit_double", counting)
    prec = Precision()
    misses = []

    def run(prec, seed, jobs=1):
        before = len(drawn)
        for m in range(1, 4):
            for s in range(2):
                for c in range(3):
                    conjecture.sample_disk(seed, s, c, 2, prec.bits)
        misses.append(len(drawn) - before)
        return []

    monkeypatch.setattr(acceptance, "run_criteria_1_12", run)
    conjecture.clear_series_memo()
    reference = acceptance.canonical_report(run(prec, DEFAULT_SEED), prec, DEFAULT_SEED)
    passed, _ = acceptance.criterion_determinism(prec, DEFAULT_SEED, reference)
    assert passed
    # two parts of each of the six points, once per run
    assert misses == [12] * 3


def test_jobs_reaches_the_grid_and_every_row_gets_the_same_arguments(monkeypatch):
    # criterion 13 cannot see a dropped jobs: a serial rerun also equals the reference
    from superint import acceptance

    pooled, calls = [], []

    def pool(fn, tasks, jobs):
        pooled.append(jobs)
        return [{"pass": True, "below_1e-40": True} for _ in tasks]

    def recording(index, check):
        def row(*args):
            calls.append((index, args))
            return check(*args) if index == 5 else (True, {})

        return row

    rows = [(index, name, recording(index, check)) for index, name, check in acceptance.CRITERIA_1_12]
    monkeypatch.setattr(acceptance, "pool_map", pool)
    monkeypatch.setattr(acceptance, "CRITERIA_1_12", rows)
    prec = Precision()
    results = acceptance.run_criteria_1_12(prec, DEFAULT_SEED, jobs=2)
    assert pooled == [2]
    assert calls == [(index, (DEFAULT_SEED, prec, 2)) for index in range(1, 13)]
    assert [(r.index, r.passed) for r in results] == [(index, True) for index in range(1, 13)]
