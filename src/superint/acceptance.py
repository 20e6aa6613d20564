"""The acceptance suite: every exit criterion as a callable check, and the
parameterised checks the CLI runs, which share their sweeps and seeded draws
with the criteria.

Each criterion is a row (index, name, check) of CRITERIA_1_12; its check
takes (seed, prec, jobs), of which only the grid uses jobs, and returns
(passed, detail), where detail is fully deterministic (decimal strings, no
timing), so a selftest report built from them is byte-reproducible for a
fixed seed, independent of worker count.  The runner times each check for
console display only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction
from functools import partial
from math import factorial

from mpmath import mp, mpf

from . import __version__
from .bruteforce import brute_force_ls
from .conjecture import (
    bk_character_sum,
    character_expansion_check,
    clear_series_memo,
    factorial_ratio_identity_holds,
    lr_relation_check,
    partial_coefficient_check,
    seeded_partition,
    splitmix64,
    theorem_c_checks,
    verify_cells,
)
from .integrals import SuperEigenvalues, bk_closed_form, ls_closed_form
from .partitions import (
    assemble,
    hook_product,
    partitions_of,
    sigma_coefficient,
    sigma_decomposition_factor,
    super_diagrams,
)
from .precision import DEFAULT_SEED, Precision, Slotted, to_mpf
from .schur import super_schur_tableaux, supercharacter_amu


class CriterionResult(Slotted):
    """One criterion's outcome; runtime_s is for console display only, never in the canonical report."""

    __slots__ = ("index", "name", "passed", "detail", "runtime_s")


def _fraction(seed: int, counter: int, span: int = 40, positive: bool = False) -> Fraction:
    v = splitmix64(seed, counter)
    num = (v % span) + 1 if positive else (v % (2 * span + 1)) - span
    den = ((v >> 32) % 37) + 2
    return Fraction(num, den)


def _nonzero_fraction(seed, counter, span=40):
    f = _fraction(seed, counter, span)
    return f if f != 0 else Fraction(1, 7)


def _sector_draw(seed: int, m: int, n: int, bos_counter: int, ferm_counter: int):
    """Seeded nonzero rational eigenvalues: m bosonic and n fermionic, from consecutive counters."""
    bos = [_nonzero_fraction(seed, bos_counter + i) for i in range(m)]
    ferm = [_nonzero_fraction(seed, ferm_counter + i) for i in range(n)]
    return bos, ferm


def lr_sweep(m: int, n: int, max_boxes: int):
    """Every block pair (p, q), at most m and n rows, |p| + |q| <= max_boxes: (p, q, residual)."""
    if max_boxes < 0:
        raise ValueError("max_boxes must be non-negative")
    for total in range(max_boxes + 1):
        for psize in range(total + 1):
            for p in partitions_of(psize, max_rows=m):
                for q in partitions_of(total - psize, max_rows=n):
                    yield p, q, lr_relation_check(p, q, m, n)[1]


# -- criteria ----------------------------------------------------------------


def criterion_hook_length(seed, prec, jobs):
    """sigma(t) * hook_product(t) = |t|! for every diagram with at most 12 boxes."""
    checked = 0
    for boxes in range(13):
        for t in partitions_of(boxes):
            if sigma_coefficient(t) * hook_product(t) != factorial(boxes):
                return False, {"failed_at": repr(t)}
            checked += 1
    return True, {"diagrams": checked}


def criterion_sigma_decomposition(seed, prec, jobs):
    """Block decomposition of sigma_t/|t|! over all diagrams, m,n <= 3, |t| <= 10."""
    checked = 0
    for m in range(1, 4):
        for n in range(1, 4):
            for sd in super_diagrams(m, n, 10):
                t = assemble(sd)
                lhs = Fraction(sigma_coefficient(t), factorial(t.size))
                rhs = (
                    Fraction(sigma_coefficient(sd.p), factorial(sd.p.size))
                    * Fraction(sigma_coefficient(sd.q), factorial(sd.q.size))
                    * sigma_decomposition_factor(sd)
                )
                if lhs != rhs:
                    return False, {"failed_at": repr(sd)}
                checked += 1
    return True, {"diagrams": checked}


def criterion_supercharacter(seed, prec, jobs):
    """Product form equals the signed tableaux sum, m,n <= 2, |t| <= 6, 5 samples."""
    checked = 0
    for m in (1, 2):
        for n in (1, 2):
            diagrams = list(super_diagrams(m, n, 6))
            for sample in range(5):
                base = 1000 * (10 * m + n) + 100 * sample
                bos, ferm = _sector_draw(seed, m, n, base, base + 50)
                for sd in diagrams:
                    want = super_schur_tableaux(assemble(sd), bos, ferm)
                    got = supercharacter_amu(sd, bos, ferm)
                    if got != want:
                        return False, {"failed_at": repr(sd), "sample": sample}
                    checked += 1
    return True, {"evaluations": checked}


def criterion_supertrace_expansion(seed, prec, jobs):
    """Powers of the supertrace expand exactly into sigma-weighted supercharacters."""
    for m in (1, 2):
        for n in (1, 2):
            base = 7000 + 100 * (10 * m + n)
            bos, ferm = _sector_draw(seed, m, n, base, base + 50)
            if not character_expansion_check(m, n, 6, bos, ferm):
                return False, {"failed_at": f"(m,n)=({m},{n})"}
    return True, {"blocks": "m,n in {1,2}, 6 boxes"}


def criterion_conjecture_grid(seed, prec, jobs):
    """Antisymmetric vs split series on the full desk-scale grid.

    N = 2..8, every m, 10 seeded samples of radius 2, depth 64; relative
    differences must stay below the computed tail bound and below 1e-40.
    """
    cells = [(N, m) for N in range(2, 9) for m in range(1, N + 1)]
    with mp.workprec(prec.work_bits):
        rows = [
            {
                "N": r.N,
                "m": r.m,
                "pass": r.passed,
                "max_rel_diff": mp.nstr(mpf(r.max_rel_diff), 10),
                "tolerance": mp.nstr(mpf(r.tolerance), 10),
                "below_1e-40": bool(r.max_rel_diff < mpf(10) ** -40),
            }
            for r in verify_cells(cells, 10, 2, seed, prec, 64, jobs)
        ]
    return all(r["pass"] and r["below_1e-40"] for r in rows), {"cells": rows}


def criterion_lr_relation(seed, prec, jobs):
    """Exact rational recursion for the block-coupling coefficients, |p|+|q| <= 8."""
    pairs = 0
    for m, n in ((1, 1), (2, 1), (2, 2)):
        for p, q, residual in lr_sweep(m, n, 8):
            if residual:
                return False, {"failed_at": f"(m,n)=({m},{n}) p={p!r} q={q!r}", "residual": str(residual)}
            pairs += 1
    return True, {"pairs": pairs}


def criterion_partial_coefficients(seed, prec, jobs):
    """Closed product prefactor matches the extracted coefficients, N <= 4, k <= 4."""
    checked = 0
    for N in range(2, 5):
        for m in range(1, N):
            # four past the pattern's base indices m - 1 and N - m - 1
            if not partial_coefficient_check(m + 3, N - m + 3, m, N):
                return False, {"failed_at": f"N={N} m={m}"}
            checked += 1
    return True, {"grids": checked}


def criterion_haar(m, n, points, seed, prec, jobs):
    """Explicit (m|n) Haar-parametrized integration equals the closed form at `points` seeded points."""
    beta = Fraction(1, 2)
    rows = []
    ok = True
    with mp.workprec(prec.work_bits):
        tol = mpf(2) ** -200
        for s in range(points):
            base = 3_000_000 + 1000 * s + 100 * (10 * m + n)
            while True:
                a = [_fraction(seed, base + i, positive=True) for i in range(m + n)]
                b = [_fraction(seed, base + 50 + i, positive=True) for i in range(m + n)]
                prods = [a[i] * b[i] for i in range(m + n)]
                if len(set(prods)) == m + n:
                    break
                base += 10_000  # re-draw on coinciding products
            bf = brute_force_ls(m, n, a, b, beta, prec)
            ev = SuperEigenvalues(tuple(prods[:m]), tuple(prods[m:]), beta)
            cf = ls_closed_form(ev, prec).value
            rel = abs(bf.to_mpc() - cf.to_mpc()) / abs(cf.to_mpc())
            rows.append({"point": s, "rel_diff": mp.nstr(rel, 8)})
            if not rel <= tol:
                ok = False
    return ok, {"points": rows}


def criterion_confluent_limits(seed, prec, jobs):
    """Generic branch converges linearly to the confluent branch as values merge."""
    beta = Fraction(1, 2)
    x, y = Fraction(3, 5), Fraction(1, 7)
    detail = {}
    ok = True
    with mp.workprec(prec.work_bits):
        # a repeated bosonic value at (2,1): one source, then two with the second set fixed
        mu = SuperEigenvalues((Fraction(2, 5), Fraction(1, 4)), (Fraction(5, 9),), beta)
        evaluators = (
            ("one_source_slopes", lambda lam: ls_closed_form(lam, prec)),
            ("two_source_slopes", lambda lam: bk_closed_form(lam, mu, prec)),
        )
        for key, evaluate in evaluators:
            conf = evaluate(SuperEigenvalues((x, x), (y,), beta)).value.to_mpc()
            slopes = []
            for e in (4, 6, 8):
                eps = Fraction(1, 10**e)
                gen = evaluate(SuperEigenvalues((x, x + eps), (y,), beta)).value.to_mpc()
                rel = abs(gen - conf) / abs(conf)
                slopes.append(rel * 10**e)
                if e == 6 and not rel <= mpf(100) * mpf(10) ** -6:
                    ok = False
            if max(slopes) > 50 * min(slopes):
                ok = False
            detail[key] = [mp.nstr(s, 6) for s in slopes]
    return ok, detail


def criterion_bk_factorization(seed, prec, jobs):
    """Two-source closed form equals its truncated diagram expansion at (1|1)."""
    beta = Fraction(1, 2)
    rows = []
    ok = True
    with mp.workprec(prec.work_bits):
        for s in range(3):
            base = 9_000_000 + 1000 * s
            vals = []
            counter = 0
            while len(vals) < 4:
                f = _fraction(seed, base + counter, span=60)
                counter += 1
                if f != 0 and abs(f) <= 1 and f not in vals:
                    vals.append(f)
            lam = SuperEigenvalues((vals[0],), (vals[1],), beta)
            mu = SuperEigenvalues((vals[2],), (vals[3],), beta)
            closed = bk_closed_form(lam, mu, prec).value.to_mpc()
            truncated, shells = bk_character_sum(
                [vals[0]], [vals[1]], [vals[2]], [vals[3]], beta, 20
            )
            tail = sum(abs(to_mpf(shells[b])) for b in (19, 20) if b in shells)
            bound = 100 * tail + mpf(2) ** (-(prec.bits - 48))
            diff = abs(closed - to_mpf(truncated))
            rows.append({"sample": s, "diff": mp.nstr(diff, 6), "bound": mp.nstr(bound, 6)})
            if not diff <= bound:
                ok = False
    return ok, {"samples": rows}


def criterion_factorial_ratio(seed, prec, jobs):
    """Factorial-ratio determinant identity for 50 seeded partitions, N <= 6."""
    for s in range(50):
        N = splitmix64(seed, 5000 + 3 * s) % 6 + 1
        t = seeded_partition(seed, 5001 + 3 * s, N)
        if not factorial_ratio_identity_holds(t, N):
            return False, {"failed_at": f"N={N} t={t!r}"}
    return True, {"partitions": 50}


CRITERIA_1_12 = [
    (1, "hook-length identity", criterion_hook_length),
    (2, "sigma block decomposition", criterion_sigma_decomposition),
    (3, "supercharacter consistency", criterion_supercharacter),
    (4, "supertrace power expansion", criterion_supertrace_expansion),
    (5, "series identity grid", criterion_conjecture_grid),
    (6, "coefficient recursion sweep", criterion_lr_relation),
    (7, "extreme-pattern coefficients", criterion_partial_coefficients),
    (8, "explicit (1|1) integration", partial(criterion_haar, 1, 1, 10)),
    (9, "explicit (2|1) integration", partial(criterion_haar, 2, 1, 5)),
    (10, "confluent limits scale linearly", criterion_confluent_limits),
    (11, "two-source factorization vs expansion", criterion_bk_factorization),
    (12, "factorial-ratio determinant identity", criterion_factorial_ratio),
]


def _timed(index, name, check, *args) -> CriterionResult:
    start = time.monotonic()
    passed, detail = check(*args)
    return CriterionResult(index, name, passed, detail, time.monotonic() - start)


def run_criteria_1_12(prec: Precision, seed: int, jobs: int = 1):
    return [_timed(index, name, check, seed, prec, jobs) for index, name, check in CRITERIA_1_12]


def _criterion_rows(results) -> list:
    return [{"index": r.index, "name": r.name, "pass": r.passed, "detail": r.detail} for r in results]


def canonical_report(results, prec: Precision, seed: int) -> bytes:
    """Deterministic JSON payload: no timing, no worker counts."""
    doc = {
        "schema": "superint-selftest/1",
        "tool": {"name": "superint", "version": __version__},
        "seed": seed,
        "precision_bits": prec.bits,
        "guard_bits": prec.guard_bits,
        "truncation_cap": prec.truncation_cap,
        "criteria": _criterion_rows(results),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def criterion_determinism(prec: Precision, seed: int, reference: bytes):
    """Reruns of the suite yield byte-identical reports, independent of workers.

    Each rerun starts with an empty series memo, so it recomputes every
    J0 = Jm table instead of reading the earlier run's values.
    """
    clear_series_memo()
    rerun_serial = canonical_report(run_criteria_1_12(prec, seed, jobs=1), prec, seed)
    clear_series_memo()
    rerun_parallel = canonical_report(run_criteria_1_12(prec, seed, jobs=2), prec, seed)
    return reference == rerun_serial == rerun_parallel, {
        "sha256": hashlib.sha256(reference).hexdigest(),
        "serial_rerun_equal": reference == rerun_serial,
        "parallel_rerun_equal": reference == rerun_parallel,
    }


def run_all(prec: Precision, seed: int = DEFAULT_SEED, jobs: int = 1):
    """Run the full suite; returns (results, canonical report bytes of criteria 1-12)."""
    results = run_criteria_1_12(prec, seed, jobs)
    reference = canonical_report(results, prec, seed)
    results.append(_timed(13, "byte-identical reports", criterion_determinism, prec, seed, reference))
    return results, reference


# -- the checks the CLI runs ---------------------------------------------------
#
# Each returns (passed, report body, config echo beyond the command's own flags)
# and shares its sweep or its seeded draw with the criteria above.


def conjecture_check(seed, prec, jobs, N, m, samples, radius):
    """The seeded J0 = Jm comparison at one N, for block size m or, if None, every m."""
    ms = [m] if m is not None else list(range(1, N + 1))
    if not ms:
        raise ValueError("N must be at least 1")
    reports = [r.to_json() for r in verify_cells([(N, k) for k in ms], samples, radius, seed, prec, 64, jobs)]
    return all(r["pass"] for r in reports), {"results": reports}, {"m": ms, "depth": 64}


def lr_check(m, n, max_boxes):
    """The coefficient recursion sweep of criterion 6 at one (m, n), every residual listed."""
    sweep = list(lr_sweep(m, n, max_boxes))
    rows = [{"p": list(p.rows), "q": list(q.rows), "residual": str(residual)} for p, q, residual in sweep]
    return not any(residual for _, _, residual in sweep), {"results": rows}, {}


def supertrace_check(seed, m, n, max_boxes):
    """The supertrace power expansion of criterion 4 at one (m, n) and box count."""
    bos, ferm = _sector_draw(seed, m, n, 100, 200)
    ok = character_expansion_check(m, n, max_boxes, bos, ferm)
    return ok, {}, {"bosonic": [str(v) for v in bos], "fermionic": [str(v) for v in ferm]}


def haar_check(seed, prec):
    """Criteria 8 and 9: explicit (1|1) and (2|1) integration against the closed form."""
    results = {}
    for _, _, check in CRITERIA_1_12[7:9]:  # the rows of criteria 8 and 9
        m, n, _ = check.args
        passed, detail = check(seed, prec, 1)
        results[f"block_{m}_{n}"] = {"pass": passed, **detail}
    return all(r["pass"] for r in results.values()), {"results": results}, {}


def theorems_check(seed, N):
    """The rearrangement and determinant identities up to size N."""
    return theorem_c_checks(N, seed=seed), {}, {}


def selftest(seed, prec, jobs):
    """Criteria 1-13; one console line per criterion goes to stderr."""
    results, _reference = run_all(prec, seed=seed, jobs=jobs)
    width = max(len(r.name) for r in results)
    for r in results:
        line = f"  [{r.index:2d}] {r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  ({r.runtime_s:.1f}s)"
        print(line, file=sys.stderr)
    return all(r.passed for r in results), {"criteria": _criterion_rows(results)}, {}
