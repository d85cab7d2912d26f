"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here: the combinatorial
identities are exact, the method cross-checks are exact integer equality, and
the density and slice inequalities use their stated constants.
"""

import math
import time

import pytest

from mnaq.assoc import sigma_count
from mnaq.charside import (
    sigma_count_D,
    slice_counters,
    slice_params,
)
from mnaq.field import odd_prime_powers
from mnaq.quasigroup import enumerate_sigma, sigma_cardinality
from mnaq.reports import density_bound_slack
from mnaq.search import mna_sample_stats
from mnaq.suites import membership_vs_e_side, run_suite
from mnaq.weil import run_weil_trials, verify_slice_lists

from conftest import field

LARGE_Q = (10007, 10009)  # 3 mod 4 and 1 mod 4


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:02d}: {marker} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def large_sigma():
    out = {}
    for q in LARGE_Q:
        start = time.perf_counter()
        out[q] = (sigma_count_D(field(q)), time.perf_counter() - start)
    return out


def test_criterion_01_sigma_cardinality():
    start = time.perf_counter()
    for q in odd_prime_powers(3, 199):
        F = field(q)
        assert len(enumerate_sigma(F)) == sigma_cardinality(q), q
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10,
           f"|Sigma| = (q^2-8q+15)/4 for all odd prime powers q <= 199 "
           f"in {elapsed:.1f}s (< 10s)")


def test_criterion_02_method_equivalence():
    start = time.perf_counter()
    for q in (9, 11, 13, 17, 19, 23, 25, 27):
        F = field(q)
        values = {
            sigma_count(F, "A"),
            sigma_count(F, "B"),
            sigma_count(F, "Bscaled"),
            sigma_count(F, "C"),
        }
        assert len(values) == 1, (q, values)
    for q in odd_prime_powers(9, 125):
        F = field(q)
        values = {
            sigma_count(F, "Bscaled"),
            sigma_count(F, "C"),
            sigma_count_D(F),
        }
        assert len(values) == 1, (q, values)
    elapsed = time.perf_counter() - start
    report(2, elapsed < 300,
           f"A=B=B'=C on q in 9..27 and B'=C=D on all prime powers 9..125 "
           f"in {elapsed:.1f}s (< 5min)")


def test_criterion_03_characterization_fidelity():
    # the class masks checked here are the ones sigma_count_D counts
    checked = 0
    for q in (13, 17, 19, 23, 25, 27):
        n, bad = membership_vs_e_side(field(q))
        assert not bad, (q, bad[:5])
        checked += n
    report(3, True, f"class membership matches the equation-side ground truth "
                    f"on {checked} (pair, class) checks, zero tolerance")


def test_criterion_04_symmetries():
    sym = run_suite("symmetry", 49)
    parts = run_suite("partitions", 49)
    bad = [c for c in sym.checks + parts.checks if not c.ok]
    report(4, not bad,
           f"pair/class transports, S symmetries and both T partitions hold "
           f"exhaustively for q <= 49 ({len(sym.checks) + len(parts.checks)} "
           f"checks)" + (f"; failures: {bad[:3]}" if bad else ""))


def test_criterion_05_squarefree_lists():
    start = time.perf_counter()
    violations = []
    admissible_total = 0
    for q in odd_prime_powers(3, 199):
        rep = verify_slice_lists(field(q))
        admissible_total += rep.admissible_count
        violations.extend(f"q={q}: {v}" for v in rep.violations)
    elapsed = time.perf_counter() - start
    report(5, not violations and elapsed < 120,
           f"15-polynomial list square-free and |R(c)| = 7 at all "
           f"{admissible_total} admissible c, q <= 199, in {elapsed:.1f}s "
           f"(< 2min)" + (f"; violations: {violations[:3]}" if violations else ""))


def test_criterion_06_sign_pattern_bound():
    worst = 0.0
    for q in odd_prime_powers(3, 199):
        if field(q).k != 1:
            continue
        rep = run_weil_trials(field(q), 200, seed=0xA5C0FFEE ^ q)
        assert rep.ok, f"bound violated at q={q}"
        worst = max(worst, rep.max_ratio)
    report(6, True,
           f"|N - q/2^k| < (sqrt(q)+1)D/2 on 200 seeded square-free lists per "
           f"prime q <= 199; worst gap/bound ratio {worst:.3f}")


def test_criterion_07_slice_bounds():
    checked = 0
    for q in (31, 43, 47, 59, 71, 29, 37, 41, 53):
        F = field(q)
        mod3 = q % 4 == 3
        for c in range(2, q):
            if F.chi(c) != 1:
                continue
            if mod3 and F.chi(F.sub(1, c)) != 1:
                continue
            sc = slice_counters(F, c)
            if sc.admissible:
                assert sc.bounds_ok, (q, c, sc)
                checked += 1
    report(7, checked > 0,
           f"per-slice bounds hold at every admissible c "
           f"({checked} slices over nine fields), zero violations")


def test_criterion_08_global_bounds(large_sigma):
    slack_fail = []
    for q in odd_prime_powers(9, 125):
        s = sigma_count_D(field(q))
        if density_bound_slack(q, s) < 0:
            slack_fail.append(q)
    details = []
    for q in LARGE_Q:
        s, secs = large_sigma[q]
        slack = density_bound_slack(q, s)
        if slack < 0:
            slack_fail.append(q)
        details.append(f"sigma({q})={s} [{secs:.1f}s, slack {slack:.3g}]")
    report(8, not slack_fail,
           "global density inequalities hold for every computed q; "
           + "; ".join(details))


def test_criterion_09_counting_identity():
    for q in odd_prime_powers(3, 199):
        if q % 4 != 3:
            continue
        assert len(slice_params(field(q))) == (q - 3) // 4, q
    report(9, True,
           "#{c : chi(c) = chi(1-c) = 1} = (q-3)/4 for every prime power "
           "q = 3 mod 4 up to 199")


def test_criterion_10_search_statistics(large_sigma):
    lines = []
    ok = True
    asymptotic = {10007: 1 / 19.86, 10009: 1 / 8.596}
    for q in LARGE_Q:
        sigma, _ = large_sigma[q]
        p = sigma / sigma_cardinality(q)
        hits, n = mna_sample_stats(field(q), 10_000, seed=0x5CA1E ^ q)
        p_hat = hits / n
        tol = 3 * math.sqrt(p * (1 - p) / n)
        ok &= abs(p_hat - p) <= tol
        lines.append(
            f"q={q}: p_hat={p_hat:.5f} vs exact {p:.5f} (3-sigma tol "
            f"{tol:.5f}); paper asymptotic {asymptotic[q]:.5f} (reported)"
        )
    report(10, ok, "; ".join(lines))


def test_criterion_11_regression_freeze(sigma_small):
    for q, frozen in sigma_small.items():
        F = field(q)
        assert sigma_count(F, "A") == frozen, q
        assert sigma_count(F, "B") == frozen, q
    report(11, True,
           f"sigma(q) for q in {sorted(sigma_small)} still equals the frozen "
           f"first-build values {list(sigma_small.values())}")


def test_criterion_12_method_c_witness():
    # method C counts on the parameter side, D on the square-pair side
    start = time.perf_counter()
    counts = {}
    for q in (3001, 729, 2187):
        F = field(q)
        counts[q] = (sigma_count(F, "C"), sigma_count_D(F))
    elapsed = time.perf_counter() - start
    report(12, all(c == d for c, d in counts.values()),
           "C = D at " + ", ".join(f"q={q} ({c} vs {d})" for q, (c, d) in counts.items())
           + f" in {elapsed:.1f}s")
