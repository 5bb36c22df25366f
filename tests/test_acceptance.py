"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest with -s to see
them) and asserts the same condition, so the printed summary and the
pytest verdict can never disagree.
"""

import json
import math
import time
from fractions import Fraction

from hadcover.asymptotics import (
    a_of_t,
    convergence_table,
    growth_constants,
    k_max_crosspolytope,
    k_of_n_simplex,
    m1_growth,
    m2_lower_growth,
    m2_upper_growth,
    printed_variant_max,
)
from hadcover.cli import main
from hadcover.combinatorics import (
    m1_count,
    m2_count_closed,
    m2_count_recurrence,
)
from hadcover.covering import (
    gamma_upper_bound,
    t_sequence,
    verify_covering_exact,
    verify_covering_lp,
)
import oracles
from conftest import break_witnesses


def _verdict(capsys, name, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_acceptance_1_count_oracles(capsys):
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        for k in range(6):
            ok = ok and (
                oracles.box_count_m1(n, k)
                == m1_count(n, k)
            )
            m2_expected = oracles.box_count_m2(n, k)
            ok = ok and m2_count_closed(n, k) == m2_expected
            ok = ok and m2_count_recurrence(n, k) == m2_expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(capsys,
             f"counts match brute-force enumeration, n<=6 k<=5 ({elapsed:.1f}s)", ok)


def test_acceptance_2_count_identities(capsys):
    ok = all(m2_count_closed(1, k) == 2 * k + 1 for k in range(21))
    ok = ok and all(
        m2_count_closed(2, k) == 2 * k * k + 2 * k + 1 for k in range(21)
    )
    ok = ok and all(
        m2_count_closed(n, k) == m2_count_closed(k, n)
        for n in range(13)
        for k in range(13)
    )
    for n in range(1, 21):
        for k in range(1, n + 1):
            value = m2_count_closed(n, k)
            ok = ok and (1 << k) * math.comb(n, k) <= value
            ok = ok and value <= (1 << k) * math.comb(n + k, k)
    _verdict(capsys, "low-dimension laws, symmetry, and sandwich bounds", ok)


def test_acceptance_3_exact_covering(capsys):
    start = time.monotonic()
    ok = True
    for family in ("simplex", "crosspolytope"):
        for n in range(1, 6):
            for k in range(5):
                report = verify_covering_exact(family, n, k, samples=1000, seed=42)
                ok = ok and report.ok
                ok = ok and report.witness_failures == 0
                ok = ok and report.translate_failures == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(capsys,
             f"exact covering witnesses and translates, n<=5 k<=4 ({elapsed:.1f}s)",
             ok)


def test_acceptance_4_lp_covering(capsys):
    ok = True
    for p in (1.5, 2.0, 3.0):
        for n in (2, 3, 5):
            for k in range(4):
                for family in ("qlp", "lp"):
                    report = verify_covering_lp(family, n, p, k, samples=500, seed=42)
                    ok = ok and report.ok
            ts = t_sequence(n, p, 20)
            for k, t in enumerate(ts.values):
                ok = ok and t**p >= (n + k) / n - 1e-10
            for k in range(20):
                ok = ok and ts.values[k + 1] ** p - ts.values[k] ** p >= 1 / n - 1e-10
    for n in (2, 3, 5):
        exact = t_sequence(n, 1.0, 20)
        ok = ok and exact.values == tuple(Fraction(n + k, n) for k in range(21))
    _verdict(capsys, "l_p peeling verifier and certified scale sequence", ok)


def test_acceptance_5_constants(capsys):
    gc = growth_constants()
    ok = abs(gc.c1 - 0.2938) <= 1e-4
    ok = ok and abs(gc.c3 - 0.2056) <= 1e-4
    ok = ok and abs(gc.c4 - 0.2271) <= 1e-4
    ok = ok and abs(m1_growth(gc.c1) - 2.0) <= 1e-12
    ok = ok and abs(m2_upper_growth(gc.c3) - 2.0) <= 1e-12
    ok = ok and abs(m2_lower_growth(gc.c4) - 2.0) <= 1e-12
    ok = ok and abs(a_of_t(2.0) - gc.c1) <= 1e-12
    _, peak = printed_variant_max()
    ok = ok and peak < 2.0
    ok = ok and round(gc.c4, 4) == 0.2271
    _verdict(capsys, "growth constants, residuals, and variant resolution", ok)


def test_acceptance_6_threshold_convergence(capsys):
    start = time.monotonic()
    gc = growth_constants()
    k_simplex = k_of_n_simplex(2048)
    ok = abs(k_simplex / 2048 - gc.c1) <= 0.02
    k_cross = k_max_crosspolytope(1024)
    ratio = k_cross / 1024
    ok = ok and gc.c3 - 0.02 <= ratio <= gc.c4 + 0.02
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _verdict(capsys,
             f"exact thresholds track the growth roots at n=2048/1024 ({elapsed:.1f}s)",
             ok)


def test_acceptance_7_gamma_tables(capsys):
    bound = gamma_upper_bound("simplex", 3, 1.0, 1)
    ok = (bound.m, bound.rho) == (4, Fraction(3, 4))
    bound = gamma_upper_bound("simplex", 4, 1.0, 2)
    ok = ok and (bound.m, bound.rho) == (15, Fraction(2, 3))
    bound = gamma_upper_bound("crosspolytope", 3, 1.0, 1)
    ok = ok and (bound.m, bound.rho) == (7, Fraction(3, 4))
    for p in (1.5, 2.0, 3.0):
        for n in (3, 4, 6):
            (flat,) = convergence_table("simplex", [n])
            (lifted,) = convergence_table("qlp", [n], p)
            ok = ok and lifted.k == flat.k
            ok = ok and math.isclose(
                lifted.bound, flat.bound ** (1 / p), rel_tol=1e-12
            )
            (flat,) = convergence_table("crosspolytope", [n])
            (lifted,) = convergence_table("lp", [n], p)
            ok = ok and math.isclose(
                lifted.bound, flat.bound ** (1 / p), rel_tol=1e-12
            )
            gamma_flat = gamma_upper_bound("crosspolytope", n, 1.0, 2)
            gamma_lift = gamma_upper_bound("lp", n, p, 2)
            ok = ok and gamma_lift.m == gamma_flat.m
            ok = ok and math.isclose(
                gamma_lift.rho, float(gamma_flat.rho) ** (1 / p), rel_tol=1e-12
            )
    _verdict(capsys, "finite-n gamma rows and the 1/p lift", ok)


def test_acceptance_8_cli_contract(capsys, monkeypatch):
    commands = [
        ["count", "--set", "m2", "--n", "4", "--k", "3", "--format", "json"],
        ["verify-cover", "--body", "crosspolytope", "--n", "3", "--k", "2",
         "--samples", "100", "--format", "json"],
        ["tnpk", "--n", "2", "--p", "2", "--k", "5", "--format", "csv"],
        ["constants", "--format", "json"],
    ]
    ok = True
    for argv in commands:
        code1 = main(list(argv))
        first = capsys.readouterr()
        code2 = main(list(argv))
        second = capsys.readouterr()
        ok = ok and code1 == code2 == 0
        ok = ok and first.out == second.out and first.err == second.err
    break_witnesses(monkeypatch)
    code = main(["verify-cover", "--body", "simplex", "--n", "2", "--k", "1",
                 "--samples", "20", "--format", "json"])
    corrupt = capsys.readouterr()
    ok = ok and code == 1
    ok = ok and json.loads(corrupt.out)["ok"] is False
    _verdict(capsys, "deterministic CLI output and failing exit path", ok)
