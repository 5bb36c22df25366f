import math

import pytest

from hadcover import asymptotics, combinatorics
from hadcover.asymptotics import (
    a_of_t,
    convergence_table,
    growth_constants,
    k1_k2_of_n,
    k_max_crosspolytope,
    k_of_n_simplex,
    m1_growth,
    m2_lower_growth,
    m2_lower_growth_printed,
    m2_upper_growth,
    printed_variant_max,
    rogers_zong_bound,
    solve_root,
)
from hadcover.combinatorics import m1_count, m2_count_closed, m2_count_recurrence
import oracles


def test_growth_functions_relations():
    for c in (0.1, 0.3, 0.5, 0.9):
        assert m2_upper_growth(c) == pytest.approx(2**c * m1_growth(c), rel=1e-15)
        assert m1_growth(c) > 1.0
    # n-th root of the binomial count approaches the growth function
    n, k = 200, 100
    log_count = math.lgamma(n + k + 1) - math.lgamma(n + 1) - math.lgamma(k + 1)
    assert log_count / n == pytest.approx(math.log(m1_growth(k / n)), rel=0.05)


def test_solve_root_basics():
    assert solve_root(lambda x: x, 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    got = solve_root(lambda x: -x, -0.25, 0.0, 1.0)
    assert got == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        solve_root(lambda x: x, 5.0, 0.0, 1.0)
    # A jump at the root leaves a residual of 1/2 when the bracket can no
    # longer be split; the relative check must not accept it.
    with pytest.raises(ValueError, match="bisection stalled above the tolerance"):
        solve_root(lambda x: 0.0 if x < 0.5 else 1.0, 0.5, 0.0, 1.0)


def test_growth_constants_digits():
    gc = growth_constants()
    assert gc.c1 == pytest.approx(0.29381537334047225, abs=1e-10)
    assert gc.c3 == pytest.approx(0.20559733891045018, abs=1e-10)
    assert gc.c4 == pytest.approx(0.22709219521913665, abs=1e-10)
    assert round(gc.c1, 4) == 0.2938
    assert round(gc.c3, 4) == 0.2056
    assert round(gc.c4, 4) == 0.2271
    assert gc.c3 < gc.c4 < gc.c1


def test_growth_constants_residuals():
    gc = growth_constants()
    assert abs(m1_growth(gc.c1) - 2.0) <= 1e-12
    assert abs(m2_upper_growth(gc.c3) - 2.0) <= 1e-12
    assert abs(m2_lower_growth(gc.c4) - 2.0) <= 1e-12


def test_printed_variant_has_no_root():
    c_star, peak = printed_variant_max()
    assert c_star == pytest.approx(0.22157505948669365, abs=1e-12)
    assert peak == pytest.approx(1.2750801769654827, abs=1e-10)
    assert peak < 2.0
    for c in (0.05, 0.2, c_star, 0.5, 0.9, 0.99):
        assert m2_lower_growth_printed(c) <= peak + 1e-12
    # derivative vanishes at the closed-form maximizer
    h = 1e-7
    slope = (m2_lower_growth_printed(c_star + h)
             - m2_lower_growth_printed(c_star - h)) / (2 * h)
    assert abs(slope) < 1e-5


def test_a_of_t_inverts_the_growth_function():
    gc = growth_constants()
    assert abs(a_of_t(2.0) - gc.c1) <= 1e-12
    assert a_of_t(1.0001) < 1e-3
    for c in (0.1, 0.29, 0.7, 1.5):
        assert a_of_t(m1_growth(c)) == pytest.approx(c, abs=1e-10)
    assert a_of_t(1.5) < a_of_t(2.0) < a_of_t(4.0)
    for t in (1.0, 400.0, math.inf):
        with pytest.raises(ValueError):
            a_of_t(t)


def test_a_of_t_returns_on_the_whole_grid():
    # Past t ~ 172 the root lies in [63, 128], where adjacent floats of x
    # move m1_growth by several 1e-12: the residual is held relative to t.
    for i in range(11, 3493):
        t = i / 10
        assert abs(m1_growth(a_of_t(t)) - t) <= 1e-12 * t


def test_a_of_t_domain_ends_at_m1_growth_128():
    # The bracket doubles 1, 2, ..., 128, 256; m1_growth(256) overflows.
    edge = m1_growth(128.0)
    below = math.nextafter(edge, 0.0)
    assert a_of_t(below) == pytest.approx(128.0, rel=1e-9)
    with pytest.raises(ValueError, match=f"^t = {edge!r} is too large"):
        a_of_t(edge)


def test_k_of_n_simplex_examples():
    assert k_of_n_simplex(3) == 1
    assert k_of_n_simplex(4) == 2
    assert k_of_n_simplex(10) == 4


def test_k_of_n_simplex_definition():
    for n in [*range(1, 41), 1024, 4096]:
        k = k_of_n_simplex(n)
        cap = 1 << n
        assert m1_count(n, k) <= cap
        assert m1_count(n, k + 1) > cap


def test_k_max_crosspolytope_examples():
    assert k_max_crosspolytope(1) == 0
    assert k_max_crosspolytope(2) == 0
    assert k_max_crosspolytope(3) == 1


def test_k_max_crosspolytope_definition():
    for n in [*range(1, 31), 1024, 2048, 4096]:
        k = k_max_crosspolytope(n)
        cap = 1 << n
        assert m2_count_closed(n, k) <= cap
        assert m2_count_closed(n, k + 1) > cap


def test_k_max_crosspolytope_bracket_by_recurrence():
    # The slice recurrence is independent of the Delannoy sum the search uses.
    n, k = 1024, k_max_crosspolytope(1024)
    assert m2_count_recurrence(n, k) <= 1 << n < m2_count_recurrence(n, k + 1)


def test_k1_k2_examples():
    assert k1_k2_of_n(3) == (1, 1)
    assert k1_k2_of_n(10) == (2, 3)


def test_k1_k2_definitions_and_sandwich():
    for n in [*range(1, 65), *(2**j for j in range(7, 15))]:
        k1, k2 = k1_k2_of_n(n)
        cap = 1 << n
        assert (1 << k1) * math.comb(n + k1, k1) <= cap
        assert (1 << (k1 + 1)) * math.comb(n + k1 + 1, k1 + 1) > cap
        assert (1 << k2) * math.comb(n, k2) <= cap
        if k2 < n:
            assert (1 << (k2 + 1)) * math.comb(n, k2 + 1) > cap
        assert k1 <= k_max_crosspolytope(n) <= k2


def test_k2_matches_the_linear_scan():
    # 2^k C(n, k) falls back to exactly 2^n at k = n, so the walk must stop
    # at its first crossing; the powers and their neighbours are checked too.
    # The scan's answer is checked by a math.comb certificate, not a second scan.
    edges = {2**j + d for j in range(1, 15) for d in (-1, 0, 1)}
    for n in sorted(set(range(1, 1201)) | edges):
        assert oracles.certifies_k2(n, k1_k2_of_n(n)[1]), n


# n in 1..2000 and the powers of two with their neighbours up to 2^14.
SEARCH_NS = sorted(set(range(1, 2001)) | {2**j + d for j in range(1, 15) for d in (-1, 0, 1)})


def _k1_count(n):
    return lambda k: (1 << k) * m1_count(n, k)


def _k2_count(n):
    return lambda k: (1 << k) * math.comb(n, k) if k <= n else (1 << n) + 1


def _recorded(count, probes):
    # Records k, the last argument of every call.
    def probe(*args):
        probes.append(args[-1])
        return count(*args)
    return probe


def test_thresholds_match_the_doubling_search(monkeypatch):
    # The simplex walk counts first at the predicted k, which must be
    # within one of the answer.  k_max walks the Delannoy row, so it is
    # certified by the term sum, a route that shares no code with the row.
    m1_probes = []
    monkeypatch.setattr(asymptotics, "m1_count", _recorded(m1_count, m1_probes))
    for n in SEARCH_NS:
        cap = 1 << n
        want_k = oracles.reference_largest_k(lambda k: m1_count(n, k), cap)
        want_k12 = (oracles.reference_largest_k(_k1_count(n), cap),
                    oracles.reference_largest_k(_k2_count(n), cap))
        m1_probes.clear()
        assert k_of_n_simplex(n) == want_k, n
        assert abs(m1_probes[0] - want_k) <= 1, n
        kmax = k_max_crosspolytope(n)
        assert oracles.delannoy_sum(n, kmax) <= cap < oracles.delannoy_sum(n, kmax + 1), n
        assert k1_k2_of_n(n) == want_k12, n


def test_largest_k_is_exact_from_every_start():
    # Every step up or down from the start is derived from the count
    # before it by the ratio; start = 0 is the walk's lowest start.
    for n in (1, 2, 3, 11, 64, 257):
        cap = 1 << n
        for count, ratio in ((lambda k: m1_count(n, k), lambda k: (n + k + 1, k + 1)),
                             (_k1_count(n), lambda k: (2 * (n + k + 1), k + 1))):
            k = oracles.reference_largest_k(count, cap)
            for start in range(2 * k + 6):
                assert asymptotics._largest_k(count, cap, start, ratio) == k, (n, start)


def test_largest_k_walks_one_step_at_a_time():
    # Only the start is counted in full; every other step is derived.
    for n in (1, 2, 3, 11, 64, 257):
        cap = 1 << n
        ratio = lambda k: (n + k + 1, k + 1)
        k = oracles.reference_largest_k(lambda k: m1_count(n, k), cap)
        for start in range(2 * k + 6):
            probes = []
            count = _recorded(lambda k: m1_count(n, k), probes)
            assert asymptotics._largest_k(count, cap, start, ratio) == k
            assert probes == [start], (n, start)


def test_supplied_ratios_are_exact_up_and_down(monkeypatch):
    # A derived probe must be the count itself: count(k) num / den is
    # count(k + 1) and count(k + 1) den / num is count(k), with no remainder.
    search, searches = asymptotics._largest_k, []

    def record(count, target, start, ratio):
        searches.append((count, ratio))
        return search(count, target, start, ratio)

    monkeypatch.setattr(asymptotics, "_largest_k", record)
    for n in range(1, 301):
        searches.clear()
        k_of_n_simplex(n)
        k1_k2_of_n(n)
        (m1, m1_ratio), (k1, k1_ratio) = searches
        for count, ratio in ((m1, m1_ratio), (k1, k1_ratio)):
            counts = [count(k) for k in range(302)]
            for k in range(301):
                num, den = ratio(k)
                assert divmod(counts[k] * num, den) == (counts[k + 1], 0), (n, k)
                assert divmod(counts[k + 1] * den, num) == (counts[k], 0), (n, k)


def test_predicted_start_costs_two_probes(monkeypatch):
    # The simplex derives count(k + 1) from count(k) by its ratio, so one
    # full count remains.
    probes = []
    monkeypatch.setattr(asymptotics, "m1_count", _recorded(m1_count, probes))
    for n in (1024, 2048, 4096, 8192, 2**14):
        probes.clear()
        k = k_of_n_simplex(n)
        assert probes == [k], n
        assert m1_count(n, k) <= 1 << n < m1_count(n, k + 1), n


def test_k_max_crosspolytope_makes_no_full_count(monkeypatch):
    # The threshold walks the Delannoy row once; a full count would raise.
    def no_count(*args):
        raise AssertionError("made a full Delannoy count")

    for module in (asymptotics, combinatorics):
        monkeypatch.setattr(module, "m2_count_closed", no_count)
    for n, want in ((1, 0), (3, 1), (11, 3), (4096, 878), (8192, 1755), (2**14, 3508)):
        assert k_max_crosspolytope(n) == want, n


def test_threshold_ratio_approaches_root():
    gc = growth_constants()
    assert abs(k_of_n_simplex(256) / 256 - gc.c1) < 0.05
    assert gc.c3 - 0.05 < k_max_crosspolytope(256) / 256 < gc.c4 + 0.05


def test_convergence_table_simplex():
    (row,) = convergence_table("simplex", [4])
    assert (row.n, row.k) == (4, 2)
    assert row.ratio == pytest.approx(0.5)
    assert row.bound == pytest.approx(2 / 3)


def test_convergence_table_crosspolytope():
    (row,) = convergence_table("crosspolytope", [3])
    assert (row.n, row.k) == (3, 1)
    assert row.ratio == pytest.approx(1 / 3)
    assert row.bound == pytest.approx(0.75)


def test_convergence_table_lp_families():
    (row,) = convergence_table("qlp", [4], p=2.0)
    assert (row.n, row.k) == (4, 2)
    assert row.bound == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    (base,) = convergence_table("crosspolytope", [3])
    (lifted,) = convergence_table("lp", [3], p=3.0)
    assert lifted.k == base.k
    assert lifted.bound == pytest.approx(base.bound ** (1 / 3), abs=1e-12)


def test_convergence_table_bounds_approach_limit():
    rows = convergence_table("simplex", [8, 32, 128, 512])
    bounds = [row.bound for row in rows]
    # ratios k/n fall toward the root from above, so bounds rise toward it
    assert all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))
    limit = 1.0 / (1.0 + growth_constants().c1)
    assert all(0 < b < limit for b in bounds)
    assert bounds[-1] >= limit - 0.02


def test_convergence_table_refuses_before_any_threshold(monkeypatch):
    # 3^2 + 4^2 = 25 fits a budget of 25 and not one of 24.
    monkeypatch.setattr(asymptotics, "MAX_TABLE_WORK", 25)
    assert [row.k for row in convergence_table("crosspolytope", [3, 4])] == [1, 1]
    monkeypatch.setattr(asymptotics, "MAX_TABLE_WORK", 24)

    def no_work(n):
        raise AssertionError("ran a threshold before the budget check")

    monkeypatch.setattr(asymptotics, "k_of_n_simplex", no_work)
    monkeypatch.setattr(asymptotics, "k_max_crosspolytope", no_work)
    for family in ("simplex", "crosspolytope"):
        with pytest.raises(ValueError, match=r"^the table needs sum n\^2 = 25 over its "
                           r"dimensions, over the budget of 24$"):
            convergence_table(family, [3, 4])


def test_convergence_table_validation():
    with pytest.raises(ValueError):
        convergence_table("nope", [3])
    with pytest.raises(ValueError):
        convergence_table("lp", [3], p=0.5)
    with pytest.raises(ValueError):
        convergence_table("lp", [3], p=math.nan)
    with pytest.raises(ValueError):
        convergence_table("simplex", [3], p=2.0)


def test_rogers_zong_values():
    # (1 + 1/r)^n (n ln n + ln ln n + 5n) computed by hand for n=3, r=1/2
    by_hand = 27.0 * (3.0 * math.log(3.0) + math.log(math.log(3.0)) + 15.0)
    assert rogers_zong_bound(3, 0.5) == pytest.approx(by_hand, rel=1e-15)
    assert rogers_zong_bound(3, 0.5) == pytest.approx(496.5268867, abs=1e-3)
    assert rogers_zong_bound(3, 0.5, "intro") == pytest.approx(501.6054697, abs=1e-3)


def test_rogers_zong_variants_and_monotonicity():
    for n in (3, 5, 17):
        assert rogers_zong_bound(n, 0.4, "intro") > rogers_zong_bound(n, 0.4, "remark")
    assert rogers_zong_bound(5, 0.3) > rogers_zong_bound(5, 0.6)


def test_rogers_zong_validation():
    with pytest.raises(ValueError):
        rogers_zong_bound(2, 0.5)
    with pytest.raises(ValueError):
        rogers_zong_bound(5, 0.0)
    with pytest.raises(ValueError):
        rogers_zong_bound(5, 1.0)
    with pytest.raises(ValueError):
        rogers_zong_bound(5, 0.5, "margin")
    # 1/r overflows to inf at the smallest subnormal; the power overflows at n = 2000.
    for n, r in ((10, 5e-324), (2000, 0.001)):
        with pytest.raises(ValueError, match="^r is too small"):
            rogers_zong_bound(n, r)
