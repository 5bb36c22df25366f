import itertools
import math

import pytest

from hadcover.combinatorics import (
    count_row,
    m1_count,
    m2_count_closed,
    m2_count_recurrence,
)
import oracles


def test_m1_count_matches_pascal_triangle():
    # C(n, k) = m1(n - k, k): row n of the triangle read off the counts.
    tri = oracles.pascal_triangle(15)
    for n, row in enumerate(tri):
        for k, value in enumerate(row):
            assert m1_count(n - k, k) == value


def test_counts_reject_negative_arguments():
    for count in (m1_count, m2_count_closed, m2_count_recurrence):
        for n, k in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                count(n, k)


def test_m1_count_examples():
    assert m1_count(2, 2) == 6
    assert m1_count(3, 1) == 4
    for n in range(1, 10):
        assert m1_count(n, 0) == 1


def test_m1_count_matches_enumeration():
    for n in range(1, 9):
        for k in range(9):
            assert m1_count(n, k) == oracles.recursive_count_m1(n, k)


def test_m2_count_examples():
    assert m2_count_closed(1, 4) == 9
    assert m2_count_closed(2, 3) == 25
    assert m2_count_closed(3, 1) == 7
    assert m2_count_closed(3, 1) == oracles.box_count_m2(3, 1)
    assert m2_count_closed(5, 4) == 681


def test_m2_low_dimension_laws():
    for k in range(21):
        assert m2_count_closed(1, k) == 2 * k + 1
        assert m2_count_closed(2, k) == 2 * k * k + 2 * k + 1


def test_m2_recurrence_examples():
    assert m2_count_recurrence(2, 2) == 13
    assert m2_count_recurrence(3, 2) == 25
    for n in range(1, 8):
        assert m2_count_recurrence(n, 0) == 1


def test_m2_closed_equals_recurrence_equals_enumeration():
    for n in range(1, 7):
        for k in range(7):
            expected = oracles.recursive_count_m2(n, k)
            assert m2_count_closed(n, k) == expected
            assert m2_count_recurrence(n, k) == expected


def test_count_rows_match_comb_and_the_delannoy_sum():
    # n = 0 is the row the translate sweep reads at n = 1.
    for n in range(41):
        m1_row, m2_row = (list(itertools.islice(count_row(signed, n), 41))
                          for signed in (False, True))
        assert m1_row == [math.comb(n + j, j) for j in range(41)], n
        assert m2_row == [oracles.delannoy_sum(n, j) for j in range(41)], n


def test_m2_delannoy_sum_equals_recurrence():
    # Three routes that share no code: the k-recurrence, the slice
    # recurrence and the term sum, over both degenerate edges (n = 0,
    # k = 0) and both sides of the diagonal (k > n and n > k).
    for n in range(61):
        for k in range(61):
            want = oracles.delannoy_sum(n, k)
            assert m2_count_closed(n, k) == want == m2_count_recurrence(n, k), (n, k)
    assert m2_count_recurrence(1500, 322) == oracles.delannoy_sum(1500, 322)
    for n, k in ((1500, 322), (4096, 878)):
        want = oracles.delannoy_sum(n, k)
        assert m2_count_closed(n, k) == m2_count_closed(k, n) == want


def test_counts_pass_the_volume_test():
    # count translates of (n/(n+k))K can cover K only if
    # count * (n/(n+k))^n >= 1, that is count * n^n >= (n+k)^n.
    for n in range(1, 60):
        for k in range(60):
            for count in (m1_count(n, k), m2_count_closed(n, k)):
                assert count * n**n >= (n + k) ** n


def test_recursive_oracle_agrees_with_box_scan():
    # validates the pruned counter against the raw box filter
    for n in range(1, 5):
        for k in range(5):
            assert oracles.recursive_count_m1(n, k) == oracles.box_count_m1(n, k)
            assert oracles.recursive_count_m2(n, k) == oracles.box_count_m2(n, k)


def test_m2_symmetry_in_n_and_k():
    for n in range(13):
        for k in range(13):
            assert m2_count_closed(n, k) == m2_count_closed(k, n)


def test_m2_three_term_recurrence():
    for n in range(1, 11):
        for k in range(1, 11):
            assert m2_count_closed(n, k) == (
                m2_count_closed(n - 1, k - 1)
                + m2_count_closed(n - 1, k)
                + m2_count_closed(n, k - 1)
            )


def test_m2_sandwich_bounds():
    for n in range(1, 21):
        for k in range(1, n + 1):
            lower = (1 << k) * math.comb(n, k)
            upper = (1 << k) * math.comb(n + k, k)
            value = m2_count_closed(n, k)
            assert lower <= value <= upper


def test_counts_monotone_in_k():
    for n in range(1, 7):
        for k in range(6):
            assert m1_count(n, k) < m1_count(n, k + 1)
            assert m2_count_closed(n, k) < m2_count_closed(n, k + 1)


def test_m1_subset_relation_with_m2():
    for n in range(1, 7):
        for k in range(7):
            assert m1_count(n, k) <= m2_count_closed(n, k)


def test_m2_recurrence_matches_oracle_with_edges():
    # Includes the degenerate n = 0 row and the k = 0 column.
    for n in range(7):
        for k in range(7):
            assert m2_count_recurrence(n, k) == oracles.recursive_count_m2(n, k)


def test_negative_arguments_rejected():
    for fn in (m1_count, m2_count_closed, m2_count_recurrence):
        with pytest.raises(ValueError):
            fn(-1, 2)
        with pytest.raises(ValueError):
            fn(2, -1)
