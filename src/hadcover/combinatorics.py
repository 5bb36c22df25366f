"""Exact counting of the lattice translation sets.

Two families of translation sets drive every covering construction here:

* ``M1(n, k)``: nonnegative integer vectors of length ``n`` whose
  coordinate sum is at most ``k``.  There are ``C(n+k, n)`` of them.
* ``M2(n, k)``: integer vectors of length ``n`` whose l1 norm is at most
  ``k``.  Their number is the Delannoy number
  ``D(n, k) = sum_i 2^i * C(n, i) * C(k, i)`` (OEIS A008288): choose the
  ``i`` nonzero coordinates, their signs, and their absolute values as
  a composition of at most ``k`` into ``i`` positive parts.  It is
  computed by two routes: the three-term recurrence in ``k`` and the
  slice recurrence in ``n``.

One generator, :func:`count_row`, streams both rows N(n, 0), N(n, 1), ...;
the Delannoy count, the translate sweep and the cross-polytope threshold
read it.  All counts are plain Python integers, so arithmetic is exact at
any magnitude, and so is every comparison against ``2**n``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator


def m1_count(n: int, k: int) -> int:
    """Number of nonnegative integer vectors of length n with sum <= k.

    Equals C(n+k, n).  The degenerate n=0 row counts 1 (the empty
    vector), which keeps recurrences total.
    """
    _check_nk(n, k)
    return math.comb(n + k, n)


def m2_count_closed(n: int, k: int) -> int:
    """Number of integer vectors of length n with l1 norm <= k, by the k-recurrence.

    Term min(n, k) of the Delannoy row of max(n, k), as D(n, k) = D(k, n):
    O(min(n, k)) steps of :func:`count_row`, each a multiply by small ints.
    """
    _check_nk(n, k)
    return next(itertools.islice(count_row(True, max(n, k)), min(n, k), None))


def count_row(signed: bool, n: int) -> Iterator[int]:
    """The counts of M2(n, j) (signed) or M1(n, j), j = 0, 1, ..., without end.

    C(n+j, j) = C(n+j-1, j-1) (n+j) / j, and with D(n, -1) = 0, D(n, 0) = 1,
    (j+1) D(n, j+1) = (2n+1) D(n, j) + j D(n, j-1).  Each division is exact,
    as its result is the next count.  The n = 0 rows are all ones.
    """
    cur = 1
    if not signed:
        for j in itertools.count(1):
            yield cur
            cur = cur * (n + j) // j
    grow, prev = 2 * n + 1, 0
    for j in itertools.count():
        yield cur
        prev, cur = cur, (grow * cur + j * prev) // (j + 1)


def m2_count_recurrence(n: int, k: int) -> int:
    """Same count as :func:`m2_count_closed`, via the slice recurrence.

    Splitting on the last coordinate's value gives

        m2(n, k) = m2(n-1, k) + 2 * sum_{j=0..k-1} m2(n-1, j)

    evaluated over one rolling row of k+1 counts with a running prefix
    sum.  Row 0 is the degenerate dimension-0 row (all ones: only the
    empty vector).
    """
    _check_nk(n, k)
    row = [1] * (k + 1)
    for _ in range(n):
        acc = 0  # sum of the previous row's entries left of j
        for j in range(k + 1):
            acc, row[j] = acc + row[j], row[j] + 2 * acc
    return row[k]


def _check_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0:
        raise ValueError("k must be nonnegative")
