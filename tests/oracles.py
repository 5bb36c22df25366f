"""Independent reference implementations used to check the package.

Everything here is deliberately naive: direct enumeration over integer
boxes, Pascal's triangle built by addition, the Delannoy term sum, and
closed-form roots of small polynomials.  None of it shares code with
src/hadcover, except reference_sweep and reference_peel, which run the
package's general membership tests at every translate vertex and
before every peel move.
"""

from fractions import Fraction
from itertools import product
import math

from hadcover import bodies, lattice_sets


def pascal_triangle(rows):
    """Binomial coefficients by repeated addition, rows 0..rows-1."""
    tri = [[1]]
    for _ in range(rows - 1):
        prev = tri[-1]
        row = [1]
        for i in range(1, len(prev)):
            row.append(prev[i - 1] + prev[i])
        row.append(1)
        tri.append(row)
    return tri


def box_count_m1(n, k):
    """Count nonnegative integer vectors with coordinate sum <= k.

    Scans the full (k+1)^n box.  Slow but unarguable.
    """
    return sum(1 for t in product(range(k + 1), repeat=n) if sum(t) <= k)


def box_count_m2(n, k):
    """Count integer vectors with absolute coordinate sum <= k."""
    box = range(-k, k + 1)
    return sum(1 for t in product(box, repeat=n) if sum(map(abs, t)) <= k)


def box_points_m1(n, k):
    return sorted(t for t in product(range(k + 1), repeat=n) if sum(t) <= k)


def box_points_m2(n, k):
    box = range(-k, k + 1)
    return sorted(t for t in product(box, repeat=n) if sum(map(abs, t)) <= k)


def box_escaping_vertices(family, n, k, limit):
    """Count translate-vertex sums z + v outside the body of defining sum limit.

    Translates z are the box-scanned M1 (simplex) or M2 (cross-polytope)
    points; vertices v are the normalized body's +-n e_i, plus the origin
    for the simplex.
    """
    units = [tuple(n if j == i else 0 for j in range(n)) for i in range(n)]
    if family == "simplex":
        translates = box_points_m1(n, k)
        verts = [(0,) * n] + units
    else:
        translates = box_points_m2(n, k)
        verts = units + [tuple(-c for c in u) for u in units]
    escaping = 0
    for z in translates:
        for v in verts:
            x = [a + b for a, b in zip(z, v)]
            if sum(map(abs, x)) > limit or (family == "simplex" and min(x) < 0):
                escaping += 1
    return escaping


def reference_sweep(base, scaled, spec):
    """(translates, escaping vertices) with every z + v through contains_exact.

    The verifier counts the escaping vertices by level instead, with no
    enumeration; this route costs O(n) per vertex, so it is for small
    cases only.
    """
    checked = failures = 0
    base_vertices = bodies.vertices(base)
    for z in lattice_sets.enumerate_points(spec):
        checked += 1
        for v in base_vertices:
            shifted = tuple(c + w for c, w in zip(v, z))
            if not bodies.contains_exact(scaled, shifted):
                failures += 1
    return checked, failures


def reference_contains_exact(body, point):
    """Exact membership by the sign rule and a plain Fraction sum of |c|.

    Nonnegative bodies refuse any negative coordinate; then sum |c_i|
    must be at most scale * n.  No lcm and no integer numerators.
    """
    if body.nonnegative and any(c < 0 for c in point):
        return False
    return sum(Fraction(abs(c)) for c in point) <= Fraction(body.scale) * body.n


def reference_peel(base, n, k, y):
    """(z, residual, moves) of the l_p peel, one full contains_float per move.

    The verifier keeps the power terms of the point and recomputes only
    the moved one; this loop re-reads every coordinate before each move.
    """
    x = list(y)
    z = [0] * n
    moves = 0
    while moves < k and not bodies.contains_float(base, x):
        i = max(range(n), key=lambda j: abs(x[j]))
        step = 1 if x[i] >= 0 else -1
        x[i] -= step
        z[i] += step
        moves += 1
    return tuple(z), tuple(x), moves


def reference_decompose(n, y):
    """(z, residual, budget) of the exact greedy witness, in Fractions.

    The budget is max(0, ceil(sum |y_i|) - n), and |z_i| takes
    min(floor |y_i|, budget left) with the sign of y_i.  y must lie in
    the inflated body the decomposers accept.
    """
    budget = max(0, math.ceil(sum(abs(c) for c in y)) - n)
    z = []
    remaining = budget
    for c in y:
        take = min(math.floor(abs(c)), remaining)
        z.append(take if c >= 0 else -take)
        remaining -= take
    return tuple(z), tuple(c - w for c, w in zip(y, z)), budget


def certifies_k2(n, k2):
    """Whether k2 is the last k before 2^k C(n, k) first exceeds 2^n, by math.comb.

    k2 fits and k2 + 1 does not (or k2 = n).  The product rises while its
    ratio 2(n - k)/(k + 1) exceeds 1, that is while 3k < 2n - 1, so for
    n >= 3 a k2 below (2n - 1)/3 has every smaller k fitting as well; at
    n = 1 and 2 every k up to n fits.
    """
    target = 1 << n
    fits = (1 << k2) * math.comb(n, k2) <= target
    next_exceeds = k2 == n or (1 << (k2 + 1)) * math.comb(n, k2 + 1) > target
    return fits and next_exceeds and (n < 3 or 3 * k2 < 2 * n - 1)


def reference_largest_k(count, target):
    """Last k with count(k) <= target, by doubling from k = 1, then bisection.

    Probes k = 1, 2, 4, ... until count(hi) > target, then bisects
    [hi // 2, hi].  count(0) <= target is assumed and never probed.
    """
    hi = 1
    while count(hi) <= target:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def recursive_count_m1(n, k):
    """Same set as box_count_m1 counted by budget recursion.

    Visits only members, so it stays fast where the box scan does not.
    """
    if n == 0:
        return 1
    return sum(recursive_count_m1(n - 1, k - v) for v in range(k + 1))


def recursive_count_m2(n, k):
    if n == 0:
        return 1
    total = recursive_count_m2(n - 1, k)
    for v in range(1, k + 1):
        total += 2 * recursive_count_m2(n - 1, k - v)
    return total


def delannoy_sum(n, k):
    """The Delannoy number D(n, k) = sum_i 2^i C(n, i) C(k, i) (OEIS A008288).

    Each term comes from the previous one by the ratio
    2(n-i)(k-i) / (i+1)^2; the division is exact because the result is
    the next term, an integer.
    """
    total = term = 1
    for i in range(min(n, k)):
        term = term * 2 * (n - i) * (k - i) // ((i + 1) * (i + 1))
        total += term
    return total


def t1_closed_form(n):
    """First inflation factor after 1 for exponent p=2.

    Root of (t-1)^2 + (n-1)t^2 = n, i.e. n t^2 - 2t + (1-n) = 0,
    taking the branch above 1.
    """
    return (1.0 + math.sqrt(1.0 - n + n * n)) / n


def rational_points(rng, n, bound, count, denominator=1000):
    """Random rational vectors with coordinates in [-bound, bound]."""
    pts = []
    for _ in range(count):
        pts.append(tuple(
            Fraction(rng.randint(-bound * denominator, bound * denominator),
                     denominator)
            for _ in range(n)))
    return pts
