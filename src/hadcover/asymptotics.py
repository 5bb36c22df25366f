"""Growth constants, exact threshold sequences, and convergence tables.

The translate counts grow like c-parametrized exponentials: the n-th
root of the simplex count C(n+cn, n) tends to (1+c)^(1+c)/c^c, and the
signed count m2(n, cn) is sandwiched between 2^(cn) C(n, cn) and
2^(cn) C(n+cn, cn).  Equating these growth rates to 2 yields the
constants c1, c3, c4 that govern how fast the 2^n-translate bounds
approach their limits.  A threshold k(n) is the largest k whose count
fits in 2^n.  A float estimate of the log-count picks the first k the
search probes; every k returned is certified by two exact big-integer
comparisons, count(k) <= 2^n < count(k+1).  Where a count has an exact
step ratio (the simplex and k1), the neighbour of a known count comes
from one big-by-small multiply and divide, so a correct estimate costs
one full count.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .bodies import BodySpec
from .combinatorics import m1_count, m2_count_closed

# Bracket width and residual at which every bisection of the package stops.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class GrowthConstants:
    """Solved growth-rate roots: simplex (c1) and the m2 sandwich (c3, c4)."""

    c1: float
    c3: float
    c4: float


@dataclass(frozen=True)
class ConvergenceRow:
    """One table row: the exact threshold k at dimension n and the bound."""

    n: int
    k: int
    ratio: float
    bound: float


def m1_growth(c: float) -> float:
    """n-th root growth rate of C(n + cn, n): (1+c)^(1+c) / c^c."""
    return (1.0 + c) ** (1.0 + c) / c**c


def m2_upper_growth(c: float) -> float:
    """n-th root growth rate of 2^(cn) C(n + cn, cn)."""
    return 2.0**c * m1_growth(c)


def m2_lower_growth(c: float) -> float:
    """n-th root growth rate of 2^(cn) C(n, cn): 2^c / (c^c (1-c)^(1-c))."""
    return 2.0**c / (c**c * (1.0 - c) ** (1.0 - c))


def m2_lower_growth_printed(c: float) -> float:
    """Variant with (1+c)^(1+c) in the denominator.

    Kept for comparison: this expression stays below 2 on all of (0, 1),
    so equating it to 2 has no solution; see :func:`printed_variant_max`.
    """
    return 2.0**c / (c**c * (1.0 + c) ** (1.0 + c))


def solve_root(f: Callable[[float], float], target: float, lo: float, hi: float) -> float:
    """Bisection root of f(x) = target for monotone f on [lo, hi].

    Runs until both the bracket width and the residual |f(x) - target|
    drop below DEFAULT_TOL.  Where f is steep, floats stop splitting the
    bracket first; the residual there must be <= DEFAULT_TOL * max(1, |target|).
    """
    f_lo, f_hi = f(lo) - target, f(hi) - target
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("bracket endpoints do not straddle the target")
    increasing = f_hi > 0
    while True:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            break
        val = f(mid) - target
        if val == 0:
            return mid
        if (val < 0) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= DEFAULT_TOL and abs(val) <= DEFAULT_TOL:
            return mid
    mid = (lo + hi) / 2.0
    if abs(f(mid) - target) > DEFAULT_TOL * max(1.0, abs(target)):
        raise ValueError("bisection stalled above the tolerance")
    return mid


def growth_constants() -> GrowthConstants:
    """Solve the three growth-rate equations (each set equal to 2).

    c4 uses the binomial-entropy growth rate of 2^(cn) C(n, cn); the
    alternative (1+c) form never reaches 2 and admits no root, see
    :func:`printed_variant_max`.
    """
    eps = 1e-6
    c1 = solve_root(m1_growth, 2.0, eps, 1.0 - eps)
    c3 = solve_root(m2_upper_growth, 2.0, eps, 1.0 - eps)
    # m2_lower_growth is increasing only while c < 2/3; cap the bracket there.
    c4 = solve_root(m2_lower_growth, 2.0, eps, 2.0 / 3.0)
    return GrowthConstants(c1, c3, c4)


def printed_variant_max() -> tuple[float, float]:
    """Argmax and maximum of :func:`m2_lower_growth_printed` on (0, 1).

    The maximizer solves c(1+c) = 2 e^-2 in closed form; the maximum
    value sits well below 2, which is why that variant has no root.
    """
    c_star = (-1.0 + math.sqrt(1.0 + 8.0 * math.exp(-2.0))) / 2.0
    return c_star, m2_lower_growth_printed(c_star)


def a_of_t(t: float) -> float:
    """The positive root x of (1+x)^(1+x) / x^x = t, for 1 < t < m1_growth(128).

    Generalizes c1 (which is a_of_t(2)) to translate budgets t^n.  The
    upper limit is about 349.3: past it the bracket doubles to x = 256,
    where the growth function overflows a float.
    """
    if t <= 1:
        raise ValueError("t must be > 1")
    lo = 0.5
    while m1_growth(lo) >= t:
        lo /= 2.0
    hi = 1.0
    with contextlib.suppress(OverflowError):
        while m1_growth(hi) <= t:
            hi *= 2.0
        return solve_root(m1_growth, t, lo, hi)
    raise ValueError(f"t = {t} is too large: the growth function overflows a float")


def k_of_n_simplex(n: int) -> int:
    """Largest k with C(n+k, n) <= 2^n, by exact comparison."""
    target = _budget(n)
    start = _predict_k(lambda k: _log_comb(n + k, k), n, target)
    # C(n+k+1, k+1) = C(n+k, k) (n+k+1) / (k+1).
    return _largest_k(lambda k: m1_count(n, k), target, start, lambda k: (n + k + 1, k + 1))


def k_max_crosspolytope(n: int) -> int:
    """Largest k with m2(n, k) <= 2^n, by exact comparison."""
    target = _budget(n)
    start = _predict_k(lambda k: _log_delannoy(n, k), n, target)
    return _largest_k(lambda k: m2_count_closed(n, k), target, start)


def _budget(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << n


def _log_comb(a: int, b: int) -> float:
    """ln C(a, b) in floats."""
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _log_delannoy(n: int, k: int) -> float:
    """Saddle-point estimate of ln D(n, k), the log of the Delannoy sum.

    With c = k/n the dominant term sits at i = x n, x = 1 + c - sqrt(1 + c^2).
    Its exponent n phi(x), phi(x) = x ln 2 + H(x) + c H(x/c) with H the
    natural-log entropy, less half the log of 2 pi n |phi''| x^2 (1-x)(1-x/c),
    where |phi''| = 1/(x(1-x)) + c/(x(c-x)), gives the sum.
    """
    if k == 0:
        return 0.0
    c = k / n
    # 1 + c - sqrt(1 + c^2), the smaller root of x^2 - 2(1+c) x + 2c, taken
    # as the product 2c of the roots over the larger one: no cancellation,
    # so x < c holds in floats for small c too.
    x = 2.0 * c / (1.0 + c + math.sqrt(1.0 + c * c))
    phi = x * math.log(2.0) + _entropy(x) + c * _entropy(x / c)
    curvature = 1.0 / (x * (1.0 - x)) + c / (x * (c - x))
    return n * phi - 0.5 * math.log(
        2.0 * math.pi * n * curvature * x * x * (1.0 - x) * (1.0 - x / c))


def _entropy(q: float) -> float:
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def _predict_k(log_count: Callable[[int], float], n: int, target: int) -> int:
    # Bisection for the largest k in [0, n] with log_count(k) <= ln(target);
    # log_count is a float estimate, so the result only seeds _largest_k.
    log_target = math.log(target)
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if log_count(mid) <= log_target else (lo, mid - 1)
    return lo


def _largest_k(count: Callable[[int], int], target: int, start: int,
               ratio: Callable[[int], tuple[int, int]] | None = None) -> int:
    # The k with count(k) <= target < count(k+1), by a walk from start:
    # one full count there, then one step at a time, down while the count
    # exceeds target, otherwise up while the next count fits.  With
    # ratio(k) = (num, den), count(k+1) = count(k) * num / den exactly and
    # a step is one big-by-small multiply and divide; without it a step is
    # a full count.  count(0) <= target stops the walk down at k >= 0.  A
    # wrong start costs steps, never the certificate.
    def step(k: int, value: int, d: int) -> int:
        # count(k + d), for d = 1 or -1.
        if ratio is None:
            return count(k + d)
        num, den = ratio(min(k, k + d))
        return value * num // den if d > 0 else value * den // num

    k, value = start, count(start)
    if value > target:
        while value > target:
            k, value = k - 1, step(k, value, -1)
        return k
    while (value := step(k, value, 1)) <= target:
        k += 1
    return k


def k1_k2_of_n(n: int) -> tuple[int, int]:
    """Exact sandwich thresholds: k1 from 2^k C(n+k, k), k2 from 2^k C(n, k).

    Each is the last k before its product first exceeds 2^n.
    """
    target = _budget(n)
    # 2^k C(n+k, k) grows by the factor 2(n+k+1)/(k+1) > 1 at each step.
    start = _predict_k(lambda k: k * math.log(2.0) + _log_comb(n + k, k), n, target)
    k1 = _largest_k(lambda k: (1 << k) * m1_count(n, k), target, start,
                    lambda k: (2 * (n + k + 1), k + 1))
    # 2^k C(n, k) is not monotone: it rises while k < (2n-1)/3, then falls
    # back to exactly 2^n at k = n.  So k2 walks up from k = 0, carrying the
    # next term 2^(k+1) C(n, k+1) by the ratio 2(n-k)/(k+1), and stops at
    # the first crossing or at k = n.
    k2, term = 0, 2 * n
    while k2 < n and term <= target:
        k2 += 1
        term = term * 2 * (n - k2) // (k2 + 1)
    return k1, k2


def convergence_table(
    family: str, n_list: Sequence[int], p: float = 1.0
) -> list[ConvergenceRow]:
    """Exact threshold k and finite-n bound (n/(n+k))^(1/p) for each n."""
    body = BodySpec(family, 1, p)
    threshold = k_of_n_simplex if body.nonnegative else k_max_crosspolytope
    rows = []
    for n in n_list:
        k = threshold(n)
        rows.append(ConvergenceRow(n, k, k / n, float(body.pth_root(n, n + k))))
    return rows


def rogers_zong_bound(n: int, r: float, variant: str = "remark") -> float:
    """Translate-count bound (1 + 1/r)^n (n log n + [n] log log n + 5n).

    The two printings differ in the middle term: "remark" uses
    log log n, "intro" uses n log log n.  Natural logarithms; n >= 3
    keeps log log n positive.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if variant == "remark":
        middle = math.log(math.log(n))
    elif variant == "intro":
        middle = n * math.log(math.log(n))
    else:
        raise ValueError(f"unknown variant: {variant!r}")
    with contextlib.suppress(OverflowError):
        bound = (1.0 + 1.0 / r) ** n * (n * math.log(n) + middle + 5.0 * n)
        if math.isfinite(bound):
            return bound
    raise ValueError(f"r is too small for n = {n}: the bound overflows a float")
