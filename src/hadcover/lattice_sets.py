"""Streaming enumeration of the translation sets M1(n, k) and M2(n, k)."""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from . import combinatorics

M1 = "m1"
M2 = "m2"

# Most bit-steps one count may take, its decimal text included.  With
# s = min(n, k) it has at most b = s log2(e (n + k) / s) bits, one more per
# step for M2 (D(n, k) <= 2^s C(n + k, s) <= 2^s (e (n + k) / s)^s), and is
# charged b (w s + b / 16): math.comb takes about 0.035 ns per bit-step,
# w = 1, the Delannoy walk of M2 about 0.25 ns, w = 8, and b^2 / 16 is the
# int-to-text conversion, quadratic up to Python 3.11.  At the budget m1(n, n)
# at n = 220,936 and m2(n, n) at n = 69,710 take 3.2 s, and m2(10^207, 2000),
# mostly text, 5.6 s (Python 3.11, one core of a 2-CPU host).
MAX_COUNT_WORK = 2**37


class _SetFields(NamedTuple):
    kind: str
    n: int
    k: int


class LatticeSetSpec(_SetFields):
    """Which translation set: m1 (nonnegative, sum <= k) or m2 (l1 norm <= k)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (M1, M2):
            raise ValueError(f"unknown lattice set kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        return self

    # Through __new__, so that _replace validates as construction does.
    _make = classmethod(lambda cls, fields: cls(*fields))


def enumerate_points(spec: LatticeSetSpec) -> Iterator[tuple[int, ...]]:
    """Yield every member exactly once, in lexicographic order.

    An odometer with O(n) state and no recursion: budget[i] is what the
    l1 sum leaves for coordinates i onward.  Each step raises the
    rightmost coordinate that is still below its budget and resets every
    later coordinate to its least value (0 for m1, minus the leftover
    budget for m2).
    """
    n, signed = spec.n, spec.kind == M2
    z = [0] * n
    budget = [spec.k] * (n + 1)
    i = 0
    while True:
        for j in range(i, n):
            z[j] = -budget[j] if signed else 0
            budget[j + 1] = budget[j] - abs(z[j])
        yield tuple(z)
        i = n - 1
        while i >= 0 and z[i] == budget[i]:
            i -= 1
        if i < 0:
            return
        z[i] += 1
        budget[i + 1] = budget[i] - abs(z[i])
        i += 1


def member(spec: LatticeSetSpec, z: Sequence[int]) -> bool:
    """True iff z satisfies the defining constraints of the set."""
    if len(z) != spec.n:
        raise ValueError(f"point has dimension {len(z)}, set needs {spec.n}")
    if spec.kind == M1:
        return min(z) >= 0 and sum(z) <= spec.k
    return sum(map(abs, z)) <= spec.k


def count(spec: LatticeSetSpec) -> int:
    """Cardinality of the set, from the exact closed forms; ValueError past MAX_COUNT_WORK."""
    n, k, signed = spec.n, spec.k, spec.kind == M2
    s = min(n, k, MAX_COUNT_WORK)  # a larger s is refused either way; capped, it fits a float
    bits = s * (math.log2(n + k) - math.log2(s) + math.log2(math.e) + signed) if s else 0
    work = bits * ((8 if signed else 1) * s + bits / 16)
    if work > MAX_COUNT_WORK:
        raise ValueError(f"the count of {spec.kind}(n={n}, k={k}) needs about {work:.3g} "
                         f"bit-steps, over the budget of {MAX_COUNT_WORK}")
    if signed:
        return combinatorics.m2_count_closed(n, k)
    return combinatorics.m1_count(n, k)
