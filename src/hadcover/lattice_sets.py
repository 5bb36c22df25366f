"""Streaming enumeration of the translation sets M1(n, k) and M2(n, k)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import combinatorics

M1 = "m1"
M2 = "m2"


@dataclass(frozen=True)
class LatticeSetSpec:
    """Which translation set: m1 (nonnegative, sum <= k) or m2 (l1 norm <= k)."""

    kind: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.kind not in (M1, M2):
            raise ValueError(f"unknown lattice set kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")


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
    """Cardinality of the set, from the exact closed forms."""
    if spec.kind == M1:
        return combinatorics.m1_count(spec.n, spec.k)
    return combinatorics.m2_count_closed(spec.n, spec.k)
