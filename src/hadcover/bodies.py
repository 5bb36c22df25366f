"""The four body families, membership tests, and boundary sampling.

Bodies are stored in normalized form: the defining sum (coordinate sum,
l1 norm, or p-th power sum) is bounded by ``n`` at scale 1, so integer
translates act naturally.  The unit bodies correspond to scale 1/n.

Polytopal families (simplex, cross-polytope, and the l_p families at
p = 1) are handled in exact rational arithmetic; p > 1 requires floats.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Union

SIMPLEX = "simplex"
CROSSPOLYTOPE = "crosspolytope"
QUARTER_LP = "qlp"
LP = "lp"

FAMILIES = (SIMPLEX, CROSSPOLYTOPE, QUARTER_LP, LP)

Scale = Union[int, Fraction, float]

# Relative slack of the float membership test; see contains_float.
TOL = 1e-9


class _BodyFields(NamedTuple):
    family: str
    n: int
    p: float = 1.0
    scale: Scale = Fraction(1)


class BodySpec(_BodyFields):
    """A normalized body together with a positive scale multiplier.

    scale=1 is the normalized body (defining sum bounded by n).  The
    scale must be exact (int or Fraction) for the polytopal families;
    a float scale is accepted only for p > 1, where membership is
    decided numerically anyway and :attr:`bound` must be a finite
    float.  p must be finite and >= 1.  Instances are immutable; they
    keep a ``__dict__`` only for the cached :attr:`bound`.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown body family: {self.family!r}")
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.family in (SIMPLEX, CROSSPOLYTOPE) and self.p != 1:
            raise ValueError(f"{self.family} is a p=1 body")
        if isinstance(self.scale, float) and self.is_polytopal:
            raise ValueError("polytopal bodies need an exact (rational) scale")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        # Kept last, as it returns early.  Polytopal bounds are exact.
        with contextlib.suppress(OverflowError):
            if self.is_polytopal or math.isfinite(self.bound):
                return self
        raise ValueError("scale**p * n must be a finite float")

    # Through __new__, so that _replace validates as construction does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def is_polytopal(self) -> bool:
        """True when membership is decidable in exact rational arithmetic."""
        return self.family in (SIMPLEX, CROSSPOLYTOPE) or self.p == 1

    @functools.cached_property
    def bound(self) -> Scale:
        """scale**p * n, the bound on the defining sum; exact when polytopal."""
        if self.is_polytopal:
            return Fraction(self.scale) * self.n
        return float(self.scale) ** self.p * self.n

    @property
    def nonnegative(self) -> bool:
        """True for bodies confined to the nonnegative orthant."""
        return self.family in (SIMPLEX, QUARTER_LP)

    def rescaled(self, scale: Scale) -> "BodySpec":
        return self._replace(scale=scale)

    def pth_root(self, num: int, den: int) -> Scale:
        """(num/den)^(1/p): an exact Fraction for polytopal bodies, else a float."""
        return Fraction(num, den) if self.is_polytopal else (num / den) ** (1.0 / self.p)


class RationalPoint(Sequence):
    """The exact point nums[i]/den: int numerators over one positive int den.

    It reads as the tuple of its Fractions (len, indexing, iteration,
    == with tuples, hash and repr) and builds a Fraction only when a
    coordinate is read; the exact functions work on nums and den.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int):
        nums = tuple(nums)
        if not all(map(isinstance, nums, repeat(int))):
            raise ValueError("numerators must be ints")
        if not isinstance(den, int) or den < 1:
            raise ValueError("den must be a positive int")
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return RationalPoint, (self.nums, self.den)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RationalPoint(self.nums[i], self.den)
        return Fraction(self.nums[i], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return map(Fraction, self.nums, repeat(self.den))

    def __eq__(self, other):
        if isinstance(other, (tuple, RationalPoint)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def contains_exact(body: BodySpec, point: Sequence) -> bool:
    """Exact membership test for polytopal bodies (boundary counts as inside).

    Coordinates must be ints or Fractions, used as given, or the point
    a RationalPoint; any other type raises ValueError.  The decision
    never rounds: sum |N_i| * b <= a * D for the bound a/b.
    """
    if not body.is_polytopal:
        raise ValueError("exact membership needs a polytopal body (p = 1)")
    point = _exact_form(body.n, body.nonnegative, point)
    if point is None:
        return False
    bound = body.bound
    return sum(map(abs, point.nums)) * bound.denominator <= bound.numerator * point.den


def _exact_form(n: int, nonnegative: bool, point: Sequence) -> RationalPoint | None:
    """point as a RationalPoint N/D; None for a coordinate < 0 if nonnegative.

    The one place where an exact point becomes integers: a RationalPoint
    passes through, an int or Fraction sequence is validated and put
    over the lcm D of its denominators.  contains_exact and the witness
    both read it, each comparing with its own bound.
    """
    _check_dim(n, point)
    if not isinstance(point, RationalPoint):
        if not all(map(isinstance, point, repeat((int, Fraction)))):
            raise ValueError("exact coordinates must be int or Fraction")
        den = math.lcm(*(c.denominator for c in point))
        point = RationalPoint([c.numerator * (den // c.denominator) for c in point], den)
    if nonnegative and min(point.nums) < 0:
        return None
    return point


def contains_float(body: BodySpec, point: Sequence[float]) -> bool:
    """Tolerant membership test for the l_p families.

    Accepts the point when sum |x_i|^p <= scale^p * n * (1 + TOL), and
    for the quarter ball additionally requires every x_i >= -TOL.  A
    term |x_i|^p past the float range is past the finite bound: outside.
    """
    if body.family not in (QUARTER_LP, LP):
        raise ValueError("float membership is for the l_p families")
    _check_dim(body.n, point)
    coords = list(map(float, point))
    if not all(map(math.isfinite, coords)):
        raise ValueError("coordinates must be finite")
    try:
        return _float_inside(body, coords, map(pow, map(abs, coords), repeat(body.p)))
    except OverflowError:
        return False


def _float_inside(body: BodySpec, coords: Sequence, terms: Iterable[float]) -> bool:
    """contains_float's rule, given finite coords and their terms |x_i|^p in order."""
    if body.family == QUARTER_LP and min(coords) < -TOL:
        return False
    return _sum_in_order(terms) <= body.bound * (1.0 + TOL)


def _sum_in_order(terms: Iterable[float]) -> float:
    """Left to right, as sum() up to 3.11; from 3.12 its float sum compensates."""
    total = 0.0
    for term in terms:
        total += term
    return total


def vertices(body: BodySpec) -> list[tuple]:
    """Vertex list of a polytopal body: exact, ints where integral.

    Simplex-like bodies: the origin, then scale*n*e_i for each i.
    Cross-polytope bodies: scale*n*e_i and -scale*n*e_i for each i.
    Curved bodies (p > 1) have no vertex list.
    """
    if not body.is_polytopal:
        raise ValueError("curved bodies (p > 1) have no vertex list")
    n, r = body.n, body.bound
    r = r.numerator if r.denominator == 1 else r
    out = [(0,) * n] if body.nonnegative else []
    signs = (r,) if body.nonnegative else (r, -r)
    return out + [(0,) * i + (c,) + (0,) * (n - 1 - i) for i in range(n) for c in signs]


# Rational samples draw numerators below this denominator.
_SAMPLE_DENOMINATOR = 10**4
# Fraction of samples forced into the outer shell, rest uniform in depth.
_SHELL_BIAS = 0.8


def sample_boundary(body: BodySpec, count: int, seed: int | random.Random) -> list[Sequence]:
    """Deterministic in-body samples, biased toward the outer shell.

    80% of the samples land in the outermost slab of the defining sum
    (width min(1, range/n), the region where covering arguments are
    nontrivial); the rest spread uniformly in depth.  Polytopal bodies
    yield RationalPoints, integer numerators over one denominator, each
    target sum drawn as an integer numerator over a fixed denominator;
    curved ones yield tuples of floats.
    An int seed starts a fresh stream; a ``random.Random`` is drawn from
    and advanced, so consecutive calls on one generator return the
    samples one call of their total count would.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    sampler = _sample_exact if body.is_polytopal else _sample_float
    return list(sampler(body, rng, count))


def _shell_floor(total: Scale, n: int) -> Scale:
    # Outer slab: width 1 once the body is large enough, else top 1/n.
    return max(total - 1, total * (n - 1) / n)


def _sample_exact(body: BodySpec, rng: random.Random, count: int) -> Iterator[RationalPoint]:
    # bound = b/q, lo = l/q: lo + (bound - lo)*r/d is (l*d + (b - l)*r)/(q*d).
    n, d, signed = body.n, _SAMPLE_DENOMINATOR, not body.nonnegative
    bound, lo = body.bound, _shell_floor(body.bound, n)
    q = math.lcm(bound.denominator, lo.denominator)
    b, l = bound.numerator * (q // bound.denominator), lo.numerator * (q // lo.denominator)
    for _ in range(count):
        shell = rng.random() < _SHELL_BIAS
        num = l * d + (b - l) * rng.randint(1, d) if shell else b * rng.randint(0, d)
        while True:
            weights = [rng.randint(0, d) for _ in range(n)]
            total = sum(weights)
            if total > 0:
                break
        yield RationalPoint([-num * w if signed and rng.random() >= 0.5 else num * w
                             for w in weights], q * d * total)


def _sample_float(body: BodySpec, rng: random.Random, count: int) -> Iterator[tuple]:
    n, p, bound, signed = body.n, body.p, body.bound, not body.nonnegative
    lo, root = _shell_floor(bound, n), 1.0 / p
    for _ in range(count):
        shell = rng.random() < _SHELL_BIAS
        target = lo + (bound - lo) * rng.random() if shell else bound * rng.random()
        while True:
            weights = [rng.random() for _ in range(n)]
            top = max(weights)
            if top > 0:
                break
        # With the largest weight at 1 the power sum is >= 1 at any p.
        weights = [w / top for w in weights]
        factor = (target / _sum_in_order(map(pow, weights, repeat(p)))) ** root
        coords = [factor * w for w in weights]
        # One ulp of factor scales the power sum by about exp(p * 2**-52),
        # past any tolerance at large p: step down until the point is inside.
        while _sum_in_order(map(pow, coords, repeat(p))) > bound:
            factor = math.nextafter(factor, 0.0)
            coords = [factor * w for w in weights]
        if signed:
            coords = [-c if rng.random() >= 0.5 else c for c in coords]
        yield tuple(coords)


def _check_dim(n: int, point: Sequence) -> None:
    if len(point) != n:
        raise ValueError(f"point has dimension {len(point)}, body needs {n}")
